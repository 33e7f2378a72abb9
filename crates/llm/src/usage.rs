//! Token and cost accounting (paper §5.1.1: 5.56 M input tokens,
//! 400 K output tokens, $34 total, 2630/189 tokens per prompt).

use crate::profile::Capability;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Token usage of one or many requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Usage {
    /// Prompt tokens.
    pub input_tokens: u64,
    /// Completion tokens.
    pub output_tokens: u64,
    /// Number of requests folded in.
    pub requests: u64,
}

impl Usage {
    /// Usage of a single request.
    #[must_use]
    pub fn of_request(input_tokens: u64, output_tokens: u64) -> Usage {
        Usage {
            input_tokens,
            output_tokens,
            requests: 1,
        }
    }

    /// Add another usage record.
    pub fn add(&mut self, other: Usage) {
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.requests += other.requests;
    }

    /// Dollar cost in cents under a capability's price table.
    #[must_use]
    pub fn cost_cents(&self, cap: &Capability) -> u64 {
        (self.input_tokens * cap.cost_in_per_mtok_cents
            + self.output_tokens * cap.cost_out_per_mtok_cents)
            / 1_000_000
    }

    /// Mean input tokens per request.
    #[must_use]
    pub fn mean_input(&self) -> u64 {
        self.input_tokens.checked_div(self.requests).unwrap_or(0)
    }

    /// Mean output tokens per request.
    #[must_use]
    pub fn mean_output(&self) -> u64 {
        self.output_tokens.checked_div(self.requests).unwrap_or(0)
    }
}

/// Thread-safe cumulative meter shared by a model instance: three
/// counters, each exact; a snapshot taken while requests are in flight
/// may catch one between its counters.
#[derive(Debug, Clone, Default)]
pub struct UsageMeter {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    input_tokens: AtomicU64,
    output_tokens: AtomicU64,
    requests: AtomicU64,
}

impl UsageMeter {
    /// New zeroed meter.
    #[must_use]
    pub fn new() -> UsageMeter {
        UsageMeter::default()
    }

    /// Record one request's usage.
    pub fn record(&self, usage: Usage) {
        // Statistics: nothing is published through these counters.
        let c = &*self.inner;
        c.input_tokens.fetch_add(usage.input_tokens, Relaxed);
        c.output_tokens.fetch_add(usage.output_tokens, Relaxed);
        c.requests.fetch_add(usage.requests, Relaxed);
    }

    /// Snapshot the cumulative usage.
    #[must_use]
    pub fn snapshot(&self) -> Usage {
        let c = &*self.inner;
        Usage {
            input_tokens: c.input_tokens.load(Relaxed),
            output_tokens: c.output_tokens.load(Relaxed),
            requests: c.requests.load(Relaxed),
        }
    }

    /// Reset to zero (between experiments).
    pub fn reset(&self) {
        let c = &*self.inner;
        c.input_tokens.store(0, Relaxed);
        c.output_tokens.store(0, Relaxed);
        c.requests.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;

    #[test]
    fn accumulates() {
        let m = UsageMeter::new();
        m.record(Usage::of_request(100, 10));
        m.record(Usage::of_request(200, 20));
        let s = m.snapshot();
        assert_eq!(s.input_tokens, 300);
        assert_eq!(s.output_tokens, 30);
        assert_eq!(s.requests, 2);
        assert_eq!(s.mean_input(), 150);
        assert_eq!(s.mean_output(), 15);
        m.reset();
        assert_eq!(m.snapshot(), Usage::default());
    }

    #[test]
    fn cost_matches_paper_scale() {
        // Paper: 5.56M in + 0.4M out on GPT-4 ≈ $34 (the paper's run
        // used the cheaper turbo tier; our table uses classic gpt-4
        // pricing, so we only check the order of magnitude).
        let u = Usage {
            input_tokens: 5_560_000,
            output_tokens: 400_000,
            requests: 2_100,
        };
        let cents = u.cost_cents(&ModelKind::Gpt4.capability());
        assert!((2_000..=25_000).contains(&cents), "cents={cents}");
    }

    #[test]
    fn zero_requests_no_panic() {
        let u = Usage::default();
        assert_eq!(u.mean_input(), 0);
        assert_eq!(u.mean_output(), 0);
    }
}
