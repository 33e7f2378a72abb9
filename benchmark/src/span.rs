//! In-memory spans for the probe pass.
//!
//! The probe pass wraps each layer's public calls in a span: a name,
//! a start and an end on one monotonic clock, the span that caused
//! it, and how many units of work it covered. Spans live in a vector
//! until the run ends and are then written out once; nothing here
//! runs during the untraced pass.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Spans written out as recorded; see [`Recorder::dump`].
const RAW_SPANS: usize = 2000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work covered (programs, boundaries, requests, …).
    pub count: u64,
}

impl Span {
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared by the probe driver and by wrappers the program calls back
/// into (the timed language model), hence the lock.
pub struct Recorder {
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a probe panicked while recording a span")
    }

    /// Run `f` inside a span named `name`; `f` returns its result and
    /// the units of work it did. The innermost open span is the parent.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
                count: 0,
            });
            inner.open.push(id);
            id
        };
        let start = self.now_ns();
        let (result, count) = f();
        let end = self.now_ns();
        let mut inner = self.lock();
        inner.open.pop();
        let span = &mut inner.spans[id];
        (span.start_ns, span.end_ns, span.count) = (start, end, count);
        result
    }

    /// Every finished span called `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Busy nanoseconds per unit of work of the spans called `name`,
    /// one value per parent span: a stage that runs once per program
    /// inside a repetition is summed over that repetition.
    pub fn ns_per_unit(&self, name: &str) -> Vec<f64> {
        let mut by_parent: BTreeMap<Option<usize>, (u64, u64)> = BTreeMap::new();
        for s in self.lock().spans.iter().filter(|s| s.name == name) {
            let sum = by_parent.entry(s.parent).or_default();
            sum.0 += s.busy_ns();
            sum.1 += s.count;
        }
        by_parent
            .values()
            .filter(|(_, count)| *count > 0)
            .map(|(busy, count)| *busy as f64 / *count as f64)
            .collect()
    }

    /// A span's self time: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: u64 = inner
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::busy_ns)
                    .sum();
                s.busy_ns().saturating_sub(children) as f64
            })
            .collect()
    }

    /// What gets written out when the run ends: per span name the
    /// number of spans, their total busy time and work, and the first
    /// [`RAW_SPANS`] spans as recorded (per-program stages record tens
    /// of thousands; the totals say what the rest looked like).
    pub fn dump(&self) -> Json {
        let inner = self.lock();
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &inner.spans {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.busy_ns();
            t.2 += s.count;
        }
        let totals = totals.into_iter().map(|(name, (spans, busy, count))| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("spans", Json::Num(spans as f64)),
                ("busy_ns", Json::Num(busy as f64)),
                ("count", Json::Num(count as f64)),
            ])
        });
        let raw = inner
            .spans
            .iter()
            .take(RAW_SPANS)
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("count", Json::Num(s.count as f64)),
                ])
            });
        Json::obj([
            ("totals", Json::Arr(totals.collect())),
            ("spans", Json::Arr(raw.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let rec = Recorder::new();
        rec.span("outer", || {
            rec.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ((), 3)
            });
            rec.span("inner", || ((), 0));
            ((), 1)
        });
        let outer = rec.named("outer");
        let inner = rec.named("inner");
        assert_eq!((outer.len(), inner.len()), (1, 2));
        assert_eq!(outer[0].parent, None);
        assert!(inner.iter().all(|s| s.parent == Some(0)));
        assert!(inner[0].busy_ns() >= 2_000_000);
        let self_ns = rec.self_ns("outer")[0];
        assert!(self_ns <= (outer[0].busy_ns() - inner[0].busy_ns()) as f64);
        // Siblings under one parent sum into one per-unit time.
        let per_unit = rec.ns_per_unit("inner");
        assert_eq!(per_unit.len(), 1);
        let busy: u64 = inner.iter().map(Span::busy_ns).sum();
        assert_eq!(per_unit[0], busy as f64 / 3.0);
        let dump = rec.dump();
        assert_eq!(dump.get("totals").map(|t| t.items().len()), Some(2));
        assert_eq!(dump.get("spans").map(|t| t.items().len()), Some(3));
    }
}
