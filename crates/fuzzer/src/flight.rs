//! Flight-recorder wiring: per-shard trace capture during campaigns
//! and the deterministic time-travel replayer.
//!
//! The trace *formats* live in [`kgpt_trace`]; this module connects
//! them to the campaign loop. A `ShardTracer` rides inside each
//! `ShardState`: after every execution it delta-codes the VM's
//! [`kgpt_vkernel::TraceLog`] against the kernel's
//! [`CfgSuccessors`] table and files the result in the shard's
//! [`TraceStore`] (bounded ring + pinned crash traces). Because shard
//! state evolves schedule-independently, the stores are a pure
//! function of `(config, shards)` — the worker thread count never
//! changes a single recorded byte (pinned by tests in
//! [`crate::shard`]).
//!
//! [`replay_trace`] is the other direction: re-execute any recorded
//! exec from its self-contained header and cross-check the recorded
//! block stream against the live run, byte for byte.

use crate::exec::{execute_with, ExecScratch};
use kgpt_syzlang::lowered::{CfgRun, CfgSuccessors};
use kgpt_syzlang::prog::Program;
use kgpt_trace::{decode_events, encode_events, ExecTrace, TraceError, TraceStore};
use kgpt_vkernel::{CrashSignature, TraceEvent, VKernel};
use std::sync::Arc;

/// Build the delta-coding prediction table for a booted kernel.
///
/// The table is a pure function of the kernel's block layout
/// ([`VKernel::cfg_runs`]), so the recorder and any later replayer —
/// even in another process — derive the identical table and their
/// streams compare byte-for-byte.
#[must_use]
pub fn cfg_successors(kernel: &VKernel) -> CfgSuccessors {
    CfgSuccessors::build(
        kernel
            .cfg_runs()
            .into_iter()
            .map(|(start, len, next)| CfgRun { start, len, next })
            .collect(),
    )
}

/// Per-shard recorder: encodes each exec's trace log and files it in
/// the shard's [`TraceStore`].
#[derive(Clone)]
pub(crate) struct ShardTracer {
    /// Shared prediction table (one per campaign, not per shard).
    cfg: Arc<CfgSuccessors>,
    /// Spec-suite fingerprint stamped into every trace header.
    spec_fp: u64,
    /// Owning shard id, stamped into every trace header.
    shard: u32,
    /// Retained traces.
    store: TraceStore,
    /// Scratch buffer for program encoding, reused across execs.
    prog_buf: Vec<u8>,
}

impl ShardTracer {
    pub(crate) fn new(
        cfg: Arc<CfgSuccessors>,
        spec_fp: u64,
        shard: u32,
        cap: usize,
    ) -> ShardTracer {
        ShardTracer {
            cfg,
            spec_fp,
            shard,
            store: TraceStore::new(cap),
            prog_buf: Vec::new(),
        }
    }

    /// Record the execution that just finished in `scratch`.
    pub(crate) fn record(&mut self, scratch: &ExecScratch, prog: &Program, epoch: u64) {
        let (stream, stream_bits) = encode_events(&self.cfg, scratch.state.trace().events());
        self.prog_buf.clear();
        prog.encode_into(&mut self.prog_buf);
        self.store.record(ExecTrace {
            shard: self.shard,
            epoch,
            exec: self.store.execs_seen(),
            exec_fuel: scratch.state.fuel_limit(),
            spec_fingerprint: self.spec_fp,
            fuel_exhausted: scratch.state.fuel_exhausted(),
            crash: scratch.crash().map(|c| c.signature),
            program: self.prog_buf.clone(),
            stream,
            stream_bits,
        });
    }

    /// The shard's retained traces.
    pub(crate) fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Replace the retained traces (checkpoint resume).
    pub(crate) fn set_store(&mut self, store: TraceStore) {
        self.store = store;
    }

    /// Surrender the retained traces.
    pub(crate) fn into_store(self) -> TraceStore {
        self.store
    }
}

/// Outcome of replaying one recorded exec against a live kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Whether the live run reproduced the recorded stream
    /// byte-for-byte, with matching crash signature and fuel verdict.
    pub identical: bool,
    /// Crash signature the trace recorded, if any.
    pub recorded_crash: Option<CrashSignature>,
    /// Crash signature the live replay produced, if any.
    pub live_crash: Option<CrashSignature>,
    /// Blocks retired in the recorded stream.
    pub blocks: u64,
}

/// Re-execute a recorded exec and cross-check it against its trace.
///
/// The trace header carries everything replay needs: the encoded
/// program, the fuel budget it ran under, and the fingerprint of the
/// spec suite it was generated against. The live run's event log is
/// re-encoded with the same prediction table and compared
/// byte-for-byte against the recorded stream; crash signatures and
/// the fuel-exhaustion verdict must match too. The scratch's tracing
/// flag and fuel limit are restored afterwards.
///
/// # Errors
///
/// Returns a [`TraceError`] when `spec_fp` (the live suite's
/// fingerprint) does not match the trace header, or when the embedded
/// program or stream fails strict decoding. A *divergent* replay is
/// not an error — it reports `identical == false`.
pub fn replay_trace(
    kernel: &VKernel,
    scratch: &mut ExecScratch,
    cfg: &CfgSuccessors,
    trace: &ExecTrace,
    spec_fp: u64,
) -> Result<ReplayOutcome, TraceError> {
    if trace.spec_fingerprint != spec_fp {
        return Err(TraceError::new(format!(
            "spec fingerprint mismatch: trace {:#x}, live suite {:#x}",
            trace.spec_fingerprint, spec_fp
        )));
    }
    let prog = trace.decode_program()?;
    // Strict well-formedness check of the recorded stream (and the
    // block tally for reporting) before anything executes.
    let recorded = decode_events(cfg, &trace.stream, trace.stream_bits)?;
    let blocks = recorded
        .iter()
        .map(|e| match e {
            TraceEvent::Block { len, .. } => u64::from(*len),
            _ => 0,
        })
        .sum();
    let was_enabled = scratch.state.trace().enabled();
    let prior_fuel = scratch.state.fuel_limit();
    scratch.state.trace_mut().set_enabled(true);
    scratch.state.set_fuel_limit(trace.exec_fuel);
    execute_with(kernel, &prog, scratch);
    let (live_stream, live_bits) = encode_events(cfg, scratch.state.trace().events());
    let live_crash = scratch.crash().map(|c| c.signature);
    let identical = live_stream == trace.stream
        && live_bits == trace.stream_bits
        && live_crash == trace.crash
        && scratch.state.fuel_exhausted() == trace.fuel_exhausted;
    scratch.state.set_fuel_limit(prior_fuel);
    scratch.state.trace_mut().set_enabled(was_enabled);
    Ok(ReplayOutcome {
        identical,
        recorded_crash: trace.crash,
        live_crash,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::shard::ShardedCampaign;
    use kgpt_csrc::KernelCorpus;
    use kgpt_syzlang::{ConstDb, SpecCache, SpecFile};

    fn dm_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        (
            VKernel::boot(vec![kgpt_csrc::flagship::dm()]),
            suite,
            kc.consts().clone(),
        )
    }

    #[test]
    fn every_retained_trace_replays_identically() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 3000,
            seed: 1,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(4);
        let (result, stores) = campaign.run_traced();
        let spec_fp = SpecCache::fingerprint(campaign.db().files());
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let mut replayed = 0usize;
        let mut crashing = 0usize;
        for store in &stores {
            for t in store.iter() {
                let out = replay_trace(&kernel, &mut scratch, &cfg, t, spec_fp).unwrap();
                assert!(
                    out.identical,
                    "trace shard={} exec={} diverged",
                    t.shard, t.exec
                );
                assert_eq!(out.live_crash, t.crash);
                replayed += 1;
                if t.crash.is_some() {
                    crashing += 1;
                }
            }
        }
        assert!(replayed > 0, "no traces retained");
        assert!(crashing > 0, "dm campaign should pin crash traces");
        // Every triaged signature has a pinned trace replaying to the
        // same CrashSignature.
        for e in result.triage.entries() {
            assert!(
                stores.iter().any(|s| s.pinned_for(&e.signature).is_some()),
                "{} has no pinned trace",
                e.title
            );
        }
    }

    #[test]
    fn replay_refuses_the_wrong_suite_fingerprint() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 200,
            seed: 5,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(1);
        let (_, stores) = campaign.run_traced();
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let t = stores[0].iter().next().expect("a retained trace");
        let err = replay_trace(&kernel, &mut scratch, &cfg, t, 0xDEAD).unwrap_err();
        assert!(err.message.contains("fingerprint"), "{err}");
    }

    #[test]
    fn tampered_streams_are_detected_as_divergent_or_malformed() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            execs: 500,
            seed: 2,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config).with_shards(1);
        let (_, stores) = campaign.run_traced();
        let spec_fp = SpecCache::fingerprint(campaign.db().files());
        let cfg = cfg_successors(&kernel);
        let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
        let t = stores[0].iter().next().expect("a retained trace").clone();
        for bit in 0..t.stream_bits {
            let mut bad = t.clone();
            bad.stream[(bit / 8) as usize] ^= 1 << (bit % 8);
            // A strict-decode `Err` means the codec caught the flip
            // first; a successful replay must at least be flagged
            // non-identical.
            if let Ok(out) = replay_trace(&kernel, &mut scratch, &cfg, &bad, spec_fp) {
                assert!(!out.identical, "flipped bit {bit} replayed identically");
            }
        }
    }
}
