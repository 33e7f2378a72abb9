//! Campaign-side crash triage: per-shard signature capture and the
//! driving-thread minimization pass.
//!
//! The split mirrors the seed hub's discipline:
//!
//! * **capture** happens inside the shard loop ([`ShardTriage`]): the
//!   first time a shard observes a [`CrashSignature`], it clones the
//!   crashing `ProgCall` stream (a cold path — at most once per
//!   signature per shard) and counts every further observation;
//! * **minimization** happens at epoch boundaries, draining shards
//!   **in shard-id order** ([`TriageMinimizer::drain`] — the one
//!   drain, the same code on a driving thread and on a fabric
//!   worker): the raw reproducer of a signature new to the campaign's
//!   [`TriageReport`] is ddmin-minimized by replaying candidate
//!   subsequences through the shared lowered [`ExecScratch`] path,
//!   and [`crate::boundary::Boundary::admit_shard`] admits the candidates
//!   first-publisher-wins — so the report is a pure function of
//!   `(config, shards)` and neither the worker thread count nor the
//!   route changes it.

use crate::exec::{execute_with, ExecScratch};
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::stage::{self, Stage};
use kgpt_triage::{minimize_guided, MinimizeOutcome, TraceGuide, TriageEntry, TriageReport};
use kgpt_vkernel::{CrashReport, CrashSignature, TraceEvent, VKernel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A first-seen signature capture waiting for the next boundary.
pub(crate) struct TriageCapture {
    signature: CrashSignature,
    title: String,
    cve: Option<String>,
    program: Program,
    epoch: u64,
}

/// Per-shard triage state: which signatures this shard has seen, the
/// captures and observation counts accumulated since the last drain.
#[derive(Default)]
pub(crate) struct ShardTriage {
    /// Signatures this shard has ever observed (capture-once guard).
    seen: BTreeSet<CrashSignature>,
    /// First-seen captures since the last drain.
    fresh: Vec<TriageCapture>,
    /// Observation counts since the last drain.
    counts: BTreeMap<CrashSignature, u64>,
}

impl ShardTriage {
    /// Signatures this shard has ever observed. At epoch boundaries
    /// (post-drain) this is the shard's *entire* triage state —
    /// `fresh` and `counts` are empty — so it is what the checkpoint
    /// layer persists.
    pub(crate) fn seen(&self) -> &BTreeSet<CrashSignature> {
        &self.seen
    }

    /// The signatures first seen since the last drain, ascending —
    /// what the seen-set gained, whichever of their captures the drain
    /// goes on to minimize. No allocation when there are none.
    pub(crate) fn fresh_seen(&self) -> Vec<CrashSignature> {
        let mut seen: Vec<CrashSignature> = self.fresh.iter().map(|c| c.signature).collect();
        seen.sort_unstable();
        seen
    }

    /// Rebuild boundary-state triage from a checkpointed seen-set
    /// (fresh captures and pending counts are empty at boundaries by
    /// construction).
    pub(crate) fn from_seen(seen: BTreeSet<CrashSignature>) -> ShardTriage {
        ShardTriage {
            seen,
            fresh: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Record one crashing execution. `prog` is only cloned on the
    /// first local observation of the signature.
    pub(crate) fn observe(&mut self, crash: &CrashReport, prog: &Program, epoch: u64) {
        let sig = crash.signature;
        *self.counts.entry(sig).or_insert(0) += 1;
        if self.seen.insert(sig) {
            self.fresh.push(TriageCapture {
                signature: sig,
                title: crash.title.to_string(),
                cve: crash.cve.as_deref().map(String::from),
                program: prog.clone(),
                epoch,
            });
        }
    }
}

/// The driving thread's minimization engine: one reusable lowered
/// execution scratch, shared by every shard's drain.
pub(crate) struct TriageMinimizer {
    scratch: ExecScratch,
}

impl TriageMinimizer {
    pub(crate) fn new(lowered: &Arc<LoweredDb>) -> TriageMinimizer {
        TriageMinimizer {
            scratch: ExecScratch::from_lowered(Arc::clone(lowered)),
        }
    }

    /// Drain one shard's boundary contribution: its fresh captures,
    /// minimized here into candidate entries in capture order, and its
    /// observation counts in signature order — what
    /// [`crate::boundary::Boundary::admit_shard`] takes, for shards in
    /// ascending id order at every boundary. A capture whose signature
    /// `owned` already holds is dropped unminimized: first publisher
    /// wins, so it could never be admitted, and only its counts fold
    /// in. A fabric worker has no campaign report to consult and
    /// passes an empty one — it minimizes every capture, the
    /// coordinator drops the losers at admission, and the merged
    /// report is the same.
    pub(crate) fn drain(
        &mut self,
        kernel: &VKernel,
        shard_id: u32,
        triage: &mut ShardTriage,
        owned: &TriageReport,
    ) -> (Vec<TriageEntry>, Vec<(CrashSignature, u64)>) {
        let candidates = std::mem::take(&mut triage.fresh)
            .into_iter()
            .filter(|cap| !owned.contains(&cap.signature))
            .map(|cap| self.minimize_capture(kernel, shard_id, cap))
            .collect();
        let counts = std::mem::take(&mut triage.counts).into_iter().collect();
        (candidates, counts)
    }

    /// Minimize one fresh capture into a report entry (`count` 0; the
    /// caller folds observation counts separately). Pure function of
    /// `(capture, kernel, lowered)`: the probe and every ddmin replay
    /// run on this boundary scratch and draw no campaign randomness,
    /// so a capture minimizes to the same entry wherever it drains.
    fn minimize_capture(
        &mut self,
        kernel: &VKernel,
        shard_id: u32,
        cap: TriageCapture,
    ) -> TriageEntry {
        let sig = cap.signature;
        let (outcome, reproducible) =
            minimize_program(kernel, &mut self.scratch, &cap.program, sig);
        TriageEntry {
            signature: sig,
            title: cap.title,
            cve: cap.cve,
            first_epoch: cap.epoch,
            first_shard: shard_id,
            count: 0,
            raw: cap.program,
            minimized: outcome.program,
            minimize_execs: outcome.execs,
            reproducible,
        }
    }
}

/// Minimize a crashing program against its [`CrashSignature`], guided
/// by the flight-recorder trace of a single probe execution.
///
/// The probe runs `raw` once on `scratch`. If it no longer triggers
/// `sig` — a stale capture — the program comes back unchanged,
/// non-reproducible, at a cost of one exec. Otherwise the event log
/// the VM kept of the probe becomes a [`TraceGuide`]: the crashing
/// call index, per-call retired block counts, and per-call error
/// returns, which [`minimize_guided`] uses to attempt one verified
/// prune before running plain ddmin.
///
/// Guidance never changes the result — a pruned candidate must replay
/// to the same signature before it is used, so the outcome is exactly
/// as 1-minimal as unguided [`fn@kgpt_triage::minimize`], and bad or
/// stale hints only cost probes. Returns the minimization outcome and
/// whether the capture reproduced. The outcome's `execs` counts the
/// ddmin replays (and the guided prune probe, if attempted), not the
/// initial reproduction probe.
pub fn minimize_program(
    kernel: &VKernel,
    scratch: &mut ExecScratch,
    raw: &Program,
    sig: CrashSignature,
) -> (MinimizeOutcome, bool) {
    execute_with(kernel, raw, scratch);
    let reproducible = scratch.crash().is_some_and(|c| c.signature == sig);
    let guide = guide_from_scratch(scratch, raw.len());
    if !reproducible {
        // Mirrors `minimize`'s non-reproducing contract: the program
        // comes back unchanged at a cost of one probe.
        let outcome = MinimizeOutcome {
            program: raw.clone(),
            execs: 1,
        };
        return (outcome, false);
    }
    let outcome = minimize_guided(raw, &guide, |candidate| {
        stage::time(Stage::ProbeExec, || {
            execute_with(kernel, candidate, scratch)
        });
        scratch.crash().is_some_and(|c| c.signature == sig)
    });
    (outcome, true)
}

/// Distil the last execution's trace (and return values) on `scratch`
/// into a [`TraceGuide`] for a `prog_len`-call program.
///
/// Call markers in the trace name exactly the calls that reached the
/// kernel (skipped calls emit none — see [`execute_with`]), so block
/// events are attributed to the most recent marker. `rets` holds one
/// entry per call on every path, which keeps the error vector aligned
/// with the program even when a crash short-circuits the tail.
fn guide_from_scratch(scratch: &ExecScratch, prog_len: usize) -> TraceGuide {
    let mut guide = TraceGuide {
        crash_call: None,
        call_blocks: vec![0u64; prog_len],
        call_errs: scratch.rets.iter().map(|r| *r < 0).collect(),
    };
    let mut cur: Option<usize> = None;
    for ev in scratch.events() {
        match *ev {
            TraceEvent::Call { index } => cur = Some(index as usize),
            TraceEvent::Block { len, .. } => {
                if let Some(c) = cur.filter(|c| *c < guide.call_blocks.len()) {
                    guide.call_blocks[c] += u64::from(len);
                }
            }
            TraceEvent::Crash { .. } => guide.crash_call = cur,
        }
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_syzlang::lowered::LoweredDb;
    use kgpt_syzlang::SpecDb;
    use kgpt_vkernel::{SanitizerKind, Sysno};

    #[test]
    fn stale_capture_is_reported_non_reproducible_without_panicking() {
        // A capture whose program no longer triggers its signature
        // (oracle returns false on the boundary replay): the drain
        // must admit it unchanged, flag it non-reproducible, and keep
        // going — not panic or loop in the minimizer. Fabricated by
        // observing a signature against a benign (empty) program.
        let kc = kgpt_csrc::KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        let kernel = kgpt_vkernel::VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let lowered = std::sync::Arc::new(LoweredDb::build(&db, kc.consts()));

        let sig = kgpt_vkernel::CrashSignature {
            sysno: Sysno::Ioctl,
            chain_depth: 1,
            sanitizer: SanitizerKind::Kmalloc,
            site: 42,
        };
        let crash = kgpt_vkernel::CrashReport {
            title: "stale capture".into(),
            cve: None,
            handler: "dm".into(),
            signature: sig,
        };
        let mut shard = ShardTriage::default();
        shard.observe(&crash, &Program::default(), 3);
        shard.observe(&crash, &Program::default(), 3);

        let mut boundary = crate::boundary::Boundary::new(0);
        let (candidates, counts) =
            TriageMinimizer::new(&lowered).drain(&kernel, 0, &mut shard, &boundary.triage);
        boundary.admit_shard(candidates, counts);

        let e = boundary
            .triage
            .get(&sig)
            .expect("stale capture still reported");
        assert!(!e.reproducible);
        assert_eq!(e.minimized, e.raw, "non-reproducing capture kept as-is");
        assert_eq!(e.minimize_execs, 1, "one probe, no ddmin");
        assert_eq!(e.count, 2);
        // The drained shard state is reusable: the campaign continues.
        assert!(shard.fresh.is_empty());
        assert!(shard.counts.is_empty());
        assert!(shard.seen().contains(&sig));

        // A later shard's capture of a signature the report owns is
        // dropped unminimized — only its count folds in; a worker,
        // which consults no report, minimizes it.
        let mut minimizer = TriageMinimizer::new(&lowered);
        for (owned, candidates) in [(&boundary.triage, 0), (&TriageReport::new(), 1)] {
            let mut late = ShardTriage::default();
            late.observe(&crash, &Program::default(), 4);
            let (cands, counts) = minimizer.drain(&kernel, 1, &mut late, owned);
            assert_eq!(cands.len(), candidates);
            assert_eq!(counts, vec![(sig, 1)]);
        }
    }

    #[test]
    fn seen_round_trip_restores_boundary_state() {
        let sig = kgpt_vkernel::CrashSignature {
            sysno: Sysno::Close,
            chain_depth: 2,
            sanitizer: SanitizerKind::Odebug,
            site: 9,
        };
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(sig);
        let restored = ShardTriage::from_seen(seen.clone());
        assert_eq!(restored.seen(), &seen);
        assert!(restored.fresh.is_empty());
        assert!(restored.counts.is_empty());
    }
}
