//! The coverage-guided fuzzing loop and campaign statistics.
//!
//! The loop itself lives in `ShardState`: one worker's generator,
//! [`crate::corpus::Corpus`], and execution scratch, advanced in
//! epochs so the sharded driver can interleave execution with
//! cross-shard seed exchange (see [`crate::hub::SeedHub`]). A
//! sequential [`Campaign`] is a single shard run in one epoch.
//!
//! One [`Program`] goes round that loop. The generator builds each
//! program into it ([`crate::gen`]), the executor reads it, and it
//! leaves the shard only when somebody keeps it: the corpus takes it
//! on admission ([`Corpus::observe_in_place`]) and a flight recorder
//! swaps it for the program of a ring slot it let go
//! ([`crate::flight`]). All but a fraction of a percent of execs are
//! rejected, and a rejected program is the next one's storage — so a
//! converged exec costs the allocator its new pointees and nothing per
//! call. The storage is no part of a shard's state: not in its
//! snapshot, its view, a checkpoint or a frame, because no result
//! depends on it.
//!
//! A mutant is executed from its parent's state at the first call it
//! may differ in ([`crate::exec::ExecPrefix`]): three execs in four are
//! mutants, and about half a deep-chain mutant's calls are its
//! parent's. The states are derived like the storage — kept beside the
//! corpus entry ([`Corpus::prefix`]), recorded as its mutants run — so
//! no snapshot, checkpoint or frame knows of them either.

use crate::boundary::Boundary;
use crate::corpus::Corpus;
use crate::exec::{execute_with, ExecScratch};
use crate::gen::Generator;
use crate::triage::{ShardTriage, TriageMinimizer};
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::{ConstDb, SpecCache, SpecDb, SpecFile};
use kgpt_triage::TriageReport;
use kgpt_vkernel::{CoverageMap, VKernel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Campaign parameters. Wall-clock budgets from the paper are scaled
/// to execution counts (documented in EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of program executions.
    pub execs: u64,
    /// RNG seed (repetitions use different seeds).
    pub seed: u64,
    /// Maximum calls per program.
    pub max_prog_len: usize,
    /// Restrict to these syscalls (`None` = all in the suite).
    pub enabled: Option<Vec<String>>,
    /// Executions each shard runs between cross-shard seed exchanges
    /// (0 = shards fuzz in isolation). Like the shard count, this is
    /// part of the campaign's deterministic identity; the worker
    /// thread count still never changes the result. Sequential
    /// campaigns have a single shard, for which exchange is a no-op.
    pub hub_epoch: u64,
    /// Seeds each shard publishes to the hub per exchange
    /// (0 = publish nothing, making every exchange a no-op).
    pub hub_top_k: usize,
    /// Per-exec fuel budget in work units (blocks retired plus
    /// argument bytes decoded; see `VmState::set_fuel_limit`), so a
    /// pathological program terminates gracefully instead of wedging
    /// its worker. 0 = unlimited. Exhaustion is counted
    /// ([`CampaignResult::fuel_exhausted`]), never treated as a crash,
    /// and the partial coverage of a cut-off exec still merges. Like
    /// every config field this is part of the campaign's deterministic
    /// identity.
    pub exec_fuel: u64,
    /// Flight-recorder ring capacity: how many of the most recent
    /// non-crashing exec traces each shard retains (crash traces are
    /// pinned separately and never evicted; see [`kgpt_trace`]).
    /// 0 disables capture. Tracing never changes execution results —
    /// coverage, crashes and triage are identical at any setting —
    /// but the field is still part of the campaign's deterministic
    /// identity because checkpoints carry retained traces. Under the
    /// sharded driver a ring is trimmed where each epoch starts (the
    /// replay contract in [`kgpt_trace`]): a warm ring holds `cap`
    /// traces less the crashing execs of the epoch in progress, and a
    /// ring of `execs / shards` still retains every non-crashing exec.
    /// An epoch whose ring the next one trims away unread runs
    /// untraced (see [`crate::flight`]).
    pub trace_ring: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            execs: 10_000,
            seed: 0,
            max_prog_len: 8,
            enabled: None,
            hub_epoch: 0,
            hub_top_k: 4,
            // Generous: orders of magnitude above what any spec-typed
            // program burns, so the watchdog only trips on runaways.
            exec_fuel: 1 << 20,
            // Cheap enough to leave on: ~32 traces × tens of stream
            // bytes per shard (see the `trace` bench section).
            trace_ring: 32,
        }
    }
}

impl CampaignConfig {
    /// Executions each shard runs between boundaries: `hub_epoch`, or
    /// the whole budget as a single epoch when the hub is off.
    pub(crate) fn epoch_budget(&self) -> u64 {
        match self.hub_epoch {
            0 => u64::MAX,
            e => e,
        }
    }
}

/// Crash title → (count, CVE): a campaign's triage report folded by
/// title (see [`CampaignResult::crashes`]).
pub type CrashTally = BTreeMap<String, (u64, Option<String>)>;

/// Outcome of a campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Union of covered blocks (dense bitmap; use
    /// [`CoverageMap::to_btree_set`] for a sorted-set report view).
    pub coverage: CoverageMap,
    /// Crash title → (count, CVE), derived from [`Self::triage`] when
    /// the result is folded: per title, the sum of its entries'
    /// `count`, with their CVE. A signature's site names exactly one
    /// bug of one handler, so one title and one CVE; no shard,
    /// snapshot, checkpoint or frame keeps a count of its own.
    pub crashes: CrashTally,
    /// Programs executed.
    pub execs: u64,
    /// Corpus size at the end (summed across shards when sharded).
    pub corpus_size: usize,
    /// Per-signature triage: raw + 1-minimal reproducers, dedup
    /// counts, first-seen epoch/shard — merged first-publisher-wins
    /// across shards (see [`kgpt_triage`]).
    pub triage: TriageReport,
    /// Executions cut off by the per-exec fuel watchdog
    /// ([`CampaignConfig::exec_fuel`]), summed across shards.
    pub fuel_exhausted: u64,
}

impl CampaignResult {
    /// Number of distinct crash titles among the triage report's
    /// entries (the keys of [`Self::crashes`]).
    #[must_use]
    pub fn unique_crashes(&self) -> usize {
        self.crashes.len()
    }

    /// Blocks covered.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.coverage.len()
    }

    /// The one result fold: merge per-shard parts, given in shard-id
    /// order, into the campaign result. Every route — sequential,
    /// sharded, fabric-merged — ends here, so their results agree by
    /// construction. The crash tally is folded from `triage` here and
    /// nowhere else.
    pub(crate) fn fold(
        parts: impl IntoIterator<Item = WorkerResult>,
        execs: u64,
        triage: TriageReport,
    ) -> CampaignResult {
        let mut crashes = CrashTally::new();
        for e in triage.entries() {
            crashes
                .entry(e.title.clone())
                .or_insert((0, e.cve.clone()))
                .0 += e.count;
        }
        let mut result = CampaignResult {
            coverage: CoverageMap::new(),
            crashes,
            execs,
            corpus_size: 0,
            triage,
            fuel_exhausted: 0,
        };
        for part in parts {
            result.coverage.merge(&part.coverage);
            result.corpus_size += part.corpus_size;
            result.fuel_exhausted += part.fuel_exhausted;
        }
        result
    }
}

/// Cap on retained corpus entries; the least-productive entry is
/// evicted (see [`Corpus`]) to bound memory on long campaigns.
pub(crate) const CORPUS_CAP: usize = 2048;

/// One worker's live state: generator, coverage-keyed corpus, crash
/// capture, and execution scratch. The loop is advanced in epochs
/// ([`ShardState::run_epoch`]) so the sharded driver can pause every
/// shard at the same exec boundary for hub exchange; running the
/// whole budget as one epoch is bit-identical to the epoch-chunked
/// run with no-op exchanges.
pub(crate) struct ShardState {
    pub(crate) id: u32,
    generator: Generator,
    scratch: ExecScratch,
    /// The program of the exec in progress; between execs, storage
    /// for the next (module docs). Scratch like `scratch`.
    prog: Program,
    pub(crate) corpus: Corpus,
    /// Per-shard signature capture and counts (drained by the driver
    /// at epoch boundaries in shard-id order; see [`crate::triage`]) —
    /// the shard's only record of its crashes.
    pub(crate) triage: ShardTriage,
    /// Epochs this shard has completed (the capture timestamp).
    epoch: u64,
    max_prog_len: usize,
    rng_pick: u64,
    pub(crate) remaining: u64,
    /// Executions cut off by the fuel watchdog.
    pub(crate) fuel_exhausted: u64,
    /// Flight recorder, when the campaign runs traced
    /// ([`CampaignConfig::trace_ring`] > 0 under the sharded driver).
    /// `None` leaves the exec path one never-taken branch per cover
    /// call. Not part of the snapshot: the sharded driver re-attaches
    /// tracers on restore and carries what the next epoch keeps of
    /// the stores in the checkpoint's own trace section.
    tracer: Option<crate::flight::ShardTracer>,
}

/// Everything a shard's in-memory state (`ShardState`) needs
/// persisted to continue exactly
/// where it left off — the serializable projection the checkpoint
/// layer (see [`crate::checkpoint`]) encodes per shard. Derived state
/// (the lowered IR, the execution scratch, the enabled-syscall list)
/// is rebuilt from `(lowered, config)` on restore.
///
/// Public as an *opaque* token: the campaign fabric
/// ([`crate::fabric`]) hands committed boundary snapshots across
/// process boundaries (encoded with the checkpoint framing), but the
/// fields stay crate-private — outside code can only obtain one from
/// the fabric codecs and pass it back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    pub(crate) id: u32,
    pub(crate) gen_rng: [u64; 4],
    /// The corpus itself, not its parts: a restored shard takes it as
    /// it is, and a coordinator closes its boundaries over it and
    /// patches it in place ([`crate::fabric`]).
    pub(crate) corpus: Corpus,
    pub(crate) triage_seen: std::collections::BTreeSet<kgpt_vkernel::CrashSignature>,
    pub(crate) epoch: u64,
    pub(crate) rng_pick: u64,
    pub(crate) remaining: u64,
    pub(crate) fuel_exhausted: u64,
}

/// Borrowed form of a [`ShardSnapshot`]: the same fields, pointing
/// into a live `ShardState` or into an owned snapshot. The shard
/// codec ([`crate::checkpoint`]) encodes this, so a base is written
/// straight from live state and the field order exists once.
#[derive(Clone, Copy)]
pub(crate) struct ShardView<'a> {
    pub(crate) id: u32,
    pub(crate) gen_rng: [u64; 4],
    pub(crate) corpus: &'a Corpus,
    pub(crate) triage_seen: &'a std::collections::BTreeSet<kgpt_vkernel::CrashSignature>,
    pub(crate) epoch: u64,
    pub(crate) rng_pick: u64,
    pub(crate) remaining: u64,
    pub(crate) fuel_exhausted: u64,
}

impl ShardView<'_> {
    /// Deep copy into an owned snapshot.
    pub(crate) fn to_snapshot(self) -> ShardSnapshot {
        ShardSnapshot {
            id: self.id,
            gen_rng: self.gen_rng,
            corpus: self.corpus.clone(),
            triage_seen: self.triage_seen.clone(),
            epoch: self.epoch,
            rng_pick: self.rng_pick,
            remaining: self.remaining,
            fuel_exhausted: self.fuel_exhausted,
        }
    }
}

impl ShardSnapshot {
    /// Borrow as the form the shard codec encodes.
    pub(crate) fn view(&self) -> ShardView<'_> {
        ShardView {
            id: self.id,
            gen_rng: self.gen_rng,
            corpus: &self.corpus,
            triage_seen: &self.triage_seen,
            epoch: self.epoch,
            rng_pick: self.rng_pick,
            remaining: self.remaining,
            fuel_exhausted: self.fuel_exhausted,
        }
    }

    /// The shard's share of the campaign result.
    pub(crate) fn into_result(self) -> WorkerResult {
        let (coverage, corpus_size) = self.corpus.into_coverage();
        WorkerResult {
            coverage,
            corpus_size,
            fuel_exhausted: self.fuel_exhausted,
        }
    }
}

impl ShardState {
    /// Fresh shard `id` with an execution budget of `execs`, seeded
    /// with `seed` (generator and corpus scheduler share it). Every
    /// shard shares the one lowered IR its campaign compiled.
    pub(crate) fn new(
        lowered: &Arc<LoweredDb>,
        config: &CampaignConfig,
        id: u32,
        execs: u64,
        seed: u64,
    ) -> ShardState {
        let mut generator = Generator::from_lowered(Arc::clone(lowered), seed);
        if let Some(enabled) = &config.enabled {
            generator = generator.with_enabled(enabled.clone());
        }
        let mut scratch = ExecScratch::from_lowered(Arc::clone(lowered));
        scratch.state.set_fuel_limit(config.exec_fuel);
        ShardState {
            id,
            generator,
            scratch,
            prog: Program::default(),
            corpus: Corpus::new(CORPUS_CAP, seed),
            triage: ShardTriage::default(),
            epoch: 0,
            max_prog_len: config.max_prog_len,
            rng_pick: seed,
            remaining: execs,
            fuel_exhausted: 0,
            tracer: None,
        }
    }

    /// Attach a flight recorder. It switches the VM's trace log on and
    /// off itself, where each epoch begins.
    pub(crate) fn attach_tracer(&mut self, tracer: crate::flight::ShardTracer) {
        self.tracer = Some(tracer);
    }

    /// Clone of the attached recorder (with its retained traces), for
    /// the fault-injection driver's pre-abort snapshots.
    pub(crate) fn clone_tracer(&self) -> Option<crate::flight::ShardTracer> {
        self.tracer.clone()
    }

    /// Replace the attached recorder's retained traces (checkpoint
    /// resume). No-op when the shard runs untraced.
    pub(crate) fn set_trace_store(&mut self, store: kgpt_trace::TraceStore) {
        if let Some(t) = &mut self.tracer {
            t.set_store(store);
        }
    }

    /// The sealed trace store, when traced — what a traced run
    /// returns.
    pub(crate) fn trace_store(&self) -> Option<kgpt_trace::TraceStore> {
        self.tracer.as_ref().map(crate::flight::ShardTracer::store)
    }

    /// The shard id and the trace store a checkpoint at this boundary
    /// persists, when traced: what the shard's next epoch (under
    /// `budget`) keeps of it when it starts, which is what that epoch
    /// of the uninterrupted run goes on from.
    pub(crate) fn boundary_trace_store(
        &self,
        budget: u64,
    ) -> Option<(u32, kgpt_trace::TraceStore)> {
        let tracer = self.tracer.as_ref()?;
        Some((self.id, tracer.boundary_store(self.epoch_len(budget))))
    }

    /// Whether a flight recorder is attached.
    pub(crate) fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// What a journal record says of a traced shard's flight recorder
    /// since the shard was marked (see `ShardTracer::write_since_mark`),
    /// under its shard id.
    pub(crate) fn write_traces_since_mark(
        &self,
        budget: u64,
        w: &mut kgpt_syzlang::codec::Writer<'_>,
    ) {
        if let Some(tracer) = &self.tracer {
            w.u32(self.id);
            tracer.write_since_mark(self.epoch_len(budget), w);
        }
    }

    /// Executions the shard's next epoch runs under `budget`.
    fn epoch_len(&self, budget: u64) -> u64 {
        budget.min(self.remaining)
    }

    /// The scalars of [`ShardState::view`] that are not already fields
    /// a sibling module can read — `(epoch, rng_pick, gen_rng)` — for
    /// a boundary written as an increment, which borrows no view.
    pub(crate) fn clocks(&self) -> (u64, u64, [u64; 4]) {
        (self.epoch, self.rng_pick, self.generator.rng_state())
    }

    /// Borrowed serializable projection of this shard's live state
    /// (see [`ShardSnapshot`]). Pure read: the shard is untouched.
    pub(crate) fn view(&self) -> ShardView<'_> {
        ShardView {
            id: self.id,
            gen_rng: self.generator.rng_state(),
            corpus: &self.corpus,
            triage_seen: self.triage.seen(),
            epoch: self.epoch,
            rng_pick: self.rng_pick,
            remaining: self.remaining,
            fuel_exhausted: self.fuel_exhausted,
        }
    }

    /// Owned copy of [`ShardState::view`].
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        self.view().to_snapshot()
    }

    /// Mark the shard where somebody else holds the same state — a
    /// fabric coordinator, right after an acked boundary's import; a
    /// checkpoint and its journal, right after a durable boundary: the
    /// corpus numbers its entries ([`Corpus::mark`]) and the flight
    /// recorder notes its exec count, so the next boundary can be
    /// written as an increment from live state. The seen-set needs no
    /// mark: the signatures first seen since are the captures the
    /// boundary's triage drain takes, and the crash counts are drained
    /// whole at every boundary. Allocates nothing.
    pub(crate) fn mark(&mut self) {
        self.corpus.mark();
        if let Some(tracer) = &mut self.tracer {
            tracer.mark();
        }
    }

    /// Rebuild a live shard from a snapshot, which it consumes,
    /// sharing the campaign's lowered IR. Inverse of
    /// [`ShardState::snapshot`]: continuing the restored shard is
    /// bit-identical to continuing the original.
    pub(crate) fn restore(
        lowered: &Arc<LoweredDb>,
        config: &CampaignConfig,
        snap: ShardSnapshot,
    ) -> ShardState {
        let mut state = ShardState::new(lowered, config, snap.id, snap.remaining, 0);
        state.generator.restore_rng(snap.gen_rng);
        state.corpus = snap.corpus;
        state.triage = ShardTriage::from_seen(snap.triage_seen);
        state.epoch = snap.epoch;
        state.rng_pick = snap.rng_pick;
        state.fuel_exhausted = snap.fuel_exhausted;
        state
    }

    /// Run up to `budget` executions (less if the shard's remaining
    /// budget is smaller) of the coverage-guided loop: 1-in-4 fresh
    /// generation, otherwise mutate a corpus seed picked by the
    /// weighted scheduler; admit whatever contributes new coverage.
    /// A traced shard first trims its ring for the epoch's length and
    /// records only if a reader can see the epoch: if the shard
    /// finishes with it or the next epoch keeps some of its ring (see
    /// [`crate::flight`]).
    pub(crate) fn run_epoch(&mut self, kernel: &VKernel, budget: u64) {
        let n = self.epoch_len(budget);
        if let Some(tracer) = &mut self.tracer {
            let after = self.remaining - n;
            let next = (after > 0).then(|| budget.min(after));
            tracer.begin_epoch(&mut self.scratch, n, next);
        }
        for _ in 0..n {
            self.rng_pick = self
                .rng_pick
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            // One turn in four is fresh; so is every turn on an empty
            // corpus, where `select` answers `None` without a draw.
            let parent = if self.rng_pick.is_multiple_of(4) {
                None
            } else {
                self.corpus.select()
            };
            let prog = &mut self.prog;
            match parent {
                None => {
                    self.generator.gen_program_into(self.max_prog_len, prog);
                    execute_with(kernel, prog, &mut self.scratch);
                }
                Some(idx) => {
                    let seed = self.corpus.program(idx);
                    let from = self.generator.mutate_into(seed, self.max_prog_len, prog);
                    // The mutant's first `from` calls are its parent's:
                    // it runs from the state they leave.
                    let prefix = self.corpus.prefix(idx, &self.scratch);
                    prefix.restore(from, &mut self.scratch);
                    prefix.run(kernel, prog, &mut self.scratch, from);
                }
            }
            if self.scratch.state.fuel_exhausted() {
                self.fuel_exhausted += 1;
            }
            if let Some(c) = self.scratch.crash() {
                // Capture the reproducer on the first local sighting
                // of the signature (clones only then), count always.
                self.triage.observe(c, prog, self.epoch);
            }
            // In a live epoch the recorder keeps a program the corpus
            // would reject: it swaps it into the ring and there is
            // nothing to offer.
            let offered = match &mut self.tracer {
                Some(tracer) => tracer.record(
                    kernel,
                    &mut self.scratch,
                    prog,
                    self.epoch,
                    self.corpus.coverage(),
                ),
                None => true,
            };
            if offered {
                let cov = self.scratch.coverage();
                self.corpus.observe_in_place(prog, cov, parent);
            }
        }
        self.remaining -= n;
        self.epoch += 1;
    }

    /// Fold the finished shard into a mergeable result (the triage
    /// report, and the crash tally folded from it, are accumulated by
    /// the driver's boundary drains).
    pub(crate) fn finish(self) -> WorkerResult {
        let (coverage, corpus_size) = self.corpus.into_coverage();
        WorkerResult {
            coverage,
            corpus_size,
            fuel_exhausted: self.fuel_exhausted,
        }
    }
}

/// One worker's share of a campaign: the coverage-guided loop over
/// `execs` executions seeded with `seed`, run as a single epoch whose
/// triage drain (capture → ddmin) goes through the one [`Boundary`]
/// — the shard stepper and the boundary a
/// [`crate::shard::ShardedCampaign`] runs, so a sharded run with one
/// shard is bit-identical to a sequential run. One shard has nobody
/// to exchange seeds with, so the boundary is never closed.
pub(crate) fn run_worker(
    kernel: &VKernel,
    lowered: &Arc<LoweredDb>,
    config: &CampaignConfig,
    execs: u64,
    seed: u64,
) -> (WorkerResult, TriageReport) {
    let mut state = ShardState::new(lowered, config, 0, execs, seed);
    state.run_epoch(kernel, u64::MAX);
    let mut boundary = Boundary::new(config.hub_top_k);
    let (candidates, counts) =
        TriageMinimizer::new(lowered).drain(kernel, 0, &mut state.triage, &boundary.triage);
    boundary.admit_shard(candidates, counts);
    (state.finish(), boundary.triage)
}

/// One shard's mergeable share of a campaign result (see
/// [`CampaignResult::fold`]).
#[derive(Debug, Clone)]
pub(crate) struct WorkerResult {
    pub(crate) coverage: CoverageMap,
    pub(crate) corpus_size: usize,
    pub(crate) fuel_exhausted: u64,
}

/// A configured campaign over one spec suite and one kernel.
pub struct Campaign<'a> {
    kernel: &'a VKernel,
    db: Arc<SpecDb>,
    lowered: Arc<LoweredDb>,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Build a campaign from spec files. Compilation *and lowering*
    /// go through the global [`SpecCache`], so constructing repeated
    /// campaigns over an identical suite (sweeps, repetitions over
    /// seeds) compiles and lowers it exactly once — and the suite is
    /// only borrowed, so warm construction does not even clone the
    /// input ASTs.
    #[must_use]
    pub fn new(
        kernel: &'a VKernel,
        suite: &[SpecFile],
        consts: &ConstDb,
        config: CampaignConfig,
    ) -> Campaign<'a> {
        Campaign::with_db(
            kernel,
            SpecCache::global().get_or_build(suite),
            consts,
            config,
        )
    }

    /// Build a campaign over an already-compiled (shared) database.
    /// The lowered IR comes from the global [`SpecCache`] when `db`
    /// was compiled by it (the common case), so this too lowers once
    /// per distinct `(suite, consts)` pair.
    #[must_use]
    pub fn with_db(
        kernel: &'a VKernel,
        db: Arc<SpecDb>,
        consts: &ConstDb,
        config: CampaignConfig,
    ) -> Campaign<'a> {
        let lowered = SpecCache::global().get_or_lower(&db, consts);
        Campaign {
            kernel,
            db,
            lowered,
            config,
        }
    }

    /// The compiled spec database.
    #[must_use]
    pub fn db(&self) -> &SpecDb {
        &self.db
    }

    /// The shared handle to the compiled database (an `Arc` clone; a
    /// warm [`SpecCache`] hands the same pointer to every campaign
    /// over the same suite).
    #[must_use]
    pub fn db_shared(&self) -> Arc<SpecDb> {
        Arc::clone(&self.db)
    }

    /// The shared handle to the lowered IR every shard of this
    /// campaign runs on.
    #[must_use]
    pub fn lowered_shared(&self) -> Arc<LoweredDb> {
        Arc::clone(&self.lowered)
    }

    /// Run the coverage-guided loop.
    #[must_use]
    pub fn run(&self) -> CampaignResult {
        let (w, triage) = run_worker(
            self.kernel,
            &self.lowered,
            &self.config,
            self.config.execs,
            self.config.seed,
        );
        CampaignResult::fold([w], self.config.execs, triage)
    }

    /// Resume a previously checkpointed single-shard campaign from
    /// `path` and run it to completion. A sequential campaign is
    /// bit-identical to a one-shard [`crate::ShardedCampaign`] (pinned
    /// by tests), so resumption goes through the sharded driver on one
    /// shard and one thread.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::checkpoint::CheckpointError`] when no intact
    /// snapshot can be read from `path` (or its previous-good
    /// rotation), or when the snapshot's config/spec fingerprints do
    /// not match this campaign.
    pub fn resume(
        &self,
        path: &std::path::Path,
    ) -> Result<CampaignResult, crate::checkpoint::CheckpointError> {
        crate::shard::ShardedCampaign::from_parts(
            self.kernel,
            Arc::clone(&self.db),
            Arc::clone(&self.lowered),
            self.config.clone(),
        )
        .with_shards(1)
        .with_threads(1)
        .resume(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::KernelCorpus;

    fn dm_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        (
            VKernel::boot(vec![kgpt_csrc::flagship::dm()]),
            suite,
            kc.consts().clone(),
        )
    }

    fn cfg(execs: u64, seed: u64) -> CampaignConfig {
        CampaignConfig {
            execs,
            seed,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_accumulates_coverage_and_crashes() {
        let (kernel, suite, consts) = dm_setup();
        let cfg = CampaignConfig {
            execs: 4000,
            seed: 1,
            ..CampaignConfig::default()
        };
        let r = Campaign::new(&kernel, &suite, &consts, cfg).run();
        assert!(r.blocks() > 50, "blocks={}", r.blocks());
        assert!(r.unique_crashes() >= 1, "crashes={:?}", r.crashes);
        assert!(r.corpus_size > 3);
    }

    #[test]
    fn better_specs_mean_more_coverage() {
        // Ground truth vs an imprecise buffer-typed spec of the same
        // driver: the typed suite must reach deeper.
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let bp = &kc.blueprints()[0];
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let cfg = CampaignConfig {
            execs: 2500,
            seed: 3,
            ..CampaignConfig::default()
        };
        let all_cmds: Vec<String> = bp.cmds.iter().map(|c| c.name.clone()).collect();
        let truth =
            Campaign::new(&kernel, &[bp.ground_truth_spec()], kc.consts(), cfg.clone()).run();
        let imprecise = Campaign::new(
            &kernel,
            &[bp.spec_for_cmds(&all_cmds, true, "dm_imprecise")],
            kc.consts(),
            cfg,
        )
        .run();
        assert!(
            truth.blocks() > imprecise.blocks(),
            "truth {} vs imprecise {}",
            truth.blocks(),
            imprecise.blocks()
        );
    }

    #[test]
    fn triage_minimized_reproducers_retrigger_their_signature() {
        // Every minimized reproducer must still crash with its
        // signature when replayed through the lowered dispatch path,
        // and must be no longer than its raw capture.
        let (kernel, suite, consts) = dm_setup();
        let r = Campaign::new(&kernel, &suite, &consts, cfg(4000, 1)).run();
        assert!(!r.triage.is_empty(), "dm campaign should triage crashes");
        let db = kgpt_syzlang::SpecCache::global().get_or_build(&suite);
        let lowered = kgpt_syzlang::SpecCache::global().get_or_lower(&db, &consts);
        let mut scratch = ExecScratch::from_lowered(lowered);
        for e in r.triage.entries() {
            execute_with(&kernel, &e.minimized, &mut scratch);
            assert_eq!(
                scratch.crash().map(|c| c.signature),
                Some(e.signature),
                "{} no longer reproduces",
                e.title
            );
            assert!(e.minimized.len() <= e.raw.len());
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let (kernel, suite, consts) = dm_setup();
        let cfg = CampaignConfig {
            execs: 500,
            seed: 9,
            ..CampaignConfig::default()
        };
        let a = Campaign::new(&kernel, &suite, &consts, cfg.clone()).run();
        let b = Campaign::new(&kernel, &suite, &consts, cfg).run();
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.crashes, b.crashes);
    }

    #[test]
    fn repeated_construction_shares_one_compiled_db() {
        // Two campaigns over the same suite (different configs) get
        // the *same* compiled database from the global SpecCache —
        // warm construction is an Arc clone, not a re-parse.
        let (kernel, suite, consts) = dm_setup();
        let a = Campaign::new(&kernel, &suite, &consts, cfg(10, 0));
        let b = Campaign::new(&kernel, &suite, &consts, cfg(999, 7));
        assert!(std::sync::Arc::ptr_eq(&a.db_shared(), &b.db_shared()));
    }

    #[test]
    fn precompiled_db_runs_identically() {
        let (kernel, suite, consts) = dm_setup();
        let by_files = Campaign::new(&kernel, &suite, &consts, cfg(600, 4)).run();
        let db = kgpt_syzlang::SpecCache::global().get_or_build(&suite);
        let by_db = Campaign::with_db(&kernel, db, &consts, cfg(600, 4)).run();
        assert_eq!(by_files.coverage, by_db.coverage);
        assert_eq!(by_files.crashes, by_db.crashes);
        assert_eq!(by_files.corpus_size, by_db.corpus_size);
    }

    #[test]
    fn an_epoch_no_reader_can_see_records_no_ring_and_logs_no_events() {
        // The benchmark's shape: 8 shards, epochs of 128, ring 32. The
        // next epoch keeps none of a ring of 32, so every epoch but a
        // shard's last is dead. The oracle's ring of 129 outlasts every
        // epoch, so all of its epochs are live and each pin is sealed
        // from the events the exec itself logged, as the recorder once
        // sealed every pin.
        use crate::boundary::Boundary;
        use crate::fabric::LeaseRunner;
        use crate::flight::{cfg_successors, ShardTracer};

        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            hub_epoch: 128,
            ..cfg(8 * (4 * 128 + 50), 5)
        };
        assert_eq!(config.trace_ring, 32);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let table = Arc::new(cfg_successors(&kernel));
        let traced = |ring: usize| {
            let mut runner = LeaseRunner::fresh(&lowered, &config, 8, 0, 8);
            for state in &mut runner.states {
                let tracer = ShardTracer::new(Arc::clone(&table), 1, state.id, ring);
                state.attach_tracer(tracer);
            }
            (runner, Boundary::new(config.hub_top_k))
        };
        let logs = |state: &ShardState| state.scratch.state.trace().enabled();
        let (mut runner, mut boundary) = traced(config.trace_ring);
        let (mut oracle, mut oracle_boundary) = traced(129);
        let mut boundaries = 0;
        loop {
            runner.step(&kernel, 1);
            oracle.step(&kernel, 1);
            let closed = runner.close_boundary(&kernel, &mut boundary, None);
            oracle.close_boundary(&kernel, &mut oracle_boundary, None);
            for (state, twin) in runner.states.iter().zip(&oracle.states) {
                let at = (state.id, state.epoch);
                let store = state.trace_store().unwrap();
                let eager = twin.trace_store().unwrap();
                assert!(store.pinned().eq(eager.pinned()), "shard, epoch {at:?}");
                assert!(logs(twin), "shard, epoch {at:?}");
                if state.remaining > 0 {
                    assert_eq!(store.ring().count(), 0, "shard, epoch {at:?}");
                    assert!(!logs(state), "shard, epoch {at:?}");
                }
            }
            boundaries += 1;
            if closed.is_none() {
                break;
            }
        }
        assert_eq!(boundaries, 5);
        // The last epoch is live: it logged and filled the ring.
        let mut rerun = 0;
        for state in &runner.states {
            let store = state.trace_store().unwrap();
            assert!(logs(state), "shard {}", state.id);
            assert_eq!(store.ring().count(), 32, "shard {}", state.id);
            rerun += store.pinned().filter(|(_, t)| t.epoch < 4).count();
        }
        assert!(rerun > 0, "no pin was sealed in a dead epoch");
    }

    #[test]
    fn enabled_filter_limits_surface() {
        let (kernel, suite, consts) = dm_setup();
        let cfg = CampaignConfig {
            execs: 800,
            seed: 2,
            enabled: Some(vec!["openat$dm".into()]),
            ..CampaignConfig::default()
        };
        let r = Campaign::new(&kernel, &suite, &consts, cfg).run();
        // Open blocks only.
        assert!(r.blocks() <= 8, "blocks={}", r.blocks());
    }
}
