//! Sharded parallel campaigns.
//!
//! A [`ShardedCampaign`] decomposes a campaign into a fixed number of
//! **logical shards**. Shard `i` runs the standard coverage-guided
//! worker loop over its slice of the execution budget, seeded
//! `seed.wrapping_add(i)` with its own generator, coverage-keyed
//! [`crate::corpus::Corpus`], and execution scratch;
//! the booted [`VKernel`] and the compiled [`SpecDb`] are shared by
//! reference (`VKernel: Sync` is asserted at compile time in
//! `kgpt-vkernel`).
//!
//! With `hub_epoch > 0` the shards no longer fuzz in isolation: the
//! run proceeds **epoch-major** — every shard executes `hub_epoch`
//! programs, then all shards exchange their best seeds through a
//! [`crate::SeedHub`] in shard-id order, then the next epoch starts.
//! The exchange points are fixed exec boundaries, so they are part of
//! the campaign's deterministic identity, not of its schedule.
//!
//! The campaign is a [`LeaseRunner`] over all its shards plus the
//! crate's one `Boundary` (the private `boundary` module), closed in
//! process over live shard state. That is the same code a fabric
//! worker steps its range with and a fabric coordinator
//! ([`crate::CampaignMerge`]) closes its boundaries with — the
//! in-process campaign is the fabric with zero transport — which is
//! why every route computes one result.
//!
//! Determinism contract: the result is a pure function of
//! `(config, shards)` — `hub_epoch`/`hub_top_k` included. The
//! **thread count is a pure throughput knob**: within an epoch every
//! shard only reads shared immutable state, epochs are barriers, and
//! both the exchange and the final merge run in shard-id order on the
//! driving thread, so `coverage`/`crashes` are identical for any
//! thread count. A one-shard campaign is bit-identical to
//! [`Campaign::run`](crate::Campaign::run) with the same config
//! (exchange on one shard is a no-op by construction).

use crate::boundary::Boundary;
use crate::campaign::{CampaignConfig, CampaignResult, ShardState};
use crate::checkpoint::{
    config_fingerprint, CampaignSnapshot, CheckpointError, Journal, SnapshotView,
};
use crate::fabric::{check_programs, triage_programs, LeaseRunner};
use crate::faults::FaultPlan;
use crate::flight::{self, ShardTracer};
use kgpt_syzlang::codec::Writer;
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_syzlang::{ConstDb, SpecCache, SpecDb, SpecFile};
use kgpt_trace::TraceStore;
use kgpt_triage::TriageReport;
use kgpt_vkernel::VKernel;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default logical shard count (the paper-benchmark scaling curve is
/// measured at 1–8 worker threads over this decomposition).
pub const DEFAULT_SHARDS: u32 = 8;

/// Checkpoint-write attempt cap: an injected or real write failure is
/// retried with deterministic linear backoff this many times before
/// the boundary is skipped (keeping what is on disk; the next one
/// writes a base).
const MAX_WRITE_ATTEMPTS: u32 = 3;

/// A campaign split across logical shards and executed by a pool of
/// worker threads.
pub struct ShardedCampaign<'a> {
    kernel: &'a VKernel,
    db: Arc<SpecDb>,
    lowered: Arc<LoweredDb>,
    config: CampaignConfig,
    shards: u32,
    /// [`config_fingerprint`] of `(config, shards)` — what resume
    /// validates and every checkpoint carries.
    config_fp: u64,
    /// [`SpecCache::fingerprint`] of the compiled suite — validated by
    /// resume and replay, stamped into every trace. Hashing the suite
    /// AST is not free, so both fingerprints are computed when the
    /// campaign is built, not at every boundary.
    spec_fp: u64,
    /// 0 = one thread per available CPU (capped at the shard count).
    threads: usize,
    /// Base path; `Some` makes every epoch boundary durable (a base
    /// there, a journal beside it: [`crate::checkpoint`]).
    checkpoint: Option<PathBuf>,
    /// Injected faults (empty in production).
    faults: FaultPlan,
    /// Stop after this many boundaries were made durable (test/bench
    /// hook simulating an interrupt at an epoch boundary).
    halt_after: Option<u64>,
    /// Observer called with the running count after every boundary
    /// made durable (`Sync` because `&self` is shared with the worker
    /// threads during chunks).
    on_checkpoint: Option<Box<dyn Fn(u64) + Sync + 'a>>,
}

impl<'a> ShardedCampaign<'a> {
    /// Build a sharded campaign from spec files. Defaults to
    /// [`DEFAULT_SHARDS`] logical shards and one thread per available
    /// CPU. Compilation and lowering go through the global
    /// [`SpecCache`]; the thread-scaling sweep in `fuzz_bench`
    /// compiles and lowers its suite once, not once per thread point.
    #[must_use]
    pub fn new(
        kernel: &'a VKernel,
        suite: &[SpecFile],
        consts: &ConstDb,
        config: CampaignConfig,
    ) -> ShardedCampaign<'a> {
        ShardedCampaign::with_db(
            kernel,
            SpecCache::global().get_or_build(suite),
            consts,
            config,
        )
    }

    /// Build a sharded campaign over an already-compiled (shared)
    /// database (see [`crate::Campaign::with_db`] for the lowering
    /// cache behaviour).
    #[must_use]
    pub fn with_db(
        kernel: &'a VKernel,
        db: Arc<SpecDb>,
        consts: &ConstDb,
        config: CampaignConfig,
    ) -> ShardedCampaign<'a> {
        let lowered = SpecCache::global().get_or_lower(&db, consts);
        ShardedCampaign::from_parts(kernel, db, lowered, config)
    }

    /// Build from already-shared compiled parts (the path
    /// [`crate::Campaign::resume`] uses to reuse its own handles).
    pub(crate) fn from_parts(
        kernel: &'a VKernel,
        db: Arc<SpecDb>,
        lowered: Arc<LoweredDb>,
        config: CampaignConfig,
    ) -> ShardedCampaign<'a> {
        ShardedCampaign {
            kernel,
            config_fp: config_fingerprint(&config, DEFAULT_SHARDS),
            spec_fp: SpecCache::fingerprint(db.files()),
            db,
            lowered,
            config,
            shards: DEFAULT_SHARDS,
            threads: 0,
            checkpoint: None,
            faults: FaultPlan::none(),
            halt_after: None,
            on_checkpoint: None,
        }
    }

    /// Set the logical shard count (≥ 1). Changes the work
    /// decomposition and therefore the result — it is part of the
    /// campaign's deterministic identity.
    #[must_use]
    pub fn with_shards(mut self, shards: u32) -> ShardedCampaign<'a> {
        self.shards = shards.max(1);
        self.config_fp = config_fingerprint(&self.config, self.shards);
        self
    }

    /// Set the worker thread count (0 = auto). Pure parallelism knob:
    /// never changes `coverage`/`crashes`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ShardedCampaign<'a> {
        self.threads = threads;
        self
    }

    /// Make every epoch boundary durable under `path`: a base
    /// [`CampaignSnapshot`] there (post-exchange, shard-id order — the
    /// loop-top state of the next epoch) and, beside it, a journal
    /// record of what each later epoch changed, until the journal
    /// outgrows a quarter of the base and a new one is written (see
    /// [`crate::checkpoint`]; [`CampaignSnapshot::load`] answers the
    /// last boundary either way). Checkpointing never changes the
    /// campaign result: it only reads state the boundary already fixed.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> ShardedCampaign<'a> {
        self.checkpoint = Some(path.into());
        self
    }

    /// Inject a deterministic [`FaultPlan`] (durability tests/CI; the
    /// default is no faults). The campaign *result* stays bit-identical
    /// under any plan — only the recovery paths taken differ.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> ShardedCampaign<'a> {
        self.faults = faults;
        self
    }

    /// Stop the run right after the `n`-th boundary made durable, by a
    /// base or a record (test/bench hook: simulates an interrupt at an
    /// epoch boundary; the returned result is the partial merge at the
    /// halt, the returned stores the recorders as they stand — after an
    /// epoch no reader could see, the pinned traces and an empty ring,
    /// as the checkpoint has them: [`crate::flight`]). Only meaningful
    /// together with [`ShardedCampaign::with_checkpoint`].
    #[must_use]
    pub fn with_halt_after(mut self, n: u64) -> ShardedCampaign<'a> {
        self.halt_after = Some(n);
        self
    }

    /// Observe durable boundaries: `hook` is called on the driving
    /// thread with how many there have been so far (1-based), right
    /// after each base install or record write. Lets a harness wait
    /// for "a resumable snapshot exists" instead of sleeping — the CI
    /// kill-and-resume job kills the process only after the first
    /// `CHECKPOINT` line this hook prints.
    #[must_use]
    pub fn with_on_checkpoint(mut self, hook: impl Fn(u64) + Sync + 'a) -> ShardedCampaign<'a> {
        self.on_checkpoint = Some(Box::new(hook));
        self
    }

    /// The compiled spec database.
    #[must_use]
    pub fn db(&self) -> &SpecDb {
        &self.db
    }

    /// The shared handle to the compiled database.
    #[must_use]
    pub fn db_shared(&self) -> Arc<SpecDb> {
        Arc::clone(&self.db)
    }

    /// The shared handle to the lowered IR every shard runs on (what
    /// an offline replayer builds its [`crate::ExecScratch`] from).
    #[must_use]
    pub fn lowered_shared(&self) -> Arc<LoweredDb> {
        Arc::clone(&self.lowered)
    }

    /// Run all shards and merge. See the module docs for the
    /// determinism contract.
    #[must_use]
    pub fn run(&self) -> CampaignResult {
        self.run_traced().0
    }

    /// [`ShardedCampaign::run`], also returning the flight recorder's
    /// per-shard [`TraceStore`]s in shard-id order (empty when
    /// [`CampaignConfig::trace_ring`] is 0). Like the result, the
    /// stores are a pure function of `(config, shards)`: the thread
    /// count never changes a recorded byte.
    #[must_use]
    pub fn run_traced(&self) -> (CampaignResult, Vec<TraceStore>) {
        let mut runner =
            LeaseRunner::fresh(&self.lowered, &self.config, self.shards, 0, self.shards);
        self.attach_tracers(&mut runner.states);
        self.run_from(runner, Boundary::new(self.config.hub_top_k))
    }

    /// Attach a flight recorder to every shard (no-op with the ring
    /// off). All shards share one prediction table; the spec
    /// fingerprint stamped into every trace is the one resume and
    /// replay validate.
    fn attach_tracers(&self, states: &mut [ShardState]) {
        if self.config.trace_ring == 0 {
            return;
        }
        let cfg = Arc::new(flight::cfg_successors(self.kernel));
        for state in states.iter_mut() {
            state.attach_tracer(ShardTracer::new(
                Arc::clone(&cfg),
                self.spec_fp,
                state.id,
                self.config.trace_ring,
            ));
        }
    }

    /// Resume a checkpointed campaign from `path` and run it to
    /// completion. The final [`CampaignResult`] is **bit-identical**
    /// to an uninterrupted [`ShardedCampaign::run`] with the same
    /// config, at any thread count (pinned by `tests/durability.rs`).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when no intact snapshot can be
    /// read from `path` (or its previous-good rotation), when the
    /// snapshot's config/spec fingerprints do not match this campaign,
    /// or when its shard list is inconsistent.
    pub fn resume(&self, path: &Path) -> Result<CampaignResult, CheckpointError> {
        Ok(self.resume_traced(path)?.0)
    }

    /// [`ShardedCampaign::resume`], also returning the flight
    /// recorder's per-shard [`TraceStore`]s. The snapshot carries
    /// every pinned crash trace and as much of each ring as the first
    /// resumed epoch keeps when it starts — what that epoch of the
    /// uninterrupted run goes on from — so the returned stores are
    /// bit-identical to an uninterrupted
    /// [`ShardedCampaign::run_traced`] for every config and every
    /// boundary (pinned by `tests/durability.rs`).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] under the same conditions as
    /// [`ShardedCampaign::resume`], plus when the snapshot's trace
    /// section is not the one this campaign writes (see
    /// `ShardedCampaign::check_traces`).
    pub fn resume_traced(
        &self,
        path: &Path,
    ) -> Result<(CampaignResult, Vec<TraceStore>), CheckpointError> {
        let snap = CampaignSnapshot::load(path)?;
        snap.validate(self.config_fp, self.spec_fp)?;
        if !(0..self.shards).eq(snap.shards.iter().map(|s| s.id)) {
            return Err(CheckpointError {
                message: format!(
                    "snapshot shard list inconsistent: {} shards in snapshot, {} configured",
                    snap.shards.len(),
                    self.shards
                ),
            });
        }
        // Every program the file holds is held to the suite here, once:
        // the shards' corpora by the restore, the rest beside it.
        let seeds = snap.hub.seeds().iter().map(|s| &s.program);
        let rest = seeds.chain(triage_programs(snap.triage.entries()));
        check_programs(&self.lowered, "the checkpoint", rest)?;
        self.check_traces(&snap.traces)?;
        let mut runner = LeaseRunner::restore(&self.lowered, &self.config, snap.shards)?;
        self.attach_tracers(&mut runner.states);
        for (id, store) in snap.traces {
            runner.states[id as usize].set_trace_store(store);
        }
        let boundary = Boundary {
            hub: snap.hub,
            triage: snap.triage,
            epochs_done: snap.epochs_done,
        };
        Ok(self.run_from(runner, boundary))
    }

    /// Hold a checkpoint's trace section to the one this campaign
    /// writes: one store per shard, each of the configured ring — or
    /// none at all when the campaign runs untraced. A section that
    /// disagrees would resume a different recorder: a ring that never
    /// trims (and makes every epoch live), a shard whose store another
    /// replaces or that starts empty.
    fn check_traces(&self, traces: &[(u32, TraceStore)]) -> Result<(), CheckpointError> {
        let ring = self.config.trace_ring;
        let refuse = |what: String| {
            Err(CheckpointError {
                message: format!("snapshot trace section {what}"),
            })
        };
        if let (0, Some((id, _))) = (ring, traces.first()) {
            return refuse(format!(
                "holds shard {id}'s store, the campaign runs untraced"
            ));
        }
        let mut named = std::collections::BTreeSet::new();
        for (id, store) in traces {
            if *id >= self.shards {
                return refuse(format!("names unknown shard {id}"));
            }
            if !named.insert(*id) {
                return refuse(format!("names shard {id} twice"));
            }
            if store.cap() != ring {
                return refuse(format!(
                    "gives shard {id} a ring of {}, the campaign's is {ring}",
                    store.cap()
                ));
            }
        }
        if ring > 0 && named.len() != self.shards as usize {
            return refuse(format!(
                "holds {} stores for {} traced shards",
                named.len(),
                self.shards
            ));
        }
        Ok(())
    }

    /// The epoch-major loop from an arbitrary boundary: step every
    /// shard for one epoch (on `threads` threads, where a fabric
    /// worker steps its range on one), close the boundary in process
    /// over the live shards, make it durable. With the hub off the
    /// epoch is the whole budget and the loop body runs once. Fault
    /// injection and checkpoints key off `boundary.epochs_done` (0 for
    /// a fresh run), so a resumed run continues the same epoch
    /// numbering.
    fn run_from(
        &self,
        mut runner: LeaseRunner,
        mut boundary: Boundary,
    ) -> (CampaignResult, Vec<TraceStore>) {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .clamp(1, self.shards as usize);
        let mut journal = self.checkpoint.as_deref().map(Journal::new);
        let mut checkpoints_written = 0u64;
        loop {
            let iter = boundary.epochs_done;
            // Injected mid-epoch shard abort: remember the victim's
            // boundary state before the chunk so the recovery path can
            // quarantine the poisoned state and re-run from it.
            let abort = self.faults.shard_abort(iter).and_then(|sid| {
                let victim = runner.states.get(sid as usize)?;
                Some((sid as usize, victim.snapshot(), victim.clone_tracer()))
            });
            runner.step(self.kernel, threads);
            if let Some((idx, snap, tracer)) = abort {
                // The shard died mid-epoch: discard its (by assumption
                // poisoned) state, restore the boundary snapshot, and
                // re-run the epoch sequentially on the driving thread.
                // Shard evolution is schedule-independent, so the
                // re-run is bit-identical to the undisturbed epoch and
                // the merge proceeds with no quarantine hole. The
                // flight recorder gets the same treatment: the
                // boundary clone replaces the poisoned store before
                // the re-run, so retained traces stay bit-identical
                // to an undisturbed campaign too. The snapshot is of
                // the state the shard was last marked in.
                let state = &mut runner.states[idx];
                *state = ShardState::restore(&self.lowered, &self.config, snap);
                if let Some(t) = tracer {
                    state.attach_tracer(t);
                }
                state.mark();
                state.run_epoch(self.kernel, self.config.epoch_budget());
            }
            // A boundary due a journal record is written where it
            // closes, from the drain that feeds it. (Not the last one:
            // nothing resumes from where the campaign has finished,
            // and its record would seal every ring the shards hold.)
            let unfinished = runner.remaining() > 0;
            let mut close = |record: Option<&mut Writer<'_>>| {
                runner.close_boundary(self.kernel, &mut boundary, record)
            };
            let closed = match &mut journal {
                Some(journal) if unfinished => journal.record(iter + 1, close),
                _ => close(None),
            };
            if closed.is_none() {
                break;
            }
            // Durable after the exchange: a base is exactly the
            // loop-top state of the next iteration and a record
            // replays to it, so resume re-enters here with nothing
            // lost. The shards are then marked, as a fabric worker's
            // are on an ack: the next record says what changed since.
            if let Some(journal) = &mut journal {
                if self.write_checkpoint(journal, &runner, &boundary, iter) {
                    runner.mark();
                    checkpoints_written += 1;
                    if let Some(hook) = &self.on_checkpoint {
                        hook(checkpoints_written);
                    }
                    if self.halt_after == Some(checkpoints_written) {
                        // Simulated interrupt: return the partial
                        // merge (tests discard it and resume from the
                        // boundary just written).
                        break;
                    }
                }
            }
        }
        self.merge(runner.states, boundary.triage)
    }

    /// Make one boundary durable with the fault plan applied: injected
    /// (or real) write failures retry with deterministic linear backoff
    /// up to [`MAX_WRITE_ATTEMPTS`]; exhausting the attempts skips the
    /// boundary — what is on disk stays and the campaign continues.
    /// Post-write damage faults (torn write, bitrot) are applied to
    /// what was just written so a later resume exercises the cut log
    /// or the previous-good fallback. The base writer runs only when
    /// the journal asks for a base. Returns whether the boundary was
    /// written.
    fn write_checkpoint(
        &self,
        journal: &mut Journal,
        runner: &LeaseRunner,
        boundary: &Boundary,
        iter: u64,
    ) -> bool {
        let frame_base = |out: &mut Vec<u8>| {
            let (fingerprints, budget) =
                ((self.config_fp, self.spec_fp), self.config.epoch_budget());
            frame_base(out, fingerprints, &runner.states, boundary, budget);
        };
        let injected_failures = self.faults.write_fail_attempts(iter);
        for attempt in 1..=MAX_WRITE_ATTEMPTS {
            if attempt > injected_failures && journal.write(frame_base).is_ok() {
                if let Some(damage) = self.faults.post_write_damage(iter) {
                    journal.damage(damage);
                }
                return true;
            }
            // Deterministic linear backoff; wall-clock only, never
            // part of the campaign's result.
            std::thread::sleep(std::time::Duration::from_millis(u64::from(attempt)));
        }
        journal.abandon();
        false
    }

    /// Merge finished (or halted) shard states in shard-id order
    /// (deterministic; the merge is also commutative, so any order
    /// would produce the same set). The flight recorder's stores come
    /// back alongside, also in shard-id order.
    fn merge(
        &self,
        states: Vec<ShardState>,
        triage: TriageReport,
    ) -> (CampaignResult, Vec<TraceStore>) {
        let stores: Vec<TraceStore> = states.iter().filter_map(ShardState::trace_store).collect();
        let parts = states.into_iter().map(ShardState::finish);
        (
            CampaignResult::fold(parts, self.config.execs, triage),
            stores,
        )
    }
}

/// The base writer: frame the whole campaign at a boundary — config
/// and spec `fingerprints`, every live shard viewed whole, the hub, the
/// report, and of every recorder what its shard's next epoch (under
/// `budget`) keeps — into `out`. The one place a running campaign
/// builds a [`SnapshotView`] and seals every retained trace.
pub(crate) fn frame_base(
    out: &mut Vec<u8>,
    (config_fingerprint, spec_fingerprint): (u64, u64),
    states: &[ShardState],
    boundary: &Boundary,
    budget: u64,
) {
    let stores = states.iter().map(|s| s.boundary_trace_store(budget));
    SnapshotView {
        config_fingerprint,
        spec_fingerprint,
        epochs_done: boundary.epochs_done,
        shards: states.iter().map(ShardState::view).collect(),
        hub: &boundary.hub,
        triage: &boundary.triage,
        traces: &stores.flatten().collect::<Vec<_>>(),
    }
    .frame_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::shard_execs;
    use crate::{Campaign, CrashTally};
    use kgpt_csrc::KernelCorpus;
    use kgpt_vkernel::CoverageMap;

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

    fn hub_cfg(execs: u64, seed: u64) -> CampaignConfig {
        CampaignConfig {
            hub_epoch: 250,
            hub_top_k: 4,
            ..cfg(execs, seed)
        }
    }

    #[test]
    fn one_shard_is_bit_identical_to_sequential_campaign() {
        let (kernel, suite, consts) = dm_setup();
        let sequential = Campaign::new(&kernel, &suite, &consts, cfg(1500, 4)).run();
        let sharded = ShardedCampaign::new(&kernel, &suite, &consts, cfg(1500, 4))
            .with_shards(1)
            .run();
        // Both run one epoch with one triage drain, so the reports —
        // reproducers, minimization, epochs — are bit-identical too.
        assert_eq!(sequential, sharded, "one shard vs sequential");
    }

    #[test]
    fn one_shard_with_exchange_on_still_matches_sequential() {
        // On one shard every exchange is a no-op (a shard never
        // imports its own seeds), so the epoch-chunked hub run must
        // be bit-identical to the straight sequential loop.
        let (kernel, suite, consts) = dm_setup();
        let sequential = Campaign::new(&kernel, &suite, &consts, cfg(1500, 4)).run();
        let sharded = ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(1500, 4))
            .with_shards(1)
            .run();
        // Not the whole result: the chunked run stamps a capture with
        // the epoch it happened in, the sequential run has only epoch 0.
        assert_eq!(sequential.coverage, sharded.coverage);
        assert_eq!(sequential.crashes, sharded.crashes);
        assert_eq!(sequential.corpus_size, sharded.corpus_size);
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        let (kernel, suite, consts) = dm_setup();
        let run = |threads: usize| {
            ShardedCampaign::new(&kernel, &suite, &consts, cfg(2000, 11))
                .with_shards(8)
                .with_threads(threads)
                .run()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(base, r, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_never_changes_the_result_with_exchange_on() {
        // The hub exchanges seeds at epoch boundaries (8 exchanges
        // here); publish/import order is shard-id order on the
        // driving thread, so any thread count must produce the same
        // result bit for bit.
        let (kernel, suite, consts) = dm_setup();
        let run = |threads: usize| {
            ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(2000, 11))
                .with_shards(8)
                .with_threads(threads)
                .run()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(base, r, "threads={threads}");
        }
    }

    #[test]
    fn exchange_never_loses_coverage_and_spreads_seeds() {
        // The executed-coverage union can only be helped by seeing
        // other shards' seeds earlier; at minimum nothing is lost,
        // and shard corpora grow by imported entries.
        let (kernel, suite, consts) = dm_setup();
        let off = ShardedCampaign::new(&kernel, &suite, &consts, cfg(4000, 1)).run();
        let on = ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(4000, 1)).run();
        assert!(
            on.blocks() >= off.blocks(),
            "exchange on {} vs off {}",
            on.blocks(),
            off.blocks()
        );
        assert!(
            on.corpus_size > off.corpus_size,
            "no seeds were imported (on {} vs off {})",
            on.corpus_size,
            off.corpus_size
        );
    }

    #[test]
    fn merged_result_equals_manual_shard_union() {
        let (kernel, suite, consts) = dm_setup();
        let sharded = ShardedCampaign::new(&kernel, &suite, &consts, cfg(2100, 5))
            .with_shards(4)
            .run();
        // Reconstruct by running each shard as its own sequential
        // campaign and merging by hand: 2100 = 525 * 4.
        let mut coverage = CoverageMap::new();
        let mut crashes = CrashTally::new();
        for i in 0..4u64 {
            let r = Campaign::new(&kernel, &suite, &consts, cfg(525, 5 + i)).run();
            coverage.merge(&r.coverage);
            for (title, (count, cve)) in r.crashes {
                let e = crashes.entry(title).or_insert((0, cve));
                e.0 += count;
            }
        }
        assert_eq!(sharded.coverage, coverage);
        assert_eq!(sharded.crashes, crashes);
        assert_eq!(sharded.execs, 2100);
    }

    #[test]
    fn sharded_campaign_finds_dm_coverage_and_crashes() {
        let (kernel, suite, consts) = dm_setup();
        let r = ShardedCampaign::new(&kernel, &suite, &consts, cfg(4000, 1)).run();
        assert!(r.blocks() > 50, "blocks={}", r.blocks());
        assert!(r.unique_crashes() >= 1, "crashes={:?}", r.crashes);
        assert!(r.corpus_size > 3);
    }

    #[test]
    fn sharded_and_sequential_campaigns_share_the_cached_db() {
        let (kernel, suite, consts) = dm_setup();
        let sequential = Campaign::new(&kernel, &suite, &consts, cfg(10, 0));
        let sharded = ShardedCampaign::new(&kernel, &suite, &consts, cfg(10, 0));
        assert!(std::sync::Arc::ptr_eq(
            &sequential.db_shared(),
            &sharded.db_shared()
        ));
    }

    #[test]
    fn seed_near_u64_max_wraps_instead_of_overflowing() {
        let (kernel, suite, consts) = dm_setup();
        let r = ShardedCampaign::new(&kernel, &suite, &consts, cfg(400, u64::MAX - 2))
            .with_shards(8)
            .run();
        assert_eq!(r.execs, 400);
        assert!(r.blocks() > 0);
    }

    #[test]
    fn traces_are_bit_identical_across_thread_counts_and_replay() {
        // The flight recorder inherits the determinism contract: the
        // retained stores — ring contents, pinned crash traces, every
        // encoded stream byte — are a pure function of (config,
        // shards), and each trace replays bit-identically.
        let (kernel, suite, consts) = dm_setup();
        let run = |threads: usize| {
            ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(2000, 11))
                .with_shards(8)
                .with_threads(threads)
                .run_traced()
        };
        let (base_result, base_stores) = run(1);
        assert_eq!(base_stores.len(), 8);
        for threads in [2, 4, 8] {
            let (r, stores) = run(threads);
            assert_eq!(base_result, r, "threads={threads}");
            assert_eq!(base_stores, stores, "threads={threads}");
        }
        let campaign = ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(2000, 11));
        let spec_fp = SpecCache::fingerprint(campaign.db().files());
        let cfg_table = flight::cfg_successors(&kernel);
        let mut scratch = crate::exec::ExecScratch::from_lowered(campaign.lowered_shared());
        let mut replayed = 0usize;
        for store in &base_stores {
            for t in store.iter() {
                let out = flight::replay_trace(&kernel, &mut scratch, &cfg_table, t, spec_fp)
                    .expect("well-formed trace");
                assert!(out.identical, "shard {} exec {} diverged", t.shard, t.exec);
                replayed += 1;
            }
        }
        assert!(replayed > 0, "no traces retained");
    }

    #[test]
    fn traces_survive_checkpoint_and_resume() {
        // Interrupt-plus-resume must also be invisible to the flight
        // recorder: the resumed campaign's stores equal the
        // uninterrupted run's bit for bit (the checkpoint carries what
        // the next epoch keeps of the boundary's retained traces).
        let (kernel, suite, consts) = dm_setup();
        let dir = std::env::temp_dir().join(format!("kgpt_trace_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ckpt");
        let campaign = |threads: usize| {
            ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(2000, 7))
                .with_shards(4)
                .with_threads(threads)
        };
        let (full_result, full_stores) = campaign(1).run_traced();
        let _ = campaign(1)
            .with_checkpoint(&path)
            .with_halt_after(2)
            .run_traced();
        let (resumed_result, resumed_stores) = campaign(2)
            .with_checkpoint(&path)
            .resume_traced(&path)
            .unwrap();
        assert_eq!(full_result, resumed_result, "resumed vs uninterrupted");
        assert_eq!(full_stores, resumed_stores);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_holding_a_hostile_program_is_refused_not_resumed() {
        // A checksum-valid file whose programs no generator over the
        // suite wrote: in a shard's corpus, in the hub, in the triage
        // report. The parent decoded it, restored it and panicked in
        // the first epoch that mutated or executed the program.
        use crate::corpus::Corpus;
        use crate::hub::SeedHub;
        use kgpt_syzlang::prog::Program;
        use kgpt_triage::TriageReport;

        let (kernel, suite, consts) = dm_setup();
        let dir = std::env::temp_dir().join(format!("kgpt_hostile_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.ckpt");
        let campaign = || {
            ShardedCampaign::new(&kernel, &suite, &consts, hub_cfg(2000, 7))
                .with_shards(4)
                .with_threads(1)
                .with_checkpoint(&path)
        };
        let _ = campaign().with_halt_after(2).run();
        let clean = CampaignSnapshot::load(&path).unwrap();
        assert!(!clean.hub.seeds().is_empty() && !clean.triage.is_empty());
        let lowered = campaign().lowered_shared();

        type Tamper = fn(&mut CampaignSnapshot, &dyn Fn(&mut Program));
        let sites: [(&str, Tamper); 3] = [
            ("a corpus entry", |snap, forge| {
                let shard = &mut snap.shards[2];
                let (rng, coverage, mut entries, stats) =
                    std::mem::replace(&mut shard.corpus, Corpus::new(1, 0)).into_parts();
                let last = entries.last_mut().expect("a corpus entry");
                forge(&mut last.program);
                let cap = crate::campaign::CORPUS_CAP;
                shard.corpus = Corpus::from_parts(cap, rng, coverage, entries, stats);
            }),
            ("a hub seed", |snap, forge| {
                let (hub, mut seeds) = (&snap.hub, snap.hub.seeds().to_vec());
                forge(&mut seeds[0].program);
                let (top_k, coverage) = (hub.top_k(), hub.coverage().clone());
                snap.hub = SeedHub::from_parts(top_k, seeds, coverage, hub.published());
            }),
            ("a triage entry", |snap, forge| {
                let mut entries: Vec<_> = snap.triage.entries().cloned().collect();
                forge(&mut entries[0].raw);
                snap.triage = TriageReport::from_entries(entries).expect("distinct");
            }),
        ];
        for (site, tamper) in sites {
            for (what, forge) in crate::fabric::forgeries(&lowered) {
                let mut snap = clean.clone();
                tamper(&mut snap, &*forge);
                snap.save(&path).unwrap();
                let err = campaign().resume(&path).expect_err(what);
                assert!(
                    err.message.contains("misfit program"),
                    "{site}, {what}: {err}"
                );
            }
        }
        clean.save(&path).unwrap();
        campaign().resume(&path).expect("the clean file resumes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_whose_trace_section_disagrees_is_refused_not_resumed() {
        // A checksum-valid file whose trace section is not the one the
        // campaign writes. The parent adopted each store as it came:
        // the file's ring, the last of two stores for a shard, an empty
        // recorder for a shard it left out, nothing of a section an
        // untraced campaign never reads.
        let (kernel, suite, consts) = dm_setup();
        let dir = std::env::temp_dir().join(format!("kgpt_trace_section_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let campaign = |ring: usize, path: &Path| {
            let config = CampaignConfig {
                trace_ring: ring,
                ..hub_cfg(2000, 7)
            };
            ShardedCampaign::new(&kernel, &suite, &consts, config)
                .with_shards(4)
                .with_threads(1)
                .with_checkpoint(path)
        };
        let path = dir.join("traced.ckpt");
        let _ = campaign(32, &path).with_halt_after(2).run();
        let clean = CampaignSnapshot::load(&path).unwrap();
        assert_eq!(clean.traces.len(), 4);

        type Forge = fn(&mut Vec<(u32, TraceStore)>);
        let forgeries: [(&str, Forge); 3] = [
            ("a ring of 2^40", |traces| {
                let store = &mut traces[1].1;
                let execs_seen = store.execs_seen();
                let (ring, pinned) = std::mem::replace(store, TraceStore::new(0)).into_parts();
                *store = TraceStore::from_parts(1 << 40, execs_seen, ring, pinned.into_values())
                    .unwrap();
            }),
            ("shard 1 named twice", |traces| {
                let twin = traces[1].clone();
                traces.insert(2, twin);
            }),
            ("shard 2 left out", |traces| {
                traces.remove(2);
            }),
        ];
        let says = [
            "a ring of 1099511627776",
            "names shard 1 twice",
            "holds 3 stores",
        ];
        for ((what, forge), says) in forgeries.into_iter().zip(says) {
            let mut snap = clean.clone();
            forge(&mut snap.traces);
            snap.save(&path).unwrap();
            let err = campaign(32, &path).resume_traced(&path).expect_err(what);
            assert!(err.message.contains(says), "{what}: {err}");
        }
        clean.save(&path).unwrap();
        let resumed = campaign(32, &path)
            .resume_traced(&path)
            .expect("the clean file resumes");
        assert_eq!(resumed, campaign(32, &path).run_traced());

        // Stores in the file of a campaign that runs untraced.
        let untraced = dir.join("untraced.ckpt");
        let _ = campaign(0, &untraced).with_halt_after(2).run();
        let mut snap = CampaignSnapshot::load(&untraced).unwrap();
        assert!(snap.traces.is_empty());
        campaign(0, &untraced)
            .resume(&untraced)
            .expect("the clean file resumes");
        snap.traces.clone_from(&clean.traces);
        snap.save(&untraced).unwrap();
        let err = campaign(0, &untraced)
            .resume(&untraced)
            .expect_err("stores, untraced");
        assert!(err.message.contains("runs untraced"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_default_config_boundary_persists_the_pinned_traces_and_an_empty_ring() {
        // Ring 32 under epochs of 128: the next epoch keeps nothing of
        // the ring, so the boundary seals and writes none of it — and
        // the epoch before it, which no reader could see, recorded none.
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            hub_epoch: 128,
            ..cfg(4 * 4 * 128, 7)
        };
        assert_eq!(config.trace_ring, 32);
        let dir = std::env::temp_dir().join(format!("kgpt_trace_boundary_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("boundary.ckpt");
        // The halted run returns the recorders as they stand at the
        // boundary: exactly what the checkpoint persisted.
        let (_, live) = ShardedCampaign::new(&kernel, &suite, &consts, config)
            .with_shards(4)
            .with_checkpoint(&path)
            .with_halt_after(2)
            .run_traced();
        let snap = CampaignSnapshot::load(&path).unwrap();
        assert_eq!(snap.traces.len(), 4);
        for ((id, persisted), live) in snap.traces.iter().zip(&live) {
            assert_eq!(persisted, live, "shard {id}");
            assert_eq!(persisted.ring().count(), 0, "shard {id}");
            assert_eq!(
                (persisted.cap(), persisted.execs_seen()),
                (32, 2 * 128),
                "shard {id}"
            );
        }
        assert!(live.iter().any(|s| s.pinned_len() > 0), "nothing pinned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_ring_of_execs_per_shard_retains_every_non_crashing_exec() {
        // A ring as deep as a shard's whole budget is never trimmed:
        // `cap − n` is at least what the shard has run so far.
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            hub_epoch: 100,
            trace_ring: 400,
            ..cfg(4 * 400, 3)
        };
        let (result, stores) = ShardedCampaign::new(&kernel, &suite, &consts, config)
            .with_shards(4)
            .run_traced();
        let crashing: u64 = result.crashes.values().map(|(n, _)| n).sum();
        let ringed: usize = stores.iter().map(|s| s.ring().count()).sum();
        assert!(crashing > 0, "the campaign never crashed");
        assert_eq!(ringed as u64, result.execs - crashing);
        for store in &stores {
            assert_eq!(store.execs_seen(), 400);
            assert!(store.ring().map(|t| t.exec).is_sorted());
        }
    }

    #[test]
    fn tracing_never_changes_the_campaign_result() {
        // trace_ring is a pure observability knob for the merged
        // result: coverage, crashes, corpus and triage are identical
        // with the recorder on, off, or at a different capacity.
        let (kernel, suite, consts) = dm_setup();
        let run = |ring: usize| {
            let config = CampaignConfig {
                trace_ring: ring,
                ..hub_cfg(2000, 3)
            };
            ShardedCampaign::new(&kernel, &suite, &consts, config)
                .with_shards(4)
                .run()
        };
        let on = run(32);
        let off = run(0);
        let big = run(512);
        assert_eq!(on, off, "ring 32 vs off");
        assert_eq!(on, big, "ring 32 vs 512");
    }

    #[test]
    fn uneven_exec_budgets_split_without_loss() {
        let config = cfg(1003, 0);
        let total: u64 = (0..8).map(|i| shard_execs(&config, 8, i)).sum();
        assert_eq!(total, 1003);
        assert!((0..8).all(|i| [125, 126].contains(&shard_execs(&config, 8, i))));
    }
}
