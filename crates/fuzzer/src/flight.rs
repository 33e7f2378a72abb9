//! Flight-recorder wiring: per-shard trace capture during campaigns
//! and the deterministic time-travel replayer.
//!
//! The trace *formats* live in [`kgpt_trace`]; this module connects
//! them to the campaign loop. A `ShardTracer` rides inside each
//! `ShardState` and keeps what a [`TraceStore`] would — a bounded
//! ring of the latest non-crashing execs plus the first exec per
//! crash signature — but keeps the ring **raw**: the executed
//! [`Program`] itself and the VM's [`kgpt_vkernel::TraceLog`] events,
//! in the buffer they were logged into. All but a fraction of a percent
//! of ring entries are evicted unread, so the delta coding against
//! the kernel's [`CfgSuccessors`] table and the program encoding run
//! only when somebody reads: the stores a traced run returns, the
//! first pin of a crash signature, and the few ring slots a
//! checkpoint has to carry. Sealing is a pure function of the raw
//! slot, so the stores are byte-for-byte what eager encoding would
//! have filed — and, because shard state evolves
//! schedule-independently, a pure function of `(config, shards)`: the
//! worker thread count never changes a recorded byte (pinned by tests
//! in [`crate::shard`]).
//!
//! **The ring is trimmed where an epoch starts** (the rule and what it
//! buys are in [`kgpt_trace`]'s replay contract): an epoch of `n`
//! execs first drops all but the newest `cap − n` slots, because the
//! epoch may record up to `n` traces and how many of the older ones
//! those would displace depends on how many of its execs crash. What
//! is left is all a checkpoint at the boundary before it persists
//! (`ShardTracer::boundary_store`) — nothing at all when an epoch is
//! at least as long as the ring. A journal record
//! ([`crate::checkpoint`]) persists the same thing as an increment
//! (`ShardTracer::write_since_mark`): how many of the ring traces its
//! predecessor persisted are still kept, and the kept and the pinned
//! traces recorded since — so a trace is sealed for a record once.
//!
//! **Only a live epoch records.** Every reader of the ring reads at
//! most what the next epoch keeps of it, the newest `cap − n_next`
//! slots (`n_next` the next epoch's length), or — when the shard
//! finishes with the epoch — the whole ring the final store returns.
//! So an epoch is **live** when the shard finishes with it or
//! `cap > n_next`; any other epoch's ring slots are let go at the next
//! trim before anybody could read them. `ShardTracer::begin_epoch`
//! decides it from the ring's capacity and the next epoch's length —
//! no option — and switches the VM's trace log on for a live epoch and
//! off for a dead one: a dead epoch runs the untraced loop, its execs
//! are counted (a trace header carries the exec index) and offered to
//! the corpus as if nothing recorded them, and its ring takes nothing.
//! A crash signature first seen in a dead epoch is still pinned: its
//! exec is run again on a traced scratch of the recorder's own under
//! the exec's fuel limit, and an exec's events are a function of
//! program, kernel and fuel (what [`replay_trace`] relies on), so the
//! pin is the trace a live epoch would have sealed. At the default
//! ring 32 and epochs of 128 only a shard's last epoch is live. What
//! no reader sees is all that changes — with one exception: a run
//! halted at a boundary (`ShardedCampaign::with_halt_after`) returns
//! its recorders as they stand, and after a dead epoch that is the
//! pins and an empty ring, exactly what the checkpoint there persisted.
//!
//! **Storage goes round.** A slot the ring lets go — at a full ring's
//! next `record`, at an epoch's trim — keeps its program and its
//! (emptied) event buffer as a spare. The next exec the corpus rejects
//! is *swapped* into a spare: the slot takes the executed program and
//! the buffer the VM logged into, the shard gets the spare's program
//! back as the storage its next program is generated into
//! ([`crate::gen`]) and the VM its buffer to log into. Ring and spares
//! together never hold more than the ring's capacity, so that is the
//! bound on programs in flight, as it was when a slot's program was
//! freed on the way out. An exec the corpus admits is cloned into its
//! slot, as ever.
//!
//! [`replay_trace`] is the other direction: re-execute any recorded
//! exec from its self-contained header and cross-check the recorded
//! block stream against the live run, byte for byte.

use crate::exec::{execute_with, ExecScratch};
use kgpt_syzlang::codec::Writer;
use kgpt_syzlang::lowered::{CfgRun, CfgSuccessors, LoweredDb};
use kgpt_syzlang::prog::Program;
use kgpt_trace::{decode_events, encode_events, ExecTrace, TraceError, TraceStore};
use kgpt_vkernel::{CoverageMap, CrashSignature, TraceEvent, VKernel};
use std::collections::{BTreeMap, VecDeque};
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

/// What a trace header says of its exec besides the program.
#[derive(Clone, Copy, Default)]
struct ExecMeta {
    epoch: u64,
    exec: u64,
    exec_fuel: u64,
    fuel_exhausted: bool,
}

/// One exec as the recorder captured it, before any encoding.
#[derive(Clone, Default)]
struct RawTrace {
    meta: ExecMeta,
    program: Program,
    events: Vec<TraceEvent>,
}

/// A ring slot: raw as recorded, or already sealed (installed from a
/// checkpoint on resume — it is never decoded back).
#[derive(Clone)]
enum Slot {
    Raw(RawTrace),
    Sealed(ExecTrace),
}

/// Per-shard recorder: a [`TraceStore`] whose ring is sealed on read
/// (see the module docs).
#[derive(Clone)]
pub(crate) struct ShardTracer {
    /// Shared prediction table (one per campaign, not per shard).
    cfg: Arc<CfgSuccessors>,
    /// Spec-suite fingerprint stamped into every trace header.
    spec_fp: u64,
    /// Owning shard id, stamped into every trace header.
    shard: u32,
    /// Ring capacity (non-crash traces retained).
    cap: usize,
    /// Executions recorded over the shard's lifetime.
    execs_seen: u64,
    /// `execs_seen` when the shard was last marked: a trace of an
    /// earlier exec is in what was persisted then.
    mark: u64,
    /// Most recent non-crashing execs, oldest first.
    ring: VecDeque<Slot>,
    /// The raw slots the ring let go, for the next execs to be
    /// recorded into (module docs): event buffers emptied, programs as
    /// they were. With the ring, at most `cap` slots.
    spare: Vec<RawTrace>,
    /// First trace per crash signature, sealed when pinned.
    pinned: BTreeMap<CrashSignature, ExecTrace>,
    /// Whether the epoch in progress is live (module docs): its ring
    /// slots can be read, so it records them and the VM logs events.
    /// Nothing is live until an epoch begins.
    live: bool,
    /// Where a dead epoch's first crash of a signature is run again,
    /// traced, to be pinned.
    rerun: RerunScratch,
}

/// A traced scratch of the recorder's own, made on first use. A clone
/// of the recorder starts without one: it is storage, not state.
#[derive(Default)]
struct RerunScratch(Option<Box<ExecScratch>>);

impl Clone for RerunScratch {
    fn clone(&self) -> RerunScratch {
        RerunScratch(None)
    }
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
            cap,
            execs_seen: 0,
            mark: 0,
            ring: VecDeque::new(),
            spare: Vec::new(),
            pinned: BTreeMap::new(),
            live: false,
            rerun: RerunScratch::default(),
        }
    }

    /// How many of the newest ring slots an epoch of `n` execs keeps
    /// (module docs).
    fn survivors(&self, n: u64) -> usize {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        self.cap.saturating_sub(n).min(self.ring.len())
    }

    /// Start an epoch of `n` execs in `scratch`, to be followed by one
    /// of `next` execs (`None`: the shard finishes with this one): let
    /// go of every ring slot but the [`ShardTracer::survivors`], decide
    /// whether the epoch is live (module docs) and switch the VM's trace
    /// log on for a live epoch, off for a dead one. `n = 0` (a shard
    /// that has finished while others run on) lets go of nothing.
    pub(crate) fn begin_epoch(&mut self, scratch: &mut ExecScratch, n: u64, next: Option<u64>) {
        for _ in self.survivors(n)..self.ring.len() {
            self.drop_oldest();
        }
        let cap = u64::try_from(self.cap).unwrap_or(u64::MAX);
        self.live = next.is_none_or(|n_next| cap > n_next);
        scratch.state.trace_mut().set_enabled(self.live);
    }

    /// Let go of the oldest ring slot, keeping its storage.
    fn drop_oldest(&mut self) {
        if let Some(Slot::Raw(mut dropped)) = self.ring.pop_front() {
            dropped.events.clear();
            self.spare.push(dropped);
        }
    }

    /// Record the execution of `prog` on `kernel` that just finished
    /// in `scratch` and say whether `prog` is still that program, to be
    /// offered to the corpus. `seen` is the shard corpus's coverage: a
    /// program the corpus would reject (nothing new over `seen`) is
    /// swapped into its ring slot, `prog` becomes the storage of a slot
    /// the ring let go, and the answer is no; otherwise the slot takes
    /// a copy. Either way the slot takes the buffer the VM logged the
    /// exec into and the VM gets the slot's to log the next one into.
    /// At steady state the swapped path neither allocates nor frees.
    /// A dead epoch's exec only counts, and is pinned if it is the
    /// first crash of its signature; it is offered to the corpus as if
    /// nothing recorded it.
    pub(crate) fn record(
        &mut self,
        kernel: &VKernel,
        scratch: &mut ExecScratch,
        prog: &mut Program,
        epoch: u64,
        seen: &CoverageMap,
    ) -> bool {
        let state = &mut scratch.state;
        let meta = ExecMeta {
            epoch,
            exec: self.execs_seen,
            exec_fuel: state.fuel_limit(),
            fuel_exhausted: state.fuel_exhausted(),
        };
        self.execs_seen += 1;
        if let Some(crash) = &state.crash {
            let sig = crash.signature;
            if !self.pinned.contains_key(&sig) {
                let sealed = if self.live {
                    self.seal(meta, prog, state.trace().events(), Some(sig))
                } else {
                    self.seal_rerun(kernel, scratch.lowered(), meta, prog, sig)
                };
                self.pinned.insert(sig, sealed);
            }
            return true;
        }
        if !self.live || self.cap == 0 {
            return true;
        }
        if self.ring.len() == self.cap {
            self.drop_oldest();
        }
        let mut raw = self.spare.pop().unwrap_or_default();
        raw.meta = meta;
        state.trace_mut().swap_events(&mut raw.events);
        let admitted = seen.new_blocks_in(&state.coverage) != 0;
        if admitted {
            raw.program = prog.clone();
        } else {
            std::mem::swap(&mut raw.program, prog);
        }
        self.ring.push_back(Slot::Raw(raw));
        admitted
    }

    /// Seal a crashing exec of a dead epoch, whose events the VM did
    /// not log: run `prog` again on the recorder's traced scratch under
    /// the exec's fuel limit. An exec's events are a function of
    /// program, kernel and fuel — what [`replay_trace`] relies on — so
    /// the trace is the one a live epoch would have sealed.
    fn seal_rerun(
        &mut self,
        kernel: &VKernel,
        lowered: &Arc<LoweredDb>,
        meta: ExecMeta,
        prog: &Program,
        sig: CrashSignature,
    ) -> ExecTrace {
        let mut rerun = self.rerun.0.take().unwrap_or_else(|| {
            let mut scratch = ExecScratch::from_lowered(Arc::clone(lowered));
            scratch.state.trace_mut().set_enabled(true);
            Box::new(scratch)
        });
        rerun.state.set_fuel_limit(meta.exec_fuel);
        execute_with(kernel, prog, &mut rerun);
        debug_assert_eq!(rerun.crash().map(|c| c.signature), Some(sig));
        let sealed = self.seal(meta, prog, rerun.state.trace().events(), Some(sig));
        self.rerun.0 = Some(rerun);
        sealed
    }

    /// Encode a ring slot into its self-contained trace.
    fn seal_slot(&self, raw: &RawTrace) -> ExecTrace {
        self.seal(raw.meta, &raw.program, &raw.events, None)
    }

    /// Encode one exec into its self-contained trace.
    fn seal(
        &self,
        meta: ExecMeta,
        program: &Program,
        events: &[TraceEvent],
        crash: Option<CrashSignature>,
    ) -> ExecTrace {
        let (stream, stream_bits) = encode_events(&self.cfg, events);
        let mut bytes = Vec::new();
        program.encode_into(&mut bytes);
        // A returned store lives as long as its caller keeps it: do
        // not leave it holding the buffer's growth slack.
        bytes.shrink_to_fit();
        ExecTrace {
            shard: self.shard,
            epoch: meta.epoch,
            exec: meta.exec,
            exec_fuel: meta.exec_fuel,
            spec_fingerprint: self.spec_fp,
            fuel_exhausted: meta.fuel_exhausted,
            crash,
            program: bytes,
            stream,
            stream_bits,
        }
    }

    /// The shard's retained traces, sealed — what a traced run
    /// returns.
    pub(crate) fn store(&self) -> TraceStore {
        self.sealed(self.ring.len())
    }

    /// The store as the next epoch, of `n` execs, will find it once
    /// it has started: what a checkpoint at this boundary persists,
    /// and all it seals.
    pub(crate) fn boundary_store(&self, n: u64) -> TraceStore {
        self.sealed(self.survivors(n))
    }

    /// Everything up to here is persisted (a base or a journal record
    /// was written at this boundary).
    pub(crate) fn mark(&mut self) {
        self.mark = self.execs_seen;
    }

    /// [`ShardTracer::boundary_store`] as an increment on the one of
    /// the boundary the recorder was marked at — what
    /// [`TraceStore::advance`] takes: `execs_seen`, how many of the
    /// ring traces persisted then the next epoch (of `n` execs) still
    /// keeps, the kept ring traces recorded since (sealed here, and
    /// nowhere again), the traces pinned since.
    pub(crate) fn write_since_mark(&self, n: u64, w: &mut Writer<'_>) {
        let exec = |slot: &Slot| match slot {
            Slot::Raw(raw) => raw.meta.exec,
            Slot::Sealed(trace) => trace.exec,
        };
        let kept = self.ring.range(self.ring.len() - self.survivors(n)..);
        let old = kept.clone().take_while(|s| exec(s) < self.mark).count();
        w.u64(self.execs_seen);
        w.u32(u32::try_from(old).unwrap_or(u32::MAX));
        w.seq(kept.skip(old), |slot, w| match slot {
            Slot::Raw(raw) => self.seal_slot(raw).encode(w),
            Slot::Sealed(trace) => trace.encode(w),
        });
        let pins = self.pinned.values().filter(|t| t.exec >= self.mark);
        w.seq(pins.collect::<Vec<_>>(), ExecTrace::encode);
    }

    /// A store of the `newest` ring slots and every pinned trace.
    fn sealed(&self, newest: usize) -> TraceStore {
        let older = self.ring.len().saturating_sub(newest);
        let ring = self.ring.iter().skip(older).map(|slot| match slot {
            Slot::Raw(raw) => self.seal_slot(raw),
            Slot::Sealed(trace) => trace.clone(),
        });
        TraceStore::from_traces(
            self.cap,
            self.execs_seen,
            ring.chain(self.pinned.values().cloned()),
        )
    }

    /// Replace the retained traces (checkpoint resume) with a store of
    /// the recorder's own ring capacity — resume refuses any other.
    pub(crate) fn set_store(&mut self, store: TraceStore) {
        debug_assert_eq!(store.cap(), self.cap, "a store of another ring");
        self.execs_seen = store.execs_seen();
        let (ring, pinned) = store.into_parts();
        self.ring = ring.into_iter().map(Slot::Sealed).collect();
        self.pinned = pinned;
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
/// fingerprint) does not match the trace header, when the embedded
/// program or stream fails strict decoding, or when the program is not
/// one the scratch's suite could have generated
/// ([`Program::fits`]). A *divergent* replay is
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
    // A trace file is bytes from outside: its program is held to the
    // suite before it is executed.
    prog.fits(scratch.lowered())
        .map_err(|m| TraceError::new(format!("the trace holds a misfit program: {m}")))?;
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

    /// What `ShardTracer::record` replaced: encode the exec the moment
    /// it finishes and file it in a [`TraceStore`].
    fn record_eagerly(
        store: &mut TraceStore,
        cfg: &CfgSuccessors,
        scratch: &ExecScratch,
        prog: &Program,
        epoch: u64,
    ) {
        let (stream, stream_bits) = encode_events(cfg, scratch.state.trace().events());
        let mut program = Vec::new();
        prog.encode_into(&mut program);
        store.record(ExecTrace {
            shard: SHARD,
            epoch,
            exec: store.execs_seen(),
            exec_fuel: scratch.state.fuel_limit(),
            spec_fingerprint: SPEC_FP,
            fuel_exhausted: scratch.state.fuel_exhausted(),
            crash: scratch.crash().map(|c| c.signature),
            program,
            stream,
            stream_bits,
        });
    }

    const SHARD: u32 = 3;
    const SPEC_FP: u64 = 0xFEED_FACE;

    /// The oracle's side of `ShardTracer::begin_epoch`: an epoch of
    /// `n` execs keeps the newest `cap − n` ring traces.
    fn trim(oracle: &mut TraceStore, n: usize) {
        let (cap, execs_seen) = (oracle.cap(), oracle.execs_seen());
        let (mut ring, pinned) = std::mem::replace(oracle, TraceStore::new(0)).into_parts();
        let dropped = ring.len() - cap.saturating_sub(n).min(ring.len());
        ring.drain(..dropped);
        *oracle = TraceStore::from_parts(cap, execs_seen, ring, pinned.into_values()).unwrap();
    }

    #[test]
    fn lazily_sealed_store_equals_the_eager_oracle() {
        use crate::corpus::Corpus;
        use crate::gen::Generator;

        let (kernel, suite, consts) = dm_setup();
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let cfg = Arc::new(cfg_successors(&kernel));
        // The recorder's scratch, whose trace log the recorder switches,
        // and the oracle's, which logs every exec.
        let mut scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
        let mut eager = ExecScratch::from_lowered(Arc::clone(&lowered));
        eager.state.trace_mut().set_enabled(true);

        // One fixed exec sequence, generated the way a shard would:
        // ten epochs of 128 execs and a last one of 120.
        const EXECS: usize = 1400;
        const EPOCH: usize = 128;
        let mut generator = Generator::from_lowered(Arc::clone(&lowered), 11);
        let mut corpus = Corpus::new(64, 11);
        let mut progs = Vec::new();
        for i in 0..EXECS {
            let prog = match corpus.select() {
                Some(idx) if i % 4 != 0 => generator.mutate(corpus.program(idx), 8),
                _ => generator.gen_program(8),
            };
            execute_with(&kernel, &prog, &mut eager);
            corpus.observe(prog.clone(), eager.coverage(), None);
            progs.push(prog);
        }
        let epochs: Vec<&[Program]> = progs.chunks(EPOCH).collect();
        let epoch_len = |e: usize| epochs[e].len();
        let last_len = epoch_len(epochs.len() - 1);

        // 125 lies between the last epoch (120) and the others (128):
        // the second-to-last epoch is live as well as the last.
        for ring in [0usize, 1, 32, 125, 512] {
            // The rule, spelled out: live when the shard finishes with
            // the epoch or the next one keeps some of its ring.
            let live = |e: usize| e + 1 == epochs.len() || ring > epoch_len(e + 1);
            let mut oracle = TraceStore::new(ring);
            let mut tracer = ShardTracer::new(Arc::clone(&cfg), SPEC_FP, SHARD, ring);
            let mut corpus = Corpus::new(64, 0);
            let mut moved = 0usize;
            // The shard's one program: what the recorder handed back
            // last, overwritten with the next exec's.
            let mut storage = Program::default();
            // One epoch on the recorder and (unless it is to be thrown
            // away) on the oracle; returns how many of its execs crashed.
            let mut run = |e: usize,
                           tracer: &mut ShardTracer,
                           corpus: &mut Corpus,
                           mut oracle: Option<&mut TraceStore>| {
                let next = epochs.get(e + 1).map(|p| p.len() as u64);
                tracer.begin_epoch(&mut scratch, epoch_len(e) as u64, next);
                assert_eq!(
                    scratch.state.trace().enabled(),
                    live(e),
                    "ring {ring} epoch {e}"
                );
                if let Some(oracle) = oracle.as_deref_mut() {
                    trim(oracle, epoch_len(e));
                }
                let mut crashed = 0usize;
                for (i, prog) in epochs[e].iter().enumerate() {
                    storage.calls.clone_from(&prog.calls);
                    execute_with(&kernel, &storage, &mut scratch);
                    if let Some(oracle) = oracle.as_deref_mut() {
                        execute_with(&kernel, prog, &mut eager);
                        record_eagerly(oracle, &cfg, &eager, prog, e as u64);
                    }
                    let fresh = corpus.coverage().new_blocks_in(scratch.coverage()) != 0;
                    let offered = tracer.record(
                        &kernel,
                        &mut scratch,
                        &mut storage,
                        e as u64,
                        corpus.coverage(),
                    );
                    // Offered exactly when the ring did not take it, or
                    // the corpus wants it too — and then still itself.
                    let ringed = ring > 0 && live(e) && scratch.crash().is_none();
                    assert_eq!(offered, !ringed || fresh, "epoch {e} exec {i}");
                    crashed += usize::from(scratch.crash().is_some());
                    if offered {
                        assert_eq!(&storage, prog, "epoch {e} exec {i}");
                        corpus.observe_in_place(&mut storage, scratch.coverage(), None);
                    } else {
                        moved += 1;
                    }
                }
                crashed
            };

            for e in 0..3 {
                run(e, &mut tracer, &mut corpus, Some(&mut oracle));
            }
            // Resume: what a checkpoint at this boundary carries — the
            // ring as epoch 3 will keep it — goes through bytes and
            // comes back into a fresh recorder.
            let saved = tracer.boundary_store(epoch_len(3) as u64);
            let mut kept = oracle.clone();
            trim(&mut kept, epoch_len(3));
            assert_eq!(saved, kept, "ring {ring} at the resume point");
            assert_eq!(saved.ring().count() > 0, ring > EPOCH, "ring {ring}");
            tracer = ShardTracer::new(Arc::clone(&cfg), SPEC_FP, SHARD, ring);
            tracer.set_store(TraceStore::from_bytes(&saved.to_bytes()).unwrap());
            for e in 3..6 {
                run(e, &mut tracer, &mut corpus, Some(&mut oracle));
            }
            // ShardAbort: the epoch runs, is thrown away, and re-runs
            // from the boundary clone (which trims again, the same).
            let boundary = (tracer.clone(), corpus.clone());
            run(6, &mut tracer, &mut corpus, None);
            (tracer, corpus) = boundary;
            let mut crashed_last = 0;
            for e in 6..epochs.len() {
                crashed_last = run(e, &mut tracer, &mut corpus, Some(&mut oracle));
            }

            let sealed = tracer.store();
            assert_eq!(sealed, oracle, "ring {ring}");
            assert_eq!(sealed.to_bytes(), oracle.to_bytes(), "ring {ring}");
            assert_eq!(sealed.execs_seen(), EXECS as u64);
            assert!(oracle.pinned_len() > 0, "the sequence never crashed");
            // Below a ring of 128 some pins were sealed by running their
            // exec again, in an epoch that logged nothing.
            let rerun = oracle
                .pinned()
                .filter(|(_, t)| !live(t.epoch as usize))
                .count();
            assert_eq!(rerun > 0, ring < EPOCH, "ring {ring}: {rerun} pins rerun");
            // A warm ring: full, less — when it is longer than the
            // last epoch — the crashing execs of that epoch.
            assert!(crashed_last > 0, "the last epoch never crashed");
            let held = if ring > last_len {
                ring - crashed_last
            } else {
                ring
            };
            assert_eq!(oracle.ring().count(), held, "ring {ring}");
            assert_eq!(moved == 0, ring == 0, "ring {ring} moved {moved} programs");
        }
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
    fn a_trace_holding_a_hostile_program_is_refused_not_replayed() {
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
        let lowered = campaign.lowered_shared();
        let mut scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
        // A pinned trace: its program opened the device and crashed an
        // ioctl on the fd, so it has a resource argument to forge.
        let clean = stores[0]
            .iter()
            .find(|t| t.crash.is_some())
            .expect("pinned");
        for (what, forge) in crate::fabric::forgeries(&lowered) {
            let mut prog = clean.decode_program().unwrap();
            forge(&mut prog);
            let mut bad = clean.clone();
            bad.program.clear();
            prog.encode_into(&mut bad.program);
            let err = replay_trace(&kernel, &mut scratch, &cfg, &bad, spec_fp).expect_err(what);
            assert!(err.message.contains("misfit program"), "{what}: {err}");
        }
        let out = replay_trace(&kernel, &mut scratch, &cfg, clean, spec_fp).unwrap();
        assert!(out.identical, "the scratch is as usable as before");
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
