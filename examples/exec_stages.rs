//! Where a deep-chain exec's time and allocator events go, stage by
//! stage, with every program executed **whole** (`execute_with` from
//! call 0: the loop shards ran before mutants resumed) against the loop
//! shards run now, **resumed** (a mutant from its parent's state at the
//! index `mutate_into` returns: `Corpus::prefix`, `ExecPrefix::restore`,
//! `ExecPrefix::run`).
//!
//! Two shards built from the library's public parts mirror the one
//! shard of a sequential campaign — the scheduler's LCG, one turn in
//! four fresh, the corpus cap, every program built in place — one on
//! each route. After a warm-up that converges them they advance in
//! alternating blocks, a clock and the allocator's event count read
//! between stages:
//!
//! * **select** — `Corpus::select`, the weighted pick;
//! * **fresh** / **mutate** — the program, per program of that kind;
//! * **prefix** — `Corpus::prefix`: the parent's recorded states;
//! * **restore** — `ExecPrefix::restore`: the VM state and returns at
//!   the mutant's divergence index (or as far as the parent's states
//!   are recorded);
//! * **exec** — `execute_with` of a whole program, `ExecPrefix::run` of
//!   a resumed one (which records the parent's states it passes that
//!   are not recorded yet);
//! * **observe** — the admission test.
//!
//! Beside the table: the kernel calls the exec loop ran per exec on
//! each route — the count resuming cuts. After every pair of blocks the
//! two shards must agree — corpus, selection stream, generator draws —
//! or the example panics. Then the campaign itself (`ShardedCampaign`,
//! one shard, one epoch) runs the same execs traced and untraced in
//! alternating repetitions: the difference is **capture**, the flight
//! recorder's share, and what it returns must equal what the hand-built
//! shards hold — coverage and corpus size, and byte for byte the store
//! of a third hand-built shard that executes every program whole and
//! encodes it the moment it finishes. One epoch is the only shape in
//! which every epoch is live (the recorder records only an epoch whose
//! ring a reader can see: `kgpt_fuzzer`'s `flight` module), so last
//! the same execs run in the benchmark's shape — eight shards on one
//! thread, epochs of 128 — where at ring 32 only a shard's last epoch
//! is; the traced result must equal the untraced one.
//!
//! Last, the read side over what that run returns — the sealed store
//! of every shard and the campaign's crash reproducers, what the
//! benchmark's `recover_replay` reads back: per trace, a replay's
//! stages as `replay_trace` runs them — **decode** (the program, held to
//! the suite), **check** (the recorded stream, walked and its blocks
//! counted), **exec** (traced, under the trace's fuel) and **compare**
//! (the live log encoded against the recorded words) — and per probe, a
//! ddmin search's **project** (from one probe's end to the next's
//! start: the candidate built in kept storage; the copy of the base
//! before the first) and **exec**. Every replay must be identical and
//! every minimized reproducer must still crash with its signature.
//!
//! ```text
//! cargo run --release --example exec_stages
//! ```
//!
//! A record for EXPERIMENTS.md § "Where a mutant's exec goes",
//! § "What a reader can see" and § "Where a replay's 12 µs goes",
//! never a gate: the referees are
//! `benchmark/`'s `deepchain_sharded` and `deepchain_durable`, the
//! pinned counts `tests/alloc_count.rs`'s. A stage's time includes one
//! clock read (some 20 ns here).

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{
    cfg_successors, execute_with, replay_trace, CampaignConfig, CampaignResult, Corpus,
    ExecScratch, ExecTrace, Generator, Program, ShardedCampaign, TraceStore,
};
use kernelgpt::syzlang::lowered::{CfgSuccessors, LoweredDb};
use kernelgpt::syzlang::SpecCache;
use kernelgpt::trace::{encode_events, stream_matches, walk_events};
use kernelgpt::triage::minimize;
use kernelgpt::vkernel::{TraceEvent, VKernel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 7;
const MAX_PROG_LEN: usize = 12;
/// `kgpt_fuzzer`'s cap on a shard's corpus.
const CORPUS_CAP: usize = 2048;
/// Steps before the first timed block.
const WARM: u64 = 20_000;
/// Steps a timed block, and timed blocks a route.
const BLOCK: u64 = 5_000;
const BLOCKS: u64 = 8;
const EXECS: u64 = WARM + BLOCK * BLOCKS;
/// Repetitions of each whole campaign.
const REPS: usize = 5;

/// Counts the calling thread's allocation events (alloc + realloc), as
/// `tests/alloc_count.rs` does.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates everything to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

const STAGES: [&str; 7] = [
    "select", "fresh", "mutate", "prefix", "restore", "exec", "observe",
];
const SELECT: usize = 0;
const FRESH: usize = 1;
const MUTATE: usize = 2;
const PREFIX: usize = 3;
const RESTORE: usize = 4;
const EXEC: usize = 5;
const OBSERVE: usize = 6;

/// Time, allocator events and runs of each of `N` stages.
struct Tally<const N: usize = 7>([(u64, u64, u64); N]);

impl<const N: usize> Default for Tally<N> {
    fn default() -> Tally<N> {
        Tally([(0, 0, 0); N])
    }
}

/// A clock and an event count, read between stages.
struct Lap(Instant, u64);

impl Lap {
    fn start() -> Lap {
        Lap(Instant::now(), events())
    }

    /// Charge what passed since the last reading to `stage`.
    fn charge<const N: usize>(&mut self, tally: &mut Tally<N>, stage: usize) {
        let now = Lap::start();
        let slot = &mut tally.0[stage];
        slot.0 += u64::try_from((now.0 - self.0).as_nanos()).unwrap_or(u64::MAX);
        slot.1 += now.1 - self.1;
        slot.2 += 1;
        *self = now;
    }
}

/// What `encode` needs to file an exec in a [`TraceStore`] the moment
/// it finishes — the oracle the recorder's lazily sealed ring is held
/// to.
struct Eager {
    store: TraceStore,
    cfg: CfgSuccessors,
    spec_fp: u64,
}

/// One shard of a sequential campaign, from the public parts.
struct Shard {
    generator: Generator,
    scratch: ExecScratch,
    corpus: Corpus,
    rng_pick: u64,
    /// The one program every exec is built into.
    prog: Program,
    /// Calls the exec loop ran, over every exec of a timed block.
    calls_run: u64,
}

impl Shard {
    fn new(lowered: &Arc<LoweredDb>, config: &CampaignConfig) -> Shard {
        let mut scratch = ExecScratch::from_lowered(Arc::clone(lowered));
        scratch.state.set_fuel_limit(config.exec_fuel);
        Shard {
            generator: Generator::from_lowered(Arc::clone(lowered), config.seed),
            scratch,
            corpus: Corpus::new(CORPUS_CAP, config.seed),
            rng_pick: config.seed,
            prog: Program::default(),
            calls_run: 0,
        }
    }

    /// The scheduler's turn: fresh one time in four and on an empty
    /// corpus, else a weighted pick.
    fn pick(&mut self) -> Option<usize> {
        self.rng_pick = self
            .rng_pick
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        if self.rng_pick.is_multiple_of(4) {
            None
        } else {
            self.corpus.select()
        }
    }

    /// One exec, a mutant resumed from its parent's state when
    /// `resume`, every program whole otherwise; with `eager`, traced.
    fn step(
        &mut self,
        kernel: &VKernel,
        tally: &mut Tally,
        resume: bool,
        eager: Option<&mut Eager>,
    ) {
        let mut lap = Lap::start();
        let parent = self.pick();
        lap.charge(tally, SELECT);
        let resume_at = match parent {
            None => {
                self.generator
                    .gen_program_into(MAX_PROG_LEN, &mut self.prog);
                lap.charge(tally, FRESH);
                None
            }
            Some(idx) => {
                let seed = self.corpus.program(idx);
                let from = self
                    .generator
                    .mutate_into(seed, MAX_PROG_LEN, &mut self.prog);
                lap.charge(tally, MUTATE);
                resume.then_some((idx, from))
            }
        };
        let at = match resume_at {
            Some((idx, from)) => {
                let prefix = self.corpus.prefix(idx, &self.scratch);
                lap.charge(tally, PREFIX);
                let at = prefix.restore(from, &mut self.scratch);
                lap.charge(tally, RESTORE);
                prefix.run(kernel, &self.prog, &mut self.scratch, from);
                at
            }
            None => {
                execute_with(kernel, &self.prog, &mut self.scratch);
                0
            }
        };
        lap.charge(tally, EXEC);
        self.calls_run += (self.prog.len() - at) as u64;
        if let Some(eager) = eager {
            eager.record(&self.scratch, &self.prog);
            lap = Lap::start();
        }
        let cov = self.scratch.coverage();
        self.corpus.observe_in_place(&mut self.prog, cov, parent);
        lap.charge(tally, OBSERVE);
    }

    /// Panic unless continuing `self` and `other` is the same thing.
    fn assert_agrees(&self, other: &Shard, at: u64) {
        assert!(
            self.corpus == other.corpus,
            "corpora differ after {at} execs"
        );
        assert_eq!(self.rng_pick, other.rng_pick, "after {at} execs");
        let (ours, theirs) = (self.generator.rng_state(), other.generator.rng_state());
        assert_eq!(ours, theirs, "generator draws differ after {at} execs");
    }
}

impl Eager {
    fn record(&mut self, scratch: &ExecScratch, prog: &Program) {
        let (stream, stream_bits) = encode_events(&self.cfg, scratch.state.trace().events());
        let mut program = Vec::new();
        prog.encode_into(&mut program);
        self.store.record(ExecTrace {
            shard: 0,
            epoch: 0,
            exec: self.store.execs_seen(),
            exec_fuel: scratch.state.fuel_limit(),
            spec_fingerprint: self.spec_fp,
            fuel_exhausted: scratch.state.fuel_exhausted(),
            crash: scratch.crash().map(|c| c.signature),
            program,
            stream,
            stream_bits,
        });
    }
}

fn main() {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    let (db, lowered) = SpecCache::global().get_or_build_lowered(&suite, kc.consts());
    let config = |trace_ring: usize| CampaignConfig {
        execs: EXECS,
        seed: SEED,
        max_prog_len: MAX_PROG_LEN,
        hub_epoch: 0,
        trace_ring,
        ..CampaignConfig::default()
    };
    let traced_ring = CampaignConfig::default().trace_ring;

    // The two routes, converged and then block against block.
    let mut whole = Shard::new(&lowered, &config(0));
    let mut resumed = Shard::new(&lowered, &config(0));
    let mut unmeasured = Tally::default();
    for _ in 0..WARM {
        whole.step(&kernel, &mut unmeasured, false, None);
        resumed.step(&kernel, &mut unmeasured, true, None);
    }
    whole.assert_agrees(&resumed, WARM);
    (whole.calls_run, resumed.calls_run) = (0, 0);
    let mut tallies = [Tally::default(), Tally::default()];
    for block in 0..BLOCKS {
        for side in [block % 2, 1 - block % 2] {
            let shard = if side == 0 { &mut whole } else { &mut resumed };
            for _ in 0..BLOCK {
                shard.step(&kernel, &mut tallies[side as usize], side == 1, None);
            }
        }
        whole.assert_agrees(&resumed, WARM + BLOCK * (block + 1));
    }
    let admitted = whole.corpus.stats().admitted;
    println!(
        "one deep-chain shard, seed {SEED}: {EXECS} execs, {} timed a route after {WARM}; \
         {} corpus entries, {admitted} admissions",
        BLOCK * BLOCKS,
        whole.corpus.len()
    );
    println!("\n                   whole             resumed");
    println!("stage          ns   events        ns   events   (per run of the stage)");
    let mut totals = [(0u64, 0u64); 2];
    for (i, stage) in STAGES.iter().enumerate() {
        let mut cells = tallies.iter().zip(&mut totals).map(|(tally, total)| {
            let (ns, events, runs) = tally.0[i];
            *total = (total.0 + ns, total.1 + events);
            match runs {
                0 => format!("{:>7} {:>8}", "-", "-"),
                runs => format!(
                    "{:>7.0} {:>8.2}",
                    ns as f64 / runs as f64,
                    events as f64 / runs as f64
                ),
            }
        });
        let (w, r) = (
            cells.next().unwrap_or_default(),
            cells.next().unwrap_or_default(),
        );
        println!("{stage:<8} {w}   {r}");
    }
    let execs = (BLOCK * BLOCKS) as f64;
    let per = |(ns, events): (u64, u64)| {
        format!("{:>7.0} {:>8.2}", ns as f64 / execs, events as f64 / execs)
    };
    println!(
        "an exec  {}   {}   (every stage, its share of execs)",
        per(totals[0]),
        per(totals[1])
    );
    println!(
        "\nkernel calls the exec loop ran per exec: whole {:.2}, resumed {:.2}",
        whole.calls_run as f64 / execs,
        resumed.calls_run as f64 / execs
    );

    // The campaign: the same execs through the library's own shard,
    // untraced against traced.
    let one = |ring: usize| {
        ShardedCampaign::new(&kernel, &suite, kc.consts(), config(ring)).with_shards(1)
    };
    let (runs, [untraced_out, traced_out]) = alternate(one, traced_ring);
    for out in [&untraced_out, &traced_out] {
        assert_eq!(out.0.coverage, *resumed.corpus.coverage());
        assert_eq!(out.0.corpus_size, resumed.corpus.len());
    }
    // A third shard, whole programs and traced, files every exec eagerly.
    let mut oracle = Shard::new(&lowered, &config(traced_ring));
    oracle.scratch.state.trace_mut().set_enabled(true);
    let mut eager = Eager {
        store: TraceStore::new(traced_ring),
        cfg: cfg_successors(&kernel),
        spec_fp: SpecCache::fingerprint(db.files()),
    };
    for _ in 0..EXECS {
        oracle.step(&kernel, &mut unmeasured, false, Some(&mut eager));
    }
    oracle.assert_agrees(&resumed, EXECS);
    let stores = traced_out.1;
    assert_eq!(stores.len(), 1);
    assert!(
        stores[0].to_bytes() == eager.store.to_bytes(),
        "the recorder's store differs from the eager oracle's"
    );
    println!("\nthe campaign itself (one shard, one epoch; fastest of {REPS}, set-up and sealing included):");
    print_capture(runs, traced_ring, &stores, "equal to the eager oracle's");

    // The benchmark's shape: eight shards on one thread, epochs of 128.
    // The next epoch keeps nothing of a ring of 32, so only a shard's
    // last epoch is live; the others run untraced and re-run the first
    // crash of a signature to pin it.
    let sharded = |ring: usize| {
        let config = CampaignConfig {
            hub_epoch: 128,
            ..config(ring)
        };
        ShardedCampaign::new(&kernel, &suite, kc.consts(), config).with_shards(8)
    };
    let (runs, [untraced_out, traced_out]) = alternate(sharded, traced_ring);
    assert_eq!(untraced_out.0, traced_out.0, "tracing changed the result");
    println!("\n8 shards, epochs of 128, one thread (the benchmark's shape; fastest of {REPS}):");
    print_capture(
        runs,
        traced_ring,
        &traced_out.1,
        "only the last epoch's ring",
    );

    let spec_fp = SpecCache::fingerprint(db.files());
    read_back(&kernel, &lowered, spec_fp, &traced_out.0, &traced_out.1);
}

const READ_STAGES: [&str; 4] = ["decode", "check", "exec", "compare"];
const DECODE: usize = 0;
const CHECK: usize = 1;
const REPLAY_EXEC: usize = 2;
const COMPARE: usize = 3;
const PROBE_STAGES: [&str; 2] = ["project", "exec"];
const PROJECT: usize = 0;
const PROBE_EXEC: usize = 1;

/// The read side's stage table over what a traced campaign returned:
/// every trace of `stores` replayed, every reproducer of `result`
/// minimized, `REPS` times after a warm-up pass.
fn read_back(
    kernel: &VKernel,
    lowered: &Arc<LoweredDb>,
    spec_fp: u64,
    result: &CampaignResult,
    stores: &[TraceStore],
) {
    let cfg = cfg_successors(kernel);
    let mut scratch = ExecScratch::from_lowered(Arc::clone(lowered));
    let traces: Vec<&ExecTrace> = stores.iter().flat_map(TraceStore::iter).collect();
    for t in &traces {
        let out = replay_trace(kernel, &mut scratch, &cfg, t, spec_fp).expect("a sealed trace");
        assert!(out.identical, "shard {} exec {} diverged", t.shard, t.exec);
    }
    let mut replays = Tally::<4>::default();
    scratch.state.trace_mut().set_enabled(true);
    for _ in 0..REPS {
        for t in &traces {
            let mut lap = Lap::start();
            let prog = t.decode_program().expect("a sealed program");
            prog.fits(lowered).expect("a program of the suite");
            lap.charge(&mut replays, DECODE);
            let mut blocks = 0u64;
            walk_events(&cfg, &t.stream, t.stream_bits, |e| {
                if let TraceEvent::Block { len, .. } = e {
                    blocks += u64::from(len);
                }
            })
            .expect("a sealed stream");
            black_box(blocks);
            lap.charge(&mut replays, CHECK);
            scratch.state.set_fuel_limit(t.exec_fuel);
            execute_with(kernel, &prog, &mut scratch);
            lap.charge(&mut replays, REPLAY_EXEC);
            let same = stream_matches(
                &cfg,
                scratch.state.trace().events(),
                &t.stream,
                t.stream_bits,
            );
            lap.charge(&mut replays, COMPARE);
            assert!(
                same && scratch.crash().map(|c| c.signature) == t.crash
                    && scratch.state.fuel_exhausted() == t.fuel_exhausted,
                "shard {} exec {} diverged",
                t.shard,
                t.exec
            );
        }
    }
    let pinned: usize = stores.iter().map(TraceStore::pinned_len).sum();
    println!(
        "\nreplaying that run's stores ({} traces, {pinned} pinned; {REPS} passes after a warm-up, every replay identical):",
        traces.len()
    );
    print_stages(&READ_STAGES, &replays, "a replay");

    // ddmin probes run untraced, under the campaign's fuel.
    scratch.state.trace_mut().set_enabled(false);
    scratch
        .state
        .set_fuel_limit(CampaignConfig::default().exec_fuel);
    let mut probes = Tally::<2>::default();
    for rep in 0..=REPS {
        let mut tally = Tally::<2>::default();
        for e in result.triage.entries() {
            let mut lap = Lap::start();
            let out = minimize(&e.raw, |candidate| {
                lap.charge(&mut tally, PROJECT);
                execute_with(kernel, candidate, &mut scratch);
                let hit = scratch.crash().is_some_and(|c| c.signature == e.signature);
                lap.charge(&mut tally, PROBE_EXEC);
                hit
            });
            execute_with(kernel, &out.program, &mut scratch);
            let crash = scratch.crash().map(|c| c.signature);
            assert_eq!(crash, Some(e.signature), "{} no longer reproduces", e.title);
        }
        // The first pass warms the scratch and the pointees' images.
        if rep > 0 {
            for (sum, t) in probes.0.iter_mut().zip(tally.0) {
                *sum = (sum.0 + t.0, sum.1 + t.1, sum.2 + t.2);
            }
        }
    }
    println!(
        "\nminimizing its {} reproducers ({REPS} passes after a warm-up):",
        result.triage.entries().count()
    );
    print_stages(&PROBE_STAGES, &probes, "a probe");
}

/// One row per stage — ns and allocator events a run of it — and
/// their sum, a run of `whole`.
fn print_stages<const N: usize>(names: &[&str; N], tally: &Tally<N>, whole: &str) {
    println!("stage           ns   events");
    let (mut ns, mut events) = (0.0, 0.0);
    for (name, &(t, e, runs)) in names.iter().zip(&tally.0) {
        let runs = runs.max(1) as f64;
        let (t, e) = (t as f64 / runs, e as f64 / runs);
        println!("{name:<10} {t:>7.0} {e:>8.2}");
        (ns, events) = (ns + t, events + e);
    }
    println!("{whole:<10} {ns:>7.0} {events:>8.2}");
}

/// What a traced campaign returns.
type Traced = (CampaignResult, Vec<TraceStore>);

/// The fastest of `REPS` runs of `campaign` untraced and at `ring`,
/// alternating, with the allocator events of each side, and each
/// side's last result and stores.
fn alternate<'k>(
    campaign: impl Fn(usize) -> ShardedCampaign<'k>,
    ring: usize,
) -> ([(u128, u64); 2], [Traced; 2]) {
    let mut runs = [(u128::MAX, 0u64), (u128::MAX, 0u64)];
    let mut outs: [Option<Traced>; 2] = [None, None];
    for rep in 0..REPS {
        for side in [rep % 2, 1 - rep % 2] {
            let (t, before) = (Instant::now(), events());
            let out = black_box(campaign([0, ring][side]).with_threads(1).run_traced());
            let (ns, cost) = (t.elapsed().as_nanos(), events() - before);
            runs[side] = (runs[side].0.min(ns), cost);
            outs[side] = Some(out);
        }
    }
    (runs, outs.map(|out| out.expect("a repetition ran")))
}

/// Per exec: the untraced and the traced row of [`alternate`]'s
/// runs, and capture, their difference, with what the stores hold.
fn print_capture(runs: [(u128, u64); 2], ring: usize, stores: &[TraceStore], note: &str) {
    let per_exec = |(ns, cost): (u128, u64)| (ns as f64 / EXECS as f64, cost as f64 / EXECS as f64);
    let (untraced, traced) = (per_exec(runs[0]), per_exec(runs[1]));
    let ringed: usize = stores.iter().map(|s| s.ring().count()).sum();
    let pinned: usize = stores.iter().map(TraceStore::pinned_len).sum();
    println!("untraced {:>7.0} {:>8.2}", untraced.0, untraced.1);
    println!("ring {ring:<3} {:>7.0} {:>8.2}", traced.0, traced.1);
    println!(
        "capture  {:>7.0} {:>8.2}   ({ringed} ring and {pinned} pinned traces, {note})",
        traced.0 - untraced.0,
        traced.1 - untraced.1,
    );
}
