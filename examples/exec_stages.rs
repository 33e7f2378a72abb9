//! Where a deep-chain exec's time and allocator events go, stage by
//! stage, with every program built **by value** (the wrappers
//! `gen_program` / `mutate` / `Corpus::observe`: a new program an exec,
//! freed on rejection — the loop every shard ran until PR 24) against
//! the loop shards run now, **in place** (`gen_program_into` /
//! `mutate_into` / `observe_in_place`: the rejected program is the
//! next one's storage).
//!
//! Two shards built from the library's public parts mirror the one
//! shard of a sequential campaign — the scheduler's LCG, one turn in
//! four fresh, the corpus cap — one on each route. After a warm-up that
//! converges them they advance in alternating blocks, a clock and the
//! allocator's event count read between stages:
//!
//! * **select** — `Corpus::select`, the weighted pick;
//! * **fresh** / **mutate** — the program, per program of that kind;
//! * **exec** — `execute_with`;
//! * **observe** — the admission test and, by value, the drop of the
//!   rejected program.
//!
//! After every pair of blocks the two shards must agree — corpus,
//! selection stream, generator draws — or the example panics. Then the
//! campaign itself (`ShardedCampaign`, one shard, one epoch) runs the
//! same execs traced and untraced in alternating repetitions: the
//! difference is **capture**, the flight recorder's share, and what it
//! returns must equal what the hand-built shards hold — coverage and
//! corpus size, and byte for byte the store of a third hand-built
//! shard that encodes every exec the moment it finishes.
//!
//! ```text
//! cargo run --release --example exec_stages
//! ```
//!
//! A record for EXPERIMENTS.md § "Where a deep-chain exec's allocator
//! events go", never a gate: the referee is `benchmark/`'s
//! `deepchain_sharded`, the pinned count `tests/alloc_count.rs`'s. A
//! stage's time includes one clock read (some 20 ns here).

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{
    cfg_successors, execute_with, CampaignConfig, Corpus, ExecScratch, ExecTrace, Generator,
    Program, ShardedCampaign, TraceStore,
};
use kernelgpt::syzlang::lowered::{CfgSuccessors, LoweredDb};
use kernelgpt::syzlang::SpecCache;
use kernelgpt::trace::encode_events;
use kernelgpt::vkernel::VKernel;
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

const STAGES: [&str; 5] = ["select", "fresh", "mutate", "exec", "observe"];
const FRESH: usize = 1;
const MUTATE: usize = 2;

/// Time, allocator events and runs of each stage.
#[derive(Default)]
struct Tally([(u64, u64, u64); 5]);

/// A clock and an event count, read between stages.
struct Lap(Instant, u64);

impl Lap {
    fn start() -> Lap {
        Lap(Instant::now(), events())
    }

    /// Charge what passed since the last reading to `stage`.
    fn charge(&mut self, tally: &mut Tally, stage: usize) {
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
    /// The in-place route's one program.
    prog: Program,
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

    /// One exec, every program built by value; with `eager`, traced.
    fn step_by_value(&mut self, kernel: &VKernel, tally: &mut Tally, eager: Option<&mut Eager>) {
        let mut lap = Lap::start();
        let parent = self.pick();
        lap.charge(tally, 0);
        let prog = match parent {
            None => self.generator.gen_program(MAX_PROG_LEN),
            Some(idx) => self
                .generator
                .mutate(self.corpus.program(idx), MAX_PROG_LEN),
        };
        lap.charge(tally, if parent.is_none() { FRESH } else { MUTATE });
        execute_with(kernel, &prog, &mut self.scratch);
        lap.charge(tally, 3);
        if let Some(eager) = eager {
            eager.record(&self.scratch, &prog);
            lap = Lap::start();
        }
        self.corpus.observe(prog, self.scratch.coverage(), parent);
        lap.charge(tally, 4);
    }

    /// One exec, the program built into the one before it.
    fn step_in_place(&mut self, kernel: &VKernel, tally: &mut Tally) {
        let mut lap = Lap::start();
        let parent = self.pick();
        lap.charge(tally, 0);
        match parent {
            None => self
                .generator
                .gen_program_into(MAX_PROG_LEN, &mut self.prog),
            Some(idx) => {
                let seed = self.corpus.program(idx);
                self.generator
                    .mutate_into(seed, MAX_PROG_LEN, &mut self.prog);
            }
        }
        lap.charge(tally, if parent.is_none() { FRESH } else { MUTATE });
        execute_with(kernel, &self.prog, &mut self.scratch);
        lap.charge(tally, 3);
        let cov = self.scratch.coverage();
        self.corpus.observe_in_place(&mut self.prog, cov, parent);
        lap.charge(tally, 4);
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
    let mut by_value = Shard::new(&lowered, &config(0));
    let mut in_place = Shard::new(&lowered, &config(0));
    let mut unmeasured = Tally::default();
    for _ in 0..WARM {
        by_value.step_by_value(&kernel, &mut unmeasured, None);
        in_place.step_in_place(&kernel, &mut unmeasured);
    }
    by_value.assert_agrees(&in_place, WARM);
    let (mut value_tally, mut place_tally) = (Tally::default(), Tally::default());
    for block in 0..BLOCKS {
        let mut value_block = |shard: &mut Shard| {
            for _ in 0..BLOCK {
                shard.step_by_value(&kernel, &mut value_tally, None);
            }
        };
        let mut place_block = |shard: &mut Shard| {
            for _ in 0..BLOCK {
                shard.step_in_place(&kernel, &mut place_tally);
            }
        };
        if block % 2 == 0 {
            value_block(&mut by_value);
            place_block(&mut in_place);
        } else {
            place_block(&mut in_place);
            value_block(&mut by_value);
        }
        by_value.assert_agrees(&in_place, WARM + BLOCK * (block + 1));
    }
    let admitted = by_value.corpus.stats().admitted;
    println!(
        "one deep-chain shard, seed {SEED}: {EXECS} execs, {} timed a route after {WARM}; \
         {} corpus entries, {admitted} admissions",
        BLOCK * BLOCKS,
        by_value.corpus.len()
    );
    println!("\n                 by value            in place");
    println!("stage          ns   events        ns   events   (per run of the stage)");
    let mut totals = [(0u64, 0u64); 2];
    for (i, stage) in STAGES.iter().enumerate() {
        let cell = |tally: &Tally, total: &mut (u64, u64)| {
            let (ns, events, runs) = tally.0[i];
            *total = (total.0 + ns, total.1 + events);
            let runs = runs.max(1) as f64;
            format!("{:>7.0} {:>8.2}", ns as f64 / runs, events as f64 / runs)
        };
        let value = cell(&value_tally, &mut totals[0]);
        let place = cell(&place_tally, &mut totals[1]);
        println!("{stage:<8} {value}   {place}");
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

    // The campaign: the same execs through the library's own shard,
    // untraced against traced.
    let campaign = |ring: usize| {
        ShardedCampaign::new(&kernel, &suite, kc.consts(), config(ring)).with_shards(1)
    };
    let mut runs = [(u128::MAX, 0u64), (u128::MAX, 0u64)];
    let mut traced = None;
    for rep in 0..REPS {
        for side in [rep % 2, 1 - rep % 2] {
            let ring = [0, traced_ring][side];
            let (t, before) = (Instant::now(), events());
            let out = black_box(campaign(ring).with_threads(1).run_traced());
            let (ns, cost) = (t.elapsed().as_nanos(), events() - before);
            runs[side] = (runs[side].0.min(ns), cost);
            assert_eq!(out.0.coverage, *in_place.corpus.coverage(), "ring {ring}");
            assert_eq!(out.0.corpus_size, in_place.corpus.len(), "ring {ring}");
            if side == 1 {
                traced = Some(out.1);
            }
        }
    }
    // A third shard, by value and traced, files every exec eagerly.
    let mut oracle = Shard::new(&lowered, &config(traced_ring));
    oracle.scratch.state.trace_mut().set_enabled(true);
    let mut eager = Eager {
        store: TraceStore::new(traced_ring),
        cfg: cfg_successors(&kernel),
        spec_fp: SpecCache::fingerprint(db.files()),
    };
    for _ in 0..EXECS {
        oracle.step_by_value(&kernel, &mut unmeasured, Some(&mut eager));
    }
    oracle.assert_agrees(&in_place, EXECS);
    let stores = traced.expect("a traced repetition ran");
    assert_eq!(stores.len(), 1);
    assert!(
        stores[0].to_bytes() == eager.store.to_bytes(),
        "the recorder's store differs from the eager oracle's"
    );

    let per_exec = |(ns, cost): (u128, u64)| (ns as f64 / EXECS as f64, cost as f64 / EXECS as f64);
    let (untraced, traced) = (per_exec(runs[0]), per_exec(runs[1]));
    println!("\nthe campaign itself (one shard, one epoch; fastest of {REPS}, set-up and sealing included):");
    println!("untraced {:>7.0} {:>8.2}", untraced.0, untraced.1);
    println!("ring {traced_ring:<3} {:>7.0} {:>8.2}", traced.0, traced.1);
    println!(
        "capture  {:>7.0} {:>8.2}   ({} ring and {} pinned traces, equal to the eager oracle's)",
        traced.0 - untraced.0,
        traced.1 - untraced.1,
        stores[0].ring().count(),
        stores[0].pinned_len()
    );
}
