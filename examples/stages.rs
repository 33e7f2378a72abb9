//! Where a run's time and allocator events go, stage by stage, as the
//! library's stage registry (`kgpt_syzlang::stage`) records them in the
//! loops that run. This driver attaches a sink, runs the benchmark's
//! shapes and prints their rows — runs, and ns and allocator events a
//! run, each row inclusive of the spans nested in it: the campaign of
//! `deepchain_durable` (a ring of 32, a checkpoint at every boundary),
//! then `recover_replay`'s read side over what it left — 24 resumes of
//! its last checkpoint (`load` is the file read, decoded and its
//! journal replayed), then replay and ddmin; a round of `specgen_flagship`;
//! `fabric_chan`'s coordinator and worker over channels; last the AST
//! walk against the lowered IR on dm, spans opened here around both.
//! `cargo run --release --example stages` prints a record for
//! EXPERIMENTS.md, never a gate: the referees are `benchmark/`'s
//! workloads and `tests/{alloc_count,trace_alloc}.rs`.
//!
//! `cargo run --release --example stages -- sample <shape>` answers
//! "which function" instead: it runs one benchmark shape — `dm_seq`
//! (2 000 sequential dm campaigns of 250 execs) or `deepchain_sharded`
//! (150 deep-chain campaigns of 50 000 execs, 8 shards on one thread,
//! epochs of 128) — under `kgpt_bench::sampler` and prints one row per
//! function, self % and % inclusive over the inline chain, after the
//! sampler's own overhead: the shape's best of two runs without it
//! against its best of two with it, in process CPU time.

use kernelgpt::core::KernelGpt;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, Transport, WorkerOpts,
};
use kernelgpt::fuzzer::{
    ast_execute_with, cfg_successors, execute_with, minimize_program, replay_trace, AstGenerator,
    AstScratch, Campaign, CampaignConfig, ExecScratch, Generator, ShardedCampaign, TraceStore,
};
use kernelgpt::llm::{ModelKind, OracleModel};
use kernelgpt::syzlang::stage::{self, Stage};
use kernelgpt::syzlang::SpecCache;
use kernelgpt::vkernel::VKernel;
use kgpt_bench::sampler::{self, Sampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Counts the calling thread's allocation events (alloc + realloc).
struct CountingAlloc;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn events() -> u64 {
    EVENTS.with(Cell::get)
}

// SAFETY: delegates everything to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = EVENTS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = EVENTS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Print the sink's rows under `title` and empty it.
fn show(title: &str) {
    println!("\n{title}\n  stage                   runs      ns/run    events");
    for (stage, row) in stage::take().iter() {
        let per = |x: u64| x as f64 / row.runs as f64;
        let (name, runs, ns, ev) = (stage.name(), row.runs, per(row.ns), per(row.events));
        println!("  {name:<18} {runs:>9} {ns:>11.0} {ev:>9.2}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => stage_tables(),
        ["sample", shape] => sample(shape),
        _ => {
            eprintln!("usage: stages [sample dm_seq|deepchain_sharded]");
            std::process::exit(2);
        }
    }
}

/// The benchmark's deep-chain campaign: 50 000 execs of programs up to
/// 12 calls long, epochs of 128, a flight-recorder ring of `trace_ring`.
fn deepchain_config(seed: u64, trace_ring: usize) -> CampaignConfig {
    CampaignConfig {
        execs: 50_000,
        seed,
        max_prog_len: 12,
        hub_epoch: 128,
        trace_ring,
        ..CampaignConfig::default()
    }
}

/// Run benchmark shape `name` under the sampler and print where its
/// samples land.
fn sample(name: &str) {
    let run: Box<dyn Fn()> = match name {
        "dm_seq" => {
            let kc = KernelCorpus::from_blueprints(vec![flagship::dm()]);
            let suite = kc.ground_truth_suite();
            let kernel = VKernel::boot(vec![flagship::dm()]);
            Box::new(move || {
                for seed in 0..2_000 {
                    let config = CampaignConfig {
                        execs: 250,
                        seed,
                        ..CampaignConfig::default()
                    };
                    std::hint::black_box(Campaign::new(&kernel, &suite, kc.consts(), config).run());
                }
            })
        }
        "deepchain_sharded" => {
            let kc = KernelCorpus::from_blueprints(deepchain::suite());
            let suite = kc.ground_truth_suite();
            let kernel = VKernel::boot(deepchain::suite());
            Box::new(move || {
                for seed in 0..150 {
                    let config = deepchain_config(seed, 0);
                    let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), config);
                    std::hint::black_box(campaign.with_shards(8).with_threads(1).run());
                }
            })
        }
        _ => {
            eprintln!("no shape {name:?}: dm_seq or deepchain_sharded");
            std::process::exit(2);
        }
    };
    let timed = |sampled: bool| {
        let sampler = sampled.then(Sampler::start);
        let t = sampler::cpu_time().expect("a CPU clock");
        run();
        let secs = (sampler::cpu_time().expect("a CPU clock") - t).as_secs_f64();
        (secs, sampler.map(|s| s.expect("a sampler").stop()))
    };
    // Without, with, with, without: a drift over the four runs (a
    // warming cache, a neighbour's load) weighs on both sides alike.
    let (bare_a, _) = timed(false);
    let (with_a, _) = timed(true);
    let (with_b, profile) = timed(true);
    let (bare_b, _) = timed(false);
    let profile = profile.expect("sampled");
    let (bare, with) = (bare_a.min(bare_b), with_a.min(with_b));
    let n = profile.samples();
    println!(
        "{name} under the sampler: {n} samples at {} ms of CPU ({} dropped)",
        sampler::PERIOD.as_millis(),
        profile.dropped
    );
    println!(
        "  CPU w/o sampler {bare:.2} s, w/ sampler {with:.2} s: overhead {:+.1} %",
        100.0 * (with / bare - 1.0)
    );
    println!("  {:<60} {:>7} {:>7}", "function", "self %", "incl %");
    let pct = |k: usize| 100.0 * k as f64 / n.max(1) as f64;
    for row in profile.rows().expect("symbolised").iter().take(40) {
        let mut function = row.function.clone();
        if function.len() > 60 {
            function.truncate(function.floor_char_boundary(59));
            function.push('…');
        }
        let (own, incl) = (pct(row.self_samples), pct(row.inclusive_samples));
        println!("  {function:<60} {own:>7.1} {incl:>7.1}");
    }
}

/// The stage tables of every benchmark shape.
fn stage_tables() {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite = kc.ground_truth_suite();
    let kernel = VKernel::boot(deepchain::suite());
    let (db, lowered) = SpecCache::global().get_or_build_lowered(&suite, kc.consts());
    let spec_fp = SpecCache::fingerprint(db.files());
    let dir = std::env::temp_dir().join(format!("kgpt-stages-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    stage::attach(Some(events));
    let campaign = || {
        let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), deepchain_config(7, 32));
        campaign.with_shards(8).with_threads(1)
    };
    let checkpoint = dir.join("c.ckpt");
    let (result, stores) = campaign().with_checkpoint(&checkpoint).run_traced();
    show("deep-chain, durable: 8 shards, ring 32");
    let resuming = campaign();
    for _ in 0..24 {
        let (resumed, _) = resuming
            .resume_traced(&checkpoint)
            .expect("an intact checkpoint");
        assert_eq!(resumed, result, "a resume diverged");
    }
    show("its resumes: 24 of the last checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = cfg_successors(&kernel);
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
    for trace in stores.iter().flat_map(TraceStore::iter) {
        let out = replay_trace(&kernel, &mut scratch, &cfg, trace, spec_fp).expect("sealed");
        assert!(out.identical, "a replay diverged");
    }
    for e in result.triage.entries() {
        minimize_program(&kernel, &mut scratch, &e.raw, e.signature);
    }
    show("its read side: replay and ddmin");
    let flagships = KernelCorpus::flagship_only();
    let handlers = find_handlers(flagships.corpus());
    let model = OracleModel::new(ModelKind::Gpt4, 1);
    let gpt = KernelGpt::new(&model, flagships.corpus()).with_threads(1);
    stage::attach(Some(events));
    for _ in 0..4 {
        gpt.generate_all(&handlers, flagships.consts());
    }
    show("specgen: four passes, 48 handlers");
    stage::attach(Some(events));
    std::thread::scope(|scope| {
        let mut accept = || -> Option<Box<dyn Transport>> {
            let (coord_end, worker_end) = ChannelTransport::pair();
            let (kernel, lowered) = (&kernel, Arc::clone(&lowered));
            scope.spawn(move || {
                let suite = move |fp| (fp == spec_fp).then_some((kernel, lowered));
                run_worker(Box::new(worker_end), WorkerOpts::default(), suite)
            });
            Some(Box::new(coord_end))
        };
        let mut opts = CoordinatorOpts::default();
        (opts.workers, opts.lease_timeout, opts.spec_fp) = (1, Duration::from_secs(60), spec_fp);
        assert!(Coordinator::new(deepchain_config(7, 0), opts).run(&mut accept).is_ok());
    });
    show("fabric: coordinator and worker");
    let dm = KernelCorpus::from_blueprints(vec![flagship::dm()]);
    let dk = VKernel::boot(vec![flagship::dm()]);
    let dm_suite = dm.ground_truth_suite();
    let (db, lowered) = SpecCache::global().get_or_build_lowered(&dm_suite, dm.consts());
    let mut ast = AstGenerator::new(&db, dm.consts(), 42);
    let mut low = Generator::from_lowered(Arc::clone(&lowered), 42);
    let mut sa = AstScratch::new(&db, dm.consts());
    let mut sl = ExecScratch::from_lowered(lowered);
    stage::attach(Some(events));
    for _ in 0..20_000 {
        let p = stage::time(Stage::AstGenerate, || ast.gen_program(8));
        let q = stage::time(Stage::Generate, || low.gen_program(8));
        stage::time(Stage::AstExec, || ast_execute_with(&dk, &p, &mut sa));
        stage::time(Stage::Exec, || execute_with(&dk, &q, &mut sl));
        stage::time(Stage::AstMutate, || ast.mutate(&p, 8));
        stage::time(Stage::Mutate, || low.mutate(&q, 8));
    }
    show("lowering: AST walk vs lowered IR, dm");
    stage::detach();
}
