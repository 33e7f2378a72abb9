//! Where a run's time and allocator events go, stage by stage, as the
//! library's stage registry (`kgpt_syzlang::stage`) records them in the
//! loops that run. This driver attaches a sink, runs the benchmark's
//! shapes and prints their rows — runs, and ns and allocator events a
//! run, each row inclusive of the spans nested in it: the campaign of
//! `deepchain_durable` (a ring of 32, a checkpoint at every boundary),
//! then `recover_replay`'s read side over what it returned; a round of `specgen_flagship`;
//! `fabric_chan`'s coordinator and worker over channels; last the AST
//! walk against the lowered IR on dm, spans opened here around both.
//! `cargo run --release --example stages` prints a record for
//! EXPERIMENTS.md, never a gate: the referees are `benchmark/`'s
//! workloads and `tests/{alloc_count,trace_alloc}.rs`.

use kernelgpt::core::KernelGpt;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, Transport, WorkerOpts,
};
use kernelgpt::fuzzer::{
    ast_execute_with, cfg_successors, execute_with, minimize_program, replay_trace, AstGenerator,
    AstScratch, CampaignConfig, ExecScratch, Generator, ShardedCampaign, TraceStore,
};
use kernelgpt::llm::{ModelKind, OracleModel};
use kernelgpt::syzlang::stage::{self, Stage};
use kernelgpt::syzlang::SpecCache;
use kernelgpt::vkernel::VKernel;
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
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite = kc.ground_truth_suite();
    let kernel = VKernel::boot(deepchain::suite());
    let (db, lowered) = SpecCache::global().get_or_build_lowered(&suite, kc.consts());
    let spec_fp = SpecCache::fingerprint(db.files());
    let config = |trace_ring| CampaignConfig {
        execs: 50_000,
        seed: 7,
        max_prog_len: 12,
        hub_epoch: 128,
        trace_ring,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("kgpt-stages-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    stage::attach(Some(events));
    let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), config(32));
    let campaign = campaign.with_shards(8).with_threads(1);
    let (result, stores) = campaign.with_checkpoint(dir.join("c.ckpt")).run_traced();
    show("deep-chain, durable: 8 shards, ring 32");
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
        assert!(Coordinator::new(config(0), opts).run(&mut accept).is_ok());
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
