//! CI's determinism harness: runs every campaign route once and
//! reports what only it can check — result counts and the
//! `*_invariant` / `*_identical` flags — as a [`Report`].
//!
//! The report is a pure function of `--execs`: no clock is read, so
//! two runs anywhere write the same bytes, and the gate is
//! `--check BENCH_baseline.json` (byte equality with the committed
//! file plus the rule table of [`kgpt_bench::report`]). Throughput,
//! overhead ratios and latencies live in the frozen `benchmark/`
//! package; the AST-walk vs lowered timing pairs in
//! `benches/fuzzing.rs`. Every flag is `==` on whole
//! [`CampaignResult`]s; EXPERIMENTS.md has a section per report
//! section, and each `*_section` function below says what it runs.
//!
//! Usage: `cargo run --release -p kgpt-bench --bin fuzz_bench --
//! [--execs N] [--out PATH] [--check BASELINE] [--experiments]`
//!
//! `--experiments` prints the EXPERIMENTS.md `BENCH:BEGIN/END` block
//! instead of writing the file. The exit code is non-zero when a rule
//! fails or, with `--check`, when the report differs from the
//! baseline; a false flag is a finding, never a panic.

use kgpt_bench::report::Report;
use kgpt_core::KernelGpt;
use kgpt_csrc::blueprint::Blueprint;
use kgpt_csrc::{deepchain, KernelCorpus};
use kgpt_extractor::find_handlers;
use kgpt_fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, DeltaPayload, HealthOpts, Message,
    ServiceOpts, TenantQuota, TenantService, TenantSpec, Transport, WorkerOpts,
};
use kgpt_fuzzer::fabric::diff_boundary;
use kgpt_fuzzer::reference::{ast_execute, AstGenerator};
use kgpt_fuzzer::{
    cfg_successors, execute_with, reference_run, replay_trace, CampaignConfig, CampaignMerge,
    CampaignResult, CampaignSnapshot, ExecScratch, FaultPlan, Generator, LeaseRunner, Program,
    ShardSnapshot, ShardedCampaign,
};
use kgpt_llm::{ModelKind, OracleModel};
use kgpt_syzlang::lowered::LType;
use kgpt_syzlang::{LoweredDb, SpecCache, SpecFile};
use kgpt_vkernel::VKernel;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

const SHARDS: u32 = 8;
const EPOCH: u64 = 128;
const TOP_K: usize = 4;
const DC_WORKLOAD: &str = "deep-chain exchange-on campaign";

/// A booted kernel and the ground-truth suite describing it.
struct Suite {
    kc: KernelCorpus,
    files: Vec<SpecFile>,
    kernel: VKernel,
}

impl Suite {
    fn boot(blueprints: Vec<Blueprint>) -> Suite {
        let kc = KernelCorpus::from_blueprints(blueprints.clone());
        let files = kc.blueprints().iter().map(Blueprint::ground_truth_spec);
        Suite {
            files: files.collect(),
            kc,
            kernel: VKernel::boot(blueprints),
        }
    }

    fn campaign(&self, cfg: &CampaignConfig, threads: usize) -> ShardedCampaign<'_> {
        ShardedCampaign::new(&self.kernel, &self.files, self.kc.consts(), cfg.clone())
            .with_shards(SHARDS)
            .with_threads(threads)
    }
}

/// The deep-chain suite, its exchange-on config, and that campaign's
/// single-process result — what every later route must reproduce.
struct DeepChain {
    suite: Suite,
    lowered: Arc<LoweredDb>,
    spec_fp: u64,
    cfg: CampaignConfig,
    on: CampaignResult,
}

impl DeepChain {
    fn scratch(&self) -> ExecScratch {
        ExecScratch::from_lowered(Arc::clone(&self.lowered))
    }

    /// Accept callback spawning one fabric worker per connection.
    fn workers<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) -> impl FnMut() -> Option<Box<dyn Transport>> + use<'scope, 'env> {
        move || {
            let (service_end, worker_end) = ChannelTransport::pair();
            scope.spawn(move || {
                run_worker(Box::new(worker_end), WorkerOpts::default(), |fp| {
                    (fp == self.spec_fp).then_some((&self.suite.kernel, Arc::clone(&self.lowered)))
                })
                .expect("fabric worker");
            });
            Some(Box::new(service_end))
        }
    }
}

/// One ablation side under `section`.
fn side(report: &mut Report, section: &str, r: &CampaignResult) {
    report.section(section);
    report.count("blocks", r.blocks());
    report.count("unique_crashes", r.unique_crashes());
    report.count("corpus_size", r.corpus_size);
    report.ratio("coverage_per_exec", r.blocks() as f64 / r.execs as f64, 8);
}

fn main() -> ExitCode {
    let mut execs: u64 = 100_000;
    let mut out = String::from("BENCH_fuzzing.json");
    let mut check: Option<String> = None;
    let mut experiments = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--execs" => {
                execs = args.next().and_then(|v| v.parse().ok()).expect("--execs N");
            }
            "--out" => out = args.next().expect("--out PATH"),
            "--check" => check = Some(args.next().expect("--check BASELINE")),
            "--experiments" => experiments = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let mut report = Report::default();
    report.label("bench", "fuzzing");
    report.label("workload", "dm ground-truth suite");
    report.count("execs", execs);
    report.count("shards", SHARDS);
    let dm = Suite::boot(vec![kgpt_csrc::flagship::dm()]);
    dm_sections(&mut report, &dm, execs);
    let dc = deep_chain_sections(&mut report, execs);
    generation_section(&mut report);
    lowering_section(&mut report, &dm, &dc.suite);
    durability_section(&mut report, &dc);
    fabric_section(&mut report, &dc);
    tenancy_section(&mut report, &dc);
    trace_section(&mut report, &dc);

    if experiments {
        print!("{}", report.experiments_block());
    } else {
        std::fs::write(&out, report.render()).expect("write bench json");
        println!("wrote {out}");
    }
    let findings = match &check {
        None => report.violations(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(baseline) => report.check(&baseline),
            Err(e) => vec![format!("cannot read {path}: {e}")],
        },
    };
    for f in &findings {
        eprintln!("FAIL {f}");
    }
    if !findings.is_empty() {
        return ExitCode::FAILURE;
    }
    if let Some(path) = &check {
        println!("check: byte-identical to {path}, every rule holds");
    }
    ExitCode::SUCCESS
}

/// Top level + `hub`: the dm ground-truth campaign at 1 vs 8 threads
/// (`merge_invariant`) and with seed exchange off vs on
/// (coverage-per-exec on >= off is a rule).
fn dm_sections(report: &mut Report, dm: &Suite, execs: u64) {
    let cfg = CampaignConfig {
        execs,
        seed: 1,
        ..CampaignConfig::default()
    };
    let hub_cfg = |execs: u64, hub_epoch: u64| CampaignConfig {
        execs,
        hub_epoch,
        hub_top_k: TOP_K,
        ..cfg.clone()
    };
    let off = dm.campaign(&cfg, 1).run();
    report.flag("merge_invariant", off == dm.campaign(&cfg, 8).run());
    report.count("blocks", off.blocks());
    report.count("unique_crashes", off.unique_crashes());

    let on = dm.campaign(&hub_cfg(execs, EPOCH), 1).run();
    let on_at_4 = dm.campaign(&hub_cfg(execs, EPOCH), 4).run();
    report.section("hub");
    report.count("epoch", EPOCH);
    report.count("top_k", TOP_K);
    report.flag("thread_invariant", on == on_at_4);
    side(report, "hub.off", &off);
    side(report, "hub.on", &on);
    // Convergence sample at a fifth of the budget: the dm coverage
    // surface saturates quickly, so the hub's benefit shows as an
    // *earlier* corpus spread, not as a larger final union.
    let early_execs = (execs / 5).max(8);
    let early_off = dm.campaign(&hub_cfg(early_execs, 0), 1).run();
    let early_on = dm.campaign(&hub_cfg(early_execs, EPOCH), 1).run();
    report.section("hub.early");
    report.count("execs", early_execs);
    report.count("off_blocks", early_off.blocks());
    report.count("off_corpus_size", early_off.corpus_size);
    report.count("on_blocks", early_on.blocks());
    report.count("on_corpus_size", early_on.corpus_size);
}

/// `workloads.deep_chain` + `triage`: the same ablation on the
/// four-driver suite whose coverage sits behind 3-4-call producer
/// chains; every minimized reproducer must still trigger its signature
/// under lowered dispatch (mean shrink >= 2 is a rule).
fn deep_chain_sections(report: &mut Report, execs: u64) -> DeepChain {
    let suite = Suite::boot(deepchain::suite());
    let cfg = CampaignConfig {
        execs,
        seed: 1,
        max_prog_len: 12,
        hub_epoch: EPOCH,
        hub_top_k: TOP_K,
        ..CampaignConfig::default()
    };
    let off_cfg = CampaignConfig {
        hub_epoch: 0,
        ..cfg.clone()
    };
    let off = suite.campaign(&off_cfg, 1).run();
    let on = suite.campaign(&cfg, 1).run();
    // Thread invariance covers the whole result, the triage report
    // (reproducers, minimization, first-seen stamps) included.
    let invariant = on == suite.campaign(&cfg, 4).run();
    report.section("workloads.deep_chain");
    report.label("suite", "deep-chain ground-truth (4 drivers)");
    report.count("execs", execs);
    report.count("shards", SHARDS);
    report.count("max_prog_len", cfg.max_prog_len);
    report.count("epoch", EPOCH);
    report.count("top_k", TOP_K);
    report.flag("thread_invariant", invariant);
    side(report, "workloads.deep_chain.off", &off);
    side(report, "workloads.deep_chain.on", &on);

    let (_, lowered) = SpecCache::global().get_or_build_lowered(&suite.files, suite.kc.consts());
    let spec_fp = SpecCache::fingerprint(&suite.files);
    let dc = DeepChain {
        suite,
        lowered,
        spec_fp,
        cfg,
        on,
    };
    let mut scratch = dc.scratch();
    let mut reproducible = true;
    for e in dc.on.triage.entries() {
        execute_with(&dc.suite.kernel, &e.minimized, &mut scratch);
        if scratch.crash().map(|c| c.signature) != Some(e.signature) {
            reproducible = false;
            eprintln!("minimized reproducer lost its signature: {}", e.title);
        }
    }
    let triage = &dc.on.triage;
    let (raw_calls, min_calls) = triage.call_totals();
    report.section("triage");
    report.label("workload", DC_WORKLOAD);
    report.count("signatures", triage.len());
    report.flag("thread_invariant", invariant);
    report.flag("reproducible", reproducible);
    report.ratio("mean_shrink_ratio", triage.mean_shrink_ratio(), 4);
    report.count("raw_calls", raw_calls);
    report.count("minimized_calls", min_calls);
    report.count("minimize_execs", triage.total_minimize_execs());
    dc
}

/// `generation`: parallel `generate_all` is thread-count invariant,
/// a model that has already served a pass answers the next one the
/// same, and how much of the code a pass shows its model it has to
/// parse (Algorithm 1 re-sends what it gathered at every stage).
fn generation_section(report: &mut Report) {
    let kc = KernelCorpus::flagship_only();
    let handlers = find_handlers(kc.corpus());
    let fresh = || OracleModel::new(ModelKind::Gpt4, 0);
    let generate = |model: &OracleModel, threads: usize| {
        KernelGpt::new(model, kc.corpus())
            .with_threads(threads)
            .generate_all(&handlers, kc.consts())
    };
    let model = fresh();
    let reference = generate(&model, 1);
    let (usage, reading) = (model.meter().snapshot(), model.reading());
    report.section("generation");
    report.label("workload", "flagship corpus, oracle gpt-4, seed 0");
    report.count("handlers", handlers.len());
    report.count("valid_count", reference.valid_count());
    report.flag("bit_identical", reference == generate(&fresh(), 8));
    report.count("requests", usage.requests);
    report.count("prompt_tokens", usage.input_tokens);
    report.count("syscalls_described", reference.total_syscalls());
    report.count("source_bytes_shown", reading.shown_bytes);
    report.count("source_bytes_parsed", reading.parsed_bytes);
    report.ratio(
        "reread_ratio",
        reading.shown_bytes as f64 / reading.parsed_bytes as f64,
        2,
    );
    report.flag("warm_model_identical", reference == generate(&model, 1));
}

/// The 2 000-step stream (one fresh program, three mutants, repeat)
/// through the lowered generator and the AST walk in lock-step, the
/// first 300 programs executed both ways: `(everything equal, pointees
/// born packed, pointees built as trees)` over the stream's programs.
fn lowered_stream(suite: &Suite, max_len: usize) -> (bool, usize, usize) {
    let consts = suite.kc.consts();
    let (db, lowered) = SpecCache::global().get_or_build_lowered(&suite.files, consts);
    let mut lg = Generator::from_lowered(Arc::clone(&lowered), 1234);
    let mut ag = AstGenerator::new(&db, consts, 1234);
    let mut scratch = ExecScratch::from_lowered(lowered);
    let mut lp = Program::default();
    let mut ap = Program::default();
    let (mut packed, mut trees) = (0, 0);
    for i in 0..2000u32 {
        let (l, a) = if i % 4 == 0 {
            (lg.gen_program(max_len), ag.gen_program(max_len))
        } else {
            (lg.mutate(&lp, max_len), ag.mutate(&ap, max_len))
        };
        let forms = l.pointee_forms();
        (packed, trees) = (packed + forms.0, trees + forms.1);
        let mut identical = l == a;
        if identical && i < 300 {
            let ast = ast_execute(&suite.kernel, &db, consts, &l);
            execute_with(&suite.kernel, &l, &mut scratch);
            identical = scratch.rets == ast.rets
                && *scratch.coverage() == ast.coverage
                && scratch.crash() == ast.crash.as_ref();
        }
        if !identical {
            eprintln!("lowered path diverged from the AST walk at step {i}");
            return (false, packed, trees);
        }
        (lp, ap) = (l, a);
    }
    (true, packed, trees)
}

/// `lowering`: program streams, mutation chains and execution
/// outcomes of the lowered-IR path equal the AST walk's, and what
/// share of the pointee traffic is closed by construction — born
/// packed — on the two smoke suites and over the 48 flagships.
fn lowering_section(report: &mut Report, dm: &Suite, dc: &Suite) {
    let (dm_identical, dm_packed, dm_trees) = lowered_stream(dm, 8);
    let (dc_identical, dc_packed, dc_trees) = lowered_stream(dc, 12);
    let flagships = KernelCorpus::flagship_only();
    let files: Vec<SpecFile> = flagships
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    let (_, lowered) = SpecCache::global().get_or_build_lowered(&files, flagships.consts());
    let pointees: Vec<_> = (0..lowered.syscall_count())
        .flat_map(|i| &lowered.syscall(i).params)
        .filter_map(|p| match lowered.ltype(p.ty) {
            LType::Ptr { elem, .. } => Some(elem),
            _ => None,
        })
        .collect();
    let plans_compiled = pointees.iter().filter(|e| lowered.plan(**e).is_some());
    report.section("lowering");
    report.label("workload", "dm ground-truth suite");
    report.flag("bit_identical", dm_identical && dc_identical);
    report.section("lowering.dm");
    report.count("pointees_packed", dm_packed);
    report.count("pointees_tree", dm_trees);
    report.section("lowering.deep_chain");
    report.count("pointees_packed", dc_packed);
    report.count("pointees_tree", dc_trees);
    report.section("lowering.flagship");
    report.count("plans_compiled", plans_compiled.count());
    report.count("pointer_params", pointees.len());
}

/// `durability`: checkpoint/resume under a fault plan + the exec fuel
/// watchdog.
fn durability_section(report: &mut Report, dc: &DeepChain) {
    let path = std::env::temp_dir().join(format!("kgpt-bench-{}.ckpt", std::process::id()));
    let journal = path.with_extension("ckpt.journal");
    let len = |file: &Path| std::fs::metadata(file).map_or(0, |m| m.len());
    // Every durable boundary is a base (the journal starts over) or a
    // record appended to it; a snapshot at every boundary would have
    // written what the two files load as, re-encoded, each time.
    #[derive(Default)]
    struct Written {
        journal_len: u64,
        records: u64,
        record_bytes: u64,
        bases: u64,
        base_bytes: u64,
        last_base: u64,
        snapshot_bytes: u64,
    }
    let written = Mutex::new(Written::default());
    let checkpointed = dc
        .suite
        .campaign(&dc.cfg, 1)
        .with_checkpoint(&path)
        .with_on_checkpoint(|_| {
            let mut w = written.lock().unwrap_or_else(PoisonError::into_inner);
            match len(&journal) {
                0 => {
                    w.bases += 1;
                    w.last_base = len(&path);
                    w.base_bytes += w.last_base;
                    w.journal_len = 0;
                }
                now => {
                    w.records += 1;
                    w.record_bytes += now - w.journal_len;
                    w.journal_len = now;
                }
            }
            w.snapshot_bytes +=
                CampaignSnapshot::load(&path).map_or(0, |s| s.to_bytes().len()) as u64;
        })
        .run();
    let written = written.into_inner().unwrap_or_else(PoisonError::into_inner);
    // What the last boundary holds of the flight recorder: the ring
    // traces the final epoch keeps, and every pinned crash trace (a
    // checkpoint that does not load counts none, and says so).
    let (ring_traces, pinned_traces) = CampaignSnapshot::load(&path)
        .map_err(|e| eprintln!("the last boundary's checkpoint does not load: {e}"))
        .map_or((0, 0), |snapshot| {
            snapshot.trace_stores().fold((0, 0), |(ring, pinned), s| {
                (ring + s.ring().count(), pinned + s.pinned_len())
            })
        });
    // Interrupt after the third surviving boundary under a
    // seed-derived fault plan (write retries, torn writes, bitrot and
    // a shard abort stacked on the first boundary; later boundaries
    // stay clean so recovery always has an intact generation — the
    // second boundary's base and the third's record), resume from
    // disk, and demand the uninterrupted result.
    let _halted = dc
        .suite
        .campaign(&dc.cfg, 1)
        .with_checkpoint(&path)
        .with_faults(FaultPlan::from_seed(0xC0FFEE, 1, 8))
        .with_halt_after(3)
        .run();
    let replayed_records = CampaignSnapshot::load_counting(&path).map_or(0, |(_, n)| n);
    let resumed = dc.suite.campaign(&dc.cfg, 1).resume(&path);
    if let Err(e) = &resumed {
        eprintln!("resume from checkpoint failed: {e}");
    }
    for file in [&path, &journal, &path.with_extension("ckpt.prev")] {
        let _ = std::fs::remove_file(file);
    }
    // A starved budget must terminate programs gracefully and count
    // exhaustions as a pure function of the config.
    const FUEL_BUDGET: u64 = 64;
    let starved_cfg = CampaignConfig {
        exec_fuel: FUEL_BUDGET,
        ..dc.cfg.clone()
    };
    let starved = dc.suite.campaign(&starved_cfg, 1).run();
    let starved_at_4 = dc.suite.campaign(&starved_cfg, 4).run();
    let resume_identical = checkpointed == dc.on && resumed.is_ok_and(|r| r == dc.on);
    report.section("durability");
    report.label("workload", DC_WORKLOAD);
    report.flag("resume_identical", resume_identical);
    report.count("checkpoint_bytes", written.last_base);
    report.count("base_rewrites", written.bases);
    report.count("journal_records", written.records);
    report.count("journal_bytes", written.record_bytes);
    report.count("replayed_records", replayed_records);
    let wrote = written.base_bytes + written.record_bytes;
    report.ratio(
        "bytes_written_ratio",
        written.snapshot_bytes as f64 / wrote.max(1) as f64,
        3,
    );
    report.count("checkpoint_ring_traces", ring_traces);
    report.count("checkpoint_pinned_traces", pinned_traces);
    report.count("fuel_budget", FUEL_BUDGET);
    report.count("fuel_exhausted", starved.fuel_exhausted);
    let deterministic = starved.fuel_exhausted > 0 && starved == starved_at_4;
    report.flag("fuel_deterministic", deterministic);
}

/// Every boundary of the campaign framed both ways over the oracle
/// route — incremental against the post-ack snapshots, and full — and
/// once more the way `run_worker` frames it, from a second runner's
/// live state: `(merged result, incremental bytes, full bytes, whether
/// every live frame was the oracle's incremental framing byte for
/// byte)`. The first boundary has no acked baseline, so it is full on
/// every side.
fn frame_costs(dc: &DeepChain) -> (CampaignResult, u64, u64, bool) {
    let frame = |boundary: u64, deltas: DeltaPayload| {
        let message = Message::Delta {
            tenant: 0,
            lease_id: 1,
            boundary,
            deltas,
        };
        message.to_frame()
    };
    let mut merge = CampaignMerge::new(dc.cfg.clone(), SHARDS);
    let mut runner = LeaseRunner::fresh(&dc.lowered, &dc.cfg, SHARDS, 0, SHARDS);
    let mut live = LeaseRunner::fresh(&dc.lowered, &dc.cfg, SHARDS, 0, SHARDS);
    let mut baseline: Option<Vec<ShardSnapshot>> = None;
    let (mut incremental, mut full) = (0u64, 0u64);
    let (mut live_frame, mut live_identical) = (Vec::new(), true);
    loop {
        let deltas = runner.run_epoch(&dc.suite.kernel);
        let boundary = merge.epochs_done() + 1;
        let full_frame = frame(boundary, DeltaPayload::Full(deltas.clone()));
        let patches = baseline
            .as_deref()
            .and_then(|base| diff_boundary(base, deltas.clone()).ok());
        let shipped = patches.map_or_else(
            || full_frame.clone(),
            |p| frame(boundary, DeltaPayload::Incremental(p)),
        );
        full += full_frame.len() as u64;
        incremental += shipped.len() as u64;
        live.advance(&dc.suite.kernel);
        Message::write_delta_frame(&mut live_frame, 0, 1, boundary, |w| {
            live.write_boundary(&dc.suite.kernel, w);
        });
        live_identical &= live_frame == shipped;
        let outcome = merge.apply_boundary(deltas).expect("in-process boundary");
        if outcome.finished {
            let result = merge.finish().expect("in-process merge finished");
            return (result, incremental, full, live_identical);
        }
        runner.import(&outcome.seeds);
        baseline = Some(runner.snapshots());
        live.acked(&outcome.seeds);
    }
}

/// `fabric`: the deep-chain campaign through the coordinator/worker
/// protocol stack over in-memory channel transports.
fn fabric_section(report: &mut Report, dc: &DeepChain) {
    let points = [1u32, 2, 4].map(|workers| {
        let opts = CoordinatorOpts {
            shards: SHARDS,
            workers,
            lease_timeout: Duration::from_secs(60),
            spec_fp: dc.spec_fp,
        };
        let (result, stats) = std::thread::scope(|scope| {
            Coordinator::new(dc.cfg.clone(), opts)
                .run(&mut dc.workers(scope))
                .expect("fabric coordinator")
        });
        (workers, result, stats)
    });
    let (inline, incremental, full, live_identical) = frame_costs(dc);
    // More workers split the same per-shard deltas over more frames,
    // changing only the per-frame header overhead: the one-lease
    // framing is the canonical wire cost.
    let boundaries = points[0].2.boundaries;
    let per_epoch = incremental / boundaries.max(1);
    let full_per_epoch = full / boundaries.max(1);
    let invariant = inline == dc.on && points.iter().all(|(_, result, _)| *result == dc.on);
    let expired: u64 = points.iter().map(|(_, _, s)| s.expired_leases).sum();
    report.section("fabric");
    report.label("workload", DC_WORKLOAD);
    report.count("execs", dc.cfg.execs);
    report.count("shards", SHARDS);
    report.count("epoch", EPOCH);
    report.flag("worker_invariant", invariant);
    report.flag("live_frames_identical", live_identical);
    report.count("boundaries", boundaries);
    report.count("delta_bytes_per_epoch", per_epoch);
    report.count("delta_full_bytes_per_epoch", full_per_epoch);
    let shrink = full_per_epoch as f64 / per_epoch.max(1) as f64;
    report.ratio("delta_shrink", shrink, 3);
    report.count("expired_leases", expired);
    for (i, (workers, _, stats)) in points.iter().enumerate() {
        report.section(&format!("fabric.points.{i}"));
        report.count("workers", *workers);
        report.count("delta_bytes", stats.delta_bytes);
    }
}

/// `tenancy`: three deep-chain tenants (seeds 1..3) share one
/// `TenantService` and one worker pool at two slots each; tenant 1
/// declares an exec quota of half the campaign and must be cut
/// gracefully at a boundary, bit-identical to an unlimited run halted
/// there.
fn tenancy_section(report: &mut Report, dc: &DeepChain) {
    let quota = dc.cfg.execs / 2;
    let quota_of = |tenant: usize| (tenant == 1).then_some(quota);
    let configs = [1u64, 2, 3].map(|seed| CampaignConfig {
        seed,
        ..dc.cfg.clone()
    });
    let (tenants, stats) = std::thread::scope(|scope| {
        let mut service = TenantService::new(ServiceOpts {
            lease_timeout: Duration::from_secs(60),
            health: HealthOpts::default(),
        });
        for (i, config) in configs.iter().enumerate() {
            service
                .admit(TenantSpec {
                    name: format!("tenant-{i}"),
                    config: config.clone(),
                    shards: SHARDS,
                    workers: 2,
                    spec_fp: dc.spec_fp,
                    quota: quota_of(i).map_or_else(TenantQuota::unlimited, TenantQuota::execs),
                })
                .expect("admit");
        }
        service.run(&mut dc.workers(scope)).expect("tenant service")
    });
    let mut invariant = true;
    for (i, (config, tenant)) in configs.iter().zip(&tenants).enumerate() {
        let reference = reference_run(&dc.suite.kernel, &dc.lowered, config, SHARDS, quota_of(i));
        if reference.result != tenant.result
            || reference.boundaries != tenant.boundaries
            || reference.budget_exhausted != tenant.budget_exhausted
        {
            invariant = false;
            eprintln!("tenant {i} diverged from its single-process reference");
        }
    }
    let starved = &tenants[1];
    report.section("tenancy");
    report.label("workload", "deep-chain exchange-on campaign, three tenants");
    report.count("execs", dc.cfg.execs);
    report.count("shards", SHARDS);
    report.count("workers_per_tenant", 2u64);
    report.flag("tenant_invariant", invariant);
    report.count("starved_quota", quota);
    report.count("starved_execs", starved.usage.execs);
    report.count("starved_boundaries", starved.boundaries);
    report.flag("budget_exhausted", starved.budget_exhausted);
    report.count("grants", stats.grants);
    for (i, tenant) in tenants.iter().enumerate() {
        report.section(&format!("tenancy.tenant_{i}"));
        report.count("execs", tenant.result.execs);
        report.count("blocks", tenant.result.blocks());
        report.count("unique_crashes", tenant.result.unique_crashes());
        report.count("corpus", tenant.result.corpus_size);
        report.count("boundaries", tenant.boundaries);
        report.count("grants", stats.grants_per_tenant[i]);
    }
}

/// `trace`: the flight recorder. Tracing must not change the result;
/// every retained trace must replay bit-identically from its header;
/// and every crash signature the traced campaign found must have a
/// pinned trace replaying to the same signature.
fn trace_section(report: &mut Report, dc: &DeepChain) {
    let untraced_cfg = CampaignConfig {
        trace_ring: 0,
        ..dc.cfg.clone()
    };
    let untraced = dc.suite.campaign(&untraced_cfg, 1).run();
    let (traced, stores) = dc.suite.campaign(&dc.cfg, 1).run_traced();
    let mut identical = traced == untraced;
    if !identical {
        eprintln!("tracing changed the campaign result");
    }
    let tables = cfg_successors(&dc.suite.kernel);
    let mut scratch = dc.scratch();
    let mut replay =
        |trace| replay_trace(&dc.suite.kernel, &mut scratch, &tables, trace, dc.spec_fp);
    let (mut retained, mut pinned, mut replayed, mut blocks) = (0u64, 0u64, 0u64, 0u64);
    let (mut stream_bytes, mut stream_bits) = (0u64, 0u64);
    for store in &stores {
        retained += store.retained() as u64;
        pinned += store.pinned_len() as u64;
        stream_bytes += store.stream_bytes();
        stream_bits += store.stream_bits();
        for trace in store.iter() {
            match replay(trace) {
                Ok(o) if o.identical => {
                    replayed += 1;
                    blocks += o.blocks;
                }
                other => {
                    identical = false;
                    let (shard, exec) = (trace.shard, trace.exec);
                    eprintln!(
                        "trace replay diverged: shard {shard} exec {exec}: {:?}",
                        other.err()
                    );
                }
            }
        }
    }
    for e in traced.triage.entries() {
        let pinned_trace = stores.iter().find_map(|s| s.pinned_for(&e.signature));
        let replays_to_sig = pinned_trace.is_some_and(|trace| {
            replay(trace).is_ok_and(|o| o.identical && o.live_crash == Some(e.signature))
        });
        if !replays_to_sig {
            identical = false;
            eprintln!("no pinned trace replays to crash signature: {}", e.title);
        }
    }
    let execs = dc.cfg.execs;
    report.section("trace");
    report.label("workload", DC_WORKLOAD);
    report.count("execs", execs);
    report.count("shards", SHARDS);
    report.count("ring", dc.cfg.trace_ring);
    report.count("retained", retained);
    report.count("pinned", pinned);
    report.count("stream_bytes", stream_bytes);
    report.ratio("bits_per_exec", stream_bytes as f64 * 8.0 / execs as f64, 4);
    let per_traced = stream_bits as f64 / retained.max(1) as f64;
    report.ratio("stream_bits_per_exec", per_traced, 4);
    report.ratio(
        "bits_per_block",
        stream_bits as f64 / blocks.max(1) as f64,
        4,
    );
    report.flag("replay_identical", identical);
    report.count("crash_sigs", traced.triage.len());
    report.count("traces_replayed", replayed);
}
