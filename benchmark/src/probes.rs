//! The probe pass: where a round's time goes, layer by layer.
//!
//! Nothing inside the program is instrumented. The pass (1) runs a
//! few rounds twice at the same sub-seed — plain, then under a `round`
//! span with whatever observer hooks the public API offers — which
//! gives the untraced time per unit of work and `probe.overhead_pct`;
//! (2) collects inputs the workload itself produced (the first
//! [`OWN_INPUTS`] programs of its campaign, their coverage maps, its
//! boundary snapshots, traces and reproducers); and (3) replays those
//! inputs through each layer's public calls, one span per batch.
//! A batch runs [`REPS`] times; the reported time is the median batch.
//!
//! A layer the workload never enters reports 0 for all its metrics.

use crate::calib::{self, Calibrator};
use crate::catalog::PER_LAYER;
use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{
    sub_seed, traced_op, BoundaryHook, DeepchainDurable, DeepchainSharded, DmSeq, FabricChan,
    FuzzEnv, RecoverReplay, RoundOut, SpecgenFlagship, Workload, HUB_EPOCH, HUB_TOP_K, SHARDS,
    WARMUP_ROUND,
};
use crate::{digest, guarded, json::Json, Built, Host, PassOut};
use kgpt_core::KernelGpt;
use kgpt_csrc::blueprint::Blueprint;
use kgpt_csrc::KernelCorpus;
use kgpt_extractor::find_handlers;
use kgpt_fabric::{ChannelTransport, DeltaPayload, FabricStats, Message, TcpTransport, Transport};
use kgpt_fuzzer::fabric::{apply_patches, decode_patches, diff_boundary, encode_patches};
use kgpt_fuzzer::{
    cfg_successors, execute_with, minimize_program, replay_trace, Campaign, CampaignConfig,
    CampaignMerge, CampaignResult, CampaignSnapshot, Corpus, ExecScratch, Generator, LeaseRunner,
    Program, SeedHub, ShardedCampaign, TraceStore,
};
use kgpt_llm::{ChatRequest, ChatResponse, LanguageModel, Usage};
use kgpt_syzlang::validate::validate;
use kgpt_syzlang::{parse, print_file, ConstDb, LoweredDb, SpecCache, SpecDb, SpecFile};
use kgpt_trace::{decode_events, encode_events};
use kgpt_vkernel::{CoverageMap, TraceEvent, VKernel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times each batch probe runs; its metric is the median batch.
const REPS: usize = 5;
/// Programs of the workload's own campaign replayed through the
/// per-program layer probes.
const OWN_INPUTS: u64 = 4096;
/// The corpus cap campaigns run with (crate-private in the fuzzer).
const CORPUS_CAP: usize = 2048;
/// Seconds of rounds run before the first paired round, so the pairs
/// find caches and the allocator as a long-running process has them.
const WARMUP_SECS: f64 = 2.5;
/// Inner repeats of the sub-millisecond batches (triage, trace codec,
/// checkpoint I/O), so a span outlasts the clock's own jitter.
const SMALL_BATCH: u64 = 20;

struct Probe<'a> {
    rec: &'a Recorder,
    values: BTreeMap<&'static str, Option<f64>>,
    attempted: u64,
    failed: u64,
}

impl<'a> Probe<'a> {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, Some(value));
    }

    /// Run `f` [`REPS`] times, each under a `rep` span, so that
    /// [`Probe::ns`] sees one value per repetition.
    fn reps(&self, mut f: impl FnMut()) {
        for _ in 0..REPS {
            self.rec.span("rep", || (f(), 1));
        }
    }

    /// Busy nanoseconds per unit of work of the spans called `span`:
    /// the median over the repetitions that hold them.
    fn ns(&self, span: &str) -> f64 {
        median(&self.rec.ns_per_unit(span))
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().flatten().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How many same-seed round pairs a pass of `seconds` affords.
fn pairs_for(seconds: f64) -> u64 {
    ((seconds / 2.0) as u64).clamp(1, 5)
}

/// Run rounds `0..pairs` twice each — plain, and `hooked` under a
/// `round` span — and check that both produced the same digests. The
/// second run of a seed finds caches and predictors trained by the
/// first, so which goes first alternates. Sets `probe.overhead_pct`;
/// returns the untraced nanoseconds per unit of work of round 0. The
/// layer probes replay that round's own programs, and on `dm_seq` one
/// campaign costs up to four times another, so the attribution is held
/// against that round and not against the median one.
fn paired_rounds(
    p: &mut Probe,
    w: &dyn Workload,
    pairs: u64,
    hooked: impl Fn(u64) -> Result<RoundOut, String>,
) -> f64 {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < WARMUP_SECS.min(pairs as f64) {
        let _ = guarded(|| w.round(WARMUP_ROUND));
    }
    let (mut overheads, mut untraced) = (Vec::new(), Vec::new());
    for idx in 0..pairs {
        let plain = || guarded(|| w.round(idx));
        let probed = || {
            guarded(|| {
                p.rec.span("round", || {
                    let r = hooked(idx);
                    let work = r.as_ref().map_or(0, |r| r.work);
                    (r, work)
                })
            })
        };
        let (plain, probed) = if idx % 2 == 0 {
            let a = plain();
            (a, probed())
        } else {
            let b = probed();
            (plain(), b)
        };
        p.attempted += 1;
        match (plain, probed) {
            (Ok(a), Ok(b)) => {
                if a.ops != b.ops {
                    eprintln!("round {idx}: the probed round's result differs from the plain one");
                    p.failed += 1;
                }
                overheads.push((b.secs / a.secs - 1.0) * 100.0);
                untraced.push(a.secs * 1e9 / a.work.max(1) as f64);
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("round {idx}: {e}");
                p.failed += 1;
            }
        }
    }
    p.set("probe.overhead_pct", median(&overheads));
    untraced.first().copied().unwrap_or(0.0)
}

/// Median of `t_variant / t_base - 1` in percent over same-seed pairs.
fn overhead_pct(
    pairs: u64,
    mut base: impl FnMut(u64) -> f64,
    mut variant: impl FnMut(u64) -> f64,
) -> f64 {
    let pcts: Vec<f64> = (0..pairs)
        .map(|idx| {
            let b = base(idx);
            (variant(idx) / b - 1.0) * 100.0
        })
        .collect();
    median(&pcts)
}

// ---- set-up layers ---------------------------------------------------------

/// `syzlang`: parse, compile, lower and validate `suite`, and the
/// warm cache lookup every campaign construction pays.
fn syzlang_layers(p: &mut Probe, suite: &[SpecFile], consts: &ConstDb) {
    let texts: Vec<(String, String)> = suite
        .iter()
        .map(|f| (f.name.clone(), print_file(f)))
        .collect();
    black_box(SpecCache::global().get_or_build(suite));
    p.reps(|| {
        p.rec.span("syzlang.parse", || {
            for (name, text) in &texts {
                black_box(parse(name, text).is_ok());
            }
            ((), texts.len() as u64)
        });
        let files = suite.to_vec();
        let db = p
            .rec
            .span("syzlang.compile", || (SpecDb::from_files(files), 1));
        p.rec.span("syzlang.lower", || {
            (black_box(LoweredDb::build(&db, consts)), 1)
        });
        p.rec
            .span("syzlang.validate", || (black_box(validate(&db, consts)), 1));
        p.rec.span("syzlang.cache_warm", || {
            for _ in 0..1000 {
                black_box(SpecCache::global().get_or_build(suite));
            }
            ((), 1000)
        });
    });
    p.set("syzlang.parse_us_per_spec", p.ns("syzlang.parse") / 1e3);
    p.set("syzlang.compile_us", p.ns("syzlang.compile") / 1e3);
    p.set("syzlang.lower_us", p.ns("syzlang.lower") / 1e3);
    p.set("syzlang.validate_us", p.ns("syzlang.validate") / 1e3);
    p.set("syzlang.cache_warm_ns", p.ns("syzlang.cache_warm"));
}

/// `csrc` corpus build and `vkernel` boot, as set-up runs them.
fn fuzz_setup_layers(p: &mut Probe, env: &FuzzEnv) {
    p.reps(|| {
        let bps: Vec<Blueprint> = (env.blueprints)();
        p.rec.span("csrc.corpus_build", || {
            (black_box(KernelCorpus::from_blueprints(bps)), 1)
        });
        let bps: Vec<Blueprint> = (env.blueprints)();
        p.rec
            .span("vkernel.boot", || (black_box(VKernel::boot(bps)), 1));
    });
    p.set("csrc.corpus_build_ms", p.ns("csrc.corpus_build") / 1e6);
    p.set("vkernel.boot_ms", p.ns("vkernel.boot") / 1e6);
    syzlang_layers(p, &env.suite, env.kc.consts());
}

// ---- the workload's own inputs ----------------------------------------------

/// The first programs a campaign ran, recovered from its own flight
/// recorder, with the coverage each one reaches.
struct OwnInputs {
    programs: Vec<Program>,
    shard: Vec<u32>,
    coverage: Vec<CoverageMap>,
    calls: u64,
    blocks: u64,
}

/// Run `config`'s campaign for its first [`OWN_INPUTS`] executions
/// (all of them, if it is shorter) with a trace ring deep enough to
/// keep every one. A campaign's prefix does not depend on its total
/// budget, so these are the programs the full-size campaign starts
/// with.
fn own_inputs(env: &FuzzEnv, config: &CampaignConfig, shards: u32) -> Result<OwnInputs, String> {
    let execs = OWN_INPUTS.min(config.execs);
    let config = CampaignConfig {
        execs,
        trace_ring: execs.div_ceil(u64::from(shards)) as usize,
        ..config.clone()
    };
    let (_, stores) =
        ShardedCampaign::new(&env.kernel, &env.suite, env.kc.consts(), config.clone())
            .with_shards(shards)
            .with_threads(1)
            .run_traced();
    let mut own = OwnInputs {
        programs: Vec::new(),
        shard: Vec::new(),
        coverage: Vec::new(),
        calls: 0,
        blocks: 0,
    };
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&env.lowered));
    scratch.state.set_fuel_limit(config.exec_fuel);
    for trace in stores.iter().flat_map(TraceStore::iter) {
        let program = trace.decode_program().map_err(|e| e.to_string())?;
        execute_with(&env.kernel, &program, &mut scratch);
        own.calls += program.len() as u64;
        own.blocks += scratch.coverage().len() as u64;
        own.coverage.push(scratch.coverage().clone());
        own.shard.push(trace.shard);
        own.programs.push(program);
    }
    if own.programs.is_empty() {
        return Err("the campaign retained no traces to take inputs from".into());
    }
    Ok(own)
}

/// `fuzzer.gen`, `fuzzer.exec` and `fuzzer.corpus`: the per-exec loop
/// of a shard over the workload's own programs. The stages run
/// interleaved, one span per stage per program, as they do in the
/// loop: streaming one stage over thousands of programs would time it
/// cache-cold and overstate it by half.
fn loop_layers(p: &mut Probe, env: &FuzzEnv, own: &OwnInputs, config: &CampaignConfig) {
    let n = own.programs.len() as u64;
    let max_len = config.max_prog_len;
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&env.lowered));
    scratch.state.set_fuel_limit(config.exec_fuel);
    let (mut fresh_calls, mut stats) = (0u64, Default::default());
    p.reps(|| {
        let mut generator = Generator::from_lowered(Arc::clone(&env.lowered), config.seed);
        let mut corpus = Corpus::new(CORPUS_CAP, config.seed);
        fresh_calls = 0;
        for (prog, cov) in own.programs.iter().zip(&own.coverage) {
            // Programs are dropped outside the spans: in the loop that
            // cost belongs to `observe`, which consumes them.
            let fresh = p
                .rec
                .span("gen.fresh", || (generator.gen_program(max_len), 1));
            fresh_calls += fresh.len() as u64;
            drop(fresh);
            drop(
                p.rec
                    .span("gen.mutate", || (generator.mutate(prog, max_len), 1)),
            );
            p.rec.span("exec", || {
                (execute_with(&env.kernel, prog, &mut scratch), 1)
            });
            let owned = prog.clone();
            p.rec
                .span("corpus.observe", || (corpus.observe(owned, cov, None), 1));
        }
        // Tens of nanoseconds a call: too short for a span of its own.
        p.rec.span("corpus.select", || {
            for _ in 0..n {
                black_box(corpus.select());
            }
            ((), n)
        });
        stats = corpus.stats();
    });
    let exec_ns = p.ns("exec");
    p.set("gen.ns_per_prog", p.ns("gen.fresh"));
    p.set("gen.mutate_ns_per_prog", p.ns("gen.mutate"));
    p.set("gen.calls_per_prog", ratio(fresh_calls as f64, n as f64));
    p.set("exec.ns_per_prog", exec_ns);
    p.set(
        "exec.ns_per_call",
        ratio(exec_ns * n as f64, own.calls as f64),
    );
    p.set(
        "exec.ns_per_block",
        ratio(exec_ns * n as f64, own.blocks as f64),
    );
    p.set("exec.blocks_per_prog", ratio(own.blocks as f64, n as f64));
    p.set("corpus.observe_ns", p.ns("corpus.observe"));
    p.set("corpus.select_ns", p.ns("corpus.select"));
    p.set("corpus.admit_ratio", ratio(stats.admitted as f64, n as f64));
    p.set("corpus.evictions", stats.evicted as f64);
}

/// `fuzzer.hub`: one exchange boundary over the eight shard corpora
/// the workload's own programs build.
fn hub_layers(p: &mut Probe, own: &OwnInputs, seed: u64) {
    let mut corpora: Vec<Corpus> = (0..SHARDS)
        .map(|s| Corpus::new(CORPUS_CAP, seed.wrapping_add(u64::from(s))))
        .collect();
    for ((prog, shard), cov) in own.programs.iter().zip(&own.shard).zip(&own.coverage) {
        corpora[*shard as usize].observe(prog.clone(), cov, None);
    }
    let (mut taken, mut offered) = (0usize, 0usize);
    p.reps(|| {
        let mut hub = SeedHub::new(HUB_TOP_K);
        let mut local = corpora.clone();
        p.rec.span("hub.publish", || {
            for (s, corpus) in local.iter().enumerate() {
                hub.publish(s as u32, corpus);
            }
            ((), 1)
        });
        taken = p.rec.span("hub.import", || {
            let mut taken = 0;
            for (s, corpus) in local.iter_mut().enumerate() {
                taken += hub.import_into(s as u32, corpus);
            }
            (taken, 1)
        });
        offered = (0..SHARDS)
            .map(|s| hub.seeds().iter().filter(|seed| seed.shard != s).count())
            .sum();
    });
    p.set("hub.publish_us", p.ns("hub.publish") / 1e3);
    p.set("hub.import_us", p.ns("hub.import") / 1e3);
    p.set(
        "hub.import_accept_ratio",
        ratio(taken as f64, offered as f64),
    );
}

/// `triage`: re-minimize every raw reproducer the campaign captured.
/// Returns `(probes per campaign, ns per probe)`.
fn triage_layers(p: &mut Probe, env: &FuzzEnv, result: &CampaignResult) -> (f64, f64) {
    let entries: Vec<_> = result.triage.entries().collect();
    if entries.is_empty() {
        return (0.0, 0.0);
    }
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&env.lowered));
    let mut probes = 0u64;
    p.reps(|| {
        probes = p.rec.span("triage.minimize", || {
            let mut probes = 0;
            for _ in 0..SMALL_BATCH {
                for e in &entries {
                    let (out, _) = minimize_program(&env.kernel, &mut scratch, &e.raw, e.signature);
                    probes += out.execs + 1;
                }
            }
            (probes, probes)
        });
    });
    let per_campaign = probes as f64 / SMALL_BATCH as f64;
    let ns_per_probe = p.ns("triage.minimize");
    p.set("triage.ns_per_probe", ns_per_probe);
    p.set(
        "triage.probes_per_signature",
        per_campaign / entries.len() as f64,
    );
    p.set("triage.shrink_ratio", result.triage.mean_shrink_ratio());
    (per_campaign, ns_per_probe)
}

/// The exact guards: what the campaign at sub-seed 0 found.
fn result_metrics(p: &mut Probe, result: &CampaignResult, early: &CampaignResult) {
    p.set("result.blocks", result.blocks() as f64);
    p.set("result.blocks_early", early.blocks() as f64);
    p.set("result.unique_crashes", result.unique_crashes() as f64);
    p.set("result.triage_signatures", result.triage.len() as f64);
}

/// What the layer probes add up to per exec, against what a round
/// actually costs. `per_exec_ns` and `per_boundary_ns` are the
/// workload's extra layers on top of the shard loop and the hub.
fn attribution(
    p: &mut Probe,
    untraced_ns_per_exec: f64,
    config: &CampaignConfig,
    shards: u32,
    triage: (f64, f64),
    per_exec_ns: f64,
    per_boundary_ns: f64,
) {
    // One exec in four is generated afresh; the rest mutate a
    // selected corpus seed.
    let step = 0.25 * p.get("gen.ns_per_prog")
        + 0.75 * (p.get("corpus.select_ns") + p.get("gen.mutate_ns_per_prog"))
        + p.get("exec.ns_per_prog")
        + p.get("corpus.observe_ns");
    let epochs = match config.hub_epoch {
        0 => 1,
        e => (config.execs / u64::from(shards)).div_ceil(e),
    };
    let exchanges = (epochs - 1) as f64;
    let hub_ns = (p.get("hub.publish_us") + p.get("hub.import_us")) * 1e3;
    let boundaries_ns = exchanges * (hub_ns + per_boundary_ns) + triage.0 * triage.1;
    let modelled = step + per_exec_ns + boundaries_ns / config.execs.max(1) as f64;
    p.set("layers.modelled_ns_per_exec", modelled);
    p.set(
        "layers.unattributed_pct",
        ratio(untraced_ns_per_exec - modelled, untraced_ns_per_exec) * 100.0,
    );
}

// ---- per-workload probe passes ---------------------------------------------

fn dm(p: &mut Probe, w: &DmSeq, pairs: u64) -> Result<(), String> {
    let untraced = paired_rounds(p, w, pairs, |idx| w.round(idx));
    fuzz_setup_layers(p, &w.env);
    let config = w.config(0);
    let own = own_inputs(&w.env, &config, 1)?;
    loop_layers(p, &w.env, &own, &config);
    let (result, _) = w.run(config.clone());
    let (early, _) = w.run(CampaignConfig {
        execs: config.execs / 10,
        ..config.clone()
    });
    let triage = triage_layers(p, &w.env, &result);
    result_metrics(p, &result, &early);
    attribution(p, untraced, &config, 1, triage, 0.0, 0.0);
    Ok(())
}

/// Everything the three in-process deep-chain workloads share.
/// Returns the triage totals for the attribution.
fn deepchain_layers(
    p: &mut Probe,
    env: &FuzzEnv,
    config: &CampaignConfig,
    result: &CampaignResult,
) -> Result<((f64, f64), OwnInputs), String> {
    fuzz_setup_layers(p, env);
    let own = own_inputs(env, config, SHARDS)?;
    loop_layers(p, env, &own, config);
    hub_layers(p, &own, config.seed);
    let early = env
        .sharded(CampaignConfig {
            execs: config.execs / 10,
            trace_ring: 0,
            ..config.clone()
        })
        .run();
    let triage = triage_layers(p, env, result);
    result_metrics(p, result, &early);
    Ok((triage, own))
}

fn sharded(p: &mut Probe, w: &DeepchainSharded, pairs: u64, host: &Host) -> Result<(), String> {
    let untraced = paired_rounds(p, w, pairs, |idx| w.round(idx));
    let config = w.config(0);
    let (result, _) = w.run(config.clone());
    let (triage, _) = deepchain_layers(p, &w.env, &config, &result)?;
    // The cost of the decomposition alone: the same budget as one
    // sequential campaign against eight isolated shards on one thread.
    let env = &w.env;
    let isolated = |idx: u64| CampaignConfig {
        hub_epoch: 0,
        ..w.config(idx)
    };
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    p.set(
        "shard.sharding_overhead_pct",
        overhead_pct(
            pairs,
            |idx| {
                time(&|| {
                    black_box(
                        Campaign::new(&env.kernel, &env.suite, env.kc.consts(), isolated(idx))
                            .run(),
                    );
                })
            },
            |idx| time(&|| drop(black_box(env.sharded(isolated(idx)).run()))),
        ),
    );
    // A speed-up is only a speed-up when the second thread has a core.
    let speedup = host.threads(2).map(|threads| {
        let ratios: Vec<f64> = (0..pairs)
            .map(|idx| {
                let one = time(&|| drop(black_box(env.sharded(w.config(idx)).run())));
                let two = time(&|| {
                    drop(black_box(
                        env.sharded(w.config(idx)).with_threads(threads).run(),
                    ));
                });
                one / two
            })
            .collect();
        median(&ratios)
    });
    p.values.insert("shard.speedup_2t", speedup);
    attribution(p, untraced, &config, SHARDS, triage, 0.0, 0.0);
    Ok(())
}

/// `fuzzer.checkpoint`, both directions, over the snapshot at `path`.
/// Returns `(encode_ms, save_ms)`.
fn checkpoint_layers(p: &mut Probe, path: &Path, write_side: bool) -> Result<(f64, f64), String> {
    let snap = CampaignSnapshot::load(path).map_err(|e| e.to_string())?;
    let bytes = snap.to_bytes();
    let io_path = path.with_extension("probe");
    snap.save(&io_path).map_err(|e| e.to_string())?;
    let mut ok = true;
    p.reps(|| {
        if write_side {
            p.rec.span("checkpoint.encode", || {
                for _ in 0..SMALL_BATCH {
                    black_box(snap.to_bytes());
                }
                ((), SMALL_BATCH)
            });
            ok &= p.rec.span("checkpoint.save", || {
                (
                    (0..SMALL_BATCH).all(|_| snap.save(&io_path).is_ok()),
                    SMALL_BATCH,
                )
            });
        } else {
            ok &= p.rec.span("checkpoint.decode", || {
                let ok = (0..SMALL_BATCH).all(|_| CampaignSnapshot::from_bytes(&bytes).is_ok());
                (ok, SMALL_BATCH)
            });
            ok &= p.rec.span("checkpoint.load", || {
                let ok = (0..SMALL_BATCH).all(|_| CampaignSnapshot::load(&io_path).is_ok());
                (ok, SMALL_BATCH)
            });
        }
    });
    if !ok {
        return Err("a checkpoint probe could not write or read its snapshot".into());
    }
    p.set("checkpoint.bytes", bytes.len() as f64);
    let (encode_ms, save_ms) = (
        p.ns("checkpoint.encode") / 1e6,
        p.ns("checkpoint.save") / 1e6,
    );
    if write_side {
        p.set("checkpoint.encode_ms", encode_ms);
        p.set("checkpoint.save_ms", save_ms);
    } else {
        p.set("checkpoint.decode_ms", p.ns("checkpoint.decode") / 1e6);
        p.set("checkpoint.load_ms", p.ns("checkpoint.load") / 1e6);
    }
    Ok((encode_ms, save_ms))
}

/// Every retained trace decoded to its events, with the block total.
fn decoded_traces(
    env: &FuzzEnv,
    stores: &[TraceStore],
) -> Result<(Vec<Vec<TraceEvent>>, u64), String> {
    let tables = cfg_successors(&env.kernel);
    let mut blocks = 0u64;
    let events = stores
        .iter()
        .flat_map(TraceStore::iter)
        .map(|t| {
            let events =
                decode_events(&tables, &t.stream, t.stream_bits).map_err(|e| e.to_string())?;
            blocks += events
                .iter()
                .map(|e| match e {
                    TraceEvent::Block { len, .. } => u64::from(*len),
                    _ => 0,
                })
                .sum::<u64>();
            Ok(events)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((events, blocks))
}

fn durable(p: &mut Probe, w: &DeepchainDurable, pairs: u64) -> Result<(), String> {
    let env = &w.env;
    // The public checkpoint observer is the only hook into a running
    // campaign: it sees each installed snapshot, and its size.
    let written = AtomicU64::new(0);
    let on_checkpoint = |_: u64| {
        let len = std::fs::metadata(&w.checkpoint).map_or(0, |m| m.len());
        written.fetch_add(len, Ordering::Relaxed);
    };
    let hooked = |idx: u64| {
        let ((result, stores), secs) = w.run(w.config(idx), Some(&on_checkpoint));
        Ok(RoundOut {
            secs,
            work: result.execs,
            yield_units: result.blocks() as u64,
            ops: vec![traced_op(&result, &stores)],
        })
    };
    let untraced = paired_rounds(p, w, pairs, hooked);
    let config = w.config(0);
    written.store(0, Ordering::Relaxed);
    let ((result, stores), _) = w.run(config.clone(), Some(&on_checkpoint));
    p.set(
        "result.io_bytes_per_kexec",
        written.load(Ordering::Relaxed) as f64 * 1000.0 / config.execs as f64,
    );
    let (triage, own) = deepchain_layers(p, env, &config, &result)?;
    let (encode_ms, save_ms) = checkpoint_layers(p, &w.checkpoint, true)?;

    // Same-seed triples: bare, checkpointing only, tracing only.
    let bare = |idx: u64| CampaignConfig {
        trace_ring: 0,
        ..w.config(idx)
    };
    let time = |campaign: ShardedCampaign| {
        let t = Instant::now();
        black_box(campaign.run_traced());
        t.elapsed().as_secs_f64()
    };
    let bare_secs: Vec<f64> = (0..pairs).map(|idx| time(env.sharded(bare(idx)))).collect();
    p.set(
        "checkpoint.overhead_pct",
        overhead_pct(
            pairs,
            |idx| bare_secs[idx as usize],
            |idx| time(env.sharded(bare(idx)).with_checkpoint(&w.checkpoint)),
        ),
    );
    p.set(
        "flight.capture_overhead_pct",
        overhead_pct(
            pairs,
            |idx| bare_secs[idx as usize],
            |idx| time(env.sharded(w.config(idx))),
        ),
    );

    // `trace`, write side: what the recorder pays per exec.
    let tables = cfg_successors(&env.kernel);
    let (events, blocks) = decoded_traces(env, &stores)?;
    p.reps(|| {
        p.rec.span("trace.encode", || {
            for _ in 0..SMALL_BATCH {
                for e in &events {
                    black_box(encode_events(&tables, e));
                }
            }
            ((), blocks * SMALL_BATCH)
        });
    });
    prog_encode_layer(p, &own);
    let bits: u64 = stores.iter().map(TraceStore::stream_bits).sum();
    let stream_bytes: u64 = stores.iter().map(TraceStore::stream_bytes).sum();
    let retained: usize = stores.iter().map(TraceStore::retained).sum();
    let recorded: u64 = stores.iter().map(TraceStore::execs_seen).sum();
    p.set("trace.encode_ns_per_block", p.ns("trace.encode"));
    p.set("trace.bits_per_block", ratio(bits as f64, blocks as f64));
    p.set(
        "trace.bits_per_exec",
        ratio(stream_bytes as f64 * 8.0, config.execs as f64),
    );
    p.set(
        "trace.retained_ratio",
        ratio(retained as f64, recorded as f64),
    );
    p.set(
        "trace.store_bytes",
        stores.iter().map(|s| s.to_bytes().len()).sum::<usize>() as f64,
    );
    let per_exec = p.get("trace.encode_ns_per_block") * p.get("exec.blocks_per_prog")
        + p.get("syzlang.prog_encode_ns");
    attribution(
        p,
        untraced,
        &config,
        SHARDS,
        triage,
        per_exec,
        (encode_ms + save_ms) * 1e6,
    );
    Ok(())
}

/// `syzlang` program encoding, as the flight recorder and the delta
/// codec call it: once per program into a reused buffer.
fn prog_encode_layer(p: &mut Probe, own: &OwnInputs) {
    let mut buf = Vec::new();
    p.reps(|| {
        p.rec.span("syzlang.prog_encode", || {
            for prog in &own.programs {
                buf.clear();
                prog.encode_into(&mut buf);
                black_box(buf.len());
            }
            ((), own.programs.len() as u64)
        });
    });
    p.set("syzlang.prog_encode_ns", p.ns("syzlang.prog_encode"));
}

/// Round trips of `frame` over a transport pair whose far end echoes.
/// The echo thread ends when the near end is dropped.
fn echo_rtt(
    p: &mut Probe,
    span: &'static str,
    mut near: Box<dyn Transport>,
    mut far: Box<dyn Transport>,
    frame: &[u8],
    trips: u64,
) -> bool {
    let wait = Duration::from_secs(5);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(Some(f)) = far.recv_timeout(wait) {
                if far.send(&f).is_err() {
                    break;
                }
            }
        });
        let mut ok = true;
        p.reps(|| {
            ok &= p.rec.span(span, || {
                let ok = (0..trips).all(|_| {
                    near.send(frame).is_ok() && matches!(near.recv_timeout(wait), Ok(Some(_)))
                });
                (ok, trips)
            });
        });
        drop(near);
        ok
    })
}

/// A connected loopback TCP pair, if the sandbox allows sockets.
fn tcp_pair() -> std::io::Result<(TcpTransport, TcpTransport)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let near = TcpTransport::connect(listener.local_addr()?)?;
    let (stream, _) = listener.accept()?;
    Ok((near, TcpTransport::new(stream)))
}

/// `fuzzer.fabric` and the `fabric` crate's codec: one whole campaign
/// stepped boundary by boundary in this thread, every codec stage of
/// the blocking path under its own span. Returns the per-boundary
/// nanoseconds of all stages but the epoch itself, and a typical
/// incremental frame.
fn fabric_layers(
    p: &mut Probe,
    env: &FuzzEnv,
    config: &CampaignConfig,
) -> Result<(f64, Vec<u8>), String> {
    let err = |e: kgpt_fuzzer::CheckpointError| e.to_string();
    let mut merge = CampaignMerge::new(config.clone(), SHARDS);
    let mut runner = LeaseRunner::fresh(&env.lowered, config, SHARDS, 0, SHARDS);
    let mut base: Option<Vec<kgpt_fuzzer::ShardSnapshot>> = None;
    let (mut boundary, mut delta_bytes, mut increments) = (0u64, 0u64, 0u64);
    let mut frame = Vec::new();
    loop {
        boundary += 1;
        let deltas = p
            .rec
            .span("fabric.lease_epoch", || (runner.run_epoch(&env.kernel), 1));
        if let Some(base) = &base {
            let shipped = deltas.clone();
            let encoded = p.rec.span("fabric.diff", || {
                let mut out = Vec::new();
                let patches = diff_boundary(base, shipped).ok();
                if let Some(patches) = &patches {
                    encode_patches(patches, &mut out);
                }
                ((patches, out), 1)
            });
            let (Some(patches), encoded) = encoded else {
                return Err(format!(
                    "boundary {boundary} does not diff against its baseline"
                ));
            };
            delta_bytes += encoded.len() as u64;
            increments += 1;
            let rebuilt = p.rec.span("fabric.apply", || {
                let applied =
                    decode_patches(&encoded, &mut 0).and_then(|ps| apply_patches(base, ps));
                (applied, 1)
            });
            if rebuilt.map_err(err)? != deltas {
                return Err(format!(
                    "boundary {boundary}: patches do not rebuild the deltas"
                ));
            }
            let message = Message::Delta {
                tenant: 0,
                lease_id: 1,
                boundary,
                deltas: DeltaPayload::Incremental(patches),
            };
            frame = p.rec.span("wire.frame_encode", || {
                let frame = message.to_frame();
                let len = frame.len() as u64;
                (frame, len)
            });
            p.rec.span("wire.frame_decode", || {
                (
                    black_box(Message::from_frame(&frame).is_ok()),
                    frame.len() as u64,
                )
            });
        }
        let outcome = p
            .rec
            .span("fabric.merge", || (merge.apply_boundary(deltas), 1))
            .map_err(err)?;
        if outcome.finished {
            break;
        }
        runner.import(&outcome.seeds);
        base = Some(runner.snapshots());
    }
    // Every boundary is its own span here, so take the mean: the
    // stages' cost grows with the corpus over the campaign.
    let mean = |span: &str| {
        let v = p.rec.ns_per_unit(span);
        ratio(v.iter().sum::<f64>(), v.len() as f64)
    };
    let per_byte = |span: &str| {
        let spans = p.rec.named(span);
        ratio(
            spans.iter().map(|s| s.busy_ns() as f64).sum(),
            spans.iter().map(|s| s.count as f64).sum(),
        )
    };
    let (diff, apply, merged) = (
        mean("fabric.diff"),
        mean("fabric.apply"),
        mean("fabric.merge"),
    );
    p.set("fabric.diff_us_per_boundary", diff / 1e3);
    p.set("fabric.apply_us_per_boundary", apply / 1e3);
    p.set("fabric.merge_ms_per_boundary", merged / 1e6);
    p.set("fabric.lease_epoch_ms", mean("fabric.lease_epoch") / 1e6);
    p.set(
        "fabric.delta_bytes_per_boundary",
        ratio(delta_bytes as f64, increments as f64),
    );
    p.set(
        "wire.frame_encode_ns_per_kb",
        per_byte("wire.frame_encode") * 1024.0,
    );
    p.set(
        "wire.frame_decode_ns_per_kb",
        per_byte("wire.frame_decode") * 1024.0,
    );
    let frame_ns = (per_byte("wire.frame_encode") + per_byte("wire.frame_decode"))
        * ratio(delta_bytes as f64, increments as f64);
    Ok((diff + apply + merged + frame_ns, frame))
}

fn fabric(p: &mut Probe, w: &FabricChan, pairs: u64) -> Result<(), String> {
    let env = &w.env;
    let acked = Arc::new(AtomicU64::new(0));
    let hook: BoundaryHook = {
        let acked = Arc::clone(&acked);
        Arc::new(move |_| {
            acked.fetch_add(1, Ordering::Relaxed);
        })
    };
    let run_hooked = |idx: u64| w.run(w.config(idx), Some(Arc::clone(&hook)));
    let untraced = paired_rounds(p, w, pairs, |idx| {
        let (result, _, secs) = run_hooked(idx)?;
        Ok(RoundOut {
            secs,
            work: result.execs,
            yield_units: result.blocks() as u64,
            ops: vec![digest::campaign(&result)],
        })
    });
    let config = w.config(0);
    acked.store(0, Ordering::Relaxed);
    let (result, stats, _): (CampaignResult, FabricStats, f64) = run_hooked(0)?;
    // The last boundary is answered with `Finish`, not an ack.
    if acked.load(Ordering::Relaxed) + 1 != stats.boundaries {
        return Err(format!(
            "the worker saw {} boundaries acked, the coordinator merged {}",
            acked.load(Ordering::Relaxed),
            stats.boundaries
        ));
    }
    p.set(
        "result.io_bytes_per_kexec",
        stats.delta_bytes as f64 * 1000.0 / config.execs as f64,
    );
    p.set(
        "coordinator.redelivered_frames",
        stats.redelivered_frames as f64,
    );
    p.set("coordinator.rejected_frames", stats.rejected_frames as f64);
    p.set("coordinator.expired_leases", stats.expired_leases as f64);
    let (triage, own) = deepchain_layers(p, env, &config, &result)?;
    let (codec_ns, frame) = fabric_layers(p, env, &config)?;
    prog_encode_layer(p, &own);

    let (near, far) = ChannelTransport::pair();
    if !echo_rtt(
        p,
        "transport.chan_rtt",
        Box::new(near),
        Box::new(far),
        &frame,
        500,
    ) {
        return Err("the channel echo lost a frame".into());
    }
    p.set("transport.chan_rtt_us", p.ns("transport.chan_rtt") / 1e3);
    match tcp_pair() {
        Ok((near, far)) => {
            if echo_rtt(
                p,
                "transport.tcp_rtt",
                Box::new(near),
                Box::new(far),
                &frame,
                200,
            ) {
                p.set("transport.tcp_rtt_us", p.ns("transport.tcp_rtt") / 1e3);
            }
        }
        Err(e) => eprintln!("transport.tcp_rtt_us not measured: no loopback socket ({e})"),
    }

    // The whole protocol stack against the in-process campaign.
    let time_sharded = |idx: u64| {
        let t = Instant::now();
        black_box(env.sharded(w.config(idx)).run());
        t.elapsed().as_secs_f64()
    };
    let wire = overhead_pct(pairs, time_sharded, |idx| {
        w.run(w.config(idx), None)
            .map_or(f64::NAN, |(_, _, secs)| secs)
    });
    p.set("coordinator.wire_overhead_pct", wire);
    attribution(
        p,
        untraced,
        &config,
        SHARDS,
        triage,
        0.0,
        codec_ns + p.get("transport.chan_rtt_us") * 1e3,
    );
    Ok(())
}

/// The analysis LLM under a span: every request the pipeline sends is
/// an `llm.chat` child of whatever core span is open.
struct TimedModel<'a> {
    inner: &'a dyn LanguageModel,
    rec: &'a Recorder,
}

impl LanguageModel for TimedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        self.rec.span("llm.chat", || (self.inner.chat(request), 1))
    }

    fn total_usage(&self) -> Usage {
        self.inner.total_usage()
    }
}

fn specgen(p: &mut Probe, w: &SpecgenFlagship, pairs: u64) -> Result<(), String> {
    paired_rounds(p, w, pairs, |idx| w.round(idx));
    let handlers = &w.env.handlers;
    let n = handlers.len() as f64;
    p.reps(|| {
        let kc = p
            .rec
            .span("csrc.corpus_build", || (KernelCorpus::flagship_only(), 1));
        p.rec.span("extractor.find_handlers", || {
            (black_box(find_handlers(kc.corpus())), 1)
        });
    });
    p.set("csrc.corpus_build_ms", p.ns("csrc.corpus_build") / 1e6);
    p.set(
        "extractor.find_handlers_ms",
        p.ns("extractor.find_handlers") / 1e6,
    );
    p.set("extractor.handlers", n);

    let oracle = w.model(0);
    let model = TimedModel {
        inner: &oracle,
        rec: p.rec,
    };
    let (kc, consts) = (&w.env.kc, w.env.kc.consts());
    let engine = KernelGpt::new(&model, kc.corpus()).with_threads(1);
    // One whole pass first: its report says which handlers went to the
    // repair round, and how many requests a pass costs.
    let before = oracle.total_usage();
    let report = engine.generate_all(handlers, consts);
    let after = oracle.total_usage();
    let repaired: Vec<usize> = (0..handlers.len())
        .filter(|&i| report.outcomes[i].repaired)
        .collect();
    p.reps(|| {
        p.rec.span("core.first_pass", || {
            for h in handlers {
                p.rec.span("core.generate_one", || {
                    (black_box(engine.generate_one(h, 0)), 1)
                });
            }
            ((), handlers.len() as u64)
        });
        // What a pass does besides generating: it validates the
        // merged suite twice, before and after the repair round.
        p.rec.span("core.merge_validate", || {
            for _ in 0..2 {
                let files: Vec<SpecFile> = report
                    .outcomes
                    .iter()
                    .filter_map(|o| o.spec.clone())
                    .collect();
                let db = SpecCache::global().get_or_build(&files);
                black_box(validate(&db, consts));
            }
            ((), 1)
        });
    });
    let mean = |v: Vec<f64>| ratio(v.iter().sum::<f64>(), v.len() as f64);
    let chats: Vec<f64> = p
        .rec
        .named("llm.chat")
        .iter()
        .map(|s| s.busy_ns() as f64)
        .collect();
    p.set("llm.ns_per_request", mean(chats));
    p.set(
        "llm.requests_per_handler",
        (after.requests - before.requests) as f64 / n,
    );
    p.set(
        "llm.prompt_tokens_per_handler",
        (after.input_tokens - before.input_tokens) as f64 / n,
    );
    p.set("core.ns_per_handler", p.ns("core.first_pass"));
    p.set(
        "core.self_ns_per_handler",
        mean(p.rec.self_ns("core.generate_one")),
    );
    p.set("core.repair_rounds_per_handler", repaired.len() as f64 / n);
    p.set(
        "core.repaired_ratio",
        ratio(report.repaired_count() as f64, repaired.len() as f64),
    );
    p.set("core.merge_validate_ms", p.ns("core.merge_validate") / 1e6);
    let merged: Vec<SpecFile> = report
        .outcomes
        .iter()
        .filter_map(|o| o.spec.clone())
        .collect();
    syzlang_layers(p, &merged, consts);
    p.set(
        "result.valid_specs_pct",
        100.0 * report.valid_count() as f64 / n,
    );
    p.set("result.syscalls_described", report.total_syscalls() as f64);
    Ok(())
}

fn recover(p: &mut Probe, w: &RecoverReplay, pairs: u64) -> Result<(), String> {
    paired_rounds(p, w, pairs, |idx| w.round(idx));
    let env = &w.env;
    fuzz_setup_layers(p, env);
    let fx = w.fixture(0);
    checkpoint_layers(p, &fx.checkpoint, false)?;
    let (result, stores) = env
        .sharded(fx.config.clone())
        .resume_traced(&fx.checkpoint)
        .map_err(|e| e.to_string())?;
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&env.lowered));
    let (events, blocks) = decoded_traces(env, &stores)?;
    let traces: Vec<_> = stores.iter().flat_map(TraceStore::iter).collect();
    let programs = traces
        .iter()
        .map(|t| t.decode_program().map_err(|e| e.to_string()))
        .collect::<Result<Vec<Program>, String>>()?;
    let mut ok = true;
    p.reps(|| {
        ok &= p.rec.span("trace.decode", || {
            let ok = (0..SMALL_BATCH).all(|_| {
                traces
                    .iter()
                    .all(|t| decode_events(&w.tables, &t.stream, t.stream_bits).is_ok())
            });
            (ok, blocks * SMALL_BATCH)
        });
        ok &= p.rec.span("flight.replay", || {
            let ok = traces.iter().all(|t| {
                replay_trace(&env.kernel, &mut scratch, &w.tables, t, env.spec_fp)
                    .is_ok_and(|o| o.identical)
            });
            (ok, traces.len() as u64)
        });
        ok &= p.rec.span("syzlang.prog_decode", || {
            let ok = (0..SMALL_BATCH).all(|_| {
                traces
                    .iter()
                    .all(|t| Program::decode_from(&t.program, &mut 0).is_ok())
            });
            (ok, traces.len() as u64 * SMALL_BATCH)
        });
        p.rec.span("exec", || {
            for _ in 0..SMALL_BATCH {
                for prog in &programs {
                    execute_with(&env.kernel, prog, &mut scratch);
                }
            }
            ((), programs.len() as u64 * SMALL_BATCH)
        });
    });
    if !ok {
        return Err("a retained trace failed to decode or to replay identically".into());
    }
    let calls: usize = programs.iter().map(Program::len).sum();
    let exec_ns = p.ns("exec");
    p.set("trace.decode_ns_per_block", p.ns("trace.decode"));
    p.set("flight.replay_us_per_trace", p.ns("flight.replay") / 1e3);
    p.set("syzlang.prog_decode_ns", p.ns("syzlang.prog_decode"));
    p.set("exec.ns_per_prog", exec_ns);
    p.set(
        "exec.ns_per_call",
        ratio(exec_ns * programs.len() as f64, calls as f64),
    );
    p.set(
        "exec.ns_per_block",
        ratio(exec_ns * programs.len() as f64, blocks as f64),
    );
    p.set(
        "exec.blocks_per_prog",
        ratio(blocks as f64, events.len() as f64),
    );
    triage_layers(p, env, &result);
    p.set("result.blocks", result.blocks() as f64);
    p.set("result.unique_crashes", result.unique_crashes() as f64);
    p.set("result.triage_signatures", result.triage.len() as f64);
    Ok(())
}

/// Run the probe pass of `built`, print every per-layer metric, and
/// write the spans to `<out>/<workload>.spans.json`.
pub fn probe_pass(
    name: &str,
    built: &Built,
    seed: u64,
    seconds: f64,
    host: &Host,
    out: &Path,
) -> PassOut {
    let rec = Recorder::new();
    let mut p = Probe {
        rec: &rec,
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let pairs = pairs_for(seconds);
    // Probe timings are reported as timed. How fast the box was while
    // they were taken is a number of its own, read before and after.
    let cal = Calibrator::new();
    let mut cal_secs: Vec<f64> = (0..REPS).map(|_| cal.secs()).collect();
    let outcome = guarded(|| match built {
        Built::Dm(w) => dm(&mut p, w, pairs),
        Built::Sharded(w) => sharded(&mut p, w, pairs, host),
        Built::Durable(w) => durable(&mut p, w, pairs),
        Built::Fabric(w) => fabric(&mut p, w, pairs),
        Built::Specgen(w) => specgen(&mut p, w, pairs),
        Built::Recover(w) => recover(&mut p, w, pairs),
    });
    p.attempted += 1;
    if let Err(e) = outcome {
        eprintln!("probe pass: {e}");
        p.failed += 1;
    }
    cal_secs.extend((0..REPS).map(|_| cal.secs()));
    p.set("box.speed", calib::speed(median(&cal_secs)));
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            // Absent from this workload: 0. Present but not measurable
            // on this box: `None`.
            let value = p.values.get(m.name).copied().unwrap_or(Some(0.0));
            crate::print_metric(m.name, m.unit, m.better, value, &format!("-> {}", m.moves));
            (m.name, m.unit, value)
        })
        .collect();
    let spans = Json::obj([
        ("workload", Json::Str(name.into())),
        ("seed", Json::Num(seed as f64)),
        ("sub_seed_0", Json::Str(format!("{:#x}", sub_seed(seed, 0)))),
        ("hub_epoch", Json::Num(HUB_EPOCH as f64)),
        ("recorded", rec.dump()),
    ]);
    let path = out.join(format!("{name}.spans.json"));
    if let Err(e) = std::fs::write(&path, spans.encode()) {
        eprintln!("{}: {e}", path.display());
    }
    PassOut {
        attempted: p.attempted,
        failed: p.failed,
        metrics,
    }
}
