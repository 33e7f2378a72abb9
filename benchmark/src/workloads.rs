//! The six workloads: how each builds its fixture, what one timed
//! round is, and the reference route its result is checked against.
//!
//! Every workload drives only the crates' public functions. A round
//! runs at a *sub-seed* derived from `--seed` and the round's index,
//! so one run samples many campaigns: a single fuzzing campaign's
//! throughput swings by a factor of four with its RNG seed (the dm
//! corpus holds ~16 programs, and which ones they are sets the
//! generation cost), and only a median over many seeds is a steady
//! number. Sizes are constants here, not flags.

use crate::digest::{self, Digest};
use kgpt_core::KernelGpt;
use kgpt_csrc::blueprint::Blueprint;
use kgpt_csrc::{deepchain, flagship, KernelCorpus};
use kgpt_extractor::{find_handlers, OpHandler};
use kgpt_fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, FabricStats, Transport, WorkerOpts,
};
use kgpt_fuzzer::fabric::shard_execs;
use kgpt_fuzzer::{
    cfg_successors, minimize_program, reference_run, replay_trace, Campaign, CampaignConfig,
    CampaignResult, CampaignSnapshot, ExecScratch, Program, ShardedCampaign, TraceStore,
};
use kgpt_llm::{LanguageModel, ModelKind, OracleModel};
use kgpt_syzlang::lowered::{CfgSuccessors, LoweredDb};
use kgpt_syzlang::{SpecCache, SpecFile};
use kgpt_trace::{read_trace_file, write_trace_file};
use kgpt_vkernel::{CrashSignature, VKernel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: u32 = 8;
pub const HUB_EPOCH: u64 = 128;
pub const HUB_TOP_K: usize = 4;
pub const DEEPCHAIN_PROG_LEN: usize = 12;

/// Work per round. Rounds are short (0.05–0.4 s on the reference box)
/// so that one pass holds many of them, each at its own sub-seed: the
/// median steadies with the round count. The three deep-chain campaigns
/// are one size, which makes their rates comparable: the always-on
/// layers' cost is `deepchain_durable` against `deepchain_sharded`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub dm_execs: u64,
    pub sharded_execs: u64,
    pub durable_execs: u64,
    pub fabric_execs: u64,
    pub specgen_passes: u64,
    pub recover_fixtures: u64,
    pub recover_resumes: u64,
    pub recover_replays: u64,
    pub recover_minimizes: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dm_execs: 250,
        sharded_execs: 50_000,
        durable_execs: 50_000,
        fabric_execs: 50_000,
        specgen_passes: 4,
        recover_fixtures: 4,
        recover_resumes: 24,
        recover_replays: 12,
        recover_minimizes: 160,
    };

    /// The same workloads `div` times smaller (tests run 1/100). The
    /// deep-chain campaigns keep at least three hub boundaries, or
    /// there would be no checkpoint to resume and no delta to ship.
    pub fn scaled(div: u64) -> Sizes {
        let f = Sizes::FULL;
        let deep = |execs: u64| (execs / div).max(u64::from(SHARDS) * HUB_EPOCH * 3);
        Sizes {
            dm_execs: (f.dm_execs / div).max(10),
            sharded_execs: deep(f.sharded_execs),
            durable_execs: deep(f.durable_execs),
            fabric_execs: deep(f.fabric_execs),
            specgen_passes: (f.specgen_passes / div).max(1),
            recover_fixtures: (f.recover_fixtures / div).max(1),
            recover_resumes: (f.recover_resumes / div).max(1),
            recover_replays: (f.recover_replays / div).max(1),
            recover_minimizes: (f.recover_minimizes / div).max(1),
        }
    }
}

/// Round index of untimed warm-up rounds (a sub-seed of their own).
pub const WARMUP_ROUND: u64 = u64::MAX;

/// The seed of round `idx` of a run at `--seed seed` (SplitMix64
/// finalizer over both, so neighbouring seeds share no rounds).
pub fn sub_seed(seed: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one timed round did.
#[derive(Debug)]
pub struct RoundOut {
    /// Seconds inside the program's own calls (result digests and
    /// bookkeeping are taken outside the clock).
    pub secs: f64,
    /// Units of work done: program executions, or handlers specified.
    pub work: u64,
    /// What the work produced: blocks covered, or syscalls described.
    pub yield_units: u64,
    /// One canonical digest per operation of the round.
    pub ops: Vec<u64>,
}

pub trait Workload: Sync {
    /// Build the workload's fixture once more, from scratch: what a
    /// process pays before its first round.
    fn set_up(&self) -> Result<(), String>;
    /// Run round `idx` through the route the workload measures.
    fn round(&self, idx: u64) -> Result<RoundOut, String>;
    /// The digests round `idx` must produce, computed untimed through
    /// a different route.
    fn reference(&self, idx: u64) -> Result<Vec<u64>, String>;
}

/// Set `w` up once more from a cold spec cache; returns the seconds
/// it took.
pub fn cold_setup(w: &dyn Workload) -> Result<f64, String> {
    SpecCache::global().clear();
    let t = Instant::now();
    w.set_up()?;
    Ok(t.elapsed().as_secs_f64())
}

// ---- fuzzing fixture -------------------------------------------------------

/// What every fuzzing workload sets up: kernel sources and constants,
/// the ground-truth suite compiled and lowered, and the booted kernel.
pub struct FuzzEnv {
    pub blueprints: fn() -> Vec<Blueprint>,
    pub kc: KernelCorpus,
    pub suite: Vec<SpecFile>,
    pub lowered: Arc<LoweredDb>,
    pub kernel: VKernel,
    pub spec_fp: u64,
}

pub fn dm_blueprints() -> Vec<Blueprint> {
    vec![flagship::dm()]
}

impl FuzzEnv {
    /// Same fixture again, for timing; dropped at once.
    fn rebuild(&self) {
        std::hint::black_box(FuzzEnv::build(self.blueprints));
    }

    pub fn build(blueprints: fn() -> Vec<Blueprint>) -> FuzzEnv {
        let kc = KernelCorpus::from_blueprints(blueprints());
        let suite: Vec<SpecFile> = kc
            .blueprints()
            .iter()
            .map(Blueprint::ground_truth_spec)
            .collect();
        let (_, lowered) = SpecCache::global().get_or_build_lowered(&suite, kc.consts());
        let kernel = VKernel::boot(blueprints());
        let spec_fp = SpecCache::fingerprint(&suite);
        FuzzEnv {
            blueprints,
            kc,
            suite,
            lowered,
            kernel,
            spec_fp,
        }
    }

    /// The deep-chain campaign every sharded workload runs.
    pub fn deepchain_config(execs: u64, seed: u64, trace_ring: usize) -> CampaignConfig {
        CampaignConfig {
            execs,
            seed,
            max_prog_len: DEEPCHAIN_PROG_LEN,
            hub_epoch: HUB_EPOCH,
            hub_top_k: HUB_TOP_K,
            trace_ring,
            ..CampaignConfig::default()
        }
    }

    pub fn sharded(&self, config: CampaignConfig) -> ShardedCampaign<'_> {
        ShardedCampaign::new(&self.kernel, &self.suite, self.kc.consts(), config)
            .with_shards(SHARDS)
            .with_threads(1)
    }

    /// The single-process `LeaseRunner` + `CampaignMerge` route.
    pub fn reference(&self, config: &CampaignConfig) -> CampaignResult {
        reference_run(&self.kernel, &self.lowered, config, SHARDS, None).result
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn campaign_out(secs: f64, result: &CampaignResult, op: u64) -> RoundOut {
    RoundOut {
        secs,
        work: result.execs,
        yield_units: result.blocks() as u64,
        ops: vec![op],
    }
}

// ---- dm_seq ----------------------------------------------------------------

pub struct DmSeq {
    pub env: FuzzEnv,
    pub seed: u64,
    pub execs: u64,
}

impl DmSeq {
    pub fn new(seed: u64, sizes: &Sizes) -> DmSeq {
        DmSeq {
            env: FuzzEnv::build(dm_blueprints),
            seed,
            execs: sizes.dm_execs,
        }
    }

    pub fn config(&self, idx: u64) -> CampaignConfig {
        CampaignConfig {
            execs: self.execs,
            seed: sub_seed(self.seed, idx),
            ..CampaignConfig::default()
        }
    }

    pub fn run(&self, config: CampaignConfig) -> (CampaignResult, f64) {
        let env = &self.env;
        timed(|| Campaign::new(&env.kernel, &env.suite, env.kc.consts(), config).run())
    }
}

impl Workload for DmSeq {
    fn set_up(&self) -> Result<(), String> {
        self.env.rebuild();
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let (result, secs) = self.run(self.config(idx));
        Ok(campaign_out(secs, &result, digest::campaign(&result)))
    }

    /// A one-shard sharded campaign is pinned bit-identical to the
    /// sequential loop; tracing never changes a result, so it is off.
    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        let env = &self.env;
        let config = CampaignConfig {
            trace_ring: 0,
            ..self.config(idx)
        };
        let result = ShardedCampaign::new(&env.kernel, &env.suite, env.kc.consts(), config)
            .with_shards(1)
            .with_threads(1)
            .run();
        Ok(vec![digest::campaign(&result)])
    }
}

// ---- deepchain_sharded -----------------------------------------------------

pub struct DeepchainSharded {
    pub env: FuzzEnv,
    pub seed: u64,
    pub execs: u64,
}

impl DeepchainSharded {
    pub fn new(seed: u64, sizes: &Sizes) -> DeepchainSharded {
        DeepchainSharded {
            env: FuzzEnv::build(deepchain::suite),
            seed,
            execs: sizes.sharded_execs,
        }
    }

    pub fn config(&self, idx: u64) -> CampaignConfig {
        FuzzEnv::deepchain_config(self.execs, sub_seed(self.seed, idx), 0)
    }

    pub fn run(&self, config: CampaignConfig) -> (CampaignResult, f64) {
        timed(|| self.env.sharded(config).run())
    }
}

impl Workload for DeepchainSharded {
    fn set_up(&self) -> Result<(), String> {
        self.env.rebuild();
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let (result, secs) = self.run(self.config(idx));
        Ok(campaign_out(secs, &result, digest::campaign(&result)))
    }

    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        Ok(vec![digest::campaign(
            &self.env.reference(&self.config(idx)),
        )])
    }
}

// ---- deepchain_durable -----------------------------------------------------

pub struct DeepchainDurable {
    pub env: FuzzEnv,
    pub seed: u64,
    pub execs: u64,
    pub checkpoint: PathBuf,
}

/// One digest for a traced campaign: its result and its trace stores.
pub fn traced_op(result: &CampaignResult, stores: &[TraceStore]) -> u64 {
    Digest::new()
        .u64(digest::campaign(result))
        .u64(digest::stores(stores))
        .finish()
}

impl DeepchainDurable {
    pub fn new(seed: u64, sizes: &Sizes, dir: &Path) -> DeepchainDurable {
        DeepchainDurable {
            env: FuzzEnv::build(deepchain::suite),
            seed,
            execs: sizes.durable_execs,
            checkpoint: dir.join("durable.ckpt"),
        }
    }

    /// The default trace ring (32) stays on: that is the point.
    pub fn config(&self, idx: u64) -> CampaignConfig {
        FuzzEnv::deepchain_config(
            self.execs,
            sub_seed(self.seed, idx),
            CampaignConfig::default().trace_ring,
        )
    }

    /// The measured route: traced, checkpointing at every boundary.
    /// `on_checkpoint` (probe pass only) observes each installed
    /// snapshot.
    pub fn run(
        &self,
        config: CampaignConfig,
        on_checkpoint: Option<&(dyn Fn(u64) + Sync)>,
    ) -> ((CampaignResult, Vec<TraceStore>), f64) {
        let campaign = self.env.sharded(config).with_checkpoint(&self.checkpoint);
        let campaign = match on_checkpoint {
            Some(hook) => campaign.with_on_checkpoint(hook),
            None => campaign,
        };
        timed(|| campaign.run_traced())
    }
}

impl Workload for DeepchainDurable {
    fn set_up(&self) -> Result<(), String> {
        self.env.rebuild();
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let ((result, stores), secs) = self.run(self.config(idx), None);
        Ok(campaign_out(secs, &result, traced_op(&result, &stores)))
    }

    /// The result must equal the untraced, uncheckpointed
    /// `reference_run`; the stores must equal those of a traced
    /// campaign that never checkpoints.
    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        let config = self.config(idx);
        let plain = self.env.reference(&config);
        let (traced, stores) = self.env.sharded(config).run_traced();
        if digest::campaign(&traced) != digest::campaign(&plain) {
            return Err("reference routes disagree: tracing changed the campaign result".into());
        }
        Ok(vec![traced_op(&plain, &stores)])
    }
}

// ---- fabric_chan -----------------------------------------------------------

/// Called on the worker thread with each acked boundary number.
pub type BoundaryHook = Arc<dyn Fn(u64) + Send + Sync>;

pub struct FabricChan {
    pub env: FuzzEnv,
    pub seed: u64,
    pub execs: u64,
}

impl FabricChan {
    pub fn new(seed: u64, sizes: &Sizes) -> FabricChan {
        FabricChan {
            env: FuzzEnv::build(deepchain::suite),
            seed,
            execs: sizes.fabric_execs,
        }
    }

    pub fn config(&self, idx: u64) -> CampaignConfig {
        FuzzEnv::deepchain_config(self.execs, sub_seed(self.seed, idx), 0)
    }

    /// One campaign through `Coordinator::run` and one `run_worker`
    /// over a channel pair. One worker keeps both ends in lock-step,
    /// so the time is the program's, not the scheduler's.
    /// `on_boundary` (probe pass only) runs on the worker after every
    /// acked boundary.
    pub fn run(
        &self,
        config: CampaignConfig,
        on_boundary: Option<BoundaryHook>,
    ) -> Result<(CampaignResult, FabricStats, f64), String> {
        let env = &self.env;
        let t = Instant::now();
        let outcome = std::thread::scope(|scope| {
            let coordinator = Coordinator::new(
                config,
                CoordinatorOpts {
                    shards: SHARDS,
                    workers: 1,
                    lease_timeout: Duration::from_secs(60),
                    spec_fp: env.spec_fp,
                },
            );
            let mut workers = Vec::new();
            let mut accept = || -> Option<Box<dyn Transport>> {
                let (coord_end, worker_end) = ChannelTransport::pair();
                let hook = on_boundary.clone();
                workers.push(scope.spawn(move || {
                    let opts = WorkerOpts {
                        on_boundary: hook.map(|h| Box::new(move |b| h(b)) as Box<dyn FnMut(u64)>),
                        ..WorkerOpts::default()
                    };
                    run_worker(Box::new(worker_end), opts, |fp| {
                        (fp == env.spec_fp).then(|| (&env.kernel, Arc::clone(&env.lowered)))
                    })
                }));
                Some(Box::new(coord_end))
            };
            let merged = coordinator.run(&mut accept).map_err(|e| e.to_string());
            for w in workers {
                match w.join() {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => return Err(format!("fabric worker: {e}")),
                    Err(_) => return Err("fabric worker panicked".to_string()),
                }
            }
            merged
        });
        let secs = t.elapsed().as_secs_f64();
        outcome.map(|(result, stats)| (result, stats, secs))
    }
}

impl Workload for FabricChan {
    fn set_up(&self) -> Result<(), String> {
        self.env.rebuild();
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let (result, _, secs) = self.run(self.config(idx), None)?;
        Ok(campaign_out(secs, &result, digest::campaign(&result)))
    }

    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        Ok(vec![digest::campaign(
            &self.env.reference(&self.config(idx)),
        )])
    }
}

// ---- specgen_flagship ------------------------------------------------------

pub struct SpecEnv {
    pub kc: KernelCorpus,
    pub handlers: Vec<OpHandler>,
}

impl SpecEnv {
    /// Kernel sources, the handlers found in them, and one generation
    /// pass from a cold cache: the first pass compiles the merged
    /// suite, and every later pass over the same suite is a cache hit.
    pub fn build(seed: u64) -> SpecEnv {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        let env = SpecEnv { kc, handlers };
        let model = OracleModel::new(ModelKind::Gpt4, seed);
        std::hint::black_box(env.generate(&model, 1, 1));
        env
    }

    /// `passes` full `generate_all` passes; returns the last report.
    pub fn generate(
        &self,
        model: &dyn LanguageModel,
        threads: usize,
        passes: u64,
    ) -> kgpt_core::GenerationReport {
        let engine = KernelGpt::new(model, self.kc.corpus()).with_threads(threads);
        let mut report = engine.generate_all(&self.handlers, self.kc.consts());
        for _ in 1..passes {
            report = engine.generate_all(&self.handlers, self.kc.consts());
        }
        report
    }
}

pub struct SpecgenFlagship {
    pub env: SpecEnv,
    pub seed: u64,
    pub passes: u64,
    /// Threads of the reference route (the parallel path, when there
    /// is a second core to run it on).
    pub reference_threads: usize,
}

impl SpecgenFlagship {
    pub fn new(seed: u64, sizes: &Sizes, reference_threads: usize) -> SpecgenFlagship {
        SpecgenFlagship {
            env: SpecEnv::build(sub_seed(seed, WARMUP_ROUND)),
            seed,
            passes: sizes.specgen_passes,
            reference_threads,
        }
    }

    pub fn model(&self, idx: u64) -> OracleModel {
        OracleModel::new(ModelKind::Gpt4, sub_seed(self.seed, idx))
    }
}

/// One operation per handler: the digest of its whole outcome.
fn handler_ops(report: &kgpt_core::GenerationReport) -> Vec<u64> {
    report.outcomes.iter().map(digest::debug).collect()
}

impl Workload for SpecgenFlagship {
    fn set_up(&self) -> Result<(), String> {
        std::hint::black_box(SpecEnv::build(sub_seed(self.seed, WARMUP_ROUND)));
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let model = self.model(idx);
        let (report, secs) = timed(|| self.env.generate(&model, 1, self.passes));
        Ok(RoundOut {
            secs,
            work: self.env.handlers.len() as u64 * self.passes,
            yield_units: report.total_syscalls() as u64,
            ops: handler_ops(&report),
        })
    }

    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        let report = self
            .env
            .generate(&self.model(idx), self.reference_threads, 1);
        Ok(handler_ops(&report))
    }
}

// ---- recover_replay --------------------------------------------------------

/// A crash reproducer as the durable campaign captured it, and what
/// minimizing it must give.
pub struct Reproducer {
    pub raw: Program,
    pub signature: CrashSignature,
    pub minimized: Program,
}

/// What one durable campaign left behind, and what reading it back
/// must reproduce.
pub struct Fixture {
    pub config: CampaignConfig,
    pub checkpoint: PathBuf,
    pub trace_file: PathBuf,
    /// Digest of the uninterrupted run (result and stores).
    pub uninterrupted: u64,
    pub blocks: u64,
    /// Executions a resume still has to run.
    pub resumed_execs: u64,
    pub traces: u64,
    pub reproducers: Vec<Reproducer>,
}

pub struct RecoverReplay {
    pub env: FuzzEnv,
    pub tables: CfgSuccessors,
    pub fixtures: Vec<Fixture>,
    pub resumes: u64,
    pub replays: u64,
    pub minimizes: u64,
}

/// What a round of recovery found, reduced to the facts the reference
/// can predict without running anything.
fn recover_op(resumed: &[u64], identical_replays: u64, exact_minimizations: u64) -> u64 {
    let mut d = Digest::new();
    d.u64(resumed.len() as u64);
    for r in resumed {
        d.u64(*r);
    }
    d.u64(identical_replays).u64(exact_minimizations).finish()
}

impl RecoverReplay {
    pub fn new(seed: u64, sizes: &Sizes, dir: &Path) -> Result<RecoverReplay, String> {
        let env = FuzzEnv::build(deepchain::suite);
        let fixtures = (0..sizes.recover_fixtures)
            .map(|f| make_fixture(&env, sub_seed(seed, f), sizes.durable_execs, dir, f))
            .collect::<Result<Vec<_>, _>>()?;
        let tables = cfg_successors(&env.kernel);
        Ok(RecoverReplay {
            env,
            tables,
            fixtures,
            resumes: sizes.recover_resumes,
            replays: sizes.recover_replays,
            minimizes: sizes.recover_minimizes,
        })
    }

    pub fn fixture(&self, idx: u64) -> &Fixture {
        &self.fixtures[(idx % self.fixtures.len() as u64) as usize]
    }
}

/// Run one durable campaign to the end. The checkpoint it leaves on
/// disk is the one written at the last boundary before the final
/// epoch, so resuming from it is dominated by restore, not execution.
fn make_fixture(
    env: &FuzzEnv,
    seed: u64,
    execs: u64,
    dir: &Path,
    f: u64,
) -> Result<Fixture, String> {
    let config = FuzzEnv::deepchain_config(execs, seed, CampaignConfig::default().trace_ring);
    let checkpoint = dir.join(format!("recover-{f}.ckpt"));
    let trace_file = dir.join(format!("recover-{f}.trace"));
    let (result, stores) = env
        .sharded(config.clone())
        .with_checkpoint(&checkpoint)
        .run_traced();
    write_trace_file(&trace_file, &stores).map_err(|e| e.to_string())?;
    let epochs_done = CampaignSnapshot::load(&checkpoint)
        .map_err(|e| e.to_string())?
        .epochs_done();
    let resumed_execs = (0..SHARDS)
        .map(|i| shard_execs(&config, SHARDS, i).saturating_sub(epochs_done * HUB_EPOCH))
        .sum();
    Ok(Fixture {
        checkpoint,
        trace_file,
        uninterrupted: traced_op(&result, &stores),
        blocks: result.blocks() as u64,
        resumed_execs,
        traces: stores.iter().map(|s| s.retained() as u64).sum(),
        reproducers: result
            .triage
            .entries()
            .map(|e| Reproducer {
                raw: e.raw.clone(),
                signature: e.signature,
                minimized: e.minimized.clone(),
            })
            .collect(),
        config,
    })
}

impl Workload for RecoverReplay {
    /// A recovering process also reads its checkpoint and trace file
    /// back before it can do anything.
    fn set_up(&self) -> Result<(), String> {
        self.env.rebuild();
        let first = &self.fixtures[0];
        let snapshot = CampaignSnapshot::load(&first.checkpoint).map_err(|e| e.to_string())?;
        let stores = read_trace_file(&first.trace_file).map_err(|e| e.to_string())?;
        std::hint::black_box((snapshot, stores));
        Ok(())
    }

    fn round(&self, idx: u64) -> Result<RoundOut, String> {
        let env = &self.env;
        let fx = self.fixture(idx);
        let mut scratch = ExecScratch::from_lowered(Arc::clone(&env.lowered));
        let mut resumed = Vec::new();
        let (mut identical, mut exact, mut probes) = (0u64, 0u64, 0u64);
        let t = Instant::now();
        for _ in 0..self.resumes {
            let r = env
                .sharded(fx.config.clone())
                .resume_traced(&fx.checkpoint)
                .map_err(|e| e.to_string())?;
            resumed.push(r);
        }
        for _ in 0..self.replays {
            let stores = read_trace_file(&fx.trace_file).map_err(|e| e.to_string())?;
            for trace in stores.iter().flat_map(TraceStore::iter) {
                let o = replay_trace(&env.kernel, &mut scratch, &self.tables, trace, env.spec_fp)
                    .map_err(|e| e.to_string())?;
                identical += u64::from(o.identical);
            }
        }
        for _ in 0..self.minimizes {
            for r in &fx.reproducers {
                let (out, reproduced) =
                    minimize_program(&env.kernel, &mut scratch, &r.raw, r.signature);
                probes += out.execs + 1;
                exact += u64::from(reproduced && out.program == r.minimized);
            }
        }
        let secs = t.elapsed().as_secs_f64();
        let digests: Vec<u64> = resumed.iter().map(|(r, s)| traced_op(r, s)).collect();
        Ok(RoundOut {
            secs,
            work: self.resumes * fx.resumed_execs + self.replays * fx.traces + probes,
            yield_units: resumed.last().map_or(0, |(r, _)| r.blocks() as u64),
            ops: vec![recover_op(&digests, identical, exact)],
        })
    }

    /// Every resume must equal the uninterrupted run, every retained
    /// trace must replay identically, every reproducer must minimize
    /// to what the campaign's own triage found.
    fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
        let fx = self.fixture(idx);
        let resumed = vec![fx.uninterrupted; self.resumes as usize];
        Ok(vec![recover_op(
            &resumed,
            self.replays * fx.traces,
            self.minimizes * fx.reproducers.len() as u64,
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_across_rounds_and_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            for idx in (0..64).chain([WARMUP_ROUND]) {
                assert!(seen.insert(sub_seed(seed, idx)), "seed {seed} round {idx}");
            }
        }
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn scaled_sizes_keep_three_hub_boundaries() {
        let s = Sizes::scaled(100);
        let floor = u64::from(SHARDS) * HUB_EPOCH * 3;
        assert_eq!(
            (s.sharded_execs, s.durable_execs, s.fabric_execs),
            (floor, floor, floor)
        );
        assert!(s.dm_execs >= 10 && s.specgen_passes == 1 && s.recover_fixtures == 1);
        let full = Sizes::scaled(1);
        assert_eq!(full.sharded_execs, Sizes::FULL.sharded_execs);
    }
}
