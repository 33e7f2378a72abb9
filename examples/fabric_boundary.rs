//! Where a fabric boundary's time goes, stage by stage, on the
//! benchmark's `fabric_chan` campaign (deep-chain, 8 shards, one
//! lease, 128-exec epochs): the two routes a boundary can take from a
//! worker's shards to the coordinator's committed state, run in step
//! on the same campaigns in this thread and timed call by call.
//!
//! * the **snapshot route** — what `run_worker` and `TenantService`
//!   ran until PR 20, and still the oracle: `run_epoch` (a snapshot
//!   per shard), `diff_boundary` against the post-ack `snapshots()`,
//!   `to_frame`; `from_frame`, `merge.snapshots`, `apply_patches`,
//!   `apply_boundary`;
//! * the **live route** — what they run now: `advance`,
//!   `write_boundary` into the kept frame buffer, `acked` (import and
//!   mark); `from_frame`, `validate`, `commit`.
//!
//! Every boundary's two frames are compared (by hash) on the way. The
//! last lines time whole campaigns: in process, and through a real
//! coordinator and worker over channels.
//!
//! ```text
//! cargo run --release --example fabric_boundary
//! ```
//!
//! A record for EXPERIMENTS.md § "Where a fabric boundary's 1.3 ms
//! goes", never a gate: the referee is `benchmark/`'s `fabric_chan`.

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, DeltaPayload, Message, Transport,
    WorkerOpts,
};
use kernelgpt::fuzzer::fabric::{apply_patches, diff_boundary};
use kernelgpt::fuzzer::{
    CampaignConfig, CampaignMerge, HubSeed, LeaseRunner, ShardSnapshot, ShardedCampaign,
};
use kernelgpt::syzlang::codec::fnv1a;
use kernelgpt::syzlang::SpecCache;
use kernelgpt::vkernel::VKernel;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 8;
/// Campaigns per pass, at seeds `1..=CAMPAIGNS`.
const CAMPAIGNS: u64 = 20;

/// Time per stage, in first-use order.
#[derive(Default)]
struct Stages(Vec<(&'static str, Duration)>);

impl Stages {
    fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let spent = t.elapsed();
        match self.0.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, total)) => *total += spent,
            None => self.0.push((stage, spent)),
        }
        r
    }

    fn print(&self, title: &str, boundaries: u64) {
        println!("{title} (us per boundary)");
        let us = |d: Duration| d.as_secs_f64() * 1e6 / boundaries as f64;
        for (stage, total) in &self.0 {
            println!("  {stage:<44} {:>8.1}", us(*total));
        }
        let blocking = self.0.iter().filter(|(stage, _)| !stage.contains("epoch"));
        println!(
            "  {:<44} {:>8.1}",
            "everything but the epochs",
            us(blocking.map(|(_, d)| *d).sum())
        );
    }
}

/// The coordinator's reply, framed and decoded as the worker does.
fn reply(stages: &mut Stages, boundary: u64, seeds: Vec<HubSeed>) -> Vec<HubSeed> {
    let reply = Message::Proceed {
        tenant: 0,
        boundary,
        seeds,
    };
    let decoded = stages.time("Proceed: to_frame + from_frame", || {
        Message::from_frame(&reply.to_frame())
    });
    match decoded {
        Ok(Message::Proceed { seeds, .. }) => seeds,
        _ => panic!("the reply does not decode"),
    }
}

fn main() {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, kc.consts());
    let spec_fp = SpecCache::fingerprint(&suite);
    let config = |seed: u64| CampaignConfig {
        execs: 50_000,
        seed,
        max_prog_len: 12,
        hub_epoch: 128,
        hub_top_k: 4,
        trace_ring: 0,
        ..CampaignConfig::default()
    };

    // One route per pass, so neither pays for the other's heap churn;
    // the first leaves its frames' hashes and results for the second.
    let (mut snapshot, mut live) = (Stages::default(), Stages::default());
    let (mut boundaries, mut hashes, mut results) = (0u64, Vec::new(), Vec::new());
    for seed in 1..=CAMPAIGNS {
        let config = config(seed);
        let mut runner = LeaseRunner::fresh(&lowered, &config, SHARDS, 0, SHARDS);
        let mut merge = CampaignMerge::new(config.clone(), SHARDS);
        let mut baseline: Option<Vec<ShardSnapshot>> = None;
        loop {
            let boundary = merge.epochs_done() + 1;
            boundaries += 1;
            // The worker ...
            let deltas = snapshot.time("epoch + drain + 8 x state.snapshot()", || {
                runner.run_epoch(&kernel)
            });
            let payload = match baseline.take() {
                None => DeltaPayload::Full(deltas),
                Some(base) => {
                    let patches = snapshot.time("diff_boundary", || {
                        diff_boundary(&base, deltas).expect("diffable")
                    });
                    snapshot.time("freeing the old baseline", || drop(base));
                    DeltaPayload::Incremental(patches)
                }
            };
            let message = Message::Delta {
                tenant: 0,
                lease_id: 1,
                boundary,
                deltas: payload,
            };
            let frame = snapshot.time("to_frame", || message.to_frame());
            drop(message);
            hashes.push(fnv1a(&frame));
            // ... and the coordinator.
            let decoded = snapshot.time("from_frame", || Message::from_frame(&frame));
            let Ok(Message::Delta { deltas, .. }) = decoded else {
                panic!("the frame does not decode");
            };
            let resolved = match deltas {
                DeltaPayload::Full(deltas) => deltas,
                DeltaPayload::Incremental(patches) => {
                    let base =
                        snapshot.time("merge.snapshots(lo, hi)", || merge.snapshots(0, SHARDS));
                    let deltas = snapshot.time("apply_patches", || {
                        apply_patches(&base, patches).expect("patches fit")
                    });
                    snapshot.time("freeing the committed clone", || drop(base));
                    deltas
                }
            };
            let outcome = snapshot.time("apply_boundary", || {
                merge.apply_boundary(resolved).expect("merge")
            });
            if outcome.finished {
                break;
            }
            let seeds = reply(&mut snapshot, boundary, outcome.seeds);
            snapshot.time("import", || runner.import(&seeds));
            baseline =
                Some(snapshot.time("runner.snapshots() for the baseline", || runner.snapshots()));
        }
        results.push(merge.finish().expect("finished"));
    }
    let mut hashes = hashes.into_iter();
    for (seed, result) in (1..=CAMPAIGNS).zip(results) {
        let config = config(seed);
        let mut runner = LeaseRunner::fresh(&lowered, &config, SHARDS, 0, SHARDS);
        let mut merge = CampaignMerge::new(config.clone(), SHARDS);
        let mut frame = Vec::new();
        loop {
            let boundary = merge.epochs_done() + 1;
            live.time("epoch (advance)", || runner.advance(&kernel));
            live.time("write_boundary into the kept frame", || {
                Message::write_delta_frame(&mut frame, 0, 1, boundary, |w| {
                    runner.write_boundary(&kernel, w);
                });
            });
            assert_eq!(
                Some(fnv1a(&frame)),
                hashes.next(),
                "seed {seed} boundary {boundary}: the two routes frame differently"
            );
            let decoded = live.time("from_frame", || Message::from_frame(&frame));
            let Ok(Message::Delta { deltas, .. }) = decoded else {
                panic!("the frame does not decode");
            };
            live.time("validate", || merge.validate(&deltas).expect("fits"));
            let outcome = live.time("commit", || merge.commit(vec![deltas]).expect("commit"));
            if outcome.finished {
                break;
            }
            let seeds = reply(&mut live, boundary, outcome.seeds);
            live.time("acked: import + mark", || runner.acked(&seeds));
        }
        assert_eq!(merge.finish().expect("finished"), result, "seed {seed}");
    }
    println!(
        "{CAMPAIGNS} campaigns x {} boundaries, every frame and result identical on both routes",
        boundaries / CAMPAIGNS
    );
    snapshot.print("snapshot route", boundaries);
    live.print("live route", boundaries);

    // Whole campaigns, for the scale: the same seeds in process, and
    // through the protocol stack with one worker thread.
    let per_boundary = |d: Duration| d.as_secs_f64() * 1e3 / boundaries as f64;
    let t = Instant::now();
    for seed in 1..=CAMPAIGNS {
        let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), config(seed));
        black_box(campaign.with_shards(SHARDS).with_threads(1).run());
    }
    println!("in process: {:.3} ms a boundary", per_boundary(t.elapsed()));
    let t = Instant::now();
    for seed in 1..=CAMPAIGNS {
        std::thread::scope(|scope| {
            let opts = CoordinatorOpts {
                shards: SHARDS,
                workers: 1,
                lease_timeout: Duration::from_secs(60),
                spec_fp,
            };
            let mut accept = || -> Option<Box<dyn Transport>> {
                let (coord_end, worker_end) = ChannelTransport::pair();
                let (kernel, lowered) = (&kernel, Arc::clone(&lowered));
                scope.spawn(move || {
                    run_worker(Box::new(worker_end), WorkerOpts::default(), |fp| {
                        (fp == spec_fp).then_some((kernel, lowered))
                    })
                });
                Some(Box::new(coord_end))
            };
            let coordinator = Coordinator::new(config(seed), opts);
            black_box(coordinator.run(&mut accept).expect("coordinator"));
        });
    }
    println!(
        "coordinator + worker over channels: {:.3} ms a boundary",
        per_boundary(t.elapsed())
    );
}
