//! Distributed-fabric properties: a coordinator merging worker deltas
//! over a transport produces a `CampaignResult` **bit-identical** to
//! the single-process `ShardedCampaign` of the same config — at any
//! worker count, under every cell of the failure matrix (worker
//! death, stalled leases, dropped / duplicated / corrupted /
//! misrouted frames).

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, DeltaPayload, FabricStats, Message,
    TcpTransport, Transport, WorkerOpts, WorkerSummary,
};
use kernelgpt::fuzzer::fabric::{apply_patches, diff_boundary};
use kernelgpt::fuzzer::{
    CampaignConfig, CampaignMerge, CampaignResult, Fault, FaultPlan, LeaseRunner, ShardSnapshot,
    ShardedCampaign,
};
use kernelgpt::syzlang::{ConstDb, SpecCache, SpecFile};
use kernelgpt::vkernel::VKernel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SHARDS: u32 = 8;

fn deepchain_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    (
        VKernel::boot(deepchain::suite()),
        suite,
        kc.consts().clone(),
    )
}

fn cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        execs: 3000,
        seed,
        max_prog_len: 10,
        hub_epoch: 125,
        hub_top_k: 4,
        ..CampaignConfig::default()
    }
}

struct Harness {
    lease_timeout: Duration,
    reply_timeout: Duration,
    /// Fault plan for the n-th *spawned* worker; replacements beyond
    /// the list run clean (so an injected fault cannot cascade into a
    /// livelock of its own replacement).
    plans: Vec<FaultPlan>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            lease_timeout: Duration::from_secs(60),
            reply_timeout: Duration::from_millis(250),
            plans: Vec::new(),
        }
    }
}

/// Run a whole campaign through the real protocol stack —
/// coordinator and workers on in-memory channel transports, workers
/// spawned on demand exactly when the coordinator wants one (which is
/// also how lease reassignment gets its replacement registrant).
fn run_fabric(
    kernel: &VKernel,
    suite: &[SpecFile],
    consts: &ConstDb,
    config: &CampaignConfig,
    workers: u32,
    harness: Harness,
) -> (CampaignResult, FabricStats, Vec<WorkerSummary>) {
    let db = SpecCache::global().get_or_build(suite);
    let lowered = SpecCache::global().get_or_lower(&db, consts);
    let spec_fp = SpecCache::fingerprint(suite);
    let summaries = Mutex::new(Vec::new());
    let (result, stats) = std::thread::scope(|scope| {
        let coordinator = Coordinator::new(
            config.clone(),
            CoordinatorOpts {
                shards: SHARDS,
                workers,
                lease_timeout: harness.lease_timeout,
                spec_fp,
            },
        );
        let mut spawned = 0usize;
        let mut accept = || -> Option<Box<dyn Transport>> {
            let (coord_end, worker_end) = ChannelTransport::pair();
            let plan = harness.plans.get(spawned).cloned().unwrap_or_default();
            spawned += 1;
            let lowered = Arc::clone(&lowered);
            let summaries = &summaries;
            scope.spawn(move || {
                let opts = WorkerOpts {
                    faults: plan,
                    reply_timeout: harness.reply_timeout,
                    ..WorkerOpts::default()
                };
                let summary = run_worker(Box::new(worker_end), opts, |fp| {
                    (fp == spec_fp).then_some((kernel, lowered))
                })
                .expect("worker protocol violation");
                summaries.lock().unwrap().push(summary);
            });
            Some(Box::new(coord_end))
        };
        coordinator.run(&mut accept).expect("coordinator")
    });
    let summaries = summaries.into_inner().unwrap();
    (result, stats, summaries)
}

/// The tentpole invariant: the fabric result is bit-identical to the
/// single-process `ShardedCampaign` at 1, 2, and 4 workers across
/// three seeds, and every boundary was merged exactly once.
#[test]
fn fabric_result_is_bit_identical_at_1_2_4_workers_across_seeds() {
    let (kernel, suite, consts) = deepchain_setup();
    for seed in [1u64, 7, 0xDEAD_BEEF] {
        let config = cfg(seed);
        let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
            .with_shards(SHARDS)
            .run();
        assert!(
            !reference.triage.is_empty(),
            "seed {seed}: no crash triaged — the equivalence would be vacuous"
        );
        for workers in [1u32, 2, 4] {
            let (result, stats, summaries) = run_fabric(
                &kernel,
                &suite,
                &consts,
                &config,
                workers,
                Harness::default(),
            );
            assert_eq!(reference, result, "seed {seed} x{workers}");
            // 3000 execs / 8 shards at hub_epoch 125 = 3 epochs.
            assert_eq!(stats.boundaries, 3, "seed {seed} x{workers}");
            assert_eq!(stats.expired_leases, 0, "seed {seed} x{workers}");
            assert_eq!(stats.rejected_frames, 0, "seed {seed} x{workers}");
            assert_eq!(summaries.len(), workers as usize);
            assert!(summaries.iter().all(|s| s.completed));
        }
    }
}

/// Every boundary of a `LeaseRunner` run framed both ways, as
/// `run_worker` frames it: incremental against the acked baseline
/// (full on the first boundary, which has none) vs always full. The
/// increment must resolve to the very deltas the full frame carries,
/// the merge of those deltas is the single-process result, and the
/// incremental wire cost is a small fraction of the full cost — the
/// whole point of true delta frames.
#[test]
fn incremental_frames_match_full_frames_and_cost_far_fewer_bytes() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(7);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let frame_len = |boundary: u64, deltas: DeltaPayload| {
        let frame = Message::Delta {
            tenant: 0,
            lease_id: 1,
            boundary,
            deltas,
        }
        .to_frame();
        frame.len() as u64
    };
    let mut merge = CampaignMerge::new(config.clone(), SHARDS);
    let mut runner = LeaseRunner::fresh(&lowered, &config, SHARDS, 0, SHARDS);
    let mut baseline: Option<Vec<ShardSnapshot>> = None;
    let (mut incr_bytes, mut full_bytes) = (0u64, 0u64);
    loop {
        let deltas = runner.run_epoch(&kernel);
        let boundary = merge.epochs_done() + 1;
        let full = frame_len(boundary, DeltaPayload::Full(deltas.clone()));
        full_bytes += full;
        incr_bytes += match &baseline {
            Some(base) => {
                let patches = diff_boundary(base, deltas.clone())
                    .expect("real shard evolution is always diffable");
                assert_eq!(
                    apply_patches(base, patches.clone()).expect("patches fit their baseline"),
                    deltas,
                    "boundary {boundary}: the increment resolves to the full frame's deltas"
                );
                frame_len(boundary, DeltaPayload::Incremental(patches))
            }
            None => full,
        };
        let outcome = merge.apply_boundary(deltas).expect("boundary merge");
        if outcome.finished {
            break;
        }
        runner.import(&outcome.seeds);
        baseline = Some(runner.snapshots());
    }
    assert_eq!(merge.epochs_done(), 3);
    assert_eq!(
        reference,
        merge.finish().expect("finished"),
        "in-process fabric"
    );
    // Boundary 1 is full either way (no agreed baseline yet), so the
    // whole-campaign ratio understates the per-boundary win; even so,
    // increments must cut the delta bytes at least in half on this
    // 3-boundary workload.
    assert!(
        incr_bytes * 2 < full_bytes,
        "incremental {incr_bytes} bytes vs full {full_bytes} bytes"
    );
}

/// A worker killed mid-lease (dies without shipping its boundary)
/// surrenders the range; the replacement re-runs the uncommitted
/// epochs from the last committed boundary and the result does not
/// change.
#[test]
fn worker_death_mid_lease_reassigns_the_range_with_result_unchanged() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(7);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    for boundary in [1u64, 2, 3] {
        let harness = Harness {
            plans: vec![FaultPlan::none().with(Fault::WorkerKill {
                worker: 0,
                boundary,
            })],
            ..Harness::default()
        };
        let (result, stats, summaries) = run_fabric(&kernel, &suite, &consts, &config, 2, harness);
        assert_eq!(reference, result, "kill at boundary {boundary}");
        assert!(
            stats.expired_leases >= 1,
            "kill at boundary {boundary}: the lost lease must be counted"
        );
        assert_eq!(summaries.iter().filter(|s| !s.completed).count(), 1);
        assert_eq!(summaries.iter().filter(|s| s.completed).count(), 2);
    }
}

/// A stalled worker (alive but silent past its lease deadline) is
/// expired and its range reassigned; when it finally wakes, its
/// connection is gone and it surrenders cleanly.
#[test]
fn stalled_lease_expires_and_the_range_is_reassigned() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(1);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    let harness = Harness {
        lease_timeout: Duration::from_millis(400),
        plans: vec![
            FaultPlan::none(),
            FaultPlan::none().with(Fault::StallLease {
                worker: 1,
                boundary: 2,
            }),
        ],
        ..Harness::default()
    };
    let (result, stats, summaries) = run_fabric(&kernel, &suite, &consts, &config, 2, harness);
    assert_eq!(reference, result, "stalled lease");
    assert!(stats.expired_leases >= 1, "the stalled lease must expire");
    assert!(
        summaries.iter().any(|s| !s.completed),
        "the stalled worker must have surrendered"
    );
}

/// Dropped delta frames are recovered by resend; duplicated frames
/// are re-acked from cache, never re-merged.
#[test]
fn dropped_and_duplicated_frames_are_idempotent() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(0xDEAD_BEEF);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    // Worker frame 0 is Register; frames 1.. are deltas. Worker 0
    // loses its first delta (resend recovers it); worker 1 duplicates
    // its first delta and loses its second.
    let harness = Harness {
        reply_timeout: Duration::from_millis(100),
        plans: vec![
            FaultPlan::none().with(Fault::DropFrame { nth: 1 }),
            FaultPlan::none()
                .with(Fault::DuplicateFrame { nth: 1 })
                .with(Fault::DropFrame { nth: 2 }),
        ],
        ..Harness::default()
    };
    let (result, stats, summaries) = run_fabric(&kernel, &suite, &consts, &config, 2, harness);
    assert_eq!(reference, result, "dropped+duplicated frames");
    assert_eq!(stats.boundaries, 3, "every boundary merged exactly once");
    assert!(
        stats.redelivered_frames >= 1,
        "the duplicated delta must be absorbed, not re-merged"
    );
    assert_eq!(
        stats.expired_leases, 0,
        "no lease should be lost to wire noise"
    );
    assert!(summaries.iter().all(|s| s.completed));
}

/// A transport that passes its n-th outbound frame through `rewrite`
/// — damage the checksum must catch, or a well-formed frame the
/// protocol must refuse.
struct Rewriting<T: Transport> {
    inner: T,
    nth: u64,
    sent: u64,
    rewrite: fn(&[u8]) -> Vec<u8>,
}

impl<T: Transport> Transport for Rewriting<T> {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let n = self.sent;
        self.sent += 1;
        if n == self.nth {
            return self.inner.send(&(self.rewrite)(frame));
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.recv_timeout(timeout)
    }
}

/// A two-worker campaign whose first worker's second outbound frame
/// (its first delta) goes through `rewrite`; later workers — the
/// replacement of a revoked lease included — run clean. Returns the
/// single-process reference beside the fabric result.
fn run_with_first_delta_rewritten(
    rewrite: fn(&[u8]) -> Vec<u8>,
) -> (CampaignResult, CampaignResult, FabricStats) {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(7);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let spec_fp = SpecCache::fingerprint(&suite);
    let (result, stats) = std::thread::scope(|scope| {
        let coordinator = Coordinator::new(
            config.clone(),
            CoordinatorOpts {
                shards: SHARDS,
                workers: 2,
                lease_timeout: Duration::from_secs(60),
                spec_fp,
            },
        );
        let mut spawned = 0u64;
        let mut accept = || -> Option<Box<dyn Transport>> {
            let (coord_end, worker_end) = ChannelTransport::pair();
            let nth = if spawned == 0 { 1 } else { u64::MAX };
            spawned += 1;
            let lowered = Arc::clone(&lowered);
            let kernel = &kernel;
            scope.spawn(move || {
                let transport = Rewriting {
                    inner: worker_end,
                    nth,
                    sent: 0,
                    rewrite,
                };
                let opts = WorkerOpts {
                    reply_timeout: Duration::from_millis(100),
                    ..WorkerOpts::default()
                };
                run_worker(Box::new(transport), opts, |fp| {
                    (fp == spec_fp).then_some((kernel, lowered))
                })
                .expect("worker protocol violation");
            });
            Some(Box::new(coord_end))
        };
        coordinator.run(&mut accept).expect("coordinator")
    });
    (reference, result, stats)
}

/// A corrupted delta frame is rejected by the frame checksum (counted,
/// never decoded into the merge) and the worker's resend recovers it.
#[test]
fn corrupt_frames_are_checksum_rejected_and_recovered_by_resend() {
    let (reference, result, stats) = run_with_first_delta_rewritten(|frame| {
        let mut damaged = frame.to_vec();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x40;
        damaged
    });
    assert_eq!(reference, result, "corrupt frame");
    assert!(
        stats.rejected_frames >= 1,
        "the flipped-bit frame must be rejected by checksum"
    );
    assert_eq!(stats.expired_leases, 0);
}

/// A well-formed delta — right lease, right boundary, right range —
/// tagged for a tenant the coordinator does not run is a protocol
/// violation, exactly as on the multi-tenant service: rejected and
/// counted, never merged; the sender loses its lease and the
/// replacement re-runs the range from the committed boundary.
#[test]
fn a_delta_tagged_for_another_tenant_is_rejected_not_merged() {
    let (reference, result, stats) = run_with_first_delta_rewritten(|frame| {
        match Message::from_frame(frame).expect("the worker's own frame") {
            Message::Delta {
                lease_id,
                boundary,
                deltas,
                ..
            } => Message::Delta {
                tenant: 7,
                lease_id,
                boundary,
                deltas,
            }
            .to_frame(),
            other => panic!("the second outbound frame is a delta, not {other:?}"),
        }
    });
    assert_eq!(reference, result, "misrouted delta");
    assert!(
        stats.rejected_frames >= 1,
        "the misrouted delta must be counted as rejected"
    );
    assert!(
        stats.expired_leases >= 1,
        "the misrouting worker must lose its lease"
    );
}

/// Seed-derived fabric fault plans (the whole failure matrix at
/// seed-chosen coordinates) never change the merged result.
#[test]
fn seeded_fabric_fault_plans_never_change_the_result() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(1);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    for fault_seed in [3u64, 0xF00D] {
        let harness = Harness {
            lease_timeout: Duration::from_millis(500),
            reply_timeout: Duration::from_millis(100),
            plans: vec![
                FaultPlan::fabric_from_seed(fault_seed, 3, 2),
                FaultPlan::fabric_from_seed(fault_seed.wrapping_mul(31), 3, 2),
            ],
        };
        let (result, _stats, _summaries) =
            run_fabric(&kernel, &suite, &consts, &config, 2, harness);
        assert_eq!(reference, result, "fault seed {fault_seed:#x}");
    }
}

/// The same protocol over real sockets: coordinator and workers on
/// localhost TCP, frames length-prefixed on the stream — result still
/// bit-identical.
#[test]
fn tcp_fabric_run_is_bit_identical() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = cfg(7);
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(SHARDS)
        .run();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let spec_fp = SpecCache::fingerprint(&suite);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr");
    let (result, stats) = std::thread::scope(|scope| {
        for _ in 0..2 {
            let lowered = Arc::clone(&lowered);
            let kernel = &kernel;
            scope.spawn(move || {
                let transport = TcpTransport::connect(addr).expect("connect");
                run_worker(Box::new(transport), WorkerOpts::default(), |fp| {
                    (fp == spec_fp).then_some((kernel, lowered))
                })
                .expect("worker protocol violation");
            });
        }
        let coordinator = Coordinator::new(
            config.clone(),
            CoordinatorOpts {
                shards: SHARDS,
                workers: 2,
                lease_timeout: Duration::from_secs(60),
                spec_fp,
            },
        );
        let mut accept = || -> Option<Box<dyn Transport>> {
            match listener.accept() {
                Ok((stream, _)) => Some(Box::new(TcpTransport::new(stream)) as Box<dyn Transport>),
                Err(_) => None,
            }
        };
        coordinator.run(&mut accept).expect("coordinator")
    });
    assert_eq!(reference, result, "tcp fabric");
    assert_eq!(stats.boundaries, 3);
    assert_eq!(stats.expired_leases, 0);
}
