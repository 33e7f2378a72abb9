//! Distributed-fabric properties: a coordinator merging worker deltas
//! over a transport produces a `CampaignResult` **bit-identical** to
//! the single-process `ShardedCampaign` of the same config — at any
//! worker count, under every cell of the failure matrix (worker
//! death, stalled leases, dropped / duplicated / corrupted /
//! misrouted frames).

use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fabric::{
    run_worker, ChannelTransport, Coordinator, CoordinatorOpts, DeltaKind, DeltaPayload,
    FabricStats, LeaseTable, Message, TcpTransport, Transport, WorkerOpts, WorkerSummary,
};
use kernelgpt::fuzzer::fabric::{apply_patches, diff_boundary, encode_snapshots};
use kernelgpt::fuzzer::{
    CampaignConfig, CampaignMerge, CampaignResult, EpochPatch, Fault, FaultPlan, LeaseRunner,
    ShardSnapshot, ShardedCampaign,
};
use kernelgpt::syzlang::codec::{Reader, Writer};
use kernelgpt::syzlang::{ConstDb, SpecCache, SpecFile};
use kernelgpt::vkernel::{CoverageWordDiff, VKernel, MAX_COVERAGE_WORDS};
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

/// One campaign on both routes in lock-step, `workers` leases wide.
/// The live side is what `run_worker` and `TenantService` run: advance,
/// write the frame from live state, decode, validate, commit in place,
/// mark on the ack. The oracle side is the snapshot route: a snapshot
/// per shard, `diff_boundary` against the post-ack snapshots,
/// `apply_patches` and an all-full `apply_boundary` on a twin merge.
/// At every boundary the frames must be the same bytes and the two
/// committed states the same snapshots. With `regrant_after`, the last
/// range's lease is dropped once that boundary committed and a
/// replacement restored from the live merge's grant: its first frame
/// is full again, then it increments.
fn assert_live_route_is_the_oracle_route(
    (kernel, suite, consts): &(VKernel, Vec<SpecFile>, ConstDb),
    config: &CampaignConfig,
    shards: u32,
    workers: u32,
    regrant_after: Option<u64>,
) {
    let ctx = format!(
        "execs {} epoch {} top_k {} x{shards} shards x{workers} leases, regrant {regrant_after:?}",
        config.execs, config.hub_epoch, config.hub_top_k
    );
    let reference = ShardedCampaign::new(kernel, suite, consts, config.clone())
        .with_shards(shards)
        .run();
    let db = SpecCache::global().get_or_build(suite);
    let lowered = SpecCache::global().get_or_lower(&db, consts);
    let table = LeaseTable::new(shards, workers);
    let fresh = |slot: usize| {
        let (lo, hi) = table.range(slot);
        LeaseRunner::fresh(&lowered, config, shards, lo, hi)
    };
    let mut live: Vec<LeaseRunner> = (0..table.len()).map(fresh).collect();
    let mut oracle: Vec<LeaseRunner> = (0..table.len()).map(fresh).collect();
    let mut baselines: Vec<Option<Vec<ShardSnapshot>>> = vec![None; table.len()];
    let mut merge = CampaignMerge::new(config.clone(), shards);
    let mut twin = CampaignMerge::new(config.clone(), shards);
    let committed = |merge: &CampaignMerge| {
        let mut out = Vec::new();
        encode_snapshots(&merge.snapshots(0, shards), &mut Writer::new(&mut out));
        out
    };
    let mut frame = Vec::new();
    let (mut full_frames, mut incremental_frames) = (0, 0);
    loop {
        let boundary = merge.epochs_done() + 1;
        let (mut ranges, mut rebuilt) = (Vec::new(), Vec::new());
        for slot in 0..table.len() {
            let lease_id = slot as u64 + 1;
            live[slot].advance(kernel);
            Message::write_delta_frame(&mut frame, 0, lease_id, boundary, |w| {
                live[slot].write_boundary(kernel, w);
            });
            let deltas = oracle[slot].run_epoch(kernel);
            let payload = match &baselines[slot] {
                Some(base) => {
                    incremental_frames += 1;
                    let patches = diff_boundary(base, deltas.clone()).expect("diffable");
                    rebuilt.extend(apply_patches(base, patches.clone()).expect("patches fit"));
                    DeltaPayload::Incremental(patches)
                }
                None => {
                    full_frames += 1;
                    rebuilt.extend(deltas.clone());
                    DeltaPayload::Full(deltas)
                }
            };
            let want = Message::Delta {
                tenant: 0,
                lease_id,
                boundary,
                deltas: payload,
            };
            assert_eq!(
                frame,
                want.to_frame(),
                "{ctx}: boundary {boundary} slot {slot}"
            );
            let Ok(Message::Delta { deltas, .. }) = Message::from_frame(&frame) else {
                panic!("{ctx}: the live frame does not decode");
            };
            merge.validate(&deltas).expect("the live payload fits");
            ranges.push(deltas);
        }
        let outcome = merge.commit(ranges).expect("live commit");
        let twin_outcome = twin.apply_boundary(rebuilt).expect("oracle merge");
        assert_eq!(
            merge.snapshots(0, shards),
            twin.snapshots(0, shards),
            "{ctx}: committed state after boundary {boundary}"
        );
        assert_eq!(
            committed(&merge),
            committed(&twin),
            "{ctx}: boundary {boundary}"
        );
        assert_eq!(
            outcome.seeds, twin_outcome.seeds,
            "{ctx}: boundary {boundary}"
        );
        assert_eq!(outcome.finished, twin_outcome.finished);
        if outcome.finished {
            break;
        }
        for slot in 0..table.len() {
            live[slot].acked(&outcome.seeds);
            oracle[slot].import(&outcome.seeds);
            baselines[slot] = Some(oracle[slot].snapshots());
        }
        if regrant_after == Some(boundary) {
            let last = table.len() - 1;
            let (lo, hi) = table.range(last);
            live[last] = LeaseRunner::restore(&lowered, config, merge.snapshots(lo, hi)).unwrap();
            oracle[last] = LeaseRunner::restore(&lowered, config, twin.snapshots(lo, hi)).unwrap();
            baselines[last] = None;
        }
    }
    assert_eq!(merge.finish().expect("finished"), reference, "{ctx}");
    let boundaries = twin.epochs_done();
    let regrants = usize::from(regrant_after.is_some_and(|b| b < boundaries));
    assert_eq!(
        full_frames,
        table.len() + regrants,
        "{ctx}: one full frame per lease"
    );
    assert_eq!(
        full_frames + incremental_frames,
        table.len() * boundaries as usize,
        "{ctx}"
    );
}

/// The frame the worker path writes is the oracle's frame, and the
/// state the coordinator path commits is the oracle's state, at every
/// boundary — over both suites, shard counts that divide nothing
/// evenly, every lease width, and the budgets where an epoch loop goes
/// wrong: an uneven split, a final epoch of one exec, fewer execs than
/// shards, a hub that publishes nothing.
#[test]
fn the_live_frame_and_the_committed_state_equal_the_oracles_at_every_boundary() {
    let dm = {
        let kc = KernelCorpus::from_blueprints(vec![flagship::dm()]);
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        (
            VKernel::boot(vec![flagship::dm()]),
            suite,
            kc.consts().clone(),
        )
    };
    let dc = deepchain_setup();
    let budgets = |shards: u64| {
        let cfg = |execs, hub_top_k| CampaignConfig {
            execs,
            seed: 11 + shards,
            max_prog_len: 8,
            hub_epoch: 25,
            hub_top_k,
            ..CampaignConfig::default()
        };
        [
            // All shards but the last run one exec longer.
            cfg(61 * shards - 1, 4),
            // Two whole epochs, then an epoch of one exec.
            cfg(51 * shards, 4),
            // Some shard — with one shard, every shard — never runs.
            cfg(shards - 1, 4),
            cfg(75 * shards, 0),
        ]
    };
    for env in [&dm, &dc] {
        for shards in [1u32, 3, 8] {
            for (i, config) in budgets(u64::from(shards)).iter().enumerate() {
                for workers in [1u32, 2, 4] {
                    // Half the cells lose and re-grant their last lease.
                    let regrant = (i + workers as usize).is_multiple_of(2).then_some(1);
                    assert_live_route_is_the_oracle_route(env, config, shards, workers, regrant);
                }
            }
        }
    }
    // And once at the size the rest of this file runs, where crashes
    // are captured, minimized and counted along the way: a regrant
    // after the second of three boundaries.
    assert_live_route_is_the_oracle_route(&dc, &cfg(7), SHARDS, 2, Some(2));
    assert_live_route_is_the_oracle_route(&dc, &cfg(1), SHARDS, 4, None);
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

/// What a [`Rewriting`] transport does to a frame: `None` passes it
/// on untouched, `Some` sends the replacement instead — once; every
/// later frame (the resend of the original included) goes out clean.
type Rewrite = Arc<dyn Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// A transport that offers every outbound frame to `rewrite` until it
/// takes one — damage the checksum must catch, or a well-formed frame
/// the protocol must refuse.
struct Rewriting<T: Transport> {
    inner: T,
    rewrite: Option<Rewrite>,
}

impl<T: Transport> Transport for Rewriting<T> {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        if let Some(rewritten) = self.rewrite.as_ref().and_then(|rewrite| rewrite(frame)) {
            self.rewrite = None;
            return self.inner.send(&rewritten);
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.recv_timeout(timeout)
    }
}

/// The worker's own delta frame, taken apart.
fn delta_of(frame: &[u8]) -> Option<(u32, u64, u64, DeltaPayload)> {
    match Message::from_frame(frame) {
        Ok(Message::Delta {
            tenant,
            lease_id,
            boundary,
            deltas,
        }) => Some((tenant, lease_id, boundary, deltas)),
        _ => None,
    }
}

/// A two-worker campaign in which one outbound frame of the first
/// worker — the first one `rewrite` takes — is replaced in flight;
/// later workers, the replacement of a revoked lease included, run
/// clean. Returns the single-process reference beside the fabric
/// result.
fn run_with_a_frame_rewritten(
    rewrite: impl Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
) -> (CampaignResult, CampaignResult, FabricStats) {
    let rewrite: Rewrite = Arc::new(rewrite);
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
            let rewrite = (spawned == 0).then(|| Arc::clone(&rewrite));
            spawned += 1;
            let lowered = Arc::clone(&lowered);
            let kernel = &kernel;
            scope.spawn(move || {
                let transport = Rewriting {
                    inner: worker_end,
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
    let (reference, result, stats) = run_with_a_frame_rewritten(|frame| {
        delta_of(frame)?;
        let mut damaged = frame.to_vec();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x40;
        Some(damaged)
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
    let (reference, result, stats) = run_with_a_frame_rewritten(|frame| {
        let (_, lease_id, boundary, deltas) = delta_of(frame)?;
        let misrouted = Message::Delta {
            tenant: 7,
            lease_id,
            boundary,
            deltas,
        };
        Some(misrouted.to_frame())
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

/// What a hostile worker does to the patches of one increment.
type Edit = fn(&mut Vec<EpochPatch>);

/// Replace the first *incremental* delta the first worker sends with
/// `edit`'s version of its patches (same tenant, lease and boundary).
fn run_with_an_increment_edited(edit: Edit) -> (CampaignResult, CampaignResult, FabricStats) {
    run_with_a_frame_rewritten(move |frame| {
        let (tenant, lease_id, boundary, deltas) = delta_of(frame)?;
        let DeltaPayload::Incremental(mut patches) = deltas else {
            return None;
        };
        edit(&mut patches);
        let edited = Message::Delta {
            tenant,
            lease_id,
            boundary,
            deltas: DeltaPayload::Incremental(patches),
        };
        Some(edited.to_frame())
    })
}

/// A well-formed increment that does not fit the committed state it
/// claims to patch — or the range it was leased — is a protocol
/// violation: refused when it arrives (counted rejected, the lease
/// revoked, the worker struck), never stashed, never applied. The
/// committed state the replacement is granted is untouched by it, so
/// the campaign still ends on the single-process result. (That the
/// refusal leaves the committed bytes alone is pinned where they can
/// be read: `kgpt_fuzzer::fabric`'s unit tests.)
#[test]
fn a_patch_that_does_not_fit_costs_its_sender_the_lease_not_the_campaign() {
    /// The patch with the most survivors to tamper with.
    fn most_kept(patches: &mut [EpochPatch]) -> &mut EpochPatch {
        let most = patches.iter_mut().max_by_key(|p| p.kept.len());
        let most = most.expect("a range has a shard");
        assert!(most.kept.len() >= 2, "needs two survivors");
        most
    }
    let misfits: [(&str, Edit); 5] = [
        ("kept index out of range", |p| {
            most_kept(p).kept[1].index = 100_000;
        }),
        ("kept indices descending", |p| most_kept(p).kept.swap(0, 1)),
        ("kept index repeated", |p| {
            let kept = &mut most_kept(p).kept;
            kept[1].index = kept[0].index;
        }),
        // Worker 0 holds shards 0..4 of 8.
        ("a shard outside the range", |p| p[3].shard_id = 4),
        ("fewer patches than the range has shards", |p| {
            p.pop();
        }),
    ];
    for (what, edit) in misfits {
        let (reference, result, stats) = run_with_an_increment_edited(edit);
        assert_eq!(reference, result, "{what}");
        assert!(stats.rejected_frames >= 1, "{what}: counted as rejected");
        assert!(
            stats.expired_leases >= 1,
            "{what}: the sender loses its lease"
        );
        assert_eq!(stats.boundaries, 3, "{what}: every boundary merged once");
    }
}

/// An increment for the first boundary of a campaign has nothing to
/// patch: whatever it says, it is a violation.
#[test]
fn an_increment_before_any_boundary_committed_is_refused() {
    // What a worker that believed itself acked at boundary 0 would
    // send for worker 0's range: right ids, right count, well formed.
    let (kernel, suite, consts) = deepchain_setup();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let mut premature = LeaseRunner::fresh(&lowered, &cfg(7), SHARDS, 0, SHARDS / 2);
    premature.acked(&[]);
    premature.advance(&kernel);
    let mut bytes = Vec::new();
    premature.write_boundary(&kernel, &mut Writer::new(&mut bytes));
    let increment = DeltaPayload::decode(&mut Reader::new(&bytes)).expect("its own payload");
    assert_eq!(increment.kind(), DeltaKind::Incremental);
    assert_eq!(increment.shard_ids(), [0, 1, 2, 3]);

    let (reference, result, stats) = run_with_a_frame_rewritten(move |frame| {
        let (tenant, lease_id, boundary, deltas) = delta_of(frame)?;
        assert_eq!((boundary, deltas.kind()), (1, DeltaKind::Full));
        let premature = Message::Delta {
            tenant,
            lease_id,
            boundary,
            deltas: increment.clone(),
        };
        Some(premature.to_frame())
    });
    assert_eq!(reference, result);
    assert!(stats.rejected_frames >= 1, "counted as rejected");
    assert!(stats.expired_leases >= 1, "the sender loses its lease");
}

/// A sparse coverage run past `MAX_COVERAGE_WORDS` never reaches the
/// validator: the frame dies in the decoder, before anything is sized
/// from it, like any damaged frame — counted, and recovered by the
/// worker's resend of the frame it actually wrote.
#[test]
fn a_coverage_run_past_the_bound_dies_in_the_decoder() {
    let (reference, result, stats) = run_with_an_increment_edited(|p| {
        p[0].cov_diff = CoverageWordDiff::Sparse(vec![(MAX_COVERAGE_WORDS as u32, vec![1])]);
    });
    assert_eq!(reference, result);
    assert!(stats.rejected_frames >= 1, "counted as rejected");
    assert_eq!(stats.expired_leases, 0, "damage is not a violation");
    assert_eq!(stats.boundaries, 3);
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
