//! Multi-tenant fabric service properties: N named campaigns share
//! one coordinator process and one worker pool, and every tenant's
//! merged result stays **bit-identical** to its own single-process
//! reference — under fair-share scheduling, per-tenant budgets
//! (graceful boundary-aligned termination), worker quarantine, and
//! the full seeded chaos matrix at once.

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fabric::{
    flap_worker, run_worker, ChannelTransport, FlapOutcome, HealthOpts, ServiceOpts, ServiceStats,
    TenantQuota, TenantResult, TenantService, TenantSpec, Transport, WorkerOpts, WorkerSummary,
};
use kernelgpt::fuzzer::{reference_run, CampaignConfig, Fault, FaultPlan, ShardedCampaign};
use kernelgpt::syzlang::{ConstDb, SpecCache, SpecFile};
use kernelgpt::vkernel::VKernel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// 3000 execs / 8 shards at hub_epoch 125 = exactly 3 boundaries,
/// with `CampaignMerge::execs_done` = 1000 / 2000 / 3000 after
/// boundaries 1 / 2 / 3.
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

/// What the n-th accepted connection should run.
#[derive(Clone)]
enum Spawn {
    /// A real worker session under this fault plan.
    Worker(FaultPlan),
    /// One flap cycle under this worker id: register, take whatever
    /// reply comes, drop the connection.
    Flap(u64),
    /// Like `Flap`, but held back until some worker has an
    /// acknowledged boundary — by which point every earlier flap's
    /// disconnect has long been polled and struck, so the outcome is
    /// deterministic at any slot count.
    FlapAfterBoundary(u64),
}

/// Run a whole multi-tenant service through the real protocol stack —
/// service and workers on in-memory channel transports, workers
/// spawned on demand per `script` (indices beyond it run clean).
fn run_service(
    kernel: &VKernel,
    suite: &[SpecFile],
    consts: &ConstDb,
    tenants: &[(CampaignConfig, u32, TenantQuota)],
    opts: ServiceOpts,
    script: &[Spawn],
) -> (
    Vec<TenantResult>,
    ServiceStats,
    Vec<WorkerSummary>,
    Vec<FlapOutcome>,
) {
    let db = SpecCache::global().get_or_build(suite);
    let lowered = SpecCache::global().get_or_lower(&db, consts);
    let spec_fp = SpecCache::fingerprint(suite);
    let summaries = Mutex::new(Vec::new());
    let flaps = Mutex::new(Vec::new());
    let boundary_seen = Arc::new(AtomicU64::new(0));
    let (results, stats) = std::thread::scope(|scope| {
        let mut service = TenantService::new(opts);
        for (i, (config, workers, quota)) in tenants.iter().enumerate() {
            service
                .admit(TenantSpec {
                    name: format!("tenant-{i}"),
                    config: config.clone(),
                    shards: SHARDS,
                    workers: *workers,
                    spec_fp,
                    quota: *quota,
                })
                .expect("admit");
        }
        let mut spawned = 0usize;
        let mut accepted = 0usize;
        let mut held_flap: Option<u64> = None;
        let mut accept = || -> Option<Box<dyn Transport>> {
            // Flap threads finish in any order; outcomes are reported
            // in the order the service accepted them.
            accepted += 1;
            let accepted = accepted;
            let gate_open = boundary_seen.load(Ordering::SeqCst) > 0;
            let spawn = if gate_open && held_flap.is_some() {
                Spawn::Flap(held_flap.take().unwrap())
            } else {
                loop {
                    let next = script
                        .get(spawned)
                        .cloned()
                        .unwrap_or_else(|| Spawn::Worker(FaultPlan::none()));
                    spawned += 1;
                    match next {
                        // Stash it and keep serving the rest of the
                        // script so the pool never starves waiting on
                        // the gate.
                        Spawn::FlapAfterBoundary(id) if !gate_open => held_flap = Some(id),
                        Spawn::FlapAfterBoundary(id) => break Spawn::Flap(id),
                        other => break other,
                    }
                }
            };
            let (service_end, worker_end) = ChannelTransport::pair();
            let lowered = Arc::clone(&lowered);
            let summaries = &summaries;
            let flaps = &flaps;
            let boundary_seen = Arc::clone(&boundary_seen);
            scope.spawn(move || match spawn {
                Spawn::Worker(plan) => {
                    let opts = WorkerOpts {
                        faults: plan,
                        reply_timeout: Duration::from_millis(250),
                        on_boundary: Some(Box::new(move |b| {
                            boundary_seen.fetch_max(b, Ordering::SeqCst);
                        })),
                        ..WorkerOpts::default()
                    };
                    let summary = run_worker(Box::new(worker_end), opts, |fp| {
                        (fp == spec_fp).then_some((kernel, lowered))
                    })
                    .expect("worker protocol violation");
                    summaries.lock().unwrap().push(summary);
                }
                Spawn::Flap(worker_id) | Spawn::FlapAfterBoundary(worker_id) => {
                    let outcome =
                        flap_worker(Box::new(worker_end), worker_id, Duration::from_secs(10));
                    flaps.lock().unwrap().push((accepted, outcome));
                }
            });
            Some(Box::new(service_end))
        };
        service.run(&mut accept).expect("service")
    });
    (results, stats, summaries.into_inner().unwrap(), {
        let mut flaps = flaps.into_inner().unwrap();
        flaps.sort_by_key(|&(accepted, _)| accepted);
        flaps.into_iter().map(|(_, outcome)| outcome).collect()
    })
}

/// Three tenants with different seeds and different worker counts
/// (1, 2, and 4) share one pool: every tenant's result is
/// bit-identical to its single-process `ShardedCampaign`, and the
/// round-robin grant ledger matches each tenant's demand exactly.
#[test]
fn three_tenants_at_mixed_worker_counts_are_each_bit_identical() {
    let (kernel, suite, consts) = deepchain_setup();
    let seeds = [1u64, 7, 0xDEAD_BEEF];
    let workers = [1u32, 2, 4];
    let tenants: Vec<_> = seeds
        .iter()
        .zip(workers)
        .map(|(&seed, w)| (cfg(seed), w, TenantQuota::unlimited()))
        .collect();
    let (results, stats, summaries, flaps) = run_service(
        &kernel,
        &suite,
        &consts,
        &tenants,
        ServiceOpts {
            lease_timeout: Duration::from_secs(60),
            ..ServiceOpts::default()
        },
        &[],
    );
    assert_eq!(results.len(), 3);
    for (i, (&seed, result)) in seeds.iter().zip(&results).enumerate() {
        let reference = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
            .with_shards(SHARDS)
            .run();
        assert_eq!(reference, result.result, "tenant {i}");
        assert_eq!(result.tenant, u32::try_from(i).unwrap());
        assert_eq!(result.name, format!("tenant-{i}"));
        assert!(!result.budget_exhausted, "tenant {i}: unlimited quota");
        assert_eq!(result.boundaries, 3, "tenant {i}");
        assert_eq!(result.stats.rejected_frames, 0, "tenant {i}");
        assert_eq!(result.stats.expired_leases, 0, "tenant {i}");
    }
    assert_eq!(stats.grants, 7, "one grant per requested range slot");
    assert_eq!(
        stats.grants_per_tenant,
        vec![1, 2, 4],
        "round-robin must match each tenant's demand"
    );
    assert_eq!(stats.parked, 0);
    assert_eq!(stats.quarantines, 0);
    assert_eq!(summaries.len(), 7);
    assert!(summaries.iter().all(|s| s.completed));
    assert!(flaps.is_empty());
}

/// A tenant whose exec quota dries up mid-campaign terminates
/// gracefully at the next boundary: its workers all receive `Finish`
/// (no surrender), the result is marked `budget_exhausted`, and it is
/// bit-identical to an unlimited run halted at the same boundary —
/// while the co-tenant runs to natural completion untouched.
#[test]
fn budget_starved_tenant_terminates_gracefully_at_a_boundary() {
    let (kernel, suite, consts) = deepchain_setup();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    // Quota 1500 is crossed by the boundary-2 commit (execs_done
    // 2000): the tenant must stop there, one boundary short.
    let quota = TenantQuota::execs(1500);
    let starved_ref = reference_run(&kernel, &lowered, &cfg(7), SHARDS, Some(1500));
    assert!(starved_ref.budget_exhausted);
    assert_eq!(starved_ref.boundaries, 2);
    let tenants = vec![(cfg(1), 2, TenantQuota::unlimited()), (cfg(7), 2, quota)];
    let (results, stats, summaries, _) = run_service(
        &kernel,
        &suite,
        &consts,
        &tenants,
        ServiceOpts {
            lease_timeout: Duration::from_secs(60),
            ..ServiceOpts::default()
        },
        &[],
    );
    let unlimited_ref = ShardedCampaign::new(&kernel, &suite, &consts, cfg(1))
        .with_shards(SHARDS)
        .run();
    assert_eq!(unlimited_ref, results[0].result, "unlimited tenant");
    assert!(!results[0].budget_exhausted);
    assert_eq!(results[0].boundaries, 3);

    assert_eq!(starved_ref.result, results[1].result, "starved tenant");
    assert!(
        results[1].budget_exhausted,
        "the starved tenant must be marked budget_exhausted"
    );
    assert_eq!(results[1].boundaries, starved_ref.boundaries);
    assert_eq!(
        results[1].usage.execs, 2000,
        "execs charged at the terminating boundary"
    );
    assert!(results[1].usage.utilization_permille() >= 1000);
    assert_eq!(
        results[1].stats.expired_leases, 0,
        "graceful termination releases leases without expiring them"
    );
    assert_eq!(summaries.len(), 4);
    assert!(
        summaries.iter().all(|s| s.completed),
        "every worker must exit via Finish, not surrender: {summaries:?}"
    );
    assert_eq!(stats.quarantines, 0);
}

/// A worker that flaps (registers, takes a lease, disconnects)
/// accumulates strikes and is quarantined: its next registration is
/// refused with `Retry {{ quarantined: true }}` and the exact
/// cooldown, while a healthy replacement finishes the campaign with
/// the result unchanged.
#[test]
fn flapping_worker_is_quarantined_and_refused_for_the_cooldown() {
    let (kernel, suite, consts) = deepchain_setup();
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, cfg(1))
        .with_shards(SHARDS)
        .run();
    let tenants = vec![(cfg(1), 1, TenantQuota::unlimited())];
    // Three flaps trip the strike limit; the fourth registration must
    // be refused. Everything after the script runs clean.
    let script = vec![
        Spawn::Flap(77),
        Spawn::Flap(77),
        Spawn::Flap(77),
        Spawn::Flap(77),
    ];
    let (results, stats, summaries, flaps) = run_service(
        &kernel,
        &suite,
        &consts,
        &tenants,
        ServiceOpts {
            lease_timeout: Duration::from_secs(60),
            health: HealthOpts {
                strike_limit: 3,
                quarantine_grants: 8,
                worker_cap: 0,
                park_grants: 2,
            },
        },
        &script,
    );
    assert_eq!(reference, results[0].result, "flapped campaign");
    assert_eq!(flaps.len(), 4);
    assert!(
        flaps[..3]
            .iter()
            .all(|f| matches!(f, FlapOutcome::Granted { .. })),
        "the first three flaps must each take (and abandon) a lease: {flaps:?}"
    );
    match flaps[3] {
        FlapOutcome::Refused(advice) => {
            assert!(advice.quarantined, "the refusal must name the quarantine");
            // Quarantined at grant cycle 3 for 8 cycles; refused
            // before any further grant: exactly 8 remaining.
            assert_eq!(advice.after_grants, 8);
        }
        ref other => panic!("fourth flap must be refused, got {other:?}"),
    }
    assert_eq!(stats.quarantines, 1);
    assert!(stats.quarantine_refusals >= 1);
    assert!(
        results[0].stats.expired_leases >= 3,
        "each abandoned lease must be revoked"
    );
    assert!(summaries.iter().any(|s| s.completed));
}

/// Registrations beyond the worker cap are parked with a retry-after
/// grant — the worker gets `Retry {{ quarantined: false }}` and the
/// declared park delay, never a silent drop — and the pool still
/// drives every tenant to its bit-identical result.
#[test]
fn registrations_beyond_the_worker_cap_are_parked_with_retry_advice() {
    let (kernel, suite, consts) = deepchain_setup();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let spec_fp = SpecCache::fingerprint(&suite);
    let tenants = [(cfg(1), 1u32), (cfg(7), 1u32)];
    let summaries = Mutex::new(Vec::<WorkerSummary>::new());
    let first_done = AtomicBool::new(false);
    let (results, stats) = std::thread::scope(|scope| {
        let mut service = TenantService::new(ServiceOpts {
            lease_timeout: Duration::from_secs(60),
            health: HealthOpts {
                strike_limit: 3,
                quarantine_grants: 8,
                worker_cap: 1,
                park_grants: 2,
            },
        });
        for (i, (config, workers)) in tenants.iter().enumerate() {
            service
                .admit(TenantSpec {
                    name: format!("tenant-{i}"),
                    config: config.clone(),
                    shards: SHARDS,
                    workers: *workers,
                    spec_fp,
                    quota: TenantQuota::unlimited(),
                })
                .expect("admit");
        }
        let mut spawned = 0usize;
        let mut accept = || -> Option<Box<dyn Transport>> {
            // Worker A seats tenant 0 (the cap of one is now full);
            // worker B registers while A holds the only seat and must
            // be parked; worker C arrives only after A finished, so
            // the freed cap admits it for tenant 1.
            if spawned == 2 && !first_done.load(Ordering::SeqCst) {
                return None;
            }
            let (service_end, worker_end) = ChannelTransport::pair();
            spawned += 1;
            let lowered = Arc::clone(&lowered);
            let kernel = &kernel;
            let summaries = &summaries;
            let first_done = &first_done;
            scope.spawn(move || {
                let opts = WorkerOpts {
                    reply_timeout: Duration::from_millis(250),
                    ..WorkerOpts::default()
                };
                let summary = run_worker(Box::new(worker_end), opts, |fp| {
                    (fp == spec_fp).then_some((kernel, lowered))
                })
                .expect("worker protocol violation");
                if summary.completed {
                    first_done.store(true, Ordering::SeqCst);
                }
                summaries.lock().unwrap().push(summary);
            });
            Some(Box::new(service_end))
        };
        service.run(&mut accept).expect("service")
    });
    for (i, (config, _)) in tenants.iter().enumerate() {
        let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
            .with_shards(SHARDS)
            .run();
        assert_eq!(reference, results[i].result, "tenant {i}");
    }
    assert!(
        stats.parked >= 1,
        "the over-cap registration must be parked"
    );
    let summaries = summaries.into_inner().unwrap();
    let parked: Vec<_> = summaries.iter().filter_map(|s| s.retry).collect();
    assert_eq!(
        parked.len(),
        1,
        "exactly one worker was shed: {summaries:?}"
    );
    assert!(!parked[0].quarantined, "parked, not quarantined");
    assert_eq!(parked[0].after_grants, 2, "the declared park retry-after");
    assert_eq!(summaries.iter().filter(|s| s.completed).count(), 2);
}

/// The whole fault matrix at once, from a fixed seed layout: three
/// concurrent tenants; a flapping worker that earns quarantine (and a
/// refused re-registration); byzantine frames; dropped + duplicated
/// frames; a worker kill mid-campaign; and one tenant budget-starved.
/// Every tenant's result stays bit-identical to its single-process
/// reference — at one worker per tenant and at two.
#[test]
fn seeded_chaos_soak_preserves_every_tenants_result() {
    let (kernel, suite, consts) = deepchain_setup();
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let seeds = [1u64, 7, 0xDEAD_BEEF];
    let references: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let quota = if i == 1 { Some(1500) } else { None };
            reference_run(&kernel, &lowered, &cfg(seed), SHARDS, quota)
        })
        .collect();
    assert!(references[1].budget_exhausted);
    assert_eq!(references[1].boundaries, 2);
    assert!(
        references.iter().any(|r| !r.result.triage.is_empty()),
        "no crash triaged — the soak equivalence would be vacuous"
    );

    for workers in [1u32, 2] {
        let tenants: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let quota = if i == 1 {
                    TenantQuota::execs(1500)
                } else {
                    TenantQuota::unlimited()
                };
                (cfg(seed), workers, quota)
            })
            .collect();
        // Spawns 0..3: flapper 77 takes one lease per tenant and
        // abandons it — three strikes, quarantined. The next three
        // spawns carry the wire faults (the kill plan covers every
        // slot so the worker dies at boundary 2 wherever it is
        // seated). The comeback flap is gated on boundary progress:
        // by the time any boundary commits, every flap disconnect
        // has been polled and struck, so it is refused at any slot
        // count. Replacements beyond the script run clean.
        let kill_everywhere = (0..workers).fold(FaultPlan::none(), |plan, slot| {
            plan.with(Fault::WorkerKill {
                worker: slot,
                boundary: 2,
            })
        });
        let script = vec![
            Spawn::Flap(77),
            Spawn::Flap(77),
            Spawn::Flap(77),
            Spawn::Worker(FaultPlan::none().with(Fault::ByzantineFrames {
                from_nth: 1,
                count: 1,
            })),
            Spawn::Worker(
                FaultPlan::none()
                    .with(Fault::DropFrame { nth: 1 })
                    .with(Fault::DuplicateFrame { nth: 2 }),
            ),
            Spawn::Worker(kill_everywhere),
            Spawn::FlapAfterBoundary(77),
        ];
        let (results, stats, _summaries, flaps) = run_service(
            &kernel,
            &suite,
            &consts,
            &tenants,
            ServiceOpts {
                lease_timeout: Duration::from_secs(60),
                health: HealthOpts {
                    strike_limit: 3,
                    quarantine_grants: 64,
                    worker_cap: 0,
                    park_grants: 2,
                },
            },
            &script,
        );
        for (i, (reference, result)) in references.iter().zip(&results).enumerate() {
            assert_eq!(
                reference.result, result.result,
                "soak x{workers} tenant {i}"
            );
            assert_eq!(
                result.boundaries, reference.boundaries,
                "soak x{workers} tenant {i}"
            );
            assert_eq!(
                result.budget_exhausted, reference.budget_exhausted,
                "soak x{workers} tenant {i}"
            );
        }
        assert!(
            results[1].budget_exhausted,
            "soak x{workers}: the starved tenant must be cut at its boundary"
        );
        assert_eq!(flaps.len(), 4, "soak x{workers}");
        assert_eq!(
            flaps
                .iter()
                .filter(|f| matches!(f, FlapOutcome::Granted { .. }))
                .count(),
            3,
            "soak x{workers}: three leases taken and abandoned: {flaps:?}"
        );
        match flaps[3] {
            FlapOutcome::Refused(advice) => {
                assert!(advice.quarantined, "soak x{workers}");
                assert!(
                    advice.after_grants >= 1,
                    "soak x{workers}: cooldown must still be running"
                );
            }
            ref other => panic!("soak x{workers}: comeback must be refused, got {other:?}"),
        }
        assert_eq!(stats.quarantines, 1, "soak x{workers}");
        assert!(stats.quarantine_refusals >= 1, "soak x{workers}");
        assert_eq!(stats.grants_per_tenant.len(), 3);
        assert!(
            stats
                .grants_per_tenant
                .iter()
                .all(|&g| g >= u64::from(workers)),
            "soak x{workers}: every tenant must get at least its demand: {stats:?}"
        );
        let rejected: u64 = results.iter().map(|r| r.stats.rejected_frames).sum();
        assert!(
            rejected >= 1,
            "soak x{workers}: the byzantine frame must be checksum-rejected"
        );
        let expired: u64 = results.iter().map(|r| r.stats.expired_leases).sum();
        assert!(
            expired >= 4,
            "soak x{workers}: three flaps and one kill must all be revoked, got {expired}"
        );
    }
}
