//! The distributed campaign fabric, end to end: the same two-suite
//! comparison as `fuzz_campaign`, but split across a coordinator
//! process and N worker processes over localhost TCP — with the
//! merged `RESULT` lines **bit-identical** to the single-process run.
//!
//! Run as either role (positional arg or `FABRIC_ROLE`):
//!
//! ```text
//! cargo run --release --example fabric_campaign -- coordinator &
//! cargo run --release --example fabric_campaign -- worker &
//! cargo run --release --example fabric_campaign -- worker
//! ```
//!
//! For a machine-spanning run, bind the coordinator to a reachable
//! interface with `--listen` and point the workers' `FABRIC_ADDR` at
//! it (workers retry refused connections with bounded deterministic
//! backoff, so start order does not matter):
//!
//! ```text
//! host-a$ cargo run --release --example fabric_campaign -- coordinator --listen 0.0.0.0:45117
//! host-b$ FABRIC_ADDR=host-a:45117 cargo run --release --example fabric_campaign -- worker
//! ```
//!
//! Both roles rebuild the identical spec suites from the same
//! deterministic oracle; the wire carries only config, snapshots, and
//! deltas — never specs. After a worker's first acked boundary its
//! deltas ship as *increments* against the agreed baseline (see the
//! `FABRIC` line's `delta_bytes`); the first boundary of any lease —
//! fresh or reassigned — is always a full frame. Workers may be
//! killed (`SIGKILL`) mid-lease and replaced at any time: the
//! coordinator reassigns the range from the last committed boundary
//! and the result does not change, which is exactly what the CI
//! `fabric-smoke` job does to this binary.
//!
//! A worker that never reaches a coordinator at all exits with
//! status 1 and a named `FABRIC_UNREACHABLE` error once its
//! connection-attempt budget is spent — a dead address is an
//! operator error, not a finished campaign.
//!
//! The third role, `soak`, is the multi-tenant chaos soak: three
//! tenants (one budget-starved) share one in-process
//! `TenantService` and a worker pool that is flapped, fed byzantine
//! frames, starved of frames, and killed mid-lease. It prints one
//! `REFERENCE` and one `RESULT` line per tenant with the identical
//! field set — the CI `chaos-soak` job diffs the two — and exits
//! nonzero if any tenant diverges from its single-process reference:
//!
//! ```text
//! SOAK_SEED=41 cargo run --release --example fabric_campaign -- soak
//! ```
//!
//! Flags (after the role):
//!
//! * `--listen <addr>` (coordinator) — bind address, overriding
//!   `FABRIC_ADDR`; use `0.0.0.0:<port>` to accept non-loopback
//!   workers.
//!
//! Environment knobs:
//!
//! * `FABRIC_ADDR` — coordinator listen / worker connect address
//!   (default `127.0.0.1:45117`);
//! * `FABRIC_WORKERS` — worker range slots (default 2); in the soak,
//!   worker slots per tenant;
//! * `FUZZ_EXECS` — per-campaign exec budget (default 20000), same
//!   meaning as in `fuzz_campaign`;
//! * `SOAK_SEED` (soak) — base campaign seed for the three tenants
//!   (default 41).

use kernelgpt::core::KernelGpt;
use kernelgpt::csrc::{flagship, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::fabric::{
    flap_worker, run_worker, ChannelTransport, Coordinator, CoordinatorOpts, HealthOpts,
    ServiceOpts, TcpTransport, TenantQuota, TenantService, TenantSpec, Transport, WorkerOpts,
};
use kernelgpt::fuzzer::{reference_run, CampaignConfig, CampaignResult, Fault, FaultPlan};
use kernelgpt::llm::{ModelKind, OracleModel};
use kernelgpt::syzlang::{lowered::LoweredDb, ConstDb, SpecCache, SpecFile};
use kernelgpt::vkernel::VKernel;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 8;

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn addr() -> String {
    std::env::var("FABRIC_ADDR").unwrap_or_else(|_| "127.0.0.1:45117".into())
}

fn campaign_config(execs: u64) -> CampaignConfig {
    // Must match `fuzz_campaign` exactly: the CI smoke diffs this
    // binary's RESULT lines against that one's.
    CampaignConfig {
        execs,
        seed: 1,
        hub_epoch: 2_048,
        hub_top_k: 4,
        ..CampaignConfig::default()
    }
}

/// Both roles derive the identical suites from the same deterministic
/// oracle — the wire never carries specs, only their fingerprint.
fn build_suites() -> (VKernel, ConstDb, Vec<(&'static str, Vec<SpecFile>)>) {
    let blueprints = vec![flagship::dm(), flagship::cec(), flagship::sg()];
    let kc = KernelCorpus::from_blueprints(blueprints.clone());
    let kernel = VKernel::boot(blueprints);
    let handlers = find_handlers(kc.corpus());
    let existing = kc.existing_suite();
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let report = KernelGpt::new(&model, kc.corpus()).generate_all(&handlers, kc.consts());
    let mut augmented = existing.clone();
    augmented.extend(report.specs());
    (
        kernel,
        kc.consts().clone(),
        vec![("existing", existing), ("existing+KernelGPT", augmented)],
    )
}

fn run_coordinator(listen: Option<String>) {
    let execs = env_u64("FUZZ_EXECS", 20_000);
    let workers = u32::try_from(env_u64("FABRIC_WORKERS", 2)).unwrap_or(2);
    let listen = listen.unwrap_or_else(addr);
    let listener = TcpListener::bind(&listen).expect("bind coordinator address");
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    println!("COORDINATOR listening on {listen}");
    let (_kernel, _consts, suites) = build_suites();
    for (name, suite) in suites {
        if suite.is_empty() {
            println!("{name:<20}: no specs, skipping");
            continue;
        }
        let spec_fp = SpecCache::fingerprint(&suite);
        let coordinator = Coordinator::new(
            campaign_config(execs),
            CoordinatorOpts {
                shards: SHARDS,
                workers,
                lease_timeout: Duration::from_secs(30),
                spec_fp,
            },
        );
        // One campaign per suite over the same listener: connections
        // arriving between campaigns wait in the backlog until the
        // next campaign's coordinator wants a registrant.
        let mut accept = || -> Option<Box<dyn Transport>> {
            match listener.accept() {
                Ok((stream, _)) => Some(Box::new(TcpTransport::new(stream)) as Box<dyn Transport>),
                Err(_) => None,
            }
        };
        let (result, stats) = coordinator.run(&mut accept).expect("coordinator failed");
        println!(
            "{name:<20}: {:>5} blocks, {} unique crashes over {} execs (corpus {})",
            result.blocks(),
            result.unique_crashes(),
            result.execs,
            result.corpus_size,
        );
        println!(
            "FABRIC {name}: boundaries={} delta_bytes={} merge_ms={} expired_leases={} \
             redelivered={} rejected={}",
            stats.boundaries,
            stats.delta_bytes,
            stats.merge_nanos / 1_000_000,
            stats.expired_leases,
            stats.redelivered_frames,
            stats.rejected_frames,
        );
        // The same stable machine-checkable line as `fuzz_campaign`:
        // the fabric-smoke CI job diffs the two.
        println!(
            "RESULT {name}: blocks={} unique_crashes={} corpus={} execs={} fuel_exhausted={} triage={}",
            result.blocks(),
            result.unique_crashes(),
            result.corpus_size,
            result.execs,
            result.fuel_exhausted,
            result.triage.len(),
        );
    }
}

fn run_worker_role() {
    let (kernel, consts, suites) = build_suites();
    // Compile + lower every suite up front; the grant picks one by
    // fingerprint.
    let lowered: Vec<(u64, Arc<LoweredDb>)> = suites
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(_, suite)| {
            let db = SpecCache::global().get_or_build(suite);
            (
                SpecCache::fingerprint(suite),
                SpecCache::global().get_or_lower(&db, &consts),
            )
        })
        .collect();
    let mut sessions = 0u64;
    loop {
        // Bounded deterministic backoff on refused connections: a
        // generous budget before the first session (the coordinator
        // may still be compiling its suites), a short one between
        // campaigns (a few refusals in a row mean it is done).
        let (attempts, base) = if sessions == 0 {
            (40, Duration::from_millis(100))
        } else {
            (8, Duration::from_millis(100))
        };
        let Ok(transport) =
            TcpTransport::connect_with_backoff(addr(), attempts, base, Duration::from_secs(2))
        else {
            if sessions == 0 {
                // Never reached a coordinator at all: a dead address
                // is an operator error, not a finished campaign.
                eprintln!(
                    "FABRIC_UNREACHABLE: no coordinator at {} after {attempts} connection attempts",
                    addr()
                );
                std::process::exit(1);
            }
            break;
        };
        let opts = WorkerOpts {
            reply_timeout: Duration::from_secs(2),
            on_grant: Some(Box::new(|slot, lo, hi, boundary| {
                println!("LEASE slot={slot} shards={lo}..{hi} from_boundary={boundary}");
            })),
            on_boundary: Some(Box::new(|boundary| {
                println!("DELTA boundary={boundary}");
            })),
            ..WorkerOpts::default()
        };
        let kernel = &kernel;
        let lowered = &lowered;
        let summary = run_worker(Box::new(transport), opts, move |fp| {
            lowered
                .iter()
                .find(|(have, _)| *have == fp)
                .map(|(_, l)| (kernel, Arc::clone(l)))
        })
        .expect("worker protocol violation");
        sessions += 1;
        println!(
            "SESSION {} slot={:?} boundaries={} completed={}",
            sessions, summary.slot, summary.boundaries, summary.completed
        );
    }
    println!("WORKER done after {sessions} sessions");
}

/// What the n-th accepted connection in the soak runs.
#[derive(Clone)]
enum Spawn {
    /// A real worker session under this fault plan.
    Worker(FaultPlan),
    /// One flap cycle under this worker id: register, take whatever
    /// reply comes, drop the connection.
    Flap(u64),
}

/// The soak's boundary cadence scales with the exec budget so the
/// chaos always spans ~4 boundaries, whether CI runs it at smoke
/// scale or a full 20k-exec campaign.
fn soak_config(execs: u64, seed: u64) -> CampaignConfig {
    let hub_epoch = (execs / (u64::from(SHARDS) * 4)).clamp(16, 2_048);
    CampaignConfig {
        execs,
        seed,
        hub_epoch,
        hub_top_k: 4,
        ..CampaignConfig::default()
    }
}

/// One machine-checkable line per tenant. `REFERENCE` and `RESULT`
/// lines use the identical field set so CI can diff them with a
/// plain text substitution.
fn tenant_line(
    tag: &str,
    name: &str,
    result: &CampaignResult,
    boundaries: u64,
    budget_exhausted: bool,
) -> String {
    format!(
        "{tag} {name}: blocks={} unique_crashes={} corpus={} execs={} fuel_exhausted={} \
         triage={} boundaries={} budget_exhausted={}",
        result.blocks(),
        result.unique_crashes(),
        result.corpus_size,
        result.execs,
        result.fuel_exhausted,
        result.triage.len(),
        boundaries,
        budget_exhausted,
    )
}

/// The in-process multi-tenant chaos soak: three tenants (one
/// budget-starved) share a `TenantService` and a worker pool that is
/// flapped, fed byzantine frames, starved of frames, and killed
/// mid-lease — then every tenant's merged result is compared against
/// its single-process reference. Exits nonzero on any divergence.
fn run_soak() {
    let execs = env_u64("FUZZ_EXECS", 20_000);
    let seed0 = env_u64("SOAK_SEED", 41);
    let workers = u32::try_from(env_u64("FABRIC_WORKERS", 2))
        .unwrap_or(2)
        .max(1);
    println!("SOAK seed={seed0} execs={execs} workers_per_tenant={workers}");
    let (kernel, consts, mut suites) = build_suites();
    let (_, suite) = suites.pop().expect("augmented suite");
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, &consts);
    let spec_fp = SpecCache::fingerprint(&suite);
    let starve_quota = execs / 2;
    let configs: Vec<CampaignConfig> = (0..3u64).map(|i| soak_config(execs, seed0 + i)).collect();
    let references: Vec<_> = configs
        .iter()
        .enumerate()
        .map(|(i, config)| {
            let quota = (i == 1).then_some(starve_quota);
            reference_run(&kernel, &lowered, config, SHARDS, quota)
        })
        .collect();
    for (i, r) in references.iter().enumerate() {
        println!(
            "{}",
            tenant_line(
                "REFERENCE",
                &format!("tenant-{i}"),
                &r.result,
                r.boundaries,
                r.budget_exhausted,
            )
        );
    }

    // The fault matrix: one flapper striking every tenant into a
    // quarantine, one byzantine worker, one lossy/duplicating worker,
    // and one worker killed at boundary 2 wherever it is seated.
    // Spawns beyond the script are clean replacements.
    let kill_everywhere = (0..workers).fold(FaultPlan::none(), |plan, slot| {
        plan.with(Fault::WorkerKill {
            worker: slot,
            boundary: 2,
        })
    });
    let script = [
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
    ];

    let (results, stats) = std::thread::scope(|scope| {
        let mut service = TenantService::new(ServiceOpts {
            lease_timeout: Duration::from_secs(10),
            health: HealthOpts {
                strike_limit: 3,
                quarantine_grants: 64,
                worker_cap: 0,
                park_grants: 2,
            },
        });
        for (i, config) in configs.iter().enumerate() {
            service
                .admit(TenantSpec {
                    name: format!("tenant-{i}"),
                    config: config.clone(),
                    shards: SHARDS,
                    workers,
                    spec_fp,
                    quota: if i == 1 {
                        TenantQuota::execs(starve_quota)
                    } else {
                        TenantQuota::unlimited()
                    },
                })
                .expect("admit");
        }
        let mut spawned = 0usize;
        let mut accept = || -> Option<Box<dyn Transport>> {
            let spawn = script
                .get(spawned)
                .cloned()
                .unwrap_or_else(|| Spawn::Worker(FaultPlan::none()));
            spawned += 1;
            let (service_end, worker_end) = ChannelTransport::pair();
            let kernel = &kernel;
            let lowered = Arc::clone(&lowered);
            scope.spawn(move || match spawn {
                Spawn::Worker(plan) => {
                    let opts = WorkerOpts {
                        faults: plan,
                        reply_timeout: Duration::from_millis(500),
                        ..WorkerOpts::default()
                    };
                    run_worker(Box::new(worker_end), opts, |fp| {
                        (fp == spec_fp).then_some((kernel, lowered))
                    })
                    .expect("worker protocol violation");
                }
                Spawn::Flap(worker_id) => {
                    flap_worker(Box::new(worker_end), worker_id, Duration::from_secs(10));
                }
            });
            Some(Box::new(service_end))
        };
        service.run(&mut accept).expect("tenant service failed")
    });

    println!(
        "TENANCY grants={} parked={} quarantines={} refusals={} grants_per_tenant={:?}",
        stats.grants,
        stats.parked,
        stats.quarantines,
        stats.quarantine_refusals,
        stats.grants_per_tenant,
    );
    let mut mismatches = 0u32;
    for (i, (reference, tenant)) in references.iter().zip(&results).enumerate() {
        let name = format!("tenant-{i}");
        let line = tenant_line(
            "RESULT",
            &name,
            &tenant.result,
            tenant.boundaries,
            tenant.budget_exhausted,
        );
        println!("{line}");
        let want = tenant_line(
            "RESULT",
            &name,
            &reference.result,
            reference.boundaries,
            reference.budget_exhausted,
        );
        if line != want {
            eprintln!("SOAK MISMATCH {name}:\n  want {want}\n  got  {line}");
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("SOAK FAILED: {mismatches} tenant(s) diverged from their reference");
        std::process::exit(1);
    }
    println!(
        "SOAK ok: {} tenants bit-identical under chaos (seed={seed0})",
        results.len()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let role = args
        .next()
        .or_else(|| std::env::var("FABRIC_ROLE").ok())
        .unwrap_or_else(|| "coordinator".into());
    let mut listen: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--listen" => match args.next() {
                Some(a) => listen = Some(a),
                None => {
                    eprintln!("--listen requires an address, e.g. --listen 0.0.0.0:45117");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other:?}: only `--listen <addr>` is supported");
                std::process::exit(2);
            }
        }
    }
    match role.as_str() {
        "coordinator" => run_coordinator(listen),
        "worker" => {
            if listen.is_some() {
                eprintln!("--listen is a coordinator flag; workers use FABRIC_ADDR");
                std::process::exit(2);
            }
            run_worker_role();
        }
        "soak" => {
            if listen.is_some() {
                eprintln!("--listen is a coordinator flag; the soak runs in-process");
                std::process::exit(2);
            }
            run_soak();
        }
        other => {
            eprintln!("unknown role {other:?}: use `coordinator`, `worker`, or `soak`");
            std::process::exit(2);
        }
    }
}
