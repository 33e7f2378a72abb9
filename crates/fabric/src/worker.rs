//! The worker: claim a lease, run epochs, ship deltas, obey replies.
//!
//! A worker is a thin loop around [`LeaseRunner`] — the exact shard
//! stepper the single-process campaign drives — plus resend-based
//! delivery: `Register` is resent until a grant arrives, and a delta
//! is resent until its boundary is acknowledged, so dropped or
//! corrupted frames in either direction self-heal (the coordinator
//! re-acks duplicates from cache; it never re-merges).
//!
//! A boundary costs what the epoch changed: the frame is written
//! straight from the runner's live shards, and an ack leaves a mark
//! on them, never a copy (see [`kgpt_fuzzer::fabric`]).
//!
//! Death is modeled, not special-cased: a transport disconnect at any
//! point is a *surrender* — the worker returns normally with
//! `completed = false` and the coordinator's lease machinery re-runs
//! its uncommitted epochs elsewhere. The injected faults of a
//! [`FaultPlan`] (see [`kgpt_fuzzer::faults`]) reproduce the whole
//! matrix deterministically: frame drop/duplication via
//! [`FaultyTransport`], mid-lease death via `Fault::WorkerKill`
//! (return without shipping the boundary's delta), and
//! `Fault::StallLease` (sleep past twice the lease deadline before
//! shipping).

use crate::transport::{FaultyTransport, Transport};
use crate::wire::{Grant, Message};
use crate::FabricError;
use kgpt_fuzzer::{FaultPlan, LeaseRunner};
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_vkernel::VKernel;
use std::sync::Arc;
use std::time::Duration;

/// Observer invoked once with `(slot, shard_lo, shard_hi, boundary)`
/// when the grant arrives.
pub type GrantHook = Box<dyn FnMut(u32, u32, u32, u64)>;

/// Worker tuning and fault injection.
pub struct WorkerOpts {
    /// Stable worker identity echoed in `Register`, keyed by the
    /// multi-tenant service's health table (strikes, quarantine).
    /// 0 = anonymous: never tracked, never quarantined.
    pub worker_id: u64,
    /// Faults to inject (wire faults wrap the transport; kill/stall
    /// faults hook the epoch loop).
    pub faults: FaultPlan,
    /// How long to wait for a boundary ack before resending the
    /// delta. Must tolerate the slowest co-worker's epoch: the
    /// coordinator only replies once *every* range delivered.
    pub reply_timeout: Duration,
    /// Resend budget per boundary before giving up on the
    /// coordinator.
    pub max_resends: u32,
    /// How often to resend `Register` while waiting for a grant.
    pub register_interval: Duration,
    /// Observer called once with `(slot, shard_lo, shard_hi,
    /// boundary)` when the grant arrives.
    pub on_grant: Option<GrantHook>,
    /// Observer called after every acknowledged boundary.
    pub on_boundary: Option<Box<dyn FnMut(u64)>>,
}

impl Default for WorkerOpts {
    fn default() -> WorkerOpts {
        WorkerOpts {
            worker_id: 0,
            faults: FaultPlan::none(),
            reply_timeout: Duration::from_secs(1),
            max_resends: 240,
            register_interval: Duration::from_millis(100),
            on_grant: None,
            on_boundary: None,
        }
    }
}

/// The service's refusal advice, lifted from a `Retry` frame: when to
/// come back (in grant cycles) and whether the refusal was a
/// quarantine (strikes) rather than overload shedding (worker cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAdvice {
    /// Re-register after this many further grant cycles.
    pub after_grants: u64,
    /// True when refused by quarantine; false when parked over the
    /// worker cap.
    pub quarantined: bool,
}

/// How a worker's session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// True when the coordinator declared the campaign finished;
    /// false on surrender (disconnect or injected death) — the
    /// lease machinery takes over.
    pub completed: bool,
    /// The granted range slot, if a grant was ever received.
    pub slot: Option<u32>,
    /// Boundaries this worker ran epochs for (acknowledged or not).
    pub boundaries: u64,
    /// Set when registration was refused with a `Retry` frame
    /// (quarantine or overload shedding) instead of a grant.
    pub retry: Option<RetryAdvice>,
}

fn surrender(slot: Option<u32>, boundaries: u64) -> WorkerSummary {
    WorkerSummary {
        completed: false,
        slot,
        boundaries,
        retry: None,
    }
}

/// Run one worker session over `transport`: register, accept one
/// lease, and step it until the coordinator's `Finish` (or until
/// surrender). `resolve` maps the grant's spec fingerprint to the
/// compiled suite — returning `None` aborts with a protocol error,
/// because running a *different* suite would silently break the
/// bit-identity contract.
///
/// # Errors
///
/// Returns a [`FabricError`] on a protocol violation (unknown spec
/// fingerprint, resend budget exhausted). Disconnects are not errors:
/// they surrender the lease (`completed = false`).
pub fn run_worker<'k, F>(
    transport: Box<dyn Transport>,
    mut opts: WorkerOpts,
    resolve: F,
) -> Result<WorkerSummary, FabricError>
where
    F: FnOnce(u64) -> Option<(&'k VKernel, Arc<LoweredDb>)>,
{
    let faults = opts.faults.clone();
    let mut t = FaultyTransport::new(transport, opts.faults);

    // Register until granted: a dropped Register or a dropped Grant
    // both resolve through the resend (the coordinator re-sends the
    // cached grant to a re-registering connection).
    let register = Message::Register {
        worker_id: opts.worker_id,
    }
    .to_frame();
    let mut grant: Grant = loop {
        if t.send(&register).is_err() {
            return Ok(surrender(None, 0));
        }
        match t.recv_timeout(opts.register_interval) {
            Ok(Some(frame)) => match Message::from_frame(&frame) {
                Ok(Message::Grant(g)) => break g,
                Ok(Message::Finish { .. }) => return Ok(surrender(None, 0)),
                Ok(Message::Retry {
                    after_grants,
                    quarantined,
                }) => {
                    // Refused (quarantine or overload shedding): not
                    // an error and not a surrender — report the advice
                    // so the caller can back off and re-register.
                    return Ok(WorkerSummary {
                        completed: false,
                        slot: None,
                        boundaries: 0,
                        retry: Some(RetryAdvice {
                            after_grants,
                            quarantined,
                        }),
                    });
                }
                Ok(_) | Err(_) => {} // corrupt or stray: resend recovers
            },
            Ok(None) => {}
            Err(_) => return Ok(surrender(None, 0)),
        }
    };

    let Some((kernel, lowered)) = resolve(grant.spec_fp) else {
        return Err(FabricError::Protocol(format!(
            "unknown spec fingerprint {:#018x} in grant",
            grant.spec_fp
        )));
    };
    let mut runner = if grant.snapshots.is_empty() {
        LeaseRunner::fresh(
            &lowered,
            &grant.config,
            grant.shards_total,
            grant.shard_lo,
            grant.shard_hi,
        )
    } else {
        let snapshots = std::mem::take(&mut grant.snapshots);
        LeaseRunner::restore(&lowered, &grant.config, snapshots)
            .map_err(|e| FabricError::Protocol(format!("grant refused: {e}")))?
    };
    if let Some(cb) = opts.on_grant.as_mut() {
        cb(grant.slot, grant.shard_lo, grant.shard_hi, grant.boundary);
    }

    let slot = Some(grant.slot);
    let mut boundary = grant.boundary;
    let mut boundaries_run = 0u64;
    // One buffer for every boundary's frame: it is kept for resends
    // anyway, and the next boundary's is about as long.
    let mut delta_frame = Vec::new();
    loop {
        runner.advance(kernel);
        boundary += 1;
        boundaries_run += 1;

        if faults.worker_kill(grant.slot, boundary) {
            // Die *before* shipping: the boundary's work is lost and
            // must be re-run by the replacement — the hardest cell of
            // the failure matrix.
            return Ok(surrender(slot, boundaries_run));
        }
        if faults.stall_lease(grant.slot, boundary) {
            // Outlive the lease deadline with the delta still unsent:
            // the coordinator must expire and reassign the range.
            std::thread::sleep(
                Duration::from_millis(grant.lease_timeout_ms)
                    .saturating_mul(2)
                    .saturating_add(Duration::from_millis(200)),
            );
        }

        // Full on the lease's first boundary — a fresh campaign *or* a
        // reassignment after expiry has no acked baseline, and an
        // increment is only ever relative to state the coordinator
        // confirmed; increments against the runner's mark from then
        // on. Resends reuse the same frame, so a dropped incremental
        // is re-sent against the same baseline.
        Message::write_delta_frame(
            &mut delta_frame,
            grant.tenant,
            grant.lease_id,
            boundary,
            |w| runner.write_boundary(kernel, w),
        );
        if t.send(&delta_frame).is_err() {
            return Ok(surrender(slot, boundaries_run));
        }
        let mut resends = 0u32;
        let seeds = loop {
            match t.recv_timeout(opts.reply_timeout) {
                Ok(Some(frame)) => match Message::from_frame(&frame) {
                    Ok(Message::Proceed {
                        tenant,
                        boundary: acked,
                        seeds,
                    }) if tenant == grant.tenant && acked == boundary => break seeds,
                    Ok(Message::Finish {
                        tenant,
                        boundary: acked,
                    }) if tenant == grant.tenant && acked >= boundary => {
                        return Ok(WorkerSummary {
                            completed: true,
                            slot,
                            boundaries: boundaries_run,
                            retry: None,
                        })
                    }
                    // Stale duplicates (an earlier boundary's re-ack),
                    // redelivered grants, or corrupt frames: ignore
                    // and keep waiting.
                    Ok(_) | Err(_) => {}
                },
                Ok(None) => {
                    resends += 1;
                    if resends > opts.max_resends {
                        return Err(FabricError::Protocol(format!(
                            "boundary {boundary} unacknowledged after {} resends",
                            opts.max_resends
                        )));
                    }
                    if t.send(&delta_frame).is_err() {
                        return Ok(surrender(slot, boundaries_run));
                    }
                }
                Err(_) => return Ok(surrender(slot, boundaries_run)),
            }
        };
        // The ack means the coordinator committed this boundary; its
        // committed state is the post-import state, which the runner
        // holds byte-identically once it imported too — the agreed
        // baseline, marked for the next boundary's increments.
        runner.acked(&seeds);
        if let Some(cb) = opts.on_boundary.as_mut() {
            cb(boundary);
        }
    }
}

/// Outcome of one deliberate flap cycle (see [`flap_worker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapOutcome {
    /// A lease was granted on `slot` for `tenant` — and is about to
    /// be abandoned without a single delta.
    Granted {
        /// The tenant the grant belonged to.
        tenant: u32,
        /// The granted range slot.
        slot: u32,
    },
    /// Registration was refused with retry advice.
    Refused(RetryAdvice),
    /// The transport died (or timed out) before any reply.
    Disconnected,
}

/// One **flap** cycle: register on `transport` under `worker_id`,
/// wait up to `reply_timeout` for the service's reply, then drop the
/// connection. A granted lease is abandoned without a single delta —
/// which the service must score as a lease expiry (a strike), and
/// enough of which must quarantine the worker id. Used by the chaos
/// soak and the quarantine tests to drive the flapping-worker failure
/// mode deterministically.
pub fn flap_worker(
    mut transport: Box<dyn Transport>,
    worker_id: u64,
    reply_timeout: Duration,
) -> FlapOutcome {
    let register = Message::Register { worker_id }.to_frame();
    if transport.send(&register).is_err() {
        return FlapOutcome::Disconnected;
    }
    loop {
        match transport.recv_timeout(reply_timeout) {
            Ok(Some(frame)) => match Message::from_frame(&frame) {
                Ok(Message::Grant(g)) => {
                    return FlapOutcome::Granted {
                        tenant: g.tenant,
                        slot: g.slot,
                    }
                }
                Ok(Message::Retry {
                    after_grants,
                    quarantined,
                }) => {
                    return FlapOutcome::Refused(RetryAdvice {
                        after_grants,
                        quarantined,
                    })
                }
                Ok(_) | Err(_) => {} // stray or corrupt: keep waiting
            },
            Ok(None) | Err(_) => return FlapOutcome::Disconnected,
        }
    }
}
