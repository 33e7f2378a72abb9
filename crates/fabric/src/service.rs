//! The multi-tenant campaign service: several named campaigns share
//! one coordinator process and one worker pool.
//!
//! [`TenantService`] runs N admitted [`TenantSpec`]s concurrently.
//! Each tenant is a full, independent campaign — its own
//! [`CampaignConfig`], spec fingerprint, [`LeaseTable`], barrier
//! stash, and [`CampaignMerge`] — multiplexed over tenant-tagged v3
//! wire frames, so each tenant's merged result stays **bit-identical**
//! to its own single-process reference run no matter how workers come
//! and go or how the pool is shared.
//!
//! This is the crate's only coordinator loop — register → grant →
//! collect deltas → barrier-merge → reply, with the lease, resend and
//! rejection handling around it. The single-campaign
//! [`crate::Coordinator`] is the same code: one tenant admitted with
//! the unlimited quota and a strike limit that never fires.
//!
//! Three service-level policies sit on top of the per-tenant protocol:
//!
//! * **budgets** ([`BudgetTracker`]) — exec / wall-time / delta-byte
//!   quotas are charged at every boundary commit and checked *only*
//!   there: an exhausted tenant finishes the boundary it is on, folds
//!   the committed state ([`CampaignMerge::finish_early`]), sends its
//!   workers `Finish`, and releases its leases — graceful
//!   termination, never a mid-epoch abort, and the truncated result
//!   is bit-identical to an unlimited run halted at the same
//!   boundary;
//! * **fair-share scheduling** — vacant range slots are offered to
//!   registrants by deterministic round-robin over tenants in
//!   tenant-id order, so one greedy tenant cannot starve another of
//!   workers;
//! * **worker supervision** ([`HealthTable`]) — rejected frames,
//!   revoked patches, and lease expiries (including disconnecting
//!   mid-lease, the flapping pattern) earn strikes against the stable
//!   `worker_id`; at the strike limit the worker is quarantined and
//!   refused re-registration (`Retry { quarantined: true }`) for a
//!   cooldown measured in grant cycles; registrations beyond the
//!   worker cap are parked (`Retry { quarantined: false }`), not
//!   dropped.

use crate::budget::{BudgetTracker, BudgetUsage, TenantQuota};
use crate::coordinator::FabricStats;
use crate::health::{Admission, HealthOpts, HealthTable, StrikeKind};
use crate::lease::LeaseTable;
use crate::transport::Transport;
use crate::wire::{DeltaPayload, Grant, Message};
use crate::FabricError;
use kgpt_fuzzer::{CampaignConfig, CampaignMerge, CampaignResult};
use std::time::{Duration, Instant};

/// One tenant's admission request: a named campaign with its own
/// config, shard split, spec fingerprint, and declared quota.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable campaign name (reporting only — the wire
    /// carries the numeric tenant id).
    pub name: String,
    /// The campaign config (the deterministic identity).
    pub config: CampaignConfig,
    /// Logical shard count; must match the single-process reference.
    pub shards: u32,
    /// Worker range slots to split the shards into.
    pub workers: u32,
    /// Spec fingerprint workers must resolve for this tenant.
    pub spec_fp: u64,
    /// Declared resource quota; default is unlimited.
    pub quota: TenantQuota,
}

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOpts {
    /// Lease deadline budget, shared by every tenant's table.
    pub lease_timeout: Duration,
    /// Worker supervision thresholds.
    pub health: HealthOpts,
}

impl Default for ServiceOpts {
    fn default() -> ServiceOpts {
        ServiceOpts {
            lease_timeout: Duration::from_secs(5),
            health: HealthOpts::default(),
        }
    }
}

/// One tenant's final accounting.
#[derive(Debug, Clone)]
pub struct TenantResult {
    /// The tenant id (admission order).
    pub tenant: u32,
    /// The campaign name from the spec.
    pub name: String,
    /// The merged campaign result — bit-identical to the tenant's
    /// single-process reference halted at the same boundary.
    pub result: CampaignResult,
    /// True when the campaign was terminated by budget overflow
    /// rather than running its config to completion.
    pub budget_exhausted: bool,
    /// Boundaries committed for this tenant.
    pub boundaries: u64,
    /// Final budget usage vs declared quota.
    pub usage: BudgetUsage,
    /// The tenant's wire/merge counters.
    pub stats: FabricStats,
}

/// Service-wide scheduling and supervision counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Lease grants issued across all tenants.
    pub grants: u64,
    /// Grants per tenant, indexed by tenant id — the fairness
    /// evidence (round-robin keeps these within each tenant's demand
    /// of one another).
    pub grants_per_tenant: Vec<u64>,
    /// Registrations parked over the worker cap (`Retry` sent).
    pub parked: u64,
    /// Registrations refused because the worker was quarantined.
    pub quarantine_refusals: u64,
    /// Quarantines imposed by the health table.
    pub quarantines: u64,
}

struct Conn {
    transport: Box<dyn Transport>,
    /// The last frame this connection must be able to receive again
    /// (grant, then latest `Proceed`); re-sent verbatim on duplicate
    /// deliveries.
    last_reply: Vec<u8>,
    /// The stable worker id from `Register` (0 = anonymous).
    worker_id: u64,
}

struct Arrival {
    transport: Box<dyn Transport>,
    /// Grant-cycle count until which this parked arrival is not
    /// re-considered (avoids re-refusing it every poll).
    parked_until: Option<u64>,
}

/// A tenant's campaign: merging boundaries, until the fold consumes
/// the merge and leaves the result.
enum Campaign {
    Running(CampaignMerge),
    Done(TenantResult),
}

struct Tenant {
    /// Admission order, and the `tenant` tag on every frame it owns.
    id: u32,
    name: String,
    spec_fp: u64,
    budget: BudgetTracker,
    campaign: Campaign,
    table: LeaseTable,
    conns: Vec<Option<Conn>>,
    /// Per range slot, what it delivered for the pending boundary:
    /// decoded and checked against the committed state, not yet
    /// applied to it.
    stash: Vec<Option<DeltaPayload>>,
    stats: FabricStats,
    started: Instant,
}

/// What one polled frame means for the connection it arrived on.
enum Verdict {
    /// Nothing: a stale lease's echo, or a message no coordinator
    /// acts on.
    Ignore,
    /// Progress on the pending boundary: renew the lease.
    Renew,
    /// The sender missed a frame — its grant, or the reply to a
    /// boundary already merged: re-send the cached one. Idempotent
    /// delivery: a duplicate is re-acked, never re-merged.
    Resend,
    /// A protocol violation by this worker — a delta tagged for
    /// another tenant, covering the wrong range, or an increment that
    /// does not fit the committed base: count it rejected, drop the
    /// lease, strike the worker, keep the campaign.
    Violation,
    /// Checksum or decode failure: a damaged (or byzantine) frame.
    Damaged,
}

/// Per-connection receive poll (kept short so one slow worker cannot
/// starve another's frames, another tenant's, or a pending
/// registration).
const POLL: Duration = Duration::from_millis(2);

impl Tenant {
    fn new(id: u32, spec: TenantSpec) -> Tenant {
        let table = LeaseTable::new(spec.shards, spec.workers);
        let slots = table.len();
        Tenant {
            id,
            name: spec.name,
            spec_fp: spec.spec_fp,
            budget: BudgetTracker::new(spec.quota),
            campaign: Campaign::Running(CampaignMerge::new(spec.config, spec.shards)),
            table,
            conns: (0..slots).map(|_| None).collect(),
            stash: (0..slots).map(|_| None).collect(),
            stats: FabricStats::default(),
            started: Instant::now(),
        }
    }

    fn active(&self) -> bool {
        matches!(self.campaign, Campaign::Running(_))
    }

    fn seated(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Cut `slot`'s connection: the range returns to the pool — to be
    /// re-run from the last committed boundary by the next registrant
    /// — and the worker that held it earns a strike. Whatever it
    /// already delivered for the pending boundary stays stashed: it is
    /// deterministic data the replacement would reproduce.
    fn cut(&mut self, slot: usize, kind: StrikeKind, health: &mut HealthTable) {
        self.table.revoke(slot);
        if let Some(conn) = self.conns[slot].take() {
            health.strike(conn.worker_id, kind);
        }
    }

    /// Progress was observed on `slot`: push its lease deadline out.
    fn renew(&mut self, slot: usize, lease_timeout: Duration) {
        self.table.renew(slot, Instant::now(), lease_timeout);
    }

    /// Revoke lapsed leases; a disconnect-with-lease and a silent
    /// stall both land here, and both are strikes.
    fn expire_leases(&mut self, now: Instant, health: &mut HealthTable) {
        while let Some(slot) = self.table.expired_slot(now) {
            self.cut(slot, StrikeKind::LeaseExpiry, health);
        }
    }

    /// Poll every leased connection for one frame and act on its
    /// [`Verdict`].
    fn poll_deltas(&mut self, lease_timeout: Duration, health: &mut HealthTable) {
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else {
                continue;
            };
            let worker_id = conn.worker_id;
            let frame = match conn.transport.recv_timeout(POLL) {
                Ok(Some(frame)) => frame,
                Ok(None) => continue,
                Err(_) => {
                    // Disconnect mid-lease: the flapping pattern.
                    self.cut(slot, StrikeKind::LeaseExpiry, health);
                    continue;
                }
            };
            match self.route(slot, &frame) {
                Verdict::Ignore => {}
                Verdict::Renew => self.renew(slot, lease_timeout),
                Verdict::Resend => {
                    self.stats.redelivered_frames += 1;
                    let resent = self.conns[slot]
                        .as_mut()
                        .is_some_and(|c| c.transport.send(&c.last_reply).is_ok());
                    if resent {
                        self.renew(slot, lease_timeout);
                    } else {
                        self.cut(slot, StrikeKind::LeaseExpiry, health);
                    }
                }
                Verdict::Violation => {
                    self.stats.rejected_frames += 1;
                    self.cut(slot, StrikeKind::RevokedPatch, health);
                }
                Verdict::Damaged => {
                    // The sender's resend recovers the frame; only if
                    // this strike quarantined the worker is it cut, so
                    // the range re-runs on a healthy one.
                    self.stats.rejected_frames += 1;
                    if health.strike(worker_id, StrikeKind::RejectedFrame) {
                        self.table.revoke(slot);
                        self.conns[slot] = None;
                    }
                }
            }
        }
    }

    /// Decide what `frame`, received on `slot`'s connection, means —
    /// and stash it when it is the range's first delivery for the
    /// pending boundary.
    fn route(&mut self, slot: usize, frame: &[u8]) -> Verdict {
        let Campaign::Running(merge) = &self.campaign else {
            return Verdict::Ignore;
        };
        let (tenant, lease_id, boundary, deltas) = match Message::from_frame(frame) {
            Ok(Message::Delta {
                tenant,
                lease_id,
                boundary,
                deltas,
            }) => (tenant, lease_id, boundary, deltas),
            // The grant (or a reply) never arrived.
            Ok(Message::Register { .. }) => return Verdict::Resend,
            Ok(_) => return Verdict::Ignore,
            Err(_) => return Verdict::Damaged,
        };
        if tenant != self.id {
            return Verdict::Violation;
        }
        if self.table.lease(slot).map(|l| l.id) != Some(lease_id) {
            return Verdict::Ignore;
        }
        let target = merge.epochs_done() + 1;
        if boundary != target {
            // Behind the barrier: already merged. Ahead of it cannot
            // happen (a worker cannot outrun its own unacked
            // boundary).
            return if boundary < target {
                Verdict::Resend
            } else {
                Verdict::Ignore
            };
        }
        let (lo, hi) = self.table.range(slot);
        if !deltas.shard_ids().into_iter().eq(lo..hi) {
            return Verdict::Violation;
        }
        if self.stash[slot].is_some() {
            self.stats.redelivered_frames += 1;
            return Verdict::Renew;
        }
        // Check the payload *at stash time*, while its sender is at
        // hand: an increment is only valid against the committed state
        // of the previous boundary (`target - 1`), which is exactly
        // what `merge` holds right now and until the barrier — the
        // commit finds the same state and cannot fail on it. The
        // lease-id check above already guarantees the sender was
        // acked at that boundary — a reassigned lease has a new id
        // and must open with a full frame. Nothing is applied yet: a
        // range re-granted before the barrier restores from
        // `target - 1` untouched.
        if merge.validate(&deltas).is_err() {
            return Verdict::Violation;
        }
        self.stats.delta_bytes += frame.len() as u64;
        self.budget.charge_delta_bytes(frame.len() as u64);
        self.stash[slot] = Some(deltas);
        Verdict::Renew
    }

    /// If every range delivered its boundary delta, commit: install
    /// and merge in shard-id order (range slots ascend with shard
    /// ids), charge the budget, and reply `Proceed` — unless
    /// the campaign is over, naturally or because this boundary spent
    /// the budget. Returns whether it is: the caller then
    /// [`Tenant::fold`]s.
    fn try_commit(&mut self, lease_timeout: Duration) -> Result<bool, FabricError> {
        let Campaign::Running(merge) = &mut self.campaign else {
            return Ok(false);
        };
        if !self.stash.iter().all(Option::is_some) {
            return Ok(false);
        }
        let ranges = self.stash.iter_mut().filter_map(Option::take).collect();
        let merged_at = Instant::now();
        let outcome = merge.commit(ranges)?;
        self.stats.merge_nanos = self
            .stats
            .merge_nanos
            .saturating_add(u64::try_from(merged_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.stats.boundaries += 1;
        // Charge the budget at the boundary — the only place overflow
        // is ever observed, so termination is always boundary-aligned.
        self.budget.record_execs(merge.execs_done());
        self.budget
            .record_wall_ms(u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX));
        if outcome.finished || self.budget.overflow().is_some() {
            return Ok(true);
        }
        let frame = Message::Proceed {
            tenant: self.id,
            boundary: merge.epochs_done(),
            seeds: outcome.seeds,
        }
        .to_frame();
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else {
                continue;
            };
            if conn.transport.send(&frame).is_ok() {
                conn.last_reply.clone_from(&frame);
                self.renew(slot, lease_timeout);
            } else {
                self.table.revoke(slot);
                self.conns[slot] = None;
            }
        }
        Ok(false)
    }

    /// The campaign is over at the boundary just committed: release
    /// the workers and fold. Natural finish and graceful budget
    /// termination share this path — every worker is barrier-waiting
    /// on this boundary's ack, so `Finish` releases them all cleanly,
    /// and a merge that has not seen its final boundary folds early.
    fn fold(mut self) -> Result<Tenant, FabricError> {
        self.campaign = match self.campaign {
            Campaign::Running(merge) => {
                let boundaries = merge.epochs_done();
                let frame = Message::Finish {
                    tenant: self.id,
                    boundary: boundaries,
                }
                .to_frame();
                for mut conn in self.conns.iter_mut().filter_map(Option::take) {
                    let _ = conn.transport.send(&frame);
                }
                self.stats.expired_leases = self.table.expired();
                Campaign::Done(TenantResult {
                    tenant: self.id,
                    name: self.name.clone(),
                    budget_exhausted: !merge.finished(),
                    result: merge.finish_early()?,
                    boundaries,
                    usage: self.budget.usage(),
                    stats: self.stats,
                })
            }
            done @ Campaign::Done(_) => done,
        };
        Ok(self)
    }

    /// Lease the first vacant range and frame its grant (carrying the
    /// committed boundary snapshots of the range). `None` when the
    /// campaign is over or every range is leased.
    fn lease_vacancy(&mut self, lease_timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let Campaign::Running(merge) = &self.campaign else {
            return None;
        };
        let slot = self.table.vacant_slot()?;
        let (lo, hi) = self.table.range(slot);
        let lease_id = self.table.grant(slot, Instant::now(), lease_timeout);
        let grant = Grant {
            tenant: self.id,
            lease_id,
            // A table has at most `workers: u32` slots.
            slot: u32::try_from(slot).expect("slot fits u32"),
            shard_lo: lo,
            shard_hi: hi,
            shards_total: merge.shards_total(),
            boundary: merge.epochs_done(),
            lease_timeout_ms: u64::try_from(lease_timeout.as_millis()).unwrap_or(u64::MAX),
            spec_fp: self.spec_fp,
            config: merge.config().clone(),
            snapshots: merge.snapshots(lo, hi),
        };
        Some((slot, Message::Grant(grant).to_frame()))
    }
}

/// The multi-tenant campaign service. Admit tenants with
/// [`TenantService::admit`], then drive every campaign to completion
/// with [`TenantService::run`].
pub struct TenantService {
    opts: ServiceOpts,
    tenants: Vec<Tenant>,
    health: HealthTable,
    stats: ServiceStats,
    /// Round-robin cursor: the tenant id the next vacant-slot search
    /// starts from.
    rr_next: usize,
}

impl TenantService {
    /// A fresh service with no tenants.
    #[must_use]
    pub fn new(opts: ServiceOpts) -> TenantService {
        TenantService {
            opts,
            tenants: Vec::new(),
            health: HealthTable::new(opts.health),
            stats: ServiceStats::default(),
            rr_next: 0,
        }
    }

    /// Admit a tenant; returns its id (admission order, and the
    /// `tenant` tag on every frame it owns).
    pub fn admit(&mut self, spec: TenantSpec) -> u32 {
        // Each tenant holds a merge, a lease table and a stash: 2^32
        // of them do not fit in memory.
        let id = u32::try_from(self.tenants.len()).expect("tenant id fits u32");
        self.tenants.push(Tenant::new(id, spec));
        self.stats.grants_per_tenant.push(0);
        id
    }

    /// Admitted tenant count.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Drive every admitted campaign to completion. `accept` is
    /// polled for a new worker connection only while some active
    /// tenant has a vacant range slot (so a TCP listener's backlog is
    /// consumed exactly as fast as ranges free up, and a test harness
    /// can spawn workers on demand); it returns `None` when no
    /// connection is ready right now.
    ///
    /// Returns every tenant's [`TenantResult`] in tenant-id order,
    /// plus the service counters.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] only on an unrecoverable protocol
    /// violation; wire damage, worker loss, and byzantine workers are
    /// absorbed by the lease + supervision machinery.
    pub fn run(
        mut self,
        accept: &mut dyn FnMut() -> Option<Box<dyn Transport>>,
    ) -> Result<(Vec<TenantResult>, ServiceStats), FabricError> {
        let lease_timeout = self.opts.lease_timeout;
        let mut arrivals: Vec<Arrival> = Vec::new();
        while self.tenants.iter().any(Tenant::active) {
            let now = Instant::now();
            for t in self.tenants.iter_mut().filter(|t| t.active()) {
                t.expire_leases(now, &mut self.health);
            }
            self.seat_registrants(&mut arrivals, accept);
            for tid in 0..self.tenants.len() {
                self.tenants[tid].poll_deltas(lease_timeout, &mut self.health);
                if self.tenants[tid].try_commit(lease_timeout)? {
                    // The fold consumes the merge, so the tenant goes
                    // through it by value.
                    let tenant = self.tenants.remove(tid);
                    self.tenants.insert(tid, tenant.fold()?);
                }
            }
        }
        self.stats.quarantines = self.health.quarantines();
        let results = self.tenants.into_iter().filter_map(|t| match t.campaign {
            Campaign::Done(result) => Some(result),
            Campaign::Running(_) => None,
        });
        Ok((results.collect(), self.stats))
    }

    /// Workers holding a connection across all tenants — the seated
    /// count the worker cap is enforced against.
    fn seated_total(&self) -> usize {
        self.tenants.iter().map(Tenant::seated).sum()
    }

    /// The next tenant owed a worker: round-robin from the cursor
    /// over active tenants with a vacant slot, in tenant-id order —
    /// deterministic and starvation-free.
    fn next_vacancy(&self) -> Option<usize> {
        let n = self.tenants.len();
        (0..n).map(|off| (self.rr_next + off) % n).find(|&tid| {
            let t = &self.tenants[tid];
            t.active() && t.table.vacant_slot().is_some()
        })
    }

    /// Fill vacant range slots fairly: drain `Register`s from queued
    /// arrivals through admission control, pulling new connections
    /// from `accept` only while a slot still wants one.
    fn seat_registrants(
        &mut self,
        arrivals: &mut Vec<Arrival>,
        accept: &mut dyn FnMut() -> Option<Box<dyn Transport>>,
    ) {
        while let Some(tid) = self.next_vacancy() {
            let mut seated = false;
            let mut i = 0;
            while i < arrivals.len() {
                if arrivals[i]
                    .parked_until
                    .is_some_and(|until| self.health.grant_cycles() < until)
                {
                    i += 1; // still cooling down from its park
                    continue;
                }
                match arrivals[i].transport.recv_timeout(POLL) {
                    Ok(Some(frame)) => match Message::from_frame(&frame) {
                        Ok(Message::Register { worker_id }) => {
                            match self.health.admit(worker_id, self.seated_total()) {
                                Admission::Admit => {
                                    let arrival = arrivals.remove(i);
                                    self.grant(tid, worker_id, arrival.transport);
                                    seated = true;
                                    break;
                                }
                                Admission::Quarantined { remaining } => {
                                    // Refused for the cooldown: tell
                                    // the worker when to come back,
                                    // then cut the connection.
                                    self.stats.quarantine_refusals += 1;
                                    let refusal = Message::Retry {
                                        after_grants: remaining,
                                        quarantined: true,
                                    }
                                    .to_frame();
                                    let mut arrival = arrivals.remove(i);
                                    let _ = arrival.transport.send(&refusal);
                                }
                                Admission::Parked { retry_after } => {
                                    // Over the worker cap: shed load
                                    // by parking, not dropping — the
                                    // connection stays queued and is
                                    // reconsidered once the retry-
                                    // after lapses.
                                    self.stats.parked += 1;
                                    let parked = Message::Retry {
                                        after_grants: retry_after,
                                        quarantined: false,
                                    }
                                    .to_frame();
                                    if arrivals[i].transport.send(&parked).is_err() {
                                        arrivals.remove(i);
                                    } else {
                                        arrivals[i].parked_until =
                                            Some(self.health.grant_cycles() + retry_after);
                                        i += 1;
                                    }
                                }
                            }
                        }
                        // A stray message, or damage before any
                        // registration: it belongs to no tenant and no
                        // known worker, so nobody is charged for it.
                        Ok(_) | Err(_) => i += 1,
                    },
                    Ok(None) => i += 1,
                    Err(_) => {
                        arrivals.remove(i);
                    }
                }
            }
            if seated {
                continue;
            }
            // Pull a new connection only when none is pending: an
            // arrival that has not registered yet (and is not parked)
            // is given time to — its `Register` may still be in
            // flight — rather than racing a second accept against it.
            if arrivals.iter().any(|a| {
                a.parked_until
                    .is_none_or(|until| self.health.grant_cycles() >= until)
            }) {
                break;
            }
            match accept() {
                Some(transport) => arrivals.push(Arrival {
                    transport,
                    parked_until: None,
                }),
                None => break,
            }
        }
    }

    /// Grant `tid`'s first vacant slot to `transport`: lease it, send
    /// the tenant-tagged grant, install the connection, tick the
    /// grant-cycle clock, and advance the round-robin cursor.
    fn grant(&mut self, tid: usize, worker_id: u64, mut transport: Box<dyn Transport>) {
        let t = &mut self.tenants[tid];
        let Some((slot, frame)) = t.lease_vacancy(self.opts.lease_timeout) else {
            return;
        };
        if transport.send(&frame).is_ok() {
            t.conns[slot] = Some(Conn {
                transport,
                last_reply: frame,
                worker_id,
            });
            self.health.note_grant();
            self.stats.grants += 1;
            self.stats.grants_per_tenant[tid] += 1;
            self.rr_next = (tid + 1) % self.tenants.len();
        } else {
            // Dead before the grant ever left: back to the pool.
            t.table.revoke(slot);
        }
    }
}
