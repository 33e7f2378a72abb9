//! The single-campaign coordinator: registration, grants, barrier
//! merge, replies — as one tenant of the [`TenantService`].
//!
//! There is one coordinator loop in this crate, and it is the
//! service's: [`Coordinator::run`] admits its campaign as the only
//! tenant — unlimited quota, no worker cap, a strike limit that never
//! fires — runs the service, and unwraps the one [`TenantResult`]. So
//! a campaign is merged, leased and supervised by the same code
//! whether it shares the process with other campaigns or not, and the
//! failure handling that is part of the determinism contract is
//! written once (see [`crate::service`]):
//!
//! * **lease expiry / disconnect** — the range returns to the pool
//!   and the next registrant is granted it *with the last committed
//!   boundary snapshots*; the epochs the previous holder never
//!   committed are re-run bit-identically;
//! * **duplicate delta** — a boundary already merged is re-acked from
//!   the cached reply frame, never re-merged (idempotent delivery);
//! * **corrupt frame** — rejected by the wire checksum and counted;
//!   the sender's resend loop recovers it;
//! * **misrouted delta** — tagged for another tenant, or covering
//!   another range: rejected and counted, the lease revoked, the
//!   campaign unharmed;
//! * **lost grant** — a worker that keeps sending `Register` on a
//!   granted connection gets the grant frame resent.
//!
//! Single-threaded by design, and it never executes a program: it
//! needs no kernel and no lowered spec IR, only the campaign config
//! and the workers' deltas.
//!
//! [`TenantResult`]: crate::service::TenantResult

use crate::budget::TenantQuota;
use crate::health::HealthOpts;
use crate::service::{ServiceOpts, TenantService, TenantSpec};
use crate::transport::Transport;
use crate::FabricError;
use kgpt_fuzzer::{CampaignConfig, CampaignResult};
use std::time::Duration;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// Logical shard count of the campaign (the deterministic
    /// identity; must match the single-process run being mirrored).
    pub shards: u32,
    /// Number of worker range slots to split the shards into.
    pub workers: u32,
    /// Lease deadline budget: a lease showing no progress for this
    /// long is revoked and its range reassigned.
    pub lease_timeout: Duration,
    /// Fingerprint of the spec suite workers must resolve.
    pub spec_fp: u64,
}

impl Default for CoordinatorOpts {
    fn default() -> CoordinatorOpts {
        CoordinatorOpts {
            shards: 8,
            workers: 2,
            lease_timeout: Duration::from_secs(5),
            spec_fp: 0,
        }
    }
}

/// One campaign's wire/merge counters — a [`Coordinator`]'s, or one
/// tenant's of a [`TenantService`]; they count the same events
/// because they are counted by the same loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Boundaries merged.
    pub boundaries: u64,
    /// Total bytes of accepted (first-delivery) delta frames.
    pub delta_bytes: u64,
    /// Total time inside
    /// [`CampaignMerge::apply_boundary`](kgpt_fuzzer::CampaignMerge::apply_boundary).
    pub merge_nanos: u64,
    /// Leases revoked (expiry, disconnect, protocol violation, or
    /// pre-grant death).
    pub expired_leases: u64,
    /// Frames re-acked from cache (duplicate or post-merge deltas,
    /// re-registrations on a granted connection).
    pub redelivered_frames: u64,
    /// Frames a leased connection delivered that were discarded:
    /// checksum/decode failures, and well-formed deltas that violate
    /// the protocol — tagged for another tenant, covering the wrong
    /// shard range, or an increment that does not fit the committed
    /// base (each of those also costs the sender its lease). Damage
    /// on a connection that has not registered yet belongs to no
    /// campaign and is not counted. (Before the coordinator ran on
    /// the service it ignored the tenant tag, left wrong-range deltas
    /// uncounted and counted pre-registration damage; the service's
    /// counting is the one that stayed.)
    pub rejected_frames: u64,
}

/// The campaign coordinator. Create with [`Coordinator::new`], then
/// [`Coordinator::run`] to completion.
pub struct Coordinator {
    config: CampaignConfig,
    opts: CoordinatorOpts,
}

impl Coordinator {
    /// A coordinator for `config` split across `opts.workers` ranges
    /// of `opts.shards` shards.
    #[must_use]
    pub fn new(config: CampaignConfig, opts: CoordinatorOpts) -> Coordinator {
        Coordinator { config, opts }
    }

    /// Drive the campaign to completion. `accept` is polled for a new
    /// worker connection only while a range lacks a lease (so a TCP
    /// listener's backlog is consumed exactly as fast as ranges free
    /// up, and a test harness can spawn workers on demand); it
    /// returns `None` when no connection is ready right now.
    ///
    /// Returns the merged result — bit-identical to the
    /// single-process [`kgpt_fuzzer::ShardedCampaign`] of the same
    /// config — and the wire/merge counters.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] only on an unrecoverable protocol
    /// violation; wire damage and worker loss are absorbed by the
    /// lease machinery.
    pub fn run(
        self,
        accept: &mut dyn FnMut() -> Option<Box<dyn Transport>>,
    ) -> Result<(CampaignResult, FabricStats), FabricError> {
        let mut service = TenantService::new(ServiceOpts {
            lease_timeout: self.opts.lease_timeout,
            // A lone campaign has no neighbour to protect from a bad
            // worker and nobody else to hand its range to: strikes
            // never quarantine, and (the default) no worker cap.
            health: HealthOpts {
                strike_limit: u32::MAX,
                ..HealthOpts::default()
            },
        });
        service.admit(TenantSpec {
            name: String::new(),
            config: self.config,
            shards: self.opts.shards,
            workers: self.opts.workers,
            spec_fp: self.opts.spec_fp,
            quota: TenantQuota::unlimited(),
        })?;
        let (results, _) = service.run(accept)?;
        let tenant = results.into_iter().next().ok_or_else(|| {
            FabricError::Protocol("the service returned no result for its one tenant".into())
        })?;
        Ok((tenant.result, tenant.stats))
    }
}
