//! # kgpt-fabric
//!
//! The distributed campaign fabric: one **coordinator** process hands
//! out shard-range leases to worker processes, collects their
//! per-epoch deltas, and merges them — in shard-id order, at
//! lockstep epoch boundaries — into a
//! [`kgpt_fuzzer::CampaignResult`] that is **bit-identical** to a
//! single-process [`kgpt_fuzzer::ShardedCampaign`] run of the same
//! config, across process boundaries.
//!
//! The deterministic halves (the epoch stepper a worker drives and
//! the order-preserving merge the coordinator applies) live in
//! [`kgpt_fuzzer::fabric`]; this crate adds the protocol around
//! them:
//!
//! * [`wire`] — the message set ([`wire::Message`]) and its framing:
//!   version + FNV-1a checksum per frame, bodies in the
//!   `CampaignSnapshot` dense codec, so a delta is literally a
//!   checkpoint fragment; boundary frames are tagged
//!   [`wire::DeltaKind::Full`] (complete per-shard snapshots — the
//!   mandatory first frame of every lease) or
//!   [`wire::DeltaKind::Incremental`] (sparse
//!   [`kgpt_fuzzer::EpochPatch`] diffs against the last acked
//!   boundary, roughly an order of magnitude smaller);
//! * [`transport`] — a pluggable byte-frame [`transport::Transport`]:
//!   in-memory channels for tests, length-prefixed localhost TCP for
//!   real workers, and a fault-injecting wrapper
//!   ([`transport::FaultyTransport`]) that drops or duplicates the
//!   n-th outbound frame from a [`kgpt_fuzzer::FaultPlan`];
//! * [`lease`] — the coordinator's range bookkeeping
//!   ([`lease::LeaseTable`]): contiguous shard ranges in
//!   registration order (worker-id order *is* shard-id order),
//!   deadlines, expiry counters;
//! * [`service`] — the single-threaded coordinator loop
//!   ([`service::TenantService`]), written once: register → grant →
//!   collect deltas → barrier-merge → reply, with deterministic
//!   failure handling (lease expiry reassigns the range to the next
//!   registrant with the last *committed* boundary snapshots;
//!   duplicate deltas re-ack without re-merging; corrupt frames are
//!   rejected by checksum and recovered by sender resend; misrouted
//!   deltas cost the sender its lease). Several named campaigns share
//!   one coordinator process and one worker pool over the same wire,
//!   each with its own config, spec fingerprint, and
//!   [`budget::TenantQuota`];
//! * [`coordinator`] — the single-campaign entry point
//!   ([`coordinator::Coordinator`]): the same code, as a service with
//!   one tenant, unlimited quota and no quarantine;
//! * [`worker`] — the thin worker loop around
//!   [`kgpt_fuzzer::LeaseRunner`]: claim lease → run epoch → ship
//!   delta → await ack (resending on timeout) → import seeds →
//!   repeat until `Finish`;
//! * [`budget`] — per-tenant resource budgets
//!   ([`budget::BudgetTracker`]): execs / wall-time / delta-byte
//!   quotas checked only at epoch boundaries, so overflow triggers
//!   graceful termination, never a mid-epoch abort;
//! * [`health`] — worker supervision ([`health::HealthTable`]):
//!   strike counters per stable worker id, deterministic quarantine
//!   measured in grant cycles, and overload shedding (parked, not
//!   dropped) past the worker cap.
//!
//! ## Protocol v3: tenant tagging, retry, quarantine
//!
//! Frame layout is unchanged from v2 (`version | checksum | tag |
//! body`), but the version byte is now **3** and the message set
//! grew multi-tenant coordinates:
//!
//! * `Register` carries a stable `worker_id` (0 = anonymous) — the
//!   key the service's health table tracks strikes and quarantine by;
//! * `Grant`, `Delta`, `Proceed`, and `Finish` carry the `tenant` id
//!   that scoped them, so one connection is always pinned to exactly
//!   one tenant's campaign and a misrouted delta is a protocol
//!   violation, not a merge hazard;
//! * `Retry` (new) is the service's refusal: `after_grants` tells the
//!   worker when to re-register (a deadline in *grant cycles*, the
//!   service's deterministic clock), `quarantined` says whether the
//!   refusal was earned (strikes) or circumstantial (worker cap).
//!
//! A quarantined worker is refused re-registration until the cooldown
//! lapses; its range re-runs elsewhere from committed snapshots, so
//! byzantine workers cost bandwidth, never correctness. Tenant
//! budgets are enforced at the same boundaries the merge commits at:
//! an exhausted tenant finishes its current boundary, folds what was
//! committed, and releases its leases — bit-identical to an unlimited
//! run halted at the same boundary.
//!
//! Because committed state only advances at full boundaries, a worker
//! killed mid-lease loses exactly its uncommitted epochs: the
//! replacement re-runs them from the committed boundary and the
//! campaign result does not change — the failure matrix is part of
//! the determinism contract, not an exception to it.

pub mod budget;
pub mod coordinator;
pub mod health;
pub mod lease;
pub mod service;
pub mod transport;
pub mod wire;
pub mod worker;

pub use budget::{BudgetTracker, BudgetUsage, OverflowKind, TenantQuota};
pub use coordinator::{Coordinator, CoordinatorOpts, FabricStats};
pub use health::{Admission, HealthOpts, HealthTable, StrikeKind};
pub use lease::LeaseTable;
pub use service::{ServiceOpts, ServiceStats, TenantResult, TenantService, TenantSpec};
pub use transport::{ChannelTransport, FaultyTransport, TcpTransport, Transport};
pub use wire::{DeltaKind, DeltaPayload, Grant, Message};
pub use worker::{
    flap_worker, run_worker, FlapOutcome, GrantHook, RetryAdvice, WorkerOpts, WorkerSummary,
};

use kgpt_fuzzer::CheckpointError;
use std::fmt;

/// Errors surfaced by the fabric protocol.
///
/// Transient wire damage (a corrupt frame, a dropped delta) is *not*
/// an error — it is absorbed by checksum rejection and resend. An
/// error here means the protocol itself was violated or the
/// underlying transport failed unrecoverably.
#[derive(Debug)]
pub enum FabricError {
    /// The underlying transport failed (socket error, channel gone).
    Io(std::io::Error),
    /// A peer violated the protocol (wrong message, bad fingerprint,
    /// reply never arrived within the resend budget).
    Protocol(String),
    /// A frame or message body failed to decode.
    Codec(CheckpointError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "fabric transport error: {e}"),
            FabricError::Protocol(m) => write!(f, "fabric protocol error: {m}"),
            FabricError::Codec(e) => write!(f, "fabric codec error: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> FabricError {
        FabricError::Io(e)
    }
}

impl From<CheckpointError> for FabricError {
    fn from(e: CheckpointError) -> FabricError {
        FabricError::Codec(e)
    }
}

impl From<kgpt_syzlang::codec::DecodeError> for FabricError {
    fn from(e: kgpt_syzlang::codec::DecodeError) -> FabricError {
        FabricError::Codec(e.into())
    }
}
