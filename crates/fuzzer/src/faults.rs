//! Deterministic fault injection for campaign durability testing.
//!
//! A [`FaultPlan`] is a fixed list of faults the campaign driver
//! injects at chosen epoch boundaries: checkpoint-write failures
//! (exercising retry-with-backoff and the keep-previous-good path),
//! post-write snapshot truncation/corruption (exercising
//! [`crate::checkpoint::CampaignSnapshot::load`]'s previous-good
//! fallback), and mid-epoch shard aborts (exercising quarantine and
//! sequential re-execution of the poisoned shard). Plans are either
//! built explicitly or derived from a seed ([`FaultPlan::from_seed`]),
//! so every recovery path runs deterministically in CI instead of
//! waiting for real crashes — and the durability invariant (resume is
//! bit-identical) is asserted *under* every fault, not just the happy
//! path.

use crate::corpus::SplitMix64;

/// One injected fault, pinned to a driver epoch (the boundary counter
/// that starts at 0 and increments after every chunk+drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The first `attempts` attempts to write the checkpoint at
    /// `epoch` fail; the driver retries with deterministic backoff up
    /// to its attempt cap and, if all fail, skips the boundary keeping
    /// the previous-good snapshot.
    WriteFail {
        /// Boundary at which writes fail.
        epoch: u64,
        /// How many leading attempts fail.
        attempts: u32,
    },
    /// The snapshot written at `epoch` is truncated on disk afterwards
    /// (a torn write): a later resume must fall back to the
    /// previous-good rotation.
    TruncateSnapshot {
        /// Boundary whose snapshot gets torn.
        epoch: u64,
    },
    /// One byte of the snapshot written at `epoch` is flipped on disk
    /// afterwards (bitrot): the checksum must reject it and resume
    /// falls back to the previous-good rotation.
    CorruptSnapshot {
        /// Boundary whose snapshot rots.
        epoch: u64,
        /// Payload byte index to flip (wrapped into range).
        byte: usize,
    },
    /// Shard `shard`'s in-memory state is poisoned mid-epoch at
    /// `epoch`: the driver quarantines it (discards the poisoned
    /// state), restores the shard from its boundary snapshot, and
    /// re-runs its epoch sequentially — the merged result is
    /// bit-identical to an undisturbed run.
    ShardAbort {
        /// Boundary whose chunk the abort hits.
        epoch: u64,
        /// Victim shard id.
        shard: u32,
    },
    /// Fabric: the `nth` frame (0-based, counted per faulty transport
    /// end) vanishes in transit. The receiver sees nothing; the
    /// sender's retry-on-timeout recovers, and the campaign result is
    /// unchanged.
    DropFrame {
        /// Which outbound frame to drop.
        nth: u64,
    },
    /// Fabric: the `nth` frame is delivered twice. Duplicate delta
    /// delivery is idempotent (the coordinator re-acks without
    /// re-merging) and duplicate replies are ignored by the worker, so
    /// the campaign result is unchanged.
    DuplicateFrame {
        /// Which outbound frame to duplicate.
        nth: u64,
    },
    /// Fabric: the worker holding lease slot `worker` dies silently
    /// (as if SIGKILLed) instead of shipping its delta for `boundary`.
    /// Its uncommitted epoch is lost; the coordinator expires the
    /// lease and the next registrant re-runs the range from the last
    /// committed boundary — bit-identically.
    WorkerKill {
        /// Lease slot (range index) of the victim.
        worker: u32,
        /// Boundary whose delta is never shipped (1-based: the first
        /// epoch a fresh lease runs completes boundary 1).
        boundary: u64,
    },
    /// Fabric: the worker holding lease slot `worker` stalls past its
    /// lease deadline before shipping its delta for `boundary`. The
    /// coordinator expires the lease and reassigns the range; the
    /// late delta lands on a closed transport and is discarded.
    StallLease {
        /// Lease slot (range index) of the stalled worker.
        worker: u32,
        /// Boundary whose delta is delayed past the deadline.
        boundary: u64,
    },
    /// Tenancy: tenant `tenant`'s exec quota is slashed so its budget
    /// exhausts at boundary `boundary`. The service must finish that
    /// boundary, emit a `budget_exhausted` result bit-identical to an
    /// unlimited run halted at the same boundary, and release the
    /// tenant's leases — never a mid-epoch abort.
    BudgetStarve {
        /// Victim tenant id (admission order).
        tenant: u32,
        /// Boundary at which the exec quota runs dry (1-based, like
        /// the fabric boundary counter).
        boundary: u64,
    },
    /// Tenancy: the faulty transport corrupts a run of outbound
    /// frames (`from_nth..from_nth + count`, 0-based) by flipping one
    /// byte in each — a byzantine worker. Every corrupt frame is
    /// checksum-rejected and counted as a strike; enough strikes
    /// quarantine the worker and reassign its range.
    ByzantineFrames {
        /// First outbound frame to corrupt.
        from_nth: u64,
        /// How many consecutive frames to corrupt.
        count: u32,
    },
    /// Tenancy: a flapping worker registers, takes a grant, and
    /// disconnects without running — `flaps` times in a row. Each
    /// flap revokes a lease (a strike); at the strike limit the
    /// worker is quarantined and its re-registrations refused for the
    /// cooldown.
    WorkerFlap {
        /// How many register-then-disconnect cycles to perform.
        flaps: u32,
    },
}

/// A deterministic set of faults to inject into one campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults (the production default).
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add one fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Derive a plan covering every fault kind from a seed: one
    /// write-failure burst, one truncation, one corruption, and one
    /// shard abort, at seed-chosen epochs in `0..epochs` against
    /// `shards` shards. A pure function of its inputs — the same seed
    /// always injects the same faults at the same boundaries.
    #[must_use]
    pub fn from_seed(seed: u64, epochs: u64, shards: u32) -> FaultPlan {
        let epochs = epochs.max(1);
        let mut rng = SplitMix64::new(seed);
        FaultPlan::none()
            .with(Fault::WriteFail {
                epoch: rng.bounded(epochs),
                attempts: 1 + u32::try_from(rng.bounded(2)).unwrap_or(0),
            })
            .with(Fault::TruncateSnapshot {
                epoch: rng.bounded(epochs),
            })
            .with(Fault::CorruptSnapshot {
                epoch: rng.bounded(epochs),
                byte: usize::try_from(rng.bounded(4096)).unwrap_or(0),
            })
            .with(Fault::ShardAbort {
                epoch: rng.bounded(epochs),
                shard: u32::try_from(rng.bounded(u64::from(shards.max(1)))).unwrap_or(0),
            })
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in injection order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// How many leading write attempts fail at `epoch` (summed over
    /// matching faults).
    pub(crate) fn write_fail_attempts(&self, epoch: u64) -> u32 {
        self.faults
            .iter()
            .map(|f| match f {
                Fault::WriteFail { epoch: e, attempts } if *e == epoch => *attempts,
                _ => 0,
            })
            .sum()
    }

    /// The shard to abort mid-epoch at `epoch`, if any (first match
    /// wins).
    pub(crate) fn shard_abort(&self, epoch: u64) -> Option<u32> {
        self.faults.iter().find_map(|f| match f {
            Fault::ShardAbort { epoch: e, shard } if *e == epoch => Some(*shard),
            _ => None,
        })
    }

    /// Post-write damage to apply to the snapshot written at `epoch`:
    /// `Some(None)` truncates, `Some(Some(byte))` flips that payload
    /// byte (first match wins).
    pub(crate) fn post_write_damage(&self, epoch: u64) -> Option<Option<usize>> {
        self.faults.iter().find_map(|f| match f {
            Fault::TruncateSnapshot { epoch: e } if *e == epoch => Some(None),
            Fault::CorruptSnapshot { epoch: e, byte } if *e == epoch => Some(Some(*byte)),
            _ => None,
        })
    }

    /// Whether the `nth` outbound frame of a faulty fabric transport
    /// should be dropped.
    #[must_use]
    pub fn drop_frame(&self, nth: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DropFrame { nth: n } if *n == nth))
    }

    /// Whether the `nth` outbound frame of a faulty fabric transport
    /// should be delivered twice.
    #[must_use]
    pub fn duplicate_frame(&self, nth: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DuplicateFrame { nth: n } if *n == nth))
    }

    /// Whether the worker on lease slot `worker` dies silently instead
    /// of shipping its delta for `boundary`.
    #[must_use]
    pub fn worker_kill(&self, worker: u32, boundary: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::WorkerKill { worker: w, boundary: b }
                if *w == worker && *b == boundary)
        })
    }

    /// Whether the worker on lease slot `worker` stalls past its lease
    /// deadline before shipping its delta for `boundary`.
    #[must_use]
    pub fn stall_lease(&self, worker: u32, boundary: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::StallLease { worker: w, boundary: b }
                if *w == worker && *b == boundary)
        })
    }

    /// The boundary at which tenant `tenant`'s exec budget runs dry,
    /// if a [`Fault::BudgetStarve`] targets it (first match wins).
    #[must_use]
    pub fn budget_starve(&self, tenant: u32) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::BudgetStarve {
                tenant: t,
                boundary,
            } if *t == tenant => Some(*boundary),
            _ => None,
        })
    }

    /// Whether the `nth` outbound frame of a faulty fabric transport
    /// should be corrupted (one byte flipped) — byzantine behaviour
    /// the receiver must checksum-reject and strike.
    #[must_use]
    pub fn byzantine_frame(&self, nth: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::ByzantineFrames { from_nth, count }
                if (*from_nth..from_nth.saturating_add(u64::from(*count))).contains(&nth))
        })
    }

    /// How many register-then-disconnect cycles a flapping worker
    /// under this plan performs (summed over matching faults).
    #[must_use]
    pub fn worker_flaps(&self) -> u32 {
        self.faults
            .iter()
            .map(|f| match f {
                Fault::WorkerFlap { flaps } => *flaps,
                _ => 0,
            })
            .sum()
    }

    /// Derive a fabric plan covering the whole distributed failure
    /// matrix from a seed: one dropped frame, one duplicated frame,
    /// one worker kill, and one stalled lease, at seed-chosen
    /// boundaries in `1..=boundaries` against `workers` lease slots.
    /// A pure function of its inputs, like [`FaultPlan::from_seed`].
    #[must_use]
    pub fn fabric_from_seed(seed: u64, boundaries: u64, workers: u32) -> FaultPlan {
        let boundaries = boundaries.max(1);
        let workers = u64::from(workers.max(1));
        let mut rng = SplitMix64::new(seed);
        FaultPlan::none()
            .with(Fault::DropFrame {
                nth: rng.bounded(8),
            })
            .with(Fault::DuplicateFrame {
                nth: rng.bounded(8),
            })
            .with(Fault::WorkerKill {
                worker: u32::try_from(rng.bounded(workers)).unwrap_or(0),
                boundary: 1 + rng.bounded(boundaries),
            })
            .with(Fault::StallLease {
                worker: u32::try_from(rng.bounded(workers)).unwrap_or(0),
                boundary: 1 + rng.bounded(boundaries),
            })
    }

    /// Derive a multi-tenant **chaos plan** from a seed: the whole
    /// fabric failure matrix of [`FaultPlan::fabric_from_seed`] plus
    /// the tenancy faults — one budget-starved tenant (quota dry at a
    /// seed-chosen non-final boundary), one byzantine frame burst,
    /// and one flapping worker. A pure function of its inputs: the
    /// same seed always composes the same chaos.
    #[must_use]
    pub fn chaos_from_seed(seed: u64, tenants: u32, boundaries: u64, workers: u32) -> FaultPlan {
        let boundaries = boundaries.max(1);
        let tenants = u64::from(tenants.max(1));
        let mut rng = SplitMix64::new(seed ^ 0x43_48_41_4F_53); // "CHAOS"
        FaultPlan::fabric_from_seed(seed, boundaries, workers)
            .with(Fault::BudgetStarve {
                tenant: u32::try_from(rng.bounded(tenants)).unwrap_or(0),
                // Strictly before the natural final boundary, so the
                // starved tenant really is truncated.
                boundary: 1 + rng.bounded(boundaries.saturating_sub(1).max(1)),
            })
            .with(Fault::ByzantineFrames {
                from_nth: 1 + rng.bounded(4),
                count: 1 + u32::try_from(rng.bounded(3)).unwrap_or(0),
            })
            .with(Fault::WorkerFlap {
                flaps: 1 + u32::try_from(rng.bounded(3)).unwrap_or(0),
            })
    }
}

/// Damage what a checkpointing campaign wrote last, in place (fault
/// injection only): the bytes of `path` from offset `from` on — a
/// whole base, or a journal's last record. `None` cuts them to half
/// their length (a torn write), `Some(byte)` flips one of them
/// (bitrot), wrapped past the 20 bytes an envelope's payload follows
/// so the checksum — not the magic/version check — is what trips.
/// Deliberately a direct, non-atomic rewrite: it simulates damage that
/// happens *after* the write.
pub(crate) fn damage_file(path: &std::path::Path, from: u64, damage: Option<usize>) {
    use crate::checkpoint::HEADER;
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    let from = usize::try_from(from).map_or(bytes.len(), |from| from.min(bytes.len()));
    let len = bytes.len() - from;
    match damage {
        None => bytes.truncate(from + len / 2),
        Some(byte) if len > HEADER => bytes[from + HEADER + byte % (len - HEADER)] ^= 0xFF,
        Some(_) => {}
    }
    let _ = std::fs::write(path, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_cover_every_kind() {
        let a = FaultPlan::from_seed(42, 10, 8);
        assert_eq!(a, FaultPlan::from_seed(42, 10, 8));
        assert_ne!(a, FaultPlan::from_seed(43, 10, 8));
        assert_eq!(a.faults().len(), 4);
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::WriteFail { .. })));
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::TruncateSnapshot { .. })));
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::CorruptSnapshot { .. })));
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::ShardAbort { .. })));
        for f in a.faults() {
            match *f {
                Fault::WriteFail { epoch, attempts } => {
                    assert!(epoch < 10 && (1..=2).contains(&attempts));
                }
                Fault::TruncateSnapshot { epoch } => assert!(epoch < 10),
                Fault::CorruptSnapshot { epoch, .. } => assert!(epoch < 10),
                Fault::ShardAbort { epoch, shard } => assert!(epoch < 10 && shard < 8),
                f => panic!("from_seed injected a fabric fault: {f:?}"),
            }
        }
    }

    #[test]
    fn seeded_fabric_plans_cover_the_distributed_failure_matrix() {
        let a = FaultPlan::fabric_from_seed(42, 6, 2);
        assert_eq!(a, FaultPlan::fabric_from_seed(42, 6, 2));
        assert_ne!(a, FaultPlan::fabric_from_seed(43, 6, 2));
        assert_eq!(a.faults().len(), 4);
        for f in a.faults() {
            match *f {
                Fault::DropFrame { nth } | Fault::DuplicateFrame { nth } => assert!(nth < 8),
                Fault::WorkerKill { worker, boundary } | Fault::StallLease { worker, boundary } => {
                    assert!(worker < 2 && (1..=6).contains(&boundary));
                }
                f => panic!("fabric_from_seed injected a durability fault: {f:?}"),
            }
        }
        // The accessors hit exactly their injected coordinates.
        let plan = FaultPlan::none()
            .with(Fault::DropFrame { nth: 3 })
            .with(Fault::DuplicateFrame { nth: 5 })
            .with(Fault::WorkerKill {
                worker: 1,
                boundary: 2,
            })
            .with(Fault::StallLease {
                worker: 0,
                boundary: 4,
            });
        assert!(plan.drop_frame(3) && !plan.drop_frame(4));
        assert!(plan.duplicate_frame(5) && !plan.duplicate_frame(3));
        assert!(plan.worker_kill(1, 2) && !plan.worker_kill(0, 2) && !plan.worker_kill(1, 3));
        assert!(plan.stall_lease(0, 4) && !plan.stall_lease(1, 4) && !plan.stall_lease(0, 2));
    }

    #[test]
    fn seeded_chaos_plans_cover_the_tenancy_fault_matrix() {
        let a = FaultPlan::chaos_from_seed(42, 3, 6, 2);
        assert_eq!(a, FaultPlan::chaos_from_seed(42, 3, 6, 2));
        assert_ne!(a, FaultPlan::chaos_from_seed(43, 3, 6, 2));
        // The fabric matrix plus the three tenancy faults.
        assert_eq!(a.faults().len(), 7);
        let starved: Vec<u32> = a
            .faults()
            .iter()
            .filter_map(|f| match f {
                Fault::BudgetStarve { tenant, boundary } => {
                    assert!(
                        (1..6).contains(boundary),
                        "starve before the final boundary"
                    );
                    Some(*tenant)
                }
                _ => None,
            })
            .collect();
        assert_eq!(starved.len(), 1);
        assert!(starved[0] < 3);
        assert!(a.budget_starve(starved[0]).is_some());
        assert!(a.worker_flaps() >= 1);
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::ByzantineFrames { .. })));
    }

    #[test]
    fn tenancy_accessors_match_only_their_coordinates() {
        let plan = FaultPlan::none()
            .with(Fault::BudgetStarve {
                tenant: 2,
                boundary: 3,
            })
            .with(Fault::ByzantineFrames {
                from_nth: 4,
                count: 2,
            })
            .with(Fault::WorkerFlap { flaps: 3 });
        assert_eq!(plan.budget_starve(2), Some(3));
        assert_eq!(plan.budget_starve(1), None);
        assert!(!plan.byzantine_frame(3));
        assert!(plan.byzantine_frame(4) && plan.byzantine_frame(5));
        assert!(!plan.byzantine_frame(6));
        assert_eq!(plan.worker_flaps(), 3);
        assert_eq!(FaultPlan::none().worker_flaps(), 0);
    }

    #[test]
    fn lookups_match_only_their_epoch() {
        let plan = FaultPlan::none()
            .with(Fault::WriteFail {
                epoch: 3,
                attempts: 2,
            })
            .with(Fault::ShardAbort { epoch: 5, shard: 1 })
            .with(Fault::TruncateSnapshot { epoch: 6 })
            .with(Fault::CorruptSnapshot { epoch: 7, byte: 40 });
        assert_eq!(plan.write_fail_attempts(3), 2);
        assert_eq!(plan.write_fail_attempts(4), 0);
        assert_eq!(plan.shard_abort(5), Some(1));
        assert_eq!(plan.shard_abort(3), None);
        assert_eq!(plan.post_write_damage(6), Some(None));
        assert_eq!(plan.post_write_damage(7), Some(Some(40)));
        assert_eq!(plan.post_write_damage(5), None);
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }
}
