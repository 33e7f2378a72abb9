//! Per-tenant resource budgets: declared quotas, real-time usage
//! tracking, and overflow detection.
//!
//! A [`TenantQuota`] declares what a tenant may spend — executions,
//! wall-clock milliseconds, accepted delta bytes — and a
//! [`BudgetTracker`] charges actual usage against it. The service
//! consults [`BudgetTracker::overflow`] only at **epoch boundaries**:
//! overflow never aborts mid-epoch, it triggers graceful termination
//! (finish the boundary, fold the committed state, release leases),
//! so a budget-truncated result is bit-identical to an unlimited run
//! halted at the same boundary.
//!
//! Of the three dimensions only the exec charge is deterministic (a
//! pure function of config and boundary count —
//! `CampaignMerge::execs_done`); wall-time and byte quotas are
//! enforced with the same boundary-aligned discipline but naturally
//! vary run to run, so the bit-identity tests starve execs only.

/// Declared resource quotas for one tenant. Each dimension defaults
/// to [`u64::MAX`] — unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum executions the campaign may commit.
    pub max_execs: u64,
    /// Maximum wall-clock milliseconds since admission.
    pub max_wall_ms: u64,
    /// Maximum accepted (first-delivery) delta frame bytes.
    pub max_delta_bytes: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota::unlimited()
    }
}

impl TenantQuota {
    /// No limits on any dimension.
    #[must_use]
    pub fn unlimited() -> TenantQuota {
        TenantQuota {
            max_execs: u64::MAX,
            max_wall_ms: u64::MAX,
            max_delta_bytes: u64::MAX,
        }
    }

    /// An unlimited quota with only the exec dimension capped — the
    /// deterministic budget the chaos soak starves.
    #[must_use]
    pub fn execs(max_execs: u64) -> TenantQuota {
        TenantQuota {
            max_execs,
            ..TenantQuota::unlimited()
        }
    }
}

/// Which budget dimension overflowed first (fixed check order: execs,
/// wall, bytes — so the reported dimension is deterministic when
/// several overflow in the same boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowKind {
    /// The exec quota is spent.
    Execs,
    /// The wall-clock quota is spent.
    WallMs,
    /// The delta-byte quota is spent.
    DeltaBytes,
}

/// A usage snapshot: spent vs declared, per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Executions committed so far.
    pub execs: u64,
    /// Wall-clock milliseconds since admission.
    pub wall_ms: u64,
    /// Accepted delta frame bytes so far.
    pub delta_bytes: u64,
    /// The declared quota the above are charged against.
    pub quota: TenantQuota,
}

impl BudgetUsage {
    /// Utilization of the tightest dimension, in parts per thousand
    /// (0 = untouched, ≥1000 = exhausted). Unlimited dimensions never
    /// contribute.
    #[must_use]
    pub fn utilization_permille(&self) -> u64 {
        let dim = |used: u64, max: u64| -> u64 {
            if max == u64::MAX || max == 0 {
                return 0;
            }
            used.saturating_mul(1000) / max
        };
        dim(self.execs, self.quota.max_execs)
            .max(dim(self.wall_ms, self.quota.max_wall_ms))
            .max(dim(self.delta_bytes, self.quota.max_delta_bytes))
    }
}

/// Charges a tenant's actual resource usage against its declared
/// [`TenantQuota`] and reports overflow. Totals are absolute (set,
/// not accumulated) for the dimensions whose source of truth is
/// elsewhere — committed execs and wall time so far — and
/// accumulated for delta bytes, which the service meters itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetTracker {
    quota: TenantQuota,
    execs: u64,
    wall_ms: u64,
    delta_bytes: u64,
}

impl BudgetTracker {
    /// A fresh tracker for `quota` with nothing spent.
    #[must_use]
    pub fn new(quota: TenantQuota) -> BudgetTracker {
        BudgetTracker {
            quota,
            execs: 0,
            wall_ms: 0,
            delta_bytes: 0,
        }
    }

    /// Record the committed exec total (monotone: a lower value than
    /// already recorded is ignored — commits never un-happen).
    pub fn record_execs(&mut self, total: u64) {
        self.execs = self.execs.max(total);
    }

    /// Record the wall-clock total since admission in milliseconds
    /// (monotone).
    pub fn record_wall_ms(&mut self, total: u64) {
        self.wall_ms = self.wall_ms.max(total);
    }

    /// Charge `n` accepted delta frame bytes (accumulates).
    pub fn charge_delta_bytes(&mut self, n: u64) {
        self.delta_bytes = self.delta_bytes.saturating_add(n);
    }

    /// The first exhausted dimension, if any. A dimension is
    /// exhausted once its usage **reaches** the quota — a tenant with
    /// nothing left to spend is done, it does not get one more epoch.
    #[must_use]
    pub fn overflow(&self) -> Option<OverflowKind> {
        let spent = |used: u64, max: u64| max != u64::MAX && used >= max;
        if spent(self.execs, self.quota.max_execs) {
            Some(OverflowKind::Execs)
        } else if spent(self.wall_ms, self.quota.max_wall_ms) {
            Some(OverflowKind::WallMs)
        } else if spent(self.delta_bytes, self.quota.max_delta_bytes) {
            Some(OverflowKind::DeltaBytes)
        } else {
            None
        }
    }

    /// Current usage snapshot.
    #[must_use]
    pub fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            execs: self.execs,
            wall_ms: self.wall_ms,
            delta_bytes: self.delta_bytes,
            quota: self.quota,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_quota_never_overflows() {
        let mut t = BudgetTracker::new(TenantQuota::unlimited());
        t.record_execs(u64::MAX - 1);
        t.record_wall_ms(u64::MAX - 1);
        t.charge_delta_bytes(u64::MAX - 1);
        assert_eq!(t.overflow(), None);
        assert_eq!(t.usage().utilization_permille(), 0);
    }

    #[test]
    fn exec_quota_overflows_exactly_at_the_quota() {
        let mut t = BudgetTracker::new(TenantQuota::execs(1000));
        t.record_execs(999);
        assert_eq!(t.overflow(), None);
        assert_eq!(t.usage().utilization_permille(), 999);
        t.record_execs(1000);
        assert_eq!(t.overflow(), Some(OverflowKind::Execs));
        assert!(t.usage().utilization_permille() >= 1000);
        // Monotone: a stale lower total cannot un-exhaust the budget.
        t.record_execs(10);
        assert_eq!(t.usage().execs, 1000);
        assert_eq!(t.overflow(), Some(OverflowKind::Execs));
    }

    #[test]
    fn overflow_reports_dimensions_in_fixed_order() {
        let quota = TenantQuota {
            max_execs: 10,
            max_wall_ms: 10,
            max_delta_bytes: 10,
        };
        let mut t = BudgetTracker::new(quota);
        t.charge_delta_bytes(10);
        assert_eq!(t.overflow(), Some(OverflowKind::DeltaBytes));
        t.record_wall_ms(10);
        assert_eq!(t.overflow(), Some(OverflowKind::WallMs));
        t.record_execs(10);
        assert_eq!(t.overflow(), Some(OverflowKind::Execs));
    }

    #[test]
    fn delta_bytes_accumulate_and_saturate() {
        let mut t = BudgetTracker::new(TenantQuota {
            max_delta_bytes: 100,
            ..TenantQuota::unlimited()
        });
        t.charge_delta_bytes(60);
        assert_eq!(t.overflow(), None);
        t.charge_delta_bytes(60);
        assert_eq!(t.overflow(), Some(OverflowKind::DeltaBytes));
        assert_eq!(t.usage().delta_bytes, 120);
        t.charge_delta_bytes(u64::MAX);
        assert_eq!(t.usage().delta_bytes, u64::MAX);
    }
}
