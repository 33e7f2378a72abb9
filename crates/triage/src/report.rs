//! The per-campaign triage report: one entry per distinct
//! [`CrashSignature`], carrying the captured raw reproducer, its
//! minimized form, and dedup statistics.
//!
//! Reports are built by the campaign driver **in shard-id order at
//! epoch boundaries** (the same discipline as the seed hub), so the
//! merge is first-publisher-wins: the entry for a signature belongs to
//! the earliest epoch that saw it, lowest shard id on ties, and every
//! later observation only bumps the dedup counter. The whole structure
//! derives `PartialEq`, and the sharded campaign's report is pinned
//! bit-identical at any worker thread count.

use kgpt_syzlang::prog::Program;
use kgpt_vkernel::CrashSignature;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Triage record for one crash signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriageEntry {
    /// The dedup key.
    pub signature: CrashSignature,
    /// Crash title of the first observation (reporting only — dedup
    /// never looks at it).
    pub title: String,
    /// CVE of the first observation, if assigned.
    pub cve: Option<String>,
    /// Epoch (exec-boundary index) of the first observation.
    pub first_epoch: u64,
    /// Shard that first observed the signature.
    pub first_shard: u32,
    /// Crashing executions with this signature, summed across shards.
    pub count: u64,
    /// The full `ProgCall` stream captured at first observation.
    pub raw: Program,
    /// The 1-minimal reproducer (ddmin output; still triggers the
    /// signature under lowered dispatch).
    pub minimized: Program,
    /// Replays the minimizer spent shrinking `raw`.
    pub minimize_execs: u64,
    /// Whether the raw capture still triggered its signature when
    /// replayed at the triage boundary. Kernel state can drift between
    /// capture and drain in principle; a stale capture is reported
    /// as-is (`minimized == raw`) instead of being minimized against a
    /// signature it no longer reaches — and never aborts the campaign.
    pub reproducible: bool,
}

impl TriageEntry {
    /// Raw-to-minimized call-count ratio (≥ 1; a 1-call reproducer
    /// that cannot shrink reports 1.0).
    #[must_use]
    pub fn shrink_ratio(&self) -> f64 {
        self.raw.len() as f64 / self.minimized.len().max(1) as f64
    }
}

/// Per-signature triage results of one campaign. See the module docs
/// for the merge discipline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriageReport {
    entries: BTreeMap<CrashSignature, TriageEntry>,
}

impl TriageReport {
    /// Empty report.
    #[must_use]
    pub fn new() -> TriageReport {
        TriageReport::default()
    }

    /// Rebuild a report from its entries (the checkpoint decoder's
    /// path — admission is a boundary operation, restoring is not).
    /// `None` when two entries share a signature.
    #[must_use]
    pub fn from_entries(entries: Vec<TriageEntry>) -> Option<TriageReport> {
        let count = entries.len();
        let entries: BTreeMap<_, _> = entries.into_iter().map(|e| (e.signature, e)).collect();
        (entries.len() == count).then_some(TriageReport { entries })
    }

    /// Number of distinct signatures triaged.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no signature was triaged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a signature, if triaged.
    #[must_use]
    pub fn get(&self, sig: &CrashSignature) -> Option<&TriageEntry> {
        self.entries.get(sig)
    }

    /// Whether a signature has been triaged.
    #[must_use]
    pub fn contains(&self, sig: &CrashSignature) -> bool {
        self.entries.contains_key(sig)
    }

    /// Entries in signature order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &TriageEntry> {
        self.entries.values()
    }

    /// Admit a shard's first-seen capture. First-publisher-wins:
    /// when the signature is already present the capture is dropped
    /// (the caller still accounts its observations via
    /// [`TriageReport::add_count`]). Returns whether the entry was
    /// taken — callers only minimize when it is.
    pub fn admit(&mut self, entry: TriageEntry) -> bool {
        match self.entries.entry(entry.signature) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Record `n` further crashing executions with `sig`. The entry
    /// must exist (captures drain before counts at every boundary).
    pub fn add_count(&mut self, sig: &CrashSignature, n: u64) {
        debug_assert!(
            self.entries.contains_key(sig),
            "counts for an uncaptured signature"
        );
        if let Some(e) = self.entries.get_mut(sig) {
            e.count += n;
        }
    }

    /// Mean raw/minimized call-count ratio over all entries (0.0 when
    /// empty).
    #[must_use]
    pub fn mean_shrink_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries
            .values()
            .map(TriageEntry::shrink_ratio)
            .sum::<f64>()
            / self.entries.len() as f64
    }

    /// Total replays spent minimizing, over all entries.
    #[must_use]
    pub fn total_minimize_execs(&self) -> u64 {
        self.entries.values().map(|e| e.minimize_execs).sum()
    }

    /// Total raw and minimized call counts (for shrink accounting).
    #[must_use]
    pub fn call_totals(&self) -> (usize, usize) {
        self.entries
            .values()
            .fold((0, 0), |(r, m), e| (r + e.raw.len(), m + e.minimized.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_vkernel::{SanitizerKind, Sysno};

    fn sig(site: u64) -> CrashSignature {
        CrashSignature {
            sysno: Sysno::Ioctl,
            chain_depth: 1,
            sanitizer: SanitizerKind::Kmalloc,
            site,
        }
    }

    fn entry(site: u64, shard: u32, epoch: u64, raw_len: usize) -> TriageEntry {
        let call = kgpt_syzlang::prog::ProgCall {
            sys: 0,
            args: vec![],
        };
        TriageEntry {
            signature: sig(site),
            title: format!("bug at {site}"),
            cve: None,
            first_epoch: epoch,
            first_shard: shard,
            count: 0,
            raw: Program {
                calls: vec![call.clone(); raw_len],
            },
            minimized: Program {
                calls: vec![call; raw_len.div_ceil(2)],
            },
            minimize_execs: 10,
            reproducible: true,
        }
    }

    #[test]
    fn first_publisher_wins_and_counts_accumulate() {
        let mut r = TriageReport::new();
        assert!(r.admit(entry(5, 0, 1, 8)));
        assert!(!r.admit(entry(5, 3, 2, 4)), "later capture must lose");
        r.add_count(&sig(5), 3);
        r.add_count(&sig(5), 2);
        let e = r.get(&sig(5)).unwrap();
        assert_eq!((e.first_shard, e.first_epoch, e.count), (0, 1, 5));
        assert_eq!(e.raw.len(), 8, "the first capture's reproducer is kept");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_entries_rebuilds_the_report_and_refuses_duplicates() {
        let mut admitted = TriageReport::new();
        admitted.admit(entry(2, 1, 0, 12));
        admitted.admit(entry(1, 0, 0, 8));
        let rebuilt = TriageReport::from_entries(admitted.entries().cloned().collect());
        assert_eq!(rebuilt, Some(admitted));
        let twice = vec![entry(5, 0, 1, 8), entry(5, 3, 2, 4)];
        assert_eq!(TriageReport::from_entries(twice), None);
    }

    #[test]
    fn shrink_accounting() {
        let mut r = TriageReport::new();
        r.admit(entry(1, 0, 0, 8)); // 8 → 4: ratio 2
        r.admit(entry(2, 1, 0, 12)); // 12 → 6: ratio 2
        assert!((r.mean_shrink_ratio() - 2.0).abs() < 1e-9);
        assert_eq!(r.call_totals(), (20, 10));
        assert_eq!(r.total_minimize_execs(), 20);
        assert_eq!(TriageReport::new().mean_shrink_ratio(), 0.0);
    }
}
