//! The epoch boundary, written once.
//!
//! Every route that computes a campaign meets the same sequence where
//! an epoch ends, on one thread, in shard-id order: admit each
//! shard's freshly minimized crash captures into the campaign's
//! [`TriageReport`] (first publisher wins) and fold its observation
//! counts; count the boundary; stop *before* the exchange when every
//! shard is out of budget; otherwise publish every shard's corpus to
//! the [`SeedHub`], then import the seeds the hub newly retained into
//! every shard. [`Boundary`] holds the campaign-level state that
//! sequence mutates — the three things a checkpoint persists beside
//! its shards — and is the sequence's only implementation:
//!
//! * [`crate::ShardedCampaign`] feeds it from live shard state;
//! * [`crate::fabric::CampaignMerge`] feeds it from corpora rebuilt
//!   out of the workers' deltas;
//! * a sequential [`crate::Campaign`] is one shard through
//!   [`Boundary::admit_shard`].
//!
//! So the routes agree by construction, not by three loops kept in
//! step. CI greps that no other non-test code calls
//! [`SeedHub::publish`], [`TriageReport::admit`] or
//! [`TriageReport::add_count`].

use crate::corpus::Corpus;
use crate::hub::{HubSeed, SeedHub};
use kgpt_triage::{TriageEntry, TriageReport};
use kgpt_vkernel::CrashSignature;
use std::ops::Range;

/// The campaign-level state an epoch boundary advances.
pub(crate) struct Boundary {
    pub(crate) hub: SeedHub,
    pub(crate) triage: TriageReport,
    /// Boundaries closed so far; fault injection and checkpoints key
    /// off it, so a resumed run continues the same numbering.
    pub(crate) epochs_done: u64,
}

impl Boundary {
    /// Boundary 0 of a fresh campaign.
    pub(crate) fn new(hub_top_k: usize) -> Boundary {
        Boundary {
            hub: SeedHub::new(hub_top_k),
            triage: TriageReport::new(),
            epochs_done: 0,
        }
    }

    /// One shard's triage contribution. Callers feed shards in
    /// ascending id order, so an earlier shard's candidate owns a
    /// contested signature; candidates go in before counts because a
    /// count may name a signature this very drain captured.
    pub(crate) fn admit_shard(
        &mut self,
        candidates: Vec<TriageEntry>,
        counts: Vec<(CrashSignature, u64)>,
    ) {
        for candidate in candidates {
            self.triage.admit(candidate);
        }
        for (sig, n) in counts {
            self.triage.add_count(&sig, n);
        }
    }

    /// Close the boundary over every shard's `(id, remaining budget,
    /// corpus)`, in ascending id order. `None` when all shards are
    /// exhausted — the campaign is finished and, like the last epoch
    /// of any route, exchanges nothing. Otherwise every shard
    /// publishes, then every shard imports, and the range of
    /// [`SeedHub::seeds`] retained by this boundary comes back (what
    /// a coordinator ships to its workers).
    pub(crate) fn close<'c>(
        &mut self,
        shards: impl IntoIterator<Item = (u32, u64, &'c mut Corpus)>,
    ) -> Option<Range<usize>> {
        let mut shards: Vec<_> = shards.into_iter().collect();
        self.epochs_done += 1;
        if shards.iter().all(|(_, remaining, _)| *remaining == 0) {
            return None;
        }
        let before = self.hub.seeds().len();
        for (id, _, corpus) in &shards {
            self.hub.publish(*id, corpus);
        }
        let retained = &self.hub.seeds()[before..];
        for (id, _, corpus) in &mut shards {
            Boundary::import(retained, *id, corpus);
        }
        Some(before..self.hub.seeds().len())
    }

    /// Admit into `shard`'s corpus every seed of `seeds` another shard
    /// published and that claims blocks the corpus has not seen;
    /// returns how many were taken. Importing only the seeds a
    /// boundary newly retained equals importing the whole hub: a seed
    /// retained earlier was offered to this corpus at that boundary,
    /// so its claim is a subset of the corpus coverage and it is
    /// refused without touching anything (pinned by a test below).
    pub(crate) fn import(seeds: &[HubSeed], shard: u32, corpus: &mut Corpus) -> usize {
        let mut taken = 0;
        for seed in seeds {
            if seed.shard != shard && corpus.admit_foreign(&seed.program, &seed.contributed) {
                taken += 1;
            }
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_syzlang::prog::Program;
    use kgpt_vkernel::CoverageMap;

    fn parts(corpus: &Corpus) -> impl PartialEq + std::fmt::Debug {
        corpus.clone().into_parts()
    }

    /// [`Boundary::close`] offers a corpus only the seeds the boundary
    /// newly retained (as a fabric worker's `LeaseRunner::import`
    /// does); [`SeedHub::import_into`] offers it the whole hub. For a
    /// corpus that imported at every earlier boundary the two leave
    /// identical state — selection stream, coverage, entries, stats —
    /// even when the cap has since evicted what it imported.
    #[test]
    fn importing_the_newly_retained_seeds_equals_importing_the_whole_hub() {
        let mut boundary = Boundary::new(2);
        let mut shards: Vec<Corpus> = (0..3).map(|seed| Corpus::new(3, seed)).collect();
        let mut twins = shards.clone();
        for epoch in 0..4u64 {
            // Every shard finds two blocks of its own per epoch.
            for (i, (shard, twin)) in shards.iter_mut().zip(&mut twins).enumerate() {
                for k in 0..2 {
                    let found: CoverageMap =
                        [100 * i as u64 + 10 * epoch + k].into_iter().collect();
                    assert!(shard.observe(Program::default(), &found, None) > 0);
                    assert!(twin.observe(Program::default(), &found, None) > 0);
                }
            }
            let live = shards.iter_mut().enumerate().map(|(i, c)| (i as u32, 1, c));
            let retained = boundary.close(live).expect("budget remains");
            assert!(!retained.is_empty(), "epoch {epoch} retained nothing");
            for (i, (shard, twin)) in shards.iter().zip(&mut twins).enumerate() {
                boundary.hub.import_into(i as u32, twin);
                assert_eq!(parts(shard), parts(twin), "shard {i}, epoch {epoch}");
            }
        }
        assert_eq!(boundary.epochs_done, 4);
        assert!(
            shards.iter().all(|c| c.stats().evicted > 0),
            "the cap never evicted an import"
        );
    }

    /// The last boundary is counted but exchanges nothing.
    #[test]
    fn a_boundary_with_every_budget_spent_closes_without_an_exchange() {
        let mut boundary = Boundary::new(4);
        let mut corpus = Corpus::new(8, 0);
        let found: CoverageMap = [7].into_iter().collect();
        assert!(corpus.observe(Program::default(), &found, None) > 0);
        assert_eq!(boundary.close([(0, 0, &mut corpus)]), None);
        assert_eq!(boundary.epochs_done, 1);
        assert!(boundary.hub.seeds().is_empty());
        assert_eq!(boundary.hub.published(), 0);
    }
}
