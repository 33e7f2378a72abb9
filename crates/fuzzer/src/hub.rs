//! Deterministic cross-shard seed exchange (the syzkaller-style hub).
//!
//! Shards of a [`crate::ShardedCampaign`] fuzz independent corpora;
//! without exchange a seed that unlocks new coverage in shard 0 never
//! reaches shard 7. A [`SeedHub`] fixes that while keeping the
//! campaign a pure function of `(config, shards)`:
//!
//! * exchange happens only at **fixed exec-epoch boundaries**
//!   (`CampaignConfig::hub_epoch` executions per shard), where every
//!   shard has been run to the same point — thread scheduling can
//!   never reorder it;
//! * at a boundary, each shard **publishes** up to `hub_top_k` seeds
//!   *in shard-id order* — its highest-weight entries among those
//!   still claiming coverage new to the hub (a published seed is kept
//!   only for the blocks no earlier-published seed already claims, so
//!   on contested coverage the lowest shard id wins — pinned by
//!   tests);
//! * each shard then **imports** every hub seed from other shards
//!   whose claimed blocks it has not seen, keyed by the unknown part.
//!
//! The hub never caps its seed list explicitly: dedup-by-coverage
//! bounds it at one seed per distinct coverage increment, i.e. at
//! most the number of coverable blocks.

use crate::boundary::Boundary;
use crate::corpus::Corpus;
use kgpt_syzlang::prog::Program;
use kgpt_vkernel::CoverageMap;

/// One seed retained by the hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubSeed {
    /// Shard that published it.
    pub shard: u32,
    /// The program.
    pub program: Program,
    /// Blocks this seed claims — the part of its corpus-entry key no
    /// earlier-published seed already claimed.
    pub contributed: CoverageMap,
}

/// Cross-shard exchange point. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedHub {
    seeds: Vec<HubSeed>,
    /// Union of all claimed blocks (the publish-side dedup key).
    coverage: CoverageMap,
    top_k: usize,
    published: u64,
}

impl SeedHub {
    /// Empty hub; each shard publishes up to `top_k` best seeds per
    /// exchange. `top_k = 0` publishes nothing, making every
    /// exchange a no-op.
    #[must_use]
    pub fn new(top_k: usize) -> SeedHub {
        SeedHub {
            seeds: Vec::new(),
            coverage: CoverageMap::new(),
            top_k,
            published: 0,
        }
    }

    /// Retained seeds, in publication order.
    #[must_use]
    pub fn seeds(&self) -> &[HubSeed] {
        &self.seeds
    }

    /// Union of all claimed blocks.
    #[must_use]
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Publish attempts so far (including rejected duplicates).
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Per-shard publication budget this hub was built with.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Rebuild a hub from checkpointed parts. Continuing the result
    /// (publish/import at later boundaries) is bit-identical to
    /// continuing the hub the parts were captured from.
    #[must_use]
    pub fn from_parts(
        top_k: usize,
        seeds: Vec<HubSeed>,
        coverage: CoverageMap,
        published: u64,
    ) -> SeedHub {
        SeedHub {
            seeds,
            coverage,
            top_k,
            published,
        }
    }

    /// Publish up to `top_k` of `shard`'s seeds: entries are offered
    /// in weight order (best first) and one is retained only if it
    /// claims blocks no earlier publication claimed — so the slots go
    /// to the shard's most productive *novel* seeds, not to heavy
    /// early seeds every shard already has. The caller must publish
    /// shards in ascending id order at every boundary, which makes
    /// hub contents independent of the thread count. Returns how many
    /// seeds were retained.
    pub fn publish(&mut self, shard: u32, corpus: &Corpus) -> usize {
        // Cheap saturation guard: when the corpus holds no block the
        // hub has not claimed, no entry can be retained — skip the
        // ranking sort and the per-entry scans entirely (the common
        // case once shard coverages converge). Pure function of
        // (corpus, hub) state, so thread-invariance is unaffected.
        if self.top_k == 0 || self.coverage.new_blocks_in(corpus.coverage()) == 0 {
            return 0;
        }
        let mut retained = 0usize;
        for idx in corpus.top_indices(corpus.len()) {
            if retained == self.top_k {
                break;
            }
            self.published += 1;
            let entry = corpus.entry(idx);
            if self.coverage.new_blocks_in(&entry.contributed) == 0 {
                continue;
            }
            let contributed = self.coverage.merge_diff(&entry.contributed);
            self.seeds.push(HubSeed {
                shard,
                program: entry.program.clone(),
                contributed,
            });
            retained += 1;
        }
        retained
    }

    /// Import every hub seed published by *other* shards that claims
    /// blocks `corpus` has not seen. Idempotent: a second import at
    /// the same boundary is a no-op, and imports never touch the
    /// corpus's selection stream. Returns how many seeds were taken.
    pub fn import_into(&self, shard: u32, corpus: &mut Corpus) -> usize {
        Boundary::import(&self.seeds, shard, corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cov(blocks: &[u64]) -> CoverageMap {
        blocks.iter().copied().collect()
    }

    fn corpus_with(entries: &[&[u64]]) -> Corpus {
        let mut c = Corpus::new(64, 0);
        for blocks in entries {
            assert!(c.observe(Program::default(), &cov(blocks), None) > 0);
        }
        c
    }

    #[test]
    fn first_publisher_wins_contested_coverage() {
        let mut hub = SeedHub::new(4);
        // Shards 0 and 1 both reached block 5; shard 1 also has 9.
        let a = corpus_with(&[&[1, 5]]);
        let b = corpus_with(&[&[5, 9]]);
        assert_eq!(hub.publish(0, &a), 1);
        assert_eq!(hub.publish(1, &b), 1);
        assert_eq!(hub.seeds().len(), 2);
        assert_eq!(hub.seeds()[0].shard, 0);
        assert_eq!(hub.seeds()[0].contributed, cov(&[1, 5]));
        // Shard 1's seed keeps only what shard 0 did not claim.
        assert_eq!(hub.seeds()[1].shard, 1);
        assert_eq!(hub.seeds()[1].contributed, cov(&[9]));
        assert_eq!(hub.coverage(), &cov(&[1, 5, 9]));
    }

    #[test]
    fn republishing_identical_seeds_is_a_no_op() {
        let mut hub = SeedHub::new(2);
        let a = corpus_with(&[&[1], &[2]]);
        assert_eq!(hub.publish(0, &a), 2);
        assert_eq!(hub.publish(0, &a), 0);
        assert_eq!(hub.seeds().len(), 2);
        // The second publish is cut off by the saturation guard
        // before offering anything.
        assert_eq!(hub.published(), 2);
    }

    #[test]
    fn zero_top_k_publishes_nothing() {
        let mut hub = SeedHub::new(0);
        let a = corpus_with(&[&[1], &[2]]);
        assert_eq!(hub.publish(0, &a), 0);
        assert!(hub.seeds().is_empty());
        let mut b = corpus_with(&[&[9]]);
        assert_eq!(hub.import_into(1, &mut b), 0);
    }

    #[test]
    fn top_k_limits_what_a_shard_publishes() {
        let mut hub = SeedHub::new(1);
        // The 3-block entry outweighs the single-block one.
        let a = corpus_with(&[&[1], &[10, 11, 12]]);
        assert_eq!(hub.publish(0, &a), 1);
        assert_eq!(hub.seeds()[0].contributed, cov(&[10, 11, 12]));
    }

    #[test]
    fn imported_seeds_carry_no_publisher_productivity() {
        // Regression guard against double-counting hub-imported
        // seeds' productivity: a published seed's local exec/hit
        // stats (its fatigue and earned weight in the publishing
        // shard) must NOT travel through the hub. The importing
        // corpus admits a fresh entry — zero execs, zero hits, weight
        // derived only from the claimed-novel blocks — and a repeat
        // import at the next boundary must change nothing.
        let mut publisher = Corpus::new(64, 0);
        assert!(publisher.observe(Program::default(), &cov(&[1, 2, 3]), None) > 0);
        // Earn productivity in the publishing shard: fatigue from
        // selections plus a mutation hit.
        for _ in 0..10 {
            let _ = publisher.select();
        }
        assert!(publisher.observe(Program::default(), &cov(&[9]), Some(0)) > 0);
        assert_eq!(publisher.entry(0).execs, 10);
        assert_eq!(publisher.entry(0).hits, 1);

        let mut hub = SeedHub::new(4);
        assert_eq!(hub.publish(0, &publisher), 2);

        let mut importer = Corpus::new(64, 7);
        assert!(importer.observe(Program::default(), &cov(&[100]), None) > 0);
        assert_eq!(hub.import_into(1, &mut importer), 2);
        assert_eq!(importer.len(), 3);
        for idx in 1..importer.len() {
            let e = importer.entry(idx);
            assert_eq!((e.execs, e.hits), (0, 0), "entry {idx} inherited stats");
        }
        // The imported claim is counted once in the corpus coverage
        // and once in `stats.imported` — a second boundary's import
        // pass is a pure no-op (no new entries, no stat inflation).
        let stats = importer.stats();
        assert_eq!(stats.imported, 2);
        assert_eq!(hub.import_into(1, &mut importer), 0);
        assert_eq!(importer.len(), 3);
        assert_eq!(importer.stats(), stats);
        // Selection weights stay internally consistent: the
        // incremental total equals the sum over entries (weights feed
        // scheduling, so drift here would silently bias every later
        // pick — the "double-counted productivity" failure mode).
        let sum: u64 = (0..importer.len())
            .map(|i| importer.entry(i).weight())
            .sum();
        assert_eq!(importer.total_weight(), sum);
        let sum: u64 = (0..publisher.len())
            .map(|i| publisher.entry(i).weight())
            .sum();
        assert_eq!(publisher.total_weight(), sum);
    }

    #[test]
    fn import_skips_own_seeds_and_is_idempotent() {
        let mut hub = SeedHub::new(4);
        let a = corpus_with(&[&[1, 2]]);
        let mut b = corpus_with(&[&[2, 3]]);
        hub.publish(0, &a);
        hub.publish(1, &b);
        // Shard 1 takes shard 0's seed for block 1 (2 is known).
        assert_eq!(hub.import_into(1, &mut b), 1);
        assert_eq!(b.entry(1).contributed, cov(&[1]));
        assert_eq!(hub.import_into(1, &mut b), 0, "idempotent");
        // Shard 0 takes shard 1's claim on block 3.
        let mut a = a;
        assert_eq!(hub.import_into(0, &mut a), 1);
        assert_eq!(a.coverage(), &cov(&[1, 2, 3]));
    }
}
