//! The coverage-keyed seed corpus.
//!
//! A [`Corpus`] is the campaign's memory: every retained program is
//! keyed by the coverage it *contributed* when it was admitted (the
//! bitmap diff against everything the corpus had seen before), and
//! carries per-entry productivity statistics — how often it was
//! picked as a mutation seed and how often one of its mutants was
//! itself admitted. Those statistics drive both scheduling and
//! eviction:
//!
//! * **selection** is weighted by productivity (contributed blocks
//!   and mutation hits, decayed by how often the entry has already
//!   been fuzzed), replacing the old uniform-and-biased
//!   `rng % corpus.len()` pick — the underlying bounded sampler is
//!   rejection-based and exactly unbiased (see [`SplitMix64`]);
//! * **eviction** under the size cap drops the *least productive*
//!   entry (minimum weight, oldest first on ties) instead of the
//!   oldest, so a long campaign keeps the seeds that still earn
//!   coverage.
//!
//! Everything is integer arithmetic over an owned [`SplitMix64`]
//! stream, so a corpus is a pure function of its construction seed
//! and the sequence of `select`/`observe`/`admit_foreign` calls —
//! the determinism the sharded campaign and the cross-shard
//! [`crate::hub::SeedHub`] build on.
//!
//! A corpus can also be **marked** (crate-internal `Corpus::mark`,
//! driven by [`crate::LeaseRunner::acked`]): from then on it can say
//! what changed since — which marked entries survive and with which
//! counters, which entries are new, which coverage words gained a
//! block — without a copy of its marked self to compare against. That
//! is what a fabric worker ships at a boundary; the bookkeeping is one
//! `u32` per entry and nothing per exec.
//!
//! Beside each entry a corpus may also hold the states its program
//! leaves at its call boundaries ([`Corpus::prefix`]), from which a
//! campaign resumes the entry's mutants. They are derived — recorded
//! as the entry's mutants run — and take no part in equality, a clone,
//! a checkpoint or a frame.

use crate::exec::{ExecPrefix, ExecScratch};
use kgpt_syzlang::prog::Program;
use kgpt_vkernel::{CoverageMap, CoverageWordDiff};

/// One retained seed with its coverage key and productivity stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The program itself.
    pub program: Program,
    /// Coverage this entry contributed when admitted (its dedup key;
    /// disjoint from every earlier entry's contribution).
    pub contributed: CoverageMap,
    /// Times this entry was selected as a mutation seed.
    pub execs: u64,
    /// Times a mutant of this entry was itself admitted.
    pub hits: u64,
}

impl CorpusEntry {
    /// Scheduling weight: productivity (contributed blocks, mutation
    /// hits) decayed by how much the entry has already been fuzzed.
    /// Always ≥ 1, so every entry stays reachable.
    #[must_use]
    pub fn weight(&self) -> u64 {
        let base = 1 + self.contributed.len() as u64 + 8 * self.hits;
        let fatigue = 4 + self.execs.min(60);
        (base * 16 / fatigue).max(1)
    }
}

/// A corpus entry that survived since a baseline, identified by its
/// position in the baseline entry list, with its refreshed scheduler
/// counters. The program and contributed coverage of a surviving
/// entry never change, so a boundary patch ships 20 bytes instead of
/// the whole entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeptEntry {
    /// Index into the baseline's entry list. A `u32` because a corpus
    /// is capped far below it (2 048 entries in a campaign): whoever
    /// numbers entries stops at `u32::MAX`, and an entry past that is
    /// shipped whole — dearer, never wrong.
    pub index: u32,
    /// Times the entry was picked as a mutation seed, post-epoch.
    pub execs: u64,
    /// Times a mutant of the entry was itself admitted, post-epoch.
    pub hits: u64,
}

/// The mark of an entry admitted since the corpus was last marked.
const UNMARKED: u32 = u32::MAX;

/// Counters over a corpus's lifetime (monotone; eviction does not
/// roll them back).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Locally executed programs admitted for new coverage.
    pub admitted: u64,
    /// Seeds imported from the cross-shard hub.
    pub imported: u64,
    /// Entries evicted under the size cap.
    pub evicted: u64,
}

/// A size-bounded, coverage-deduplicated seed corpus with weighted
/// scheduling. See the module docs.
#[derive(Debug)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// Union of every block this corpus knows about — executed here
    /// or imported from the hub. Admission is keyed against this map.
    coverage: CoverageMap,
    cap: usize,
    rng: SplitMix64,
    /// Sum of entry weights, maintained incrementally.
    total_weight: u64,
    stats: CorpusStats,
    /// In step with `entries`: each entry's index when the corpus was
    /// last marked, [`UNMARKED`] for one admitted since. Survivors
    /// keep their order and admissions append, so the marks ascend.
    /// Beside the entries, not in them: an entry's equality and its
    /// bytes on disk and on the wire know nothing of marks.
    marks: Vec<u32>,
    /// Indices of the `coverage` words that gained a block since the
    /// last mark — a set of small dense integers, so a bitmap.
    touched: CoverageMap,
    /// In step with `entries`: the states each entry's program passes
    /// through at its first call boundaries, once somebody ran a mutant
    /// of it ([`Corpus::prefix`]). Derived, like the marks beside the
    /// entries: recorded again when missing, never cloned, compared,
    /// persisted or shipped.
    prefixes: Vec<Option<Box<ExecPrefix>>>,
}

/// A copy holds no prefix states: they are recorded again where the
/// copy is stepped, against its kernel.
impl Clone for Corpus {
    fn clone(&self) -> Corpus {
        Corpus {
            entries: self.entries.clone(),
            coverage: self.coverage.clone(),
            cap: self.cap,
            rng: self.rng.clone(),
            total_weight: self.total_weight,
            stats: self.stats,
            marks: self.marks.clone(),
            touched: self.touched.clone(),
            prefixes: unrecorded(self.entries.len()),
        }
    }
}

/// `n` prefix slots, none recorded.
fn unrecorded(n: usize) -> Vec<Option<Box<ExecPrefix>>> {
    std::iter::repeat_with(|| None).take(n).collect()
}

/// Two corpora are equal when continuing them is: the cap, the
/// selection stream, the coverage, the entries and the counters — what
/// a checkpoint persists. The marks and the prefix states are
/// bookkeeping and take no part.
impl PartialEq for Corpus {
    fn eq(&self, other: &Corpus) -> bool {
        (self.cap, self.rng.state(), self.stats) == (other.cap, other.rng.state(), other.stats)
            && self.coverage == other.coverage
            && self.entries == other.entries
    }
}

impl Eq for Corpus {}

impl Corpus {
    /// Empty corpus holding at most `cap` entries, with its own
    /// deterministic selection stream seeded by `seed`.
    #[must_use]
    pub fn new(cap: usize, seed: u64) -> Corpus {
        Corpus {
            entries: Vec::new(),
            coverage: CoverageMap::new(),
            cap: cap.max(1),
            rng: SplitMix64::new(seed),
            total_weight: 0,
            stats: CorpusStats::default(),
            marks: Vec::new(),
            touched: CoverageMap::new(),
            prefixes: Vec::new(),
        }
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Union of all coverage this corpus has observed (executed or
    /// imported).
    #[must_use]
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> CorpusStats {
        self.stats
    }

    /// The incrementally maintained sum of entry weights — the
    /// scheduling denominator. Invariant (pinned by tests): always
    /// equal to summing [`CorpusEntry::weight`] over the entries,
    /// through selections, admissions, imports and evictions.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The program of entry `idx`.
    #[must_use]
    pub fn program(&self, idx: usize) -> &Program {
        &self.entries[idx].program
    }

    /// Entry `idx` (coverage key and stats included).
    #[must_use]
    pub fn entry(&self, idx: usize) -> &CorpusEntry {
        &self.entries[idx]
    }

    /// The states entry `idx`'s program leaves at its first call
    /// boundaries, to run a mutant of it from ([`ExecPrefix::restore`],
    /// [`ExecPrefix::run`], which records more of them). Empty the
    /// first time it is asked for — and again when `scratch` runs under
    /// another fuel limit or trace flag than it was recorded under —
    /// and kept until the entry leaves. A corpus is stepped against one
    /// kernel: a clone starts with none.
    pub fn prefix(&mut self, idx: usize, scratch: &ExecScratch) -> &mut ExecPrefix {
        let slot = &mut self.prefixes[idx];
        if !slot.as_ref().is_some_and(|prefix| prefix.fits(scratch)) {
            *slot = None;
        }
        slot.get_or_insert_with(|| Box::new(ExecPrefix::new(scratch)))
    }

    /// All retained entries in admission order (checkpointing view).
    #[must_use]
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// The selection stream's raw state, for checkpointing. Restoring
    /// it via [`Corpus::from_parts`] continues the exact pick
    /// sequence.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Rebuild a corpus from checkpointed parts. `total_weight` is
    /// recomputed from the entries (it is derived state), so a
    /// restored corpus upholds the incremental-sum invariant by
    /// construction. Continuing the result is bit-identical to
    /// continuing the corpus the parts were captured from.
    #[must_use]
    pub fn from_parts(
        cap: usize,
        rng_state: u64,
        coverage: CoverageMap,
        entries: Vec<CorpusEntry>,
        stats: CorpusStats,
    ) -> Corpus {
        let total_weight = entries.iter().map(CorpusEntry::weight).sum();
        Corpus {
            marks: vec![UNMARKED; entries.len()],
            touched: CoverageMap::new(),
            prefixes: unrecorded(entries.len()),
            entries,
            coverage,
            cap: cap.max(1),
            rng: SplitMix64::from_state(rng_state),
            total_weight,
            stats,
        }
    }

    /// Decompose into what [`Corpus::from_parts`] takes besides the
    /// cap: `(rng_state, coverage, entries, stats)`.
    #[must_use]
    pub fn into_parts(self) -> (u64, CoverageMap, Vec<CorpusEntry>, CorpusStats) {
        (self.rng.state(), self.coverage, self.entries, self.stats)
    }

    /// Pick a mutation seed, weighted by entry productivity; `None`
    /// on an empty corpus. Charges one exec against the picked entry
    /// (the fatigue input of its weight).
    pub fn select(&mut self) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mut r = self.rng.bounded(self.total_weight);
        // Falling off the end picks the last entry.
        let (mut idx, mut old) = (self.entries.len() - 1, 0);
        for (i, e) in self.entries.iter().enumerate() {
            old = e.weight();
            if r < old {
                idx = i;
                break;
            }
            r -= old;
        }
        self.entries[idx].execs += 1;
        self.total_weight = self.total_weight - old + self.entries[idx].weight();
        Some(idx)
    }

    /// Record one execution outcome: merge `cov` into the corpus
    /// coverage and admit `prog` if it contributed new blocks,
    /// crediting `parent` (the mutation seed it came from, if any)
    /// with a hit. Returns the number of newly covered blocks
    /// (0 = nothing new). By-value form of
    /// [`Corpus::observe_in_place`]: the nothing-new path allocates
    /// nothing, but it is where this form drops the rejected program,
    /// which frees every argument list and every pointee the program
    /// does not share with a corpus parent.
    pub fn observe(
        &mut self,
        mut prog: Program,
        cov: &CoverageMap,
        parent: Option<usize>,
    ) -> usize {
        self.observe_in_place(&mut prog, cov, parent)
    }

    /// [`Corpus::observe`] on a program the caller keeps: the program
    /// is taken (an empty one is left in its place) only when it is
    /// admitted. A rejected program stays where it is, untouched —
    /// storage for the caller's next one
    /// ([`crate::gen::Generator::mutate_into`]) — so the nothing-new
    /// path neither allocates nor frees.
    pub fn observe_in_place(
        &mut self,
        prog: &mut Program,
        cov: &CoverageMap,
        parent: Option<usize>,
    ) -> usize {
        if self.coverage.new_blocks_in(cov) == 0 {
            return 0;
        }
        if let Some(p) = parent {
            let old = self.entries[p].weight();
            self.entries[p].hits += 1;
            self.total_weight = self.total_weight - old + self.entries[p].weight();
        }
        let contributed = self.coverage.merge_diff(cov);
        let new = contributed.len();
        self.stats.admitted += 1;
        self.push(CorpusEntry {
            program: std::mem::take(prog),
            contributed,
            execs: 0,
            hits: 0,
        });
        new
    }

    /// Admit a seed published by another shard: if its claimed
    /// contribution has blocks this corpus does not know, retain a
    /// clone keyed by the unknown part. Returns whether the seed was
    /// taken. Does not touch the selection stream, so an exchange
    /// that imports nothing leaves the corpus bit-identical.
    pub fn admit_foreign(&mut self, prog: &Program, claimed: &CoverageMap) -> bool {
        if self.coverage.new_blocks_in(claimed) == 0 {
            return false;
        }
        let contributed = self.coverage.merge_diff(claimed);
        self.stats.imported += 1;
        self.push(CorpusEntry {
            program: prog.clone(),
            contributed,
            execs: 0,
            hits: 0,
        });
        true
    }

    /// Indices of the `k` highest-weight entries, ordered by weight
    /// descending with index ascending on ties (deterministic).
    #[must_use]
    pub fn top_indices(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.entries[i].weight()), i));
        idx.truncate(k);
        idx
    }

    /// Decompose into the coverage union and the retained entry
    /// count (the campaign-result view of a finished worker).
    #[must_use]
    pub fn into_coverage(self) -> (CoverageMap, usize) {
        (self.coverage, self.entries.len())
    }

    fn push(&mut self, entry: CorpusEntry) {
        self.total_weight += entry.weight();
        // An admission is the only way the corpus coverage grows, and
        // it grows by exactly the entry's contribution.
        let gained = (0u64..).zip(entry.contributed.words());
        self.touched
            .extend(gained.filter_map(|(w, bits)| (*bits != 0).then_some(w)));
        self.entries.push(entry);
        self.marks.push(UNMARKED);
        self.prefixes.push(None);
        while self.entries.len() > self.cap {
            self.evict_least_productive();
        }
    }

    /// Drop the minimum-weight entry (oldest first on ties). The
    /// corpus coverage keeps the evicted entry's blocks — eviction
    /// bounds memory, it does not forget what was reached.
    fn evict_least_productive(&mut self) {
        let Some(victim) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.weight(), *i))
            .map(|(i, _)| i)
        else {
            return; // nothing to evict
        };
        let gone = self.entries.remove(victim);
        self.marks.remove(victim);
        self.prefixes.remove(victim);
        self.total_weight -= gone.weight();
        self.stats.evicted += 1;
    }

    /// Mark the corpus: number its entries `0..len` and forget which
    /// coverage words were touched. What `kept_since_mark`,
    /// `added_since_mark` and `coverage_since_mark` report is relative
    /// to here.
    pub(crate) fn mark(&mut self) {
        for (index, mark) in self.marks.iter_mut().enumerate() {
            *mark = u32::try_from(index).unwrap_or(UNMARKED);
        }
        self.touched.clear();
    }

    /// How many entries carry a mark — they are the first ones.
    fn marked(&self) -> usize {
        self.marks.partition_point(|m| *m != UNMARKED)
    }

    /// The marked entries that are still here, in order: each one's
    /// index at the mark and its counters now. What a scan of a copy
    /// taken at the mark for the same `(program, contributed)` would
    /// find — contributions are pairwise disjoint and never empty, so
    /// an entry has one match, and survivors keep their order.
    pub(crate) fn kept_since_mark(&self) -> impl ExactSizeIterator<Item = KeptEntry> + '_ {
        let n = self.marked();
        let kept = self.marks[..n].iter().zip(&self.entries[..n]);
        kept.map(|(index, e)| KeptEntry {
            index: *index,
            execs: e.execs,
            hits: e.hits,
        })
    }

    /// The entries admitted (executed here or imported) since the
    /// mark and not evicted again, in admission order: the tail of
    /// [`Corpus::entries`] after the survivors.
    pub(crate) fn added_since_mark(&self) -> &[CorpusEntry] {
        &self.entries[self.marked()..]
    }

    /// [`CoverageMap::diff_words_since`] of the corpus coverage
    /// against what it was at the mark.
    pub(crate) fn coverage_since_mark(&self) -> CoverageWordDiff {
        self.coverage
            .diff_words_at(self.touched.iter().map(|w| w as usize))
    }

    /// Become the corpus a boundary patch describes, in place: keep
    /// the entries `kept` names and overwrite their two counters, drop
    /// the rest, append `added`, patch the coverage words, take the
    /// scalars — what [`Corpus::from_parts`] builds from the same
    /// pieces, without copying an entry that stayed. Unmarked
    /// afterwards, like any rebuilt corpus. `kept` must ascend
    /// strictly and stay in range (the patch was checked against this
    /// corpus); a record that does not is skipped, not a panic.
    pub(crate) fn apply_patch(
        &mut self,
        rng_state: u64,
        stats: CorpusStats,
        cov_diff: CoverageWordDiff,
        kept: &[KeptEntry],
        added: Vec<CorpusEntry>,
    ) {
        // Entry `k.index` is still where it was: every swap so far
        // touched two positions below it.
        let (mut n, mut next) = (0, 0);
        for k in kept {
            let at = k.index as usize;
            if at < next || at >= self.entries.len() {
                continue;
            }
            self.entries.swap(n, at);
            self.prefixes.swap(n, at);
            (self.entries[n].execs, self.entries[n].hits) = (k.execs, k.hits);
            n += 1;
            next = at + 1;
        }
        self.entries.truncate(n);
        self.entries.extend(added);
        self.prefixes.truncate(n);
        self.prefixes.resize_with(self.entries.len(), || None);
        self.total_weight = self.entries.iter().map(CorpusEntry::weight).sum();
        self.coverage.patch_words(cov_diff);
        self.rng = SplitMix64::from_state(rng_state);
        self.stats = stats;
        self.marks.clear();
        self.marks.resize(self.entries.len(), UNMARKED);
        self.touched.clear();
    }
}

/// SplitMix64: the corpus's owned deterministic word stream. Bounded
/// sampling uses rejection (`bounded`), so picks are *exactly*
/// uniform over `0..n` — no modulo bias, unlike the former
/// `(rng >> 33) % len` corpus pick.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The raw stream state (SplitMix64's state is its last counter
    /// value, so this doubles as a seed for [`SplitMix64::from_state`]).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Continue a stream from a state captured with
    /// [`SplitMix64::state`] — restore, not reseeding: the next draws
    /// are bit-identical to continuing the original.
    #[must_use]
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64(state)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Exactly uniform draw from `0..n` (n ≥ 1) by rejection: raw
    /// words below `reject_threshold(n)` are discarded, leaving an
    /// accepted range whose size is a multiple of `n`, so every
    /// residue has the same number of preimages.
    pub fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "bounded(0)");
        let threshold = reject_threshold(n);
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }
}

/// `2^64 mod n`: the count of raw words that must be rejected so the
/// accepted range `threshold..2^64` has a size divisible by `n`.
#[must_use]
pub(crate) fn reject_threshold(n: u64) -> u64 {
    // `2^64 - n` is a multiple of `n` away from `2^64`.
    n.wrapping_neg() % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_syzlang::{ConstDb, SpecDb};

    fn cov(blocks: &[u64]) -> CoverageMap {
        blocks.iter().copied().collect()
    }

    /// Give every entry a prefix; its address names the entry it was
    /// recorded for.
    fn box_prefixes(c: &mut Corpus) -> Vec<*const ExecPrefix> {
        let scratch = ExecScratch::new(&SpecDb::default(), &ConstDb::default());
        (0..c.len())
            .map(|i| std::ptr::from_ref(c.prefix(i, &scratch)))
            .collect()
    }

    fn prefix_at(c: &Corpus, i: usize) -> Option<*const ExecPrefix> {
        c.prefixes[i].as_deref().map(std::ptr::from_ref)
    }

    fn prog() -> Program {
        Program::default()
    }

    #[test]
    fn admits_only_new_coverage_and_keys_entries_by_the_diff() {
        let mut c = Corpus::new(64, 0);
        assert_eq!(c.observe(prog(), &cov(&[1, 2, 3]), None), 3);
        // Overlapping execution: only the delta is the entry's key.
        assert_eq!(c.observe(prog(), &cov(&[2, 3, 4]), None), 1);
        assert_eq!(c.entry(1).contributed, cov(&[4]));
        // Fully covered execution is dropped.
        assert_eq!(c.observe(prog(), &cov(&[1, 4]), None), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.coverage(), &cov(&[1, 2, 3, 4]));
        assert_eq!(c.stats().admitted, 2);
    }

    #[test]
    fn parent_hit_credit_raises_weight() {
        let mut c = Corpus::new(64, 0);
        c.observe(prog(), &cov(&[1]), None);
        let before = c.entry(0).weight();
        c.observe(prog(), &cov(&[2]), Some(0));
        assert_eq!(c.entry(0).hits, 1);
        assert!(c.entry(0).weight() > before);
    }

    #[test]
    fn eviction_drops_the_least_productive_not_the_oldest() {
        let mut c = Corpus::new(3, 0);
        // Entry 0 is old but highly productive (many blocks).
        c.observe(prog(), &cov(&[1, 2, 3, 4, 5, 6, 7, 8]), None);
        // Entries 1 and 2 are single-block.
        c.observe(prog(), &cov(&[100]), None);
        c.observe(prog(), &cov(&[200]), None);
        // Make entry 1 strictly weaker than entry 2 via fatigue.
        c.entries[1].execs = 50;
        let w: Vec<u64> = c.entries.iter().map(CorpusEntry::weight).collect();
        c.total_weight = w.iter().sum();
        assert!(w[1] < w[2] && w[1] < w[0]);
        // Overflow the cap: the weakest (entry 1) goes, not entry 0,
        // and its prefix with it.
        let boxed = box_prefixes(&mut c);
        c.observe(prog(), &cov(&[300]), None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evicted, 1);
        assert_eq!(
            (0..3).map(|i| prefix_at(&c, i)).collect::<Vec<_>>(),
            [Some(boxed[0]), Some(boxed[2]), None]
        );
        assert_eq!(c.entry(0).contributed, cov(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(c.entry(1).contributed, cov(&[200]));
        // Evicted coverage is not forgotten: re-observing block 100
        // contributes nothing.
        assert_eq!(c.observe(prog(), &cov(&[100]), None), 0);
    }

    #[test]
    fn selection_is_deterministic_and_favors_productive_entries() {
        let run = |seed: u64| -> Vec<usize> {
            let mut c = Corpus::new(64, seed);
            c.observe(prog(), &cov(&(0..40).collect::<Vec<u64>>()), None);
            c.observe(prog(), &cov(&[100]), None);
            (0..50).map(|_| c.select().unwrap()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same pick sequence");
        assert_ne!(run(7), run(8), "seed is part of the stream");
        let picks = run(7);
        let heavy = picks.iter().filter(|&&i| i == 0).count();
        assert!(heavy > 25, "40-block entry picked only {heavy}/50");
    }

    #[test]
    fn bounded_pick_is_bias_free() {
        // Structural half: the rejection zone leaves an accepted
        // range whose size is an exact multiple of n, so each residue
        // has identical probability — the former `(rng >> 33) % len`
        // pick had no such property. `threshold.wrapping_neg()` is
        // `2^64 - threshold`, the accepted count.
        for n in [1u64, 2, 3, 5, 6, 7, 10, 1000, 2048, (1 << 33) + 1] {
            let threshold = reject_threshold(n);
            assert!(threshold < n, "n={n}");
            assert_eq!(
                threshold.wrapping_neg() % n,
                0,
                "accepted range not a multiple of n={n}"
            );
        }
        // Statistical half: equal-weight entries are picked uniformly.
        let mut rng = SplitMix64::new(0xB1A5);
        let n = 10u64;
        let draws = 100_000u64;
        let mut buckets = [0u64; 10];
        for _ in 0..draws {
            buckets[rng.bounded(n) as usize] += 1;
        }
        let expect = draws / n;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                b.abs_diff(expect) < expect / 10,
                "bucket {i}: {b} vs {expect}"
            );
        }
    }

    #[test]
    fn the_threshold_is_two_to_the_64_mod_n_in_one_division() {
        // What `reject_threshold` computed in two: `2^64 mod n` as
        // `((2^64 - 1) mod n + 1) mod n`. The selection stream hangs
        // on the two agreeing everywhere.
        let two_divisions = |n: u64| (u64::MAX % n).wrapping_add(1) % n;
        let powers = (1..64).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        for n in (1..=4096).chain(powers).chain([u64::MAX - 1, u64::MAX]) {
            assert_eq!(reject_threshold(n), two_divisions(n), "n={n}");
            assert_eq!(
                u128::from(reject_threshold(n)),
                (1u128 << 64) % u128::from(n)
            );
        }
    }

    #[test]
    fn foreign_admission_dedups_and_skips_the_selection_stream() {
        let mut c = Corpus::new(64, 3);
        c.observe(prog(), &cov(&[1, 2]), None);
        let stream_probe = c.rng.clone().next_u64();
        // Already-known claim: rejected, nothing imported.
        assert!(!c.admit_foreign(&prog(), &cov(&[1])));
        // Partially new claim: retained, keyed by the unknown part.
        assert!(c.admit_foreign(&prog(), &cov(&[2, 3])));
        assert_eq!(c.entry(1).contributed, cov(&[3]));
        assert_eq!(c.stats().imported, 1);
        assert_eq!(
            c.rng.clone().next_u64(),
            stream_probe,
            "imports must not consume selection randomness"
        );
    }

    /// What the mark says changed must be what a comparison with a
    /// copy taken at the mark finds — the greedy scan for the next
    /// baseline entry with the same `(program, contributed)`, the word
    /// diff of the two coverage maps — and patching that copy in
    /// place must turn it into the live corpus.
    fn assert_mark_agrees(mut base: Corpus, live: &Corpus) {
        let (mut kept, mut added, mut next) = (Vec::new(), Vec::new(), 0);
        for e in live.entries() {
            let found = base.entries[next..]
                .iter()
                .position(|b| b.program == e.program && b.contributed == e.contributed)
                .filter(|_| added.is_empty());
            match found {
                Some(off) => {
                    kept.push(KeptEntry {
                        index: (next + off) as u32,
                        execs: e.execs,
                        hits: e.hits,
                    });
                    next += off + 1;
                }
                None => added.push(e.clone()),
            }
        }
        assert_eq!(live.kept_since_mark().collect::<Vec<_>>(), kept);
        assert_eq!(live.added_since_mark(), added);
        let cov_diff = live.coverage_since_mark();
        assert_eq!(cov_diff, live.coverage().diff_words_since(base.coverage()));
        assert_eq!(
            live.marks.len(),
            live.entries.len(),
            "one mark per entry, always"
        );

        // Word for word the map a copy would have been rebuilt into
        // (which may be shorter than the live one: zero words the live
        // map merely spans are not a change).
        let rebuilt = base.coverage().apply_word_diff(&cov_diff);
        let boxed = box_prefixes(&mut base);
        base.apply_patch(live.rng_state(), live.stats(), cov_diff, &kept, added);
        // A kept entry keeps its prefix; an added one has none yet.
        assert_eq!(base.prefixes.len(), base.len());
        for (n, k) in kept.iter().enumerate() {
            assert_eq!(prefix_at(&base, n), Some(boxed[k.index as usize]));
        }
        assert!((kept.len()..base.len()).all(|n| prefix_at(&base, n).is_none()));
        assert_eq!(base.coverage().words(), rebuilt.words());
        assert_eq!(base.total_weight(), live.total_weight());
        assert_eq!(base.marks, vec![UNMARKED; base.len()]);
        assert_eq!(base.into_parts(), live.clone().into_parts());
    }

    /// Three entries under cap 3: entry 0 heavy, entry 1 the weakest,
    /// entry 2 in between.
    fn heavy_weak_middling() -> Corpus {
        let mut c = Corpus::new(3, 9);
        c.observe(prog(), &cov(&[1, 2, 3, 4, 5, 6, 7, 8]), None);
        c.observe(prog(), &cov(&[100]), None);
        c.observe(prog(), &cov(&[200, 201, 202]), None);
        c
    }

    #[test]
    fn a_mark_on_an_empty_corpus_ships_everything_after_it_whole() {
        let mut c = Corpus::new(4, 1);
        c.mark();
        assert_mark_agrees(c.clone(), &c);
        let base = c.clone();
        c.observe(prog(), &cov(&[1, 2]), None);
        c.observe(prog(), &cov(&[2, 3, 64 * 5]), Some(0));
        assert_eq!(c.kept_since_mark().len(), 0);
        assert_eq!(c.added_since_mark().len(), 2);
        assert_mark_agrees(base, &c);
        // A corpus never marked says the same: nothing kept, all new.
        let mut unmarked = Corpus::new(4, 1);
        unmarked.observe(prog(), &cov(&[1, 2]), None);
        assert_eq!(unmarked.kept_since_mark().len(), 0);
        assert_eq!(unmarked.added_since_mark().len(), 1);
    }

    #[test]
    fn the_mark_follows_a_survivor_evicted_between_two_survivors() {
        let mut c = heavy_weak_middling();
        c.mark();
        let base = c.clone();
        // Re-weighting survivors moves their counters, not their marks.
        for _ in 0..5 {
            let _ = c.select();
        }
        assert_mark_agrees(base.clone(), &c);
        // The cap evicts the weakest entry — the middle one.
        assert_eq!(c.observe(prog(), &cov(&[300, 301]), Some(0)), 2);
        assert_eq!(c.stats().evicted, 1);
        let kept: Vec<u32> = c.kept_since_mark().map(|k| k.index).collect();
        assert_eq!(kept, [0, 2]);
        assert_eq!(c.added_since_mark().len(), 1);
        assert_mark_agrees(base, &c);
        // The next mark renumbers what is there now.
        c.mark();
        let kept: Vec<u32> = c.kept_since_mark().map(|k| k.index).collect();
        assert_eq!(kept, [0, 1, 2]);
        assert!(c.coverage_since_mark().is_empty());
        assert_mark_agrees(c.clone(), &c);
    }

    #[test]
    fn an_entry_admitted_and_evicted_between_two_marks_leaves_only_its_coverage() {
        let mut c = Corpus::new(3, 4);
        for blocks in [[1u64, 2, 3], [10, 11, 12], [20, 21, 22]] {
            c.observe(prog(), &cov(&blocks), None);
        }
        c.mark();
        let base = c.clone();
        // One block against three each: admitted, then the cap takes
        // it straight back out.
        assert_eq!(c.observe(prog(), &cov(&[64 * 7 + 1]), None), 1);
        assert_eq!((c.len(), c.stats().evicted), (3, 1));
        assert_eq!(c.kept_since_mark().len(), 3);
        assert!(c.added_since_mark().is_empty());
        assert!(
            !c.coverage_since_mark().is_empty(),
            "eviction does not forget what was reached"
        );
        assert_mark_agrees(base.clone(), &c);
        // A strong newcomer stays and pushes a survivor out; a second
        // one pushes out the newcomer's own neighbour.
        c.observe(prog(), &cov(&[400, 401, 402, 403, 404]), None);
        assert_mark_agrees(base.clone(), &c);
        c.observe(prog(), &cov(&[500, 501, 502, 503, 504, 505]), None);
        assert_mark_agrees(base, &c);
    }

    #[test]
    fn an_import_after_the_mark_is_an_admission_like_any_other() {
        let mut c = heavy_weak_middling();
        c.mark();
        let base = c.clone();
        // Known claim: refused, nothing moves.
        assert!(!c.admit_foreign(&prog(), &cov(&[1, 100])));
        assert!(c.coverage_since_mark().is_empty());
        assert_mark_agrees(base.clone(), &c);
        // New claim, padded with zero words by its publisher: taken
        // (evicting the weakest survivor), keyed by the unknown part.
        let hub: CoverageMap = cov(&[64 * 30]);
        let claimed = hub.diff_in(&cov(&[8, 9, 10, 64 * 30]));
        assert!(c.admit_foreign(&prog(), &claimed));
        assert_eq!(c.stats().imported, 1);
        assert_eq!(c.added_since_mark().len(), 1);
        assert_mark_agrees(base, &c);
    }

    #[test]
    fn a_patch_whose_kept_list_does_not_fit_is_skipped_not_a_panic() {
        let mut c = heavy_weak_middling();
        let record = |index| KeptEntry {
            index,
            execs: 7,
            hits: 1,
        };
        let unfit = [record(2), record(2), record(1), record(9)];
        c.apply_patch(
            5,
            CorpusStats::default(),
            CoverageWordDiff::Sparse(Vec::new()),
            &unfit,
            Vec::new(),
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.prefixes.len(), 1);
        assert_eq!(c.entry(0).contributed, cov(&[200, 201, 202]));
        assert_eq!(c.total_weight(), c.entry(0).weight());
    }

    #[test]
    fn top_indices_order_by_weight_then_age() {
        let mut c = Corpus::new(64, 0);
        c.observe(prog(), &cov(&[1]), None);
        c.observe(prog(), &cov(&[10, 11, 12]), None);
        c.observe(prog(), &cov(&[20]), None);
        // Entries 0 and 2 tie; the older index comes first.
        assert_eq!(c.top_indices(3), vec![1, 0, 2]);
        assert_eq!(c.top_indices(1), vec![1]);
        assert_eq!(c.top_indices(0), Vec::<usize>::new());
    }
}
