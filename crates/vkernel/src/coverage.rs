//! Dense coverage bitmap with a live-word index.
//!
//! Basic-block ids are small dense integers by construction — handler
//! `i` owns the stratum `[(i+1)·4096, (i+2)·4096)` — so a word-array
//! bitmap beats a `BTreeSet<u64>` on every hot operation: insert is
//! one or-and-test, and the distinct-block count is maintained
//! incrementally instead of being recomputed.
//!
//! An exec keeps no map of its own: its coverage is the block runs its
//! event log holds ([`crate::TraceLog`]), and "anything new?" asks the
//! corpus total [`CoverageMap::covers_run`] of each run in turn. A map
//! of one exec is built only where somebody keeps it — an admission, a
//! one-shot result — into storage its builder keeps.
//!
//! The bitmap spans every handler the kernel booted, but one admission
//! touches a dozen words of it. Beside the words the map therefore
//! keeps the indices of its **non-zero words** (first-touch order),
//! and every operation that reads a second map — union, diff,
//! equality — walks that map's live words only: the cost of merging an
//! admission, or a seed another shard published, is the blocks it
//! reached, not the size of the kernel it ran on.
//! [`CoverageMap::clear`] likewise zeroes only what was touched and
//! keeps the zeroed words, so a reused map is neither re-scanned nor
//! re-filled per build. That kept storage is invisible:
//! the map remembers how many words it has addressed since the last
//! `clear` — the length of a map that dropped its storage instead —
//! and [`CoverageMap::words`] and every diff end there, so no
//! checkpoint or frame byte can tell a reused map from a fresh one.
//!
//! The set view ([`CoverageMap::to_btree_set`]) is kept for reports and
//! serialization compatibility; iteration is lazy and ascending, so
//! existing `BTreeSet`-shaped consumers keep working through
//! [`Extend`]/[`FromIterator`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Largest bitmap, in words, a decoder may build from untrusted bytes:
/// 2^18 words cover 4095 handler strata (the paper's full census boots
/// a few hundred) and cap the zero-fill a hostile sparse run can ask
/// [`CoverageMap::apply_word_diff`] for at 2 MiB. Every wire decoder
/// of a [`CoverageWordDiff`] rejects a run or map extending past it
/// *before* anything is resized.
pub const MAX_COVERAGE_WORDS: usize = 1 << 18;

/// A set of covered basic-block ids, stored as a dense bitmap.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Bit `b` of `words[w]` set ⇔ block `w * 64 + b` covered. All
    /// zero from `span` on (a cleared map keeps its zeroed storage).
    words: Vec<u64>,
    /// One past the highest word addressed since the last `clear`:
    /// the map's length as every reader sees it. It may itself cover
    /// trailing zero words — a merged map is as long as the longest
    /// map merged into it, a diff as long as the map it was taken of.
    span: usize,
    /// Indices of the non-zero words, each exactly once, in the order
    /// they first became non-zero. Bits are only ever added, so a word
    /// enters this list once and leaves it only through `clear`.
    live: Vec<u32>,
    /// Number of set bits, maintained incrementally.
    count: usize,
}

impl CoverageMap {
    /// Empty map.
    #[must_use]
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Empty map with room for block ids below `max_block` without
    /// reallocation.
    #[must_use]
    pub fn with_capacity(max_block: u64) -> CoverageMap {
        CoverageMap {
            words: Vec::with_capacity((max_block / 64 + 1) as usize),
            ..CoverageMap::default()
        }
    }

    /// Or `bits` into word `w` — the one place a word changes, so the
    /// one place the live index and the count are kept. Returns the
    /// number of newly set bits.
    #[inline]
    fn or_word(&mut self, w: usize, bits: u64) -> usize {
        self.reach(w + 1);
        let old = self.words[w];
        let add = bits & !old;
        if add == 0 {
            return 0;
        }
        if old == 0 {
            self.live.push(w as u32);
        }
        self.words[w] = old | add;
        let newly = add.count_ones() as usize;
        self.count += newly;
        newly
    }

    /// Grow the map to span at least `span` words.
    #[inline]
    fn reach(&mut self, span: usize) {
        if span > self.span {
            if span > self.words.len() {
                self.words.resize(span, 0);
            }
            self.span = span;
        }
    }

    /// Word `w`, zero past the end.
    #[inline]
    fn word(&self, w: u32) -> u64 {
        self.words.get(w as usize).copied().unwrap_or(0)
    }

    /// The live words as `(index, word)`, in first-touch order.
    #[inline]
    fn live_words(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.live.iter().map(|&w| (w, self.words[w as usize]))
    }

    /// Insert a block id. Returns `true` if it was newly covered.
    pub fn insert(&mut self, block: u64) -> bool {
        self.or_word(block as usize / 64, 1u64 << (block % 64)) == 1
    }

    /// Insert the `len` consecutive block ids from `start` — a word at
    /// a time, so a straight-line run of blocks costs one or-and-count
    /// per word it spans, not one per block. Returns the number of
    /// newly covered blocks.
    pub fn insert_run(&mut self, start: u64, len: u32) -> usize {
        let end = start + u64::from(len);
        let mut newly = 0;
        let mut at = start;
        while at < end {
            // Bits `lo..hi` of the word holding `at`.
            let lo = at % 64;
            let hi = (end - (at - lo)).min(64);
            let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
            newly += self.or_word(at as usize / 64, mask);
            at += hi - lo;
        }
        newly
    }

    /// Whether every one of the `len` consecutive block ids from
    /// `start` is covered: the run's first and last words under a mask,
    /// every word between them whole. The admission test asks it of
    /// each run an exec retired.
    #[inline]
    #[must_use]
    pub fn covers_run(&self, start: u64, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let last = start + u64::from(len) - 1;
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - last % 64);
        match self.words.get(start as usize / 64..=last as usize / 64) {
            Some([one]) => one & head & tail == head & tail,
            Some([first, between @ .., end]) => {
                first & head == head && end & tail == tail && between.iter().all(|w| *w == u64::MAX)
            }
            _ => false,
        }
    }

    /// Whether a block is covered.
    #[must_use]
    pub fn contains(&self, block: u64) -> bool {
        self.words
            .get(block as usize / 64)
            .is_some_and(|w| w & (1 << (block % 64)) != 0)
    }

    /// Number of distinct covered blocks. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no block is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Remove every block by zeroing the words that hold one. The
    /// zeroed words stay, so refilling a reused map (the per-exec hot
    /// loop) neither allocates nor zero-fills again.
    pub fn clear(&mut self) {
        for w in self.live.drain(..) {
            self.words[w as usize] = 0;
        }
        self.span = 0;
        self.count = 0;
    }

    /// Union `other` into `self`, one live word of `other` at a time.
    /// Returns the number of newly covered blocks. Commutative in
    /// effect: merge order never changes the resulting set.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        self.reach(other.span);
        other
            .live_words()
            .map(|(w, bits)| self.or_word(w as usize, bits))
            .sum()
    }

    /// Number of blocks in `other` not covered by `self`, without
    /// modifying either (the coverage-guided "is this input
    /// interesting" test) — a walk over `other`'s live words.
    #[must_use]
    pub fn new_blocks_in(&self, other: &CoverageMap) -> usize {
        other
            .live_words()
            .map(|(w, bits)| (bits & !self.word(w)).count_ones() as usize)
            .sum()
    }

    /// The blocks of `other` not covered by `self`, as a new map —
    /// the per-entry "coverage contributed" key of a corpus seed.
    /// Allocates; guard hot paths with [`CoverageMap::new_blocks_in`]
    /// first when the diff is usually empty.
    #[must_use]
    pub fn diff_in(&self, other: &CoverageMap) -> CoverageMap {
        let mut delta = CoverageMap {
            words: vec![0; other.span],
            span: other.span,
            ..CoverageMap::default()
        };
        for (w, bits) in other.live_words() {
            delta.or_word(w as usize, bits & !self.word(w));
        }
        delta
    }

    /// Union `other` into `self` and return the contributed delta as
    /// its own map: [`CoverageMap::diff_in`] followed by
    /// [`CoverageMap::merge`] of the delta.
    pub fn merge_diff(&mut self, other: &CoverageMap) -> CoverageMap {
        let delta = self.diff_in(other);
        self.merge(&delta);
        delta
    }

    /// Whether the two maps share no block.
    #[must_use]
    pub fn is_disjoint(&self, other: &CoverageMap) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Lazy ascending iteration over covered block ids.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Sorted-set view, for reports and serialized artifacts that
    /// predate the bitmap representation.
    #[must_use]
    pub fn to_btree_set(&self) -> BTreeSet<u64> {
        self.iter().collect()
    }

    /// The raw bitmap words (bit `b` of word `w` set ⇔ block
    /// `w * 64 + b` covered) — the checkpoint serialization view.
    /// Ends at the highest word addressed since the last `clear`, so
    /// it may end in zero words but never shows what a cleared map
    /// held.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.span]
    }

    /// Rebuild a map from raw bitmap words previously obtained via
    /// [`CoverageMap::words`]. The live index and the distinct-block
    /// count are recomputed from the words, so a writer that trimmed
    /// (or kept) trailing zero words restores to a map equal to the
    /// original.
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> CoverageMap {
        let live = (0u32..)
            .zip(&words)
            .filter_map(|(w, bits)| (*bits != 0).then_some(w))
            .collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        CoverageMap {
            span: words.len(),
            words,
            live,
            count,
        }
    }

    /// Word-level diff of `self` against `base`: the instructions that
    /// turn `base` into a map equal to `self`. Changed words are
    /// collected into runs of consecutive indices (the run-length fast
    /// path — fresh coverage clusters inside a handler's block
    /// stratum); when the sparse form would serialize larger than the
    /// full bitmap, the diff falls back to [`CoverageWordDiff::Dense`].
    #[must_use]
    pub fn diff_words_since(&self, base: &CoverageMap) -> CoverageWordDiff {
        let (new_words, old_words) = (self.words(), base.words());
        let word = |words: &[u64], i: usize| words.get(i).copied().unwrap_or(0);
        self.diff_words_at(
            (0..new_words.len().max(old_words.len()))
                .filter(|&i| word(new_words, i) != word(old_words, i)),
        )
    }

    /// [`CoverageMap::diff_words_since`] for a caller that already
    /// knows *which* words differ from the base's — `changed`, their
    /// indices in ascending order — and so needs no base to compare
    /// against: the same runs, the same sparse-or-dense choice, for
    /// work proportional to the change.
    #[must_use]
    pub fn diff_words_at(&self, changed: impl IntoIterator<Item = usize>) -> CoverageWordDiff {
        let new_words = self.words();
        let mut runs: Vec<(u32, Vec<u64>)> = Vec::new();
        for i in changed {
            let new = new_words.get(i).copied().unwrap_or(0);
            match runs.last_mut() {
                Some((start, words)) if *start as usize + words.len() == i => words.push(new),
                _ => runs.push((u32::try_from(i).unwrap_or(u32::MAX), vec![new])),
            }
        }
        let sparse = CoverageWordDiff::Sparse(runs);
        if sparse.encoded_bytes() < CoverageWordDiff::dense_bytes(new_words.len()) {
            sparse
        } else {
            CoverageWordDiff::Dense(new_words.to_vec())
        }
    }

    /// Apply a diff produced by [`CoverageMap::diff_words_since`] to
    /// `self` (the base the diff was taken against) and return the
    /// reconstructed map. Inverse property:
    /// `base.apply_word_diff(&new.diff_words_since(&base)) == new`.
    #[must_use]
    pub fn apply_word_diff(&self, diff: &CoverageWordDiff) -> CoverageMap {
        match diff {
            CoverageWordDiff::Dense(words) => CoverageMap::from_words(words.clone()),
            CoverageWordDiff::Sparse(runs) => {
                let mut words = self.words().to_vec();
                for (start, run) in runs {
                    let start = *start as usize;
                    if start + run.len() > words.len() {
                        words.resize(start + run.len(), 0);
                    }
                    words[start..start + run.len()].copy_from_slice(run);
                }
                CoverageMap::from_words(words)
            }
        }
    }

    /// [`CoverageMap::apply_word_diff`] in place: afterwards `self` is
    /// the map that call would have returned, [`CoverageMap::words`]
    /// included, for work proportional to the diff — nothing is copied
    /// but the words that changed.
    pub fn patch_words(&mut self, diff: CoverageWordDiff) {
        match diff {
            CoverageWordDiff::Dense(words) => *self = CoverageMap::from_words(words),
            CoverageWordDiff::Sparse(runs) => {
                for (start, run) in runs {
                    let start = start as usize;
                    self.reach(start + run.len());
                    for (w, bits) in (start..).zip(run) {
                        self.set_word(w, bits);
                    }
                }
            }
        }
    }

    /// Replace word `w` (inside the span) with `bits`, keeping the
    /// live index and the count. A diff between two states of one
    /// growing map only ever adds bits; one that takes a word back to
    /// zero is a stranger's, and pays a scan of the index for it.
    fn set_word(&mut self, w: usize, bits: u64) {
        let old = std::mem::replace(&mut self.words[w], bits);
        self.count = self.count - old.count_ones() as usize + bits.count_ones() as usize;
        match (old == 0, bits == 0) {
            (true, false) => self.live.push(w as u32),
            (false, true) => self.live.retain(|&l| l as usize != w),
            _ => {}
        }
    }
}

/// A word-granular coverage diff: how to rebuild a newer
/// [`CoverageMap`] from an agreed base. Produced by
/// [`CoverageMap::diff_words_since`], consumed by
/// [`CoverageMap::apply_word_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageWordDiff {
    /// Runs of consecutive changed words: `(first word index,
    /// replacement words)`. An empty run list means the maps are
    /// equal (up to trailing-zero representation noise).
    Sparse(Vec<(u32, Vec<u64>)>),
    /// The newer map's full bitmap — chosen when the sparse form
    /// would serialize larger than simply resending every word.
    Dense(Vec<u64>),
}

impl CoverageWordDiff {
    /// Whether applying this diff is a no-op (the maps were equal).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            CoverageWordDiff::Sparse(runs) => runs.is_empty(),
            CoverageWordDiff::Dense(_) => false,
        }
    }

    /// Serialized size of this diff in the checkpoint codec: a u32
    /// count plus, per sparse run, a u32 start + u32 length header
    /// and 8 bytes per word (dense pays the header once). The
    /// dense-fallback decision in [`CoverageMap::diff_words_since`]
    /// compares exactly these numbers.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        match self {
            CoverageWordDiff::Sparse(runs) => {
                4 + runs.iter().map(|(_, w)| 8 + 8 * w.len()).sum::<usize>()
            }
            CoverageWordDiff::Dense(words) => CoverageWordDiff::dense_bytes(words.len()),
        }
    }

    /// Serialized size of a dense diff over `words` bitmap words.
    #[must_use]
    pub fn dense_bytes(words: usize) -> usize {
        4 + 8 * words
    }
}

impl PartialEq for CoverageMap {
    fn eq(&self, other: &CoverageMap) -> bool {
        // Same number of non-zero words, and every one of ours is
        // theirs: zero words, wherever they sit, are not content.
        self.count == other.count
            && self.live.len() == other.live.len()
            && self.live_words().all(|(w, bits)| other.word(w) == bits)
    }
}

impl Eq for CoverageMap {}

impl fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Lazy iterator over set bits, ascending.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u64 * 64 + u64::from(bit))
    }
}

impl<'a> IntoIterator for &'a CoverageMap {
    type Item = u64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning iteration (drains nothing; blocks are `Copy`).
pub struct IntoIter {
    words: Vec<u64>,
    word_idx: usize,
    current: u64,
}

impl Iterator for IntoIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u64 * 64 + u64::from(bit))
    }
}

impl IntoIterator for CoverageMap {
    type Item = u64;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let current = self.words.first().copied().unwrap_or(0);
        IntoIter {
            words: self.words,
            word_idx: 0,
            current,
        }
    }
}

impl Extend<u64> for CoverageMap {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl FromIterator<u64> for CoverageMap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> CoverageMap {
        let mut m = CoverageMap::new();
        m.extend(iter);
        m
    }
}

impl From<&BTreeSet<u64>> for CoverageMap {
    fn from(set: &BTreeSet<u64>) -> CoverageMap {
        set.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut m = CoverageMap::new();
        assert!(m.is_empty());
        assert!(m.insert(4096));
        assert!(!m.insert(4096));
        assert!(m.insert(0));
        assert!(m.insert(63));
        assert!(m.insert(64));
        assert_eq!(m.len(), 4);
        assert!(m.contains(63));
        assert!(!m.contains(62));
        assert!(!m.contains(1 << 20));
    }

    #[test]
    fn merge_counts_new_blocks_only() {
        let a: CoverageMap = [1u64, 2, 3].into_iter().collect();
        let b: CoverageMap = [3u64, 4, 200].into_iter().collect();
        let mut m = a.clone();
        assert_eq!(m.new_blocks_in(&b), 2);
        assert_eq!(m.merge(&b), 2);
        assert_eq!(m.len(), 5);
        assert_eq!(m.merge(&b), 0);
        // Merge in the opposite order gives the same set.
        let mut n = b.clone();
        n.merge(&a);
        assert_eq!(m, n);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = CoverageMap::new();
        a.insert(5);
        let mut b = CoverageMap::new();
        b.insert(5);
        b.insert(100_000);
        // Force trailing zeros by a merge that adds nothing new there.
        let mut c = a.clone();
        c.merge(&b);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
        // a vs a-with-capacity.
        let mut big = CoverageMap::with_capacity(1 << 16);
        big.insert(5);
        assert_eq!(a, big);
    }

    #[test]
    fn iteration_is_sorted_and_lazy_views_match() {
        let blocks = [4096u64, 4097, 8192, 64, 0, 12345];
        let m: CoverageMap = blocks.into_iter().collect();
        let got: Vec<u64> = m.iter().collect();
        let mut want = blocks.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(m.to_btree_set(), want.iter().copied().collect());
        let owned: Vec<u64> = m.clone().into_iter().collect();
        assert_eq!(owned, want);
    }

    #[test]
    fn diff_in_and_merge_diff_agree_with_set_difference() {
        let a: CoverageMap = [1u64, 2, 3, 200].into_iter().collect();
        let b: CoverageMap = [3u64, 4, 200, 9000].into_iter().collect();
        let want: CoverageMap = [4u64, 9000].into_iter().collect();
        // Non-mutating diff.
        let d = a.diff_in(&b);
        assert_eq!(d, want);
        assert_eq!(d.len(), 2);
        assert_eq!(a.len(), 4, "diff_in must not modify the receiver");
        // One-pass merge + diff.
        let mut m = a.clone();
        let delta = m.merge_diff(&b);
        assert_eq!(delta, want);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(m, merged);
        // Re-merging contributes nothing.
        assert!(m.merge_diff(&b).is_empty());
        // Diff against an empty receiver is the whole input.
        assert_eq!(CoverageMap::new().diff_in(&b), b);
    }

    #[test]
    fn words_round_trip_restores_equal_maps() {
        let m: CoverageMap = [0u64, 63, 64, 4096, 12345].into_iter().collect();
        let restored = CoverageMap::from_words(m.words().to_vec());
        assert_eq!(m, restored);
        assert_eq!(m.len(), restored.len());
        // Trailing zero words survive the round trip as noise only.
        let mut padded = m.words().to_vec();
        padded.extend([0u64; 7]);
        assert_eq!(CoverageMap::from_words(padded), m);
        assert_eq!(CoverageMap::from_words(Vec::new()), CoverageMap::new());
    }

    #[test]
    fn disjointness() {
        let a: CoverageMap = [4096u64, 4097].into_iter().collect();
        let b: CoverageMap = [8192u64].into_iter().collect();
        let c: CoverageMap = [4097u64].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert!(a.is_disjoint(&CoverageMap::new()));
    }

    /// Tiny deterministic word stream for the randomized diff tests
    /// (xorshift64*; no external RNG dependency in this crate).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn random_map(rng: &mut TestRng, blocks: usize, universe: u64) -> CoverageMap {
        (0..blocks).map(|_| rng.next() % universe).collect()
    }

    #[test]
    fn word_diff_round_trips_on_random_maps() {
        let mut rng = TestRng(0x5EED);
        for case in 0..50 {
            let base = random_map(&mut rng, 40, 4096);
            let mut new = base.clone();
            new.merge(&random_map(&mut rng, (case % 7) * 3, 4096));
            let diff = new.diff_words_since(&base);
            assert_eq!(base.apply_word_diff(&diff), new, "case {case}");
        }
        // Shrinkage (base has blocks the new map lacks) is also
        // representable: the diff writes the vanished words back to
        // zero (or falls back to dense).
        let base = random_map(&mut rng, 60, 4096);
        let new = random_map(&mut rng, 10, 4096);
        assert_eq!(base.apply_word_diff(&new.diff_words_since(&base)), new);
    }

    #[test]
    fn word_diff_of_equal_maps_is_empty() {
        let m = random_map(&mut TestRng(7), 30, 2048);
        let diff = m.diff_words_since(&m);
        assert!(diff.is_empty());
        assert_eq!(diff, CoverageWordDiff::Sparse(Vec::new()));
        assert_eq!(m.apply_word_diff(&diff), m);
        // Trailing zero words are representation noise, not a diff.
        let mut padded_words = m.words().to_vec();
        padded_words.extend([0u64; 9]);
        let padded = CoverageMap::from_words(padded_words);
        assert!(m.diff_words_since(&padded).is_empty());
        assert!(padded.diff_words_since(&m).is_empty());
    }

    #[test]
    fn word_diff_falls_back_to_dense_when_the_diff_is_large() {
        // Every word changes: sparse would pay a run header on top of
        // the words, so the diff must be the dense bitmap.
        let base = CoverageMap::new();
        let new: CoverageMap = (0..4096u64).step_by(64).collect(); // one bit per word
        let diff = new.diff_words_since(&base);
        assert!(matches!(diff, CoverageWordDiff::Dense(_)), "{diff:?}");
        assert_eq!(base.apply_word_diff(&diff), new);
        // A handful of changed words in a big map stays sparse, and a
        // consecutive cluster collapses into one run.
        let big: CoverageMap = (0..100_000u64).step_by(64).collect();
        let mut grown = big.clone();
        grown.insert(640_001);
        grown.insert(640_070);
        grown.insert(640_130);
        let diff = grown.diff_words_since(&big);
        match &diff {
            CoverageWordDiff::Sparse(runs) => {
                assert_eq!(runs.len(), 1, "consecutive words must share a run");
                assert_eq!(runs[0].0, 10_000);
                assert_eq!(runs[0].1.len(), 3);
            }
            CoverageWordDiff::Dense(_) => panic!("small diff must stay sparse"),
        }
        assert!(diff.encoded_bytes() < CoverageWordDiff::dense_bytes(grown.words().len()));
        assert_eq!(big.apply_word_diff(&diff), grown);
    }

    #[test]
    fn word_diff_agrees_with_diff_in_and_merge_diff_on_random_maps() {
        let mut rng = TestRng(0xD1FF);
        for case in 0..30 {
            let base = random_map(&mut rng, 50, 8192);
            let observed = random_map(&mut rng, 25, 8192);
            // The campaign's two growth paths: diff_in + merge, and
            // one-pass merge_diff. Both must land on the same map the
            // word diff reconstructs.
            let contributed = base.diff_in(&observed);
            let mut via_merge = base.clone();
            via_merge.merge(&contributed);
            let mut via_merge_diff = base.clone();
            let contributed2 = via_merge_diff.merge_diff(&observed);
            assert_eq!(contributed, contributed2, "case {case}");
            assert_eq!(via_merge, via_merge_diff, "case {case}");
            let diff = via_merge.diff_words_since(&base);
            assert_eq!(base.apply_word_diff(&diff), via_merge, "case {case}");
            assert_eq!(
                base.apply_word_diff(&diff).len(),
                base.len() + contributed.len(),
                "case {case}: grown count must be base plus contribution"
            );
        }
    }

    #[test]
    fn clear_retains_nothing_logically() {
        let mut m: CoverageMap = [1u64, 2, 3].into_iter().collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m, CoverageMap::new());
        assert!(m.insert(2));
    }

    /// What a map must behave like: its blocks, and the length its
    /// word array had before `clear` kept the storage — dropped to
    /// nothing by `clear`, grown by whatever addresses a higher word.
    #[derive(Clone, Default)]
    struct Model {
        set: BTreeSet<u64>,
        span: usize,
    }

    impl Model {
        fn reach(&mut self, span: usize) {
            self.span = self.span.max(span);
        }

        /// `other`'s blocks that `self` lacks, as `diff_in` sizes them.
        fn delta_of(&self, other: &Model) -> Model {
            Model {
                set: other.set.difference(&self.set).copied().collect(),
                span: other.span,
            }
        }

        /// The same map built in one go, never cleared.
        fn fresh(&self) -> CoverageMap {
            let blocks: CoverageMap = self.set.iter().copied().collect();
            let mut words = blocks.words().to_vec();
            assert!(words.len() <= self.span, "a block past the span");
            words.resize(self.span, 0);
            CoverageMap::from_words(words)
        }
    }

    /// Everything one map must agree with its model on, the live index
    /// included: it lists exactly the non-zero words, once each.
    fn assert_models(map: &CoverageMap, model: &Model, ctx: &str) {
        assert_eq!(map.len(), model.set.len(), "{ctx}: len");
        assert_eq!(map.is_empty(), model.set.is_empty(), "{ctx}: is_empty");
        assert!(map.iter().eq(model.set.iter().copied()), "{ctx}: iter");
        assert!(
            model.set.iter().all(|b| map.contains(*b)),
            "{ctx}: contains"
        );
        let mut live = map.live.clone();
        live.sort_unstable();
        let non_zero: Vec<u32> = (0u32..)
            .zip(&map.words)
            .filter_map(|(w, bits)| (*bits != 0).then_some(w))
            .collect();
        assert_eq!(live, non_zero, "{ctx}: live index");
        // Whatever the map held before, it reads like one built fresh.
        let fresh = model.fresh();
        assert_eq!(map, &fresh, "{ctx}: == fresh");
        assert_eq!(&fresh, map, "{ctx}: fresh ==");
        assert_eq!(map.words(), fresh.words(), "{ctx}: words");
        assert_eq!(map.clone().words(), fresh.words(), "{ctx}: clone");
    }

    /// Everything two maps must agree with their models on.
    fn assert_pair_models(
        (a, ma): (&CoverageMap, &Model),
        (b, mb): (&CoverageMap, &Model),
        ctx: &str,
    ) {
        assert_eq!(a == b, ma.set == mb.set, "{ctx}: ==");
        assert_eq!(
            a.is_disjoint(b),
            ma.set.is_disjoint(&mb.set),
            "{ctx}: is_disjoint"
        );
        let delta = ma.delta_of(mb);
        assert_eq!(a.new_blocks_in(b), delta.set.len(), "{ctx}: new_blocks_in");
        assert_models(&a.diff_in(b), &delta, &format!("{ctx}: diff_in"));
        // The word diff — runs, and the sparse-or-dense choice — is
        // that of fresh maps: storage a `clear` kept does not show.
        let diff = a.diff_words_since(b);
        assert_eq!(
            diff,
            ma.fresh().diff_words_since(&mb.fresh()),
            "{ctx}: diff_words_since"
        );
        let applied = b.apply_word_diff(&diff);
        assert_eq!(applied, *a, "{ctx}: apply");
        // The diff of a caller that knows the changed words, and the
        // patch in place, are the same diff and the same map.
        let word = |m: &CoverageMap, i: usize| m.words().get(i).copied().unwrap_or(0);
        let changed =
            (0..a.words().len().max(b.words().len())).filter(|&i| word(a, i) != word(b, i));
        assert_eq!(a.diff_words_at(changed), diff, "{ctx}: diff_words_at");
        let mut patched = b.clone();
        patched.patch_words(diff);
        let mut model = ma.clone();
        model.span = applied.words().len();
        assert_models(&patched, &model, &format!("{ctx}: patch_words"));
    }

    #[test]
    fn random_operation_sequences_agree_with_a_btreeset_model() {
        // Runs start on and around word edges and span none, part of
        // one, exactly one, two and three words.
        const STARTS: [u64; 6] = [0, 1, 31, 62, 63, 64];
        const LENS: [u32; 9] = [0, 1, 2, 63, 64, 65, 127, 129, 192];
        let mut rng = TestRng(0x11FE_C0DE);
        for case in 0..40 {
            let mut pool: Vec<(CoverageMap, Model)> = (0..3).map(|_| Default::default()).collect();
            // Mostly a small universe so maps overlap; sometimes a far
            // block so they grow, and shrink back when cleared.
            let block = |rng: &mut TestRng| match rng.next() % 8 {
                0 => 64 * 40 + rng.next() % 640,
                _ => rng.next() % 384,
            };
            for step in 0..120 {
                let ctx = format!("case {case} step {step}");
                let at = (rng.next() % 3) as usize;
                let other = pool[(at + 1 + (rng.next() % 2) as usize) % 3].clone();
                let (map, model) = &mut pool[at];
                match rng.next() % 10 {
                    0 | 1 => {
                        let b = block(&mut rng);
                        model.reach(b as usize / 64 + 1);
                        assert_eq!(map.insert(b), model.set.insert(b), "{ctx}: insert {b}");
                    }
                    2 | 3 => {
                        let start = block(&mut rng) / 64 * 64 + STARTS[(rng.next() % 6) as usize];
                        let len = LENS[(rng.next() % 9) as usize];
                        let run = start..start + u64::from(len);
                        for (m, o) in [(&*map, &*model), (&other.0, &other.1)] {
                            assert_eq!(
                                m.covers_run(start, len),
                                run.clone().all(|b| o.set.contains(&b)),
                                "{ctx}: covers_run({start}, {len})"
                            );
                        }
                        let before = model.set.len();
                        model.set.extend(run);
                        if len > 0 {
                            model.reach((start + u64::from(len) - 1) as usize / 64 + 1);
                        }
                        assert_eq!(
                            map.insert_run(start, len),
                            model.set.len() - before,
                            "{ctx}: insert_run({start}, {len})"
                        );
                        assert!(map.covers_run(start, len), "{ctx}: covers its own run");
                    }
                    4 => {
                        map.clear();
                        *model = Model::default();
                    }
                    5 => {
                        let before = model.set.len();
                        model.set.extend(&other.1.set);
                        model.reach(other.1.span);
                        assert_eq!(
                            map.merge(&other.0),
                            model.set.len() - before,
                            "{ctx}: merge"
                        );
                    }
                    6 => {
                        let delta = model.delta_of(&other.1);
                        model.set.extend(&other.1.set);
                        model.reach(other.1.span);
                        assert_models(&map.merge_diff(&other.0), &delta, &format!("{ctx}: delta"));
                    }
                    7 => {
                        let mut words = map.words().to_vec();
                        words.resize(words.len() + (rng.next() % 5) as usize, 0);
                        model.span = words.len();
                        *map = CoverageMap::from_words(words);
                    }
                    8 => {
                        // A dense diff carries the map's own length; a
                        // sparse one patches the base it is applied to.
                        let diff = map.diff_words_since(&other.0);
                        model.span = match &diff {
                            CoverageWordDiff::Dense(words) => words.len(),
                            CoverageWordDiff::Sparse(runs) => runs
                                .last()
                                .map_or(0, |(start, run)| *start as usize + run.len())
                                .max(other.1.span),
                        };
                        *map = other.0.apply_word_diff(&diff);
                    }
                    _ => *map = map.clone(),
                }
                assert_models(map, model, &ctx);
                let (a, b) = (&pool[at], &other);
                assert_pair_models((&a.0, &a.1), (&b.0, &b.1), &ctx);
                assert_pair_models((&b.0, &b.1), (&a.0, &a.1), &ctx);
            }
        }
    }

    #[test]
    fn clear_keeps_its_zeroed_words_and_nothing_shows_it() {
        let mut m = CoverageMap::new();
        m.insert_run(64 * 300, 10);
        let (len, cap) = (m.words.len(), m.words.capacity());
        m.clear();
        // The storage stays, zeroed, so the next fill neither
        // allocates nor zero-fills ...
        assert_eq!((m.words.len(), m.words.capacity()), (len, cap));
        assert!(m.words.iter().all(|w| *w == 0) && m.live.is_empty());
        m.insert(5);
        assert_eq!(m.words.len(), len);
        // ... and no reader can tell.
        assert_eq!(m.words(), &[1 << 5]);
        assert_eq!(m, [5u64].into_iter().collect());
        let mut union = CoverageMap::new();
        union.merge(&m);
        assert_eq!(
            union.words.len(),
            1,
            "merge grows to the last block, no further"
        );
    }
}
