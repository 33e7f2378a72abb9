//! Compiled-spec cache.
//!
//! [`SpecDb::from_files`] re-parses resource references and re-indexes
//! every definition each time it runs, and campaign constructors call
//! it once per construction — so a Table 5/6-style sweep that builds
//! dozens of campaigns over the *same* suite recompiles it dozens of
//! times. A [`SpecCache`] memoizes compiled databases behind `Arc`s:
//! the key is a structural content fingerprint of the input suite
//! (FNV-1a over the `Hash` of every file — names and full ASTs,
//! no allocation), a hit is an `Arc` clone, and the stored suite is
//! compared for full equality on every hit so two distinct suites can
//! never alias even if their 64-bit fingerprints collide. A lookup
//! borrows its suite — a slice, or the specs of a generation report
//! where they lie — and copies it only on a miss.
//!
//! The databases are immutable once built, so sharing one compiled
//! [`SpecDb`] across campaigns — including across threads; the cache
//! is `Sync` — is safe by construction. [`SpecCache::global`] is the
//! process-wide instance used by the `Campaign`/`ShardedCampaign`
//! constructors and the merged-validation paths.
//!
//! A cache can be **size-bounded** ([`SpecCache::with_capacity`]):
//! over capacity, the least-recently-used suite is evicted (recency
//! is refreshed on every hit), so a long-lived service compiling
//! unbounded distinct suites holds at most `capacity` databases —
//! plus whatever outstanding `Arc`s its campaigns still pin. The
//! global cache is bounded at [`GLOBAL_CACHE_CAPACITY`];
//! hit/miss/eviction counters are exposed for monitoring.

use crate::ast::SpecFile;
use crate::codec::Fnv1a;
use crate::consts::ConstDb;
use crate::db::SpecDb;
use crate::lowered::LoweredDb;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Entry cap of the process-wide [`SpecCache::global`] cache: far
/// above any sweep's distinct-suite count, but a hard bound so a
/// long-lived service feeding unbounded distinct suites cannot grow
/// the cache without limit.
pub const GLOBAL_CACHE_CAPACITY: usize = 512;

/// Lowered IRs retained per cached suite (one per distinct constant
/// table); beyond this, the oldest lowering is dropped. One table per
/// suite is the norm — the cap only bounds pathological sweeps.
pub const MAX_LOWERED_PER_ENTRY: usize = 4;

/// One cached compilation.
struct CacheEntry {
    /// The exact input suite; compared on every lookup so fingerprint
    /// collisions degrade to misses, not wrong databases.
    files: Vec<SpecFile>,
    db: Arc<SpecDb>,
    /// Lowered IRs compiled from this database, keyed by the
    /// fingerprint *and* exact content of the [`ConstDb`] they were
    /// resolved against (same convention as suite lookups: the
    /// fingerprint is a fast path, never trusted alone). A suite is
    /// almost always paired with exactly one constant table, so this
    /// holds one entry in practice; it is capped at
    /// [`MAX_LOWERED_PER_ENTRY`] (oldest dropped first) so a
    /// long-lived process sweeping constant variants over one hot
    /// suite cannot grow it without bound. Evicted with the entry.
    lowered: Vec<(u64, ConstDb, Arc<LoweredDb>)>,
    /// Recency stamp from the cache's monotone tick, for LRU
    /// eviction; refreshed on every hit.
    last_used: u64,
}

/// A memoizing wrapper over [`SpecDb::from_files`], keyed by suite
/// content. Cheap to share by reference across threads. Optionally
/// size-bounded: over capacity, the least-recently-used suite is
/// evicted (outstanding `Arc`s stay alive).
#[derive(Default)]
pub struct SpecCache {
    entries: Mutex<BTreeMap<u64, Vec<CacheEntry>>>,
    /// Maximum retained suites; 0 = unbounded.
    capacity: usize,
    /// Monotone recency clock (bumped on every hit and insert).
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SpecCache {
    /// Empty, unbounded cache.
    #[must_use]
    pub fn new() -> SpecCache {
        SpecCache::default()
    }

    /// Empty cache retaining at most `capacity` compiled suites;
    /// beyond that, lookups evict the least-recently-used suite.
    /// `0` means unbounded.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SpecCache {
        SpecCache {
            capacity,
            ..SpecCache::default()
        }
    }

    /// The process-wide cache used by campaign constructors and
    /// merged-validation paths; LRU-bounded at
    /// [`GLOBAL_CACHE_CAPACITY`] suites.
    #[must_use]
    pub fn global() -> &'static SpecCache {
        static GLOBAL: OnceLock<SpecCache> = OnceLock::new();
        GLOBAL.get_or_init(|| SpecCache::with_capacity(GLOBAL_CACHE_CAPACITY))
    }

    /// Maximum retained suites (0 = unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Structural content fingerprint of a suite: FNV-1a over the
    /// [`Hash`] of every file (names and full ASTs), allocation-free —
    /// the bytes `<[SpecFile]>::hash` feeds it, whether the files sit
    /// in one slice or are borrowed one by one. Equal suites always
    /// fingerprint equally; the cache never trusts the converse —
    /// every hit compares the stored suite for full equality.
    #[must_use]
    pub fn fingerprint<'a, S>(files: S) -> u64
    where
        S: IntoIterator<Item = &'a SpecFile>,
        S::IntoIter: Clone,
    {
        let files = files.into_iter();
        let mut h = Fnv1a::default();
        h.write_usize(files.clone().count());
        files.for_each(|f| f.hash(&mut h));
        h.finish()
    }

    /// The compiled database for a suite: an `Arc` clone on a hit, a
    /// fresh [`SpecDb::from_files`] compilation on a miss. Two calls
    /// with equal suites return the *same* `Arc` (pointer-equal). The
    /// suite is borrowed — a slice, or files gathered from wherever
    /// they live — and copied only on a miss: the warm path is a
    /// fingerprint plus one equality check — no parsing, no indexing,
    /// no allocation.
    #[must_use]
    pub fn get_or_build<'a, S>(&self, files: S) -> Arc<SpecDb>
    where
        S: IntoIterator<Item = &'a SpecFile>,
        S::IntoIter: Clone,
    {
        let files = files.into_iter();
        let key = SpecCache::fingerprint(files.clone());
        let same = |e: &CacheEntry| e.files.iter().eq(files.clone());
        {
            let mut entries = self.entries();
            if let Some(e) = entries
                .get_mut(&key)
                .and_then(|b| b.iter_mut().find(|e| same(e)))
            {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.db);
            }
        }
        // Compile outside the lock; on a race, the first insertion
        // wins so repeated lookups keep returning one pointer.
        let db = Arc::new(SpecDb::from_files(files.clone().cloned().collect()));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entry = CacheEntry {
            files: files.clone().cloned().collect(),
            db: Arc::clone(&db),
            lowered: Vec::new(),
            last_used: 0,
        };
        let mut entries = self.entries();
        if let Some(e) = entries
            .get_mut(&key)
            .and_then(|b| b.iter_mut().find(|e| same(e)))
        {
            e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&e.db);
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        entries.entry(key).or_default().push(entry);
        self.evict_over_capacity(&mut entries);
        db
    }

    /// The lowered IR for a cached compiled database: an `Arc` clone
    /// when `(db, consts)` was lowered before, a fresh
    /// [`LoweredDb::build`] otherwise. The database is matched by
    /// pointer identity, so any `Arc` previously returned by
    /// [`SpecCache::get_or_build`] hits; a foreign database (not in
    /// this cache) is lowered without being retained.
    ///
    /// Campaign constructors call this once per construction, so a
    /// sweep over one suite lowers it exactly once — the lowering
    /// rides the same LRU entry as its `SpecDb`.
    #[must_use]
    pub fn get_or_lower(&self, db: &Arc<SpecDb>, consts: &ConstDb) -> Arc<LoweredDb> {
        let ckey = consts_fingerprint(consts);
        {
            let mut entries = self.entries();
            for bucket in entries.values_mut() {
                for e in bucket.iter_mut() {
                    if Arc::ptr_eq(&e.db, db) {
                        if let Some((_, _, l)) =
                            e.lowered.iter().find(|(k, c, _)| *k == ckey && c == consts)
                        {
                            // A lowering hit keeps the whole entry hot:
                            // `with_db`-style constructions never call
                            // `get_or_build`, so this is their only
                            // recency signal against LRU eviction.
                            e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Arc::clone(l);
                        }
                    }
                }
            }
        }
        // Lower outside the lock; first insertion wins on a race.
        let lowered = Arc::new(LoweredDb::build(db, consts));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries();
        for bucket in entries.values_mut() {
            for e in bucket.iter_mut() {
                if Arc::ptr_eq(&e.db, db) {
                    e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    if let Some((_, _, l)) =
                        e.lowered.iter().find(|(k, c, _)| *k == ckey && c == consts)
                    {
                        return Arc::clone(l);
                    }
                    if e.lowered.len() >= MAX_LOWERED_PER_ENTRY {
                        e.lowered.remove(0);
                    }
                    e.lowered.push((ckey, consts.clone(), Arc::clone(&lowered)));
                    return lowered;
                }
            }
        }
        lowered
    }

    /// Convenience over [`SpecCache::get_or_build`] +
    /// [`SpecCache::get_or_lower`]: the compiled and lowered forms of
    /// a suite in one call.
    #[must_use]
    pub fn get_or_build_lowered(
        &self,
        files: &[SpecFile],
        consts: &ConstDb,
    ) -> (Arc<SpecDb>, Arc<LoweredDb>) {
        let db = self.get_or_build(files);
        let lowered = self.get_or_lower(&db, consts);
        (db, lowered)
    }

    /// The entries, poisoned or not. A panic under the lock — a
    /// caller's suite iterator panicking while a lookup compares it,
    /// say — cannot leave the map half-written: an entry is built
    /// whole outside the lock and goes in with one `push`, a hit
    /// writes one recency stamp, an eviction removes one entry (and
    /// its bucket once empty). So a poisoned lock still guards a good
    /// map, and the cache keeps answering.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<CacheEntry>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drop least-recently-used suites until the entry count is back
    /// under capacity. Called with the entries lock held.
    fn evict_over_capacity(&self, entries: &mut BTreeMap<u64, Vec<CacheEntry>>) {
        if self.capacity == 0 {
            return;
        }
        while entries.values().map(Vec::len).sum::<usize>() > self.capacity {
            let Some((&key, idx)) = entries
                .iter()
                .flat_map(|(k, bucket)| {
                    bucket
                        .iter()
                        .enumerate()
                        .map(move |(i, e)| (k, i, e.last_used))
                })
                .min_by_key(|&(_, _, last_used)| last_used)
                .map(|(k, i, _)| (k, i))
            else {
                return;
            };
            if let Some(bucket) = entries.get_mut(&key) {
                bucket.remove(idx);
                if bucket.is_empty() {
                    entries.remove(&key);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lookups served without compiling.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled a new database.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Suites evicted under the capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct suites currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().values().map(Vec::len).sum()
    }

    /// Whether the cache holds no compiled suites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached database (outstanding `Arc`s stay alive) and
    /// reset the hit/miss/eviction counters.
    pub fn clear(&self) {
        self.entries().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Structural fingerprint of a constant table, for the per-entry
/// lowered-IR cache: a fast path in front of the full equality check,
/// exactly like suite fingerprints.
fn consts_fingerprint(consts: &ConstDb) -> u64 {
    let mut h = Fnv1a::default();
    h.write(b"consts-v1");
    for (name, value) in consts.iter() {
        h.write(name.as_bytes());
        h.write(&[0xff]);
        h.write(&value.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn suite(src: &str) -> Vec<SpecFile> {
        vec![parse("t", src).unwrap()]
    }

    #[test]
    fn warm_lookup_returns_the_same_arc() {
        let cache = SpecCache::new();
        let files =
            suite("resource fd_x[fd]\nioctl$A(fd fd_x, cmd const[1], arg ptr[in, array[int8]])\n");
        let cold = cache.get_or_build(&files);
        let warm = cache.get_or_build(&files);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn equal_content_different_vectors_still_hit() {
        let cache = SpecCache::new();
        let a = suite("resource fd_y[fd]\n");
        let b = suite("resource fd_y[fd]\n");
        assert!(Arc::ptr_eq(
            &cache.get_or_build(&a),
            &cache.get_or_build(&b)
        ));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn different_suites_never_collide() {
        let cache = SpecCache::new();
        let a = cache.get_or_build(&suite("resource fd_a[fd]\n"));
        let b = cache.get_or_build(&suite("resource fd_b[fd]\n"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.resource("fd_a").is_some());
        assert!(a.resource("fd_b").is_none());
        assert!(b.resource("fd_b").is_some());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn file_name_is_part_of_the_key() {
        let cache = SpecCache::new();
        let a = vec![parse("a", "resource fd_z[fd]\n").unwrap()];
        let b = vec![parse("b", "resource fd_z[fd]\n").unwrap()];
        assert!(!Arc::ptr_eq(
            &cache.get_or_build(&a),
            &cache.get_or_build(&b)
        ));
        assert_ne!(SpecCache::fingerprint(&a), SpecCache::fingerprint(&b));
    }

    #[test]
    fn multi_file_order_matters_for_identity() {
        // A merged database indexes later files over earlier ones, so
        // suite order is part of the content identity.
        let f1 = parse("one", "resource fd_m[fd]\n").unwrap();
        let f2 = parse("two", "resource fd_n[fd]\n").unwrap();
        let cache = SpecCache::new();
        let ab = cache.get_or_build(&[f1.clone(), f2.clone()]);
        let ba = cache.get_or_build(&[f2, f1]);
        assert!(!Arc::ptr_eq(&ab, &ba));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn empty_suite_is_cacheable() {
        let cache = SpecCache::new();
        let a = cache.get_or_build(&[]);
        let b = cache.get_or_build(&[]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.syscall_count(), 0);
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = SpecCache::new();
        let files = suite("resource fd_c[fd]\n");
        let before = cache.get_or_build(&files);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
        let after = cache.get_or_build(&files);
        // The evicted Arc stays usable; the rebuild is a new pointer.
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(before.resource("fd_c").is_some());
    }

    #[test]
    fn lru_eviction_respects_the_capacity_bound() {
        let cache = SpecCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let a = suite("resource fd_la[fd]\n");
        let b = suite("resource fd_lb[fd]\n");
        let c = suite("resource fd_lc[fd]\n");
        let _ = cache.get_or_build(&a);
        let _ = cache.get_or_build(&b);
        assert_eq!(cache.evictions(), 0);
        // Touch `a` so `b` becomes the least recently used...
        let _ = cache.get_or_build(&a);
        // ...then overflow: `b` is evicted, `a` survives.
        let _ = cache.get_or_build(&c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let misses_before = cache.misses();
        let _ = cache.get_or_build(&a);
        let _ = cache.get_or_build(&c);
        assert_eq!(cache.misses(), misses_before, "a and c must still hit");
        let _ = cache.get_or_build(&b);
        assert_eq!(cache.misses(), misses_before + 1, "b was evicted");
        assert_eq!(cache.evictions(), 2, "rebuilding b evicts the next LRU");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicted_databases_stay_alive_through_outstanding_arcs() {
        let cache = SpecCache::with_capacity(1);
        let a = suite("resource fd_ea[fd]\n");
        let held = cache.get_or_build(&a);
        let _ = cache.get_or_build(&suite("resource fd_eb[fd]\n"));
        assert_eq!(cache.evictions(), 1);
        // The evicted Arc is still usable; a re-lookup recompiles.
        assert!(held.resource("fd_ea").is_some());
        assert!(!Arc::ptr_eq(&held, &cache.get_or_build(&a)));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = SpecCache::new();
        assert_eq!(cache.capacity(), 0);
        for i in 0..64 {
            let _ = cache.get_or_build(&suite(&format!("resource fd_u{i}[fd]\n")));
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn clear_resets_eviction_counter() {
        let cache = SpecCache::with_capacity(1);
        let _ = cache.get_or_build(&suite("resource fd_ca[fd]\n"));
        let _ = cache.get_or_build(&suite("resource fd_cb[fd]\n"));
        assert_eq!(cache.evictions(), 1);
        cache.clear();
        assert_eq!(cache.evictions(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn lowering_is_cached_per_db_and_consts() {
        let cache = SpecCache::new();
        let files = suite(
            "resource fd_l[fd]\nioctl$L(fd fd_l, cmd const[CMD], arg ptr[in, array[int8]])\n",
        );
        let mut consts = ConstDb::new();
        consts.define("CMD", 7);
        let (db, l1) = cache.get_or_build_lowered(&files, &consts);
        let l2 = cache.get_or_lower(&db, &consts);
        assert!(Arc::ptr_eq(&l1, &l2), "same (db, consts) must share one IR");
        // A different constant table is a different lowering.
        let mut other = ConstDb::new();
        other.define("CMD", 8);
        let l3 = cache.get_or_lower(&db, &other);
        assert!(!Arc::ptr_eq(&l1, &l3));
        // A foreign database (never inserted) still lowers, uncached.
        let foreign = Arc::new(SpecDb::from_files(files.clone()));
        let f1 = cache.get_or_lower(&foreign, &consts);
        let f2 = cache.get_or_lower(&foreign, &consts);
        assert!(!Arc::ptr_eq(&f1, &f2));
        assert_eq!(f1.syscall_count(), 1);
    }

    #[test]
    fn lowerings_per_entry_are_capped() {
        let cache = SpecCache::new();
        let files = suite(
            "resource fd_cap[fd]\nioctl$C(fd fd_cap, cmd const[K], arg ptr[in, array[int8]])\n",
        );
        let db = cache.get_or_build(&files);
        let mut tables = Vec::new();
        for i in 0..(MAX_LOWERED_PER_ENTRY as u64 + 2) {
            let mut consts = ConstDb::new();
            consts.define("K", i);
            tables.push(consts);
        }
        let first = cache.get_or_lower(&db, &tables[0]);
        for consts in &tables[1..] {
            let _ = cache.get_or_lower(&db, consts);
        }
        // The oldest lowering was dropped: re-requesting it rebuilds.
        let rebuilt = cache.get_or_lower(&db, &tables[0]);
        assert!(!Arc::ptr_eq(&first, &rebuilt), "oldest lowering evicted");
        // The newest is still cached.
        let newest = cache.get_or_lower(&db, tables.last().unwrap());
        let again = cache.get_or_lower(&db, tables.last().unwrap());
        assert!(Arc::ptr_eq(&newest, &again));
    }

    #[test]
    fn lowering_hits_refresh_lru_recency() {
        // A suite used only through `get_or_lower` (the `with_db`
        // construction path) must stay hot: its entry's recency is
        // refreshed on lowering hits, so the LRU evicts idle suites
        // first.
        let cache = SpecCache::with_capacity(2);
        let a_files = suite("resource fd_ra[fd]\n");
        let b_files = suite("resource fd_rb[fd]\n");
        let consts = ConstDb::new();
        let a = cache.get_or_build(&a_files);
        let _ = cache.get_or_build(&b_files);
        // Touch `a` through the lowering path only.
        let l1 = cache.get_or_lower(&a, &consts);
        // Overflow: `b` (stale) is evicted, `a` and its lowering stay.
        let _ = cache.get_or_build(&suite("resource fd_rc[fd]\n"));
        assert_eq!(cache.evictions(), 1);
        let l2 = cache.get_or_lower(&a, &consts);
        assert!(
            Arc::ptr_eq(&l1, &l2),
            "a's cached lowering must survive the eviction"
        );
        let misses_before = cache.misses();
        let _ = cache.get_or_build(&b_files);
        assert_eq!(cache.misses(), misses_before + 1, "b was the LRU victim");
    }

    #[test]
    fn capacity_one_thrash_rebuilds_correct_databases_every_time() {
        // Regression guard for the pathological LRU shape: a
        // capacity-1 cache fed two suites alternately must evict on
        // every other lookup, yet every returned `Arc<SpecDb>` /
        // `Arc<LoweredDb>` must belong to the suite that was asked
        // for — thrashing may cost compiles, never correctness.
        let cache = SpecCache::with_capacity(1);
        let a_files = suite(
            "resource fd_ta[fd]\nioctl$TA(fd fd_ta, cmd const[K], arg ptr[in, array[int8]])\n",
        );
        let b_files = suite(
            "resource fd_tb[fd]\nioctl$TB(fd fd_tb, cmd const[K], arg ptr[in, array[int8]])\n",
        );
        let mut consts = ConstDb::new();
        consts.define("K", 9);
        for round in 0..4u64 {
            let (a_db, a_low) = cache.get_or_build_lowered(&a_files, &consts);
            assert!(a_db.resource("fd_ta").is_some(), "round {round}");
            assert!(a_db.resource("fd_tb").is_none(), "round {round}");
            assert_eq!(a_low.syscall_count(), 1, "round {round}");
            // Within the round the lowering lookup hits the entry the
            // build just (re)inserted — pointer-equal on re-request.
            assert!(Arc::ptr_eq(&a_low, &cache.get_or_lower(&a_db, &consts)));
            assert_eq!(cache.len(), 1, "capacity bound violated");

            let (b_db, b_low) = cache.get_or_build_lowered(&b_files, &consts);
            assert!(b_db.resource("fd_tb").is_some(), "round {round}");
            assert!(b_db.resource("fd_ta").is_none(), "round {round}");
            assert!(!Arc::ptr_eq(&a_db, &b_db));
            assert!(Arc::ptr_eq(&b_low, &cache.get_or_lower(&b_db, &consts)));
            assert_eq!(cache.len(), 1, "capacity bound violated");
        }
        // Counter arithmetic of the thrash: every get_or_build after
        // the first insertion of each suite misses (the other suite
        // evicted it), and each build-miss round also re-lowers; the
        // same-round get_or_lower re-requests above all hit.
        // Per round: 2 build misses + 2 lower misses, and 2 lowering
        // hits from the pointer-equality re-requests.
        assert_eq!(cache.misses(), 16, "4 rounds x (2 builds + 2 lowerings)");
        assert_eq!(cache.hits(), 8, "4 rounds x 2 same-round lowering hits");
        // Every insertion past the very first evicts the other suite.
        assert_eq!(cache.evictions(), 7);
    }

    #[test]
    fn the_fingerprint_is_the_hash_of_the_slice_however_the_suite_is_lent() {
        // `spec_fp` is written into traces and checkpoints: the value
        // is what `<[SpecFile]>::hash` fed FNV-1a before lookups
        // borrowed their suites.
        let files = vec![
            parse("a", "resource fd_h[fd]\n").unwrap(),
            parse(
                "b",
                "ioctl$H(fd fd_h, cmd const[1], arg ptr[in, array[int8]])\n",
            )
            .unwrap(),
        ];
        let mut h = Fnv1a::default();
        files.hash(&mut h);
        assert_eq!(SpecCache::fingerprint(&files), h.finish());
        let lent: Vec<Option<&SpecFile>> = vec![Some(&files[0]), None, Some(&files[1])];
        assert_eq!(
            SpecCache::fingerprint(lent.iter().flatten().copied()),
            h.finish()
        );
        assert_eq!(SpecCache::fingerprint(&[]), {
            let mut h = Fnv1a::default();
            Vec::<SpecFile>::new().hash(&mut h);
            h.finish()
        });
    }

    #[test]
    fn a_lent_suite_hits_the_entry_its_slice_built() {
        let cache = SpecCache::new();
        let files = suite("resource fd_lent[fd]\n");
        let owned = cache.get_or_build(&files);
        let slots = [None, Some(files[0].clone())];
        let lent = cache.get_or_build(slots.iter().flatten());
        assert!(Arc::ptr_eq(&owned, &lent));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_poisoned_lock_still_answers() {
        // A caller's suite iterator that panics while a lookup compares
        // it under the lock poisons the mutex. Nothing under the lock is
        // ever half-written, so the cache answers on as before.
        let cache = SpecCache::with_capacity(2);
        let files =
            suite("resource fd_p[fd]\nioctl$P(fd fd_p, cmd const[1], arg ptr[in, array[int8]])\n");
        let consts = ConstDb::new();
        let db = cache.get_or_build(&files);
        let lowered = cache.get_or_lower(&db, &consts);
        // Panic at the n-th file the lookup reads, for growing n, until
        // the panic lands under the lock.
        for n in 0.. {
            assert!(n < 16, "no reader panicked under the lock");
            let reads = std::sync::atomic::AtomicUsize::new(0);
            let panicky = files.iter().inspect(|_| {
                if reads.fetch_add(1, Ordering::Relaxed) == n {
                    panic!("reader {n} gives up");
                }
            });
            let lookup = std::panic::AssertUnwindSafe(|| cache.get_or_build(panicky));
            assert!(std::panic::catch_unwind(lookup).is_err());
            if cache.entries.is_poisoned() {
                break;
            }
        }
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&db, &cache.get_or_build(&files)));
        assert!(Arc::ptr_eq(&lowered, &cache.get_or_lower(&db, &consts)));
        // Misses still compile, insert and evict.
        let other = suite("resource fd_q[fd]\n");
        let q = cache.get_or_build(&other);
        assert!(q.resource("fd_q").is_some());
        assert!(Arc::ptr_eq(&q, &cache.get_or_build(&other)));
        let _ = cache.get_or_build(&suite("resource fd_s[fd]\n"));
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn global_cache_is_shared_and_warm() {
        let files = suite("resource fd_g[fd]\n");
        let a = SpecCache::global().get_or_build(&files);
        let b = SpecCache::global().get_or_build(&files);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
