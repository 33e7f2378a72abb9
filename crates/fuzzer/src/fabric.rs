//! Process-fabric building blocks: worker-side lease running and
//! coordinator-side delta merging for distributed campaigns.
//!
//! A [`crate::ShardedCampaign`] is already a pure function of
//! `(config, shards)`; this module splits its epoch-major loop across
//! process boundaries **without changing the result**. The protocol
//! (leases, transports, frames) lives in the `kgpt-fabric` crate —
//! here live the two deterministic halves it moves bytes between:
//!
//! * [`LeaseRunner`] — a contiguous shard range stepped one epoch at
//!   a time by the [`crate::campaign`] shard stepper, with the ddmin
//!   minimizer that drains its shards' fresh crash captures
//!   (minimization is a pure function of `(capture, kernel,
//!   lowered)`). Over the whole range, closing its boundaries in
//!   process, it is the engine of [`crate::ShardedCampaign`]; on a
//!   worker it writes each boundary — every shard's state, or its
//!   increment, plus minimized triage candidates and observation
//!   counts — for the boundary to close elsewhere.
//! * [`CampaignMerge`] — the coordinator half: holds the committed
//!   boundary state of every shard, takes one record per shard at
//!   every boundary and puts them through the crate's one `Boundary`
//!   (the private `boundary` module): triage admission
//!   first-publisher-wins and count folding, then hub publish, then
//!   hub import, **in shard-id order** — the same code
//!   `ShardedCampaign` runs on its driving thread, over the committed
//!   corpora instead of live shards. The coordinator never executes a
//!   program — it needs no kernel and no lowered IR — and its
//!   [`CampaignMerge::finish`] result is bit-identical to the
//!   single-process run because it *is* that run's boundary code,
//!   not a copy kept in step with it.
//!
//! ## A boundary costs what changed
//!
//! Between two boundaries a converged shard admits a fraction of a
//! percent of its execs, so neither half copies, compares or frees
//! the state that stayed:
//!
//! 1. **Mark.** When a boundary is acked the worker imports the
//!    reply's seeds and *marks* its shards ([`LeaseRunner::acked`]):
//!    each corpus numbers its entries and forgets which coverage
//!    words it touched (the crate-internal `Corpus::mark`). No
//!    snapshot is taken.
//! 2. **Live frame.** The next boundary
//!    ([`LeaseRunner::write_boundary`]) is written straight from live
//!    state through borrowed views, the way a checkpoint is: a lease's
//!    first boundary as full [`EpochDelta`] records (there is no
//!    agreed base yet), every later one as [`EpochPatch`] records — a
//!    [`KeptEntry`] per marked entry still there, the unmarked
//!    entries by reference, the coverage words the corpus touched,
//!    the signatures the drain just captured and the counts it took.
//!    Byte for byte what [`diff_boundary`] makes of two
//!    snapshot sets: an entry's `(program, contributed)` is unique in
//!    its shard and survivors keep their order, so the mark index is
//!    what that scan finds.
//! 3. **Validate at stash.** The coordinator checks an incremental
//!    payload against the committed state when it arrives
//!    ([`CampaignMerge::validate`]: a shard to patch, `kept` strictly
//!    ascending and in range, coverage runs inside the decoder's
//!    bound — every way a patch can fail to fit — and no count for a
//!    signature the report will not hold) and stashes the
//!    decoded payload. Nothing committed is touched before the
//!    barrier, so a range re-granted meanwhile still restores from
//!    the previous boundary, and a rejected payload leaves no trace.
//! 4. **Patch at commit.** Once every range delivered,
//!    [`CampaignMerge::commit`] installs each — a full record by
//!    move, a patch in place ([`crate::Corpus`] keeps the named
//!    entries, overwrites their two counters, appends the new ones,
//!    rewrites the changed coverage words) — and closes the boundary
//!    over the committed corpora — the committed state of a shard
//!    *is* a [`ShardSnapshot`], its corpus live; one is copied only
//!    for a grant ([`CampaignMerge::snapshots`]).
//!
//! **Two sinks.** A checkpointing campaign is its own coordinator with
//! a disk between the halves: it marks its shards at every durable
//! boundary and writes the next one as the same patch records into its
//! checkpoint's journal (`LeaseRunner::close_boundary` with a record —
//! the one drain feeds the in-process boundary and the record), and
//! [`crate::CampaignSnapshot::load`] moves a base into the committed
//! state above and replays the journal through `validate` and
//! `commit` ([`crate::checkpoint`]). `PatchView::encode` is the one
//! place the patch's wire order is written, whichever sink it is for.
//!
//! **The oracle.** The snapshot route is kept whole as the reference
//! the live one is pinned to: [`LeaseRunner::run_epoch`] (a snapshot
//! per shard), [`LeaseRunner::snapshots`], [`diff_boundary`],
//! [`apply_patches`], [`encode_patches`] / [`decode_patches`] and
//! [`CampaignMerge::apply_boundary`] (every record full). Nothing on
//! a worker's or the service's blocking path calls them;
//! [`reference_run`], the frame-cost accounting of `fuzz_bench`, the
//! benchmark's probe pass and the tests do — frame for frame and
//! commit for commit against the live route.
//!
//! The wire encodings here reuse the [`crate::checkpoint`] field
//! codecs (the same per-shard layout over [`kgpt_syzlang::codec`]),
//! so a delta is literally a checkpoint fragment: anything that can
//! round-trip through a `CampaignSnapshot` can round-trip through the
//! fabric.
//!
//! Failure semantics (driven by the `kgpt-fabric` coordinator):
//! committed state only ever advances at full-boundary barriers, so a
//! worker that dies mid-lease loses only uncommitted epochs — the
//! replacement restores the last committed [`ShardSnapshot`]s via
//! [`LeaseRunner::restore`] and re-runs from that boundary,
//! bit-identically. Duplicate deltas are not re-merged (the caller
//! re-acks instead), keeping the merge idempotent.

use crate::boundary::Boundary;
use crate::campaign::{
    CampaignConfig, CampaignResult, ShardSnapshot, ShardState, ShardView, CORPUS_CAP,
};
use crate::checkpoint::{
    config_fingerprint, decode_corpus_entry, decode_corpus_stats, decode_coverage, decode_rng,
    decode_shard, decode_triage_entry, decode_usize, decode_word_diff, encode_corpus_entry,
    encode_corpus_stats, encode_coverage, encode_shard, encode_triage_entry, encode_word_diff,
    CheckpointError,
};
use crate::corpus::{Corpus, CorpusEntry, CorpusStats};
use crate::hub::HubSeed;
use crate::triage::TriageMinimizer;
use kgpt_syzlang::codec::{DecodeError, Reader, Writer};
use kgpt_syzlang::lowered::LoweredDb;
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::stage::{self, Stage};
use kgpt_trace::{decode_signature, encode_signature};
use kgpt_triage::{TriageEntry, TriageReport};
use kgpt_vkernel::{CoverageMap, CoverageWordDiff, CrashSignature, VKernel, MAX_COVERAGE_WORDS};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

pub use crate::corpus::KeptEntry;

/// Execution budget of shard `i` in a campaign split over `shards`
/// shards: `execs` divided as evenly as possible, earlier shards
/// taking the remainder. The same split [`crate::ShardedCampaign`]
/// uses, exposed so fabric workers reconstruct identical budgets.
#[must_use]
pub fn shard_execs(config: &CampaignConfig, shards: u32, i: u32) -> u64 {
    let n = u64::from(shards.max(1));
    config.execs / n + u64::from(u64::from(i) < config.execs % n)
}

/// One shard's contribution to an epoch boundary: its complete
/// boundary state (the checkpoint-framed [`ShardSnapshot`]) plus the
/// locally minimized triage candidates and observation counts the
/// driving-thread drain would have produced for this boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDelta {
    pub(crate) snapshot: ShardSnapshot,
    /// Fresh captures, minimized worker-side, in capture order.
    pub(crate) candidates: Vec<TriageEntry>,
    /// Observation counts since the last boundary, in signature order.
    pub(crate) counts: Vec<(CrashSignature, u64)>,
}

impl EpochDelta {
    /// The shard this delta belongs to.
    #[must_use]
    pub fn shard_id(&self) -> u32 {
        self.snapshot.id
    }

    /// Executions the shard still owes after this boundary.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.snapshot.remaining
    }

    /// Write the delta: the checkpoint shard layout, then the triage
    /// candidates and counts.
    pub fn encode(&self, w: &mut Writer<'_>) {
        encode_delta(self.snapshot.view(), &self.candidates, &self.counts, w);
    }

    /// Read one delta (inverse of [`EpochDelta::encode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on any malformed field.
    pub fn decode(r: &mut Reader<'_>) -> Result<EpochDelta, DecodeError> {
        Ok(EpochDelta {
            snapshot: decode_shard(r)?,
            candidates: r.seq(decode_triage_entry)?,
            counts: r.seq(decode_count)?,
        })
    }
}

/// The full-record layout, from a borrowed shard: an owned
/// [`EpochDelta`] and a worker's live shard write the same bytes.
fn encode_delta(
    shard: ShardView<'_>,
    candidates: &[TriageEntry],
    counts: &[(CrashSignature, u64)],
    w: &mut Writer<'_>,
) {
    encode_shard(shard, w);
    w.seq(candidates, encode_triage_entry);
    w.seq(counts, encode_count);
}

/// One per-signature observation count.
fn encode_count((sig, n): &(CrashSignature, u64), w: &mut Writer<'_>) {
    encode_signature(sig, w);
    w.u64(*n);
}

fn decode_count(r: &mut Reader<'_>) -> Result<(CrashSignature, u64), DecodeError> {
    Ok((decode_signature(r)?, r.u64()?))
}

// ---- wire codecs shared with the kgpt-fabric protocol --------------------

/// Write a [`CampaignConfig`] (lease grants carry it; its hash is the
/// [`config_fingerprint`]).
pub fn encode_config(config: &CampaignConfig, w: &mut Writer<'_>) {
    w.u64(config.execs);
    w.u64(config.seed);
    w.u64(config.max_prog_len as u64);
    w.opt(config.enabled.as_deref(), |names, w| {
        w.seq(names, |n, w| w.str(n));
    });
    w.u64(config.hub_epoch);
    w.u64(config.hub_top_k as u64);
    w.u64(config.exec_fuel);
    w.u64(config.trace_ring as u64);
}

/// Read a [`CampaignConfig`] (inverse of [`encode_config`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed field.
pub fn decode_config(r: &mut Reader<'_>) -> Result<CampaignConfig, DecodeError> {
    Ok(CampaignConfig {
        execs: r.u64()?,
        seed: r.u64()?,
        max_prog_len: decode_usize(r)?,
        enabled: r.opt(|r| r.seq(Reader::str))?,
        hub_epoch: r.u64()?,
        hub_top_k: decode_usize(r)?,
        exec_fuel: r.u64()?,
        trace_ring: decode_usize(r)?,
    })
}

/// Write a list of committed [`ShardSnapshot`]s (lease grants carry
/// the restore state of a reassigned range this way).
pub fn encode_snapshots(snaps: &[ShardSnapshot], w: &mut Writer<'_>) {
    w.seq(snaps, |s, w| encode_shard(s.view(), w));
}

/// Read a list of [`ShardSnapshot`]s (inverse of
/// [`encode_snapshots`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed field.
pub fn decode_snapshots(r: &mut Reader<'_>) -> Result<Vec<ShardSnapshot>, DecodeError> {
    r.seq(decode_shard)
}

/// Write a list of [`HubSeed`]s (the boundary reply carries the seeds
/// newly retained by the hub this way; a checkpoint carries them all).
pub fn encode_seeds(seeds: &[HubSeed], w: &mut Writer<'_>) {
    w.seq(seeds, |seed, w| {
        w.u32(seed.shard);
        seed.program.encode(w);
        encode_coverage(&seed.contributed, w);
    });
}

/// Read a list of [`HubSeed`]s (inverse of [`encode_seeds`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed field.
pub fn decode_seeds(r: &mut Reader<'_>) -> Result<Vec<HubSeed>, DecodeError> {
    r.seq(|r| {
        Ok(HubSeed {
            shard: r.u32()?,
            program: Program::decode(r)?,
            contributed: decode_coverage(r)?,
        })
    })
}

// ---- incremental boundary frames -----------------------------------------

/// One shard's epoch boundary as an increment against the shard's
/// last *committed* snapshot: scalar boundary state verbatim (RNGs,
/// budgets, stats — a few dozen bytes), everything bulky as a diff.
///
/// * corpus — [`KeptEntry`] records for baseline survivors (eviction
///   is implicit: a baseline entry with no record is gone) plus the
///   full bodies of newly admitted entries. Entry identity is stable
///   because the corpus preserves survivor order and appends new
///   admissions, and an entry's `(program, contributed)` pair is
///   unique within a shard (contributions are pairwise disjoint).
/// * coverage — a [`CoverageWordDiff`] against the baseline map.
/// * triage-seen — only the signatures new since the baseline; the
///   set grows monotonically between boundaries.
/// * triage candidates / counts — already per-boundary increments in
///   [`EpochDelta`]; carried verbatim.
///
/// A patch only means something relative to the snapshot it was
/// diffed against, so the fabric protocol must guarantee baseline
/// agreement: a worker's increments are relative to its post-ack
/// import state, which the barrier commit makes byte-identical to
/// the coordinator's committed state for that boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPatch {
    pub shard_id: u32,
    pub epoch: u64,
    pub rng_pick: u64,
    pub remaining: u64,
    pub fuel_exhausted: u64,
    pub gen_rng: [u64; 4],
    pub corpus_rng: u64,
    pub corpus_stats: CorpusStats,
    /// Coverage words that changed since the baseline.
    pub cov_diff: CoverageWordDiff,
    /// Baseline survivors, in (strictly ascending) baseline order.
    pub kept: Vec<KeptEntry>,
    /// Newly admitted entries, appended after the survivors.
    pub added: Vec<CorpusEntry>,
    /// Triage signatures seen for the first time since the baseline.
    pub seen: Vec<CrashSignature>,
    /// Fresh minimized captures, verbatim from the [`EpochDelta`].
    pub candidates: Vec<TriageEntry>,
    /// Observation counts, verbatim from the [`EpochDelta`].
    pub counts: Vec<(CrashSignature, u64)>,
}

/// Borrowed form of an [`EpochPatch`], and the one place its wire
/// order is written: an owned patch encodes through it
/// ([`EpochPatch::encode`]), and a worker fills one from a marked
/// shard's live state ([`LeaseRunner::write_boundary`]) — the way
/// `ShardView` serves both a snapshot and a live shard.
struct PatchView<'a, K> {
    shard_id: u32,
    epoch: u64,
    rng_pick: u64,
    remaining: u64,
    fuel_exhausted: u64,
    gen_rng: [u64; 4],
    corpus_rng: u64,
    corpus_stats: CorpusStats,
    cov_diff: &'a CoverageWordDiff,
    kept: K,
    added: &'a [CorpusEntry],
    seen: &'a [CrashSignature],
    candidates: &'a [TriageEntry],
    counts: &'a [(CrashSignature, u64)],
}

/// A [`KeptEntry`] on the wire: its index and its two counters.
const KEPT_RECORD_BYTES: usize = 4 + 8 + 8;

impl<K: ExactSizeIterator<Item = KeptEntry>> PatchView<'_, K> {
    /// Scalars verbatim, then the increments.
    fn encode(self, w: &mut Writer<'_>) {
        w.u32(self.shard_id);
        w.u64(self.epoch);
        w.u64(self.rng_pick);
        w.u64(self.remaining);
        w.u64(self.fuel_exhausted);
        for word in self.gen_rng {
            w.u64(word);
        }
        w.u64(self.corpus_rng);
        encode_corpus_stats(&self.corpus_stats, w);
        encode_word_diff(self.cov_diff, w);
        w.seq(self.kept, |k, w| {
            w.u32(k.index);
            w.u64(k.execs);
            w.u64(k.hits);
        });
        w.seq(self.added, encode_corpus_entry);
        w.seq(self.seen, encode_signature);
        w.seq(self.candidates, encode_triage_entry);
        w.seq(self.counts, encode_count);
    }
}

/// One marked shard's boundary as an [`EpochPatch`] on the wire,
/// straight from live state: `seen` is what its seen-set gained since
/// the mark, `candidates` and `counts` what the boundary's drain took.
fn write_patch(
    state: &ShardState,
    seen: &[CrashSignature],
    candidates: &[TriageEntry],
    counts: &[(CrashSignature, u64)],
    w: &mut Writer<'_>,
) {
    let (epoch, rng_pick, gen_rng) = state.clocks();
    PatchView {
        shard_id: state.id,
        epoch,
        rng_pick,
        remaining: state.remaining,
        fuel_exhausted: state.fuel_exhausted,
        gen_rng,
        corpus_rng: state.corpus.rng_state(),
        corpus_stats: state.corpus.stats(),
        cov_diff: &state.corpus.coverage_since_mark(),
        kept: state.corpus.kept_since_mark(),
        added: state.corpus.added_since_mark(),
        seen,
        candidates,
        counts,
    }
    .encode(w);
}

impl EpochPatch {
    /// Whether `delta` can be expressed as an increment against
    /// `base`. False only on id misalignment or if the seen-set shrank
    /// (impossible for real shard evolution, but diffing is fallible
    /// by construction — the caller falls back to a full frame rather
    /// than ship a lossy patch).
    fn diffable(base: &ShardSnapshot, delta: &EpochDelta) -> bool {
        base.id == delta.snapshot.id && base.triage_seen.is_subset(&delta.snapshot.triage_seen)
    }

    /// Diff `delta` against `base` (requires [`EpochPatch::diffable`]).
    ///
    /// Survivor matching is a greedy two-pointer scan: the corpus
    /// preserves survivor order, so each new entry either matches the
    /// next unconsumed baseline entry with the same
    /// `(program, contributed)` pair, or it (and everything after it)
    /// is a new admission. A mismatch can only cost bytes, never
    /// correctness — unmatched entries ship in full, and
    /// [`EpochPatch::apply`] reconstructs the identical entry list
    /// either way.
    fn diff(base: &ShardSnapshot, delta: EpochDelta) -> EpochPatch {
        let EpochDelta {
            snapshot,
            candidates,
            counts,
        } = delta;
        let (corpus_rng, coverage, entries, corpus_stats) = snapshot.corpus.into_parts();
        let base_entries = base.corpus.entries();
        let mut kept = Vec::new();
        let mut added = Vec::new();
        let mut next = 0usize;
        for e in entries {
            // Admissions append: once one is seen, the rest of the
            // list is admissions too. So is a survivor whose index a
            // [`KeptEntry`] cannot hold.
            let survivor = if added.is_empty() {
                base_entries[next..]
                    .iter()
                    .position(|b| b.program == e.program && b.contributed == e.contributed)
                    .and_then(|off| u32::try_from(next + off).ok())
            } else {
                None
            };
            match survivor {
                Some(index) => {
                    kept.push(KeptEntry {
                        index,
                        execs: e.execs,
                        hits: e.hits,
                    });
                    next = index as usize + 1;
                }
                None => added.push(e),
            }
        }
        let seen = snapshot
            .triage_seen
            .difference(&base.triage_seen)
            .copied()
            .collect();
        EpochPatch {
            shard_id: snapshot.id,
            epoch: snapshot.epoch,
            rng_pick: snapshot.rng_pick,
            remaining: snapshot.remaining,
            fuel_exhausted: snapshot.fuel_exhausted,
            gen_rng: snapshot.gen_rng,
            corpus_rng,
            corpus_stats,
            cov_diff: coverage.diff_words_since(base.corpus.coverage()),
            kept,
            added,
            seen,
            candidates,
            counts,
        }
    }

    /// The shard this patch belongs to.
    #[must_use]
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// Every way a patch can fail to fit the committed state of shard
    /// `base_id` with `base_len` corpus entries: the wrong shard, a
    /// kept index out of range, repeated or descending, a coverage
    /// run past [`MAX_COVERAGE_WORDS`] (the wire decoder's bound,
    /// held here too for a patch that never crossed a wire). A patch
    /// that passes applies without a further check.
    fn fits(&self, base_id: u32, base_len: usize) -> Result<(), CheckpointError> {
        if base_id != self.shard_id {
            return Err(CheckpointError::new(format!(
                "patch for shard {} applied to baseline of shard {}",
                self.shard_id, base_id
            )));
        }
        let mut min_next = 0u64;
        for k in &self.kept {
            if u64::from(k.index) < min_next {
                return Err(CheckpointError::new(format!(
                    "kept index {} out of order in shard {} patch",
                    k.index, self.shard_id
                )));
            }
            if k.index as usize >= base_len {
                return Err(CheckpointError::new(format!(
                    "kept index {} out of range (baseline of shard {} has {} entries)",
                    k.index, self.shard_id, base_len
                )));
            }
            min_next = u64::from(k.index) + 1;
        }
        let cov_words = match &self.cov_diff {
            CoverageWordDiff::Dense(words) => words.len(),
            CoverageWordDiff::Sparse(runs) => runs
                .iter()
                .map(|(start, run)| *start as usize + run.len())
                .max()
                .unwrap_or(0),
        };
        if cov_words > MAX_COVERAGE_WORDS {
            return Err(CheckpointError::new(format!(
                "coverage diff of shard {} patch reaches word {cov_words}, past the coverage bound",
                self.shard_id
            )));
        }
        Ok(())
    }

    /// Reconstruct the full [`EpochDelta`] this patch encodes,
    /// against the baseline snapshot it was diffed from.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the patch does not fit the
    /// baseline (wrong shard id, kept index out of range or out of
    /// order) — the coordinator treats that as a protocol violation,
    /// exactly like a delta frame for the wrong shard range.
    pub fn apply(self, base: &ShardSnapshot) -> Result<EpochDelta, CheckpointError> {
        self.fits(base.id, base.corpus.len())?;
        let kept = self.kept.iter().map(|k| {
            let b = base.corpus.entry(k.index as usize);
            CorpusEntry {
                program: b.program.clone(),
                contributed: b.contributed.clone(),
                execs: k.execs,
                hits: k.hits,
            }
        });
        let entries = kept.chain(self.added).collect();
        let coverage = base.corpus.coverage().apply_word_diff(&self.cov_diff);
        let mut triage_seen = base.triage_seen.clone();
        triage_seen.extend(self.seen);
        Ok(EpochDelta {
            snapshot: ShardSnapshot {
                id: self.shard_id,
                gen_rng: self.gen_rng,
                corpus: Corpus::from_parts(
                    CORPUS_CAP,
                    self.corpus_rng,
                    coverage,
                    entries,
                    self.corpus_stats,
                ),
                triage_seen,
                epoch: self.epoch,
                rng_pick: self.rng_pick,
                remaining: self.remaining,
                fuel_exhausted: self.fuel_exhausted,
            },
            candidates: self.candidates,
            counts: self.counts,
        })
    }

    /// Write the patch (scalars verbatim, then the increments).
    pub fn encode(&self, w: &mut Writer<'_>) {
        PatchView {
            shard_id: self.shard_id,
            epoch: self.epoch,
            rng_pick: self.rng_pick,
            remaining: self.remaining,
            fuel_exhausted: self.fuel_exhausted,
            gen_rng: self.gen_rng,
            corpus_rng: self.corpus_rng,
            corpus_stats: self.corpus_stats,
            cov_diff: &self.cov_diff,
            kept: self.kept.iter().copied(),
            added: &self.added,
            seen: &self.seen,
            candidates: &self.candidates,
            counts: &self.counts,
        }
        .encode(w);
    }

    /// Read one patch (inverse of [`EpochPatch::encode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on any malformed field.
    pub fn decode(r: &mut Reader<'_>) -> Result<EpochPatch, DecodeError> {
        Ok(EpochPatch {
            shard_id: r.u32()?,
            epoch: r.u64()?,
            rng_pick: r.u64()?,
            remaining: r.u64()?,
            fuel_exhausted: r.u64()?,
            gen_rng: decode_rng(r)?,
            corpus_rng: r.u64()?,
            corpus_stats: decode_corpus_stats(r)?,
            cov_diff: decode_word_diff(r)?,
            // A record's size is fixed, so the count is exact: one
            // list, never regrown, however many entries a corpus keeps.
            kept: r.seq_of(KEPT_RECORD_BYTES, |r| {
                Ok(KeptEntry {
                    index: r.u32()?,
                    execs: r.u64()?,
                    hits: r.u64()?,
                })
            })?,
            added: r.seq(decode_corpus_entry)?,
            seen: r.seq(decode_signature)?,
            candidates: r.seq(decode_triage_entry)?,
            counts: r.seq(decode_count)?,
        })
    }
}

/// Diff a boundary's [`EpochDelta`]s against the matching baseline
/// snapshots (both in shard-id order), or hand the deltas back when
/// they cannot be expressed as increments — the caller then sends a
/// full frame instead. A worker's first boundary after a grant has no
/// agreed baseline, so it always takes the `Err` path.
///
/// # Errors
///
/// Returns the deltas unchanged when `base` does not align with them
/// shard-for-shard.
pub fn diff_boundary(
    base: &[ShardSnapshot],
    deltas: Vec<EpochDelta>,
) -> Result<Vec<EpochPatch>, Vec<EpochDelta>> {
    if base.len() != deltas.len()
        || !base
            .iter()
            .zip(&deltas)
            .all(|(b, d)| EpochPatch::diffable(b, d))
    {
        return Err(deltas);
    }
    Ok(base
        .iter()
        .zip(deltas)
        .map(|(b, d)| EpochPatch::diff(b, d))
        .collect())
}

/// Reconstruct a boundary's [`EpochDelta`]s from patches and the
/// baseline snapshots they were diffed against (both in shard-id
/// order).
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the patches do not fit the
/// baseline shard-for-shard.
pub fn apply_patches(
    base: &[ShardSnapshot],
    patches: Vec<EpochPatch>,
) -> Result<Vec<EpochDelta>, CheckpointError> {
    if base.len() != patches.len() {
        return Err(CheckpointError::new(format!(
            "{} patches against {} baseline snapshots",
            patches.len(),
            base.len()
        )));
    }
    base.iter().zip(patches).map(|(b, p)| p.apply(b)).collect()
}

/// Append a whole incremental frame body — the counted list of a
/// range's [`EpochPatch`]es — to a plain buffer. (The wire codec
/// composes the same list itself; this pair is the entry point for
/// callers that size or time patch bodies on their own.)
pub fn encode_patches(patches: &[EpochPatch], out: &mut Vec<u8>) {
    Writer::new(out).seq(patches, EpochPatch::encode);
}

/// Decode what [`encode_patches`] wrote from `bytes`, starting at
/// `*pos` and advancing it past the consumed bytes.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on any malformed field.
pub fn decode_patches(bytes: &[u8], pos: &mut usize) -> Result<Vec<EpochPatch>, CheckpointError> {
    let mut r = Reader::at(bytes, *pos);
    let patches = r.seq(EpochPatch::decode)?;
    *pos = r.pos();
    Ok(patches)
}

/// Hand-rolled two-shard boundary fixture — baseline snapshots plus
/// the deltas of the next boundary, wired so [`diff_boundary`]
/// produces nontrivial patches (kept + added entries, coverage runs,
/// a fresh triage signature, an observation count). The snapshot
/// fields are crate-private on purpose; protocol-crate tests build
/// realistic frames through this instead.
#[doc(hidden)]
#[must_use]
pub fn sample_boundary() -> (Vec<ShardSnapshot>, Vec<EpochDelta>) {
    let sig = |site: u64| CrashSignature {
        sysno: kgpt_vkernel::Sysno::Ioctl,
        chain_depth: 1,
        sanitizer: kgpt_vkernel::SanitizerKind::UseAfterFree,
        site,
    };
    let entry = |sys: u32, word: usize, bit: u64, execs: u64, hits: u64| {
        let mut words = vec![0u64; word + 1];
        words[word] = bit;
        CorpusEntry {
            program: Program {
                calls: vec![kgpt_syzlang::prog::ProgCall {
                    sys,
                    args: Vec::new(),
                }],
            },
            contributed: CoverageMap::from_words(words),
            execs,
            hits,
        }
    };
    let snap = |id: u32, epoch: u64, words: Vec<u64>, entries: Vec<CorpusEntry>| ShardSnapshot {
        id,
        gen_rng: [0x9E37_79B9_7F4A_7C15 ^ u64::from(id), 2, 3, 4 + epoch],
        corpus: Corpus::from_parts(
            CORPUS_CAP,
            0xD1B5_4A32_D192_ED03 ^ epoch,
            CoverageMap::from_words(words),
            entries,
            CorpusStats {
                admitted: epoch * 3,
                imported: epoch,
                evicted: 0,
            },
        ),
        triage_seen: (0..=epoch).map(|i| sig(100 + i)).collect(),
        epoch,
        rng_pick: epoch * 17,
        remaining: 1000 - epoch * 128,
        fuel_exhausted: 0,
    };
    let base = vec![
        snap(
            0,
            1,
            vec![0xFF, 0, 0x10],
            vec![
                entry(1, 0, 0x01, 10, 2),
                entry(2, 0, 0x02, 7, 0),
                entry(3, 1, 0x04, 4, 1),
            ],
        ),
        snap(1, 1, vec![0x0F], vec![entry(4, 0, 0x08, 3, 0)]),
    ];
    // Shard 0 evicts its middle entry, refreshes the survivors'
    // counters, and admits one new entry; shard 1 only admits.
    let next = vec![
        snap(
            0,
            2,
            vec![0xFF, 0x01, 0x10, 0x800],
            vec![
                entry(1, 0, 0x01, 12, 2),
                entry(3, 1, 0x04, 5, 1),
                entry(5, 3, 0x800, 0, 0),
            ],
        ),
        snap(
            1,
            2,
            vec![0x0F, 0, 0, 0x22],
            vec![entry(4, 0, 0x08, 6, 1), entry(6, 3, 0x22, 0, 0)],
        ),
    ];
    let deltas = next
        .into_iter()
        .map(|snapshot| EpochDelta {
            snapshot,
            candidates: Vec::new(),
            counts: vec![(sig(101), 3)],
        })
        .collect();
    (base, deltas)
}

// ---- a range's boundary on the wire ---------------------------------------

/// How a [`DeltaPayload`] encodes its boundary state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Complete per-shard boundary snapshots.
    Full,
    /// Increments against the last acked boundary's committed state.
    Incremental,
}

/// What one shard range delivers at a boundary — the payload of the
/// fabric protocol's delta frame, and what [`CampaignMerge::commit`]
/// installs.
///
/// A full payload is always valid and is **mandatory** on a worker's
/// first boundary after a grant — fresh campaign or lease
/// reassignment alike — because no baseline has been agreed yet. The
/// grant tells the worker exactly which committed state the
/// coordinator holds; every boundary the worker gets acked after that
/// establishes a shared baseline (the post-import state both sides
/// hold byte-identically), against which the next boundary ships as
/// increments.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaPayload {
    /// One full [`EpochDelta`] per shard of the range, ascending id.
    Full(Vec<EpochDelta>),
    /// One [`EpochPatch`] per shard of the range, ascending id,
    /// against the previous acked boundary.
    Incremental(Vec<EpochPatch>),
}

const KIND_FULL: u8 = 0;
const KIND_INCREMENTAL: u8 = 1;

impl DeltaPayload {
    /// Which kind of payload this is.
    #[must_use]
    pub fn kind(&self) -> DeltaKind {
        match self {
            DeltaPayload::Full(_) => DeltaKind::Full,
            DeltaPayload::Incremental(_) => DeltaKind::Incremental,
        }
    }

    /// Number of per-shard records carried.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            DeltaPayload::Full(d) => d.len(),
            DeltaPayload::Incremental(p) => p.len(),
        }
    }

    /// Whether the payload carries no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard ids of the carried records, in payload order.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<u32> {
        match self {
            DeltaPayload::Full(d) => d.iter().map(EpochDelta::shard_id).collect(),
            DeltaPayload::Incremental(p) => p.iter().map(EpochPatch::shard_id).collect(),
        }
    }

    /// `check` over every record in payload order — its shard id, the
    /// corpus entries it carries whole, its triage candidates and its
    /// observation counts — up to the first error.
    fn try_for_each_record(
        &self,
        mut check: impl FnMut(
            u32,
            &[CorpusEntry],
            &[TriageEntry],
            &[(CrashSignature, u64)],
        ) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        match self {
            DeltaPayload::Full(deltas) => deltas.iter().try_for_each(|d| {
                let corpus = d.snapshot.corpus.entries();
                check(d.snapshot.id, corpus, &d.candidates, &d.counts)
            }),
            DeltaPayload::Incremental(patches) => patches
                .iter()
                .try_for_each(|p| check(p.shard_id, &p.added, &p.candidates, &p.counts)),
        }
    }

    /// Every program the payload would commit — corpus entries and
    /// triage captures — against `lowered` (`check_programs`).
    fn check_programs(&self, lowered: &LoweredDb) -> Result<(), CheckpointError> {
        self.try_for_each_record(|shard, corpus, candidates, _| {
            let origin = format_args!("the boundary record of shard {shard}");
            let corpus = corpus.iter().map(|e| &e.program);
            check_programs(lowered, origin, corpus.chain(triage_programs(candidates)))
        })
    }

    /// Every count of the payload names a signature the report will
    /// hold when `Boundary::admit_shard` adds it: one `report` holds
    /// already, or one a candidate of the same or an earlier record
    /// captures (an in-process drain drops a capture an earlier shard
    /// of the boundary admitted, so a journal record's later shard may
    /// count a signature it carries no capture of). A count for
    /// anything else would be dropped, and be a crash missing from the
    /// result's tally. Allocates only when the payload captures.
    fn check_counts(&self, report: &TriageReport) -> Result<(), CheckpointError> {
        let mut captured = Vec::new();
        self.try_for_each_record(|shard, _, candidates, counts| {
            captured.extend(candidates.iter().map(|c| c.signature));
            let held = |sig: &CrashSignature| report.contains(sig) || captured.contains(sig);
            match counts.iter().find(|(sig, _)| !held(sig)) {
                Some((sig, _)) => Err(CheckpointError::new(format!(
                    "the boundary record of shard {shard} counts {sig:?}, which no report entry \
                     or capture holds"
                ))),
                None => Ok(()),
            }
        })
    }

    /// Write the payload: a kind byte, then the counted records.
    /// [`LeaseRunner::write_boundary`] writes the same layout from
    /// live state.
    pub fn encode(&self, w: &mut Writer<'_>) {
        match self {
            DeltaPayload::Full(d) => {
                w.u8(KIND_FULL);
                w.seq(d, EpochDelta::encode);
            }
            DeltaPayload::Incremental(p) => {
                w.u8(KIND_INCREMENTAL);
                w.seq(p, EpochPatch::encode);
            }
        }
    }

    /// Read one payload (inverse of [`DeltaPayload::encode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown kind byte or any
    /// malformed record.
    pub fn decode(r: &mut Reader<'_>) -> Result<DeltaPayload, DecodeError> {
        match r.u8()? {
            KIND_FULL => Ok(DeltaPayload::Full(r.seq(EpochDelta::decode)?)),
            KIND_INCREMENTAL => Ok(DeltaPayload::Incremental(r.seq(EpochPatch::decode)?)),
            _ => Err(r.err("unknown delta kind")),
        }
    }
}

// ---- the door for programs that arrive as bytes ----------------------------

/// [`Program::fits`] over `programs`, the first misfit as the error of
/// the door that met it, naming `origin`. [`Program::decode`] knows no
/// specification and accepts any syscall index, argument count and
/// producer; generation, mutation and execution index by them
/// unchecked. So a program that arrives as bytes is checked once where
/// it enters — a resume or a grant ([`LeaseRunner::restore`]), a
/// coordinator that knows its suite ([`CampaignMerge::validate`]), a
/// trace ([`crate::replay_trace`]).
pub(crate) fn check_programs<'a>(
    lowered: &LoweredDb,
    origin: impl std::fmt::Display,
    programs: impl IntoIterator<Item = &'a Program>,
) -> Result<(), CheckpointError> {
    for program in programs {
        let misfit = |m| CheckpointError::new(format!("{origin} holds a misfit program: {m}"));
        program.fits(lowered).map_err(misfit)?;
    }
    Ok(())
}

/// The programs of triage entries: each one's raw capture and its
/// reproducer.
pub(crate) fn triage_programs<'a>(
    entries: impl IntoIterator<Item = &'a TriageEntry>,
) -> impl Iterator<Item = &'a Program> {
    entries.into_iter().flat_map(|e| [&e.raw, &e.minimized])
}

// ---- shard-range runner: the worker half, or in process the whole campaign

/// A contiguous range of shards stepped one epoch at a time, with the
/// triage minimizer that drains them. On a fabric worker it is the
/// worker half of a distributed campaign; over the whole range
/// `0..shards`, closing its boundaries in process, it *is*
/// [`crate::ShardedCampaign`] — the one place shard states are built,
/// restored and stepped.
pub struct LeaseRunner {
    config: CampaignConfig,
    pub(crate) states: Vec<ShardState>,
    minimizer: TriageMinimizer,
    /// Whether the shards carry the mark of an acked boundary
    /// ([`LeaseRunner::acked`]) — whether the next boundary is written
    /// as increments.
    marked: bool,
}

impl LeaseRunner {
    /// Fresh lease over shards `lo..hi` of a `shards_total`-shard
    /// campaign (boundary 0): each shard gets the budget and seed the
    /// single-process campaign would give it.
    #[must_use]
    pub fn fresh(
        lowered: &Arc<LoweredDb>,
        config: &CampaignConfig,
        shards_total: u32,
        lo: u32,
        hi: u32,
    ) -> LeaseRunner {
        let states = (lo..hi)
            .map(|i| {
                ShardState::new(
                    lowered,
                    config,
                    i,
                    shard_execs(config, shards_total, i),
                    config.seed.wrapping_add(u64::from(i)),
                )
            })
            .collect();
        LeaseRunner::from_states(lowered, config, states)
    }

    /// Reassigned lease (or resumed campaign): restore the range from
    /// its last committed boundary snapshots (in shard-id order),
    /// which it consumes — no corpus is copied on the way.
    /// Continuing the restored range is bit-identical to continuing
    /// the original — the epochs it never committed are simply re-run.
    /// Snapshots come from bytes (a checkpoint and its journal, a
    /// grant), so this is where their corpus programs are held to
    /// `lowered` (`check_programs`).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] naming the first corpus program
    /// that `lowered` could not have generated; nothing is restored.
    pub fn restore(
        lowered: &Arc<LoweredDb>,
        config: &CampaignConfig,
        snapshots: Vec<ShardSnapshot>,
    ) -> Result<LeaseRunner, CheckpointError> {
        for snap in &snapshots {
            let origin = format_args!("the snapshot of shard {}", snap.id);
            let programs = snap.corpus.entries().iter().map(|e| &e.program);
            check_programs(lowered, origin, programs)?;
        }
        let states = snapshots
            .into_iter()
            .map(|s| ShardState::restore(lowered, config, s))
            .collect();
        Ok(LeaseRunner::from_states(lowered, config, states))
    }

    fn from_states(
        lowered: &Arc<LoweredDb>,
        config: &CampaignConfig,
        states: Vec<ShardState>,
    ) -> LeaseRunner {
        LeaseRunner {
            config: config.clone(),
            states,
            minimizer: TriageMinimizer::new(lowered),
            marked: false,
        }
    }

    /// The campaign config this lease runs under.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Shard ids this lease covers, ascending.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<u32> {
        self.states.iter().map(|s| s.id).collect()
    }

    /// Executions the range still owes (summed over its shards).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.states.iter().map(|s| s.remaining).sum()
    }

    /// Current boundary snapshots of the range, in shard-id order.
    /// Captured right after the import pass of an acked boundary,
    /// these are byte-identical to the state the coordinator
    /// committed for that boundary — the baseline [`diff_boundary`]
    /// diffs against. Part of the oracle route: a worker marks
    /// ([`LeaseRunner::acked`]) instead of copying its state.
    #[must_use]
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.states.iter().map(ShardState::snapshot).collect()
    }

    /// Advance every shard of the range by one epoch, spreading the
    /// shards over `threads` threads. A barrier: returns only when
    /// all shards reached the boundary. Each shard is advanced by
    /// exactly one thread and reads only shared immutable state, so
    /// its evolution is schedule-independent.
    pub(crate) fn step(&mut self, kernel: &VKernel, threads: usize) {
        let epoch = self.config.epoch_budget();
        if threads <= 1 {
            for state in &mut self.states {
                state.run_epoch(kernel, epoch);
            }
            return;
        }
        // Held only for `next()`: a shard runs with the lock released,
        // so not even a panicking one leaves it poisoned.
        let shards = Mutex::new(self.states.iter_mut());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let next = shards.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some(state) = next else { break };
                    state.run_epoch(kernel, epoch);
                });
            }
        });
    }

    /// The boundary in process, fed from live state: drain every
    /// shard's triage into `boundary` in shard-id order — skipping
    /// captures the report already owns, so only an admitted capture
    /// is ever minimized — then close it over the live corpora. No
    /// [`ShardSnapshot`] is taken. With a `record` (a checkpoint
    /// journal's; the shards carry the mark of the last durable
    /// boundary) the same drain also writes the boundary as
    /// [`LeaseRunner::write_boundary`] writes an incremental one — what
    /// [`CampaignMerge::commit`] makes this very boundary of — and
    /// after it what each traced shard's recorder retained since. Returns
    /// [`Boundary::close`]'s verdict: `None` when the campaign is
    /// finished.
    pub(crate) fn close_boundary(
        &mut self,
        kernel: &VKernel,
        boundary: &mut Boundary,
        record: Option<&mut Writer<'_>>,
    ) -> Option<Range<usize>> {
        let _span = stage::span(Stage::Boundary);
        let LeaseRunner {
            states, minimizer, ..
        } = self;
        let mut drain = |state: &mut ShardState, record: Option<&mut Writer<'_>>| {
            let seen = record.as_ref().map(|_| state.triage.fresh_seen());
            let (candidates, counts) =
                minimizer.drain(kernel, state.id, &mut state.triage, &boundary.triage);
            if let (Some(w), Some(seen)) = (record, seen) {
                write_patch(state, &seen, &candidates, &counts, w);
            }
            boundary.admit_shard(candidates, counts);
        };
        match record {
            Some(w) => {
                w.u8(KIND_INCREMENTAL);
                w.seq(states.iter_mut(), |state, w| drain(state, Some(w)));
                let budget = self.config.epoch_budget();
                let traced: Vec<&ShardState> = states.iter().filter(|s| s.traced()).collect();
                w.seq(traced, |state, w| state.write_traces_since_mark(budget, w));
            }
            None => states.iter_mut().for_each(|state| drain(state, None)),
        }
        boundary.close(
            self.states
                .iter_mut()
                .map(|s| (s.id, s.remaining, &mut s.corpus)),
        )
    }

    /// Run one epoch on every shard of the range, on this thread —
    /// the first half of a worker's boundary;
    /// [`LeaseRunner::write_boundary`] is the second.
    pub fn advance(&mut self, kernel: &VKernel) {
        self.step(kernel, 1);
    }

    /// Write the boundary the range just reached
    /// ([`LeaseRunner::advance`]) as a [`DeltaPayload`] on the wire,
    /// straight from live state: a kind byte, then one record per
    /// shard, ascending — [`EpochDelta`]s while the range carries no
    /// mark (a lease's first boundary), [`EpochPatch`]es against the
    /// mark afterwards. No shard is copied on the way: the bytes are
    /// those of the payload the oracle route builds
    /// ([`LeaseRunner::run_epoch`], then [`diff_boundary`] against the
    /// [`LeaseRunner::snapshots`] taken where the mark was), for work
    /// proportional to what the epoch changed. The worker holds no
    /// campaign report, so it minimizes every fresh capture and the
    /// coordinator's admission drops the ones that lose.
    pub fn write_boundary(&mut self, kernel: &VKernel, w: &mut Writer<'_>) {
        let _span = stage::span(Stage::WriteBoundary);
        let nobody = TriageReport::new();
        let LeaseRunner {
            states,
            minimizer,
            marked,
            ..
        } = self;
        w.u8(if *marked { KIND_INCREMENTAL } else { KIND_FULL });
        w.seq(states.iter_mut(), |state, w| {
            let seen = state.triage.fresh_seen();
            let (candidates, counts) =
                minimizer.drain(kernel, state.id, &mut state.triage, &nobody);
            if *marked {
                write_patch(state, &seen, &candidates, &counts, w);
            } else {
                encode_delta(state.view(), &candidates, &counts, w);
            }
        });
    }

    /// The boundary was acked with `seeds`: import them
    /// ([`LeaseRunner::import`]) and mark every shard. The coordinator
    /// committed exactly this post-import state, so what the range
    /// changes from here on is what the next boundary's patches must
    /// say — and the mark is all the shards keep of the baseline.
    pub fn acked(&mut self, seeds: &[HubSeed]) {
        self.import(seeds);
        self.mark();
    }

    /// Mark every shard: somebody else now holds this state (a
    /// coordinator's commit, a checkpoint and its journal), and the
    /// next boundary is written against it.
    pub(crate) fn mark(&mut self) {
        for state in &mut self.states {
            state.mark();
        }
        self.marked = true;
    }

    /// Run one epoch on every shard of the range and return one
    /// [`EpochDelta`] per shard, ascending, each holding a snapshot of
    /// its shard — the oracle route's boundary
    /// ([`LeaseRunner::advance`] + [`LeaseRunner::write_boundary`] is
    /// the live one). Minimizes every fresh capture, like a worker.
    #[must_use]
    pub fn run_epoch(&mut self, kernel: &VKernel) -> Vec<EpochDelta> {
        self.advance(kernel);
        let nobody = TriageReport::new();
        self.states
            .iter_mut()
            .map(|state| {
                let (candidates, counts) =
                    self.minimizer
                        .drain(kernel, state.id, &mut state.triage, &nobody);
                EpochDelta {
                    snapshot: state.snapshot(),
                    candidates,
                    counts,
                }
            })
            .collect()
    }

    /// Apply the boundary reply: import the hub seeds newly retained
    /// this boundary into every shard of the range — the same
    /// `Boundary::import` call over the same seeds the coordinator's
    /// own close made, so worker and committed state stay
    /// byte-identical.
    pub fn import(&mut self, seeds: &[HubSeed]) {
        for state in &mut self.states {
            Boundary::import(seeds, state.id, &mut state.corpus);
        }
    }
}

// ---- coordinator half ----------------------------------------------------

/// What a boundary merge produced: whether the campaign is finished,
/// and the hub seeds newly retained this boundary (to ship back to
/// every worker for their import pass; empty on the final boundary,
/// which — like the single-process loop — skips the exchange).
#[derive(Debug, Clone)]
pub struct BoundaryOutcome {
    /// All shards exhausted their budgets at this boundary.
    pub finished: bool,
    /// Hub seeds retained by this boundary's publish pass, in
    /// publication order.
    pub seeds: Vec<HubSeed>,
}

/// Apply a patch that [`EpochPatch::fits`] to a committed shard in
/// place — the state [`EpochPatch::apply`] rebuilds from a copy — and
/// hand back its triage candidates and counts.
fn patch_in_place(
    shard: &mut ShardSnapshot,
    p: EpochPatch,
) -> (Vec<TriageEntry>, Vec<(CrashSignature, u64)>) {
    shard
        .corpus
        .apply_patch(p.corpus_rng, p.corpus_stats, p.cov_diff, &p.kept, p.added);
    shard.triage_seen.extend(p.seen);
    shard.gen_rng = p.gen_rng;
    shard.epoch = p.epoch;
    shard.rng_pick = p.rng_pick;
    shard.remaining = p.remaining;
    shard.fuel_exhausted = p.fuel_exhausted;
    (p.candidates, p.counts)
}

/// What a commit advances: the committed boundary state per shard
/// plus the one `Boundary` every route closes. A coordinator holds one
/// beside its config ([`CampaignMerge`]); a checkpoint's journal is
/// replayed into one built from its base ([`crate::checkpoint`]) — the
/// same `validate` and `commit`, so a restore closes every boundary it
/// replays with the code that closed it live.
pub(crate) struct MergeState {
    /// The suite the campaign runs over, when the holder knows it
    /// ([`CampaignMerge::for_suite`]): what arriving programs are held
    /// to.
    lowered: Option<Arc<LoweredDb>>,
    shards_total: u32,
    pub(crate) boundary: Boundary,
    /// Last committed boundary state per shard, in shard-id order
    /// (empty until the first boundary commits): the boundary closes
    /// over these corpora and a patch lands in them in place.
    pub(crate) committed: Vec<ShardSnapshot>,
    finished: bool,
}

impl MergeState {
    /// The state a decoded checkpoint holds: every shard committed at
    /// `boundary.epochs_done`.
    pub(crate) fn from_snapshot(committed: Vec<ShardSnapshot>, boundary: Boundary) -> MergeState {
        MergeState {
            // A journal's programs are replayed unchecked: the resume
            // it serves restores the shards, and that is a door.
            lowered: None,
            shards_total: u32::try_from(committed.len()).unwrap_or(u32::MAX),
            boundary,
            committed,
            finished: false,
        }
    }

    /// [`CampaignMerge::validate`].
    fn validate(&self, payload: &DeltaPayload) -> Result<(), CheckpointError> {
        let _span = stage::span(Stage::Validate);
        if let Some(lowered) = &self.lowered {
            payload.check_programs(lowered)?;
        }
        payload.check_counts(&self.boundary.triage)?;
        let DeltaPayload::Incremental(patches) = payload else {
            return Ok(());
        };
        for p in patches {
            let Some(base) = self.committed.get(p.shard_id as usize) else {
                return Err(CheckpointError::new(format!(
                    "patch for shard {}, which has no committed boundary to patch",
                    p.shard_id
                )));
            };
            p.fits(base.id, base.corpus.len())?;
        }
        Ok(())
    }

    /// [`CampaignMerge::commit`].
    pub(crate) fn commit(
        &mut self,
        ranges: Vec<DeltaPayload>,
    ) -> Result<BoundaryOutcome, CheckpointError> {
        let _span = stage::span(Stage::Commit);
        if self.finished {
            return Err(CheckpointError::new("merge already finished"));
        }
        let ids = ranges.iter().flat_map(DeltaPayload::shard_ids);
        if !ids.eq(0..self.shards_total) {
            return Err(CheckpointError::new(format!(
                "boundary delta set inconsistent: {} deltas for {} shards",
                ranges.iter().map(DeltaPayload::len).sum::<usize>(),
                self.shards_total
            )));
        }
        for payload in &ranges {
            self.validate(payload)?;
        }
        Ok(self.commit_checked(ranges))
    }

    /// [`CampaignMerge::commit`] past its checks: the caller vouches
    /// that the records cover `0..shards_total` in order and every
    /// patch fits, so nothing here can fail.
    fn commit_checked(&mut self, ranges: Vec<DeltaPayload>) -> BoundaryOutcome {
        for payload in ranges {
            match payload {
                DeltaPayload::Full(deltas) => {
                    for d in deltas {
                        self.boundary.admit_shard(d.candidates, d.counts);
                        match self.committed.get_mut(d.snapshot.id as usize) {
                            Some(slot) => *slot = d.snapshot,
                            None => self.committed.push(d.snapshot),
                        }
                    }
                }
                DeltaPayload::Incremental(patches) => {
                    for p in patches {
                        if let Some(shard) = self.committed.get_mut(p.shard_id as usize) {
                            let (candidates, counts) = patch_in_place(shard, p);
                            self.boundary.admit_shard(candidates, counts);
                        }
                    }
                }
            }
        }
        let retained = self.boundary.close(
            self.committed
                .iter_mut()
                .map(|s| (s.id, s.remaining, &mut s.corpus)),
        );
        self.finished = retained.is_none();
        BoundaryOutcome {
            finished: self.finished,
            seeds: retained.map_or_else(Vec::new, |r| self.boundary.hub.seeds()[r].to_vec()),
        }
    }
}

/// The coordinator half of a distributed campaign: its config and the
/// committed state its boundaries advance (the crate-private
/// `MergeState`). [`CampaignMerge::commit`] feeds the one `Boundary`
/// from the workers' payloads instead of live shards — the same code
/// [`crate::ShardedCampaign`] runs, not a replay of it — without ever
/// executing a program (no kernel, no lowered IR).
pub struct CampaignMerge {
    config: CampaignConfig,
    state: MergeState,
}

impl CampaignMerge {
    /// Fresh merge state for a campaign of `shards_total` shards.
    #[must_use]
    pub fn new(config: CampaignConfig, shards_total: u32) -> CampaignMerge {
        CampaignMerge {
            state: MergeState {
                lowered: None,
                shards_total: shards_total.max(1),
                boundary: Boundary::new(config.hub_top_k),
                committed: Vec::new(),
                finished: false,
            },
            config,
        }
    }

    /// [`CampaignMerge::new`] for a coordinator that knows the suite
    /// its campaign runs over: [`CampaignMerge::validate`] then also
    /// holds every program a payload carries to `lowered`, so a payload
    /// that passes can neither fail to commit nor, granted on or
    /// resumed from, panic the epoch that runs it. A merge built
    /// without one is spec-blind and leaves that check to whoever
    /// restores from its state ([`LeaseRunner::restore`]).
    #[must_use]
    pub fn for_suite(
        lowered: Arc<LoweredDb>,
        config: CampaignConfig,
        shards_total: u32,
    ) -> CampaignMerge {
        let mut merge = CampaignMerge::new(config, shards_total);
        merge.state.lowered = Some(lowered);
        merge
    }

    /// The campaign config this merge was built for.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Total shard count.
    #[must_use]
    pub fn shards_total(&self) -> u32 {
        self.state.shards_total
    }

    /// Fingerprint of the campaign's deterministic identity (what
    /// grants advertise and what a resume-style check would validate).
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        config_fingerprint(&self.config, self.state.shards_total)
    }

    /// Boundaries fully merged so far.
    #[must_use]
    pub fn epochs_done(&self) -> u64 {
        self.state.boundary.epochs_done
    }

    /// Whether the final boundary has been merged.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.state.finished
    }

    /// Executions the committed boundaries account for: the
    /// campaign's total exec budget minus what the committed shards
    /// still have remaining. Zero before the first boundary commits;
    /// equal to `config.execs` once finished. A pure function of
    /// `(config, shards, boundaries merged)` — identical at any
    /// worker count — which makes it the deterministic coin a
    /// per-tenant exec budget charges.
    #[must_use]
    pub fn execs_done(&self) -> u64 {
        if self.state.committed.is_empty() {
            return 0;
        }
        let remaining: u64 = self.state.committed.iter().map(|s| s.remaining).sum();
        self.config.execs.saturating_sub(remaining)
    }

    /// Committed boundary snapshots of the shards in `lo..hi`, built
    /// on demand — what a grant for a reassigned range carries. Empty
    /// before the first boundary commits (a fresh grant: the worker
    /// builds fresh states itself), and for a range the campaign has
    /// no shard in.
    #[must_use]
    pub fn snapshots(&self, lo: u32, hi: u32) -> Vec<ShardSnapshot> {
        let in_range = self
            .state
            .committed
            .iter()
            .filter(|s| (lo..hi).contains(&s.id));
        in_range.cloned().collect()
    }

    /// Check an arriving payload against the committed state, so it
    /// can be refused while its sender is still known: every patch
    /// must name a shard that has committed state to patch (none
    /// before the first boundary) and fit it — `kept` strictly
    /// ascending and in range, coverage runs inside the decoder's
    /// bound — and every observation count, full or incremental, must
    /// name a signature the committed report holds or a candidate of
    /// its own or an earlier record captures. A payload that passes
    /// cannot fail at [`CampaignMerge::commit`] for anything it
    /// carries, as long as no boundary commits in between. A merge that
    /// knows its suite ([`CampaignMerge::for_suite`]) also holds every
    /// program of the payload, full or incremental, to it.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] naming the first misfit (a
    /// protocol violation by the sender).
    pub fn validate(&self, payload: &DeltaPayload) -> Result<(), CheckpointError> {
        self.state.validate(payload)
    }

    /// Merge one full boundary from the payloads of its shard ranges,
    /// in range order: together exactly one record per shard, in
    /// ascending shard-id order, all at boundary `epochs_done + 1`.
    /// Everything is checked before anything is touched
    /// ([`CampaignMerge::validate`] again, and the shard cover); then
    /// each record's candidates and counts go through
    /// `Boundary::admit_shard` and its state is installed — a full
    /// record by move, a patch in place — and the boundary closes over
    /// the committed corpora. What comes out — post-import, the
    /// capture point of a single-process checkpoint — is the new
    /// committed state, so a reassigned range restored from here
    /// re-enters the loop with nothing replayed and nothing lost.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`], with the committed state
    /// untouched, when the merge is already finished, the records do
    /// not cover exactly the configured shards in order, or a patch
    /// does not fit (a protocol violation — the caller should drop
    /// the offending lease, not the campaign).
    pub fn commit(
        &mut self,
        ranges: Vec<DeltaPayload>,
    ) -> Result<BoundaryOutcome, CheckpointError> {
        self.state.commit(ranges)
    }

    /// [`CampaignMerge::commit`] of one payload holding a full record
    /// for every shard — the oracle route's merge, which
    /// [`reference_run`] and the tests drive.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the delta set does not cover
    /// exactly the configured shards in order.
    pub fn apply_boundary(
        &mut self,
        deltas: Vec<EpochDelta>,
    ) -> Result<BoundaryOutcome, CheckpointError> {
        self.commit(vec![DeltaPayload::Full(deltas)])
    }

    /// Fold the finished campaign into its result — the same merge,
    /// in the same shard-id order, as the single-process
    /// `ShardedCampaign`, so the result is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when called before the final
    /// boundary was merged.
    pub fn finish(self) -> Result<CampaignResult, CheckpointError> {
        if !self.state.finished {
            return Err(CheckpointError::new(format!(
                "campaign not finished: {} boundaries merged",
                self.state.boundary.epochs_done
            )));
        }
        let execs = self.config.execs;
        Ok(self.fold(execs))
    }

    /// Fold the campaign at its **current committed boundary** —
    /// graceful budget termination. The result is bit-identical to an
    /// unlimited run of the same config halted at the same boundary
    /// (same fold of the same committed state), with `execs` set
    /// to [`CampaignMerge::execs_done`]. Delegates to
    /// [`CampaignMerge::finish`] when the final boundary has already
    /// merged.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when no boundary has committed
    /// yet — there is no state to fold, and terminating a tenant
    /// before its first boundary would not be a boundary-aligned
    /// truncation.
    pub fn finish_early(self) -> Result<CampaignResult, CheckpointError> {
        if self.state.finished {
            return self.finish();
        }
        if self.state.committed.is_empty() {
            return Err(CheckpointError::new(
                "no boundary committed: nothing to fold early",
            ));
        }
        let execs = self.execs_done();
        Ok(self.fold(execs))
    }

    /// The shared result fold: merge the committed shards in
    /// shard-id order — the same fold, in the same order, as the
    /// single-process `ShardedCampaign`.
    fn fold(self, execs: u64) -> CampaignResult {
        let parts = self
            .state
            .committed
            .into_iter()
            .map(ShardSnapshot::into_result);
        CampaignResult::fold(parts, execs, self.state.boundary.triage)
    }
}

/// What [`reference_run`] produced: the single-process reference a
/// distributed (possibly budget-truncated) campaign is compared
/// against bit-for-bit.
#[derive(Debug)]
pub struct ReferenceRun {
    /// The merged result.
    pub result: CampaignResult,
    /// Boundaries merged before the run stopped.
    pub boundaries: u64,
    /// Whether an exec quota stopped the run before its natural final
    /// boundary.
    pub budget_exhausted: bool,
}

/// Drive a whole campaign through [`LeaseRunner`] + [`CampaignMerge`]
/// in one process, over the oracle route (a snapshot per shard per
/// boundary, every record full) — the reference that any fabric
/// execution of the same config must reproduce bit-identically at any
/// worker count.
///
/// `exec_quota` is a per-campaign exec budget (`None` = unlimited):
/// after each merged boundary, if the committed
/// [`CampaignMerge::execs_done`] has reached the quota the run stops
/// *at that boundary* and folds early — exactly the graceful
/// budget-exhaustion termination the multi-tenant fabric service
/// performs, so a starved tenant can be checked against this
/// reference too.
#[must_use]
pub fn reference_run(
    kernel: &VKernel,
    lowered: &Arc<LoweredDb>,
    config: &CampaignConfig,
    shards: u32,
    exec_quota: Option<u64>,
) -> ReferenceRun {
    let mut merge = CampaignMerge::new(config.clone(), shards);
    let shards = merge.shards_total();
    let mut runner = LeaseRunner::fresh(lowered, config, shards, 0, shards);
    loop {
        // The runner's own deltas over `0..shards`: nothing to check.
        let deltas = runner.run_epoch(kernel);
        let outcome = merge.state.commit_checked(vec![DeltaPayload::Full(deltas)]);
        let budget_exhausted =
            !outcome.finished && exec_quota.is_some_and(|quota| merge.execs_done() >= quota);
        if outcome.finished || budget_exhausted {
            let execs = merge.execs_done();
            return ReferenceRun {
                boundaries: merge.epochs_done(),
                result: merge.fold(execs),
                budget_exhausted,
            };
        }
        runner.import(&outcome.seeds);
    }
}

#[cfg(test)]
pub(crate) type Forge = Box<dyn Fn(&mut Program)>;

/// The three ways bytes can spell a program no generator over
/// `lowered` writes — [`Program::decode`] takes them all: a syscall
/// index past the table, an argument too many, a resource produced
/// by its own consumer. Each edits the first call that can carry it.
#[cfg(test)]
pub(crate) fn forgeries(lowered: &LoweredDb) -> [(&'static str, Forge); 3] {
    let past = u32::try_from(lowered.syscall_count()).expect("a small table");
    [
        ("syscall index", Box::new(move |p| p.calls[0].sys = past)),
        (
            "argument count",
            Box::new(|p| p.calls[0].args.push(kgpt_syzlang::Value::Int(0))),
        ),
        (
            "resource producer",
            Box::new(|p| {
                let args = p.calls.iter_mut().enumerate();
                let found = args.flat_map(|(i, c)| c.args.iter_mut().map(move |a| (i, a)));
                for (i, arg) in found {
                    if let kgpt_syzlang::Value::Res(r) = arg {
                        r.producer = Some(i);
                        return;
                    }
                }
                panic!("no resource argument to forge");
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::KernelCorpus;
    use kgpt_syzlang::{ConstDb, SpecCache, SpecFile, Value};

    fn dm_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        (
            VKernel::boot(vec![kgpt_csrc::flagship::dm()]),
            suite,
            kc.consts().clone(),
        )
    }

    fn cfg(execs: u64, seed: u64) -> CampaignConfig {
        CampaignConfig {
            execs,
            seed,
            hub_epoch: 250,
            hub_top_k: 4,
            ..CampaignConfig::default()
        }
    }

    /// A full delta frame's body: the counted list of deltas.
    fn full_frame_body(deltas: &[EpochDelta]) -> Vec<u8> {
        let mut out = Vec::new();
        Writer::new(&mut out).seq(deltas, EpochDelta::encode);
        out
    }

    /// Drive a whole campaign through LeaseRunner + CampaignMerge in
    /// one process, `ranges` leases wide.
    fn fabric_inline(
        kernel: &VKernel,
        suite: &[SpecFile],
        consts: &ConstDb,
        config: &CampaignConfig,
        shards: u32,
        ranges: &[(u32, u32)],
    ) -> CampaignResult {
        let db = SpecCache::global().get_or_build(suite);
        let lowered = SpecCache::global().get_or_lower(&db, consts);
        let mut merge = CampaignMerge::new(config.clone(), shards);
        let mut runners: Vec<LeaseRunner> = ranges
            .iter()
            .map(|&(lo, hi)| LeaseRunner::fresh(&lowered, config, shards, lo, hi))
            .collect();
        loop {
            let mut deltas = Vec::new();
            for r in &mut runners {
                deltas.extend(r.run_epoch(kernel));
            }
            let outcome = merge.apply_boundary(deltas).expect("boundary");
            if outcome.finished {
                break;
            }
            for r in &mut runners {
                r.import(&outcome.seeds);
            }
        }
        merge.finish().expect("finished")
    }

    #[test]
    fn inline_fabric_matches_sharded_campaign_at_any_range_split() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(2000, 11);
        let reference = crate::ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
            .with_shards(4)
            .run();
        for ranges in [
            vec![(0u32, 4u32)],
            vec![(0, 2), (2, 4)],
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        ] {
            let r = fabric_inline(&kernel, &suite, &consts, &config, 4, &ranges);
            assert_eq!(reference, r, "{ranges:?}");
        }
    }

    #[test]
    fn restored_lease_rerun_is_bit_identical() {
        // Run 2 ranges; at every boundary, throw away range 1's live
        // runner and restore it from the committed snapshots — the
        // "worker died, replacement re-runs from the last committed
        // boundary" path — and the result must not change.
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(2000, 7);
        let reference = fabric_inline(&kernel, &suite, &consts, &config, 4, &[(0, 2), (2, 4)]);

        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut merge = CampaignMerge::new(config.clone(), 4);
        let mut left = LeaseRunner::fresh(&lowered, &config, 4, 0, 2);
        loop {
            // Range 1 is rebuilt every boundary: fresh at boundary 0,
            // restored from committed state afterwards — replaying the
            // epoch its predecessor "lost".
            let mut right = if merge.epochs_done() == 0 {
                LeaseRunner::fresh(&lowered, &config, 4, 2, 4)
            } else {
                LeaseRunner::restore(&lowered, &config, merge.snapshots(2, 4)).expect("fits")
            };
            let mut deltas = left.run_epoch(&kernel);
            deltas.extend(right.run_epoch(&kernel));
            let outcome = merge.apply_boundary(deltas).expect("boundary");
            if outcome.finished {
                break;
            }
            left.import(&outcome.seeds);
            // `right` is dropped here *before* importing: its
            // replacement restores the committed post-import state.
        }
        let r = merge.finish().expect("finished");
        assert_eq!(reference, r, "restored lease vs undisturbed");
    }

    #[test]
    fn delta_and_grant_codecs_round_trip() {
        let (kernel, suite, consts) = dm_setup();
        let config = CampaignConfig {
            enabled: Some(vec!["ioctl$dm".into(), "openat$dm".into()]),
            ..cfg(600, 3)
        };
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);
        let deltas = runner.run_epoch(&kernel);
        assert_eq!(deltas.len(), 2);

        let out = full_frame_body(&deltas);
        let mut r = Reader::new(&out);
        assert_eq!(r.seq(EpochDelta::decode).expect("deltas decode"), deltas);
        r.finish().expect("deltas consumed");

        let mut out = Vec::new();
        encode_config(&config, &mut Writer::new(&mut out));
        let mut r = Reader::new(&out);
        let back = decode_config(&mut r).expect("config decode");
        r.finish().expect("config consumed");
        assert_eq!(
            config_fingerprint(&config, 2),
            config_fingerprint(&back, 2),
            "config round-trip must preserve the fingerprint"
        );

        let snaps: Vec<ShardSnapshot> = deltas.iter().map(|d| d.snapshot.clone()).collect();
        let mut out = Vec::new();
        encode_snapshots(&snaps, &mut Writer::new(&mut out));
        assert_eq!(
            decode_snapshots(&mut Reader::new(&out)).expect("snaps"),
            snaps
        );

        let seeds = vec![HubSeed {
            shard: 1,
            program: Program::default(),
            contributed: [7u64, 9].iter().copied().collect(),
        }];
        let mut out = Vec::new();
        encode_seeds(&seeds, &mut Writer::new(&mut out));
        assert_eq!(decode_seeds(&mut Reader::new(&out)).expect("seeds"), seeds);
    }

    /// A corpus map that imported a seed carries the publisher's
    /// length: `diff_in` sizes a contribution like the exec it came
    /// from, and `merge` grows to it even when the high words add
    /// nothing. The sparse-or-dense choice is made on that length, so
    /// these bytes pin that the map's index of its non-zero words does
    /// not move it (the 13 runs were first recorded before the index).
    #[test]
    fn a_map_that_merged_a_zero_padded_contribution_keeps_its_patch_bytes() {
        let (base, mut deltas) = sample_boundary();
        let mut cov = deltas[0].snapshot.corpus.coverage().clone();
        cov.extend((5..=25).step_by(2).map(|w| w * 64 + 3));
        // The publisher's exec reached word 40; its hub already had
        // that block, so the contribution is a low word and padding.
        let hub: CoverageMap = [40 * 64].into_iter().collect();
        let exec: CoverageMap = [2, 40 * 64].into_iter().collect();
        let contributed = hub.diff_in(&exec);
        assert_eq!(contributed.words().len(), 41);
        cov.merge(&contributed);
        let (rng, _, entries, stats) = deltas[0].snapshot.corpus.clone().into_parts();
        deltas[0].snapshot.corpus = Corpus::from_parts(CORPUS_CAP, rng, cov, entries, stats);
        let patches = diff_boundary(&base, deltas).expect("diffable fixture");
        // 13 one-word runs: dearer than the 26 words that hold a
        // block, cheaper than the 41 the map spans.
        assert!(
            matches!(&patches[0].cov_diff, CoverageWordDiff::Sparse(runs) if runs.len() == 13),
            "{:?}",
            patches[0].cov_diff
        );
        let mut incr = Vec::new();
        encode_patches(&patches, &mut incr);
        assert_eq!(
            (incr.len(), kgpt_syzlang::codec::fnv1a(&incr)),
            (696, 0x81f5_7364_3043_38a3)
        );
    }

    #[test]
    fn sample_boundary_patches_round_trip_and_shrink() {
        let (base, deltas) = sample_boundary();
        let patches = diff_boundary(&base, deltas.clone()).expect("diffable fixture");
        // The fixture is wired to exercise every increment kind.
        assert_eq!(patches[0].kept.len(), 2, "two shard-0 survivors");
        assert_eq!(patches[0].added.len(), 1, "one shard-0 admission");
        assert_eq!(patches[0].kept[0].index, 0);
        assert_eq!(patches[0].kept[1].index, 2, "middle entry evicted");
        assert_eq!(patches[1].kept.len(), 1);
        assert_eq!(patches[1].added.len(), 1);
        assert!(!patches[0].cov_diff.is_empty());
        assert_eq!(patches[0].seen.len(), 1, "one fresh signature");

        let mut incr = Vec::new();
        encode_patches(&patches, &mut incr);
        let mut pos = 0usize;
        let back = decode_patches(&incr, &mut pos).expect("patches decode");
        assert_eq!(pos, incr.len());
        assert_eq!(patches, back);
        assert_eq!(apply_patches(&base, back).expect("apply"), deltas);

        let full = full_frame_body(&deltas);
        assert!(
            incr.len() < full.len(),
            "incremental ({}) must be smaller than full ({})",
            incr.len(),
            full.len()
        );
    }

    #[test]
    fn real_epoch_patches_reconstruct_deltas_exactly() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(1500, 5);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut merge = CampaignMerge::new(config.clone(), 2);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);

        // Boundary 1 has no agreed baseline yet — it ships full.
        let deltas = runner.run_epoch(&kernel);
        let outcome = merge.apply_boundary(deltas).expect("boundary 1");
        assert!(!outcome.finished);
        runner.import(&outcome.seeds);

        // Baseline agreement: the worker's post-import snapshots are
        // byte-identical to what the coordinator committed.
        let baseline = runner.snapshots();
        assert_eq!(baseline, merge.snapshots(0, 2));

        // Boundary 2 diffs against that baseline; the patches must
        // reconstruct the deltas exactly and cost fewer bytes.
        let deltas = runner.run_epoch(&kernel);
        let patches =
            diff_boundary(&baseline, deltas.clone()).expect("committed baseline is diffable");
        let mut incr = Vec::new();
        encode_patches(&patches, &mut incr);
        let mut pos = 0usize;
        let back = decode_patches(&incr, &mut pos).expect("decode");
        assert_eq!(apply_patches(&baseline, back).expect("apply"), deltas);

        let full = full_frame_body(&deltas);
        assert!(
            incr.len() < full.len(),
            "incremental ({}) must be smaller than full ({})",
            incr.len(),
            full.len()
        );
    }

    #[test]
    fn patch_apply_rejects_bad_fits() {
        let (base, deltas) = sample_boundary();
        let patches = diff_boundary(&base, deltas).expect("diffable fixture");

        // Wrong baseline order ⇒ shard-id mismatch.
        let swapped: Vec<ShardSnapshot> = vec![base[1].clone(), base[0].clone()];
        assert!(apply_patches(&swapped, patches.clone()).is_err());

        // Kept index past the end of the baseline entry list.
        let mut bad = patches.clone();
        bad[0].kept[0].index = 999;
        assert!(apply_patches(&base, bad).is_err());

        // Kept indices out of order (decode accepts them — the fit
        // check is the applier's job).
        let mut bad = patches.clone();
        bad[0].kept.swap(0, 1);
        assert!(apply_patches(&base, bad).is_err());

        // Count mismatch.
        assert!(apply_patches(&base[..1], patches).is_err());

        // A fresh grant has no baseline: diffing against an empty
        // baseline must hand the deltas back for a full frame.
        let (_, deltas) = sample_boundary();
        assert!(diff_boundary(&[], deltas).is_err());
    }

    /// The committed state as a grant would carry it.
    fn committed_bytes(merge: &CampaignMerge, shards: u32) -> Vec<u8> {
        let mut out = Vec::new();
        encode_snapshots(&merge.snapshots(0, shards), &mut Writer::new(&mut out));
        out
    }

    /// The payload `runner` writes for the boundary it just reached.
    fn live_payload(runner: &mut LeaseRunner, kernel: &VKernel) -> (Vec<u8>, DeltaPayload) {
        let mut bytes = Vec::new();
        runner.write_boundary(kernel, &mut Writer::new(&mut bytes));
        let mut r = Reader::new(&bytes);
        let payload = DeltaPayload::decode(&mut r).expect("the runner's own payload");
        r.finish().expect("payload consumed");
        (bytes, payload)
    }

    #[test]
    fn the_live_route_writes_the_oracles_bytes_and_commits_the_oracles_state() {
        // Two runners in step — one on each route — and two merges.
        // The live runner marks and writes from live state, its merge
        // validates and patches in place; the oracle pair snapshots,
        // diffs, rebuilds and installs. Same bytes out, same state in.
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(2500, 5);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let reference = crate::ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
            .with_shards(3)
            .run();
        let mut live = LeaseRunner::fresh(&lowered, &config, 3, 0, 3);
        let mut oracle = LeaseRunner::fresh(&lowered, &config, 3, 0, 3);
        // The live merge knows its suite: every program a real payload
        // carries passes its door.
        let mut merge = CampaignMerge::for_suite(Arc::clone(&lowered), config.clone(), 3);
        let mut twin = CampaignMerge::new(config.clone(), 3);
        let mut baseline: Option<Vec<ShardSnapshot>> = None;
        let mut increments = 0;
        loop {
            live.advance(&kernel);
            let (bytes, payload) = live_payload(&mut live, &kernel);
            let deltas = oracle.run_epoch(&kernel);
            let want = match &baseline {
                Some(base) => {
                    increments += 1;
                    DeltaPayload::Incremental(
                        diff_boundary(base, deltas.clone()).expect("diffable"),
                    )
                }
                None => DeltaPayload::Full(deltas.clone()),
            };
            let mut want_bytes = Vec::new();
            want.encode(&mut Writer::new(&mut want_bytes));
            assert_eq!(bytes, want_bytes, "boundary {}", merge.epochs_done() + 1);
            assert_eq!(payload, want);

            merge
                .validate(&payload)
                .expect("the worker's own payload fits");
            let outcome = merge.commit(vec![payload]).expect("commit");
            let rebuilt = match (want, &baseline) {
                (DeltaPayload::Incremental(patches), Some(base)) => {
                    apply_patches(base, patches).expect("apply")
                }
                _ => deltas,
            };
            let twin_outcome = twin.apply_boundary(rebuilt).expect("oracle merge");
            assert_eq!(merge.snapshots(0, 3), twin.snapshots(0, 3));
            assert_eq!(committed_bytes(&merge, 3), committed_bytes(&twin, 3));
            assert_eq!(outcome.seeds, twin_outcome.seeds);
            if outcome.finished {
                break;
            }
            live.acked(&outcome.seeds);
            oracle.import(&outcome.seeds);
            let snaps = oracle.snapshots();
            assert_eq!(snaps, merge.snapshots(0, 3), "baseline agreement");
            baseline = Some(snaps);
        }
        assert!(increments >= 2, "the campaign is too short to increment");
        assert_eq!(merge.finish().expect("finished"), reference);
    }

    #[test]
    fn a_misfit_patch_is_refused_and_leaves_the_committed_bytes_alone() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(1500, 5);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut merge = CampaignMerge::new(config.clone(), 2);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);

        // Boundary 1 ships full; the increments of boundary 2 are the
        // material. Before anything committed there is nothing to
        // patch, whatever the patch says.
        runner.advance(&kernel);
        let (_, first) = live_payload(&mut runner, &kernel);
        let outcome = merge.commit(vec![first]).expect("boundary 1");
        runner.acked(&outcome.seeds);
        runner.advance(&kernel);
        let (_, second) = live_payload(&mut runner, &kernel);
        let DeltaPayload::Incremental(patches) = &second else {
            panic!("a marked runner ships increments");
        };
        assert!(patches[0].kept.len() >= 2, "needs two survivors to swap");
        let fresh = CampaignMerge::new(config.clone(), 2);
        assert!(fresh.validate(&second).is_err(), "nothing committed yet");
        let mut fresh = fresh;
        assert!(fresh.commit(vec![second.clone()]).is_err());
        assert!(fresh.snapshots(0, 2).is_empty());

        let before = committed_bytes(&merge, 2);
        let entries = merge.snapshots(0, 1)[0].corpus.len() as u32;
        let tamper = |edit: &dyn Fn(&mut Vec<EpochPatch>)| {
            let mut bad = patches.clone();
            edit(&mut bad);
            DeltaPayload::Incremental(bad)
        };
        let misfits = [
            (
                "kept index out of range",
                tamper(&|p| p[0].kept[0].index = entries),
            ),
            ("kept indices descending", tamper(&|p| p[0].kept.swap(0, 1))),
            (
                "kept index repeated",
                tamper(&|p| p[0].kept[1].index = p[0].kept[0].index),
            ),
            (
                "a shard outside the campaign",
                tamper(&|p| p[1].shard_id = 5),
            ),
            (
                "a coverage run past the bound",
                tamper(&|p| {
                    p[1].cov_diff =
                        CoverageWordDiff::Sparse(vec![(MAX_COVERAGE_WORDS as u32, vec![1])]);
                }),
            ),
        ];
        for (what, payload) in misfits {
            assert!(merge.validate(&payload).is_err(), "{what}: validate");
            assert!(merge.commit(vec![payload]).is_err(), "{what}: commit");
            assert_eq!(committed_bytes(&merge, 2), before, "{what}");
            assert_eq!(merge.epochs_done(), 1, "{what}");
        }
        // These fit the shards they name — it is the cover that is
        // wrong, which only the barrier can see: one shard short, out
        // of order, one shard twice.
        let covers = [
            tamper(&|p| p.truncate(1)),
            tamper(&|p| p.swap(0, 1)),
            tamper(&|p| p.push(p[1].clone())),
        ];
        for payload in covers {
            assert!(merge.commit(vec![payload]).is_err());
            assert_eq!(committed_bytes(&merge, 2), before);
        }
        // The untampered payload still commits, split over two ranges
        // or not.
        let halves = vec![tamper(&|p| p.truncate(1)), tamper(&|p| drop(p.remove(0)))];
        merge.commit(halves).expect("the clean patches fit");
        assert_eq!(merge.epochs_done(), 2);
        assert_ne!(committed_bytes(&merge, 2), before);
    }

    /// A count for a signature that neither the committed report nor a
    /// capture of the payload holds must not reach `add_count`, which
    /// would panic a debug-built coordinator on its `debug_assert` or
    /// drop a crash from the result. Full or incremental, it is refused
    /// at the door and the committed state is left alone; a capture in
    /// an earlier record of the same payload holds a later record's
    /// count, one in a later record does not.
    #[test]
    fn a_count_for_a_signature_nobody_captured_is_refused() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(1500, 5);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut merge = CampaignMerge::new(config.clone(), 2);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);
        let forged = CrashSignature {
            sysno: kgpt_vkernel::Sysno::Ioctl,
            chain_depth: 9,
            sanitizer: kgpt_vkernel::SanitizerKind::UseAfterFree,
            site: u64::MAX,
        };
        let refused = |merge: &mut CampaignMerge, payload: DeltaPayload, what: &str| {
            let (before, done) = (committed_bytes(merge, 2), merge.epochs_done());
            let err = merge.validate(&payload).expect_err(what);
            assert!(
                err.message.contains("no report entry or capture"),
                "{what}: {err}"
            );
            assert!(merge.commit(vec![payload]).is_err(), "{what}: commit");
            assert_eq!(committed_bytes(merge, 2), before, "{what}");
            assert_eq!(merge.epochs_done(), done, "{what}");
        };

        runner.advance(&kernel);
        let (_, first) = live_payload(&mut runner, &kernel);
        let DeltaPayload::Full(deltas) = &first else {
            panic!("an unmarked runner ships full records");
        };
        let full = |edit: &dyn Fn(&mut Vec<EpochDelta>)| {
            let mut bad = deltas.clone();
            edit(&mut bad);
            DeltaPayload::Full(bad)
        };
        refused(&mut merge, full(&|d| d[1].counts.push((forged, 1))), "full");
        // Both shards count a signature only `shard` captures: shard 0's
        // capture holds shard 1's count (an in-process drain drops the
        // capture of a signature an earlier shard admitted), shard 1's
        // does not hold shard 0's.
        let capture = deltas[0].candidates.first().expect("a boundary-1 capture");
        let held = (capture.signature, 1);
        let only = |shard: usize| {
            full(&|d| {
                for (i, delta) in d.iter_mut().enumerate() {
                    delta.candidates.retain(|c| c.signature != held.0);
                    if i == shard {
                        delta.candidates.push(capture.clone());
                    }
                    if delta.counts.iter().all(|(sig, _)| *sig != held.0) {
                        delta.counts.push(held);
                    }
                }
            })
        };
        refused(&mut merge, only(1), "captured by a later record");
        merge
            .validate(&only(0))
            .expect("captured by an earlier record");

        let outcome = merge.commit(vec![first.clone()]).expect("boundary 1");
        runner.acked(&outcome.seeds);
        runner.advance(&kernel);
        let (_, second) = live_payload(&mut runner, &kernel);
        let DeltaPayload::Incremental(patches) = &second else {
            panic!("a marked runner ships increments");
        };
        let mut bad = patches.clone();
        bad[0].counts.push((forged, 1));
        refused(&mut merge, DeltaPayload::Incremental(bad), "incremental");
        // A signature the committed report holds may be counted by any
        // record, capture or not.
        let mut good = patches.clone();
        good[1].counts.push(held);
        merge
            .validate(&DeltaPayload::Incremental(good))
            .expect("held by the report");
        merge
            .commit(vec![second])
            .expect("the clean increment fits");
    }

    /// Whether some call of `p` takes a resource argument.
    fn consumes(p: &Program) -> bool {
        p.calls.iter().any(|c| c.args.iter().any(Value::has_res))
    }

    /// `snap` with `forge` applied to the first corpus program that
    /// consumes a resource.
    fn forged_snapshot(mut snap: ShardSnapshot, forge: &dyn Fn(&mut Program)) -> ShardSnapshot {
        let (rng, coverage, mut entries, stats) = snap.corpus.into_parts();
        let consumer = entries
            .iter_mut()
            .find(|e| consumes(&e.program))
            .expect("a corpus program that consumes a resource");
        forge(&mut consumer.program);
        snap.corpus = Corpus::from_parts(CORPUS_CAP, rng, coverage, entries, stats);
        snap
    }

    #[test]
    fn a_hostile_program_is_a_typed_error_at_the_grant_and_at_a_coordinator_that_knows_its_suite() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(1500, 5);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);
        let mut merge = CampaignMerge::for_suite(Arc::clone(&lowered), config.clone(), 2);
        runner.advance(&kernel);
        let (_, first) = live_payload(&mut runner, &kernel);
        let DeltaPayload::Full(deltas) = &first else {
            panic!("an unmarked runner ships full records");
        };

        for (what, forge) in forgeries(&lowered) {
            // A full record, to a coordinator that knows the suite and
            // to one that does not.
            let mut bad = deltas.clone();
            bad[1].snapshot = forged_snapshot(bad[1].snapshot.clone(), &*forge);
            let bad = DeltaPayload::Full(bad);
            let err = merge.validate(&bad).expect_err(what);
            assert!(err.message.contains("misfit program"), "{what}: {err}");
            assert!(merge.commit(vec![bad.clone()]).is_err(), "{what}: commit");
            assert_eq!(merge.epochs_done(), 0, "{what}");
            let mut blind = CampaignMerge::new(config.clone(), 2);
            blind
                .validate(&bad)
                .expect("a spec-blind merge cannot tell");
            blind.commit(vec![bad]).expect("and commits it");
            // Whoever is granted that state meets it at the door.
            let granted = LeaseRunner::restore(&lowered, &config, blind.snapshots(0, 2));
            let err = granted.err().expect(what);
            assert!(err.message.contains("shard 1"), "{what}: {err}");
        }

        // The same three in an increment: an added entry, a capture.
        let outcome = merge.commit(vec![first.clone()]).expect("boundary 1");
        runner.acked(&outcome.seeds);
        let patches = loop {
            runner.advance(&kernel);
            let (_, payload) = live_payload(&mut runner, &kernel);
            let DeltaPayload::Incremental(patches) = &payload else {
                panic!("a marked runner ships increments");
            };
            let usable = patches[0].added.iter().any(|e| consumes(&e.program))
                && patches.iter().any(|p| !p.candidates.is_empty());
            if usable {
                break patches.clone();
            }
            let outcome = merge.commit(vec![payload]).expect("a clean boundary");
            assert!(!outcome.finished, "no boundary both admits and captures");
            runner.acked(&outcome.seeds);
        };
        let done = merge.epochs_done();
        for (what, forge) in forgeries(&lowered) {
            let mut added = patches.clone();
            let entry = added[0].added.iter_mut().find(|e| consumes(&e.program));
            forge(&mut entry.expect("checked above").program);
            let mut captured = patches.clone();
            let capture = captured.iter_mut().find_map(|p| p.candidates.first_mut());
            forge(&mut capture.expect("checked above").minimized);
            for bad in [added, captured] {
                let bad = DeltaPayload::Incremental(bad);
                assert!(merge.validate(&bad).is_err(), "{what}: validate");
                assert!(merge.commit(vec![bad]).is_err(), "{what}: commit");
                assert_eq!(merge.epochs_done(), done, "{what}");
            }
        }
        merge
            .commit(vec![DeltaPayload::Incremental(patches)])
            .expect("the clean increment fits");
    }

    #[test]
    fn committed_snapshots_are_total_over_any_range() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(600, 2);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut merge = CampaignMerge::new(config.clone(), 3);
        assert!(merge.snapshots(0, 3).is_empty(), "nothing committed yet");
        let mut runner = LeaseRunner::fresh(&lowered, &config, 3, 0, 3);
        let deltas = runner.run_epoch(&kernel);
        merge.apply_boundary(deltas.clone()).expect("boundary 1");
        let ids = |lo, hi| -> Vec<u32> { merge.snapshots(lo, hi).iter().map(|s| s.id).collect() };
        assert_eq!(ids(0, 3), [0, 1, 2]);
        assert_eq!(ids(1, 2), [1]);
        assert_eq!(ids(2, 9), [2], "a range past the shard count is clamped");
        assert_eq!(ids(7, 9), Vec::<u32>::new());
        assert_eq!(ids(2, 1), Vec::<u32>::new());
        // A zero-shard reference is the one-shard campaign, as it is
        // for `ShardedCampaign`; it used to panic.
        let one = reference_run(&kernel, &lowered, &config, 1, None);
        let none = reference_run(&kernel, &lowered, &config, 0, None);
        assert_eq!(one.result, none.result);
    }

    #[test]
    fn merge_rejects_malformed_boundaries() {
        let (kernel, suite, consts) = dm_setup();
        let config = cfg(500, 1);
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, &consts);
        let mut runner = LeaseRunner::fresh(&lowered, &config, 2, 0, 2);
        let deltas = runner.run_epoch(&kernel);

        // Too few deltas.
        let mut merge = CampaignMerge::new(config.clone(), 2);
        assert!(merge.apply_boundary(deltas[..1].to_vec()).is_err());
        // Wrong order.
        let mut swapped = deltas.clone();
        swapped.swap(0, 1);
        assert!(merge.apply_boundary(swapped).is_err());
        // Finish before the final boundary.
        assert!(CampaignMerge::new(config, 2).finish().is_err());
    }
}
