//! Crash-safe campaign checkpointing: a base and a journal.
//!
//! A [`CampaignSnapshot`] is the complete serializable identity of a
//! paused [`crate::ShardedCampaign`] at an epoch boundary: config and
//! spec fingerprints, every shard's RNG streams / corpus / triage
//! seen-set in shard-id order, the cross-shard
//! [`crate::hub::SeedHub`], the campaign [`TriageReport`] (the one
//! record of the campaign's crashes: the title tally is folded from it
//! with the result, never persisted), and what
//! the next epoch keeps of the flight recorder's per-shard
//! [`TraceStore`]s. Restoring it and continuing is **bit-identical**
//! to never having stopped — result and returned trace stores alike
//! (pinned by `tests/durability.rs`).
//!
//! ## Two files
//!
//! A checkpointing campaign makes every boundary durable, and writes
//! what the epoch changed:
//!
//! * `<path>` is a **base** — a whole snapshot in the version-5
//!   encoding below, installed atomically over one generation of
//!   history (`<path>.prev`);
//! * `<path>.journal` holds one **record** per boundary since: a
//!   counted envelope (`KGPTJRNL`, its own version, `codec::checksum`)
//!   of `base id | boundary | payload | trace increments`. The payload
//!   is a fabric worker's incremental frame body —
//!   [`crate::fabric::LeaseRunner::write_boundary`]'s bytes, one
//!   `EpochPatch` per shard written from live state against the mark
//!   of the last durable boundary, fed the very `(candidates, counts)`
//!   the in-process boundary admits — and a trace increment is what
//!   `TraceStore::advance` takes (the kept ring traces recorded and
//!   the traces pinned since, each sealed for it once). Records on the
//!   benchmark's campaign average 5.6 KB beside a 124 KB base; the
//!   shards are then marked exactly as an acked fabric boundary marks
//!   them. One patch codec, two sinks.
//!
//! **What binds a record to its base** is the base's envelope
//! checksum (the id) and the boundary number: [`CampaignSnapshot::load`]
//! reads the base, moves it into the fabric coordinator's committed
//! state and, for each record in turn, checks `id` and `boundary ==
//! epochs_done + 1` and runs the coordinator's own `validate` and
//! `commit` — hub publish, import and triage admission replay through
//! the crate's one `Boundary`. A record that is short, fails its
//! checksum, names another base (an earlier generation's, another
//! campaign's at the same path) or another boundary, or does not fit
//! is **the end of the log**: nothing of it is applied, and what it
//! and its successors held is re-executed on resume. It costs epochs,
//! never determinism and never the campaign.
//!
//! **The rewrite rule.** A boundary is written as a base when there is
//! none to append to (a fresh or resumed run's first; after a write
//! that failed) or the journal has outgrown a quarter of it, as a
//! record otherwise — derived from the two files' sizes, not a cadence
//! or an option. So a restore decodes at most 1.25 bases' worth of
//! bytes (a record replays at about a base decode's cost per byte),
//! and a campaign writes a fifth of what a snapshot at every boundary
//! did.
//!
//! ## Kill windows
//!
//! A base of generation *N+1* over `<path>` = *N*, `<path>.prev` =
//! *N−1* is five steps, and a process killed between any two of them
//! leaves a loadable campaign that has lost no durable boundary:
//!
//! 1. the payload is written to `<path>.tmp`, complete, before
//!    anything else is touched — killed here: *N* and its records;
//! 2. if `<path>` exists, `<path>.prev` is removed — *N* and its
//!    records (the generation a save retires is *N−1* either way; it
//!    goes one step earlier so that no rename below replaces a file);
//! 3. `<path>` renames to `<path>.prev` — no `<path>`: `load` falls
//!    back to `.prev` = *N*, and the journal's records are *N*'s;
//! 4. `<path>.tmp` renames to `<path>` — *N+1*; the journal still
//!    holds *N*'s records, which name another base and are skipped;
//! 5. the journal is truncated.
//!
//! A record is one positioned write after the last intact one: killed
//! inside it, the tail is short or fails its checksum and the log ends
//! at the record before. When only `<path>.prev` exists (a resume
//! after a kill between 3 and 4), step 2 is skipped with step 3 and
//! the fallback generation stays until the install. Neither rename
//! lands on an existing file: replacing one makes ext4
//! (`auto_da_alloc`) allocate and flush the moved file's still-dirty
//! pages on the spot. No step syncs, as none did before the journal:
//! the contract is against process death (the page cache survives
//! it), and a base that is missing, truncated or corrupt at rest falls
//! back to `.prev` — taking the records written against it along, so
//! it costs the epochs since `.prev` was written.
//!
//! ## The base encoding
//!
//! Composed from the workspace codec — layout rules and the envelope
//! are documented in [`kgpt_syzlang::codec`]. Four things are
//! particular to this format (version 5):
//!
//! * **One encoder, over borrowed state.** `SnapshotView` is the
//!   snapshot's fields as references; it is what gets encoded. The
//!   base writer builds one over its live shards, so it never
//!   deep-copies the campaign; [`CampaignSnapshot::to_bytes`] encodes
//!   a view of itself — which makes it the journal's oracle: loading
//!   base + journal re-encodes to the view of the live state at the
//!   last durable boundary, byte for byte.
//! * **Coverage is written sparse.** Every [`CoverageMap`] on the
//!   wire — corpus-entry keys, shard and hub unions, hub seeds — goes
//!   through `encode_coverage`: the [`CoverageWordDiff`] layout of
//!   the map against the empty map, i.e. runs of nonzero words.
//!   Trailing zero words are never written and the sparse/dense choice
//!   is made on the trimmed length, which makes the encoding
//!   canonical: equal maps encode to equal bytes.
//! * **Trace stores are elements, not blobs.** Each store is written
//!   by [`TraceStore::encode`] straight into the payload, under the
//!   checkpoint's one checksum.
//! * **A trace store holds only what the next epoch cannot push
//!   out.** A shard starts an epoch of `n` execs by trimming its ring
//!   to the newest `cap − n` traces (see [`crate::flight`]), so the
//!   store of a boundary is the shard's `cap`, `execs_seen`, every
//!   pinned crash trace, and the newest `cap − n_next` ring traces,
//!   `n_next = min(hub_epoch, remaining)` — no ring trace at all when
//!   an epoch is at least as long as the ring (the default 32 under
//!   any `hub_epoch` ≥ 32). What is persisted follows from
//!   `(trace_ring, hub_epoch, remaining)`; there is no option.
//!
//! The fabric's delta and patch frames reuse the element codecs below
//! (see [`crate::fabric`]), so they share the sparse coverage rule.

use crate::boundary::Boundary;
use crate::campaign::{CampaignConfig, ShardSnapshot, ShardView, CORPUS_CAP};
use crate::corpus::{Corpus, CorpusEntry, CorpusStats};
use crate::fabric::{decode_seeds, encode_config, encode_seeds, DeltaPayload, MergeState};
use crate::hub::SeedHub;
use kgpt_syzlang::codec::{frame_into, frame_onto, unframe, DecodeError, Reader, Writer};
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::stage::{self, Stage};
use kgpt_trace::{decode_signature, encode_signature, ExecTrace, TraceStore};
use kgpt_triage::{TriageEntry, TriageReport};
use kgpt_vkernel::{CoverageMap, CoverageWordDiff, MAX_COVERAGE_WORDS};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub use kgpt_syzlang::codec::fnv1a;

/// File magic: identifies a campaign checkpoint (a base).
const MAGIC: &[u8; 8] = b"KGPTCKPT";

/// Current snapshot format version. Bumped on any layout change; a
/// reader never guesses at an unknown version. (Version 4: a trace
/// store holds what the next epoch keeps, not the whole ring — the
/// bytes of a v3 store would parse and mean something else — and the
/// envelope carries `codec::checksum`. Version 5: a shard carries no
/// crash tally.)
const VERSION: u32 = 5;

/// Magic and version of a journal record's envelope (version 2: its
/// patches carry no crash-tally records).
const JOURNAL_MAGIC: &[u8; 8] = b"KGPTJRNL";
const JOURNAL_VERSION: u32 = 2;

/// Magic, version and checksum: what an envelope's payload follows.
pub(crate) const HEADER: usize = 20;

/// Error reading, writing, or validating a campaign snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// What went wrong (always names the failing stage).
    pub message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> CheckpointError {
        CheckpointError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> CheckpointError {
        CheckpointError::new(format!("decode failed: {e}"))
    }
}

/// Stable fingerprint of a campaign's deterministic identity: every
/// [`CampaignConfig`] field plus the shard count. Two campaigns with
/// equal fingerprints produce bit-identical results, so resume
/// refuses a snapshot whose fingerprint differs.
#[must_use]
pub fn config_fingerprint(config: &CampaignConfig, shards: u32) -> u64 {
    let mut bytes = Vec::new();
    let mut w = Writer::new(&mut bytes);
    encode_config(config, &mut w);
    w.u32(shards);
    fnv1a(&bytes)
}

/// The complete persisted state of a paused campaign. See the module
/// docs for the durability contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSnapshot {
    /// [`config_fingerprint`] of the writing campaign.
    pub(crate) config_fingerprint: u64,
    /// Spec-suite fingerprint ([`kgpt_syzlang::SpecCache::fingerprint`]).
    pub(crate) spec_fingerprint: u64,
    /// Driver epochs completed when the snapshot was taken.
    pub(crate) epochs_done: u64,
    /// Per-shard state, in shard-id order.
    pub(crate) shards: Vec<ShardSnapshot>,
    /// The cross-shard seed hub.
    pub(crate) hub: SeedHub,
    /// The campaign triage report so far.
    pub(crate) triage: TriageReport,
    /// The flight recorder's per-shard trace stores as the next epoch
    /// keeps them (module docs), `(shard id, store)` in shard-id
    /// order; empty when the campaign runs untraced.
    pub(crate) traces: Vec<(u32, TraceStore)>,
}

/// A [`CampaignSnapshot`] by reference — the form that is encoded.
/// The base writer points one at its live state to write a base
/// without copying the campaign first.
pub(crate) struct SnapshotView<'a> {
    pub(crate) config_fingerprint: u64,
    pub(crate) spec_fingerprint: u64,
    pub(crate) epochs_done: u64,
    pub(crate) shards: Vec<ShardView<'a>>,
    pub(crate) hub: &'a SeedHub,
    pub(crate) triage: &'a TriageReport,
    pub(crate) traces: &'a [(u32, TraceStore)],
}

impl SnapshotView<'_> {
    /// Serialize to the versioned, checksummed on-disk format, into a
    /// buffer the caller keeps.
    pub(crate) fn frame_into(&self, out: &mut Vec<u8>) {
        frame_into(out, MAGIC, VERSION, |w| {
            w.u64(self.config_fingerprint);
            w.u64(self.spec_fingerprint);
            w.u64(self.epochs_done);
            w.seq(self.shards.iter().copied(), encode_shard);
            w.u64(self.hub.top_k() as u64);
            w.u64(self.hub.published());
            encode_coverage(self.hub.coverage(), w);
            encode_seeds(self.hub.seeds(), w);
            w.seq(self.triage.entries(), encode_triage_entry);
            w.seq(self.traces, |(id, store), w| {
                w.u32(*id);
                store.encode(w);
            });
        });
    }
}

/// Install `bytes` as the base at `path`: steps 1–4 of the module
/// docs' kill windows.
fn install(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io = |what: &str, at: &Path, e: std::io::Error| {
        CheckpointError::new(format!("{what} {} failed: {e}", at.display()))
    };
    let (tmp, prev) = (sibling(path, "tmp"), sibling(path, "prev"));
    std::fs::write(&tmp, bytes).map_err(|e| io("write", &tmp, e))?;
    if path.exists() {
        // Clear the rotation slot first: neither rename below may
        // replace a file (module docs).
        match std::fs::remove_file(&prev) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(io("clear", &prev, e));
            }
            _ => {}
        }
        std::fs::rename(path, &prev).map_err(|e| io("rotate", path, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io("install", path, e))
}

/// What names a base to its records: its envelope's checksum word.
fn base_id(bytes: &[u8]) -> u64 {
    let word = bytes
        .get(HEADER - 8..HEADER)
        .and_then(|w| w.try_into().ok());
    u64::from_le_bytes(word.unwrap_or_default())
}

/// The write side of a checkpointing campaign's two files (module
/// docs): frames each durable boundary — a base or a record — into one
/// kept buffer and writes it.
#[derive(Default)]
pub(crate) struct Journal {
    /// `<path>` and `<path>.journal`.
    path: PathBuf,
    log: PathBuf,
    buf: Vec<u8>,
    /// The journal, open while this run has a base to append to: from
    /// its first durable boundary on, until a write fails.
    file: Option<File>,
    /// Id and size of that base, and the bytes of records after it.
    base_id: u64,
    base_len: u64,
    logged: u64,
}

impl Journal {
    pub(crate) fn new(path: &Path) -> Journal {
        Journal {
            path: path.to_path_buf(),
            log: sibling(path, "journal"),
            ..Journal::default()
        }
    }

    /// Run `payload` where the boundary closes — around the record of
    /// boundary `boundary` it then writes, when this boundary is due a
    /// record rather than a base (module docs, the rewrite rule).
    /// [`Journal::write`] makes either durable.
    pub(crate) fn record<R>(
        &mut self,
        boundary: u64,
        payload: impl FnOnce(Option<&mut Writer<'_>>) -> R,
    ) -> R {
        self.buf.clear();
        if self.file.is_none() || self.logged * 4 > self.base_len {
            return payload(None);
        }
        let id = self.base_id;
        self.buf.extend_from_slice(&[0; 4]); // the record's length
        let out = frame_onto(&mut self.buf, JOURNAL_MAGIC, JOURNAL_VERSION, |w| {
            w.u64(id);
            w.u64(boundary);
            payload(Some(w))
        });
        let len = u32::try_from(self.buf.len() - 4).unwrap_or(u32::MAX);
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Make the boundary durable: put the record [`Journal::record`]
    /// framed after the last one, or — it framed none — install the
    /// base `frame_base` frames and start the journal over. A failure
    /// leaves the files loadable and makes the next boundary a base.
    pub(crate) fn write(
        &mut self,
        frame_base: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), CheckpointError> {
        let _span = stage::span(Stage::Journal);
        let log = &self.log;
        let io = |e| CheckpointError::new(format!("write {} failed: {e}", log.display()));
        match self.file.take() {
            Some(mut file) if !self.buf.is_empty() => {
                file.seek(SeekFrom::Start(self.logged)).map_err(io)?;
                file.write_all(&self.buf).map_err(io)?;
                self.logged += self.buf.len() as u64;
                self.file = Some(file);
            }
            _ => {
                frame_base(&mut self.buf);
                install(&self.path, &self.buf)?;
                self.file = Some(File::create(log).map_err(io)?);
                (self.base_id, self.base_len) = (base_id(&self.buf), self.buf.len() as u64);
                self.logged = 0;
            }
        }
        Ok(())
    }

    /// The boundary could not be written: nothing can be appended past
    /// the hole, so the next boundary is a base.
    pub(crate) fn abandon(&mut self) {
        self.file = None;
    }

    /// Fault injection: damage, as [`crate::faults::damage_file`] does,
    /// the record or base [`Journal::write`] wrote last — and abandon
    /// it, as a writer that saw its medium fail would.
    pub(crate) fn damage(&mut self, damage: Option<usize>) {
        let record = self.logged.checked_sub(self.buf.len() as u64);
        match record.filter(|_| self.logged > 0) {
            Some(at) => crate::faults::damage_file(&self.log, at, damage),
            None => crate::faults::damage_file(&self.path, 0, damage),
        }
        self.abandon();
    }
}

impl CampaignSnapshot {
    /// Driver epochs completed when this snapshot was taken.
    #[must_use]
    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// The flight recorder's per-shard stores as this snapshot
    /// persists them, in shard-id order: what each shard's next epoch
    /// keeps (module docs), not everything the boundary retained.
    pub fn trace_stores(&self) -> impl Iterator<Item = &TraceStore> {
        self.traces.iter().map(|(_, store)| store)
    }

    fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            config_fingerprint: self.config_fingerprint,
            spec_fingerprint: self.spec_fingerprint,
            epochs_done: self.epochs_done,
            shards: self.shards.iter().map(ShardSnapshot::view).collect(),
            hub: &self.hub,
            triage: &self.triage,
            traces: &self.traces,
        }
    }

    /// Serialize to the versioned, checksummed on-disk format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view().frame_into(&mut out);
        out
    }

    /// Parse a snapshot from bytes previously produced by
    /// [`CampaignSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on wrong magic, unknown version,
    /// checksum mismatch (truncation/bitrot), or any malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignSnapshot, CheckpointError> {
        let mut r = Reader::new(unframe(MAGIC, VERSION, bytes)?);
        let config_fingerprint = r.u64()?;
        let spec_fingerprint = r.u64()?;
        let epochs_done = r.u64()?;
        let shards = r.seq(decode_shard)?;
        let hub_top_k = decode_usize(&mut r)?;
        let hub_published = r.u64()?;
        let hub_coverage = decode_coverage(&mut r)?;
        let hub_seeds = decode_seeds(&mut r)?;
        let triage = TriageReport::from_entries(r.seq(decode_triage_entry)?)
            .ok_or_else(|| CheckpointError::new("duplicate triage signature"))?;
        let traces = r.seq(|r| Ok((r.u32()?, TraceStore::decode(r)?)))?;
        r.finish()?;
        Ok(CampaignSnapshot {
            config_fingerprint,
            spec_fingerprint,
            epochs_done,
            shards,
            hub: SeedHub::from_parts(hub_top_k, hub_seeds, hub_coverage, hub_published),
            triage,
            traces,
        })
    }

    /// Write atomically to `path` as a base (module docs, steps 1–4):
    /// a crash at any point leaves either the old snapshot or the new
    /// one intact — never a torn file under `path` alone. A journal
    /// beside it is left as it is; its records name the base they
    /// continue, so [`CampaignSnapshot::load`] skips them.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the filesystem rejects the
    /// temp-file write or a rename.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        install(path, &self.to_bytes())
    }

    /// Load the campaign at `path` as of its last durable boundary:
    /// the base — falling back to the previous-good rotation
    /// (`<path>.prev`) when the current file is missing, truncated, or
    /// corrupt — and on it every intact journal record that continues
    /// it (module docs). What a fallback or a cut log loses is simply
    /// re-executed on resume — epochs, never determinism.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing both failures when
    /// neither generation parses.
    pub fn load(path: &Path) -> Result<CampaignSnapshot, CheckpointError> {
        Ok(CampaignSnapshot::load_counting(path)?.0)
    }

    /// [`CampaignSnapshot::load`], also saying how many journal
    /// records it replayed: the base was written that many boundaries
    /// before [`CampaignSnapshot::epochs_done`].
    ///
    /// # Errors
    ///
    /// As [`CampaignSnapshot::load`].
    pub fn load_counting(path: &Path) -> Result<(CampaignSnapshot, u64), CheckpointError> {
        let _span = stage::span(Stage::Load);
        let (id, base) = read_and_parse(path).or_else(|e| {
            read_and_parse(&sibling(path, "prev")).map_err(|e2| {
                CheckpointError::new(format!("no intact snapshot: current: {e}; previous: {e2}"))
            })
        })?;
        let journal = std::fs::read(sibling(path, "journal")).unwrap_or_default();
        Ok(base.replay(id, &journal))
    }

    /// This base (`id`) moved on by every record of `journal`, a
    /// journal file's bytes, up to the first that is not intact or does
    /// not continue it; and how many that was.
    fn replay(self, id: u64, journal: &[u8]) -> (CampaignSnapshot, u64) {
        let (hub, triage, epochs_done) = (self.hub, self.triage, self.epochs_done);
        let boundary = Boundary {
            hub,
            triage,
            epochs_done,
        };
        let mut merge = MergeState::from_snapshot(self.shards, boundary);
        let mut traces = self.traces;
        let mut log = Reader::new(journal);
        let mut replayed = 0;
        while let Ok(record) = log.bytes() {
            if apply_record(&mut merge, &mut traces, id, record).is_err() {
                break;
            }
            replayed += 1;
        }
        let snapshot = CampaignSnapshot {
            shards: merge.committed,
            hub: merge.boundary.hub,
            triage: merge.boundary.triage,
            epochs_done: merge.boundary.epochs_done,
            traces,
            ..self
        };
        (snapshot, replayed)
    }

    /// Validate that this snapshot belongs to a campaign with the
    /// given fingerprints.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] naming the mismatched fingerprint.
    pub fn validate(&self, config_fp: u64, spec_fp: u64) -> Result<(), CheckpointError> {
        if self.config_fingerprint != config_fp {
            return Err(CheckpointError::new(format!(
                "config fingerprint mismatch: snapshot {:#x}, campaign {:#x}",
                self.config_fingerprint, config_fp
            )));
        }
        if self.spec_fingerprint != spec_fp {
            return Err(CheckpointError::new(format!(
                "spec fingerprint mismatch: snapshot {:#x}, campaign {:#x}",
                self.spec_fingerprint, spec_fp
            )));
        }
        Ok(())
    }
}

/// One journal record (an envelope, its length prefix stripped) onto
/// the state replayed so far. Everything is checked before anything is
/// touched: the envelope, the base it names, its boundary number, that
/// it decodes to the end, that every trace increment names a store,
/// and — inside `commit` — that the patches cover the shards and fit.
fn apply_record(
    merge: &mut MergeState,
    traces: &mut [(u32, TraceStore)],
    id: u64,
    record: &[u8],
) -> Result<(), CheckpointError> {
    let mut r = Reader::new(unframe(JOURNAL_MAGIC, JOURNAL_VERSION, record)?);
    if (r.u64()?, r.u64()?) != (id, merge.boundary.epochs_done + 1) {
        return Err(CheckpointError::new("record of another base or boundary"));
    }
    let payload = DeltaPayload::decode(&mut r)?;
    let advances = r.seq(|r| {
        let (shard, execs_seen, keep) = (r.u32()?, r.u64()?, r.u32()? as usize);
        let mut retained = r.seq(ExecTrace::decode)?;
        retained.extend(r.seq(ExecTrace::decode)?);
        Ok((shard, execs_seen, keep, retained))
    })?;
    r.finish()?;
    let store_of = |(shard, ..): &(u32, u64, usize, Vec<ExecTrace>)| {
        traces.iter().position(|(id, _)| id == shard)
    };
    let stores: Option<Vec<usize>> = advances.iter().map(store_of).collect();
    let stores =
        stores.ok_or_else(|| CheckpointError::new("trace increment for an untraced shard"))?;
    merge.commit(vec![payload])?;
    for (store, (_, execs_seen, keep, retained)) in stores.into_iter().zip(advances) {
        traces[store].1.advance(execs_seen, keep, retained);
    }
    Ok(())
}

/// The base at `path`, under its id.
fn read_and_parse(path: &Path) -> Result<(u64, CampaignSnapshot), CheckpointError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::new(format!("read {} failed: {e}", path.display())))?;
    Ok((base_id(&bytes), CampaignSnapshot::from_bytes(&bytes)?))
}

/// `<path>.<ext>` with the extension appended (not substituted), so
/// `campaign.ckpt` rotates to `campaign.ckpt.prev`.
fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

// ---- field codecs shared with the fabric deltas --------------------------

/// A `usize` travels as a `u64`.
pub(crate) fn decode_usize(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    usize::try_from(r.u64()?).map_err(|_| r.err("size out of range"))
}

/// Tag bytes of the two [`CoverageWordDiff`] shapes on the wire.
const DIFF_SPARSE: u8 = 0;
const DIFF_DENSE: u8 = 1;

/// Write a coverage map — the one place a map's words meet the wire.
/// The layout is that of [`encode_word_diff`] for the map's diff
/// against the empty map (`Sparse`: its runs of nonzero words,
/// `Dense`: every word), streamed from [`CoverageMap::words`] without
/// building the diff. Canonical: trailing zero words are dropped and
/// the smaller shape is chosen on the trimmed length (ties go dense),
/// so equal maps encode to equal bytes.
pub(crate) fn encode_coverage(map: &CoverageMap, w: &mut Writer<'_>) {
    let words = map.words();
    let used = words
        .iter()
        .rposition(|x| *x != 0)
        .map_or(0, |last| last + 1);
    let words = &words[..used];
    let (mut run_count, mut run_words) = (0usize, 0usize);
    for (_, run) in nonzero_runs(words) {
        run_count += 1;
        run_words += run.len();
    }
    // `CoverageWordDiff::encoded_bytes` of the sparse shape: a count,
    // then per run a start, a count and its words.
    if 4 + 8 * run_count + 8 * run_words >= CoverageWordDiff::dense_bytes(words.len()) {
        w.u8(DIFF_DENSE);
        w.u64s(words);
        return;
    }
    w.u8(DIFF_SPARSE);
    w.u32(run_count as u32);
    for (start, run) in nonzero_runs(words) {
        w.u32(start as u32);
        w.u64s(run);
    }
}

/// The maximal runs of consecutive nonzero words, as `(index of the
/// first word, run)`.
fn nonzero_runs(words: &[u64]) -> impl Iterator<Item = (usize, &[u64])> {
    let mut at = 0;
    words
        .chunk_by(|a, b| (*a != 0) == (*b != 0))
        .filter_map(move |chunk| {
            let start = at;
            at += chunk.len();
            (chunk[0] != 0).then_some((start, chunk))
        })
}

/// Read a coverage map written by [`encode_coverage`]. Total over
/// hostile bytes like [`decode_word_diff`], whose checks it inherits.
pub(crate) fn decode_coverage(r: &mut Reader<'_>) -> Result<CoverageMap, DecodeError> {
    Ok(match decode_word_diff(r)? {
        CoverageWordDiff::Dense(words) => CoverageMap::from_words(words),
        sparse => CoverageMap::new().apply_word_diff(&sparse),
    })
}

pub(crate) fn encode_word_diff(diff: &CoverageWordDiff, w: &mut Writer<'_>) {
    match diff {
        CoverageWordDiff::Sparse(runs) => {
            w.u8(DIFF_SPARSE);
            w.seq(runs, |(start, words), w| {
                w.u32(*start);
                w.u64s(words);
            });
        }
        CoverageWordDiff::Dense(words) => {
            w.u8(DIFF_DENSE);
            w.u64s(words);
        }
    }
}

/// Read a word diff. Sparse runs must be non-empty, ascending and
/// non-overlapping, and no run or dense map may extend past
/// [`MAX_COVERAGE_WORDS`] — checked here, before
/// [`CoverageMap::apply_word_diff`] resizes anything, so a few
/// checksum-valid bytes cannot ask for gigabytes of zero-fill.
pub(crate) fn decode_word_diff(r: &mut Reader<'_>) -> Result<CoverageWordDiff, DecodeError> {
    match r.u8()? {
        DIFF_SPARSE => {
            let mut next_free = 0usize;
            let runs = r.seq(|r| {
                let start = r.u32()?;
                if (start as usize) < next_free {
                    return Err(r.err("word-diff runs out of order"));
                }
                let words = r.u64s()?;
                if words.is_empty() {
                    return Err(r.err("empty word-diff run"));
                }
                next_free = start as usize + words.len();
                if next_free > MAX_COVERAGE_WORDS {
                    return Err(r.err("word-diff run past the coverage bound"));
                }
                Ok((start, words))
            })?;
            Ok(CoverageWordDiff::Sparse(runs))
        }
        DIFF_DENSE => {
            let words = r.u64s()?;
            if words.len() > MAX_COVERAGE_WORDS {
                return Err(r.err("coverage map past the coverage bound"));
            }
            Ok(CoverageWordDiff::Dense(words))
        }
        _ => Err(r.err("bad word-diff tag")),
    }
}

pub(crate) fn encode_corpus_stats(stats: &CorpusStats, w: &mut Writer<'_>) {
    w.u64(stats.admitted);
    w.u64(stats.imported);
    w.u64(stats.evicted);
}

pub(crate) fn decode_corpus_stats(r: &mut Reader<'_>) -> Result<CorpusStats, DecodeError> {
    Ok(CorpusStats {
        admitted: r.u64()?,
        imported: r.u64()?,
        evicted: r.u64()?,
    })
}

pub(crate) fn decode_rng(r: &mut Reader<'_>) -> Result<[u64; 4], DecodeError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

pub(crate) fn encode_corpus_entry(e: &CorpusEntry, w: &mut Writer<'_>) {
    e.program.encode(w);
    encode_coverage(&e.contributed, w);
    w.u64(e.execs);
    w.u64(e.hits);
}

pub(crate) fn decode_corpus_entry(r: &mut Reader<'_>) -> Result<CorpusEntry, DecodeError> {
    Ok(CorpusEntry {
        program: Program::decode(r)?,
        contributed: decode_coverage(r)?,
        execs: r.u64()?,
        hits: r.u64()?,
    })
}

pub(crate) fn encode_shard(s: ShardView<'_>, w: &mut Writer<'_>) {
    w.u32(s.id);
    w.u64(s.epoch);
    w.u64(s.rng_pick);
    w.u64(s.remaining);
    w.u64(s.fuel_exhausted);
    for word in s.gen_rng {
        w.u64(word);
    }
    w.u64(s.corpus.rng_state());
    encode_coverage(s.corpus.coverage(), w);
    encode_corpus_stats(&s.corpus.stats(), w);
    w.seq(s.corpus.entries(), encode_corpus_entry);
    w.seq(s.triage_seen, encode_signature);
}

pub(crate) fn decode_shard(r: &mut Reader<'_>) -> Result<ShardSnapshot, DecodeError> {
    Ok(ShardSnapshot {
        id: r.u32()?,
        epoch: r.u64()?,
        rng_pick: r.u64()?,
        remaining: r.u64()?,
        fuel_exhausted: r.u64()?,
        gen_rng: decode_rng(r)?,
        corpus: {
            let (rng, coverage, stats) = (r.u64()?, decode_coverage(r)?, decode_corpus_stats(r)?);
            Corpus::from_parts(
                CORPUS_CAP,
                rng,
                coverage,
                r.seq(decode_corpus_entry)?,
                stats,
            )
        },
        triage_seen: r.seq(decode_signature)?.into_iter().collect(),
    })
}

pub(crate) fn encode_triage_entry(e: &TriageEntry, w: &mut Writer<'_>) {
    encode_signature(&e.signature, w);
    w.str(&e.title);
    w.opt_str(e.cve.as_deref());
    w.u64(e.first_epoch);
    w.u32(e.first_shard);
    w.u64(e.count);
    e.raw.encode(w);
    e.minimized.encode(w);
    w.u64(e.minimize_execs);
    w.bool(e.reproducible);
}

pub(crate) fn decode_triage_entry(r: &mut Reader<'_>) -> Result<TriageEntry, DecodeError> {
    Ok(TriageEntry {
        signature: decode_signature(r)?,
        title: r.str()?,
        cve: r.opt_str()?,
        first_epoch: r.u64()?,
        first_shard: r.u32()?,
        count: r.u64()?,
        raw: Program::decode(r)?,
        minimized: Program::decode(r)?,
        minimize_execs: r.u64()?,
        reproducible: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubSeed;
    use kgpt_syzlang::prog::ProgCall;
    use kgpt_syzlang::Value;
    use kgpt_trace::ExecTrace;
    use kgpt_vkernel::{CrashSignature, SanitizerKind, Sysno};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    /// Counts the bytes this thread asks the allocator for (the
    /// `kgpt_syzlang::codec` hostile-suite pattern, in bytes: the
    /// threat here is one huge zero-fill, not many small requests).
    struct CountingAlloc;

    thread_local! {
        static ALLOC_BYTES: Cell<usize> = const { Cell::new(0) };
        static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    }

    /// Count one allocator event of `size` bytes against this thread.
    fn count(size: usize) {
        let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + size));
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: delegates everything to `System`; the counter is a
    // const-initialised thread-local `Cell` with no destructor.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    fn cov(blocks: &[u64]) -> CoverageMap {
        blocks.iter().copied().collect()
    }

    fn prog(sys: u32) -> Program {
        Program {
            calls: vec![ProgCall {
                sys,
                args: vec![Value::Int(7), Value::Bytes(vec![1, 2, 3])],
            }],
        }
    }

    fn sig(site: u64) -> CrashSignature {
        CrashSignature {
            sysno: Sysno::Ioctl,
            chain_depth: 2,
            sanitizer: SanitizerKind::UseAfterFree,
            site,
        }
    }

    fn sample() -> CampaignSnapshot {
        let mut seen = BTreeSet::new();
        seen.insert(sig(5));
        seen.insert(sig(9));
        let mut triage = TriageReport::new();
        triage.admit(TriageEntry {
            signature: sig(5),
            title: "bug a".into(),
            cve: Some("CVE-2023-0001".into()),
            first_epoch: 2,
            first_shard: 1,
            count: 4,
            raw: prog(3),
            minimized: prog(3),
            minimize_execs: 11,
            reproducible: true,
        });
        CampaignSnapshot {
            config_fingerprint: 0xDEAD_BEEF,
            spec_fingerprint: 0xFEED_FACE,
            epochs_done: 7,
            shards: vec![ShardSnapshot {
                id: 0,
                gen_rng: [1, 2, 3, 4],
                corpus: Corpus::from_parts(
                    CORPUS_CAP,
                    99,
                    cov(&[1, 2, 64, 500]),
                    vec![CorpusEntry {
                        program: prog(1),
                        contributed: cov(&[64]),
                        execs: 12,
                        hits: 2,
                    }],
                    CorpusStats {
                        admitted: 5,
                        imported: 1,
                        evicted: 2,
                    },
                ),
                triage_seen: seen,
                epoch: 7,
                rng_pick: 0x1234,
                remaining: 1000,
                fuel_exhausted: 3,
            }],
            hub: SeedHub::from_parts(
                4,
                vec![HubSeed {
                    shard: 0,
                    program: prog(2),
                    contributed: cov(&[2]),
                }],
                cov(&[1, 2]),
                17,
            ),
            triage,
            traces: vec![(0, store())],
        }
    }

    /// A store holding one ring trace and one pinned crash trace
    /// (empty event streams: just the END token).
    fn store() -> TraceStore {
        let trace = |crash, exec| {
            let mut program = Vec::new();
            prog(1).encode_into(&mut program);
            ExecTrace {
                shard: 0,
                epoch: 3,
                exec,
                exec_fuel: 1 << 20,
                spec_fingerprint: 0xFEED_FACE,
                fuel_exhausted: false,
                crash,
                program,
                stream: vec![0x0F],
                stream_bits: 4,
            }
        };
        TraceStore::from_parts(2, 9, [trace(None, 7)], [trace(Some(sig(5)), 4)]).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgpt-ckpt-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(CampaignSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    /// Format stability: a mismatch means the on-disk layout changed
    /// and `VERSION` must bump. Recorded when `VERSION` became 5 (the
    /// shard's crash tally left the payload).
    #[test]
    fn golden_bytes() {
        let bytes = sample().to_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (698, 0xce36_982c_2368_32b0));
        assert_eq!(fnv1a(&bytes[20..]), 0xdbe6_e09e_5bcc_5146);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CampaignSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_distinct_errors() {
        let good = sample().to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
        assert!(e.message.contains("magic"), "{e}");

        // An unknown version and the superseded versions alike — 1 and
        // 2 (dense coverage, framed trace blobs), 3 (whole rings under
        // a byte-wise checksum) and 4 (a crash tally per shard): a
        // reader never guesses at a layout it was not built for.
        assert_eq!(good[8..12], 5u32.to_le_bytes());
        for version in [0xFF, 1, 2, 3, 4] {
            let mut bad = good.clone();
            bad[8] = version; // version LE low byte
            let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
            assert!(e.message.contains("unsupported version"), "{e}");
        }

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40; // flip a payload bit
        let e = CampaignSnapshot::from_bytes(&bad).unwrap_err();
        assert!(e.message.contains("checksum"), "{e}");

        assert!(CampaignSnapshot::from_bytes(&good).is_ok());
    }

    #[test]
    fn save_rotates_previous_good_and_load_falls_back() {
        let dir = scratch_dir("rotate");
        let path = dir.join("campaign.ckpt");

        let mut first = sample();
        first.epochs_done = 1;
        first.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        let mut second = sample();
        second.epochs_done = 2;
        second.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 2);
        // The rotation holds the previous generation.
        assert_eq!(
            CampaignSnapshot::from_bytes(&std::fs::read(sibling(&path, "prev")).unwrap())
                .unwrap()
                .epochs_done,
            1
        );

        // A save killed after any prefix of its four steps (module
        // docs), replayed by hand over `<path>` = 2, `<path>.prev` = 1:
        // load returns the generation being replaced until the
        // install, the new one after it — never an error.
        let (tmp, prev) = (sibling(&path, "tmp"), sibling(&path, "prev"));
        let mut third = sample();
        third.epochs_done = 3;
        let steps: [&dyn Fn(); 4] = [
            &|| std::fs::write(&tmp, third.to_bytes()).unwrap(),
            &|| std::fs::remove_file(&prev).unwrap(),
            &|| std::fs::rename(&path, &prev).unwrap(),
            &|| std::fs::rename(&tmp, &path).unwrap(),
        ];
        for killed_after in 0..=steps.len() {
            std::fs::write(&path, second.to_bytes()).unwrap();
            std::fs::write(&prev, first.to_bytes()).unwrap();
            let _ = std::fs::remove_file(&tmp);
            for step in &steps[..killed_after] {
                step();
            }
            let want = if killed_after == steps.len() { 3 } else { 2 };
            let loaded = CampaignSnapshot::load(&path);
            assert_eq!(
                loaded.map(|s| s.epochs_done),
                Ok(want),
                "killed after step {killed_after}"
            );
            // What `save` itself leaves from there is the full sequence:
            // the interrupted state is one it starts from cleanly (after
            // step 3 only the rotation exists, and it is kept until the
            // install).
            third.save(&path).unwrap();
            assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 3);
            let kept = CampaignSnapshot::from_bytes(&std::fs::read(&prev).unwrap()).unwrap();
            assert!(
                kept.epochs_done == 2 || killed_after == steps.len(),
                "killed after step {killed_after}: rotation holds {}",
                kept.epochs_done
            );
        }
        std::fs::write(&path, second.to_bytes()).unwrap();
        std::fs::write(&prev, first.to_bytes()).unwrap();

        // Corrupt the current file: load falls back to previous-good.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        // Truncate the current file: same fallback.
        std::fs::write(&path, &second.to_bytes()[..40]).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap().epochs_done, 1);

        // Both generations gone: a descriptive error, not a panic.
        std::fs::write(&path, b"junk").unwrap();
        std::fs::write(sibling(&path, "prev"), b"junk").unwrap();
        let e = CampaignSnapshot::load(&path).unwrap_err();
        assert!(e.message.contains("current"), "{e}");
        assert!(e.message.contains("previous"), "{e}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `save` knows nothing of a journal and a journal nothing of a
    /// `save`: records beside a base they do not name are not applied,
    /// and `load` of a lone base replays none.
    #[test]
    fn a_saved_base_ignores_a_journal_that_names_another() {
        let dir = scratch_dir("foreign-journal");
        let path = dir.join("campaign.ckpt");
        let snap = sample();
        snap.save(&path).unwrap();
        assert_eq!(
            CampaignSnapshot::load_counting(&path).unwrap(),
            (snap.clone(), 0)
        );
        let mut journal = Journal::new(&path);
        journal.write(|out| snap.view().frame_into(out)).unwrap();
        let id = base_id(&snap.to_bytes());
        assert_eq!((journal.base_id, journal.base_len), (id, 698));
        // A record that names this base but patches a shard it has not.
        journal.record(8, |w| {
            let w = w.expect("a base to append to, and an empty journal");
            w.u8(1);
            w.seq([9u32], |shard, w| w.u32(shard));
        });
        journal
            .write(|_| unreachable!("a record was framed"))
            .unwrap();
        let log = std::fs::read(sibling(&path, "journal")).unwrap();
        assert_eq!(log.len() as u64, journal.logged);
        assert_eq!(log[..4], (log.len() as u32 - 4).to_le_bytes());
        assert_eq!(
            CampaignSnapshot::load_counting(&path).unwrap(),
            (snap.clone(), 0)
        );
        // One that names another base, or another boundary, or nothing.
        let (other, _) = snap.clone().replay(id ^ 1, &log);
        assert_eq!(other, snap);
        assert_eq!(snap.clone().replay(id, b"\x03\0\0\0abc"), (snap.clone(), 0));
        assert_eq!(snap.clone().replay(id, &[0xFF; 64]), (snap.clone(), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small deep-chain campaign's third base and the journal of the
    /// four records after it: `(base bytes, journal bytes)`.
    fn recorded_journal() -> (Vec<u8>, Vec<u8>) {
        use crate::{CampaignConfig, ShardedCampaign};
        use kgpt_csrc::{deepchain, KernelCorpus};
        let kc = KernelCorpus::from_blueprints(deepchain::suite());
        let suite: Vec<_> = kc
            .blueprints()
            .iter()
            .map(|bp| bp.ground_truth_spec())
            .collect();
        let kernel = kgpt_vkernel::VKernel::boot(deepchain::suite());
        let dir = scratch_dir("recorded");
        let path = dir.join("campaign.ckpt");
        let config = CampaignConfig {
            execs: 2 * 16 * 10,
            seed: 5,
            max_prog_len: 6,
            hub_epoch: 16,
            trace_ring: 4,
            ..CampaignConfig::default()
        };
        let _ = ShardedCampaign::new(&kernel, &suite, kc.consts(), config)
            .with_shards(2)
            .with_checkpoint(&path)
            .with_halt_after(7)
            .run();
        let files = (
            std::fs::read(&path).unwrap(),
            std::fs::read(sibling(&path, "journal")).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        files
    }

    /// The journal reader is total: over every prefix and every
    /// single-byte mutation of a recorded journal it never panics,
    /// allocates within a constant times its input, and applies exactly
    /// the records before the damage — what loads is the campaign as of
    /// one of its boundaries, never a record half applied.
    #[test]
    fn the_journal_reader_is_total_over_prefixes_and_mutations() {
        let (base_bytes, journal) = recorded_journal();
        let base = CampaignSnapshot::from_bytes(&base_bytes).unwrap();
        let id = base_id(&base_bytes);
        let mut ends = vec![0usize];
        let mut log = Reader::new(&journal);
        while log.bytes().is_ok() {
            ends.push(log.pos());
        }
        assert_eq!(ends.last(), Some(&journal.len()), "a clean journal");
        assert_eq!(ends.len(), 5, "base 3 and four records");
        let states: Vec<CampaignSnapshot> = ends
            .iter()
            .zip(0u64..)
            .map(|(end, n)| {
                let (state, replayed) = base.clone().replay(id, &journal[..*end]);
                assert_eq!(replayed, n);
                assert_eq!(state.epochs_done, base.epochs_done + n);
                // Coherent: it is a snapshot like any other.
                assert_eq!(
                    CampaignSnapshot::from_bytes(&state.to_bytes()).unwrap(),
                    state
                );
                state
            })
            .collect();
        let input = base_bytes.len() + journal.len();
        let mut worst = 0;
        let mut check = |damaged: &[u8], intact: usize, what: &str| {
            let start = base.clone();
            let before = ALLOC_BYTES.with(Cell::get);
            let (state, replayed) = start.replay(id, damaged);
            worst = worst.max(ALLOC_BYTES.with(Cell::get) - before);
            assert_eq!(replayed as usize, intact, "{what}");
            assert!(state == states[intact], "{what}");
        };
        for cut in 0..journal.len() {
            let intact = ends.iter().rposition(|end| *end <= cut).unwrap();
            check(&journal[..cut], intact, &format!("cut at {cut}"));
        }
        for offset in 0..journal.len() {
            let mut mutated = journal.clone();
            mutated[offset] = mutated[offset].wrapping_add(1 + (offset % 255) as u8);
            let intact = ends.iter().rposition(|end| *end <= offset).unwrap();
            check(&mutated, intact, &format!("mutation at {offset}"));
        }
        assert!(
            worst <= 8 * input,
            "a replay allocated {worst} bytes over {input} of input"
        );
    }

    /// A record whose patch counts a signature that neither the report
    /// nor a capture of the record holds is refused at `validate`, as a
    /// misfit patch is: the journal loads up to the record before it.
    /// (Re-framed untouched, the same record applies: the forgery is
    /// the count, not the re-framing.)
    #[test]
    fn a_record_counting_an_uncaptured_signature_ends_the_log() {
        let (base_bytes, journal) = recorded_journal();
        let base = CampaignSnapshot::from_bytes(&base_bytes).unwrap();
        let id = base_id(&base_bytes);
        let mut log = Reader::new(&journal);
        let records: Vec<&[u8]> = std::iter::from_fn(|| log.bytes().ok()).collect();
        assert_eq!(records.len(), 4);
        let reframed = |forge: bool| {
            let body = unframe(JOURNAL_MAGIC, JOURNAL_VERSION, records[1]).unwrap();
            let mut r = Reader::new(body);
            let (record_id, boundary) = (r.u64().unwrap(), r.u64().unwrap());
            let Ok(DeltaPayload::Incremental(mut patches)) = DeltaPayload::decode(&mut r) else {
                panic!("a record's payload is incremental");
            };
            if forge {
                patches[1].counts.push((sig(1 << 41), 1));
            }
            let mut record = Vec::new();
            frame_into(&mut record, JOURNAL_MAGIC, JOURNAL_VERSION, |w| {
                w.u64(record_id);
                w.u64(boundary);
                DeltaPayload::Incremental(patches).encode(w);
                body[r.pos()..].iter().for_each(|b| w.u8(*b));
            });
            let mut log = Vec::new();
            let mut w = Writer::new(&mut log);
            for (i, original) in records.iter().enumerate() {
                w.bytes(if i == 1 { &record } else { original });
            }
            log
        };
        let (clean, replayed) = base.clone().replay(id, &reframed(false));
        assert_eq!(replayed, 4);
        assert_eq!(clean, base.clone().replay(id, &journal).0);
        let (cut, replayed) = base.clone().replay(id, &reframed(true));
        assert_eq!(replayed, 1, "the forged record ends the log");
        assert_eq!(
            cut,
            base.clone().replay(id, &journal[..4 + records[0].len()]).0
        );
    }

    /// A deep-chain campaign driven the way `ShardedCampaign` drives a
    /// checkpointing one — step, close the boundary around the
    /// journal's record, write, mark — with every corpus padded by
    /// `inert` entries no program reaches and every recorder by
    /// `pinned` traces no exec produced. For each durable boundary:
    /// whether it was a base, whether nothing was admitted, captured
    /// or exchanged in its epoch or at it (a record carries what its
    /// epoch admitted), and the allocator events of making it
    /// durable (close + write + mark, less those of closing it bare).
    fn durable_boundary_costs(inert: u64, pinned: u64) -> Vec<(bool, bool, u64)> {
        use crate::campaign::{CampaignConfig, ShardState};
        use crate::fabric::LeaseRunner;
        use crate::flight::{cfg_successors, ShardTracer};
        use crate::gen::Generator;
        use kgpt_csrc::{deepchain, KernelCorpus};
        use kgpt_syzlang::SpecCache;
        use std::sync::Arc;
        const SHARDS: u32 = 8;
        let kc = KernelCorpus::from_blueprints(deepchain::suite());
        let suite: Vec<_> = kc
            .blueprints()
            .iter()
            .map(|bp| bp.ground_truth_spec())
            .collect();
        let kernel = kgpt_vkernel::VKernel::boot(deepchain::suite());
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, kc.consts());
        let config = CampaignConfig {
            execs: 128 * u64::from(SHARDS) * 40,
            seed: 3,
            max_prog_len: 12,
            hub_epoch: 128,
            ..CampaignConfig::default()
        };
        let mut g = Generator::from_lowered(Arc::clone(&lowered), 77);
        let padding: Vec<HubSeed> = (0..inert)
            .map(|i| HubSeed {
                shard: u32::MAX,
                program: g.gen_program(4),
                contributed: [64 * 4096 + 3 * i].into_iter().collect(),
            })
            .collect();
        let mut runner = LeaseRunner::fresh(&lowered, &config, SHARDS, 0, SHARDS);
        let table = Arc::new(cfg_successors(&kernel));
        for state in &mut runner.states {
            state.attach_tracer(ShardTracer::new(Arc::clone(&table), 1, state.id, 32));
            let fake = (0..pinned).map(|i| ExecTrace {
                crash: Some(sig(1 << 40 | i)),
                ..store().ring().next().unwrap().clone()
            });
            state.set_trace_store(TraceStore::from_traces(32, 0, fake));
        }
        let dir = scratch_dir(&format!("costs-{inert}-{pinned}"));
        let mut journal = Journal::new(&dir.join("campaign.ckpt"));
        let mut boundary = Boundary::new(config.hub_top_k);
        let mut costs = Vec::new();
        let budget = config.epoch_budget();
        let quiet = |runner: &LeaseRunner| {
            let stats = |s: &ShardState| (s.corpus.stats(), s.triage.seen().len());
            runner.states.iter().map(stats).collect::<Vec<_>>()
        };
        loop {
            let was = quiet(&runner);
            runner.step(&kernel, 1);
            if boundary.epochs_done == 0 {
                runner.import(&padding);
            }
            let before = ALLOC_EVENTS.with(Cell::get);
            let closed = journal.record(boundary.epochs_done + 1, |record| {
                runner.close_boundary(&kernel, &mut boundary, record)
            });
            if closed.is_none() {
                let _ = std::fs::remove_dir_all(&dir);
                return costs;
            }
            let base = journal.buf.is_empty();
            let write = journal.write(|out| {
                crate::shard::frame_base(out, (1, 1), &runner.states, &boundary, budget)
            });
            write.unwrap();
            runner.mark();
            let spent = ALLOC_EVENTS.with(Cell::get) - before;
            costs.push((base, quiet(&runner) == was, spent));
        }
    }

    /// Past the boundary where admissions stop, making a boundary
    /// durable by a record costs a fixed number of allocator events —
    /// per shard its drained counts, and three of the boundary's own —
    /// whatever the corpora and the recorders hold: the same at four
    /// times the corpus and with fifty more pinned traces a shard. The
    /// record buffer is kept, no store is built, no trace sealed before
    /// is sealed again. A base costs
    /// events in proportion to both — and is the only boundary that does.
    #[test]
    fn a_converged_journalled_boundary_allocates_for_what_changed() {
        let summarize = |inert: u64, pinned: u64| {
            let costs = durable_boundary_costs(inert, pinned);
            let late = &costs[costs.len() / 2..];
            let records = late.iter().filter(|(base, quiet, _)| !base && *quiet);
            let records: Vec<u64> = records.map(|(.., events)| *events).collect();
            let bases = late
                .iter()
                .filter(|(base, ..)| *base)
                .map(|(.., events)| *events);
            assert!(
                records.len() >= 8,
                "only {} converged records",
                records.len()
            );
            let (record, base) = (records.iter().max().unwrap(), bases.min().unwrap());
            println!(
                "{} converged records at +{inert} entries, +{pinned} pinned: <= {record} events \
                 each; a base >= {base}",
                records.len()
            );
            (*record, base)
        };
        let (record, base) = summarize(0, 0);
        let (record_padded, base_padded) = summarize(46, 50);
        assert!(record <= 8 + 3, "{record} events for a converged record");
        assert_eq!(
            record_padded, record,
            "a record's cost moved with what the shards hold"
        );
        // A base copies every pinned trace into a store (two buffers
        // each) and views every shard; its buffer, too, is the one kept.
        assert!(base_padded >= base + 8 * 50 * 2, "{base} -> {base_padded}");
        assert!(base < 8 * 50 * 2, "a base of {base} events");
    }

    fn encoded(map: &CoverageMap) -> Vec<u8> {
        let mut out = Vec::new();
        encode_coverage(map, &mut Writer::new(&mut out));
        out
    }

    fn decoded(bytes: &[u8]) -> Result<CoverageMap, DecodeError> {
        let mut r = Reader::new(bytes);
        let map = decode_coverage(&mut r)?;
        r.finish()?;
        Ok(map)
    }

    #[test]
    fn coverage_encoding_round_trips_and_is_canonical() {
        let stratum = |i: u64| (i + 1) * 4096;
        let maps = [
            CoverageMap::new(),
            cov(&[0]),
            cov(&[stratum(3) + 5]),
            // A corpus-entry key: a few blocks in two far-apart strata.
            cov(&[
                stratum(0),
                stratum(0) + 1,
                stratum(4) + 70,
                stratum(4) + 100,
            ]),
            // Every word set: sparse would cost a run header more.
            (0..640).collect(),
            // Alternating words: one run per set word, dense is smaller.
            (0..40).map(|w| w * 128).collect(),
        ];
        for map in &maps {
            let bytes = encoded(map);
            let back = decoded(&bytes).unwrap();
            assert_eq!(&back, map);
            assert_eq!(encoded(&back), bytes, "re-encoding {map:?} moved bytes");
            // Trailing zero words are representation noise on the wire
            // too: they change neither the shape chosen nor a byte.
            let mut padded = map.words().to_vec();
            padded.extend([0; 300]);
            assert_eq!(encoded(&CoverageMap::from_words(padded)), bytes);
            // So is the storage a cleared map keeps: a per-exec map
            // refilled after a far-reaching program encodes like new.
            let mut reused: CoverageMap = (0..50).map(|w| w * 640 + 7).collect();
            reused.clear();
            reused.extend(map.iter());
            assert_eq!(encoded(&reused), bytes);
            // Never larger than the dense form it replaced.
            assert!(bytes.len() <= 1 + CoverageWordDiff::dense_bytes(map.words().len()));
        }
        // The sparse shape is what shrinks a snapshot: two one-word
        // runs instead of 322 words.
        assert_eq!(encoded(&maps[3]).len(), 1 + 4 + 2 * (4 + 4 + 8));
        assert_eq!(encoded(&maps[3])[0], DIFF_SPARSE);
        assert_eq!(encoded(&maps[4])[0], DIFF_DENSE);
        assert_eq!(encoded(&maps[5])[0], DIFF_DENSE);
        assert_eq!(encoded(&maps[0]), [DIFF_DENSE, 0, 0, 0, 0]);
    }

    /// A sparse word diff as raw wire bytes: `(start, words)` runs.
    fn sparse_bytes(runs: &[(u32, &[u64])]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.u8(DIFF_SPARSE);
        w.seq(runs, |(start, words), w| {
            w.u32(*start);
            w.u64s(words);
        });
        out
    }

    #[test]
    fn hostile_coverage_is_rejected_before_anything_is_resized() {
        let bound = MAX_COVERAGE_WORDS as u32;
        let past = "word-diff run past the coverage bound";
        let order = "word-diff runs out of order";
        let cases = [
            // The reported bug: a ~20-byte run at word u32::MAX used
            // to reach `apply_word_diff` and zero-fill 32 GiB.
            (sparse_bytes(&[(u32::MAX, &[1])]), past),
            // One word past the bound, and a run that starts inside
            // the bound but ends outside it.
            (sparse_bytes(&[(bound, &[1])]), past),
            (sparse_bytes(&[(bound - 1, &[1, 1])]), past),
            // Overlapping, out of order, empty.
            (sparse_bytes(&[(4, &[1, 1]), (5, &[1])]), order),
            (sparse_bytes(&[(9, &[1]), (2, &[1])]), order),
            (sparse_bytes(&[(3, &[])]), "empty word-diff run"),
            (vec![7], "bad word-diff tag"),
            // A run count the input cannot hold.
            (
                vec![DIFF_SPARSE, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0],
                "count exceeds remaining input",
            ),
        ];
        let before = ALLOC_BYTES.with(Cell::get);
        let rejected = cases
            .each_ref()
            .map(|(bytes, _)| decoded(bytes).map(|_| ()));
        let spent = ALLOC_BYTES.with(Cell::get) - before;
        for ((_, message), got) in cases.iter().zip(rejected) {
            assert_eq!(got.unwrap_err().message, *message);
        }
        assert!(
            spent < 1024,
            "rejecting hostile coverage allocated {spent} bytes"
        );
        // The last word inside the bound is fine, and costs what it
        // says: the bound's worth of zero-fill, no more.
        let edge = decoded(&sparse_bytes(&[(bound - 1, &[1])])).unwrap();
        assert_eq!(edge.words().len(), MAX_COVERAGE_WORDS);
        // A dense map past the bound is rejected too (no
        // amplification there — the input itself is that long).
        let mut dense = vec![DIFF_DENSE];
        dense.extend((bound + 1).to_le_bytes());
        dense.resize(dense.len() + 8 * (MAX_COVERAGE_WORDS + 1), 0);
        assert_eq!(
            decoded(&dense).unwrap_err().message,
            "coverage map past the coverage bound"
        );
    }

    #[test]
    fn hostile_patch_coverage_is_rejected_on_the_fabric_wire() {
        use crate::fabric::{decode_patches, diff_boundary, encode_patches, sample_boundary};
        let (base, deltas) = sample_boundary();
        let mut patches = diff_boundary(&base, deltas).expect("diffable fixture");
        patches[0].cov_diff = CoverageWordDiff::Sparse(vec![(u32::MAX, vec![1])]);
        let mut body = Vec::new();
        encode_patches(&patches, &mut body);
        let before = ALLOC_BYTES.with(Cell::get);
        let e = decode_patches(&body, &mut 0).unwrap_err();
        let spent = ALLOC_BYTES.with(Cell::get) - before;
        assert!(e.message.contains("past the coverage bound"), "{e}");
        assert!(spent < 4096, "rejecting the patch allocated {spent} bytes");
    }

    #[test]
    fn validate_names_the_mismatched_fingerprint() {
        let snap = sample();
        snap.validate(0xDEAD_BEEF, 0xFEED_FACE).unwrap();
        let e = snap.validate(1, 0xFEED_FACE).unwrap_err();
        assert!(e.message.contains("config fingerprint"), "{e}");
        let e = snap.validate(0xDEAD_BEEF, 1).unwrap_err();
        assert!(e.message.contains("spec fingerprint"), "{e}");
    }

    #[test]
    fn config_fingerprint_covers_every_identity_field() {
        let base = CampaignConfig::default();
        let fp = |c: &CampaignConfig, shards: u32| config_fingerprint(c, shards);
        let b = fp(&base, 8);
        assert_eq!(b, fp(&base.clone(), 8), "fingerprint is stable");
        assert_ne!(b, fp(&base, 4), "shard count is identity");
        for tweak in [
            CampaignConfig {
                execs: base.execs + 1,
                ..base.clone()
            },
            CampaignConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
            CampaignConfig {
                max_prog_len: base.max_prog_len + 1,
                ..base.clone()
            },
            CampaignConfig {
                enabled: Some(vec!["ioctl$dm".into()]),
                ..base.clone()
            },
            CampaignConfig {
                hub_epoch: base.hub_epoch + 1,
                ..base.clone()
            },
            CampaignConfig {
                hub_top_k: base.hub_top_k + 1,
                ..base.clone()
            },
            CampaignConfig {
                exec_fuel: base.exec_fuel + 1,
                ..base.clone()
            },
            CampaignConfig {
                trace_ring: base.trace_ring + 1,
                ..base.clone()
            },
        ] {
            assert_ne!(b, fp(&tweak, 8), "{tweak:?}");
        }
    }
}
