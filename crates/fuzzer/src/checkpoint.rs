//! Crash-safe campaign checkpointing.
//!
//! A [`CampaignSnapshot`] is the complete serializable identity of a
//! paused [`crate::ShardedCampaign`] at an epoch boundary: config and
//! spec fingerprints, every shard's RNG streams / corpus / crash
//! tally / triage seen-set in shard-id order, the cross-shard
//! [`crate::hub::SeedHub`] contents, and the campaign
//! [`TriageReport`]. Restoring it and continuing is **bit-identical**
//! to never having stopped (pinned by `tests/durability.rs`).
//!
//! The encoding is composed from the workspace codec — layout rules
//! and the envelope are documented in [`kgpt_syzlang::codec`].
//!
//! Writes are atomic and keep one generation of history: the payload
//! goes to `<path>.tmp`, the current snapshot (if any) rotates to
//! `<path>.prev`, and the temp file renames over `<path>`.
//! [`CampaignSnapshot::load`] verifies magic, version and checksum,
//! and falls back to the previous-good rotation when the current file
//! is truncated or corrupt — a torn write costs one epoch of
//! progress, never the campaign.

use crate::campaign::{CampaignConfig, ShardSnapshot};
use crate::corpus::{CorpusEntry, CorpusStats};
use crate::fabric::{decode_seeds, encode_config, encode_seeds};
use crate::hub::{HubSeed, SeedHub};
use kgpt_syzlang::codec::{frame, unframe, DecodeError, Reader, Writer};
use kgpt_syzlang::prog::Program;
use kgpt_trace::{decode_signature, encode_signature};
use kgpt_triage::{TriageEntry, TriageReport};
use kgpt_vkernel::{CoverageMap, CoverageWordDiff};
use std::path::{Path, PathBuf};

pub use kgpt_syzlang::codec::fnv1a;

/// File magic: identifies a campaign checkpoint.
const MAGIC: &[u8; 8] = b"KGPTCKPT";

/// Current snapshot format version. Bumped on any layout change; a
/// reader never guesses at an unknown version. (Version 2 appended
/// the flight recorder's per-shard trace stores.)
const VERSION: u32 = 2;

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
    /// Hub publication budget.
    pub(crate) hub_top_k: usize,
    /// Hub publish-attempt counter.
    pub(crate) hub_published: u64,
    /// Hub claimed-coverage union.
    pub(crate) hub_coverage: CoverageMap,
    /// Retained hub seeds, in publication order.
    pub(crate) hub_seeds: Vec<HubSeed>,
    /// The campaign triage report so far.
    pub(crate) triage: TriageReport,
    /// The flight recorder's serialized per-shard trace stores
    /// (`(shard id, kgpt_trace::TraceStore::to_bytes)`), in shard-id
    /// order; empty when the campaign runs untraced. Kept opaque here
    /// — the store bytes carry their own envelope and are validated
    /// by the resume path.
    pub(crate) traces: Vec<(u32, Vec<u8>)>,
}

impl CampaignSnapshot {
    /// Driver epochs completed when this snapshot was taken.
    #[must_use]
    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// Capture a paused campaign (shard states given in id order).
    pub(crate) fn capture(
        config_fp: u64,
        spec_fp: u64,
        epochs_done: u64,
        shards: Vec<ShardSnapshot>,
        hub: &SeedHub,
        triage: &TriageReport,
        traces: Vec<(u32, Vec<u8>)>,
    ) -> CampaignSnapshot {
        CampaignSnapshot {
            config_fingerprint: config_fp,
            spec_fingerprint: spec_fp,
            epochs_done,
            shards,
            hub_top_k: hub.top_k(),
            hub_published: hub.published(),
            hub_coverage: hub.coverage().clone(),
            hub_seeds: hub.seeds().to_vec(),
            triage: triage.clone(),
            traces,
        }
    }

    /// Serialize to the versioned, checksummed on-disk format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut w = Writer::new(&mut payload);
        w.u64(self.config_fingerprint);
        w.u64(self.spec_fingerprint);
        w.u64(self.epochs_done);
        w.seq(&self.shards, encode_shard);
        w.u64(self.hub_top_k as u64);
        w.u64(self.hub_published);
        w.u64s(self.hub_coverage.words());
        encode_seeds(&self.hub_seeds, &mut w);
        w.seq(self.triage.entries(), encode_triage_entry);
        w.seq(&self.traces, |(id, store), w| {
            w.u32(*id);
            w.bytes(store);
        });
        frame(MAGIC, VERSION, &payload)
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
        let mut triage = TriageReport::new();
        for entry in r.seq(decode_triage_entry)? {
            if !triage.admit(entry) {
                return Err(CheckpointError::new("duplicate triage signature"));
            }
        }
        let traces = r.seq(|r| Ok((r.u32()?, r.bytes()?.to_vec())))?;
        r.finish()?;
        Ok(CampaignSnapshot {
            config_fingerprint,
            spec_fingerprint,
            epochs_done,
            shards,
            hub_top_k,
            hub_published,
            hub_coverage,
            hub_seeds,
            triage,
            traces,
        })
    }

    /// Write atomically to `path`: serialize to `<path>.tmp`, rotate
    /// any current snapshot to `<path>.prev` (the previous-good
    /// fallback), then rename the temp file into place. A crash at any
    /// point leaves either the old snapshot or the new one intact —
    /// never a torn file under `path` alone.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the filesystem rejects the
    /// temp-file write or a rename.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = sibling(path, "tmp");
        std::fs::write(&tmp, self.to_bytes())
            .map_err(|e| CheckpointError::new(format!("write {} failed: {e}", tmp.display())))?;
        if path.exists() {
            std::fs::rename(path, sibling(path, "prev")).map_err(|e| {
                CheckpointError::new(format!("rotate {} failed: {e}", path.display()))
            })?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::new(format!("install {} failed: {e}", path.display())))
    }

    /// Load the snapshot at `path`, falling back to the previous-good
    /// rotation (`<path>.prev`) when the current file is missing,
    /// truncated, or corrupt. Falling back costs the epochs between
    /// the two snapshots — they are simply re-executed on resume — and
    /// never determinism.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing both failures when
    /// neither generation parses.
    pub fn load(path: &Path) -> Result<CampaignSnapshot, CheckpointError> {
        let current = read_and_parse(path);
        match current {
            Ok(snap) => Ok(snap),
            Err(e) => match read_and_parse(&sibling(path, "prev")) {
                Ok(snap) => Ok(snap),
                Err(e2) => Err(CheckpointError::new(format!(
                    "no intact snapshot: current: {e}; previous: {e2}"
                ))),
            },
        }
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

fn read_and_parse(path: &Path) -> Result<CampaignSnapshot, CheckpointError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::new(format!("read {} failed: {e}", path.display())))?;
    CampaignSnapshot::from_bytes(&bytes)
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

pub(crate) fn decode_coverage(r: &mut Reader<'_>) -> Result<CoverageMap, DecodeError> {
    Ok(CoverageMap::from_words(r.u64s()?))
}

/// Tag bytes of the two [`CoverageWordDiff`] shapes on the wire.
const DIFF_SPARSE: u8 = 0;
const DIFF_DENSE: u8 = 1;

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

pub(crate) fn decode_word_diff(r: &mut Reader<'_>) -> Result<CoverageWordDiff, DecodeError> {
    match r.u8()? {
        DIFF_SPARSE => {
            let mut next_free = 0u64;
            let runs = r.seq(|r| {
                let start = r.u32()?;
                if u64::from(start) < next_free {
                    return Err(r.err("word-diff runs out of order"));
                }
                let words = r.u64s()?;
                if words.is_empty() {
                    return Err(r.err("empty word-diff run"));
                }
                next_free = u64::from(start) + words.len() as u64;
                Ok((start, words))
            })?;
            Ok(CoverageWordDiff::Sparse(runs))
        }
        DIFF_DENSE => Ok(CoverageWordDiff::Dense(r.u64s()?)),
        _ => Err(r.err("bad word-diff tag")),
    }
}

/// One crash-tally record: `title | count | cve`.
pub(crate) fn encode_crash(title: &str, count: u64, cve: Option<&str>, w: &mut Writer<'_>) {
    w.str(title);
    w.u64(count);
    w.opt_str(cve);
}

pub(crate) fn decode_crash(
    r: &mut Reader<'_>,
) -> Result<(String, u64, Option<String>), DecodeError> {
    Ok((r.str()?, r.u64()?, r.opt_str()?))
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
    w.u64s(e.contributed.words());
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

pub(crate) fn encode_shard(s: &ShardSnapshot, w: &mut Writer<'_>) {
    w.u32(s.id);
    w.u64(s.epoch);
    w.u64(s.rng_pick);
    w.u64(s.remaining);
    w.u64(s.fuel_exhausted);
    for word in s.gen_rng {
        w.u64(word);
    }
    w.u64(s.corpus_rng);
    w.u64s(s.corpus_coverage.words());
    encode_corpus_stats(&s.corpus_stats, w);
    w.seq(&s.corpus_entries, encode_corpus_entry);
    w.seq(&s.crashes, |(title, (count, cve)), w| {
        encode_crash(title, *count, cve.as_deref(), w);
    });
    w.seq(&s.triage_seen, encode_signature);
}

pub(crate) fn decode_shard(r: &mut Reader<'_>) -> Result<ShardSnapshot, DecodeError> {
    Ok(ShardSnapshot {
        id: r.u32()?,
        epoch: r.u64()?,
        rng_pick: r.u64()?,
        remaining: r.u64()?,
        fuel_exhausted: r.u64()?,
        gen_rng: decode_rng(r)?,
        corpus_rng: r.u64()?,
        corpus_coverage: decode_coverage(r)?,
        corpus_stats: decode_corpus_stats(r)?,
        corpus_entries: r.seq(decode_corpus_entry)?,
        crashes: r
            .seq(decode_crash)?
            .into_iter()
            .map(|(title, count, cve)| (title, (count, cve)))
            .collect(),
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
    use crate::campaign::CrashTally;
    use kgpt_syzlang::prog::ProgCall;
    use kgpt_syzlang::Value;
    use kgpt_vkernel::{CrashSignature, SanitizerKind, Sysno};
    use std::collections::BTreeSet;

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
        let mut crashes = CrashTally::new();
        crashes.insert("bug a".into(), (3, Some("CVE-2023-0001".into())));
        crashes.insert("bug b".into(), (1, None));
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
                corpus_rng: 99,
                corpus_coverage: cov(&[1, 2, 64, 500]),
                corpus_entries: vec![CorpusEntry {
                    program: prog(1),
                    contributed: cov(&[64]),
                    execs: 12,
                    hits: 2,
                }],
                corpus_stats: CorpusStats {
                    admitted: 5,
                    imported: 1,
                    evicted: 2,
                },
                crashes,
                triage_seen: seen,
                epoch: 7,
                rng_pick: 0x1234,
                remaining: 1000,
                fuel_exhausted: 3,
            }],
            hub_top_k: 4,
            hub_published: 17,
            hub_coverage: cov(&[1, 2]),
            hub_seeds: vec![HubSeed {
                shard: 0,
                program: prog(2),
                contributed: cov(&[2]),
            }],
            triage,
            // Opaque to the checkpoint layer: any bytes round-trip.
            traces: vec![(0, vec![0xAB, 0xCD, 0xEF])],
        }
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

    /// Format stability: recorded before the port onto
    /// `kgpt_syzlang::codec` (see `tests/wire_golden.rs`). A mismatch
    /// means the on-disk layout changed and `VERSION` must bump.
    #[test]
    fn golden_bytes() {
        let bytes = sample().to_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (589, 0x2f5d_d32c_76f5_0ac6));
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

        // An unknown version and the pre-trace version 1 alike: a
        // reader never guesses at a layout it was not built for.
        for version in [0xFF, 1] {
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
