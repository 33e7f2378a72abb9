//! # kgpt-trace — the flight recorder
//!
//! Compact per-exec trace capture and offline storage: every
//! execution a campaign shard runs can leave behind a self-contained
//! [`ExecTrace`] — tens of bytes of stream per exec (see the `trace`
//! section of `fuzz_bench`) — from which the deterministic replayer in
//! `kgpt-fuzzer` re-executes the exec bit-identically and
//! cross-checks the recorded block stream against the live run.
//!
//! ## What recording costs, and when it is paid
//!
//! A campaign retains a bounded ring per shard, so all but a fraction
//! of a percent of the execs it records are evicted without ever
//! being read (`trace.retained_ratio` ≈ 0.006 on the benchmark's
//! durable workload). The layers below are therefore split in time:
//! layer 1 (event capture) runs on every exec and is cheap — appends
//! to a reused buffer; layers 2 and 3 (delta coding and framing) run
//! at **seal time**, when a trace is actually read — the stores a
//! traced run returns, the first pin of a crash signature, and the
//! ring traces a checkpoint has to carry. `kgpt-fuzzer`'s recorder
//! keeps ring slots raw (the program and its event list) until then
//! and hands them over through [`TraceStore::from_traces`].
//! "Retained" thus costs one encode per trace that survives to a
//! read, not one per exec; and because [`encode_events`] is pure, a
//! store sealed late is byte-for-byte the store eager encoding would
//! have built. A checkpoint is not a read of the whole ring: under
//! the trim rule of the replay contract below it carries only the
//! ring traces the next epoch cannot push out — none of them when an
//! epoch is at least as long as the ring, as with the default ring of
//! 32 — so a checkpointing campaign seals its pinned crash traces
//! once and its ring once, when it returns.
//!
//! ## Protocol overview
//!
//! The recorder is layered; each layer is independently testable and
//! strictly validated on the way back in:
//!
//! 1. **Event capture** (`kgpt-vkernel`): the kernel's exec path
//!    always appends [`TraceEvent`]s to the per-VM
//!    [`kgpt_vkernel::TraceLog`] — merged `Block {start, len}` runs
//!    for every coverage retirement, executor-injected `Call {index}`
//!    markers at syscall boundaries, and a `Crash {site}` marker when
//!    a sanitizer fires. The log is the exec's one record of its
//!    coverage — the fuzzer's admission test reads its runs — so there
//!    is nothing to switch on: a recorder only decides what it files.
//!
//! 2. **Delta coding** ([`encode_events`]/[`decode_events`]): the
//!    event list is bit-packed against a static prediction table
//!    ([`CfgSuccessors`], built from the booted kernel's block
//!    layout). Tokens are prefix-free, LSB-first within bytes:
//!
//!    ```text
//!    0                         PRED    + varint(len-1)
//!    10                        CALL    + varint(index delta)
//!    110                       DIVERGE + svarint(start - predicted) + varint(len-1)
//!    1110                      CRASH   + svarint(site - prev_block)
//!    1111                      END
//!    ```
//!
//!    A `PRED` block starts exactly where the table predicts from the
//!    previous block, so the common straight-line case costs one bit
//!    plus a short length. `varint` is a 5-bit-chunk little-endian
//!    code (`[more:1][data:4]`, at most 16 chunks); `svarint` zigzags
//!    a signed delta through it. Both the recorder and the replayer
//!    must use the same table for streams to compare byte-for-byte —
//!    which holds because the table is a pure function of the booted
//!    kernel.
//!
//!    **Tokens are read and written whole.** The writer puts a token's
//!    prefix, or one varint chunk, into a 64-bit accumulator in one
//!    step and flushes whole words; the reader looks at the stream
//!    through a little-endian 64-bit window, classifies a prefix in one
//!    look and reads each chunk in one more. The prediction is one
//!    probe of the table's jump table ([`CfgSuccessors`]). The writer's
//!    words can go to a buffer ([`encode_events`],
//!    [`encode_events_into`]) or be compared with a recorded stream as
//!    they are made ([`stream_matches`]), and the reader can hand its
//!    events to a visitor ([`walk_events`]) instead of a list
//!    ([`decode_events`]).
//!
//!    **The accepted set is exactly the encoder's image**: for every
//!    stream [`decode_events`] accepts, [`encode_events`] of the events
//!    it returns gives back the same bytes and bit length. So besides
//!    truncation, bad lengths, set padding bits, out-of-range deltas
//!    and trailing bits, the decoder refuses the two spellings the
//!    encoder never writes: a varint whose last chunk after the first
//!    carries no data, and a `DIVERGE` whose delta is 0 (that block is
//!    a `PRED`). A stream that decodes therefore names one event list,
//!    and a trace the replayer could only call divergent because its
//!    stream is not canonical is refused as malformed instead.
//!
//! 3. **Trace framing** ([`ExecTrace`]): the stream plus everything
//!    replay needs — shard, epoch, per-shard exec ordinal, fuel
//!    budget, spec fingerprint, crash signature, and the encoded
//!    [`Program`] — composed from the workspace codec
//!    ([`kgpt_syzlang::codec`]).
//!
//! 4. **Storage** ([`TraceStore`]): a per-shard ring of the last N
//!    non-crashing traces plus a **pinned** map of crash traces
//!    (first trace per [`CrashSignature`] is kept forever; later
//!    execs can never evict it). An epoch-driven campaign also trims
//!    the ring where each epoch starts (replay contract, below). A
//!    store serializes as a plain element ([`TraceStore::encode`] —
//!    how campaign checkpoints embed theirs, so traces survive
//!    resume) or inside its own [`kgpt_syzlang::codec`] envelope
//!    ([`TraceStore::to_bytes`] — the unit of standalone trace files,
//!    [`write_trace_file`]).
//!
//! Decoding is strict at every layer: truncation, bit flips and
//! garbage return [`TraceError`], never panic — pinned by the
//! robustness tests below, mirroring the checkpoint and fabric-wire
//! codecs.
//!
//! ## Replay contract
//!
//! An [`ExecTrace`] identifies its execution completely: the encoded
//! program, the spec fingerprint (refusing replay against the wrong
//! suite), and the fuel budget. Re-executing the program on the same
//! booted kernel with the same fuel limit reproduces the recorded
//! event stream bit-for-bit — the campaign loop is deterministic and
//! an exec's events depend only on (program, kernel, fuel). The
//! replayer (`kgpt-fuzzer`'s `flight` module) checks the recorded
//! stream where it reads it ([`walk_events`]), encodes the live events
//! with the same table against the recorded words ([`stream_matches`])
//! and demands byte equality plus matching crash signatures — building
//! no event list and no second stream.
//!
//! **Which execs a campaign's store holds.** Every pinned crash trace,
//! always. Of the ring, a sharded campaign keeps less than "the last
//! `cap` non-crashing execs" in one respect: a shard starts each epoch
//! of `n = min(hub_epoch, remaining)` execs by dropping all but the
//! newest `cap − n` ring traces (none when `n ≥ cap`; nothing is
//! dropped when `n = 0`, a shard that has finished). The epoch may
//! record up to `n` traces, and how many of the older ones those
//! would have displaced depends on how many of its execs crash —
//! which nobody knows at the boundary. Dropping them up front makes
//! the ring at every boundary a function of boundary state alone, and
//! that is what lets a checkpoint leave them out: it persists the
//! pinned traces and the newest `cap − n_next` ring traces, and what
//! it omits is exactly what the uninterrupted run drops before it
//! records anything else. So **a campaign resumed from any boundary
//! returns stores equal to the uninterrupted run's**, for every
//! `(trace_ring, hub_epoch)` and at any thread count (pinned by
//! `tests/durability.rs`), and a traced run returns the same stores
//! whether or not it checkpoints. The price: once warm, a ring holds
//! between `cap − c` and `cap` traces, `c` the crashing execs of the
//! epoch in progress, where an untrimmed ring would always hold
//! `cap`; when the epoch in progress is longer than the ring and has
//! recorded `cap` non-crashing execs the two are the same ring. A
//! ring as deep as a shard's whole budget (`trace_ring = execs /
//! shards`) is never trimmed and retains every non-crashing exec; a
//! campaign with the hub off, and a sequential one, is a single epoch
//! and trims an empty ring.
//!
//! Because no reader ever sees more of an epoch's ring than the next
//! epoch keeps, a shard **files an epoch's ring slots only if a reader
//! can see it** (*live*): if the shard finishes with it, or if
//! `cap > n_next`. Any other epoch files no ring slot, and still pins
//! the first trace of every crash signature it meets, from the events
//! the exec logged — as a live epoch does; no exec is run again to be
//! pinned. Every store a finished, resumed or checkpointed campaign
//! returns is unchanged by it. A run halted at a boundary returns its
//! stores as they stand: after a dead epoch, the pinned traces and an
//! empty ring — what the checkpoint at that boundary holds.

use kgpt_syzlang::codec::{frame, unframe, DecodeError, Reader, Writer};
use kgpt_syzlang::lowered::CfgSuccessors;
use kgpt_syzlang::prog::Program;
use kgpt_vkernel::{CrashSignature, SanitizerKind, Sysno, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

pub use kgpt_syzlang::codec::fnv1a;
pub use kgpt_syzlang::lowered::CfgRun;

/// File magic of a serialized [`TraceStore`].
const STORE_MAGIC: &[u8; 8] = b"KGPTTRCE";

/// File magic of a multi-store trace file ([`write_trace_file`]).
const FILE_MAGIC: &[u8; 8] = b"KGPTTRCF";

/// Current trace format version (store and file framing). Bumped on
/// any layout change; a reader never guesses at an unknown version.
/// (Version 2: the envelope carries `codec::checksum`.)
const VERSION: u32 = 2;

/// Error decoding or validating trace data (truncation, bitrot,
/// malformed fields, fingerprint mismatches). Always names the
/// failing stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// What went wrong.
    pub message: String,
}

impl TraceError {
    /// Build an error from any displayable message (consumers layering
    /// their own checks — e.g. the replayer's fingerprint validation —
    /// report through the same type).
    pub fn new(message: impl Into<String>) -> TraceError {
        TraceError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> TraceError {
        TraceError::new(format!("trace data: {e}"))
    }
}

/// Write a [`CrashSignature`] (`sysno u8 | chain_depth u8 |
/// sanitizer u8 | site u64`) — the one layout the trace header and
/// the checkpoint/fabric codecs in `kgpt-fuzzer` share.
pub fn encode_signature(sig: &CrashSignature, w: &mut Writer<'_>) {
    w.u8(sig.sysno.as_index());
    w.u8(sig.chain_depth);
    w.u8(sig.sanitizer.as_index());
    w.u64(sig.site);
}

/// Read a [`CrashSignature`] written by [`encode_signature`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or an out-of-range
/// syscall / sanitizer index.
pub fn decode_signature(r: &mut Reader<'_>) -> Result<CrashSignature, DecodeError> {
    Ok(CrashSignature {
        sysno: Sysno::from_index(r.u8()?).ok_or_else(|| r.err("bad sysno index"))?,
        chain_depth: r.u8()?,
        sanitizer: SanitizerKind::from_index(r.u8()?)
            .ok_or_else(|| r.err("bad sanitizer index"))?,
        site: r.u64()?,
    })
}

// ---- bit-level coding -----------------------------------------------------

/// Where a [`BitWriter`] puts each whole 64-bit word of the stream.
trait Words {
    /// Take the next word, little-endian; `false` stops the encoder (a
    /// comparison that has already failed).
    fn word(&mut self, word: u64) -> bool;
}

/// Encoding appends the stream's bytes.
impl Words for &mut Vec<u8> {
    fn word(&mut self, word: u64) -> bool {
        self.extend_from_slice(&word.to_le_bytes());
        true
    }
}

/// Encoding compares against a recorded stream: `rest` is what the
/// words so far have not matched yet.
struct Compare<'a> {
    rest: &'a [u8],
}

impl Words for Compare<'_> {
    fn word(&mut self, word: u64) -> bool {
        match self.rest.split_first_chunk::<8>() {
            Some((head, tail)) if u64::from_le_bytes(*head) == word => {
                self.rest = tail;
                true
            }
            _ => false,
        }
    }
}

/// LSB-first bit writer for the token stream: tokens and varint chunks
/// go into a 64-bit accumulator whole, and the accumulator goes out a
/// word at a time.
struct BitWriter<W> {
    out: W,
    /// Pending bits, the oldest lowest; `fill` of them are in use.
    acc: u64,
    fill: u32,
    bits: u32,
    /// Whether `out` still takes words.
    open: bool,
}

impl<W: Words> BitWriter<W> {
    fn new(out: W) -> BitWriter<W> {
        BitWriter {
            out,
            acc: 0,
            fill: 0,
            bits: 0,
            open: true,
        }
    }

    /// Append the low `n` bits of `v` (`n ≤ 32`, no bit above them set),
    /// the lowest first.
    #[inline]
    fn put(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 32 && v >> n == 0);
        self.acc |= v << self.fill;
        self.fill += n;
        self.bits += n;
        if self.fill >= 64 {
            if self.open {
                self.open = self.out.word(self.acc);
            }
            self.fill -= 64;
            // The bits of `v` that did not fit (none when `fill` is 0:
            // `v >> n` is 0).
            self.acc = v >> (n - self.fill);
        }
    }

    /// Little-endian variable-length code: 5-bit chunks of
    /// `[more:1][data:4]`, low data bits first, at most 16 chunks.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        loop {
            let chunk = v & 0xF;
            v >>= 4;
            let more = v != 0;
            self.put(u64::from(more) | chunk << 1, 5);
            if !more {
                break;
            }
        }
    }

    /// Zigzag a signed delta through [`BitWriter::varint`].
    fn svarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// The bytes of the last, partial word: `fill` bits, zero-padded to
    /// whole bytes.
    fn tail(&self) -> ([u8; 8], usize) {
        (self.acc.to_le_bytes(), self.fill.div_ceil(8) as usize)
    }
}

impl BitWriter<&mut Vec<u8>> {
    /// Append the last, partial word; the stream's bit length.
    fn finish(self) -> u32 {
        let (tail, len) = self.tail();
        self.out.extend_from_slice(&tail[..len]);
        self.bits
    }
}

/// LSB-first bit reader over a little-endian 64-bit window; every read
/// is bounds-checked against the declared bit length.
struct BitReader<'a> {
    /// The bytes not yet loaded into the window.
    rest: &'a [u8],
    /// The next `have` bits of the stream, the next lowest; zero above
    /// them. Refilled to at least 57 bits while bytes remain, so a token
    /// prefix or a varint chunk is one look at it; past the stream's end
    /// it reads zeros (the padding is zero too), and a token classified
    /// there is refused by [`BitReader::take`].
    window: u64,
    have: u32,
    /// Declared bits not yet read.
    left: u32,
}

/// A token's prefix, classified by one look at the stream.
enum Token {
    Pred,
    Call,
    Diverge,
    Crash,
    End,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8], bits: u32) -> Result<BitReader<'a>, TraceError> {
        if (bits as usize).div_ceil(8) != bytes.len() {
            return Err(TraceError::new(format!(
                "trace stream length mismatch: {} bits declared, {} bytes present",
                bits,
                bytes.len()
            )));
        }
        // The writer zero-fills the final partial byte; any set padding
        // bit means the stream was not produced by the encoder.
        if let Some(&last) = bytes.last() {
            let used = bits % 8;
            if used != 0 && last >> used != 0 {
                return Err(TraceError::new("nonzero padding bits in trace stream"));
            }
        }
        let mut r = BitReader {
            rest: bytes,
            window: 0,
            have: 0,
            left: bits,
        };
        r.refill();
        Ok(r)
    }

    /// Load whole bytes into the window while a byte fits: eight at a
    /// time while eight remain, then one by one.
    #[inline]
    fn refill(&mut self) {
        if self.have > 56 {
            return;
        }
        let fit = (64 - self.have) / 8;
        if let Some((word, _)) = self.rest.split_first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            let word = if fit == 8 {
                word
            } else {
                word & ((1 << (8 * fit)) - 1)
            };
            self.window |= word << self.have;
            self.have += 8 * fit;
            self.rest = &self.rest[fit as usize..];
        } else {
            while self.have <= 56 {
                let Some((&byte, rest)) = self.rest.split_first() else {
                    break;
                };
                self.window |= u64::from(byte) << self.have;
                self.have += 8;
                self.rest = rest;
            }
        }
    }

    /// Consume `n ≤ 5` bits.
    #[inline]
    fn take(&mut self, n: u32) -> Result<(), TraceError> {
        if self.left < n {
            return Err(TraceError::new("trace stream ended mid-token"));
        }
        // `left ≥ n` bits remain, so the window holds at least `n`.
        self.left -= n;
        self.window >>= n;
        self.have -= n;
        self.refill();
        Ok(())
    }

    /// Read a token prefix: `0`, `10`, `110`, `1110` or `1111`.
    #[inline]
    fn token(&mut self) -> Result<Token, TraceError> {
        let ones = (!self.window).trailing_zeros().min(4);
        self.take((ones + 1).min(4))?;
        Ok(match ones {
            0 => Token::Pred,
            1 => Token::Call,
            2 => Token::Diverge,
            3 => Token::Crash,
            _ => Token::End,
        })
    }

    /// A [`BitWriter::varint`]: one look at the stream per chunk. Only
    /// the minimal encoding is accepted — a last chunk after the first
    /// carries a nonzero digit — since that is all the writer writes.
    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        for chunk in 0..16 {
            let c = self.window & 0x1F;
            self.take(5)?;
            let data = c >> 1;
            v |= data << (4 * chunk);
            if c & 1 == 0 {
                if data == 0 && chunk > 0 {
                    return Err(TraceError::new("non-minimal varint in trace stream"));
                }
                return Ok(v);
            }
        }
        Err(TraceError::new("varint longer than 16 chunks"))
    }

    fn svarint(&mut self) -> Result<i64, TraceError> {
        let z = self.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

// ---- event-stream coding --------------------------------------------------

/// Delta-code an event list into a bit-packed token stream (see the
/// crate docs for the token grammar). Returns the packed bytes and
/// the exact bit length. Pure: the same `(table, events)` pair always
/// produces the same bytes, which is what lets the replayer compare
/// streams byte-for-byte.
#[must_use]
pub fn encode_events(cfg: &CfgSuccessors, events: &[TraceEvent]) -> (Vec<u8>, u32) {
    let mut stream = Vec::new();
    let bits = encode_events_into(cfg, events, &mut stream);
    (stream, bits)
}

/// [`encode_events`], appending the stream to `out` (a buffer the
/// caller keeps); returns its bit length.
pub fn encode_events_into(cfg: &CfgSuccessors, events: &[TraceEvent], out: &mut Vec<u8>) -> u32 {
    let mut w = BitWriter::new(out);
    write_events(cfg, events, &mut w);
    w.finish()
}

/// Whether [`encode_events`] of `events` is exactly `(stream, bits)`,
/// found without building the stream: the encoder compares each word
/// as it would write it, and stops at the first that differs.
#[must_use]
pub fn stream_matches(
    cfg: &CfgSuccessors,
    events: &[TraceEvent],
    stream: &[u8],
    bits: u32,
) -> bool {
    let mut w = BitWriter::new(Compare { rest: stream });
    write_events(cfg, events, &mut w);
    let (tail, len) = w.tail();
    w.open && w.bits == bits && w.out.rest == &tail[..len]
}

/// The encoder proper, into any [`Words`]; stops early when they do.
fn write_events<W: Words>(cfg: &CfgSuccessors, events: &[TraceEvent], w: &mut BitWriter<W>) {
    let mut prev_block = 0u64;
    let mut next_call = 0u32;
    for ev in events {
        if !w.open {
            return;
        }
        match *ev {
            TraceEvent::Block { start, len } => {
                if len == 0 {
                    continue;
                }
                let predicted = cfg.predict(prev_block);
                if start == predicted {
                    w.put(0b0, 1);
                } else {
                    w.put(0b011, 3);
                    w.svarint((start as i64).wrapping_sub(predicted as i64));
                }
                w.varint(u64::from(len - 1));
                prev_block = start.wrapping_add(u64::from(len) - 1);
            }
            TraceEvent::Call { index } => {
                w.put(0b01, 2);
                w.varint(u64::from(index.wrapping_sub(next_call)));
                next_call = index.wrapping_add(1);
            }
            TraceEvent::Crash { site } => {
                w.put(0b0111, 4);
                w.svarint((site as i64).wrapping_sub(prev_block as i64));
            }
        }
    }
    w.put(0b1111, 4);
}

/// Decode a token stream produced by [`encode_events`] back into the
/// event list, using the same prediction table.
///
/// # Errors
///
/// As [`walk_events`].
pub fn decode_events(
    cfg: &CfgSuccessors,
    stream: &[u8],
    bits: u32,
) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    walk_events(cfg, stream, bits, |ev| events.push(ev))?;
    Ok(events)
}

/// Check a token stream and hand `visit` each event it holds, in order,
/// building nothing — [`decode_events`] collects them, the replayer
/// only counts blocks. A stream is accepted only if [`encode_events`]
/// writes it (crate docs).
///
/// # Errors
///
/// Returns a [`TraceError`] on truncation (stream ends before `END`),
/// length mismatches, nonzero padding, non-minimal varints, a zero
/// `DIVERGE` delta, out-of-range deltas, or trailing bits after `END`
/// — strict, never a panic. `visit` may have seen the events before
/// the fault.
pub fn walk_events(
    cfg: &CfgSuccessors,
    stream: &[u8],
    bits: u32,
    mut visit: impl FnMut(TraceEvent),
) -> Result<(), TraceError> {
    let mut r = BitReader::new(stream, bits)?;
    let mut prev_block = 0u64;
    let mut next_call = 0u32;
    loop {
        match r.token()? {
            Token::Pred => {
                // The block run starts where the table predicts.
                let start = cfg.predict(prev_block);
                let len = take_len(&mut r)?;
                prev_block = end_of_run(start, len)?;
                visit(TraceEvent::Block { start, len });
            }
            Token::Call => {
                let delta = u32::try_from(r.varint()?)
                    .map_err(|_| TraceError::new("call-index delta out of range"))?;
                let index = next_call.wrapping_add(delta);
                next_call = index.wrapping_add(1);
                visit(TraceEvent::Call { index });
            }
            Token::Diverge => {
                let delta = r.svarint()?;
                if delta == 0 {
                    // The writer says PRED for a predicted start.
                    return Err(TraceError::new("DIVERGE token with a zero delta"));
                }
                let start = offset_block(cfg.predict(prev_block), delta)?;
                let len = take_len(&mut r)?;
                prev_block = end_of_run(start, len)?;
                visit(TraceEvent::Block { start, len });
            }
            Token::Crash => {
                let site = offset_block(prev_block, r.svarint()?)?;
                visit(TraceEvent::Crash { site });
            }
            Token::End => break,
        }
    }
    if r.left != 0 {
        return Err(TraceError::new(format!(
            "{} trailing bits after trace END token",
            r.left
        )));
    }
    Ok(())
}

/// Read a `len-1` varint and return the run length as `u32`.
fn take_len(r: &mut BitReader<'_>) -> Result<u32, TraceError> {
    let v = r.varint()?;
    v.checked_add(1)
        .and_then(|l| u32::try_from(l).ok())
        .ok_or_else(|| TraceError::new("block-run length out of range"))
}

/// Apply a signed delta to a block id, rejecting wraparound.
fn offset_block(base: u64, delta: i64) -> Result<u64, TraceError> {
    let v = i128::from(base) + i128::from(delta);
    u64::try_from(v).map_err(|_| TraceError::new("block id out of range"))
}

/// Last block id of a run, rejecting wraparound.
fn end_of_run(start: u64, len: u32) -> Result<u64, TraceError> {
    start
        .checked_add(u64::from(len) - 1)
        .ok_or_else(|| TraceError::new("block run past the id space"))
}

// ---- trace framing --------------------------------------------------------

/// One recorded execution: the delta-coded event stream plus the
/// complete replay header (see the crate docs' replay contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecTrace {
    /// Shard that ran the exec.
    pub shard: u32,
    /// Shard epoch the exec ran in.
    pub epoch: u64,
    /// Shard-local exec ordinal (0-based over the shard's lifetime).
    pub exec: u64,
    /// Per-exec fuel budget the exec ran under (0 = unlimited);
    /// replay must reuse it for exhaustion to reproduce.
    pub exec_fuel: u64,
    /// Fingerprint of the compiled spec suite the program was
    /// generated against; replay refuses a mismatch.
    pub spec_fingerprint: u64,
    /// Whether the exec exhausted its fuel budget.
    pub fuel_exhausted: bool,
    /// Crash signature, when the exec crashed.
    pub crash: Option<CrashSignature>,
    /// The executed [`Program`], encoded with
    /// [`Program::encode_into`].
    pub program: Vec<u8>,
    /// Delta-coded event stream ([`encode_events`]).
    pub stream: Vec<u8>,
    /// Exact bit length of `stream`.
    pub stream_bits: u32,
}

impl ExecTrace {
    /// Decode the recorded program.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the embedded program bytes are
    /// malformed or carry trailing garbage.
    pub fn decode_program(&self) -> Result<Program, TraceError> {
        let mut r = Reader::new(&self.program);
        let prog = Program::decode(&mut r)?;
        r.finish()?;
        Ok(prog)
    }

    /// Write the trace as an element of a larger payload (a store, a
    /// checkpoint journal record).
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.u32(self.shard);
        w.u64(self.epoch);
        w.u64(self.exec);
        w.u64(self.exec_fuel);
        w.u64(self.spec_fingerprint);
        w.u8(u8::from(self.fuel_exhausted) | u8::from(self.crash.is_some()) << 1);
        if let Some(sig) = &self.crash {
            encode_signature(sig, w);
        }
        w.bytes(&self.program);
        w.u32(self.stream_bits);
        w.bytes(&self.stream);
    }

    /// Read a trace written by [`ExecTrace::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed fields.
    pub fn decode(r: &mut Reader<'_>) -> Result<ExecTrace, DecodeError> {
        let shard = r.u32()?;
        let epoch = r.u64()?;
        let exec = r.u64()?;
        let exec_fuel = r.u64()?;
        let spec_fingerprint = r.u64()?;
        let flags = r.u8()?;
        if flags & !3 != 0 {
            return Err(r.err("unknown trace flags"));
        }
        let crash = if flags & 2 != 0 {
            Some(decode_signature(r)?)
        } else {
            None
        };
        let program = r.bytes()?.to_vec();
        let stream_bits = r.u32()?;
        let stream = r.bytes()?.to_vec();
        if (stream_bits as usize).div_ceil(8) != stream.len() {
            return Err(r.err("trace stream length mismatch"));
        }
        Ok(ExecTrace {
            shard,
            epoch,
            exec,
            exec_fuel,
            spec_fingerprint,
            fuel_exhausted: flags & 1 != 0,
            crash,
            program,
            stream,
            stream_bits,
        })
    }
}

// ---- storage --------------------------------------------------------------

/// Per-shard trace retention: a bounded ring of the most recent
/// non-crashing traces plus a pinned map of crash traces.
///
/// Crash-path execs are **always retained**: the first trace per
/// [`CrashSignature`] goes into the pinned map and later execs can
/// never overwrite or evict it, regardless of ring churn — the fix
/// the crash-replay CI smoke relies on. Non-crashing traces share the
/// ring; when full, the oldest is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStore {
    /// Ring capacity (non-crash traces retained).
    cap: usize,
    /// Total executions recorded into this store over its lifetime.
    execs_seen: u64,
    /// Most recent non-crashing traces, oldest first.
    ring: VecDeque<ExecTrace>,
    /// First trace per crash signature, pinned forever.
    pinned: BTreeMap<CrashSignature, ExecTrace>,
}

impl TraceStore {
    /// Empty store retaining up to `cap` non-crash traces.
    #[must_use]
    pub fn new(cap: usize) -> TraceStore {
        TraceStore {
            cap,
            execs_seen: 0,
            ring: VecDeque::new(),
            pinned: BTreeMap::new(),
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Total executions recorded over the store's lifetime (including
    /// every trace the ring has since dropped).
    #[must_use]
    pub fn execs_seen(&self) -> u64 {
        self.execs_seen
    }

    /// Record one exec's trace: crash traces are pinned
    /// (first-per-signature wins, never evicted), the rest rotate
    /// through the ring.
    pub fn record(&mut self, trace: ExecTrace) {
        self.execs_seen += 1;
        self.file(trace);
    }

    /// Where a trace goes, by its own `crash` field — the store's
    /// invariants (no crash in the ring, a ring within `cap`, one
    /// pinned trace per signature) hold after it whatever it is given.
    fn file(&mut self, trace: ExecTrace) {
        if let Some(sig) = trace.crash {
            self.pinned.entry(sig).or_insert(trace);
            return;
        }
        if self.cap == 0 {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(trace);
    }

    /// The ring of retained non-crash traces, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &ExecTrace> {
        self.ring.iter()
    }

    /// The pinned crash traces, in signature order.
    pub fn pinned(&self) -> impl Iterator<Item = (&CrashSignature, &ExecTrace)> {
        self.pinned.iter()
    }

    /// The pinned trace for `sig`, if this store saw the crash.
    #[must_use]
    pub fn pinned_for(&self, sig: &CrashSignature) -> Option<&ExecTrace> {
        self.pinned.get(sig)
    }

    /// Every retained trace: the ring (oldest first) then the pinned
    /// crash traces (signature order).
    pub fn iter(&self) -> impl Iterator<Item = &ExecTrace> {
        self.ring.iter().chain(self.pinned.values())
    }

    /// Number of retained traces (ring + pinned).
    #[must_use]
    pub fn retained(&self) -> usize {
        self.ring.len() + self.pinned.len()
    }

    /// Number of pinned crash traces.
    #[must_use]
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Total encoded-stream bytes across retained traces (what the
    /// bits-per-exec bench metric amortizes over the campaign).
    #[must_use]
    pub fn stream_bytes(&self) -> u64 {
        self.iter().map(|t| t.stream.len() as u64).sum()
    }

    /// Total encoded-stream bits across retained traces.
    #[must_use]
    pub fn stream_bits(&self) -> u64 {
        self.iter().map(|t| u64::from(t.stream_bits)).sum()
    }

    /// A store that has seen `execs_seen` executions and retains
    /// `traces` (ring traces oldest first; crash traces anywhere),
    /// each filed as [`TraceStore::record`] files it. Total: the
    /// invariants hold by construction, so this is how a recorder that
    /// keeps its own books — the campaign's, whose ring stays unsealed
    /// until a store is read — hands over what it retained.
    #[must_use]
    pub fn from_traces(
        cap: usize,
        execs_seen: u64,
        traces: impl IntoIterator<Item = ExecTrace>,
    ) -> TraceStore {
        let mut store = TraceStore {
            execs_seen,
            ..TraceStore::new(cap)
        };
        for trace in traces {
            store.file(trace);
        }
        store
    }

    /// Move the store on to a later boundary of the recorder it was
    /// read from: it has now seen `execs_seen` executions, kept the
    /// newest `keep` of its ring traces, and retained `traces` since
    /// (each filed as [`TraceStore::record`] files it). Total like
    /// [`TraceStore::from_traces`] — how a checkpoint journal record
    /// brings its base's store up to date.
    pub fn advance(
        &mut self,
        execs_seen: u64,
        keep: usize,
        traces: impl IntoIterator<Item = ExecTrace>,
    ) {
        self.execs_seen = execs_seen;
        self.ring.drain(..self.ring.len().saturating_sub(keep));
        for trace in traces {
            self.file(trace);
        }
    }

    /// Assemble a store from parts somebody else wrote: `ring` oldest
    /// first, `pinned` in any order. Strict where
    /// [`TraceStore::from_traces`] is total — the decoder comes
    /// through here, and a part in the wrong place means the bytes
    /// were not a store's.
    ///
    /// # Errors
    ///
    /// Names the broken invariant: a ring trace carrying a crash, a
    /// ring longer than `cap`, a pinned trace without a crash, or two
    /// pinned traces for one signature.
    pub fn from_parts(
        cap: usize,
        execs_seen: u64,
        ring: impl IntoIterator<Item = ExecTrace>,
        pinned: impl IntoIterator<Item = ExecTrace>,
    ) -> Result<TraceStore, &'static str> {
        let ring: VecDeque<ExecTrace> = ring.into_iter().collect();
        if ring.iter().any(|t| t.crash.is_some()) {
            return Err("crash trace in the non-crash ring");
        }
        if ring.len() > cap {
            return Err("trace ring larger than its capacity");
        }
        let mut by_sig = BTreeMap::new();
        for t in pinned {
            let Some(sig) = t.crash else {
                return Err("pinned trace without a crash signature");
            };
            if by_sig.insert(sig, t).is_some() {
                return Err("duplicate pinned crash signature");
            }
        }
        Ok(TraceStore {
            cap,
            execs_seen,
            ring,
            pinned: by_sig,
        })
    }

    /// Take the store apart: the ring (oldest first) and the pinned
    /// crash traces, by value.
    #[must_use]
    pub fn into_parts(self) -> (VecDeque<ExecTrace>, BTreeMap<CrashSignature, ExecTrace>) {
        (self.ring, self.pinned)
    }

    /// Write the store as an element of a larger payload (a campaign
    /// checkpoint embeds its stores this way, under its own checksum).
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.u64(self.cap as u64);
        w.u64(self.execs_seen);
        w.seq(&self.ring, ExecTrace::encode);
        w.seq(self.pinned.values(), ExecTrace::encode);
    }

    /// Read a store written by [`TraceStore::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed fields or a broken store
    /// invariant (see [`TraceStore::from_parts`]).
    pub fn decode(r: &mut Reader<'_>) -> Result<TraceStore, DecodeError> {
        let cap =
            usize::try_from(r.u64()?).map_err(|_| r.err("trace ring capacity out of range"))?;
        let execs_seen = r.u64()?;
        let ring = r.seq(ExecTrace::decode)?;
        let pinned = r.seq(ExecTrace::decode)?;
        TraceStore::from_parts(cap, execs_seen, ring, pinned).map_err(|e| r.err(e))
    }

    /// Serialize inside the [`kgpt_syzlang::codec`] envelope.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(STORE_MAGIC, VERSION, |w| self.encode(w))
    }

    /// Parse a store previously produced by [`TraceStore::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on wrong magic, unknown version,
    /// checksum mismatch (truncation/bitrot), malformed fields,
    /// ring traces carrying a crash, pinned traces missing one, or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceStore, TraceError> {
        let mut r = Reader::new(unframe(STORE_MAGIC, VERSION, bytes)?);
        let store = TraceStore::decode(&mut r)?;
        r.finish()?;
        Ok(store)
    }
}

/// Write one trace file holding the per-shard stores of a campaign
/// (shard-id order): a list of complete store encodings inside an
/// outer envelope.
///
/// # Errors
///
/// Returns a [`TraceError`] when the filesystem rejects the write.
pub fn write_trace_file(path: &Path, stores: &[TraceStore]) -> Result<(), TraceError> {
    let file = frame(FILE_MAGIC, VERSION, |w| {
        w.seq(stores, |s, w| w.bytes(&s.to_bytes()));
    });
    std::fs::write(path, file)
        .map_err(|e| TraceError::new(format!("write {} failed: {e}", path.display())))
}

/// Read a trace file written by [`write_trace_file`].
///
/// # Errors
///
/// Returns a [`TraceError`] when the file cannot be read or any
/// framing/store layer fails validation.
pub fn read_trace_file(path: &Path) -> Result<Vec<TraceStore>, TraceError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TraceError::new(format!("read {} failed: {e}", path.display())))?;
    let mut r = Reader::new(unframe(FILE_MAGIC, VERSION, &bytes)?);
    let mut stores = Vec::new();
    for store_bytes in r.seq(Reader::bytes)? {
        stores.push(TraceStore::from_bytes(store_bytes)?);
    }
    r.finish()?;
    Ok(stores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CfgSuccessors {
        CfgSuccessors::build(vec![
            CfgRun {
                start: 4096,
                len: 4,
                next: None,
            },
            CfgRun {
                start: 4196,
                len: 3,
                next: Some(4228),
            },
            CfgRun {
                start: 4228,
                len: 2,
                next: None,
            },
        ])
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Call { index: 0 },
            TraceEvent::Block {
                start: 4096,
                len: 4,
            },
            TraceEvent::Call { index: 1 },
            TraceEvent::Block {
                start: 4196,
                len: 3,
            },
            TraceEvent::Block {
                start: 4228,
                len: 2,
            },
            TraceEvent::Call { index: 3 },
            TraceEvent::Crash { site: 8096 },
        ]
    }

    fn sig() -> CrashSignature {
        CrashSignature {
            sysno: Sysno::Ioctl,
            chain_depth: 1,
            sanitizer: SanitizerKind::Kmalloc,
            site: 8096,
        }
    }

    fn trace_with(crash: Option<CrashSignature>, exec: u64) -> ExecTrace {
        let (stream, stream_bits) = encode_events(&table(), &sample_events());
        ExecTrace {
            shard: 2,
            epoch: 5,
            exec,
            exec_fuel: 1 << 20,
            spec_fingerprint: 0xFEED_F00D,
            fuel_exhausted: false,
            crash,
            program: vec![0, 0, 0, 0], // empty Program encoding
            stream,
            stream_bits,
        }
    }

    #[test]
    fn varints_round_trip_at_extremes() {
        for v in [0u64, 1, 15, 16, 255, 4096, u64::from(u32::MAX), u64::MAX] {
            let mut bytes = Vec::new();
            let mut w = BitWriter::new(&mut bytes);
            w.varint(v);
            let bits = w.finish();
            let mut r = BitReader::new(&bytes, bits).unwrap();
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut bytes = Vec::new();
            let mut w = BitWriter::new(&mut bytes);
            w.svarint(v);
            let bits = w.finish();
            let mut r = BitReader::new(&bytes, bits).unwrap();
            assert_eq!(r.svarint().unwrap(), v);
        }
    }

    /// A stream from its bits, written first to last as `0`s and `1`s.
    fn stream_of(bits: &str) -> (Vec<u8>, u32) {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, b) in bits.bytes().enumerate() {
            bytes[i / 8] |= u8::from(b == b'1') << (i % 8);
        }
        (bytes, bits.len() as u32)
    }

    /// A `DIVERGE` token whose delta is 0, and a `PRED` whose length
    /// varint ends in a zero chunk, say what the encoder says in 10 bits
    /// (`PRED`, `len - 1 = 0`, `END`): neither is what it writes, so
    /// neither is a stream.
    #[test]
    fn streams_the_encoder_never_writes_are_refused() {
        let cfg = table();
        let canonical = [TraceEvent::Block { start: 1, len: 1 }];
        let (stream, bits) = encode_events(&cfg, &canonical);
        assert_eq!((stream.clone(), bits), stream_of("0000001111"));
        assert_eq!(decode_events(&cfg, &stream, bits).unwrap(), canonical);
        // DIVERGE, svarint(0), varint(0), END.
        let (stream, bits) = stream_of("110000000000001111");
        let err = decode_events(&cfg, &stream, bits).unwrap_err();
        assert!(err.message.contains("zero delta"), "{err}");
        // PRED, varint chunks [more=1, 0] [more=0, 0], END.
        let (stream, bits) = stream_of("0100000000001111");
        let err = decode_events(&cfg, &stream, bits).unwrap_err();
        assert!(err.message.contains("non-minimal"), "{err}");
        // The same trailing zero chunk in a CALL delta, a DIVERGE delta
        // and a CRASH delta.
        for bits in [
            "10100000000001111",
            "110100000000000000001111",
            "1110100000000001111",
        ] {
            let (stream, n) = stream_of(bits);
            let err = decode_events(&cfg, &stream, n).unwrap_err();
            assert!(err.message.contains("non-minimal"), "{bits}: {err}");
        }
        // A zero chunk that is the whole varint is the minimal zero.
        let (stream, bits) = stream_of("10000001111");
        assert_eq!(
            decode_events(&cfg, &stream, bits).unwrap(),
            [TraceEvent::Call { index: 0 }]
        );
    }

    #[test]
    fn event_streams_round_trip() {
        let cfg = table();
        let events = sample_events();
        let (stream, bits) = encode_events(&cfg, &events);
        assert_eq!(decode_events(&cfg, &stream, bits).unwrap(), events);
        // Empty stream: just the END token.
        let (stream, bits) = encode_events(&cfg, &[]);
        assert_eq!(bits, 4);
        assert_eq!(decode_events(&cfg, &stream, bits).unwrap(), Vec::new());
    }

    #[test]
    fn predicted_successors_compress_the_stream() {
        let cfg = table();
        // 4196..=4198 falls through to 4228 per the table: the second
        // block run costs a 1-bit PRED token instead of a DIVERGE.
        let predicted = [
            TraceEvent::Block {
                start: 4196,
                len: 3,
            },
            TraceEvent::Block {
                start: 4228,
                len: 2,
            },
        ];
        let diverging = [
            TraceEvent::Block {
                start: 4196,
                len: 3,
            },
            TraceEvent::Block {
                start: 5000,
                len: 2,
            },
        ];
        let (_, predicted_bits) = encode_events(&cfg, &predicted);
        let (_, diverging_bits) = encode_events(&cfg, &diverging);
        assert!(
            predicted_bits < diverging_bits,
            "PRED {predicted_bits} bits vs DIVERGE {diverging_bits} bits"
        );
    }

    #[test]
    fn truncated_streams_error_at_every_cut() {
        let cfg = table();
        let (stream, bits) = encode_events(&cfg, &sample_events());
        for cut in 0..bits {
            let bytes = &stream[..(cut as usize).div_ceil(8)];
            // Mask padding so only the truncation itself can trip.
            let mut owned = bytes.to_vec();
            if cut % 8 != 0 {
                if let Some(last) = owned.last_mut() {
                    *last &= (1u16 << (cut % 8)) as u8 - 1;
                }
            }
            assert!(
                decode_events(&cfg, &owned, cut).is_err(),
                "cut at bit {cut} decoded"
            );
        }
    }

    #[test]
    fn garbage_streams_never_panic() {
        let cfg = table();
        let mut rng = 0x1234_5678_9abc_def0u64;
        for _ in 0..256 {
            let len = (rng % 32) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                bytes.push((rng >> 33) as u8);
            }
            let bits = (len * 8) as u32;
            // Any outcome but a panic is acceptable for raw garbage…
            let _ = decode_events(&cfg, &bytes, bits);
            // …and a wrong declared length must error.
            assert!(decode_events(&cfg, &bytes, bits + 8).is_err());
        }
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let cfg = table();
        let (mut stream, bits) = encode_events(&cfg, &sample_events());
        if bits % 8 != 0 {
            *stream.last_mut().unwrap() |= 0x80;
            let err = decode_events(&cfg, &stream, bits).unwrap_err();
            assert!(err.message.contains("padding"), "{err}");
        }
    }

    #[test]
    fn stores_round_trip_and_reject_corruption() {
        let mut store = TraceStore::new(2);
        store.record(trace_with(None, 0));
        store.record(trace_with(Some(sig()), 1));
        store.record(trace_with(None, 2));
        let bytes = store.to_bytes();
        assert_eq!(TraceStore::from_bytes(&bytes).unwrap(), store);
        // Format stability (`golden_bytes`): a mismatch means the
        // layout changed and `VERSION` must bump. The whole store was
        // recorded when `VERSION` became 2 (`codec::checksum` in the
        // envelope); the payload digest dates from before the port
        // onto `kgpt_syzlang::codec` (see `tests/wire_golden.rs`).
        assert_eq!((bytes.len(), fnv1a(&bytes)), (253, 0xb5ae_6de3_8361_f9c3));
        assert_eq!(fnv1a(&bytes[20..]), 0x7106_cc3a_ec6b_d0d8);
        // A version-1 store differs in nothing but its version word
        // and checksum, and is refused for the first.
        let mut v1 = bytes.clone();
        assert_eq!(v1[8..12], 2u32.to_le_bytes());
        v1[8] = 1;
        let e = TraceStore::from_bytes(&v1).unwrap_err();
        assert!(e.message.contains("unsupported version"), "{e}");
        // Truncation at every prefix is rejected, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                TraceStore::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
        // Any single-byte flip is rejected (header checks or checksum).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(TraceStore::from_bytes(&bad).is_err(), "flip at {i} parsed");
        }
    }

    #[test]
    fn garbage_store_bytes_never_panic() {
        let mut rng = 0x0bad_cafe_dead_beefu64;
        for _ in 0..256 {
            let len = (rng % 64) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                bytes.push((rng >> 33) as u8);
            }
            assert!(TraceStore::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn from_traces_files_each_trace_where_record_would() {
        // Crash traces anywhere in the list, a repeated signature,
        // more ring traces than the ring holds: still a valid store.
        let traces = [
            trace_with(None, 0),
            trace_with(Some(sig()), 1),
            trace_with(None, 2),
            trace_with(None, 3),
            trace_with(Some(sig()), 4),
        ];
        let store = TraceStore::from_traces(2, 9, traces.clone());
        let mut recorded = TraceStore::new(2);
        traces.into_iter().for_each(|t| recorded.record(t));
        assert_eq!(store.execs_seen(), 9);
        assert!(store.iter().eq(recorded.iter()));
        assert_eq!(store.iter().map(|t| t.exec).collect::<Vec<_>>(), [2, 3, 1]);
        // The strict decoder agrees that it is one.
        assert_eq!(TraceStore::from_bytes(&store.to_bytes()).unwrap(), store);
    }

    #[test]
    fn crash_traces_are_pinned_and_never_evicted() {
        let mut store = TraceStore::new(2);
        store.record(trace_with(Some(sig()), 7));
        // Churn the ring far past its capacity: the crash trace must
        // survive untouched, first capture wins.
        for i in 0..100 {
            store.record(trace_with(None, 100 + i));
        }
        store.record(trace_with(Some(sig()), 999));
        assert_eq!(store.pinned_len(), 1);
        let pinned = store.pinned_for(&sig()).unwrap();
        assert_eq!(pinned.exec, 7, "first crash capture wins");
        assert_eq!(store.ring().count(), 2);
        assert_eq!(store.execs_seen(), 102);
        // Ring keeps the most recent non-crash traces.
        let execs: Vec<u64> = store.ring().map(|t| t.exec).collect();
        assert_eq!(execs, vec![198, 199]);
    }

    #[test]
    fn zero_capacity_ring_still_pins_crashes() {
        let mut store = TraceStore::new(0);
        store.record(trace_with(None, 0));
        store.record(trace_with(Some(sig()), 1));
        assert_eq!(store.ring().count(), 0);
        assert_eq!(store.pinned_len(), 1);
        assert_eq!(store.retained(), 1);
    }

    #[test]
    fn trace_files_round_trip() {
        let mut a = TraceStore::new(4);
        a.record(trace_with(None, 0));
        let mut b = TraceStore::new(4);
        b.record(trace_with(Some(sig()), 3));
        let path = std::env::temp_dir().join(format!("kgpt_trace_file_{}.trc", std::process::id()));
        write_trace_file(&path, &[a.clone(), b.clone()]).unwrap();
        let stores = read_trace_file(&path).unwrap();
        assert_eq!(stores, vec![a, b]);
        // A version-1 file is refused by version, whatever it holds.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8..12], 2u32.to_le_bytes());
        bytes[8] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let e = read_trace_file(&path).unwrap_err();
        assert!(e.message.contains("unsupported version"), "{e}");
        bytes[8] = 2;
        // Corrupt one payload byte: the file no longer reads.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_trace_file(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exec_trace_program_round_trips_through_the_store() {
        let t = trace_with(Some(sig()), 1);
        let prog = t.decode_program().unwrap();
        assert!(prog.is_empty());
        // Trailing garbage after the program is rejected.
        let mut bad = t.clone();
        bad.program.push(0);
        assert!(bad.decode_program().is_err());
    }
}
