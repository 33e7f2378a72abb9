//! The workspace's one byte codec: [`Writer`] / [`Reader`] primitives,
//! the [`frame`] / [`unframe`] envelope with its [`checksum`], and
//! [`fnv1a`] for fingerprints. Every binary format in the workspace is
//! a composition of these:
//!
//! | format       | magic      | version const                            | checksum scope  | owning type                     |
//! |--------------|------------|------------------------------------------|-----------------|---------------------------------|
//! | program      | none       | none (its carrier's)                     | its carrier's   | [`crate::prog::Program`]        |
//! | checkpoint   | `KGPTCKPT` | `kgpt_fuzzer::checkpoint`'s `VERSION` (4) | whole payload   | `kgpt_fuzzer::CampaignSnapshot` |
//! | fabric frame | empty      | `kgpt_fabric::wire::FRAME_VERSION` (5)   | tag byte + body | `kgpt_fabric::Message`          |
//! | trace store  | `KGPTTRCE` | `kgpt_trace`'s `VERSION` (2)             | whole payload   | `kgpt_trace::TraceStore`        |
//! | trace file   | `KGPTTRCF` | `kgpt_trace`'s `VERSION` (2)             | whole payload   | `kgpt_trace::write_trace_file`  |
//!
//! Checkpoint 4, frame 5 and trace 2 are the versions whose envelope
//! carries [`checksum`] (their predecessors carried byte-wise
//! [`fnv1a`]); no layout inside a payload moved with them, but what a
//! checkpoint's trace section *means* did (see
//! `kgpt_fuzzer::checkpoint`). A reader accepts its one version and
//! rejects every other as `unsupported version`.
//!
//! Fabric delta and patch bodies (`kgpt_fuzzer::fabric::EpochDelta` /
//! `EpochPatch`) are checkpoint fragments carried inside fabric
//! frames. A trace file's payload is a list of complete trace stores,
//! each still in its own envelope; a checkpoint instead embeds its
//! per-shard stores as plain elements
//! (`kgpt_trace::TraceStore::encode`), so a checkpoint file carries
//! exactly one checksum.
//!
//! One composite rule lives outside this module because its type
//! does: every coverage bitmap in a checkpoint or fabric frame is
//! written by `kgpt_fuzzer::checkpoint`'s `encode_coverage` — a tag
//! byte, then either the runs of nonzero words (`0`: `u32` run count,
//! per run `u32` first-word index + counted words) or every word up
//! to the last nonzero one (`1`: counted words), whichever is
//! smaller. Runs ascend, never overlap, are never empty, and nothing
//! may reach past `kgpt_vkernel::MAX_COVERAGE_WORDS`.
//!
//! Layout rules, written down here and nowhere else:
//!
//! * integers are fixed-width **little-endian** (`u8`, `u32`, `u64`);
//! * every variable-length field is a `u32` **count** followed by
//!   that many elements (bytes for [`Writer::bytes`] / [`Writer::str`],
//!   LE words for [`Writer::u64s`], encoded items for [`Writer::seq`]);
//! * an option is a **tag byte** `0` (absent) or `1` (present, value
//!   follows); a bool is a byte `0` or `1`; anything else is an error;
//! * an envelope is `magic | version u32 | checksum(payload) u64 |
//!   payload`. [`checksum`] guards bytes against truncation and
//!   bitrot and is free to change with a version; [`fnv1a`] names
//!   things (config and spec fingerprints, the golden-byte tests) and
//!   never changes;
//! * decoding is **total**: a [`Reader`] checks every count against
//!   the bytes that remain *before* allocating, never panics, and
//!   [`Reader::finish`] rejects trailing bytes.
//!
//! Decoders throughout the workspace build their result as one struct
//! literal whose field initialisers each read from the `Reader`: Rust
//! evaluates those in source order, so the literal *is* the wire
//! order and must list fields the way the encoder writes them.

use std::hash::Hasher;

/// Error decoding any of the workspace's binary formats: truncated
/// input, a count larger than the bytes that remain, a bad tag, a bad
/// envelope. Each format's own error type converts from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a streaming [`Hasher`] (suite fingerprints hash the
/// derived structural `Hash` of the AST through it).
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// FNV-1a over a byte slice, a byte at a time — what fingerprints
/// (campaign config, spec suite) and the format goldens are made of,
/// so its values never move. Envelopes use [`checksum`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// The envelope checksum: FNV-1a's xor-then-multiply step over the
/// payload's little-endian `u64` words, then over the ≤ 7 tail bytes
/// one at a time, then over the payload length. One dependent
/// multiply per eight bytes instead of per byte. Every step is a
/// bijection of the running state, so flipping any one bit changes
/// the result, and the closing length step is what tells a payload
/// from the same payload cut or zero-padded to another length.
/// Deterministic and strong enough for truncation and bitrot (the
/// threat model; this is not a cryptographic seal).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words
        .iter()
        .fold(FNV_OFFSET, |h, word| step(h, u64::from_le_bytes(*word)));
    let h = tail.iter().fold(h, |h, b| step(h, u64::from(*b)));
    step(h, bytes.len() as u64)
}

/// Appends the primitives to a byte buffer.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Writer appending to `out`.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// A bool as one byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32` count (saturating: no real collection approaches it).
    #[inline]
    pub(crate) fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// A counted byte blob.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        self.out.extend_from_slice(b);
    }

    /// A counted UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// An option: tag byte, then the value through `f` when present.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(T, &mut Self)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            f(v, self);
        }
    }

    /// An optional string.
    #[inline]
    pub fn opt_str(&mut self, s: Option<&str>) {
        self.opt(s, |s, w| w.str(s));
    }

    /// A counted list of little-endian `u64` words.
    pub fn u64s(&mut self, words: &[u64]) {
        self.count(words.len());
        self.out.reserve(words.len() * 8);
        for w in words {
            self.out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// A counted list, each item through `f` — `(item, writer)`, so a
    /// type's `fn encode(&self, w: &mut Writer)` is an `f`.
    #[inline]
    pub fn seq<I>(&mut self, items: I, mut f: impl FnMut(I::Item, &mut Self))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.count(items.len());
        for item in items {
            f(item, self);
        }
    }
}

/// Total reader of what [`Writer`] wrote: every method returns
/// [`DecodeError`] rather than panicking, and every count is checked
/// against the bytes that remain before anything is allocated.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over all of `bytes`.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Reader over `bytes` starting at offset `pos` (for callers that
    /// decode several values out of one buffer by position).
    #[inline]
    #[must_use]
    pub fn at(bytes: &'a [u8], pos: usize) -> Reader<'a> {
        Reader { bytes, pos }
    }

    /// Offset of the next unread byte.
    #[inline]
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// An error at the current offset (for a format's own validation).
    #[inline]
    #[must_use]
    pub fn err(&self, message: &'static str) -> DecodeError {
        DecodeError {
            message,
            offset: self.pos,
        }
    }

    /// The next `n` raw bytes.
    #[inline]
    fn take(&mut self, n: usize, truncated: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n);
        match end.and_then(|end| self.bytes.get(self.pos..end)) {
            Some(taken) => {
                self.pos += n;
                Ok(taken)
            }
            None => Err(self.err(truncated)),
        }
    }

    /// The next `N` raw bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self, truncated: &'static str) -> Result<[u8; N], DecodeError> {
        let mut buf = [0u8; N];
        buf.copy_from_slice(self.take(N, truncated)?);
        Ok(buf)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>("truncated byte")?[0])
    }

    /// A bool byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a byte other than `0`/`1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                message: "bad bool or option tag",
                offset: self.pos - 1,
            }),
        }
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array("truncated u32")?))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array("truncated u64")?))
    }

    /// A count of elements at least `min_size` bytes each, rejected
    /// when the remaining input cannot hold that many.
    #[inline]
    fn count(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.bytes.len().saturating_sub(self.pos) / min_size {
            return Err(DecodeError {
                message: "count exceeds remaining input",
                offset: self.pos - 4,
            });
        }
        Ok(n)
    }

    /// A counted byte blob, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a count past its end.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n, "truncated byte blob")
    }

    /// A counted UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails like [`Reader::bytes`], or on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        match std::str::from_utf8(self.bytes()?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(DecodeError {
                message: "invalid utf-8 string",
                offset: at,
            }),
        }
    }

    /// An option: tag byte, then the value through `f` when present.
    ///
    /// # Errors
    ///
    /// Fails on a bad tag, or as `f` does.
    #[inline]
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.bool()? {
            f(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// An optional string.
    ///
    /// # Errors
    ///
    /// Fails on a bad tag, or like [`Reader::str`].
    #[inline]
    pub fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        self.opt(Self::str)
    }

    /// A counted list of little-endian `u64` words.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a count past its end.
    pub fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        self.seq_of(8, Self::u64)
    }

    /// A counted list, each item through `f` (every encoded item is
    /// at least one byte, which is what bounds the count).
    ///
    /// # Errors
    ///
    /// Fails on a count past the end of the input, or as `f` does.
    #[inline]
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(1)?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(f(self)?);
        }
        Ok(items)
    }

    /// [`Reader::seq`] for items that encode to at least `item_bytes`
    /// each: the count is checked against that, so the list can be
    /// allocated once at its final length instead of grown — the
    /// input still pays for every byte of it, to within the ratio of
    /// `T`'s size to `item_bytes`.
    ///
    /// # Errors
    ///
    /// Fails on a count past the end of the input, or as `f` does.
    #[inline]
    pub fn seq_of<T>(
        &mut self,
        item_bytes: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(item_bytes.max(1))?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(f(self)?);
        }
        Ok(items)
    }

    /// Done: everything must have been consumed.
    ///
    /// # Errors
    ///
    /// Fails when unread bytes remain.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes"))
        }
    }
}

/// Build an envelope `magic | version | checksum(payload) | payload`
/// around whatever `payload` writes. The header is reserved up front
/// and the checksum patched in afterwards, so the payload is encoded
/// in place — never into a buffer of its own and copied.
#[must_use]
pub fn frame(magic: &[u8], version: u32, payload: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, magic, version, payload);
    out
}

/// [`frame`] into a buffer its caller keeps: `out` is cleared, not
/// freed, so a sender that frames one message after another of about
/// the same size stops allocating for them.
pub fn frame_into(
    out: &mut Vec<u8>,
    magic: &[u8],
    version: u32,
    payload: impl FnOnce(&mut Writer<'_>),
) {
    out.clear();
    frame_onto(out, magic, version, payload);
}

/// [`frame`] appended to what `out` already holds (a length prefix, an
/// earlier envelope): the checksum covers this envelope's payload
/// only. Hands back what `payload` returns.
pub fn frame_onto<R>(
    out: &mut Vec<u8>,
    magic: &[u8],
    version: u32,
    payload: impl FnOnce(&mut Writer<'_>) -> R,
) -> R {
    let header = out.len() + magic.len() + 12;
    out.extend_from_slice(magic);
    let mut w = Writer::new(out);
    w.u32(version);
    w.u64(0); // checksum slot
    let result = payload(&mut w);
    let sum = checksum(&out[header..]);
    out[header - 8..header].copy_from_slice(&sum.to_le_bytes());
    result
}

/// Validate and strip the envelope [`frame`] wrote, returning the
/// payload.
///
/// # Errors
///
/// Fails — distinctly — on a truncated header, the wrong magic, a
/// version other than `version`, or a payload that does not match its
/// checksum.
pub fn unframe<'a>(magic: &[u8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let header = magic.len() + 12;
    if bytes.len() < header {
        return Err(DecodeError {
            message: "truncated frame header",
            offset: bytes.len(),
        });
    }
    let (head, payload) = bytes.split_at(header);
    if !head.starts_with(magic) {
        return Err(DecodeError {
            message: "bad magic",
            offset: 0,
        });
    }
    let mut r = Reader::at(head, magic.len());
    if r.u32()? != version {
        return Err(DecodeError {
            message: "unsupported version",
            offset: magic.len(),
        });
    }
    if r.u64()? != checksum(payload) {
        return Err(r.err("checksum mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts this thread's allocation events (the
    /// `tests/alloc_count.rs` pattern, per thread because unit tests
    /// run in parallel).
    struct CountingAlloc;

    thread_local! {
        static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: delegates everything to `System`; the counter is a
    // const-initialised thread-local `Cell` with no destructor.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// One of everything the primitives can write.
    fn sample() -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        w.opt_str(None);
        w.opt_str(Some("cve"));
        w.u64s(&[1, 2, u64::MAX]);
        w.seq(&[10u32, 20, 30], |v, w| w.u32(*v));
        out
    }

    type Sample = (
        (u8, bool, u32, u64),
        (Vec<u8>, String, Option<String>, Option<String>),
        (Vec<u64>, Vec<u32>),
    );

    fn read_sample(bytes: &[u8]) -> Result<Sample, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = (
            (r.u8()?, r.bool()?, r.u32()?, r.u64()?),
            (r.bytes()?.to_vec(), r.str()?, r.opt_str()?, r.opt_str()?),
            (r.u64s()?, r.seq(Reader::u32)?),
        );
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn primitives_round_trip() {
        let (scalars, blobs, lists) = read_sample(&sample()).unwrap();
        assert_eq!(scalars, (7, true, 0xDEAD_BEEF, u64::MAX - 1));
        assert_eq!(
            blobs,
            (vec![1, 2, 3], "héllo".into(), None, Some("cve".into()))
        );
        assert_eq!(lists, (vec![1, 2, u64::MAX], vec![10, 20, 30]));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(read_sample(&bytes[..cut]).is_err(), "prefix {cut} parsed");
        }
        // A start offset past the end is an error too, not a panic.
        assert!(Reader::at(&bytes, bytes.len() + 1).u8().is_err());
        assert!(Reader::at(&bytes, usize::MAX).seq(Reader::u8).is_err());
    }

    #[test]
    fn oversized_counts_are_rejected_before_any_allocation() {
        // count = u32::MAX, then only 3 bytes of input.
        let hostile = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3];
        let before = ALLOC_EVENTS.with(Cell::get);
        let results = [
            Reader::new(&hostile).bytes().is_err(),
            Reader::new(&hostile).str().is_err(),
            Reader::new(&hostile).u64s().is_err(),
            Reader::new(&hostile).seq(Reader::u8).is_err(),
        ];
        let after = ALLOC_EVENTS.with(Cell::get);
        assert_eq!(results, [true; 4]);
        assert_eq!(after - before, 0, "a rejected count allocated");
        // (The counter is live: an accepted blob's copy is seen.)
        std::hint::black_box(Reader::new(&[1, 0, 0, 0, 9]).bytes().unwrap().to_vec());
        assert_eq!(ALLOC_EVENTS.with(Cell::get) - after, 1);
        // The bound is the input, not the count: 3 one-byte items fit,
        // 4 do not; one u64 needs 8 bytes.
        assert!(Reader::new(&[3, 0, 0, 0, 1, 2, 3]).seq(Reader::u8).is_ok());
        assert!(Reader::new(&[4, 0, 0, 0, 1, 2, 3]).seq(Reader::u8).is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 1, 2, 3]).u64s().is_err());
    }

    #[test]
    fn bad_tags_utf8_and_trailing_bytes_are_rejected() {
        assert_eq!(
            Reader::new(&[2]).opt_str().unwrap_err().message,
            "bad bool or option tag"
        );
        assert!(Reader::new(&[9]).bool().is_err());
        let bad_utf8 = [2, 0, 0, 0, 0xC3, 0x28];
        assert_eq!(
            Reader::new(&bad_utf8).str().unwrap_err().message,
            "invalid utf-8 string"
        );
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        let e = r.finish().unwrap_err();
        assert_eq!((e.message, e.offset), ("trailing bytes", 1));
    }

    #[test]
    fn envelope_errors_are_distinct_and_every_bit_flip_is_rejected() {
        let payload = sample();
        let put = |w: &mut Writer<'_>| payload.iter().for_each(|b| w.u8(*b));
        let framed = frame(b"KGPTTEST", 7, put);
        assert_eq!(unframe(b"KGPTTEST", 7, &framed).unwrap(), &payload[..]);
        let message = |r: Result<&[u8], DecodeError>| r.unwrap_err().message;
        assert_eq!(message(unframe(b"KGPTXXXX", 7, &framed)), "bad magic");
        assert_eq!(
            message(unframe(b"KGPTTEST", 8, &framed)),
            "unsupported version"
        );
        let mut damaged = framed.clone();
        *damaged.last_mut().unwrap() ^= 1;
        assert_eq!(
            message(unframe(b"KGPTTEST", 7, &damaged)),
            "checksum mismatch"
        );
        for cut in 0..20 {
            assert_eq!(
                message(unframe(b"KGPTTEST", 7, &framed[..cut])),
                "truncated frame header"
            );
        }
        for bit in 0..framed.len() * 8 {
            let mut damaged = framed.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                unframe(b"KGPTTEST", 7, &damaged).is_err(),
                "flip of bit {bit} accepted"
            );
        }
        // Appended after a prefix, the envelope is the same bytes.
        let mut prefixed = vec![0xAA; 5];
        assert_eq!(
            frame_onto(&mut prefixed, b"KGPTTEST", 7, |w| (put(w), 9).1),
            9
        );
        assert_eq!(prefixed[5..], framed[..]);
        // An empty magic is a valid envelope (the fabric wire frame).
        let bare = frame(b"", 3, put);
        assert_eq!(bare.len(), 12 + payload.len());
        assert_eq!(unframe(b"", 3, &bare).unwrap(), &payload[..]);
    }

    /// Computed by an independent implementation of the rule in
    /// [`checksum`]'s docs: empty, tail only, one whole word, a word
    /// plus a tail byte, two words plus a tail byte.
    #[test]
    fn checksum_matches_the_reference_vectors() {
        assert_eq!(checksum(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(checksum(b"a"), 0x089b_e307_b544_f397);
        assert_eq!(checksum(b"foobar"), 0x3453_22a7_168b_996a);
        assert_eq!(checksum(b"foobarba"), 0x62ee_6543_0586_9223);
        assert_eq!(checksum(b"foobarbaz"), 0xa10b_d6e2_6325_70d0);
        let mut two_words_and_a_byte: Vec<u8> = (0..16).collect();
        two_words_and_a_byte.push(0xFF);
        assert_eq!(checksum(&two_words_and_a_byte), 0x47d1_d786_57ea_e3bd);
    }

    #[test]
    fn checksum_sees_every_bit_flip_truncation_and_zero_padding() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let payload: Vec<u8> = (0..1024)
            .map(|_| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (rng >> 56) as u8
            })
            .collect();
        let whole = checksum(&payload);
        let mut damaged = payload.clone();
        for bit in 0..payload.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&damaged), whole, "flip of bit {bit}");
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..payload.len() {
            assert_ne!(checksum(&payload[..cut]), whole, "cut at {cut}");
        }
        // The tail rule: a payload, and the same payload with zero
        // bytes appended, never agree — across the lengths where the
        // tail turns into a whole word and back, for all-zero input
        // (only the length tells those apart) and for the payload's.
        for bytes in [&[0u8; 18][..], &payload[..18]] {
            let mut sums = std::collections::BTreeSet::new();
            for len in 0..=17 {
                let mut padded = bytes[..len].to_vec();
                padded.push(0);
                assert_ne!(checksum(&bytes[..len]), checksum(&padded), "length {len}");
                assert!(sums.insert(checksum(&bytes[..len])), "length {len}");
            }
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
