//! The flight recorder's read side against the code it replaced.
//!
//! The trace codec moves whole tokens through a 64-bit word, and
//! `CfgSuccessors::predict` is one probe of a jump table derived from
//! the rows. The bit-at-a-time `BitWriter` / `BitReader`, the event
//! coder over them and the binary-search rule over the sorted rows are
//! kept below verbatim as `oracle` (its imports adapted to this crate,
//! one add spelled `wrapping_add`: see below), and the two must agree:
//!
//! * `predict` equals the rule for every block id in `[0, max + 2]` of
//!   every kernel the repo boots (the flagships, the full corpus,
//!   deep-chain), and on random rows — unsorted, overlapping, repeating
//!   a start, empty — where the rows decide which row answers;
//! * random event lists (extreme deltas, `u64` edges, crashes,
//!   call-index gaps) encode to the oracle's bytes, and
//!   `stream_matches` says so without building them;
//! * every truncation and single-bit flip of the streams of a sealed
//!   deep-chain store and a dm store is accepted by `decode_events` iff
//!   the oracle accepts it **and** its events re-encode to the same
//!   bytes and bit length — the decoder accepts exactly the encoder's
//!   image — and an accepted stream decodes to the oracle's events.
//!
//! The oracle's encoder advanced its previous block with `start +
//! len - 1`, which wraps in the release build campaigns run and panics
//! in a debug one at the `u64` edge; it is spelled `start.wrapping_add(
//! len - 1)` here, so both builds check what the release build does.
//!
//! What retires the oracle (ROADMAP item 9's rule): item 5(b)'s decoder
//! fuzz — every decoder driven with mutated bytes under the counting
//! allocator — plus a recorded stream golden (the streams of a sealed
//! store, their bytes and decoded events, digested). Those check the
//! accepted set and the bytes on fixed and random inputs without a
//! second codec, and then `mod oracle` goes.
//!
//! The full-corpus kernel runs in release builds only; CI's
//! "Differential crate tests (release)" step runs it.

use kernelgpt::csrc::{deepchain, flagship, Blueprint, KernelCorpus};
use kernelgpt::fuzzer::{cfg_successors, CampaignConfig, ShardedCampaign};
use kernelgpt::syzlang::lowered::{CfgRun, CfgSuccessors};
use kernelgpt::syzlang::SpecFile;
use kernelgpt::trace::{decode_events, encode_events, stream_matches, TraceStore};
use kernelgpt::vkernel::{TraceEvent, VKernel};

/// The codec and the successor rule as they stood before the word-wide
/// codec and the jump table: verbatim.
mod oracle {
    use kernelgpt::syzlang::lowered::CfgRun;
    use kernelgpt::trace::TraceError;
    use kernelgpt::vkernel::TraceEvent;

    /// `CfgSuccessors` before its jump table.
    pub struct CfgSuccessors {
        runs: Vec<CfgRun>,
    }

    impl CfgSuccessors {
        pub fn build(mut runs: Vec<CfgRun>) -> CfgSuccessors {
            runs.retain(|r| r.len > 0);
            runs.sort_by_key(|r| r.start);
            CfgSuccessors { runs }
        }

        pub fn predict(&self, prev: u64) -> u64 {
            let i = self.runs.partition_point(|r| r.start <= prev);
            if i > 0 {
                let r = &self.runs[i - 1];
                if prev < r.start + r.len && prev + 1 == r.start + r.len {
                    if let Some(next) = r.next {
                        return next;
                    }
                }
            }
            prev.wrapping_add(1)
        }
    }

    /// LSB-first bit writer for the token stream.
    #[derive(Default)]
    struct BitWriter {
        bytes: Vec<u8>,
        bits: u32,
    }

    impl BitWriter {
        fn bit(&mut self, b: bool) {
            let idx = (self.bits / 8) as usize;
            if idx == self.bytes.len() {
                self.bytes.push(0);
            }
            if b {
                self.bytes[idx] |= 1 << (self.bits % 8);
            }
            self.bits += 1;
        }

        /// Little-endian variable-length code: 5-bit chunks of
        /// `[more:1][data:4]`, low data bits first, at most 16 chunks.
        fn varint(&mut self, mut v: u64) {
            loop {
                let chunk = (v & 0xF) as u8;
                v >>= 4;
                let more = v != 0;
                self.bit(more);
                for i in 0..4 {
                    self.bit(chunk >> i & 1 == 1);
                }
                if !more {
                    break;
                }
            }
        }

        /// Zigzag a signed delta through [`BitWriter::varint`].
        fn svarint(&mut self, v: i64) {
            self.varint(((v << 1) ^ (v >> 63)) as u64);
        }

        fn finish(self) -> (Vec<u8>, u32) {
            (self.bytes, self.bits)
        }
    }

    /// LSB-first bit reader; every read is bounds-checked against the
    /// declared bit length.
    struct BitReader<'a> {
        bytes: &'a [u8],
        bits: u32,
        pos: u32,
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
            BitReader {
                bytes,
                bits,
                pos: 0,
            }
            .check_padding()
        }

        /// The writer zero-fills the final partial byte; any set padding
        /// bit means the stream was not produced by the encoder.
        fn check_padding(self) -> Result<BitReader<'a>, TraceError> {
            if let Some(&last) = self.bytes.last() {
                let used = self.bits % 8;
                if used != 0 && last >> used != 0 {
                    return Err(TraceError::new("nonzero padding bits in trace stream"));
                }
            }
            Ok(self)
        }

        fn bit(&mut self) -> Result<bool, TraceError> {
            if self.pos >= self.bits {
                return Err(TraceError::new("trace stream ended mid-token"));
            }
            let b = self.bytes[(self.pos / 8) as usize] >> (self.pos % 8) & 1 == 1;
            self.pos += 1;
            Ok(b)
        }

        fn varint(&mut self) -> Result<u64, TraceError> {
            let mut v = 0u64;
            for chunk in 0..16 {
                let more = self.bit()?;
                let mut data = 0u64;
                for i in 0..4 {
                    data |= u64::from(self.bit()?) << i;
                }
                v |= data << (4 * chunk);
                if !more {
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

    pub fn encode_events(cfg: &CfgSuccessors, events: &[TraceEvent]) -> (Vec<u8>, u32) {
        let mut w = BitWriter::default();
        let mut prev_block = 0u64;
        let mut next_call = 0u32;
        for ev in events {
            match *ev {
                TraceEvent::Block { start, len } => {
                    if len == 0 {
                        continue;
                    }
                    let predicted = cfg.predict(prev_block);
                    if start == predicted {
                        w.bit(false);
                    } else {
                        w.bit(true);
                        w.bit(true);
                        w.bit(false);
                        w.svarint((start as i64).wrapping_sub(predicted as i64));
                    }
                    w.varint(u64::from(len - 1));
                    prev_block = start.wrapping_add(u64::from(len) - 1);
                }
                TraceEvent::Call { index } => {
                    w.bit(true);
                    w.bit(false);
                    w.varint(u64::from(index.wrapping_sub(next_call)));
                    next_call = index.wrapping_add(1);
                }
                TraceEvent::Crash { site } => {
                    w.bit(true);
                    w.bit(true);
                    w.bit(true);
                    w.bit(false);
                    w.svarint((site as i64).wrapping_sub(prev_block as i64));
                }
            }
        }
        w.bit(true);
        w.bit(true);
        w.bit(true);
        w.bit(true);
        w.finish()
    }

    pub fn decode_events(
        cfg: &CfgSuccessors,
        stream: &[u8],
        bits: u32,
    ) -> Result<Vec<TraceEvent>, TraceError> {
        let mut r = BitReader::new(stream, bits)?;
        let mut events = Vec::new();
        let mut prev_block = 0u64;
        let mut next_call = 0u32;
        loop {
            if !r.bit()? {
                // PRED: the block run starts where the table predicts.
                let start = cfg.predict(prev_block);
                let len = take_len(&mut r)?;
                prev_block = end_of_run(start, len)?;
                events.push(TraceEvent::Block { start, len });
                continue;
            }
            if !r.bit()? {
                // CALL
                let delta = r.varint()?;
                let delta = u32::try_from(delta)
                    .map_err(|_| TraceError::new("call-index delta out of range"))?;
                let index = next_call.wrapping_add(delta);
                next_call = index.wrapping_add(1);
                events.push(TraceEvent::Call { index });
                continue;
            }
            if !r.bit()? {
                // DIVERGE
                let delta = r.svarint()?;
                let predicted = cfg.predict(prev_block);
                let start = offset_block(predicted, delta)?;
                let len = take_len(&mut r)?;
                prev_block = end_of_run(start, len)?;
                events.push(TraceEvent::Block { start, len });
            } else if !r.bit()? {
                // CRASH
                let delta = r.svarint()?;
                let site = offset_block(prev_block, delta)?;
                events.push(TraceEvent::Crash { site });
            } else {
                // END
                break;
            }
        }
        if r.pos != r.bits {
            return Err(TraceError::new(format!(
                "{} trailing bits after trace END token",
                r.bits - r.pos
            )));
        }
        Ok(events)
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
}

/// A 64-bit LCG: the draws the random cases are made of.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 ^ self.0 >> 29
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A table and its oracle, built from the same rows.
fn tables(rows: Vec<CfgRun>) -> (CfgSuccessors, oracle::CfgSuccessors) {
    (
        CfgSuccessors::build(rows.clone()),
        oracle::CfgSuccessors::build(rows),
    )
}

/// A booted kernel's rows.
fn rows_of(kernel: &VKernel) -> Vec<CfgRun> {
    kernel
        .cfg_runs()
        .into_iter()
        .map(|(start, len, next)| CfgRun { start, len, next })
        .collect()
}

/// `predict` and the rule over `rows` agree at every id in
/// `[0, max + 2]` and at the top of the id space; how many of those
/// ids jump.
fn assert_predicts_alike(rows: Vec<CfgRun>, what: &str) -> usize {
    let max = rows
        .iter()
        .flat_map(|r| [r.start + r.len, r.next.unwrap_or(0)])
        .max()
        .unwrap_or(0);
    let (new, old) = tables(rows);
    let mut jumps = 0;
    for prev in (0..=max + 2).chain([u64::MAX - 1, u64::MAX]) {
        let next = new.predict(prev);
        assert_eq!(next, old.predict(prev), "{what}: block {prev}");
        jumps += usize::from(next != prev.wrapping_add(1));
    }
    jumps
}

#[test]
fn predict_equals_the_search_rule_on_every_kernel_the_repo_boots() {
    let mut kernels = vec![
        ("flagships", flagship::all_flagships()),
        ("deep-chain", deepchain::suite()),
    ];
    if !cfg!(debug_assertions) {
        kernels.push(("full(1)", KernelCorpus::full(1).blueprints().to_vec()));
    }
    for (name, blueprints) in kernels {
        let kernel = VKernel::boot(blueprints);
        let jumps = assert_predicts_alike(rows_of(&kernel), name);
        assert!(jumps > 0, "{name}: no block predicts a jump");
    }
}

#[test]
fn predict_equals_the_search_rule_on_random_rows() {
    let mut rng = Lcg(0x05ee_d0f7_ab1e);
    let mut jumps = 0;
    for case in 0..3_000 {
        // Few rows over a narrow span, so they overlap, nest and share
        // starts; some empty, some falling through to their own end.
        let span = 8 + rng.below(120);
        let rows = (0..rng.below(12))
            .map(|_| {
                let start = rng.below(span);
                let len = rng.below(9);
                let next = match rng.below(4) {
                    0 => None,
                    1 => Some(start + len),
                    _ => Some(rng.below(2 * span)),
                };
                CfgRun { start, len, next }
            })
            .collect();
        jumps += assert_predicts_alike(rows, &format!("case {case}"));
    }
    assert!(jumps > 1_000, "{jumps} jumps");
    // Rows at the top of the id space, up to `u64::MAX` itself.
    for len in 1..6u64 {
        let rows = vec![
            CfgRun {
                start: u64::MAX - len,
                len,
                next: Some(7),
            },
            CfgRun {
                start: u64::MAX - 2 * len - 1,
                len,
                next: Some(u64::MAX),
            },
        ];
        let (new, old) = tables(rows);
        for prev in u64::MAX - 3 * len - 2..=u64::MAX {
            assert_eq!(
                new.predict(prev),
                old.predict(prev),
                "len {len}, block {prev}"
            );
        }
    }
}

/// A random event list: block runs predicted, near and far, calls with
/// gaps, crashes anywhere — every field at its edges now and then.
fn random_events(rng: &mut Lcg, cfg: &CfgSuccessors, max_block: u64) -> Vec<TraceEvent> {
    let n = rng.below(40) as usize;
    let mut events = Vec::with_capacity(n);
    let (mut prev, mut next_call) = (0u64, 0u32);
    for _ in 0..n {
        let edge = |rng: &mut Lcg| match rng.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - rng.below(1 << 16),
            3 => 1 << 63,
            4 => (1 << 63) - 1,
            _ => rng.next(),
        };
        let ev = match rng.below(10) {
            0..=3 => {
                let len = match rng.below(12) {
                    0 => u32::MAX,
                    1 => 0,
                    2 => rng.next() as u32,
                    _ => 1 + rng.below(40) as u32,
                };
                let start = match rng.below(8) {
                    0..=3 => cfg.predict(prev),
                    4 => edge(rng),
                    _ => rng.below(max_block + 2),
                };
                if len > 0 {
                    prev = start.wrapping_add(u64::from(len) - 1);
                }
                TraceEvent::Block { start, len }
            }
            4..=6 => {
                let index = match rng.below(6) {
                    0 => rng.next() as u32,
                    1 => u32::MAX,
                    2 => next_call.wrapping_sub(1 + rng.below(3) as u32),
                    _ => next_call.wrapping_add(rng.below(3) as u32),
                };
                next_call = index.wrapping_add(1);
                TraceEvent::Call { index }
            }
            _ => TraceEvent::Crash {
                site: match rng.below(3) {
                    0 => edge(rng),
                    _ => prev.wrapping_add(rng.below(9000)),
                },
            },
        };
        events.push(ev);
    }
    events
}

/// The decoder's verdict on `(stream, bits)` is the oracle's, less
/// every stream its events do not re-encode to.
fn assert_judged_alike(
    new: &CfgSuccessors,
    old: &oracle::CfgSuccessors,
    stream: &[u8],
    bits: u32,
    what: &dyn Fn() -> String,
) {
    let canonical = oracle::decode_events(old, stream, bits)
        .ok()
        .filter(|events| oracle::encode_events(old, events) == (stream.to_vec(), bits));
    let decoded = decode_events(new, stream, bits).ok();
    assert_eq!(decoded, canonical, "{}", what());
}

#[test]
fn random_event_lists_encode_to_the_oracles_bytes() {
    let kernel = VKernel::boot(deepchain::suite());
    let kernel_rows = rows_of(&kernel);
    let mut rng = Lcg(0xc0de_c0de);
    for case in 0..4_000 {
        let rows = if case % 2 == 0 {
            kernel_rows.clone()
        } else {
            (0..rng.below(10))
                .map(|_| CfgRun {
                    start: rng.below(600),
                    len: rng.below(20),
                    next: (rng.below(3) != 0).then(|| rng.below(700)),
                })
                .collect()
        };
        let max_block = rows.iter().map(|r| r.start + r.len).max().unwrap_or(0);
        let (new, old) = tables(rows);
        let events = random_events(&mut rng, &new, max_block);
        let (stream, bits) = encode_events(&new, &events);
        assert_eq!(
            (stream.clone(), bits),
            oracle::encode_events(&old, &events),
            "case {case}: {events:?}"
        );
        assert!(stream_matches(&new, &events, &stream, bits), "case {case}");
        // One event more, one fewer, a stream cut short: no match.
        let mut longer = events.clone();
        longer.push(TraceEvent::Call { index: 0 });
        assert!(!stream_matches(&new, &longer, &stream, bits), "case {case}");
        if let Some((_, fewer)) = events.split_last() {
            let (s, b) = encode_events(&new, fewer);
            if (s.as_slice(), b) != (stream.as_slice(), bits) {
                assert!(!stream_matches(&new, &events, &s, b), "case {case}");
            }
        }
        assert!(!stream_matches(
            &new,
            &events,
            &stream[..stream.len() - 1],
            bits
        ));
        // What the encoder writes decodes back to it unless a run or a
        // delta leaves the id space, which both decoders refuse alike.
        assert_judged_alike(&new, &old, &stream, bits, &|| format!("case {case}"));
    }
}

/// One shard's store of a traced campaign over `blueprints`.
fn sealed_store(blueprints: Vec<Blueprint>, execs: u64) -> (TraceStore, VKernel) {
    let kc = KernelCorpus::from_blueprints(blueprints.clone());
    let suite: Vec<SpecFile> = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    let kernel = VKernel::boot(blueprints);
    let config = CampaignConfig {
        execs,
        seed: 3,
        ..CampaignConfig::default()
    };
    let (_, mut stores) = ShardedCampaign::new(&kernel, &suite, kc.consts(), config)
        .with_shards(1)
        .run_traced();
    (stores.remove(0), kernel)
}

#[test]
fn every_cut_and_flip_of_a_sealed_stream_is_judged_as_the_oracle_judges_it() {
    for (name, blueprints, execs) in [
        ("deep-chain", deepchain::suite(), 2_000),
        ("dm", vec![flagship::dm()], 600),
    ] {
        let (store, kernel) = sealed_store(blueprints, execs);
        assert!(store.pinned_len() > 0 && store.ring().count() > 0, "{name}");
        // The table the recorder and the replayer build.
        let new = cfg_successors(&kernel);
        let old = oracle::CfgSuccessors::build(rows_of(&kernel));
        let (mut accepted, mut judged) = (0usize, 0usize);
        for t in store.iter() {
            let (stream, bits) = (&t.stream, t.stream_bits);
            let events = decode_events(&new, stream, bits).expect("a sealed stream");
            assert_eq!(
                oracle::decode_events(&old, stream, bits).as_ref(),
                Ok(&events)
            );
            assert!(stream_matches(&new, &events, stream, bits), "{name}");
            let mut judge = |bytes: &[u8], n: u32, what: &dyn Fn() -> String| {
                assert_judged_alike(&new, &old, bytes, n, what);
                judged += 1;
                if let Ok(mutant) = decode_events(&new, bytes, n) {
                    accepted += 1;
                    // A stream that says something else is not this one.
                    if (bytes, n) != (stream.as_slice(), bits) {
                        assert!(!stream_matches(&new, &mutant, stream, bits), "{}", what());
                    }
                }
            };
            for cut in 0..bits {
                let bytes = &stream[..(cut as usize).div_ceil(8)];
                judge(bytes, cut, &|| {
                    format!("{name} exec {} cut at {cut}", t.exec)
                });
                // The same cut with its padding zeroed.
                let mut masked = bytes.to_vec();
                if let Some(last) = masked.last_mut().filter(|_| cut % 8 != 0) {
                    *last &= (1u16 << (cut % 8)) as u8 - 1;
                }
                judge(&masked, cut, &|| {
                    format!("{name} exec {} masked cut {cut}", t.exec)
                });
            }
            for bit in 0..stream.len() * 8 {
                let mut flipped = stream.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                judge(&flipped, bits, &|| {
                    format!("{name} exec {} flip {bit}", t.exec)
                });
            }
        }
        println!("{name}: {judged} mutated streams judged, {accepted} accepted");
        assert!(accepted > 0, "{name}: no mutant was a stream");
    }
}
