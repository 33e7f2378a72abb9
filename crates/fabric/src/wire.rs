//! Message set and frame codec.
//!
//! Every message travels as one **frame**: the
//! [`kgpt_syzlang::codec`] envelope with an empty magic, around a
//! tag byte and the message body. Bodies are composed from the
//! [`kgpt_fuzzer::fabric`] codecs, so the delta wire format *is* a
//! checkpoint fragment. Stream transports add their own length prefix
//! (see [`crate::transport`]); the frame itself is self-validating —
//! a flipped bit anywhere fails the checksum and the frame is
//! discarded, to be recovered by the sender's resend loop.

use crate::FabricError;
use kgpt_fuzzer::fabric::{
    decode_config, decode_seeds, decode_snapshots, encode_config, encode_seeds, encode_snapshots,
};
use kgpt_fuzzer::{CampaignConfig, HubSeed, ShardSnapshot};
use kgpt_syzlang::codec::{frame, frame_into, unframe, Reader, Writer};
use kgpt_syzlang::stage::{self, Stage};

pub use kgpt_fuzzer::fabric::{DeltaKind, DeltaPayload};

/// Frame format version. Bump on any layout change.
/// v2: delta frames carry a [`DeltaKind`] tag (full vs incremental).
/// v3: multi-tenant service — `Register` carries a stable worker id,
/// grants/deltas/replies are tenant-tagged, and a new [`Message::Retry`]
/// refuses a registration (quarantine or overload shedding) with a
/// retry-after measured in grant cycles.
/// v4: every coverage map inside a snapshot, delta, patch or seed is
/// written sparse (the `kgpt_fuzzer::checkpoint` coverage rule).
/// v5: the envelope carries `codec::checksum` (a word at a time) where
/// v4 carried byte-wise FNV-1a; bodies are unchanged.
/// v6: snapshots, deltas and patches carry no crash tally (a
/// campaign's tally is folded from its triage report).
pub const FRAME_VERSION: u32 = 6;

/// A granted lease: everything a worker needs to run its shard range
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    /// Tenant (campaign) this lease belongs to — admission order on
    /// the service; always 0 under the single-tenant coordinator.
    pub tenant: u32,
    /// Coordinator-assigned lease id; echoed back in every delta.
    pub lease_id: u64,
    /// Range slot index (== registration order == range order).
    pub slot: u32,
    /// First shard of the range (inclusive).
    pub shard_lo: u32,
    /// One past the last shard of the range.
    pub shard_hi: u32,
    /// Total shard count of the campaign.
    pub shards_total: u32,
    /// Boundaries already committed; the worker's first delta is for
    /// `boundary + 1`.
    pub boundary: u64,
    /// Lease deadline budget, for the worker's stall pacing.
    pub lease_timeout_ms: u64,
    /// Fingerprint of the spec suite the campaign runs against; the
    /// worker must resolve it to the same compiled suite.
    pub spec_fp: u64,
    /// The campaign config (the deterministic identity, with
    /// `shards_total`, of the whole run).
    pub config: CampaignConfig,
    /// Committed boundary state of the range; empty for a fresh
    /// campaign (the worker builds fresh shard states itself).
    pub snapshots: Vec<ShardSnapshot>,
}

/// The fabric protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: "I exist, lease me a range." Resent
    /// periodically until a [`Message::Grant`] arrives, so a dropped
    /// registration self-heals.
    Register {
        /// Stable worker identity across reconnects, chosen by the
        /// worker (0 = anonymous). The multi-tenant service keys its
        /// strike counters and quarantine on it; anonymous workers
        /// are never quarantined (they cannot be re-identified).
        worker_id: u64,
    },
    /// Coordinator → worker: a range lease.
    Grant(Grant),
    /// Coordinator → worker: registration refused for now — quarantine
    /// cooldown or overload shedding. The worker is *parked*, not
    /// dropped: it may re-register after `after_grants` further grant
    /// cycles have been issued by the service.
    Retry {
        /// Grant cycles to wait before re-registering.
        after_grants: u64,
        /// True when the refusal is a quarantine (strike limit
        /// reached); false when it is overload shedding (worker cap).
        quarantined: bool,
    },
    /// Worker → coordinator: one epoch's deltas for the whole range,
    /// at `boundary` (= grant boundary + epochs run since).
    Delta {
        /// Tenant the lease belongs to (echoed from the grant).
        tenant: u32,
        /// Lease the deltas belong to.
        lease_id: u64,
        /// The boundary these deltas complete.
        boundary: u64,
        /// The boundary state, full or incremental.
        deltas: DeltaPayload,
    },
    /// Coordinator → worker: boundary `boundary` merged; import
    /// `seeds` (the hub's newly retained seeds) and run the next
    /// epoch.
    Proceed {
        /// Tenant whose boundary merged.
        tenant: u32,
        /// The boundary just merged.
        boundary: u64,
        /// Hub seeds retained at this boundary, in publication order.
        seeds: Vec<HubSeed>,
    },
    /// Coordinator → worker: the final boundary merged — naturally or
    /// by graceful budget exhaustion; the campaign is complete for
    /// this tenant and the worker may exit.
    Finish {
        /// Tenant whose campaign completed.
        tenant: u32,
        /// The final boundary.
        boundary: u64,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_DELTA: u8 = 3;
const TAG_PROCEED: u8 = 4;
const TAG_FINISH: u8 = 5;
const TAG_RETRY: u8 = 6;

/// The head of a `Delta` body; the [`DeltaPayload`] follows.
fn delta_head(tenant: u32, lease_id: u64, boundary: u64, w: &mut Writer<'_>) {
    w.u8(TAG_DELTA);
    w.u32(tenant);
    w.u64(lease_id);
    w.u64(boundary);
}

impl Message {
    /// Encode to a self-validating frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let _span = stage::span(Stage::FrameCodec);
        frame(b"", FRAME_VERSION, |w| self.encode_body(w))
    }

    /// Write a [`Message::Delta`] frame into `out` (replacing what it
    /// held) around a payload its caller writes in place — the bytes
    /// [`Message::to_frame`] gives the same message, without the
    /// message: a worker writes its boundary straight from live state
    /// (`kgpt_fuzzer::LeaseRunner::write_boundary`), into the buffer
    /// it keeps for resends.
    pub fn write_delta_frame(
        out: &mut Vec<u8>,
        tenant: u32,
        lease_id: u64,
        boundary: u64,
        payload: impl FnOnce(&mut Writer<'_>),
    ) {
        frame_into(out, b"", FRAME_VERSION, |w| {
            delta_head(tenant, lease_id, boundary, w);
            payload(w);
        });
    }

    /// Tag byte and message body.
    fn encode_body(&self, w: &mut Writer<'_>) {
        match self {
            Message::Register { worker_id } => {
                w.u8(TAG_REGISTER);
                w.u64(*worker_id);
            }
            Message::Grant(g) => {
                w.u8(TAG_GRANT);
                w.u32(g.tenant);
                w.u64(g.lease_id);
                w.u32(g.slot);
                w.u32(g.shard_lo);
                w.u32(g.shard_hi);
                w.u32(g.shards_total);
                w.u64(g.boundary);
                w.u64(g.lease_timeout_ms);
                w.u64(g.spec_fp);
                encode_config(&g.config, w);
                encode_snapshots(&g.snapshots, w);
            }
            Message::Retry {
                after_grants,
                quarantined,
            } => {
                w.u8(TAG_RETRY);
                w.u64(*after_grants);
                w.bool(*quarantined);
            }
            Message::Delta {
                tenant,
                lease_id,
                boundary,
                deltas,
            } => {
                delta_head(*tenant, *lease_id, *boundary, w);
                deltas.encode(w);
            }
            Message::Proceed {
                tenant,
                boundary,
                seeds,
            } => {
                w.u8(TAG_PROCEED);
                w.u32(*tenant);
                w.u64(*boundary);
                encode_seeds(seeds, w);
            }
            Message::Finish { tenant, boundary } => {
                w.u8(TAG_FINISH);
                w.u32(*tenant);
                w.u64(*boundary);
            }
        }
    }

    /// Decode and validate a frame (inverse of [`Message::to_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Codec`] on a bad version, checksum, tag,
    /// malformed body, or trailing bytes. Receivers treat any error as
    /// a dropped frame: the sender's resend loop recovers it.
    pub fn from_frame(frame: &[u8]) -> Result<Message, FabricError> {
        let _span = stage::span(Stage::FrameCodec);
        let mut r = Reader::new(unframe(b"", FRAME_VERSION, frame)?);
        let msg = match r.u8()? {
            TAG_REGISTER => Message::Register {
                worker_id: r.u64()?,
            },
            TAG_GRANT => Message::Grant(Grant {
                tenant: r.u32()?,
                lease_id: r.u64()?,
                slot: r.u32()?,
                shard_lo: r.u32()?,
                shard_hi: r.u32()?,
                shards_total: r.u32()?,
                boundary: r.u64()?,
                lease_timeout_ms: r.u64()?,
                spec_fp: r.u64()?,
                config: decode_config(&mut r)?,
                snapshots: decode_snapshots(&mut r)?,
            }),
            TAG_RETRY => Message::Retry {
                after_grants: r.u64()?,
                quarantined: r.bool()?,
            },
            TAG_DELTA => Message::Delta {
                tenant: r.u32()?,
                lease_id: r.u64()?,
                boundary: r.u64()?,
                deltas: DeltaPayload::decode(&mut r)?,
            },
            TAG_PROCEED => Message::Proceed {
                tenant: r.u32()?,
                boundary: r.u64()?,
                seeds: decode_seeds(&mut r)?,
            },
            TAG_FINISH => Message::Finish {
                tenant: r.u32()?,
                boundary: r.u64()?,
            },
            _ => return Err(r.err("unknown frame tag").into()),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_fuzzer::fabric::{diff_boundary, sample_boundary};

    /// Meaty full + incremental delta frames built from the fuzzer
    /// crate's boundary fixture.
    fn sample_delta_frames() -> [Message; 2] {
        let (base, deltas) = sample_boundary();
        let patches = diff_boundary(&base, deltas.clone()).expect("diffable fixture");
        [
            Message::Delta {
                tenant: 1,
                lease_id: 5,
                boundary: 2,
                deltas: DeltaPayload::Full(deltas),
            },
            Message::Delta {
                tenant: 1,
                lease_id: 5,
                boundary: 2,
                deltas: DeltaPayload::Incremental(patches),
            },
        ]
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            Message::Register { worker_id: 0 },
            Message::Register {
                worker_id: 0xC0FFEE,
            },
            Message::Retry {
                after_grants: 12,
                quarantined: true,
            },
            Message::Retry {
                after_grants: 3,
                quarantined: false,
            },
            Message::Proceed {
                tenant: 2,
                boundary: 9,
                seeds: Vec::new(),
            },
            Message::Finish {
                tenant: 2,
                boundary: 17,
            },
            Message::Delta {
                tenant: 0,
                lease_id: 3,
                boundary: 4,
                deltas: DeltaPayload::Full(Vec::new()),
            },
            Message::Delta {
                tenant: 0,
                lease_id: 3,
                boundary: 4,
                deltas: DeltaPayload::Incremental(Vec::new()),
            },
            Message::Grant(Grant {
                tenant: 7,
                lease_id: 1,
                slot: 0,
                shard_lo: 0,
                shard_hi: 4,
                shards_total: 8,
                boundary: 0,
                lease_timeout_ms: 5000,
                spec_fp: 0xfeed,
                config: CampaignConfig::default(),
                snapshots: Vec::new(),
            }),
        ] {
            let frame = msg.to_frame();
            assert_eq!(Message::from_frame(&frame).expect("round trip"), msg);
        }
    }

    #[test]
    fn delta_payloads_round_trip_both_kinds() {
        for msg in sample_delta_frames() {
            let frame = msg.to_frame();
            let back = Message::from_frame(&frame).expect("round trip");
            assert_eq!(back, msg);
            if let Message::Delta { deltas, .. } = &back {
                assert_eq!(deltas.shard_ids(), vec![0, 1]);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = Message::Finish {
            tenant: 1,
            boundary: 42,
        }
        .to_frame();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    Message::from_frame(&damaged).is_err(),
                    "flip byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn superseded_frame_versions_are_rejected() {
        // A v5 frame has the same envelope around shards that carry a
        // crash tally, a v4 frame v5's bodies under another checksum, a
        // v3 frame the same envelope around dense coverage maps: a v6
        // reader must refuse them all by version, not misparse them or
        // call them corrupt.
        let mut frame = Message::Finish {
            tenant: 1,
            boundary: 42,
        }
        .to_frame();
        assert_eq!(frame[..4], 6u32.to_le_bytes());
        for version in [5, 4, 3, 2, FRAME_VERSION as u8 + 1] {
            frame[0] = version;
            let e = Message::from_frame(&frame).unwrap_err();
            assert!(e.to_string().contains("unsupported version"), "{e}");
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let frame = Message::Register { worker_id: 9 }.to_frame();
        for len in 0..frame.len() {
            assert!(Message::from_frame(&frame[..len]).is_err(), "len {len}");
        }
        let mut padded = frame;
        padded.push(0);
        assert!(Message::from_frame(&padded).is_err(), "trailing byte");
    }

    /// Fuzz-style robustness over both delta kinds: every truncation,
    /// every single bit flip, and seeded random garbage (corrupted
    /// suffixes, garbage prefixes, pure noise) must return `Err` —
    /// never panic, and never decode to a different message.
    #[test]
    fn mangled_delta_frames_never_panic_or_misdecode() {
        let mut rng = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG dep.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for msg in sample_delta_frames() {
            let frame = msg.to_frame();
            for len in 0..frame.len() {
                assert!(Message::from_frame(&frame[..len]).is_err(), "len {len}");
            }
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut damaged = frame.clone();
                    damaged[byte] ^= 1 << bit;
                    assert!(
                        Message::from_frame(&damaged).is_err(),
                        "flip byte {byte} bit {bit} must be rejected"
                    );
                }
            }
            for _ in 0..500 {
                // Corrupt a random run of bytes somewhere in the frame.
                let mut damaged = frame.clone();
                let start = (next() as usize) % damaged.len();
                let run = 1 + (next() as usize) % 32;
                for b in damaged.iter_mut().skip(start).take(run) {
                    *b ^= (next() & 0xFF) as u8;
                }
                // A run of zero xor bytes leaves the frame intact, so
                // Ok is tolerated iff it decodes to the same message.
                match Message::from_frame(&damaged) {
                    Err(_) => {}
                    Ok(back) => assert_eq!(back, msg, "corruption must not mis-decode"),
                }
                // Garbage prefix ahead of a valid frame.
                let mut prefixed = vec![(next() & 0xFF) as u8; 1 + (next() as usize) % 16];
                prefixed.extend_from_slice(&frame);
                assert!(Message::from_frame(&prefixed).is_err(), "garbage prefix");
                // Pure noise of a plausible length.
                let noise: Vec<u8> = (0..13 + (next() as usize) % 64)
                    .map(|_| (next() & 0xFF) as u8)
                    .collect();
                assert!(Message::from_frame(&noise).is_err(), "pure noise");
            }
        }
    }
}
