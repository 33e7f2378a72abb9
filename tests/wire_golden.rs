//! Format stability: FNV-1a of every serialized format reachable
//! through the public API, recorded on the commit *before* the five
//! hand-rolled codecs were ported onto `kgpt_syzlang::codec`. A
//! mismatch means a wire or on-disk format changed — which needs a
//! version bump, not a new constant. (The program, checkpoint and
//! trace-store fixtures are private to their crates' unit tests; their
//! `golden_bytes` assertions sit beside them in `syzlang/src/prog.rs`,
//! `fuzzer/src/checkpoint.rs` and `trace/src/lib.rs`.)

use kernelgpt::fabric::{DeltaPayload, Message};
use kernelgpt::fuzzer::fabric::{diff_boundary, encode_patches, sample_boundary};
use kernelgpt::fuzzer::EpochDelta;
use kernelgpt::syzlang::codec::Writer;
use kernelgpt::trace::fnv1a;

fn delta_frame(deltas: DeltaPayload) -> Vec<u8> {
    Message::Delta {
        tenant: 1,
        lease_id: 5,
        boundary: 2,
        deltas,
    }
    .to_frame()
}

#[test]
fn fabric_delta_and_patch_bytes_are_golden() {
    let (base, deltas) = sample_boundary();
    // A full frame's body: the counted list of deltas.
    let mut full = Vec::new();
    Writer::new(&mut full).seq(&deltas, EpochDelta::encode);
    assert_eq!((full.len(), fnv1a(&full)), (800, 0x6a09_88e9_9a07_9e4e));

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let mut incr = Vec::new();
    encode_patches(&patches, &mut incr);
    assert_eq!((incr.len(), fnv1a(&incr)), (682, 0xb31c_db7b_6376_dfc3));
}

#[test]
fn delta_frames_are_golden() {
    let (base, deltas) = sample_boundary();
    let full = delta_frame(DeltaPayload::Full(deltas.clone()));
    assert_eq!((full.len(), fnv1a(&full)), (834, 0x8316_bb05_29e3_6137));

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let incr = delta_frame(DeltaPayload::Incremental(patches));
    assert_eq!((incr.len(), fnv1a(&incr)), (716, 0x7ba4_e80f_4c73_3c9b));
}
