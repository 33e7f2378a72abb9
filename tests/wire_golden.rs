//! Format stability: FNV-1a of every serialized format reachable
//! through the public API. A mismatch means a wire or on-disk format
//! changed — which needs a version bump, not a new constant. These
//! four were re-recorded with `FRAME_VERSION` 4 (sparse coverage maps
//! inside deltas, patches and seeds); the program and trace-store
//! pins still date from before the port onto `kgpt_syzlang::codec`.
//! (The program, checkpoint and trace-store fixtures are private to
//! their crates' unit tests; their `golden_bytes` assertions sit
//! beside them in `syzlang/src/prog.rs`, `fuzzer/src/checkpoint.rs`
//! and `trace/src/lib.rs`.)

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
    assert_eq!((full.len(), fnv1a(&full)), (775, 0x665d_ebc4_e00a_b049));

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let mut incr = Vec::new();
    encode_patches(&patches, &mut incr);
    assert_eq!((incr.len(), fnv1a(&incr)), (652, 0x94ed_eade_fe34_7643));
}

#[test]
fn delta_frames_are_golden() {
    let (base, deltas) = sample_boundary();
    let full = delta_frame(DeltaPayload::Full(deltas.clone()));
    assert_eq!((full.len(), fnv1a(&full)), (809, 0xa9fe_6264_d8a7_12b4));

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let incr = delta_frame(DeltaPayload::Incremental(patches));
    assert_eq!((incr.len(), fnv1a(&incr)), (686, 0x287e_d970_54dd_dac5));
}
