//! Format stability: FNV-1a of every serialized format reachable
//! through the public API. A mismatch means a wire or on-disk format
//! changed — which needs a version bump, not a new constant. The
//! bodies were recorded with `FRAME_VERSION` 4 (sparse coverage maps
//! inside deltas, patches and seeds) and the whole frames with
//! `FRAME_VERSION` 5 (`codec::checksum` in the envelope, bodies
//! untouched); the program and trace-store payload pins still date
//! from before the port onto `kgpt_syzlang::codec`.
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
    assert_eq!((full.len(), fnv1a(&full)), (809, 0xf469_420f_67a8_471b));
    // What the 12-byte envelope wraps is what version 4 wrapped.
    assert_eq!(fnv1a(&full[12..]), 0x16f8_e89f_af13_999e);

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let incr = delta_frame(DeltaPayload::Incremental(patches));
    assert_eq!((incr.len(), fnv1a(&incr)), (686, 0xa026_4a02_3f4d_bc01));
    assert_eq!(fnv1a(&incr[12..]), 0xfe1a_19bf_25bb_9735);
}
