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

/// A checkpoint journal's record (`fuzzer/src/checkpoint.rs`): a
/// `u32` length, then an envelope — `KGPTJRNL`, version 1,
/// `codec::checksum` — of the id of the base it continues (that base's
/// own checksum word), its boundary number, a fabric frame's
/// incremental body written from live state, and what each shard's
/// flight recorder retained since the base. Recorded from the second
/// boundary of a two-shard deep-chain campaign; the base beside it is
/// a version-4 checkpoint.
#[test]
fn a_journal_record_is_golden() {
    use kernelgpt::csrc::{deepchain, KernelCorpus};
    use kernelgpt::fuzzer::{CampaignConfig, CampaignSnapshot, ShardedCampaign};
    use kernelgpt::syzlang::codec::{unframe, Reader};
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = kernelgpt::vkernel::VKernel::boot(deepchain::suite());
    let dir = std::env::temp_dir().join(format!("kgpt-wire-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
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
        .with_halt_after(2)
        .run();
    let base = std::fs::read(&path).expect("a base");
    let journal = std::fs::read(path.with_extension("ckpt.journal")).expect("a journal");
    assert_eq!((base.len(), fnv1a(&base)), (10_998, 0x7e82faac71055af6));
    assert_eq!((journal.len(), fnv1a(&journal)), (3595, 0xe212b7f50b9844f0));

    let mut log = Reader::new(&journal);
    let record = log.bytes().expect("a counted record");
    log.finish().expect("and nothing after it");
    let mut r = Reader::new(unframe(b"KGPTJRNL", 1, record).expect("its envelope"));
    assert_eq!(
        r.u64().unwrap().to_le_bytes(),
        base[12..20],
        "the base's id"
    );
    assert_eq!(r.u64().unwrap(), 2, "the boundary");
    let Ok(DeltaPayload::Incremental(patches)) = DeltaPayload::decode(&mut r) else {
        panic!("the payload is not a frame's incremental body");
    };
    assert_eq!(patches.len(), 2);
    let loaded = CampaignSnapshot::load_counting(&path).expect("loads");
    assert_eq!((loaded.0.epochs_done(), loaded.1), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
