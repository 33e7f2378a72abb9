//! Format stability: FNV-1a of every serialized format reachable
//! through the public API. A mismatch means a wire or on-disk format
//! changed — which needs a version bump, not a new constant. The
//! delta and patch bodies and frames were recorded with
//! `FRAME_VERSION` 6 (no crash tally in a shard, delta or patch), the
//! journal record with journal version 2 beside a version-5 base; the
//! program and trace-store payload pins still date from before the
//! port onto `kgpt_syzlang::codec`.
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
    assert_eq!((full.len(), fnv1a(&full)), (643, 0x4ed9_3737_6fdf_8aae));

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let mut incr = Vec::new();
    encode_patches(&patches, &mut incr);
    assert_eq!((incr.len(), fnv1a(&incr)), (520, 0x48e7_a9b6_32e4_7b10));
}

#[test]
fn delta_frames_are_golden() {
    let (base, deltas) = sample_boundary();
    let full = delta_frame(DeltaPayload::Full(deltas.clone()));
    assert_eq!((full.len(), fnv1a(&full)), (677, 0x243d_c3e2_0805_15b9));
    assert_eq!(fnv1a(&full[12..]), 0xfe45_e17b_e35f_0609);

    let patches = diff_boundary(&base, deltas).expect("diffable fixture");
    let incr = delta_frame(DeltaPayload::Incremental(patches));
    assert_eq!((incr.len(), fnv1a(&incr)), (554, 0x57b3_5262_e9bc_447a));
    assert_eq!(fnv1a(&incr[12..]), 0xae86_bdfd_de32_c2ca);
}

/// A checkpoint journal's record (`fuzzer/src/checkpoint.rs`): a
/// `u32` length, then an envelope — `KGPTJRNL`, version 2,
/// `codec::checksum` — of the id of the base it continues (that base's
/// own checksum word), its boundary number, a fabric frame's
/// incremental body written from live state, and what each shard's
/// flight recorder retained since the base. Recorded from the second
/// boundary of a two-shard deep-chain campaign; the base beside it is
/// a version-5 checkpoint.
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
    assert_eq!((base.len(), fnv1a(&base)), (10_990, 0xafa1_01f4_52ca_e288));
    assert_eq!(
        (journal.len(), fnv1a(&journal)),
        (3587, 0xd52f_4289_7b8d_f9db)
    );

    let mut log = Reader::new(&journal);
    let record = log.bytes().expect("a counted record");
    log.finish().expect("and nothing after it");
    let mut r = Reader::new(unframe(b"KGPTJRNL", 2, record).expect("its envelope"));
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
