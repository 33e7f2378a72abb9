//! Campaign durability properties: crash-safe checkpoint/resume,
//! deterministic fault injection, and the exec fuel watchdog.
//!
//! The central invariant (the reason checkpoints snapshot *boundary*
//! state and nothing else): **interrupting a campaign at any epoch
//! boundary and resuming it is bit-identical to the uninterrupted
//! run, at any thread count, under any injected fault plan.**

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{
    Campaign, CampaignConfig, CampaignSnapshot, Fault, FaultPlan, ShardedCampaign,
};
use kernelgpt::syzlang::codec::Writer;
use kernelgpt::syzlang::{ConstDb, SpecFile};
use kernelgpt::vkernel::VKernel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn deepchain_setup() -> (VKernel, Vec<SpecFile>, ConstDb) {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    (
        VKernel::boot(deepchain::suite()),
        suite,
        kc.consts().clone(),
    )
}

fn cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        execs: 3000,
        seed,
        max_prog_len: 10,
        hub_epoch: 125,
        hub_top_k: 4,
        ..CampaignConfig::default()
    }
}

/// Fresh per-test scratch path for a checkpoint file.
fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgpt-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}.ckpt"))
}

/// Interrupt-at-a-boundary + resume is bit-identical to the
/// uninterrupted run at 1/2/4/8 worker threads across three seeds.
/// With `execs = 3000` over 8 shards and `hub_epoch = 125` each shard
/// runs 3 epochs, so checkpoints land at boundaries 1 and 2 — the run
/// is interrupted at both (alternating with thread count) to prove
/// resume works from *any* boundary, not just the first.
#[test]
fn interrupt_plus_resume_is_bit_identical_at_any_thread_count() {
    let (kernel, suite, consts) = deepchain_setup();
    for seed in [1u64, 7, 0xDEAD_BEEF] {
        let reference = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
            .with_shards(8)
            .run();
        assert!(
            !reference.triage.is_empty(),
            "seed {seed}: no crash triaged on the deep-chain suite"
        );
        for (i, threads) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let halt_after = 1 + (i as u64 % 2);
            let path = ckpt_path(&format!("resume-{seed}-{threads}"));
            let partial = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
                .with_shards(8)
                .with_threads(threads)
                .with_checkpoint(&path)
                .with_halt_after(halt_after)
                .run();
            // The halt really interrupted the campaign mid-flight.
            assert!(
                partial.coverage != reference.coverage || partial.triage != reference.triage,
                "seed {seed} threads {threads}: halt_after={halt_after} did not interrupt"
            );
            let resumed = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
                .with_shards(8)
                .with_threads(threads)
                .resume(&path)
                .expect("resume");
            assert_eq!(
                reference, resumed,
                "seed {seed} threads {threads} halt {halt_after}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Every fault kind — write failures (both recoverable and
/// boundary-skipping), torn writes, bitrot, mid-epoch shard aborts,
/// and a seed-derived composite plan — leaves the campaign result and
/// the returned trace stores bit-identical, and interrupt+resume
/// still holds underneath it.
#[test]
fn resume_is_bit_identical_under_every_fault_plan() {
    let (kernel, suite, consts) = deepchain_setup();
    let seed = 7u64;
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
        .with_shards(8)
        .run_traced();
    assert!(reference.1.iter().all(|s| s.retained() > 0));
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "write-fail-recoverable",
            FaultPlan::none().with(Fault::WriteFail {
                epoch: 0,
                attempts: 2,
            }),
        ),
        (
            // All attempts fail at boundary 0: that boundary is
            // skipped, the boundary-1 checkpoint is the first one
            // written, and the halt lands there instead.
            "write-fail-skips-boundary",
            FaultPlan::none().with(Fault::WriteFail {
                epoch: 0,
                attempts: 3,
            }),
        ),
        (
            // The boundary-1 snapshot is torn after install; resume
            // must fall back to the boundary-0 previous-good rotation.
            "torn-write-falls-back",
            FaultPlan::none().with(Fault::TruncateSnapshot { epoch: 1 }),
        ),
        (
            "bitrot-falls-back",
            FaultPlan::none().with(Fault::CorruptSnapshot { epoch: 1, byte: 97 }),
        ),
        (
            "shard-abort-requarantined",
            FaultPlan::none().with(Fault::ShardAbort { epoch: 1, shard: 3 }),
        ),
        (
            // All four fault kinds stacked on boundary 0 (write
            // retries, then damage on the installed snapshot, plus a
            // shard abort); boundary 1 stays clean so resume has a
            // good generation to land on. (Spreading damage faults
            // over *every* boundary before the halt is the one plan
            // that legitimately cannot be survived — there is no
            // intact generation left by construction.)
            "seeded-composite",
            FaultPlan::from_seed(0xC0FFEE, 1, 8),
        ),
    ];
    for (tag, plan) in plans {
        // The faulted run, uninterrupted, matches the clean reference.
        let path = ckpt_path(&format!("fault-{tag}-full"));
        let full = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
            .with_shards(8)
            .with_checkpoint(&path)
            .with_faults(plan.clone())
            .run_traced();
        assert_eq!(reference, full, "{tag}: faulted full run");
        let _ = std::fs::remove_file(&path);

        // Interrupt at the *last* checkpoint the plan lets through,
        // then resume: still bit-identical.
        let path = ckpt_path(&format!("fault-{tag}-halt"));
        let halt_after = if plan
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::WriteFail { attempts: 3, .. }))
        {
            1 // boundary 0 is skipped; the 1st successful write is at boundary 1
        } else {
            2
        };
        let _partial = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
            .with_shards(8)
            .with_checkpoint(&path)
            .with_faults(plan)
            .with_halt_after(halt_after)
            .run();
        let resumed = ShardedCampaign::new(&kernel, &suite, &consts, cfg(seed))
            .with_shards(8)
            .resume_traced(&path)
            .unwrap_or_else(|e| panic!("{tag}: resume under faults: {e}"));
        assert_eq!(reference, resumed, "{tag}: resumed run");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
    }
}

/// A one-shard checkpoint written by [`ShardedCampaign`] resumes
/// through [`Campaign::resume`] — the sequential front-end — and the
/// result is bit-identical to the uninterrupted one-shard run. (The
/// reference is the one-shard *sharded* run: with the hub on, triage
/// drains at epoch boundaries, so first-seen epochs legitimately
/// differ from the single-drain `Campaign::run` loop.)
#[test]
fn sequential_campaign_resumes_a_one_shard_checkpoint() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = CampaignConfig {
        execs: 1000,
        seed: 3,
        max_prog_len: 10,
        hub_epoch: 250,
        hub_top_k: 4,
        ..CampaignConfig::default()
    };
    let reference = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(1)
        .run();
    let path = ckpt_path("sequential-resume");
    let _partial = ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
        .with_shards(1)
        .with_checkpoint(&path)
        .with_halt_after(1)
        .run();
    let resumed = Campaign::new(&kernel, &suite, &consts, config)
        .resume(&path)
        .expect("sequential resume");
    assert_eq!(reference, resumed, "sequential resume");
    let _ = std::fs::remove_file(&path);
}

/// Resume refuses snapshots from a different campaign identity: a
/// changed config (fingerprint mismatch) and a changed spec suite are
/// both named errors, not silent divergence.
#[test]
fn resume_rejects_mismatched_config_and_spec() {
    let (kernel, suite, consts) = deepchain_setup();
    let path = ckpt_path("mismatch");
    let _ = ShardedCampaign::new(&kernel, &suite, &consts, cfg(1))
        .with_shards(8)
        .with_checkpoint(&path)
        .with_halt_after(1)
        .run();

    let other_cfg = CampaignConfig { seed: 2, ..cfg(1) };
    let err = ShardedCampaign::new(&kernel, &suite, &consts, other_cfg)
        .with_shards(8)
        .resume(&path)
        .expect_err("config mismatch must be rejected");
    assert!(err.to_string().contains("config"), "got: {err}");

    let err = ShardedCampaign::new(&kernel, &suite[..1], &consts, cfg(1))
        .with_shards(8)
        .resume(&path)
        .expect_err("spec mismatch must be rejected");
    assert!(err.to_string().contains("spec"), "got: {err}");

    let err = ShardedCampaign::new(&kernel, &suite, &consts, cfg(1))
        .with_shards(8)
        .resume(&path.with_extension("missing"))
        .expect_err("missing snapshot must be rejected");
    assert!(err.to_string().contains("read"), "got: {err}");

    let _ = std::fs::remove_file(&path);
}

/// The exec fuel watchdog: a starved budget terminates programs
/// gracefully (counted in `fuel_exhausted`, never a crash or a hang),
/// the count is a pure function of the config, and thread count stays
/// a pure throughput knob even with the watchdog tripping constantly.
#[test]
fn fuel_exhaustion_is_deterministic_and_never_corrupts_the_merge() {
    let (kernel, suite, consts) = deepchain_setup();
    let starved = CampaignConfig {
        exec_fuel: 48,
        ..cfg(5)
    };
    let run = |threads: usize| {
        ShardedCampaign::new(&kernel, &suite, &consts, starved.clone())
            .with_shards(8)
            .with_threads(threads)
            .run()
    };
    let base = run(1);
    assert!(
        base.fuel_exhausted > 0,
        "a 48-unit budget must starve some programs"
    );
    for threads in [2usize, 4, 8] {
        let r = run(threads);
        assert_eq!(base, r, "starved run, threads {threads}");
    }
    // An unlimited budget never trips the watchdog.
    let unlimited = ShardedCampaign::new(
        &kernel,
        &suite,
        &consts,
        CampaignConfig {
            exec_fuel: 0,
            ..cfg(5)
        },
    )
    .with_shards(8)
    .run();
    assert_eq!(unlimited.fuel_exhausted, 0);
}

/// Route equivalence for the flight recorder's stores, over the edges
/// of the trim rule: rings off, of one, shorter than, equal to and
/// longer than the epoch (and one that is neither a multiple nor a
/// divisor of it), on one, three and eight shards, over budgets that
/// split unevenly and end in a short epoch, that leave one shard a
/// 1-exec final epoch while the others have finished, and that give
/// some shards no exec at all. For each: the traced run, the same run
/// checkpointing at every boundary, and — halted after *every*
/// boundary in turn — the run resumed at one and two threads all
/// return the same `(result, stores)`.
#[test]
fn resumed_trace_stores_equal_the_uninterrupted_runs_from_every_boundary() {
    let (kernel, suite, consts) = deepchain_setup();
    let mut resumes = 0u32;
    for (trace_ring, hub_epoch) in [
        (0, 128),
        (1, 128),
        (32, 128),
        (128, 128),
        (512, 128),
        (40, 16),
    ] {
        for shards in [1u32, 3, 8] {
            let per_epoch = u64::from(shards) * hub_epoch;
            for execs in [
                2 * per_epoch + per_epoch / 2 + 1,
                2 * per_epoch + 1,
                u64::from(shards) - 1,
            ] {
                let tag =
                    format!("ring {trace_ring} epoch {hub_epoch} shards {shards} execs {execs}");
                let campaign = |threads: usize| {
                    let config = CampaignConfig {
                        execs,
                        seed: 11,
                        max_prog_len: 10,
                        hub_epoch,
                        hub_top_k: 4,
                        trace_ring,
                        ..CampaignConfig::default()
                    };
                    ShardedCampaign::new(&kernel, &suite, &consts, config)
                        .with_shards(shards)
                        .with_threads(threads)
                };
                let reference = campaign(1).run_traced();
                assert_eq!(reference.0.execs, execs, "{tag}");
                assert_eq!(
                    reference.1.len(),
                    if trace_ring > 0 { shards as usize } else { 0 },
                    "{tag}"
                );
                let path = ckpt_path("store-matrix");
                let boundaries = AtomicU64::new(0);
                let checkpointing = campaign(1)
                    .with_checkpoint(&path)
                    .with_on_checkpoint(|n| boundaries.store(n, Ordering::Relaxed))
                    .run_traced();
                assert_eq!(reference, checkpointing, "{tag}: checkpointing");
                let boundaries = boundaries.load(Ordering::Relaxed);
                assert_eq!(boundaries, if execs < per_epoch { 0 } else { 2 }, "{tag}");
                for k in 1..=boundaries {
                    let _ = campaign(1)
                        .with_checkpoint(&path)
                        .with_halt_after(k)
                        .run_traced();
                    for threads in [1, 2] {
                        let resumed = campaign(threads)
                            .resume_traced(&path)
                            .unwrap_or_else(|e| panic!("{tag}: resume from {k}: {e}"));
                        assert_eq!(reference, resumed, "{tag}: boundary {k}, {threads} threads");
                        resumes += 1;
                    }
                }
                let _ = std::fs::remove_file(&path);
                let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));
            }
        }
    }
    assert_eq!(resumes, 6 * 3 * 2 * 2 * 2);
}

/// The flight recorder seals a ring slot only when somebody reads it,
/// trims its ring where an epoch starts, and a checkpointing campaign
/// persists only what that trim keeps. None of it may move a byte of
/// what a run returns: this digest of the eight returned stores'
/// elements ([`kernelgpt::trace::TraceStore::encode`], no envelope, so
/// a checksum or version bump cannot touch it) was recorded on
/// `94c78c3`, where the same eight stores inside their version-1
/// envelopes still gave the `0x208e9d7e8c86a4f5` recorded on the last
/// commit that encoded every exec as it ran (`4498b28`). It must hold
/// whether or not the campaign checkpoints at every boundary.
#[test]
fn returned_trace_stores_are_byte_identical_to_eager_encoding() {
    let (kernel, suite, consts) = deepchain_setup();
    let config = CampaignConfig {
        execs: 50_000,
        seed: 1,
        max_prog_len: 12,
        hub_epoch: 128,
        hub_top_k: 4,
        trace_ring: 32,
        ..CampaignConfig::default()
    };
    let campaign = || {
        ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
            .with_shards(8)
            .with_threads(1)
    };
    let path = ckpt_path("store-golden");
    for (label, (result, stores)) in [
        ("plain", campaign().run_traced()),
        (
            "checkpointing",
            campaign().with_checkpoint(&path).run_traced(),
        ),
    ] {
        assert_eq!(stores.len(), 8, "{label}");
        let mut bytes = Vec::new();
        for store in &stores {
            store.encode(&mut Writer::new(&mut bytes));
        }
        assert_eq!(
            (bytes.len(), kernelgpt::trace::fnv1a(&bytes)),
            (186_270, 0x2108_a516_721a_3cdf),
            "{label}"
        );
        assert_eq!(
            (result.blocks(), result.unique_crashes()),
            (325, 5),
            "{label}"
        );
    }
}

/// A boundary checkpoint is encoded straight from live campaign state
/// (no owned snapshot is built first); loading it and encoding the
/// owned snapshot must give the same bytes — one encoder, one field
/// order, one canonical form for every map in it.
#[test]
fn a_live_boundary_write_equals_its_reloaded_snapshot_re_encoded() {
    let (kernel, suite, consts) = deepchain_setup();
    for (halt_after, trace_ring) in [(1, 32), (2, 32), (2, 0)] {
        let path = ckpt_path(&format!("live-bytes-{halt_after}-{trace_ring}"));
        let config = CampaignConfig {
            trace_ring,
            ..cfg(7)
        };
        let _ = ShardedCampaign::new(&kernel, &suite, &consts, config)
            .with_shards(8)
            .with_checkpoint(&path)
            .with_halt_after(halt_after)
            .run();
        let written = std::fs::read(&path).expect("the boundary wrote a checkpoint");
        let reloaded = CampaignSnapshot::load(&path).expect("and it loads");
        assert_eq!(reloaded.epochs_done(), halt_after);
        assert!(
            reloaded.to_bytes() == written,
            "halt {halt_after}, ring {trace_ring}: re-encoding moved bytes"
        );
    }
}
