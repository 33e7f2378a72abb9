//! Campaign durability properties: crash-safe checkpoint/resume,
//! deterministic fault injection, and the exec fuel watchdog.
//!
//! The central invariant (the reason checkpoints snapshot *boundary*
//! state and nothing else): **interrupting a campaign at any epoch
//! boundary and resuming it is bit-identical to the uninterrupted
//! run, at any thread count, under any injected fault plan.**

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::corpus::SplitMix64;
use kernelgpt::fuzzer::{
    Campaign, CampaignConfig, CampaignResult, CampaignSnapshot, Fault, FaultPlan, ShardedCampaign,
    TraceStore,
};
use kernelgpt::syzlang::codec::Writer;
use kernelgpt::syzlang::{ConstDb, SpecFile};
use kernelgpt::vkernel::VKernel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
        // Boundary 2 is a record now (the log holds it, or what the
        // plan left of it), except where the plan made it a base.
        assert!(journal(&path).exists(), "{tag}: no journal beside the base");
        remove_all(&path);
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

/// `<path>.journal`, `<path>.prev`, `<path>.tmp`.
fn journal(path: &Path) -> PathBuf {
    path.with_extension("ckpt.journal")
}

fn prev(path: &Path) -> PathBuf {
    path.with_extension("ckpt.prev")
}

fn remove_all(path: &Path) {
    for file in [path.to_path_buf(), journal(path), prev(path)] {
        let _ = std::fs::remove_file(file);
    }
}

/// The journal's records, each with its length prefix: a `u32` count,
/// then that many bytes of envelope.
fn records(journal: &[u8]) -> Vec<&[u8]> {
    let mut rest = journal;
    let mut records = Vec::new();
    while let Some((len, _)) = rest.split_first_chunk::<4>() {
        let end = 4 + u32::from_le_bytes(*len) as usize;
        records.push(&rest[..end]);
        rest = &rest[end..];
    }
    records
}

/// A campaign small enough to load thousands of times: two shards,
/// epochs of 16 execs, nine boundaries before the last epoch, a ring
/// shorter than an epoch — bases of 8–20 KB, records of 1–2 KB.
struct Small<'a> {
    kernel: &'a VKernel,
    suite: &'a [SpecFile],
    consts: &'a ConstDb,
    seed: u64,
}

/// Which of [`Small`]'s boundaries (seed 5) are written as bases.
const SMALL_BASES: [bool; 9] = [true, false, true, false, false, false, false, true, false];

impl<'a> Small<'a> {
    fn campaign(&self) -> ShardedCampaign<'a> {
        let config = CampaignConfig {
            execs: 2 * 16 * 10,
            seed: self.seed,
            max_prog_len: 6,
            hub_epoch: 16,
            hub_top_k: 4,
            trace_ring: 4,
            ..CampaignConfig::default()
        };
        ShardedCampaign::new(self.kernel, self.suite, self.consts, config)
            .with_shards(2)
            .with_threads(1)
    }

    /// Run to the `k`-th durable boundary at `path` and stop, saying
    /// which of the boundaries so far were written as bases.
    fn halted(&self, path: &Path, k: u64, faults: FaultPlan) -> Vec<bool> {
        remove_all(path);
        let bases = Mutex::new(Vec::new());
        let _ = self
            .campaign()
            .with_checkpoint(path)
            .with_faults(faults)
            .with_on_checkpoint(|_| {
                let journal = std::fs::metadata(journal(path)).expect("a journal");
                bases.lock().unwrap().push(journal.len() == 0);
            })
            .with_halt_after(k)
            .run_traced();
        bases.into_inner().unwrap()
    }

    /// What is on disk at `path` loads as boundary `epochs_done`, the
    /// last `replayed` of them from records, and resumes to `reference`.
    fn loads(
        &self,
        path: &Path,
        (epochs_done, replayed): (u64, u64),
        reference: &(CampaignResult, Vec<TraceStore>),
        what: &str,
    ) {
        let (snapshot, n) = CampaignSnapshot::load_counting(path).expect("loads");
        assert_eq!(
            (snapshot.epochs_done(), n),
            (epochs_done, replayed),
            "{what}"
        );
        let resumed = self.campaign().resume_traced(path).expect("resumes");
        assert_eq!(&resumed, reference, "{what}");
    }
}

/// Replay equals the snapshot it replaces. The old route — a whole
/// snapshot of the live state at every boundary — is still what a run
/// writes at its *first* durable boundary, so a chain of runs resumed
/// and halted one boundary on writes it at every boundary, each file a
/// `SnapshotView` of live state with an empty journal beside it. At
/// every boundary of randomised campaigns — one, three and eight
/// shards, budgets smaller than the shard count and epochs longer than
/// the budget, hub top-k 0, rings off, shorter and longer than an
/// epoch — loading base + journal re-encodes to exactly that file.
#[test]
fn a_live_boundary_write_equals_its_reloaded_snapshot_re_encoded() {
    let (kernel, suite, consts) = deepchain_setup();
    let mut rng = SplitMix64::new(0x5EED_2307);
    let (mut compared, mut replayed) = (0u32, 0u64);
    for round in 0..18u64 {
        let shards = [1u32, 3, 8][(round % 3) as usize];
        let hub_epoch = [16u64, 40, 128][rng.bounded(3) as usize];
        let config = CampaignConfig {
            execs: match round {
                0..3 => u64::from(shards) - 1 + rng.bounded(2),
                3..6 => hub_epoch - 1,
                _ => u64::from(shards) * hub_epoch * (5 + rng.bounded(9)) + rng.bounded(hub_epoch),
            },
            seed: rng.next_u64(),
            max_prog_len: 6 + rng.bounded(8) as usize,
            hub_epoch,
            hub_top_k: [0usize, 1, 4][rng.bounded(3) as usize],
            trace_ring: [0usize, 32, 512][((round / 3) % 3) as usize],
            ..CampaignConfig::default()
        };
        let tag = format!("round {round}: {shards} shards, {config:?}");
        let campaign = || {
            ShardedCampaign::new(&kernel, &suite, &consts, config.clone())
                .with_shards(shards)
                .with_threads(1)
        };
        // The journalled run, read back at every durable boundary.
        let path = ckpt_path(&format!("replay-{round}"));
        let loaded = Mutex::new(Vec::new());
        let reference = campaign()
            .with_checkpoint(&path)
            .with_on_checkpoint(|_| {
                let (snapshot, records) = CampaignSnapshot::load_counting(&path).expect("loads");
                let state = (snapshot.epochs_done(), records, snapshot.to_bytes());
                loaded.lock().unwrap().push(state);
            })
            .run_traced();
        // The oracle chain: every boundary a base of live state.
        let oracle = ckpt_path(&format!("replay-{round}-oracle"));
        for (n, (epochs_done, records, bytes)) in loaded.into_inner().unwrap().iter().enumerate() {
            let chained = campaign().with_checkpoint(&oracle).with_halt_after(1);
            if n == 0 {
                let _ = chained.run_traced();
            } else {
                let _ = chained.resume_traced(&oracle).expect("the chain resumes");
            }
            assert_eq!(*epochs_done, n as u64 + 1, "{tag}");
            let journal = std::fs::metadata(journal(&oracle)).expect("a journal");
            assert_eq!(journal.len(), 0, "{tag}: the oracle replayed something");
            let written = std::fs::read(&oracle).expect("the boundary wrote a base");
            assert!(
                *bytes == written,
                "{tag}: boundary {epochs_done} ({records} records replayed) re-encodes differently"
            );
            compared += 1;
            replayed += records;
        }
        // And the chain's last link runs on to the same end.
        if compared > 0 && oracle.exists() {
            let finished = campaign()
                .resume_traced(&oracle)
                .expect("the chain finishes");
            assert_eq!(reference, finished, "{tag}");
        }
        remove_all(&path);
        remove_all(&oracle);
    }
    println!("{compared} boundaries compared, {replayed} records replayed in all");
    assert!(compared >= 80, "only {compared} boundaries compared");
    assert!(replayed >= 80, "only {replayed} records replayed");
}

/// Kill anywhere, resume identical: the journal cut at every byte of
/// its last record, and one byte flipped at every offset of every
/// record, is a log that ends before the damage. What loads is, byte
/// for byte, the campaign as of the last record before it — and each
/// of those states resumes to the uninterrupted result and stores,
/// having re-run what was lost.
#[test]
fn a_journal_cut_or_flipped_at_any_byte_resumes_identically() {
    let (kernel, suite, consts) = deepchain_setup();
    let small = Small {
        kernel: &kernel,
        suite: &suite,
        consts: &consts,
        seed: 5,
    };
    let reference = small.campaign().run_traced();
    let path = ckpt_path("every-byte");
    // Base 3 and the four records after it.
    assert_eq!(small.halted(&path, 7, FaultPlan::none()), SMALL_BASES[..7]);
    let whole = std::fs::read(journal(&path)).expect("the journal");
    let records = records(&whole);
    assert_eq!(records.len(), 4);
    // The state each intact prefix of the log loads as, and its resume.
    let mut ends = vec![0];
    ends.extend(
        records
            .iter()
            .scan(0, |end, r| Some((*end += r.len(), *end).1)),
    );
    let states: Vec<Vec<u8>> = ends
        .iter()
        .zip(0u64..)
        .map(|(end, intact)| {
            std::fs::write(journal(&path), &whole[..*end]).expect("cut");
            small.loads(&path, (3 + intact, intact), &reference, "an intact prefix");
            CampaignSnapshot::load(&path).expect("loads").to_bytes()
        })
        .collect();
    let check = |damaged: &[u8], intact: usize, what: &str| {
        std::fs::write(journal(&path), damaged).expect("damage");
        let (snapshot, replayed) = CampaignSnapshot::load_counting(&path).expect("loads");
        assert_eq!(replayed as usize, intact, "{what}");
        assert!(
            snapshot.to_bytes() == states[intact],
            "{what}: not boundary {}",
            3 + intact
        );
    };
    for cut in ends[3]..ends[4] {
        check(&whole[..cut], 3, &format!("cut at {cut}"));
    }
    for offset in 0..whole.len() {
        let mut flipped = whole.clone();
        flipped[offset] ^= 0x20;
        let intact = ends
            .iter()
            .rposition(|end| *end <= offset)
            .expect("ends[0] = 0");
        check(&flipped, intact, &format!("flip at {offset}"));
    }
    remove_all(&path);
}

/// What binds a record to its base. A kill between a base's install
/// and the journal's reset leaves the records of the base before; the
/// frozen benchmark reuses one path every round, so a campaign's first
/// base lands beside another seed's journal; a base that rots at rest
/// leaves its records beside the previous generation. None of these
/// records is applied. And a kill between a base's rotation and the
/// next one's install leaves `.prev` beside a journal that *is* its
/// own: all of it is applied.
#[test]
fn a_record_is_applied_to_the_base_it_names_and_to_no_other() {
    let (kernel, suite, consts) = deepchain_setup();
    let small = Small {
        kernel: &kernel,
        suite: &suite,
        consts: &consts,
        seed: 5,
    };
    let reference = small.campaign().run_traced();
    let path = ckpt_path("binding");
    assert_eq!(small.halted(&path, 9, FaultPlan::none()), SMALL_BASES);

    // Base 3 and its four records, as the boundary before base 8
    // left them.
    small.halted(&path, 7, FaultPlan::none());
    let old_journal = std::fs::read(journal(&path)).expect("records");
    let old_base = std::fs::read(&path).expect("base");
    small.loads(&path, (7, 4), &reference, "base 3 and its records");

    // Killed between rotation and install: `.prev` and its own journal.
    std::fs::remove_file(prev(&path)).expect("step 2");
    std::fs::rename(&path, prev(&path)).expect("step 3");
    small.loads(&path, (7, 4), &reference, "killed between steps 3 and 4");

    // Killed between install and reset: base 8 beside base 3's records.
    small.halted(&path, 8, FaultPlan::none());
    assert_eq!(std::fs::read(prev(&path)).expect("rotated"), old_base);
    std::fs::write(journal(&path), &old_journal).expect("stale journal");
    small.loads(&path, (8, 0), &reference, "killed between steps 4 and 5");

    // Base 8 and a record of its own; then base 8 rots at rest:
    // `.prev` is base 3, and the journal is not its.
    small.halted(&path, 9, FaultPlan::none());
    small.loads(&path, (9, 1), &reference, "base 8 and a record");
    let mut rotten = std::fs::read(&path).expect("base 8");
    rotten[40] ^= 0xFF;
    std::fs::write(&path, &rotten).expect("rot");
    small.loads(
        &path,
        (3, 0),
        &reference,
        "the fallback has no journal of its own",
    );

    // Another seed's campaign left its files here, and this one's
    // first base goes in beside that journal.
    let other = Small { seed: 6, ..small };
    other.halted(&path, 7, FaultPlan::none());
    let foreign = std::fs::read(journal(&path)).expect("the other campaign's records");
    assert!(!foreign.is_empty());
    small.halted(&path, 1, FaultPlan::none());
    std::fs::write(journal(&path), &foreign).expect("foreign journal");
    small.loads(&path, (1, 0), &reference, "another campaign's journal");
    // Left alone, the sequence is what the benchmark does every round.
    remove_all(&path);
    let _ = other.campaign().with_checkpoint(&path).run_traced();
    let rerun = small.campaign().with_checkpoint(&path).run_traced();
    assert_eq!(rerun, reference, "a run over another campaign's files");
    remove_all(&path);
}

/// A fault that lands on a record instead of a base (boundary 5, the
/// second record after base 3): a write that fails is retried or, out
/// of attempts, skipped — and the boundary after it is a base, since
/// nothing can be appended past a hole; a record torn or rotted after
/// its write ends the log before it, and the next boundary is a base
/// as well.
#[test]
fn a_fault_on_a_record_costs_its_boundary_and_forces_a_base() {
    let (kernel, suite, consts) = deepchain_setup();
    let small = Small {
        kernel: &kernel,
        suite: &suite,
        consts: &consts,
        seed: 5,
    };
    let reference = small.campaign().run_traced();
    let path = ckpt_path("record-faults");
    assert!(
        !SMALL_BASES[3] && !SMALL_BASES[4],
        "boundary 5 is a record on a record"
    );
    let retried = Fault::WriteFail {
        epoch: 4,
        attempts: 2,
    };
    let skipped = Fault::WriteFail {
        epoch: 4,
        attempts: 3,
    };
    let torn = Fault::TruncateSnapshot { epoch: 4 };
    let rotted = Fault::CorruptSnapshot { epoch: 4, byte: 77 };
    // (fault, durable boundaries to halt after, what then loads)
    let cells = [
        (retried, 5, (5, 2)),
        (retried, 6, (6, 3)),
        (skipped, 4, (4, 1)),
        (skipped, 5, (6, 0)),
        (torn, 5, (4, 1)),
        (torn, 6, (6, 0)),
        (rotted, 5, (4, 1)),
        (rotted, 6, (6, 0)),
    ];
    for (fault, halt_after, loads) in cells {
        let plan = FaultPlan::none().with(fault);
        let faulted = small
            .campaign()
            .with_checkpoint(&path)
            .with_faults(plan.clone());
        assert_eq!(
            faulted.run_traced(),
            reference,
            "{fault:?}: the faulted run"
        );
        small.halted(&path, halt_after, plan);
        let what = format!("{fault:?}, halted after {halt_after}");
        small.loads(&path, loads, &reference, &what);
    }
    remove_all(&path);
}
