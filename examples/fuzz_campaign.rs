//! A complete fuzzing campaign: generate specifications for three
//! flagship drivers, boot the virtual kernel, and run a
//! coverage-guided campaign comparing the generated suite against the
//! pre-existing (partial) Syzkaller specs.
//!
//! Run with: `cargo run --release --example fuzz_campaign`
//!
//! Environment knobs (all optional; used by the CI kill-and-resume
//! smoke, which SIGKILLs a checkpointing run mid-campaign and demands
//! that resume reproduce the uninterrupted `RESULT` lines and
//! `FUZZ_TRACE_STORE` files exactly, and by the CI trace-replay smoke,
//! which re-executes every retained flight-recorder trace offline and
//! demands bit-identity):
//!
//! * `FUZZ_EXECS` — per-campaign exec budget (default 20000);
//! * `FUZZ_CHECKPOINT` — base path for crash-safe per-epoch campaign
//!   checkpoints (each suite writes a base to `<base>.suiteN.ckpt` and
//!   a journal of the boundaries since to `<base>.suiteN.ckpt.journal`);
//! * `FUZZ_RESUME` — when set, resume each campaign from its last
//!   durable boundary instead of starting fresh (a `RESUME` line says
//!   which base was read and how many journal records were replayed on
//!   it), falling back to a fresh run when no usable snapshot exists
//!   (e.g. killed before the first boundary);
//! * `FUZZ_TRACE` — per-shard flight-recorder ring capacity override
//!   (0 disables tracing; the default is [`CampaignConfig`]'s). A
//!   shard trims its ring where each hub epoch starts — to the newest
//!   `ring − epoch` traces, so below this example's 2048-exec epoch
//!   the ring refills every epoch and a checkpoint carries only the
//!   pinned crash traces — which is what makes a resumed run's stores
//!   equal an uninterrupted run's (`kernelgpt::trace`, replay
//!   contract); a ring of `FUZZ_EXECS / 8` keeps every non-crashing
//!   exec;
//! * `FUZZ_TRACE_STORE` — base path to dump each campaign's retained
//!   trace stores (each suite writes `<base>.suiteN.trc`);
//! * `FUZZ_TRACE_REPLAY` — replay mode: instead of fuzzing, read the
//!   `<base>.suiteN.trc` stores written by a previous run, re-execute
//!   every retained trace from its header, and exit non-zero if any
//!   replay diverges from its recording (or any crash signature lacks
//!   a pinned trace replaying to the same signature).

use kernelgpt::core::KernelGpt;
use kernelgpt::csrc::{flagship, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::fuzzer::{
    cfg_successors, replay_trace, CampaignConfig, CampaignSnapshot, ExecScratch, ShardedCampaign,
    TraceStore,
};
use kernelgpt::llm::{ModelKind, OracleModel};
use kernelgpt::syzlang::{SpecCache, SpecFile};
use kernelgpt::trace::{read_trace_file, write_trace_file};
use kernelgpt::vkernel::VKernel;
use std::path::PathBuf;

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let execs = env_u64("FUZZ_EXECS", 20_000);
    let checkpoint = std::env::var_os("FUZZ_CHECKPOINT").map(PathBuf::from);
    let resume = std::env::var_os("FUZZ_RESUME").is_some();
    let trace_ring = env_u64("FUZZ_TRACE", CampaignConfig::default().trace_ring as u64) as usize;
    let trace_store = std::env::var_os("FUZZ_TRACE_STORE").map(PathBuf::from);
    let trace_replay = std::env::var_os("FUZZ_TRACE_REPLAY").map(PathBuf::from);

    let blueprints = vec![flagship::dm(), flagship::cec(), flagship::sg()];
    let kc = KernelCorpus::from_blueprints(blueprints.clone());
    let kernel = VKernel::boot(blueprints);
    let handlers = find_handlers(kc.corpus());

    // Suite A: whatever already exists in "Syzkaller".
    let existing = kc.existing_suite();
    // Suite B: existing + KernelGPT-generated specs.
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let report = KernelGpt::new(&model, kc.corpus()).generate_all(&handlers, kc.consts());
    let mut augmented = existing.clone();
    augmented.extend(report.specs());

    if let Some(base) = trace_replay {
        // Offline time-travel replay: the suites are regenerated
        // deterministically above, so the spec fingerprints stamped
        // into the stored traces validate against the same suites the
        // recording run fuzzed.
        let ok = replay_stores(&kernel, &kc, &base, &[existing, augmented]);
        std::process::exit(i32::from(!ok));
    }

    for (i, (name, suite)) in [("existing", existing), ("existing+KernelGPT", augmented)]
        .into_iter()
        .enumerate()
    {
        if suite.is_empty() {
            println!("{name:<20}: no specs, skipping");
            continue;
        }
        let cfg = CampaignConfig {
            execs,
            seed: 1,
            // Cross-shard seed exchange: every 2048 execs per shard,
            // each shard publishes its 4 best novel seeds to the hub
            // and imports what it has not seen. Exchange happens at
            // fixed exec boundaries in shard-id order, so the result
            // is still independent of the thread count.
            hub_epoch: 2_048,
            hub_top_k: 4,
            trace_ring,
            ..CampaignConfig::default()
        };
        // Sharded over all cores; the result is identical to a
        // sequential 8-shard run, just faster.
        let mut campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), cfg);
        let ckpt = checkpoint
            .as_ref()
            .map(|base| base.with_extension(format!("suite{i}.ckpt")));
        if let Some(path) = &ckpt {
            // Announce every installed snapshot on stdout: harnesses
            // (the CI kill-and-resume job) wait for the first
            // CHECKPOINT line before killing the process, instead of
            // sleeping and hoping a snapshot exists by then.
            campaign = campaign
                .with_checkpoint(path)
                .with_on_checkpoint(move |n| println!("CHECKPOINT {i}.{n}"));
        }
        let (result, stores) = match (&ckpt, resume) {
            (Some(path), true) => {
                // Where the resume starts: the base on disk and the
                // journal records replayed on top of it.
                if let Ok((at, records)) = CampaignSnapshot::load_counting(path) {
                    let base = at.epochs_done() - records;
                    println!("RESUME {name}: base={base} records={records}");
                }
                match campaign.resume_traced(path) {
                    Ok(r) => {
                        println!("{name:<20}: resumed from {}", path.display());
                        r
                    }
                    Err(e) => {
                        println!("{name:<20}: no usable snapshot ({e}); running fresh");
                        campaign.run_traced()
                    }
                }
            }
            _ => campaign.run_traced(),
        };
        println!(
            "{name:<20}: {:>5} blocks, {} unique crashes over {} execs (corpus {})",
            result.blocks(),
            result.unique_crashes(),
            result.execs,
            result.corpus_size,
        );
        for (title, (count, cve)) in &result.crashes {
            println!(
                "    crash: {title} x{count}{}",
                cve.as_deref()
                    .map(|c| format!(" ({c})"))
                    .unwrap_or_default()
            );
        }
        if let Some(base) = &trace_store {
            let path = base.with_extension(format!("suite{i}.trc"));
            write_trace_file(&path, &stores).expect("write trace store");
            println!("{name:<20}: traces written to {}", path.display());
        }
        // Stable machine-checkable lines: the kill-and-resume smoke
        // diffs the RESULT lines between an uninterrupted reference
        // run and an interrupted-then-resumed run; TRACE reports the
        // flight recorder's retained volume (wall-clock free, so it
        // is equally stable).
        println!(
            "RESULT {name}: blocks={} unique_crashes={} corpus={} execs={} fuel_exhausted={} triage={}",
            result.blocks(),
            result.unique_crashes(),
            result.corpus_size,
            result.execs,
            result.fuel_exhausted,
            result.triage.len(),
        );
        let stream_bytes: u64 = stores.iter().map(TraceStore::stream_bytes).sum();
        println!(
            "TRACE {name}: execs={} bits_per_exec={:.3}",
            result.execs,
            stream_bytes as f64 * 8.0 / (result.execs.max(1)) as f64,
        );
    }
}

/// Replay every retained trace of every suite's stored ring against
/// the live kernel. Returns `false` (and says why on stderr) when any
/// trace fails to replay bit-identically, or any pinned crash trace
/// no longer reproduces its recorded signature.
fn replay_stores(
    kernel: &VKernel,
    kc: &KernelCorpus,
    base: &std::path::Path,
    suites: &[Vec<SpecFile>],
) -> bool {
    let mut all_ok = true;
    for (i, suite) in suites.iter().enumerate() {
        if suite.is_empty() {
            continue;
        }
        let path = base.with_extension(format!("suite{i}.trc"));
        let stores = match read_trace_file(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("REPLAY suite{i}: cannot load {}: {e}", path.display());
                all_ok = false;
                continue;
            }
        };
        let (_db, lowered) = SpecCache::global().get_or_build_lowered(suite, kc.consts());
        let mut scratch = ExecScratch::from_lowered(lowered);
        let spec_fp = SpecCache::fingerprint(suite);
        let tables = cfg_successors(kernel);
        let (mut total, mut identical, mut crash_traces, mut crash_ok) = (0u64, 0u64, 0u64, 0u64);
        for store in &stores {
            for trace in store.iter() {
                total += 1;
                let is_crash = trace.crash.is_some();
                crash_traces += u64::from(is_crash);
                match replay_trace(kernel, &mut scratch, &tables, trace, spec_fp) {
                    Ok(o) if o.identical => {
                        identical += 1;
                        crash_ok += u64::from(is_crash && o.live_crash == trace.crash);
                    }
                    Ok(_) => eprintln!(
                        "REPLAY suite{i}: shard {} exec {} diverged from its recording",
                        trace.shard, trace.exec
                    ),
                    Err(e) => eprintln!(
                        "REPLAY suite{i}: shard {} exec {} failed: {e}",
                        trace.shard, trace.exec
                    ),
                }
            }
        }
        let ok = total > 0 && identical == total && crash_ok == crash_traces;
        all_ok &= ok;
        println!(
            "REPLAY suite{i}: traces={total} identical={identical} crash_traces={crash_traces} crash_identical={crash_ok} ok={ok}"
        );
    }
    all_ok
}
