//! The repository's performance reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--workload` and `--trace` it runs one pass of one workload in
//! this process and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0` (the untraced pass), the per-layer metrics
//! for `--trace 1` (the probe pass). Without them it runs both passes
//! of every workload, each in a child process of its own so peak
//! memory and cold set-up do not leak between workloads, and prints
//! every metric by name. See `README.md` for what the numbers mean.

mod calib;
mod catalog;
mod digest;
mod json;
mod probes;
mod span;
mod stats;
mod workloads;

use calib::Calibrator;
use catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{
    cold_setup, DeepchainDurable, DeepchainSharded, DmSeq, FabricChan, RecoverReplay, RoundOut,
    Sizes, SpecgenFlagship, Workload, WARMUP_ROUND,
};

/// Seconds one pass measures for unless `--seconds` says otherwise;
/// `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 15;
/// A pass never reports on fewer rounds of either kind than this.
const MIN_ROUNDS: u64 = 3;
/// No step runs on more threads than this, however many cores there
/// are: campaigns run on one; the fabric's coordinator and worker, the
/// parallel reference route of `specgen_flagship` and the two-thread
/// speed-up probe on two.
const MAX_THREADS: usize = 2;
/// The share of an untraced pass that goes to the memory rounds, which
/// are also its warm-up; the rest goes to the timed rounds.
const MEMORY_SHARE: f64 = 0.125;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name}; one of {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What the numbers were measured on; printed with every result.
pub struct Host {
    pub cores: usize,
    rustc: String,
    git: String,
}

impl Host {
    fn detect() -> Host {
        let first_line = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line("rustc", &["--version"]),
            git: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// Threads a step may use: never more than there are cores, so no
    /// number is measured on an oversubscribed box. `None` means the
    /// step must not run.
    pub fn threads(&self, wanted: usize) -> Option<usize> {
        (wanted <= self.cores).then_some(wanted)
    }

    /// The most threads any step runs on here.
    pub fn thread_cap(&self) -> usize {
        self.cores.min(MAX_THREADS)
    }

    fn json(&self, seed: u64) -> Json {
        Json::obj([
            ("available_cores", Json::Num(self.cores as f64)),
            ("threads", Json::Num(self.thread_cap() as f64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_revision", Json::Str(self.git.clone())),
            ("seed", Json::Num(seed as f64)),
        ])
    }
}

/// Where checkpoints, trace files and result files go: `results/`
/// next to this package's manifest, inside the checkout either way.
fn results_dir() -> PathBuf {
    let in_cwd = PathBuf::from("benchmark");
    if in_cwd.join("Cargo.toml").is_file() {
        in_cwd.join("results")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
    }
}

/// Hand freed heap pages back to the kernel and restart its peak
/// counter, so that the next [`peak_rss_mb`] is the peak of what runs
/// from here on, not of whatever ran before.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and keeps no
        // state of ours; it takes the allocator's own locks and may be
        // called at any time, from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" sets VmHWM back to the current resident set. Where the write
    // is refused the peaks only ever grow, and the metric is less steady.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub enum Built {
    Dm(DmSeq),
    Sharded(DeepchainSharded),
    Durable(DeepchainDurable),
    Fabric(FabricChan),
    Specgen(SpecgenFlagship),
    Recover(RecoverReplay),
}

impl Built {
    /// Build `name`'s fixture.
    pub fn new(
        name: &str,
        seed: u64,
        sizes: &Sizes,
        dir: &std::path::Path,
        host: &Host,
    ) -> Result<Built, String> {
        Ok(match name {
            "dm_seq" => Built::Dm(DmSeq::new(seed, sizes)),
            "deepchain_sharded" => Built::Sharded(DeepchainSharded::new(seed, sizes)),
            "deepchain_durable" => Built::Durable(DeepchainDurable::new(seed, sizes, dir)),
            "fabric_chan" => Built::Fabric(FabricChan::new(seed, sizes)),
            "specgen_flagship" => {
                Built::Specgen(SpecgenFlagship::new(seed, sizes, host.thread_cap()))
            }
            "recover_replay" => Built::Recover(RecoverReplay::new(seed, sizes, dir)?),
            other => return Err(format!("unknown workload {other}")),
        })
    }

    pub fn workload(&self) -> &dyn Workload {
        match self {
            Built::Dm(w) => w,
            Built::Sharded(w) => w,
            Built::Durable(w) => w,
            Built::Fabric(w) => w,
            Built::Specgen(w) => w,
            Built::Recover(w) => w,
        }
    }
}

/// One pass's verdict and numbers, ready to print.
pub struct PassOut {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`; `None` is a metric that could not be
    /// measured here (printed as `null` to people, 0 to the driver).
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl PassOut {
    fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, unit, value)| {
                    // The driver takes numbers only.
                    let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str((*unit).into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// A round that returned an error or panicked is a failed operation,
/// not the end of the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}"))),
    }
}

/// Compare round `idx`'s operation digests with the ones its reference
/// route produced. Returns `(attempted, failed)`; a round that itself
/// failed counts as one failed operation.
pub fn verify(
    idx: u64,
    round: &Result<RoundOut, String>,
    reference: Result<Vec<u64>, String>,
) -> (u64, u64) {
    let (n, bad) = match (round, reference) {
        (Ok(out), Ok(expected)) => {
            let n = out.ops.len().max(expected.len());
            let bad = (0..n)
                .filter(|&i| out.ops.get(i) != expected.get(i))
                .count();
            if bad > 0 {
                eprintln!("round {idx}: {bad} of {n} operations differ from the reference route");
            }
            (n, bad)
        }
        (Ok(out), Err(e)) => {
            eprintln!("round {idx}: reference route failed: {e}");
            (out.ops.len().max(1), out.ops.len().max(1))
        }
        (Err(e), _) => {
            eprintln!("round {idx}: {e}");
            (1, 1)
        }
    };
    (n as u64, bad as u64)
}

pub fn print_metric(name: &str, unit: &str, better: Better, value: Option<f64>, note: &str) {
    let value = value.map_or("null".to_string(), |v| format!("{v:.6}"));
    let better = better.as_str();
    println!("  {name:<34} {value:>18} {unit:<6} {better:<6} is better; {note}");
}

/// The untraced pass. First the memory rounds, which are also the
/// warm-up: each starts from a trimmed heap and a restarted peak
/// counter. Then, until `seconds` have passed, one step after another
/// of: a timed round, a cold set-up, and the round's result against
/// its reference route, with the calibration loop before and after the
/// round. A step's time is scaled by the box's speed while it ran (see
/// `calib`), so what is reported is the program, not the neighbours.
fn untraced_pass(built: &Built, seconds: f64) -> PassOut {
    let w = built.workload();
    let cal = Calibrator::new();
    let started = Instant::now();
    // One campaign in a hundred allocates twice what the others do, and
    // the heap keeps what it once held: the peak over a whole pass is
    // the maximum of a heavy tail, which ten seeds do not agree on. The
    // median round's own peak is a steady number.
    let mut peaks = Vec::new();
    for k in 0.. {
        // Every round, timed or not, follows a cold set-up: the spec
        // cache holds what set-up left there and nothing older.
        let ready = guarded(|| cold_setup(w));
        reset_peak_rss();
        if let Err(e) = ready.and_then(|_| guarded(|| w.round(WARMUP_ROUND - k))) {
            eprintln!("memory round: {e}");
        }
        peaks.push(peak_rss_mb());
        if k + 1 >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds * MEMORY_SHARE {
            break;
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    let (mut rates, mut speeds, mut yields, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for idx in 0.. {
        let before = cal.secs();
        let round = guarded(|| w.round(idx));
        let after = cal.secs();
        // A set-up is short; the calibration next to it speaks for it.
        let setup = guarded(|| cold_setup(w));
        let (n, bad) = verify(idx, &round, guarded(|| w.reference(idx)));
        attempted += n;
        failed += bad;
        if let Ok(out) = round {
            let speed = calib::speed((before + after) / 2.0);
            rates.push(out.work as f64 / (out.secs * speed));
            yields.push(out.yield_units as f64);
            speeds.push(speed);
        }
        match setup {
            Ok(secs) => setups.push(secs * calib::speed(after)),
            Err(e) => {
                eprintln!("set-up {idx}: {e}");
                attempted += 1;
                failed += 1;
            }
        }
        if idx + 1 >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let quart = |values: &[f64]| {
        let s = stats::summarize(values);
        let note = format!(
            "median of n={}; q1 {:.6} q3 {:.6} spread {:.1}% min {:.6} max {:.6}",
            s.n,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            s.min,
            s.max
        );
        (s.median, note)
    };
    let (rate, rate_note) = quart(&rates);
    let as_timed: Vec<f64> = rates.iter().zip(&speeds).map(|(r, s)| r * s).collect();
    let values = [
        (
            rate,
            format!(
                "{rate_note}; as timed {:.6} at box speed {:.4}",
                stats::median(&as_timed),
                stats::median(&speeds)
            ),
        ),
        quart(&yields),
        quart(&peaks),
        quart(&setups),
    ];
    let mut metrics = Vec::new();
    for (m, (value, note)) in END_TO_END.iter().zip(values) {
        print_metric(m.name, m.unit, m.better, Some(value), &note);
        metrics.push((m.name, m.unit, Some(value)));
    }
    PassOut {
        attempted,
        failed,
        metrics,
    }
}

/// One pass of one workload, in this process.
fn run_pass(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Host,
) -> Result<PassOut, String> {
    let dir = results_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    println!("{name}: {why}");
    println!(
        "{name} --trace {} meta {}",
        u8::from(trace),
        host.json(seed).encode()
    );
    let out = guarded(|| {
        let built = Built::new(name, seed, &Sizes::FULL, &dir, host)?;
        Ok(if trace {
            probes::probe_pass(name, &built, seed, seconds, host, &results_dir())
        } else {
            untraced_pass(&built, seconds)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Every metric of a suite run, by `(workload, metric)`.
type SuiteValues = BTreeMap<(String, String), f64>;

/// Both passes of the chosen workloads, each in its own child
/// process. Returns every metric and whether all operations passed.
fn run_suite(
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
) -> Result<(SuiteValues, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values = BTreeMap::new();
    let mut all_ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        for pass in [false, true] {
            if trace.is_some_and(|t| t != pass) {
                continue;
            }
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--trace",
                    if pass { "1" } else { "0" },
                ])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            let Ok(result) = Json::parse(last) else {
                eprintln!(
                    "{} --trace {}: no result line ({})",
                    w.name,
                    u8::from(pass),
                    out.status
                );
                all_ok = false;
                continue;
            };
            all_ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            println!(
                "  {:<34} {:>18.6} {:<6} {failed} of {attempted} operations failed",
                "ops_failed_pct",
                100.0 * failed / attempted.max(1.0),
                "%"
            );
            for (metric, v) in result.get("metrics").map_or(&[][..], Json::fields) {
                if let Some(v) = v.get("value").and_then(Json::as_f64) {
                    values.insert((w.name.to_string(), metric.clone()), v);
                }
            }
        }
    }
    Ok((values, all_ok))
}

/// Run the suite twice at `seed` and once at another seed; the two
/// same-seed sets must agree within each metric's bound, exactly for
/// the metrics a seed fixes.
fn selfcheck(only: Option<&str>, seed: u64, seconds: f64) -> Result<bool, String> {
    let (a, ok_a) = run_suite(only, seed, seconds, None)?;
    let (b, ok_b) = run_suite(only, seed, seconds, None)?;
    let other = seed.wrapping_add(1);
    let (c, ok_c) = run_suite(only, other, seconds, None)?;
    let mut pass = ok_a && ok_b && ok_c;
    println!("selfcheck: A and A' at --seed {seed}, B at --seed {other}");
    println!(
        "{:<18} {:<34} {:>16} {:>16} {:>16} {:>8}  rule",
        "workload", "metric", "A", "A'", "B", "A'/A-1"
    );
    for ((workload, metric), va) in &a {
        let key = (workload.clone(), metric.clone());
        let (Some(vb), vc) = (b.get(&key), c.get(&key)) else {
            println!("{workload:<18} {metric:<34} missing from the second set: FAIL");
            pass = false;
            continue;
        };
        let delta = if *va == 0.0 { 0.0 } else { vb / va - 1.0 };
        let rule = if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
            let ok = delta.abs() <= m.bound;
            pass &= ok;
            format!(
                "within {:.0}%: {}",
                m.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            )
        } else if PER_LAYER.iter().any(|m| m.name == metric && m.exact) {
            let ok = va == vb;
            pass &= ok;
            format!("exact: {}", if ok { "ok" } else { "FAIL" })
        } else {
            "reported only".to_string()
        };
        println!(
            "{workload:<18} {metric:<34} {va:>16.4} {vb:>16.4} {:>16.4} {:>7.2}%  {rule}",
            vc.copied().unwrap_or(f64::NAN),
            delta * 100.0
        );
    }
    println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let verdict = if args.selfcheck {
        selfcheck(args.workload.as_deref(), args.seed, args.seconds)
    } else if let (Some(name), Some(trace)) = (&args.workload, args.trace) {
        run_pass(name, args.seed, args.seconds, trace, &Host::detect()).map(|out| {
            println!("{}", out.result_line().encode());
            out.failed == 0
        })
    } else {
        run_suite(
            args.workload.as_deref(),
            args.seed,
            args.seconds,
            args.trace,
        )
        .map(|(_, ok)| ok)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            cores: 1,
            rustc: String::new(),
            git: String::new(),
        }
    }

    /// Round 0 is sound, 1 panics, 2 errs, 3 returns a wrong digest,
    /// and 4 has no reference to compare with.
    struct Flaky;

    impl Workload for Flaky {
        fn set_up(&self) -> Result<(), String> {
            Ok(())
        }

        fn round(&self, idx: u64) -> Result<RoundOut, String> {
            match idx {
                1 => panic!("boom"),
                2 => Err("refused".into()),
                _ => Ok(RoundOut {
                    secs: 0.5,
                    work: 100,
                    yield_units: 7,
                    ops: vec![idx, 10 + u64::from(idx == 3)],
                }),
            }
        }

        fn reference(&self, idx: u64) -> Result<Vec<u64>, String> {
            match idx {
                4 => Err("no reference".into()),
                _ => Ok(vec![idx, 10]),
            }
        }
    }

    #[test]
    fn a_panic_or_error_is_a_counted_failure_not_the_end_of_the_run() {
        let check = |idx| {
            verify(
                idx,
                &guarded(|| Flaky.round(idx)),
                guarded(|| Flaky.reference(idx)),
            )
        };
        assert_eq!(guarded(|| Flaky.round(1)).unwrap_err(), "panicked: boom");
        // 2 ops ok, 1 panic, 1 error, 1 of 2 ops wrong, 2 of 2 unverifiable.
        assert_eq!(
            [0, 1, 2, 3, 4].map(check),
            [(2, 0), (1, 1), (1, 1), (2, 1), (2, 2)]
        );
    }

    #[test]
    fn result_line_has_the_four_contract_keys_and_numbers_only() {
        let out = PassOut {
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("work_per_s", "1/s", Some(1234.5)),
                ("shard.speedup_2t", "ratio", None),
                ("probe.overhead_pct", "%", Some(f64::NAN)),
            ],
        };
        let line = out.result_line();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = Json::parse(&line.encode()).unwrap();
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        let metric = |name: &str| {
            let m = back.get("metrics").and_then(|m| m.get(name)).unwrap();
            (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str).map(str::to_string),
            )
        };
        assert_eq!(metric("work_per_s"), (Some(1234.5), Some("1/s".into())));
        assert_eq!(
            metric("shard.speedup_2t"),
            (Some(0.0), Some("ratio".into()))
        );
        assert_eq!(metric("probe.overhead_pct"), (Some(0.0), Some("%".into())));
    }

    #[test]
    fn threads_are_refused_beyond_the_cores() {
        let one = host();
        assert_eq!((one.threads(1), one.threads(2)), (Some(1), None));
        let two = Host { cores: 2, ..host() };
        assert_eq!((two.threads(2), two.threads(3)), (Some(2), None));
    }

    /// Both passes of `name` at 1/100 size: every operation passes,
    /// every end-to-end metric is non-zero, every per-layer metric is
    /// reported.
    fn smoke(name: &str) {
        let host = Host { cores: 2, ..host() };
        let dir = results_dir().join(format!("test-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let built = Built::new(name, 3, &Sizes::scaled(100), &dir, &host).unwrap();
        let e2e = untraced_pass(&built, 0.0);
        assert!(e2e.attempted >= MIN_ROUNDS, "{name}: {}", e2e.attempted);
        assert_eq!(e2e.failed, 0, "{name}");
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (metric, _, value) in &e2e.metrics {
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}: {metric} = {value:?}"
            );
        }
        let layers = probes::probe_pass(name, &built, 3, 0.0, &host, &dir);
        assert_eq!(layers.failed, 0, "{name}");
        let names: Vec<&str> = layers.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(dir.join(format!("{name}.spans.json")).is_file());
        // The always-on layers leave no span where they never run.
        if matches!(name, "dm_seq" | "specgen_flagship") {
            for (metric, _, value) in &layers.metrics {
                if metric.starts_with("checkpoint.") || metric.starts_with("trace.") {
                    assert_eq!(*value, Some(0.0), "{name}: {metric}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn smoke_dm_seq() {
        smoke("dm_seq");
    }

    #[test]
    fn smoke_deepchain_sharded() {
        smoke("deepchain_sharded");
    }

    #[test]
    fn smoke_deepchain_durable() {
        smoke("deepchain_durable");
    }

    #[test]
    fn smoke_fabric_chan() {
        smoke("fabric_chan");
    }

    #[test]
    fn smoke_specgen_flagship() {
        smoke("specgen_flagship");
    }

    #[test]
    fn smoke_recover_replay() {
        smoke("recover_replay");
    }
}
