//! Bench-regression gate.
//!
//! Compares a freshly measured `BENCH_fuzzing.json` against the
//! committed `BENCH_baseline.json` and classifies the differences:
//!
//! * **determinism** — `merge_invariant`, the generation
//!   `bit_identical` flag, the seed-hub `thread_invariant` flag, and
//!   the lowering `bit_identical` flag (lowered-IR program streams
//!   and execution outcomes must equal the AST walk's) must hold in
//!   the fresh run, full stop;
//! * **baseline coverage of sections** — when the fresh run carries a
//!   top-level section the committed baseline lacks, the bench grew
//!   without its baseline: the gate fails with the exact action
//!   ("regenerate `BENCH_baseline.json` in this PR"), naming the
//!   section, instead of silently skipping the new numbers;
//! * **coverage** — with an identical workload (`execs`, `shards`),
//!   the campaign is a pure function of its config, so `blocks` and
//!   `unique_crashes` (hub ablation sides included) must match the
//!   baseline *exactly* on any machine — a mismatch means the
//!   fuzzer's behaviour changed, not that a runner was slow;
//! * **hub yield** — the exchange-on coverage-per-exec of the fresh
//!   run must not drop below exchange-off: the seed hub exists to
//!   lift per-exec coverage yield, so a regression there is a hard
//!   failure at any threshold — and the same check runs for **every
//!   entry of the `workloads` section** (the deep-chain suite, where
//!   saturation no longer masks the lift), each of which must also be
//!   thread-invariant;
//! * **triage** — the crash-triage section must report
//!   `thread_invariant` and `reproducible` as true (a minimized
//!   reproducer that no longer triggers its signature is a hard
//!   failure), and the mean raw→minimized shrink ratio must stay at
//!   or above [`MIN_SHRINK_RATIO`];
//! * **durability** — a present `durability` section must report
//!   `resume_identical` (interrupt-at-a-boundary + resume produced
//!   the uninterrupted result, bit for bit — under fault injection)
//!   and `fuel_deterministic` (two identical starved runs counted the
//!   same fuel exhaustions) as true, and the measured checkpointing
//!   overhead must stay at or below a threshold (default
//!   [`DEFAULT_MAX_CHECKPOINT_OVERHEAD_PCT`]%, overridable via
//!   `BENCH_GATE_MAX_CHECKPOINT_OVERHEAD`); with an identical
//!   workload the fuel-exhaustion count is exact-compared against the
//!   baseline;
//! * **fabric** — a present `fabric` section must report
//!   `worker_invariant` as true (the coordinator-merged distributed
//!   result is bit-identical to the single-process campaign at every
//!   worker count, with both incremental and forced-full frames),
//!   zero `expired_leases` (no worker may fall behind its lease
//!   deadline in a clean in-memory run), and a `delta_shrink` of at
//!   least `MIN_DELTA_SHRINK`x (incremental frames that cost as
//!   much as full snapshots mean the diff codec degenerated); with an
//!   identical workload the boundary count and per-epoch delta
//!   volumes (incremental and full) are exact-compared against the
//!   baseline (the wire format is deterministic, so drift is a
//!   behaviour change), while the merge time stays informational;
//! * **tenancy** — a present `tenancy` section must report
//!   `tenant_invariant` as true (every tenant of the shared service —
//!   the budget-cut one included — merged bit-identical to its
//!   single-process reference) and `budget_exhausted` as true (the
//!   quota-declaring tenant was actually cut at a boundary); with an
//!   identical workload the per-tenant exec / coverage / corpus /
//!   grant accounting and the starved tenant's cut point are
//!   exact-compared against the baseline, while wall time stays
//!   informational;
//! * **trace** — a present `trace` section must report
//!   `replay_identical` as true (every retained flight-recorder trace
//!   re-executed bit-identically — same block stream, same crash,
//!   same fuel verdict — and every crash signature of the traced run
//!   had a pinned trace replaying to the same signature), the
//!   amortized trace volume must stay at or below
//!   [`MAX_TRACE_BITS_PER_EXEC`] bits per campaign exec, and the
//!   capture overhead (traced vs tracing-off wall clock) must stay at
//!   or below a threshold (default
//!   [`DEFAULT_MAX_TRACE_OVERHEAD_PCT`]%, overridable via
//!   `BENCH_GATE_MAX_TRACE_OVERHEAD`); with an identical trace
//!   workload the retained-trace count, encoded stream volume and
//!   crash-signature count are exact-compared against the baseline
//!   (capture and retention are deterministic, so drift is a recorder
//!   behaviour change);
//! * **throughput** — rate metrics (execs/sec, handlers/sec, the
//!   warm-cache speedup) may regress by at most a threshold
//!   (default [`DEFAULT_MAX_REGRESSION_PCT`]%, overridable via the
//!   `BENCH_GATE_MAX_REGRESSION` environment variable for noisy
//!   runners).
//!
//! Environment overrides are strict: a set-but-unparseable gate
//! variable is a hard error naming the variable, never a silent fall
//! back to the default.
//!
//! The `bench_gate` binary is a thin CLI over [`check`].

use crate::json::Json;

/// Default allowed throughput regression, percent.
pub const DEFAULT_MAX_REGRESSION_PCT: f64 = 25.0;

/// Default allowed checkpointing overhead (wall-clock cost of running
/// the campaign with per-epoch snapshots vs without), percent.
///
/// Calibration note: about twice what the smoke workload measures
/// (43–72% over three runs). The virtual kernel retires a 1 024-exec
/// exchange epoch in ~3.5 ms, and one boundary costs ~1.5 ms — seal
/// the 256 ring traces the epoch replaced, encode and checksum
/// ~290 KB, write and rename — so the ratio is inherent to the
/// per-epoch cadence on microsecond execs, and the baseline it is a
/// ratio *of* got faster when tracing stopped encoding every exec.
pub const DEFAULT_MAX_CHECKPOINT_OVERHEAD_PCT: f64 = 100.0;

/// Default allowed flight-recorder capture overhead (wall-clock cost
/// of running the campaign with per-exec tracing vs tracing off),
/// percent.
///
/// Calibration note: capture copies each exec's event list into a
/// reused ring slot and encodes only what is read, which measures
/// 9–12% on microsecond-scale virtual-kernel execs (half of it the
/// VM buffering events at all). The threshold leaves room for runner
/// noise on a best-of-3 ratio, not for an encoder on the per-exec
/// path.
pub const DEFAULT_MAX_TRACE_OVERHEAD_PCT: f64 = 15.0;

/// Maximum acceptable amortized trace volume, in encoded bits of
/// retained trace per campaign exec. The recorder delta-codes block
/// ids against the lowered CFG's successor tables, so the common
/// fall-through path costs ~1 bit per retired run; a campaign-wide
/// average above this bound means the codec (or the retention policy)
/// degenerated, as the reference point is conditional branch
/// predictors shipping 0.1–1.2 bits of state per branch.
pub const MAX_TRACE_BITS_PER_EXEC: f64 = 16.0;

/// Minimum acceptable mean raw→minimized shrink ratio of the triage
/// section: minimization that fails to halve reproducers on the
/// deep-chain workload is a behaviour regression, not noise.
pub const MIN_SHRINK_RATIO: f64 = 2.0;

/// Environment variable overriding the allowed regression percentage.
pub const MAX_REGRESSION_ENV: &str = "BENCH_GATE_MAX_REGRESSION";

/// Environment variable overriding the allowed checkpoint overhead
/// percentage.
pub const MAX_CHECKPOINT_OVERHEAD_ENV: &str = "BENCH_GATE_MAX_CHECKPOINT_OVERHEAD";

/// Environment variable overriding the allowed flight-recorder
/// capture overhead percentage.
pub const MAX_TRACE_OVERHEAD_ENV: &str = "BENCH_GATE_MAX_TRACE_OVERHEAD";

/// Outcome of a gate run.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Informational lines (improvements, skipped comparisons).
    pub notes: Vec<String>,
    /// Gate-failing findings; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Percentage thresholds the gate compares against.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Allowed throughput regression, percent.
    pub max_regression_pct: f64,
    /// Allowed checkpointing overhead, percent.
    pub max_checkpoint_overhead_pct: f64,
    /// Allowed flight-recorder capture overhead, percent.
    pub max_trace_overhead_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            max_regression_pct: DEFAULT_MAX_REGRESSION_PCT,
            max_checkpoint_overhead_pct: DEFAULT_MAX_CHECKPOINT_OVERHEAD_PCT,
            max_trace_overhead_pct: DEFAULT_MAX_TRACE_OVERHEAD_PCT,
        }
    }
}

impl Thresholds {
    /// Thresholds with every environment override applied.
    ///
    /// # Errors
    ///
    /// Returns an error naming the offending variable when a gate
    /// override is set but not a finite non-negative number —
    /// misconfigured CI must fail loudly, not silently gate at the
    /// default.
    pub fn from_env() -> Result<Thresholds, String> {
        Ok(Thresholds {
            max_regression_pct: env_pct(MAX_REGRESSION_ENV, DEFAULT_MAX_REGRESSION_PCT)?,
            max_checkpoint_overhead_pct: env_pct(
                MAX_CHECKPOINT_OVERHEAD_ENV,
                DEFAULT_MAX_CHECKPOINT_OVERHEAD_PCT,
            )?,
            max_trace_overhead_pct: env_pct(
                MAX_TRACE_OVERHEAD_ENV,
                DEFAULT_MAX_TRACE_OVERHEAD_PCT,
            )?,
        })
    }
}

/// Read a percentage override from the environment: the default when
/// unset, the parsed value when valid, and a hard error naming the
/// variable otherwise.
fn env_pct(var: &str, default: f64) -> Result<f64, String> {
    let Ok(raw) = std::env::var(var) else {
        return Ok(default);
    };
    raw.trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| {
            format!("{var} is set to {raw:?}, which is not a finite non-negative percentage")
        })
}

/// Run every check of the gate (see the module docs).
#[must_use]
pub fn check(fresh: &Json, baseline: &Json, thresholds: &Thresholds) -> GateOutcome {
    let max_regression_pct = thresholds.max_regression_pct;
    let mut out = GateOutcome::default();
    check_determinism(fresh, &mut out);
    check_hub_yield(fresh, &mut out);
    check_workload_yields(fresh, &mut out);
    check_triage(fresh, baseline, &mut out);
    check_durability(fresh, thresholds.max_checkpoint_overhead_pct, &mut out);
    check_fabric(fresh, baseline, &mut out);
    check_tenancy(fresh, baseline, &mut out);
    check_trace(fresh, baseline, thresholds.max_trace_overhead_pct, &mut out);
    check_sections(fresh, baseline, &mut out);
    let same_workload = check_workload(fresh, baseline, &mut out);
    if same_workload {
        check_exact(fresh, baseline, "blocks", &mut out);
        check_exact(fresh, baseline, "unique_crashes", &mut out);
        check_exact(fresh, baseline, "generation.valid_count", &mut out);
        check_exact(fresh, baseline, "durability.fuel_exhausted", &mut out);
        if check_hub_workload(fresh, baseline, &mut out) {
            check_exact(fresh, baseline, "hub.off.blocks", &mut out);
            check_exact(fresh, baseline, "hub.off.corpus_size", &mut out);
            check_exact(fresh, baseline, "hub.on.blocks", &mut out);
            check_exact(fresh, baseline, "hub.on.unique_crashes", &mut out);
            check_exact(fresh, baseline, "hub.on.corpus_size", &mut out);
            check_exact(fresh, baseline, "hub.early.off_blocks", &mut out);
            check_exact(fresh, baseline, "hub.early.on_blocks", &mut out);
            check_exact(fresh, baseline, "hub.early.on_corpus_size", &mut out);
            check_exact(fresh, baseline, "hub.early.off_corpus_size", &mut out);
        }
    }
    for metric in rate_metrics(fresh, baseline) {
        compare_rate(&metric, max_regression_pct, &mut out);
    }
    out
}

fn check_determinism(fresh: &Json, out: &mut GateOutcome) {
    match fresh.path("merge_invariant").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => out
            .failures
            .push("determinism: merge_invariant is false in the fresh run".into()),
        None => out
            .failures
            .push("determinism: fresh run is missing `merge_invariant`".into()),
    }
    // The generation section is newer than some baselines; only its
    // *presence with a falsy flag* is a failure.
    if let Some(flag) = fresh
        .path("generation.bit_identical")
        .and_then(Json::as_bool)
    {
        if !flag {
            out.failures.push(
                "determinism: generation reports differ across thread counts (bit_identical=false)"
                    .into(),
            );
        }
    }
    // Same convention for the hub section: a hub section without a
    // truthy invariance flag is a failure, an absent section is not.
    if fresh.get("hub").is_some()
        && fresh.path("hub.thread_invariant").and_then(Json::as_bool) != Some(true)
    {
        out.failures.push(
            "determinism: exchange-on campaign results differ across thread counts \
             (hub.thread_invariant is not true)"
                .into(),
        );
    }
    // And for the lowering section: the lowered-IR hot path must be
    // bit-identical to the AST walk (program streams, memory images,
    // execution outcomes) — a falsy or missing flag inside a present
    // section is a hard behaviour failure.
    if fresh.get("lowering").is_some()
        && fresh.path("lowering.bit_identical").and_then(Json::as_bool) != Some(true)
    {
        out.failures.push(
            "determinism: lowered-IR output diverged from the AST walk \
             (lowering.bit_identical is not true) — the lowering must be \
             behaviour-preserving, only faster"
                .into(),
        );
    }
}

/// Fail when the fresh run has a top-level section the committed
/// baseline lacks: the bench grew in this change, so the baseline
/// must be regenerated in the same PR — say so, naming the section,
/// instead of producing a generic mismatch (or silently skipping the
/// new numbers). The reverse direction (baseline has a section the
/// fresh run dropped) stays a note: older baselines must not block
/// benches that shed a section deliberately.
fn check_sections(fresh: &Json, baseline: &Json, out: &mut GateOutcome) {
    let (Json::Obj(fresh_members), Json::Obj(base_members)) = (fresh, baseline) else {
        return;
    };
    // Any value shape counts as a section — a future array- or
    // scalar-valued top-level metric must be gated the same way.
    for (key, _) in fresh_members {
        if baseline.get(key).is_none() {
            out.failures.push(format!(
                "baseline: the fresh run has a `{key}` section that BENCH_baseline.json \
                 lacks — regenerate BENCH_baseline.json in this PR (rerun fuzz_bench at \
                 the smoke workload and commit its output as the new baseline)"
            ));
        }
    }
    for (key, _) in base_members {
        if fresh.get(key).is_none() {
            out.notes.push(format!(
                "baseline section `{key}` is absent from the fresh run — its checks \
                 are skipped"
            ));
        }
    }
}

/// Hard-fail when the fresh run's exchange-on coverage-per-exec is
/// below exchange-off: the hub must never make the fuzzer worse at
/// the measured workload.
fn check_hub_yield(fresh: &Json, out: &mut GateOutcome) {
    let (Some(on), Some(off)) = (
        fresh
            .path("hub.on.coverage_per_exec")
            .and_then(Json::as_f64),
        fresh
            .path("hub.off.coverage_per_exec")
            .and_then(Json::as_f64),
    ) else {
        return; // hub section absent (older bench) — nothing to check
    };
    if on < off {
        out.failures.push(format!(
            "hub yield: exchange-on coverage-per-exec dropped below exchange-off \
             ({on:.8} vs {off:.8}) — the seed hub must not lose coverage"
        ));
    } else {
        out.notes.push(format!(
            "hub yield: exchange on {on:.8} vs off {off:.8} blocks/exec"
        ));
    }
}

/// The hub-yield and thread-invariance checks, applied to every
/// entry of the `workloads` section: each named workload carries its
/// own exchange-on/off ablation and must show `on.coverage_per_exec
/// >= off.coverage_per_exec` and a truthy `thread_invariant`.
fn check_workload_yields(fresh: &Json, out: &mut GateOutcome) {
    let Some(Json::Obj(members)) = fresh.get("workloads") else {
        return; // section absent (older bench) — nothing to check
    };
    for (name, w) in members {
        if w.path("thread_invariant").and_then(Json::as_bool) != Some(true) {
            out.failures.push(format!(
                "determinism: workload `{name}` results differ across thread counts \
                 (workloads.{name}.thread_invariant is not true)"
            ));
        }
        let (Some(on), Some(off)) = (
            w.path("on.coverage_per_exec").and_then(Json::as_f64),
            w.path("off.coverage_per_exec").and_then(Json::as_f64),
        ) else {
            continue;
        };
        if on < off {
            out.failures.push(format!(
                "hub yield: workload `{name}` exchange-on coverage-per-exec dropped below \
                 exchange-off ({on:.8} vs {off:.8}) — this suite exists because the lift is \
                 measurable here"
            ));
        } else {
            out.notes.push(format!(
                "hub yield: workload `{name}` exchange on {on:.8} vs off {off:.8} blocks/exec"
            ));
        }
    }
}

/// Triage-section checks: a present section must be thread-invariant,
/// every minimized reproducer must still trigger its signature, the
/// mean shrink ratio must stay at or above [`MIN_SHRINK_RATIO`], and
/// — when the triage workloads match — the signature and call counts
/// are exact-compared against the baseline.
fn check_triage(fresh: &Json, baseline: &Json, out: &mut GateOutcome) {
    let Some(triage) = fresh.get("triage") else {
        return; // section absent (older bench) — nothing to check
    };
    if triage.path("thread_invariant").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "determinism: triage reports differ across thread counts \
             (triage.thread_invariant is not true)"
                .into(),
        );
    }
    if triage.path("reproducible").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "triage: a minimized reproducer no longer triggers its crash signature \
             (triage.reproducible is not true) — minimization must preserve the crash"
                .into(),
        );
    }
    match triage.path("mean_shrink_ratio").and_then(Json::as_f64) {
        Some(ratio) if ratio >= MIN_SHRINK_RATIO => out.notes.push(format!(
            "triage: mean shrink ratio {ratio:.2}x over {} signatures",
            triage
                .path("signatures")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        )),
        Some(ratio) => out.failures.push(format!(
            "triage: mean shrink ratio {ratio:.2}x fell below the {MIN_SHRINK_RATIO}x floor — \
             minimization stopped earning its keep on the deep-chain workload"
        )),
        None => out
            .failures
            .push("triage: fresh run's triage section is missing `mean_shrink_ratio`".into()),
    }
    // Exact baseline compares (triage is deterministic) when both
    // sides ran the same deep-chain workload.
    if baseline.get("triage").is_none() {
        return; // section growth is handled by check_sections
    }
    if !deep_chain_workloads_match(fresh, baseline, out) {
        return;
    }
    for key in [
        "triage.signatures",
        "triage.raw_calls",
        "triage.minimized_calls",
    ] {
        check_exact(fresh, baseline, key, out);
    }
    for key in [
        "workloads.deep_chain.off.blocks",
        "workloads.deep_chain.off.corpus_size",
        "workloads.deep_chain.on.blocks",
        "workloads.deep_chain.on.unique_crashes",
        "workloads.deep_chain.on.corpus_size",
    ] {
        check_exact(fresh, baseline, key, out);
    }
}

/// Durability-section checks: interrupt+resume must have reproduced
/// the uninterrupted result bit for bit (under fault injection), fuel
/// exhaustion must count identically across identical runs, and the
/// wall-clock cost of per-epoch checkpointing must stay under the
/// allowed overhead.
fn check_durability(fresh: &Json, max_overhead_pct: f64, out: &mut GateOutcome) {
    let Some(durability) = fresh.get("durability") else {
        return; // section absent (older bench) — nothing to check
    };
    if durability.path("resume_identical").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "durability: interrupt+resume diverged from the uninterrupted campaign \
             (durability.resume_identical is not true) — the checkpoint missed state"
                .into(),
        );
    }
    if durability
        .path("fuel_deterministic")
        .and_then(Json::as_bool)
        != Some(true)
    {
        out.failures.push(
            "durability: fuel-exhaustion counts differ between identical runs \
             (durability.fuel_deterministic is not true) — the watchdog leaked \
             nondeterminism into the campaign"
                .into(),
        );
    }
    match durability
        .path("checkpoint_overhead_pct")
        .and_then(Json::as_f64)
    {
        Some(pct) if pct <= max_overhead_pct => out.notes.push(format!(
            "durability: checkpointing overhead {pct:.1}% (allowed {max_overhead_pct:.0}%), \
             snapshot {} bytes",
            durability
                .path("checkpoint_bytes")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        )),
        Some(pct) => out.failures.push(format!(
            "durability: checkpointing overhead {pct:.1}% exceeds the allowed \
             {max_overhead_pct:.0}% — snapshots are too expensive for the epoch cadence \
             (override with {MAX_CHECKPOINT_OVERHEAD_ENV} only for known-noisy runners)"
        )),
        None => out.failures.push(
            "durability: fresh run's durability section is missing `checkpoint_overhead_pct`"
                .into(),
        ),
    }
}

/// Fabric-section checks: the distributed coordinator/worker merge
/// must be worker-count invariant (bit-identical to the
/// single-process campaign — a falsy or missing flag inside a
/// present section is a hard behaviour failure) with no lease
/// expiring in a clean in-memory run; when both sides ran the same
/// workload, the boundary count and per-epoch delta volume are
/// exact-compared (the protocol is deterministic, so drift is a wire
/// format or scheduling change, not noise). Merge time is wall-clock
/// and stays a note.
fn check_fabric(fresh: &Json, baseline: &Json, out: &mut GateOutcome) {
    let Some(fabric) = fresh.get("fabric") else {
        return; // section absent (older bench) — nothing to check
    };
    if fabric.path("worker_invariant").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "fabric: the coordinator-merged result diverged from the single-process \
             campaign (fabric.worker_invariant is not true) — the fabric must be \
             bit-identical at every worker count"
                .into(),
        );
    }
    match fabric.path("expired_leases").and_then(Json::as_f64) {
        Some(0.0) => {}
        Some(n) => out.failures.push(format!(
            "fabric: {n} lease(s) expired in a clean in-memory run — a worker fell \
             behind its lease deadline without any injected fault"
        )),
        None => out
            .failures
            .push("fabric: fresh run's fabric section is missing `expired_leases`".into()),
    }
    if let (Some(ms), Some(bytes), Some(boundaries)) = (
        fabric.path("merge_ms").and_then(Json::as_f64),
        fabric.path("delta_bytes_per_epoch").and_then(Json::as_f64),
        fabric.path("boundaries").and_then(Json::as_f64),
    ) {
        out.notes.push(format!(
            "fabric: merge cost {ms:.3}ms per campaign, {bytes:.0} delta bytes/epoch \
             over {boundaries:.0} boundaries"
        ));
    }
    // Incremental frames exist to save bandwidth; a run where they
    // cost as much as full snapshots means the diff codec degenerated
    // into its fallback (or worse). The 5x floor is the shipped
    // claim — the smoke workload measures well above it, so tripping
    // this means the codec regressed, not that the workload is noisy.
    match fabric.path("delta_shrink").and_then(Json::as_f64) {
        Some(shrink) if shrink < MIN_DELTA_SHRINK => out.failures.push(format!(
            "fabric: incremental frames shrink delta volume only {shrink:.2}x vs full \
             snapshots (floor {MIN_DELTA_SHRINK:.0}x) — the word-diff / increment codec \
             has degenerated"
        )),
        Some(shrink) => out.notes.push(format!(
            "fabric: incremental frames are {shrink:.2}x smaller than full"
        )),
        None => out
            .failures
            .push("fabric: fresh run's fabric section is missing `delta_shrink`".into()),
    }
    if baseline.get("fabric").is_none() {
        return; // section growth is handled by check_sections
    }
    for key in ["fabric.execs", "fabric.shards", "fabric.epoch"] {
        if fresh.path(key).and_then(Json::as_f64) != baseline.path(key).and_then(Json::as_f64) {
            out.notes.push(format!(
                "fabric comparison skipped: `{key}` differs — regenerate the baseline \
                 for the new workload knobs"
            ));
            return;
        }
    }
    check_exact(fresh, baseline, "fabric.boundaries", out);
    check_exact(fresh, baseline, "fabric.delta_bytes_per_epoch", out);
    // The baseline may predate the incremental codec; only
    // exact-compare the full-frame volume once both sides report it.
    if baseline.path("fabric.delta_full_bytes_per_epoch").is_some() {
        check_exact(fresh, baseline, "fabric.delta_full_bytes_per_epoch", out);
    }
}

/// Minimum acceptable `fabric.delta_shrink` (full-frame bytes per
/// epoch over incremental bytes per epoch). See `check_fabric`.
const MIN_DELTA_SHRINK: f64 = 5.0;

/// Tenancy-section checks: every tenant of the shared service — the
/// budget-cut one included — must have merged bit-identical to its
/// single-process reference (`tenant_invariant`, hard), the
/// quota-declaring tenant must actually have been budget-terminated,
/// and when both sides ran the same workload the per-tenant exec /
/// coverage / corpus / grant accounting is exact-compared (the
/// service's scheduling and budget arithmetic are deterministic, so
/// drift is a behaviour change, not noise). Wall time stays a note.
fn check_tenancy(fresh: &Json, baseline: &Json, out: &mut GateOutcome) {
    let Some(tenancy) = fresh.get("tenancy") else {
        return; // section absent (older bench) — nothing to check
    };
    if tenancy.path("tenant_invariant").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "tenancy: a tenant's merged result diverged from its single-process \
             reference (tenancy.tenant_invariant is not true) — every tenant of the \
             shared service must be bit-identical, the budget-cut one included"
                .into(),
        );
    }
    if tenancy.path("budget_exhausted").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "tenancy: the quota-declaring tenant was not budget-terminated \
             (tenancy.budget_exhausted is not true) — the budget tracker never tripped \
             at a boundary"
                .into(),
        );
    }
    if let (Some(boundary), Some(used), Some(quota)) = (
        tenancy.path("starved_boundaries").and_then(Json::as_f64),
        tenancy.path("starved_execs").and_then(Json::as_f64),
        tenancy.path("starved_quota").and_then(Json::as_f64),
    ) {
        out.notes.push(format!(
            "tenancy: starved tenant cut at boundary {boundary:.0} with {used:.0} execs \
             charged against a {quota:.0} quota"
        ));
    }
    if baseline.get("tenancy").is_none() {
        return; // section growth is handled by check_sections
    }
    for key in [
        "tenancy.execs",
        "tenancy.shards",
        "tenancy.workers_per_tenant",
        "tenancy.starved_quota",
    ] {
        if fresh.path(key).and_then(Json::as_f64) != baseline.path(key).and_then(Json::as_f64) {
            out.notes.push(format!(
                "tenancy comparison skipped: `{key}` differs — regenerate the baseline \
                 for the new workload knobs"
            ));
            return;
        }
    }
    check_exact(fresh, baseline, "tenancy.starved_execs", out);
    check_exact(fresh, baseline, "tenancy.starved_boundaries", out);
    check_exact(fresh, baseline, "tenancy.grants", out);
    for tenant in ["tenant_0", "tenant_1", "tenant_2"] {
        for field in [
            "execs",
            "blocks",
            "unique_crashes",
            "corpus",
            "boundaries",
            "grants",
        ] {
            check_exact(fresh, baseline, &format!("tenancy.{tenant}.{field}"), out);
        }
    }
}

/// Trace-section checks: every retained flight-recorder trace must
/// have replayed bit-identically (`replay_identical`, hard — the flag
/// also covers crash coverage: every crash signature of the traced
/// run must have had a pinned trace replaying to the same signature),
/// the amortized trace volume must stay under
/// [`MAX_TRACE_BITS_PER_EXEC`] bits per campaign exec, and the
/// capture overhead must stay under the allowed percentage. With an
/// identical trace workload the retained count, encoded stream
/// volume, and crash-signature count are exact-compared against the
/// baseline — capture and retention are deterministic, so drift is a
/// recorder behaviour change, not noise.
fn check_trace(fresh: &Json, baseline: &Json, max_overhead_pct: f64, out: &mut GateOutcome) {
    let Some(trace) = fresh.get("trace") else {
        return; // section absent (older bench) — nothing to check
    };
    if trace.path("replay_identical").and_then(Json::as_bool) != Some(true) {
        out.failures.push(
            "trace: a retained trace did not replay bit-identically, or a crash \
             signature lacked a pinned trace replaying to the same signature \
             (trace.replay_identical is not true) — the flight recorder's replay \
             contract is broken"
                .into(),
        );
    }
    match trace.path("bits_per_exec").and_then(Json::as_f64) {
        Some(bits) if bits <= MAX_TRACE_BITS_PER_EXEC => out.notes.push(format!(
            "trace: {bits:.3} retained bits/exec (allowed {MAX_TRACE_BITS_PER_EXEC:.0}), \
             {:.0} retained traces",
            trace.path("retained").and_then(Json::as_f64).unwrap_or(0.0)
        )),
        Some(bits) => out.failures.push(format!(
            "trace: {bits:.3} retained bits per campaign exec exceeds the \
             {MAX_TRACE_BITS_PER_EXEC:.0}-bit budget — the delta codec or the \
             retention policy degenerated"
        )),
        None => out
            .failures
            .push("trace: fresh run's trace section is missing `bits_per_exec`".into()),
    }
    match trace.path("capture_overhead_pct").and_then(Json::as_f64) {
        Some(pct) if pct <= max_overhead_pct => out.notes.push(format!(
            "trace: capture overhead {pct:.1}% (allowed {max_overhead_pct:.0}%)"
        )),
        Some(pct) => out.failures.push(format!(
            "trace: capture overhead {pct:.1}% exceeds the allowed {max_overhead_pct:.0}% — \
             per-exec recording is too expensive to leave enabled \
             (override with {MAX_TRACE_OVERHEAD_ENV} only for known-noisy runners)"
        )),
        None => out
            .failures
            .push("trace: fresh run's trace section is missing `capture_overhead_pct`".into()),
    }
    if baseline.get("trace").is_none() {
        return; // section growth is handled by check_sections
    }
    for key in ["trace.execs", "trace.shards", "trace.ring"] {
        if fresh.path(key).and_then(Json::as_f64) != baseline.path(key).and_then(Json::as_f64) {
            out.notes.push(format!(
                "trace comparison skipped: `{key}` differs — regenerate the baseline \
                 for the new workload knobs"
            ));
            return;
        }
    }
    check_exact(fresh, baseline, "trace.retained", out);
    check_exact(fresh, baseline, "trace.stream_bytes", out);
    check_exact(fresh, baseline, "trace.crash_sigs", out);
}

/// `true` when both sides ran the deep-chain ablation with the same
/// knobs, making its (deterministic) numbers exactly comparable; a
/// deliberate retune skips them with a note, like the hub and
/// campaign workload conventions.
fn deep_chain_workloads_match(fresh: &Json, baseline: &Json, out: &mut GateOutcome) -> bool {
    for key in [
        "workloads.deep_chain.execs",
        "workloads.deep_chain.shards",
        "workloads.deep_chain.epoch",
        "workloads.deep_chain.top_k",
        "workloads.deep_chain.max_prog_len",
    ] {
        if fresh.path(key).and_then(Json::as_f64) != baseline.path(key).and_then(Json::as_f64) {
            out.notes.push(format!(
                "deep-chain comparison skipped: `{key}` differs — regenerate the baseline \
                 for the new workload knobs"
            ));
            return false;
        }
    }
    true
}

/// `true` when the hub ablations of both sides used the same
/// exchange knobs (or at least one side has no hub section), making
/// the hub coverage numbers directly comparable. A deliberate
/// `epoch`/`top_k` retune therefore skips the hub comparison with a
/// note — the same convention `execs`/`shards` changes get — instead
/// of a misleading hard determinism failure.
fn check_hub_workload(fresh: &Json, baseline: &Json, out: &mut GateOutcome) -> bool {
    if fresh.get("hub").is_none() || baseline.get("hub").is_none() {
        return true; // exact checks no-op on the missing side anyway
    }
    for key in ["hub.epoch", "hub.top_k"] {
        let f = fresh.path(key).and_then(Json::as_f64);
        let b = baseline.path(key).and_then(Json::as_f64);
        if f != b {
            out.notes.push(format!(
                "hub comparison skipped: `{key}` differs (fresh {f:?} vs baseline {b:?}) — \
                 regenerate the baseline for the new hub knobs"
            ));
            return false;
        }
    }
    true
}

/// `true` when fresh and baseline measured the same campaign workload,
/// making coverage numbers directly comparable.
fn check_workload(fresh: &Json, baseline: &Json, out: &mut GateOutcome) -> bool {
    for key in ["execs", "shards"] {
        let f = fresh.path(key).and_then(Json::as_f64);
        let b = baseline.path(key).and_then(Json::as_f64);
        if f != b {
            out.notes.push(format!(
                "coverage comparison skipped: `{key}` differs (fresh {f:?} vs baseline {b:?})"
            ));
            return false;
        }
    }
    true
}

fn check_exact(fresh: &Json, baseline: &Json, path: &str, out: &mut GateOutcome) {
    let (Some(f), Some(b)) = (
        fresh.path(path).and_then(Json::as_f64),
        baseline.path(path).and_then(Json::as_f64),
    ) else {
        return; // section absent on one side — nothing to compare
    };
    if (f - b).abs() > f64::EPSILON {
        out.failures.push(format!(
            "coverage/determinism: `{path}` diverged from baseline ({f} vs {b}) — \
             the campaign is deterministic, so this is a behaviour change, not noise"
        ));
    }
}

/// One comparable higher-is-better rate.
struct RateMetric {
    name: String,
    fresh: f64,
    baseline: f64,
}

fn rate_metrics(fresh: &Json, baseline: &Json) -> Vec<RateMetric> {
    let mut out = Vec::new();
    let mut push = |name: String, f: Option<f64>, b: Option<f64>| {
        if let (Some(fresh), Some(baseline)) = (f, b) {
            if baseline > 0.0 {
                out.push(RateMetric {
                    name,
                    fresh,
                    baseline,
                });
            }
        }
    };
    push(
        "sequential execs/sec".into(),
        fresh
            .path("sequential.execs_per_sec")
            .and_then(Json::as_f64),
        baseline
            .path("sequential.execs_per_sec")
            .and_then(Json::as_f64),
    );
    for (section, rate_key, unit) in [
        ("sharded", "execs_per_sec", "execs/sec"),
        ("generation.points", "handlers_per_sec", "handlers/sec"),
    ] {
        let fresh_points = fresh.path(section).and_then(Json::as_arr).unwrap_or(&[]);
        let base_points = baseline.path(section).and_then(Json::as_arr).unwrap_or(&[]);
        for fp in fresh_points {
            let threads = fp.get("threads").and_then(Json::as_f64);
            let bp = base_points
                .iter()
                .find(|p| p.get("threads").and_then(Json::as_f64) == threads);
            push(
                format!(
                    "{section} x{} {unit}",
                    threads.map_or_else(|| "?".into(), |t| format!("{t:.0}"))
                ),
                fp.get(rate_key).and_then(Json::as_f64),
                bp.and_then(|p| p.get(rate_key).and_then(Json::as_f64)),
            );
        }
    }
    push(
        "hub exchange-on execs/sec".into(),
        fresh.path("hub.on.execs_per_sec").and_then(Json::as_f64),
        baseline.path("hub.on.execs_per_sec").and_then(Json::as_f64),
    );
    push(
        "deep-chain exchange-on execs/sec".into(),
        fresh
            .path("workloads.deep_chain.on.execs_per_sec")
            .and_then(Json::as_f64),
        baseline
            .path("workloads.deep_chain.on.execs_per_sec")
            .and_then(Json::as_f64),
    );
    push(
        "triage minimization execs/sec".into(),
        fresh
            .path("triage.minimize_execs_per_sec")
            .and_then(Json::as_f64),
        baseline
            .path("triage.minimize_execs_per_sec")
            .and_then(Json::as_f64),
    );
    push(
        "spec-cache warm speedup".into(),
        fresh.path("spec_cache.warm_speedup").and_then(Json::as_f64),
        baseline
            .path("spec_cache.warm_speedup")
            .and_then(Json::as_f64),
    );
    for (path, name) in [
        (
            "lowering.gen.lowered_progs_per_sec",
            "lowered generation progs/sec",
        ),
        (
            "lowering.exec.lowered_execs_per_sec",
            "lowered end-to-end execs/sec",
        ),
        (
            "lowering.mutation.lowered_mutations_per_sec",
            "lowered mutations/sec",
        ),
    ] {
        push(
            name.into(),
            fresh.path(path).and_then(Json::as_f64),
            baseline.path(path).and_then(Json::as_f64),
        );
    }
    out
}

fn compare_rate(m: &RateMetric, max_regression_pct: f64, out: &mut GateOutcome) {
    let change_pct = (m.fresh / m.baseline - 1.0) * 100.0;
    if change_pct < -max_regression_pct {
        out.failures.push(format!(
            "throughput: {} regressed {:.1}% ({:.1} vs baseline {:.1}, allowed {:.0}%)",
            m.name, -change_pct, m.fresh, m.baseline, max_regression_pct
        ));
    } else {
        out.notes.push(format!(
            "throughput: {} {}{:.1}% ({:.1} vs baseline {:.1})",
            m.name,
            if change_pct >= 0.0 { "+" } else { "" },
            change_pct,
            m.fresh,
            m.baseline
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    /// Shim keeping the historical 3-arg call shape: every test that
    /// does not exercise the checkpoint-overhead threshold runs with
    /// the default.
    fn check(fresh: &Json, baseline: &Json, max_regression_pct: f64) -> GateOutcome {
        super::check(
            fresh,
            baseline,
            &Thresholds {
                max_regression_pct,
                ..Thresholds::default()
            },
        )
    }

    fn bench_doc(seq_rate: f64, blocks: u64, invariant: bool) -> Json {
        hub_doc(seq_rate, blocks, invariant, blocks, true)
    }

    fn hub_doc(
        seq_rate: f64,
        blocks: u64,
        invariant: bool,
        hub_on_blocks: u64,
        hub_invariant: bool,
    ) -> Json {
        let off_cpe = blocks as f64 / 20000.0;
        let on_cpe = hub_on_blocks as f64 / 20000.0;
        parse_json(&format!(
            r#"{{
  "execs": 20000, "shards": 8,
  "sequential": {{ "secs": 1.0, "execs_per_sec": {seq_rate} }},
  "sharded": [ {{ "threads": 2, "secs": 1.0, "execs_per_sec": {seq_rate} }} ],
  "merge_invariant": {invariant},
  "blocks": {blocks},
  "unique_crashes": 3,
  "hub": {{
    "epoch": 2048, "top_k": 4, "thread_invariant": {hub_invariant},
    "off": {{ "blocks": {blocks}, "unique_crashes": 3, "coverage_per_exec": {off_cpe} }},
    "on": {{ "blocks": {hub_on_blocks}, "unique_crashes": 3, "coverage_per_exec": {on_cpe}, "execs_per_sec": {seq_rate} }}
  }},
  "generation": {{
    "bit_identical": true, "valid_count": 30,
    "points": [ {{ "threads": 1, "handlers_per_sec": 10.0 }} ]
  }},
  "spec_cache": {{ "warm_speedup": 50.0 }}
}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_runs_pass() {
        let doc = bench_doc(1000.0, 187, true);
        let r = check(&doc, &doc, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn small_regression_within_threshold_passes() {
        let r = check(
            &bench_doc(800.0, 187, true),
            &bench_doc(1000.0, 187, true),
            25.0,
        );
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn large_regression_fails_and_threshold_is_tunable() {
        let fresh = bench_doc(700.0, 187, true);
        let base = bench_doc(1000.0, 187, true);
        let r = check(&fresh, &base, 25.0);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("sequential")),
            "{:?}",
            r.failures
        );
        // A looser (noisy-runner) threshold lets the same delta pass.
        assert!(check(&fresh, &base, 40.0).passed());
    }

    #[test]
    fn coverage_mismatch_is_a_hard_failure_at_any_threshold() {
        let r = check(
            &bench_doc(1000.0, 150, true),
            &bench_doc(1000.0, 187, true),
            1e9,
        );
        assert!(!r.passed());
        assert!(r.failures.iter().any(|f| f.contains("blocks")));
    }

    #[test]
    fn coverage_not_compared_across_different_workloads() {
        let mut fresh = bench_doc(1000.0, 150, true);
        if let Json::Obj(members) = &mut fresh {
            members[0].1 = Json::Num(40000.0); // execs differ
        }
        let r = check(&fresh, &bench_doc(1000.0, 187, true), 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("skipped")));
    }

    #[test]
    fn broken_merge_invariance_fails() {
        let doc = bench_doc(1000.0, 187, false);
        let r = check(&doc, &doc, 25.0);
        assert!(r.failures.iter().any(|f| f.contains("merge_invariant")));
    }

    #[test]
    fn hub_coverage_drop_is_a_hard_failure_at_any_threshold() {
        // Exchange-on found fewer blocks than exchange-off in the
        // fresh run: the hub gate fails regardless of the baseline.
        let fresh = hub_doc(1000.0, 187, true, 150, true);
        let r = check(&fresh, &fresh, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("hub yield")),
            "{:?}",
            r.failures
        );
        // Equal on/off yield passes (saturated workloads).
        let even = hub_doc(1000.0, 187, true, 187, true);
        assert!(check(&even, &even, 25.0).passed());
        // Better-on passes and is noted.
        let better = hub_doc(1000.0, 187, true, 190, true);
        let r = check(&better, &better, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("hub yield")));
    }

    #[test]
    fn hub_thread_variance_is_a_determinism_failure() {
        let doc = hub_doc(1000.0, 187, true, 187, false);
        let r = check(&doc, &doc, 25.0);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("hub.thread_invariant")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn hub_blocks_are_compared_exactly_against_the_baseline() {
        let fresh = hub_doc(1000.0, 187, true, 190, true);
        let base = hub_doc(1000.0, 187, true, 191, true);
        let r = check(&fresh, &base, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("hub.on.blocks")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn retuned_hub_knobs_skip_hub_comparison_instead_of_failing() {
        let mut fresh = hub_doc(1000.0, 187, true, 190, true);
        // Same campaign workload, different hub epoch: the hub
        // numbers are not comparable, so they are skipped with a
        // note while the campaign-level checks still run.
        if let Json::Obj(members) = &mut fresh {
            let hub = members
                .iter_mut()
                .find(|(k, _)| k == "hub")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Obj(hub_members) = hub {
                hub_members[0].1 = Json::Num(4096.0); // epoch differs
            }
        }
        let base = hub_doc(1000.0, 187, true, 191, true);
        let r = check(&fresh, &base, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.notes.iter().any(|n| n.contains("hub comparison skipped")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn fresh_section_missing_from_baseline_demands_regeneration() {
        // A fresh run that grew sections (`hub`, `generation`,
        // `spec_cache`) the committed baseline lacks must fail with
        // the exact action, naming each section.
        let fresh = hub_doc(1000.0, 187, true, 187, true);
        let base = parse_json(
            r#"{ "execs": 20000, "shards": 8, "merge_invariant": true,
                 "sequential": { "execs_per_sec": 1000.0 }, "blocks": 187, "unique_crashes": 3 }"#,
        )
        .unwrap();
        let r = check(&fresh, &base, 25.0);
        assert!(!r.passed());
        for section in ["`hub`", "`generation`", "`spec_cache`"] {
            assert!(
                r.failures
                    .iter()
                    .any(|f| f.contains(section) && f.contains("regenerate BENCH_baseline.json")),
                "no actionable failure for {section}: {:?}",
                r.failures
            );
        }
        // The reverse direction — the baseline has sections the fresh
        // run dropped — stays tolerated with a note.
        let r = check(&base, &fresh, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.notes.iter().any(|n| n.contains("absent from the fresh")),
            "{:?}",
            r.notes
        );
    }

    fn triage_doc(
        on_blocks: u64,
        off_blocks: u64,
        invariant: bool,
        reproducible: bool,
        shrink: f64,
        signatures: u64,
    ) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let on_cpe = on_blocks as f64 / 20000.0;
        let off_cpe = off_blocks as f64 / 20000.0;
        let extra = parse_json(&format!(
            r#"{{
  "workloads": {{
    "deep_chain": {{
      "execs": 20000, "shards": 8, "max_prog_len": 12, "epoch": 128, "top_k": 4,
      "thread_invariant": {invariant},
      "off": {{ "blocks": {off_blocks}, "unique_crashes": 4, "corpus_size": 300, "coverage_per_exec": {off_cpe} }},
      "on": {{ "blocks": {on_blocks}, "unique_crashes": 5, "corpus_size": 320, "coverage_per_exec": {on_cpe}, "execs_per_sec": 4000.0 }}
    }}
  }},
  "triage": {{
    "signatures": {signatures}, "thread_invariant": {invariant}, "reproducible": {reproducible},
    "mean_shrink_ratio": {shrink}, "raw_calls": 50, "minimized_calls": 25,
    "minimize_execs": 90, "minimize_execs_per_sec": 30000.0
  }}
}}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        let Json::Obj(extra_members) = extra else {
            unreachable!("literal object")
        };
        members.extend(extra_members);
        doc
    }

    #[test]
    fn deep_chain_hub_yield_drop_is_a_hard_failure() {
        let bad = triage_doc(180, 190, true, true, 2.5, 5);
        let r = check(&bad, &bad, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("workload `deep_chain`") && f.contains("hub yield")),
            "{:?}",
            r.failures
        );
        // On >= off passes and is noted.
        let good = triage_doc(200, 190, true, true, 2.5, 5);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("deep_chain")));
    }

    #[test]
    fn triage_thread_variance_and_irreproducibility_are_hard_failures() {
        let variant = triage_doc(200, 190, false, true, 2.5, 5);
        let r = check(&variant, &variant, 1e9);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("triage.thread_invariant")));
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("workloads.deep_chain.thread_invariant")));

        let stale = triage_doc(200, 190, true, false, 2.5, 5);
        let r = check(&stale, &stale, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("no longer triggers its crash signature")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn shrink_ratio_below_floor_fails() {
        let weak = triage_doc(200, 190, true, true, 1.4, 5);
        let r = check(&weak, &weak, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("shrink ratio")),
            "{:?}",
            r.failures
        );
        assert!(check(
            &triage_doc(200, 190, true, true, 2.0, 5),
            &triage_doc(200, 190, true, true, 2.0, 5),
            25.0
        )
        .passed());
    }

    #[test]
    fn triage_counts_are_compared_exactly_against_the_baseline() {
        let fresh = triage_doc(200, 190, true, true, 2.5, 5);
        let base = triage_doc(200, 190, true, true, 2.5, 6);
        let r = check(&fresh, &base, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("triage.signatures")),
            "{:?}",
            r.failures
        );
        // A retuned deep-chain workload skips the exact compare with a
        // note instead of failing.
        let mut retuned = triage_doc(200, 190, true, true, 2.5, 5);
        if let Json::Obj(members) = &mut retuned {
            let w = members
                .iter_mut()
                .find(|(k, _)| k == "workloads")
                .map(|(_, v)| v)
                .unwrap();
            let Json::Obj(wm) = w else { unreachable!() };
            let Json::Obj(dc) = &mut wm[0].1 else {
                unreachable!()
            };
            dc.iter_mut().find(|(k, _)| k == "execs").unwrap().1 = Json::Num(40000.0);
        }
        let r = check(&retuned, &base, 1e9);
        assert!(
            !r.failures.iter().any(|f| f.contains("triage.signatures")),
            "{:?}",
            r.failures
        );
        assert!(
            r.notes
                .iter()
                .any(|n| n.contains("deep-chain comparison skipped")),
            "{:?}",
            r.notes
        );
    }

    fn lowering_doc(bit_identical: bool, execs_per_sec: f64) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let lowering = parse_json(&format!(
            r#"{{ "bit_identical": {bit_identical},
                  "gen": {{ "lowered_progs_per_sec": 100000.0 }},
                  "exec": {{ "lowered_execs_per_sec": {execs_per_sec} }},
                  "mutation": {{ "lowered_mutations_per_sec": 50000.0 }} }}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        members.push(("lowering".into(), lowering));
        doc
    }

    #[test]
    fn lowering_divergence_is_a_hard_failure() {
        let bad = lowering_doc(false, 100000.0);
        let r = check(&bad, &bad, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("lowering.bit_identical")),
            "{:?}",
            r.failures
        );
        let good = lowering_doc(true, 100000.0);
        assert!(check(&good, &good, 25.0).passed());
    }

    fn durability_doc(
        resume_identical: bool,
        fuel_deterministic: bool,
        overhead_pct: f64,
        fuel_exhausted: u64,
    ) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let durability = parse_json(&format!(
            r#"{{ "resume_identical": {resume_identical},
                  "fuel_deterministic": {fuel_deterministic},
                  "checkpoint_bytes": 150000, "write_ms": 2.0, "restore_ms": 1.0,
                  "checkpoint_overhead_pct": {overhead_pct},
                  "fuel_exhausted": {fuel_exhausted} }}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        members.push(("durability".into(), durability));
        doc
    }

    #[test]
    fn resume_divergence_and_fuel_nondeterminism_are_hard_failures() {
        let diverged = durability_doc(false, true, 2.0, 12);
        let r = check(&diverged, &diverged, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("resume_identical")),
            "{:?}",
            r.failures
        );
        let leaky = durability_doc(true, false, 2.0, 12);
        let r = check(&leaky, &leaky, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("fuel_deterministic")),
            "{:?}",
            r.failures
        );
        let good = durability_doc(true, true, 2.0, 12);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("checkpointing overhead")));
    }

    #[test]
    fn checkpoint_overhead_threshold_is_enforced_and_tunable() {
        let costly = durability_doc(true, true, 400.0, 12);
        let r = check(&costly, &costly, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("checkpointing overhead") && f.contains("400.0%")),
            "{:?}",
            r.failures
        );
        // A raised threshold (noisy runner) lets the same number pass.
        let r = super::check(
            &costly,
            &costly,
            &Thresholds {
                max_regression_pct: 25.0,
                max_checkpoint_overhead_pct: 500.0,
                ..Thresholds::default()
            },
        );
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn fuel_exhaustion_count_is_compared_exactly_against_the_baseline() {
        let fresh = durability_doc(true, true, 2.0, 12);
        let base = durability_doc(true, true, 2.0, 13);
        let r = check(&fresh, &base, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("durability.fuel_exhausted")),
            "{:?}",
            r.failures
        );
        assert!(check(&fresh, &fresh, 25.0).passed());
    }

    fn fabric_doc(worker_invariant: bool, expired: u64, delta_bytes_per_epoch: u64) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let full = delta_bytes_per_epoch * 10;
        let fabric = parse_json(&format!(
            r#"{{ "execs": 20000, "shards": 8, "epoch": 128,
                  "worker_invariant": {worker_invariant},
                  "boundaries": 19, "delta_bytes_per_epoch": {delta_bytes_per_epoch},
                  "delta_full_bytes_per_epoch": {full}, "delta_shrink": 10.0,
                  "merge_ms": 1.5, "expired_leases": {expired},
                  "points": [ {{ "workers": 1, "secs": 1.0, "delta_bytes": 190000, "merge_ms": 1.5 }} ] }}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        members.push(("fabric".into(), fabric));
        doc
    }

    #[test]
    fn fabric_worker_variance_and_expired_leases_are_hard_failures() {
        let variant = fabric_doc(false, 0, 10000);
        let r = check(&variant, &variant, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("fabric.worker_invariant")),
            "{:?}",
            r.failures
        );
        let lapsed = fabric_doc(true, 2, 10000);
        let r = check(&lapsed, &lapsed, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("lease(s) expired")),
            "{:?}",
            r.failures
        );
        let good = fabric_doc(true, 0, 10000);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("fabric: merge cost")));
    }

    #[test]
    fn fabric_delta_volume_is_compared_exactly_against_the_baseline() {
        let fresh = fabric_doc(true, 0, 10000);
        let base = fabric_doc(true, 0, 10500);
        let r = check(&fresh, &base, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("fabric.delta_bytes_per_epoch")),
            "{:?}",
            r.failures
        );
        // A retuned fabric workload skips the exact compare with a
        // note instead of failing.
        let mut retuned = fabric_doc(true, 0, 10000);
        if let Json::Obj(members) = &mut retuned {
            let fabric = members
                .iter_mut()
                .find(|(k, _)| k == "fabric")
                .map(|(_, v)| v)
                .unwrap();
            let Json::Obj(fm) = fabric else {
                unreachable!()
            };
            fm.iter_mut().find(|(k, _)| k == "epoch").unwrap().1 = Json::Num(256.0);
        }
        let r = check(&retuned, &base, 1e9);
        assert!(
            !r.failures
                .iter()
                .any(|f| f.contains("fabric.delta_bytes_per_epoch")),
            "{:?}",
            r.failures
        );
        assert!(
            r.notes
                .iter()
                .any(|n| n.contains("fabric comparison skipped")),
            "{:?}",
            r.notes
        );
    }

    fn set_fabric_field(doc: &mut Json, key: &str, value: Json) {
        let Json::Obj(members) = doc else {
            unreachable!()
        };
        let fabric = members
            .iter_mut()
            .find(|(k, _)| k == "fabric")
            .map(|(_, v)| v)
            .unwrap();
        let Json::Obj(fm) = fabric else {
            unreachable!()
        };
        match fm.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => fm.push((key.into(), value)),
        }
    }

    fn drop_fabric_field(doc: &mut Json, key: &str) {
        let Json::Obj(members) = doc else {
            unreachable!()
        };
        let fabric = members
            .iter_mut()
            .find(|(k, _)| k == "fabric")
            .map(|(_, v)| v)
            .unwrap();
        let Json::Obj(fm) = fabric else {
            unreachable!()
        };
        fm.retain(|(k, _)| k != key);
    }

    #[test]
    fn fabric_delta_shrink_below_the_floor_is_a_hard_failure() {
        // Incremental frames costing nearly as much as full snapshots
        // means the diff codec degenerated — hard failure, even when
        // every exact compare matches.
        let mut degenerate = fabric_doc(true, 0, 10000);
        set_fabric_field(&mut degenerate, "delta_shrink", Json::Num(1.2));
        let r = check(&degenerate, &degenerate, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("shrink")),
            "{:?}",
            r.failures
        );
        // A fabric section that stopped reporting the ratio is a
        // bench regression, not a pass.
        let mut silent = fabric_doc(true, 0, 10000);
        drop_fabric_field(&mut silent, "delta_shrink");
        let r = check(&silent, &silent, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("delta_shrink")),
            "{:?}",
            r.failures
        );
        // At or above the floor it is a note.
        let good = fabric_doc(true, 0, 10000);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.notes.iter().any(|n| n.contains("smaller than full")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn fabric_full_frame_volume_is_compared_when_the_baseline_has_it() {
        let fresh = fabric_doc(true, 0, 10000);
        let mut base = fabric_doc(true, 0, 10000);
        set_fabric_field(&mut base, "delta_full_bytes_per_epoch", Json::Num(90000.0));
        let r = check(&fresh, &base, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("fabric.delta_full_bytes_per_epoch")),
            "{:?}",
            r.failures
        );
        // A pre-incremental baseline without the key skips the compare.
        let mut old_base = fabric_doc(true, 0, 10000);
        drop_fabric_field(&mut old_base, "delta_full_bytes_per_epoch");
        let r = check(&fresh, &old_base, 1e9);
        assert!(
            !r.failures
                .iter()
                .any(|f| f.contains("delta_full_bytes_per_epoch")),
            "{:?}",
            r.failures
        );
    }

    fn tenancy_doc(tenant_invariant: bool, budget_exhausted: bool, starved_execs: u64) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let tenancy = parse_json(&format!(
            r#"{{ "execs": 20000, "shards": 8, "workers_per_tenant": 2,
                  "tenant_invariant": {tenant_invariant},
                  "starved_quota": 10000, "starved_execs": {starved_execs},
                  "starved_boundaries": 10, "budget_exhausted": {budget_exhausted},
                  "grants": 6, "secs": 2.0,
                  "tenant_0": {{ "execs": 20000, "blocks": 450, "unique_crashes": 4, "corpus": 260, "boundaries": 20, "grants": 2 }},
                  "tenant_1": {{ "execs": {starved_execs}, "blocks": 440, "unique_crashes": 4, "corpus": 250, "boundaries": 10, "grants": 2 }},
                  "tenant_2": {{ "execs": 20000, "blocks": 452, "unique_crashes": 4, "corpus": 262, "boundaries": 20, "grants": 2 }} }}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        members.push(("tenancy".into(), tenancy));
        doc
    }

    #[test]
    fn tenant_variance_and_a_missed_budget_cut_are_hard_failures() {
        let variant = tenancy_doc(false, true, 10000);
        let r = check(&variant, &variant, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("tenancy.tenant_invariant")),
            "{:?}",
            r.failures
        );
        let uncut = tenancy_doc(true, false, 10000);
        let r = check(&uncut, &uncut, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("tenancy.budget_exhausted")),
            "{:?}",
            r.failures
        );
        let good = tenancy_doc(true, true, 10000);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.notes.iter().any(|n| n.contains("starved tenant cut")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn tenant_accounting_is_compared_exactly_against_the_baseline() {
        let fresh = tenancy_doc(true, true, 10000);
        let base = tenancy_doc(true, true, 12000);
        let r = check(&fresh, &base, 1e9);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("tenancy.starved_execs")),
            "{:?}",
            r.failures
        );
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("tenancy.tenant_1.execs")),
            "{:?}",
            r.failures
        );
        // A retuned quota skips the exact compare with a note instead
        // of failing.
        let mut retuned = tenancy_doc(true, true, 10000);
        if let Json::Obj(members) = &mut retuned {
            let tenancy = members
                .iter_mut()
                .find(|(k, _)| k == "tenancy")
                .map(|(_, v)| v)
                .unwrap();
            let Json::Obj(tm) = tenancy else {
                unreachable!()
            };
            tm.iter_mut().find(|(k, _)| k == "starved_quota").unwrap().1 = Json::Num(5000.0);
        }
        let r = check(&retuned, &base, 1e9);
        assert!(
            !r.failures.iter().any(|f| f.contains("tenancy.")),
            "{:?}",
            r.failures
        );
        assert!(
            r.notes
                .iter()
                .any(|n| n.contains("tenancy comparison skipped")),
            "{:?}",
            r.notes
        );
    }

    fn trace_doc(replay_identical: bool, bits_per_exec: f64, overhead_pct: f64) -> Json {
        let mut doc = bench_doc(1000.0, 187, true);
        let trace = parse_json(&format!(
            r#"{{ "execs": 20000, "shards": 8, "ring": 32,
                  "retained": 266, "pinned": 10, "stream_bytes": 9200,
                  "bits_per_exec": {bits_per_exec},
                  "stream_bits_per_exec": 240.0, "bits_per_block": 1.1,
                  "capture_overhead_pct": {overhead_pct},
                  "replay_identical": {replay_identical},
                  "crash_sigs": 10, "traces_replayed": 266 }}"#
        ))
        .unwrap();
        let Json::Obj(members) = &mut doc else {
            unreachable!("bench_doc is an object")
        };
        members.push(("trace".into(), trace));
        doc
    }

    #[test]
    fn replay_divergence_and_oversized_traces_are_hard_failures() {
        let diverged = trace_doc(false, 4.0, 10.0);
        let r = check(&diverged, &diverged, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("trace.replay_identical")),
            "{:?}",
            r.failures
        );
        let bloated = trace_doc(true, 40.0, 10.0);
        let r = check(&bloated, &bloated, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("bits per campaign exec")),
            "{:?}",
            r.failures
        );
        let good = trace_doc(true, 4.0, 10.0);
        let r = check(&good, &good, 25.0);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.notes.iter().any(|n| n.contains("retained bits/exec")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn trace_capture_overhead_threshold_is_enforced_and_tunable() {
        let costly = trace_doc(true, 4.0, 170.0);
        let r = check(&costly, &costly, 1e9);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("capture overhead") && f.contains("170.0%")),
            "{:?}",
            r.failures
        );
        // A raised threshold (noisy runner) lets the same number pass.
        let r = super::check(
            &costly,
            &costly,
            &Thresholds {
                max_regression_pct: 25.0,
                max_trace_overhead_pct: 200.0,
                ..Thresholds::default()
            },
        );
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn trace_volume_is_compared_exactly_against_the_baseline() {
        let fresh = trace_doc(true, 4.0, 10.0);
        let mut base = trace_doc(true, 4.0, 10.0);
        if let Json::Obj(members) = &mut base {
            let trace = members
                .iter_mut()
                .find(|(k, _)| k == "trace")
                .map(|(_, v)| v)
                .unwrap();
            let Json::Obj(tm) = trace else { unreachable!() };
            tm.iter_mut().find(|(k, _)| k == "stream_bytes").unwrap().1 = Json::Num(9999.0);
        }
        let r = check(&fresh, &base, 1e9);
        assert!(
            r.failures.iter().any(|f| f.contains("trace.stream_bytes")),
            "{:?}",
            r.failures
        );
        // A retuned ring skips the exact compare with a note instead
        // of failing.
        let mut retuned = trace_doc(true, 4.0, 10.0);
        if let Json::Obj(members) = &mut retuned {
            let trace = members
                .iter_mut()
                .find(|(k, _)| k == "trace")
                .map(|(_, v)| v)
                .unwrap();
            let Json::Obj(tm) = trace else { unreachable!() };
            tm.iter_mut().find(|(k, _)| k == "ring").unwrap().1 = Json::Num(64.0);
        }
        let r = check(&retuned, &base, 1e9);
        assert!(
            !r.failures.iter().any(|f| f.contains("trace.")),
            "{:?}",
            r.failures
        );
        assert!(
            r.notes
                .iter()
                .any(|n| n.contains("trace comparison skipped")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn unparseable_env_overrides_are_hard_errors_naming_the_variable() {
        // `env_pct` is exercised directly: mutating the process
        // environment in tests races other threads.
        assert_eq!(env_pct("KGPT_TEST_UNSET_GATE_VAR", 25.0), Ok(25.0));
        for bad in ["not-a-number", "", "NaN", "-5", "inf"] {
            std::env::set_var("KGPT_TEST_BAD_GATE_VAR", bad);
            let err = env_pct("KGPT_TEST_BAD_GATE_VAR", 25.0).unwrap_err();
            assert!(
                err.contains("KGPT_TEST_BAD_GATE_VAR"),
                "error must name the variable: {err}"
            );
        }
        std::env::set_var("KGPT_TEST_BAD_GATE_VAR", "60");
        assert_eq!(env_pct("KGPT_TEST_BAD_GATE_VAR", 25.0), Ok(60.0));
        std::env::remove_var("KGPT_TEST_BAD_GATE_VAR");
    }

    #[test]
    fn lowering_rates_are_gated_like_any_throughput() {
        let fresh = lowering_doc(true, 30000.0);
        let base = lowering_doc(true, 100000.0);
        let r = check(&fresh, &base, 25.0);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("lowered end-to-end execs/sec")),
            "{:?}",
            r.failures
        );
        // Within threshold passes.
        assert!(check(&lowering_doc(true, 90000.0), &base, 25.0).passed());
    }
}
