//! Regenerate the paper's evaluation as one [`Report`]: Table 1, Fig. 7,
//! Table 2, §5.1.1 cost, §5.1.3 correctness, Tables 3–6 and the two
//! §5.2.3 ablations, each experiment under its own section.
//!
//! Usage: `cargo run --release -p kgpt-bench --bin tables --
//! [--out PATH] [--check BASELINE] [--experiments]`
//!
//! The gate is [`PAPER`], run by the same [`kgpt_bench::report::Gate::run`]
//! as `fuzz_bench`'s: `--check PAPER_tables.json` is byte equality with
//! the committed report plus the paper's orderings
//! ([`kgpt_bench::report::PAPER_RULES`]). `--experiments` prints the
//! EXPERIMENTS.md `TABLES:BEGIN/END` block; the paper's own numbers sit
//! beside it there.

use kgpt_bench::report::{Report, PAPER};
use kgpt_bench::{
    all_bugs, correctness, existing_suite_for, handlers_for, kgpt_suite_for, syzdescribe_suite_for,
    table3_suites, Env, TABLE5_DRIVERS, TABLE6_SOCKETS,
};
use kgpt_core::Strategy;
use kgpt_extractor::HandlerKind;
use kgpt_llm::{LanguageModel, ModelKind, OracleModel};
use kgpt_syzlang::SpecFile;
use kgpt_vkernel::VKernel;
use std::collections::BTreeSet;
use std::ops::AddAssign;
use std::process::ExitCode;

/// The three suites of Tables 3–5, in the order [`suites_for`] builds
/// them.
const SUITES: [&str; 3] = ["syzkaller", "syzdescribe", "kernelgpt"];
const SYS_COV: [&str; 2] = ["syscalls", "coverage"];
const SYS_TYPES_COV: [&str; 3] = ["syscalls", "types", "coverage"];

fn main() -> ExitCode {
    PAPER.run(|_| {
        let mut report = Report::default();
        let census = census_run();
        table1(&mut report, &census);
        fig7(&mut report, &census.env);
        table2(&mut report, &census);
        cost(&mut report, &census);
        correctness_exp(&mut report, &census);
        let env = Env::flagship();
        table3(&mut report, &env);
        table4(&mut report, &env);
        table5(&mut report, &env);
        table6(&mut report, &env);
        ablation_iter(&mut report, &env);
        ablation_model(&mut report, &env);
        report
    })
}

/// Shared state for the census experiments (Table 1/2, Fig. 7, cost,
/// correctness), computed once a run.
struct CensusRun {
    env: Env,
    model: OracleModel,
    report: kgpt_core::GenerationReport,
    sd: Vec<kgpt_syzdescribe::StaticOutcome>,
}

fn census_run() -> CensusRun {
    let env = Env::full(0);
    let incomplete = env.incomplete_handlers();
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let report = env.run_kernelgpt(&model, &incomplete, Strategy::Iterative);
    let sd = kgpt_syzdescribe::describe_all(env.kc.corpus(), &incomplete, env.kc.consts());
    CensusRun {
        env,
        model,
        report,
        sd,
    }
}

/// One driver's (or socket's) suites, in [`SUITES`] order.
fn suites_for(env: &Env, model: &dyn LanguageModel, id: &str) -> [Vec<SpecFile>; 3] {
    [
        existing_suite_for(env, id),
        syzdescribe_suite_for(env, id),
        kgpt_suite_for(env, model, id),
    ]
}

fn boot(env: &Env, id: &str) -> VKernel {
    VKernel::boot(kgpt_bench::blueprints_for(env, id))
}

fn table1(r: &mut Report, run: &CensusRun) {
    let c = run.env.kc.census();
    let drivers = [c.drivers_total, c.drivers_loaded, c.drivers_incomplete];
    let sockets = [c.sockets_total, c.sockets_loaded, c.sockets_incomplete];
    for (kind, key, census) in [
        (HandlerKind::Driver, "driver", drivers),
        (HandlerKind::Socket, "socket", sockets),
    ] {
        let section = format!("table1.{key}");
        counts(r, &section, &["total", "loaded", "incomplete"], &census);
        // SyzDescribe describes no sockets.
        if kind == HandlerKind::Driver {
            let sd = run.sd.iter().filter(|o| o.kind == kind && o.valid);
            r.count("syzdescribe_valid", sd.count());
        }
        let outcomes = &run.report.outcomes;
        let valid = || outcomes.iter().filter(|o| o.kind == kind && o.valid);
        r.count("kernelgpt_valid", valid().count());
        r.count("kernelgpt_fixed", valid().filter(|o| o.repaired).count());
    }
}

fn fig7(r: &mut Report, env: &Env) {
    let mut hist = [[0usize; 2]; 10];
    for bp in env.kc.blueprints().iter().filter(|bp| bp.loaded) {
        let m = env.kc.missing_fraction(bp);
        if m > 0.0 {
            let bucket = ((m * 10.0).ceil() as usize).clamp(1, 10) - 1;
            hist[bucket][usize::from(bp.driver().is_none())] += 1;
        }
    }
    for (i, drivers_sockets) in hist.iter().enumerate() {
        let section = format!("fig7.missing_{}_{}", i * 10, (i + 1) * 10);
        counts(r, &section, &["drivers", "sockets"], drivers_sockets);
    }
}

fn table2(r: &mut Report, run: &CensusRun) {
    let sd = run.sd.iter().filter(|o| o.valid);
    let sd = sum(sd.map(|o| [o.syscall_count(), o.type_count()]));
    let kgpt = |kind: Option<HandlerKind>| {
        let outcomes = run.report.outcomes.iter();
        let valid = outcomes.filter(|o| o.valid && kind.is_none_or(|k| o.kind == k));
        sum(valid.map(|o| [o.syscall_count(), o.type_count()]))
    };
    for (section, cells) in [
        ("syzdescribe.driver", sd),
        ("kernelgpt.driver", kgpt(Some(HandlerKind::Driver))),
        ("kernelgpt.socket", kgpt(Some(HandlerKind::Socket))),
        ("kernelgpt.total", kgpt(None)),
    ] {
        counts(r, &format!("table2.{section}"), &SYS_TYPES_COV[..2], &cells);
    }
}

fn cost(r: &mut Report, run: &CensusRun) {
    let usage = run.model.total_usage();
    r.section("cost");
    r.count("requests", usage.requests);
    r.count("input_tokens", usage.input_tokens);
    r.count("output_tokens", usage.output_tokens);
    r.count("mean_input_tokens", usage.mean_input());
    r.count("mean_output_tokens", usage.mean_output());
    let cents = usage.cost_cents(&ModelKind::Gpt4.capability());
    r.ratio("usd", cents as f64 / 100.0, 2);
}

fn correctness_exp(r: &mut Report, run: &CensusRun) {
    // The 45 loaded drivers with no existing specs (§5.1.3's target).
    let ids: Vec<String> = run
        .env
        .kc
        .blueprints()
        .iter()
        .filter(|b| {
            b.loaded
                && b.driver().is_some()
                && matches!(b.existing, kgpt_csrc::blueprint::ExistingSpec::None)
        })
        .map(|b| b.id.clone())
        .collect();
    let stats = correctness(&run.env, &ids, &run.report);
    let percent = |n: usize, of: usize| 100.0 * n as f64 / of.max(1) as f64;
    let complete = stats.drivers - stats.drivers_with_missing;
    r.section("correctness");
    r.count("drivers", stats.drivers);
    r.count("drivers_complete", complete);
    let complete_percent = percent(complete, stats.drivers);
    r.ratio("drivers_complete_percent", complete_percent, 1);
    r.count("syscalls", stats.total_syscalls);
    r.count("missing_syscalls", stats.missing_syscalls);
    r.count("wrong_identifiers", stats.wrong_identifiers);
    let wrong = percent(stats.wrong_identifiers, stats.total_syscalls);
    r.ratio("wrong_identifiers_percent", wrong, 1);
    r.count("wrong_types", stats.wrong_types);
}

fn table3(r: &mut Report, env: &Env) {
    const EXECS: u64 = 30_000;
    const REPS: u64 = 3;
    budget(r, "table3", EXECS, REPS);
    let kernel = env.boot_kernel();
    let (syz, sd, kgpt) = table3_suites(env);
    let means = [syz, sd, kgpt].map(|suite| env.campaign_mean(&kernel, &suite, EXECS, REPS));
    for (key, m) in SUITES.iter().zip(&means) {
        r.section(&format!("table3.{key}"));
        r.count("coverage", m.mean_blocks);
        if *key != "syzkaller" {
            let unique = m.union.difference(&means[0].union).count();
            r.count("unique_coverage", unique);
        }
        r.ratio("crashes", m.mean_crashes, 1);
    }
}

fn table4(r: &mut Report, env: &Env) {
    // Per-bug-driver campaigns under each suite, on a kernel of the
    // driver alone (focused budget; see EXPERIMENTS.md).
    const EXECS: u64 = 12_000;
    const REPS: u64 = 2;
    let bugs = all_bugs(env);
    budget(r, "table4", EXECS, REPS);
    r.count("bugs", bugs.len());
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let mut found = [0u64; 3];
    let mut found_by_a_baseline = 0u64;
    let drivers: BTreeSet<&str> = bugs.iter().map(|(id, _, _)| id.as_str()).collect();
    for id in drivers {
        let kernel = boot(env, id);
        let titles = suites_for(env, &model, id)
            .map(|suite| env.campaign_mean(&kernel, &suite, EXECS, REPS).crash_titles);
        for (k, (_, title, cve)) in bugs.iter().filter(|(b, _, _)| b == id).enumerate() {
            // A cell is a count (0 or 1), not a flag: the gate demands
            // every flag be `true`, and a baseline's cells read 0.
            let hits = titles.each_ref().map(|t| u64::from(t.contains(title)));
            let section = format!("table4.{id}.{k}");
            r.section(&section);
            r.label("title", title);
            r.label("cve", cve.as_deref().unwrap_or("-"));
            counts(r, &section, &SUITES, &hits);
            add(&mut found, &hits);
            found_by_a_baseline += u64::from(hits[0] + hits[1] > 0);
        }
    }
    counts(r, "table4.found", &SUITES, &found);
    r.count("by_a_baseline", found_by_a_baseline);
}

fn table5(r: &mut Report, env: &Env) {
    const EXECS: u64 = 6_000;
    const REPS: u64 = 3;
    budget(r, "table5", EXECS, REPS);
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let mut totals = [[0u64; 2]; 3];
    let mut wins = [0u64; 3];
    let mut best_incl_ties = [0u64; 3];
    for id in TABLE5_DRIVERS {
        let kernel = boot(env, id);
        let row = suites_for(env, &model, id).map(|suite| {
            let m = env.campaign_mean(&kernel, &suite, EXECS, REPS);
            [syscalls(&suite), m.mean_blocks]
        });
        for ((key, cells), total) in SUITES.iter().zip(row).zip(&mut totals) {
            counts(r, &format!("table5.{id}.{key}"), &SYS_COV, &cells);
            add(total, &cells);
        }
        // Strict wins and paper-style bolding (best incl. ties).
        let best = row.iter().map(|[_, c]| *c).max().unwrap_or(0);
        let holders: Vec<usize> = (0..3).filter(|&i| best > 0 && row[i][1] == best).collect();
        if let [only] = holders[..] {
            wins[only] += 1;
        }
        for h in holders {
            best_incl_ties[h] += 1;
        }
    }
    for (key, total) in SUITES.iter().zip(totals) {
        counts(r, &format!("table5.total.{key}"), &SYS_COV, &total);
    }
    counts(r, "table5.strict_wins", &SUITES, &wins);
    counts(r, "table5.best_incl_ties", &SUITES, &best_incl_ties);
}

fn table6(r: &mut Report, env: &Env) {
    const EXECS: u64 = 6_000;
    const REPS: u64 = 3;
    const SUITES: [&str; 2] = ["syzkaller", "kernelgpt"];
    budget(r, "table6", EXECS, REPS);
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let mut totals = [[0u64; 2]; 2];
    for id in TABLE6_SOCKETS {
        let kernel = boot(env, id);
        let suites = [existing_suite_for(env, id), kgpt_suite_for(env, &model, id)];
        for ((key, suite), total) in SUITES.iter().zip(suites).zip(&mut totals) {
            let m = env.campaign_mean(&kernel, &suite, EXECS, REPS);
            let cells = [syscalls(&suite), m.mean_blocks];
            counts(r, &format!("table6.{id}.{key}"), &SYS_COV, &cells);
            r.ratio("crashes", m.mean_crashes, 1);
            add(total, &cells);
        }
    }
    for (key, total) in SUITES.iter().zip(totals) {
        counts(r, &format!("table6.total.{key}"), &SYS_COV, &total);
    }
}

/// The §5.2.3 ablations' drivers: "the first 10 valid drivers from
/// Table 5".
const ABLATION_DRIVERS: &[&str] = TABLE5_DRIVERS.split_at(10).0;
const ABLATION_EXECS: u64 = 5_000;
const ABLATION_REPS: u64 = 2;

/// KernelGPT's syscalls, types and coverage on one ablation driver.
fn ablation_cells(env: &Env, model: &OracleModel, id: &str, strategy: Strategy) -> [u64; 3] {
    let report = env.run_kernelgpt(model, &handlers_for(env, id), strategy);
    let kernel = boot(env, id);
    let m = env.campaign_mean(&kernel, &report.specs(), ABLATION_EXECS, ABLATION_REPS);
    [
        report.total_syscalls() as u64,
        report.total_types() as u64,
        m.mean_blocks,
    ]
}

fn ablation_iter(r: &mut Report, env: &Env) {
    budget(r, "ablation_iter", ABLATION_EXECS, ABLATION_REPS);
    let strategies = [
        (Strategy::Iterative, "iterative"),
        (Strategy::AllInOne, "all_in_one"),
    ];
    let mut totals = [[0u64; 3]; 2];
    for id in ABLATION_DRIVERS {
        for ((strategy, key), total) in strategies.iter().zip(&mut totals) {
            let model = OracleModel::new(ModelKind::Gpt4, 0);
            let cells = ablation_cells(env, &model, id, *strategy);
            counts(
                r,
                &format!("ablation_iter.{id}.{key}"),
                &SYS_TYPES_COV,
                &cells,
            );
            add(total, &cells);
        }
    }
    for ((_, key), total) in strategies.iter().zip(totals) {
        counts(
            r,
            &format!("ablation_iter.total.{key}"),
            &SYS_TYPES_COV,
            &total,
        );
    }
    r.section("ablation_iter.iterative_over_all_in_one");
    for (i, key) in SYS_TYPES_COV.iter().enumerate() {
        r.ratio(key, totals[0][i] as f64 / totals[1][i] as f64, 2);
    }
}

fn ablation_model(r: &mut Report, env: &Env) {
    budget(r, "ablation_model", ABLATION_EXECS, ABLATION_REPS);
    let mut coverage = Vec::new();
    for (kind, key) in [
        (ModelKind::Gpt35, "gpt35"),
        (ModelKind::Gpt4, "gpt4"),
        (ModelKind::Gpt4o, "gpt4o"),
    ] {
        let model = OracleModel::new(kind, 0);
        let cells = ABLATION_DRIVERS
            .iter()
            .map(|id| ablation_cells(env, &model, id, Strategy::Iterative));
        let total = sum(cells);
        r.section(&format!("ablation_model.{key}"));
        r.label("model", model.name());
        counts(r, &format!("ablation_model.{key}"), &SYS_TYPES_COV, &total);
        coverage.push(total[2] as f64);
    }
    r.section("ablation_model");
    r.ratio("gpt4o_over_gpt4_coverage", coverage[2] / coverage[1], 4);
}

/// Append an experiment's campaign budget under its section.
fn budget(r: &mut Report, section: &str, execs: u64, reps: u64) {
    r.section(section);
    r.count("execs", execs);
    r.count("reps", reps);
}

/// Append `keys[i]: values[i]` under `section`.
fn counts<T: TryInto<u64> + Copy>(r: &mut Report, section: &str, keys: &[&str], values: &[T]) {
    r.section(section);
    for (key, v) in keys.iter().zip(values) {
        r.count(key, *v);
    }
}

/// `total[i] += cells[i]`.
fn add<T: Copy + AddAssign>(total: &mut [T], cells: &[T]) {
    for (t, c) in total.iter_mut().zip(cells) {
        *t += *c;
    }
}

/// Element-wise sum.
fn sum<T: Copy + Default + AddAssign, const N: usize>(
    rows: impl Iterator<Item = [T; N]>,
) -> [T; N] {
    rows.fold([T::default(); N], |mut total, row| {
        add(&mut total, &row);
        total
    })
}

/// The number of syscalls a suite describes.
fn syscalls(suite: &[SpecFile]) -> u64 {
    Env::suite_syscalls(suite).len() as u64
}
