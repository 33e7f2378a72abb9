//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run --release -p kgpt-bench --bin tables -- <exp>`
//! where `<exp>` is one of: `table1 fig7 table2 table3 table4 table5
//! table6 cost correctness ablation-iter ablation-model all`.

use kgpt_bench::{
    all_bugs, bp_id_of_handler, correctness, existing_suite_for, kgpt_suite_for,
    syzdescribe_suite_for, table3_suites, Env, TABLE5_DRIVERS, TABLE6_SOCKETS,
};
use kgpt_core::Strategy;
use kgpt_extractor::HandlerKind;
use kgpt_llm::{LanguageModel, ModelKind, OracleModel};
use kgpt_vkernel::VKernel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exp = args.first().map(String::as_str).unwrap_or("all");
    match exp {
        "table1" => table1(&census_run()),
        "fig7" => fig7(),
        "table2" => table2(&census_run()),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(),
        "cost" => cost(&census_run()),
        "correctness" => correctness_exp(&census_run()),
        "ablation-iter" => ablation_iter(),
        "ablation-model" => ablation_model(),
        "all" => {
            let census = census_run();
            table1(&census);
            fig7();
            table2(&census);
            cost(&census);
            correctness_exp(&census);
            table3();
            table4();
            table5();
            table6();
            ablation_iter();
            ablation_model();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
}

/// Shared state for the census experiments (Table 1/2, cost,
/// correctness), computed once a run.
struct CensusRun {
    env: Env,
    model: OracleModel,
    report: kgpt_core::GenerationReport,
    sd: Vec<kgpt_syzdescribe::StaticOutcome>,
}

fn census_run() -> CensusRun {
    eprintln!("[census] building full corpus (666 drivers + 85 sockets)...");
    let env = Env::full(0);
    let incomplete = env.incomplete_handlers();
    eprintln!(
        "[census] {} incomplete loaded handlers; running KernelGPT...",
        incomplete.len()
    );
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let report = env.run_kernelgpt(&model, &incomplete, Strategy::Iterative);
    eprintln!("[census] running SyzDescribe...");
    let sd = kgpt_syzdescribe::describe_all(env.kc.corpus(), &incomplete, env.kc.consts());
    CensusRun {
        env,
        model,
        report,
        sd,
    }
}

fn table1(run: &CensusRun) {
    let census = run.env.kc.census();
    let d_out: Vec<_> = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Driver)
        .collect();
    let s_out: Vec<_> = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Socket)
        .collect();
    let d_valid = d_out.iter().filter(|o| o.valid).count();
    let d_fixed = d_out.iter().filter(|o| o.valid && o.repaired).count();
    let s_valid = s_out.iter().filter(|o| o.valid).count();
    let s_fixed = s_out.iter().filter(|o| o.valid && o.repaired).count();
    let sd_valid_drivers = run
        .sd
        .iter()
        .filter(|o| o.kind == HandlerKind::Driver && o.valid)
        .count();
    println!("\n# Table 1: Specifications for driver/socket handlers");
    println!("#            paper: drivers 278 total / 75 incomplete / SyzD 20 / KGPT 70 (30)");
    println!("#            paper: sockets  81 total / 66 incomplete / SyzD N/A / KGPT 57 (12)");
    println!("kind    #total  #loaded  #incomplete  SyzDescribe#valid  KernelGPT#valid(fixed)");
    println!(
        "driver  {:>6}  {:>7}  {:>11}  {:>17}  {:>10} ({})",
        census.drivers_total,
        census.drivers_loaded,
        census.drivers_incomplete,
        sd_valid_drivers,
        d_valid,
        d_fixed
    );
    println!(
        "socket  {:>6}  {:>7}  {:>11}  {:>17}  {:>10} ({})",
        census.sockets_total,
        census.sockets_loaded,
        census.sockets_incomplete,
        "N/A",
        s_valid,
        s_fixed
    );
}

fn fig7() {
    eprintln!("[fig7] building full corpus...");
    let env = Env::full(0);
    let mut d_hist = [0usize; 10];
    let mut s_hist = [0usize; 10];
    for bp in env.kc.blueprints() {
        if !bp.loaded {
            continue;
        }
        let m = env.kc.missing_fraction(bp);
        if m <= 0.0 {
            continue;
        }
        let bucket = ((m * 10.0).ceil() as usize).clamp(1, 10) - 1;
        if bp.driver().is_some() {
            d_hist[bucket] += 1;
        } else {
            s_hist[bucket] += 1;
        }
    }
    println!("\n# Figure 7: Missing specification distribution (handlers per decile)");
    println!("missing%   drivers  sockets");
    for i in 0..10 {
        println!(
            "{:>3}-{:>3}%   {:>7}  {:>7}",
            i * 10,
            (i + 1) * 10,
            d_hist[i],
            s_hist[i]
        );
    }
}

fn table2(run: &CensusRun) {
    let d_sys: usize = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Driver && o.valid)
        .map(kgpt_core::HandlerOutcome::syscall_count)
        .sum();
    let d_ty: usize = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Driver && o.valid)
        .map(kgpt_core::HandlerOutcome::type_count)
        .sum();
    let s_sys: usize = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Socket && o.valid)
        .map(kgpt_core::HandlerOutcome::syscall_count)
        .sum();
    let s_ty: usize = run
        .report
        .outcomes
        .iter()
        .filter(|o| o.kind == HandlerKind::Socket && o.valid)
        .map(kgpt_core::HandlerOutcome::type_count)
        .sum();
    let sd_sys: usize = run
        .sd
        .iter()
        .filter(|o| o.valid)
        .map(kgpt_syzdescribe::StaticOutcome::syscall_count)
        .sum();
    let sd_ty: usize = run
        .sd
        .iter()
        .filter(|o| o.valid)
        .map(kgpt_syzdescribe::StaticOutcome::type_count)
        .sum();
    println!("\n# Table 2: Newly generated syscall descriptions");
    println!("#            paper: SyzD 146 syscalls/168 types (drivers only);");
    println!("#            paper: KGPT 288+244=532 syscalls, 170+124=294 types");
    println!("tool         target   #syscalls  #types");
    println!("SyzDescribe  driver   {sd_sys:>9}  {sd_ty:>6}");
    println!("SyzDescribe  socket         N/A     N/A");
    println!("KernelGPT    driver   {d_sys:>9}  {d_ty:>6}");
    println!("KernelGPT    socket   {s_sys:>9}  {s_ty:>6}");
    println!(
        "KernelGPT    total    {:>9}  {:>6}",
        d_sys + s_sys,
        d_ty + s_ty
    );
}

fn cost(run: &CensusRun) {
    let usage = run.model.total_usage();
    let cap = ModelKind::Gpt4.capability();
    println!(
        "\n# §5.1.1: Generation cost (paper: 5.56M in / 400K out tokens, $34, 2630/189 per prompt)"
    );
    println!("requests        : {}", usage.requests);
    println!("input tokens    : {}", usage.input_tokens);
    println!("output tokens   : {}", usage.output_tokens);
    println!("per-prompt in   : {}", usage.mean_input());
    println!("per-prompt out  : {}", usage.mean_output());
    println!(
        "cost            : ${:.2}",
        usage.cost_cents(&cap) as f64 / 100.0
    );
}

fn correctness_exp(run: &CensusRun) {
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
    println!("\n# §5.1.3: Correctness of new specifications (paper: 42/45 drivers complete,");
    println!("#          3 (0.9%) wrong identifiers, 9 wrong types)");
    println!("drivers examined        : {}", stats.drivers);
    println!(
        "drivers fully covered   : {} ({:.1}%)",
        stats.drivers - stats.drivers_with_missing,
        100.0 * (stats.drivers - stats.drivers_with_missing) as f64 / stats.drivers.max(1) as f64
    );
    println!("syscalls examined       : {}", stats.total_syscalls);
    println!("missing syscalls        : {}", stats.missing_syscalls);
    println!(
        "wrong identifier values : {} ({:.1}%)",
        stats.wrong_identifiers,
        100.0 * stats.wrong_identifiers as f64 / stats.total_syscalls.max(1) as f64
    );
    println!("wrong types             : {}", stats.wrong_types);
}

fn table3() {
    eprintln!("[table3] building flagship environment...");
    let env = Env::flagship();
    let kernel = env.boot_kernel();
    let (syz, syz_sd, syz_kgpt) = table3_suites(&env);
    const EXECS: u64 = 30_000;
    const REPS: u64 = 3;
    eprintln!("[table3] running 3 suites × {REPS} reps × {EXECS} execs...");
    let base = env.campaign_mean(&kernel, &syz, EXECS, REPS, None);
    let sd = env.campaign_mean(&kernel, &syz_sd, EXECS, REPS, None);
    let kg = env.campaign_mean(&kernel, &syz_kgpt, EXECS, REPS, None);
    let uniq = |m: &kgpt_bench::MeanResult| m.union.difference(&base.union).count();
    println!("\n# Table 3: Overall effectiveness (3 reps, {EXECS} execs each; paper: 24h fuzzing)");
    println!("#            paper: 204,923 / 201,634 / 209,673 cov; 16.0 / 13.7 / 17.7 crashes");
    println!("suite                    cov     uniq-cov   crashes");
    println!(
        "Syzkaller              {:>6}   {:>8}   {:>7.1}",
        base.mean_blocks, "-", base.mean_crashes
    );
    println!(
        "Syzkaller+SyzDescribe  {:>6}   {:>8}   {:>7.1}",
        sd.mean_blocks,
        uniq(&sd),
        sd.mean_crashes
    );
    println!(
        "Syzkaller+KernelGPT    {:>6}   {:>8}   {:>7.1}",
        kg.mean_blocks,
        uniq(&kg),
        kg.mean_crashes
    );
}

fn table4() {
    eprintln!("[table4] building flagship environment...");
    let env = Env::flagship();
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let bugs = all_bugs(&env);
    // Per-bug-driver campaigns under each suite, restricted to the
    // driver's syscalls (focused budget; see EXPERIMENTS.md).
    const EXECS: u64 = 12_000;
    println!("\n# Table 4: New bugs detected by KernelGPT-generated specs");
    println!("#            paper: 24 bugs, 11 CVEs; none found by Syzkaller or SyzDescribe");
    println!("{:<55} {:<16} KGPT  Syzk  SyzD", "crash", "CVE");
    let mut found_kgpt = 0;
    let mut found_other = 0;
    let mut bug_drivers: Vec<String> = bugs.iter().map(|(id, _, _)| id.clone()).collect();
    bug_drivers.sort_unstable();
    bug_drivers.dedup();
    for id in &bug_drivers {
        let kernel = VKernel::boot(kgpt_bench::blueprints_for(&env, id));
        let run_suite = |suite: Vec<kgpt_syzlang::SpecFile>| -> std::collections::BTreeSet<String> {
            if suite.is_empty() {
                return std::collections::BTreeSet::new();
            }
            let m = env.campaign_mean(&kernel, &suite, EXECS, 2, None);
            m.crash_titles
        };
        let kgpt_titles = run_suite(kgpt_suite_for(&env, &model, id));
        let syz_titles = run_suite(existing_suite_for(&env, id));
        let sd_titles = run_suite(syzdescribe_suite_for(&env, id));
        for (bid, title, cve) in bugs.iter().filter(|(b, _, _)| b == id) {
            let _ = bid;
            let k = kgpt_titles.contains(title);
            let s = syz_titles.contains(title);
            let d = sd_titles.contains(title);
            if k {
                found_kgpt += 1;
            }
            if s || d {
                found_other += 1;
            }
            println!(
                "{:<55} {:<16} {:<5} {:<5} {:<4}",
                title,
                cve.clone().unwrap_or_else(|| "-".into()),
                if k { "YES" } else { "no" },
                if s { "YES" } else { "no" },
                if d { "YES" } else { "no" },
            );
        }
    }
    println!("total found by KernelGPT: {found_kgpt}/24; by baselines: {found_other}/24");
}

fn table5() {
    eprintln!("[table5] building flagship environment...");
    let env = Env::flagship();
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    const EXECS: u64 = 6_000;
    const REPS: u64 = 3;
    println!("\n# Table 5: Driver specification comparison ({REPS} reps × {EXECS} execs; cmd counts scaled ~1/3 of paper)");
    println!(
        "{:<14} {:>5} {:>7}   {:>5} {:>7}   {:>5} {:>7}",
        "driver", "SyzN", "SyzCov", "SDN", "SDCov", "KGN", "KGCov"
    );
    let mut totals = [0u64; 6];
    let mut wins = [0usize; 3];
    let mut best_or_tied = [0usize; 3];
    for id in TABLE5_DRIVERS {
        let kernel = VKernel::boot(kgpt_bench::blueprints_for(&env, id));
        let mut row = Vec::new();
        for suite in [
            existing_suite_for(&env, id),
            syzdescribe_suite_for(&env, id),
            kgpt_suite_for(&env, &model, id),
        ] {
            if suite.is_empty() {
                row.push((0usize, 0u64));
                continue;
            }
            let n = Env::suite_syscalls(&suite).len();
            let m = env.campaign_mean(&kernel, &suite, EXECS, REPS, None);
            row.push((n, m.mean_blocks));
        }
        println!(
            "{:<14} {:>5} {:>7}   {:>5} {:>7}   {:>5} {:>7}",
            id, row[0].0, row[0].1, row[1].0, row[1].1, row[2].0, row[2].1
        );
        for (i, (n, c)) in row.iter().enumerate() {
            totals[i * 2] += *n as u64;
            totals[i * 2 + 1] += c;
        }
        // Strict wins and paper-style bolding (best incl. ties).
        let best = row.iter().map(|(_, c)| *c).max().unwrap_or(0);
        let holders: Vec<usize> = row
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c == best && best > 0)
            .map(|(i, _)| i)
            .collect();
        if holders.len() == 1 {
            wins[holders[0]] += 1;
        }
        for h in &holders {
            best_or_tied[*h] += 1;
        }
    }
    println!(
        "{:<14} {:>5} {:>7}   {:>5} {:>7}   {:>5} {:>7}",
        "Total", totals[0], totals[1], totals[2], totals[3], totals[4], totals[5]
    );
    println!(
        "strict best-coverage wins: Syzkaller {} / SyzDescribe {} / KernelGPT {}",
        wins[0], wins[1], wins[2]
    );
    println!(
        "best incl. ties (paper bolding, 4/4/20): Syzkaller {} / SyzDescribe {} / KernelGPT {}",
        best_or_tied[0], best_or_tied[1], best_or_tied[2]
    );
}

fn table6() {
    eprintln!("[table6] building flagship environment...");
    let env = Env::flagship();
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    const EXECS: u64 = 6_000;
    const REPS: u64 = 3;
    println!("\n# Table 6: Socket specification comparison ({REPS} reps × {EXECS} execs)");
    println!(
        "{:<14} {:>5} {:>7} {:>6}   {:>5} {:>7} {:>6}",
        "socket", "SyzN", "SyzCov", "SyzCr", "KGN", "KGCov", "KGCr"
    );
    let mut totals = [0u64; 4];
    for id in TABLE6_SOCKETS {
        let kernel = VKernel::boot(kgpt_bench::blueprints_for(&env, id));
        let mut cells = Vec::new();
        for suite in [
            existing_suite_for(&env, id),
            kgpt_suite_for(&env, &model, id),
        ] {
            if suite.is_empty() {
                cells.push((0usize, 0u64, 0.0));
                continue;
            }
            let n = Env::suite_syscalls(&suite).len();
            let m = env.campaign_mean(&kernel, &suite, EXECS, REPS, None);
            cells.push((n, m.mean_blocks, m.mean_crashes));
        }
        println!(
            "{:<14} {:>5} {:>7} {:>6.1}   {:>5} {:>7} {:>6.1}",
            id, cells[0].0, cells[0].1, cells[0].2, cells[1].0, cells[1].1, cells[1].2
        );
        totals[0] += cells[0].0 as u64;
        totals[1] += cells[0].1;
        totals[2] += cells[1].0 as u64;
        totals[3] += cells[1].1;
    }
    println!(
        "{:<14} {:>5} {:>7} {:>6}   {:>5} {:>7} {:>6}",
        "Total", totals[0], totals[1], "", totals[2], totals[3], ""
    );
}

fn ablation_drivers() -> Vec<&'static str> {
    // "First 10 valid drivers from Table 5".
    TABLE5_DRIVERS.iter().take(10).copied().collect()
}

fn ablation_iter() {
    eprintln!("[ablation-iter] building flagship environment...");
    let env = Env::flagship();
    const EXECS: u64 = 5_000;
    let mut totals = [[0u64; 3]; 2]; // [strategy][syscalls, types, cov]
    println!("\n# §5.2.3 ablation: iterative multi-stage vs all-in-one prompting");
    println!("#            paper: iterative infers 1.28x syscalls, 2.37x types, 1.39x coverage");
    println!(
        "{:<14} {:>6} {:>6} {:>7}   {:>6} {:>6} {:>7}",
        "driver", "It#S", "It#T", "ItCov", "A1#S", "A1#T", "A1Cov"
    );
    for id in ablation_drivers() {
        let kernel = VKernel::boot(kgpt_bench::blueprints_for(&env, id));
        let mut cells = Vec::new();
        for (si, strategy) in [Strategy::Iterative, Strategy::AllInOne].iter().enumerate() {
            let model = OracleModel::new(ModelKind::Gpt4, 0);
            let handlers: Vec<_> = std::iter::once(id)
                .chain(kgpt_bench::companions(id))
                .filter_map(|b| env.handler_for(b).cloned())
                .collect();
            let report = env.run_kernelgpt(&model, &handlers, *strategy);
            let suite = report.specs();
            let n_sys = report.total_syscalls();
            let n_ty = report.total_types();
            let cov = if suite.is_empty() {
                0
            } else {
                env.campaign_mean(&kernel, &suite, EXECS, 2, None)
                    .mean_blocks
            };
            totals[si][0] += n_sys as u64;
            totals[si][1] += n_ty as u64;
            totals[si][2] += cov;
            cells.push((n_sys, n_ty, cov));
        }
        println!(
            "{:<14} {:>6} {:>6} {:>7}   {:>6} {:>6} {:>7}",
            id, cells[0].0, cells[0].1, cells[0].2, cells[1].0, cells[1].1, cells[1].2
        );
    }
    println!(
        "Total          {:>6} {:>6} {:>7}   {:>6} {:>6} {:>7}",
        totals[0][0], totals[0][1], totals[0][2], totals[1][0], totals[1][1], totals[1][2]
    );
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            f64::INFINITY
        } else {
            a as f64 / b as f64
        }
    };
    println!(
        "iterative/all-in-one: {:.2}x syscalls, {:.2}x types, {:.2}x coverage",
        ratio(totals[0][0], totals[1][0]),
        ratio(totals[0][1], totals[1][1]),
        ratio(totals[0][2], totals[1][2])
    );
}

fn ablation_model() {
    eprintln!("[ablation-model] building flagship environment...");
    let env = Env::flagship();
    const EXECS: u64 = 5_000;
    println!("\n# §5.2.3 ablation: model choice (paper: GPT-3.5 85 syscalls vs GPT-4 143; GPT-4o ≈ GPT-4)");
    println!(
        "{:<14} {:>9} {:>7} {:>9}",
        "model", "#syscalls", "#types", "coverage"
    );
    for kind in [ModelKind::Gpt35, ModelKind::Gpt4, ModelKind::Gpt4o] {
        let model = OracleModel::new(kind, 0);
        let mut n_sys = 0usize;
        let mut n_ty = 0usize;
        let mut cov = 0u64;
        for id in ablation_drivers() {
            let kernel = VKernel::boot(kgpt_bench::blueprints_for(&env, id));
            let handlers: Vec<_> = std::iter::once(id)
                .chain(kgpt_bench::companions(id))
                .filter_map(|b| env.handler_for(b).cloned())
                .collect();
            let report = env.run_kernelgpt(&model, &handlers, Strategy::Iterative);
            n_sys += report.total_syscalls();
            n_ty += report.total_types();
            let suite = report.specs();
            if !suite.is_empty() {
                cov += env
                    .campaign_mean(&kernel, &suite, EXECS, 2, None)
                    .mean_blocks;
            }
        }
        println!("{:<14} {:>9} {:>7} {:>9}", model.name(), n_sys, n_ty, cov);
    }
}

// Silence "unused" for helpers only exercised in some subcommands.
#[allow(dead_code)]
fn unused_guard(h: &kgpt_extractor::OpHandler) -> String {
    bp_id_of_handler(h)
}
