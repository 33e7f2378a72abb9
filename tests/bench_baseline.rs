//! The committed `BENCH_baseline.json` is what `fuzz_bench --check`
//! demands byte equality with, so it must itself pass the gate's rule
//! table, carry nothing a clock produced, and be the table
//! EXPERIMENTS.md shows.

use kgpt_bench::report::Report;

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_baseline_passes_the_rules_and_holds_no_timing() {
    let text = read("BENCH_baseline.json");
    let baseline = Report::parse(&text).expect("BENCH_baseline.json is a fuzz_bench report");
    assert_eq!(baseline.render(), text, "not in fuzz_bench's own layout");
    assert_eq!(baseline.check(&text), Vec::<String>::new());
    const TIMINGS: [&str; 6] = [
        "secs",
        "_per_sec",
        "_ms",
        "_pct",
        "speedup",
        "available_cores",
    ];
    for (path, _) in baseline.entries() {
        assert!(
            !TIMINGS.iter().any(|t| path.contains(t)),
            "`{path}`: machine-dependent values belong to benchmark/, not the baseline"
        );
    }
    assert!(
        read("EXPERIMENTS.md").contains(&baseline.experiments_block()),
        "EXPERIMENTS.md's BENCH block is stale: paste `fuzz_bench --execs 20000 --experiments`"
    );
}
