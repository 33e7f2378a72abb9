//! The committed `BENCH_baseline.json` and `PAPER_tables.json` are what
//! `fuzz_bench --check` and `tables --check` demand byte equality with,
//! so each must itself pass its gate's rule table, carry nothing a
//! clock produced, and be the table EXPERIMENTS.md shows.

use kgpt_bench::report::{Gate, Report, BENCH, PAPER};

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn passes_the_rules_and_holds_no_timing(gate: &Gate) {
    let name = gate.baseline;
    let text = read(name);
    let baseline = Report::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        baseline.render(),
        text,
        "{name} is not in the report's own layout"
    );
    assert_eq!(baseline.check(gate, &text), Vec::<String>::new());
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
            "{name}: `{path}`: machine-dependent values belong to benchmark/, not the baseline"
        );
        assert!(
            path.bytes()
                .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.')),
            "{name}: `{path}` is not a lower-case dotted path"
        );
    }
    assert!(
        read("EXPERIMENTS.md").contains(&baseline.experiments_block(gate.marker)),
        "EXPERIMENTS.md's {} block is stale: paste `{} --experiments` (with the \
         arguments of `{}`)",
        gate.marker,
        gate.bin,
        gate.regenerate
    );
}

#[test]
fn committed_baseline_passes_the_rules_and_holds_no_timing() {
    passes_the_rules_and_holds_no_timing(&BENCH);
}

#[test]
fn committed_paper_tables_pass_the_rules_and_hold_no_timing() {
    passes_the_rules_and_holds_no_timing(&PAPER);
}
