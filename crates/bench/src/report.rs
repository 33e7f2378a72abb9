//! A gated report: an ordered list of `(dotted path, value)` entries
//! rendered as one flat JSON object, one key per line, and the one gate
//! that holds it to a committed copy.
//!
//! Two binaries write one, and both are [`Gate::run`] — the same
//! arguments, write, check and exit codes:
//!
//! * `fuzz_bench` ([`BENCH`]): every campaign route's counts and
//!   invariance flags, committed as `BENCH_baseline.json`;
//! * `tables` ([`PAPER`]): the paper's evaluation — Tables 1–6, Fig. 7,
//!   §5.1.1 cost, §5.1.3 correctness and the two §5.2.3 ablations —
//!   committed as `PAPER_tables.json`.
//!
//! Every value is a count, a flag, a label or a ratio of counts — no
//! clock is read anywhere — so the rendered text is a pure function of
//! the arguments and byte-identical on any machine. That makes the gate
//! two checks and nothing else ([`Report::check`]):
//!
//! * **byte equality** with the committed baseline; on a mismatch the
//!   findings name every path whose value moved, and a path present on
//!   one side only carries the action ("regenerate `<baseline>` in this
//!   PR" and the command that does it);
//! * **the gate's rule table** ([`BENCH_RULES`], [`PAPER_RULES`], plus
//!   "every flag is `true`"), evaluated on the fresh values — so a flag
//!   that is `false` fails even when someone committed a baseline that
//!   says `false` too.
//!
//! Throughput, overhead ratios and latencies are not here: the frozen
//! `benchmark/` package owns them (`work_per_s` on its six workloads,
//! `checkpoint.overhead_pct`, `flight.capture_overhead_pct`,
//! `shard.speedup_2t`, … in its probe pass).

use std::fmt;
use std::process::ExitCode;

/// One report value. Floats carry their fixed rendering precision so
/// the text round-trips through [`Report::parse`] byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    U64(u64),
    /// A ratio of counts, rendered with exactly `places` decimals.
    F64 {
        /// The value as computed (rules see this, not the rounding).
        v: f64,
        /// Decimal places in the rendering.
        places: usize,
    },
    /// An invariant flag; the gate demands `true`.
    Bool(bool),
    /// A label (suite or workload name).
    Str(String),
}

impl Value {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::F64 { v, .. } => Some(*v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }

    /// Inverse of `Display`; `None` for anything `Display` never
    /// writes (the baseline file is outside input).
    fn parse(raw: &str) -> Option<Value> {
        if let Some(s) = raw.strip_prefix('"') {
            let s = s.strip_suffix('"')?;
            return (!s.contains(['"', '\\'])).then(|| Value::Str(s.to_owned()));
        }
        match raw {
            "true" => return Some(Value::Bool(true)),
            "false" => return Some(Value::Bool(false)),
            _ => {}
        }
        if !raw.starts_with(|c: char| c.is_ascii_digit()) {
            return None;
        }
        match raw.split_once('.') {
            None => raw.parse().ok().map(Value::U64),
            Some((_, frac)) => raw.parse().ok().map(|v| Value::F64 {
                v,
                places: frac.len(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(n) => write!(f, "{n}"),
            Value::F64 { v, places } => write!(f, "{v:.places$}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// One floor rule, `"left >= right"`, evaluated on the fresh run. Each
/// side is a report path, or a constant when it starts with a digit.
pub type Rule = &'static str;

/// `fuzz_bench`'s floor rules. (The remaining rule — every
/// [`Value::Bool`] in the report is `true` — needs no table: a new
/// flag is gated the moment it is emitted.)
pub const BENCH_RULES: &[Rule] = &[
    // The seed hub exists to lift per-exec coverage yield; exchange-on
    // below exchange-off is a regression on either suite.
    "hub.on.coverage_per_exec >= hub.off.coverage_per_exec",
    "workloads.deep_chain.on.coverage_per_exec >= workloads.deep_chain.off.coverage_per_exec",
    // Minimization that fails to halve reproducers on the deep-chain
    // workload is a behaviour regression.
    "triage.mean_shrink_ratio >= 2",
    // Retained trace bits amortized over all campaign execs; above
    // this the codec or the retention policy degenerated.
    "16 >= trace.bits_per_exec",
    // Incremental frames that cost as much as full ones mean the diff
    // codec degenerated.
    "fabric.delta_shrink >= 5",
    // No worker may outlive its lease in a clean in-memory run.
    "0 >= fabric.expired_leases",
    // The resume the durability section performs must come through a
    // journal record, not a base alone.
    "durability.replayed_records >= 1",
];

/// `tables`' floor rules: the paper's orderings.
pub const PAPER_RULES: &[Rule] = &[
    // Table 3: richer specs reach more blocks — KernelGPT's over
    // SyzDescribe's over Syzkaller's alone — and more that the
    // baseline never reaches.
    "table3.kernelgpt.coverage >= table3.syzdescribe.coverage",
    "table3.syzdescribe.coverage >= table3.syzkaller.coverage",
    "table3.kernelgpt.unique_coverage >= table3.syzdescribe.unique_coverage",
    // Table 4: KernelGPT's specs find the new bugs (23 of 24 here; the
    // 24th is missed at this budget); neither baseline finds one.
    "table4.found.kernelgpt >= 23",
    "0 >= table4.found.syzkaller",
    "0 >= table4.found.syzdescribe",
    // Tables 5–6: KernelGPT's specs cover at least as much in total as
    // each baseline's, and hold the best cell (ties included) at least
    // as often. Syscall totals are not ordered: SyzDescribe describes
    // a command whose argument type is ambiguous twice (§5.2.1).
    "table5.total.kernelgpt.coverage >= table5.total.syzkaller.coverage",
    "table5.total.kernelgpt.coverage >= table5.total.syzdescribe.coverage",
    "table5.best_incl_ties.kernelgpt >= table5.best_incl_ties.syzkaller",
    "table5.best_incl_ties.kernelgpt >= table5.best_incl_ties.syzdescribe",
    "table6.total.kernelgpt.coverage >= table6.total.syzkaller.coverage",
    // §5.2.3: iterative prompting infers at least what all-in-one does.
    "ablation_iter.total.iterative.syscalls >= ablation_iter.total.all_in_one.syscalls",
    "ablation_iter.total.iterative.types >= ablation_iter.total.all_in_one.types",
    "ablation_iter.total.iterative.coverage >= ablation_iter.total.all_in_one.coverage",
    // §5.2.3: GPT-4 infers at least what GPT-3.5 does, and GPT-4o's
    // coverage is within 2 % of GPT-4's.
    "ablation_model.gpt4.syscalls >= ablation_model.gpt35.syscalls",
    "ablation_model.gpt4.types >= ablation_model.gpt35.types",
    "ablation_model.gpt4.coverage >= ablation_model.gpt35.coverage",
    "ablation_model.gpt4o_over_gpt4_coverage >= 0.98",
    "1.02 >= ablation_model.gpt4o_over_gpt4_coverage",
];

/// One report's gate: the binary that writes it, its committed
/// baseline and the command that regenerates it, and its rule table.
#[derive(Debug)]
pub struct Gate {
    /// The binary that writes the report.
    pub bin: &'static str,
    /// `--execs`' default, or `None` when the report has no budget to
    /// set (then `--execs` is a usage error).
    pub execs: Option<u64>,
    /// `--out`'s default.
    pub out: &'static str,
    /// The committed report `--check` holds a fresh one to.
    pub baseline: &'static str,
    /// The command that regenerates [`Gate::baseline`].
    pub regenerate: &'static str,
    /// The marker of the EXPERIMENTS.md block (`<marker>:BEGIN`).
    pub marker: &'static str,
    /// The floor rules.
    pub rules: &'static [Rule],
}

/// The deterministic campaign report.
pub const BENCH: Gate = Gate {
    bin: "fuzz_bench",
    execs: Some(100_000),
    out: "BENCH_fuzzing.json",
    baseline: "BENCH_baseline.json",
    regenerate: "fuzz_bench --execs 20000 --out BENCH_baseline.json",
    marker: "BENCH",
    rules: BENCH_RULES,
};

/// The paper's evaluation.
pub const PAPER: Gate = Gate {
    bin: "tables",
    execs: None,
    out: "PAPER_fresh.json",
    baseline: "PAPER_tables.json",
    regenerate: "tables --out PAPER_tables.json",
    marker: "TABLES",
    rules: PAPER_RULES,
};

/// A gated binary's command line. `execs` is the gate's default (0
/// for a gate without one) unless given; `experiments` prints the
/// EXPERIMENTS.md block instead of writing `out`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Args {
    pub execs: u64,
    pub out: String,
    pub check: Option<String>,
    pub experiments: bool,
}

impl Gate {
    /// The usage line.
    #[must_use]
    pub(crate) fn usage(&self) -> String {
        let execs = self.execs.map_or("", |_| " [--execs N]");
        let flags = "[--out PATH] [--check BASELINE] [--experiments]";
        format!("usage: {}{execs} {flags}", self.bin)
    }

    /// Parse a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Names an unknown argument, a flag without its value, or an
    /// `--execs` value that is not a count.
    pub(crate) fn parse_args(
        &self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            execs: self.execs.unwrap_or(0),
            out: self.out.to_owned(),
            check: None,
            experiments: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("`{arg}` needs a value"));
            match arg.as_str() {
                "--execs" if self.execs.is_some() => {
                    let v = value()?;
                    parsed.execs = v
                        .parse()
                        .map_err(|_| format!("`--execs {v}`: not a count"))?;
                }
                "--out" => parsed.out = value()?,
                "--check" => parsed.check = Some(value()?),
                "--experiments" => parsed.experiments = true,
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        Ok(parsed)
    }

    /// A gated binary's `main`: parse the command line, build the
    /// report with `build(execs)`, write it (or print its EXPERIMENTS.md
    /// block) and run the rule table — with `--check`, the whole gate.
    /// Exit code 2 with the usage line on a bad command line, 1 when
    /// anything is found, 0 otherwise.
    pub fn run(&self, build: impl FnOnce(u64) -> Report) -> ExitCode {
        let args = match self.parse_args(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{}: {e}\n{}", self.bin, self.usage());
                return ExitCode::from(2);
            }
        };
        let report = build(args.execs);
        let mut findings = Vec::new();
        if args.experiments {
            print!("{}", report.experiments_block(self.marker));
        } else if let Err(e) = std::fs::write(&args.out, report.render()) {
            findings.push(format!("cannot write {}: {e}", args.out));
        } else {
            println!("wrote {}", args.out);
        }
        findings.extend(match &args.check {
            None => report.violations(self.rules),
            Some(path) => match std::fs::read_to_string(path) {
                Ok(baseline) => report.check(self, &baseline),
                Err(e) => vec![format!("cannot read {path}: {e}")],
            },
        });
        for f in &findings {
            eprintln!("FAIL {f}");
        }
        if !findings.is_empty() {
            return ExitCode::FAILURE;
        }
        if let Some(path) = &args.check {
            println!("check: byte-identical to {path}, every rule holds");
        }
        ExitCode::SUCCESS
    }
}

/// An ordered list of `(dotted path, value)` entries.
#[derive(Debug, Clone, Default)]
pub struct Report {
    entries: Vec<(String, Value)>,
    /// `"<section>."` prepended to every key appended from now on.
    prefix: String,
}

impl Report {
    /// Append the following keys under `section.` (keys appended
    /// before the first call are top level).
    pub fn section(&mut self, section: &str) {
        self.prefix = format!("{section}.");
    }

    fn push(&mut self, key: &str, value: Value) {
        self.entries.push((format!("{}{key}", self.prefix), value));
    }

    /// Append a count.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not fit a `u64` (no count here can).
    pub fn count(&mut self, key: &str, v: impl TryInto<u64>) {
        let v = v.try_into().ok().expect("report counts fit u64");
        self.push(key, Value::U64(v));
    }

    /// Append a ratio of counts, rendered with `places` decimals.
    pub fn ratio(&mut self, key: &str, v: f64, places: usize) {
        self.push(key, Value::F64 { v, places });
    }

    /// Append an invariant flag.
    pub fn flag(&mut self, key: &str, v: bool) {
        self.push(key, Value::Bool(v));
    }

    /// Append a label.
    pub fn label(&mut self, key: &str, v: &str) {
        self.push(key, Value::Str(v.to_owned()));
    }

    /// The value at `path`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Value> {
        self.entries.iter().find(|(p, _)| p == path).map(|(_, v)| v)
    }

    /// The entries, in emission order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(p, v)| (p.as_str(), v))
    }

    /// The flat JSON object, one `"path": value` per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (path, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!("  \"{path}\": {value}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Read back what [`Report::render`] wrote.
    ///
    /// # Errors
    ///
    /// Names the first line that is not a `"path": value` entry.
    pub fn parse(text: &str) -> Result<Report, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("not a `{ … }` object")?;
        let mut report = Report::default();
        for line in body.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let entry = line.strip_suffix(',').unwrap_or(line);
            let parsed = entry
                .strip_prefix('"')
                .and_then(|e| e.split_once("\": "))
                .and_then(|(path, raw)| Some((path.to_owned(), Value::parse(raw)?)));
            report
                .entries
                .push(parsed.ok_or_else(|| format!("not a `\"path\": value` line: {line}"))?);
        }
        Ok(report)
    }

    /// Rule-table findings on this report: every flag that is not
    /// `true`, every row of `rules` that does not hold (a missing or
    /// non-numeric operand counts as not holding).
    #[must_use]
    pub fn violations(&self, rules: &[Rule]) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries()
            .filter(|(_, v)| **v == Value::Bool(false))
            .map(|(path, _)| format!("`{path}` is false"))
            .collect();
        let eval = |term: &str| match term.parse() {
            Ok(n) if term.starts_with(|c: char| c.is_ascii_digit()) => (term.to_owned(), Some(n)),
            _ => (format!("`{term}`"), self.get(term).and_then(Value::as_f64)),
        };
        for rule in rules {
            let (left, right) = rule.split_once(" >= ").unwrap_or((rule, ""));
            let ((l, lv), (r, rv)) = (eval(left), eval(right));
            if !lv.zip(rv).is_some_and(|(lv, rv)| lv >= rv) {
                out.push(format!("{l} >= {r} does not hold: {lv:?} vs {rv:?}"));
            }
        }
        out
    }

    /// The whole gate: [`Report::violations`] of the gate's rules plus
    /// byte equality of the rendered text with `baseline`. Empty means
    /// pass.
    #[must_use]
    pub fn check(&self, gate: &Gate, baseline: &str) -> Vec<String> {
        let mut out = self.violations(gate.rules);
        if self.render() == baseline {
            return out;
        }
        let regenerate = format!(
            "regenerate `{}` in this PR (`{}`)",
            gate.baseline, gate.regenerate
        );
        let base = match Report::parse(baseline) {
            Ok(base) => base,
            Err(e) => {
                out.push(format!(
                    "the baseline is not a {} report ({e}) — {regenerate}",
                    gate.bin
                ));
                return out;
            }
        };
        let before = out.len();
        for (path, fresh) in self.entries() {
            match base.get(path) {
                None => out.push(format!("`{path}` is not in the baseline — {regenerate}")),
                Some(b) if b.to_string() != fresh.to_string() => {
                    out.push(format!("`{path}`: baseline {b}, fresh {fresh}"));
                }
                Some(_) => {}
            }
        }
        for (path, _) in base.entries() {
            if self.get(path).is_none() {
                out.push(format!("`{path}` is only in the baseline — {regenerate}"));
            }
        }
        if out.len() == before {
            out.push(format!(
                "same entries, different order or layout — {regenerate}"
            ));
        }
        out
    }

    /// The EXPERIMENTS.md block: every entry as a table row between
    /// the `<marker>:BEGIN` / `<marker>:END` markers.
    #[must_use]
    pub fn experiments_block(&self, marker: &str) -> String {
        let mut out = format!("<!-- {marker}:BEGIN -->\n| key | value |\n|---|---|\n");
        for (path, value) in self.entries() {
            out.push_str(&format!("| `{path}` | {value} |\n"));
        }
        out.push_str(&format!("<!-- {marker}:END -->\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that satisfies every rule of both gates.
    fn passing() -> Report {
        let mut r = Report::default();
        r.label("bench", "fuzzing");
        r.count("execs", 20_000u64);
        r.flag("merge_invariant", true);
        r.ratio("hub.off.coverage_per_exec", 0.00935, 8);
        r.ratio("hub.on.coverage_per_exec", 0.00935, 8);
        r.ratio("workloads.deep_chain.off.coverage_per_exec", 0.0162, 8);
        r.ratio("workloads.deep_chain.on.coverage_per_exec", 0.01625, 8);
        r.ratio("triage.mean_shrink_ratio", 2.13, 4);
        r.ratio("trace.bits_per_exec", 6.7752, 4);
        r.count("durability.replayed_records", 1u64);
        r.ratio("fabric.delta_shrink", 8.349, 3);
        r.count("fabric.expired_leases", 0u64);
        for (path, v) in [
            ("table3.syzkaller.coverage", 2188u64),
            ("table3.syzdescribe.coverage", 2452),
            ("table3.syzdescribe.unique_coverage", 518),
            ("table3.kernelgpt.coverage", 3797),
            ("table3.kernelgpt.unique_coverage", 1653),
            ("table4.found.syzkaller", 0),
            ("table4.found.syzdescribe", 0),
            ("table4.found.kernelgpt", 23),
            ("table5.total.syzkaller.coverage", 1760),
            ("table5.total.syzdescribe.coverage", 2020),
            ("table5.total.kernelgpt.coverage", 2388),
            ("table5.best_incl_ties.syzkaller", 12),
            ("table5.best_incl_ties.syzdescribe", 17),
            ("table5.best_incl_ties.kernelgpt", 23),
            ("table6.total.syzkaller.coverage", 444),
            ("table6.total.kernelgpt.coverage", 728),
            ("ablation_iter.total.iterative.syscalls", 92),
            ("ablation_iter.total.iterative.types", 12),
            ("ablation_iter.total.iterative.coverage", 880),
            ("ablation_iter.total.all_in_one.syscalls", 79),
            ("ablation_iter.total.all_in_one.types", 11),
            ("ablation_iter.total.all_in_one.coverage", 756),
            ("ablation_model.gpt35.syscalls", 61),
            ("ablation_model.gpt35.types", 9),
            ("ablation_model.gpt35.coverage", 556),
            ("ablation_model.gpt4.syscalls", 92),
            ("ablation_model.gpt4.types", 12),
            ("ablation_model.gpt4.coverage", 880),
        ] {
            r.count(path, v);
        }
        r.ratio("ablation_model.gpt4o_over_gpt4_coverage", 870.0 / 880.0, 4);
        r
    }

    fn with(path: &str, value: Value) -> Report {
        let mut r = passing();
        let slot = r.entries.iter_mut().find(|(p, _)| p == path).expect(path);
        slot.1 = value;
        r
    }

    fn args(gate: &Gate, line: &[&str]) -> Result<Args, String> {
        gate.parse_args(line.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn equal_texts_pass_and_the_text_round_trips() {
        let r = passing();
        let text = r.render();
        assert!(text.starts_with("{\n  \"bench\": \"fuzzing\",\n  \"execs\": 20000,\n"));
        assert!(text.ends_with("  \"ablation_model.gpt4o_over_gpt4_coverage\": 0.9886\n}\n"));
        assert!(text.contains("  \"hub.off.coverage_per_exec\": 0.00935000,\n"));
        assert_eq!(r.check(&BENCH, &text), Vec::<String>::new());
        assert_eq!(r.check(&PAPER, &text), Vec::<String>::new());
        assert_eq!(Report::parse(&text).expect("parses").render(), text);
    }

    #[test]
    fn one_changed_value_fails_naming_its_path() {
        let baseline = passing().render();
        let findings = with("execs", Value::U64(20_001)).check(&BENCH, &baseline);
        assert_eq!(findings, ["`execs`: baseline 20000, fresh 20001"]);
    }

    #[test]
    fn a_key_on_one_side_only_yields_the_regenerate_message() {
        for gate in [&BENCH, &PAPER] {
            let regenerate = format!(
                "regenerate `{}` in this PR (`{}`)",
                gate.baseline, gate.regenerate
            );
            let baseline = passing().render();
            let mut grown = passing();
            grown.count("trace.retained", 296u64);
            let findings = grown.check(gate, &baseline);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].starts_with("`trace.retained` is not in the baseline"));
            assert!(findings[0].contains(&regenerate), "{findings:?}");
            // And the other way round: the report shed a key.
            let findings = passing().check(gate, &grown.render());
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].starts_with("`trace.retained` is only in the baseline"));
            assert!(findings[0].contains(&regenerate), "{findings:?}");
        }
        assert!(PAPER.regenerate.starts_with("tables "));
        assert!(BENCH.regenerate.starts_with("fuzz_bench "));
    }

    #[test]
    fn a_false_flag_fails_even_when_the_baseline_is_also_false() {
        let broken = with("merge_invariant", Value::Bool(false));
        assert_eq!(
            broken.check(&BENCH, &broken.render()),
            ["`merge_invariant` is false"]
        );
    }

    #[test]
    fn each_floor_rule_trips() {
        let f = |v, places| Value::F64 { v, places };
        let n = Value::U64;
        for (rules, path, bad) in [
            (BENCH_RULES, "hub.on.coverage_per_exec", f(0.00934, 8)),
            (
                BENCH_RULES,
                "workloads.deep_chain.on.coverage_per_exec",
                f(0.0161, 8),
            ),
            (BENCH_RULES, "triage.mean_shrink_ratio", f(1.99, 4)),
            (BENCH_RULES, "trace.bits_per_exec", f(16.5, 4)),
            (BENCH_RULES, "fabric.delta_shrink", f(4.9, 3)),
            (BENCH_RULES, "fabric.expired_leases", n(1)),
            (BENCH_RULES, "durability.replayed_records", n(0)),
            // A rule whose operand is gone or not a number does not hold.
            (
                BENCH_RULES,
                "triage.mean_shrink_ratio",
                Value::Str("n/a".into()),
            ),
            (PAPER_RULES, "table3.kernelgpt.coverage", n(2400)),
            (PAPER_RULES, "table3.syzkaller.coverage", n(2500)),
            (PAPER_RULES, "table3.syzdescribe.unique_coverage", n(1700)),
            (PAPER_RULES, "table4.found.kernelgpt", n(22)),
            (PAPER_RULES, "table4.found.syzkaller", n(1)),
            (PAPER_RULES, "table4.found.syzdescribe", n(1)),
            (PAPER_RULES, "table5.total.syzkaller.coverage", n(2389)),
            (PAPER_RULES, "table5.total.syzdescribe.coverage", n(2389)),
            (PAPER_RULES, "table5.best_incl_ties.syzkaller", n(24)),
            (PAPER_RULES, "table5.best_incl_ties.syzdescribe", n(24)),
            (PAPER_RULES, "table6.total.kernelgpt.coverage", n(443)),
            (
                PAPER_RULES,
                "ablation_iter.total.all_in_one.syscalls",
                n(93),
            ),
            (PAPER_RULES, "ablation_iter.total.all_in_one.types", n(13)),
            (
                PAPER_RULES,
                "ablation_iter.total.all_in_one.coverage",
                n(881),
            ),
            (PAPER_RULES, "ablation_model.gpt35.syscalls", n(93)),
            (PAPER_RULES, "ablation_model.gpt35.types", n(13)),
            (PAPER_RULES, "ablation_model.gpt35.coverage", n(881)),
            (
                PAPER_RULES,
                "ablation_model.gpt4o_over_gpt4_coverage",
                f(0.97, 4),
            ),
            (
                PAPER_RULES,
                "ablation_model.gpt4o_over_gpt4_coverage",
                f(1.03, 4),
            ),
        ] {
            let findings = with(path, bad).violations(rules);
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert!(findings[0].contains(&format!("`{path}`")), "{findings:?}");
            assert!(findings[0].contains("does not hold"), "{findings:?}");
        }
        for rules in [BENCH_RULES, PAPER_RULES] {
            assert_eq!(passing().violations(rules), Vec::<String>::new());
            assert_eq!(Report::default().violations(rules).len(), rules.len());
        }
        assert_eq!(
            with("trace.bits_per_exec", f(16.5, 4)).violations(BENCH_RULES),
            ["16 >= `trace.bits_per_exec` does not hold: Some(16.0) vs Some(16.5)"]
        );
    }

    #[test]
    fn hostile_baselines_are_findings_not_panics() {
        let r = passing();
        for gate in [&BENCH, &PAPER] {
            for junk in ["", "{", "[1, 2]", "{\n  \"a\": nope\n}\n", "{\n  a: 1\n}\n"] {
                let findings = r.check(gate, junk);
                assert_eq!(findings.len(), 1, "{junk:?}: {findings:?}");
                assert!(
                    findings[0].contains(&format!("not a {} report", gate.bin)),
                    "{findings:?}"
                );
                assert!(findings[0].contains(gate.baseline), "{findings:?}");
            }
        }
        // Same entries, shuffled: still not byte-equal.
        let mut shuffled = passing();
        shuffled.entries.swap(0, 1);
        let findings = r.check(&BENCH, &shuffled.render());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("same entries, different order"));
    }

    #[test]
    fn bad_command_lines_are_usage_errors_not_panics() {
        assert_eq!(
            args(&BENCH, &["--execs", "20000", "--check", "b.json"]),
            Ok(Args {
                execs: 20_000,
                out: "BENCH_fuzzing.json".into(),
                check: Some("b.json".into()),
                experiments: false,
            })
        );
        assert_eq!(args(&BENCH, &[]).map(|a| a.execs), Ok(100_000));
        assert_eq!(
            args(&PAPER, &["--experiments"]).map(|a| (a.execs, a.out, a.experiments)),
            Ok((0, "PAPER_fresh.json".into(), true))
        );
        for (gate, line, error) in [
            (&BENCH, &["--bogus"][..], "unknown argument `--bogus`"),
            (&PAPER, &["table4"], "unknown argument `table4`"),
            (&PAPER, &["--execs", "5"], "unknown argument `--execs`"),
            (&BENCH, &["--out"], "`--out` needs a value"),
            (
                &BENCH,
                &["--experiments", "--check"],
                "`--check` needs a value",
            ),
            (&BENCH, &["--execs"], "`--execs` needs a value"),
            (&BENCH, &["--execs", "many"], "`--execs many`: not a count"),
        ] {
            assert_eq!(args(gate, line), Err(error.to_owned()), "{line:?}");
        }
        assert_eq!(
            PAPER.usage(),
            "usage: tables [--out PATH] [--check BASELINE] [--experiments]"
        );
    }
}
