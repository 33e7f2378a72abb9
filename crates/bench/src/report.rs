//! The `fuzz_bench` report: an ordered list of `(dotted path, value)`
//! entries rendered as one flat JSON object, one key per line.
//!
//! Every value is a count, a flag, a label or a ratio of counts — no
//! clock is read anywhere — so the rendered text is a pure function of
//! `--execs` and byte-identical on any machine. That makes the CI gate
//! two checks and nothing else ([`Report::check`]):
//!
//! * **byte equality** with the committed `BENCH_baseline.json`; on a
//!   mismatch the findings name every path whose value moved, and a
//!   path present on one side only carries the action ("regenerate
//!   `BENCH_baseline.json` in this PR");
//! * **the rule table** ([`RULES`], plus "every flag is `true`"),
//!   evaluated on the fresh values — so a flag that is `false` fails
//!   even when someone committed a baseline that says `false` too.
//!
//! Throughput, overhead ratios and latencies are not here: the frozen
//! `benchmark/` package owns them (`work_per_s` on its six workloads,
//! `checkpoint.overhead_pct`, `flight.capture_overhead_pct`,
//! `shard.speedup_2t`, … in its probe pass).

use std::fmt;

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

/// One side of a rule: the value at a report path, or a constant.
#[derive(Debug, Clone, Copy)]
pub enum Term {
    /// The numeric value at this path of the report under test.
    Path(&'static str),
    /// A constant.
    Num(f64),
}

/// The floor rules, each `left >= right`, evaluated on the fresh run.
/// (The remaining rule — every [`Value::Bool`] in the report is
/// `true` — needs no table: a new flag is gated the moment it is
/// emitted.)
pub const RULES: &[(Term, Term)] = &[
    // The seed hub exists to lift per-exec coverage yield; exchange-on
    // below exchange-off is a regression on either suite.
    (
        Term::Path("hub.on.coverage_per_exec"),
        Term::Path("hub.off.coverage_per_exec"),
    ),
    (
        Term::Path("workloads.deep_chain.on.coverage_per_exec"),
        Term::Path("workloads.deep_chain.off.coverage_per_exec"),
    ),
    // Minimization that fails to halve reproducers on the deep-chain
    // workload is a behaviour regression.
    (Term::Path("triage.mean_shrink_ratio"), Term::Num(2.0)),
    // Retained trace bits amortized over all campaign execs; above
    // this the codec or the retention policy degenerated.
    (Term::Num(16.0), Term::Path("trace.bits_per_exec")),
    // Incremental frames that cost as much as full ones mean the diff
    // codec degenerated.
    (Term::Path("fabric.delta_shrink"), Term::Num(5.0)),
    // No worker may outlive its lease in a clean in-memory run.
    (Term::Num(0.0), Term::Path("fabric.expired_leases")),
    // The resume the durability section performs must come through a
    // journal record, not a base alone.
    (Term::Path("durability.replayed_records"), Term::Num(1.0)),
];

const REGENERATE: &str = "regenerate `BENCH_baseline.json` in this PR \
     (`fuzz_bench --execs 20000 --out BENCH_baseline.json`)";

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
    /// `true`, every [`RULES`] row that does not hold (a missing or
    /// non-numeric operand counts as not holding).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries()
            .filter(|(_, v)| **v == Value::Bool(false))
            .map(|(path, _)| format!("`{path}` is false"))
            .collect();
        let eval = |term: Term| match term {
            Term::Num(n) => (n.to_string(), Some(n)),
            Term::Path(p) => (format!("`{p}`"), self.get(p).and_then(Value::as_f64)),
        };
        for &(left, right) in RULES {
            let ((l, lv), (r, rv)) = (eval(left), eval(right));
            if !lv.zip(rv).is_some_and(|(lv, rv)| lv >= rv) {
                out.push(format!("{l} >= {r} does not hold: {lv:?} vs {rv:?}"));
            }
        }
        out
    }

    /// The whole gate: [`Report::violations`] plus byte equality of
    /// the rendered text with `baseline`. Empty means pass.
    #[must_use]
    pub fn check(&self, baseline: &str) -> Vec<String> {
        let mut out = self.violations();
        if self.render() == baseline {
            return out;
        }
        let base = match Report::parse(baseline) {
            Ok(base) => base,
            Err(e) => {
                out.push(format!(
                    "the baseline is not a fuzz_bench report ({e}) — {REGENERATE}"
                ));
                return out;
            }
        };
        let before = out.len();
        for (path, fresh) in self.entries() {
            match base.get(path) {
                None => out.push(format!("`{path}` is not in the baseline — {REGENERATE}")),
                Some(b) if b.to_string() != fresh.to_string() => {
                    out.push(format!("`{path}`: baseline {b}, fresh {fresh}"));
                }
                Some(_) => {}
            }
        }
        for (path, _) in base.entries() {
            if self.get(path).is_none() {
                out.push(format!("`{path}` is only in the baseline — {REGENERATE}"));
            }
        }
        if out.len() == before {
            out.push(format!(
                "same entries, different order or layout — {REGENERATE}"
            ));
        }
        out
    }

    /// The EXPERIMENTS.md block: every entry as a table row between
    /// the `BENCH:BEGIN` / `BENCH:END` markers.
    #[must_use]
    pub fn experiments_block(&self) -> String {
        let mut out = String::from("<!-- BENCH:BEGIN -->\n| key | value |\n|---|---|\n");
        for (path, value) in self.entries() {
            out.push_str(&format!("| `{path}` | {value} |\n"));
        }
        out.push_str("<!-- BENCH:END -->\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that satisfies every rule.
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
        r
    }

    fn with(path: &str, value: Value) -> Report {
        let mut r = passing();
        let slot = r.entries.iter_mut().find(|(p, _)| p == path).expect(path);
        slot.1 = value;
        r
    }

    #[test]
    fn equal_texts_pass_and_the_text_round_trips() {
        let r = passing();
        let text = r.render();
        assert!(text.starts_with("{\n  \"bench\": \"fuzzing\",\n  \"execs\": 20000,\n"));
        assert!(text.ends_with("  \"fabric.expired_leases\": 0\n}\n"));
        assert!(text.contains("  \"hub.off.coverage_per_exec\": 0.00935000,\n"));
        assert_eq!(r.check(&text), Vec::<String>::new());
        assert_eq!(Report::parse(&text).expect("parses").render(), text);
    }

    #[test]
    fn one_changed_value_fails_naming_its_path() {
        let baseline = passing().render();
        let findings = with("execs", Value::U64(20_001)).check(&baseline);
        assert_eq!(findings, ["`execs`: baseline 20000, fresh 20001"]);
    }

    #[test]
    fn a_key_on_one_side_only_yields_the_regenerate_message() {
        let baseline = passing().render();
        let mut grown = passing();
        grown.count("trace.retained", 296u64);
        let findings = grown.check(&baseline);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("`trace.retained` is not in the baseline"));
        assert!(findings[0].contains("regenerate `BENCH_baseline.json` in this PR"));
        // And the other way round: the bench shed a key.
        let findings = passing().check(&grown.render());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("`trace.retained` is only in the baseline"));
        assert!(findings[0].contains("regenerate `BENCH_baseline.json` in this PR"));
    }

    #[test]
    fn a_false_flag_fails_even_when_the_baseline_is_also_false() {
        let broken = with("merge_invariant", Value::Bool(false));
        assert_eq!(
            broken.check(&broken.render()),
            ["`merge_invariant` is false"]
        );
    }

    #[test]
    fn each_floor_rule_trips() {
        let f = |v, places| Value::F64 { v, places };
        for (path, bad) in [
            ("hub.on.coverage_per_exec", f(0.00934, 8)),
            ("workloads.deep_chain.on.coverage_per_exec", f(0.0161, 8)),
            ("triage.mean_shrink_ratio", f(1.99, 4)),
            ("trace.bits_per_exec", f(16.5, 4)),
            ("fabric.delta_shrink", f(4.9, 3)),
            ("fabric.expired_leases", Value::U64(1)),
            ("durability.replayed_records", Value::U64(0)),
            // A rule whose operand is gone or not a number does not hold.
            ("triage.mean_shrink_ratio", Value::Str("n/a".into())),
        ] {
            let findings = with(path, bad).violations();
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert!(findings[0].contains(&format!("`{path}`")), "{findings:?}");
            assert!(findings[0].contains("does not hold"), "{findings:?}");
        }
        assert_eq!(passing().violations(), Vec::<String>::new());
        assert_eq!(Report::default().violations().len(), RULES.len());
        assert_eq!(
            with("trace.bits_per_exec", f(16.5, 4)).violations(),
            ["16 >= `trace.bits_per_exec` does not hold: Some(16.0) vs Some(16.5)"]
        );
    }

    #[test]
    fn hostile_baselines_are_findings_not_panics() {
        let r = passing();
        for junk in ["", "{", "[1, 2]", "{\n  \"a\": nope\n}\n", "{\n  a: 1\n}\n"] {
            let findings = r.check(junk);
            assert_eq!(findings.len(), 1, "{junk:?}: {findings:?}");
            assert!(findings[0].contains("not a fuzz_bench report"));
        }
        // Same entries, shuffled: still not byte-equal.
        let mut shuffled = passing();
        shuffled.entries.swap(0, 1);
        let findings = r.check(&shuffled.render());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("same entries, different order"));
    }
}
