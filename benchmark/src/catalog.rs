//! The benchmark's fixed vocabulary: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository
//! root and the tables in `README.md` repeat this catalogue; unit
//! tests hold the three together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dm_seq",
        why: "sequential dm campaigns: generation and encoding dominate, no boundary, trace or checkpoint work",
    },
    Workload {
        name: "deepchain_sharded",
        why: "8-shard deep-chain campaigns with cheap execs: dispatch, corpus, hub and triage boundaries dominate; trace and checkpoint are bypassed",
    },
    Workload {
        name: "deepchain_durable",
        why: "the same campaigns with the trace ring and a checkpoint at every boundary: the write side of the always-on layers",
    },
    Workload {
        name: "fabric_chan",
        why: "the same campaigns through coordinator and one worker over channels: delta codec, framing, transport and merge on the blocking path",
    },
    Workload {
        name: "specgen_flagship",
        why: "the paper's pipeline over the 48 flagship handlers: extractor, oracle LLM, assembly, validation; touches no fuzzer code",
    },
    Workload {
        name: "recover_replay",
        why: "the read side of what deepchain_durable writes: checkpoint resume, trace-file replay and reproducer minimization, with no generation",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// In the order the untraced pass computes them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "yield_units",
        unit: "count",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or size fixed by `--seed` alone: two runs of one seed
    /// must print the same value, and `--selfcheck` compares it
    /// exactly instead of within a bound.
    pub exact: bool,
    /// The end-to-end metric this layer metric should move, and on
    /// which workloads (written down before measuring).
    pub moves: &'static str,
}

const fn timed(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn counted(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

const SETUP_ALL: &str = "setup_s on every workload";
const SPECGEN: &str = "work_per_s on specgen_flagship";
const DM_GEN: &str = "work_per_s on dm_seq (most of the round); none on recover_replay";
const EXEC: &str = "work_per_s on deepchain_sharded and recover_replay; small on dm_seq";
const BOUNDARY: &str = "work_per_s on deepchain_sharded (boundary share)";
const DURABLE: &str = "work_per_s on deepchain_durable";
const RECOVER: &str = "work_per_s on recover_replay";
const FABRIC: &str = "work_per_s on fabric_chan";
const GUARD: &str = "none expected (guard)";

pub const PER_LAYER: &[PerLayer] = &[
    timed("syzlang.parse_us_per_spec", "us", SETUP_ALL),
    timed("syzlang.compile_us", "us", SETUP_ALL),
    timed("syzlang.lower_us", "us", SETUP_ALL),
    timed("syzlang.validate_us", "us", "setup_s; work_per_s on specgen_flagship"),
    timed("syzlang.cache_warm_ns", "ns", GUARD),
    timed("syzlang.prog_encode_ns", "ns", "work_per_s on deepchain_durable and fabric_chan"),
    timed("syzlang.prog_decode_ns", "ns", RECOVER),
    timed("csrc.corpus_build_ms", "ms", SETUP_ALL),
    timed("extractor.find_handlers_ms", "ms", "setup_s on specgen_flagship"),
    counted("extractor.handlers", "count", Better::Higher, "setup_s on specgen_flagship"),
    timed("llm.ns_per_request", "ns", SPECGEN),
    counted("llm.requests_per_handler", "count", Better::Lower, SPECGEN),
    counted("llm.prompt_tokens_per_handler", "count", Better::Lower, SPECGEN),
    timed("core.ns_per_handler", "ns", SPECGEN),
    timed("core.self_ns_per_handler", "ns", SPECGEN),
    counted("core.repair_rounds_per_handler", "count", Better::Lower, SPECGEN),
    counted("core.repaired_ratio", "ratio", Better::Higher, SPECGEN),
    timed("core.merge_validate_ms", "ms", SPECGEN),
    timed("vkernel.boot_ms", "ms", "setup_s on the five fuzzing workloads"),
    timed("gen.ns_per_prog", "ns", DM_GEN),
    timed("gen.mutate_ns_per_prog", "ns", DM_GEN),
    counted("gen.calls_per_prog", "count", Better::Higher, DM_GEN),
    timed("exec.ns_per_prog", "ns", EXEC),
    timed("exec.ns_per_call", "ns", EXEC),
    timed("exec.ns_per_block", "ns", EXEC),
    counted("exec.blocks_per_prog", "count", Better::Higher, EXEC),
    timed("corpus.observe_ns", "ns", BOUNDARY),
    timed("corpus.select_ns", "ns", BOUNDARY),
    counted("corpus.admit_ratio", "ratio", Better::Higher, BOUNDARY),
    counted("corpus.evictions", "count", Better::Lower, BOUNDARY),
    timed("hub.publish_us", "us", "work_per_s on deepchain_sharded; absent on dm_seq"),
    timed("hub.import_us", "us", "work_per_s on deepchain_sharded; absent on dm_seq"),
    counted("hub.import_accept_ratio", "ratio", Better::Higher, BOUNDARY),
    timed("shard.sharding_overhead_pct", "%", "work_per_s on deepchain_sharded"),
    PerLayer {
        name: "shard.speedup_2t",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
        moves: "never gated; 0 when fewer than two cores are available",
    },
    timed("triage.ns_per_probe", "ns", "work_per_s on recover_replay; boundary share on deepchain_sharded"),
    counted("triage.probes_per_signature", "count", Better::Lower, RECOVER),
    counted("triage.shrink_ratio", "ratio", Better::Higher, RECOVER),
    counted("checkpoint.bytes", "B", Better::Lower, DURABLE),
    timed("checkpoint.encode_ms", "ms", DURABLE),
    timed("checkpoint.save_ms", "ms", DURABLE),
    timed("checkpoint.load_ms", "ms", "work_per_s and setup_s on recover_replay"),
    timed("checkpoint.decode_ms", "ms", "work_per_s and setup_s on recover_replay"),
    timed("checkpoint.overhead_pct", "%", DURABLE),
    timed("trace.encode_ns_per_block", "ns", DURABLE),
    counted("trace.bits_per_block", "bit", Better::Lower, "work_per_s and peak_rss_mb on deepchain_durable"),
    counted("trace.bits_per_exec", "bit", Better::Lower, "work_per_s and peak_rss_mb on deepchain_durable"),
    counted("trace.retained_ratio", "ratio", Better::Higher, DURABLE),
    counted("trace.store_bytes", "B", Better::Lower, "peak_rss_mb on deepchain_durable"),
    timed("flight.capture_overhead_pct", "%", DURABLE),
    timed("trace.decode_ns_per_block", "ns", RECOVER),
    timed("flight.replay_us_per_trace", "us", RECOVER),
    timed("fabric.diff_us_per_boundary", "us", FABRIC),
    timed("fabric.apply_us_per_boundary", "us", FABRIC),
    timed("fabric.merge_ms_per_boundary", "ms", FABRIC),
    timed("fabric.lease_epoch_ms", "ms", FABRIC),
    counted("fabric.delta_bytes_per_boundary", "B", Better::Lower, FABRIC),
    timed("wire.frame_encode_ns_per_kb", "ns", FABRIC),
    timed("wire.frame_decode_ns_per_kb", "ns", FABRIC),
    timed("transport.chan_rtt_us", "us", FABRIC),
    timed("transport.tcp_rtt_us", "us", "none here (loopback probe only)"),
    counted("coordinator.redelivered_frames", "count", Better::Lower, "0 on a clean run"),
    counted("coordinator.rejected_frames", "count", Better::Lower, "0 on a clean run"),
    counted("coordinator.expired_leases", "count", Better::Lower, "0 on a clean run"),
    timed("coordinator.wire_overhead_pct", "%", FABRIC),
    timed("layers.modelled_ns_per_exec", "ns", "the sum of the layer shares; compare with 1e9 / work_per_s"),
    timed("layers.unattributed_pct", "%", "the share of a round no probe explains"),
    timed("probe.overhead_pct", "%", GUARD),
    PerLayer {
        name: "box.speed",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
        moves: "none: the box's speed during the pass as a multiple of nominal; probe timings are as timed, not scaled by it",
    },
    counted("result.blocks", "count", Better::Higher, "exact guard: a faster campaign must cover the same blocks"),
    counted("result.blocks_early", "count", Better::Higher, "exact guard: convergence after a tenth of the budget"),
    counted("result.unique_crashes", "count", Better::Higher, "exact guard"),
    counted("result.triage_signatures", "count", Better::Higher, "exact guard"),
    counted("result.valid_specs_pct", "%", Better::Higher, "exact guard on specgen_flagship"),
    counted("result.syscalls_described", "count", Better::Higher, "exact guard on specgen_flagship"),
    counted("result.io_bytes_per_kexec", "B", Better::Lower, "checkpoint bytes (deepchain_durable) or delta bytes (fabric_chan) per 1000 execs"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// How the driver starts the benchmark (it appends `--workload`,
    /// `--seed`, `--seconds` and `--trace`), and the directories that are
    /// the benchmark's own.
    const COMMAND: &[&str] = &[
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    const PATHS: &[&str] = &["benchmark"];

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        for bad in ["", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!name_ok(bad), "{bad:?}");
        }
        assert!(name_ok("9.a-b_c"));
        assert!(!unit_ok("a b") && !unit_ok(&"x".repeat(17)) && unit_ok("1/s"));
    }

    /// `BENCHMARK.json` as this catalogue spells it, one entry a line.
    fn benchmark_json() -> String {
        let strs =
            |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
        let lines = |items: Vec<Json>| {
            let body: Vec<String> = items
                .iter()
                .map(|j| format!("    {}", j.encode()))
                .collect();
            format!("[\n{}\n  ]", body.join(",\n"))
        };
        let named = |name: &str, unit: &str, better: Better| {
            vec![
                ("name", Json::Str(name.into())),
                ("unit", Json::Str(unit.into())),
                ("better", Json::Str(better.as_str().into())),
            ]
        };
        let workloads = WORKLOADS.iter().map(|w| {
            Json::obj([
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
        });
        let end_to_end = END_TO_END.iter().map(|m| {
            let mut fields = named(m.name, m.unit, m.better);
            fields.push(("bound", Json::Num(m.bound)));
            Json::obj(fields)
        });
        let per_layer = PER_LAYER
            .iter()
            .map(|m| Json::obj(named(m.name, m.unit, m.better)));
        format!(
            "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            strs(COMMAND).encode(),
            strs(PATHS).encode(),
            crate::RUN_SECONDS,
            lines(workloads.collect()),
            lines(end_to_end.collect()),
            lines(per_layer.collect()),
        )
    }

    /// `BENCHMARK.json` is what the driver reads; it must say exactly
    /// what this catalogue says. On a mismatch the expected file is in
    /// the failure message, ready to be written out.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let expected = benchmark_json();
        assert!(expected.len() <= 64 << 10);
        assert!(Json::parse(&expected).is_ok());
        assert!(
            include_str!("../../BENCHMARK.json") == expected,
            "BENCHMARK.json should read:\n{expected}"
        );
    }

    /// The README's tables must name every workload and metric.
    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
    }
}
