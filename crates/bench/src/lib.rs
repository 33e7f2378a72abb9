//! # kgpt-bench
//!
//! Experiment harnesses and their two reports, held by one gate
//! ([`report`]): `tables` writes the KernelGPT paper's evaluation
//! (`PAPER_tables.json`; EXPERIMENTS.md sets the paper's own numbers
//! beside it), `fuzz_bench` every campaign route's counts and
//! invariance flags (`BENCH_baseline.json`). [`sampler`] is the
//! workspace's sampling profiler, attached by a function call.

pub mod report;
pub mod sampler;

use kgpt_core::{GenerationReport, KernelGpt, Strategy};
use kgpt_csrc::blueprint::Blueprint;
use kgpt_csrc::KernelCorpus;
use kgpt_extractor::{find_handlers, OpHandler};
use kgpt_fuzzer::{Campaign, CampaignConfig};
use kgpt_llm::{LanguageModel, ModelKind, OracleModel};
use kgpt_syzlang::{SpecDb, SpecFile, Syscall};
use kgpt_vkernel::VKernel;
use std::collections::BTreeSet;

/// Blueprint id for a handler's ops variable (`_dm_fops` → `dm`).
#[must_use]
pub fn bp_id_of_handler(h: &OpHandler) -> String {
    kgpt_llm::oracle::prefix_of_ops_var(&h.ops_var)
}

/// A prepared experiment environment over a corpus.
pub struct Env {
    /// The kernel corpus (blueprints + parsed C + consts).
    pub kc: KernelCorpus,
    /// All discovered operation handlers.
    pub handlers: Vec<OpHandler>,
}

impl Env {
    /// Flagship-only environment (Tables 3–6, ablations).
    #[must_use]
    pub fn flagship() -> Env {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        Env { kc, handlers }
    }

    /// Full-census environment (Table 1/2, Figure 7, §5.1.x).
    #[must_use]
    pub fn full(seed: u64) -> Env {
        let kc = KernelCorpus::full(seed);
        let handlers = find_handlers(kc.corpus());
        Env { kc, handlers }
    }

    /// Handler for a blueprint id.
    #[must_use]
    pub fn handler_for(&self, bp_id: &str) -> Option<&OpHandler> {
        self.handlers.iter().find(|h| bp_id_of_handler(h) == bp_id)
    }

    /// Handlers of loaded blueprints whose existing specs are
    /// incomplete (the generation targets of §5.1).
    #[must_use]
    pub fn incomplete_handlers(&self) -> Vec<OpHandler> {
        self.handlers
            .iter()
            .filter(|h| {
                let id = bp_id_of_handler(h);
                self.kc
                    .blueprint(&id)
                    .is_some_and(|bp| bp.loaded && self.kc.missing_fraction(bp) > 0.0)
            })
            .cloned()
            .collect()
    }

    /// Run KernelGPT with a model over a set of handlers.
    #[must_use]
    pub fn run_kernelgpt(
        &self,
        model: &dyn LanguageModel,
        handlers: &[OpHandler],
        strategy: Strategy,
    ) -> GenerationReport {
        KernelGpt::new(model, self.kc.corpus())
            .with_strategy(strategy)
            .generate_all(handlers, self.kc.consts())
    }

    /// Boot a kernel with every blueprint of the corpus.
    #[must_use]
    pub fn boot_kernel(&self) -> VKernel {
        VKernel::boot(self.kc.blueprints().to_vec())
    }

    /// Mean coverage over repetitions with seeds `0..reps`; all zero
    /// for an empty suite, which has nothing to fuzz.
    #[must_use]
    pub fn campaign_mean(
        &self,
        kernel: &VKernel,
        suite: &[SpecFile],
        execs: u64,
        reps: u64,
    ) -> MeanResult {
        if suite.is_empty() {
            return MeanResult::default();
        }
        let mut mean = MeanResult::default();
        let (mut blocks, mut crashes) = (0, 0);
        for seed in 0..reps {
            let cfg = CampaignConfig {
                execs,
                seed,
                ..CampaignConfig::default()
            };
            let r = Campaign::new(kernel, suite, self.kc.consts(), cfg).run();
            blocks += r.blocks() as u64;
            crashes += r.unique_crashes() as u64;
            mean.crash_titles.extend(r.crashes.keys().cloned());
            mean.union.extend(r.coverage);
        }
        mean.mean_blocks = blocks.checked_div(reps).unwrap_or(0);
        mean.mean_crashes = crashes as f64 / reps.max(1) as f64;
        mean
    }

    /// Every syscall name a suite describes (Tables 5/6 count them).
    /// Compiles through the global [`kgpt_syzlang::SpecCache`], so the
    /// campaign built over the same suite right after reuses the
    /// database.
    #[must_use]
    pub fn suite_syscalls(suite: &[SpecFile]) -> Vec<String> {
        let db = kgpt_syzlang::SpecCache::global().get_or_build(suite);
        db.syscalls().map(Syscall::name).collect()
    }
}

/// Aggregated repetition results.
#[derive(Debug, Clone, Default)]
pub struct MeanResult {
    /// Mean distinct blocks per repetition.
    pub mean_blocks: u64,
    /// Mean unique crash titles per repetition.
    pub mean_crashes: f64,
    /// Union of blocks across repetitions.
    pub union: BTreeSet<u64>,
    /// Union of crash titles.
    pub crash_titles: BTreeSet<String>,
}

/// Build the three Table 3 suites over an environment:
/// (Syzkaller, Syzkaller+SyzDescribe, Syzkaller+KernelGPT).
#[must_use]
pub fn table3_suites(env: &Env) -> (Vec<SpecFile>, Vec<SpecFile>, Vec<SpecFile>) {
    let existing = env.kc.existing_suite();
    // SyzDescribe over all loaded handlers.
    let loaded: Vec<OpHandler> = env
        .handlers
        .iter()
        .filter(|h| {
            env.kc
                .blueprint(&bp_id_of_handler(h))
                .is_some_and(|b| b.loaded)
        })
        .cloned()
        .collect();
    let sd = kgpt_syzdescribe::describe_all(env.kc.corpus(), &loaded, env.kc.consts());
    let mut with_sd = existing.clone();
    with_sd.extend(sd.into_iter().filter(|o| o.valid).filter_map(|o| o.spec));
    // KernelGPT over the incomplete handlers (the paper's setting).
    let model = OracleModel::new(ModelKind::Gpt4, 0);
    let report = env.run_kernelgpt(&model, &env.incomplete_handlers(), Strategy::Iterative);
    let mut with_kgpt = existing.clone();
    with_kgpt.extend(report.specs());
    (existing, with_sd, with_kgpt)
}

/// The Table 5 driver rows in paper order (excluding the two N/A ones).
pub const TABLE5_DRIVERS: &[&str] = &[
    "btrfs_control",
    "capi20",
    "controlc",
    "fuse",
    "hpet",
    "i2c",
    "kvm",
    "loop_control",
    "loopdev",
    "misdntimer",
    "nbd",
    "nvram",
    "ppp",
    "ptmx",
    "qat",
    "rfkill",
    "rtc",
    "sg",
    "snapshot",
    "sr",
    "timer",
    "udmabuf",
    "uinput",
    "usbmon",
    "vhost_net",
    "vhost_vsock",
    "vmci",
    "vsock",
];

/// The Table 6 socket rows.
pub const TABLE6_SOCKETS: &[&str] = &[
    "caif", "l2tp_ip6", "llc", "mptcp", "packet", "phonet", "pppol2tp", "rds", "rfcomm", "sco",
];

/// Sub-handlers that ride along with a Table 5 driver (enabled
/// syscalls and suites include them).
#[must_use]
pub fn companions(id: &str) -> Vec<&'static str> {
    match id {
        "kvm" => vec!["kvm_vm", "kvm_vcpu"],
        _ => vec![],
    }
}

/// Ground-truth-derived "existing Syzkaller" suite for one driver.
#[must_use]
pub fn existing_suite_for(env: &Env, id: &str) -> Vec<SpecFile> {
    let mut out = Vec::new();
    for bid in std::iter::once(id).chain(companions(id)) {
        if let Some(bp) = env.kc.blueprint(bid) {
            if let Some(f) = bp.existing_spec_file() {
                out.push(f);
            }
        }
    }
    out
}

/// The handlers of one driver (+ companions).
#[must_use]
pub fn handlers_for(env: &Env, id: &str) -> Vec<OpHandler> {
    std::iter::once(id)
        .chain(companions(id))
        .filter_map(|bid| env.handler_for(bid).cloned())
        .collect()
}

/// KernelGPT suite for one driver (+ companions).
#[must_use]
pub fn kgpt_suite_for(env: &Env, model: &dyn LanguageModel, id: &str) -> Vec<SpecFile> {
    env.run_kernelgpt(model, &handlers_for(env, id), Strategy::Iterative)
        .specs()
}

/// SyzDescribe suite for one driver (+ companions).
#[must_use]
pub fn syzdescribe_suite_for(env: &Env, id: &str) -> Vec<SpecFile> {
    let handlers = handlers_for(env, id);
    kgpt_syzdescribe::describe_all(env.kc.corpus(), &handlers, env.kc.consts())
        .into_iter()
        .filter_map(|o| o.spec)
        .collect()
}

/// Spec-vs-ground-truth accounting for §5.1.3.
#[derive(Debug, Clone, Default)]
pub struct CorrectnessStats {
    /// Drivers examined.
    pub drivers: usize,
    /// Drivers with at least one missing syscall.
    pub drivers_with_missing: usize,
    /// Total ground-truth syscalls examined.
    pub total_syscalls: usize,
    /// Ground-truth syscalls absent from the generated spec.
    pub missing_syscalls: usize,
    /// Generated commands whose identifier value disagrees with truth.
    pub wrong_identifiers: usize,
    /// Generated struct types whose byte layout disagrees with truth.
    pub wrong_types: usize,
}

/// Compare generated specs against blueprint ground truth.
#[must_use]
pub fn correctness(env: &Env, bp_ids: &[String], report: &GenerationReport) -> CorrectnessStats {
    let mut stats = CorrectnessStats::default();
    for id in bp_ids {
        let Some(bp) = env.kc.blueprint(id) else {
            continue;
        };
        let Some(outcome) = report
            .outcomes
            .iter()
            .find(|o| kgpt_llm::oracle::prefix_of_ops_var(&o.ops_var) == *id)
        else {
            continue;
        };
        stats.drivers += 1;
        let truth = bp.ground_truth_spec();
        let truth_db = SpecDb::from_files(vec![truth]);
        let gen_db = SpecDb::from_files(outcome.spec.clone().into_iter().collect());
        let mut missing_here = 0usize;
        for cmd in &bp.cmds {
            stats.total_syscalls += 1;
            let truth_value = bp.cmd_value(cmd);
            // Find a generated ioctl/setsockopt whose cmd const resolves
            // to the same value.
            let mut found = false;
            let mut value_ok = false;
            for s in gen_db.syscalls() {
                if s.base != "ioctl" && s.base != "setsockopt" {
                    continue;
                }
                let Some(cparam) = s.params.iter().find(|p| p.name == "cmd" || p.name == "opt")
                else {
                    continue;
                };
                if let kgpt_syzlang::Type::Const { value, .. } = &cparam.ty {
                    let name_matches = value.as_sym() == Some(cmd.name.as_str());
                    if name_matches {
                        found = true;
                        value_ok = env
                            .kc
                            .consts()
                            .resolve(value)
                            .is_some_and(|v| v == truth_value);
                        break;
                    }
                }
            }
            if !found {
                stats.missing_syscalls += 1;
                missing_here += 1;
            } else if !value_ok {
                stats.wrong_identifiers += 1;
            }
        }
        if missing_here > 0 {
            stats.drivers_with_missing += 1;
        }
        // Type layout comparison.
        for truth_struct in truth_db.structs() {
            let Some(gen_struct) = gen_db.struct_def(&truth_struct.name) else {
                continue;
            };
            let t = kgpt_syzlang::layout::struct_layout(truth_struct, &truth_db);
            let g = kgpt_syzlang::layout::struct_layout(gen_struct, &gen_db);
            if let (Ok(t), Ok(g)) = (t, g) {
                if t.size != g.size {
                    stats.wrong_types += 1;
                }
            }
        }
    }
    stats
}

/// Which Table 4 bugs exist, per blueprint.
#[must_use]
pub fn all_bugs(env: &Env) -> Vec<(String, String, Option<String>)> {
    let mut out = Vec::new();
    for bp in env.kc.blueprints() {
        for b in &bp.bugs {
            out.push((bp.id.clone(), b.title.clone(), b.cve.clone()));
        }
    }
    out
}

/// Convenience: blueprint list by ids (with companions), for booting
/// single-driver kernels.
#[must_use]
pub fn blueprints_for(env: &Env, id: &str) -> Vec<Blueprint> {
    std::iter::once(id)
        .chain(companions(id))
        .filter_map(|bid| env.kc.blueprint(bid).cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_and_suites_build() {
        let env = Env::flagship();
        assert_eq!(env.handlers.len(), env.kc.blueprints().len());
        let suite = existing_suite_for(&env, "sg");
        assert_eq!(suite.len(), 1);
        assert!(env.handler_for("dm").is_some());
        assert!(!Env::suite_syscalls(&suite).is_empty());
    }

    #[test]
    fn table5_ids_resolve() {
        let env = Env::flagship();
        for id in TABLE5_DRIVERS {
            assert!(env.kc.blueprint(id).is_some(), "missing blueprint {id}");
            assert!(env.handler_for(id).is_some(), "missing handler {id}");
        }
        for id in TABLE6_SOCKETS {
            assert!(env.kc.blueprint(id).is_some(), "missing blueprint {id}");
        }
    }

    #[test]
    fn bug_inventory_is_complete() {
        let env = Env::flagship();
        assert_eq!(all_bugs(&env).len(), 24);
    }
}
