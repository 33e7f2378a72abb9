//! The KernelGPT pipeline: Algorithm 1 + staged analyses + repair.

use crate::assemble::assemble_spec;
use kgpt_csrc::ast::{CFile, CItemKind};
use kgpt_csrc::Corpus;
use kgpt_extractor::{extract_code, HandlerKind, OpHandler};
use kgpt_llm::oracle::prefix_of_ops_var;
use kgpt_llm::protocol::{ArgSig, Fact, PromptRef, Task};
use kgpt_llm::{ChatRequest, LanguageModel};
use kgpt_syzlang::stage::{self, Stage};
use kgpt_syzlang::{ConstDb, SpecCache, SpecFile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Iteration cap of Algorithm 1 (paper default: 5).
pub const MAX_ITER: usize = 5;

/// Generation strategy — iterative multi-stage (the contribution) or
/// all-in-one (the §5.2.3 ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Three staged analyses, each iterating on UNKNOWN targets.
    Iterative,
    /// Everything in one prompt, one completion.
    AllInOne,
}

/// Outcome of generating a spec for one handler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandlerOutcome {
    /// The ops-variable name of the handler.
    pub ops_var: String,
    /// Driver or socket.
    pub kind: HandlerKind,
    /// The assembled spec, if any.
    pub spec: Option<SpecFile>,
    /// LLM round-trips used.
    pub queries: usize,
    /// Algorithm 1 iterations used in the identifier stage.
    pub iterations: usize,
    /// Whether a repair round was needed **and** fixed the spec.
    pub repaired: bool,
    /// Whether the final spec validates (in the merged suite).
    pub valid: bool,
    /// Validation errors remaining (empty when valid).
    pub errors: Vec<String>,
}

impl HandlerOutcome {
    /// Number of syscalls described.
    #[must_use]
    pub fn syscall_count(&self) -> usize {
        self.spec.as_ref().map_or(0, |s| s.syscalls().count())
    }

    /// Number of struct/union types described.
    #[must_use]
    pub fn type_count(&self) -> usize {
        self.spec.as_ref().map_or(0, |s| s.structs().count())
    }
}

/// A full generation run over many handlers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationReport {
    /// Per-handler outcomes, in input order.
    pub outcomes: Vec<HandlerOutcome>,
}

impl GenerationReport {
    /// All valid spec files.
    #[must_use]
    pub fn specs(&self) -> Vec<SpecFile> {
        self.outcomes
            .iter()
            .filter(|o| o.valid)
            .filter_map(|o| o.spec.clone())
            .collect()
    }

    /// Count of valid handlers (Table 1 "# Valid").
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.valid).count()
    }

    /// Count of valid handlers that needed the repair round
    /// (Table 1's parenthesised "Fixed").
    #[must_use]
    pub fn repaired_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.valid && o.repaired)
            .count()
    }

    /// Total syscalls described by valid specs (Table 2).
    #[must_use]
    pub fn total_syscalls(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.valid)
            .map(HandlerOutcome::syscall_count)
            .sum()
    }

    /// Total types described by valid specs (Table 2).
    #[must_use]
    pub fn total_types(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.valid)
            .map(HandlerOutcome::type_count)
            .sum()
    }
}

/// The KernelGPT engine.
pub struct KernelGpt<'a> {
    model: &'a dyn LanguageModel,
    corpus: &'a Corpus,
    strategy: Strategy,
    max_iter: usize,
    /// Worker threads for `generate_all` (0 = one per available CPU).
    threads: usize,
}

/// Compile-time proof that an engine can be shared by reference
/// across generation worker threads ([`LanguageModel`] is `Sync`, the
/// corpus is immutable).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<KernelGpt<'_>>();
};

impl<'a> KernelGpt<'a> {
    /// Create an engine over a source corpus with a model.
    #[must_use]
    pub fn new(model: &'a dyn LanguageModel, corpus: &'a Corpus) -> KernelGpt<'a> {
        KernelGpt {
            model,
            corpus,
            strategy: Strategy::Iterative,
            max_iter: MAX_ITER,
            threads: 0,
        }
    }

    /// Switch strategy (ablation).
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> KernelGpt<'a> {
        self.strategy = strategy;
        self
    }

    /// Override the iteration cap.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> KernelGpt<'a> {
        self.max_iter = max_iter;
        self
    }

    /// Set the worker thread count for [`KernelGpt::generate_all`]
    /// (0 = one per available CPU). Pure throughput knob: every
    /// handler's outcome is a deterministic function of the handler
    /// alone and results are merged in handler order, so the report
    /// is bit-identical at any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> KernelGpt<'a> {
        self.threads = threads;
        self
    }

    /// Generate specs for a set of handlers, validate the merged suite,
    /// and repair invalid ones once.
    ///
    /// Handlers are partitioned into logical shards (one per handler)
    /// executed by the configured worker threads; the model and corpus
    /// are shared by reference. Mirrors `ShardedCampaign` in
    /// `kgpt-fuzzer`: the thread count never changes the report.
    pub fn generate_all(&self, handlers: &[OpHandler], consts: &ConstDb) -> GenerationReport {
        let mut outcomes: Vec<HandlerOutcome> =
            self.run_indexed(handlers.len(), |i| self.generate_one(&handlers[i], 0));
        // Merged validation (sub-handler fds are produced cross-file).
        self.validate_merged(&mut outcomes, consts);
        // Repair round for invalid handlers that did produce something.
        let to_repair: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.valid && o.spec.is_some())
            .map(|(i, _)| i)
            .collect();
        let repairs: Vec<Option<HandlerOutcome>> = self.run_indexed(to_repair.len(), |k| {
            let idx = to_repair[k];
            self.repair_one(&handlers[idx], &outcomes[idx].errors)
        });
        for (idx, new) in to_repair.into_iter().zip(repairs) {
            if let Some(new) = new {
                let queries = outcomes[idx].queries + new.queries;
                outcomes[idx] = HandlerOutcome {
                    queries,
                    repaired: true,
                    ..new
                };
            }
        }
        self.validate_merged(&mut outcomes, consts);
        // A handler that was valid on the first pass keeps repaired=false;
        // one that became valid after the repair pass keeps repaired=true.
        GenerationReport { outcomes }
    }

    /// Run `f` over indices `0..n` on the configured worker threads
    /// and return the results in index order. Each index is one
    /// logical shard pulled from a shared atomic counter and handed
    /// back with its result, so the merge is deterministic regardless
    /// of which thread computed what. A panic in `f` is re-raised here.
    fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .clamp(1, n.max(1));
        if threads <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break done;
                }
                done.push((i, f(i)));
            }
        };
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            let joined = workers.into_iter().flat_map(|w| match w.join() {
                Ok(done) => done,
                Err(panic) => std::panic::resume_unwind(panic),
            });
            joined.collect()
        });
        // Every index below `n` was handed out exactly once.
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    fn validate_merged(&self, outcomes: &mut [HandlerOutcome], consts: &ConstDb) {
        let _span = stage::span(Stage::MergedValidation);
        // Cached compile over the specs where they lie: when the repair
        // round changed nothing (the common case), the post-repair
        // validation is a pure hit, and a hit copies nothing.
        let specs = outcomes.iter().filter_map(|o| o.spec.as_ref());
        let db = SpecCache::global().get_or_build(specs);
        let errors = kgpt_syzlang::validate::validate(&db, consts);
        for o in outcomes.iter_mut() {
            let Some(spec) = &o.spec else {
                o.valid = false;
                continue;
            };
            let mut own_errors: Vec<String> = errors
                .iter()
                .filter(|e| spec.defines(&e.item))
                .map(ToString::to_string)
                .collect();
            // A description that recovered no commands at all (deep
            // runtime dispatch) is not a usable spec, even if the
            // producer line alone validates.
            let cmds = spec
                .syscalls()
                .filter(|s| s.base == "ioctl" || s.base == "setsockopt")
                .count();
            if cmds == 0 {
                own_errors.push(format!(
                    "in `{}`: no commands could be recovered",
                    o.ops_var
                ));
            }
            o.valid = own_errors.is_empty();
            o.errors = own_errors;
        }
    }

    /// Generate a spec for one handler (no merged validation).
    #[must_use]
    pub fn generate_one(&self, handler: &OpHandler, attempt: u32) -> HandlerOutcome {
        match self.strategy {
            Strategy::Iterative => self.generate_iterative(handler, attempt),
            Strategy::AllInOne => self.generate_all_in_one(handler, attempt),
        }
    }

    fn repair_one(&self, handler: &OpHandler, errors: &[String]) -> Option<HandlerOutcome> {
        // §3.2: re-consult the LLM with the error messages. The oracle
        // redoes its analysis without the first-pass defect; a real LLM
        // fixes the lines the validator complained about. The repair
        // round uses the same strategy as generation (the all-in-one
        // ablation must not be silently upgraded to iterative).
        let mut o = match self.strategy {
            Strategy::Iterative => self.generate_with_task_errors(handler, 1, errors),
            Strategy::AllInOne => self.generate_all_in_one(handler, 1),
        };
        o.repaired = true;
        Some(o)
    }

    fn generate_iterative(&self, handler: &OpHandler, attempt: u32) -> HandlerOutcome {
        self.generate_with_task_errors(handler, attempt, &[])
    }

    fn generate_with_task_errors<'s>(
        &'s self,
        handler: &'s OpHandler,
        attempt: u32,
        errors: &[String],
    ) -> HandlerOutcome {
        let mut queries = 0usize;
        let mut facts: Vec<Fact> = Vec::new();
        let mut sources = Sources::default();
        let (target, entry) = self.entry_point(handler);
        sources.extend(entry);
        let usage = self.usage_sources(handler);
        // What every prompt of this handler says besides its stage.
        let base = PromptRef {
            handler_var: Some(&handler.ops_var),
            errors,
            ..PromptRef::default()
        };

        // ---- Stage 1: identifier deduction (Algorithm 1) ----
        let mut iterations = 0usize;
        let mut fetched: BTreeSet<String> = BTreeSet::new();
        for _ in 0..self.max_iter {
            iterations += 1;
            let prompt = PromptRef {
                task: Some(if errors.is_empty() {
                    Task::Identifier
                } else {
                    Task::Repair
                }),
                target_func: target,
                source: &sources.texts,
                usage: &usage,
                known: &facts,
                ..base
            };
            let resp = self.chat(&prompt, attempt);
            queries += 1;
            let new_facts = kgpt_llm::protocol::parse_facts(&resp);
            let unknowns = self.fetch_unknowns(&new_facts, &mut sources, &mut fetched);
            merge_facts(&mut facts, new_facts);
            if unknowns == 0 {
                break;
            }
        }

        // ---- Stage 2: type recovery (Algorithm 1) ----
        let mut wants: BTreeSet<String> = facts
            .iter()
            .filter_map(|f| match f {
                Fact::Ident {
                    arg: ArgSig::StructPtr(c),
                    ..
                } => Some(c.clone()),
                _ => None,
            })
            .collect();
        if handler.kind == HandlerKind::Socket {
            let prefix = prefix_of_ops_var(&handler.ops_var);
            wants.insert(format!("sockaddr_{prefix}"));
        }
        // Gather macros from the handler's file so flag sets resolve,
        // plus the per-command handler functions for role inference.
        if let Some(file) = self.file_of(handler) {
            let macros = file
                .items
                .iter()
                .filter(|i| matches!(i.kind, CItemKind::Macro(_)));
            sources.extend(macros.map(|i| i.text.as_str()));
        }
        for f in &facts {
            if let Fact::Ident {
                handler: Some(hf), ..
            } = f
            {
                self.fetch(hf, &mut sources, &mut fetched);
            }
        }
        for _ in 0..self.max_iter {
            if wants.is_empty() {
                break;
            }
            for w in &wants {
                self.fetch(w, &mut sources, &mut fetched);
            }
            let want_structs: Vec<&str> = wants.iter().map(String::as_str).collect();
            let prompt = PromptRef {
                task: Some(Task::Types),
                want_structs: &want_structs,
                source: &sources.texts,
                known: &facts,
                ..base
            };
            let resp = self.chat(&prompt, attempt);
            queries += 1;
            let new_facts = kgpt_llm::protocol::parse_facts(&resp);
            // New wants: structs the LLM flagged as unknown.
            let mut next: BTreeSet<String> = new_facts
                .iter()
                .filter_map(|f| match f {
                    Fact::UnknownStruct(n) => Some(n.clone()),
                    _ => None,
                })
                .collect();
            // Resolved structs are no longer wanted.
            for f in &new_facts {
                if let Fact::SyzType { c_name, .. } = f {
                    next.remove(c_name);
                }
            }
            merge_facts(&mut facts, new_facts);
            next.retain(|n| {
                !facts
                    .iter()
                    .any(|f| matches!(f, Fact::SyzType { c_name, .. } if c_name == n))
            });
            wants = next;
        }

        // ---- Stage 3: dependency analysis ----
        let prompt = PromptRef {
            task: Some(Task::Dependency),
            target_func: target,
            source: &sources.texts,
            usage: &usage,
            known: &facts,
            ..base
        };
        let resp = self.chat(&prompt, attempt);
        queries += 1;
        merge_facts(&mut facts, kgpt_llm::protocol::parse_facts(&resp));

        let spec = assemble_spec(handler, &facts);
        HandlerOutcome {
            ops_var: handler.ops_var.clone(),
            kind: handler.kind,
            spec,
            queries,
            iterations,
            repaired: false,
            valid: false,
            errors: Vec::new(),
        }
    }

    fn generate_all_in_one(&self, handler: &OpHandler, attempt: u32) -> HandlerOutcome {
        // Stuff *everything* related into one prompt: the entire source
        // file of the handler. Big drivers overflow the context window.
        let file = self.file_of(handler);
        let items = file.iter().flat_map(|f| &f.items);
        let sources: Vec<&str> = items.map(|i| i.text.as_str()).collect();
        let prompt = PromptRef {
            task: Some(Task::AllInOne),
            target_func: self.entry_point(handler).0,
            handler_var: Some(&handler.ops_var),
            source: &sources,
            usage: &self.usage_sources(handler),
            ..PromptRef::default()
        };
        let resp = self.chat(&prompt, attempt);
        let facts = kgpt_llm::protocol::parse_facts(&resp);
        let spec = assemble_spec(handler, &facts);
        HandlerOutcome {
            ops_var: handler.ops_var.clone(),
            kind: handler.kind,
            spec,
            queries: 1,
            iterations: 1,
            repaired: false,
            valid: false,
            errors: Vec::new(),
        }
    }

    fn chat(&self, prompt: &PromptRef<'_>, attempt: u32) -> String {
        let mut req = ChatRequest::new(prompt.render());
        req.attempt = attempt;
        stage::time(Stage::Chat, || self.model.chat(&req).text)
    }

    /// The function a handler's commands enter through, and its source
    /// where the corpus has it.
    fn entry_point<'s>(&'s self, handler: &'s OpHandler) -> (Option<&'s str>, Option<&'s str>) {
        let name = match handler.kind {
            HandlerKind::Driver => handler.ioctl_fn.as_deref(),
            HandlerKind::Socket => handler.setsockopt_fn.as_deref(),
        };
        (name, name.and_then(|n| extract_code(self.corpus, n)))
    }

    fn usage_sources<'s>(&'s self, handler: &'s OpHandler) -> Vec<&'s str> {
        let own = handler.usage.iter().map(String::as_str);
        own.chain(extract_code(self.corpus, &handler.ops_var))
            .collect()
    }

    /// The source file a handler was found in.
    fn file_of(&self, handler: &OpHandler) -> Option<&'a CFile> {
        let files = self.corpus.files().iter();
        files.map(|f| &**f).find(|f| f.name == handler.file)
    }

    /// `ExtractCode(name)`, once per name; says whether it showed
    /// anything new.
    fn fetch<'s>(
        &'s self,
        name: &str,
        sources: &mut Sources<'s>,
        fetched: &mut BTreeSet<String>,
    ) -> bool {
        fetched.insert(name.to_string())
            && extract_code(self.corpus, name).is_some_and(|code| sources.push(code))
    }

    /// Fetch code for every UNKNOWN target; returns how many new pieces
    /// of source were added.
    fn fetch_unknowns<'s>(
        &'s self,
        facts: &[Fact],
        sources: &mut Sources<'s>,
        fetched: &mut BTreeSet<String>,
    ) -> usize {
        let names = facts.iter().filter_map(|f| match f {
            Fact::UnknownFunc { name, .. } | Fact::UnknownVar { name, .. } => Some(name.as_str()),
            Fact::UnknownStruct(n) => Some(n.as_str()),
            _ => None,
        });
        names.filter(|n| self.fetch(n, sources, fetched)).count()
    }
}

/// The code a handler's prompts show: item texts borrowed from the
/// corpus, in the order they were first added, each text once.
#[derive(Default)]
struct Sources<'s> {
    texts: Vec<&'s str>,
    seen: BTreeSet<&'s str>,
}

impl<'s> Sources<'s> {
    /// Add a text unless it is already shown; says whether it was new.
    fn push(&mut self, text: &'s str) -> bool {
        let new = self.seen.insert(text);
        if new {
            self.texts.push(text);
        }
        new
    }

    fn extend(&mut self, texts: impl IntoIterator<Item = &'s str>) {
        for text in texts {
            self.push(text);
        }
    }
}

/// What makes two facts the same statement, of which the later stands.
#[derive(PartialEq)]
enum FactKey<'f> {
    DevPath,
    Socket,
    SockCall(&'f str),
    Transform,
    Ident(&'f str),
    Type(&'f str),
    Flags(&'f str),
    Resource(&'f str),
    Dep(&'f str),
}

fn fact_key(f: &Fact) -> Option<FactKey<'_>> {
    Some(match f {
        Fact::DevPath(_) => FactKey::DevPath,
        Fact::Socket { .. } => FactKey::Socket,
        Fact::SockCallFn { call, .. } => FactKey::SockCall(call),
        Fact::Transform { .. } => FactKey::Transform,
        Fact::Ident { name, .. } => FactKey::Ident(name),
        Fact::SyzType { c_name, .. } => FactKey::Type(c_name),
        Fact::FlagSet { name, .. } => FactKey::Flags(name),
        Fact::ResourceDef { name } => FactKey::Resource(name),
        Fact::CreatesFd { cmd, .. } => FactKey::Dep(cmd),
        Fact::UnknownFunc { .. }
        | Fact::UnknownVar { .. }
        | Fact::UnknownStruct(_)
        | Fact::Note(_) => {
            return None;
        }
    })
}

/// Merge newly returned facts into the accumulator: later rounds
/// *refine* earlier ones (the re-analysis sees strictly more source),
/// so new facts replace old facts with the same key.
fn merge_facts(acc: &mut Vec<Fact>, new: Vec<Fact>) {
    for f in new {
        let Some(key) = fact_key(&f) else {
            // Unknowns/notes are transient; keep them only if novel.
            if !acc.contains(&f) {
                acc.push(f);
            }
            continue;
        };
        match acc.iter().position(|e| fact_key(e).as_ref() == Some(&key)) {
            Some(pos) => acc[pos] = f,
            None => acc.push(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::KernelCorpus;
    use kgpt_extractor::find_handlers;
    use kgpt_llm::{ModelKind, OracleModel};

    fn dm_only() -> (KernelCorpus, Vec<OpHandler>) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let handlers = find_handlers(kc.corpus());
        (kc, handlers)
    }

    #[test]
    fn dm_pipeline_end_to_end() {
        let (kc, handlers) = dm_only();
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let engine = KernelGpt::new(&model, kc.corpus());
        let report = engine.generate_all(&handlers, kc.consts());
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.valid, "errors: {:?}", o.errors);
        // 18 ioctls + openat.
        assert_eq!(o.syscall_count(), 19);
        assert!(o.type_count() >= 2, "types: {}", o.type_count());
        // Correct nodename-derived path in the spec.
        let text = kgpt_syzlang::print_file(o.spec.as_ref().unwrap());
        assert!(text.contains("/dev/mapper/control"), "{text}");
        assert!(text.contains("ioctl$DM_DEV_CREATE"), "{text}");
        assert!(text.contains("len[targets"), "{text}");
    }

    #[test]
    fn repair_fixes_injected_defects() {
        // Find a seed where the dm handler draws a first-pass defect;
        // the repair round must fix it.
        let (kc, handlers) = dm_only();
        let mut saw_repair = false;
        for seed in 0..40 {
            let model = OracleModel::new(ModelKind::Gpt4, seed);
            let engine = KernelGpt::new(&model, kc.corpus());
            let report = engine.generate_all(&handlers, kc.consts());
            let o = &report.outcomes[0];
            assert!(o.valid, "seed {seed}: {:?}", o.errors);
            if o.repaired {
                saw_repair = true;
                break;
            }
        }
        assert!(saw_repair, "no seed triggered the repair path");
    }

    #[test]
    fn kvm_chain_produces_subhandler_specs() {
        let kc = KernelCorpus::from_blueprints(vec![
            kgpt_csrc::flagship::kvm(),
            kgpt_csrc::flagship::kvm_vm(),
            kgpt_csrc::flagship::kvm_vcpu(),
        ]);
        let handlers = find_handlers(kc.corpus());
        assert_eq!(handlers.len(), 3);
        let model = OracleModel::new(ModelKind::Gpt4, 2);
        let engine = KernelGpt::new(&model, kc.corpus());
        let report = engine.generate_all(&handlers, kc.consts());
        assert_eq!(
            report.valid_count(),
            3,
            "{:?}",
            report
                .outcomes
                .iter()
                .map(|o| (&o.ops_var, &o.errors))
                .collect::<Vec<_>>()
        );
        let merged = report.specs();
        let db = kgpt_syzlang::SpecDb::from_files(merged);
        // The chain: openat$kvm → ioctl$KVM_CREATE_VM → fd_kvm_vm →
        // ioctl$KVM_CREATE_VCPU → fd_kvm_vcpu.
        let create_vm = db.syscall("ioctl$KVM_CREATE_VM").expect("create vm");
        assert_eq!(create_vm.ret.as_deref(), Some("fd_kvm_vm"));
        let create_vcpu = db.syscall("ioctl$KVM_CREATE_VCPU").expect("create vcpu");
        assert_eq!(create_vcpu.ret.as_deref(), Some("fd_kvm_vcpu"));
    }

    #[test]
    fn all_in_one_is_worse_on_big_drivers() {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let handlers = find_handlers(kc.corpus());
        // A small context window makes the difference visible even on
        // one driver: use GPT-3.5 for the window, same seeds.
        let model = OracleModel::new(ModelKind::Gpt35, 0);
        let iter = KernelGpt::new(&model, kc.corpus()).generate_all(&handlers, kc.consts());
        let one = KernelGpt::new(&model, kc.corpus())
            .with_strategy(Strategy::AllInOne)
            .generate_all(&handlers, kc.consts());
        assert!(
            one.total_syscalls() <= iter.total_syscalls(),
            "all-in-one {} vs iterative {}",
            one.total_syscalls(),
            iter.total_syscalls()
        );
    }

    #[test]
    fn deep_delegation_fails_within_max_iter() {
        // A driver delegating through 7 hops cannot be resolved in 5
        // iterations (the synthetic `too_deep` population).
        let plan = kgpt_csrc::synth::SynthPlan {
            drivers_loaded_complete: 0,
            drivers_loaded_partial: 0,
            drivers_loaded_none: 1,
            drivers_unloaded: 0,
            drivers_friendly: 0,
            drivers_too_deep: 1,
            sockets_loaded_complete: 0,
            sockets_loaded_partial: 0,
            sockets_loaded_none: 0,
            sockets_unloaded: 0,
            sockets_opaque: 0,
        };
        let bps = kgpt_csrc::synth::generate(&plan, 0);
        assert_eq!(bps.len(), 1);
        let kc = KernelCorpus::from_blueprints(bps);
        let handlers = find_handlers(kc.corpus());
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let engine = KernelGpt::new(&model, kc.corpus());
        let report = engine.generate_all(&handlers, kc.consts());
        let o = &report.outcomes[0];
        // The spec (if any) has no ioctl commands — the producer alone
        // is not a useful description.
        assert_eq!(
            o.spec
                .as_ref()
                .map_or(0, |s| s.syscalls().filter(|c| c.base == "ioctl").count()),
            0,
            "deep delegation should yield no commands"
        );
    }

    #[test]
    fn parallel_generation_is_thread_count_invariant() {
        // Mixed workload: dm (repairable driver), the kvm chain
        // (cross-file sub-handler fds), rds (socket). The report must
        // be bit-identical at every thread count.
        let kc = KernelCorpus::from_blueprints(vec![
            kgpt_csrc::flagship::dm(),
            kgpt_csrc::flagship::kvm(),
            kgpt_csrc::flagship::kvm_vm(),
            kgpt_csrc::flagship::kvm_vcpu(),
            kgpt_csrc::flagship::rds(),
        ]);
        let handlers = find_handlers(kc.corpus());
        assert_eq!(handlers.len(), 5);
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let run = |threads: usize| {
            KernelGpt::new(&model, kc.corpus())
                .with_threads(threads)
                .generate_all(&handlers, kc.consts())
        };
        let base = run(1);
        assert!(
            base.valid_count() >= 4,
            "base valid: {}",
            base.valid_count()
        );
        for threads in [2, 4, 8] {
            assert_eq!(base, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn parallel_repair_round_matches_sequential() {
        // A seed that injects a first-pass defect exercises the repair
        // round; the parallel repair merge must keep the sequential
        // outcome (queries accumulate, repaired flag set).
        let (kc, handlers) = dm_only();
        for seed in 0..40 {
            let model = OracleModel::new(ModelKind::Gpt4, seed);
            let engine = KernelGpt::new(&model, kc.corpus()).with_threads(1);
            let sequential = engine.generate_all(&handlers, kc.consts());
            if !sequential.outcomes[0].repaired {
                continue;
            }
            let model = OracleModel::new(ModelKind::Gpt4, seed);
            let parallel = KernelGpt::new(&model, kc.corpus())
                .with_threads(4)
                .generate_all(&handlers, kc.consts());
            assert_eq!(sequential, parallel, "seed {seed}");
            return;
        }
        panic!("no seed triggered the repair path");
    }

    #[test]
    fn socket_pipeline_rds() {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::rds()]);
        let handlers = find_handlers(kc.corpus());
        let model = OracleModel::new(ModelKind::Gpt4, 1);
        let engine = KernelGpt::new(&model, kc.corpus());
        let report = engine.generate_all(&handlers, kc.consts());
        let o = &report.outcomes[0];
        assert!(o.valid, "{:?}", o.errors);
        let text = kgpt_syzlang::print_file(o.spec.as_ref().unwrap());
        assert!(text.contains("socket$rds"), "{text}");
        assert!(text.contains("sendto$rds"), "{text}");
        assert!(text.contains("setsockopt$RDS_GET_MR"), "{text}");
    }
}
