//! The deterministic oracle model.
//!
//! Substitutes the paper's GPT-4 endpoint: it parses the C code
//! *embedded in the prompt text* (never touching global state), applies
//! the reasoning a strong code LLM demonstrably performs on kernel
//! sources — designated-initializer reading, command-transform
//! reversal, switch/if-chain/lookup-table dispatch recovery, semantic
//! field-role inference (`len[...]`, ranges, flags, resources),
//! `anon_inode_getfd` dependency spotting — and answers in the
//! [`crate::protocol`] fact grammar.
//!
//! Capability gates ([`crate::profile`]) and seeded error injection
//! calibrate it to the paper's measurements: §5.1.3 accuracy for GPT-4
//! and the §5.2.3 degradation for GPT-3.5.
//!
//! # Reading a snippet once
//!
//! Algorithm 1 re-sends everything gathered so far at every stage, so
//! one pass over the flagship handlers shows a model each snippet four
//! to five times. An [`OracleModel`] therefore keeps, for its own
//! lifetime, the parse of every *chunk* it has been shown — a chunk
//! being a blank-line-separated piece of a `## SOURCE` or `## USAGE`
//! section, which is how the pipeline lays out one C item.
//!
//! * **What it holds.** Parses only: an `Arc<CFile>` per chunk (or the
//!   note that the chunk has no parse of its own). Never a fact, never
//!   a response — every request is still analysed, rendered and
//!   metered.
//! * **Its key** is the chunk's text plus the `typedef` names in scope
//!   where the chunk starts, the one piece of state the C parser
//!   carries from item to item ([`kgpt_csrc::parser::cparse_chunk`]).
//!   A chunk's parse is a pure function of that key, so a model that
//!   has read a chunk before answers exactly like one that has not:
//!   the oracle remains a function of the prompt text and
//!   `(kind, seed, attempt)`. Nothing is shared between models.
//! * **Assembly.** A request's two corpora are built from the shared
//!   parses in prompt order ([`Corpus::from_shared`]: no item is
//!   copied), so iteration order and "later definitions shadow earlier
//!   ones" are what parsing the joined text gives. That equivalence
//!   needs every chunk to parse on its own and, but for the last, to
//!   be [`closed`](kgpt_csrc::parser::CChunk::closed).
//! * **The fallback.** When a chunk is not like that — a function with
//!   a blank line inside, a tail cut by the context window — that
//!   request's section is parsed the way every section once was: the
//!   joined text, and failing that item by item, dropping the broken
//!   ones. The result of that is not kept.
//! * **The memory bound** is the distinct text one model was shown:
//!   the key copies it and the AST is about nine times its size
//!   (≤ 1.5 MB for the whole flagship source). There is no size
//!   option and no eviction; the memo dies with its model.

use crate::profile::{Capability, ModelKind};
#[cfg(test)]
use crate::protocol::parse_facts;
use crate::protocol::{chunks, render_facts, ArgSig, Fact, Sections, Task};
use crate::usage::{Usage, UsageMeter};
use crate::{approx_tokens, ChatRequest, ChatResponse, LanguageModel};
use kgpt_csrc::ast::{CField, CFile, CItemKind, CStructDef, CType, CaseLabel, Expr, Stmt};
use kgpt_csrc::cmacro;
use kgpt_csrc::parser::{cparse, cparse_chunk};
use kgpt_csrc::Corpus;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, PoisonError, RwLock};

/// The oracle analysis LLM.
#[derive(Debug)]
pub struct OracleModel {
    kind: ModelKind,
    cap: Capability,
    seed: u64,
    meter: UsageMeter,
    name: String,
    memo: ParseMemo,
}

/// How much C a model has been shown in `## SOURCE` / `## USAGE`
/// sections, and how much of it it had to parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Bytes of code shown, every request counted.
    pub shown_bytes: u64,
    /// Bytes handed to the C parser.
    pub parsed_bytes: u64,
}

impl OracleModel {
    /// Create an oracle emulating the given model.
    #[must_use]
    pub fn new(kind: ModelKind, seed: u64) -> OracleModel {
        OracleModel {
            kind,
            cap: kind.capability(),
            seed,
            meter: UsageMeter::new(),
            name: kind.id().to_string(),
            memo: ParseMemo::default(),
        }
    }

    /// The emulated model kind.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Shared usage meter (for experiment reports).
    #[must_use]
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// What this model has read so far.
    #[must_use]
    pub fn reading(&self) -> Reading {
        Reading {
            shown_bytes: self.memo.shown_bytes.load(Relaxed),
            parsed_bytes: self.memo.parsed_bytes.load(Relaxed),
        }
    }

    /// The part of a prompt inside the context window: tail characters
    /// past it are dropped (this is what makes the all-in-one ablation
    /// lose commands on big drivers).
    fn window<'p>(&self, prompt: &'p str) -> &'p str {
        let mut cut = self.cap.context_tokens.saturating_mul(4).min(prompt.len());
        while !prompt.is_char_boundary(cut) {
            cut -= 1;
        }
        &prompt[..cut]
    }

    /// The facts the model states about a prompt, its two code
    /// sections read into corpora by `read`.
    fn answer(&self, request: &ChatRequest, read: impl Fn(&str) -> Corpus) -> Vec<Fact> {
        let prompt = Sections::parse(self.window(&request.prompt));
        let (corpus, usage_corpus) = (read(prompt.source_body()), read(prompt.usage_body()));
        let analysis = Analysis::new(
            &self.cap,
            self.seed,
            &prompt,
            request.attempt,
            &corpus,
            &usage_corpus,
        );
        analysis.run()
    }

    /// The facts the model states, through the parses it keeps.
    fn answer_shared(&self, request: &ChatRequest) -> Vec<Fact> {
        self.answer(request, |section| self.memo.corpus(section))
    }

    /// The facts as the model stated them before it kept any parse:
    /// both code sections parsed joined, from scratch.
    #[cfg(test)]
    fn answer_joined(&self, request: &ChatRequest) -> Vec<Fact> {
        self.answer(request, |section| parse_joined(section).0)
    }
}

impl LanguageModel for OracleModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let out = render_facts(&self.answer_shared(request));
        let usage = Usage::of_request(approx_tokens(&request.prompt), approx_tokens(&out));
        self.meter.record(usage);
        ChatResponse { text: out, usage }
    }

    fn total_usage(&self) -> Usage {
        self.meter.snapshot()
    }
}

/// A chunk of code as a model keeps it.
#[derive(Debug, Clone)]
struct Chunk {
    file: Arc<CFile>,
    /// See [`kgpt_csrc::parser::CChunk::closed`].
    closed: bool,
}

/// Chunk text → its parse under one typedef scope, `None` when it has
/// none of its own.
type ByText = HashMap<String, Option<Chunk>>;

/// The parses of the chunks one model has been shown (module docs).
#[derive(Debug, Default)]
struct ParseMemo {
    /// Keyed by the typedef names in scope, sorted.
    chunks: RwLock<HashMap<Vec<String>, ByText>>,
    shown_bytes: AtomicU64,
    parsed_bytes: AtomicU64,
}

/// What looking every chunk of a section up came to.
enum Assembled {
    /// Every chunk has a parse that composes: the corpus over them.
    Shared(Corpus),
    /// Some chunk does not; the section must be parsed joined.
    Joined,
    /// Some chunk has not been looked at yet.
    Unread,
}

impl ParseMemo {
    /// The corpus of one code section: its chunks' shared parses in
    /// order, or the parse of the joined text where they do not add up
    /// to it.
    fn corpus(&self, section: &str) -> Corpus {
        let (count, shown) = chunks(section).fold((0, 0), |(n, b), c| (n + 1, b + c.len()));
        self.shown_bytes.fetch_add(shown as u64, Relaxed);
        // A panic cannot leave the map half-updated (an entry goes in
        // whole, after its parse), so a poisoned lock is still good.
        let read = self.chunks.read().unwrap_or_else(PoisonError::into_inner);
        let mut assembled = assemble(section, count, |scope, text| {
            read.get(scope)?.get(text).cloned()
        });
        drop(read);
        if matches!(assembled, Assembled::Unread) {
            // Parse what is new under the write lock: a chunk is parsed
            // once per scope however many threads meet it first.
            let mut known = self.chunks.write().unwrap_or_else(PoisonError::into_inner);
            assembled = assemble(section, count, |scope, text| {
                if !known.contains_key(scope) {
                    known.insert(scope.to_vec(), ByText::new());
                }
                let by_text = known.get_mut(scope)?;
                if let Some(hit) = by_text.get(text) {
                    return Some(hit.clone());
                }
                self.parsed_bytes.fetch_add(text.len() as u64, Relaxed);
                let chunk = cparse_chunk("prompt.c", text, scope).ok().map(|c| Chunk {
                    file: Arc::new(c.file),
                    closed: c.closed,
                });
                by_text.insert(text.to_string(), chunk.clone());
                Some(chunk)
            });
        }
        match assembled {
            Assembled::Shared(corpus) => corpus,
            Assembled::Joined | Assembled::Unread => {
                let (corpus, parsed) = parse_joined(section);
                self.parsed_bytes.fetch_add(parsed as u64, Relaxed);
                corpus
            }
        }
    }
}

/// Look each of the `count` chunks of `section` up, under the typedef
/// names the chunks before it introduced; `lookup` answers `None` for
/// a chunk it has not read and `Some(None)` for one that has no parse.
fn assemble<'t>(
    section: &'t str,
    count: usize,
    mut lookup: impl FnMut(&[String], &'t str) -> Option<Option<Chunk>>,
) -> Assembled {
    let mut files = Vec::with_capacity(count);
    let mut scope: Vec<String> = Vec::new();
    for (i, text) in chunks(section).enumerate() {
        let Some(known) = lookup(&scope, text) else {
            return Assembled::Unread;
        };
        // Only the last chunk may have looked past its end: there the
        // joined text ends too.
        let Some(chunk) = known.filter(|c| c.closed || i + 1 == count) else {
            return Assembled::Joined;
        };
        for item in &chunk.file.items {
            if let CItemKind::Typedef(t) = &item.kind {
                if let Err(at) = scope.binary_search(&t.name) {
                    scope.insert(at, t.name.clone());
                }
            }
        }
        files.push(chunk.file);
    }
    Assembled::Shared(Corpus::from_shared(files))
}

/// Derive the spec-name prefix from an ops-variable name
/// (`_dm_fops` → `dm`, `rds_proto_ops` → `rds`). KernelGPT uses the
/// same derivation when assembling the final spec.
#[must_use]
pub fn prefix_of_ops_var(ops_var: &str) -> String {
    ops_var
        .trim_start_matches('_')
        .trim_end_matches("_fops")
        .trim_end_matches("_proto_ops")
        .to_string()
}

struct Analysis<'a> {
    cap: &'a Capability,
    seed: u64,
    prompt: &'a Sections<'a>,
    attempt: u32,
    corpus: &'a Corpus,
    usage_corpus: &'a Corpus,
    prefix: String,
    /// Per-query recall multiplier in permille. The staged pipeline
    /// keeps prompts focused (1000‰); a single all-in-one prompt loses
    /// recall as it grows — the "lost in the middle" effect the §5.2.3
    /// ablation measures.
    recall_permille: u64,
}

impl<'a> Analysis<'a> {
    fn new(
        cap: &'a Capability,
        seed: u64,
        prompt: &'a Sections<'a>,
        attempt: u32,
        corpus: &'a Corpus,
        usage_corpus: &'a Corpus,
    ) -> Analysis<'a> {
        let recall_permille = if prompt.task == Some(Task::AllInOne) {
            // Focused attention budget ≈ 2000 tokens of source; recall
            // decays proportionally beyond it (floor 30%).
            let budget_chars = 8_000u64;
            // The items as the joined text holds them: a blank line between.
            let len = prompt.source().map(|c| c.len() as u64 + 2).sum::<u64>();
            let len = len.saturating_sub(2);
            if len <= budget_chars {
                1000
            } else {
                (budget_chars * 1000 / len).max(300)
            }
        } else {
            1000
        };
        Analysis {
            cap,
            seed,
            prompt,
            attempt,
            corpus,
            usage_corpus,
            prefix: prompt
                .handler_var()
                .map(prefix_of_ops_var)
                .unwrap_or_default(),
            recall_permille,
        }
    }

    fn draw(&self, what: &str, bp: u32) -> bool {
        let key = format!(
            "{}:{}:{}",
            self.prefix,
            what,
            self.prompt.handler_var().unwrap_or("")
        );
        Capability::draw(bp, &key, self.seed)
    }

    fn run(&self) -> Vec<Fact> {
        let mut facts = Vec::new();
        match self.prompt.task {
            Some(Task::Identifier) => self.identifier_stage(&mut facts),
            Some(Task::Types) => self.type_stage(&mut facts),
            Some(Task::Dependency) => self.dependency_stage(&mut facts),
            Some(Task::Repair) | None => {
                // Repair: redo everything visible, with injection off
                // (attempt > 0 by construction of the repair request).
                self.identifier_stage(&mut facts);
                self.type_stage(&mut facts);
                self.dependency_stage(&mut facts);
            }
            Some(Task::AllInOne) => {
                self.identifier_stage(&mut facts);
                // All-in-one also recovers types for every struct it saw.
                self.type_stage(&mut facts);
                self.dependency_stage(&mut facts);
            }
        }
        facts
    }

    // ---- registration / producer analysis ---------------------------

    fn registration_facts(&self, facts: &mut Vec<Fact>) {
        // Driver device path from usage items.
        for file in self.usage_corpus.files() {
            for item in &file.items {
                if let CItemKind::Var(v) = &item.kind {
                    if v.ty.base == "struct miscdevice" {
                        if let Some(init) = &v.init {
                            let nodename =
                                init.init_field("nodename").and_then(|e| self.string_of(e));
                            let name = init.init_field("name").and_then(|e| self.string_of(e));
                            let chosen = if self.cap.nodename_aware {
                                nodename.or(name)
                            } else {
                                name.or(nodename)
                            };
                            if let Some(n) = chosen {
                                facts.push(Fact::DevPath(format!("/dev/{n}")));
                                return;
                            }
                        }
                    }
                    if v.ty.base == "struct net_proto_family" {
                        self.socket_facts(v.init.as_ref(), facts);
                        return;
                    }
                }
                if let CItemKind::Function(f) = &item.kind {
                    let mut found = None;
                    kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
                        if let Expr::Call { func, args } = e {
                            match func.as_str() {
                                "device_create" => {
                                    if let Some(s) =
                                        args.iter().find_map(|a| a.as_str().map(str::to_string))
                                    {
                                        // printf-style index patterns: a
                                        // capable model instantiates %i→0.
                                        let resolved = s.replace("%i", "0").replace("%d", "0");
                                        found = Some(format!("/dev/{resolved}"));
                                    }
                                }
                                "proc_create" => {
                                    if let Some(s) =
                                        args.iter().find_map(|a| a.as_str().map(str::to_string))
                                    {
                                        found = Some(format!("/proc/{s}"));
                                    }
                                }
                                _ => {}
                            }
                        }
                    });
                    if let Some(p) = found {
                        facts.push(Fact::DevPath(p));
                        return;
                    }
                }
            }
        }
        // Socket registration may live in SOURCE instead of USAGE.
        for file in self.corpus.files() {
            for item in &file.items {
                if let CItemKind::Var(v) = &item.kind {
                    if v.ty.base == "struct net_proto_family" {
                        self.socket_facts(v.init.as_ref(), facts);
                        return;
                    }
                }
            }
        }
    }

    fn socket_facts(&self, family_init: Option<&Expr>, facts: &mut Vec<Fact>) {
        let family_name = family_init
            .and_then(|i| i.init_field("family"))
            .and_then(Expr::as_ident)
            .map(str::to_string);
        // type/proto from the create function: `protocol != N`,
        // `sock->type != M`.
        let mut sock_type = None;
        let mut proto = None;
        let create_fn = family_init
            .and_then(|i| i.init_field("create"))
            .and_then(Expr::as_ident);
        if let Some(f) = create_fn.and_then(|n| self.find_fn(n)) {
            kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
                if let Expr::Binary { op: "!=", lhs, rhs } = e {
                    if let Expr::Num(n) = rhs.as_ref() {
                        match lhs.as_ref() {
                            Expr::Ident(id) if id == "protocol" => proto = Some(*n),
                            Expr::Member { field, .. } if field == "type" => {
                                sock_type = Some(*n);
                            }
                            _ => {}
                        }
                    }
                }
            });
        }
        // level from the setsockopt dispatcher: `level != SOL_X`.
        let mut level_name = None;
        for file in self.corpus.files() {
            for item in &file.items {
                if let CItemKind::Function(f) = &item.kind {
                    kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
                        if let Expr::Binary { op: "!=", lhs, rhs } = e {
                            if matches!(lhs.as_ref(), Expr::Ident(id) if id == "level") {
                                if let Expr::Ident(l) = rhs.as_ref() {
                                    level_name = Some(l.clone());
                                }
                            }
                        }
                    });
                }
            }
        }
        facts.push(Fact::Socket {
            family_name,
            sock_type,
            proto,
            level_name,
        });
        // Generic socket call implementations from the proto_ops var.
        for file in self.corpus.files().iter().chain(self.usage_corpus.files()) {
            for item in &file.items {
                if let CItemKind::Var(v) = &item.kind {
                    if v.ty.base == "struct proto_ops" {
                        if let Some(init) = &v.init {
                            for call in ["bind", "connect", "sendmsg", "recvmsg", "accept"] {
                                if let Some(f) = init.init_field(call).and_then(Expr::as_ident) {
                                    facts.push(Fact::SockCallFn {
                                        call: call.to_string(),
                                        func: f.to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn string_of(&self, e: &Expr) -> Option<String> {
        if let Some(s) = e.as_str() {
            return Some(s.to_string());
        }
        cmacro::eval_string(self.corpus, e).or_else(|| cmacro::eval_string(self.usage_corpus, e))
    }

    fn find_fn(&self, name: &str) -> Option<&kgpt_csrc::ast::CFunction> {
        self.corpus
            .function(name)
            .or_else(|| self.usage_corpus.function(name))
    }

    // ---- identifier stage -------------------------------------------

    fn identifier_stage(&self, facts: &mut Vec<Fact>) {
        self.registration_facts(facts);
        let Some(entry) = self.prompt.target_func() else {
            return;
        };
        let mut visited = BTreeSet::new();
        self.follow(entry, facts, &mut visited, 0);
        self.inject_wrong_identifier(facts);
        self.inject_ident_defect(facts);
    }

    /// §5.1.3's rare semantic failure: on transform-obscured handlers
    /// the model occasionally swaps two command identifiers. The result
    /// still *validates* (both macros exist) but is semantically wrong —
    /// the kind of error only the ground-truth diff catches.
    fn inject_wrong_identifier(&self, facts: &mut [Fact]) {
        let transformed = facts
            .iter()
            .any(|f| matches!(f, Fact::Transform { kind } if kind != "none"));
        if !transformed {
            return;
        }
        let idents: Vec<usize> = facts
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f, Fact::Ident { .. }))
            .map(|(i, _)| i)
            .collect();
        if idents.len() < 2 {
            return;
        }
        for w in idents.windows(2) {
            let (a, b) = (w[0], w[1]);
            let name_a = match &facts[a] {
                Fact::Ident { name, .. } => name.clone(),
                _ => continue,
            };
            if Capability::draw(
                self.cap.err_ident_bp,
                &format!("{}:identerr:{name_a}", self.prefix),
                self.seed,
            ) {
                let name_b = match &facts[b] {
                    Fact::Ident { name, .. } => name.clone(),
                    _ => continue,
                };
                if let Fact::Ident { name, .. } = &mut facts[a] {
                    *name = name_b;
                }
                if let Fact::Ident { name, .. } = &mut facts[b] {
                    *name = name_a;
                }
                break; // at most one swap per handler
            }
        }
    }

    /// Follow a dispatcher function, chasing intra-prompt delegation.
    fn follow(
        &self,
        func: &str,
        facts: &mut Vec<Fact>,
        visited: &mut BTreeSet<String>,
        depth: usize,
    ) {
        if depth > 24 || !visited.insert(func.to_string()) {
            return;
        }
        let Some(f) = self.find_fn(func) else {
            facts.push(Fact::UnknownFunc {
                name: func.to_string(),
                usage: format!("{func}(file, command, arg)"),
            });
            return;
        };
        if f.is_proto {
            facts.push(Fact::Note(format!(
                "{func} has no visible body; handlers behind it are registered at runtime and cannot be derived from source"
            )));
            return;
        }
        // Transform detection.
        let mut transform: Option<String> = None;
        kgpt_csrc::ast::walk_stmts(&f.body, &mut |s| {
            if let Stmt::Decl {
                name,
                init: Some(e),
                ..
            } = s
            {
                if name == "cmd" {
                    match e {
                        Expr::Call { func, .. } if func == "_IOC_NR" => {
                            transform = Some("iocnr".to_string());
                        }
                        Expr::Binary { op: "&", rhs, .. } => {
                            if let Expr::Num(m) = rhs.as_ref() {
                                transform = Some(format!("mask:{m:#x}"));
                            }
                        }
                        _ => {}
                    }
                }
            }
        });
        if let Some(t) = &transform {
            if self.cap.follows_transforms {
                facts.push(Fact::Transform { kind: t.clone() });
            }
        }
        // Switch / if-chain dispatch.
        let mut tail_calls: Vec<String> = Vec::new();
        let mut case_count = 0usize;
        kgpt_csrc::ast::walk_stmts(&f.body, &mut |s| match s {
            Stmt::Switch { cases, .. } => {
                for case in cases {
                    for label in &case.labels {
                        if let CaseLabel::Expr(e) = label {
                            case_count += 1;
                            self.emit_case(e, &case.body, facts);
                        }
                    }
                    // `default: return x_dynamic_ioctl(...)` tail.
                    if case.labels.iter().any(|l| matches!(l, CaseLabel::Default)) {
                        collect_tail_calls(&case.body, &mut tail_calls);
                    }
                }
            }
            Stmt::If {
                cond: Expr::Binary { op: "==", lhs, rhs },
                then,
                ..
            } => {
                if matches!(lhs.as_ref(), Expr::Ident(id) if id == "cmd") {
                    case_count += 1;
                    self.emit_case(rhs, then, facts);
                }
            }
            _ => {}
        });
        // Lookup-table dispatch: `fn = X_lookup_ioctl(cmd)`.
        let mut lookup_fns: Vec<String> = Vec::new();
        kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
            if let Expr::Call { func, .. } = e {
                if func.contains("lookup_ioctl") {
                    lookup_fns.push(func.clone());
                }
            }
        });
        for lf in lookup_fns {
            if let Some(lfn) = self.find_fn(&lf) {
                // Find the table the lookup function scans.
                let mut table: Option<String> = None;
                kgpt_csrc::ast::walk_exprs(&lfn.body, &mut |e| {
                    if let Expr::Index { base, .. } = e {
                        if let Expr::Ident(v) = base.as_ref() {
                            table = Some(v.clone());
                        }
                    }
                });
                match table.as_deref().and_then(|t| self.find_table(t)) {
                    Some(rows) => {
                        for (label, handler) in rows {
                            case_count += 1;
                            self.emit_table_row(&label, handler.as_deref(), facts);
                        }
                    }
                    None => {
                        if let Some(t) = table {
                            facts.push(Fact::UnknownVar {
                                name: t,
                                usage: format!("scanned by {lf} to dispatch ioctl commands"),
                            });
                        }
                    }
                }
            } else {
                facts.push(Fact::UnknownFunc {
                    name: lf.clone(),
                    usage: format!("fn = {lf}(cmd); return fn(file, arg);"),
                });
            }
        }
        // Pure delegation: no cases found and the body tail-calls one
        // function with the same shape.
        if case_count == 0 {
            collect_tail_calls(&f.body, &mut tail_calls);
        }
        for callee in tail_calls {
            self.follow(&callee, facts, visited, depth + 1);
        }
    }

    fn find_table(&self, name: &str) -> Option<Vec<(Expr, Option<String>)>> {
        let v = self
            .corpus
            .var_def(name)
            .or_else(|| self.usage_corpus.var_def(name))?;
        let Expr::InitList { entries } = v.init.as_ref()? else {
            return None;
        };
        let mut rows = Vec::new();
        for (_, row) in entries {
            if let Expr::InitList { entries: cols } = row {
                let label = cols.first().map(|(_, e)| e.clone())?;
                let handler = cols
                    .get(1)
                    .map(|(_, e)| strip_casts(e))
                    .and_then(|e| e.as_ident().map(str::to_string));
                rows.push((label, handler));
            }
        }
        Some(rows)
    }

    fn emit_table_row(&self, label: &Expr, handler: Option<&str>, facts: &mut Vec<Fact>) {
        // Table rows reuse the same label logic; the body is the handler
        // function itself.
        let body = handler
            .map(|h| {
                vec![Stmt::Return(Some(Expr::Call {
                    func: h.to_string(),
                    args: Vec::new(),
                }))]
            })
            .unwrap_or_default();
        self.emit_case(label, &body, facts);
    }

    fn emit_case(&self, label: &Expr, body: &[Stmt], facts: &mut Vec<Fact>) {
        let Some(name) = self.label_macro(label) else {
            return;
        };
        // Recall gate: weaker models drop commands; all-in-one prompts
        // lose further recall with size.
        let effective_bp =
            u32::try_from(u64::from(self.cap.cmd_recall_bp) * self.recall_permille / 1000)
                .unwrap_or(self.cap.cmd_recall_bp);
        if !Capability::draw(
            effective_bp,
            &format!("{}:recall:{name}", self.prefix),
            self.seed,
        ) {
            return;
        }
        // Find the dispatched call and argument shape.
        let mut handler = None;
        let mut arg = ArgSig::None;
        let mut tail = Vec::new();
        collect_tail_calls_with_args(body, &mut tail);
        if let Some((func, args)) = tail.into_iter().next() {
            // Argument signature from the call-site cast.
            for a in &args {
                if let Expr::Cast { ty, expr } = a {
                    let _ = expr;
                    if let Some(tag) = ty.struct_tag() {
                        arg = ArgSig::StructPtr(tag.to_string());
                    } else if ty.ptr > 0 && (ty.base.contains("u32") || ty.base == "uint") {
                        arg = ArgSig::IdPtr(
                            self.idptr_resource(&func).unwrap_or_else(|| "id".into()),
                        );
                    }
                } else if matches!(a, Expr::Ident(i) if i == "arg") && arg == ArgSig::None {
                    arg = ArgSig::Int;
                }
            }
            // Refine via the handler signature if its source is present.
            if let Some(hf) = self.find_fn(&func) {
                if arg == ArgSig::None || arg == ArgSig::Int {
                    for (_, ty) in &hf.params {
                        if let Some(tag) = ty.struct_tag() {
                            if ty.ptr > 0 && tag != "file" && tag != "socket" {
                                arg = ArgSig::StructPtr(tag.to_string());
                            }
                        }
                    }
                }
            } else if arg == ArgSig::None {
                facts.push(Fact::UnknownFunc {
                    name: func.clone(),
                    usage: format!("case {name}: return {func}(file, arg);"),
                });
            }
            handler = Some(func);
        }
        let dir =
            handler
                .as_deref()
                .and_then(|h| self.find_fn(h))
                .map_or("inout".to_string(), |hf| {
                    let mut has_to = false;
                    let mut has_from = false;
                    kgpt_csrc::ast::walk_exprs(&hf.body, &mut |e| {
                        if let Expr::Call { func, .. } = e {
                            if func == "copy_to_user" {
                                has_to = true;
                            }
                            if func == "copy_from_user" {
                                has_from = true;
                            }
                        }
                    });
                    match (has_from, has_to) {
                        (true, true) => "inout".into(),
                        (false, true) => "out".into(),
                        _ => "in".into(),
                    }
                });
        facts.push(Fact::Ident {
            name,
            handler,
            arg,
            dir,
        });
    }

    /// Resolve a dispatch label to the user-facing macro name.
    fn label_macro(&self, label: &Expr) -> Option<String> {
        match label {
            Expr::Ident(n) => Some(n.clone()),
            // `_IOC_NR(CMD)` / `(CMD & 0xff)` — the transform-reversal
            // capability: name the original macro.
            Expr::Call { func, args } if func == "_IOC_NR" => {
                let inner = args.first()?.as_ident()?.to_string();
                if self.cap.follows_transforms {
                    Some(inner)
                } else {
                    // A weak model still sees the macro name but may
                    // mis-handle it; recall gates already thin these.
                    Some(inner)
                }
            }
            Expr::Binary { op: "&", lhs, .. } => lhs.as_ident().map(str::to_string),
            Expr::Num(_) => None, // raw numbers carry no name; skip
            _ => None,
        }
    }

    fn idptr_resource(&self, handler_fn: &str) -> Option<String> {
        let f = self.find_fn(handler_fn)?;
        let mut res = None;
        kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
            if let Expr::Call { func, .. } = e {
                if let Some(idx) = func.find("_lookup_") {
                    res = Some(func[idx + "_lookup_".len()..].to_string());
                }
            }
        });
        res
    }

    /// Seeded repairable defect: misspell the first command macro on the
    /// first attempt (caught as `UnknownConst` by the validator, fixed
    /// on the repair pass).
    fn inject_ident_defect(&self, facts: &mut [Fact]) {
        if self.attempt > 0 || !self.draw("defect", self.cap.defect_bp) {
            return;
        }
        if let Some(Fact::Ident { name, .. }) =
            facts.iter_mut().find(|f| matches!(f, Fact::Ident { .. }))
        {
            name.push_str("_REQ");
        }
    }

    // ---- type stage ---------------------------------------------------

    fn type_stage(&self, facts: &mut Vec<Fact>) {
        let mut wanted: Vec<&str> = self.prompt.want_structs().collect();
        if wanted.is_empty() {
            // All-in-one: every struct in the prompt.
            let items = self.corpus.files().iter().flat_map(|f| f.items.iter());
            wanted.extend(items.filter_map(|i| match &i.kind {
                CItemKind::Struct(s) => Some(s.name.as_str()),
                _ => None,
            }));
        }
        for name in wanted {
            let Some(def) = self
                .corpus
                .struct_def(name)
                .or_else(|| self.usage_corpus.struct_def(name))
            else {
                facts.push(Fact::UnknownStruct(name.to_string()));
                continue;
            };
            self.emit_struct(def, facts);
        }
    }

    fn emit_struct(&self, def: &CStructDef, facts: &mut Vec<Fact>) {
        let roles = self.field_roles(def);
        let mut lines = Vec::new();
        let open = if def.is_union { '[' } else { '{' };
        let close = if def.is_union { ']' } else { '}' };
        lines.push(format!("{}_{} {open}", self.prefix, def.name));
        let err_type = self.attempt == 0
            && Capability::draw(
                self.cap.err_type_bp,
                &format!("{}:typeerr:{}", self.prefix, def.name),
                self.seed,
            );
        for (i, field) in def.fields.iter().enumerate() {
            let role = roles.get(&field.name).cloned().unwrap_or(RoleHint::Plain);
            let mut ty = self.syz_field(field, &role, facts);
            if err_type && i == 0 {
                // Wrong-width defect (§5.1.3's "incorrect types"): not a
                // validation error, only a semantic one.
                ty = ty
                    .replacen("int32", "int64", 1)
                    .replacen("int16", "int32", 1);
            }
            let dir_attr = if matches!(role, RoleHint::OutId(_)) {
                " (out)"
            } else {
                ""
            };
            lines.push(format!("\t{} {ty}{dir_attr}", field.name));
        }
        lines.push(close.to_string());
        facts.push(Fact::SyzType {
            c_name: def.name.clone(),
            text: lines.join("\n"),
        });
        // Repairable defect at the type level: reference a bogus nested
        // type (validator: UndefinedType) — only on the first attempt.
        if self.attempt == 0
            && self.draw(&format!("typedefect:{}", def.name), self.cap.defect_bp / 2)
        {
            if let Some(Fact::SyzType { text, .. }) = facts.last_mut() {
                *text = text.replacen("int8", "int8_t", 1);
            }
        }
    }

    fn syz_field(&self, field: &CField, role: &RoleHint, facts: &mut Vec<Fact>) -> String {
        use RoleHint::{Flags, InId, LenOf, Magic, OutId, Range, Reserved};
        let bits = int_bits_of(&field.ty);
        match role {
            Range(lo, hi) => return format!("{bits}[{lo}:{hi}]"),
            Magic(v) => return format!("const[{v:#x}, {bits}]"),
            Reserved => return format!("const[0, {bits}]"),
            Flags(set, values) if self.cap.flags_inference => {
                facts.push(Fact::FlagSet {
                    name: set.clone(),
                    values: values.clone(),
                });
                return format!("flags[{set}, {bits}]");
            }
            LenOf(target) if self.cap.len_inference => {
                return format!("len[{target}, {bits}]");
            }
            OutId(res) | InId(res) => {
                facts.push(Fact::ResourceDef { name: res.clone() });
                return res.clone();
            }
            _ => {}
        }
        self.plain_c_type(&field.ty, facts)
    }

    fn plain_c_type(&self, ty: &CType, facts: &mut Vec<Fact>) -> String {
        use kgpt_csrc::ast::CArraySize;
        let base = if let Some(tag) = ty.struct_tag() {
            if self
                .corpus
                .struct_def(tag)
                .or_else(|| self.usage_corpus.struct_def(tag))
                .is_none()
            {
                facts.push(Fact::UnknownStruct(tag.to_string()));
            }
            format!("{}_{tag}", self.prefix)
        } else {
            int_bits_of(ty).to_string()
        };
        if ty.base == "char" || ty.base == "uchar" {
            if let Some(CArraySize::Fixed(n)) = &ty.array {
                return format!("array[int8, {n}]");
            }
            if let Some(CArraySize::Flex) = &ty.array {
                return "array[int8]".to_string();
            }
        }
        match &ty.array {
            Some(CArraySize::Fixed(n)) => format!("array[{base}, {n}]"),
            Some(CArraySize::Named(name)) => {
                let n = self.resolve_const(name).unwrap_or(1);
                format!("array[{base}, {n}]")
            }
            Some(CArraySize::Flex) => format!("array[{base}]"),
            None => base,
        }
    }

    fn resolve_const(&self, name: &str) -> Option<u64> {
        cmacro::eval_const(self.corpus, name)
            .or_else(|| cmacro::eval_const(self.usage_corpus, name))
    }

    /// Infer semantic roles by scanning every function body in the
    /// prompt for checks against `p.<field>`.
    fn field_roles(&self, def: &CStructDef) -> std::collections::BTreeMap<String, RoleHint> {
        let mut roles = std::collections::BTreeMap::new();
        let field_names: BTreeSet<&str> = def.fields.iter().map(|f| f.name.as_str()).collect();
        for file in self.corpus.files() {
            for item in &file.items {
                let CItemKind::Function(f) = &item.kind else {
                    continue;
                };
                // Only consider handlers that actually use this struct.
                if !item.text.contains(&def.name) && !def.is_union {
                    continue;
                }
                kgpt_csrc::ast::walk_stmts(&f.body, &mut |s| {
                    self.role_from_stmt(s, &field_names, &mut roles);
                });
            }
        }
        roles
    }

    fn role_from_stmt(
        &self,
        s: &Stmt,
        fields: &BTreeSet<&str>,
        roles: &mut std::collections::BTreeMap<String, RoleHint>,
    ) {
        match s {
            Stmt::If { cond, .. } => self.role_from_cond(cond, fields, roles),
            // `for (i = 0; i < p.count; i++) process(&p.items[i]);`
            Stmt::For {
                cond: Some(Expr::Binary { op: "<", rhs, .. }),
                body,
                ..
            } => {
                if let Some(count_field) = member_field(rhs, fields) {
                    let mut target = None;
                    kgpt_csrc::ast::walk_exprs(body, &mut |e| {
                        if let Expr::Index { base, .. } = e {
                            if let Some(t) = member_field(base, fields) {
                                target = Some(t);
                            }
                        }
                    });
                    if let Some(t) = target {
                        roles.insert(count_field, RoleHint::LenOf(t));
                    }
                }
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => self.role_from_expr(e, fields, roles),
            Stmt::Decl { init: Some(e), .. } => self.role_from_expr(e, fields, roles),
            _ => {}
        }
    }

    fn role_from_cond(
        &self,
        cond: &Expr,
        fields: &BTreeSet<&str>,
        roles: &mut std::collections::BTreeMap<String, RoleHint>,
    ) {
        match cond {
            // `if (p.f)` → reserved-must-be-zero
            Expr::Member { .. } => {
                if let Some(f) = member_field(cond, fields) {
                    roles.entry(f).or_insert(RoleHint::Reserved);
                }
            }
            Expr::Binary { op, lhs, rhs } => match *op {
                ">" => {
                    if let (Some(f), Expr::Num(hi)) = (member_field(lhs, fields), rhs.as_ref()) {
                        match roles.get(&f) {
                            Some(RoleHint::Range(lo, _)) => {
                                let lo = *lo;
                                roles.insert(f, RoleHint::Range(lo, *hi));
                            }
                            _ => {
                                roles.insert(f, RoleHint::Range(0, *hi));
                            }
                        }
                    }
                }
                "<" => {
                    if let (Some(f), Expr::Num(lo)) = (member_field(lhs, fields), rhs.as_ref()) {
                        match roles.get(&f) {
                            Some(RoleHint::Range(_, hi)) => {
                                let hi = *hi;
                                roles.insert(f, RoleHint::Range(*lo, hi));
                            }
                            _ => {
                                roles.insert(f, RoleHint::Range(*lo, u64::MAX));
                            }
                        }
                    }
                }
                "!=" => {
                    if let (Some(f), Expr::Num(v)) = (member_field(lhs, fields), rhs.as_ref()) {
                        roles.insert(f, RoleHint::Magic(*v));
                    }
                }
                "||" => {
                    self.role_from_cond(lhs, fields, roles);
                    self.role_from_cond(rhs, fields, roles);
                }
                "&" => {
                    // `p.f & ~mask` → flags
                    if let (Some(f), Expr::Unary { op: "~", expr }) =
                        (member_field(lhs, fields), rhs.as_ref())
                    {
                        if let Expr::Num(mask) = expr.as_ref() {
                            let values = self.flag_macros_for_mask(*mask);
                            if !values.is_empty() {
                                roles.insert(
                                    f.clone(),
                                    RoleHint::Flags(format!("{}_{f}_flags", self.prefix), values),
                                );
                            }
                        }
                    }
                }
                _ => {}
            },
            Expr::Unary { op: "!", expr } => self.role_from_expr(expr, fields, roles),
            _ => {}
        }
    }

    fn role_from_expr(
        &self,
        e: &Expr,
        fields: &BTreeSet<&str>,
        roles: &mut std::collections::BTreeMap<String, RoleHint>,
    ) {
        kgpt_csrc::ast::walk_expr(e, &mut |x| match x {
            // `p.id = X_alloc_res(...)` → out resource
            Expr::Assign { lhs, rhs } => {
                if let (Some(f), Expr::Call { func, .. }) =
                    (member_field(lhs, fields), rhs.as_ref())
                {
                    if let Some(idx) = func.find("_alloc_") {
                        roles.insert(f, RoleHint::OutId(func[idx + 7..].to_string()));
                    }
                }
            }
            // `X_lookup_res(p.id)` → in resource
            Expr::Call { func, args } => {
                if let Some(idx) = func.find("_lookup_") {
                    if let Some(f) = args.first().and_then(|a| member_field(a, fields)) {
                        roles.insert(f, RoleHint::InId(func[idx + 8..].to_string()));
                    }
                }
            }
            _ => {}
        });
    }

    /// Flag macros in the prompt whose values fit inside `mask`.
    fn flag_macros_for_mask(&self, mask: u64) -> Vec<String> {
        let mut out = Vec::new();
        for file in self.corpus.files() {
            for item in &file.items {
                if let CItemKind::Macro(m) = &item.kind {
                    if m.params.is_none() {
                        if let Some(v) = self.resolve_const(&m.name) {
                            if v != 0 && v & !mask == 0 && v.count_ones() == 1 {
                                out.push(m.name.clone());
                            }
                        }
                    }
                }
            }
        }
        out
    }

    // ---- dependency stage ----------------------------------------------

    fn dependency_stage(&self, facts: &mut Vec<Fact>) {
        for file in self.corpus.files() {
            for item in &file.items {
                let CItemKind::Function(f) = &item.kind else {
                    continue;
                };
                let mut creates: Option<String> = None;
                kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
                    if let Expr::Call { func, args } = e {
                        if func == "anon_inode_getfd" {
                            if let Some(fops) = args.get(1).and_then(|a| a.as_ident()) {
                                creates = Some(fops.to_string());
                            }
                        }
                    }
                });
                if let Some(fops_var) = creates {
                    // Which command dispatches to this function? Use the
                    // caller name convention `{prefix}_{cmd_lower}`.
                    let cmd = f
                        .name
                        .strip_prefix(&format!("{}_", self.prefix))
                        .map(str::to_uppercase)
                        .unwrap_or_else(|| f.name.to_uppercase());
                    facts.push(Fact::CreatesFd { fops_var, cmd });
                }
            }
        }
    }
}

/// Role hints recovered from handler bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RoleHint {
    Plain,
    Range(u64, u64),
    Magic(u64),
    Reserved,
    Flags(String, Vec<String>),
    LenOf(String),
    OutId(String),
    InId(String),
}

fn member_field(e: &Expr, fields: &BTreeSet<&str>) -> Option<String> {
    match e {
        Expr::Member { field, .. } if fields.contains(field.as_str()) => Some(field.clone()),
        Expr::Unary { op: "&", expr } => member_field(expr, fields),
        _ => None,
    }
}

fn strip_casts(e: &Expr) -> &Expr {
    match e {
        Expr::Cast { expr, .. } => strip_casts(expr),
        other => other,
    }
}

fn collect_tail_calls(body: &[Stmt], out: &mut Vec<String>) {
    kgpt_csrc::ast::walk_stmts(body, &mut |s| {
        if let Stmt::Return(Some(Expr::Call { func, .. })) = s {
            if !func.starts_with('<') && func != "copy_from_user" && func != "copy_to_user" {
                out.push(func.clone());
            }
        }
    });
}

fn collect_tail_calls_with_args(body: &[Stmt], out: &mut Vec<(String, Vec<Expr>)>) {
    kgpt_csrc::ast::walk_stmts(body, &mut |s| {
        if let Stmt::Return(Some(Expr::Call { func, args })) = s {
            if !func.starts_with('<') {
                out.push((func.clone(), args.clone()));
            }
        }
    });
}

fn int_bits_of(ty: &CType) -> &'static str {
    if ty.ptr > 0 {
        return "int64";
    }
    match ty.base.as_str() {
        "char" | "uchar" | "u8" | "s8" | "__u8" | "__s8" | "bool" => "int8",
        "short" | "ushort" | "u16" | "s16" | "__u16" | "__s16" | "__le16" | "__be16" => "int16",
        "long" | "ulong" | "u64" | "s64" | "__u64" | "__s64" | "__le64" | "__be64" | "size_t"
        | "loff_t" => "int64",
        _ => "int32",
    }
}

/// Parse a code section the way every section once was: the joined
/// text first, and where that fails item by item, dropping any item
/// the (possibly truncated) prompt broke. Also says how many bytes it
/// handed to the parser.
fn parse_joined(section: &str) -> (Corpus, usize) {
    let items: Vec<&str> = chunks(section).collect();
    let joined = items.join("\n\n");
    if let Ok(file) = cparse("prompt.c", &joined) {
        return (Corpus::build(vec![file]), joined.len());
    }
    let mut files = Vec::new();
    let mut parsed = joined.len();
    for (i, item) in items.iter().enumerate() {
        parsed += item.len();
        if let Ok(f) = cparse(&format!("prompt{i}.c"), item) {
            files.push(f);
        }
    }
    (Corpus::build(files), parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Prompt;
    use kgpt_csrc::emit::emit_blueprint;
    use kgpt_csrc::flagship;

    fn prompt_for_dm(extra: &[&str]) -> Prompt {
        let bp = flagship::dm();
        let src = emit_blueprint(&bp);
        let file = cparse("dm.c", &src).unwrap();
        // Initial prompt: the registered ioctl fn + usage (fops +
        // miscdevice) — what KernelGPT's first round provides.
        let mut source: Vec<String> = file
            .items
            .iter()
            .filter(|i| i.name() == "dm_ctl_ioctl" || extra.contains(&i.name()))
            .map(|i| i.text.clone())
            .collect();
        source.sort();
        let usage: Vec<String> = file
            .items
            .iter()
            .filter(|i| i.name() == "_dm_fops" || i.name() == "_dm_misc")
            .map(|i| i.text.clone())
            .collect();
        Prompt {
            task: Some(Task::Identifier),
            target_func: Some("dm_ctl_ioctl".into()),
            handler_var: Some("_dm_fops".into()),
            want_structs: vec![],
            source,
            usage,
            known: vec![],
            errors: vec![],
        }
    }

    fn chat(model: &OracleModel, p: &Prompt) -> Vec<Fact> {
        let resp = model.chat(&ChatRequest::new(p.render()));
        parse_facts(&resp.text)
    }

    #[test]
    fn first_round_reports_unknown_dispatcher() {
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let facts = chat(&model, &prompt_for_dm(&[]));
        // dm_ctl_ioctl delegates to dm_do_ioctl which is not provided.
        assert!(
            facts
                .iter()
                .any(|f| matches!(f, Fact::UnknownFunc { name, .. } if name == "dm_do_ioctl")),
            "{facts:?}"
        );
        // Device path resolved from .nodename (GPT-4 capability).
        assert!(facts
            .iter()
            .any(|f| matches!(f, Fact::DevPath(p) if p == "/dev/mapper/control")));
    }

    #[test]
    fn nodename_ignored_by_weak_model() {
        let model = OracleModel::new(ModelKind::Gpt35, 0);
        let facts = chat(&model, &prompt_for_dm(&[]));
        assert!(
            facts
                .iter()
                .any(|f| matches!(f, Fact::DevPath(p) if p == "/dev/dm-controller")),
            "{facts:?}"
        );
    }

    #[test]
    fn lookup_table_round_finds_idents() {
        // Provide the whole chain: dispatcher, lookup fn, table, and
        // per-command handlers.
        let bp = flagship::dm();
        let src = emit_blueprint(&bp);
        let file = cparse("dm.c", &src).unwrap();
        let source: Vec<String> = file.items.iter().map(|i| i.text.clone()).collect();
        let p = Prompt {
            task: Some(Task::Identifier),
            target_func: Some("dm_ctl_ioctl".into()),
            handler_var: Some("_dm_fops".into()),
            source,
            usage: vec![],
            ..Prompt::default()
        };
        let model = OracleModel::new(ModelKind::Gpt4, 3);
        let facts = chat(&model, &p);
        let idents: Vec<&Fact> = facts
            .iter()
            .filter(|f| matches!(f, Fact::Ident { .. }))
            .collect();
        // 18 commands; GPT-4 recall is 100%.
        assert_eq!(idents.len(), 18, "{idents:?}");
        assert!(facts
            .iter()
            .any(|f| matches!(f, Fact::Transform { kind } if kind == "iocnr")));
        // Struct argument recovered from the call-site cast.
        assert!(facts.iter().any(|f| matches!(
            f,
            Fact::Ident { name, arg: ArgSig::StructPtr(s), .. }
            if name == "DM_VERSION" && s == "dm_ioctl"
        )));
    }

    #[test]
    fn type_stage_recovers_roles() {
        let bp = flagship::dm();
        let src = emit_blueprint(&bp);
        let file = cparse("dm.c", &src).unwrap();
        let source: Vec<String> = file.items.iter().map(|i| i.text.clone()).collect();
        let p = Prompt {
            task: Some(Task::Types),
            handler_var: Some("_dm_fops".into()),
            want_structs: vec!["dm_ioctl".into()],
            source,
            ..Prompt::default()
        };
        // Seed chosen so no defect fires for this handler.
        let model = OracleModel::new(ModelKind::Gpt4, 9);
        let facts = chat(&model, &p);
        let ty = facts
            .iter()
            .find_map(|f| match f {
                Fact::SyzType { c_name, text } if c_name == "dm_ioctl" => Some(text.clone()),
                _ => None,
            })
            .expect("dm_ioctl type");
        assert!(ty.contains("target_count len[targets"), "{ty}");
        assert!(
            ty.contains("flags flags[dm_flags_flags") || ty.contains("flags["),
            "{ty}"
        );
        // Nested struct is requested or resolved.
        assert!(
            ty.contains("dm_dm_target_spec")
                || facts
                    .iter()
                    .any(|f| matches!(f, Fact::UnknownStruct(n) if n == "dm_target_spec")),
            "{ty}"
        );
    }

    #[test]
    fn dependency_stage_finds_kvm_chain() {
        let bp = flagship::kvm();
        let src = emit_blueprint(&bp);
        let file = cparse("kvm.c", &src).unwrap();
        let source: Vec<String> = file.items.iter().map(|i| i.text.clone()).collect();
        let p = Prompt {
            task: Some(Task::Dependency),
            handler_var: Some("_kvm_fops".into()),
            source,
            ..Prompt::default()
        };
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let facts = chat(&model, &p);
        assert!(
            facts.iter().any(|f| matches!(
                f,
                Fact::CreatesFd { fops_var, cmd }
                if fops_var == "_kvm_vm_fops" && cmd == "KVM_CREATE_VM"
            )),
            "{facts:?}"
        );
    }

    #[test]
    fn opaque_runtime_dispatch_stops_analysis() {
        let bp = flagship::ptmx();
        let src = emit_blueprint(&bp);
        let file = cparse("ptmx.c", &src).unwrap();
        let source: Vec<String> = file.items.iter().map(|i| i.text.clone()).collect();
        let p = Prompt {
            task: Some(Task::Identifier),
            target_func: Some("ptmx_ctl_ioctl".into()),
            handler_var: Some("_ptmx_fops".into()),
            source,
            ..Prompt::default()
        };
        let model = OracleModel::new(ModelKind::Gpt4, 1);
        let facts = chat(&model, &p);
        let names: Vec<String> = facts
            .iter()
            .filter_map(|f| match f {
                Fact::Ident { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(!names.iter().any(|n| n.contains("TIOCLINUX")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("TIOCGPTN")), "{names:?}");
    }

    #[test]
    fn context_truncation_drops_late_commands() {
        // Same prompt, tiny window: GPT-3.5 on a big file.
        let bp = flagship::dm();
        let src = emit_blueprint(&bp);
        let file = cparse("dm.c", &src).unwrap();
        let source: Vec<String> = file.items.iter().map(|i| i.text.clone()).collect();
        let p = Prompt {
            task: Some(Task::Identifier),
            target_func: Some("dm_ctl_ioctl".into()),
            handler_var: Some("_dm_fops".into()),
            source,
            ..Prompt::default()
        };
        let strong = OracleModel::new(ModelKind::Gpt4, 0);
        let weak = OracleModel::new(ModelKind::Gpt35, 0);
        let strong_idents = chat(&strong, &p)
            .iter()
            .filter(|f| matches!(f, Fact::Ident { .. }))
            .count();
        let weak_idents = chat(&weak, &p)
            .iter()
            .filter(|f| matches!(f, Fact::Ident { .. }))
            .count();
        assert!(
            weak_idents < strong_idents,
            "{weak_idents} vs {strong_idents}"
        );
    }

    #[test]
    fn usage_metering_accumulates() {
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let p = prompt_for_dm(&[]);
        let _ = model.chat(&ChatRequest::new(p.render()));
        let _ = model.chat(&ChatRequest::new(p.render()));
        let u = model.total_usage();
        assert_eq!(u.requests, 2);
        assert!(u.input_tokens > 100);
        assert!(u.output_tokens > 5);
    }

    #[test]
    fn prefix_derivation() {
        assert_eq!(prefix_of_ops_var("_dm_fops"), "dm");
        assert_eq!(prefix_of_ops_var("rds_proto_ops"), "rds");
        assert_eq!(prefix_of_ops_var("_kvm_vm_fops"), "kvm_vm");
    }

    // ---- the memo is exact -------------------------------------------

    const KINDS: [ModelKind; 3] = [ModelKind::Gpt4, ModelKind::Gpt4o, ModelKind::Gpt35];

    /// The shared-parse answer equals the joined-parse oracle's, from
    /// `model` as it is (whatever it has read) and again now that it
    /// has read this request.
    fn assert_exact(model: &OracleModel, request: &ChatRequest) {
        let expected = model.answer_joined(request);
        for state in ["first", "again"] {
            assert_eq!(
                model.answer_shared(request),
                expected,
                "{state}, {:?}, prompt:\n{}",
                model.kind(),
                request.prompt
            );
        }
    }

    fn request(prompt: &Prompt, attempt: u32) -> ChatRequest {
        let mut r = ChatRequest::new(prompt.render());
        r.attempt = attempt;
        r
    }

    /// Prompts shaped like the pipeline's over one flagship file: the
    /// source list growing item by item under the identifier task,
    /// then every other task over all of it.
    fn flagship_prompts(src: &str) -> Vec<(Prompt, u32)> {
        let file = cparse("f.c", src).unwrap();
        let texts = |keep: &dyn Fn(&kgpt_csrc::ast::CItem) -> bool| -> Vec<String> {
            let kept = file.items.iter().filter(|i| keep(i));
            kept.map(|i| i.text.clone()).collect()
        };
        let ops = file.items.iter().find_map(|i| match &i.kind {
            CItemKind::Var(v) if v.ty.base == "struct file_operations" => {
                let entry = v.init.as_ref()?.init_field("unlocked_ioctl");
                Some((v.name.clone(), entry?.as_ident()?.to_string()))
            }
            CItemKind::Var(v) if v.ty.base == "struct proto_ops" => {
                let entry = v.init.as_ref()?.init_field("setsockopt");
                Some((v.name.clone(), entry?.as_ident()?.to_string()))
            }
            _ => None,
        });
        let (ops_var, entry) = ops.expect("a flagship file registers a handler");
        let all = texts(&|_| true);
        let base = Prompt {
            target_func: Some(entry),
            usage: texts(&|i| i.name() != ops_var && i.text.contains(&ops_var)),
            handler_var: Some(ops_var),
            ..Prompt::default()
        };
        let mut prompts = Vec::new();
        for shown in (1..=all.len()).step_by(all.len().div_ceil(6)) {
            let source = all[all.len() - shown..].to_vec();
            let task = Some(Task::Identifier);
            prompts.push((
                Prompt {
                    task,
                    source,
                    ..base.clone()
                },
                0,
            ));
        }
        let structs = file.items.iter().filter_map(|i| match &i.kind {
            CItemKind::Struct(s) => Some(s.name.clone()),
            _ => None,
        });
        let types = Prompt {
            task: Some(Task::Types),
            want_structs: structs.chain(["not_shown".to_string()]).collect(),
            source: all.clone(),
            target_func: None,
            usage: vec![],
            ..base.clone()
        };
        prompts.push((types, 0));
        for (task, attempt) in [
            (Task::Dependency, 0),
            (Task::AllInOne, 0),
            (Task::AllInOne, 1),
            (Task::Repair, 1),
        ] {
            let source = all.clone();
            prompts.push((
                Prompt {
                    task: Some(task),
                    source,
                    ..base.clone()
                },
                attempt,
            ));
        }
        prompts
    }

    #[test]
    fn shared_parses_answer_like_the_joined_parse_on_every_flagship_file() {
        let models = KINDS.map(|kind| OracleModel::new(kind, 7));
        for bp in flagship::all_flagships() {
            let prompts = flagship_prompts(&emit_blueprint(&bp));
            for model in &models {
                let before = model.reading().parsed_bytes;
                for (prompt, attempt) in &prompts {
                    assert_exact(model, &request(prompt, *attempt));
                }
                // Where the window cuts nothing, nothing is parsed
                // twice: every prompt is made of the file's items, and
                // the model parsed each of them at most once per
                // typedef scope it met it under (dm's table typedef).
                let parsed = model.reading().parsed_bytes - before;
                let all = &prompts.last().unwrap().0.source;
                let text: usize = all.iter().map(String::len).sum();
                let scopes = 1 + all.iter().filter(|t| t.starts_with("typedef")).count();
                if model.kind() != ModelKind::Gpt35 {
                    assert!(
                        parsed <= (text * scopes) as u64,
                        "{}: {parsed} > {text}",
                        bp.id
                    );
                }
            }
        }
    }

    fn source_prompt(task: Task, source: &[&str]) -> Prompt {
        Prompt {
            task: Some(task),
            target_func: Some("x_ioctl".into()),
            handler_var: Some("_x_fops".into()),
            source: source.iter().map(|s| (*s).to_string()).collect(),
            ..Prompt::default()
        }
    }

    const DISPATCH: &str = "static long x_ioctl(struct file *file, unsigned int cmd, unsigned long arg) {\n\tswitch (cmd) {\n\tcase X_SET:\n\t\treturn x_set(file, (struct x_args *)arg);\n\tcase X_GET:\n\t\treturn x_get(file, arg);\n\t}\n\treturn -25;\n}";
    const ARGS: &str =
        "struct x_args {\n\t__u32 len;\n\t__u32 flags;\n\tqid_t id;\n\t__u64 data[4];\n};";
    const SET: &str = "static int x_set(struct file *file, struct x_args *p) {\n\tif (p->flags & ~3)\n\t\treturn -22;\n\tp->id = x_alloc_queue((qid_t)p->len);\n\treturn 0;\n}";

    #[test]
    fn a_typedef_chunk_changes_how_the_chunks_after_it_read() {
        let typedef = "typedef __u32 qid_t;";
        for kind in KINDS {
            // `SET` casts to `qid_t`: it only parses after the typedef.
            let with = source_prompt(Task::AllInOne, &[typedef, DISPATCH, ARGS, SET]);
            let without = source_prompt(Task::AllInOne, &[DISPATCH, ARGS, SET]);
            let after = source_prompt(Task::AllInOne, &[DISPATCH, ARGS, SET, typedef]);
            let cold = OracleModel::new(kind, 3);
            assert_exact(&cold, &request(&with, 0));
            // The same chunk, shown first without its typedef to a
            // model that has read it with: a different key, a
            // different (here: no) parse, the joined path.
            assert_exact(&cold, &request(&without, 0));
            assert_exact(&cold, &request(&after, 0));
            assert_ne!(
                cold.answer_shared(&request(&with, 0)),
                cold.answer_shared(&request(&without, 0))
            );
            // And in the other order, on a fresh model.
            let fresh = OracleModel::new(kind, 3);
            assert_exact(&fresh, &request(&without, 0));
            assert_exact(&fresh, &request(&with, 0));
        }
    }

    #[test]
    fn a_blank_line_inside_a_function_sends_the_section_down_the_joined_path() {
        let holed = DISPATCH.replace("\tcase X_GET:", "\n\tcase X_GET:");
        assert_eq!(chunks(&holed).count(), 2);
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let prompt = source_prompt(Task::Identifier, &[&holed, ARGS]);
        assert_exact(&model, &request(&prompt, 0));
        let facts = model.answer_shared(&request(&prompt, 0));
        let idents = facts.iter().filter(|f| matches!(f, Fact::Ident { .. }));
        assert_eq!(idents.count(), 2, "{facts:?}");
        // The halves have no parse of their own, so each request reads
        // the joined text again; the whole chunks are still kept.
        let before = model.reading().parsed_bytes;
        model.answer_shared(&request(&prompt, 0));
        let joined = holed.len() + 2 + ARGS.len();
        assert_eq!(model.reading().parsed_bytes - before, joined as u64);
    }

    #[test]
    fn the_same_text_under_two_handlers_is_read_once_and_answered_for_each() {
        let model = OracleModel::new(ModelKind::Gpt4, 5);
        let mut one = source_prompt(Task::Types, &[ARGS, "typedef __u32 qid_t;", SET]);
        one.want_structs = vec!["x_args".into()];
        let mut two = one.clone();
        two.handler_var = Some("_y_fops".into());
        assert_exact(&model, &request(&one, 0));
        let read = model.reading().parsed_bytes;
        assert_exact(&model, &request(&two, 0));
        assert_eq!(
            model.reading().parsed_bytes,
            read,
            "the second handler parsed nothing"
        );
        let (a, b) = (
            model.answer_shared(&request(&one, 0)),
            model.answer_shared(&request(&two, 0)),
        );
        assert!(a
            .iter()
            .any(|f| matches!(f, Fact::SyzType { text, .. } if text.starts_with("x_x_args"))));
        assert!(b
            .iter()
            .any(|f| matches!(f, Fact::SyzType { text, .. } if text.starts_with("y_x_args"))));
    }

    #[test]
    fn a_later_chunk_shadows_an_earlier_definition_as_in_the_joined_text() {
        let narrow = "struct x_args {\n\t__u8 len;\n};";
        let proto = "static int x_set(struct file *file, struct x_args *p);";
        for kind in KINDS {
            let model = OracleModel::new(kind, 2);
            for source in [
                [ARGS, narrow, DISPATCH, SET],
                [narrow, ARGS, DISPATCH, SET],
                [ARGS, DISPATCH, SET, proto],
                [ARGS, DISPATCH, proto, SET],
            ] {
                let mut prompt = source_prompt(Task::AllInOne, &source);
                prompt.source.insert(0, "typedef __u32 qid_t;".into());
                assert_exact(&model, &request(&prompt, 1));
            }
        }
    }

    #[test]
    fn a_prompt_cut_anywhere_in_its_last_chunk_is_answered_like_the_joined_parse() {
        // The last chunk holds a multi-byte character, a string, a
        // comment and a typedef — everything a cut can leave open.
        let last = "typedef __u32 cut_t;\n/* é */ static int x_get(struct file *file, unsigned long arg) {\n\tchar *s = \"né\";\n\treturn x_lookup_queue((cut_t)arg) ? 0 : -2;\n}";
        let prompt = source_prompt(
            Task::AllInOne,
            &["typedef __u32 qid_t;", DISPATCH, ARGS, SET, last],
        );
        let text = prompt.render();
        let from = text.find("typedef __u32 cut_t").unwrap();
        for kind in KINDS {
            let warm = OracleModel::new(kind, 11);
            assert_exact(&warm, &ChatRequest::new(text.clone()));
            for cut in from..=text.len() {
                // What the context window does with a cut inside a character.
                let cut = (0..=cut).rev().find(|c| text.is_char_boundary(*c)).unwrap();
                let cut_request = ChatRequest::new(text[..cut].to_string());
                assert_exact(&warm, &cut_request);
                assert_exact(&OracleModel::new(kind, 11), &cut_request);
            }
        }
    }

    #[test]
    fn the_context_window_cuts_at_a_character_boundary() {
        let model = OracleModel::new(ModelKind::Gpt35, 0);
        let window = 16_000 * 4;
        // `é` straddles the end of the window.
        let filler = "#define PAD 1\n\n".repeat(window / 15);
        let mut prompt = source_prompt(Task::AllInOne, &[DISPATCH]).render();
        prompt.push_str(&filler);
        prompt.truncate(window - 1);
        prompt.push_str("é tail");
        assert!(!prompt.is_char_boundary(window));
        assert_eq!(model.window(&prompt).len(), window - 1);
        assert_exact(&model, &ChatRequest::new(prompt));
        assert_eq!(model.window("short"), "short");
    }

    #[test]
    fn what_a_model_has_read_is_counted_and_a_chunk_is_parsed_once() {
        let model = OracleModel::new(ModelKind::Gpt4, 0);
        let mut prompt = source_prompt(Task::Identifier, &[DISPATCH, ARGS]);
        prompt.usage = vec![ARGS.to_string()];
        let shown = (DISPATCH.len() + 2 * ARGS.len()) as u64;
        for round in 1..=3 {
            let _ = model.chat(&request(&prompt, 0));
            let reading = model.reading();
            assert_eq!(reading.shown_bytes, round * shown);
            // `ARGS` is shown in both sections and parsed for one.
            assert_eq!(reading.parsed_bytes, (DISPATCH.len() + ARGS.len()) as u64);
        }
        // Nothing is shared between models.
        assert_eq!(
            OracleModel::new(ModelKind::Gpt4, 0).reading(),
            Reading::default()
        );
    }
}
