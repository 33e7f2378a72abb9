//! # kgpt-syzdescribe
//!
//! A faithful model of **SyzDescribe** (Hao et al., S&P '23), the
//! rule-based static-analysis baseline KernelGPT is compared against.
//!
//! The rules implemented here are the ones the paper documents —
//! including their known failure modes, which the evaluation depends
//! on reproducing:
//!
//! * device name from `miscdevice.name` **only** — `.nodename` is not
//!   modelled, so the device-mapper path comes out wrong (Figure 2c);
//! * `device_create` format strings are copied literally, so indexed
//!   names (`controlC%i`) produce unopenable paths (Table 5 "Err");
//! * the **post-transform** command value is used when the handler
//!   rewrites `cmd` (`cmd = _IOC_NR(command)`), which fails the magic
//!   check at runtime (Figure 2c "Wrong CMD value");
//! * struct fields are recovered positionally as `field_0 …` with no
//!   semantic relations (no `len[...]`, no flags, no ranges — Figure 5);
//! * commands whose argument type is ambiguous are described twice with
//!   different types (the duplicate-description inflation of §5.2.1);
//! * sockets are not supported at all (`N/A` columns);
//! * lookup-table dispatch and runtime-registered tables are not
//!   followed (only `switch`/`if` chains, plus direct delegation).

use kgpt_csrc::ast::{CItemKind, CStructDef, CType, CaseLabel, Expr, Stmt};
use kgpt_csrc::Corpus;
use kgpt_extractor::{HandlerKind, OpHandler};
use kgpt_syzlang as syz;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use syz::{ConstExpr, Dir, IntBits, Item, Param, Resource, SpecFile, Syscall, Type};

/// Outcome of the static generator on one handler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticOutcome {
    /// Handler ops-variable.
    pub ops_var: String,
    /// Driver or socket.
    pub kind: HandlerKind,
    /// Generated spec (`None` for sockets and for handlers the rules
    /// cannot process).
    pub spec: Option<SpecFile>,
    /// Whether the spec validates in the merged suite.
    pub valid: bool,
    /// Validation errors (if any).
    pub errors: Vec<String>,
}

impl StaticOutcome {
    /// Syscalls described.
    #[must_use]
    pub fn syscall_count(&self) -> usize {
        self.spec.as_ref().map_or(0, |s| s.syscalls().count())
    }

    /// Types described.
    #[must_use]
    pub fn type_count(&self) -> usize {
        self.spec.as_ref().map_or(0, |s| s.structs().count())
    }
}

/// Run SyzDescribe over a set of handlers and validate the merged
/// output. The rules are deterministic, so merged validation compiles
/// through the global [`syz::SpecCache`] — sweeps that re-describe
/// the same handlers (Table 5/6 harnesses) validate against a cached
/// database instead of re-parsing the suite per call.
#[must_use]
pub fn describe_all(
    corpus: &Corpus,
    handlers: &[OpHandler],
    consts: &syz::ConstDb,
) -> Vec<StaticOutcome> {
    let mut outcomes: Vec<StaticOutcome> = handlers
        .iter()
        .map(|h| StaticOutcome {
            ops_var: h.ops_var.clone(),
            kind: h.kind,
            spec: describe_one(corpus, h),
            valid: false,
            errors: Vec::new(),
        })
        .collect();
    let specs = outcomes.iter().filter_map(|o| o.spec.as_ref());
    let db = syz::SpecCache::global().get_or_build(specs);
    let errors = syz::validate::validate(&db, consts);
    for o in &mut outcomes {
        let Some(spec) = &o.spec else { continue };
        o.errors = errors
            .iter()
            .filter(|e| spec.defines(&e.item))
            .map(ToString::to_string)
            .collect();
        o.valid = o.errors.is_empty();
    }
    outcomes
}

/// Generate a description for one handler with the static rules.
#[must_use]
pub fn describe_one(corpus: &Corpus, handler: &OpHandler) -> Option<SpecFile> {
    if handler.kind == HandlerKind::Socket {
        return None; // not supported
    }
    let prefix = prefix_of(&handler.ops_var);
    let fd_res = format!("fd_{prefix}");
    let mut items = vec![Item::Resource(Resource {
        name: fd_res.clone(),
        base: "fd".into(),
        values: Vec::new(),
    })];
    // RULE: device path = miscdevice .name, else device_create /
    // proc_create literal, else guess /dev/<prefix>.
    let path = device_path_rule(corpus, handler).unwrap_or(format!("/dev/{prefix}"));
    items.push(Item::Syscall(Syscall {
        base: "openat".into(),
        variant: Some(prefix.clone()),
        params: vec![
            Param::new("dir", Type::sym_const("AT_FDCWD", IntBits::I64)),
            Param::new(
                "file",
                Type::ptr(Dir::In, Type::StringLit { values: vec![path] }),
            ),
            Param::new(
                "flags",
                Type::Const {
                    value: ConstExpr::Num(2),
                    bits: IntBits::I64,
                },
            ),
            Param::new(
                "mode",
                Type::Const {
                    value: ConstExpr::Num(0),
                    bits: IntBits::I64,
                },
            ),
        ],
        ret: Some(fd_res.clone()),
    }));
    // RULE: follow the registered ioctl fn through direct delegation
    // (bounded), then read switch/if-chain labels. Lookup tables and
    // runtime tables are invisible to the rules.
    let mut cmds: Vec<(ConstExpr, Option<String>, Option<String>)> = Vec::new();
    if let Some(entry) = &handler.ioctl_fn {
        let mut seen = BTreeSet::new();
        collect_cases(corpus, entry, &mut cmds, &mut seen, 0);
    }
    let mut structs_needed: BTreeSet<String> = BTreeSet::new();
    let mut counter = 0usize;
    for (label, _handler_fn, struct_arg) in &cmds {
        counter += 1;
        let cmd_ty = Type::Const {
            value: label.clone(),
            bits: IntBits::I64,
        };
        match struct_arg {
            Some(sname) => {
                structs_needed.insert(sname.clone());
                items.push(Item::Syscall(Syscall {
                    base: "ioctl".into(),
                    variant: Some(variant_for(label, counter)),
                    params: vec![
                        Param::new("fd", Type::Resource(fd_res.clone())),
                        Param::new("cmd", cmd_ty.clone()),
                        Param::new(
                            "arg",
                            Type::ptr(Dir::In, Type::Named(format!("{prefix}_{sname}"))),
                        ),
                    ],
                    ret: None,
                }));
                // FAILURE MODE: ambiguous rules ALSO emit a second
                // buffer-typed variant for the same command.
                items.push(Item::Syscall(Syscall {
                    base: "ioctl".into(),
                    variant: Some(format!("{}_2", variant_for(label, counter))),
                    params: vec![
                        Param::new("fd", Type::Resource(fd_res.clone())),
                        Param::new("cmd", cmd_ty),
                        Param::new("arg", Type::ptr(Dir::In, Type::buffer())),
                    ],
                    ret: None,
                }));
            }
            None => {
                items.push(Item::Syscall(Syscall {
                    base: "ioctl".into(),
                    variant: Some(variant_for(label, counter)),
                    params: vec![
                        Param::new("fd", Type::Resource(fd_res.clone())),
                        Param::new("cmd", cmd_ty),
                        Param::new("arg", Type::ptr(Dir::In, Type::buffer())),
                    ],
                    ret: None,
                }));
            }
        }
    }
    if cmds.is_empty() {
        return None; // nothing recovered — the handler is unsupported
    }
    // RULE: struct recovery with positional field names, no semantics.
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<String> = structs_needed.into_iter().collect();
    while let Some(name) = queue.pop() {
        if !emitted.insert(name.clone()) {
            continue;
        }
        if let Some(def) = corpus.struct_def(&name) {
            let (sd, nested) = lower_struct(&prefix, def);
            items.push(Item::Struct(sd));
            queue.extend(nested);
        }
    }
    Some(SpecFile {
        name: format!("{prefix}_syzdescribe.txt"),
        items,
    })
}

fn prefix_of(ops_var: &str) -> String {
    ops_var
        .trim_start_matches('_')
        .trim_end_matches("_fops")
        .to_string()
}

fn variant_for(label: &ConstExpr, counter: usize) -> String {
    match label {
        ConstExpr::Sym(s) => s.clone(),
        ConstExpr::Num(n) => format!("{n:x}_{counter}"),
    }
}

fn device_path_rule(_corpus: &Corpus, handler: &OpHandler) -> Option<String> {
    for usage in &handler.usage {
        // Parse each usage item; rules only look at miscdevice.name and
        // registration calls.
        let Ok(file) = kgpt_csrc::parser::cparse("usage.c", usage) else {
            continue;
        };
        for item in &file.items {
            match &item.kind {
                CItemKind::Var(v) if v.ty.base == "struct miscdevice" => {
                    // THE documented failure: `.name`, never `.nodename`.
                    if let Some(n) = v
                        .init
                        .as_ref()
                        .and_then(|i| i.init_field("name"))
                        .and_then(Expr::as_str)
                    {
                        return Some(format!("/dev/{n}"));
                    }
                }
                CItemKind::Function(f) => {
                    let mut found = None;
                    kgpt_csrc::ast::walk_exprs(&f.body, &mut |e| {
                        if let Expr::Call { func, args } = e {
                            if func == "device_create" {
                                // Literal copy — `%i` kept verbatim.
                                if let Some(s) =
                                    args.iter().find_map(|a| a.as_str().map(str::to_string))
                                {
                                    found = Some(format!("/dev/{s}"));
                                }
                            } else if func == "proc_create" {
                                if let Some(s) =
                                    args.iter().find_map(|a| a.as_str().map(str::to_string))
                                {
                                    found = Some(format!("/proc/{s}"));
                                }
                            }
                        }
                    });
                    if found.is_some() {
                        return found;
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Collect `(label, handler_fn, struct_arg)` rows from switch/if
/// dispatch, following direct delegation up to 2 hops.
fn collect_cases(
    corpus: &Corpus,
    func: &str,
    out: &mut Vec<(ConstExpr, Option<String>, Option<String>)>,
    seen: &mut BTreeSet<String>,
    depth: usize,
) {
    if depth > 2 || !seen.insert(func.to_string()) {
        return;
    }
    let Some(f) = corpus.function(func) else {
        return;
    };
    if f.is_proto {
        return;
    }
    let mut found_cases = false;
    kgpt_csrc::ast::walk_stmts(&f.body, &mut |s| match s {
        Stmt::Switch { cases, .. } => {
            for case in cases {
                for label in &case.labels {
                    if let CaseLabel::Expr(e) = label {
                        found_cases = true;
                        if let Some(row) = case_row(e, &case.body) {
                            out.push(row);
                        }
                    }
                }
            }
        }
        Stmt::If {
            cond: Expr::Binary { op: "==", lhs, rhs },
            then,
            ..
        } => {
            if matches!(lhs.as_ref(), Expr::Ident(i) if i == "cmd") {
                found_cases = true;
                if let Some(row) = case_row(rhs, then) {
                    out.push(row);
                }
            }
        }
        _ => {}
    });
    if !found_cases {
        // Direct delegation only: `return g(...)`.
        let mut tails = Vec::new();
        kgpt_csrc::ast::walk_stmts(&f.body, &mut |s| {
            if let Stmt::Return(Some(Expr::Call { func: g, .. })) = s {
                tails.push(g.clone());
            }
        });
        for g in tails {
            collect_cases(corpus, &g, out, seen, depth + 1);
        }
    }
}

fn case_row(label: &Expr, body: &[Stmt]) -> Option<(ConstExpr, Option<String>, Option<String>)> {
    // THE cmd-value failure mode: the label expression is evaluated
    // *as written post-transform* — `_IOC_NR(CMD)` becomes the bare
    // command number, not the full encoded value.
    let value = match label {
        Expr::Ident(n) => ConstExpr::Sym(n.clone()),
        Expr::Num(n) => ConstExpr::Num(*n),
        Expr::Call { func, args } if func == "_IOC_NR" => {
            // Rules know the _IOC_NR bit layout; they extract the nr —
            // which is the wrong value to pass from userspace.
            match args.first()? {
                Expr::Ident(n) => ConstExpr::Sym(format!("_IOC_NR_{n}")),
                Expr::Num(n) => ConstExpr::Num(*n & 0xff),
                _ => return None,
            }
        }
        Expr::Binary { op: "&", lhs, rhs } => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Ident(n), Expr::Num(_)) => ConstExpr::Sym(format!("MASKED_{n}")),
            _ => return None,
        },
        _ => return None,
    };
    let mut handler_fn = None;
    let mut struct_arg = None;
    kgpt_csrc::ast::walk_stmts(body, &mut |s| {
        if let Stmt::Return(Some(Expr::Call { func, args })) = s {
            handler_fn = Some(func.clone());
            for a in args {
                if let Expr::Cast { ty, .. } = a {
                    if let Some(tag) = ty.struct_tag() {
                        struct_arg = Some(tag.to_string());
                    }
                }
            }
        }
    });
    Some((value, handler_fn, struct_arg))
}

/// Positional lowering: `field_N`, widths preserved, no semantics;
/// unions collapse to byte arrays. Returns nested struct names.
fn lower_struct(prefix: &str, def: &CStructDef) -> (syz::StructDef, Vec<String>) {
    let mut nested = Vec::new();
    if def.is_union {
        return (
            syz::StructDef {
                name: format!("{prefix}_{}", def.name),
                fields: vec![syz::Field::new(
                    "field_0",
                    Type::Array {
                        elem: Box::new(Type::int(IntBits::I8)),
                        len: syz::ArrayLen::Fixed(8),
                    },
                )],
                is_union: false,
                packed: false,
            },
            nested,
        );
    }
    let fields = def
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let ty = lower_type(prefix, &f.ty, &mut nested);
            syz::Field::new(format!("field_{i}"), ty)
        })
        .collect();
    (
        syz::StructDef {
            name: format!("{prefix}_{}", def.name),
            fields,
            is_union: false,
            packed: false,
        },
        nested,
    )
}

fn lower_type(prefix: &str, ty: &CType, nested: &mut Vec<String>) -> Type {
    use kgpt_csrc::ast::CArraySize;
    let base = if let Some(tag) = ty.struct_tag() {
        nested.push(tag.to_string());
        Type::Named(format!("{prefix}_{tag}"))
    } else if ty.ptr > 0 {
        Type::int(IntBits::I64)
    } else {
        match ty.base.as_str() {
            "char" | "uchar" | "u8" | "s8" | "__u8" | "__s8" | "bool" => Type::int(IntBits::I8),
            "short" | "ushort" | "u16" | "s16" | "__u16" | "__s16" | "__le16" | "__be16" => {
                Type::int(IntBits::I16)
            }
            "long" | "ulong" | "u64" | "s64" | "__u64" | "__s64" | "__le64" | "__be64"
            | "size_t" | "loff_t" => Type::int(IntBits::I64),
            _ => Type::int(IntBits::I32),
        }
    };
    match &ty.array {
        Some(CArraySize::Fixed(n)) => Type::Array {
            elem: Box::new(base),
            len: syz::ArrayLen::Fixed(*n),
        },
        Some(CArraySize::Named(_)) => Type::Array {
            elem: Box::new(base),
            len: syz::ArrayLen::Fixed(1), // rules cannot resolve macros
        },
        Some(CArraySize::Flex) => Type::Array {
            elem: Box::new(base),
            len: syz::ArrayLen::Unsized,
        },
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::KernelCorpus;
    use kgpt_extractor::find_handlers;

    fn run(bp: kgpt_csrc::Blueprint) -> (KernelCorpus, Vec<StaticOutcome>) {
        let kc = KernelCorpus::from_blueprints(vec![bp]);
        let handlers = find_handlers(kc.corpus());
        let outs = describe_all(kc.corpus(), &handlers, kc.consts());
        (kc, outs)
    }

    #[test]
    fn dm_gets_wrong_device_name_and_no_commands() {
        // dm: nodename registration + lookup-table dispatch — both rules
        // fail exactly as in the paper's Figure 2c.
        let (_, outs) = run(kgpt_csrc::flagship::dm());
        let o = &outs[0];
        match &o.spec {
            None => {} // lookup table invisible → nothing recovered
            Some(s) => {
                let text = syz::print_file(s);
                assert!(
                    text.contains("/dev/dm-controller"),
                    "must use .name, got:\n{text}"
                );
            }
        }
    }

    #[test]
    fn switch_driver_described_with_positional_fields() {
        let (_, outs) = run(kgpt_csrc::flagship::cec());
        let o = &outs[0];
        let spec = o.spec.as_ref().expect("cec is switch-dispatched");
        let text = syz::print_file(spec);
        // Indexed cdev registration: the literal pattern is copied.
        assert!(text.contains("/dev/cec%i"), "{text}");
        assert!(text.contains("field_0"), "{text}");
        assert!(!text.contains("len["), "no semantic relations: {text}");
        assert!(o.valid, "{:?}", o.errors);
    }

    #[test]
    fn duplicate_variants_inflate_syscall_counts() {
        let (_, outs) = run(kgpt_csrc::flagship::cec());
        let spec = outs[0].spec.as_ref().unwrap();
        let names: Vec<String> = spec.syscalls().map(|s| s.name()).collect();
        assert!(
            names.iter().any(|n| n.ends_with("_2")),
            "expected duplicate buffer variants: {names:?}"
        );
    }

    #[test]
    fn sockets_unsupported() {
        let (_, outs) = run(kgpt_csrc::flagship::rds());
        assert!(outs[0].spec.is_none());
    }

    #[test]
    fn indexed_cdev_name_copied_literally() {
        let (_, outs) = run(kgpt_csrc::flagship::controlc());
        let o = &outs[0];
        let spec = o.spec.as_ref().expect("switch dispatch is supported");
        let text = syz::print_file(spec);
        assert!(
            text.contains("controlC%i"),
            "pattern must be copied verbatim: {text}"
        );
    }

    #[test]
    fn hidden_commands_not_found() {
        let (_, outs) = run(kgpt_csrc::flagship::ptmx());
        let spec = outs[0].spec.as_ref().unwrap();
        let text = syz::print_file(spec);
        assert!(!text.contains("TIOCLINUX"), "{text}");
        assert!(text.contains("TIOCGPTN"), "{text}");
    }

    #[test]
    fn flagship_suite_mostly_validates() {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        let outs = describe_all(kc.corpus(), &handlers, kc.consts());
        let described = outs.iter().filter(|o| o.spec.is_some()).count();
        let valid = outs.iter().filter(|o| o.valid).count();
        // Rules handle a strict subset of handlers; valid ≤ described.
        assert!(described >= 15, "described={described}");
        assert!(valid <= described);
    }
}
