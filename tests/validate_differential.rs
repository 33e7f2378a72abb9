//! The merged-suite validator against its oracle.
//!
//! `validate` reads a compiled suite in place: resource production
//! from the producer table `SpecDb::from_files` builds in one sweep,
//! duplicate names compared and hashed where they lie, an item's name
//! built only when it has an error. The validator before it — which
//! asked `SpecDb::producers_of` once per consumed resource, keyed every
//! item by a `format!`ed name and allocated each syscall's name and
//! sibling list — is kept below verbatim as `oracle` (its imports
//! adapted to this crate), and the two must return equal error lists,
//! error for error and in order, on every suite the repo can build:
//! each blueprint's ground truth, the merged ground truth, the existing
//! suite, the GPT-4 / GPT-4o / GPT-3.5 × iterative / all-in-one suites
//! before and after repair, SyzDescribe's, the synthetic population's
//! and deep-chain's — and on seeded mutations that make every error
//! class fire. The same suites hold the producer table and
//! `LoweredDb`'s producer lists to `producers_of`, their oracle.
//!
//! The full-corpus cell (751 handlers) runs in release builds only;
//! CI's "Differential crate tests (release)" step runs it.

use kernelgpt::core::{KernelGpt, Strategy};
use kernelgpt::csrc::synth::{self, SynthPlan};
use kernelgpt::csrc::{deepchain, flagship, Blueprint, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::llm::{ModelKind, OracleModel};
use kernelgpt::syzdescribe::describe_one;
use kernelgpt::syzlang::validate::{validate, SpecErrorKind};
use kernelgpt::syzlang::{
    parse, ConstDb, ConstExpr, Dir, Field, IntBits, Item, LoweredDb, Param, Resource, SpecDb,
    SpecFile, StructDef, Syscall, Type,
};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

// The oracle names `crate::ast::…`, as it did inside `kgpt-syzlang`.
use kernelgpt::syzlang::ast;

/// The validator as it stood before the producer table: verbatim.
mod oracle {
    use kernelgpt::syzlang::ast::{ConstExpr, Field, Item, Param, StructDef, Syscall, Type};
    use kernelgpt::syzlang::layout::{struct_layout, LayoutError};
    use kernelgpt::syzlang::validate::{SpecError, SpecErrorKind, ARITY};
    use kernelgpt::syzlang::{ConstDb, SpecDb};
    use std::collections::BTreeSet;

    /// Validate a database against a constant table.
    ///
    /// Returns all errors found (empty when the specification is valid).
    #[must_use]
    pub fn validate(db: &SpecDb, consts: &ConstDb) -> Vec<SpecError> {
        let mut errors = Vec::new();
        check_duplicates(db, &mut errors);
        for s in db.syscalls() {
            check_syscall(s, db, consts, &mut errors);
        }
        for def in db.structs() {
            check_struct(def, db, consts, &mut errors);
        }
        for r in db.resources() {
            if db.resource_bits(&r.name).is_none() {
                errors.push(SpecError {
                    kind: SpecErrorKind::UndefinedType(r.base.clone()),
                    item: r.name.clone(),
                });
            }
        }
        for fl in db.flag_sets() {
            for v in &fl.values {
                check_const(v, consts, &fl.name, &mut errors);
            }
        }
        check_resource_production(db, &mut errors);
        errors
    }

    fn check_duplicates(db: &SpecDb, errors: &mut Vec<SpecError>) {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut seen_resources: Vec<&crate::ast::Resource> = Vec::new();
        for f in db.files() {
            for item in &f.items {
                let name = item.name();
                // Identical resource redeclarations are tolerated: suite
                // files each declare the shared resources they produce.
                if let Item::Resource(r) = item {
                    if let Some(prev) = seen_resources.iter().find(|p| p.name == r.name) {
                        if *prev != r {
                            errors.push(SpecError {
                                kind: SpecErrorKind::DuplicateDefinition(name.clone()),
                                item: name,
                            });
                        }
                        continue;
                    }
                    seen_resources.push(r);
                    continue;
                }
                // Syscalls and types live in different namespaces.
                let key = match item {
                    Item::Syscall(_) => format!("call:{name}"),
                    _ => format!("type:{name}"),
                };
                if !seen.insert(key) {
                    errors.push(SpecError {
                        kind: SpecErrorKind::DuplicateDefinition(name.clone()),
                        item: name,
                    });
                }
            }
        }
    }

    fn check_syscall(s: &Syscall, db: &SpecDb, consts: &ConstDb, errors: &mut Vec<SpecError>) {
        let item = s.name();
        if let Some((_, expected)) = ARITY.iter().find(|(b, _)| *b == s.base) {
            if s.params.len() != *expected {
                errors.push(SpecError {
                    kind: SpecErrorKind::BadArgCount {
                        expected: *expected,
                        found: s.params.len(),
                    },
                    item: item.clone(),
                });
            }
        }
        let siblings: Vec<&str> = s.params.iter().map(|p| p.name.as_str()).collect();
        for Param { name, ty } in &s.params {
            if !is_register_type(ty) {
                errors.push(SpecError {
                    kind: SpecErrorKind::NonScalarArg(name.clone()),
                    item: item.clone(),
                });
            }
            check_type(ty, db, consts, &item, &siblings, errors);
        }
        if let Some(ret) = &s.ret {
            if db.resource(ret).is_none() {
                errors.push(SpecError {
                    kind: SpecErrorKind::UndefinedType(ret.clone()),
                    item: item.clone(),
                });
            }
        }
    }

    fn is_register_type(ty: &Type) -> bool {
        matches!(
            ty,
            Type::Int { .. }
                | Type::Const { .. }
                | Type::Flags { .. }
                | Type::Len { .. }
                | Type::Bytesize { .. }
                | Type::Proc { .. }
                | Type::Resource(_)
                | Type::Ptr { .. }
        )
    }

    fn check_struct(def: &StructDef, db: &SpecDb, consts: &ConstDb, errors: &mut Vec<SpecError>) {
        if def.fields.is_empty() {
            errors.push(SpecError {
                kind: SpecErrorKind::EmptyStruct(def.name.clone()),
                item: def.name.clone(),
            });
            return;
        }
        match struct_layout(def, db) {
            Err(LayoutError::Recursive(n)) => errors.push(SpecError {
                kind: SpecErrorKind::RecursiveType(n),
                item: def.name.clone(),
            }),
            // Unknown types are reported with precise context below.
            Err(LayoutError::UnknownType(_)) | Ok(_) => {}
        }
        let siblings: Vec<&str> = def.fields.iter().map(|f| f.name.as_str()).collect();
        for Field { ty, .. } in &def.fields {
            check_type(ty, db, consts, &def.name, &siblings, errors);
        }
    }

    fn check_type(
        ty: &Type,
        db: &SpecDb,
        consts: &ConstDb,
        item: &str,
        siblings: &[&str],
        errors: &mut Vec<SpecError>,
    ) {
        match ty {
            Type::Const { value, .. } => check_const(value, consts, item, errors),
            Type::Flags { set, .. } if db.flags_def(set).is_none() => {
                errors.push(SpecError {
                    kind: SpecErrorKind::UnknownFlagSet(set.clone()),
                    item: item.to_string(),
                });
            }
            Type::Len { target, .. } | Type::Bytesize { target, .. }
                if !siblings.contains(&target.as_str()) =>
            {
                errors.push(SpecError {
                    kind: SpecErrorKind::BadLenTarget(target.clone()),
                    item: item.to_string(),
                });
            }
            Type::Resource(name) if db.resource(name).is_none() => {
                errors.push(SpecError {
                    kind: SpecErrorKind::UndefinedType(name.clone()),
                    item: item.to_string(),
                });
            }
            Type::Named(name) if db.struct_def(name).is_none() && db.resource(name).is_none() => {
                errors.push(SpecError {
                    kind: SpecErrorKind::UndefinedType(name.clone()),
                    item: item.to_string(),
                });
            }
            Type::Ptr { elem, .. } => check_type(elem, db, consts, item, siblings, errors),
            Type::Array { elem, .. } => check_type(elem, db, consts, item, siblings, errors),
            _ => {}
        }
    }

    fn check_const(value: &ConstExpr, consts: &ConstDb, item: &str, errors: &mut Vec<SpecError>) {
        if let ConstExpr::Sym(name) = value {
            if !consts.contains(name) {
                errors.push(SpecError {
                    kind: SpecErrorKind::UnknownConst(name.clone()),
                    item: item.to_string(),
                });
            }
        }
    }

    fn check_resource_production(db: &SpecDb, errors: &mut Vec<SpecError>) {
        // A resource consumed by some syscall must be produced by some
        // syscall; builtins (plain `fd`, `sock`, …) are exempt because the
        // kernel provides generic producers.
        let mut consumed: BTreeSet<&str> = BTreeSet::new();
        for s in db.syscalls() {
            for p in &s.params {
                collect_consumed(&p.ty, &mut consumed);
            }
        }
        for r in db.resources() {
            if consumed.contains(r.name.as_str()) && db.producers_of(&r.name).next().is_none() {
                errors.push(SpecError {
                    kind: SpecErrorKind::UnproducedResource(r.name.clone()),
                    item: r.name.clone(),
                });
            }
        }
    }

    fn collect_consumed<'a>(ty: &'a Type, out: &mut BTreeSet<&'a str>) {
        match ty {
            Type::Resource(n) => {
                out.insert(n);
            }
            Type::Ptr { elem, dir } => {
                // Out-pointers *produce* the resource; only in/inout consume.
                if matches!(dir, crate::ast::Dir::In | crate::ast::Dir::InOut) {
                    collect_consumed(elem, out);
                }
            }
            Type::Array { elem, .. } => collect_consumed(elem, out),
            _ => {}
        }
    }
}

/// Validates `files` with both validators and requires one error list;
/// holds the producer table and the lowered producer lists to
/// `producers_of`. Returns how many errors there were.
fn check(files: Vec<SpecFile>, consts: &ConstDb, what: &str) -> usize {
    let db = SpecDb::from_files(files);
    let errors = validate(&db, consts);
    assert_eq!(errors, oracle::validate(&db, consts), "{what}");
    check_producers(&db, consts, what);
    errors.len()
}

/// Every resource name a suite mentions: declared, builtin, returned or
/// referenced.
fn resource_names(db: &SpecDb) -> Vec<&str> {
    fn refs<'a>(ty: &'a Type, out: &mut Vec<&'a str>) {
        match ty {
            Type::Resource(n) => out.push(n),
            Type::Ptr { elem, .. } | Type::Array { elem, .. } => refs(elem, out),
            _ => {}
        }
    }
    let mut names: Vec<&str> = kernelgpt::syzlang::db::BUILTIN_RESOURCES
        .iter()
        .map(|(n, _)| *n)
        .collect();
    names.extend(db.resources().map(|r| r.name.as_str()));
    for s in db.syscalls() {
        names.extend(s.ret.as_deref());
        s.params.iter().for_each(|p| refs(&p.ty, &mut names));
    }
    db.structs()
        .flat_map(|s| &s.fields)
        .for_each(|f| refs(&f.ty, &mut names));
    names.sort_unstable();
    names.dedup();
    names
}

fn check_producers(db: &SpecDb, consts: &ConstDb, what: &str) {
    let lowered = LoweredDb::build(db, consts);
    for name in resource_names(db) {
        let want: Vec<u32> = db
            .producers_of(name)
            .filter_map(|s| db.syscall_index(&s.name()))
            .map(|i| i as u32)
            .collect();
        assert_eq!(db.producer_indices(name), want, "{what}: {name}");
        if db.resource(name).is_some() {
            let rid = lowered.resource_id(name).expect(name);
            assert_eq!(lowered.lresource(rid).producers, want, "{what}: {name}");
        }
    }
}

/// The suites a model generates over a corpus: every handler's first
/// attempt (the suite the repair round is fed), then the final report.
fn generated(
    kc: &KernelCorpus,
    kind: ModelKind,
    strategy: Strategy,
) -> (Vec<SpecFile>, Vec<SpecFile>) {
    let handlers = find_handlers(kc.corpus());
    let model = OracleModel::new(kind, 1);
    let engine = KernelGpt::new(&model, kc.corpus()).with_strategy(strategy);
    let first = handlers
        .iter()
        .filter_map(|h| engine.generate_one(h, 0).spec)
        .collect();
    let report = engine.generate_all(&handlers, kc.consts());
    let last = report.outcomes.into_iter().filter_map(|o| o.spec).collect();
    (first, last)
}

/// Every suite the repo builds over one corpus. Returns the errors the
/// validators agreed on.
fn every_suite(kc: &KernelCorpus, name: &str) -> usize {
    let consts = kc.consts();
    let mut errors = 0;
    for bp in kc.blueprints() {
        let what = format!("{name}: {} ground truth", bp.id);
        errors += check(vec![bp.ground_truth_spec()], consts, &what);
    }
    let all: Vec<SpecFile> = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    errors += check(all, consts, &format!("{name}: every ground truth"));
    errors += check(
        kc.ground_truth_suite(),
        consts,
        &format!("{name}: ground truth"),
    );
    let existing = kc.existing_suite();
    errors += check(existing.clone(), consts, &format!("{name}: existing"));
    let mut both = existing;
    both.extend(kc.ground_truth_suite());
    errors += check(both, consts, &format!("{name}: existing + ground truth"));
    for kind in [ModelKind::Gpt4, ModelKind::Gpt4o, ModelKind::Gpt35] {
        for strategy in [Strategy::Iterative, Strategy::AllInOne] {
            let (first, last) = generated(kc, kind, strategy);
            let what = format!("{name}: {kind:?} {strategy:?}");
            errors += check(first, consts, &format!("{what}, first attempts"));
            errors += check(last, consts, &format!("{what}, repaired"));
        }
    }
    let handlers = find_handlers(kc.corpus());
    let described = handlers.iter().filter_map(|h| describe_one(kc.corpus(), h));
    errors += check(described.collect(), consts, &format!("{name}: SyzDescribe"));
    errors
}

/// Ground truths and the constant table of blueprints, without emitting
/// and parsing their C.
fn ground_truths(bps: &[Blueprint]) -> (Vec<SpecFile>, ConstDb) {
    let mut consts = kernelgpt::csrc::corpus::base_consts();
    for (k, v) in bps.iter().flat_map(Blueprint::const_entries) {
        consts.define(k, v);
    }
    (
        bps.iter().map(Blueprint::ground_truth_spec).collect(),
        consts,
    )
}

#[test]
fn the_validator_agrees_with_its_oracle_on_every_flagship_suite() {
    let errors = every_suite(&KernelCorpus::flagship_only(), "flagship");
    // The first attempts carry the defects the repair round fixes.
    assert!(errors > 0, "no suite had an error to compare");
}

#[test]
fn the_validator_agrees_with_its_oracle_on_synthetic_and_deep_chain_ground_truth() {
    for (name, bps) in [
        ("synth", synth::generate(&SynthPlan::paper_defaults(), 1)),
        ("deepchain", deepchain::suite()),
    ] {
        let (files, consts) = ground_truths(&bps);
        for (bp, file) in bps.iter().zip(&files) {
            check(vec![file.clone()], &consts, &format!("{name}: {}", bp.id));
        }
        check(files, &consts, name);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "751 handlers: release builds only")]
fn the_validator_agrees_with_its_oracle_on_every_full_corpus_suite() {
    let kc = KernelCorpus::full(1);
    assert_eq!(kc.blueprints().len(), 751);
    let errors = every_suite(&kc, "full");
    assert!(errors > 0, "no suite had an error to compare");
}

fn syscall(base: &str, variant: Option<&str>, params: Vec<Param>, ret: Option<&str>) -> Item {
    Item::Syscall(Syscall {
        base: base.into(),
        variant: variant.map(Into::into),
        params,
        ret: ret.map(Into::into),
    })
}

fn structure(name: &str, fields: Vec<Field>) -> Item {
    Item::Struct(StructDef {
        name: name.into(),
        fields,
        is_union: false,
        packed: false,
    })
}

/// A chain of `links` structs from a syscall's out pointer to a
/// resource, each link one step deeper (through a pointer as well when
/// `via_ptr`), and a syscall that consumes the resource.
fn deep_producer(tag: &str, links: usize, via_ptr: bool) -> Vec<Item> {
    let res = format!("deep_{tag}");
    let link = |i: usize| format!("{tag}_link{i}");
    let mut items = vec![
        Item::Resource(Resource {
            name: res.clone(),
            base: "int32".into(),
            values: Vec::new(),
        }),
        syscall(
            "make",
            Some(tag),
            vec![Param::new("arg", Type::ptr(Dir::Out, Type::Named(link(1))))],
            None,
        ),
        syscall(
            "use",
            Some(tag),
            vec![Param::new("r", Type::Resource(res.clone()))],
            None,
        ),
    ];
    for i in 1..=links {
        let ty = if i == links {
            Type::Resource(res.clone())
        } else if via_ptr {
            Type::ptr(Dir::In, Type::Named(link(i + 1)))
        } else {
            Type::Named(link(i + 1))
        };
        items.push(structure(&link(i), vec![Field::new("f", ty)]));
    }
    items
}

/// One seeded edit of a suite that makes an error class fire (or, for
/// an identical redeclaration or a producer just inside depth 8, must
/// not).
fn mutate(files: &mut Vec<SpecFile>, rng: &mut StdRng, n: usize) {
    let all: Vec<Item> = files.iter().flat_map(|f| f.items.clone()).collect();
    let pick = |rng: &mut StdRng, keep: &dyn Fn(&Item) -> bool| {
        let matching: Vec<&Item> = all.iter().filter(|i| keep(i)).collect();
        matching.choose(rng).map(|i| (*i).clone())
    };
    let target = rng.random_range(0..files.len());
    let push = |files: &mut Vec<SpecFile>, item: Item| files[target].items.push(item);
    match rng.random_range(0..12u32) {
        // Duplicate an item of any kind (identical resources are
        // tolerated, the rest are not).
        0 => {
            if let Some(item) = pick(rng, &|_| true) {
                push(files, item);
            }
        }
        // Redeclare a resource differently.
        1 => {
            if let Some(Item::Resource(mut r)) = pick(rng, &|i| matches!(i, Item::Resource(_))) {
                r.base = if r.base == "int64" { "int8" } else { "int64" }.into();
                push(files, Item::Resource(r));
            }
        }
        // Take every producer of a resource away.
        2 => {
            if let Some(Item::Resource(r)) = pick(rng, &|i| matches!(i, Item::Resource(_))) {
                for f in files.iter_mut() {
                    f.items.retain(|i| {
                        !matches!(i, Item::Syscall(s) if s.ret.as_deref() == Some(r.name.as_str()))
                    });
                }
            }
        }
        // A producer around the depth-8 horizon.
        3 => {
            let links = rng.random_range(6..=10usize);
            let items = deep_producer(&format!("m{n}"), links, rng.random_bool(0.5));
            files[target].items.extend(items);
        }
        // A struct that contains itself, directly or behind a pointer.
        4 => {
            if let Some(Item::Struct(mut s)) = pick(rng, &|i| matches!(i, Item::Struct(_))) {
                s.name = format!("{}_r{n}", s.name);
                let own = Type::Named(s.name.clone());
                let ty = if rng.random_bool(0.7) {
                    own
                } else {
                    Type::ptr(Dir::In, own)
                };
                s.fields.push(Field::new("again", ty));
                push(files, Item::Struct(s));
            }
        }
        // An unknown constant in a call, and one in a flag set.
        5 => {
            let bogus = Type::sym_const(format!("NO_SUCH_MACRO_{n}"), IntBits::I32);
            push(
                files,
                syscall(
                    "ioctl",
                    Some(&format!("BOGUS{n}")),
                    vec![Param::new("cmd", bogus)],
                    None,
                ),
            );
            push(
                files,
                Item::Flags(kernelgpt::syzlang::FlagsDef {
                    name: format!("bogus_flags{n}"),
                    values: vec![ConstExpr::Num(1), ConstExpr::Sym(format!("NOPE_{n}"))],
                }),
            );
        }
        // A len target that names no sibling.
        6 => {
            let len = Type::Len {
                target: "nothing".into(),
                bits: IntBits::I32,
            };
            push(
                files,
                structure(&format!("badlen{n}"), vec![Field::new("n", len)]),
            );
        }
        // A flag set named like a struct (one type namespace).
        7 => {
            if let Some(Item::Struct(s)) = pick(rng, &|i| matches!(i, Item::Struct(_))) {
                let values = vec![ConstExpr::Num(1)];
                let name = s.name;
                push(
                    files,
                    Item::Flags(kernelgpt::syzlang::FlagsDef { name, values }),
                );
            }
        }
        // The same full name split differently (`a$b` as a base).
        8 => {
            if let Some(Item::Syscall(mut s)) = pick(rng, &|i| matches!(i, Item::Syscall(_))) {
                s.base = s.name();
                s.variant = None;
                push(files, Item::Syscall(s));
            }
        }
        // A struct that went missing (undefined types).
        9 => {
            if let Some(Item::Struct(s)) = pick(rng, &|i| matches!(i, Item::Struct(_))) {
                for f in files.iter_mut() {
                    f.items
                        .retain(|i| !matches!(i, Item::Struct(d) if d.name == s.name));
                }
            }
        }
        // An empty struct, and a call with the wrong arity and a
        // non-scalar argument.
        10 => {
            push(files, structure(&format!("empty{n}"), Vec::new()));
            let arg = Param::new("arg", Type::buffer());
            push(
                files,
                syscall("ioctl", Some(&format!("ARITY{n}")), vec![arg], None),
            );
        }
        // A flags type over a set nobody defined, an undefined return.
        _ => {
            let flags = Type::Flags {
                set: format!("nowhere{n}"),
                bits: IntBits::I32,
            };
            let params = vec![Param::new("f", flags)];
            push(
                files,
                syscall("open", Some(&format!("F{n}")), params, Some("ghost_res")),
            );
        }
    }
}

#[test]
fn the_validator_agrees_with_its_oracle_on_seeded_mutations() {
    let bps: Vec<Blueprint> = flagship::all_flagships().into_iter().take(12).collect();
    let (base, consts) = ground_truths(&bps);
    let mut kinds = std::collections::HashSet::new();
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut files = base.clone();
        for n in 0..rng.random_range(1..=3usize) {
            mutate(&mut files, &mut rng, n);
        }
        let db = SpecDb::from_files(files.clone());
        for e in validate(&db, &consts) {
            kinds.insert(std::mem::discriminant(&e.kind));
        }
        check(files, &consts, &format!("seed {seed}"));
    }
    // Every error class fired somewhere.
    assert_eq!(kinds.len(), 10, "{kinds:?}");
}

#[test]
fn a_producer_counts_up_to_depth_8_and_not_past_it() {
    for via_ptr in [false, true] {
        for links in 1..=11 {
            let file = SpecFile {
                name: "deep".into(),
                items: deep_producer("d", links, via_ptr),
            };
            let db = SpecDb::from_files(vec![file.clone()]);
            let unproduced = validate(&db, &ConstDb::new())
                .iter()
                .any(|e| e.kind == SpecErrorKind::UnproducedResource("deep_d".into()));
            // A link is one level; through a pointer it is two.
            let depth = if via_ptr { 2 * links - 1 } else { links };
            assert_eq!(unproduced, depth > 8, "links {links}, via_ptr {via_ptr}");
            check(vec![file], &ConstDb::new(), &format!("links {links}"));
        }
    }
}

#[test]
fn names_split_differently_are_one_name() {
    let src = "resource r[int32]\nmk$a(x int32) r\nuse$a(x r)\n";
    let mut file = parse("t", src).unwrap();
    // `mk$a` again, spelled as a base with no variant, and a flag set
    // named like a struct.
    file.items.push(syscall(
        "mk$a",
        None,
        vec![Param::new("x", Type::int(IntBits::I32))],
        Some("r"),
    ));
    file.items.push(structure(
        "t",
        vec![Field::new("a", Type::int(IntBits::I8))],
    ));
    file.items.push(Item::Flags(kernelgpt::syzlang::FlagsDef {
        name: "t".into(),
        values: vec![ConstExpr::Num(1)],
    }));
    let db = SpecDb::from_files(vec![file.clone()]);
    let kinds: Vec<SpecErrorKind> = validate(&db, &ConstDb::new())
        .into_iter()
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        vec![
            SpecErrorKind::DuplicateDefinition("mk$a".into()),
            SpecErrorKind::DuplicateDefinition("t".into()),
        ]
    );
    check(vec![file], &ConstDb::new(), "split names");
}

#[test]
fn producer_tables_match_producers_of_on_the_flagship_suite() {
    let kc = KernelCorpus::flagship_only();
    let (_, merged) = generated(&kc, ModelKind::Gpt4, Strategy::Iterative);
    for (what, suite) in [
        ("merged", merged),
        ("ground truth", kc.ground_truth_suite()),
    ] {
        let db = SpecDb::from_files(suite);
        assert!(db.syscall_count() > 400, "{what}");
        check_producers(&db, kc.consts(), what);
    }
}
