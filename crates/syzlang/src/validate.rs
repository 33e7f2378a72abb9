//! Specification validation — the analogue of `syz-extract` +
//! `syz-generate` error reporting used by KernelGPT's repair phase
//! (§3.2 of the paper).
//!
//! The validator reports the same error classes the paper lists:
//! undefined types, wrong macro (constant) names, unmatched resource
//! dependencies, plus structural problems (bad `len` targets, wrong
//! arity for known syscalls, non-scalar register arguments, recursive
//! types, empty structs, duplicate definitions).

use crate::ast::{ConstExpr, Dir, Field, Item, Param, StructDef, Syscall, Type};
use crate::consts::ConstDb;
use crate::db::SpecDb;
use crate::layout::{struct_layout_in, LayoutError};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Category of a specification error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecErrorKind {
    /// A named struct/union/resource is not defined anywhere.
    UndefinedType(String),
    /// A symbolic constant (kernel macro) is not in the const database.
    UnknownConst(String),
    /// The same name is defined more than once.
    DuplicateDefinition(String),
    /// `len[target]`/`bytesize[target]` names no sibling field/param.
    BadLenTarget(String),
    /// A consumed resource has no producing syscall.
    UnproducedResource(String),
    /// A flags type references an undefined flag set.
    UnknownFlagSet(String),
    /// Type recursion without indirection.
    RecursiveType(String),
    /// A struct or union with no fields.
    EmptyStruct(String),
    /// A known syscall has the wrong number of parameters.
    BadArgCount {
        /// Parameters the base syscall requires.
        expected: usize,
        /// Parameters found in the description.
        found: usize,
    },
    /// A register argument has a non-scalar type (must be int-like or ptr).
    NonScalarArg(String),
}

impl fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecErrorKind::UndefinedType(n) => write!(f, "type `{n}` is not defined"),
            SpecErrorKind::UnknownConst(n) => write!(f, "constant `{n}` is not defined"),
            SpecErrorKind::DuplicateDefinition(n) => write!(f, "`{n}` is defined multiple times"),
            SpecErrorKind::BadLenTarget(t) => {
                write!(f, "len target `{t}` does not name a sibling")
            }
            SpecErrorKind::UnproducedResource(r) => {
                write!(f, "resource `{r}` is consumed but never produced")
            }
            SpecErrorKind::UnknownFlagSet(n) => write!(f, "flag set `{n}` is not defined"),
            SpecErrorKind::RecursiveType(n) => {
                write!(f, "type `{n}` is recursive without a pointer")
            }
            SpecErrorKind::EmptyStruct(n) => write!(f, "struct `{n}` has no fields"),
            SpecErrorKind::BadArgCount { expected, found } => {
                write!(f, "expected {expected} arguments, found {found}")
            }
            SpecErrorKind::NonScalarArg(p) => {
                write!(f, "argument `{p}` must be an integer, resource or pointer")
            }
        }
    }
}

/// A validation error attached to the item it occurred in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecError {
    /// Error category.
    pub kind: SpecErrorKind,
    /// Name of the item (syscall, struct, resource) the error belongs to.
    pub item: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in `{}`: {}", self.item, self.kind)
    }
}

impl std::error::Error for SpecError {}

/// Required parameter counts for the syscall bases the virtual kernel
/// implements. Descriptions of unknown bases skip the arity check.
pub const ARITY: &[(&str, usize)] = &[
    ("openat", 4),
    ("open", 3),
    ("ioctl", 3),
    ("read", 3),
    ("write", 3),
    ("close", 1),
    ("mmap", 6),
    ("dup", 1),
    ("socket", 3),
    ("bind", 3),
    ("connect", 3),
    ("accept", 3),
    ("setsockopt", 5),
    ("getsockopt", 5),
    ("sendto", 6),
    ("recvfrom", 6),
    ("sendmsg", 3),
    ("recvmsg", 3),
    ("poll", 3),
];

/// Validate a database against a constant table.
///
/// Returns all errors found (empty when the specification is valid).
/// Reads the database in place: it allocates for the errors it
/// reports and a constant number of times besides, never per item.
#[must_use]
pub fn validate(db: &SpecDb, consts: &ConstDb) -> Vec<SpecError> {
    let mut errors = Vec::new();
    check_duplicates(db, &mut errors);
    for s in db.syscalls() {
        check_syscall(s, db, consts, &mut errors);
    }
    let mut stack = Vec::new();
    for def in db.structs() {
        check_struct(def, db, consts, &mut stack, &mut errors);
    }
    for r in db.resources() {
        if db.resource_bits(&r.name).is_none() {
            let kind = SpecErrorKind::UndefinedType(r.base.clone());
            report(&mut errors, &|| r.name.clone(), kind);
        }
    }
    for fl in db.flag_sets() {
        for v in &fl.values {
            check_const(v, consts, &|| fl.name.clone(), &mut errors);
        }
    }
    check_resource_production(db, &mut errors);
    errors
}

/// Files an error under the item `item` names — called only when
/// there is one, so a name is built for errors alone.
fn report(errors: &mut Vec<SpecError>, item: &dyn Fn() -> String, kind: SpecErrorKind) {
    errors.push(SpecError { kind, item: item() });
}

/// An item keyed by its namespace (syscalls, resources, and types —
/// structs and flag sets share one) and its name, compared and hashed
/// in place.
struct Key<'a>(u8, &'a Item);

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1.name_bytes().eq(other.1.name_bytes())
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.0);
        self.1.name_bytes().for_each(|b| state.write_u8(b));
    }
}

fn check_duplicates(db: &SpecDb, errors: &mut Vec<SpecError>) {
    let items = db.files().iter().flat_map(|f| &f.items);
    let mut first: HashMap<Key<'_>, ()> = HashMap::with_capacity(items.clone().count());
    for item in items {
        let ns = match item {
            Item::Syscall(_) => 0,
            Item::Resource(_) => 1,
            Item::Struct(_) | Item::Flags(_) => 2,
        };
        let prev = match first.entry(Key(ns, item)) {
            Entry::Vacant(slot) => {
                slot.insert(());
                continue;
            }
            Entry::Occupied(prev) => prev.key().1,
        };
        // Identical resource redeclarations are tolerated: suite
        // files each declare the shared resources they produce.
        if matches!(item, Item::Resource(_)) && prev == item {
            continue;
        }
        let name = item.name();
        errors.push(SpecError {
            kind: SpecErrorKind::DuplicateDefinition(name.clone()),
            item: name,
        });
    }
}

fn check_syscall(s: &Syscall, db: &SpecDb, consts: &ConstDb, errors: &mut Vec<SpecError>) {
    let item = &|| s.name();
    let found = s.params.len();
    let arity = ARITY.iter().find(|(b, _)| *b == s.base);
    if let Some(&(_, expected)) = arity.filter(|(_, n)| *n != found) {
        report(errors, item, SpecErrorKind::BadArgCount { expected, found });
    }
    let sibling = |name: &str| s.params.iter().any(|p| p.name == name);
    for Param { name, ty } in &s.params {
        if !is_register_type(ty) {
            report(errors, item, SpecErrorKind::NonScalarArg(name.clone()));
        }
        check_type(ty, db, consts, item, &sibling, errors);
    }
    if let Some(ret) = &s.ret {
        if db.resource(ret).is_none() {
            report(errors, item, SpecErrorKind::UndefinedType(ret.clone()));
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

fn check_struct<'a>(
    def: &'a StructDef,
    db: &'a SpecDb,
    consts: &ConstDb,
    stack: &mut Vec<&'a str>,
    errors: &mut Vec<SpecError>,
) {
    let item = &|| def.name.clone();
    if def.fields.is_empty() {
        report(errors, item, SpecErrorKind::EmptyStruct(def.name.clone()));
        return;
    }
    // Unknown types are reported with precise context below.
    if let Err(LayoutError::Recursive(n)) = struct_layout_in(def, db, stack) {
        report(errors, item, SpecErrorKind::RecursiveType(n));
    }
    let sibling = |name: &str| def.fields.iter().any(|f| f.name == name);
    for Field { ty, .. } in &def.fields {
        check_type(ty, db, consts, item, &sibling, errors);
    }
}

fn check_type(
    ty: &Type,
    db: &SpecDb,
    consts: &ConstDb,
    item: &dyn Fn() -> String,
    sibling: &dyn Fn(&str) -> bool,
    errors: &mut Vec<SpecError>,
) {
    let kind = match ty {
        Type::Const { value, .. } => return check_const(value, consts, item, errors),
        Type::Flags { set, .. } if db.flags_def(set).is_none() => {
            SpecErrorKind::UnknownFlagSet(set.clone())
        }
        Type::Len { target, .. } | Type::Bytesize { target, .. } if !sibling(target) => {
            SpecErrorKind::BadLenTarget(target.clone())
        }
        Type::Resource(name) if db.resource(name).is_none() => {
            SpecErrorKind::UndefinedType(name.clone())
        }
        Type::Named(name) if db.struct_def(name).is_none() && db.resource(name).is_none() => {
            SpecErrorKind::UndefinedType(name.clone())
        }
        Type::Ptr { elem, .. } | Type::Array { elem, .. } => {
            return check_type(elem, db, consts, item, sibling, errors)
        }
        _ => return,
    };
    report(errors, item, kind);
}

fn check_const(
    value: &ConstExpr,
    consts: &ConstDb,
    item: &dyn Fn() -> String,
    errors: &mut Vec<SpecError>,
) {
    if let ConstExpr::Sym(name) = value {
        if !consts.contains(name) {
            report(errors, item, SpecErrorKind::UnknownConst(name.clone()));
        }
    }
}

fn check_resource_production(db: &SpecDb, errors: &mut Vec<SpecError>) {
    // A resource consumed by some syscall must be produced by some
    // syscall; builtins (plain `fd`, `sock`, …) are exempt because the
    // kernel provides generic producers.
    for r in db.resources() {
        let consumed = || {
            let mut params = db.syscalls().flat_map(|s| &s.params);
            params.any(|p| consumes(&p.ty, &r.name))
        };
        if db.producer_indices(&r.name).is_empty() && consumed() {
            let kind = SpecErrorKind::UnproducedResource(r.name.clone());
            report(errors, &|| r.name.clone(), kind);
        }
    }
}

fn consumes(ty: &Type, resource: &str) -> bool {
    match ty {
        Type::Resource(n) => n == resource,
        // Out-pointers *produce* the resource; only in/inout consume.
        Type::Ptr {
            elem,
            dir: Dir::In | Dir::InOut,
        }
        | Type::Array { elem, .. } => consumes(elem, resource),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str, consts: &[(&str, u64)]) -> Vec<SpecError> {
        let db = SpecDb::from_files(vec![parse("t", src).unwrap()]);
        let mut cdb = ConstDb::new();
        for (k, v) in consts {
            cdb.define(*k, *v);
        }
        validate(&db, &cdb)
    }

    fn kinds(errors: &[SpecError]) -> Vec<&SpecErrorKind> {
        errors.iter().map(|e| &e.kind).collect()
    }

    #[test]
    fn valid_spec_has_no_errors() {
        let src = r#"
resource fd_dm[fd]
openat$dm(dir const[AT_FDCWD], file ptr[in, string["/dev/mapper/control"]], flags const[2], mode const[0]) fd_dm
ioctl$DM_VERSION(fd fd_dm, cmd const[DM_VERSION], arg ptr[inout, dm_ioctl])
dm_ioctl {
    version array[int32, 3]
    data_size int32
}
"#;
        let errs = check(
            src,
            &[("AT_FDCWD", 0xffff_ff9c), ("DM_VERSION", 0xc138_fd00)],
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn undefined_type_detected() {
        let errs = check("ioctl$X(fd fd, cmd const[1], arg ptr[in, mystery])\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::UndefinedType("mystery".into())));
    }

    #[test]
    fn unknown_const_detected() {
        let errs = check(
            "ioctl$X(fd fd, cmd const[NOT_A_MACRO], arg ptr[in, array[int8]])\n",
            &[],
        );
        assert!(kinds(&errs).contains(&&SpecErrorKind::UnknownConst("NOT_A_MACRO".into())));
    }

    #[test]
    fn bad_len_target_detected() {
        let errs = check("s {\n\tn len[nothing, int32]\n\ta int8\n}\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::BadLenTarget("nothing".into())));
    }

    #[test]
    fn len_target_on_params_ok() {
        let errs = check(
            "write$x(fd fd, buf ptr[in, array[int8]], count len[buf])\n",
            &[],
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn unproduced_resource_detected() {
        let errs = check(
            "resource fd_x[fd]\nioctl$A(fd fd_x, cmd const[1], arg ptr[in, array[int8]])\n",
            &[],
        );
        assert!(kinds(&errs).contains(&&SpecErrorKind::UnproducedResource("fd_x".into())));
    }

    #[test]
    fn produced_resource_ok() {
        let src = r#"
resource fd_x[fd]
openat$x(dir const[0], file ptr[in, string["/dev/x"]], flags const[2], mode const[0]) fd_x
ioctl$A(fd fd_x, cmd const[1], arg ptr[in, array[int8]])
"#;
        assert!(check(src, &[]).is_empty());
    }

    #[test]
    fn builtin_fd_needs_no_producer() {
        assert!(check(
            "read$x(fd fd, buf ptr[out, array[int8]], count len[buf])\n",
            &[]
        )
        .is_empty());
    }

    #[test]
    fn wrong_arity_detected() {
        let errs = check("ioctl$X(fd fd, cmd const[1])\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::BadArgCount {
            expected: 3,
            found: 2
        }));
    }

    #[test]
    fn non_scalar_arg_detected() {
        let errs = check("ioctl$X(fd fd, cmd const[1], arg array[int8])\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::NonScalarArg("arg".into())));
    }

    #[test]
    fn unknown_flag_set_detected() {
        let errs = check("open$x(f flags[nope], m const[0], z const[0])\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::UnknownFlagSet("nope".into())));
    }

    #[test]
    fn duplicate_definitions_detected() {
        let errs = check("s {\n\ta int8\n}\ns {\n\tb int8\n}\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::DuplicateDefinition("s".into())));
    }

    #[test]
    fn empty_struct_detected() {
        let errs = check("s {\n}\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::EmptyStruct("s".into())));
    }

    #[test]
    fn recursive_type_detected() {
        let errs = check("a {\n\tnext a\n}\n", &[]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::RecursiveType("a".into())));
    }

    #[test]
    fn flag_values_must_resolve() {
        let errs = check("myflags = KNOWN, UNKNOWN_MACRO\n", &[("KNOWN", 1)]);
        assert!(kinds(&errs).contains(&&SpecErrorKind::UnknownConst("UNKNOWN_MACRO".into())));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SpecError {
            kind: SpecErrorKind::UndefinedType("dm_ioctl".into()),
            item: "ioctl$DM".into(),
        };
        assert_eq!(
            e.to_string(),
            "in `ioctl$DM`: type `dm_ioctl` is not defined"
        );
    }
}
