//! Merged specification database.
//!
//! A [`SpecDb`] merges one or more [`SpecFile`]s, indexes every named
//! definition, seeds the builtin resources (`fd`, `pid`, `uid`, `gid`,
//! `sock`), and rewrites parser-produced [`Type::Named`] references that
//! name a resource into [`Type::Resource`] so downstream passes never
//! need to disambiguate.

use crate::ast::{
    Dir, Field, FlagsDef, IntBits, Item, Param, Resource, SpecFile, StructDef, Syscall, Type,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Builtin resources available without declaration, with their
/// underlying integer width.
pub const BUILTIN_RESOURCES: &[(&str, IntBits)] = &[
    ("fd", IntBits::I32),
    ("sock", IntBits::I32),
    ("pid", IntBits::I32),
    ("uid", IntBits::I32),
    ("gid", IntBits::I32),
];

/// A merged, indexed set of specification files.
///
/// Syscalls are interned: every syscall has a stable dense index (its
/// rank in name order) so hot paths — the generator and executor — can
/// refer to calls by `u32` instead of cloning names or whole `Syscall`
/// ASTs per generated call, and a name is found by binary search,
/// compared in place.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpecDb {
    files: Vec<SpecFile>,
    structs: BTreeMap<String, StructDef>,
    resources: BTreeMap<String, Resource>,
    flags: BTreeMap<String, FlagsDef>,
    /// Syscalls in name order; `interned[i]` is the syscall with
    /// index `i`. Rebuilt by [`SpecDb::from_files`].
    interned: Vec<Syscall>,
    /// The producer table: per resource name, the indices of the
    /// syscalls producing it, ascending — what
    /// [`SpecDb::producers_of`] yields, found in one sweep at compile
    /// time. Validation and lowering read it; `producers_of` is their
    /// oracle.
    producers: BTreeMap<String, Vec<u32>>,
}

impl SpecDb {
    /// Build a database from parsed files, resolving resource references.
    #[must_use]
    pub fn from_files(files: Vec<SpecFile>) -> SpecDb {
        let mut db = SpecDb::default();
        for (name, bits) in BUILTIN_RESOURCES {
            db.resources.insert(
                (*name).to_string(),
                Resource {
                    name: (*name).to_string(),
                    base: bits.keyword().to_string(),
                    values: Vec::new(),
                },
            );
        }
        // First pass: index declarations (structs are indexed once
        // rewritten, below).
        for f in &files {
            for item in &f.items {
                match item {
                    Item::Resource(r) => {
                        db.resources.insert(r.name.clone(), r.clone());
                    }
                    Item::Flags(fl) => {
                        db.flags.insert(fl.name.clone(), fl.clone());
                    }
                    Item::Struct(_) | Item::Syscall(_) => {}
                }
            }
        }
        // Second pass: rewrite Named → Resource.
        let resources = &db.resources;
        let rewrite = |ty: &mut Type| rewrite_resources(ty, resources);
        let mut files = files;
        for f in &mut files {
            for item in &mut f.items {
                match item {
                    Item::Syscall(s) => {
                        for Param { ty, .. } in &mut s.params {
                            rewrite(ty);
                        }
                    }
                    Item::Struct(s) => {
                        for Field { ty, .. } in &mut s.fields {
                            rewrite(ty);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Index the rewritten structs, and intern the syscalls: sorted
        // by name (stably, so one name's definitions keep source
        // order), the last definition of a name standing.
        for s in files.iter().flat_map(SpecFile::structs) {
            db.structs.insert(s.name.clone(), s.clone());
        }
        let mut calls: Vec<(String, &Syscall)> = files
            .iter()
            .flat_map(SpecFile::syscalls)
            .map(|s| (s.name(), s))
            .collect();
        calls.sort_by(|a, b| a.0.cmp(&b.0));
        calls.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        db.interned = calls.into_iter().map(|(_, s)| s.clone()).collect();
        db.files = files;
        db.producers = producer_table(&db);
        db
    }

    /// Dense index of a syscall by full name (`ioctl$DM_VERSION`).
    /// Indices are stable for the lifetime of the database and rank
    /// syscalls in name order.
    #[must_use]
    pub fn syscall_index(&self, full_name: &str) -> Option<usize> {
        self.interned
            .binary_search_by(|s| s.cmp_name(full_name))
            .ok()
    }

    /// Dense indices ([`SpecDb::syscall_index`]) of the syscalls that
    /// produce `resource`, ascending: [`SpecDb::producers_of`], read
    /// from the table compiled with the database.
    #[must_use]
    pub fn producer_indices(&self, resource: &str) -> &[u32] {
        self.producers.get(resource).map_or(&[], Vec::as_slice)
    }

    /// The syscall at a dense index (see [`SpecDb::syscall_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.syscall_count()`.
    #[must_use]
    pub fn syscall_at(&self, idx: usize) -> &Syscall {
        &self.interned[idx]
    }

    /// The merged source files (post resource-rewrite).
    #[must_use]
    pub fn files(&self) -> &[SpecFile] {
        &self.files
    }

    /// Look up a struct or union by name.
    #[must_use]
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.get(name)
    }

    /// Look up a resource by name (includes builtins).
    #[must_use]
    pub fn resource(&self, name: &str) -> Option<&Resource> {
        self.resources.get(name)
    }

    /// Look up a flag set by name.
    #[must_use]
    pub fn flags_def(&self, name: &str) -> Option<&FlagsDef> {
        self.flags.get(name)
    }

    /// Look up a syscall by full name (`ioctl$DM_VERSION`).
    #[must_use]
    pub fn syscall(&self, full_name: &str) -> Option<&Syscall> {
        self.syscall_index(full_name).map(|i| &self.interned[i])
    }

    /// All syscalls, in name order.
    pub fn syscalls(&self) -> impl Iterator<Item = &Syscall> {
        self.interned.iter()
    }

    /// All declared (non-builtin) resources, in name order.
    pub fn resources(&self) -> impl Iterator<Item = &Resource> {
        self.resources
            .values()
            .filter(|r| !BUILTIN_RESOURCES.iter().any(|(b, _)| *b == r.name))
    }

    /// All struct/union definitions, in name order.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.structs.values()
    }

    /// All flag sets, in name order.
    pub fn flag_sets(&self) -> impl Iterator<Item = &FlagsDef> {
        self.flags.values()
    }

    /// Number of syscall descriptions.
    #[must_use]
    pub fn syscall_count(&self) -> usize {
        self.interned.len()
    }

    /// Number of struct/union type definitions.
    #[must_use]
    pub fn type_count(&self) -> usize {
        self.structs.len()
    }

    /// Resolve the underlying integer width of a resource, chasing
    /// resource-to-resource chains (`fd_dm` → `fd` → `int32`).
    ///
    /// Returns `None` on unknown or cyclic chains.
    #[must_use]
    pub fn resource_bits(&self, name: &str) -> Option<IntBits> {
        let mut cur = name;
        for _ in 0..32 {
            if let Some(bits) = IntBits::from_keyword(cur) {
                return Some(bits);
            }
            cur = &self.resources.get(cur)?.base;
        }
        None
    }

    /// Syscalls that *produce* the given resource (via return value or
    /// an `out`-directed resource-typed field).
    pub fn producers_of<'a>(&'a self, resource: &'a str) -> impl Iterator<Item = &'a Syscall> {
        self.interned.iter().filter(move |s| {
            if s.ret.as_deref() == Some(resource) {
                return true;
            }
            s.params
                .iter()
                .any(|p| type_produces_resource(&p.ty, resource, self))
        })
    }
}

fn type_produces_resource(ty: &Type, resource: &str, db: &SpecDb) -> bool {
    match ty {
        Type::Ptr { dir, elem } => {
            if matches!(dir, crate::ast::Dir::Out | crate::ast::Dir::InOut) {
                pointee_produces(elem, resource, db, 0)
            } else {
                false
            }
        }
        _ => false,
    }
}

fn pointee_produces(ty: &Type, resource: &str, db: &SpecDb, depth: usize) -> bool {
    if depth > 8 {
        return false;
    }
    match ty {
        Type::Resource(n) => n == resource,
        Type::Named(n) => db.struct_def(n).is_some_and(|s| {
            s.fields
                .iter()
                .any(|f| pointee_produces(&f.ty, resource, db, depth + 1))
        }),
        Type::Array { elem, .. } => pointee_produces(elem, resource, db, depth + 1),
        Type::Ptr { elem, .. } => pointee_produces(elem, resource, db, depth + 1),
        _ => false,
    }
}

/// The producer table of a compiled database: one sweep over its
/// syscalls in index order, each contributing its return resource and
/// every resource [`pointee_produces`] would find behind its out
/// pointers — collected rather than matched, so each syscall is walked
/// once instead of once per resource.
fn producer_table(db: &SpecDb) -> BTreeMap<String, Vec<u32>> {
    let mut table: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    let mut produced: Vec<&str> = Vec::new();
    for (i, s) in db.interned.iter().enumerate() {
        produced.clear();
        produced.extend(s.ret.as_deref());
        for p in &s.params {
            if let Type::Ptr {
                dir: Dir::Out | Dir::InOut,
                elem,
            } = &p.ty
            {
                collect_produced(elem, db, 0, &mut produced);
            }
        }
        produced.sort_unstable();
        produced.dedup();
        for &name in &produced {
            match table.get_mut(name) {
                Some(list) => list.push(i as u32),
                None => {
                    table.insert(name.to_string(), vec![i as u32]);
                }
            }
        }
    }
    table
}

/// Every resource `r` for which `pointee_produces(ty, r, db, depth)`
/// holds, pushed onto `out` (with repeats).
fn collect_produced<'a>(ty: &'a Type, db: &'a SpecDb, depth: usize, out: &mut Vec<&'a str>) {
    if depth > 8 {
        return;
    }
    match ty {
        Type::Resource(n) => out.push(n),
        Type::Named(n) => {
            for f in db.struct_def(n).iter().flat_map(|s| &s.fields) {
                collect_produced(&f.ty, db, depth + 1, out);
            }
        }
        Type::Array { elem, .. } | Type::Ptr { elem, .. } => {
            collect_produced(elem, db, depth + 1, out);
        }
        _ => {}
    }
}

fn rewrite_resources(ty: &mut Type, resources: &BTreeMap<String, Resource>) {
    match ty {
        Type::Named(n) if resources.contains_key(n.as_str()) => {
            let name = n.clone();
            *ty = Type::Resource(name);
        }
        Type::Ptr { elem, .. } => rewrite_resources(elem, resources),
        Type::Array { elem, .. } => rewrite_resources(elem, resources),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn db(src: &str) -> SpecDb {
        SpecDb::from_files(vec![parse("t", src).unwrap()])
    }

    #[test]
    fn rewrites_resource_references() {
        let db =
            db("resource fd_dm[fd]\nioctl$X(fd fd_dm, cmd const[1], arg ptr[in, array[int8]])\n");
        let s = db.syscall("ioctl$X").unwrap();
        assert_eq!(s.params[0].ty, Type::Resource("fd_dm".into()));
    }

    #[test]
    fn builtin_fd_available() {
        let db = db("dup$x(old fd) fd\n");
        assert!(db.resource("fd").is_some());
        assert_eq!(db.resource_bits("fd"), Some(IntBits::I32));
    }

    #[test]
    fn resource_bits_chases_chain() {
        let db = db("resource fd_a[fd]\nresource fd_b[fd_a]\n");
        assert_eq!(db.resource_bits("fd_b"), Some(IntBits::I32));
        assert_eq!(db.resource_bits("nope"), None);
    }

    #[test]
    fn resource_bits_rejects_cycle() {
        let db = db("resource a[b]\nresource b[a]\n");
        assert_eq!(db.resource_bits("a"), None);
    }

    #[test]
    fn producers_by_return_and_out_field() {
        let src = r#"
resource fd_v[fd]
resource qid[int32]
openat$v(dir const[0], file ptr[in, string["/dev/v"]], flags const[2], mode const[0]) fd_v
ioctl$NEW(fd fd_v, cmd const[1], arg ptr[inout, q_new])
q_new {
    id qid (out)
}
"#;
        let db = db(src);
        let produced: Vec<String> = db.producers_of("qid").map(Syscall::name).collect();
        assert_eq!(produced, vec!["ioctl$NEW".to_string()]);
        let produced: Vec<String> = db.producers_of("fd_v").map(Syscall::name).collect();
        assert_eq!(produced, vec!["openat$v".to_string()]);
    }

    #[test]
    fn syscall_interning_round_trips() {
        let db = db("resource fd_v[fd]\nopenat$v(dir const[0], file ptr[in, string[\"/dev/v\"]], flags const[2], mode const[0]) fd_v\nioctl$A(fd fd_v, cmd const[1], arg ptr[in, array[int8]])\nioctl$B(fd fd_v, cmd const[2], arg ptr[in, array[int8]])\n");
        assert_eq!(db.syscall_count(), 3);
        for (i, s) in db.syscalls().enumerate() {
            let name = s.name();
            assert_eq!(db.syscall_index(&name), Some(i));
            assert_eq!(db.syscall_at(i).name(), name);
        }
        assert_eq!(db.syscall_index("ioctl$NOPE"), None);
    }

    #[test]
    fn the_last_definition_of_a_syscall_name_stands() {
        let db = db("x$a(p int8)\nx$b(p int8)\nx$a(p int16)\nx(p int8)\n");
        let names: Vec<String> = db.syscalls().map(Syscall::name).collect();
        assert_eq!(names, ["x", "x$a", "x$b"]);
        let a = db.syscall("x$a").unwrap();
        assert_eq!(a.params[0].ty, Type::int(IntBits::I16));
        assert_eq!(db.syscall_index("x$a"), Some(1));
        assert!(db.syscall("x$").is_none() && db.syscall("x$a$").is_none());
    }

    #[test]
    fn counts() {
        let db = db("resource r[int32]\ns {\n\ta int8\n}\nu [\n\ta int8\n]\ncall$a(x int32)\n");
        assert_eq!(db.syscall_count(), 1);
        assert_eq!(db.type_count(), 2);
        assert_eq!(db.resources().count(), 1);
        assert_eq!(db.flag_sets().count(), 0);
    }
}
