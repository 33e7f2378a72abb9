//! Lowered generation/encoding IR: the spec compiled once, so the
//! per-exec path is string-free and AST-free.
//!
//! [`SpecDb`] is a name-keyed view of the parsed specification: every
//! walk over it pays `BTreeMap` lookups (`struct_def`, `flags_def`,
//! `resource_bits`), re-resolves flag sets through the [`ConstDb`],
//! and compares resource *names* to find producers. That is fine for
//! validation and repair, which run once per suite — but the fuzzer's
//! generate → encode → dispatch loop walks types millions of times.
//!
//! A [`LoweredDb`] is built once per `(SpecDb, ConstDb)` pair (and
//! cached behind the existing [`crate::SpecCache`], see
//! [`crate::SpecCache::get_or_lower`]) and replaces every name-keyed
//! hop with array indexing:
//!
//! * types live in a flat arena of [`LType`]s addressed by [`TypeId`];
//!   each id also carries its precomputed [`Layout`] and a printed
//!   form for (cold) error paths;
//! * `flags[set]` members are resolved to `u64` lists at compile time
//!   ([`LType::Flags`] holds a range into one shared pool);
//! * symbolic constants are resolved at compile time
//!   ([`LType::Const`] stores the value, not the macro name);
//! * struct/union definitions are flattened into [`LStruct`] field
//!   tables with field offsets and `len[...]`/`bytesize[...]` targets
//!   resolved to field *indices*;
//! * resources get dense [`ResourceId`]s with precomputed underlying
//!   widths and producer syscall-index lists, and every syscall gets a
//!   `ret_resource: Option<ResourceId>` — so producer matching is an
//!   integer compare, not a string compare;
//! * syscall base names are interned into a dense op table
//!   ([`LoweredDb::base_ops`]) that executors map onto their own
//!   dispatch enum once at construction.
//!
//! The lowering is *behaviour-preserving by construction*: the
//! [`LoweredEncoder`] mirrors [`crate::value::MemBuilder`] decision
//! for decision (same errors, same segment addresses, same buffer
//! pooling), and the fuzzer's lowered generator draws the same RNG
//! sequence as the AST walk, so program streams are bit-identical.
//! `tests/properties.rs` and the `lowering` section of `fuzz_bench`
//! pin both.

use crate::ast::{ArrayLen, ConstExpr, Dir, IntBits, Type};
use crate::consts::ConstDb;
use crate::db::{SpecDb, BUILTIN_RESOURCES};
use crate::layout::{field_offsets, type_layout, Layout, LayoutError};
use crate::printer::print_type;
use crate::value::{
    deref_for_len, deref_value_for_len, push_int, value_kind, EncodeError, Pointee, Value,
    ARG_BASE_ADDR,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dense index of a lowered type in the [`LoweredDb`] arena.
pub type TypeId = u32;

/// Dense index of a flattened struct/union definition.
pub type StructId = u32;

/// Dense index of an interned resource name.
pub type ResourceId = u32;

/// Dense index of an interned diagnostic name (error paths only).
pub type NameId = u32;

/// A lowered type: every reference is a dense id, every constant is
/// pre-resolved. `Copy`, so hot loops read nodes out of the arena
/// without borrowing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LType {
    /// `intN` with an optional inclusive value range.
    Int {
        /// Integer width.
        bits: IntBits,
        /// Optional `[lo:hi]` value constraint.
        range: Option<(u64, u64)>,
    },
    /// `const[...]`, resolved at compile time. `value` is `None` only
    /// for a symbolic constant missing from the [`ConstDb`]; encoding
    /// it reproduces the AST walk's `UnresolvedConst` error via `sym`.
    Const {
        /// Resolved value, if the constant resolved.
        value: Option<u64>,
        /// Wire width.
        bits: IntBits,
        /// Symbol name for the unresolved-constant error path.
        sym: NameId,
    },
    /// `flags[set]` with members pre-resolved to values.
    Flags {
        /// Range into [`LoweredDb::flag_values`].
        values: (u32, u32),
        /// Wire width.
        bits: IntBits,
    },
    /// `string[...]` candidates.
    StringLit {
        /// Range into [`LoweredDb::strings`].
        strs: (u32, u32),
    },
    /// `ptr[dir, T]`.
    Ptr {
        /// Data-flow direction.
        dir: Dir,
        /// Pointee.
        elem: TypeId,
    },
    /// `array[T, ...]`.
    Array {
        /// Element type.
        elem: TypeId,
        /// Element count specifier.
        len: ArrayLen,
        /// Whether the element is `int8` (byte-buffer fast path).
        byte_elem: bool,
    },
    /// `len[target]` — the target is resolved positionally by the
    /// enclosing [`LStruct`] field or [`LParam`].
    Len {
        /// Wire width.
        bits: IntBits,
    },
    /// `bytesize[target]` — see [`LType::Len`].
    Bytesize {
        /// Wire width.
        bits: IntBits,
    },
    /// Reference to an interned resource.
    Resource {
        /// Dense resource id.
        res: ResourceId,
    },
    /// Reference to a flattened struct/union definition.
    Struct {
        /// Dense struct id.
        id: StructId,
    },
    /// A named type with no definition in the database (generates a
    /// zero scalar; encodes to an `UnknownType` error, like the AST
    /// walk).
    UnknownNamed {
        /// The undefined name, for the error message.
        name: NameId,
    },
    /// `proc[start, per]`.
    Proc {
        /// Base value.
        start: u64,
        /// Stride per process.
        per: u64,
        /// Wire width.
        bits: IntBits,
    },
    /// `void`.
    Void,
}

/// Auto-fill action of a struct field, with the sibling target
/// resolved to a field index at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LAutofill {
    /// `len[target]`: element count of the sibling at `target`
    /// (`None` when the named sibling does not exist — encodes 0).
    Len {
        /// Sibling field index.
        target: Option<u32>,
        /// Wire width.
        bits: IntBits,
    },
    /// `bytesize[target]`: encoded byte size of the sibling at
    /// `target`; the stored [`TypeId`] is the sibling's pointee type
    /// (or the sibling itself when it is not a pointer).
    Bytesize {
        /// Sibling field index and its dereferenced type.
        target: Option<(u32, TypeId)>,
        /// Wire width.
        bits: IntBits,
    },
}

/// One flattened struct/union field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LField {
    /// Field type.
    pub ty: TypeId,
    /// Auto-fill action, for `len`/`bytesize` fields.
    pub autofill: Option<LAutofill>,
}

/// A flattened struct or union definition.
#[derive(Debug, Clone)]
pub struct LStruct {
    /// Definition name (diagnostics only).
    pub name: NameId,
    /// `true` for unions.
    pub is_union: bool,
    /// Ordered fields.
    pub fields: Vec<LField>,
    /// Precomputed field offsets and total size (what
    /// [`field_offsets`] computes per encode on the AST walk), or the
    /// layout error encoding this definition reproduces.
    pub layout: Result<(Vec<u64>, u64), LayoutError>,
}

/// One syscall parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LParam {
    /// Parameter type.
    pub ty: TypeId,
    /// For top-level `len[...]`/`bytesize[...]` parameters: the index
    /// of the sibling parameter they measure (register fix-up).
    pub len_target: Option<u32>,
}

/// One lowered syscall description.
#[derive(Debug, Clone)]
pub struct LSyscall {
    /// Index into [`LoweredDb::base_ops`] — the dense dispatch op.
    pub op: u32,
    /// Ordered parameters.
    pub params: Vec<LParam>,
    /// Resource produced by the return value, as a dense id.
    pub ret_resource: Option<ResourceId>,
}

/// One interned resource.
#[derive(Debug, Clone)]
pub struct LResource {
    /// Resource name (diagnostics only).
    pub name: NameId,
    /// Whether the database declares this resource (builtin or
    /// explicit). Undeclared names still intern so that producer
    /// matching stays a pure id compare.
    pub declared: bool,
    /// Underlying integer width ([`SpecDb::resource_bits`]), chased
    /// through resource-to-resource chains at compile time.
    pub bits: Option<IntBits>,
    /// Syscall indices producing this resource, ascending — the same
    /// list [`SpecDb::producers_of`] yields, precomputed.
    pub producers: Vec<u32>,
}

/// The compiled, index-interned form of a `(SpecDb, ConstDb)` pair.
///
/// Built once by [`LoweredDb::build`] (or fetched from the
/// [`crate::SpecCache`] via [`crate::SpecCache::get_or_lower`]);
/// immutable afterwards, so one instance is shared by reference
/// across all fuzzing shards and threads.
#[derive(Debug, Clone)]
pub struct LoweredDb {
    /// Process-unique identity of this build (clones share it: they
    /// are the same immutable tables). Memoised pointee images are
    /// keyed on it, so bytes encoded under one database are never
    /// trusted under another, however similar its specs.
    id: u64,
    types: Vec<LType>,
    layouts: Vec<Result<Layout, LayoutError>>,
    /// Printed form of each type, for (cold) mismatch errors.
    printed: Vec<String>,
    structs: Vec<LStruct>,
    syscalls: Vec<LSyscall>,
    /// Full syscall names aligned with `syscalls` (name order, like
    /// [`SpecDb::syscall_index`]); cold paths only.
    syscall_names: Vec<String>,
    resources: Vec<LResource>,
    flag_pool: Vec<u64>,
    string_pool: Vec<Vec<u8>>,
    names: Vec<String>,
    /// Distinct syscall base names in first-occurrence order.
    base_ops: Vec<String>,
}

/// Transient state of one lowering run.
struct Lowerer<'a> {
    db: &'a SpecDb,
    consts: &'a ConstDb,
    out: LoweredDb,
    struct_ids: BTreeMap<String, StructId>,
    resource_ids: BTreeMap<String, ResourceId>,
    name_ids: BTreeMap<String, NameId>,
    op_ids: BTreeMap<String, u32>,
    /// Flag-set name → resolved pool range, so repeated references to
    /// one set share one slice instead of re-extending the pool.
    flag_ranges: BTreeMap<String, (u32, u32)>,
    /// String candidate list → pool range, same sharing.
    string_ranges: BTreeMap<Vec<String>, (u32, u32)>,
}

impl LoweredDb {
    /// Compile a database and constant table into the lowered IR.
    #[must_use]
    pub fn build(db: &SpecDb, consts: &ConstDb) -> LoweredDb {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut l = Lowerer {
            db,
            consts,
            out: LoweredDb {
                // Relaxed: the counter hands out names, it publishes nothing.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                types: Vec::new(),
                layouts: Vec::new(),
                printed: Vec::new(),
                structs: Vec::new(),
                syscalls: Vec::new(),
                syscall_names: Vec::new(),
                resources: Vec::new(),
                flag_pool: Vec::new(),
                string_pool: Vec::new(),
                names: Vec::new(),
                base_ops: Vec::new(),
            },
            struct_ids: BTreeMap::new(),
            resource_ids: BTreeMap::new(),
            name_ids: BTreeMap::new(),
            op_ids: BTreeMap::new(),
            flag_ranges: BTreeMap::new(),
            string_ranges: BTreeMap::new(),
        };
        // Declared resources first (builtins + explicit), in name
        // order, so their ids are stable and independent of use sites.
        let mut declared: Vec<String> = BUILTIN_RESOURCES
            .iter()
            .map(|(n, _)| (*n).to_string())
            .collect();
        declared.extend(db.resources().map(|r| r.name.clone()));
        declared.sort();
        declared.dedup();
        for name in &declared {
            l.intern_resource(name);
        }
        // Flattened struct ids are assigned before any field lowers so
        // mutually-recursive definitions reference each other by id.
        for (i, def) in db.structs().enumerate() {
            l.struct_ids.insert(def.name.clone(), i as StructId);
        }
        for def in db.structs() {
            let fields = def
                .fields
                .iter()
                .map(|f| {
                    let ty = l.lower_type(&f.ty);
                    let autofill = match &f.ty {
                        Type::Len { target, bits } => Some(LAutofill::Len {
                            target: field_index(def, target),
                            bits: *bits,
                        }),
                        Type::Bytesize { target, bits } => Some(LAutofill::Bytesize {
                            target: field_index(def, target).map(|idx| {
                                let tty = deref_for_len(&def.fields[idx as usize].ty)
                                    .expect("deref_for_len is total");
                                (idx, l.lower_type(tty))
                            }),
                            bits: *bits,
                        }),
                        _ => None,
                    };
                    LField { ty, autofill }
                })
                .collect();
            let name = l.intern_name(&def.name);
            l.out.structs.push(LStruct {
                name,
                is_union: def.is_union,
                fields,
                layout: field_offsets(def, db),
            });
        }
        // Syscalls in dense-index (name) order: ops, params with
        // register-fixup targets, producer-matching return resources.
        for sys in db.syscalls() {
            let op = l.intern_op(&sys.base);
            let params = sys
                .params
                .iter()
                .map(|p| LParam {
                    ty: l.lower_type(&p.ty),
                    len_target: match &p.ty {
                        Type::Len { target, .. } | Type::Bytesize { target, .. } => sys
                            .params
                            .iter()
                            .position(|q| &q.name == target)
                            .map(|i| i as u32),
                        _ => None,
                    },
                })
                .collect();
            let ret_resource = sys.ret.as_deref().map(|r| l.intern_resource(r));
            l.out.syscalls.push(LSyscall {
                op,
                params,
                ret_resource,
            });
            l.out.syscall_names.push(sys.name());
        }
        // Producer tables: the same ascending-index lists the AST-walk
        // generator precomputed per construction, now computed once.
        let producer_lists: Vec<(ResourceId, Vec<u32>)> = l
            .resource_ids
            .iter()
            .filter(|(name, _)| db.resource(name).is_some())
            .map(|(name, &rid)| {
                let list = db
                    .producers_of(name)
                    .filter_map(|s| db.syscall_index(&s.name()))
                    .map(|i| i as u32)
                    .collect();
                (rid, list)
            })
            .collect();
        for (rid, list) in producer_lists {
            l.out.resources[rid as usize].producers = list;
        }
        l.out
    }

    /// Number of lowered syscalls (equals [`SpecDb::syscall_count`]).
    #[must_use]
    pub fn syscall_count(&self) -> usize {
        self.syscalls.len()
    }

    /// The lowered syscall at a dense index (the same index space as
    /// [`SpecDb::syscall_index`]).
    #[must_use]
    pub fn syscall(&self, idx: usize) -> &LSyscall {
        &self.syscalls[idx]
    }

    /// Dense index of a syscall by full name (cold path).
    #[must_use]
    pub fn syscall_index(&self, full_name: &str) -> Option<usize> {
        self.syscall_names
            .binary_search_by(|n| n.as_str().cmp(full_name))
            .ok()
    }

    /// Full name of the syscall at `idx` (cold path).
    #[must_use]
    pub fn syscall_name(&self, idx: usize) -> &str {
        &self.syscall_names[idx]
    }

    /// Distinct syscall base names, indexed by [`LSyscall::op`].
    /// Executors map these onto their dispatch enum once.
    #[must_use]
    pub fn base_ops(&self) -> &[String] {
        &self.base_ops
    }

    /// The lowered type node at `id` (a copy; [`LType`] is `Copy`).
    #[must_use]
    pub fn ltype(&self, id: TypeId) -> LType {
        self.types[id as usize]
    }

    /// Precomputed layout of the type at `id`.
    pub fn layout(&self, id: TypeId) -> &Result<Layout, LayoutError> {
        &self.layouts[id as usize]
    }

    /// Printed form of the type at `id` (error paths only).
    #[must_use]
    pub fn printed(&self, id: TypeId) -> &str {
        &self.printed[id as usize]
    }

    /// The flattened struct definition at `id`.
    #[must_use]
    pub fn lstruct(&self, id: StructId) -> &LStruct {
        &self.structs[id as usize]
    }

    /// The interned resource at `id`.
    #[must_use]
    pub fn lresource(&self, id: ResourceId) -> &LResource {
        &self.resources[id as usize]
    }

    /// Number of interned resources.
    #[must_use]
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Dense id of a resource by name (cold path).
    #[must_use]
    pub fn resource_id(&self, name: &str) -> Option<ResourceId> {
        self.resource_ids_lookup(name)
    }

    fn resource_ids_lookup(&self, name: &str) -> Option<ResourceId> {
        self.resources
            .iter()
            .position(|r| self.names[r.name as usize] == name)
            .map(|i| i as ResourceId)
    }

    /// Pre-resolved members of a flag set (see [`LType::Flags`]).
    #[must_use]
    pub fn flag_values(&self, range: (u32, u32)) -> &[u64] {
        &self.flag_pool[range.0 as usize..range.1 as usize]
    }

    /// String-literal candidates (see [`LType::StringLit`]).
    #[must_use]
    pub fn strings(&self, range: (u32, u32)) -> &[Vec<u8>] {
        &self.string_pool[range.0 as usize..range.1 as usize]
    }

    /// An interned diagnostic name.
    #[must_use]
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id as usize]
    }
}

/// Index of `target` among `def`'s fields, as the AST walk resolves
/// it by name per encode.
fn field_index(def: &crate::ast::StructDef, target: &str) -> Option<u32> {
    def.fields
        .iter()
        .position(|f| f.name == target)
        .map(|i| i as u32)
}

impl Lowerer<'_> {
    fn intern_name(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.out.names.len() as NameId;
        self.out.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn intern_op(&mut self, base: &str) -> u32 {
        if let Some(&id) = self.op_ids.get(base) {
            return id;
        }
        let id = self.out.base_ops.len() as u32;
        self.out.base_ops.push(base.to_string());
        self.op_ids.insert(base.to_string(), id);
        id
    }

    fn intern_resource(&mut self, name: &str) -> ResourceId {
        if let Some(&id) = self.resource_ids.get(name) {
            return id;
        }
        let id = self.out.resources.len() as ResourceId;
        let name_id = self.intern_name(name);
        self.out.resources.push(LResource {
            name: name_id,
            declared: self.db.resource(name).is_some(),
            bits: self.db.resource_bits(name),
            producers: Vec::new(),
        });
        self.resource_ids.insert(name.to_string(), id);
        id
    }

    /// Lower one type occurrence into the arena, returning its id.
    fn lower_type(&mut self, ty: &Type) -> TypeId {
        let lt = match ty {
            Type::Int { bits, range } => LType::Int {
                bits: *bits,
                range: *range,
            },
            Type::Const { value, bits } => {
                let sym = match value {
                    ConstExpr::Sym(s) => self.intern_name(s),
                    ConstExpr::Num(_) => self.intern_name(""),
                };
                LType::Const {
                    value: self.consts.resolve(value),
                    bits: *bits,
                    sym,
                }
            }
            Type::Flags { set, bits } => {
                let values = match self.flag_ranges.get(set) {
                    Some(&range) => range,
                    None => {
                        let start = self.out.flag_pool.len() as u32;
                        if let Some(fd) = self.db.flags_def(set) {
                            self.out
                                .flag_pool
                                .extend(fd.values.iter().filter_map(|v| self.consts.resolve(v)));
                        }
                        let range = (start, self.out.flag_pool.len() as u32);
                        self.flag_ranges.insert(set.clone(), range);
                        range
                    }
                };
                LType::Flags {
                    values,
                    bits: *bits,
                }
            }
            Type::StringLit { values } => {
                let strs = match self.string_ranges.get(values) {
                    Some(&range) => range,
                    None => {
                        let start = self.out.string_pool.len() as u32;
                        self.out
                            .string_pool
                            .extend(values.iter().map(|s| s.clone().into_bytes()));
                        let range = (start, self.out.string_pool.len() as u32);
                        self.string_ranges.insert(values.clone(), range);
                        range
                    }
                };
                LType::StringLit { strs }
            }
            Type::Ptr { dir, elem } => LType::Ptr {
                dir: *dir,
                elem: self.lower_type(elem),
            },
            Type::Array { elem, len } => LType::Array {
                elem: self.lower_type(elem),
                len: *len,
                byte_elem: matches!(
                    elem.as_ref(),
                    Type::Int {
                        bits: IntBits::I8,
                        ..
                    }
                ),
            },
            Type::Len { bits, .. } => LType::Len { bits: *bits },
            Type::Bytesize { bits, .. } => LType::Bytesize { bits: *bits },
            Type::Resource(name) => LType::Resource {
                res: self.intern_resource(name),
            },
            Type::Named(name) => match self.struct_ids.get(name) {
                Some(&id) => LType::Struct { id },
                None => LType::UnknownNamed {
                    name: self.intern_name(name),
                },
            },
            Type::Proc { start, per, bits } => LType::Proc {
                start: *start,
                per: *per,
                bits: *bits,
            },
            Type::Void => LType::Void,
        };
        let id = self.out.types.len() as TypeId;
        self.out.types.push(lt);
        self.out.layouts.push(type_layout(ty, self.db));
        self.out.printed.push(print_type(ty));
        id
    }
}

/// Index of the producing syscall for generation, mirroring the
/// AST-walk generator's `producers` map semantics: `Some(list)` only
/// for resources the database declares.
impl LResource {
    /// Producer list usable for generation, or `None` for undeclared
    /// resources (the AST walk's producer map has no entry for them).
    #[must_use]
    pub fn producer_list(&self) -> Option<&[u32]> {
        self.declared.then_some(self.producers.as_slice())
    }
}

fn mismatch(db: &LoweredDb, ty: TypeId, found: &'static str) -> EncodeError {
    EncodeError::Mismatch {
        expected: db.printed(ty).to_string(),
        found,
    }
}

/// Builds the memory image for one syscall's arguments by walking the
/// lowered arena — the hot-path replacement for
/// [`crate::value::MemBuilder`], which stays as the AST-walk
/// reference the differential tests compare against.
///
/// Mirrors `MemBuilder` exactly: same segment addresses, same buffer
/// pooling, same errors in the same cases — only the name-keyed
/// lookups (`struct_def`, `resource_bits`, `ConstDb::resolve`, field
/// position scans) are gone, replaced by ids resolved at lowering.
#[derive(Debug, Default)]
pub struct LoweredEncoder {
    next_addr: u64,
    segments: Vec<(u64, Vec<u8>)>,
    pool: Vec<Vec<u8>>,
}

impl LoweredEncoder {
    /// Create an encoder allocating from [`ARG_BASE_ADDR`].
    #[must_use]
    pub fn new() -> LoweredEncoder {
        LoweredEncoder {
            next_addr: ARG_BASE_ADDR,
            segments: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Finished memory segments `(address, bytes)`, ascending.
    #[must_use]
    pub fn segments(&self) -> &[(u64, Vec<u8>)] {
        &self.segments
    }

    /// Finished memory segments, owned.
    #[must_use]
    pub fn into_segments(self) -> Vec<(u64, Vec<u8>)> {
        self.segments
    }

    /// Restart the address space and recycle current segment buffers.
    pub fn reset(&mut self) {
        self.next_addr = ARG_BASE_ADDR;
        for (_, mut bytes) in self.segments.drain(..) {
            bytes.clear();
            self.pool.push(bytes);
        }
    }

    /// Swap the finished segment vector with `other` (see
    /// [`crate::value::MemBuilder::swap_segments`]).
    pub fn swap_segments(&mut self, other: &mut Vec<(u64, Vec<u8>)>) {
        std::mem::swap(&mut self.segments, other);
    }

    /// Return retired segments to the buffer pool.
    pub fn recycle(&mut self, retired: &mut Vec<(u64, Vec<u8>)>) {
        for (_, mut bytes) in retired.drain(..) {
            bytes.clear();
            self.pool.push(bytes);
        }
    }

    fn pooled_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Encode one top-level syscall argument, returning the register
    /// value (the scalar itself, or the address of the allocation).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] in exactly the cases the AST-walk
    /// [`crate::value::MemBuilder::encode_arg`] does.
    pub fn encode_arg(
        &mut self,
        db: &LoweredDb,
        ty: TypeId,
        val: &Value,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        match db.ltype(ty) {
            LType::Ptr { elem, .. } => match val {
                Value::Ptr { pointee: None } => Ok(0),
                Value::Ptr {
                    pointee: Some(inner),
                } => self.alloc_pointee(db, elem, inner, resolve),
                other => Err(mismatch(db, ty, value_kind(other))),
            },
            _ => self.scalar(db, ty, val, resolve),
        }
    }

    /// Lay `val` out as one new segment. A pointee some other program
    /// also holds (a mutant's untouched argument, shared with its
    /// corpus parent) is walked once: that walk's finished bytes are
    /// memoised on the pointee if it is closed, and every later encode
    /// under the same database and type copies them. A closed value
    /// allocates nothing nested and never calls `resolve`, so the copy
    /// leaves addresses, segment order and errors those of the walk.
    fn alloc_pointee(
        &mut self,
        db: &LoweredDb,
        ty: TypeId,
        val: &Arc<Pointee>,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let mut buf = self.pooled_buf();
        if let Some(image) = val.image((db.id, ty)) {
            buf.extend_from_slice(image);
        } else {
            self.encode_into(db, ty, val, &mut buf, resolve)?;
            let size = db.layout(ty).as_ref().map_err(Clone::clone)?.size;
            if (buf.len() as u64) < size {
                buf.resize(size as usize, 0);
            }
            if Arc::strong_count(val) > 1 {
                val.memoise((db.id, ty), &buf);
            }
        }
        let addr = self.next_addr;
        // Same spacing as the AST walk: 16-byte aligned, non-adjacent.
        let advance = ((buf.len() as u64).max(1) + 0x3f) & !0xf;
        self.next_addr += advance + 16;
        self.segments.push((addr, buf));
        Ok(addr)
    }

    fn scalar(
        &mut self,
        db: &LoweredDb,
        ty: TypeId,
        val: &Value,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let lt = db.ltype(ty);
        let bits = scalar_bits(db, lt).ok_or_else(|| mismatch(db, ty, value_kind(val)))?;
        let raw = match (lt, val) {
            (LType::Const { value, sym, .. }, _) => {
                value.ok_or_else(|| EncodeError::UnresolvedConst(db.name(sym).to_string()))?
            }
            (_, Value::Int(n)) => *n,
            (_, Value::Res(r)) => resolve(r),
            (_, other) => return Err(mismatch(db, ty, value_kind(other))),
        };
        Ok(bits.truncate(raw))
    }

    #[allow(clippy::too_many_lines)]
    fn encode_into(
        &mut self,
        db: &LoweredDb,
        ty: TypeId,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        match db.ltype(ty) {
            LType::Int { bits, .. }
            | LType::Const { bits, .. }
            | LType::Flags { bits, .. }
            | LType::Len { bits }
            | LType::Bytesize { bits }
            | LType::Proc { bits, .. } => {
                let v = self.scalar(db, ty, val, resolve)?;
                push_int(buf, v, bits);
                Ok(())
            }
            LType::Resource { res } => {
                let r = db.lresource(res);
                let bits = r.bits.ok_or_else(|| {
                    EncodeError::Layout(LayoutError::UnknownType(db.name(r.name).to_string()))
                })?;
                let v = match val {
                    Value::Int(n) => *n,
                    Value::Res(rr) => resolve(rr),
                    other => return Err(mismatch(db, ty, value_kind(other))),
                };
                push_int(buf, bits.truncate(v), bits);
                Ok(())
            }
            LType::Void => Ok(()),
            LType::StringLit { .. } => match val {
                Value::Bytes(b) => {
                    buf.extend_from_slice(b);
                    buf.push(0);
                    Ok(())
                }
                other => Err(mismatch(db, ty, value_kind(other))),
            },
            LType::Ptr { elem, .. } => {
                let addr = match val {
                    Value::Ptr { pointee: None } => 0,
                    Value::Ptr {
                        pointee: Some(inner),
                    } => self.alloc_pointee(db, elem, inner, resolve)?,
                    other => return Err(mismatch(db, ty, value_kind(other))),
                };
                push_int(buf, addr, IntBits::I64);
                Ok(())
            }
            LType::Array {
                elem,
                len,
                byte_elem,
            } => {
                // Same bytes as the AST walk, without its per-encode
                // allocations (the reference collects a `Vec<&Value>`
                // and clones byte payloads; here we index the group
                // directly and pad/truncate in place).
                let values: &[Value] = match val {
                    Value::Group(vs) => vs,
                    Value::Bytes(bytes) => {
                        if byte_elem {
                            let start = buf.len();
                            buf.extend_from_slice(bytes);
                            if let ArrayLen::Fixed(n) = len {
                                buf.resize(start + n as usize, 0);
                            }
                            return Ok(());
                        }
                        return Err(mismatch(db, ty, "bytes"));
                    }
                    other => return Err(mismatch(db, ty, value_kind(other))),
                };
                let elem_size = db.layout(elem).as_ref().map_err(Clone::clone)?.size;
                let mut count = values.len() as u64;
                if let ArrayLen::Fixed(n) = len {
                    count = n;
                }
                for i in 0..count {
                    match values.get(i as usize) {
                        Some(v) => self.encode_into(db, elem, v, buf, resolve)?,
                        None => buf.extend(std::iter::repeat_n(0u8, elem_size as usize)),
                    }
                }
                Ok(())
            }
            LType::Struct { id } => {
                if db.lstruct(id).is_union {
                    self.encode_union(db, id, ty, val, buf, resolve)
                } else {
                    self.encode_struct(db, id, ty, val, buf, resolve)
                }
            }
            LType::UnknownNamed { name } => Err(EncodeError::Layout(LayoutError::UnknownType(
                db.name(name).to_string(),
            ))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_union(
        &mut self,
        db: &LoweredDb,
        id: StructId,
        ty: TypeId,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        let (arm, inner) = match val {
            Value::Union { arm, value } => (*arm, value.as_ref()),
            other => return Err(mismatch(db, ty, value_kind(other))),
        };
        let field_ty = db
            .lstruct(id)
            .fields
            .get(arm)
            .map(|f| f.ty)
            .ok_or_else(|| mismatch(db, ty, "union (arm out of range)"))?;
        let start = buf.len();
        self.encode_into(db, field_ty, inner, buf, resolve)?;
        let total = match &db.lstruct(id).layout {
            Ok((_, total)) => *total as usize,
            Err(e) => return Err(e.clone().into()),
        };
        if buf.len() - start < total {
            buf.resize(start + total, 0);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_struct(
        &mut self,
        db: &LoweredDb,
        id: StructId,
        ty: TypeId,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        let values = match val {
            Value::Group(vs) => vs,
            other => return Err(mismatch(db, ty, value_kind(other))),
        };
        let def = db.lstruct(id);
        if values.len() != def.fields.len() {
            return Err(mismatch(db, ty, "group (wrong field count)"));
        }
        let (offsets, total) = match &def.layout {
            Ok((offsets, total)) => (offsets.as_slice(), *total),
            Err(e) => return Err(e.clone().into()),
        };
        debug_assert_eq!(offsets.len(), values.len());
        let start = buf.len();
        for i in 0..values.len() {
            let field = def.fields[i];
            // Align to this field's precomputed offset (dynamic earlier
            // fields may have shifted us; offsets are a lower bound then).
            let want = start + offsets[i] as usize;
            if buf.len() < want {
                buf.resize(want, 0);
            }
            let fv = &values[i];
            match field.autofill {
                Some(LAutofill::Len { target, bits }) => {
                    let n = sibling_count(values, target);
                    push_int(buf, bits.truncate(n), bits);
                }
                Some(LAutofill::Bytesize { target, bits }) => {
                    let n = self.sibling_bytesize(db, values, target, resolve)?;
                    push_int(buf, bits.truncate(n), bits);
                }
                None => self.encode_into(db, field.ty, fv, buf, resolve)?,
            }
        }
        if buf.len() - start < total as usize {
            buf.resize(start + total as usize, 0);
        }
        Ok(())
    }

    fn sibling_bytesize(
        &mut self,
        db: &LoweredDb,
        values: &[Value],
        target: Option<(u32, TypeId)>,
        resolve: &dyn Fn(&crate::value::ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let Some((idx, tty)) = target else {
            return Ok(0);
        };
        let mut scratch = self.pooled_buf();
        let n = match deref_value_for_len(&values[idx as usize]) {
            Some(v) => {
                self.encode_into(db, tty, v, &mut scratch, resolve)?;
                scratch.len() as u64
            }
            None => 0,
        };
        scratch.clear();
        self.pool.push(scratch);
        Ok(n)
    }
}

/// Element count used for `len[target]` (see
/// `crate::value::sibling_count` — identical semantics over a
/// pre-resolved field index).
fn sibling_count(values: &[Value], target: Option<u32>) -> u64 {
    let Some(idx) = target else {
        return 0;
    };
    match deref_value_for_len(&values[idx as usize]) {
        Some(Value::Bytes(b)) => b.len() as u64,
        Some(Value::Group(g)) => g.len() as u64,
        Some(_) => 1,
        None => 0,
    }
}

/// One contiguous straight-line run of basic-block ids with an
/// optional fall-through successor — a row of the static control-flow
/// table the flight recorder's delta coder predicts against (see
/// `kgpt-trace`).
///
/// Blocks inside the run retire in id order, so within a run the
/// predicted successor of block `b` is `b + 1`. At the run's last
/// block the predicted successor is `next` when present (the branch a
/// structurally-valid execution takes, e.g. a command body falling
/// through into its deep-path blocks), else the numerically next id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgRun {
    /// First block id of the run.
    pub start: u64,
    /// Number of consecutive block ids in the run (rows with `len == 0`
    /// are dropped at [`CfgSuccessors::build`]).
    pub len: u64,
    /// Predicted successor of the run's *last* block, when the lowered
    /// layout fixes one (`None` = predict `last + 1`).
    pub next: Option<u64>,
}

/// The static successor-prediction table for trace delta coding:
/// sorted [`CfgRun`] rows queried by predecessor block id.
///
/// The table is *advisory*: a misprediction only costs the trace
/// encoder a wider `DIVERGE` token, never correctness — so the rows
/// are a best-effort projection of the executor's block layout (the
/// virtual kernel exports its layout as `(start, len, next)` triples;
/// the fuzzer assembles them into this table). Both the recorder and
/// the replayer must use the same table for a trace's bit stream to
/// compare byte-for-byte, which holds because the table is a pure
/// function of the booted kernel.
#[derive(Debug, Clone, Default)]
pub struct CfgSuccessors {
    /// Rows sorted by `start`; disjoint by construction of the block
    /// namespace (each handler owns a disjoint stratum).
    runs: Vec<CfgRun>,
}

impl CfgSuccessors {
    /// Build the table from unordered rows: empty runs are dropped,
    /// the rest sorted by start block.
    #[must_use]
    pub fn build(mut runs: Vec<CfgRun>) -> CfgSuccessors {
        runs.retain(|r| r.len > 0);
        runs.sort_by_key(|r| r.start);
        CfgSuccessors { runs }
    }

    /// Number of rows in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the table has no rows (prediction degrades to `prev+1`
    /// everywhere).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Predicted successor of block `prev`: `prev + 1` inside a run,
    /// the run's `next` at its last block (when fixed), and `prev + 1`
    /// outside any run. Total — an unknown `prev` is not an error,
    /// just a likely misprediction.
    #[must_use]
    pub fn predict(&self, prev: u64) -> u64 {
        let i = self.runs.partition_point(|r| r.start <= prev);
        if i > 0 {
            let r = &self.runs[i - 1];
            if prev < r.start + r.len && prev + 1 == r.start + r.len {
                if let Some(next) = r.next {
                    return next;
                }
            }
        }
        prev.wrapping_add(1)
    }
}

fn scalar_bits(db: &LoweredDb, lt: LType) -> Option<IntBits> {
    match lt {
        LType::Int { bits, .. }
        | LType::Const { bits, .. }
        | LType::Flags { bits, .. }
        | LType::Len { bits }
        | LType::Bytesize { bits }
        | LType::Proc { bits, .. } => Some(bits),
        LType::Resource { res } => db.lresource(res).bits,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::value::{zero_value, MemBuilder, ResRef};

    fn db(src: &str) -> SpecDb {
        SpecDb::from_files(vec![parse("t", src).unwrap()])
    }

    #[test]
    fn flags_resolve_at_compile_time() {
        let db = db("f = FA, FB, FC, 8\nioctl$X(fd fd, cmd const[1], arg flags[f, int32])\n");
        let mut consts = ConstDb::new();
        consts.define("FA", 1);
        consts.define("FC", 4);
        // FB is unresolved and must be filtered out, like the AST
        // walk's per-value `filter_map(resolve)`.
        let l = LoweredDb::build(&db, &consts);
        let sys = l.syscall(l.syscall_index("ioctl$X").unwrap());
        let LType::Flags { values, bits } = l.ltype(sys.params[2].ty) else {
            panic!("arg did not lower to flags");
        };
        assert_eq!(bits, IntBits::I32);
        assert_eq!(l.flag_values(values), &[1, 4, 8]);
    }

    #[test]
    fn repeated_flag_and_string_references_share_pool_ranges() {
        let db = db(
            "f = 1, 2, 4\nioctl$A(fd fd, cmd const[1], arg flags[f, int32])\nioctl$B(fd fd, cmd const[2], arg flags[f, int32])\nopenat$a(dir const[0], file ptr[in, string[\"/dev/x\"]], flags const[2], mode const[0])\nopenat$b(dir const[0], file ptr[in, string[\"/dev/x\"]], flags const[2], mode const[0])\n",
        );
        let l = LoweredDb::build(&db, &ConstDb::new());
        let flags_range = |name: &str| {
            let sys = l.syscall(l.syscall_index(name).unwrap());
            match l.ltype(sys.params[2].ty) {
                LType::Flags { values, .. } => values,
                other => panic!("{name}: not flags: {other:?}"),
            }
        };
        assert_eq!(flags_range("ioctl$A"), flags_range("ioctl$B"));
        assert_eq!(l.flag_values(flags_range("ioctl$A")), &[1, 2, 4]);
        let string_range = |name: &str| {
            let sys = l.syscall(l.syscall_index(name).unwrap());
            let LType::Ptr { elem, .. } = l.ltype(sys.params[1].ty) else {
                panic!("{name}: file is not a pointer");
            };
            match l.ltype(elem) {
                LType::StringLit { strs } => strs,
                other => panic!("{name}: not a string: {other:?}"),
            }
        };
        assert_eq!(string_range("openat$a"), string_range("openat$b"));
    }

    #[test]
    fn missing_flag_set_lowers_to_empty_list() {
        let db = db("ioctl$X(fd fd, cmd const[1], arg flags[nope, int32])\n");
        let l = LoweredDb::build(&db, &ConstDb::new());
        let sys = l.syscall(0);
        let LType::Flags { values, .. } = l.ltype(sys.params[2].ty) else {
            panic!("arg did not lower to flags");
        };
        assert!(l.flag_values(values).is_empty());
    }

    #[test]
    fn producer_tables_match_producers_of() {
        let src = r#"
resource fd_v[fd]
resource qid[int32]
openat$v(dir const[0], file ptr[in, string["/dev/v"]], flags const[2], mode const[0]) fd_v
ioctl$NEW(fd fd_v, cmd const[1], arg ptr[inout, q_new])
ioctl$USE(fd fd_v, cmd const[2], arg ptr[in, q_use])
q_new {
    id qid (out)
}
q_use {
    id qid
}
"#;
        let db = db(src);
        let consts = ConstDb::new();
        let l = LoweredDb::build(&db, &consts);
        for name in ["fd_v", "qid", "fd"] {
            let rid = l.resource_id(name).expect(name);
            let want: Vec<u32> = db
                .producers_of(name)
                .filter_map(|s| db.syscall_index(&s.name()))
                .map(|i| i as u32)
                .collect();
            let r = l.lresource(rid);
            assert!(r.declared, "{name} must be declared");
            assert_eq!(r.producers, want, "{name}");
            assert_eq!(r.producer_list(), Some(want.as_slice()), "{name}");
        }
    }

    #[test]
    fn ret_resource_is_a_dense_id_matching_consumers() {
        let db = db(
            "resource fd_v[fd]\nopenat$v(dir const[0], file ptr[in, string[\"/dev/v\"]], flags const[2], mode const[0]) fd_v\nioctl$A(fd fd_v, cmd const[1], arg ptr[in, array[int8]])\n",
        );
        let l = LoweredDb::build(&db, &ConstDb::new());
        let open = l.syscall(l.syscall_index("openat$v").unwrap());
        let ioctl = l.syscall(l.syscall_index("ioctl$A").unwrap());
        let LType::Resource { res } = l.ltype(ioctl.params[0].ty) else {
            panic!("fd param did not lower to a resource");
        };
        assert_eq!(open.ret_resource, Some(res));
        assert_eq!(ioctl.ret_resource, None);
    }

    #[test]
    fn undeclared_resources_intern_but_expose_no_producers() {
        // A return resource that is never declared: producer matching
        // still works by id, but generation sees no producer list —
        // exactly the AST walk's map-miss behaviour.
        let db = db("dup$x(old fd) mystery_res\n");
        let l = LoweredDb::build(&db, &ConstDb::new());
        let rid = l.resource_id("mystery_res").unwrap();
        let r = l.lresource(rid);
        assert!(!r.declared);
        assert_eq!(r.producer_list(), None);
        assert_eq!(r.bits, None);
    }

    #[test]
    fn consts_resolve_at_compile_time() {
        let db = db("ioctl$X(fd fd, cmd const[CMD], arg const[MISSING, int32])\n");
        let mut consts = ConstDb::new();
        consts.define("CMD", 0xc0de);
        let l = LoweredDb::build(&db, &consts);
        let sys = l.syscall(0);
        assert!(matches!(
            l.ltype(sys.params[1].ty),
            LType::Const {
                value: Some(0xc0de),
                ..
            }
        ));
        let LType::Const { value, sym, .. } = l.ltype(sys.params[2].ty) else {
            panic!("arg did not lower to const");
        };
        assert_eq!(value, None);
        assert_eq!(l.name(sym), "MISSING");
    }

    #[test]
    fn base_ops_are_dense_and_stable() {
        let db = db(
            "resource fd_v[fd]\nopenat$v(dir const[0], file ptr[in, string[\"/dev/v\"]], flags const[2], mode const[0]) fd_v\nioctl$A(fd fd_v, cmd const[1], arg ptr[in, array[int8]])\nioctl$B(fd fd_v, cmd const[2], arg ptr[in, array[int8]])\n",
        );
        let l = LoweredDb::build(&db, &ConstDb::new());
        assert_eq!(l.base_ops(), &["ioctl".to_string(), "openat".to_string()]);
        assert_eq!(l.base_ops()[l.syscall(0).op as usize], "ioctl");
        let open_idx = l.syscall_index("openat$v").unwrap();
        assert_eq!(l.base_ops()[l.syscall(open_idx).op as usize], "openat");
        assert_eq!(l.syscall_name(open_idx), "openat$v");
    }

    #[test]
    fn struct_len_targets_resolve_to_field_indices() {
        let db = db("s {\n\tcount len[data, int32]\n\tsz bytesize[data, int32]\n\tbad len[nope, int32]\n\tdata ptr[in, array[int8]]\n}\nioctl$X(fd fd, cmd const[1], arg ptr[in, s])\n");
        let l = LoweredDb::build(&db, &ConstDb::new());
        let sys = l.syscall(0);
        let LType::Ptr { elem, .. } = l.ltype(sys.params[2].ty) else {
            panic!("arg is not a pointer");
        };
        let LType::Struct { id } = l.ltype(elem) else {
            panic!("pointee is not a struct");
        };
        let s = l.lstruct(id);
        assert_eq!(
            s.fields[0].autofill,
            Some(LAutofill::Len {
                target: Some(3),
                bits: IntBits::I32
            })
        );
        let Some(LAutofill::Bytesize {
            target: Some((3, tty)),
            ..
        }) = s.fields[1].autofill
        else {
            panic!("bytesize target unresolved");
        };
        // The stored target type is the sibling's pointee.
        assert!(matches!(l.ltype(tty), LType::Array { .. }));
        assert_eq!(
            s.fields[2].autofill,
            Some(LAutofill::Len {
                target: None,
                bits: IntBits::I32
            })
        );
    }

    #[test]
    fn top_level_len_params_resolve_to_param_indices() {
        let db = db("setsockopt$x(fd fd, level const[1], opt const[2], val ptr[in, array[int8]], len bytesize[val])\n");
        let l = LoweredDb::build(&db, &ConstDb::new());
        let sys = l.syscall(0);
        assert_eq!(sys.params[4].len_target, Some(3));
        assert_eq!(sys.params[0].len_target, None);
    }

    #[test]
    fn lowered_encoder_matches_ast_walk_on_zero_values() {
        let src = r#"
resource fd_v[fd]
inner {
    a int64
    b int64
}
s {
    magic const[0xAB, int32]
    count len[data, int32]
    sz bytesize[payload, int32]
    payload ptr[in, inner]
    data ptr[in, array[int8]]
    u choice
    f fd_v
}
choice [
    x int8
    y int64
]
ioctl$X(fd fd_v, cmd const[1], arg ptr[in, s])
"#;
        let db = db(src);
        let consts = ConstDb::new();
        let l = LoweredDb::build(&db, &consts);
        let sys_idx = l.syscall_index("ioctl$X").unwrap();
        let ast_sys = db.syscall_at(sys_idx);
        let resolve = |r: &ResRef| r.fallback;
        let mut ast = MemBuilder::new(&db, &consts);
        let mut low = LoweredEncoder::new();
        for (pi, p) in ast_sys.params.iter().enumerate() {
            let v = zero_value(&p.ty, &db).unwrap();
            let a = ast.encode_arg(&p.ty, &v, &resolve);
            let b = low.encode_arg(&l, l.syscall(sys_idx).params[pi].ty, &v, &resolve);
            assert_eq!(a, b, "param {pi}");
        }
        assert_eq!(ast.segments(), low.segments());
        // And after a reset, the recycled-buffer path reproduces the
        // same image again.
        ast.reset();
        low.reset();
        for (pi, p) in ast_sys.params.iter().enumerate() {
            let v = zero_value(&p.ty, &db).unwrap();
            let a = ast.encode_arg(&p.ty, &v, &resolve);
            let b = low.encode_arg(&l, l.syscall(sys_idx).params[pi].ty, &v, &resolve);
            assert_eq!(a, b, "param {pi} after reset");
        }
        assert_eq!(ast.segments(), low.segments());
    }

    #[test]
    fn lowered_encoder_reproduces_ast_errors() {
        let db = db("s {\n\tx mystery\n}\nioctl$X(fd fd, cmd const[NOPE], arg ptr[in, s])\n");
        let consts = ConstDb::new();
        let l = LoweredDb::build(&db, &consts);
        let sys_idx = l.syscall_index("ioctl$X").unwrap();
        let ast_sys = db.syscall_at(sys_idx);
        let resolve = |r: &ResRef| r.fallback;
        let mut ast = MemBuilder::new(&db, &consts);
        let mut low = LoweredEncoder::new();
        // Unresolved const.
        let a = ast.encode_arg(&ast_sys.params[1].ty, &Value::Int(0), &resolve);
        let b = low.encode_arg(
            &l,
            l.syscall(sys_idx).params[1].ty,
            &Value::Int(0),
            &resolve,
        );
        assert_eq!(a, b);
        assert!(matches!(a, Err(EncodeError::UnresolvedConst(_))));
        // Unknown named type behind the pointer.
        let v = Value::ptr_to(Value::Group(vec![Value::Int(0)]));
        let a = ast.encode_arg(&ast_sys.params[2].ty, &v, &resolve);
        let b = low.encode_arg(&l, l.syscall(sys_idx).params[2].ty, &v, &resolve);
        assert_eq!(a, b);
        assert!(matches!(a, Err(EncodeError::Layout(_))));
        // Value-shape mismatch.
        let a = ast.encode_arg(&ast_sys.params[2].ty, &Value::Int(1), &resolve);
        let b = low.encode_arg(
            &l,
            l.syscall(sys_idx).params[2].ty,
            &Value::Int(1),
            &resolve,
        );
        assert_eq!(a, b);
        assert!(matches!(a, Err(EncodeError::Mismatch { .. })));
    }

    #[test]
    fn only_a_shared_closed_pointee_that_encoded_gets_an_image() {
        let db = db("s {\n\tn int32\n\tdata array[int8, 4]\n}\nioctl$X(fd fd, cmd const[1], arg ptr[in, s])\n");
        let l = LoweredDb::build(&db, &ConstDb::new());
        let arg = l.syscall(0).params[2].ty;
        let LType::Ptr { elem, .. } = l.ltype(arg) else {
            panic!("arg is not a pointer");
        };
        let resolve = |r: &ResRef| r.fallback;
        let s = |n: Value| Value::ptr_to(Value::Group(vec![n, Value::Bytes(vec![1, 2, 3, 4])]));
        let image = |v: &Value, db: &LoweredDb| match v {
            Value::Ptr { pointee: Some(p) } => p.image((db.id, elem)).map(<[u8]>::to_vec),
            _ => panic!("not a pointer"),
        };
        let mut enc = LoweredEncoder::new();

        // Held by one program only: a run-once program pays no image.
        let lone = s(Value::Int(7));
        enc.encode_arg(&l, arg, &lone, &resolve).unwrap();
        assert_eq!(image(&lone, &l), None);

        // Shared: the first walk's segment becomes the image, and the
        // copy reproduces the walk.
        let shared = s(Value::Int(7));
        let _holder = shared.clone();
        enc.reset();
        enc.encode_arg(&l, arg, &shared, &resolve).unwrap();
        let walked = enc.segments().to_vec();
        assert_eq!(image(&shared, &l), Some(walked[0].1.clone()));
        enc.reset();
        enc.encode_arg(&l, arg, &shared, &resolve).unwrap();
        assert_eq!(enc.segments(), &walked[..]);

        // Under another build the image is neither read nor replaced.
        let other = LoweredDb::build(&db, &ConstDb::new());
        assert_ne!(l.id, other.id);
        enc.reset();
        enc.encode_arg(&other, arg, &shared, &resolve).unwrap();
        assert_eq!(enc.segments(), &walked[..]);
        assert_eq!(image(&shared, &other), None);
        assert!(image(&shared, &l).is_some());

        // Shared but not closed, and shared but not encodable: never.
        let open = s(Value::Res(ResRef::dangling()));
        let misfit = Value::ptr_to(Value::Group(vec![Value::Int(7)]));
        for (v, encodes) in [(open, true), (misfit, false)] {
            let _holder = v.clone();
            enc.reset();
            assert_eq!(enc.encode_arg(&l, arg, &v, &resolve).is_ok(), encodes);
            assert_eq!(image(&v, &l), None);
        }
    }

    #[test]
    fn cfg_successors_predict_inside_at_end_and_outside_runs() {
        let table = CfgSuccessors::build(vec![
            // Out of order and with an empty row on purpose.
            CfgRun {
                start: 100,
                len: 4,
                next: Some(132),
            },
            CfgRun {
                start: 0,
                len: 0,
                next: Some(999),
            },
            CfgRun {
                start: 132,
                len: 2,
                next: None,
            },
        ]);
        assert_eq!(table.len(), 2, "empty rows dropped");
        // Inside a run: fall through.
        assert_eq!(table.predict(100), 101);
        assert_eq!(table.predict(102), 103);
        // Last block of a run with a fixed successor.
        assert_eq!(table.predict(103), 132);
        // Last block of a run without one: numerically next.
        assert_eq!(table.predict(133), 134);
        // Outside any run: numerically next (total function).
        assert_eq!(table.predict(50), 51);
        assert_eq!(table.predict(4096), 4097);
        assert_eq!(table.predict(u64::MAX), 0, "wraps instead of panicking");
    }

    #[test]
    fn cfg_successors_empty_table_predicts_next_id() {
        let table = CfgSuccessors::build(Vec::new());
        assert!(table.is_empty());
        assert_eq!(table.predict(7), 8);
    }
}
