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
//!   dispatch enum once at construction;
//! * every pointee type that is *closed by construction* — no
//!   resource, pointer, union, string or unresolved constant inside,
//!   layout known, at most one trailing array of drawn length — gets
//!   one [`Plan`]: its slots as `(offset, width, what is drawn)` in
//!   draw order. [`LoweredDb::gen_pointee`] generates such a pointee
//!   straight into the bytes [`LoweredEncoder`] would have produced
//!   for its tree, and the same plan reads those bytes back as the
//!   tree or as wire bytes — generator, encoder and serialiser share
//!   one layout table. Which pointees have one is a property of the
//!   type, decided here, never an option; every other type keeps the
//!   tree walk.
//!
//! The lowering is *behaviour-preserving by construction*: the
//! [`LoweredEncoder`] mirrors [`crate::value::MemBuilder`] decision
//! for decision (same errors, same segment addresses, same buffer
//! pooling), and the fuzzer's lowered generator draws the same RNG
//! sequence as the AST walk — a plan asks for its draws through
//! [`PlanDraws`], whose methods are the tree generator's own arms — so
//! program streams are bit-identical. `tests/properties.rs`,
//! `tests/image_equivalence.rs` and the `lowering` section of
//! `fuzz_bench` pin both.

use crate::ast::{ArrayLen, ConstExpr, Dir, IntBits, Type};
use crate::consts::ConstDb;
use crate::db::{SpecDb, BUILTIN_RESOURCES};
use crate::layout::{field_offsets, type_layout, Layout, LayoutError};
use crate::printer::print_type;
use crate::value::{
    deref_value_for_len, len_count, push_int, value_kind, EncodeError, Pointee, Value,
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
    /// Per type id: the [`Plan`] of a pointee type that is closed by
    /// construction (`None` everywhere else).
    plans: Vec<Option<Arc<Plan>>>,
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
                plans: Vec::new(),
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
            let tys: Vec<TypeId> = def.fields.iter().map(|f| l.lower_type(&f.ty)).collect();
            let fields = def
                .fields
                .iter()
                .zip(&tys)
                .map(|(f, &ty)| {
                    let autofill = match &f.ty {
                        Type::Len { target, bits } => Some(LAutofill::Len {
                            target: field_index(def, target),
                            bits: *bits,
                        }),
                        // A pointer sibling is measured through the
                        // pointer's own pointee id — the id a born-packed
                        // pointee's image is keyed on.
                        Type::Bytesize { target, bits } => Some(LAutofill::Bytesize {
                            target: field_index(def, target).map(|idx| {
                                let sibling = tys[idx as usize];
                                match l.out.types[sibling as usize] {
                                    LType::Ptr { elem, .. } => (idx, elem),
                                    _ => (idx, sibling),
                                }
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
        // Producer lists: the same ascending-index lists the AST-walk
        // generator precomputed per construction, read from the
        // database's producer table.
        for (name, &rid) in &l.resource_ids {
            if db.resource(name).is_some() {
                l.out.resources[rid as usize].producers = db.producer_indices(name).to_vec();
            }
        }
        // Last, with every struct flattened: one plan per pointee type
        // that is closed by construction.
        let mut out = l.out;
        let mut plans = vec![None; out.types.len()];
        let mut of_struct: BTreeMap<StructId, Option<Arc<Plan>>> = BTreeMap::new();
        for lt in &out.types {
            if let LType::Ptr { elem, .. } = *lt {
                let compile = || Plan::compile(&out, elem).map(Arc::new);
                plans[elem as usize] = match out.types[elem as usize] {
                    // Every pointer at one struct shares its plan.
                    LType::Struct { id } => of_struct.entry(id).or_insert_with(compile).clone(),
                    _ => compile(),
                };
            }
        }
        out.plans = plans;
        out
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
    #[inline]
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

    /// The plan of pointee type `ty`: `Some` iff some `ptr[_, T]`
    /// points at it and it is closed by construction (see [`Plan`]).
    #[must_use]
    pub fn plan(&self, ty: TypeId) -> Option<&Arc<Plan>> {
        self.plans[ty as usize].as_ref()
    }

    /// Generate a non-null pointer to a pointee of type `ty` straight
    /// into its encoded image, asking `draws` for exactly the draws —
    /// in exactly the order — a generator building the [`Value`] tree
    /// node by node makes. `None`, with nothing drawn, when `ty` has no
    /// plan or nests deeper than `room` levels below its root (the
    /// tree generator's depth cut-off would fall inside it).
    pub fn gen_pointee<D: PlanDraws>(
        &self,
        ty: TypeId,
        room: usize,
        draws: &mut D,
    ) -> Option<Value> {
        let plan = self.plan(ty).filter(|p| p.depth <= room)?;
        let (image, tail) = plan.generate(self, draws);
        Some(Value::ptr_packed(
            Arc::clone(plan),
            (self.id, ty),
            tail,
            image.into_boxed_slice(),
        ))
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

// ---- plans: a closed pointee is born encoded ------------------------------

/// The draws a [`Plan`] asks its generator for. Each method is one arm
/// of the tree generator's `gen_value`, so a generator that implements
/// them with the code its tree path runs keeps one draw stream
/// whichever form a pointee is born in.
pub trait PlanDraws {
    /// An `intN` value under an optional `[lo:hi]` range (untruncated).
    fn int(&mut self, range: Option<(u64, u64)>) -> u64;
    /// A `flags[set]` value over the set's resolved members
    /// (untruncated).
    fn flags(&mut self, members: &[u64]) -> u64;
    /// The element count of an array declared with `len`.
    fn array_len(&mut self, len: ArrayLen) -> u64;
    /// The elements of a byte array, first to last.
    fn bytes(&mut self, dst: &mut [u8]);
}

/// Receiver of a packed pointee's [`Value`] tree in pre-order, without
/// the tree: `group(n)` opens a `Value::Group` whose `n` children are
/// the next `n` subtrees.
pub(crate) trait PlanSink {
    fn int(&mut self, v: u64);
    fn buffer(&mut self, b: &[u8]);
    fn group(&mut self, n: usize);
}

/// What a scalar slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// An `intN` draw.
    Int { range: Option<(u64, u64)> },
    /// A `flags[set]` draw over this range of the flag pool.
    Flags { values: (u32, u32) },
    /// Nothing is drawn and the tree holds `Int(0)`: a resolved
    /// `const` (this value), a `len`/`bytesize` of a fixed-shape
    /// sibling (this value), or one of the trailing array (zero here,
    /// written last from [`Tail::measures`]).
    Filled(u64),
}

/// Element count of an array slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Fixed(u32),
    /// The plan's one trailing `array[T]` / `array[T, lo:hi]`: drawn
    /// per pointee.
    Tail,
}

impl Count {
    fn get(self, tail: u32) -> usize {
        match self {
            Count::Fixed(n) => n as usize,
            Count::Tail => tail as usize,
        }
    }
}

/// One node of the pointee's type, in pre-order. Offsets are relative
/// to the enclosing array element (to the image, outside any array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// A little-endian integer; a `Value::Int`.
    Scalar { off: u32, bits: IntBits, draw: Draw },
    /// A byte array, each byte drawn; a `Value::Bytes`.
    Bytes { off: u32, len: Count },
    /// A struct, no bytes of its own; a `Value::Group` of the next
    /// `fields` subtrees.
    Struct { fields: u32 },
    /// An array of non-byte elements `stride` bytes apart; a
    /// `Value::Group` of `count` copies of the one subtree that
    /// follows (`body` nodes).
    Array {
        off: u32,
        count: Count,
        stride: u32,
        body: u32,
    },
}

/// One step of [`Plan::fill`]: the plan's [`Node`]s in draw order as
/// one flat program. Struct nodes, which draw nothing, and fills of
/// zero, which the zeroed image already holds, are left out; an array
/// of non-byte elements is a `Repeat` of the ops after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// An `intN` draw, stored at `off`.
    Int {
        off: u32,
        bits: IntBits,
        range: Option<(u64, u64)>,
    },
    /// A `flags[set]` draw over this range of the flag pool.
    Flags {
        off: u32,
        bits: IntBits,
        values: (u32, u32),
    },
    /// A non-zero [`Draw::Filled`] value, stored with no draw.
    Filled { off: u32, bits: IntBits, value: u64 },
    /// A byte array, each byte drawn.
    Bytes { off: u32, len: Count },
    /// An array of `count` elements `stride` bytes apart from `off`:
    /// the next `body` ops, up to and including their [`Op::Next`],
    /// run once per element.
    Repeat {
        off: u32,
        count: Count,
        stride: u32,
        body: u32,
    },
    /// The end of a `Repeat`'s element: on to the next, or past the
    /// array after the last.
    Next,
}

/// Most arrays a plan nests inside one another (what [`Plan::fill`]
/// keeps open at once); a type nesting deeper has no plan.
const MAX_NEST: usize = 8;

/// Append the ops of `nodes`, whole subtrees inside `nest` arrays, to
/// `ops`; `None` when arrays nest deeper than [`MAX_NEST`].
fn lower_ops(nodes: &[Node], nest: usize, ops: &mut Vec<Op>) -> Option<()> {
    let mut i = 0;
    while let Some(&node) = nodes.get(i) {
        i += 1;
        match node {
            Node::Struct { .. }
            | Node::Scalar {
                draw: Draw::Filled(0),
                ..
            } => {}
            Node::Scalar { off, bits, draw } => ops.push(match draw {
                Draw::Int { range } => Op::Int { off, bits, range },
                Draw::Flags { values } => Op::Flags { off, bits, values },
                Draw::Filled(value) => Op::Filled { off, bits, value },
            }),
            Node::Bytes { off, len } => ops.push(Op::Bytes { off, len }),
            Node::Array {
                off,
                count,
                stride,
                body,
            } => {
                if nest == MAX_NEST {
                    return None;
                }
                let at = ops.len();
                ops.push(Op::Next);
                lower_ops(&nodes[i..i + body as usize], nest + 1, ops)?;
                ops.push(Op::Next);
                ops[at] = Op::Repeat {
                    off,
                    count,
                    stride,
                    body: u32::try_from(ops.len() - at - 1).ok()?,
                };
                i += body as usize;
            }
        }
    }
    Some(())
}

/// How to generate, read back and serialise one pointee type that is
/// *closed by construction*: only `intN` / resolved `const` / `flags` /
/// `len` / `bytesize` scalars, byte arrays, arrays and non-empty
/// non-union structs of those, with a known layout and at most one
/// array of drawn length — the pointee itself or the last field of the
/// struct it is. No value of such a type can hold a resource, a
/// pointer or a union arm, so its encoding is one segment whose bytes
/// depend on its draws alone, and [`LoweredDb::gen_pointee`] writes
/// that segment directly: the bytes [`LoweredEncoder`] would lay out
/// for the tree the same draws build (`len` and `const` slots filled,
/// padding zero), at the offsets [`LStruct::layout`] holds.
///
/// Compiled once per pointee type at lowering and shared by every
/// pointee born under it, which is how a packed
/// [`crate::value::Pointee`] unpacks, compares and serialises with no
/// database at hand.
#[derive(Debug)]
pub struct Plan {
    /// The type's tree, in pre-order: what [`Plan::read`] walks.
    nodes: Vec<Node>,
    /// The same nodes as the draws that fill an image.
    ops: Vec<Op>,
    /// Image bytes before the trailing array's elements (the whole
    /// image when every count is fixed).
    head: usize,
    /// Size the finished image is zero-padded up to: the struct's
    /// total and the type's layout size, which the encoder pads to.
    floor: usize,
    /// The trailing array of drawn length, when there is one.
    tail: Option<Tail>,
    /// Levels of `gen_value` recursion below the pointee's root.
    depth: usize,
}

/// A plan's one array of drawn length: the pointee itself, or the last
/// field of the struct it is.
#[derive(Debug)]
struct Tail {
    /// How its count is drawn.
    len: ArrayLen,
    /// Index of its op; every op before is of fixed shape, every op
    /// after is its element's body.
    op: usize,
    /// Bytes per element.
    stride: usize,
    /// `len` / `bytesize` slots measuring it: `(offset, width, units
    /// per element)`.
    measures: Vec<(u32, IntBits, u64)>,
}

/// What compiling one subtree tells the struct around it.
struct Shape {
    /// Encoded bytes (none for the trailing array).
    size: u64,
    /// What a `len[...]` of it reads.
    count: u64,
    /// Whether it is the trailing array ([`Plan::tail`]).
    tail: bool,
}

struct PlanCompiler<'a> {
    db: &'a LoweredDb,
    plan: Plan,
}

impl PlanCompiler<'_> {
    fn scalar(&mut self, off: u64, bits: IntBits, draw: Draw) -> Option<Shape> {
        let off = u32::try_from(off).ok()?;
        self.plan.nodes.push(Node::Scalar { off, bits, draw });
        Some(Shape {
            size: bits.size(),
            count: 1,
            tail: false,
        })
    }

    /// Append the subtree of `ty` at `off`, `depth` levels below the
    /// root; `None` when the type is not closed. `tail_ok`: an array
    /// here may have a drawn length.
    fn node(&mut self, ty: TypeId, off: u64, depth: usize, tail_ok: bool) -> Option<Shape> {
        self.plan.depth = self.plan.depth.max(depth);
        match self.db.ltype(ty) {
            LType::Int { bits, range } => self.scalar(off, bits, Draw::Int { range }),
            LType::Flags { values, bits } => self.scalar(off, bits, Draw::Flags { values }),
            LType::Const { value, bits, .. } => self.scalar(off, bits, Draw::Filled(value?)),
            // Outside a struct field nothing fills these: they encode
            // the generator's zero. A field is patched by its struct.
            LType::Len { bits } | LType::Bytesize { bits } => {
                self.scalar(off, bits, Draw::Filled(0))
            }
            LType::Array {
                elem,
                len,
                byte_elem,
            } => {
                let (count, n) = match len {
                    ArrayLen::Fixed(n) => (Count::Fixed(u32::try_from(n).ok()?), n),
                    // The drawn count must fit the packed form's `u32`.
                    ArrayLen::Range(lo, _) if lo > u64::from(u32::MAX / 2) => return None,
                    _ if tail_ok => (Count::Tail, 0),
                    _ => return None,
                };
                let off = u32::try_from(off).ok()?;
                let at = self.plan.nodes.len();
                let stride = if byte_elem {
                    self.plan.nodes.push(Node::Bytes { off, len: count });
                    1
                } else {
                    self.plan.nodes.push(Node::Struct { fields: 0 });
                    // Elements are appended back to back: the stride
                    // is what one encodes to.
                    let stride = self.node(elem, 0, depth + 1, false)?.size;
                    if stride == 0 {
                        return None;
                    }
                    self.plan.nodes[at] = Node::Array {
                        off,
                        count,
                        stride: u32::try_from(stride).ok()?,
                        body: u32::try_from(self.plan.nodes.len() - at - 1).ok()?,
                    };
                    stride
                };
                if count == Count::Tail {
                    self.plan.head = off as usize;
                    self.plan.tail = Some(Tail {
                        len,
                        op: 0,
                        stride: usize::try_from(stride).ok()?,
                        measures: Vec::new(),
                    });
                }
                Some(Shape {
                    size: n.checked_mul(stride)?,
                    count: n,
                    tail: count == Count::Tail,
                })
            }
            LType::Struct { id } => self.structure(id, off, depth),
            LType::StringLit { .. }
            | LType::Ptr { .. }
            | LType::Resource { .. }
            | LType::UnknownNamed { .. }
            | LType::Proc { .. }
            | LType::Void => None,
        }
    }

    fn structure(&mut self, id: StructId, off: u64, depth: usize) -> Option<Shape> {
        let def = self.db.lstruct(id);
        let (offsets, total) = def.layout.as_ref().ok()?;
        if def.is_union || def.fields.is_empty() {
            return None;
        }
        let fields = u32::try_from(def.fields.len()).ok()?;
        self.plan.nodes.push(Node::Struct { fields });
        let mut shapes = Vec::with_capacity(def.fields.len());
        // `(node, field)` of the len/bytesize fields: a target may be
        // a later field, so they resolve once every shape is known.
        let mut autofilled = Vec::new();
        for (i, f) in def.fields.iter().enumerate() {
            if f.autofill.is_some() {
                autofilled.push((self.plan.nodes.len(), i));
            }
            let tail_ok = depth == 0 && i + 1 == def.fields.len();
            let shape = self.node(f.ty, off + offsets[i], depth + 1, tail_ok)?;
            // The encoder appends; the precomputed offsets are where
            // it lands only while every field before encodes to its
            // layout size.
            let layout = self.db.layout(f.ty).as_ref().ok()?;
            if !shape.tail && shape.size != layout.size {
                return None;
            }
            shapes.push(shape);
        }
        for (at, i) in autofilled {
            let Node::Scalar { off, bits, .. } = self.plan.nodes[at] else {
                return None;
            };
            let (target, in_bytes) = match def.fields[i].autofill? {
                LAutofill::Len { target, .. } => (target, false),
                LAutofill::Bytesize { target, .. } => (target.map(|t| t.0), true),
            };
            let value = match target.map(|t| &shapes[t as usize]) {
                None => 0,
                Some(s) if s.tail => {
                    let tail = self.plan.tail.as_mut()?;
                    let per_elem = if in_bytes { tail.stride as u64 } else { 1 };
                    tail.measures.push((off, bits, per_elem));
                    0
                }
                Some(s) if in_bytes => s.size,
                Some(s) => s.count,
            };
            self.plan.nodes[at] = Node::Scalar {
                off,
                bits,
                draw: Draw::Filled(value),
            };
        }
        Some(Shape {
            size: *total,
            count: u64::from(fields),
            tail: false,
        })
    }
}

/// Store the low `bits` of `v` at `at`, little-endian — what
/// `push_int` appends for `bits.truncate(v)`.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn put_int(image: &mut [u8], at: usize, bits: IntBits, v: u64) {
    // One fixed-width store per arm (a variable-length copy is a call).
    match bits {
        IntBits::I8 => image[at] = v as u8,
        IntBits::I16 => image[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes()),
        IntBits::I32 => image[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes()),
        IntBits::I64 => image[at..at + 8].copy_from_slice(&v.to_le_bytes()),
    }
}

impl Plan {
    /// The plan of pointee type `ty`, if it is closed by construction.
    fn compile(db: &LoweredDb, ty: TypeId) -> Option<Plan> {
        let mut c = PlanCompiler {
            db,
            plan: Plan {
                nodes: Vec::new(),
                ops: Vec::new(),
                head: 0,
                floor: 0,
                tail: None,
                depth: 0,
            },
        };
        let size = usize::try_from(c.node(ty, 0, 0, true)?.size).ok()?;
        let layout = usize::try_from(db.layout(ty).as_ref().ok()?.size).ok()?;
        let mut plan = c.plan;
        lower_ops(&plan.nodes, 0, &mut plan.ops)?;
        match &mut plan.tail {
            // The trailing array's op is the one array op of drawn count.
            Some(tail) => {
                tail.op = plan.ops.iter().position(|op| {
                    matches!(
                        op,
                        Op::Bytes {
                            len: Count::Tail,
                            ..
                        } | Op::Repeat {
                            count: Count::Tail,
                            ..
                        }
                    )
                })?;
            }
            None => plan.head = size,
        }
        plan.floor = size.max(layout);
        Some(plan)
    }

    /// Run `ops` — the fixed-shape ops, or the trailing array's, whose
    /// count is `tail` — into `image`, the whole image: one loop, with
    /// an array's element body re-run in place. Image and draw source
    /// are separate `&mut` parameters on purpose: the generator's state
    /// stays in registers across the stores.
    fn fill<D: PlanDraws>(
        &self,
        db: &LoweredDb,
        ops: &[Op],
        tail: u32,
        image: &mut [u8],
        draws: &mut D,
    ) {
        // The open arrays, innermost last: (first body op, elements
        // left, stride, `base` outside).
        let mut open = [(0usize, 0usize, 0usize, 0usize); MAX_NEST];
        let mut nest = 0;
        // Where the innermost open element starts.
        let mut base = 0;
        let mut i = 0;
        while let Some(&op) = ops.get(i) {
            i += 1;
            match op {
                Op::Int { off, bits, range } => {
                    put_int(image, base + off as usize, bits, draws.int(range));
                }
                Op::Flags { off, bits, values } => {
                    let v = draws.flags(db.flag_values(values));
                    put_int(image, base + off as usize, bits, v);
                }
                Op::Filled { off, bits, value } => {
                    put_int(image, base + off as usize, bits, value);
                }
                Op::Bytes { off, len } => {
                    draws.bytes(&mut image[base + off as usize..][..len.get(tail)]);
                }
                Op::Repeat {
                    off,
                    count,
                    stride,
                    body,
                } => match count.get(tail) {
                    0 => i += body as usize,
                    n => {
                        open[nest] = (i, n, stride as usize, base);
                        nest += 1;
                        base += off as usize;
                    }
                },
                Op::Next => {
                    let (first, left, stride, outer) = &mut open[nest - 1];
                    *left -= 1;
                    if *left == 0 {
                        base = *outer;
                        nest -= 1;
                    } else {
                        base += *stride;
                        i = *first;
                    }
                }
            }
        }
    }

    /// A pointee born from `draws`: `(image, trailing-array count)`.
    fn generate<D: PlanDraws>(&self, db: &LoweredDb, draws: &mut D) -> (Vec<u8>, u32) {
        let mut image = vec![0u8; self.head];
        let Some(tail) = &self.tail else {
            self.fill(db, &self.ops, 0, &mut image, draws);
            return (image, 0);
        };
        // Everything before the trailing array, then its count — the
        // order the tree generator draws in — which sizes the image
        // once; then the elements, then what measures them.
        let (fixed, array) = self.ops.split_at(tail.op);
        self.fill(db, fixed, 0, &mut image, draws);
        let count = u32::try_from(draws.array_len(tail.len)).unwrap_or(u32::MAX);
        let end = self.head + count as usize * tail.stride;
        image.reserve_exact(end.max(self.floor) - self.head);
        image.resize(end, 0);
        self.fill(db, array, count, &mut image, draws);
        if image.len() < self.floor {
            image.resize(self.floor, 0);
        }
        for &(at, bits, per_elem) in &tail.measures {
            put_int(&mut image, at as usize, bits, u64::from(count) * per_elem);
        }
        (image, count)
    }

    /// Hand `out` the tree of the pointee `image` holds (its trailing
    /// array `tail` elements long), as the tree generator would have
    /// built it: `Int(0)` in every slot it does not draw.
    pub(crate) fn read(&self, image: &[u8], tail: u32, out: &mut impl PlanSink) {
        self.read_nodes(&self.nodes, image, tail, out);
    }

    /// The tree walk of the nodes [`Plan::fill`]'s ops draw, reading.
    fn read_nodes(&self, nodes: &[Node], image: &[u8], tail: u32, out: &mut impl PlanSink) {
        let mut i = 0;
        while let Some(&node) = nodes.get(i) {
            i += 1;
            match node {
                Node::Struct { fields } => out.group(fields as usize),
                Node::Scalar {
                    draw: Draw::Filled(_),
                    ..
                } => out.int(0),
                Node::Scalar { off, bits, .. } => {
                    let width = bits.size() as usize;
                    let mut le = [0u8; 8];
                    le[..width].copy_from_slice(&image[off as usize..][..width]);
                    out.int(u64::from_le_bytes(le));
                }
                Node::Bytes { off, len } => out.buffer(&image[off as usize..][..len.get(tail)]),
                Node::Array {
                    off,
                    count,
                    stride,
                    body,
                } => {
                    let n = count.get(tail);
                    out.group(n);
                    let body = &nodes[i..i + body as usize];
                    let elems = &image[off as usize..][..n * stride as usize];
                    for elem in elems.chunks_exact(stride as usize) {
                        self.read_nodes(body, elem, tail, out);
                    }
                    i += body.len();
                }
            }
        }
    }

    /// What a `len[...]` measuring a pointee of this plan reads: the
    /// element count of an array, the field count of a struct, 1 for a
    /// scalar — `value::len_count` of the tree, without the tree.
    pub(crate) fn len_count(&self, tail: u32) -> u64 {
        match self.nodes.first() {
            Some(Node::Bytes { len: count, .. } | Node::Array { count, .. }) => {
                count.get(tail) as u64
            }
            Some(Node::Struct { fields }) => u64::from(*fields),
            Some(Node::Scalar { .. }) | None => 1,
        }
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
    ///
    /// The memo waits for a second holder, and a program decoded from
    /// bytes — a corpus entry restored from a checkpoint or a frame, a
    /// trace's program — holds only tree-first pointees held once:
    /// since a mutant is edited into its entry instead of cloning it,
    /// nothing ever raises the count, so every exec of such an entry
    /// walks its trees again (on dm ≈ 25× a born-packed twin's exec;
    /// ROADMAP item 12).
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
        // A born-packed pointee of this very type is its own encoding.
        if let Value::Ptr { pointee: Some(p) } = &values[idx as usize] {
            if let Some(image) = p.born_image((db.id, tty)) {
                return Ok(image.len() as u64);
            }
        }
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
/// pre-resolved field index, and a packed pointee answers from its
/// plan).
fn sibling_count(values: &[Value], target: Option<u32>) -> u64 {
    let Some(idx) = target else {
        return 0;
    };
    match &values[idx as usize] {
        Value::Ptr { pointee } => pointee.as_deref().map_or(0, Pointee::len_count),
        other => len_count(other),
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
/// [`CfgRun`] rows, and the jump table derived from them that
/// [`CfgSuccessors::predict`] reads.
///
/// The table is *advisory*: a misprediction only costs the trace
/// encoder a wider `DIVERGE` token, never correctness — so the rows
/// are a best-effort projection of the executor's block layout (the
/// virtual kernel exports its layout as `(start, len, next)` triples;
/// the fuzzer assembles them into this table). Both the recorder and
/// the replayer must use the same table for a trace's bit stream to
/// compare byte-for-byte, which holds because the table is a pure
/// function of the booted kernel.
///
/// **The rule and its jump table.** The rows define the prediction:
/// the row for `prev` is the last row, by start, that starts at or
/// before it, and `prev` predicts that row's `next` when it is the
/// row's last block and the row fixes one, else `prev + 1`. Only a
/// handful of blocks — a run's last, where the run falls through
/// somewhere else — predict anything but `prev + 1`, so
/// [`CfgSuccessors::build`] derives from the rows an open-addressed
/// table of exactly those blocks and `predict` is one probe into it,
/// not a search of the rows. Rows may overlap or repeat a start (the
/// kernel's do neither); the derived table gives the rule's answer all
/// the same, because a row's last block is an exception only when no
/// later row starts at or before it.
#[derive(Debug, Clone, Default)]
pub struct CfgSuccessors {
    /// Rows sorted by `start` (equal starts in the order given) —
    /// what the jump table is derived from.
    runs: Vec<CfgRun>,
    /// `(block, successor)` for every block whose prediction is not
    /// `block + 1`, open-addressed by [`jump_slot`]; a power-of-two
    /// length at least twice the entries, free slots keyed
    /// [`NO_BLOCK`].
    jumps: Vec<(u64, u64)>,
}

/// The key of a free jump-table slot: no row that fits in the id space
/// ends at `u64::MAX` (see [`CfgSuccessors::build`]).
const NO_BLOCK: u64 = u64::MAX;

/// Home slot of `block` in a jump table of `mask + 1` slots
/// (Fibonacci hashing: the product's high bits).
#[inline]
fn jump_slot(block: u64, mask: usize) -> usize {
    (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

impl CfgSuccessors {
    /// Build the table from unordered rows: empty runs are dropped,
    /// the rest sorted by start block, and the jump table derived. A
    /// row whose ids run past `u64::MAX` (`start + len` overflows)
    /// predicts nothing: its blocks predict `prev + 1`.
    #[must_use]
    pub fn build(mut runs: Vec<CfgRun>) -> CfgSuccessors {
        runs.retain(|r| r.len > 0);
        runs.sort_by_key(|r| r.start);
        let exceptions: Vec<(u64, u64)> = runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let end = r.start.checked_add(r.len)?;
                let last = end - 1;
                let next = r.next.filter(|&n| n != end)?;
                // The row answers for its last block only if no later
                // row starts at or before it.
                let shadowed = runs.get(i + 1).is_some_and(|later| later.start <= last);
                (!shadowed).then_some((last, next))
            })
            .collect();
        let mask = (2 * exceptions.len()).next_power_of_two().max(2) - 1;
        let mut jumps = vec![(NO_BLOCK, 0); mask + 1];
        for (block, next) in exceptions {
            let mut slot = jump_slot(block, mask);
            while jumps[slot].0 != NO_BLOCK {
                slot = (slot + 1) & mask;
            }
            jumps[slot] = (block, next);
        }
        CfgSuccessors { runs, jumps }
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
    /// just a likely misprediction. One probe of the jump table (type
    /// docs).
    #[must_use]
    #[inline]
    pub fn predict(&self, prev: u64) -> u64 {
        let mask = self.jumps.len().wrapping_sub(1);
        let mut slot = jump_slot(prev, mask);
        // An empty table (the `Default` one) has no slot to probe.
        while let Some(&(block, next)) = self.jumps.get(slot) {
            if block == NO_BLOCK {
                break;
            }
            if block == prev {
                return next;
            }
            slot = (slot + 1) & mask;
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

    /// The compiled producer table and the lowered lists read from it
    /// against `producers_of`, their oracle. `tests/validate_differential.rs`
    /// holds them to it on every flagship, full-corpus, synthetic,
    /// deep-chain and seeded-mutation suite too (its `check_producers`).
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
            assert_eq!(db.producer_indices(name), want, "{name}");
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

    /// The struct shapes the ground-truth suites point at (dm's two
    /// verbatim), and the corners of the plan compiler: nesting,
    /// `[packed]`, fixed arrays of structs, arrays three deep inside
    /// a trailing one, trailing arrays of bytes /
    /// scalars / structs / a range, `len` and `bytesize` of fixed
    /// siblings, of the trailing array, of themselves and of nothing,
    /// and a struct whose total pads past an empty trailing array.
    const CLOSED_SPEC: &str = r#"
ioctl$DM(fd fd, cmd const[1], arg ptr[inout, dm_ioctl])
ioctl$NEST(fd fd, cmd const[2], arg ptr[in, nest])
ioctl$PAD(fd fd, cmd const[3], arg ptr[in, pads])
ioctl$BUF(fd fd, cmd const[4], arg ptr[in, array[int8]])
ioctl$WORDS(fd fd, cmd const[5], arg ptr[in, array[int32, 2:4]])
ioctl$PAIRS(fd fd, cmd const[6], arg ptr[in, array[pair, 3]])
ioctl$INT(fd fd, cmd const[7], arg ptr[in, int16[3:9]])
ioctl$GRID(fd fd, cmd const[8], arg ptr[in, grid])
dm_target_spec {
	sector_start	int64
	length	int64
	status	int32
	next	int32
	target_type	array[int8, 16]
}
dm_ioctl {
	version	array[int32, 3]
	data_size	int32
	data_start	int32
	target_count	len[targets, int32]
	open_count	int32
	flags	flags[dm_flags, int32]
	event_nr	int32
	padding	const[0, int32]
	dev	int64
	name	array[int8, 128]
	uuid	array[int8, 129]
	data	array[int8, 7]
	targets	array[dm_target_spec]
}
dm_flags = 1, 2, 16
nest {
	tag	int8
	inner	packed_pair
	pairs	array[pair, 2]
	pairs_n	len[pairs, int8]
	pairs_sz	bytesize[pairs, int16]
	inner_n	len[inner, int8]
	inner_sz	bytesize[inner, int8]
	own_sz	bytesize[own_sz, int8]
	lost	len[nowhere, int16]
	tail_sz	bytesize[tail, int32]
	tail_n	len[tail, int64]
	tail	array[pair, 1:3]
}
pair {
	a	int8
	b	int64[0:1]
	magic	const[0xabcd, int16]
}
packed_pair {
	a	int8
	b	int32
} [packed]
pads {
	wide	int64
	n	int32
	tail	array[int32]
}
grid {
	rows	array[row, 2]
	rows_n	len[rows, int8]
	more	array[row, 0:2]
}
row {
	cells	array[cell, 2]
	mode	flags[dm_flags, int8]
	tag	array[int8, 3]
}
cell {
	v	array[int16, 2]
	magic	const[0x5a, int16]
}
"#;

    /// Deterministic draws (SplitMix64), small counts — zero included.
    struct TestDraws {
        state: u64,
        made: u64,
    }

    impl TestDraws {
        fn next(&mut self) -> u64 {
            self.made += 1;
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl PlanDraws for TestDraws {
        fn int(&mut self, range: Option<(u64, u64)>) -> u64 {
            match range {
                Some((lo, hi)) => lo + self.next() % (hi - lo + 1),
                None => self.next(),
            }
        }

        fn flags(&mut self, members: &[u64]) -> u64 {
            let picks = self.next();
            let chosen = members.iter().enumerate();
            chosen.fold(0, |acc, (i, m)| {
                acc | if picks >> i & 1 == 1 { *m } else { 0 }
            })
        }

        fn array_len(&mut self, len: ArrayLen) -> u64 {
            match len {
                ArrayLen::Fixed(n) => n,
                ArrayLen::Range(lo, hi) => lo + self.next() % (hi - lo + 1),
                ArrayLen::Unsized => self.next() % 5,
            }
        }

        fn bytes(&mut self, dst: &mut [u8]) {
            dst.fill_with(|| self.next() as u8);
        }
    }

    /// `(pointer type, pointee type, AST pointee type)` of every
    /// syscall's `arg`.
    fn arg_pointees<'a>(db: &'a SpecDb, l: &LoweredDb) -> Vec<(TypeId, TypeId, &'a Type)> {
        (0..l.syscall_count())
            .map(|i| {
                let ptr = l.syscall(i).params[2].ty;
                let (LType::Ptr { elem, .. }, Type::Ptr { elem: ast, .. }) =
                    (l.ltype(ptr), &db.syscall_at(i).params[2].ty)
                else {
                    panic!("{}: arg is not a pointer", l.syscall_name(i));
                };
                (ptr, elem, &**ast)
            })
            .collect()
    }

    /// `(pointer type, pointee type)` of `ioctl$<variant>`'s `arg`.
    fn arg_of(db: &SpecDb, l: &LoweredDb, variant: &str) -> (TypeId, TypeId) {
        let i = l.syscall_index(&format!("ioctl${variant}")).expect(variant);
        let (ptr, elem, _) = arg_pointees(db, l)[i];
        (ptr, elem)
    }

    /// The subtree at `nodes[*i]` must be `ty` laid out `at` bytes
    /// into the enclosing element, by the AST's own layout rules.
    fn assert_nodes_sit_where_layout_puts_them(
        db: &SpecDb,
        nodes: &[Node],
        i: &mut usize,
        ty: &Type,
        at: u64,
    ) {
        let node = nodes[*i];
        *i += 1;
        let size = |ty: &Type| type_layout(ty, db).unwrap().size;
        match (ty, node) {
            (Type::Named(name), Node::Struct { fields }) => {
                let def = db.struct_def(name).unwrap();
                let (offsets, _) = field_offsets(def, db).unwrap();
                assert_eq!(fields as usize, def.fields.len(), "{name}");
                for (f, off) in def.fields.iter().zip(offsets) {
                    assert_nodes_sit_where_layout_puts_them(db, nodes, i, &f.ty, at + off);
                }
            }
            (Type::Array { elem, len }, Node::Bytes { off, len: count })
            | (Type::Array { elem, len }, Node::Array { off, count, .. }) => {
                assert_eq!(u64::from(off), at);
                match len {
                    ArrayLen::Fixed(n) => assert_eq!(count, Count::Fixed(*n as u32)),
                    _ => assert_eq!(count, Count::Tail),
                }
                if let Node::Array { stride, body, .. } = node {
                    assert_eq!(u64::from(stride), size(elem), "stride of {ty:?}");
                    let start = *i;
                    assert_nodes_sit_where_layout_puts_them(db, nodes, i, elem, 0);
                    assert_eq!(*i - start, body as usize, "body of {ty:?}");
                } else {
                    assert_eq!(size(elem), 1);
                }
            }
            (_, Node::Scalar { off, bits, .. }) => {
                assert_eq!(u64::from(off), at, "{ty:?}");
                assert_eq!(bits.size(), size(ty), "{ty:?}");
            }
            (ty, node) => panic!("{ty:?} compiled to {node:?}"),
        }
    }

    /// Ops after the trailing array's own: its element's body.
    fn tail_body(op: Op) -> usize {
        match op {
            Op::Repeat { body, .. } => body as usize,
            _ => 0,
        }
    }

    #[test]
    fn plan_offsets_and_strides_are_field_offsets_and_layouts() {
        let db = db(CLOSED_SPEC);
        let l = LoweredDb::build(&db, &ConstDb::new());
        for (_, elem, ast) in arg_pointees(&db, &l) {
            let plan = l
                .plan(elem)
                .unwrap_or_else(|| panic!("{ast:?} has no plan"));
            let mut i = 0;
            assert_nodes_sit_where_layout_puts_them(&db, &plan.nodes, &mut i, ast, 0);
            assert_eq!(i, plan.nodes.len(), "{ast:?}");
            let layout = type_layout(ast, &db).unwrap();
            assert!(plan.floor as u64 >= layout.size, "{ast:?}");
            assert_eq!(plan.tail.is_some(), layout.dynamic, "{ast:?}");
            if let Some(tail) = &plan.tail {
                assert_eq!(tail.op + 1 + tail_body(plan.ops[tail.op]), plan.ops.len());
            }
            if plan.tail.is_none() {
                assert_eq!(
                    (plan.head, plan.floor),
                    (layout.size as usize, layout.size as usize)
                );
            }
        }
        // dm's trailing array starts where the fixed fields end, 40
        // bytes an element, measured by `target_count` at offset 20.
        let (_, dm) = arg_of(&db, &l, "DM");
        let plan = l.plan(dm).unwrap();
        assert_eq!((plan.head, plan.floor, plan.depth), (312, 312, 3));
        let tail = plan.tail.as_ref().unwrap();
        assert_eq!(tail.measures, vec![(20, IntBits::I32, 1)]);
        assert_eq!((tail.stride, tail.len), (40, ArrayLen::Unsized));
        assert!(matches!(
            plan.nodes.last(),
            Some(Node::Bytes {
                off: 24,
                len: Count::Fixed(16)
            })
        ));
    }

    #[test]
    fn a_born_pointee_is_the_encoding_and_the_wire_form_of_its_tree() {
        let db = db(CLOSED_SPEC);
        let consts = ConstDb::new();
        let l = LoweredDb::build(&db, &consts);
        // A second build walks the tree: an image is only read under
        // the database it was born in.
        let twin = LoweredDb::build(&db, &consts);
        let resolve = |r: &ResRef| r.fallback;
        let mut enc = LoweredEncoder::new();
        let mut ast_enc = MemBuilder::new(&db, &consts);
        let mut draws = TestDraws { state: 7, made: 0 };
        let mut empty_tails = 0;
        for round in 0..200 {
            for (ptr, elem, ast) in arg_pointees(&db, &l) {
                let ctx = format!("round {round}: {ast:?}");
                let born = l.gen_pointee(elem, 12, &mut draws).expect("closed");
                let Value::Ptr { pointee: Some(p) } = &born else {
                    panic!("{ctx}: not a pointer");
                };
                let (_, image, tail) = p.packed().expect("born packed");
                empty_tails += usize::from(l.plan(elem).unwrap().tail.is_some() && tail == 0);

                // The wire form, before anything unpacked the tree.
                let wire = |v: &Value| {
                    let prog = crate::Program {
                        calls: vec![crate::ProgCall {
                            sys: 0,
                            args: vec![v.clone()],
                        }],
                    };
                    let mut out = Vec::new();
                    prog.encode_into(&mut out);
                    out
                };
                let packed_wire = wire(&born);

                // Encoded at home: the image, as one segment.
                enc.reset();
                let reg = enc.encode_arg(&l, ptr, &born, &resolve);
                assert_eq!(reg, Ok(ARG_BASE_ADDR), "{ctx}");
                assert_eq!(enc.segments()[0].1, image, "{ctx}");

                // The tree, rebuilt, is what both walks encode to it.
                let tree = Value::ptr_to((**p).clone());
                assert_eq!(wire(&tree), packed_wire, "{ctx}");
                for v in [&born, &tree] {
                    enc.reset();
                    assert_eq!(enc.encode_arg(&twin, ptr, v, &resolve), reg, "{ctx}");
                    assert_eq!(enc.segments()[0].1, image, "{ctx}: lowered walk");
                    ast_enc.reset();
                    let ast_ptr = Type::ptr(Dir::In, ast.clone());
                    assert_eq!(ast_enc.encode_arg(&ast_ptr, v, &resolve), reg, "{ctx}");
                    assert_eq!(ast_enc.segments()[0].1, image, "{ctx}: AST walk");
                }
                // Equality sees the value, whatever the form.
                assert_eq!(born, tree, "{ctx}");
                assert_eq!(tree, born, "{ctx}");
                assert_eq!(p.len_count(), len_count(p), "{ctx}");
            }
        }
        assert!(empty_tails > 20, "only {empty_tails} empty trailing arrays");
    }

    #[test]
    fn pointees_of_one_plan_compare_by_image_like_their_trees() {
        let db = db(CLOSED_SPEC);
        let l = LoweredDb::build(&db, &ConstDb::new());
        let (_, pads) = arg_of(&db, &l, "PAD");
        let born = |state: u64| {
            let mut draws = TestDraws { state, made: 0 };
            l.gen_pointee(pads, 12, &mut draws).unwrap()
        };
        let trees_equal = |a: &Value, b: &Value| match (a, b) {
            (Value::Ptr { pointee: Some(a) }, Value::Ptr { pointee: Some(b) }) => **a == **b,
            _ => panic!("not pointers"),
        };
        let pointees: Vec<Value> = (0..40).map(|s| born(s % 20)).collect();
        for a in &pointees {
            for b in &pointees {
                // Fresh copies: `==` runs before either tree exists.
                let (x, y) = (born_again(a, &l, pads), born_again(b, &l, pads));
                assert_eq!(x == y, trees_equal(a, b));
            }
        }
        // `pads` with no element and with one zero element are the
        // same 16 bytes; the trailing count tells them apart.
        fn born_again(v: &Value, l: &LoweredDb, ty: TypeId) -> Value {
            let Value::Ptr { pointee: Some(p) } = v else {
                panic!("not a pointer");
            };
            let (_, image, tail) = p.packed().unwrap();
            Value::ptr_packed(
                Arc::clone(l.plan(ty).unwrap()),
                (l.id, ty),
                tail,
                image.into(),
            )
        }
        let plan = l.plan(pads).unwrap();
        let none = Value::ptr_packed(Arc::clone(plan), (l.id, pads), 0, vec![0; 16].into());
        let one = Value::ptr_packed(Arc::clone(plan), (l.id, pads), 1, vec![0; 16].into());
        assert_ne!(none, one);
        assert!(!trees_equal(&none, &one));
    }

    #[test]
    fn a_pointee_nesting_past_the_generators_room_is_not_born_and_draws_nothing() {
        let db = db(CLOSED_SPEC);
        let l = LoweredDb::build(&db, &ConstDb::new());
        let (ptr, dm) = arg_of(&db, &l, "DM");
        let depth = l.plan(dm).unwrap().depth;
        let mut draws = TestDraws { state: 1, made: 0 };
        assert!(l.gen_pointee(dm, depth - 1, &mut draws).is_none());
        assert_eq!(draws.made, 0);
        assert!(l.gen_pointee(dm, depth, &mut draws).is_some());
        assert!(draws.made > 0);
        // No pointer points at the pointer type itself: no plan there.
        assert!(l.gen_pointee(ptr, 12, &mut draws).is_none());
    }

    #[test]
    fn arrays_nesting_past_max_nest_have_no_plan() {
        let nested = |levels: usize| {
            let mut ty = "int16".to_string();
            for _ in 0..levels {
                ty = format!("array[{ty}, 2]");
            }
            ty
        };
        let src = format!(
            "ioctl$IN(fd fd, cmd const[1], arg ptr[in, {}])\n\
             ioctl$OUT(fd fd, cmd const[2], arg ptr[in, {}])\n",
            nested(MAX_NEST),
            nested(MAX_NEST + 1)
        );
        let db = db(&src);
        let l = LoweredDb::build(&db, &ConstDb::new());
        let (_, inside) = arg_of(&db, &l, "IN");
        let plan = l.plan(inside).expect("MAX_NEST arrays deep");
        let repeats = plan.ops.iter().filter(|op| matches!(op, Op::Repeat { .. }));
        assert_eq!(repeats.count(), MAX_NEST);
        let mut draws = TestDraws { state: 3, made: 0 };
        let born = l.gen_pointee(inside, 12, &mut draws).unwrap();
        let Value::Ptr { pointee: Some(p) } = &born else {
            panic!("not a pointer");
        };
        let (_, image, _) = p.packed().unwrap();
        assert_eq!((image.len(), draws.made), (2 << MAX_NEST, 1 << MAX_NEST));
        let (_, outside) = arg_of(&db, &l, "OUT");
        assert!(l.plan(outside).is_none());
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
