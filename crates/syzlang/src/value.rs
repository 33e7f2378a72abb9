//! Runtime values for syzlang types and the byte-level encoder.
//!
//! The fuzzer materialises each syscall argument as a [`Value`] tree and
//! the [`MemBuilder`] lowers it to the register value plus a set of
//! memory segments (address → bytes) handed to the virtual kernel.
//! `len[...]`/`bytesize[...]` fields are filled automatically from their
//! sibling values, mirroring Syzkaller's executor.
//!
//! What a pointer points at is a shared, immutable [`Pointee`], and it
//! has two forms. *Tree-first*: a [`Value`] tree, with the bytes the
//! lowered encoder made of it memoised beside it once it is shared.
//! *Born packed*: for a pointee type that is closed by construction
//! (see [`crate::lowered::Plan`]) the lowered generator writes the
//! encoded image directly and the tree is the **derived** form,
//! unpacked only when somebody asks for it — the AST oracle, `Debug`,
//! `==` against a tree, an encode under another database. The tree is
//! the interchange form (what a decoder builds, what tests and the
//! oracle compare) and either form gives the same tree, the same wire
//! bytes and the same segments; which one a pointee is born in is
//! decided by its type at lowering.

use crate::ast::{ArrayLen, IntBits, StructDef, Type};
use crate::consts::ConstDb;
use crate::db::SpecDb;
use crate::layout::{field_offsets, struct_layout, type_layout, LayoutError};
use crate::lowered::{Plan, PlanSink, TypeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Base virtual address for fuzzer-allocated argument memory.
pub const ARG_BASE_ADDR: u64 = 0x1000_0000;

/// Reference to a resource produced earlier in a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResRef {
    /// Index of the producing call within the program, if any.
    pub producer: Option<usize>,
    /// Value to use when no producer exists (or it failed), e.g. `-1`.
    pub fallback: u64,
}

impl ResRef {
    /// A dangling reference with the conventional `-1` fallback.
    #[must_use]
    pub fn dangling() -> ResRef {
        ResRef {
            producer: None,
            fallback: u64::MAX,
        }
    }
}

/// A runtime value conforming to some [`Type`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Value {
    /// Scalar integer (ints, consts, flags, proc values; len placeholders).
    Int(u64),
    /// Resource reference resolved at execution time.
    Res(ResRef),
    /// Raw bytes (strings, opaque buffers).
    Bytes(Vec<u8>),
    /// Struct fields or array elements, in order.
    Group(Vec<Value>),
    /// One arm of a union.
    Union {
        /// Index of the active arm.
        arm: usize,
        /// Value of that arm.
        value: Box<Value>,
    },
    /// Pointer; `None` encodes NULL.
    Ptr {
        /// Pointee value, if non-null. Shared: cloning a pointer (and
        /// so a program) bumps a refcount instead of copying the tree.
        pointee: Option<Arc<Pointee>>,
    },
}

/// An immutable pointed-to [`Value`], shared between every program
/// that holds it (a mutant and its corpus parent, hub and triage
/// copies). Derefs to the value; equality, `Debug` and the wire codec
/// see nothing else.
///
/// A pointee has two forms, and which one it is born in is decided by
/// its type at lowering, never by an option:
///
/// * **tree-first** ([`Value::ptr_to`]): the value tree is given — by a
///   decoder, a hand-built program, the AST oracle, or the generator
///   for a type that is not closed by construction. Beside it the
///   pointee memoises the bytes the lowered encoder produced for it, so
///   a shared pointee is walked once, not once per mutant. Only a
///   *closed* value (no `Res`, no `Ptr` inside) gets such an image: its
///   bytes depend on neither the running program's return values nor on
///   where other segments land.
/// * **born packed** ([`crate::lowered::LoweredDb::gen_pointee`]): the
///   generator wrote the encoded image directly under the type's
///   [`Plan`], and the tree is the *derived* form — unpacked on first
///   `Deref` / `==` against another form / `Debug`, with `Int(0)` at
///   const and len slots exactly as the tree generator emits them.
///   Encoding under the database it was born in, wire serialisation,
///   [`Value::has_res`] and equality under one plan never unpack it.
pub struct Pointee(Form);

enum Form {
    Tree {
        value: Value,
        image: OnceLock<Image>,
    },
    Packed {
        plan: Arc<Plan>,
        /// Elements of the plan's trailing array.
        tail: u32,
        image: Image,
        tree: OnceLock<Value>,
    },
}

/// Encoded bytes of a closed pointee, valid for one lowered database
/// (by [`crate::lowered::LoweredDb`] identity) and one type in it.
struct Image {
    key: (u64, TypeId),
    bytes: Box<[u8]>,
}

impl Pointee {
    /// The segment bytes, if they were encoded under `key`: memoised
    /// from a walk, or what the pointee was born as.
    pub(crate) fn image(&self, key: (u64, TypeId)) -> Option<&[u8]> {
        let image = match &self.0 {
            Form::Tree { image, .. } => image.get()?,
            Form::Packed { image, .. } => image,
        };
        (image.key == key).then_some(&*image.bytes)
    }

    /// [`Pointee::image`] of a born-packed pointee only: bytes that
    /// are the encoding by construction, not one walk's finished
    /// segment.
    pub(crate) fn born_image(&self, key: (u64, TypeId)) -> Option<&[u8]> {
        self.packed().and(self.image(key))
    }

    /// Memoise `bytes` — a finished segment the encoder just built
    /// for this value under `key` — if the value is a closed tree.
    /// First writer wins; an image under another key is left alone.
    pub(crate) fn memoise(&self, key: (u64, TypeId), bytes: &[u8]) {
        if let Form::Tree { value, image } = &self.0 {
            if image.get().is_none() && value.is_closed() {
                let _ = image.set(Image {
                    key,
                    bytes: bytes.into(),
                });
            }
        }
    }

    /// `(plan, image, trailing-array count)` of a born-packed pointee:
    /// what [`Plan::read`] takes to replay its tree.
    pub(crate) fn packed(&self) -> Option<(&Plan, &[u8], u32)> {
        match &self.0 {
            Form::Tree { .. } => None,
            Form::Packed {
                plan, tail, image, ..
            } => Some((plan, &image.bytes, *tail)),
        }
    }

    /// [`Value::has_res`] of the value; a packed pointee holds none by
    /// construction and answers without unpacking.
    #[must_use]
    pub fn has_res(&self) -> bool {
        match &self.0 {
            Form::Tree { value, .. } => value.has_res(),
            Form::Packed { .. } => false,
        }
    }

    /// What a `len[...]` measuring this pointee reads ([`len_count`]
    /// of the value), without unpacking.
    pub(crate) fn len_count(&self) -> u64 {
        match &self.0 {
            Form::Tree { value, .. } => len_count(value),
            Form::Packed { plan, tail, .. } => plan.len_count(*tail),
        }
    }
}

/// Rebuilds the tree a [`Plan`] replays in pre-order.
#[derive(Default)]
struct TreeBuilder {
    /// Open groups, outermost first: `(children wanted, children so far)`.
    open: Vec<(usize, Vec<Value>)>,
    root: Option<Value>,
}

impl TreeBuilder {
    /// Place a finished subtree, closing every group it completes.
    fn put(&mut self, mut v: Value) {
        while let Some((want, mut children)) = self.open.pop() {
            children.push(v);
            if children.len() < want {
                self.open.push((want, children));
                return;
            }
            v = Value::Group(children);
        }
        self.root = Some(v);
    }
}

impl PlanSink for TreeBuilder {
    fn int(&mut self, v: u64) {
        self.put(Value::Int(v));
    }

    fn buffer(&mut self, b: &[u8]) {
        self.put(Value::Bytes(b.to_vec()));
    }

    fn group(&mut self, n: usize) {
        if n == 0 {
            self.put(Value::Group(Vec::new()));
        } else {
            self.open.push((n, Vec::with_capacity(n)));
        }
    }
}

impl Deref for Pointee {
    type Target = Value;

    fn deref(&self) -> &Value {
        match &self.0 {
            Form::Tree { value, .. } => value,
            Form::Packed {
                plan,
                tail,
                image,
                tree,
            } => tree.get_or_init(|| {
                let mut out = TreeBuilder::default();
                plan.read(&image.bytes, *tail, &mut out);
                out.root.unwrap_or_default()
            }),
        }
    }
}

impl PartialEq for Pointee {
    fn eq(&self, other: &Pointee) -> bool {
        match (self.packed(), other.packed()) {
            // Under one plan the image is an injective function of the
            // drawn slots and the trailing count.
            (Some((plan, image, tail)), Some((other_plan, other_image, other_tail)))
                if std::ptr::eq(plan, other_plan) =>
            {
                tail == other_tail && image == other_image
            }
            _ => **self == **other,
        }
    }
}

impl Eq for Pointee {}

impl fmt::Debug for Pointee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl Value {
    /// Shorthand for a non-null pointer value.
    #[must_use]
    pub fn ptr_to(v: Value) -> Value {
        Value::Ptr {
            // No image until an encode finds the pointee shared.
            pointee: Some(Arc::new(Pointee(Form::Tree {
                value: v,
                image: OnceLock::new(),
            }))),
        }
    }

    /// A pointer to a pointee born as `bytes`: its image under `plan`,
    /// the plan of type `key.1` in the database `key.0`, with `tail`
    /// elements in the trailing array.
    pub(crate) fn ptr_packed(
        plan: Arc<Plan>,
        key: (u64, TypeId),
        tail: u32,
        bytes: Box<[u8]>,
    ) -> Value {
        Value::Ptr {
            pointee: Some(Arc::new(Pointee(Form::Packed {
                plan,
                tail,
                image: Image { key, bytes },
                tree: OnceLock::new(),
            }))),
        }
    }

    /// Whether the tree holds any [`ResRef`] (allocation-free walk).
    #[must_use]
    pub fn has_res(&self) -> bool {
        match self {
            Value::Res(_) => true,
            Value::Group(vs) => vs.iter().any(Value::has_res),
            Value::Union { value, .. } => value.has_res(),
            Value::Ptr { pointee: Some(p) } => p.has_res(),
            _ => false,
        }
    }

    /// Whether the tree is *closed*: no [`Value::Res`] and no
    /// [`Value::Ptr`] anywhere, so its encoding is one segment whose
    /// bytes are a function of the value and its type alone. Decided
    /// on the value, not the type: a `Res` smuggled into an `int`
    /// slot still reaches the encoder's `resolve`.
    fn is_closed(&self) -> bool {
        match self {
            Value::Int(_) | Value::Bytes(_) => true,
            Value::Res(_) | Value::Ptr { .. } => false,
            Value::Group(vs) => vs.iter().all(Value::is_closed),
            Value::Union { value, .. } => value.is_closed(),
        }
    }

    /// Iterate over all [`ResRef`]s contained in this value tree.
    pub fn res_refs(&self) -> Vec<&ResRef> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a ResRef>) {
        match self {
            Value::Res(r) => out.push(r),
            Value::Group(vs) => vs.iter().for_each(|v| v.collect_refs(out)),
            Value::Union { value, .. } => value.collect_refs(out),
            // A packed pointee holds none; only a tree is walked.
            Value::Ptr {
                pointee: Some(p), ..
            } if p.packed().is_none() => p.collect_refs(out),
            _ => {}
        }
    }
}

impl Default for Value {
    fn default() -> Value {
        Value::Int(0)
    }
}

/// Error produced by the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Value shape does not match the type.
    Mismatch {
        /// Expected type, printed.
        expected: String,
        /// Found value kind.
        found: &'static str,
    },
    /// A symbolic constant could not be resolved.
    UnresolvedConst(String),
    /// Layout failure (unknown type, recursion).
    Layout(LayoutError),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Mismatch { expected, found } => {
                write!(f, "value kind `{found}` does not fit type `{expected}`")
            }
            EncodeError::UnresolvedConst(n) => write!(f, "unresolved constant `{n}`"),
            EncodeError::Layout(e) => write!(f, "layout error: {e}"),
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<LayoutError> for EncodeError {
    fn from(e: LayoutError) -> EncodeError {
        EncodeError::Layout(e)
    }
}

fn mismatch(ty: &Type, found: &'static str) -> EncodeError {
    EncodeError::Mismatch {
        expected: crate::printer::print_type(ty),
        found,
    }
}

pub(crate) fn value_kind(v: &Value) -> &'static str {
    match v {
        Value::Int(_) => "int",
        Value::Res(_) => "resource",
        Value::Bytes(_) => "bytes",
        Value::Group(_) => "group",
        Value::Union { .. } => "union",
        Value::Ptr { .. } => "ptr",
    }
}

/// Builds the memory image for one syscall's arguments by walking the
/// type AST.
///
/// This is the *reference* encoder: the fuzzer's hot loop runs the
/// arena-walking [`crate::lowered::LoweredEncoder`] instead, which
/// mirrors this implementation decision for decision (differential
/// tests pin the two byte-identical). Keep the two in sync.
///
/// Designed for reuse across calls: [`MemBuilder::reset`] recycles
/// every finished segment's byte buffer into an internal pool that
/// the next encoding pass draws from, so a fuzzer's steady-state
/// encode loop stops allocating once buffers reach their high-water
/// mark. Segment addresses are handed out in strictly ascending
/// order, which consumers exploit for binary-search lookup.
#[derive(Debug)]
pub struct MemBuilder<'a> {
    db: &'a SpecDb,
    consts: &'a ConstDb,
    next_addr: u64,
    segments: Vec<(u64, Vec<u8>)>,
    /// Cleared byte buffers recycled from previous encodings.
    pool: Vec<Vec<u8>>,
}

impl<'a> MemBuilder<'a> {
    /// Create a builder allocating from [`ARG_BASE_ADDR`].
    #[must_use]
    pub fn new(db: &'a SpecDb, consts: &'a ConstDb) -> MemBuilder<'a> {
        MemBuilder {
            db,
            consts,
            next_addr: ARG_BASE_ADDR,
            segments: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Finished memory segments `(address, bytes)`.
    #[must_use]
    pub fn into_segments(self) -> Vec<(u64, Vec<u8>)> {
        self.segments
    }

    /// Finished memory segments, borrowed (ascending addresses).
    #[must_use]
    pub fn segments(&self) -> &[(u64, Vec<u8>)] {
        &self.segments
    }

    /// Prepare for encoding the next call: restart the address space
    /// and recycle current segment buffers into the pool.
    pub fn reset(&mut self) {
        self.next_addr = ARG_BASE_ADDR;
        for (_, mut bytes) in self.segments.drain(..) {
            bytes.clear();
            self.pool.push(bytes);
        }
    }

    /// Swap the finished segment vector with `other` (used by the
    /// executor to move segments into a `MemMap` and, next call,
    /// route the retired ones back through [`MemBuilder::reset`]).
    pub fn swap_segments(&mut self, other: &mut Vec<(u64, Vec<u8>)>) {
        std::mem::swap(&mut self.segments, other);
    }

    /// Return retired segments to the buffer pool (counterpart of
    /// [`MemBuilder::swap_segments`] for vectors that never came back
    /// through `self.segments`).
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
    /// value (either the scalar itself or the address of an allocated
    /// buffer).
    ///
    /// `resolve` maps resource references to their runtime values.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the value does not fit the type or a
    /// symbolic constant is unresolved.
    pub fn encode_arg(
        &mut self,
        ty: &Type,
        val: &Value,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        match ty {
            Type::Ptr { elem, .. } => match val {
                Value::Ptr { pointee: None } => Ok(0),
                Value::Ptr {
                    pointee: Some(inner),
                } => self.alloc_pointee(elem, inner, resolve),
                other => Err(mismatch(ty, value_kind(other))),
            },
            _ => self.scalar(ty, val, resolve),
        }
    }

    fn alloc_pointee(
        &mut self,
        ty: &Type,
        val: &Value,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let mut buf = self.pooled_buf();
        self.encode_into(ty, val, &mut buf, resolve)?;
        let layout = type_layout(ty, self.db)?;
        if (buf.len() as u64) < layout.size {
            buf.resize(layout.size as usize, 0);
        }
        let addr = self.next_addr;
        // Keep allocations 16-byte aligned and non-adjacent so that
        // out-of-bounds reads in the kernel are detectable.
        let advance = ((buf.len() as u64).max(1) + 0x3f) & !0xf;
        self.next_addr += advance + 16;
        self.segments.push((addr, buf));
        Ok(addr)
    }

    fn scalar(
        &mut self,
        ty: &Type,
        val: &Value,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let bits = scalar_bits(ty, self.db).ok_or_else(|| mismatch(ty, value_kind(val)))?;
        let raw = match (ty, val) {
            (Type::Const { value, .. }, _) => self
                .consts
                .resolve(value)
                .ok_or_else(|| EncodeError::UnresolvedConst(value.to_string()))?,
            (_, Value::Int(n)) => *n,
            (_, Value::Res(r)) => resolve(r),
            (_, other) => return Err(mismatch(ty, value_kind(other))),
        };
        Ok(bits.truncate(raw))
    }

    /// Encode a value into `buf` at its natural position (append).
    fn encode_into(
        &mut self,
        ty: &Type,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        match ty {
            Type::Int { bits, .. }
            | Type::Const { bits, .. }
            | Type::Flags { bits, .. }
            | Type::Len { bits, .. }
            | Type::Bytesize { bits, .. }
            | Type::Proc { bits, .. } => {
                let v = self.scalar(ty, val, resolve)?;
                push_int(buf, v, *bits);
                Ok(())
            }
            Type::Resource(name) => {
                let bits = self
                    .db
                    .resource_bits(name)
                    .ok_or_else(|| EncodeError::Layout(LayoutError::UnknownType(name.clone())))?;
                let v = match val {
                    Value::Int(n) => *n,
                    Value::Res(r) => resolve(r),
                    other => return Err(mismatch(ty, value_kind(other))),
                };
                push_int(buf, bits.truncate(v), bits);
                Ok(())
            }
            Type::Void => Ok(()),
            Type::StringLit { .. } => match val {
                Value::Bytes(b) => {
                    buf.extend_from_slice(b);
                    buf.push(0);
                    Ok(())
                }
                other => Err(mismatch(ty, value_kind(other))),
            },
            Type::Ptr { elem, .. } => {
                let addr = match val {
                    Value::Ptr { pointee: None } => 0,
                    Value::Ptr {
                        pointee: Some(inner),
                    } => self.alloc_pointee(elem, inner, resolve)?,
                    other => return Err(mismatch(ty, value_kind(other))),
                };
                push_int(buf, addr, IntBits::I64);
                Ok(())
            }
            Type::Array { elem, len } => {
                let values: Vec<&Value> = match val {
                    Value::Group(vs) => vs.iter().collect(),
                    Value::Bytes(bytes) => {
                        // Byte buffers encode directly when the element is int8.
                        if matches!(
                            **elem,
                            Type::Int {
                                bits: IntBits::I8,
                                ..
                            }
                        ) {
                            let mut data = bytes.clone();
                            if let ArrayLen::Fixed(n) = len {
                                data.resize(*n as usize, 0);
                            }
                            buf.extend_from_slice(&data);
                            return Ok(());
                        }
                        return Err(mismatch(ty, "bytes"));
                    }
                    other => return Err(mismatch(ty, value_kind(other))),
                };
                let elem_layout = type_layout(elem, self.db)?;
                let mut count = values.len() as u64;
                if let ArrayLen::Fixed(n) = len {
                    count = *n;
                }
                for i in 0..count {
                    match values.get(i as usize) {
                        Some(v) => self.encode_into(elem, v, buf, resolve)?,
                        None => buf.extend(std::iter::repeat_n(0u8, elem_layout.size as usize)),
                    }
                }
                Ok(())
            }
            Type::Named(name) => {
                let def = self
                    .db
                    .struct_def(name)
                    .ok_or_else(|| EncodeError::Layout(LayoutError::UnknownType(name.clone())))?
                    .clone();
                if def.is_union {
                    self.encode_union(&def, ty, val, buf, resolve)
                } else {
                    self.encode_struct(&def, ty, val, buf, resolve)
                }
            }
        }
    }

    fn encode_union(
        &mut self,
        def: &StructDef,
        ty: &Type,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        let (arm, inner) = match val {
            Value::Union { arm, value } => (*arm, value.as_ref()),
            other => return Err(mismatch(ty, value_kind(other))),
        };
        let field = def
            .fields
            .get(arm)
            .ok_or_else(|| mismatch(ty, "union (arm out of range)"))?;
        let start = buf.len();
        self.encode_into(&field.ty, inner, buf, resolve)?;
        let total = struct_layout(def, self.db)?.size as usize;
        if buf.len() - start < total {
            buf.resize(start + total, 0);
        }
        Ok(())
    }

    fn encode_struct(
        &mut self,
        def: &StructDef,
        ty: &Type,
        val: &Value,
        buf: &mut Vec<u8>,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<(), EncodeError> {
        let values = match val {
            Value::Group(vs) => vs,
            other => return Err(mismatch(ty, value_kind(other))),
        };
        if values.len() != def.fields.len() {
            return Err(mismatch(ty, "group (wrong field count)"));
        }
        let (offsets, total) = field_offsets(def, self.db)?;
        let start = buf.len();
        for (i, field) in def.fields.iter().enumerate() {
            // Align to this field's offset (dynamic earlier fields may
            // have shifted us; offsets are a lower bound then).
            let want = start + offsets[i] as usize;
            if buf.len() < want {
                buf.resize(want, 0);
            }
            let fv = &values[i];
            // Auto-fill len/bytesize from the sibling target.
            match &field.ty {
                Type::Len { target, bits } => {
                    let n = sibling_count(def, values, target, self.db);
                    push_int(buf, bits.truncate(n), *bits);
                }
                Type::Bytesize { target, bits } => {
                    let n = self.sibling_bytesize(def, values, target, resolve)?;
                    push_int(buf, bits.truncate(n), *bits);
                }
                other_ty => self.encode_into(other_ty, fv, buf, resolve)?,
            }
        }
        if buf.len() - start < total as usize {
            buf.resize(start + total as usize, 0);
        }
        Ok(())
    }

    fn sibling_bytesize(
        &mut self,
        def: &StructDef,
        values: &[Value],
        target: &str,
        resolve: &dyn Fn(&ResRef) -> u64,
    ) -> Result<u64, EncodeError> {
        let Some(idx) = def.fields.iter().position(|f| f.name == target) else {
            return Ok(0);
        };
        let mut scratch = self.pooled_buf();
        let tty = deref_for_len(&def.fields[idx].ty);
        let tval = deref_value_for_len(&values[idx]);
        let n = match (tty, tval) {
            (Some(ty), Some(v)) => {
                self.encode_into(ty, v, &mut scratch, resolve)?;
                scratch.len() as u64
            }
            _ => 0,
        };
        scratch.clear();
        self.pool.push(scratch);
        Ok(n)
    }
}

/// Element count used for `len[target]`: bytes → byte length, groups →
/// element count, pointers → their pointee's count, NULL/other → 0.
fn sibling_count(def: &StructDef, values: &[Value], target: &str, _db: &SpecDb) -> u64 {
    let Some(idx) = def.fields.iter().position(|f| f.name == target) else {
        return 0;
    };
    deref_value_for_len(&values[idx]).map_or(0, len_count)
}

/// What `len[...]` reads off a (dereferenced) sibling value: the byte
/// length of a buffer, the element count of a group, 1 otherwise.
pub(crate) fn len_count(v: &Value) -> u64 {
    match v {
        Value::Bytes(b) => b.len() as u64,
        Value::Group(g) => g.len() as u64,
        _ => 1,
    }
}

pub(crate) fn deref_for_len(ty: &Type) -> Option<&Type> {
    match ty {
        Type::Ptr { elem, .. } => Some(elem),
        other => Some(other),
    }
}

pub(crate) fn deref_value_for_len(v: &Value) -> Option<&Value> {
    match v {
        Value::Ptr { pointee } => pointee.as_deref().map(|p| &**p),
        other => Some(other),
    }
}

fn scalar_bits(ty: &Type, db: &SpecDb) -> Option<IntBits> {
    match ty {
        Type::Int { bits, .. }
        | Type::Const { bits, .. }
        | Type::Flags { bits, .. }
        | Type::Len { bits, .. }
        | Type::Bytesize { bits, .. }
        | Type::Proc { bits, .. } => Some(*bits),
        Type::Resource(name) => db.resource_bits(name),
        _ => None,
    }
}

pub(crate) fn push_int(buf: &mut Vec<u8>, v: u64, bits: IntBits) {
    buf.extend_from_slice(&v.to_le_bytes()[..bits.size() as usize]);
}

/// Construct the minimal "zero" value conforming to a type: zero
/// integers, first string candidate, empty/min arrays, first union arm,
/// non-null pointers to zero pointees.
///
/// # Errors
///
/// Returns [`LayoutError`] for unknown named types.
pub fn zero_value(ty: &Type, db: &SpecDb) -> Result<Value, LayoutError> {
    Ok(match ty {
        Type::Int { range, .. } => Value::Int(range.map_or(0, |(lo, _)| lo)),
        Type::Const { .. } => Value::Int(0), // encoder substitutes the const
        Type::Flags { .. } | Type::Len { .. } | Type::Bytesize { .. } => Value::Int(0),
        Type::Proc { start, .. } => Value::Int(*start),
        Type::Resource(_) => Value::Res(ResRef::dangling()),
        Type::Void => Value::Group(Vec::new()),
        Type::StringLit { values } => Value::Bytes(
            values
                .first()
                .map(|s| s.as_bytes().to_vec())
                .unwrap_or_default(),
        ),
        Type::Ptr { elem, .. } => Value::ptr_to(zero_value(elem, db)?),
        Type::Array { elem, len } => {
            let n = match len {
                ArrayLen::Fixed(n) => *n,
                ArrayLen::Range(lo, _) => *lo,
                ArrayLen::Unsized => 0,
            };
            let mut vs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                vs.push(zero_value(elem, db)?);
            }
            Value::Group(vs)
        }
        Type::Named(name) => {
            let def = db
                .struct_def(name)
                .ok_or_else(|| LayoutError::UnknownType(name.clone()))?
                .clone();
            if def.is_union {
                let first = def
                    .fields
                    .first()
                    .map(|f| zero_value(&f.ty, db))
                    .transpose()?
                    .unwrap_or(Value::Int(0));
                Value::Union {
                    arm: 0,
                    value: Box::new(first),
                }
            } else {
                let mut vs = Vec::with_capacity(def.fields.len());
                for f in &def.fields {
                    vs.push(zero_value(&f.ty, db)?);
                }
                Value::Group(vs)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Dir;
    use crate::parser::parse;

    fn db(src: &str) -> SpecDb {
        SpecDb::from_files(vec![parse("t", src).unwrap()])
    }

    fn no_res(_: &ResRef) -> u64 {
        unreachable!("no resources expected")
    }

    #[test]
    fn encodes_scalar_arg() {
        let db = SpecDb::from_files(vec![]);
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let reg = mb
            .encode_arg(
                &Type::int(IntBits::I32),
                &Value::Int(0x1_2345_6789),
                &no_res,
            )
            .unwrap();
        assert_eq!(reg, 0x2345_6789); // truncated to 32 bits
        assert!(mb.into_segments().is_empty());
    }

    #[test]
    fn encodes_symbolic_const() {
        let db = SpecDb::from_files(vec![]);
        let mut consts = ConstDb::new();
        consts.define("CMD", 0xc0de);
        let mut mb = MemBuilder::new(&db, &consts);
        let reg = mb
            .encode_arg(
                &Type::sym_const("CMD", IntBits::I64),
                &Value::Int(0),
                &no_res,
            )
            .unwrap();
        assert_eq!(reg, 0xc0de);
    }

    #[test]
    fn unresolved_const_is_error() {
        let db = SpecDb::from_files(vec![]);
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let err = mb
            .encode_arg(
                &Type::sym_const("NOPE", IntBits::I64),
                &Value::Int(0),
                &no_res,
            )
            .unwrap_err();
        assert_eq!(err, EncodeError::UnresolvedConst("NOPE".into()));
    }

    #[test]
    fn encodes_string_pointer() {
        let db = SpecDb::from_files(vec![]);
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let ty = Type::ptr(
            Dir::In,
            Type::StringLit {
                values: vec!["/dev/x".into()],
            },
        );
        let reg = mb
            .encode_arg(
                &ty,
                &Value::ptr_to(Value::Bytes(b"/dev/x".to_vec())),
                &no_res,
            )
            .unwrap();
        assert_eq!(reg, ARG_BASE_ADDR);
        let segs = mb.into_segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(&segs[0].1[..7], b"/dev/x\0");
    }

    #[test]
    fn struct_encoding_matches_c_layout() {
        let db = db("s {\n\ta int8\n\tb int32\n\tc int16\n}\n");
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let v = Value::Group(vec![
            Value::Int(0xAA),
            Value::Int(0x11223344),
            Value::Int(0x5566),
        ]);
        let _ = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("s".into())),
                &Value::ptr_to(v),
                &no_res,
            )
            .unwrap();
        let segs = mb.into_segments();
        let bytes = &segs[0].1;
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes[0], 0xAA);
        assert_eq!(&bytes[4..8], &0x1122_3344u32.to_le_bytes());
        assert_eq!(&bytes[8..10], &0x5566u16.to_le_bytes());
    }

    #[test]
    fn len_field_autofilled_from_sibling() {
        let db = db("s {\n\tcount len[data, int32]\n\tdata ptr[in, array[int8]]\n}\n");
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let v = Value::Group(vec![
            Value::Int(0), // placeholder; auto-filled
            Value::ptr_to(Value::Bytes(vec![1, 2, 3, 4, 5])),
        ]);
        let _ = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("s".into())),
                &Value::ptr_to(v),
                &no_res,
            )
            .unwrap();
        let segs = mb.into_segments();
        // Pointees are allocated before their parent, so the outer
        // struct is the last segment.
        let outer = segs.last().unwrap();
        assert_eq!(&outer.1[0..4], &5u32.to_le_bytes());
    }

    #[test]
    fn bytesize_field_autofilled() {
        let db = db("s {\n\tsz bytesize[payload, int32]\n\tpayload ptr[in, inner]\n}\ninner {\n\ta int64\n\tb int64\n}\n");
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let inner = Value::Group(vec![Value::Int(1), Value::Int(2)]);
        let v = Value::Group(vec![Value::Int(0), Value::ptr_to(inner)]);
        let _ = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("s".into())),
                &Value::ptr_to(v),
                &no_res,
            )
            .unwrap();
        let segs = mb.into_segments();
        // Pointees are allocated before their parent, so the outer
        // struct is the last segment.
        let outer = segs.last().unwrap();
        assert_eq!(&outer.1[0..4], &16u32.to_le_bytes());
    }

    #[test]
    fn union_pads_to_largest_arm() {
        let db = db("u [\n\ta int8\n\tb int64\n]\n");
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let v = Value::Union {
            arm: 0,
            value: Box::new(Value::Int(7)),
        };
        let _ = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("u".into())),
                &Value::ptr_to(v),
                &no_res,
            )
            .unwrap();
        let segs = mb.into_segments();
        assert_eq!(segs[0].1.len(), 8);
        assert_eq!(segs[0].1[0], 7);
    }

    #[test]
    fn resource_ref_resolved_via_callback() {
        let db = db("resource fd_x[fd]\n");
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let resolve = |r: &ResRef| {
            if r.producer == Some(3) {
                42
            } else {
                r.fallback
            }
        };
        let reg = mb
            .encode_arg(
                &Type::Resource("fd_x".into()),
                &Value::Res(ResRef {
                    producer: Some(3),
                    fallback: u64::MAX,
                }),
                &resolve,
            )
            .unwrap();
        assert_eq!(reg, 42);
    }

    #[test]
    fn fixed_array_pads_and_truncates() {
        let db = SpecDb::from_files(vec![]);
        let consts = ConstDb::new();
        let ty = Type::Array {
            elem: Box::new(Type::int(IntBits::I16)),
            len: ArrayLen::Fixed(3),
        };
        let mut mb = MemBuilder::new(&db, &consts);
        let mut buf = Vec::new();
        mb.encode_into(&ty, &Value::Group(vec![Value::Int(1)]), &mut buf, &no_res)
            .unwrap();
        assert_eq!(buf, vec![1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn zero_value_round_trips_nested() {
        let db = db("inner {\n\tn int32\n}\nouter {\n\ti inner\n\tp ptr[in, array[int8, 4]]\n}\n");
        let consts = ConstDb::new();
        let v = zero_value(&Type::Named("outer".into()), &db).unwrap();
        let mut mb = MemBuilder::new(&db, &consts);
        let reg = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("outer".into())),
                &Value::ptr_to(v),
                &no_res,
            )
            .unwrap();
        assert_eq!(reg % 16, 0);
        assert_eq!(mb.into_segments().len(), 2);
    }

    #[test]
    fn null_pointer_encodes_zero() {
        let db = SpecDb::from_files(vec![]);
        let consts = ConstDb::new();
        let mut mb = MemBuilder::new(&db, &consts);
        let reg = mb
            .encode_arg(
                &Type::ptr(Dir::In, Type::buffer()),
                &Value::Ptr { pointee: None },
                &no_res,
            )
            .unwrap();
        assert_eq!(reg, 0);
    }

    #[test]
    fn reset_recycles_and_reproduces_identical_segments() {
        let db = db("s {\n\ta int8\n\tb int32\n\tc int16\n}\n");
        let consts = ConstDb::new();
        let ty = Type::ptr(Dir::In, Type::Named("s".into()));
        let v = Value::ptr_to(Value::Group(vec![
            Value::Int(0xAA),
            Value::Int(0x11223344),
            Value::Int(0x5566),
        ]));
        let mut mb = MemBuilder::new(&db, &consts);
        let reg1 = mb.encode_arg(&ty, &v, &no_res).unwrap();
        let first: Vec<(u64, Vec<u8>)> = mb.segments().to_vec();
        mb.reset();
        assert!(mb.segments().is_empty());
        // Same encoding after reset: same addresses, same bytes.
        let reg2 = mb.encode_arg(&ty, &v, &no_res).unwrap();
        assert_eq!(reg1, reg2);
        assert_eq!(mb.segments(), &first[..]);
        // Addresses come out strictly ascending (binary-search
        // contract of MemMap::load).
        let db2 = db_multi();
        let consts2 = ConstDb::new();
        let mut mb2 = MemBuilder::new(&db2, &consts2);
        let nested = Value::ptr_to(Value::Group(vec![
            Value::Int(0),
            Value::ptr_to(Value::Bytes(vec![1, 2, 3])),
        ]));
        let _ = mb2
            .encode_arg(
                &Type::ptr(Dir::In, Type::Named("s".into())),
                &nested,
                &no_res,
            )
            .unwrap();
        let addrs: Vec<u64> = mb2.segments().iter().map(|s| s.0).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "{addrs:?}");
    }

    fn db_multi() -> SpecDb {
        db("s {\n\tcount len[data, int32]\n\tdata ptr[in, array[int8]]\n}\n")
    }

    #[test]
    fn res_refs_collected_from_nested_values() {
        let v = Value::Group(vec![
            Value::Res(ResRef::dangling()),
            Value::ptr_to(Value::Union {
                arm: 1,
                value: Box::new(Value::Res(ResRef {
                    producer: Some(1),
                    fallback: 0,
                })),
            }),
        ]);
        assert_eq!(v.res_refs().len(), 2);
    }
}
