//! Abstract syntax tree for syzlang specification files.
//!
//! The model follows the upstream syntax documented in
//! `docs/syscall_descriptions_syntax.md` of Syzkaller, restricted to the
//! constructs exercised by the KernelGPT paper: resources, syscall
//! variants, structs, unions, flag sets, and the core type combinators
//! (`const`, `flags`, `ptr`, `array`, `string`, `len`, `bytesize`,
//! integer ranges and `proc` values).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Width of an integer type, in the `intN` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntBits {
    /// `int8` — one byte.
    I8,
    /// `int16` — two bytes.
    I16,
    /// `int32` — four bytes.
    I32,
    /// `int64` — eight bytes.
    I64,
}

impl IntBits {
    /// Size of the integer in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            IntBits::I8 => 1,
            IntBits::I16 => 2,
            IntBits::I32 => 4,
            IntBits::I64 => 8,
        }
    }

    /// Parse an `intN` keyword (`"int8"`, …) into its width.
    #[must_use]
    pub fn from_keyword(kw: &str) -> Option<IntBits> {
        Some(match kw {
            "int8" => IntBits::I8,
            "int16" => IntBits::I16,
            "int32" => IntBits::I32,
            "int64" | "intptr" => IntBits::I64,
            _ => return None,
        })
    }

    /// The syzlang keyword for this width.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            IntBits::I8 => "int8",
            IntBits::I16 => "int16",
            IntBits::I32 => "int32",
            IntBits::I64 => "int64",
        }
    }

    /// Mask a value to the width of this integer.
    #[must_use]
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            IntBits::I8 => v & 0xff,
            IntBits::I16 => v & 0xffff,
            IntBits::I32 => v & 0xffff_ffff,
            IntBits::I64 => v,
        }
    }
}

impl fmt::Display for IntBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Data-flow direction of a pointer or field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Dir {
    /// Userspace → kernel.
    #[default]
    In,
    /// Kernel → userspace.
    Out,
    /// Both directions.
    InOut,
}

impl Dir {
    /// The syzlang keyword (`in`, `out`, `inout`).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Dir::In => "in",
            Dir::Out => "out",
            Dir::InOut => "inout",
        }
    }

    /// Parse a direction keyword.
    #[must_use]
    pub fn from_keyword(kw: &str) -> Option<Dir> {
        Some(match kw {
            "in" => Dir::In,
            "out" => Dir::Out,
            "inout" => Dir::InOut,
            _ => return None,
        })
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A constant expression: either a literal number or a symbolic kernel
/// macro resolved through [`crate::ConstDb`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstExpr {
    /// Literal value (`const[2]`).
    Num(u64),
    /// Symbolic macro name (`const[DM_VERSION]`).
    Sym(String),
}

impl ConstExpr {
    /// Symbolic name, if this is a symbol.
    #[must_use]
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            ConstExpr::Sym(s) => Some(s),
            ConstExpr::Num(_) => None,
        }
    }
}

impl fmt::Display for ConstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstExpr::Num(n) => write!(f, "{n:#x}"),
            ConstExpr::Sym(s) => f.write_str(s),
        }
    }
}

/// Length specifier of an `array[...]` type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArrayLen {
    /// `array[T]` — size chosen by the generator.
    Unsized,
    /// `array[T, N]` — exactly `N` elements.
    Fixed(u64),
    /// `array[T, A:B]` — between `A` and `B` elements.
    Range(u64, u64),
}

/// A syzlang type expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `intN` with an optional inclusive value range `intN[A:B]`.
    Int {
        /// Integer width.
        bits: IntBits,
        /// Optional `[lo:hi]` value constraint.
        range: Option<(u64, u64)>,
    },
    /// `const[VALUE]` / `const[VALUE, intN]`.
    Const {
        /// The pinned value.
        value: ConstExpr,
        /// Wire width of the constant.
        bits: IntBits,
    },
    /// `flags[set_name]` / `flags[set_name, intN]`.
    Flags {
        /// Name of a [`FlagsDef`].
        set: String,
        /// Wire width.
        bits: IntBits,
    },
    /// `string["/dev/x"]` (single literal) or `string[name_set]`.
    StringLit {
        /// Candidate literal values; generation picks one.
        values: Vec<String>,
    },
    /// `ptr[dir, T]`.
    Ptr {
        /// Data-flow direction.
        dir: Dir,
        /// Pointee type.
        elem: Box<Type>,
    },
    /// `array[T]`, `array[T, N]`, `array[T, A:B]`.
    Array {
        /// Element type.
        elem: Box<Type>,
        /// Element count specifier.
        len: ArrayLen,
    },
    /// `len[target]` / `len[target, intN]` — element count of a sibling.
    Len {
        /// Sibling field or parameter name.
        target: String,
        /// Wire width.
        bits: IntBits,
    },
    /// `bytesize[target]` — byte size of a sibling.
    Bytesize {
        /// Sibling field or parameter name.
        target: String,
        /// Wire width.
        bits: IntBits,
    },
    /// Reference to a declared [`Resource`] (e.g. `fd_dm`).
    Resource(String),
    /// Reference to a named struct or union.
    Named(String),
    /// `proc[start, per_proc]` — per-process disjoint values.
    Proc {
        /// Base value.
        start: u64,
        /// Stride per process.
        per: u64,
        /// Wire width.
        bits: IntBits,
    },
    /// `void` — zero-size placeholder (union arms).
    Void,
}

impl Type {
    /// Convenience constructor for a plain `intN`.
    #[must_use]
    pub fn int(bits: IntBits) -> Type {
        Type::Int { bits, range: None }
    }

    /// Convenience constructor for a byte buffer `array[int8]`.
    #[must_use]
    pub fn buffer() -> Type {
        Type::Array {
            elem: Box::new(Type::int(IntBits::I8)),
            len: ArrayLen::Unsized,
        }
    }

    /// Convenience constructor for `ptr[dir, elem]`.
    #[must_use]
    pub fn ptr(dir: Dir, elem: Type) -> Type {
        Type::Ptr {
            dir,
            elem: Box::new(elem),
        }
    }

    /// Convenience constructor for a symbolic `const[SYM]` of width `bits`.
    pub fn sym_const(name: impl Into<String>, bits: IntBits) -> Type {
        Type::Const {
            value: ConstExpr::Sym(name.into()),
            bits,
        }
    }

    /// Name referenced by this type, if it is a named/resource/flags ref.
    #[must_use]
    pub fn referenced_name(&self) -> Option<&str> {
        match self {
            Type::Flags { set, .. } => Some(set),
            Type::Resource(n) | Type::Named(n) => Some(n),
            _ => None,
        }
    }

    /// Does this type (transitively) contain a pointer?
    #[must_use]
    pub fn contains_ptr(&self) -> bool {
        match self {
            Type::Ptr { .. } => true,
            Type::Array { elem, .. } => elem.contains_ptr(),
            _ => false,
        }
    }
}

/// A named parameter of a syscall.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name (`fd`, `cmd`, `arg`, …).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

impl Param {
    /// Create a parameter.
    pub fn new(name: impl Into<String>, ty: Type) -> Param {
        Param {
            name: name.into(),
            ty,
        }
    }
}

/// A syscall description, e.g. `ioctl$DM_VERSION(fd fd_dm, ...) fd_out`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Syscall {
    /// Base syscall name (`ioctl`, `openat`, `setsockopt`, …).
    pub base: String,
    /// Optional `$variant` suffix.
    pub variant: Option<String>,
    /// Ordered parameters.
    pub params: Vec<Param>,
    /// Resource produced by the return value, if any.
    pub ret: Option<String>,
}

impl Syscall {
    /// Full name, `base$variant` or plain `base`.
    #[must_use]
    pub fn name(&self) -> String {
        match &self.variant {
            Some(v) => format!("{}${}", self.base, v),
            None => self.base.clone(),
        }
    }

    /// The bytes of [`Syscall::name`], without building it.
    pub fn name_bytes(&self) -> impl Iterator<Item = u8> + Clone + '_ {
        let variant = self.variant.iter();
        let suffix = variant.flat_map(|v| std::iter::once(b'$').chain(v.bytes()));
        self.base.bytes().chain(suffix)
    }

    /// [`Syscall::name`] compared with `full`, in place.
    #[must_use]
    pub fn cmp_name(&self, full: &str) -> std::cmp::Ordering {
        self.name_bytes().cmp(full.bytes())
    }

    /// Whether [`Syscall::name`] is `full`, compared in place.
    #[must_use]
    pub fn name_is(&self, full: &str) -> bool {
        match &self.variant {
            None => self.base == full,
            Some(v) => {
                full.len() == self.base.len() + 1 + v.len()
                    && full.starts_with(self.base.as_str())
                    && full[self.base.len()..].starts_with('$')
                    && full.ends_with(v.as_str())
            }
        }
    }
}

/// One field of a struct or union.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Optional `(in)`, `(out)`, `(inout)` attribute.
    pub dir: Option<Dir>,
}

impl Field {
    /// Create a field without a direction attribute.
    pub fn new(name: impl Into<String>, ty: Type) -> Field {
        Field {
            name: name.into(),
            ty,
            dir: None,
        }
    }
}

/// A struct (`name { ... }`) or union (`name [ ... ]`) definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Ordered member fields.
    pub fields: Vec<Field>,
    /// `true` for unions (overlapping members).
    pub is_union: bool,
    /// `true` if declared `[packed]` (no alignment padding).
    pub packed: bool,
}

/// A resource declaration, `resource name[underlying]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Resource {
    /// Resource name (`fd_dm`).
    pub name: String,
    /// Underlying representation: another resource or an `intN` keyword.
    pub base: String,
    /// Optional special values (`: -1, 0`).
    pub values: Vec<ConstExpr>,
}

/// A flag-set definition, `name = A, B, C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlagsDef {
    /// Set name.
    pub name: String,
    /// Member values.
    pub values: Vec<ConstExpr>,
}

/// A top-level item of a specification file.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Item {
    /// `resource ...`.
    Resource(Resource),
    /// A syscall description.
    Syscall(Syscall),
    /// A struct or union definition.
    Struct(StructDef),
    /// A flag-set definition.
    Flags(FlagsDef),
}

impl Item {
    /// Name the item defines (syscalls use their full `base$variant` name).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Item::Resource(r) => r.name.clone(),
            Item::Syscall(s) => s.name(),
            Item::Struct(s) => s.name.clone(),
            Item::Flags(fl) => fl.name.clone(),
        }
    }

    /// Whether [`Item::name`] is `name`, compared in place.
    #[must_use]
    pub fn name_is(&self, name: &str) -> bool {
        match self {
            Item::Resource(Resource { name: own, .. })
            | Item::Struct(StructDef { name: own, .. })
            | Item::Flags(FlagsDef { name: own, .. }) => own == name,
            Item::Syscall(s) => s.name_is(name),
        }
    }

    /// The bytes of [`Item::name`], without building it.
    pub fn name_bytes(&self) -> impl Iterator<Item = u8> + Clone + '_ {
        let (own, call) = match self {
            Item::Resource(Resource { name, .. })
            | Item::Struct(StructDef { name, .. })
            | Item::Flags(FlagsDef { name, .. }) => (name.as_str(), None),
            Item::Syscall(s) => ("", Some(s.name_bytes())),
        };
        own.bytes().chain(call.into_iter().flatten())
    }
}

/// A parsed specification file.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SpecFile {
    /// File name, for diagnostics.
    pub name: String,
    /// Items in declaration order.
    pub items: Vec<Item>,
}

impl SpecFile {
    /// Create an empty file with the given name.
    pub fn new(name: impl Into<String>) -> SpecFile {
        SpecFile {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Whether an item of this file is named `name` (an error's
    /// [`crate::SpecError::item`], say), compared in place.
    #[must_use]
    pub fn defines(&self, name: &str) -> bool {
        self.items.iter().any(|i| i.name_is(name))
    }

    /// Iterate over the syscalls declared in this file.
    pub fn syscalls(&self) -> impl Iterator<Item = &Syscall> {
        self.items.iter().filter_map(|i| match i {
            Item::Syscall(s) => Some(s),
            _ => None,
        })
    }

    /// Iterate over struct/union definitions in this file.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Struct(s) => Some(s),
            _ => None,
        })
    }

    /// Iterate over resource declarations in this file.
    pub fn resources(&self) -> impl Iterator<Item = &Resource> {
        self.items.iter().filter_map(|i| match i {
            Item::Resource(r) => Some(r),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_bits_round_trip() {
        for b in [IntBits::I8, IntBits::I16, IntBits::I32, IntBits::I64] {
            assert_eq!(IntBits::from_keyword(b.keyword()), Some(b));
        }
        assert_eq!(IntBits::from_keyword("intptr"), Some(IntBits::I64));
        assert_eq!(IntBits::from_keyword("int7"), None);
    }

    #[test]
    fn int_bits_truncate() {
        assert_eq!(IntBits::I8.truncate(0x1ff), 0xff);
        assert_eq!(IntBits::I16.truncate(0x1_0001), 1);
        assert_eq!(IntBits::I32.truncate(u64::MAX), 0xffff_ffff);
        assert_eq!(IntBits::I64.truncate(u64::MAX), u64::MAX);
    }

    #[test]
    fn syscall_name_with_variant() {
        let s = Syscall {
            base: "ioctl".into(),
            variant: Some("DM_VERSION".into()),
            params: vec![],
            ret: None,
        };
        assert_eq!(s.name(), "ioctl$DM_VERSION");
    }

    #[test]
    fn syscall_name_plain() {
        let s = Syscall {
            base: "close".into(),
            variant: None,
            params: vec![],
            ret: None,
        };
        assert_eq!(s.name(), "close");
    }

    #[test]
    fn type_helpers() {
        assert!(Type::ptr(Dir::In, Type::buffer()).contains_ptr());
        assert!(!Type::int(IntBits::I32).contains_ptr());
        assert_eq!(
            Type::Resource("fd_dm".into()).referenced_name(),
            Some("fd_dm")
        );
        assert_eq!(Type::Void.referenced_name(), None);
    }

    #[test]
    fn dir_round_trip() {
        for d in [Dir::In, Dir::Out, Dir::InOut] {
            assert_eq!(Dir::from_keyword(d.keyword()), Some(d));
        }
        assert_eq!(Dir::from_keyword("sideways"), None);
    }

    #[test]
    fn const_expr_display() {
        assert_eq!(ConstExpr::Num(16).to_string(), "0x10");
        assert_eq!(
            ConstExpr::Sym("DM_VERSION".into()).to_string(),
            "DM_VERSION"
        );
    }
}
