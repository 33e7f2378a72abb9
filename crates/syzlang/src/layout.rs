//! C-compatible size/alignment/offset computation for syzlang types.
//!
//! The virtual kernel decodes argument buffers with ordinary C struct
//! layout rules (natural alignment, trailing padding to the struct's
//! alignment, unions sized to their largest arm). The encoder in
//! [`crate::value`] uses the same rules, so a spec whose types match the
//! kernel's structs produces byte-identical buffers.

use crate::ast::{ArrayLen, IntBits, StructDef, Type};
use crate::db::SpecDb;
use std::fmt;

/// Computed size and alignment of a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Size in bytes. For dynamically-sized types (unsized arrays,
    /// strings) this is the *minimum* size; `dynamic` is set.
    pub size: u64,
    /// Alignment in bytes (power of two).
    pub align: u64,
    /// Whether the actual size depends on the value.
    pub dynamic: bool,
}

impl Layout {
    fn fixed(size: u64, align: u64) -> Layout {
        Layout {
            size,
            align,
            dynamic: false,
        }
    }
}

/// Error produced while computing a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A named type was not found in the database.
    UnknownType(String),
    /// Type recursion without an intervening pointer (infinite size).
    Recursive(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::UnknownType(n) => write!(f, "unknown type `{n}`"),
            LayoutError::Recursive(n) => write!(f, "type `{n}` is recursive without indirection"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Compute the layout of a type.
///
/// # Errors
///
/// Returns [`LayoutError`] if a referenced type is undefined or the type
/// is recursive without a pointer.
pub fn type_layout(ty: &Type, db: &SpecDb) -> Result<Layout, LayoutError> {
    layout_inner(ty, db, &mut Vec::new())
}

/// Compute the layout of a struct or union definition.
///
/// # Errors
///
/// Same conditions as [`type_layout`].
pub fn struct_layout(def: &StructDef, db: &SpecDb) -> Result<Layout, LayoutError> {
    struct_layout_inner(def, db, &mut Vec::new())
}

/// [`struct_layout`] on a caller's stack of the struct names being
/// laid out (cleared first), so a pass over many structs allocates it
/// once.
pub(crate) fn struct_layout_in<'a>(
    def: &'a StructDef,
    db: &'a SpecDb,
    stack: &mut Vec<&'a str>,
) -> Result<Layout, LayoutError> {
    stack.clear();
    struct_layout_inner(def, db, stack)
}

/// Byte offsets of every field of a (non-union) struct, plus the total
/// size, under the same rules as [`struct_layout`].
///
/// For unions every offset is zero.
///
/// # Errors
///
/// Same conditions as [`type_layout`].
pub fn field_offsets(def: &StructDef, db: &SpecDb) -> Result<(Vec<u64>, u64), LayoutError> {
    let mut stack = Vec::new();
    if def.is_union {
        let l = struct_layout_inner(def, db, &mut stack)?;
        return Ok((vec![0; def.fields.len()], l.size));
    }
    let mut offsets = Vec::with_capacity(def.fields.len());
    let mut off: u64 = 0;
    let mut max_align: u64 = 1;
    for f in &def.fields {
        let l = layout_inner(&f.ty, db, &mut stack)?;
        let align = if def.packed { 1 } else { l.align };
        off = round_up(off, align);
        offsets.push(off);
        off += l.size;
        max_align = max_align.max(align);
    }
    let total = round_up(off.max(1), if def.packed { 1 } else { max_align });
    Ok((offsets, total))
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

fn int_layout(bits: IntBits) -> Layout {
    Layout::fixed(bits.size(), bits.size())
}

fn layout_inner<'a>(
    ty: &'a Type,
    db: &'a SpecDb,
    stack: &mut Vec<&'a str>,
) -> Result<Layout, LayoutError> {
    Ok(match ty {
        Type::Int { bits, .. }
        | Type::Const { bits, .. }
        | Type::Flags { bits, .. }
        | Type::Len { bits, .. }
        | Type::Bytesize { bits, .. }
        | Type::Proc { bits, .. } => int_layout(*bits),
        Type::Ptr { .. } => Layout::fixed(8, 8),
        Type::Void => Layout::fixed(0, 1),
        Type::StringLit { values } => {
            let min = values.iter().map(|v| v.len() as u64 + 1).min().unwrap_or(1);
            Layout {
                size: min,
                align: 1,
                dynamic: true,
            }
        }
        Type::Array { elem, len } => {
            let e = layout_inner(elem, db, stack)?;
            match len {
                ArrayLen::Fixed(n) => Layout {
                    size: e.size * n,
                    align: e.align,
                    dynamic: e.dynamic,
                },
                ArrayLen::Range(lo, _) => Layout {
                    size: e.size * lo,
                    align: e.align,
                    dynamic: true,
                },
                ArrayLen::Unsized => Layout {
                    size: 0,
                    align: e.align,
                    dynamic: true,
                },
            }
        }
        Type::Resource(name) => {
            let bits = db
                .resource_bits(name)
                .ok_or_else(|| LayoutError::UnknownType(name.clone()))?;
            int_layout(bits)
        }
        Type::Named(name) => {
            let def = db
                .struct_def(name)
                .ok_or_else(|| LayoutError::UnknownType(name.clone()))?;
            if stack.iter().any(|s| s == name) {
                return Err(LayoutError::Recursive(name.clone()));
            }
            stack.push(name);
            let l = struct_layout_inner(def, db, stack)?;
            stack.pop();
            l
        }
    })
}

fn struct_layout_inner<'a>(
    def: &'a StructDef,
    db: &'a SpecDb,
    stack: &mut Vec<&'a str>,
) -> Result<Layout, LayoutError> {
    let mut size: u64 = 0;
    let mut align: u64 = 1;
    let mut dynamic = false;
    for f in &def.fields {
        let l = layout_inner(&f.ty, db, stack)?;
        let a = if def.packed { 1 } else { l.align };
        align = align.max(a);
        dynamic |= l.dynamic;
        if def.is_union {
            size = size.max(l.size);
        } else {
            size = round_up(size, a) + l.size;
        }
    }
    let size = round_up(size.max(if def.fields.is_empty() { 0 } else { 1 }), align);
    Ok(Layout {
        size,
        align,
        dynamic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn db(src: &str) -> SpecDb {
        SpecDb::from_files(vec![parse("t", src).unwrap()])
    }

    #[test]
    fn scalar_layouts() {
        let db = SpecDb::from_files(vec![]);
        let l = type_layout(&Type::int(IntBits::I32), &db).unwrap();
        assert_eq!((l.size, l.align), (4, 4));
        let l = type_layout(&Type::ptr(crate::ast::Dir::In, Type::Void), &db).unwrap();
        assert_eq!((l.size, l.align), (8, 8));
        let l = type_layout(&Type::Void, &db).unwrap();
        assert_eq!(l.size, 0);
    }

    #[test]
    fn c_struct_padding() {
        // struct { u8 a; u32 b; u16 c; } → a@0, b@4, c@8, size 12.
        let db = db("s {\n\ta int8\n\tb int32\n\tc int16\n}\n");
        let def = db.struct_def("s").unwrap();
        let (offs, size) = field_offsets(def, &db).unwrap();
        assert_eq!(offs, vec![0, 4, 8]);
        assert_eq!(size, 12);
    }

    #[test]
    fn packed_struct_no_padding() {
        let db = db("s {\n\ta int8\n\tb int32\n} [packed]\n");
        let def = db.struct_def("s").unwrap();
        let (offs, size) = field_offsets(def, &db).unwrap();
        assert_eq!(offs, vec![0, 1]);
        assert_eq!(size, 5);
    }

    #[test]
    fn union_is_max_of_arms() {
        let db = db("u [\n\ta int16\n\tb array[int8, 7]\n\tc int64\n]\n");
        let l = struct_layout(db.struct_def("u").unwrap(), &db).unwrap();
        assert_eq!((l.size, l.align), (8, 8));
        let (offs, _) = field_offsets(db.struct_def("u").unwrap(), &db).unwrap();
        assert_eq!(offs, vec![0, 0, 0]);
    }

    #[test]
    fn nested_struct_layout() {
        let db = db("inner {\n\ta int64\n}\nouter {\n\tx int8\n\ti inner\n}\n");
        let (offs, size) = field_offsets(db.struct_def("outer").unwrap(), &db).unwrap();
        assert_eq!(offs, vec![0, 8]);
        assert_eq!(size, 16);
    }

    #[test]
    fn unsized_array_is_dynamic() {
        let db = db("s {\n\tn int32\n\tdata array[int8]\n}\n");
        let l = struct_layout(db.struct_def("s").unwrap(), &db).unwrap();
        assert!(l.dynamic);
        assert_eq!(l.size, 4);
    }

    #[test]
    fn recursion_without_ptr_rejected() {
        let db = db("a {\n\tnext a\n}\n");
        assert_eq!(
            struct_layout(db.struct_def("a").unwrap(), &db),
            Err(LayoutError::Recursive("a".into()))
        );
    }

    #[test]
    fn recursion_behind_ptr_ok() {
        let db = db("a {\n\tnext ptr[in, a]\n\tv int32\n}\n");
        let l = struct_layout(db.struct_def("a").unwrap(), &db).unwrap();
        assert_eq!(l.size, 16);
    }

    #[test]
    fn unknown_type_reported() {
        let db = db("s {\n\tx mystery\n}\n");
        assert_eq!(
            struct_layout(db.struct_def("s").unwrap(), &db),
            Err(LayoutError::UnknownType("mystery".into()))
        );
    }

    #[test]
    fn resource_layout_uses_underlying() {
        let db = db("resource fd_x[fd]\ns {\n\tf fd_x\n\tpad int32\n}\n");
        let (offs, size) = field_offsets(db.struct_def("s").unwrap(), &db).unwrap();
        assert_eq!(offs, vec![0, 4]);
        assert_eq!(size, 8);
    }

    #[test]
    fn fixed_array_layout() {
        let db = SpecDb::from_files(vec![]);
        let ty = Type::Array {
            elem: Box::new(Type::int(IntBits::I32)),
            len: ArrayLen::Fixed(3),
        };
        let l = type_layout(&ty, &db).unwrap();
        assert_eq!((l.size, l.align, l.dynamic), (12, 4, false));
    }
}
