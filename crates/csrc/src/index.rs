//! Symbol index over a set of parsed C files — the query surface behind
//! `ExtractCode` in the paper's Algorithm 1.
//!
//! A [`Corpus`] holds its files behind `Arc`, so a file parsed once can
//! sit in any number of corpora ([`Corpus::from_shared`]) — the oracle
//! model assembles one per request from the parses it keeps. The index
//! stores no names: a slot is a position, sorted by the name found
//! there, so building one allocates twice (the file list and the slot
//! list) however many items it covers.

use crate::ast::{
    CArraySize, CEnumDef, CFile, CFunction, CItem, CItemKind, CStructDef, CType, CVarDef, MacroDef,
};
use std::sync::Arc;

/// Name spaces of the index, in the order [`Corpus::source_of`]
/// consults them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ns {
    Function,
    Struct,
    Macro,
    Var,
    Enum,
    /// An enum's variant; the slot points at the declaring enum.
    Variant,
}

/// Where a definition sits: `files[file].items[item]`, and for
/// [`Ns::Variant`] which of the enum's variants carries the name.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ns: Ns,
    file: usize,
    item: usize,
    variant: usize,
}

/// Indexed collection of C files.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    files: Vec<Arc<CFile>>,
    /// The visible definition of every `(name space, name)`, sorted by
    /// that pair.
    index: Vec<Slot>,
}

fn slot_name<'a>(files: &'a [Arc<CFile>], s: &Slot) -> &'a str {
    let item = &files[s.file].items[s.item];
    match (&item.kind, s.ns) {
        (CItemKind::Enum(e), Ns::Variant) => &e.variants[s.variant].0,
        _ => item.name(),
    }
}

impl Corpus {
    /// Build an index over parsed files. Later definitions shadow
    /// earlier ones with the same name (like link order in the kernel).
    #[must_use]
    pub fn build(files: Vec<CFile>) -> Corpus {
        Corpus::from_shared(files.into_iter().map(Arc::new).collect())
    }

    /// [`Corpus::build`] over files that other corpora may hold too.
    #[must_use]
    pub fn from_shared(files: Vec<Arc<CFile>>) -> Corpus {
        let slots = |item: &CItem| match &item.kind {
            CItemKind::Enum(e) => usize::from(!e.name.is_empty()) + e.variants.len(),
            CItemKind::Typedef(_) => 0,
            _ => 1,
        };
        let total = files.iter().flat_map(|f| &f.items).map(slots).sum();
        let mut index = Vec::with_capacity(total);
        for (file, f) in files.iter().enumerate() {
            for (item, it) in f.items.iter().enumerate() {
                let mut push = |ns, variant| {
                    index.push(Slot {
                        ns,
                        file,
                        item,
                        variant,
                    });
                };
                match &it.kind {
                    CItemKind::Function(_) => push(Ns::Function, 0),
                    CItemKind::Struct(_) => push(Ns::Struct, 0),
                    CItemKind::Macro(_) => push(Ns::Macro, 0),
                    CItemKind::Var(_) => push(Ns::Var, 0),
                    CItemKind::Enum(e) => {
                        if !e.name.is_empty() {
                            push(Ns::Enum, 0);
                        }
                        (0..e.variants.len()).for_each(|v| push(Ns::Variant, v));
                    }
                    CItemKind::Typedef(_) => {}
                }
            }
        }
        // Definitions of one name end up adjacent, in source order.
        let key = |s: &Slot| (s.ns, slot_name(&files, s), s.file, s.item, s.variant);
        index.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        let mut kept = 0usize;
        for i in 0..index.len() {
            let s = index[i];
            let same_name = kept > 0 && {
                let prev = &index[kept - 1];
                prev.ns == s.ns && slot_name(&files, prev) == slot_name(&files, &s)
            };
            if !same_name {
                index[kept] = s;
                kept += 1;
            } else if !is_prototype(&files[s.file].items[s.item]) {
                // The later definition shadows; a prototype shadows
                // nothing.
                index[kept - 1] = s;
            }
        }
        index.truncate(kept);
        Corpus { files, index }
    }

    /// The indexed files.
    #[must_use]
    pub fn files(&self) -> &[Arc<CFile>] {
        &self.files
    }

    fn find(&self, ns: Ns, name: &str) -> Option<&CItem> {
        let at = self
            .index
            .binary_search_by(|s| (s.ns, slot_name(&self.files, s)).cmp(&(ns, name)))
            .ok()?;
        let s = &self.index[at];
        Some(&self.files[s.file].items[s.item])
    }

    /// Look up a function definition (prototypes only if no definition).
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&CFunction> {
        match &self.find(Ns::Function, name)?.kind {
            CItemKind::Function(f) => Some(f),
            _ => None,
        }
    }

    /// Look up a struct/union definition.
    #[must_use]
    pub fn struct_def(&self, name: &str) -> Option<&CStructDef> {
        match &self.find(Ns::Struct, name)?.kind {
            CItemKind::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a macro.
    #[must_use]
    pub fn macro_def(&self, name: &str) -> Option<&MacroDef> {
        match &self.find(Ns::Macro, name)?.kind {
            CItemKind::Macro(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a global variable.
    #[must_use]
    pub fn var_def(&self, name: &str) -> Option<&CVarDef> {
        match &self.find(Ns::Var, name)?.kind {
            CItemKind::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Look up an enum by tag.
    #[must_use]
    pub fn enum_def(&self, name: &str) -> Option<&CEnumDef> {
        match &self.find(Ns::Enum, name)?.kind {
            CItemKind::Enum(e) => Some(e),
            _ => None,
        }
    }

    /// Find the enum that declares a variant.
    #[must_use]
    pub fn enum_of_variant(&self, variant: &str) -> Option<&CEnumDef> {
        match &self.find(Ns::Variant, variant)?.kind {
            CItemKind::Enum(e) => Some(e),
            _ => None,
        }
    }

    /// Value of an enum variant.
    #[must_use]
    pub fn enum_value(&self, variant: &str) -> Option<u64> {
        self.enum_of_variant(variant)?
            .values()
            .into_iter()
            .find(|(n, _)| n == variant)
            .map(|(_, v)| v)
    }

    /// Raw source text of the definition of `name` in any namespace —
    /// the `ExtractCode` primitive of Algorithm 1. Functions win over
    /// other namespaces; otherwise structs, macros, vars, enums.
    #[must_use]
    pub fn source_of(&self, name: &str) -> Option<&str> {
        [
            Ns::Function,
            Ns::Struct,
            Ns::Macro,
            Ns::Var,
            Ns::Enum,
            Ns::Variant,
        ]
        .into_iter()
        .find_map(|ns| self.find(ns, name))
        .map(|item| item.text.as_str())
    }

    /// All global variables, with their file names.
    pub fn all_vars(&self) -> impl Iterator<Item = (&str, &CVarDef)> {
        self.files.iter().flat_map(|f| {
            f.items.iter().filter_map(move |i| match &i.kind {
                CItemKind::Var(v) => Some((f.name.as_str(), v)),
                _ => None,
            })
        })
    }

    /// Uses of identifiers: `out[k]` lists the source texts of the items
    /// (other than `names[k]`'s own definition) whose text mentions
    /// `names[k]`, each once, in item order. This backs the paper's
    /// "usage information" in prompts. Every name is looked for at
    /// every byte of every item's text by walking a trie of the names,
    /// so the pass costs the text once, not once per name.
    #[must_use]
    pub fn usages_of_all(&self, names: &[&str]) -> Vec<Vec<&str>> {
        let trie = Trie::new(names);
        let mut out: Vec<Vec<&str>> = vec![Vec::new(); names.len()];
        // The last item each name was found in, so an item that
        // mentions a name twice is listed once.
        let mut last: Vec<Option<(usize, usize)>> = vec![None; names.len()];
        for (f, file) in self.files.iter().enumerate() {
            for (i, item) in file.items.iter().enumerate() {
                trie.each_match(&item.text, |k| {
                    if last[k] != Some((f, i)) && item.name() != names[k] {
                        last[k] = Some((f, i));
                        out[k].push(item.text.as_str());
                    }
                });
            }
        }
        // A name given twice has one trie entry: the first's list.
        for (k, &first) in trie.first.iter().enumerate() {
            if first != k {
                out[k] = out[first].clone();
            }
        }
        out
    }

    // ---- C sizeof/alignof ------------------------------------------

    /// Size in bytes of a C type under x86-64 rules, or `None` for
    /// unknown named types.
    #[must_use]
    pub fn sizeof_type(&self, ty: &CType) -> Option<u64> {
        let (size, _) = self.size_align(ty, 0)?;
        Some(size)
    }

    /// Size of a named struct/union.
    #[must_use]
    pub fn sizeof_struct(&self, name: &str) -> Option<u64> {
        let def = self.struct_def(name)?;
        let (size, _) = self.struct_size_align(def, 0)?;
        Some(size)
    }

    /// Byte offset of `field` within struct `name`.
    #[must_use]
    pub fn offset_of(&self, name: &str, field: &str) -> Option<u64> {
        let def = self.struct_def(name)?;
        if def.is_union {
            return def.fields.iter().any(|f| f.name == field).then_some(0);
        }
        let mut off = 0u64;
        for f in &def.fields {
            let (size, align) = self.size_align(&f.ty, 0)?;
            off = round_up(off, align);
            if f.name == field {
                return Some(off);
            }
            off += size;
        }
        None
    }

    fn size_align(&self, ty: &CType, depth: usize) -> Option<(u64, u64)> {
        if depth > 16 {
            return None;
        }
        if ty.ptr > 0 || ty.base.starts_with("fnptr:") {
            return self.apply_array(ty, 8, 8);
        }
        let (size, align) = match ty.base.as_str() {
            "void" => (0, 1),
            "char" | "uchar" | "bool" | "u8" | "s8" | "__u8" | "__s8" => (1, 1),
            "short" | "ushort" | "u16" | "s16" | "__u16" | "__s16" | "__le16" | "__be16" => (2, 2),
            "int" | "uint" | "u32" | "s32" | "__u32" | "__s32" | "__le32" | "__be32" | "enum"
            | "poll_t" | "__poll_t" | "dev_t" | "pid_t" | "uid_t" | "gid_t" | "float" => (4, 4),
            "long" | "ulong" | "u64" | "s64" | "__u64" | "__s64" | "__le64" | "__be64"
            | "size_t" | "ssize_t" | "loff_t" | "off_t" | "uintptr_t" | "intptr_t" | "double" => {
                (8, 8)
            }
            other => {
                if let Some(tag) = other
                    .strip_prefix("struct ")
                    .or_else(|| other.strip_prefix("union "))
                {
                    let def = self.struct_def(tag)?;
                    self.struct_size_align(def, depth + 1)?
                } else if let Some(tag) = other.strip_prefix("enum ") {
                    let _ = tag;
                    (4, 4)
                } else {
                    return None;
                }
            }
        };
        self.apply_array(ty, size, align)
    }

    fn apply_array(&self, ty: &CType, size: u64, align: u64) -> Option<(u64, u64)> {
        match &ty.array {
            None => Some((size, align)),
            Some(CArraySize::Fixed(n)) => Some((size * n, align)),
            Some(CArraySize::Flex) => Some((0, align)),
            Some(CArraySize::Named(n)) => {
                let count = self
                    .enum_value(n)
                    .or_else(|| crate::cmacro::eval_const(self, n))?;
                Some((size * count, align))
            }
        }
    }

    fn struct_size_align(&self, def: &CStructDef, depth: usize) -> Option<(u64, u64)> {
        let mut size = 0u64;
        let mut align = 1u64;
        for f in &def.fields {
            let (s, a) = self.size_align(&f.ty, depth)?;
            align = align.max(a);
            if def.is_union {
                size = size.max(s);
            } else {
                size = round_up(size, a) + s;
            }
        }
        Some((round_up(size, align), align))
    }
}

/// A byte trie of names, to find every one of them in a text at once.
struct Trie {
    /// Per node, its children and the bytes leading to them (the
    /// root's are in `root`).
    next: Vec<Vec<(u8, u32)>>,
    /// Per node, the name that ends there.
    name: Vec<Option<usize>>,
    /// The root's child per first byte; node 0, the root, means none.
    root: [u32; 256],
    /// Per name, the first name equal to it: the one its node names.
    first: Vec<usize>,
}

impl Trie {
    fn new(names: &[&str]) -> Trie {
        let mut t = Trie {
            next: vec![Vec::new()],
            name: vec![None],
            root: [0; 256],
            first: Vec::with_capacity(names.len()),
        };
        for (k, name) in names.iter().enumerate() {
            let mut node = 0;
            for &b in name.as_bytes() {
                node = t.child(node, b).unwrap_or_else(|| {
                    let child = t.next.len();
                    t.next.push(Vec::new());
                    t.name.push(None);
                    match node {
                        0 => t.root[usize::from(b)] = child as u32,
                        _ => t.next[node].push((b, child as u32)),
                    }
                    child
                });
            }
            t.first.push(*t.name[node].get_or_insert(k));
        }
        t
    }

    fn child(&self, node: usize, b: u8) -> Option<usize> {
        let child = match node {
            0 => self.root[usize::from(b)],
            _ => self.next[node].iter().find(|(c, _)| *c == b)?.1,
        };
        (child != 0).then_some(child as usize)
    }

    /// Calls `found(k)` for every occurrence in `text` of a name `k`
    /// (of equal names, the first) — a substring match, as
    /// `str::contains` sees it.
    fn each_match(&self, text: &str, mut found: impl FnMut(usize)) {
        // The empty name occurs in every text.
        if let Some(k) = self.name[0] {
            found(k);
        }
        let bytes = text.as_bytes();
        for start in 0..bytes.len() {
            let mut node = 0;
            for &b in &bytes[start..] {
                let Some(child) = self.child(node, b) else {
                    break;
                };
                node = child;
                if let Some(k) = self.name[node] {
                    found(k);
                }
            }
        }
    }
}

fn is_prototype(item: &CItem) -> bool {
    matches!(&item.kind, CItemKind::Function(f) if f.is_proto)
}

fn round_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::cparse;

    fn corpus(src: &str) -> Corpus {
        Corpus::build(vec![cparse("t.c", src).unwrap()])
    }

    #[test]
    fn indexes_all_namespaces() {
        let c = corpus(
            "#define M 7\nstruct s { int a; };\nenum e { E_A = 3 };\nstatic int v = 1;\nstatic int f(void) { return 0; }\n",
        );
        assert!(c.macro_def("M").is_some());
        assert!(c.struct_def("s").is_some());
        assert!(c.enum_def("e").is_some());
        assert!(c.var_def("v").is_some());
        assert!(c.function("f").is_some());
        assert_eq!(c.enum_value("E_A"), Some(3));
    }

    #[test]
    fn source_of_returns_exact_text() {
        let c = corpus("struct s { int a; };\n");
        assert_eq!(c.source_of("s"), Some("struct s { int a; };"));
        assert_eq!(c.source_of("nope"), None);
    }

    #[test]
    fn definition_beats_prototype() {
        let c = corpus("int f(void);\nint f(void) { return 1; }\n");
        assert!(!c.function("f").unwrap().is_proto);
        // And the reverse order too.
        let c = corpus("int g(void) { return 1; }\nint g(void);\n");
        assert!(!c.function("g").unwrap().is_proto);
    }

    #[test]
    fn later_definitions_shadow_earlier_ones_in_every_name_space() {
        let c = corpus(
            "#define M 1\nstruct s { int a; };\nenum e { A = 1 };\nstatic int v = 1;\nint f(void) { return 1; }\n\
             #define M 2\nstruct s { int a; int b; };\nenum e { A = 2 };\nstatic int v = 2;\nint f(void) { return 2; }\n",
        );
        assert_eq!(c.macro_def("M").unwrap().body, "2");
        assert_eq!(c.struct_def("s").unwrap().fields.len(), 2);
        assert_eq!(c.enum_def("e").unwrap().variants[0].1, Some(2));
        assert_eq!(c.enum_value("A"), Some(2));
        assert_eq!(c.var_def("v").unwrap().init, Some(crate::Expr::Num(2)));
        assert_eq!(c.source_of("f"), Some("int f(void) { return 2; }"));
        // Of prototypes alone the first stands; of definitions the last,
        // wherever the prototypes fall.
        let c = corpus("int g(int a);\nint g(int b);\n");
        assert_eq!(c.function("g").unwrap().params[0].0, "a");
        let c = corpus(
            "int g(void) { return 1; }\nint g(void);\nint g(void) { return 2; }\nint g(void);\n",
        );
        assert_eq!(c.source_of("g"), Some("int g(void) { return 2; }"));
    }

    #[test]
    fn shared_files_index_like_owned_ones_across_files() {
        let a = Arc::new(cparse("a.c", "#define N 3\nstruct s { int a; };\n").unwrap());
        let b = Arc::new(cparse("b.c", "struct s { u64 a; };\nenum { K = N };\n").unwrap());
        let ab = Corpus::from_shared(vec![a.clone(), b.clone()]);
        let ba = Corpus::from_shared(vec![b, a.clone()]);
        assert_eq!(ab.sizeof_struct("s"), Some(8));
        assert_eq!(ba.sizeof_struct("s"), Some(4));
        assert_eq!(ab.files().len(), 2);
        assert!(
            ab.enum_def("").is_none(),
            "anonymous enums have no tag entry"
        );
        assert!(ab.enum_of_variant("K").is_some());
        // The corpora share `a`; neither copied it.
        assert_eq!(Arc::strong_count(&a), 3);
        assert_eq!(ab.macro_def("N"), ba.macro_def("N"));
    }

    #[test]
    fn sizeof_scalars_and_structs() {
        let c =
            corpus("struct inner { u64 x; };\nstruct s { u8 a; u32 b; u16 c; struct inner i; };\n");
        assert_eq!(c.sizeof_struct("inner"), Some(8));
        // a@0, b@4, c@8, pad, i@16 → 24
        assert_eq!(c.sizeof_struct("s"), Some(24));
        assert_eq!(c.offset_of("s", "i"), Some(16));
        assert_eq!(c.offset_of("s", "b"), Some(4));
    }

    #[test]
    fn sizeof_union_and_arrays() {
        let c = corpus("union u { u8 a[7]; u64 b; };\nstruct t { u32 v[3]; char tail[]; };\n");
        assert_eq!(c.sizeof_struct("u"), Some(8));
        assert_eq!(c.sizeof_struct("t"), Some(12));
    }

    #[test]
    fn named_array_size_from_enum() {
        let c = corpus("enum { DM_NAME_LEN = 128 };\nstruct d { char name[DM_NAME_LEN]; };\n");
        assert_eq!(c.sizeof_struct("d"), Some(128));
    }

    #[test]
    fn usages_found() {
        let c = corpus(
            "static long dm_ctl_ioctl(struct file *f, uint c, ulong u) { return 0; }\nstatic const struct file_operations _ctl_fops = { .unlocked_ioctl = dm_ctl_ioctl };\n",
        );
        let uses = &c.usages_of_all(&["dm_ctl_ioctl"])[0];
        assert_eq!(uses.len(), 1);
        assert!(uses[0].contains("_ctl_fops"));
    }

    /// Each name's usages as indices of the items they are the texts of.
    fn usage_items(c: &Corpus, names: &[&str]) -> Vec<Vec<usize>> {
        let items: Vec<&str> = c.files[0].items.iter().map(|i| i.text.as_str()).collect();
        c.usages_of_all(names)
            .iter()
            .map(|found| {
                found
                    .iter()
                    .map(|t| items.iter().position(|i| std::ptr::eq(*i, *t)).unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn one_pass_usages_keep_substring_semantics() {
        let c = corpus(
            "struct ops { int x; };\nstatic const struct ops my_ops = { .x = 1 };\n\
             static const struct ops my_ops_v2 = { .x = 2 };\n\
             static int reg(void) { return use(&my_ops) + use(&my_ops) + use(&xmy_ops_v2); }\n\
             #define OPS_NAME \"my_ops\"\n",
        );
        // Names inside longer identifiers and strings, a name mentioned
        // twice in one item, a name that is its own item's, one name a
        // prefix of another, repeats, a name found nowhere, the empty
        // name, and names that are not identifiers. Items: 0 `ops`,
        // 1 `my_ops`, 2 `my_ops_v2`, 3 `reg`, 4 `OPS_NAME`; an item is
        // listed once, in item order, and never for its own name.
        let names = [
            "my_ops",
            "my_ops_v2",
            "ops",
            "my_ops",
            "y_o",
            "absent",
            "",
            "&my",
            "(void) {",
            "s",
        ];
        let want: [&[usize]; 10] = [
            &[2, 3, 4],
            &[3],
            &[1, 2, 3, 4],
            &[2, 3, 4],
            &[1, 2, 3, 4],
            &[],
            &[0, 1, 2, 3, 4],
            &[3],
            &[3],
            &[0, 1, 2, 3, 4],
        ];
        assert_eq!(usage_items(&c, &names), want);
        assert!(c.usages_of_all(&[]).is_empty());
    }

    /// FNV-1a over every global variable's usage list: its length, then
    /// each text and a separator — with the number of variables. The
    /// pins were recorded when `usages_of_all` still had the per-name
    /// scan it replaced beside it, and agreed with it name by name.
    fn usages_digest(c: &Corpus) -> (usize, u64) {
        let names: Vec<&str> = c.all_vars().map(|(_, v)| v.name.as_str()).collect();
        let mut bytes = Vec::new();
        for found in c.usages_of_all(&names) {
            bytes.extend_from_slice(&(found.len() as u64).to_le_bytes());
            for text in found {
                bytes.extend_from_slice(text.as_bytes());
                bytes.push(0);
            }
        }
        (names.len(), kgpt_syzlang::codec::fnv1a(&bytes))
    }

    #[test]
    fn one_pass_usages_are_pinned_on_the_flagship_corpus() {
        let kc = crate::KernelCorpus::flagship_only();
        assert_eq!(usages_digest(kc.corpus()), (88, 0x8761_b1b5_f989_366b));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "751 files: release builds only")]
    fn one_pass_usages_are_pinned_on_the_full_corpus() {
        let kc = crate::KernelCorpus::full(1);
        assert_eq!(usages_digest(kc.corpus()), (1447, 0x64c7_5d23_5ce5_9e01));
    }

    #[test]
    fn pointer_fields_are_word_sized() {
        let c = corpus("struct s { struct undefined_elsewhere *p; };\n");
        assert_eq!(c.sizeof_struct("s"), Some(8));
    }
}
