//! # kgpt-syzlang
//!
//! An implementation of (a substantial subset of) **syzlang**, the
//! syscall-description language used by [Syzkaller], as required by the
//! KernelGPT reproduction (ASPLOS '25).
//!
//! The crate provides:
//!
//! * an [`ast`] module modelling specification files: resources, syscall
//!   variants (`ioctl$DM_VERSION`), structs/unions, flag sets;
//! * a line-oriented [`parser`] and a round-tripping [`printer`];
//! * a [`consts`] database mapping symbolic constants (kernel macros such
//!   as `DM_VERSION` or `O_RDONLY`) to values — the analogue of
//!   `syz-extract` output;
//! * a [`layout`] engine computing C-compatible sizes/alignments/offsets
//!   for every describable type;
//! * a [`value`] model with a byte-level encoder used by the fuzzer to
//!   materialise arguments (auto-filling `len[...]` fields);
//! * a [`validate`] pass reproducing the error classes of
//!   `syz-extract`/`syz-generate` (undefined types, unknown constants,
//!   broken `len` targets, unproduced resources, …) that feeds the
//!   KernelGPT *specification repair* loop;
//! * a [`cache`] module memoizing compiled [`SpecDb`]s behind `Arc`s,
//!   keyed by suite content, so repeated campaign constructions and
//!   sweep harnesses stop re-parsing identical suites;
//! * a [`codec`] module — the one byte codec ([`codec::Writer`] /
//!   [`codec::Reader`], FNV-1a, the `magic | version | checksum`
//!   envelope) every binary format in the workspace is composed from;
//! * a [`stage`] module — the one stage registry: spans in the loops
//!   that run charge a fixed table of stages with time and allocator
//!   events, for a binary or a test that attaches a sink;
//! * a [`prog`] module with the concrete [`Program`] representation
//!   (dense syscall indices + argument [`Value`]s) shared by the
//!   fuzzer's generation/execution loop and the crash-triage
//!   minimizer;
//! * a [`lowered`] module compiling a `(SpecDb, ConstDb)` pair once
//!   into a flat, index-interned IR ([`LoweredDb`]) so the fuzzer's
//!   per-exec generate→encode path is string-free and AST-free (the
//!   arena-walking [`lowered::LoweredEncoder`] mirrors the reference
//!   [`value::MemBuilder`] byte for byte).
//!
//! ## Example
//!
//! ```
//! use kgpt_syzlang::{parse, ConstDb, SpecDb, validate::validate};
//!
//! let src = r#"
//! resource fd_msm[fd]
//! openat$msm(dir const[AT_FDCWD], file ptr[in, string["/dev/msm"]], flags const[2], mode const[0]) fd_msm
//! ioctl$MSM_NEW(fd fd_msm, cmd const[MSM_NEW_CMD], arg ptr[inout, msm_queue])
//! msm_queue {
//!     flags int32
//!     prio  int32[0:3]
//!     id    int32 (out)
//! }
//! "#;
//! let file = parse("msm.txt", src)?;
//! let mut consts = ConstDb::new();
//! consts.define("AT_FDCWD", 0xffff_ff9c);
//! consts.define("MSM_NEW_CMD", 0xc010_6d0a);
//! let db = SpecDb::from_files(vec![file]);
//! let errors = validate(&db, &consts);
//! assert!(errors.is_empty(), "{errors:?}");
//! # Ok::<(), kgpt_syzlang::parser::ParseError>(())
//! ```
//!
//! [Syzkaller]: https://github.com/google/syzkaller

pub mod ast;
pub mod cache;
pub mod codec;
pub mod consts;
pub mod db;
pub mod layout;
pub mod lowered;
pub mod parser;
pub mod printer;
pub mod prog;
pub mod stage;
pub mod token;
pub mod validate;
pub mod value;

pub use ast::{
    ArrayLen, ConstExpr, Dir, Field, FlagsDef, IntBits, Item, Param, Resource, SpecFile, StructDef,
    Syscall, Type,
};
pub use cache::SpecCache;
pub use consts::ConstDb;
pub use db::SpecDb;
pub use lowered::LoweredDb;
pub use parser::parse;
pub use printer::print_file;
pub use prog::{ProgCall, Program};
pub use validate::{SpecError, SpecErrorKind};
pub use value::Value;
