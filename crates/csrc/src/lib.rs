//! # kgpt-csrc
//!
//! A mini-C frontend plus a **synthetic Linux-like kernel source
//! corpus**, the substrate standing in for the real kernel tree in the
//! KernelGPT reproduction.
//!
//! The crate has two halves:
//!
//! 1. **Frontend** ([`token`], [`ast`], [`parser`], [`index`],
//!    [`cmacro`]): a pragmatic recursive-descent parser for the C subset
//!    kernel drivers are written in — designated initializers
//!    (`.unlocked_ioctl = dm_ctl_ioctl`), `switch (cmd)` dispatch,
//!    lookup tables, `#define`/`_IOWR` macros, structs with flexible
//!    array members — and a symbol index ([`index::Corpus`]) that the
//!    extractor and the analyzers query (`ExtractCode` in the paper's
//!    Algorithm 1).
//!
//! 2. **Corpus** ([`blueprint`], [`emit`], [`flagship`], [`synth`],
//!    [`corpus`]): every driver and socket family is described once by a
//!    [`blueprint::Blueprint`] — the single source of truth from which
//!    we generate (a) the C source text the analyzers see, (b) the
//!    ground-truth specification used for correctness accounting
//!    (§5.1.3), (c) the virtual kernel's runtime behaviour, and (d) the
//!    pre-existing partial "Syzkaller" specs. Flagship targets (device
//!    mapper, CEC, KVM, RDS, …) are hand-authored in [`flagship`];
//!    [`synth`] procedurally generates the remaining population so the
//!    census in Table 1 of the paper (666 driver / 85 socket handlers)
//!    is reproduced at full scale.

pub mod ast;
pub mod blueprint;
pub mod cmacro;
pub mod corpus;
pub mod deepchain;
pub mod emit;
pub mod flagship;
pub mod index;
pub mod parser;
pub mod synth;
pub mod token;

pub use ast::{CFile, CItem, CType, Expr, Stmt};
pub use blueprint::Blueprint;
pub use corpus::KernelCorpus;
pub use index::Corpus;
/// The stage registry, for the crates above this one that take no
/// dependency on `kgpt-syzlang` of their own.
pub use kgpt_syzlang::stage;
