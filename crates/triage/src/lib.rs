//! # kgpt-triage
//!
//! Crash triage: turning raw crashing executions into **actionable
//! crash reports** — the paper's end product is not a coverage number
//! but a deduplicated list of reproducers.
//!
//! The subsystem has three parts, wired through the whole stack:
//!
//! * **signatures** — the virtual kernel stamps every
//!   [`CrashReport`](kgpt_vkernel::CrashReport) with a dense,
//!   spec-independent [`CrashSignature`](kgpt_vkernel::CrashSignature)
//!   (faulting
//!   [`Sysno`](kgpt_vkernel::Sysno), resource-chain depth of the fd,
//!   [`SanitizerKind`](kgpt_vkernel::SanitizerKind), faulting block);
//!   triage dedups on that key, so two spec suites reaching the same
//!   bug triage identically;
//! * **[`minimize()`]** — a deterministic ddmin-style search shrinking a
//!   captured `ProgCall` stream to a **1-minimal** reproducer
//!   (removing any single call loses the crash), judged by a
//!   caller-supplied replay oracle so the fuzzer drives it through its
//!   allocation-reusing lowered execution path;
//! * **[`report`]** — the per-campaign [`TriageReport`]: one
//!   [`TriageEntry`] per signature (first-seen epoch/shard, raw +
//!   minimized reproducer, shrink ratio, dedup count), merged
//!   first-publisher-wins across shards in shard-id order at epoch
//!   boundaries — the same discipline as the seed hub, which is what
//!   keeps the sharded campaign's triage output bit-identical at any
//!   worker thread count.
//!
//! The crate depends only on `kgpt-syzlang` (for
//! [`Program`](kgpt_syzlang::prog::Program)) and `kgpt-vkernel` (for
//! the signature types); the fuzzer depends on *it*, not the other way
//! around.

pub mod minimize;
pub mod report;

pub use minimize::{
    minimize, minimize_guided, project, project_into, without_call, MinimizeOutcome, TraceGuide,
};
pub use report::{TriageEntry, TriageReport};
