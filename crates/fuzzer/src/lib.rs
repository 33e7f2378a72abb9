//! # kgpt-fuzzer
//!
//! The spec-guided, coverage-directed syscall fuzzer — the Syzkaller
//! substitute that consumes syzlang suites and drives the virtual
//! kernel.
//!
//! * [`Program`] — syscall sequences with resource-threading
//!   (defined in [`kgpt_syzlang::prog`]);
//! * [`gen`] — generation over the compiled
//!   [`kgpt_syzlang::lowered::LoweredDb`] IR: producers are prepended
//!   to satisfy resource dependencies, values follow the declared
//!   types (ranges, flags, strings, lengths auto-filled by the
//!   encoder) with a small rate of deliberate violations — with no
//!   name lookup or AST walk per value;
//! * [`exec`] — lowers a program to registers + memory segments and
//!   runs it against a [`kgpt_vkernel::VKernel`], reusing per-worker
//!   [`exec::ExecScratch`] so the hot loop is allocation-free,
//!   string-free (dense [`kgpt_vkernel::Sysno`] dispatch) and
//!   AST-free;
//! * [`mod@reference`] — the pre-lowering AST-walk generator/executor,
//!   kept as the differential oracle: program streams and execution
//!   outcomes are pinned bit-identical to the lowered path;
//! * [`corpus`] — the coverage-keyed seed corpus: entries keyed by
//!   the coverage they contributed, weighted (bias-free) seed
//!   scheduling, and least-productive eviction under the size cap;
//! * [`campaign`] — the coverage-guided loop: mutate/generate, admit
//!   inputs that reach new blocks into the [`corpus::Corpus`],
//!   deduplicate crashes by title — one [`Program`] a shard goes round
//!   it, a rejected program being the storage the next is built into;
//! * [`hub`] — deterministic cross-shard seed exchange: shards
//!   publish their best seeds at fixed exec-epoch boundaries in
//!   shard-id order and import what they have not seen;
//! * [`shard`] — parallel campaigns: a fixed logical-shard
//!   decomposition executed by N threads sharing the kernel by
//!   reference, with epoch-barrier hub exchange and a merge that are
//!   both independent of thread count;
//! * [`checkpoint`] — crash-safe campaign durability: a base
//!   [`checkpoint::CampaignSnapshot`] of the whole boundary state
//!   (RNGs, corpora, coverage, hub, triage) written atomically with a
//!   previous-good rotation, and beside it a journal of what each
//!   later epoch changed — the fabric's patch records, replayed
//!   through the fabric's merge on load — such that
//!   interrupt-plus-resume at any boundary, or a kill at any byte, is
//!   bit-identical to an uninterrupted run at any thread count;
//! * [`faults`] — deterministic fault injection
//!   ([`faults::FaultPlan`]): checkpoint-write failures, torn/corrupt
//!   snapshots, mid-epoch shard aborts, and fabric faults (dropped or
//!   duplicated frames, worker kills, stalled leases), so every
//!   recovery path is exercised in CI instead of waiting for real
//!   crashes;
//! * [`fabric`] — the deterministic halves of a distributed campaign:
//!   [`fabric::LeaseRunner`] steps a contiguous shard range on a
//!   worker and writes each boundary from live state, and
//!   [`fabric::CampaignMerge`] commits the per-shard records — full
//!   [`fabric::EpochDelta`]s or incremental [`fabric::EpochPatch`]es,
//!   patched into its committed state in place — in shard-id order
//!   on a coordinator, so
//!   the merged result is bit-identical to a single-process
//!   [`ShardedCampaign`] (the `kgpt-fabric` crate adds the protocol:
//!   leases, transports, framing);
//! * [`flight`] — the flight recorder: per-shard capture of compact
//!   delta-coded exec traces ([`kgpt_trace`]) during sharded
//!   campaigns, pinned crash traces that survive checkpoints, and
//!   [`flight::replay_trace`] — deterministic time-travel replay of
//!   any recorded exec, cross-checked byte-for-byte against its
//!   recorded block stream;
//! * crash triage (internal `triage` module over [`kgpt_triage`]) —
//!   shards capture the first crashing `ProgCall` stream per
//!   [`kgpt_vkernel::CrashSignature`]; the driver ddmin-minimizes new
//!   signatures at epoch boundaries in shard-id order, so the
//!   [`campaign::CampaignResult::triage`] report is bit-identical at
//!   any worker thread count.

mod boundary;
pub mod campaign;
pub mod checkpoint;
pub mod corpus;
pub mod exec;
pub mod fabric;
pub mod faults;
pub mod flight;
pub mod gen;
pub mod hub;
pub mod reference;
pub mod shard;
mod triage;

pub use campaign::{Campaign, CampaignConfig, CampaignResult, CrashTally, ShardSnapshot};
pub use checkpoint::{CampaignSnapshot, CheckpointError};
pub use corpus::{Corpus, CorpusEntry, CorpusStats};
pub use exec::{execute, execute_with, ExecPrefix, ExecResult, ExecScratch};
pub use fabric::{
    reference_run, BoundaryOutcome, CampaignMerge, EpochDelta, EpochPatch, KeptEntry, LeaseRunner,
    ReferenceRun,
};
pub use faults::{Fault, FaultPlan};
pub use flight::{cfg_successors, replay_trace, ReplayOutcome};
pub use gen::{Edit, Generator};
pub use hub::{HubSeed, SeedHub};
pub use kgpt_syzlang::prog::{ProgCall, Program};
pub use kgpt_trace::{ExecTrace, TraceError, TraceStore};
pub use kgpt_triage::{TriageEntry, TriageReport};
pub use reference::{ast_execute, ast_execute_with, AstGenerator, AstScratch};
pub use shard::ShardedCampaign;
pub use triage::minimize_program;
