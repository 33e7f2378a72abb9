//! # kgpt-vkernel
//!
//! The virtual kernel under test — the substitute for the paper's
//! Linux 6.7 + QEMU testbed.
//!
//! [`VKernel`] interprets the same [`Blueprint`]s the synthetic source
//! corpus was emitted from, so the kernel's runtime behaviour matches
//! the C text the analyzers read, byte for byte:
//!
//! * `openat` succeeds only on the registered device path;
//! * `ioctl` matches the full encoded command value (with `_IOC_NR`
//!   transforms validating the magic byte, so "wrong CMD value" specs
//!   fail exactly as SyzDescribe's do in the paper);
//! * struct arguments are decoded at their true C offsets and every
//!   semantic field role is enforced (`EINVAL` on range/magic/flag
//!   violations, resource-id validation, state-machine ordering);
//! * coverage is recorded as basic-block ids in a dense
//!   [`CoverageMap`], deeper blocks gated on semantic validity — so
//!   better specs measurably reach more blocks;
//! * the 24 injected bugs of Table 4 fire on their trigger conditions
//!   and produce crash reports with the paper's titles, each carrying
//!   a dense, spec-independent [`CrashSignature`] (faulting [`Sysno`],
//!   resource-chain depth of the fd, [`SanitizerKind`], faulting
//!   block) that the crash-triage subsystem dedups and minimizes on.
//!
//! The kernel itself is immutable after [`VKernel::boot`] and carries
//! no interior mutability, so one booted instance can be shared by
//! reference across any number of fuzzing worker threads (`VKernel:
//! Sync` is asserted at compile time); all mutable execution state
//! lives in the per-worker [`VmState`].
//!
//! **An exec pays for what the program did, not for what the kernel
//! booted.** `boot` is the only place a blueprint's names are resolved:
//! it compiles every command into a dense table (the private `table`
//! module — struct layouts as `(offset, width)` slots carrying their
//! checks, flag sets as masks, triggers as per-command arms over slot
//! and command indices, sub-handlers as target indices) and
//! [`VKernel::exec_call`] reads nothing else; the by-name helpers on
//! `Blueprint` are the boot-time source and the tests' oracle. Each
//! syscall resolves its fd to a table index once and carries it.
//! Coverage retires a straight-line run of blocks a word at a time
//! ([`CoverageMap::insert_run`]) into a map that indexes its non-zero
//! words, so clearing it, and asking a corpus whether it holds anything
//! new, cost the dozen words a program touched — not the bitmap of
//! every handler booted.
//!
//! The dispatch path is allocation-free (`tests/alloc_count.rs` holds
//! it to zero allocator events per exec): fd records are plain
//! integers whose per-command history lives in one per-worker arena,
//! the `open` path compares the path bytes where they lie in the
//! memory image, a crash report shares its strings with the booted bug
//! table, and struct-argument decode (`copy_from_user`) borrows the
//! bytes directly from the memory image when the read stays inside one
//! segment, copying into the amortized decode buffer only for
//! segment-crossing reads.
//!
//! Because [`VKernel::exec_call`] is a pure function of the state, the
//! call and the memory image, a state reached once need not be
//! reached again: [`VmState::save_boundary`] keeps what an execution
//! left after each call in a compact [`BoundaryStates`], and
//! [`VmState::restore_boundary`] puts a worker back at any of them for
//! the price of copying it — how the fuzzer runs a mutant from its
//! parent's state.

pub mod coverage;
pub mod mem;
mod table;

pub use coverage::{CoverageMap, CoverageWordDiff, MAX_COVERAGE_WORDS};
pub use mem::MemMap;

use kgpt_csrc::blueprint::{Blueprint, BlueprintKind, CmdTransform, SockCall, Trigger};
use kgpt_csrc::cmacro;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use table::{ArgPlan, Effect, FieldSlot, Kind, Target, When, ID_SLOT};

/// Compile-time proof that a booted kernel can be shared across
/// fuzzing threads by reference.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<VKernel>();
};

/// Linux errno values used by the virtual kernel.
pub mod errno {
    /// No such file or directory.
    pub const ENOENT: i64 = 2;
    /// Bad file descriptor.
    pub const EBADF: i64 = 9;
    /// Bad address.
    pub const EFAULT: i64 = 14;
    /// Out of memory (returned for fuel-exhausted executions: the
    /// virtual analogue of the kernel refusing further work).
    pub const ENOMEM: i64 = 12;
    /// Device or resource busy.
    pub const EBUSY: i64 = 16;
    /// Invalid argument.
    pub const EINVAL: i64 = 22;
    /// Inappropriate ioctl for device.
    pub const ENOTTY: i64 = 25;
    /// Protocol not available.
    pub const ENOPROTOOPT: i64 = 92;
    /// Protocol not supported.
    pub const EPROTONOSUPPORT: i64 = 93;
    /// Socket type not supported.
    pub const ESOCKTNOSUPPORT: i64 = 94;
    /// Address family not supported.
    pub const EAFNOSUPPORT: i64 = 97;
}

/// Dense syscall number for kernel dispatch — the virtual kernel's
/// analogue of the syscall table. The fuzzer's lowered IR resolves
/// each spec syscall's base name to a `Sysno` once at scratch
/// construction ([`Sysno::from_base`]), so the per-exec
/// [`VKernel::exec_call`] dispatch is a jump on a dense enum with no
/// string comparison. `Ord` follows declaration order; it exists so
/// [`CrashSignature`]s (which embed the faulting `Sysno`) can key
/// sorted triage maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sysno {
    /// `openat(dirfd, path, flags, mode)`.
    Openat,
    /// `open(path, flags, mode)`.
    Open,
    /// `socket(family, type, proto)`.
    Socket,
    /// `ioctl(fd, cmd, arg)`.
    Ioctl,
    /// `setsockopt(fd, level, opt, val, len)`.
    Setsockopt,
    /// `getsockopt(fd, level, opt, val, len)`.
    Getsockopt,
    /// `bind(fd, addr, len)`.
    Bind,
    /// `connect(fd, addr, len)`.
    Connect,
    /// `accept(fd, ...)`.
    Accept,
    /// `sendto(fd, buf, len, ...)`.
    Sendto,
    /// `recvfrom(fd, ...)`.
    Recvfrom,
    /// `read(fd, ...)`.
    Read,
    /// `write(fd, ...)`.
    Write,
    /// `close(fd)`.
    Close,
    /// `mmap(...)` — returns a fixed mapping address.
    Mmap,
    /// Any base name the kernel does not implement (`-EINVAL`).
    Unsupported,
}

impl Sysno {
    /// Resolve a syscall base name (`"ioctl"`, `"openat"`, …) to its
    /// dense number. Called once per spec syscall at construction
    /// time, never on the execution path.
    #[must_use]
    pub fn from_base(base: &str) -> Sysno {
        match base {
            "openat" => Sysno::Openat,
            "open" => Sysno::Open,
            "socket" => Sysno::Socket,
            "ioctl" => Sysno::Ioctl,
            "setsockopt" => Sysno::Setsockopt,
            "getsockopt" => Sysno::Getsockopt,
            "bind" => Sysno::Bind,
            "connect" => Sysno::Connect,
            "accept" => Sysno::Accept,
            "sendto" => Sysno::Sendto,
            "recvfrom" => Sysno::Recvfrom,
            "read" => Sysno::Read,
            "write" => Sysno::Write,
            "close" => Sysno::Close,
            "mmap" => Sysno::Mmap,
            _ => Sysno::Unsupported,
        }
    }

    /// Stable dense index for serialization (declaration order).
    #[must_use]
    pub fn as_index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Sysno::as_index`]; `None` for an out-of-range
    /// index (e.g. from a corrupt snapshot).
    #[must_use]
    pub fn from_index(idx: u8) -> Option<Sysno> {
        const ALL: [Sysno; 16] = [
            Sysno::Openat,
            Sysno::Open,
            Sysno::Socket,
            Sysno::Ioctl,
            Sysno::Setsockopt,
            Sysno::Getsockopt,
            Sysno::Bind,
            Sysno::Connect,
            Sysno::Accept,
            Sysno::Sendto,
            Sysno::Recvfrom,
            Sysno::Read,
            Sysno::Write,
            Sysno::Close,
            Sysno::Mmap,
            Sysno::Unsupported,
        ];
        ALL.get(idx as usize).copied()
    }
}

/// Sanitizer family that detected a crash — the dense analogue of the
/// report's first line (`KASAN:`, `UBSAN:`, `divide error:`, …).
/// Derived from the injected bug's [`Trigger`] shape, so it is a pure
/// integer on the crash path: no title parsing, no strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SanitizerKind {
    /// Oversized allocation request (`WARNING: kmalloc bug …`).
    Kmalloc,
    /// Division by a zero field (`divide error: …`).
    DivideError,
    /// Use-after-free / GPF from a command sequence (`KASAN:`/`general
    /// protection fault …`).
    UseAfterFree,
    /// Resource-leak style bug from repeated valid commands
    /// (`ODEBUG:`/memory-leak reports).
    Odebug,
    /// Out-of-bounds on a payload path (`UBSAN: array-index-out-of-bounds`).
    OutOfBounds,
}

impl SanitizerKind {
    /// The sanitizer family a trigger shape reports under.
    #[must_use]
    pub fn of_trigger(trigger: &Trigger) -> SanitizerKind {
        match trigger {
            Trigger::FieldAbove { .. } => SanitizerKind::Kmalloc,
            Trigger::FieldZero { .. } => SanitizerKind::DivideError,
            Trigger::Sequence { .. } => SanitizerKind::UseAfterFree,
            Trigger::Repeat { .. } => SanitizerKind::Odebug,
            Trigger::PayloadLen { .. } => SanitizerKind::OutOfBounds,
        }
    }

    /// Stable dense index for serialization (declaration order).
    #[must_use]
    pub fn as_index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`SanitizerKind::as_index`]; `None` for an
    /// out-of-range index (e.g. from a corrupt snapshot).
    #[must_use]
    pub fn from_index(idx: u8) -> Option<SanitizerKind> {
        const ALL: [SanitizerKind; 5] = [
            SanitizerKind::Kmalloc,
            SanitizerKind::DivideError,
            SanitizerKind::UseAfterFree,
            SanitizerKind::Odebug,
            SanitizerKind::OutOfBounds,
        ];
        ALL.get(idx as usize).copied()
    }
}

/// A stable, spec-independent crash signature: what crash triage
/// dedups on. Built entirely from dense integers already at hand on
/// the crash path (per the dense-dispatch convention — no name lookup,
/// no string formatting):
///
/// * the [`Sysno`] of the faulting call — which syscall table entry
///   was on the stack;
/// * the **resource-chain depth** of the fd the call used: `1` for a
///   directly opened device or socket, `+1` for every
///   `CreatesFd`/`accept` hop (a crash on a KVM vCPU fd is depth 3:
///   `/dev/kvm` → VM fd → vCPU fd), so the same sanitizer firing at a
///   different point of a deep producer chain triages separately;
/// * the [`SanitizerKind`];
/// * the faulting basic-block id (`site`) — the bug's coverage block,
///   fixed by kernel boot order, independent of whichever spec suite
///   reached it.
///
/// Two campaigns over different spec suites against the same booted
/// kernel therefore produce identical signatures for the same
/// underlying bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CrashSignature {
    /// Dense number of the faulting syscall.
    pub sysno: Sysno,
    /// Resource-chain depth of the fd the faulting call operated on
    /// (0 when the call had no live fd, e.g. a payload crash probe).
    pub chain_depth: u8,
    /// Sanitizer family of the report.
    pub sanitizer: SanitizerKind,
    /// Faulting basic-block id (the bug's coverage block).
    pub site: u64,
}

/// A crash detected by the sanitizers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashReport {
    /// Crash title (Table 4 wording). The three strings are shared
    /// with the booted kernel's bug table: filing a report copies no
    /// text.
    pub title: Arc<str>,
    /// CVE, if assigned.
    pub cve: Option<Arc<str>>,
    /// Blueprint that crashed.
    pub handler: Arc<str>,
    /// Dense, spec-independent dedup key (see [`CrashSignature`]).
    pub signature: CrashSignature,
}

/// Per-fd kernel object state — plain integers: the handler is a
/// target index, command history is a command index plus a window of
/// the exec-wide counter arena, so minting an fd allocates nothing.
#[derive(Debug, Clone, Copy)]
struct FdState {
    /// Index into `VKernel::targets`.
    target: u32,
    state: u8,
    /// Resource-chain depth: 1 for a directly opened device/socket,
    /// parent + 1 for fds minted by `CreatesFd` commands or `accept`.
    /// Feeds the crash signature's `chain_depth`.
    depth: u8,
    /// Index into the target's `cmds` of the last *valid* command.
    last_cmd: Option<u32>,
    /// Where this fd's per-command valid-invocation counts start in
    /// `VmState::cmd_counts` (one per command, indexed like `cmds`).
    counts_at: u32,
    /// Ids are issued sequentially starting at 1 and never revoked,
    /// so `id` is valid ⇔ `1 <= id < next_id`.
    next_id: u32,
    closed: bool,
}

/// One event of a per-exec execution trace, in retirement order — the
/// raw material the flight recorder (`kgpt-trace`) delta-codes into a
/// compact bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `len` consecutive basic blocks retired starting at id `start`
    /// (contiguous retirements are merged as they are recorded).
    Block {
        /// First block id of the run.
        start: u64,
        /// Consecutive blocks retired (always ≥ 1).
        len: u32,
    },
    /// Syscall boundary: the executor is about to dispatch program
    /// call `index` (skipped calls get no marker).
    Call {
        /// Zero-based index of the call in its program.
        index: u32,
    },
    /// A sanitizer fired at block `site` (the crash signature's site).
    Crash {
        /// Faulting block id.
        site: u64,
    },
}

/// The per-exec trace log the kernel's exec path appends to when
/// tracing is enabled — a plain event buffer; compact encoding is the
/// flight recorder's job (`kgpt-trace`), not the hot path's.
///
/// Disabled (the default) it costs the exec path one predictable
/// branch per coverage retirement, in keeping with the dense-dispatch
/// convention. The enabled flag survives [`VmState::reset`] — like
/// the fuel limit it is a property of the worker, not of one program
/// — while the buffered events are cleared (allocation retained).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Turn recording on or off. Tracing never changes execution
    /// results — coverage, returns and crashes are identical either
    /// way — only whether events are buffered.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events of the current execution, in retirement order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Record `len` blocks retired from `start`, merging with an
    /// immediately preceding contiguous retirement.
    #[inline]
    pub fn block(&mut self, start: u64, len: u32) {
        if !self.enabled || len == 0 {
            return;
        }
        if let Some(TraceEvent::Block {
            start: prev_start,
            len: prev_len,
        }) = self.events.last_mut()
        {
            if *prev_start + u64::from(*prev_len) == start {
                *prev_len += len;
                return;
            }
        }
        self.events.push(TraceEvent::Block { start, len });
    }

    /// Record a syscall-boundary marker for program call `index`.
    #[inline]
    pub fn call(&mut self, index: u32) {
        if self.enabled {
            self.events.push(TraceEvent::Call { index });
        }
    }

    /// Record a crash marker at the faulting block `site`.
    #[inline]
    pub fn crash(&mut self, site: u64) {
        if self.enabled {
            self.events.push(TraceEvent::Crash { site });
        }
    }

    /// Hand the buffered events over in the buffer they were logged
    /// into and go on logging into `spare`, which is emptied first: the
    /// flight recorder keeps an exec's events without copying them.
    pub fn swap_events(&mut self, spare: &mut Vec<TraceEvent>) {
        spare.clear();
        std::mem::swap(&mut self.events, spare);
    }

    /// Drop the buffered events (allocation retained); the enabled
    /// flag is untouched.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// Per-program ("per-VM") execution state: fd table, coverage, crash.
///
/// Designed for reuse across executions: [`VmState::reset`] clears
/// the logical state while retaining every allocation (fd table,
/// coverage words, decode scratch), so a fuzzing worker touches the
/// allocator only while a program grows past its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct VmState {
    fds: Vec<FdState>,
    /// Per-command valid-invocation counts of every fd of the current
    /// execution, fd after fd (see `FdState::counts_at`): one arena
    /// truncated per exec instead of one vector per fd.
    cmd_counts: Vec<u32>,
    /// Basic blocks covered so far.
    pub coverage: CoverageMap,
    /// First crash, if any (execution should stop).
    pub crash: Option<CrashReport>,
    /// Flight-recorder event log (off by default; see [`TraceLog`]).
    trace: TraceLog,
    /// Reusable argument-decode buffer (`copy_from_user` target).
    decode_buf: Vec<u8>,
    /// Reusable decoded-field scratch, aligned with the argument
    /// struct's compiled fields.
    field_buf: Vec<u64>,
    /// Per-exec fuel budget in work units (blocks retired + argument
    /// bytes decoded); 0 = unlimited. Survives [`VmState::reset`] —
    /// it is a property of the worker, not of one program.
    fuel_limit: u64,
    /// Work units charged so far in the current execution.
    fuel_spent: u64,
    /// Whether the current execution ran out of fuel. Once set, every
    /// further call returns `-ENOMEM` until the next reset.
    fuel_exhausted: bool,
}

impl VmState {
    /// Fresh state (fd numbering starts at 3, like a real process).
    #[must_use]
    pub fn new() -> VmState {
        VmState::default()
    }

    /// Clear fd table, coverage, crash, spent fuel and buffered trace
    /// events for the next program while keeping allocations (and the
    /// fuel limit and trace-enabled flag).
    pub fn reset(&mut self) {
        self.fds.clear();
        self.cmd_counts.clear();
        self.coverage.clear();
        self.crash = None;
        self.trace.clear();
        self.fuel_spent = 0;
        self.fuel_exhausted = false;
    }

    /// The flight-recorder event log of the current execution.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the flight-recorder log (enable/disable
    /// recording, inject executor-side markers like syscall
    /// boundaries).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Set the per-exec fuel budget (work units: blocks retired +
    /// argument bytes decoded). `0` disables the watchdog. The limit
    /// persists across [`VmState::reset`].
    pub fn set_fuel_limit(&mut self, limit: u64) {
        self.fuel_limit = limit;
    }

    /// The configured per-exec fuel budget (0 = unlimited).
    #[must_use]
    pub fn fuel_limit(&self) -> u64 {
        self.fuel_limit
    }

    /// Work units charged in the current execution.
    #[must_use]
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }

    /// Whether the current execution exhausted its fuel budget — a
    /// counted outcome, not a crash: `crash` stays `None` and the
    /// coverage retired before exhaustion remains mergeable.
    #[must_use]
    pub fn fuel_exhausted(&self) -> bool {
        self.fuel_exhausted
    }

    /// Charge `units` of work against the fuel budget. Deterministic:
    /// exhaustion depends only on the executed program, never on wall
    /// clock or scheduling.
    fn charge_fuel(&mut self, units: u64) {
        if self.fuel_limit == 0 {
            return;
        }
        self.fuel_spent = self.fuel_spent.saturating_add(units);
        if self.fuel_spent > self.fuel_limit {
            self.fuel_exhausted = true;
        }
    }

    /// Mint an fd on target `target` (which has `n_cmds` commands) at
    /// resource-chain depth `depth`; returns the fd number.
    fn alloc_fd(&mut self, target: u32, n_cmds: usize, depth: u8) -> i64 {
        let counts_at = self.cmd_counts.len();
        self.cmd_counts.resize(counts_at + n_cmds, 0);
        self.fds.push(FdState {
            target,
            state: 0,
            depth,
            last_cmd: None,
            counts_at: counts_at as u32,
            next_id: 1,
            closed: false,
        });
        self.fds.len() as i64 + 2
    }

    /// Index in the fd table of a live (open) fd number. Every syscall
    /// resolves its fd once, here, and carries the index.
    fn live_fd(&self, fd: u64) -> Option<usize> {
        let idx = usize::try_from((fd as i64).checked_sub(3)?).ok()?;
        self.fds.get(idx).filter(|f| !f.closed).map(|_| idx)
    }

    /// No boundary yet, to save this worker's next execution into:
    /// take it on a reset state, before the first call, then
    /// [`VmState::save_boundary`] after every call.
    #[must_use]
    pub fn boundary_states(&self) -> BoundaryStates {
        BoundaryStates {
            settings: (self.fuel_limit, self.trace.enabled),
            ..BoundaryStates::default()
        }
    }

    /// Save the state after the call just made as the next boundary of
    /// `into`, `still` more to follow in this execution. The fd table,
    /// the per-command counters and the fuel are copied whole — room is
    /// made at once for `still` more of each at least this big, since
    /// neither shrinks within an execution; of what only grows —
    /// coverage words, trace events — just what the call added. (A
    /// call's events start with its boundary marker, so no block run
    /// merges across a boundary.)
    pub fn save_boundary(&self, into: &mut BoundaryStates, still: usize) {
        into.ends.reserve(still + 1);
        into.fds.reserve((still + 1) * self.fds.len());
        into.cmd_counts.reserve((still + 1) * self.cmd_counts.len());
        into.fds.extend_from_slice(&self.fds);
        into.cmd_counts.extend_from_slice(&self.cmd_counts);
        self.coverage
            .log_growth(&mut into.seen, &mut into.cover_log);
        into.events
            .extend_from_slice(&self.trace.events[into.events.len()..]);
        if into.crash.is_none() {
            if let Some(crash) = &self.crash {
                into.crash = Some((into.ends.len() + 1, crash.clone()));
            }
        }
        into.ends.push(BoundaryEnds {
            fds: into.fds.len() as u32,
            cmd_counts: into.cmd_counts.len() as u32,
            cover_log: into.cover_log.len() as u32,
            events: into.events.len() as u32,
            fuel_spent: self.fuel_spent,
            fuel_exhausted: self.fuel_exhausted,
        });
    }

    /// Become the state the saved execution was in after its first
    /// `k` calls (`k = 0`: the reset state; `k` at most the calls it
    /// saved). `exec_call` is a pure function of the
    /// state, the call and the memory image, so this is the state any
    /// execution whose first `k` calls are those reaches there. Only
    /// the live coverage words are cleared, and nothing is allocated
    /// once the buffers have held the saved state. The fuel limit and
    /// the trace flag stay this worker's ([`BoundaryStates::fits`]).
    pub fn restore_boundary(&mut self, from: &BoundaryStates, k: usize) {
        let Some(at) = k.checked_sub(1).map(|i| from.ends[i]) else {
            return self.reset();
        };
        let before = k.checked_sub(2).map(|i| from.ends[i]);
        let fds = before.map_or(0, |b| b.fds as usize)..at.fds as usize;
        self.fds.clear();
        self.fds.extend_from_slice(&from.fds[fds]);
        let counts = before.map_or(0, |b| b.cmd_counts as usize)..at.cmd_counts as usize;
        self.cmd_counts.clear();
        self.cmd_counts.extend_from_slice(&from.cmd_counts[counts]);
        self.coverage
            .replay(&from.cover_log[..at.cover_log as usize]);
        self.crash = match &from.crash {
            Some((first, crash)) if *first <= k => Some(crash.clone()),
            _ => None,
        };
        self.trace.events.clear();
        self.trace
            .events
            .extend_from_slice(&from.events[..at.events as usize]);
        self.fuel_spent = at.fuel_spent;
        self.fuel_exhausted = at.fuel_exhausted;
    }
}

/// The [`VmState`]s one execution passed through at its call
/// boundaries — after its first call, its second, … — saved by
/// [`VmState::save_boundary`] so that a later execution sharing its
/// first `k` calls starts from the state after call `k`
/// ([`VmState::restore_boundary`]) instead of recomputing it.
///
/// Compact: what a call may rewrite — the fd table, the per-command
/// counters, the fuel — is kept whole per boundary; what only grows —
/// the coverage map's words (as or-records), trace events — once per
/// execution, with each boundary's end offset; a crash once, with the
/// boundary it first shows at.
#[derive(Debug, Clone, Default)]
pub struct BoundaryStates {
    /// `(fuel limit, tracing on)` of the state the boundaries were
    /// saved from: fuel is charged and events logged under them.
    settings: (u64, bool),
    fds: Vec<FdState>,
    cmd_counts: Vec<u32>,
    /// One per boundary, in call order.
    ends: Vec<BoundaryEnds>,
    cover_log: Vec<(u32, u64)>,
    events: Vec<TraceEvent>,
    /// The first crash and the boundary (1-based) it shows at.
    crash: Option<(usize, CrashReport)>,
    /// Saving scratch: each live coverage word's value at the last
    /// boundary, in live order.
    seen: Vec<u64>,
}

/// Where one boundary's share of a [`BoundaryStates`] ends, and its
/// fuel.
#[derive(Debug, Clone, Copy)]
struct BoundaryEnds {
    fds: u32,
    cmd_counts: u32,
    cover_log: u32,
    events: u32,
    fuel_spent: u64,
    fuel_exhausted: bool,
}

impl BoundaryStates {
    /// Whether the boundaries were saved under `state`'s fuel limit
    /// and trace flag — the worker settings a restored state keeps.
    #[must_use]
    pub fn fits(&self, state: &VmState) -> bool {
        self.settings == (state.fuel_limit, state.trace.enabled)
    }
}

/// The virtual kernel.
#[derive(Debug)]
pub struct VKernel {
    targets: Vec<Target>,
    /// Registered device path → target index.
    dev_index: BTreeMap<String, u32>,
    sock_index: BTreeMap<(u64, u64, u64), u32>,
}

/// Coverage block namespace stride per handler.
const BLOCK_STRIDE: u64 = 4096;

impl VKernel {
    /// Boot a kernel with the given handlers loaded. This is where
    /// every name in a blueprint is resolved — struct layouts, flag
    /// masks, trigger commands and fields, sub-handlers, device paths —
    /// into the integer tables [`VKernel::exec_call`] runs on.
    #[must_use]
    pub fn boot(blueprints: Vec<Blueprint>) -> VKernel {
        // A repeated id, path or socket triple resolves to the handler
        // booted last.
        let mut by_id = BTreeMap::new();
        let mut dev_index = BTreeMap::new();
        let mut sock_index = BTreeMap::new();
        for (idx, bp) in (0u32..).zip(&blueprints) {
            match &bp.kind {
                BlueprintKind::Driver(d) => {
                    if !d.dev_path.is_empty() {
                        dev_index.insert(d.dev_path.clone(), idx);
                    }
                }
                BlueprintKind::Socket(s) => {
                    sock_index.insert((s.family, s.sock_type, s.proto), idx);
                }
            }
            by_id.insert(bp.id.as_str(), idx);
        }
        VKernel {
            targets: blueprints
                .iter()
                .enumerate()
                .map(|(i, bp)| Target::compile(bp, i, &by_id))
                .collect(),
            dev_index,
            sock_index,
        }
    }

    /// Total number of distinct handlers loaded (each owns a disjoint
    /// 4096-block coverage stratum; used for sanity checks in tests).
    #[must_use]
    pub fn handler_count(&self) -> usize {
        self.targets.len()
    }

    /// The booted kernel's static block layout as `(start, len, next)`
    /// straight-line runs — the prediction table the flight recorder's
    /// delta coder is built from (the fuzzer assembles these triples
    /// into `kgpt_syzlang::lowered::CfgSuccessors`; this crate sits
    /// below `kgpt-syzlang` and cannot name that type).
    ///
    /// `next` is the successor of the run's *last* block when the
    /// layout fixes one (a command body falling through into its
    /// deep-path blocks); `None` means "predict the numerically next
    /// id". The table is advisory: a misprediction costs the trace
    /// encoder a wider token, never correctness — so the rows describe
    /// the common structurally-valid paths, not every reachable
    /// interleaving.
    #[must_use]
    pub fn cfg_runs(&self) -> Vec<(u64, u64, Option<u64>)> {
        let mut runs = Vec::new();
        for t in &self.targets {
            let base = t.block_base;
            // Entry path: open blocks for drivers, socket() blocks for
            // sockets.
            runs.push((base, u64::from(t.entry_blocks), None));
            // Command strata: entry block + body blocks are contiguous;
            // a command with deep blocks falls through into them.
            for (idx, cmd) in t.cmds.iter().enumerate() {
                let cmd_base = base + 100 + (idx as u64) * 64;
                let next = (cmd.deep_blocks > 0).then_some(cmd_base + 32);
                runs.push((cmd_base, u64::from(cmd.blocks.max(1)), next));
                if cmd.deep_blocks > 0 {
                    runs.push((cmd_base + 32, u64::from(cmd.deep_blocks), None));
                }
            }
            // Socket-call strata (sys_addr_call/sendto/recvfrom/accept
            // cover contiguous spans at fixed offsets).
            if matches!(t.kind, Kind::Socket { .. }) {
                runs.push((base + Self::sock_call_offset(SockCall::Bind), 4, None));
                runs.push((base + Self::sock_call_offset(SockCall::Connect), 4, None));
                runs.push((base + Self::sock_call_offset(SockCall::Sendto), 5, None));
                runs.push((base + Self::sock_call_offset(SockCall::Recvfrom), 2, None));
                runs.push((base + Self::sock_call_offset(SockCall::Accept), 2, None));
            }
            // read/write stratum (reachable on any live fd).
            runs.push((base + 60, 2, None));
            // Bug sites are isolated single blocks.
            for bug_idx in 0..t.bugs.len() {
                runs.push((base + 4000 + bug_idx as u64, 1, None));
            }
        }
        runs
    }

    /// Execute one syscall, dispatching on its dense [`Sysno`].
    /// Returns the (Linux-convention) result: ≥ 0 on success,
    /// `-errno` on failure. Updates coverage and may set
    /// `state.crash`. Callers resolve base names to numbers once at
    /// construction time via [`Sysno::from_base`].
    pub fn exec_call(&self, state: &mut VmState, no: Sysno, args: &[u64; 6], mem: &MemMap) -> i64 {
        if state.crash.is_some() {
            return -errno::EFAULT; // kernel already paniced
        }
        if state.fuel_exhausted {
            return -errno::ENOMEM; // fuel watchdog tripped
        }
        // Every call but open/socket/mmap operates on the fd in
        // `args[0]`: resolve it once, to its index in the fd table and
        // its handler.
        let on = state
            .live_fd(args[0])
            .map(|fi| (fi, self.target(state.fds[fi].target)));
        match (no, on) {
            (Sysno::Openat, _) => self.sys_open(state, args[1], mem),
            (Sysno::Open, _) => self.sys_open(state, args[0], mem),
            (Sysno::Socket, _) => self.sys_socket(state, args[0], args[1], args[2]),
            (Sysno::Mmap, _) => 0x7f00_0000_0000,
            (Sysno::Unsupported, _) => -errno::EINVAL,
            (_, None) => -errno::EBADF,
            (Sysno::Ioctl, Some((fi, t))) => self.sys_ioctl(state, t, fi, args[1], args[2], mem),
            (Sysno::Setsockopt | Sysno::Getsockopt, Some((fi, t))) => {
                self.sys_sockopt(state, no, t, fi, args, mem)
            }
            (Sysno::Bind, Some((fi, t))) => {
                self.sys_addr_call(state, SockCall::Bind, t, fi, args[1], args[2], mem)
            }
            (Sysno::Connect, Some((fi, t))) => {
                self.sys_addr_call(state, SockCall::Connect, t, fi, args[1], args[2], mem)
            }
            (Sysno::Accept, Some((fi, t))) => self.sys_accept(state, t, fi),
            (Sysno::Sendto, Some((fi, t))) => self.sys_sendto(state, t, fi, args[1], args[2], mem),
            (Sysno::Recvfrom, Some((_, t))) => self.sys_recvfrom(state, t),
            (Sysno::Read | Sysno::Write, Some((_, t))) => self.sys_rw(state, t),
            (Sysno::Close, Some((fi, _))) => Self::sys_close(state, fi),
        }
    }

    fn target(&self, idx: u32) -> &Target {
        &self.targets[idx as usize]
    }

    fn cover(&self, state: &mut VmState, base: u64, offset: u64, count: u32) {
        state.charge_fuel(u64::from(count));
        state.trace.block(base + offset, count);
        state.coverage.insert_run(base + offset, count);
    }

    /// Bug `bug` of `t` fired under syscall `sysno` on an fd at
    /// `chain_depth`: retire its block and file the report.
    fn crash(&self, state: &mut VmState, t: &Target, bug: u32, sysno: Sysno, chain_depth: u8) {
        let report = &t.bugs[bug as usize];
        let offset = 4000 + u64::from(bug);
        let site = t.block_base + offset;
        self.cover(state, t.block_base, offset, 1);
        state.trace.crash(site);
        state.crash = Some(CrashReport {
            title: Arc::clone(&report.title),
            cve: report.cve.clone(),
            handler: Arc::clone(&t.id),
            signature: CrashSignature {
                sysno,
                chain_depth,
                sanitizer: report.sanitizer,
                site,
            },
        });
    }

    fn sys_open(&self, state: &mut VmState, path_ptr: u64, mem: &MemMap) -> i64 {
        let mut spill = std::mem::take(&mut state.decode_buf);
        // The path is compared where it lies; one that is not text is
        // a bad pointer, not a missing file.
        let found = mem
            .cstr_at(path_ptr, 256, &mut spill)
            .and_then(|path| std::str::from_utf8(path).ok())
            .map(|path| self.dev_index.get(path).copied());
        state.decode_buf = spill;
        let tidx = match found {
            None => return -errno::EFAULT,
            Some(None) => return -errno::ENOENT,
            Some(Some(tidx)) => tidx,
        };
        let t = self.target(tidx);
        self.cover(state, t.block_base, 0, t.entry_blocks);
        state.alloc_fd(tidx, t.cmds.len(), 1)
    }

    fn sys_socket(&self, state: &mut VmState, family: u64, ty: u64, proto: u64) -> i64 {
        let Some(&tidx) = self.sock_index.get(&(family, ty, proto)) else {
            // Distinguish errors like the kernel does.
            if !self.sock_index.keys().any(|(f, _, _)| *f == family) {
                return -errno::EAFNOSUPPORT;
            }
            if !self
                .sock_index
                .keys()
                .any(|(f, t, _)| *f == family && *t == ty)
            {
                return -errno::ESOCKTNOSUPPORT;
            }
            return -errno::EPROTONOSUPPORT;
        };
        let t = self.target(tidx);
        self.cover(state, t.block_base, 0, t.entry_blocks);
        state.alloc_fd(tidx, t.cmds.len(), 1)
    }

    fn sys_ioctl(
        &self,
        state: &mut VmState,
        t: &Target,
        fi: usize,
        cmd: u64,
        arg: u64,
        mem: &MemMap,
    ) -> i64 {
        let Kind::Driver { transform, magic } = t.kind else {
            return -errno::ENOTTY;
        };
        // Match the command the way the emitted C dispatches it.
        let matched = t.cmds.iter().position(|c| {
            let full = c.value;
            match transform {
                CmdTransform::None => cmd == full,
                CmdTransform::IocNr => {
                    // ctl_ioctl-style: validate the magic byte, then
                    // dispatch on the nr.
                    cmacro::ioc_type(cmd) == magic && cmacro::ioc_nr(cmd) == cmacro::ioc_nr(full)
                }
                CmdTransform::Masked(m) => {
                    (cmd & m) == (full & m) && cmacro::ioc_type(cmd) == cmacro::ioc_type(full)
                }
            }
        });
        let Some(idx) = matched else {
            return -errno::ENOTTY;
        };
        self.run_cmd(state, Sysno::Ioctl, t, idx, fi, arg, None, mem)
    }

    fn sys_sockopt(
        &self,
        state: &mut VmState,
        no: Sysno,
        t: &Target,
        fi: usize,
        args: &[u64; 6],
        mem: &MemMap,
    ) -> i64 {
        let (level, opt, valp, len) = (args[1], args[2], args[3], args[4]);
        let Kind::Socket { level: own, .. } = t.kind else {
            return -errno::ENOPROTOOPT;
        };
        if level != own {
            return -errno::ENOPROTOOPT;
        }
        let Some(idx) = t.cmds.iter().position(|c| c.value == opt) else {
            return -errno::ENOPROTOOPT;
        };
        self.run_cmd(state, no, t, idx, fi, valp, Some(len), mem)
    }

    /// Common command execution: coverage, argument decoding, field
    /// checks, effects, bug triggers — command `idx` of `t`, on the fd
    /// at index `fi` of the fd table. The decode scratch lives in
    /// `VmState`, so execution performs no allocation.
    #[allow(clippy::too_many_arguments)]
    fn run_cmd(
        &self,
        state: &mut VmState,
        no: Sysno,
        t: &Target,
        idx: usize,
        fi: usize,
        arg: u64,
        optlen: Option<u64>,
        mem: &MemMap,
    ) -> i64 {
        let mut fields = std::mem::take(&mut state.field_buf);
        let ret = self.run_cmd_inner(state, no, t, idx, fi, arg, optlen, mem, &mut fields);
        state.field_buf = fields;
        ret
    }

    #[allow(clippy::too_many_arguments)]
    fn run_cmd_inner(
        &self,
        state: &mut VmState,
        no: Sysno,
        t: &Target,
        idx: usize,
        fi: usize,
        arg: u64,
        optlen: Option<u64>,
        mem: &MemMap,
        fields: &mut Vec<u64>,
    ) -> i64 {
        let cmd = &t.cmds[idx];
        let cmd_base = 100 + (idx as u64) * 64;
        // Entry block: the dispatcher reached this command.
        self.cover(state, t.block_base, cmd_base, 1);
        // Decode the argument into the reusable field scratch: one
        // value per compiled field of a struct argument, the id alone
        // for `IdPtr`.
        let (size, slots): (u64, &[FieldSlot]) = match cmd.arg {
            ArgPlan::Struct(si) => {
                let layout = &t.structs[si as usize];
                if optlen.is_some_and(|len| len < layout.size) {
                    return -errno::EINVAL;
                }
                (layout.size, &layout.fields)
            }
            ArgPlan::IdPtr => (4, std::slice::from_ref(&ID_SLOT)),
            ArgPlan::None => (0, &[]),
            ArgPlan::UnknownStruct => return -errno::EINVAL,
        };
        fields.clear();
        if !slots.is_empty() {
            state.charge_fuel(size);
            // Borrow the argument bytes straight out of the memory
            // image when they sit in one segment (the encoder's
            // normal layout) — the per-ioctl `copy_from_user` copy
            // only happens for reads crossing segment boundaries,
            // which fall back to the amortized decode buffer.
            let mut owned = std::mem::take(&mut state.decode_buf);
            let bytes: &[u8] = match mem.slice_at(arg, size as usize) {
                Some(s) => s,
                None => {
                    if !mem.read_into(arg, size as usize, &mut owned) {
                        state.decode_buf = owned;
                        return -errno::EFAULT;
                    }
                    &owned
                }
            };
            fields.extend(slots.iter().map(|slot| slot.read(bytes)));
            state.decode_buf = owned;
        }
        // Copy succeeded: the body blocks.
        self.cover(
            state,
            t.block_base,
            cmd_base + 1,
            cmd.blocks.saturating_sub(1),
        );
        let fd = state.fds[fi];
        // Semantic field checks (EINVAL on violation).
        let valid = slots
            .iter()
            .zip(fields.iter())
            .all(|(slot, v)| slot.check.passes(*v, fd.next_id));
        // State machine gating.
        let state_ok = match cmd.effect {
            Effect::StateStep { requires, .. } => fd.state >= requires,
            _ => true,
        };
        let deep_ok = valid && state_ok;
        // Valid operations advance the per-fd history (used by
        // sequence/repeat triggers).
        let count = &mut state.cmd_counts[fd.counts_at as usize + idx];
        *count += u32::from(deep_ok);
        let counts_hit = *count;
        // Bug triggers. Allocation-size bugs (`FieldAbove`) fire right
        // after copy_from_user, before validation — like the real
        // kmalloc bugs. The deeper bugs (sequences, leaks, divide
        // errors) sit behind the semantic checks and state machine, so
        // they require a *valid* call — this is what makes them
        // unreachable for imprecise specs.
        let fired = cmd.arms.iter().find(|arm| match arm.when {
            When::FieldAbove { slot, min } => fields[slot as usize] > min,
            When::FieldZero { slot } => deep_ok && fields[slot as usize] == 0,
            When::After { first } => {
                deep_ok
                    && fd
                        .last_cmd
                        .is_some_and(|last| t.cmds[last as usize].canon == first)
            }
            When::Repeat { times } => deep_ok && counts_hit >= times,
        });
        if let Some(arm) = fired {
            self.crash(state, t, arm.bug, no, fd.depth);
        }
        if deep_ok {
            state.fds[fi].last_cmd = Some(idx as u32);
        }
        if fired.is_some() {
            return -errno::EFAULT;
        }
        if !state_ok {
            return -errno::EBUSY;
        }
        if !valid {
            return -errno::EINVAL;
        }
        // Deep blocks: everything semantically valid.
        self.cover(state, t.block_base, cmd_base + 32, cmd.deep_blocks);
        // Effects.
        match cmd.effect {
            Effect::CreatesFd(Some(sub)) => {
                let sub_t = self.target(sub);
                // Creating the sub-object covers its init path.
                // The minted fd sits one hop deeper in the
                // resource chain than the fd that created it.
                self.cover(state, sub_t.block_base, 0, 2);
                return state.alloc_fd(sub, sub_t.cmds.len(), fd.depth.saturating_add(1));
            }
            Effect::StateStep { sets, .. } => state.fds[fi].state = sets,
            Effect::IssuesId => {
                state.fds[fi].next_id += 1;
                return i64::from(fd.next_id);
            }
            Effect::CreatesFd(None) | Effect::Pure => {}
        }
        0
    }

    fn sock_call_offset(call: SockCall) -> u64 {
        match call {
            SockCall::Bind => 40,
            SockCall::Connect => 44,
            SockCall::Sendto => 48,
            SockCall::Recvfrom => 54,
            SockCall::Accept => 58,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sys_addr_call(
        &self,
        state: &mut VmState,
        call: SockCall,
        t: &Target,
        fi: usize,
        addr: u64,
        len: u64,
        mem: &MemMap,
    ) -> i64 {
        let Kind::Socket { family: own, .. } = t.kind else {
            return -errno::ENOTTY;
        };
        if t.implements(call) != Some(true) {
            return -errno::EINVAL;
        }
        let off = Self::sock_call_offset(call);
        self.cover(state, t.block_base, off, 1);
        // Address validation: size + family magic.
        if let Some(size) = t.sockaddr_size {
            if len < size {
                return -errno::EINVAL;
            }
            let second = addr.checked_add(1).and_then(|a| mem.byte_at(a));
            let (Some(b0), Some(b1)) = (mem.byte_at(addr), second) else {
                return -errno::EFAULT;
            };
            let family = u64::from(u16::from_le_bytes([b0, b1]));
            if family != own {
                return -errno::EAFNOSUPPORT;
            }
        }
        self.cover(state, t.block_base, off + 1, 3);
        if call == SockCall::Bind {
            let f = &mut state.fds[fi];
            f.state = f.state.max(1);
        }
        0
    }

    fn sys_sendto(
        &self,
        state: &mut VmState,
        t: &Target,
        fi: usize,
        buf: u64,
        len: u64,
        mem: &MemMap,
    ) -> i64 {
        match t.implements(SockCall::Sendto) {
            None => return -errno::ENOTTY,
            Some(false) => return -errno::EINVAL,
            Some(true) => {}
        }
        if len == 0 {
            return -errno::EINVAL;
        }
        let off = Self::sock_call_offset(SockCall::Sendto);
        self.cover(state, t.block_base, off, 2);
        // Payload must be readable.
        if !mem.is_mapped(buf, (len as usize).min(4096)) {
            return -errno::EFAULT;
        }
        self.cover(state, t.block_base, off + 2, 3);
        // PayloadLen bug triggers.
        let fired = t
            .bugs
            .iter()
            .position(|b| b.payload_min.is_some_and(|min| len >= min));
        if let Some(bug) = fired {
            self.crash(state, t, bug as u32, Sysno::Sendto, state.fds[fi].depth);
            return -errno::EFAULT;
        }
        len as i64
    }

    fn sys_recvfrom(&self, state: &mut VmState, t: &Target) -> i64 {
        match t.implements(SockCall::Recvfrom) {
            None => return -errno::ENOTTY,
            Some(false) => return -errno::EINVAL,
            Some(true) => {}
        }
        self.cover(
            state,
            t.block_base,
            Self::sock_call_offset(SockCall::Recvfrom),
            2,
        );
        0
    }

    fn sys_rw(&self, state: &mut VmState, t: &Target) -> i64 {
        self.cover(state, t.block_base, 60, 2);
        0
    }

    fn sys_close(state: &mut VmState, fi: usize) -> i64 {
        state.fds[fi].closed = true;
        0
    }

    fn sys_accept(&self, state: &mut VmState, t: &Target, fi: usize) -> i64 {
        let fd = state.fds[fi];
        let bound = fd.state >= 1;
        match t.implements(SockCall::Accept) {
            None => return -errno::ENOTTY,
            Some(true) if bound => {}
            Some(_) => return -errno::EINVAL,
        }
        self.cover(
            state,
            t.block_base,
            Self::sock_call_offset(SockCall::Accept),
            2,
        );
        state.alloc_fd(fd.target, t.cmds.len(), fd.depth.saturating_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::flagship;
    use kgpt_syzlang::value::ARG_BASE_ADDR;

    fn boot_dm() -> VKernel {
        VKernel::boot(vec![flagship::dm()])
    }

    fn mem_with(path: &str) -> MemMap {
        let mut m = MemMap::new();
        m.write(ARG_BASE_ADDR, path.as_bytes().to_vec());
        m.write(ARG_BASE_ADDR + 255, vec![0]);
        m
    }

    fn open_dm(k: &VKernel, st: &mut VmState) -> u64 {
        let mut m = mem_with("/dev/mapper/control");
        m.write(ARG_BASE_ADDR + 20, vec![0]);
        let fd = k.exec_call(st, Sysno::Openat, &[0, ARG_BASE_ADDR, 2, 0, 0, 0], &m);
        assert!(fd >= 3, "open failed: {fd}");
        fd as u64
    }

    #[test]
    fn open_wrong_path_enoent() {
        let k = boot_dm();
        let mut st = VmState::new();
        let m = mem_with("/dev/device-mapper\0");
        let r = k.exec_call(&mut st, Sysno::Openat, &[0, ARG_BASE_ADDR, 2, 0, 0, 0], &m);
        assert_eq!(r, -errno::ENOENT);
        assert!(st.coverage.is_empty());
    }

    #[test]
    fn open_right_path_covers_blocks() {
        let k = boot_dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        assert_eq!(fd, 3);
        assert_eq!(st.coverage.len(), 4); // dm open_blocks
    }

    #[test]
    fn state_reset_reuses_cleanly() {
        let k = boot_dm();
        let mut st = VmState::new();
        let _ = open_dm(&k, &mut st);
        assert!(!st.coverage.is_empty());
        st.reset();
        assert!(st.coverage.is_empty());
        assert!(st.crash.is_none());
        // fd table restarts at 3 after reset.
        let fd = open_dm(&k, &mut st);
        assert_eq!(fd, 3);
    }

    #[test]
    fn ioctl_needs_magic_byte_with_iocnr_transform() {
        let k = boot_dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        // SyzDescribe-style raw nr: _IOC_NR only, magic missing.
        let r = k.exec_call(&mut st, Sysno::Ioctl, &[fd, 3, 0, 0, 0, 0], &MemMap::new());
        assert_eq!(r, -errno::ENOTTY);
        // Correct full value.
        let bp = flagship::dm();
        let cmd = bp.cmd_value(bp.cmd("DM_VERSION").unwrap());
        let mut m = mem_with("/dev/mapper/control");
        // 300-byte zeroed dm_ioctl at a fresh address.
        let (size, _) = bp.arg_struct("dm_ioctl").unwrap().size_align(&bp.structs);
        m.write(0x2000_0000, vec![0u8; size as usize]);
        let before = st.coverage.len();
        let r = k.exec_call(&mut st, Sysno::Ioctl, &[fd, cmd, 0x2000_0000, 0, 0, 0], &m);
        assert_eq!(r, 0, "valid DM_VERSION should succeed");
        assert!(st.coverage.len() > before);
    }

    #[test]
    fn struct_decode_spanning_segments_matches_contiguous() {
        // The zero-copy decode borrows single-segment arguments; a
        // struct split across two adjacent segments must take the
        // copying fallback and decode identically.
        let k = boot_dm();
        let bp = flagship::dm();
        let cmd = bp.cmd_value(bp.cmd("DM_VERSION").unwrap());
        let (size, _) = bp.arg_struct("dm_ioctl").unwrap().size_align(&bp.structs);
        let size = size as usize;

        let mut st_one = VmState::new();
        let fd = open_dm(&k, &mut st_one);
        let mut contiguous = mem_with("/dev/mapper/control");
        contiguous.write(0x2000_0000, vec![0u8; size]);
        assert_eq!(
            k.exec_call(
                &mut st_one,
                Sysno::Ioctl,
                &[fd, cmd, 0x2000_0000, 0, 0, 0],
                &contiguous
            ),
            0
        );

        let mut st_two = VmState::new();
        let fd = open_dm(&k, &mut st_two);
        let mut split = mem_with("/dev/mapper/control");
        split.write(0x2000_0000, vec![0u8; 16]);
        split.write(0x2000_0010, vec![0u8; size - 16]);
        assert_eq!(split.slice_at(0x2000_0000, size), None, "must span");
        assert_eq!(
            k.exec_call(
                &mut st_two,
                Sysno::Ioctl,
                &[fd, cmd, 0x2000_0000, 0, 0, 0],
                &split
            ),
            0
        );
        assert_eq!(st_one.coverage, st_two.coverage);

        // A short final segment is an EFAULT on both paths.
        let mut st_short = VmState::new();
        let fd = open_dm(&k, &mut st_short);
        let mut short = mem_with("/dev/mapper/control");
        short.write(0x2000_0000, vec![0u8; size - 1]);
        assert_eq!(
            k.exec_call(
                &mut st_short,
                Sysno::Ioctl,
                &[fd, cmd, 0x2000_0000, 0, 0, 0],
                &short
            ),
            -errno::EFAULT
        );
    }

    #[test]
    fn invalid_fields_einval_and_fewer_blocks() {
        let k = boot_dm();
        let bp = flagship::dm();
        let cmd = bp.cmd_value(bp.cmd("DM_VERSION").unwrap());
        let (size, _) = bp.arg_struct("dm_ioctl").unwrap().size_align(&bp.structs);
        let padding_off = bp
            .arg_struct("dm_ioctl")
            .unwrap()
            .offset_of("padding", &bp.structs)
            .unwrap() as usize;

        // Valid run.
        let mut st_ok = VmState::new();
        let fd = open_dm(&k, &mut st_ok);
        let mut m = mem_with("/dev/mapper/control");
        m.write(0x2000_0000, vec![0u8; size as usize]);
        assert_eq!(
            k.exec_call(
                &mut st_ok,
                Sysno::Ioctl,
                &[fd, cmd, 0x2000_0000, 0, 0, 0],
                &m
            ),
            0
        );

        // Reserved-field violation.
        let mut st_bad = VmState::new();
        let fd = open_dm(&k, &mut st_bad);
        let mut bytes = vec![0u8; size as usize];
        bytes[padding_off] = 1;
        let mut m2 = mem_with("/dev/mapper/control");
        m2.write(0x2000_0000, bytes);
        assert_eq!(
            k.exec_call(
                &mut st_bad,
                Sysno::Ioctl,
                &[fd, cmd, 0x2000_0000, 0, 0, 0],
                &m2
            ),
            -errno::EINVAL
        );
        assert!(st_bad.coverage.len() < st_ok.coverage.len());
    }

    #[test]
    fn kmalloc_bug_fires_on_huge_data_size() {
        let k = boot_dm();
        let bp = flagship::dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        let cmd = bp.cmd_value(bp.cmd("DM_DEV_CREATE").unwrap());
        let sdef = bp.arg_struct("dm_ioctl").unwrap();
        let (size, _) = sdef.size_align(&bp.structs);
        let off = sdef.offset_of("data_size", &bp.structs).unwrap() as usize;
        let mut bytes = vec![0u8; size as usize];
        bytes[off..off + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        let mut m = mem_with("/dev/mapper/control");
        m.write(0x2000_0000, bytes);
        let r = k.exec_call(&mut st, Sysno::Ioctl, &[fd, cmd, 0x2000_0000, 0, 0, 0], &m);
        assert!(r < 0);
        let crash = st.crash.clone().expect("crash");
        assert_eq!(&*crash.title, "kmalloc bug in ctl_ioctl");
        assert_eq!(crash.cve.as_deref(), Some("CVE-2024-23851"));
        // Further calls are dead.
        assert_eq!(
            k.exec_call(&mut st, Sysno::Ioctl, &[fd, cmd, 0x2000_0000, 0, 0, 0], &m),
            -errno::EFAULT
        );
    }

    #[test]
    fn crash_signature_is_dense_and_depth_aware() {
        // dm kmalloc bug: faulting call is an ioctl on a directly
        // opened fd (chain depth 1), detected by the allocation-size
        // sanitizer, at the bug's own coverage block.
        let k = boot_dm();
        let bp = flagship::dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        let cmd = bp.cmd_value(bp.cmd("DM_DEV_CREATE").unwrap());
        let sdef = bp.arg_struct("dm_ioctl").unwrap();
        let (size, _) = sdef.size_align(&bp.structs);
        let off = sdef.offset_of("data_size", &bp.structs).unwrap() as usize;
        let mut bytes = vec![0u8; size as usize];
        bytes[off..off + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        let mut m = mem_with("/dev/mapper/control");
        m.write(0x2000_0000, bytes);
        let _ = k.exec_call(&mut st, Sysno::Ioctl, &[fd, cmd, 0x2000_0000, 0, 0, 0], &m);
        let sig = st.crash.clone().expect("crash").signature;
        assert_eq!(sig.sysno, Sysno::Ioctl);
        assert_eq!(sig.chain_depth, 1);
        assert_eq!(sig.sanitizer, SanitizerKind::Kmalloc);
        assert!(
            st.coverage.contains(sig.site),
            "site must be the covered faulting block"
        );

        // The rds payload bug reports under sendto at depth 1 with the
        // out-of-bounds sanitizer — a different signature entirely.
        let k = VKernel::boot(vec![flagship::rds()]);
        let mut st = VmState::new();
        let fd = k.exec_call(&mut st, Sysno::Socket, &[21, 5, 0, 0, 0, 0], &MemMap::new());
        let mut m = MemMap::new();
        m.write(0x3000_0000, vec![0u8; 128]);
        let _ = k.exec_call(
            &mut st,
            Sysno::Sendto,
            &[fd as u64, 0x3000_0000, 128, 0, 0, 0],
            &m,
        );
        let rds_sig = st.crash.clone().expect("crash").signature;
        assert_eq!(rds_sig.sysno, Sysno::Sendto);
        assert_eq!(rds_sig.chain_depth, 1);
        assert_eq!(rds_sig.sanitizer, SanitizerKind::OutOfBounds);
        assert_ne!(rds_sig, sig);
    }

    #[test]
    fn sequence_bug_requires_order() {
        let k = boot_dm();
        let bp = flagship::dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        let sdef = bp.arg_struct("dm_ioctl").unwrap();
        let (size, _) = sdef.size_align(&bp.structs);
        let mut m = mem_with("/dev/mapper/control");
        m.write(0x2000_0000, vec![0u8; size as usize]);
        let create = bp.cmd_value(bp.cmd("DM_DEV_CREATE").unwrap());
        let remove_all = bp.cmd_value(bp.cmd("DM_REMOVE_ALL").unwrap());
        // REMOVE_ALL alone: no crash.
        assert_eq!(
            k.exec_call(
                &mut st,
                Sysno::Ioctl,
                &[fd, remove_all, 0x2000_0000, 0, 0, 0],
                &m
            ),
            0
        );
        assert!(st.crash.is_none());
        // CREATE then REMOVE_ALL: CVE-2024-50277.
        assert_eq!(
            k.exec_call(
                &mut st,
                Sysno::Ioctl,
                &[fd, create, 0x2000_0000, 0, 0, 0],
                &m
            ),
            0
        );
        let _ = k.exec_call(
            &mut st,
            Sysno::Ioctl,
            &[fd, remove_all, 0x2000_0000, 0, 0, 0],
            &m,
        );
        assert_eq!(
            st.crash.clone().map(|c| c.title),
            Some("general protection fault in cleanup_mapped_device".into())
        );
    }

    #[test]
    fn kvm_fd_chain_executes() {
        let k = VKernel::boot(vec![
            flagship::kvm(),
            flagship::kvm_vm(),
            flagship::kvm_vcpu(),
        ]);
        let mut st = VmState::new();
        let mut m = MemMap::new();
        m.write(ARG_BASE_ADDR, b"/dev/kvm\0".to_vec());
        let kvm_fd = k.exec_call(&mut st, Sysno::Openat, &[0, ARG_BASE_ADDR, 2, 0, 0, 0], &m);
        assert!(kvm_fd >= 3);
        let kvm_bp = flagship::kvm();
        let create_vm = kvm_bp.cmd_value(kvm_bp.cmd("KVM_CREATE_VM").unwrap());
        let vm_fd = k.exec_call(
            &mut st,
            Sysno::Ioctl,
            &[kvm_fd as u64, create_vm, 0, 0, 0, 0],
            &m,
        );
        assert!(vm_fd > kvm_fd, "vm fd: {vm_fd}");
        let vm_bp = flagship::kvm_vm();
        let create_vcpu = vm_bp.cmd_value(vm_bp.cmd("KVM_CREATE_VCPU").unwrap());
        let vcpu_fd = k.exec_call(
            &mut st,
            Sysno::Ioctl,
            &[vm_fd as u64, create_vcpu, 0, 0, 0, 0],
            &m,
        );
        assert!(vcpu_fd > vm_fd, "vcpu fd: {vcpu_fd}");
        // KVM_RUN requires SET_REGS first (state machine).
        let vcpu_bp = flagship::kvm_vcpu();
        let run = vcpu_bp.cmd_value(vcpu_bp.cmd("KVM_RUN").unwrap());
        assert_eq!(
            k.exec_call(
                &mut st,
                Sysno::Ioctl,
                &[vcpu_fd as u64, run, 0, 0, 0, 0],
                &m
            ),
            -errno::EBUSY
        );
    }

    #[test]
    fn bind_with_address_at_u64_max_is_efault_not_overflow() {
        // The generator's dangling-resource fallback is u64::MAX, so
        // the address-validation path must treat pointer arithmetic
        // overflow as EFAULT rather than panicking.
        let k = VKernel::boot(vec![flagship::caif_stream()]);
        let mut st = VmState::new();
        let fd = k.exec_call(&mut st, Sysno::Socket, &[37, 1, 0, 0, 0, 0], &MemMap::new());
        assert!(fd >= 3);
        let r = k.exec_call(
            &mut st,
            Sysno::Bind,
            &[fd as u64, u64::MAX, 64, 0, 0, 0],
            &MemMap::new(),
        );
        assert_eq!(r, -errno::EFAULT);
    }

    #[test]
    fn socket_family_and_sendto_bug() {
        let k = VKernel::boot(vec![flagship::rds()]);
        let mut st = VmState::new();
        // Wrong family.
        assert_eq!(
            k.exec_call(&mut st, Sysno::Socket, &[9, 5, 0, 0, 0, 0], &MemMap::new()),
            -errno::EAFNOSUPPORT
        );
        // Right triple.
        let fd = k.exec_call(&mut st, Sysno::Socket, &[21, 5, 0, 0, 0, 0], &MemMap::new());
        assert!(fd >= 3);
        // sendto with a big payload triggers CVE-2024-23849.
        let mut m = MemMap::new();
        m.write(0x3000_0000, vec![0u8; 128]);
        let r = k.exec_call(
            &mut st,
            Sysno::Sendto,
            &[fd as u64, 0x3000_0000, 128, 0, 0, 0],
            &m,
        );
        assert!(r < 0);
        assert_eq!(
            st.crash.clone().map(|c| c.title),
            Some("UBSAN: array-index-out-of-bounds in rds_cmsg_recv".into())
        );
    }

    #[test]
    fn sockopt_level_checked() {
        let k = VKernel::boot(vec![flagship::rds()]);
        let mut st = VmState::new();
        let fd = k.exec_call(&mut st, Sysno::Socket, &[21, 5, 0, 0, 0, 0], &MemMap::new()) as u64;
        let mut m = MemMap::new();
        m.write(0x3000_0000, vec![0u8; 64]);
        // Wrong level.
        assert_eq!(
            k.exec_call(
                &mut st,
                Sysno::Setsockopt,
                &[fd, 1, 5, 0x3000_0000, 8, 0],
                &m
            ),
            -errno::ENOPROTOOPT
        );
        // Right level, RDS_RECVERR (int arg).
        let r = k.exec_call(
            &mut st,
            Sysno::Setsockopt,
            &[fd, 276, 5, 0x3000_0000, 8, 0],
            &m,
        );
        assert_eq!(r, 0);
    }

    #[test]
    fn fuel_exhaustion_is_counted_not_crashed() {
        let k = boot_dm();
        let mut st = VmState::new();
        // Two units cover the first two open blocks, then the
        // watchdog trips; no crash, and the retired coverage stays.
        st.set_fuel_limit(2);
        let _ = open_dm(&k, &mut st);
        assert!(st.fuel_exhausted());
        assert!(st.crash.is_none());
        assert!(!st.coverage.is_empty());
        let covered = st.coverage.clone();
        // Every further call is refused without touching coverage.
        let m = mem_with("/dev/mapper/control");
        let r = k.exec_call(&mut st, Sysno::Openat, &[0, ARG_BASE_ADDR, 2, 0, 0, 0], &m);
        assert_eq!(r, -errno::ENOMEM);
        assert_eq!(st.coverage, covered);
        // Reset clears the spent fuel but keeps the limit.
        st.reset();
        assert!(!st.fuel_exhausted());
        assert_eq!(st.fuel_spent(), 0);
        assert_eq!(st.fuel_limit(), 2);
    }

    #[test]
    fn generous_fuel_limit_changes_nothing() {
        let k = boot_dm();
        let mut unlimited = VmState::new();
        let mut fueled = VmState::new();
        fueled.set_fuel_limit(1 << 20);
        let _ = open_dm(&k, &mut unlimited);
        let _ = open_dm(&k, &mut fueled);
        assert_eq!(unlimited.coverage, fueled.coverage);
        assert!(!fueled.fuel_exhausted());
        assert!(fueled.fuel_spent() > 0, "covered blocks must be charged");
    }

    #[test]
    fn close_invalidates_fd() {
        let k = boot_dm();
        let mut st = VmState::new();
        let fd = open_dm(&k, &mut st);
        assert_eq!(
            k.exec_call(&mut st, Sysno::Close, &[fd, 0, 0, 0, 0, 0], &MemMap::new()),
            0
        );
        assert_eq!(
            k.exec_call(&mut st, Sysno::Ioctl, &[fd, 0, 0, 0, 0, 0], &MemMap::new()),
            -errno::EBADF
        );
    }

    #[test]
    fn coverage_blocks_disjoint_across_handlers() {
        let k = VKernel::boot(vec![flagship::dm(), flagship::cec()]);
        let mut st1 = VmState::new();
        let _ = open_dm(&k, &mut st1);
        let mut st2 = VmState::new();
        let mut m = MemMap::new();
        m.write(ARG_BASE_ADDR, b"/dev/cec0\0".to_vec());
        let r = k.exec_call(&mut st2, Sysno::Openat, &[0, ARG_BASE_ADDR, 2, 0, 0, 0], &m);
        assert!(r >= 3);
        assert!(st1.coverage.is_disjoint(&st2.coverage));
    }

    #[test]
    fn trace_log_records_merged_block_runs() {
        let k = boot_dm();
        let mut st = VmState::new();
        st.trace_mut().set_enabled(true);
        let _ = open_dm(&k, &mut st);
        // dm's 4 open blocks are contiguous: one merged Block event.
        assert_eq!(
            st.trace().events(),
            &[TraceEvent::Block {
                start: BLOCK_STRIDE,
                len: 4
            }]
        );
        // The event stream retires exactly the covered blocks, in
        // order — the invariant the replayer's cross-check rests on.
        let mut from_trace = std::collections::BTreeSet::new();
        for ev in st.trace().events() {
            if let TraceEvent::Block { start, len } = ev {
                from_trace.extend((0..u64::from(*len)).map(|i| start + i));
            }
        }
        assert_eq!(from_trace, st.coverage.to_btree_set());
    }

    #[test]
    fn tracing_never_changes_execution_results() {
        let k = boot_dm();
        let run = |traced: bool| {
            let mut st = VmState::new();
            st.trace_mut().set_enabled(traced);
            let fd = open_dm(&k, &mut st);
            let r = k.exec_call(&mut st, Sysno::Read, &[fd, 0, 0, 0, 0, 0], &MemMap::new());
            (st.coverage.clone(), st.crash.clone(), r)
        };
        let (cov_off, crash_off, ret_off) = run(false);
        let (cov_on, crash_on, ret_on) = run(true);
        assert_eq!(cov_off, cov_on);
        assert_eq!(crash_off, crash_on);
        assert_eq!(ret_off, ret_on);
    }

    #[test]
    fn reset_clears_events_but_keeps_tracing_enabled() {
        let k = boot_dm();
        let mut st = VmState::new();
        st.trace_mut().set_enabled(true);
        let _ = open_dm(&k, &mut st);
        assert!(!st.trace().events().is_empty());
        st.reset();
        assert!(st.trace().events().is_empty());
        assert!(st.trace().enabled());
        // Disabled by default: nothing is buffered.
        let mut off = VmState::new();
        let _ = open_dm(&k, &mut off);
        assert!(off.trace().events().is_empty());
    }

    #[test]
    fn cfg_runs_cover_every_coverable_block() {
        // Every block the kernel can retire must belong to exactly one
        // run (runs are disjoint), so the prediction table never
        // contradicts itself.
        let k = VKernel::boot(vec![flagship::dm(), flagship::cec(), flagship::sg()]);
        let runs = k.cfg_runs();
        let mut seen = std::collections::BTreeSet::new();
        for (start, len, _) in &runs {
            for b in 0..*len {
                assert!(seen.insert(start + b), "block {} in two runs", start + b);
            }
        }
        // Observed open-path coverage sits inside the advertised runs.
        let mut st = VmState::new();
        let _ = open_dm(&k, &mut st);
        for b in st.coverage.to_btree_set() {
            assert!(seen.contains(&b), "covered block {b} missing from cfg_runs");
        }
    }
}
