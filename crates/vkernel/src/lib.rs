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
//! lives in the per-worker [`VmState`]. The dispatch path is
//! allocation-free: targets are pre-indexed by integer id, fd records
//! reference their handler by index, and per-command history is kept
//! in interned counters rather than string maps. Struct-argument
//! decode (`copy_from_user`) borrows the bytes directly from the
//! memory image when the read stays inside one segment, copying into
//! the amortized decode buffer only for segment-crossing reads.

pub mod coverage;
pub mod mem;

pub use coverage::{CoverageMap, CoverageWordDiff, MAX_COVERAGE_WORDS};
pub use mem::MemMap;

use kgpt_csrc::blueprint::{
    ArgKind, Blueprint, BlueprintKind, CmdBlueprint, CmdEffect, CmdTransform, FieldRole, SockCall,
    Trigger,
};
use kgpt_csrc::cmacro;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Crash title (Table 4 wording).
    pub title: String,
    /// CVE, if assigned.
    pub cve: Option<String>,
    /// Blueprint that crashed.
    pub handler: String,
    /// Dense, spec-independent dedup key (see [`CrashSignature`]).
    pub signature: CrashSignature,
}

/// Per-fd kernel object state. Handler and command history are kept
/// as interned indices so the dispatch path never clones a string.
#[derive(Debug, Clone)]
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
    /// Per-command valid-invocation counts, indexed like `cmds`.
    cmd_counts: Vec<u32>,
    /// Ids are issued sequentially starting at 1 and never revoked,
    /// so `id` is valid ⇔ `1 <= id < next_id`.
    next_id: u32,
    closed: bool,
}

impl FdState {
    fn fresh(target: u32, n_cmds: usize, depth: u8) -> FdState {
        FdState {
            target,
            state: 0,
            depth,
            last_cmd: None,
            cmd_counts: vec![0; n_cmds],
            next_id: 1,
            closed: false,
        }
    }
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
    fds: Vec<Option<FdState>>,
    /// Basic blocks covered so far.
    pub coverage: CoverageMap,
    /// First crash, if any (execution should stop).
    pub crash: Option<CrashReport>,
    /// Flight-recorder event log (off by default; see [`TraceLog`]).
    trace: TraceLog,
    /// Reusable argument-decode buffer (`copy_from_user` target).
    decode_buf: Vec<u8>,
    /// Reusable decoded-field scratch, aligned with the argument
    /// struct's fields (`None` = field not decodable at its offset).
    field_buf: Vec<Option<u64>>,
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

    fn alloc_fd(&mut self, st: FdState) -> i64 {
        self.fds.push(Some(st));
        self.fds.len() as i64 + 2
    }

    fn fd_mut(&mut self, fd: u64) -> Option<&mut FdState> {
        let idx = (fd as i64).checked_sub(3)?;
        let slot = self.fds.get_mut(usize::try_from(idx).ok()?)?;
        slot.as_mut().filter(|f| !f.closed)
    }

    /// Target index of a live fd, without holding a borrow.
    fn fd_target(&mut self, fd: u64) -> Option<u32> {
        self.fd_mut(fd).map(|f| f.target)
    }
}

/// Per-blueprint precomputed dispatch data.
#[derive(Debug)]
struct Target {
    bp: Blueprint,
    block_base: u64,
    /// Full encoded command value per entry of `bp.cmds`.
    cmd_values: Vec<u64>,
    /// Size of the blueprint's `sockaddr_<id>` struct, if declared.
    sockaddr_size: Option<u64>,
}

/// The virtual kernel.
#[derive(Debug)]
pub struct VKernel {
    targets: Vec<Target>,
    /// Blueprint id → target index.
    by_id: BTreeMap<String, u32>,
    dev_index: BTreeMap<String, u32>,
    sock_index: BTreeMap<(u64, u64, u64), u32>,
}

/// Coverage block namespace stride per handler.
const BLOCK_STRIDE: u64 = 4096;

impl VKernel {
    /// Boot a kernel with the given handlers loaded.
    #[must_use]
    pub fn boot(blueprints: Vec<Blueprint>) -> VKernel {
        let mut targets = Vec::with_capacity(blueprints.len());
        let mut by_id = BTreeMap::new();
        let mut dev_index = BTreeMap::new();
        let mut sock_index = BTreeMap::new();
        for (i, bp) in blueprints.into_iter().enumerate() {
            let idx = i as u32;
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
            by_id.insert(bp.id.clone(), idx);
            let cmd_values = bp.cmds.iter().map(|c| bp.cmd_value(c)).collect();
            let sockaddr_size = bp
                .arg_struct(&format!("sockaddr_{}", bp.id))
                .map(|sdef| sdef.size_align(&bp.structs).0);
            targets.push(Target {
                block_base: (i as u64 + 1) * BLOCK_STRIDE,
                cmd_values,
                sockaddr_size,
                bp,
            });
        }
        VKernel {
            targets,
            by_id,
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
            // sockets (the defaults mirror sys_open/sys_socket).
            let entry = match &t.bp.kind {
                BlueprintKind::Driver(d) => d.open_blocks,
                BlueprintKind::Socket(s) => s.socket_blocks,
            };
            runs.push((base, u64::from(entry), None));
            // Command strata: entry block + body blocks are contiguous;
            // a command with deep blocks falls through into them.
            for (idx, cb) in t.bp.cmds.iter().enumerate() {
                let cmd_base = base + 100 + (idx as u64) * 64;
                let next = (cb.deep_blocks > 0).then_some(cmd_base + 32);
                runs.push((cmd_base, u64::from(cb.blocks.max(1)), next));
                if cb.deep_blocks > 0 {
                    runs.push((cmd_base + 32, u64::from(cb.deep_blocks), None));
                }
            }
            // Socket-call strata (sys_addr_call/sendto/recvfrom/accept
            // cover contiguous spans at fixed offsets).
            if t.bp.socket().is_some() {
                runs.push((base + Self::sock_call_offset(SockCall::Bind), 4, None));
                runs.push((base + Self::sock_call_offset(SockCall::Connect), 4, None));
                runs.push((base + Self::sock_call_offset(SockCall::Sendto), 5, None));
                runs.push((base + Self::sock_call_offset(SockCall::Recvfrom), 2, None));
                runs.push((base + Self::sock_call_offset(SockCall::Accept), 2, None));
            }
            // read/write stratum (reachable on any live fd).
            runs.push((base + 60, 2, None));
            // Bug sites are isolated single blocks.
            for bug_idx in 0..t.bp.bugs.len() {
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
        match no {
            Sysno::Openat => self.sys_open(state, args[1], mem),
            Sysno::Open => self.sys_open(state, args[0], mem),
            Sysno::Socket => self.sys_socket(state, args[0], args[1], args[2]),
            Sysno::Ioctl => self.sys_ioctl(state, args[0], args[1], args[2], mem),
            Sysno::Setsockopt | Sysno::Getsockopt => {
                self.sys_sockopt(state, no, args[0], args[1], args[2], args[3], args[4], mem)
            }
            Sysno::Bind => {
                self.sys_addr_call(state, SockCall::Bind, args[0], args[1], args[2], mem)
            }
            Sysno::Connect => {
                self.sys_addr_call(state, SockCall::Connect, args[0], args[1], args[2], mem)
            }
            Sysno::Accept => self.sys_accept(state, args[0]),
            Sysno::Sendto => self.sys_sendto(state, args, mem),
            Sysno::Recvfrom => self.sys_recvfrom(state, args[0]),
            Sysno::Read | Sysno::Write => self.sys_rw(state, args[0]),
            Sysno::Close => self.sys_close(state, args[0]),
            Sysno::Mmap => 0x7f00_0000_0000,
            Sysno::Unsupported => -errno::EINVAL,
        }
    }

    fn target(&self, idx: u32) -> &Target {
        &self.targets[idx as usize]
    }

    fn cover(&self, state: &mut VmState, base: u64, offset: u64, count: u32) {
        state.charge_fuel(u64::from(count));
        state.trace.block(base + offset, count);
        for i in 0..u64::from(count) {
            state.coverage.insert(base + offset + i);
        }
    }

    fn sys_open(&self, state: &mut VmState, path_ptr: u64, mem: &MemMap) -> i64 {
        let Some(path) = mem.read_cstring(path_ptr, 256) else {
            return -errno::EFAULT;
        };
        let Some(&tidx) = self.dev_index.get(&path) else {
            return -errno::ENOENT;
        };
        let t = self.target(tidx);
        let open_blocks = t.bp.driver().map_or(2, |d| d.open_blocks);
        self.cover(state, t.block_base, 0, open_blocks);
        state.alloc_fd(FdState::fresh(tidx, t.bp.cmds.len(), 1))
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
        let blocks = t.bp.socket().map_or(2, |s| s.socket_blocks);
        self.cover(state, t.block_base, 0, blocks);
        state.alloc_fd(FdState::fresh(tidx, t.bp.cmds.len(), 1))
    }

    fn sys_ioctl(&self, state: &mut VmState, fd: u64, cmd: u64, arg: u64, mem: &MemMap) -> i64 {
        let Some(tidx) = state.fd_target(fd) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        if t.bp.socket().is_some() {
            return -errno::ENOTTY;
        }
        let transform = t.bp.driver().map_or(CmdTransform::None, |d| d.transform);
        let magic = t.bp.driver().map_or(0, |d| d.magic);
        // Match the command the way the emitted C dispatches it.
        let matched = t.bp.cmds.iter().enumerate().find(|(i, _)| {
            let full = t.cmd_values[*i];
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
        let Some((idx, cb)) = matched else {
            return -errno::ENOTTY;
        };
        self.run_cmd(state, Sysno::Ioctl, t, idx, cb, fd, arg, None, mem)
    }

    #[allow(clippy::too_many_arguments)]
    fn sys_sockopt(
        &self,
        state: &mut VmState,
        no: Sysno,
        fd: u64,
        level: u64,
        opt: u64,
        valp: u64,
        len: u64,
        mem: &MemMap,
    ) -> i64 {
        let Some(tidx) = state.fd_target(fd) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        let Some(s) = t.bp.socket() else {
            return -errno::ENOPROTOOPT;
        };
        if level != s.level {
            return -errno::ENOPROTOOPT;
        }
        let Some((idx, cb)) =
            t.bp.cmds
                .iter()
                .enumerate()
                .find(|(i, _)| t.cmd_values[*i] == opt)
        else {
            return -errno::ENOPROTOOPT;
        };
        self.run_cmd(state, no, t, idx, cb, fd, valp, Some(len), mem)
    }

    /// Common command execution: coverage, argument decoding, field
    /// checks, effects, bug triggers. The decode scratch lives in
    /// `VmState`, so steady-state execution performs no allocation.
    #[allow(clippy::too_many_arguments)]
    fn run_cmd(
        &self,
        state: &mut VmState,
        no: Sysno,
        t: &Target,
        idx: usize,
        cb: &CmdBlueprint,
        fd: u64,
        arg: u64,
        optlen: Option<u64>,
        mem: &MemMap,
    ) -> i64 {
        let mut fields = std::mem::take(&mut state.field_buf);
        let ret = self.run_cmd_inner(state, no, t, idx, cb, fd, arg, optlen, mem, &mut fields);
        state.field_buf = fields;
        ret
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_cmd_inner(
        &self,
        state: &mut VmState,
        no: Sysno,
        t: &Target,
        idx: usize,
        cb: &CmdBlueprint,
        fd: u64,
        arg: u64,
        optlen: Option<u64>,
        mem: &MemMap,
        fields: &mut Vec<Option<u64>>,
    ) -> i64 {
        let cmd_base = 100 + (idx as u64) * 64;
        // Entry block: the dispatcher reached this command.
        self.cover(state, t.block_base, cmd_base, 1);
        // Decode the argument into the reusable field scratch. For
        // `Struct` arguments `fields[i]` mirrors `sdef.fields[i]`; for
        // `IdPtr` the single decoded id sits in `fields[0]`.
        fields.clear();
        match &cb.arg {
            ArgKind::Struct(sname) => {
                let Some(sdef) = t.bp.arg_struct(sname) else {
                    return -errno::EINVAL;
                };
                let (size, _) = sdef.size_align(&t.bp.structs);
                if let Some(l) = optlen {
                    if l < size {
                        return -errno::EINVAL;
                    }
                }
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
                fields.resize(sdef.fields.len(), None);
                for (i, f) in sdef.fields.iter().enumerate() {
                    if let Some(off) = sdef.offset_of(&f.name, &t.bp.structs) {
                        let (fsize, _) = f.ty.size_align(&t.bp.structs);
                        let w = fsize.min(8) as usize;
                        if off as usize + w <= bytes.len() && w > 0 {
                            let mut buf = [0u8; 8];
                            buf[..w].copy_from_slice(&bytes[off as usize..off as usize + w]);
                            fields[i] = Some(u64::from_le_bytes(buf));
                        }
                    }
                }
                state.decode_buf = owned;
            }
            ArgKind::IdPtr(_) => {
                state.charge_fuel(4);
                let mut owned = std::mem::take(&mut state.decode_buf);
                let bytes: &[u8] = match mem.slice_at(arg, 4) {
                    Some(s) => s,
                    None => {
                        if !mem.read_into(arg, 4, &mut owned) {
                            state.decode_buf = owned;
                            return -errno::EFAULT;
                        }
                        &owned
                    }
                };
                let mut buf = [0u8; 8];
                buf[..4].copy_from_slice(&bytes[..4]);
                fields.push(Some(u64::from_le_bytes(buf)));
                state.decode_buf = owned;
            }
            ArgKind::Int | ArgKind::None => {}
        }
        // Resolve a trigger's field reference against the decoded
        // scratch (struct field by name; `__id` for IdPtr arguments).
        let sdef = match &cb.arg {
            ArgKind::Struct(sname) => t.bp.arg_struct(sname),
            _ => None,
        };
        let field_value = |name: &str| -> Option<u64> {
            if let ArgKind::IdPtr(_) = &cb.arg {
                if name == "__id" {
                    return fields.first().copied().flatten();
                }
                return None;
            }
            let sdef = sdef?;
            let pos = sdef.fields.iter().position(|f| f.name == name)?;
            fields.get(pos).copied().flatten()
        };
        // Copy succeeded: the body blocks.
        self.cover(
            state,
            t.block_base,
            cmd_base + 1,
            cb.blocks.saturating_sub(1),
        );
        let (reached_state, chain_depth) = {
            let f = state.fd_mut(fd).expect("fd checked");
            (f.state, f.depth)
        };
        // Semantic field checks (EINVAL on violation).
        let mut valid = true;
        if let Some(sdef) = sdef {
            for (i, f) in sdef.fields.iter().enumerate() {
                let v = fields.get(i).copied().flatten().unwrap_or(0);
                match &f.role {
                    FieldRole::CheckedRange(lo, hi) if v < *lo || v > *hi => valid = false,
                    FieldRole::MagicCheck(m) if v != *m => valid = false,
                    FieldRole::Reserved if v != 0 => valid = false,
                    FieldRole::Flags(set) => {
                        let mask: u64 =
                            t.bp.flag_sets
                                .iter()
                                .find(|(n, _)| n == set)
                                .map_or(0, |(_, vs)| vs.iter().fold(0, |a, (_, x)| a | x));
                        if v & !mask != 0 {
                            valid = false;
                        }
                    }
                    FieldRole::InId(_) => {
                        let f = state.fd_mut(fd).expect("fd");
                        let id = v as u32;
                        if !(1..f.next_id).contains(&id) {
                            valid = false;
                        }
                    }
                    _ => {}
                }
            }
        }
        if let ArgKind::IdPtr(_) = &cb.arg {
            let id = fields.first().copied().flatten().unwrap_or(0) as u32;
            let f = state.fd_mut(fd).expect("fd");
            if !(1..f.next_id).contains(&id) {
                valid = false;
            }
        }
        // State machine gating.
        let state_ok = match &cb.effect {
            CmdEffect::StateStep { requires, .. } => reached_state >= *requires,
            _ => true,
        };
        // Valid operations advance the per-fd history (used by
        // sequence/repeat triggers).
        let counts_hit = {
            let f = state.fd_mut(fd).expect("fd checked");
            if valid && state_ok {
                f.cmd_counts[idx] += 1;
            }
            f.cmd_counts[idx]
        };
        // Bug triggers. Allocation-size bugs (`FieldAbove`) fire right
        // after copy_from_user, before validation — like the real
        // kmalloc bugs. The deeper bugs (sequences, leaks, divide
        // errors) sit behind the semantic checks and state machine, so
        // they require a *valid* call — this is what makes them
        // unreachable for imprecise specs.
        let deep_ok = valid && state_ok;
        let mut crashed = false;
        for (bug_idx, bug) in t.bp.bugs.iter().enumerate() {
            let fire = match &bug.trigger {
                Trigger::FieldAbove { cmd, field, min } => {
                    *cmd == cb.name && field_value(field).unwrap_or(0) > *min
                }
                Trigger::FieldZero { cmd, field } => {
                    *cmd == cb.name && field_value(field) == Some(0) && deep_ok
                }
                Trigger::Sequence { first, then } => {
                    deep_ok
                        && *then == cb.name
                        && state
                            .fd_mut(fd)
                            .and_then(|f| f.last_cmd)
                            .is_some_and(|li| t.bp.cmds[li as usize].name == *first)
                }
                Trigger::Repeat { cmd, times } => {
                    deep_ok && *cmd == cb.name && counts_hit >= *times
                }
                Trigger::PayloadLen { .. } => false, // sendto-path only
            };
            if fire {
                let site = t.block_base + 4000 + bug_idx as u64;
                self.cover(state, t.block_base, 4000 + bug_idx as u64, 1);
                state.trace.crash(site);
                state.crash = Some(CrashReport {
                    title: bug.title.clone(),
                    cve: bug.cve.clone(),
                    handler: t.bp.id.clone(),
                    signature: CrashSignature {
                        sysno: no,
                        chain_depth,
                        sanitizer: SanitizerKind::of_trigger(&bug.trigger),
                        site,
                    },
                });
                crashed = true;
                break;
            }
        }
        if deep_ok {
            let f = state.fd_mut(fd).expect("fd");
            f.last_cmd = Some(idx as u32);
        }
        if crashed {
            return -errno::EFAULT;
        }
        if !state_ok {
            return -errno::EBUSY;
        }
        if !valid {
            return -errno::EINVAL;
        }
        // Deep blocks: everything semantically valid.
        self.cover(state, t.block_base, cmd_base + 32, cb.deep_blocks);
        // Effects.
        match &cb.effect {
            CmdEffect::CreatesFd { handler } => {
                if let Some(&sub) = self.by_id.get(handler) {
                    let sub_t = self.target(sub);
                    // Creating the sub-object covers its init path.
                    // The minted fd sits one hop deeper in the
                    // resource chain than the fd that created it.
                    self.cover(state, sub_t.block_base, 0, 2);
                    return state.alloc_fd(FdState::fresh(
                        sub,
                        sub_t.bp.cmds.len(),
                        chain_depth.saturating_add(1),
                    ));
                }
            }
            CmdEffect::StateStep { sets, .. } => {
                let f = state.fd_mut(fd).expect("fd");
                f.state = *sets;
            }
            CmdEffect::IssuesId { .. } => {
                let f = state.fd_mut(fd).expect("fd");
                let id = f.next_id;
                f.next_id += 1;
                return i64::from(id);
            }
            CmdEffect::Pure => {}
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

    fn sys_addr_call(
        &self,
        state: &mut VmState,
        call: SockCall,
        fd: u64,
        addr: u64,
        len: u64,
        mem: &MemMap,
    ) -> i64 {
        let Some(tidx) = state.fd_target(fd) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        let Some(s) = t.bp.socket() else {
            return -errno::ENOTTY;
        };
        if !s.calls.contains(&call) {
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
            if family != s.family {
                return -errno::EAFNOSUPPORT;
            }
        }
        self.cover(state, t.block_base, off + 1, 3);
        if call == SockCall::Bind {
            let f = state.fd_mut(fd).expect("fd");
            f.state = f.state.max(1);
        }
        0
    }

    fn sys_sendto(&self, state: &mut VmState, args: &[u64; 6], mem: &MemMap) -> i64 {
        let (fd, _buf, len) = (args[0], args[1], args[2]);
        let Some((chain_depth, tidx)) = state.fd_mut(fd).map(|f| (f.depth, f.target)) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        let Some(s) = t.bp.socket() else {
            return -errno::ENOTTY;
        };
        if !s.calls.contains(&SockCall::Sendto) {
            return -errno::EINVAL;
        }
        if len == 0 {
            return -errno::EINVAL;
        }
        let off = Self::sock_call_offset(SockCall::Sendto);
        self.cover(state, t.block_base, off, 2);
        // Payload must be readable.
        if !mem.is_mapped(args[1], (len as usize).min(4096)) {
            return -errno::EFAULT;
        }
        self.cover(state, t.block_base, off + 2, 3);
        // PayloadLen bug triggers.
        for (bug_idx, bug) in t.bp.bugs.iter().enumerate() {
            if let Trigger::PayloadLen { min_len } = &bug.trigger {
                if len >= *min_len {
                    let site = t.block_base + 4000 + bug_idx as u64;
                    self.cover(state, t.block_base, 4000 + bug_idx as u64, 1);
                    state.trace.crash(site);
                    state.crash = Some(CrashReport {
                        title: bug.title.clone(),
                        cve: bug.cve.clone(),
                        handler: t.bp.id.clone(),
                        signature: CrashSignature {
                            sysno: Sysno::Sendto,
                            chain_depth,
                            sanitizer: SanitizerKind::of_trigger(&bug.trigger),
                            site,
                        },
                    });
                    return -errno::EFAULT;
                }
            }
        }
        len as i64
    }

    fn sys_recvfrom(&self, state: &mut VmState, fd: u64) -> i64 {
        let Some(tidx) = state.fd_target(fd) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        let Some(s) = t.bp.socket() else {
            return -errno::ENOTTY;
        };
        if !s.calls.contains(&SockCall::Recvfrom) {
            return -errno::EINVAL;
        }
        self.cover(
            state,
            t.block_base,
            Self::sock_call_offset(SockCall::Recvfrom),
            2,
        );
        0
    }

    fn sys_accept(&self, state: &mut VmState, fd: u64) -> i64 {
        let Some(f) = state.fd_mut(fd) else {
            return -errno::EBADF;
        };
        let tidx = f.target;
        let bound = f.state >= 1;
        let depth = f.depth;
        let t = self.target(tidx);
        let Some(s) = t.bp.socket() else {
            return -errno::ENOTTY;
        };
        if !s.calls.contains(&SockCall::Accept) || !bound {
            return -errno::EINVAL;
        }
        self.cover(
            state,
            t.block_base,
            Self::sock_call_offset(SockCall::Accept),
            2,
        );
        state.alloc_fd(FdState::fresh(
            tidx,
            t.bp.cmds.len(),
            depth.saturating_add(1),
        ))
    }

    fn sys_rw(&self, state: &mut VmState, fd: u64) -> i64 {
        let Some(tidx) = state.fd_target(fd) else {
            return -errno::EBADF;
        };
        let t = self.target(tidx);
        self.cover(state, t.block_base, 60, 2);
        0
    }

    fn sys_close(&self, state: &mut VmState, fd: u64) -> i64 {
        match state.fd_mut(fd) {
            Some(f) => {
                f.closed = true;
                0
            }
            None => -errno::EBADF,
        }
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
        assert_eq!(crash.title, "kmalloc bug in ctl_ioctl");
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
