//! Program execution: lower to registers + memory, run on the kernel.
//!
//! The hot entry point is [`execute_with`], which runs a program
//! against caller-owned [`ExecScratch`] — VM state, encoder, memory
//! image and return-value buffer are all reused across executions, so
//! a campaign's steady-state loop performs no per-program heap
//! allocation beyond what the generated values themselves own.
//!
//! The scratch is built over a shared
//! [`kgpt_syzlang::lowered::LoweredDb`]: argument encoding walks the
//! flat arena through [`LoweredEncoder`] (no `struct_def` lookup, no
//! constant resolution, no name-keyed `len` targets per call), and
//! dispatch resolves each syscall's base name to a dense
//! [`Sysno`] exactly once at construction — the per-exec path is
//! string-free and AST-free. The pre-lowering walk survives in
//! [`crate::reference`] as the differential oracle.
//!
//! After a run, the VM's event log ([`ExecScratch::events`]) is the
//! exec's coverage: the corpus asks it, a run at a time, whether it
//! holds anything new ([`crate::corpus::Corpus::admits`]), and no
//! bitmap is built for the exec. [`ExecScratch::coverage`] builds one
//! from the log on first ask — for an admission, a one-shot result or
//! a reader outside the loop — into storage the scratch keeps, and
//! every call that runs the scratch again lets it go.
//!
//! **A mutant runs from its parent's state.** There is one exec loop:
//! it runs a program's calls from an index on, the scratch holding the
//! state the calls before it leave. [`execute_with`] is that loop
//! started at call 0 from the empty state. A mutant's first calls are
//! its parent's up to the index
//! [`crate::gen::Generator::mutate_in_place`] returns, and `VKernel::exec_call` is a pure function of the state,
//! the call and a memory image the encoder rebuilds per call — so the
//! campaign restores the parent's state there from an [`ExecPrefix`]
//! (recorded as the parent's earlier mutants ran, kept beside its
//! corpus entry) and runs only the rest: about half the calls of a
//! deep-chain exec.

use kgpt_syzlang::lowered::{LoweredDb, LoweredEncoder};
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::value::ResRef;
use kgpt_syzlang::{ConstDb, SpecDb};
use kgpt_vkernel::{
    BoundaryStates, CoverageMap, CrashReport, MemMap, Sysno, TraceEvent, VKernel, VmState,
};
use std::cell::{Cell, OnceCell};
use std::sync::Arc;

/// Result of executing one program.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Blocks covered by this program.
    pub coverage: CoverageMap,
    /// Crash triggered, if any.
    pub crash: Option<CrashReport>,
    /// Per-call return values (calls after a crash are skipped and
    /// recorded as `-EFAULT`).
    pub rets: Vec<i64>,
}

/// Reusable per-worker execution state. Create once per fuzzing
/// thread; every [`execute_with`] call resets and reuses it.
pub struct ExecScratch {
    lowered: Arc<LoweredDb>,
    /// Per-syscall dense kernel dispatch number, resolved from the
    /// lowered IR's interned base ops once at construction.
    sysno: Vec<Sysno>,
    /// Per-program VM state; readable after `execute_with` returns.
    pub state: VmState,
    /// Per-call return values of the last executed program.
    pub rets: Vec<i64>,
    enc: LoweredEncoder,
    mem: MemMap,
    /// Segment vector shuttling between encoder and memory image so
    /// retired buffers flow back into the encoder's pool.
    shuttle: Vec<(u64, Vec<u8>)>,
    /// The last exec's coverage, once somebody asked for it
    /// ([`ExecScratch::coverage`]).
    built: OnceCell<CoverageMap>,
    /// The storage of a map built for an earlier exec, which the next
    /// one is built into.
    spare: Cell<CoverageMap>,
}

impl ExecScratch {
    /// Fresh scratch over a spec database and constant table,
    /// lowering them on the spot. Campaign code paths share one
    /// pre-lowered IR via [`ExecScratch::from_lowered`] instead.
    #[must_use]
    pub fn new(db: &SpecDb, consts: &ConstDb) -> ExecScratch {
        ExecScratch::from_lowered(Arc::new(LoweredDb::build(db, consts)))
    }

    /// Fresh scratch over a shared lowered IR.
    #[must_use]
    pub fn from_lowered(lowered: Arc<LoweredDb>) -> ExecScratch {
        let ops: Vec<Sysno> = lowered
            .base_ops()
            .iter()
            .map(|b| Sysno::from_base(b))
            .collect();
        let sysno = (0..lowered.syscall_count())
            .map(|i| ops[lowered.syscall(i).op as usize])
            .collect();
        ExecScratch {
            lowered,
            sysno,
            state: VmState::new(),
            rets: Vec::new(),
            enc: LoweredEncoder::new(),
            mem: MemMap::new(),
            shuttle: Vec::new(),
            built: OnceCell::new(),
            spare: Cell::default(),
        }
    }

    /// The shared lowered IR programs are executed against — what a
    /// second scratch over the same programs is built from.
    pub(crate) fn lowered(&self) -> &Arc<LoweredDb> {
        &self.lowered
    }

    /// The event log of the last executed program: its block runs, call
    /// and crash markers — what [`crate::corpus::Corpus::admits`] reads.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        self.state.trace().events()
    }

    /// Coverage of the last executed program — what an admission feeds
    /// to [`crate::corpus::Corpus::observe`]. Built from the event log
    /// as it stands the first time it is asked for after an exec, into
    /// the storage of the map built before, so it allocates nothing once
    /// that storage has held such a map. A flight recorder takes the
    /// log's events (`TraceLog::swap_events`): a caller that needs the
    /// map too asks for it before.
    #[must_use]
    pub fn coverage(&self) -> &CoverageMap {
        self.built.get_or_init(|| {
            let mut map = self.spare.take();
            self.state.trace().coverage_into(&mut map);
            map
        })
    }

    /// Let go of the map [`ExecScratch::coverage`] built, keeping its
    /// storage: the scratch is about to run again.
    fn forget_coverage(&mut self) {
        if let Some(map) = self.built.take() {
            self.spare.set(map);
        }
    }

    /// Crash triggered by the last executed program, if any.
    #[must_use]
    pub fn crash(&self) -> Option<&CrashReport> {
        self.state.crash.as_ref()
    }
}

/// Execute a program against a fresh VM state (one-shot convenience
/// wrapper over [`execute_with`]).
///
/// This compiles a fresh [`LoweredDb`] per call — fine for a handful
/// of executions, wrong in a loop. Loops should build one scratch
/// ([`ExecScratch::from_lowered`], or `new` once) and call
/// [`execute_with`].
#[must_use]
pub fn execute(kernel: &VKernel, db: &SpecDb, consts: &ConstDb, prog: &Program) -> ExecResult {
    let mut scratch = ExecScratch::new(db, consts);
    execute_with(kernel, prog, &mut scratch);
    ExecResult {
        coverage: scratch.state.trace().coverage(),
        crash: scratch.state.crash.take(),
        rets: std::mem::take(&mut scratch.rets),
    }
}

/// Execute a program, reusing `scratch` across calls. Afterwards,
/// the scratch's event log ([`ExecScratch::events`], and the
/// [`ExecScratch::coverage`] built from it), `scratch.state.crash` and
/// `scratch.rets` hold the program's outcome until the next invocation.
///
/// This is the exec loop a resumed mutant runs ([`ExecPrefix::run`]),
/// started at call 0 from the empty state.
pub fn execute_with(kernel: &VKernel, prog: &Program, scratch: &mut ExecScratch) {
    scratch.state.reset();
    scratch.rets.clear();
    run_calls(kernel, prog, scratch, 0, |_, _, _| {});
}

/// The exec loop: run `prog.calls[from..]` on the state in `scratch`
/// (which holds the returns of the calls before), handing the calls
/// done, the state and the returns after every call to `after_call` —
/// a generic hook, so a loop that saves nothing compiles to the loop
/// alone.
fn run_calls(
    kernel: &VKernel,
    prog: &Program,
    scratch: &mut ExecScratch,
    from: usize,
    mut after_call: impl FnMut(usize, &VmState, &[i64]),
) {
    scratch.forget_coverage();
    let ExecScratch {
        lowered,
        sysno,
        state,
        rets,
        enc,
        mem,
        shuttle,
        ..
    } = scratch;
    let lowered: &LoweredDb = lowered;
    debug_assert_eq!(rets.len(), from, "resumed without the returns before");
    let calls = prog.calls.get(from..).unwrap_or_default();
    for (call_index, call) in (from..).zip(calls) {
        let ret = 'call: {
            if state.crash.is_some() {
                break 'call -kgpt_vkernel::errno::EFAULT;
            }
            if state.fuel_exhausted() {
                // The fuel watchdog tripped: skip the remaining calls
                // without decoding them (decode itself burns fuel), the
                // same way a crash short-circuits the rest of a program.
                break 'call -kgpt_vkernel::errno::ENOMEM;
            }
            let sys = lowered.syscall(call.sys as usize);
            // Restart the encoder's address space; any segments still in
            // it (from an aborted encode) are recycled into its pool.
            enc.reset();
            let mut regs = [0u64; 6];
            let mut ok = true;
            {
                let rets = &*rets;
                let resolve = |r: &ResRef| -> u64 {
                    match r.producer.and_then(|i| rets.get(i)) {
                        Some(v) if *v >= 0 => *v as u64,
                        _ => r.fallback,
                    }
                };
                for (i, (param, value)) in sys.params.iter().zip(&call.args).enumerate() {
                    if i >= 6 {
                        break;
                    }
                    match enc.encode_arg(lowered, param.ty, value, &resolve) {
                        Ok(v) => regs[i] = v,
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                break 'call -kgpt_vkernel::errno::EINVAL;
            }
            // Auto-fill top-level len/bytesize parameters from the encoded
            // sibling (`setsockopt(..., val, len)`): the encoder fills them
            // inside structs, but register-level lens refer to the pointee
            // segment size. The sibling's index was resolved at lowering;
            // segments are address-sorted, so the lookup is a binary search.
            let segments = enc.segments();
            for (i, param) in sys.params.iter().enumerate().take(6) {
                // Targets past the register window cannot be fixed up
                // (only reachable via unvalidated >6-ary specs).
                if let Some(ti) = param.len_target.filter(|ti| (*ti as usize) < regs.len()) {
                    let addr = regs[ti as usize];
                    if let Ok(si) = segments.binary_search_by_key(&addr, |s| s.0) {
                        regs[i] = segments[si].1.len() as u64;
                    }
                }
            }
            // Move the encoded segments into the memory image; the image's
            // previous segments land back in the encoder for recycling on
            // the next `reset`.
            enc.swap_segments(shuttle);
            mem.load(shuttle);
            enc.recycle(shuttle);
            // Syscall-boundary marker for the flight recorder: calls that
            // were skipped (crash, fuel, encode failure) emit no marker,
            // so the trace's call indices name exactly the calls that
            // reached the kernel.
            state.trace_mut().call(call_index as u32);
            kernel.exec_call(state, sysno[call.sys as usize], &regs, mem)
        };
        rets.push(ret);
        after_call(call_index + 1, state, rets);
    }
}

/// The states a corpus entry's program passes through at its first
/// call boundaries — the VM state and the returns after its first
/// call, its second, … — so that a mutant, whose first `from` calls
/// are the entry's ([`crate::gen::Generator::mutate_in_place`] returns
/// `from`), runs from the entry's state there instead of from the empty
/// one: [`ExecPrefix::restore`], then [`ExecPrefix::run`].
///
/// Derived data, a function of the program, the kernel and the
/// scratch's fuel limit. It is recorded as the entry's
/// mutants run — a call of a mutant before its `from` is the entry's
/// call, so the state after it is the entry's — and grows as deep as
/// they diverge, never by an execution of its own. A corpus keeps one
/// per entry it was asked for ([`crate::corpus::Corpus::prefix`]).
#[derive(Debug, Clone)]
pub struct ExecPrefix {
    vm: BoundaryStates,
    rets: Vec<i64>,
}

impl ExecPrefix {
    /// No state recorded yet, under `scratch`'s fuel limit.
    #[must_use]
    pub fn new(scratch: &ExecScratch) -> ExecPrefix {
        ExecPrefix {
            vm: scratch.state.boundary_states(),
            rets: Vec::new(),
        }
    }

    /// Call boundaries recorded: the most calls a restore skips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rets.len()
    }

    /// Whether no boundary is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rets.is_empty()
    }

    /// Whether it was recorded under `scratch`'s fuel limit — whether
    /// its states are the ones `scratch` would compute.
    pub(crate) fn fits(&self, scratch: &ExecScratch) -> bool {
        self.vm.fits(&scratch.state)
    }

    /// Put `scratch` in the state the entry's first `k` calls leave,
    /// `k` the smaller of `from` and [`ExecPrefix::len`] (0: the empty
    /// state), and return `k`. Allocates nothing once the scratch's
    /// buffers have held that state.
    pub fn restore(&self, from: usize, scratch: &mut ExecScratch) -> usize {
        let k = from.min(self.len());
        scratch.forget_coverage();
        scratch.state.restore_boundary(&self.vm, k);
        scratch.rets.clear();
        scratch.rets.extend_from_slice(&self.rets[..k]);
        k
    }

    /// Execute the rest of `prog` — whose first `from` calls are the
    /// entry's — from where [`ExecPrefix::restore`] left `scratch`,
    /// recording the state after each of those calls the prefix does
    /// not hold yet. Afterwards `scratch` holds exactly what
    /// [`execute_with`] of `prog` would have left.
    pub fn run(
        &mut self,
        kernel: &VKernel,
        prog: &Program,
        scratch: &mut ExecScratch,
        from: usize,
    ) {
        let ExecPrefix { vm, rets: saved } = self;
        let at = scratch.rets.len();
        saved.reserve(from.saturating_sub(saved.len()));
        run_calls(kernel, prog, scratch, at, |done, state, rets| {
            if done == saved.len() + 1 && done <= from {
                state.save_boundary(vm, from - done);
                saved.push(rets[done - 1]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;
    use crate::reference::{ast_execute, AstGenerator};
    use kgpt_csrc::KernelCorpus;
    use kgpt_vkernel::VKernel;
    use std::collections::BTreeSet;

    #[test]
    fn generated_dm_programs_reach_coverage() {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let mut g = Generator::new(&db, kc.consts(), 11);
        let mut total = BTreeSet::new();
        for _ in 0..200 {
            let p = g.gen_program(6);
            let r = execute(&kernel, &db, kc.consts(), &p);
            total.extend(r.coverage);
        }
        // Open blocks + several command bodies must be reachable.
        assert!(total.len() > 30, "coverage too small: {}", total.len());
    }

    #[test]
    fn scratch_reuse_matches_one_shot_execution() {
        // The lowered IR arrives through the shared cache here:
        // execution is oblivious to whether it is owned or cached.
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let (db, lowered) = kgpt_syzlang::SpecCache::global()
            .get_or_build_lowered(&[kc.blueprints()[0].ground_truth_spec()], kc.consts());
        let db = &*db;
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let mut g = Generator::new(db, kc.consts(), 23);
        let progs: Vec<Program> = (0..100).map(|_| g.gen_program(8)).collect();
        let mut scratch = ExecScratch::from_lowered(lowered);
        for p in &progs {
            let one_shot = execute(&kernel, db, kc.consts(), p);
            execute_with(&kernel, p, &mut scratch);
            assert_eq!(*scratch.coverage(), one_shot.coverage);
            assert_eq!(scratch.state.crash, one_shot.crash);
            assert_eq!(scratch.rets, one_shot.rets);
        }
    }

    #[test]
    fn lowered_execution_matches_ast_walk() {
        // The full differential: AST-generated, AST-executed programs
        // versus the lowered generate→encode→dispatch pipeline.
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let mut g = Generator::new(&db, kc.consts(), 77);
        let mut ag = AstGenerator::new(&db, kc.consts(), 77);
        let mut scratch = ExecScratch::new(&db, kc.consts());
        for i in 0..150 {
            let p = g.gen_program(8);
            assert_eq!(p, ag.gen_program(8), "program {i}");
            let ast = ast_execute(&kernel, &db, kc.consts(), &p);
            execute_with(&kernel, &p, &mut scratch);
            assert_eq!(scratch.rets, ast.rets, "program {i}");
            assert_eq!(*scratch.coverage(), ast.coverage, "program {i}");
            assert_eq!(scratch.state.crash, ast.crash, "program {i}");
        }
    }

    #[test]
    fn truth_spec_triggers_dm_bugs_eventually() {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let mut g = Generator::new(&db, kc.consts(), 5);
        let mut titles = BTreeSet::new();
        let mut scratch = ExecScratch::new(&db, kc.consts());
        for _ in 0..3000 {
            let p = g.gen_program(8);
            execute_with(&kernel, &p, &mut scratch);
            if let Some(c) = &scratch.state.crash {
                titles.insert(c.title.clone());
            }
        }
        assert!(
            titles.contains("kmalloc bug in ctl_ioctl"),
            "found: {titles:?}"
        );
    }

    #[test]
    fn wrong_device_name_spec_gets_no_driver_coverage() {
        // A SyzDescribe-style spec with the wrong path opens nothing.
        let spec = kgpt_syzlang::parse(
            "wrong",
            "resource fd_w[fd]\nopenat$w(dir const[0], file ptr[in, string[\"/dev/dm-controller\"]], flags const[2], mode const[0]) fd_w\nioctl$W(fd fd_w, cmd const[3], arg ptr[in, array[int8]])\n",
        )
        .unwrap();
        let db = SpecDb::from_files(vec![spec]);
        let consts = ConstDb::new();
        let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
        let mut g = Generator::new(&db, &consts, 1);
        let mut total = BTreeSet::new();
        for _ in 0..100 {
            let p = g.gen_program(4);
            let r = execute(&kernel, &db, &consts, &p);
            total.extend(r.coverage);
        }
        assert!(total.is_empty(), "unexpected coverage: {total:?}");
    }
}
