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
//! After a run, [`ExecScratch::coverage`] and [`ExecScratch::crash`]
//! expose the outcome the campaign loop feeds into the shared
//! [`crate::corpus::Corpus`].

use kgpt_syzlang::lowered::{LoweredDb, LoweredEncoder};
use kgpt_syzlang::prog::Program;
use kgpt_syzlang::value::ResRef;
use kgpt_syzlang::{ConstDb, SpecDb};
use kgpt_vkernel::{CoverageMap, CrashReport, MemMap, Sysno, VKernel, VmState};
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
        }
    }

    /// The lowered IR programs are executed against.
    pub(crate) fn lowered(&self) -> &LoweredDb {
        &self.lowered
    }

    /// Coverage of the last executed program — what the campaign
    /// loop feeds to [`crate::corpus::Corpus::observe`] (borrowed, so
    /// the admission test allocates nothing on the nothing-new path).
    #[must_use]
    pub fn coverage(&self) -> &CoverageMap {
        &self.state.coverage
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
        coverage: std::mem::take(&mut scratch.state.coverage),
        crash: scratch.state.crash.take(),
        rets: std::mem::take(&mut scratch.rets),
    }
}

/// Execute a program, reusing `scratch` across calls. Afterwards,
/// `scratch.state.coverage`, `scratch.state.crash` and `scratch.rets`
/// hold the program's outcome until the next invocation.
pub fn execute_with(kernel: &VKernel, prog: &Program, scratch: &mut ExecScratch) {
    let ExecScratch {
        lowered,
        sysno,
        state,
        rets,
        enc,
        mem,
        shuttle,
    } = scratch;
    let lowered: &LoweredDb = lowered;
    state.reset();
    rets.clear();
    for (call_index, call) in prog.calls.iter().enumerate() {
        if state.crash.is_some() {
            rets.push(-kgpt_vkernel::errno::EFAULT);
            continue;
        }
        if state.fuel_exhausted() {
            // The fuel watchdog tripped: skip the remaining calls
            // without decoding them (decode itself burns fuel), the
            // same way a crash short-circuits the rest of a program.
            rets.push(-kgpt_vkernel::errno::ENOMEM);
            continue;
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
            rets.push(-kgpt_vkernel::errno::EINVAL);
            continue;
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
        // reached the kernel. One branch when tracing is off.
        state.trace_mut().call(call_index as u32);
        let ret = kernel.exec_call(state, sysno[call.sys as usize], &regs, mem);
        rets.push(ret);
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
            assert_eq!(scratch.state.coverage, one_shot.coverage);
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
            assert_eq!(scratch.state.coverage, ast.coverage, "program {i}");
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
