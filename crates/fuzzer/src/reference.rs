//! AST-walk reference implementations of generation and execution.
//!
//! These are the *pre-lowering* code paths, kept verbatim as the
//! differential-testing oracle for the arena-walking hot path in
//! [`crate::gen::Generator`] and [`crate::exec`]: the lowered
//! generator must draw the same RNG sequence and produce bit-identical
//! program streams, and the lowered encoder must produce byte-identical
//! memory images and results. `tests/properties.rs` pins both, and the
//! `lowering` section of `fuzz_bench` measures the before/after
//! throughput and re-asserts bit-identity on every CI run.
//!
//! The oracle keeps its own copy of every draw rule, the byte-run rule
//! included: a byte of a byte array is one draw, except inside an array
//! whose length is drawn (`array[T]`, `array[T, lo:hi]`, the array
//! itself included), where a draw fills eight bytes little-endian and
//! the last word's unused bytes are dropped. `gen_value` carries that
//! as its `drawn` flag, set on entering such an array and cleared at
//! every pointer.
//!
//! Nothing here runs on a campaign's hot path.

use crate::exec::ExecResult;
use kgpt_syzlang::ast::{ArrayLen, Type};
use kgpt_syzlang::prog::{ProgCall, Program};
use kgpt_syzlang::value::{MemBuilder, ResRef};
use kgpt_syzlang::{ConstDb, SpecDb, Value};
use kgpt_vkernel::{MemMap, Sysno, VKernel, VmState};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Interesting scalar boundary values the generator favours. Shared
/// with the lowered generator — one table, one stream.
pub(crate) const INTERESTING: [u64; 16] = [
    0,
    1,
    2,
    3,
    7,
    8,
    16,
    64,
    127,
    128,
    255,
    0x7fff,
    0xffff,
    0x7fff_ffff,
    0xffff_ffff,
    u64::MAX,
];

/// The pre-lowering generator: walks [`Type`] trees with name-keyed
/// [`SpecDb`] lookups per value. Only used as the differential
/// reference for [`crate::gen::Generator`].
pub struct AstGenerator<'a> {
    db: &'a SpecDb,
    consts: &'a ConstDb,
    rng: StdRng,
    /// Enabled syscalls as dense database indices.
    enabled: Vec<u32>,
    /// Resource name → producing syscall indices, precomputed once.
    producers: BTreeMap<String, Vec<u32>>,
}

impl<'a> AstGenerator<'a> {
    /// Create a generator over all syscalls of the database.
    #[must_use]
    pub fn new(db: &'a SpecDb, consts: &'a ConstDb, seed: u64) -> AstGenerator<'a> {
        let mut producers: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for sys in db.syscalls() {
            for p in &sys.params {
                if let Type::Resource(r) = &p.ty {
                    if !producers.contains_key(r) && db.resource(r).is_some() {
                        let list = db
                            .producers_of(r)
                            .filter_map(|s| db.syscall_index(&s.name()))
                            .map(|i| i as u32)
                            .collect();
                        producers.insert(r.clone(), list);
                    }
                }
            }
        }
        AstGenerator {
            db,
            consts,
            rng: StdRng::seed_from_u64(seed),
            enabled: (0..db.syscall_count() as u32).collect(),
            producers,
        }
    }

    /// Restrict generation to the given syscalls.
    #[must_use]
    pub fn with_enabled(mut self, enabled: Vec<String>) -> AstGenerator<'a> {
        self.enabled = enabled
            .iter()
            .filter_map(|n| self.db.syscall_index(n))
            .map(|i| i as u32)
            .collect();
        self
    }

    /// Generate a fresh program of at most `max_len` calls.
    pub fn gen_program(&mut self, max_len: usize) -> Program {
        let mut prog = Program::default();
        let want = self.rng.random_range(1..=max_len.max(1));
        for _ in 0..want {
            if self.enabled.is_empty() {
                break;
            }
            let pick = self.enabled[self.rng.random_range(0..self.enabled.len())];
            self.append_call(&mut prog, pick, 0);
            if prog.len() >= max_len {
                break;
            }
        }
        prog
    }

    fn find_producer(&self, prog: &Program, upto: usize, resource: &str) -> Option<usize> {
        let db = self.db;
        prog.calls[..upto.min(prog.len())]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, c)| c.syscall(db).ret.as_deref() == Some(resource))
            .map(|(i, _)| i)
    }

    fn append_call(&mut self, prog: &mut Program, sys_idx: u32, depth: usize) -> Option<usize> {
        if depth > 6 || prog.len() > 24 {
            return None;
        }
        let db = self.db;
        let sys = db.syscall_at(sys_idx as usize);
        for p in &sys.params {
            if let Type::Resource(r) = &p.ty {
                if self.find_producer(prog, prog.len(), r).is_none() {
                    if let Some(pick) = self
                        .producers
                        .get(r)
                        .and_then(|list| list.choose(&mut self.rng))
                        .copied()
                    {
                        self.append_call(prog, pick, depth + 1);
                    }
                }
            }
        }
        let args = sys
            .params
            .iter()
            .map(|p| self.gen_value(&p.ty, prog, prog.len(), 0, false))
            .collect();
        prog.calls.push(ProgCall { sys: sys_idx, args });
        Some(prog.len() - 1)
    }

    fn gen_value(
        &mut self,
        ty: &Type,
        prog: &Program,
        upto: usize,
        depth: usize,
        drawn: bool,
    ) -> Value {
        if depth > 12 {
            return Value::Int(0);
        }
        match ty {
            Type::Int { bits, range } => {
                let v = match range {
                    Some((lo, hi)) if self.rng.random_bool(0.85) => {
                        if hi > lo {
                            lo + self.rng.random_range(0..=(hi - lo))
                        } else {
                            *lo
                        }
                    }
                    _ => self.gen_int(),
                };
                Value::Int(bits.truncate(v))
            }
            Type::Const { .. } => Value::Int(0),
            Type::Flags { set, bits } => {
                let values: Vec<u64> = self
                    .db
                    .flags_def(set)
                    .map(|fd| {
                        fd.values
                            .iter()
                            .filter_map(|v| self.consts.resolve(v))
                            .collect()
                    })
                    .unwrap_or_default();
                let mut acc = 0u64;
                for v in &values {
                    if self.rng.random_bool(0.4) {
                        acc |= v;
                    }
                }
                if values.is_empty() || self.rng.random_bool(0.05) {
                    acc = self.gen_int();
                }
                Value::Int(bits.truncate(acc))
            }
            Type::StringLit { values } => {
                let s = values.choose(&mut self.rng).cloned().unwrap_or_default();
                Value::Bytes(s.into_bytes())
            }
            Type::Ptr { elem, .. } => {
                if self.rng.random_bool(0.03) {
                    Value::Ptr { pointee: None }
                } else {
                    Value::ptr_to(self.gen_value(elem, prog, upto, depth + 1, false))
                }
            }
            Type::Array { elem, len } => {
                let n = match len {
                    ArrayLen::Fixed(n) => *n,
                    ArrayLen::Range(lo, hi) => {
                        if hi > lo {
                            lo + self.rng.random_range(0..=(hi - lo).min(16))
                        } else {
                            *lo
                        }
                    }
                    ArrayLen::Unsized => match self.rng.random_range(0..10u32) {
                        0..=6 => self.rng.random_range(0..8),
                        7 | 8 => self.rng.random_range(8..256),
                        _ => self.rng.random_range(256..4096),
                    },
                };
                let drawn = drawn || !matches!(len, ArrayLen::Fixed(_));
                if matches!(
                    elem.as_ref(),
                    Type::Int {
                        bits: kgpt_syzlang::IntBits::I8,
                        ..
                    }
                ) {
                    let mut bytes = vec![0u8; n as usize];
                    if drawn {
                        for word in bytes.chunks_mut(8) {
                            let w = self.rng.next_u64().to_le_bytes();
                            word.copy_from_slice(&w[..word.len()]);
                        }
                    } else {
                        for b in &mut bytes {
                            *b = self.rng.random_range(0..=255u32) as u8;
                        }
                    }
                    return Value::Bytes(bytes);
                }
                let mut vs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    vs.push(self.gen_value(elem, prog, upto, depth + 1, drawn));
                }
                Value::Group(vs)
            }
            Type::Len { .. } | Type::Bytesize { .. } => Value::Int(0),
            Type::Resource(r) => Value::Res(ResRef {
                producer: self.find_producer(prog, upto, r),
                fallback: if self.rng.random_bool(0.5) {
                    self.rng.random_range(0..6)
                } else {
                    u64::MAX
                },
            }),
            Type::Named(n) => {
                let db = self.db;
                let Some(def) = db.struct_def(n) else {
                    return Value::Int(0);
                };
                if def.is_union {
                    let arm = self.rng.random_range(0..def.fields.len().max(1));
                    let v = def
                        .fields
                        .get(arm)
                        .map(|f| self.gen_value(&f.ty, prog, upto, depth + 1, drawn))
                        .unwrap_or(Value::Int(0));
                    Value::Union {
                        arm,
                        value: Box::new(v),
                    }
                } else {
                    let vs = def
                        .fields
                        .iter()
                        .map(|f| self.gen_value(&f.ty, prog, upto, depth + 1, drawn))
                        .collect();
                    Value::Group(vs)
                }
            }
            Type::Proc { start, per, .. } => Value::Int(start + per),
            Type::Void => Value::Group(Vec::new()),
        }
    }

    fn gen_int(&mut self) -> u64 {
        if self.rng.random_bool(0.7) {
            INTERESTING[(self.rng.next_u64() % INTERESTING.len() as u64) as usize]
        } else {
            self.rng.random()
        }
    }

    /// Mutate a program the pre-lowering way: deep-clone, then patch.
    /// The lowered [`crate::gen::Generator::mutate`] must produce the
    /// same output with the same draws (while cloning less).
    pub fn mutate(&mut self, prog: &Program, max_len: usize) -> Program {
        let mut p = prog.clone();
        if p.is_empty() {
            return self.gen_program(max_len);
        }
        match self.rng.random_range(0..10u32) {
            0..=5 => {
                let ci = self.rng.random_range(0..p.calls.len());
                let n_args = p.calls[ci].args.len();
                if n_args > 0 {
                    let ai = self.rng.random_range(0..n_args);
                    let ty = &self.db.syscall_at(p.calls[ci].sys as usize).params[ai].ty;
                    let v = self.gen_value(ty, &p, ci, 0, false);
                    p.calls[ci].args[ai] = v;
                }
            }
            6..=8 => {
                if !self.enabled.is_empty() && p.len() < max_len {
                    let pick = self.enabled[self.rng.random_range(0..self.enabled.len())];
                    self.append_call(&mut p, pick, 0);
                }
            }
            _ => {
                let keep = self.rng.random_range(1..=p.calls.len());
                p.truncate(keep);
            }
        }
        p
    }
}

/// Execute a program by walking the AST: per-call `SpecDb` lookups,
/// name-keyed `len` targets, and per-call base-name resolution — the
/// pre-lowering execution path, for differential tests and the
/// `lowering` bench section.
#[must_use]
pub fn ast_execute(kernel: &VKernel, db: &SpecDb, consts: &ConstDb, prog: &Program) -> ExecResult {
    let mut scratch = AstScratch::new(db, consts);
    ast_execute_with(kernel, prog, &mut scratch);
    ExecResult {
        coverage: scratch.state.trace().coverage(),
        crash: scratch.state.crash.take(),
        rets: std::mem::take(&mut scratch.rets),
    }
}

/// Reusable scratch for [`ast_execute_with`], mirroring what
/// [`crate::exec::ExecScratch`] was before lowering.
pub struct AstScratch<'a> {
    db: &'a SpecDb,
    /// Per-program VM state.
    pub state: VmState,
    /// Per-call return values of the last executed program.
    pub rets: Vec<i64>,
    mb: MemBuilder<'a>,
    mem: MemMap,
    shuttle: Vec<(u64, Vec<u8>)>,
}

impl<'a> AstScratch<'a> {
    /// Fresh scratch over a spec database and constant table.
    #[must_use]
    pub fn new(db: &'a SpecDb, consts: &'a ConstDb) -> AstScratch<'a> {
        AstScratch {
            db,
            state: VmState::new(),
            rets: Vec::new(),
            mb: MemBuilder::new(db, consts),
            mem: MemMap::new(),
            shuttle: Vec::new(),
        }
    }
}

/// The pre-lowering `execute_with`: encodes through the AST-walking
/// [`MemBuilder`] and resolves the dispatch op from the base-name
/// string per call.
pub fn ast_execute_with(kernel: &VKernel, prog: &Program, scratch: &mut AstScratch<'_>) {
    scratch.state.reset();
    scratch.rets.clear();
    let db = scratch.db;
    for call in &prog.calls {
        if scratch.state.crash.is_some() {
            scratch.rets.push(-kgpt_vkernel::errno::EFAULT);
            continue;
        }
        let sys = call.syscall(db);
        scratch.mb.reset();
        let mut regs = [0u64; 6];
        let mut ok = true;
        {
            let rets = &scratch.rets;
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
                match scratch.mb.encode_arg(&param.ty, value, &resolve) {
                    Ok(v) => regs[i] = v,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            scratch.rets.push(-kgpt_vkernel::errno::EINVAL);
            continue;
        }
        let segments = scratch.mb.segments();
        for (i, param) in sys.params.iter().enumerate().take(6) {
            if let kgpt_syzlang::Type::Bytesize { target, .. }
            | kgpt_syzlang::Type::Len { target, .. } = &param.ty
            {
                // Same out-of-window guard as the lowered path (the
                // two executors must stay in sync).
                if let Some((ti, _)) = sys
                    .params
                    .iter()
                    .enumerate()
                    .find(|(_, p)| &p.name == target)
                    .filter(|(ti, _)| *ti < regs.len())
                {
                    let addr = regs[ti];
                    if let Ok(si) = segments.binary_search_by_key(&addr, |s| s.0) {
                        regs[i] = segments[si].1.len() as u64;
                    }
                }
            }
        }
        scratch.mb.swap_segments(&mut scratch.shuttle);
        scratch.mem.load(&mut scratch.shuttle);
        scratch.mb.recycle(&mut scratch.shuttle);
        let ret = kernel.exec_call(
            &mut scratch.state,
            Sysno::from_base(&sys.base),
            &regs,
            &scratch.mem,
        );
        scratch.rets.push(ret);
    }
}
