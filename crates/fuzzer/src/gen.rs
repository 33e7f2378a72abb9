//! Spec-driven program generation and mutation over the lowered IR.
//!
//! The generator walks the flat [`LoweredDb`] arena: flag sets are
//! pre-resolved `u64` slices, struct fields are index tables, and
//! resource producers are integer lists — the per-value path performs
//! no name lookup, no `flags_def`/`struct_def` call, and no constant
//! resolution. The RNG draw sequence is **identical** to the AST walk
//! ([`crate::reference::AstGenerator`]), so program streams are
//! bit-for-bit the same; `tests/properties.rs` and the `lowering`
//! section of `fuzz_bench` pin that equivalence.
//!
//! A pointer whose pointee type is closed by construction (it has a
//! [`kgpt_syzlang::lowered::Plan`]) is not built node by node: the
//! plan fills one buffer — the pointee's encoded image — from the same
//! draws in the same order, and the pointee is *born packed* (see
//! [`kgpt_syzlang::value::Pointee`]). The draw rules (`draw_int`,
//! `draw_flags`, `draw_len`, `draw_bytes`) are written once and both
//! paths call them, so there is one stream, not two kept in step; the
//! tree path stays for every other type and for a pointee whose
//! nesting would cross the `MAX_DEPTH` cut-off.

use crate::reference::INTERESTING;
use kgpt_syzlang::ast::ArrayLen;
use kgpt_syzlang::lowered::{LType, LoweredDb, PlanDraws};
use kgpt_syzlang::prog::{ProgCall, Program};
use kgpt_syzlang::value::ResRef;
use kgpt_syzlang::{ConstDb, SpecDb, Value};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;

/// Generates and mutates programs from a lowered specification.
pub struct Generator {
    lowered: Arc<LoweredDb>,
    rng: StdRng,
    /// Enabled syscalls as dense database indices.
    enabled: Vec<u32>,
}

impl Generator {
    /// Create a generator over all syscalls of a database, lowering
    /// it on the spot. Campaign code paths share one pre-lowered IR
    /// via [`Generator::from_lowered`] instead — and with the
    /// executor too: a born-packed pointee is copied from its image
    /// only by an [`crate::exec::ExecScratch`] over the very lowering
    /// that generated it (any other unpacks and walks it, correctly
    /// but for the price of the tree).
    #[must_use]
    pub fn new(db: &SpecDb, consts: &ConstDb, seed: u64) -> Generator {
        Generator::from_lowered(Arc::new(LoweredDb::build(db, consts)), seed)
    }

    /// Create a generator over a shared lowered IR.
    #[must_use]
    pub fn from_lowered(lowered: Arc<LoweredDb>, seed: u64) -> Generator {
        let enabled = (0..lowered.syscall_count() as u32).collect();
        Generator {
            lowered,
            rng: StdRng::seed_from_u64(seed),
            enabled,
        }
    }

    /// Restrict generation to the given syscalls (per-driver runs).
    #[must_use]
    pub fn with_enabled(mut self, enabled: Vec<String>) -> Generator {
        self.enabled = enabled
            .iter()
            .filter_map(|n| self.lowered.syscall_index(n))
            .map(|i| i as u32)
            .collect();
        self
    }

    /// Number of enabled syscalls.
    #[must_use]
    pub fn enabled_count(&self) -> usize {
        self.enabled.len()
    }

    /// The shared lowered IR this generator draws from.
    #[must_use]
    pub fn lowered(&self) -> &Arc<LoweredDb> {
        &self.lowered
    }

    /// The raw RNG state words, for checkpointing mid-campaign.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Continue the draw stream from state captured with
    /// [`Generator::rng_state`]: restore, not reseeding — subsequent
    /// programs are bit-identical to continuing the original
    /// generator.
    pub fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Generate a fresh program of at most `max_len` calls.
    pub fn gen_program(&mut self, max_len: usize) -> Program {
        let Generator {
            lowered,
            rng,
            enabled,
        } = self;
        let mut prog = Program::default();
        let want = rng.random_range(1..=max_len.max(1));
        for _ in 0..want {
            if enabled.is_empty() {
                break;
            }
            let pick = enabled[rng.random_range(0..enabled.len())];
            append_call(lowered, rng, &mut prog, pick, 0);
            if prog.len() >= max_len {
                break;
            }
        }
        prog
    }

    /// Mutate a program: regenerate an argument, append a call, or
    /// truncate. Returns a fresh program (input untouched). Pointees
    /// are shared, so each arm costs one refcount per kept argument,
    /// whatever the size of the trees behind them. Output and draws
    /// are bit-identical to
    /// [`crate::reference::AstGenerator::mutate`].
    pub fn mutate(&mut self, prog: &Program, max_len: usize) -> Program {
        if prog.is_empty() {
            return self.gen_program(max_len);
        }
        let Generator {
            lowered,
            rng,
            enabled,
        } = self;
        match rng.random_range(0..10u32) {
            // Regenerate one argument of one call.
            0..=5 => {
                let mut p = prog.clone();
                let ci = rng.random_range(0..p.calls.len());
                let n_args = p.calls[ci].args.len();
                if n_args > 0 {
                    let ai = rng.random_range(0..n_args);
                    let ty = lowered.syscall(p.calls[ci].sys as usize).params[ai].ty;
                    p.calls[ci].args[ai] = gen_value(lowered, rng, ty, &p, ci, 0);
                }
                p
            }
            // Append a random enabled call.
            6..=8 => {
                let mut p = prog.clone();
                if !enabled.is_empty() && p.len() < max_len {
                    let pick = enabled[rng.random_range(0..enabled.len())];
                    append_call(lowered, rng, &mut p, pick, 0);
                }
                p
            }
            // Truncate: clone only the kept prefix.
            _ => {
                let keep = rng.random_range(1..=prog.calls.len());
                Program {
                    calls: prog.calls[..keep].to_vec(),
                }
            }
        }
    }
}

/// Index of the most recent call in `prog.calls[..upto]` whose return
/// value produces `res` — a dense-id compare per call, where the AST
/// walk compared name strings.
fn find_producer(
    lowered: &LoweredDb,
    prog: &Program,
    upto: usize,
    res: kgpt_syzlang::lowered::ResourceId,
) -> Option<usize> {
    prog.calls[..upto.min(prog.len())]
        .iter()
        .enumerate()
        .rev()
        .find(|(_, c)| lowered.syscall(c.sys as usize).ret_resource == Some(res))
        .map(|(i, _)| i)
}

/// Append a call (prepending producers for its resources).
fn append_call(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    prog: &mut Program,
    sys_idx: u32,
    depth: usize,
) -> Option<usize> {
    if depth > 6 || prog.len() > 24 {
        return None;
    }
    let sys = lowered.syscall(sys_idx as usize);
    // Satisfy consumed resources.
    for p in &sys.params {
        if let LType::Resource { res } = lowered.ltype(p.ty) {
            if find_producer(lowered, prog, prog.len(), res).is_none() {
                if let Some(pick) = lowered
                    .lresource(res)
                    .producer_list()
                    .and_then(|list| list.choose(rng))
                    .copied()
                {
                    append_call(lowered, rng, prog, pick, depth + 1);
                }
            }
        }
    }
    let args = sys
        .params
        .iter()
        .map(|p| gen_value(lowered, rng, p.ty, prog, prog.len(), 0))
        .collect();
    prog.calls.push(ProgCall { sys: sys_idx, args });
    Some(prog.len() - 1)
}

/// Deepest `gen_value` nesting: anything below is `Int(0)`.
const MAX_DEPTH: usize = 12;

/// Generate a value for a lowered type, resolving resource references
/// against the first `upto` calls of `prog`.
fn gen_value(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    ty: kgpt_syzlang::lowered::TypeId,
    prog: &Program,
    upto: usize,
    depth: usize,
) -> Value {
    if depth > MAX_DEPTH {
        return Value::Int(0);
    }
    match lowered.ltype(ty) {
        LType::Int { bits, range } => Value::Int(bits.truncate(draw_int(rng, range))),
        LType::Const { .. } => Value::Int(0), // encoder substitutes
        LType::Flags { values, bits } => {
            Value::Int(bits.truncate(draw_flags(rng, lowered.flag_values(values))))
        }
        LType::StringLit { strs } => {
            let s = lowered
                .strings(strs)
                .choose(rng)
                .cloned()
                .unwrap_or_default();
            Value::Bytes(s)
        }
        LType::Ptr { elem, .. } => {
            if rng.random_bool(0.03) {
                return Value::Ptr { pointee: None };
            }
            // A pointee that is closed by construction is born encoded,
            // from the same draws; any other is built as a tree.
            let born = MAX_DEPTH
                .checked_sub(depth + 1)
                .and_then(|room| lowered.gen_pointee(elem, room, &mut Stream(rng)));
            born.unwrap_or_else(|| {
                Value::ptr_to(gen_value(lowered, rng, elem, prog, upto, depth + 1))
            })
        }
        LType::Array {
            elem,
            len,
            byte_elem,
        } => {
            let n = draw_len(rng, len);
            // Byte arrays as raw buffers (cheaper, and what the
            // kernel decodes anyway).
            if byte_elem {
                let mut bytes = vec![0u8; n as usize];
                draw_bytes(rng, &mut bytes);
                return Value::Bytes(bytes);
            }
            let mut vs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                vs.push(gen_value(lowered, rng, elem, prog, upto, depth + 1));
            }
            Value::Group(vs)
        }
        LType::Len { .. } | LType::Bytesize { .. } => Value::Int(0), // auto-filled
        LType::Resource { res } => Value::Res(ResRef {
            producer: find_producer(lowered, prog, upto, res),
            // Dangling references land on small fds/ids sometimes.
            fallback: if rng.random_bool(0.5) {
                rng.random_range(0..6)
            } else {
                u64::MAX
            },
        }),
        LType::Struct { id } => {
            let def = lowered.lstruct(id);
            if def.is_union {
                let arm = rng.random_range(0..def.fields.len().max(1));
                let v = def
                    .fields
                    .get(arm)
                    .map(|f| gen_value(lowered, rng, f.ty, prog, upto, depth + 1))
                    .unwrap_or(Value::Int(0));
                Value::Union {
                    arm,
                    value: Box::new(v),
                }
            } else {
                let vs = def
                    .fields
                    .iter()
                    .map(|f| gen_value(lowered, rng, f.ty, prog, upto, depth + 1))
                    .collect();
                Value::Group(vs)
            }
        }
        LType::UnknownNamed { .. } => Value::Int(0),
        LType::Proc { start, per, .. } => Value::Int(start + per),
        LType::Void => Value::Group(Vec::new()),
    }
}

// The draw rules. Each is written once: the tree arms above and the
// born-packed path (through `Stream`) run the same code, so a pointee
// consumes the same draws whichever form it is born in.

fn draw_int(rng: &mut StdRng, range: Option<(u64, u64)>) -> u64 {
    match range {
        // Mostly respect declared ranges; occasionally probe
        // outside them (the kernel should EINVAL).
        Some((lo, hi)) if rng.random_bool(0.85) => {
            if hi > lo {
                lo + rng.random_range(0..=(hi - lo))
            } else {
                lo
            }
        }
        _ => gen_int(rng),
    }
}

fn draw_flags(rng: &mut StdRng, members: &[u64]) -> u64 {
    let mut acc = 0u64;
    for v in members {
        if rng.random_bool(0.4) {
            acc |= v;
        }
    }
    if members.is_empty() || rng.random_bool(0.05) {
        acc = gen_int(rng);
    }
    acc
}

fn draw_len(rng: &mut StdRng, len: ArrayLen) -> u64 {
    match len {
        ArrayLen::Fixed(n) => n,
        ArrayLen::Range(lo, hi) => {
            if hi > lo {
                lo + rng.random_range(0..=(hi - lo).min(16))
            } else {
                lo
            }
        }
        // Long-tailed sizes: mostly small, sometimes page-
        // scale (large payloads are how the sendmsg-path
        // bugs are reached).
        ArrayLen::Unsized => match rng.random_range(0..10u32) {
            0..=6 => rng.random_range(0..8),
            7 | 8 => rng.random_range(8..256),
            _ => rng.random_range(256..4096),
        },
    }
}

fn draw_bytes(rng: &mut StdRng, dst: &mut [u8]) {
    for b in dst {
        *b = rng.random_range(0..=255u32) as u8;
    }
}

fn gen_int(rng: &mut StdRng) -> u64 {
    if rng.random_bool(0.7) {
        INTERESTING[(rng.next_u64() % INTERESTING.len() as u64) as usize]
    } else {
        rng.random()
    }
}

/// The generator's draw stream, as a [`kgpt_syzlang::lowered::Plan`]
/// consumes it.
struct Stream<'a>(&'a mut StdRng);

impl PlanDraws for Stream<'_> {
    fn int(&mut self, range: Option<(u64, u64)>) -> u64 {
        draw_int(self.0, range)
    }

    fn flags(&mut self, members: &[u64]) -> u64 {
        draw_flags(self.0, members)
    }

    fn array_len(&mut self, len: ArrayLen) -> u64 {
        draw_len(self.0, len)
    }

    fn bytes(&mut self, dst: &mut [u8]) {
        draw_bytes(self.0, dst);
    }
}

/// Direction of the pointer a value sits behind (needed by tests).
#[must_use]
pub fn top_dir(ty: &kgpt_syzlang::Type) -> kgpt_syzlang::Dir {
    match ty {
        kgpt_syzlang::Type::Ptr { dir, .. } => *dir,
        _ => kgpt_syzlang::Dir::In,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::AstGenerator;
    use kgpt_csrc::KernelCorpus;

    fn dm_db() -> (SpecDb, ConstDb) {
        let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
        let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
        (db, kc.consts().clone())
    }

    #[test]
    fn generates_programs_with_producers() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 7);
        let mut saw_dependent = false;
        for _ in 0..50 {
            let p = g.gen_program(5);
            assert!(!p.is_empty());
            // Any ioctl must be preceded by its openat producer.
            for (i, c) in p.calls.iter().enumerate() {
                if c.syscall(&db).base == "ioctl" {
                    for r in c.args.iter().flat_map(Value::res_refs) {
                        if let Some(pi) = r.producer {
                            assert!(pi < i, "producer after consumer");
                            assert_eq!(p.calls[pi].syscall(&db).base, "openat");
                            saw_dependent = true;
                        }
                    }
                }
            }
        }
        assert!(saw_dependent, "no dependent calls generated in 50 programs");
    }

    #[test]
    fn generation_is_deterministic() {
        let (db, consts) = dm_db();
        let a: Vec<Program> = {
            let mut g = Generator::new(&db, &consts, 42);
            (0..10).map(|_| g.gen_program(4)).collect()
        };
        let b: Vec<Program> = {
            let mut g = Generator::new(&db, &consts, 42);
            (0..10).map(|_| g.gen_program(4)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_bit_identical_to_ast_walk() {
        let (db, consts) = dm_db();
        let mut lowered = Generator::new(&db, &consts, 42);
        let mut ast = AstGenerator::new(&db, &consts, 42);
        for i in 0..40 {
            assert_eq!(lowered.gen_program(6), ast.gen_program(6), "program {i}");
        }
    }

    #[test]
    fn mutation_is_bit_identical_to_ast_walk() {
        let (db, consts) = dm_db();
        let mut lowered = Generator::new(&db, &consts, 5);
        let mut ast = AstGenerator::new(&db, &consts, 5);
        let mut lp = lowered.gen_program(5);
        let mut ap = ast.gen_program(5);
        assert_eq!(lp, ap);
        for i in 0..200 {
            lp = lowered.mutate(&lp, 8);
            ap = ast.mutate(&ap, 8);
            assert_eq!(lp, ap, "mutation {i}");
        }
    }

    #[test]
    fn enabled_filter_restricts() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 1)
            .with_enabled(vec!["openat$dm".into(), "bogus$x".into()]);
        assert_eq!(g.enabled_count(), 1);
        for _ in 0..10 {
            let p = g.gen_program(3);
            for c in &p.calls {
                assert_eq!(c.syscall(&db).name(), "openat$dm");
            }
        }
    }

    #[test]
    fn mutation_keeps_program_well_formed() {
        let (db, consts) = dm_db();
        let mut g = Generator::new(&db, &consts, 3);
        let mut p = g.gen_program(4);
        for _ in 0..100 {
            p = g.mutate(&p, 8);
            assert!(p.len() <= 25);
            for c in &p.calls {
                assert_eq!(c.args.len(), c.syscall(&db).params.len());
            }
        }
    }
}
