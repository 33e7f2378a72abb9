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
//! `draw_flags`, `draw_len`, `draw_bytes`, `draw_words`) are written
//! once and both paths call them, so there is one stream, not two kept
//! in step; the tree path stays for every other type and for a pointee
//! whose nesting would cross the `MAX_DEPTH` cut-off.
//!
//! **A byte run under a drawn length is drawn a word at a time.** The
//! bytes of a byte array take one draw each, except inside an array
//! whose length is drawn (`array[T]`, `array[T, lo:hi]`, the array
//! itself included): there each draw fills eight bytes, little-endian,
//! and the last word's unused bytes are dropped. Which rule a run
//! takes follows from the type alone — `gen_value` carries a `drawn`
//! flag, set on entering such an array and cleared at every pointer,
//! and a plan compiles the runs of its trailing array into word fills
//! at lowering ([`PlanDraws::words`]).
//!
//! **A program is built into storage the caller owns**
//! ([`Generator::gen_program_into`], [`Generator::mutate_into`]): the
//! call list and each call's argument list keep their allocations from
//! one program to the next, a call the new program has no use for
//! leaves its emptied argument list with the generator, and a call
//! appended takes one from there. A campaign hands the storage of a
//! program its corpus rejected straight back, so at steady state a
//! program costs the allocator only the pointees it draws anew — which
//! a corpus entry, a ring slot or a mutant may go on sharing, and which
//! are therefore never recycled. What the storage held before never
//! shows: the draws, their order and the program that comes out are
//! those of the by-value forms, which are wrappers over these.
//!
//! **A mutant is its parent edited in place**
//! ([`Generator::mutate_in_place`]): the regenerate arm swaps one
//! argument for a new one, the append arm appends onto the parent and
//! the truncate arm moves the calls it cuts into an [`Edit`], which
//! keeps what the edit changed so that [`Generator::undo`] puts the
//! parent back — `==`, every pointee the very `Arc` it held. Nearly
//! every mutant is run and thrown away, so a campaign edits the corpus
//! entry where it lies, runs it, and copies the mutant out
//! ([`Generator::copy_into`]) only for whoever keeps it: the corpus on
//! an admission, a live flight recorder's ring. There is one mutator:
//! [`Generator::mutate_into`] is a copy of the parent edited in place,
//! the edit kept.

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
    /// Emptied argument lists of calls cut off the storage a program
    /// was built into, for the calls appended next: at most
    /// [`MAX_SPARE_ARGS`] of them.
    spare_args: Vec<Vec<Value>>,
    /// The edit [`Generator::mutate_into`] makes to its copy, kept
    /// for the storage of its cut calls.
    edit: Edit,
}

/// A program of this many calls is full: [`append_call`] adds none to
/// it. (A call already being appended still lands behind its
/// producers, one per level of nesting, so the longest program has
/// `FULL_AT + 6` calls.)
const FULL_AT: usize = 25;

/// Most spare argument lists a generator keeps. Lists are neither made
/// nor lost while storage goes round, so the spares are what the
/// programs in flight do not hold just now: with one program in flight
/// never more than the longest program has calls; behind a flight
/// recorder, whose ring hands back the storage of an exec of `cap`
/// execs ago, as many as the total length of `cap + 1` programs swings
/// from exec to exec — some 120 at the default ring of 32. The bound is
/// what that ring holds of full programs: it binds only on a longer
/// ring (which then pays for a list now and then) or on a caller that
/// keeps feeding in storage it never takes back.
const MAX_SPARE_ARGS: usize = 33 * FULL_AT;

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
            spare_args: Vec::new(),
            edit: Edit::default(),
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
        let mut prog = Program::default();
        self.gen_program_into(max_len, &mut prog);
        prog
    }

    /// [`Generator::gen_program`] into `out`, whatever it held: same
    /// draws, same program, in `out`'s storage (module docs).
    pub fn gen_program_into(&mut self, max_len: usize, out: &mut Program) {
        let Generator {
            lowered,
            rng,
            enabled,
            spare_args,
            ..
        } = self;
        cut(spare_args, out, 0);
        let want = rng.random_range(1..=max_len.max(1));
        for _ in 0..want {
            if enabled.is_empty() {
                break;
            }
            let pick = enabled[rng.random_range(0..enabled.len())];
            append_call(lowered, rng, spare_args, out, pick, 0);
            if out.len() >= max_len {
                break;
            }
        }
    }

    /// Mutate a program: regenerate an argument, append a call, or
    /// truncate. Returns a fresh program (input untouched). Pointees
    /// are shared, so each arm costs one refcount per kept argument,
    /// whatever the size of the trees behind them. Output and draws
    /// are bit-identical to
    /// [`crate::reference::AstGenerator::mutate`].
    pub fn mutate(&mut self, prog: &Program, max_len: usize) -> Program {
        let mut mutant = Program::default();
        self.mutate_into(prog, max_len, &mut mutant);
        mutant
    }

    /// [`Generator::mutate`] into `out`, whatever it held: same draws,
    /// same mutant, in `out`'s storage (module docs). The parent is
    /// copied call by call over the calls `out` already has, and the
    /// copy edited in place ([`Generator::mutate_in_place`]); the edit
    /// is kept.
    ///
    /// Returns the **divergence index**: the mutant's calls before it
    /// are the parent's, so an execution of the mutant may resume from
    /// the parent's state there ([`crate::exec::ExecPrefix`]). It is
    /// the edited call on the regenerate arm (the parent's length when
    /// that call takes no argument and nothing changed), the parent's
    /// length on the append arm, the kept length on the truncate arm,
    /// and 0 for a fresh program generated from an empty parent.
    pub fn mutate_into(&mut self, prog: &Program, max_len: usize, out: &mut Program) -> usize {
        copy_calls(&mut self.spare_args, &prog.calls, out);
        let mut edit = std::mem::take(&mut self.edit);
        let from = self.mutate_in_place(out, max_len, &mut edit);
        forget(&mut self.spare_args, &mut edit);
        self.edit = edit;
        from
    }

    /// Turn `prog` into its mutant where it lies: the draws, the
    /// mutant and the divergence index of [`Generator::mutate_into`]
    /// with `prog` as the parent, and what the edit changed kept in
    /// `edit`, for [`Generator::undo`] to put back. The regenerate arm
    /// swaps one argument for a new one, the append arm appends onto
    /// the parent, the truncate arm moves the calls it cuts into
    /// `edit`; a fresh program from an empty parent is an append onto
    /// nothing. An edit `edit` still holds is the mutant's to keep: it
    /// is forgotten first.
    pub fn mutate_in_place(
        &mut self,
        prog: &mut Program,
        max_len: usize,
        edit: &mut Edit,
    ) -> usize {
        forget(&mut self.spare_args, edit);
        edit.len = prog.len();
        if prog.is_empty() {
            self.gen_program_into(max_len, prog);
            return 0;
        }
        let Generator {
            lowered,
            rng,
            enabled,
            spare_args,
            ..
        } = self;
        match rng.random_range(0..10u32) {
            // Regenerate one argument of one call.
            0..=5 => {
                let ci = rng.random_range(0..prog.calls.len());
                let n_args = prog.calls[ci].args.len();
                if n_args == 0 {
                    return prog.len();
                }
                let ai = rng.random_range(0..n_args);
                let ty = lowered.syscall(prog.calls[ci].sys as usize).params[ai].ty;
                let value = gen_value(lowered, rng, ty, prog, ci, 0, false);
                let old = std::mem::replace(&mut prog.calls[ci].args[ai], value);
                edit.arg = Some((ci, ai, old));
                ci
            }
            // Append a random enabled call.
            6..=8 => {
                if !enabled.is_empty() && prog.len() < max_len {
                    let pick = enabled[rng.random_range(0..enabled.len())];
                    append_call(lowered, rng, spare_args, prog, pick, 0);
                }
                edit.len
            }
            // Truncate: the cut calls wait in the edit.
            _ => {
                let keep = rng.random_range(1..=prog.calls.len());
                edit.tail.extend(prog.calls.drain(keep..));
                keep
            }
        }
    }

    /// Put back the parent [`Generator::mutate_in_place`] edited
    /// `prog` from, `==` to what it was, every pointee the very `Arc`
    /// it held: the replaced argument goes back, the cut calls are
    /// appended again, an appended call is cut off, its emptied
    /// argument list going to the generator's spares. `edit` is left
    /// empty, its storage kept for the next edit.
    pub fn undo(&mut self, prog: &mut Program, edit: &mut Edit) {
        cut(&mut self.spare_args, prog, edit.len);
        prog.calls.append(&mut edit.tail);
        if let Some((ci, ai, old)) = edit.arg.take() {
            prog.calls[ci].args[ai] = old;
        }
    }

    /// Make `out` a copy of `prog`, in the storage it has and with
    /// argument lists from the generator's spares — what a mutant
    /// edited into its parent is copied out as when somebody keeps it.
    pub fn copy_into(&mut self, prog: &Program, out: &mut Program) {
        copy_calls(&mut self.spare_args, &prog.calls, out);
    }
}

/// What [`Generator::mutate_in_place`] changed in the program it
/// edited, for [`Generator::undo`] to put back. Storage the caller
/// keeps from one edit to the next: a truncation moves the calls it
/// cuts into it, not into a new list.
#[derive(Debug, Default)]
pub struct Edit {
    /// The program's length before the edit: what an append or a
    /// fresh program is cut back to.
    len: usize,
    /// The argument the regenerate arm replaced: call, argument, and
    /// the value it held.
    arg: Option<(usize, usize, Value)>,
    /// The calls the truncate arm cut off, in order.
    tail: Vec<ProgCall>,
}

/// Forget `edit`, which leaves the mutant as it is: the replaced
/// argument is dropped and the cut calls' emptied argument lists go to
/// `spare`.
fn forget(spare: &mut Vec<Vec<Value>>, edit: &mut Edit) {
    edit.arg = None;
    if !edit.tail.is_empty() {
        keep_spares(spare, edit.tail.drain(..));
    }
}

/// Cut `out` down to its first `len` calls; the emptied argument
/// lists of the rest go to `spare`.
fn cut(spare: &mut Vec<Vec<Value>>, out: &mut Program, len: usize) {
    keep_spares(spare, out.calls.drain(len.min(out.calls.len())..));
}

/// Empty the argument lists of `calls` into `spare` while it holds
/// fewer than [`MAX_SPARE_ARGS`].
fn keep_spares(spare: &mut Vec<Vec<Value>>, calls: impl Iterator<Item = ProgCall>) {
    for mut call in calls {
        if spare.len() < MAX_SPARE_ARGS {
            call.args.clear();
            spare.push(call.args);
        }
    }
}

/// Make `out` a copy of `calls`, in the storage it has: a call `out`
/// already holds is overwritten where it lies, a surplus one is
/// [`cut`], a missing one takes its argument list from `spare`.
fn copy_calls(spare: &mut Vec<Vec<Value>>, calls: &[ProgCall], out: &mut Program) {
    cut(spare, out, calls.len());
    let have = out.calls.len();
    for (to, from) in out.calls.iter_mut().zip(calls) {
        to.sys = from.sys;
        to.args.clone_from(&from.args);
    }
    out.calls.reserve(calls.len() - have);
    for from in &calls[have..] {
        let args = arg_list(spare, from.args.iter().cloned());
        out.calls.push(ProgCall {
            sys: from.sys,
            args,
        });
    }
}

/// An argument list holding `values`: a spare one refilled or, with
/// none to spare, a new one sized for them (what the by-value forms,
/// which bring no storage, always get).
fn arg_list(spare: &mut Vec<Vec<Value>>, values: impl Iterator<Item = Value>) -> Vec<Value> {
    match spare.pop() {
        Some(mut args) => {
            args.extend(values);
            args
        }
        None => values.collect(),
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

/// Append a call (prepending producers for its resources), its
/// argument list taken from `spare` when there is one.
fn append_call(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    spare: &mut Vec<Vec<Value>>,
    prog: &mut Program,
    sys_idx: u32,
    depth: usize,
) -> Option<usize> {
    if depth > 6 || prog.len() >= FULL_AT {
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
                    append_call(lowered, rng, spare, prog, pick, depth + 1);
                }
            }
        }
    }
    let values = sys.params.iter();
    let values = values.map(|p| gen_value(lowered, rng, p.ty, prog, prog.len(), 0, false));
    let args = arg_list(spare, values);
    prog.calls.push(ProgCall { sys: sys_idx, args });
    Some(prog.len() - 1)
}

/// Deepest `gen_value` nesting: anything below is `Int(0)`.
const MAX_DEPTH: usize = 12;

/// Generate a value for a lowered type, resolving resource references
/// against the first `upto` calls of `prog`. `drawn`: the value lies
/// inside an array of drawn length, behind no pointer since — its byte
/// runs are drawn a word at a time (module docs).
fn gen_value(
    lowered: &LoweredDb,
    rng: &mut StdRng,
    ty: kgpt_syzlang::lowered::TypeId,
    prog: &Program,
    upto: usize,
    depth: usize,
    drawn: bool,
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
                Value::ptr_to(gen_value(lowered, rng, elem, prog, upto, depth + 1, false))
            })
        }
        LType::Array {
            elem,
            len,
            byte_elem,
        } => {
            let n = draw_len(rng, len);
            let drawn = drawn || !matches!(len, ArrayLen::Fixed(_));
            // Byte arrays as raw buffers (cheaper, and what the
            // kernel decodes anyway).
            if byte_elem {
                let mut bytes = vec![0u8; n as usize];
                if drawn {
                    draw_words(rng, &mut bytes);
                } else {
                    draw_bytes(rng, &mut bytes);
                }
                return Value::Bytes(bytes);
            }
            let mut vs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                vs.push(gen_value(lowered, rng, elem, prog, upto, depth + 1, drawn));
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
                    .map(|f| gen_value(lowered, rng, f.ty, prog, upto, depth + 1, drawn))
                    .unwrap_or(Value::Int(0));
                Value::Union {
                    arm,
                    value: Box::new(v),
                }
            } else {
                let vs = def
                    .fields
                    .iter()
                    .map(|f| gen_value(lowered, rng, f.ty, prog, upto, depth + 1, drawn))
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
// consumes the same draws whichever form it is born in. The per-scalar
// rules are inlined into both: out of line, every draw would store and
// reload the generator's state.

#[inline(always)]
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

#[inline(always)]
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

/// A byte run outside any array of drawn length: one draw a byte.
fn draw_bytes(rng: &mut StdRng, dst: &mut [u8]) {
    for b in dst {
        *b = rng.random_range(0..=255u32) as u8;
    }
}

/// A byte run under an array of drawn length: one draw per eight
/// bytes, little-endian, the last word's unused bytes dropped.
fn draw_words(rng: &mut StdRng, dst: &mut [u8]) {
    let mut words = dst.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rest = words.into_remainder();
    if !rest.is_empty() {
        rest.copy_from_slice(&rng.next_u64().to_le_bytes()[..rest.len()]);
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
    #[inline]
    fn int(&mut self, range: Option<(u64, u64)>) -> u64 {
        draw_int(self.0, range)
    }

    #[inline]
    fn flags(&mut self, members: &[u64]) -> u64 {
        draw_flags(self.0, members)
    }

    #[inline]
    fn array_len(&mut self, len: ArrayLen) -> u64 {
        draw_len(self.0, len)
    }

    #[inline]
    fn bytes(&mut self, dst: &mut [u8]) {
        draw_bytes(self.0, dst);
    }

    #[inline]
    fn words(&mut self, dst: &mut [u8]) {
        draw_words(self.0, dst);
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

    /// Whatever the storage held — a longer program, a shorter one,
    /// nothing — the in-place forms make the draws of the by-value
    /// wrappers and leave their program in it: 10⁴ interleaved fresh
    /// and mutate steps per suite, the storage now and then taken away
    /// as an admission takes it, every mutate arm met with a parent of
    /// one call and of a full one.
    #[test]
    fn in_place_generation_equals_by_value_out_of_dirty_storage() {
        use kgpt_csrc::blueprint::Blueprint;
        const STEPS: usize = 10_000;
        let suites = [
            ("dm", vec![kgpt_csrc::flagship::dm()]),
            ("deep-chain", kgpt_csrc::deepchain::suite()),
            ("flagships", kgpt_csrc::flagship::all_flagships()),
        ];
        for (suite, blueprints) in suites {
            let kc = KernelCorpus::from_blueprints(blueprints);
            let specs = kc.blueprints().iter().map(Blueprint::ground_truth_spec);
            let db = SpecDb::from_files(specs.collect());
            let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
            let mut scout = Generator::from_lowered(Arc::clone(&lowered), 3);
            let mut sized = |len: usize| {
                let found = (0..20_000)
                    .map(|_| scout.gen_program(len))
                    .find(|p| p.len() == len);
                found.unwrap_or_else(|| panic!("{suite}: no program of {len} calls"))
            };
            let (single, full) = (sized(1), sized(FULL_AT));

            let mut by_value = Generator::from_lowered(Arc::clone(&lowered), 17);
            let mut in_place = Generator::from_lowered(Arc::clone(&lowered), 17);
            let mut storage = Program::default();
            let mut parents = vec![single, full];
            // [parent of one call, a full parent][regenerate, append, truncate]
            let mut arms = [[0u32; 3]; 2];
            // The storage was [longer than, shorter than, empty before] its program.
            let mut dirt = [0u32; 3];
            for step in 0..STEPS {
                let max_len = [4, 12, FULL_AT][step % 3];
                if step % 7 == 0 {
                    drop(std::mem::take(&mut storage));
                }
                let held = storage.len();
                let want = if step % 4 == 0 {
                    in_place.gen_program_into(max_len, &mut storage);
                    by_value.gen_program(max_len)
                } else {
                    let parent = &parents[(step / 4) % parents.len()];
                    let arm = match StdRng::from_state(by_value.rng_state()).random_range(0..10u32)
                    {
                        0..=5 => 0,
                        6..=8 => 1,
                        _ => 2,
                    };
                    match parent.len() {
                        1 => arms[0][arm] += 1,
                        FULL_AT => arms[1][arm] += 1,
                        _ => {}
                    }
                    in_place.mutate_into(parent, max_len, &mut storage);
                    by_value.mutate(parent, max_len)
                };
                assert_eq!(storage, want, "{suite} step {step}");
                assert_eq!(
                    in_place.rng_state(),
                    by_value.rng_state(),
                    "{suite} step {step}"
                );
                assert!(
                    in_place.spare_args.len() <= FULL_AT + 6,
                    "one program in flight"
                );
                match held {
                    0 => dirt[2] += 1,
                    n if n > want.len() => dirt[0] += 1,
                    n if n < want.len() => dirt[1] += 1,
                    _ => {}
                }
                // The two fixed parents stay; the rest turn over.
                if parents.len() < 24 {
                    parents.push(want);
                } else {
                    parents[2 + step % 22] = want;
                }
            }
            assert!(arms.iter().flatten().all(|n| *n > 0), "{suite}: {arms:?}");
            assert!(dirt.iter().all(|n| *n > 100), "{suite}: {dirt:?}");
        }
    }

    /// `mutate_into` returns the index its arm defines, and the mutant's
    /// calls before it are the parent's. The index wanted is drawn from
    /// a copy of the generator's stream, so an off-by-one on any arm —
    /// regenerate (and its edit of a call that takes no argument),
    /// append (onto a full parent too), truncate, the fresh program
    /// from an empty parent — fails.
    #[test]
    fn mutate_into_returns_the_index_the_mutant_diverges_at() {
        let (dm, consts) = dm_db();
        let bare = kgpt_syzlang::parse(
            "bare",
            "resource fd_b[fd]\nopenat$b(dir const[0], file ptr[in, string[\"/dev/b\"]], flags const[2], mode const[0]) fd_b\nioctl$B(fd fd_b, cmd const[3], arg ptr[in, array[int8]])\nsync$b()\n",
        )
        .unwrap();
        for (suite, db) in [("dm", dm), ("bare", SpecDb::from_files(vec![bare]))] {
            let lowered = Arc::new(LoweredDb::build(&db, &consts));
            let mut scout = Generator::from_lowered(Arc::clone(&lowered), 3);
            let full = (0..20_000)
                .map(|_| scout.gen_program(FULL_AT))
                .find(|p| p.len() == FULL_AT)
                .unwrap_or_else(|| panic!("{suite}: no full program"));
            let mut g = Generator::from_lowered(lowered, 11);
            let mut parents = vec![Program::default(), full];
            let mut storage = Program::default();
            // [fresh, regenerate, regenerate a call without arguments,
            // append, append onto a full parent, truncate]
            let mut arms = [0u32; 6];
            for step in 0..4_000 {
                let parent = &parents[step % parents.len()];
                let mut draws = StdRng::from_state(g.rng_state());
                let (arm, want) = match parent.len() {
                    0 => (0, 0),
                    len => match draws.random_range(0..10u32) {
                        0..=5 => match draws.random_range(0..len) {
                            ci if parent.calls[ci].args.is_empty() => (2, len),
                            ci => (1, ci),
                        },
                        6..=8 if len == FULL_AT => (4, len),
                        6..=8 => (3, len),
                        _ => (5, draws.random_range(1..=len)),
                    },
                };
                let from = g.mutate_into(parent, [4, 12, FULL_AT][step % 3], &mut storage);
                assert_eq!(from, want, "{suite} step {step}: arm {arm}");
                assert_eq!(
                    storage.calls[..from],
                    parent.calls[..from],
                    "{suite} step {step}: arm {arm}"
                );
                arms[arm] += 1;
                if parents.len() < 16 {
                    parents.push(storage.clone());
                } else {
                    parents[2 + step % 14] = storage.clone();
                }
            }
            let met = |arm: usize| arms[arm] > 0;
            assert!([0, 1, 3, 4, 5].into_iter().all(met), "{suite}: {arms:?}");
            assert!(suite == "dm" || met(2), "{suite}: {arms:?}");
        }
    }

    /// Whether every pointer of `a` holds the very pointee of `b`'s.
    fn same_pointees(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Ptr { pointee: Some(x) }, Value::Ptr { pointee: Some(y) }) => Arc::ptr_eq(x, y),
            (Value::Group(xs), Value::Group(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_pointees(x, y))
            }
            (Value::Union { value: x, .. }, Value::Union { value: y, .. }) => same_pointees(x, y),
            _ => true,
        }
    }

    /// A parent edited in place is the mutant `mutate_into` copies out
    /// of it: same calls, same divergence index, same draws. `undo` puts
    /// it back `==` to a clone taken before, every pointee the `Arc` it
    /// held. Over 200 seeds of dm and deep-chain (and a suite with a
    /// call of no argument), 20 steps a seed, the copy's storage, the
    /// edit and the spares dirty from the steps before; parents of one
    /// call, of `max_len` calls and of none among them, the mutants
    /// turning into parents. Every arm is met and undone: a truncate,
    /// an append onto a parent already at `max_len`, a regenerate of a
    /// call without arguments.
    #[test]
    fn a_mutant_edited_into_its_parent_is_mutate_into_and_undo_puts_the_parent_back() {
        use kgpt_csrc::blueprint::Blueprint;
        let (_, consts) = dm_db();
        let bare = kgpt_syzlang::parse(
            "bare",
            "resource fd_b[fd]\nopenat$b(dir const[0], file ptr[in, string[\"/dev/b\"]], flags const[2], mode const[0]) fd_b\nioctl$B(fd fd_b, cmd const[3], arg ptr[in, array[int8]])\nsync$b()\n",
        )
        .unwrap();
        let suites = [
            ("dm", vec![kgpt_csrc::flagship::dm()]),
            ("deep-chain", kgpt_csrc::deepchain::suite()),
        ];
        let mut dbs: Vec<(&str, SpecDb, ConstDb)> = suites
            .into_iter()
            .map(|(suite, blueprints)| {
                let kc = KernelCorpus::from_blueprints(blueprints);
                let specs = kc.blueprints().iter().map(Blueprint::ground_truth_spec);
                (
                    suite,
                    SpecDb::from_files(specs.collect()),
                    kc.consts().clone(),
                )
            })
            .collect();
        dbs.push(("bare", SpecDb::from_files(vec![bare]), consts));
        for (suite, db, consts) in dbs {
            let lowered = Arc::new(LoweredDb::build(&db, &consts));
            // [regenerate, regenerate a call without arguments, append,
            // append onto a parent at `max_len`, truncate, fresh]
            let mut arms = [0u32; 6];
            let mut storage = Program::default();
            let mut edit = Edit::default();
            for seed in 0..200u64 {
                let mut by_copy = Generator::from_lowered(Arc::clone(&lowered), seed);
                let mut in_place = Generator::from_lowered(Arc::clone(&lowered), seed);
                let mut scout = Generator::from_lowered(Arc::clone(&lowered), !seed);
                let mut parents = vec![Program::default(), scout.gen_program(1)];
                parents.extend((0..4).map(|_| scout.gen_program(12)));
                for step in 0..20 {
                    let max_len = [1, 4, 12][step % 3];
                    if step % 7 == 3 {
                        drop(std::mem::take(&mut storage));
                    }
                    let at = (step * 5 + seed as usize) % parents.len();
                    let parent = &mut parents[at];
                    let before = parent.clone();
                    let mut draws = StdRng::from_state(in_place.rng_state());
                    let arm = match before.len() {
                        0 => 5,
                        len => match draws.random_range(0..10u32) {
                            0..=5 => match draws.random_range(0..len) {
                                ci if before.calls[ci].args.is_empty() => 1,
                                _ => 0,
                            },
                            6..=8 if len >= max_len => 3,
                            6..=8 => 2,
                            _ => 4,
                        },
                    };
                    arms[arm] += 1;
                    let ctx = format!("{suite} seed {seed} step {step}: arm {arm}");
                    let want = by_copy.mutate_into(&before, max_len, &mut storage);
                    let from = in_place.mutate_in_place(parent, max_len, &mut edit);
                    assert_eq!(*parent, storage, "{ctx}");
                    assert_eq!(from, want, "{ctx}");
                    assert_eq!(in_place.rng_state(), by_copy.rng_state(), "{ctx}");
                    in_place.undo(parent, &mut edit);
                    assert_eq!(*parent, before, "{ctx}");
                    let calls = parent.calls.iter().zip(&before.calls);
                    let args = calls.flat_map(|(p, b)| p.args.iter().zip(&b.args));
                    assert!(args.into_iter().all(|(p, b)| same_pointees(p, b)), "{ctx}");
                    if step % 2 == 1 && !storage.is_empty() {
                        parents.push(storage.clone());
                    }
                }
            }
            let met = |arm: usize| arms[arm] > 0;
            assert!([0, 2, 3, 4, 5].into_iter().all(met), "{suite}: {arms:?}");
            assert!(suite != "bare" || met(1), "{suite}: {arms:?}");
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
