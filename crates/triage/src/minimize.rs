//! Deterministic ddmin-style reproducer minimization.
//!
//! The minimizer shrinks a crashing [`Program`] to a **1-minimal**
//! call sequence: removing any single remaining call loses the crash.
//! It owns no execution machinery — candidates are judged by a caller
//! supplied oracle (`FnMut(&Program) -> bool`, "does this still
//! trigger the target signature?"), so the fuzzer can replay through
//! its allocation-reusing lowered `ExecScratch` path while this crate
//! stays independent of the fuzzing loop.
//!
//! Dropping calls invalidates the [`ResRef`] producer indices of the
//! survivors; [`project`] remaps every reference against the kept
//! index set (references to removed producers become dangling and
//! fall back to their recorded fallback value, exactly like a
//! generated dangling reference). The whole pass is a pure function
//! of `(program, oracle)` — no randomness, no clocks — which is what
//! lets the sharded campaign run it at epoch boundaries in shard-id
//! order and stay bit-identical at any thread count.

use kgpt_syzlang::prog::{ProgCall, Program};
use kgpt_syzlang::stage::{self, Stage};
use kgpt_syzlang::value::ResRef;
use kgpt_syzlang::Value;

/// Result of a minimization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeOutcome {
    /// The 1-minimal program (still triggers the oracle).
    pub program: Program,
    /// Oracle invocations (candidate replays) the search spent.
    pub execs: u64,
}

/// Keep only the calls at `keep` (ascending indices into
/// `prog.calls`), remapping every [`ResRef`] producer index of the
/// survivors: a reference to a kept call follows it to its new
/// position, a reference to a removed call becomes dangling (its
/// fallback value is preserved).
#[must_use]
pub fn project(prog: &Program, keep: &[usize]) -> Program {
    let mut out = Program::default();
    project_into(prog, keep, &mut out);
    out
}

/// [`project`], written over `out`: its call list and each call's
/// argument list are overwritten in place, the way
/// `Generator::mutate_into` builds a mutant. A list that must grow
/// grows to what `prog` could need — all its calls, each as wide as its
/// widest — so projecting `prog` or any projection of it into `out`
/// again allocates nothing while `out` keeps its calls. What it
/// allocates besides is a pointee that holds a [`ResRef`]: its remapped
/// tree is a new value (any other pointee is shared with `prog`).
pub fn project_into(prog: &Program, keep: &[usize], out: &mut Program) {
    out.calls.truncate(keep.len());
    let new_index = |i| keep.binary_search(&i).ok();
    write_calls(prog, keep, out, &mut Vec::new(), |v| {
        remap_value(v, &new_index)
    });
}

/// The calls of `prog` at `keep` over the calls `out` holds — no more
/// than `keep` names — each argument through `arg`; a call `out` lacks
/// takes its argument list from `spare` while it has one. The body of
/// [`project_into`], storage rule included.
fn write_calls(
    prog: &Program,
    keep: &[usize],
    out: &mut Program,
    spare: &mut Vec<Vec<Value>>,
    arg: impl Fn(&Value) -> Value,
) {
    debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep ascends");
    let widest = prog.calls.iter().map(|c| c.args.len()).max().unwrap_or(0);
    let calls = &mut out.calls;
    if calls.capacity() < keep.len() {
        calls.reserve_exact(prog.len() - calls.len());
    }
    for (at, &i) in keep.iter().enumerate() {
        let src = &prog.calls[i];
        if at == calls.len() {
            let args = spare.pop().unwrap_or_else(|| Vec::with_capacity(widest));
            calls.push(ProgCall { sys: src.sys, args });
        }
        let dst = &mut calls[at];
        dst.sys = src.sys;
        dst.args.clear();
        if dst.args.capacity() < src.args.len() {
            dst.args.reserve_exact(widest);
        }
        dst.args.extend(src.args.iter().map(&arg));
    }
}

/// What a search keeps between probes: the candidate buffer, the index
/// list of the calls it keeps and the index map it inverts to (a call's
/// position in the candidate, by its position in the program
/// projected), and a pool of argument lists for the calls a candidate
/// grows by, which takes back the lists of the calls a candidate is
/// cut by.
struct Kept {
    candidate: Program,
    keep: Vec<usize>,
    map: Vec<Option<usize>>,
    spare: Vec<Vec<Value>>,
}

impl Kept {
    /// Storage for the search over `prog` and its projections, made up
    /// front: a candidate holds fewer calls than `prog`, so the pool
    /// starts with a list as wide as `prog`'s widest call for each of
    /// them, with room for every list the search will hold (its base
    /// program's too).
    fn for_program(prog: &Program) -> Kept {
        let widest = prog.calls.iter().map(|c| c.args.len()).max().unwrap_or(0);
        let mut spare = Vec::with_capacity(2 * prog.len());
        spare.extend((1..prog.len()).map(|_| Vec::with_capacity(widest)));
        Kept {
            candidate: Program::default(),
            keep: Vec::with_capacity(prog.len()),
            map: Vec::with_capacity(prog.len()),
            spare,
        }
    }

    /// [`project_into`] of `prog` at `keep` over the candidate, its cut
    /// calls' argument lists kept.
    fn project(&mut self, prog: &Program) {
        let _span = stage::span(Stage::Project);
        let Kept {
            candidate,
            keep,
            map,
            spare,
        } = self;
        map.clear();
        map.resize(prog.len(), None);
        for (at, &i) in keep.iter().enumerate() {
            map[i] = Some(at);
        }
        if candidate.calls.len() > keep.len() {
            spare.extend(candidate.calls.drain(keep.len()..).map(|mut c| {
                c.args.clear();
                c.args
            }));
        }
        let new_index = |i| map.get(i).copied().flatten();
        write_calls(prog, keep, candidate, spare, |v| remap_value(v, &new_index));
    }
}

/// The program with call `idx` removed (references remapped) — the
/// single-removal probe 1-minimality is defined by.
#[must_use]
pub fn without_call(prog: &Program, idx: usize) -> Program {
    let keep: Vec<usize> = (0..prog.len()).filter(|&i| i != idx).collect();
    project(prog, &keep)
}

/// `v` with every producer index `i` remapped to `new_index(i)` (its
/// position among the kept calls, `None` for a call not kept).
fn remap_value(v: &Value, new_index: &impl Fn(usize) -> Option<usize>) -> Value {
    match v {
        Value::Res(r) => Value::Res(ResRef {
            producer: r.producer.and_then(new_index),
            fallback: r.fallback,
        }),
        Value::Group(vs) => Value::Group(vs.iter().map(|v| remap_value(v, new_index)).collect()),
        Value::Union { arm, value } => Value::Union {
            arm: *arm,
            value: Box::new(remap_value(value, new_index)),
        },
        // Only a pointee that holds a reference needs rebuilding; any
        // other is shared with the input.
        Value::Ptr { pointee: Some(p) } if p.has_res() => Value::ptr_to(remap_value(p, new_index)),
        Value::Ptr { .. } | Value::Int(_) | Value::Bytes(_) => v.clone(),
    }
}

/// Minimize `prog` to a 1-minimal reproducer under `reproduces`.
///
/// `reproduces` must hold for `prog` itself (the captured reproducer
/// crashed when it was observed); if it does not — e.g. an oracle
/// judging a different signature — the input is returned unchanged
/// after one probe.
///
/// The search is the classic two-phase delta debugging shape:
///
/// 1. **chunk phase** — try removing contiguous chunks, halving the
///    chunk size from `len/2` down to 1; every successful removal
///    restarts scanning at the same granularity;
/// 2. **fixpoint phase** — at granularity 1, keep sweeping single
///    removals until a full sweep removes nothing.
///
/// Termination of phase 2 is the 1-minimality proof: the final sweep
/// witnessed every single-call removal failing to reproduce.
///
/// **Candidates are built in kept storage.** The search holds two
/// programs — the current reproducer and one candidate buffer — one
/// index list and one index map; every candidate is projected over the
/// buffer ([`project_into`]'s storage rule) and an accepted one is
/// swapped with the current program, whose storage becomes the next
/// candidate's. What the search holds is sized from `prog` before its
/// first probe, so once the first candidate has been built a probe
/// allocates only for the pointees holding a [`ResRef`] it rebuilds
/// (`tests/alloc_count.rs` pins none on reproducers with no such
/// pointee). The guided search's pruned candidate is swapped in as the
/// base the same way.
pub fn minimize<F>(prog: &Program, reproduces: F) -> MinimizeOutcome
where
    F: FnMut(&Program) -> bool,
{
    minimize_guided(prog, &TraceGuide::default(), reproduces)
}

/// The search of [`minimize`] from `current`, which reproduces (the
/// probe that said so is in `execs`), building each candidate in
/// `kept`.
fn shrink<F>(
    mut current: Program,
    kept: &mut Kept,
    reproduces: &mut F,
    mut execs: u64,
) -> MinimizeOutcome
where
    F: FnMut(&Program) -> bool,
{
    // Chunk phase.
    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 {
        let mut start = 0usize;
        while start < current.len() && current.len() > 1 {
            let end = (start + chunk).min(current.len());
            kept.keep.clear();
            kept.keep
                .extend((0..current.len()).filter(|&i| i < start || i >= end));
            kept.project(&current);
            execs += 1;
            if !kept.candidate.is_empty() && reproduces(&kept.candidate) {
                std::mem::swap(&mut current, &mut kept.candidate);
                // Do not advance: the next chunk slid into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    // Fixpoint phase: sweep single removals until nothing shrinks.
    loop {
        let mut shrunk = false;
        let mut i = 0usize;
        while i < current.len() && current.len() > 1 {
            kept.keep.clear();
            kept.keep.extend((0..current.len()).filter(|&k| k != i));
            kept.project(&current);
            execs += 1;
            if reproduces(&kept.candidate) {
                std::mem::swap(&mut current, &mut kept.candidate);
                shrunk = true;
                // The call that slid into position `i` is probed next.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    MinimizeOutcome {
        program: current,
        execs,
    }
}

/// Per-call execution profile distilled from a flight-recorder trace
/// of the crashing execution — the hints [`minimize_guided`] prunes
/// with before falling back to the blind ddmin search.
///
/// All hints are advisory: the guided search verifies every pruned
/// candidate through the caller's oracle before trusting it, so a
/// stale or mismatched guide can only cost probes, never correctness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceGuide {
    /// Index of the call the crash fired under, when the trace
    /// recorded one.
    pub crash_call: Option<usize>,
    /// Blocks each call retired (0 = the call touched no kernel code
    /// the recorder saw — skipped, mis-encoded, or a no-coverage
    /// error path).
    pub call_blocks: Vec<u64>,
    /// Whether each call returned an error (`ret < 0`).
    pub call_errs: Vec<bool>,
}

/// [`minimize`] with a flight-recorder head start: before the ddmin
/// phases, build one pruned candidate dropping every call *after* the
/// crashing call plus every earlier call whose trace shows it both
/// retired zero blocks and failed — calls that provably contributed
/// nothing to the state the crash depends on. The candidate is
/// verified through `reproduces`; if it does not reproduce (the guide
/// was stale or mismatched) the search simply starts from the
/// original program, so the result is exactly as 1-minimal as the
/// unguided search — the guide only saves oracle probes.
///
/// A guide whose vectors do not match `prog.len()` (or with no
/// recorded crash call) is ignored.
pub fn minimize_guided<F>(prog: &Program, guide: &TraceGuide, mut reproduces: F) -> MinimizeOutcome
where
    F: FnMut(&Program) -> bool,
{
    let mut execs = 0u64;
    let mut kept = Kept::for_program(prog);
    let mut pruned = false;
    if let Some(cc) = guide.crash_call {
        if cc < prog.len()
            && guide.call_blocks.len() == prog.len()
            && guide.call_errs.len() == prog.len()
        {
            kept.keep.extend(
                (0..=cc).filter(|&i| i == cc || guide.call_blocks[i] > 0 || !guide.call_errs[i]),
            );
            if kept.keep.len() < prog.len() {
                kept.project(prog);
                execs += 1;
                pruned = !kept.candidate.is_empty() && reproduces(&kept.candidate);
            }
        }
    }
    // The base: the pruned candidate, swapped in, or a copy of `prog`
    // in storage its candidates fit.
    let mut base = Program::default();
    if pruned {
        std::mem::swap(&mut base, &mut kept.candidate);
    } else {
        kept.keep.clear();
        kept.keep.extend(0..prog.len());
        write_calls(prog, &kept.keep, &mut base, &mut Vec::new(), Value::clone);
    }
    execs += 1;
    if !reproduces(&base) {
        return MinimizeOutcome {
            program: base,
            execs,
        };
    }
    shrink(base, &mut kept, &mut reproduces, execs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn call(sys: u32, args: Vec<Value>) -> ProgCall {
        ProgCall { sys, args }
    }

    fn prog_of(sys: &[u32]) -> Program {
        Program {
            calls: sys.iter().map(|&s| call(s, vec![])).collect(),
        }
    }

    /// Oracle: reproduces iff the call stream contains every syscall
    /// id in `need` (in any order).
    fn contains_all(need: &[u32]) -> impl Fn(&Program) -> bool + '_ {
        move |p: &Program| {
            let have: BTreeSet<u32> = p.calls.iter().map(|c| c.sys).collect();
            need.iter().all(|n| have.contains(n))
        }
    }

    #[test]
    fn minimizes_to_exactly_the_needed_calls() {
        let p = prog_of(&[9, 1, 8, 2, 7, 3, 6, 5, 4, 1, 2]);
        let need = [1u32, 2, 3];
        let out = minimize(&p, contains_all(&need));
        let got: Vec<u32> = out.program.calls.iter().map(|c| c.sys).collect();
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(contains_all(&need)(&out.program));
        assert!(out.execs > 0);
    }

    #[test]
    fn result_is_one_minimal() {
        // Every single-call removal of the minimized program must lose
        // the crash — the definition the fixpoint phase enforces.
        let p = prog_of(&[5, 1, 5, 2, 5, 3, 5, 4, 5]);
        let need = [1u32, 2, 3, 4];
        let out = minimize(&p, contains_all(&need));
        assert_eq!(out.program.len(), 4);
        for i in 0..out.program.len() {
            let probe = without_call(&out.program, i);
            assert!(
                !contains_all(&need)(&probe),
                "removing call {i} should lose the crash"
            );
        }
    }

    #[test]
    fn repeat_style_oracles_keep_every_copy() {
        // An oracle needing three copies of call 7 (the Repeat-trigger
        // shape) must keep exactly three.
        let oracle = |p: &Program| p.calls.iter().filter(|c| c.sys == 7).count() >= 3;
        let p = prog_of(&[7, 0, 7, 0, 0, 7, 7, 7, 0]);
        let out = minimize(&p, oracle);
        assert_eq!(out.program.len(), 3);
        assert!(out.program.calls.iter().all(|c| c.sys == 7));
    }

    #[test]
    fn non_reproducing_input_is_returned_unchanged() {
        let p = prog_of(&[1, 2, 3]);
        let out = minimize(&p, |_| false);
        assert_eq!(out.program, p);
        assert_eq!(out.execs, 1);
    }

    #[test]
    fn minimization_is_deterministic() {
        let p = prog_of(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
        let a = minimize(&p, contains_all(&[1, 5]));
        let b = minimize(&p, contains_all(&[1, 5]));
        assert_eq!(a, b);
    }

    #[test]
    fn guided_minimization_prunes_with_a_correct_trace() {
        // Crash under call 6; calls 1, 3 and 5 retired no blocks and
        // errored — the guide prunes them (and everything past the
        // crash) in a single verified probe before ddmin runs.
        let p = prog_of(&[1, 0, 2, 0, 3, 0, 4, 9, 9]);
        let need = [1u32, 2, 3, 4];
        let guide = TraceGuide {
            crash_call: Some(6),
            call_blocks: vec![5, 0, 5, 0, 5, 0, 5, 0, 0],
            call_errs: vec![false, true, false, true, false, true, false, true, true],
        };
        let guided = minimize_guided(&p, &guide, contains_all(&need));
        let blind = minimize(&p, contains_all(&need));
        assert_eq!(guided.program, blind.program, "same 1-minimal result");
        assert!(
            guided.execs < blind.execs,
            "guide saved nothing: {} vs {}",
            guided.execs,
            blind.execs
        );
    }

    #[test]
    fn guided_minimization_survives_a_wrong_guide() {
        // A guide claiming the needed calls are inert: the pruned
        // candidate fails the oracle, the search falls back to the
        // original program, and the result is still 1-minimal.
        let p = prog_of(&[9, 1, 8, 2, 7, 3]);
        let need = [1u32, 2, 3];
        let guide = TraceGuide {
            crash_call: Some(5),
            call_blocks: vec![9, 0, 9, 0, 9, 9],
            call_errs: vec![false, true, false, true, false, false],
        };
        let out = minimize_guided(&p, &guide, contains_all(&need));
        assert!(contains_all(&need)(&out.program));
        assert_eq!(out.program.len(), 3);
        for i in 0..out.program.len() {
            assert!(!contains_all(&need)(&without_call(&out.program, i)));
        }
    }

    #[test]
    fn mismatched_or_empty_guides_are_ignored() {
        let p = prog_of(&[9, 1, 8, 2]);
        let need = [1u32, 2];
        let blind = minimize(&p, contains_all(&need));
        // Wrong vector lengths.
        let bad = TraceGuide {
            crash_call: Some(3),
            call_blocks: vec![1],
            call_errs: vec![false],
        };
        assert_eq!(minimize_guided(&p, &bad, contains_all(&need)), blind);
        // No crash call recorded.
        assert_eq!(
            minimize_guided(&p, &TraceGuide::default(), contains_all(&need)),
            blind
        );
        // Crash call out of range.
        let oob = TraceGuide {
            crash_call: Some(99),
            call_blocks: vec![1, 1, 1, 1],
            call_errs: vec![false; 4],
        };
        assert_eq!(minimize_guided(&p, &oob, contains_all(&need)), blind);
    }

    #[test]
    fn projection_remaps_producers_and_dangles_removed_ones() {
        // prog: [open(0), ioctl(1)->res 0, ioctl(2)->res 0]
        let res = |producer| {
            Value::Res(ResRef {
                producer,
                fallback: 42,
            })
        };
        let p = Program {
            calls: vec![
                call(0, vec![]),
                call(1, vec![res(Some(0))]),
                call(
                    2,
                    vec![Value::ptr_to(Value::Group(vec![
                        res(Some(0)),
                        res(Some(1)),
                    ]))],
                ),
            ],
        };
        // Keep calls 0 and 2: the ref to call 0 follows it to index 0,
        // the ref to removed call 1 dangles (fallback preserved).
        let q = project(&p, &[0, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.calls[1].sys, 2);
        let refs = q.calls[1].args[0].res_refs();
        assert_eq!(refs[0].producer, Some(0));
        assert_eq!(refs[1].producer, None);
        assert_eq!(refs[1].fallback, 42);
        // Dropping the producer instead: the surviving ref dangles.
        let q = project(&p, &[1, 2]);
        assert_eq!(q.calls[0].args[0].res_refs()[0].producer, None);
        assert_eq!(q.calls[1].args[0].res_refs()[1].producer, Some(0));
    }
}
