//! Heap-allocation accounting for the execution hot path.
//!
//! Installs a counting global allocator and measures how many
//! allocations one steady-state `execute_with` pass performs on the
//! lowered-IR path versus the pre-lowering AST walk. The AST encoder
//! clones a `StructDef` per struct-typed encode and resolves symbolic
//! constants and flag sets through name-keyed maps; the lowered path
//! only allocates while a pooled buffer grows past its high-water
//! mark. The measured numbers are recorded in EXPERIMENTS.md — rerun
//! this test with `--nocapture` to refresh them.
//!
//! A second test counts what a *mutant* costs: programs share their
//! pointees, so a mutation that touches no pointer argument allocates
//! per call, not per node of the trees behind the calls.
//!
//! A third holds the kernel to its crate doc: at steady state an exec
//! — encode, dispatch, fd table, per-fd history, coverage, a filed
//! crash report — touches the allocator not at all.

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{
    ast_execute_with, execute_with, AstScratch, ExecScratch, Generator, Program,
};
use kernelgpt::syzlang::{SpecDb, Value};
use kernelgpt::vkernel::VKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts allocation events (alloc + realloc); frees are not counted
/// — the metric is allocator traffic, not live bytes.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates everything to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// The counter is process-wide: each test holds this while it counts,
/// so no parallel test thread pollutes the other's numbers.
static COUNTING: Mutex<()> = Mutex::new(());

/// Shards, the hub and the fabric move programs across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
};

/// At steady state the lowered exec loop performs strictly fewer
/// allocations per exec than the AST walk, with identical outcomes.
#[test]
fn lowered_exec_allocates_less_than_ast_walk() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let kernel = VKernel::boot(vec![kernelgpt::csrc::flagship::dm()]);
    let mut g = Generator::new(&db, kc.consts(), 17);
    let progs: Vec<Program> = (0..256).map(|_| g.gen_program(8)).collect();
    let execs = progs.len() as u64;

    let mut low = ExecScratch::new(&db, kc.consts());
    let mut ast = AstScratch::new(&db, kc.consts());
    // Warm-up: let every pooled buffer reach its high-water mark.
    for p in &progs {
        execute_with(&kernel, p, &mut low);
        ast_execute_with(&kernel, p, &mut ast);
    }

    let before = events();
    for p in &progs {
        execute_with(&kernel, p, &mut low);
    }
    let lowered_events = events() - before;

    let before = events();
    for p in &progs {
        ast_execute_with(&kernel, p, &mut ast);
    }
    let ast_events = events() - before;

    println!(
        "alloc events over {execs} execs: lowered {lowered_events} ({:.1}/exec) vs ast {ast_events} ({:.1}/exec)",
        lowered_events as f64 / execs as f64,
        ast_events as f64 / execs as f64,
    );
    // Whatever the lowered path still allocates is buffer growth past
    // a high-water mark, not per-exec bookkeeping: well under the AST
    // walk's.
    assert!(
        lowered_events < ast_events,
        "lowered path must allocate less: {lowered_events} vs {ast_events}"
    );
}

/// Elements of the longest array anywhere in `v`.
fn longest_group(v: &Value) -> usize {
    match v {
        Value::Group(vs) => vs
            .iter()
            .map(longest_group)
            .max()
            .unwrap_or(0)
            .max(vs.len()),
        Value::Union { value, .. } => longest_group(value),
        Value::Ptr { pointee: Some(p) } => longest_group(p),
        _ => 0,
    }
}

/// Whether every non-null pointer argument of `mutant` is the very
/// pointee `parent` holds at the same position: the mutation built no
/// argument tree of its own.
fn shares_every_pointee(mutant: &Program, parent: &Program) -> bool {
    mutant.calls.iter().zip(&parent.calls).all(|(m, p)| {
        m.args.iter().zip(&p.args).all(|pair| match pair {
            (Value::Ptr { pointee: Some(a) }, Value::Ptr { pointee: Some(b) }) => Arc::ptr_eq(a, b),
            (Value::Ptr { pointee: Some(_) }, _) => false,
            _ => true,
        })
    })
}

/// Mutating a dm program whose `targets` array has thousands of
/// elements, and dropping the mutant, costs allocation events in
/// proportion to its calls on the truncate arm and on the regenerate
/// arm when a scalar argument (`fd`, `cmd`) is the one redrawn — not in
/// proportion to the ~10 000 nodes behind its `arg` pointers, which a
/// deep clone would copy and a deep drop would free.
#[test]
fn a_mutant_that_keeps_every_pointee_costs_allocations_per_call_not_per_node() {
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let mut g = Generator::new(&db, kc.consts(), 29);
    let parent = std::iter::repeat_with(|| g.gen_program(8))
        .take(2_000)
        .find(|p| {
            p.len() >= 2
                && p.calls
                    .iter()
                    .flat_map(|c| &c.args)
                    .any(|a| longest_group(a) >= 2_048)
        })
        .expect("no dm program with a >= 2048-element array in 2000 draws");

    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (mut truncated, mut redrawn, mut worst) = (0u32, 0u32, 0u64);
    for _ in 0..400 {
        let before = events();
        let mutant = g.mutate(&parent, 8);
        let keeps_all = mutant.len() <= parent.len() && shares_every_pointee(&mutant, &parent);
        truncated += u32::from(keeps_all && mutant.len() < parent.len());
        redrawn += u32::from(keeps_all && mutant.len() == parent.len() && mutant != parent);
        drop(mutant);
        let cost = events() - before;
        if keeps_all {
            worst = worst.max(cost);
            assert!(cost < 64, "{cost} allocation events for one cheap mutant");
        }
    }
    println!(
        "cheap mutants: {truncated} truncated, {redrawn} scalar redraws, worst {worst} events"
    );
    assert!(truncated > 0, "the truncate arm never ran");
    assert!(redrawn > 0, "the regenerate arm never redrew a scalar");
}

/// After warm-up, executing recorded deep-chain programs — opens,
/// `CreatesFd` hops three deep, struct decodes, state machines — costs
/// no allocator event at all, crashing programs included: fd records
/// and their per-command counters live in per-worker arenas, the device
/// path is compared where it lies, and a crash report shares its
/// strings with the booted kernel.
#[test]
fn a_deep_chain_exec_allocates_nothing_in_the_kernel() {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let db = SpecDb::from_files(
        kc.blueprints()
            .iter()
            .map(Blueprint::ground_truth_spec)
            .collect(),
    );
    let kernel = VKernel::boot(deepchain::suite());
    let mut g = Generator::new(&db, kc.consts(), 41);
    let mut scratch = ExecScratch::new(&db, kc.consts());
    // Record what a campaign would run: fresh programs and chains of
    // their mutants, split by whether they crash.
    let (mut quiet, mut crashing) = (Vec::new(), Vec::new());
    let (mut fds, mut deepest) = (0usize, 0u8);
    while quiet.len() < 1_000 || crashing.len() < 100 {
        let mut prog = g.gen_program(10);
        for _ in 0..4 {
            execute_with(&kernel, &prog, &mut scratch);
            let next = g.mutate(&prog, 10);
            match scratch.crash() {
                Some(c) => {
                    deepest = deepest.max(c.signature.chain_depth);
                    crashing.push(prog);
                }
                None => {
                    fds += scratch.rets.iter().filter(|r| **r >= 3).count();
                    quiet.push(prog);
                }
            }
            prog = next;
        }
    }
    quiet.truncate(1_000);
    assert!(fds > 2_000, "the recorded programs mint too few fds: {fds}");
    assert!(deepest >= 3, "no crash deep in the chain: depth {deepest}");

    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    // Warm-up: pooled buffers reach their high-water marks and shared
    // pointees memoise their images.
    for p in quiet.iter().chain(&crashing) {
        execute_with(&kernel, p, &mut scratch);
    }
    let before = events();
    for p in &quiet {
        execute_with(&kernel, p, &mut scratch);
    }
    let quiet_events = events() - before;
    let before = events();
    for p in &crashing {
        execute_with(&kernel, p, &mut scratch);
        assert!(scratch.crash().is_some());
    }
    let crash_events = events() - before;
    println!(
        "alloc events: {quiet_events} over {} quiet execs, {crash_events} over {} crashing execs",
        quiet.len(),
        crashing.len()
    );
    assert_eq!(quiet_events, 0, "a non-crashing exec allocated");
    assert_eq!(crash_events, 0, "filing a crash report allocated");
}
