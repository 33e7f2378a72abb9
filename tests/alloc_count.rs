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
//! and in place — into the storage of the mutant before — a mutant that
//! redraws a scalar or drops a suffix costs no event at all. Two more
//! tests hold the whole loop to that: the benchmark's deep-chain
//! campaign costs under three events an exec, traced or not (the
//! parent commit, which built every program by value and freed it on
//! rejection, spent 13.3), and a converged shard's step costs events
//! for the pointees it draws anew and for an admission, none per call.
//!
//! A third holds the kernel to its crate doc: at steady state an exec
//! — encode, dispatch, fd table, per-fd history, coverage, a filed
//! crash report — touches the allocator not at all.
//!
//! The last two count what a *closed* pointee costs now that it is
//! born encoded: a call whose `targets` array has thousands of
//! elements is generated, executed, serialised and dropped for a
//! constant number of events, and a whole dm campaign stays at a few
//! events per exec — which it could not if anything on its path
//! unpacked a pointee's tree.
//!
//! The fabric's blocking path is held to the same kind of count: past
//! the boundary where admissions stop, writing a boundary from live
//! state, marking it, decoding, validating and committing it in place
//! cost a fixed number of events — the same with four times the
//! corpus, where one snapshot set costs events in proportion. (A
//! checkpointing campaign writes the same patch records into its
//! journal; the writer is private to `kgpt-fuzzer`, so its count —
//! a converged durable boundary costs the same events at four times
//! the corpus and with fifty more pinned traces a shard — sits beside
//! it, in `fuzzer/src/checkpoint.rs`'s tests, under that crate's own
//! counting allocator.)
//!
//! The paper's own pipeline is held to three counts. Validating a
//! valid suite costs a constant, not a term per item. A request to an
//! oracle model that has read its code before costs the same number
//! of events with ten times the chunks in it — the parses are shared,
//! not redone, copied or re-indexed name by name — and the C
//! front-end allocates for the tree it returns, not for the tokens it
//! read on the way.
//!
//! Events are counted per thread, so the tests of this binary (and
//! libtest's own threads) run in parallel without seeing each other.

use kernelgpt::csrc::ast::{walk_exprs, walk_stmts, CFile, CItemKind, Expr};
use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fabric::{DeltaPayload, Message};
use kernelgpt::fuzzer::{
    ast_execute_with, execute_with, AstGenerator, AstScratch, Campaign, CampaignConfig,
    CampaignMerge, Corpus, ExecPrefix, ExecScratch, Generator, HubSeed, LeaseRunner, Program,
    ShardedCampaign,
};
use kernelgpt::llm::protocol::{Prompt, Task};
use kernelgpt::llm::{ChatRequest, LanguageModel, ModelKind, OracleModel};
use kernelgpt::syzlang::{LoweredDb, SpecCache, SpecDb, Value};
use kernelgpt::vkernel::VKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

/// Counts the calling thread's allocation events (alloc + realloc);
/// frees are not counted — the metric is allocator traffic, not live
/// bytes.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates everything to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// This thread's events so far.
fn events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Shards, the hub and the fabric move programs across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
};

/// At steady state the lowered exec loop performs strictly fewer
/// allocations per exec than the AST walk, with identical outcomes.
#[test]
fn lowered_exec_allocates_less_than_ast_walk() {
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let kernel = VKernel::boot(vec![kernelgpt::csrc::flagship::dm()]);
    let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
    let mut g = Generator::from_lowered(Arc::clone(&lowered), 17);
    let progs: Vec<Program> = (0..256).map(|_| g.gen_program(8)).collect();
    let execs = progs.len() as u64;

    let mut low = ExecScratch::from_lowered(lowered);
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

/// Whether building `mutant` from `parent` drew nothing that owns
/// memory: every non-null pointer argument is the parent's own pointee
/// and every other argument — a call past the parent's last included —
/// is a scalar, a resource or a null pointer.
fn draws_no_pointee(mutant: &Program, parent: &Program) -> bool {
    let scalar = |v: &Value| {
        matches!(
            v,
            Value::Int(_) | Value::Res(_) | Value::Ptr { pointee: None }
        )
    };
    let kept = mutant.calls.iter().zip(&parent.calls).all(|(m, p)| {
        m.args.iter().zip(&p.args).all(|pair| match pair {
            (Value::Ptr { pointee: Some(a) }, Value::Ptr { pointee: Some(b) }) => Arc::ptr_eq(a, b),
            (m, _) => scalar(m),
        })
    });
    let appended = mutant.calls.iter().skip(parent.len());
    kept && appended.flat_map(|c| &c.args).all(scalar)
}

/// Mutating a dm program whose `targets` array has thousands of
/// elements, and dropping the mutant, costs allocation events in
/// proportion to its calls on the truncate arm and on the regenerate
/// arm when a scalar argument (`fd`, `cmd`) is the one redrawn — not in
/// proportion to the ~10 000 nodes behind its `arg` pointers, which a
/// deep clone would copy and a deep drop would free. Built in place,
/// into the storage of the mutant before it, the same mutant costs no
/// event at all.
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

    let (mut truncated, mut redrawn, mut worst) = (0u32, 0u32, 0u64);
    for _ in 0..400 {
        let before = events();
        let mutant = g.mutate(&parent, 8);
        let keeps_all = mutant.len() <= parent.len() && draws_no_pointee(&mutant, &parent);
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

    // In place: a few mutants first, so the storage and the generator's
    // spare argument lists have held the longest of them.
    let mut storage = Program::default();
    for _ in 0..50 {
        g.mutate_into(&parent, 8, &mut storage);
    }
    let (mut truncated, mut redrawn) = (0u32, 0u32);
    for _ in 0..400 {
        let before = events();
        g.mutate_into(&parent, 8, &mut storage);
        let cost = events() - before;
        if draws_no_pointee(&storage, &parent) {
            truncated += u32::from(storage.len() < parent.len());
            redrawn += u32::from(storage.len() == parent.len() && storage != parent);
            assert_eq!(cost, 0, "a mutant of {} calls, in place", storage.len());
        }
    }
    assert!(
        truncated > 0 && redrawn > 0,
        "{truncated} truncated, {redrawn} redrawn in place"
    );
}

/// The benchmark's deep-chain campaign (`deepchain_sharded`, and with
/// the ring on the campaign under `deepchain_durable`): 8 shards on
/// one thread, epochs of 128, programs of up to 12 calls, 50 000
/// execs. One program goes round each shard's loop, so an exec costs
/// the allocator the pointees it draws anew — about one, an `Arc` and
/// its image — and, once in 200, an admission: 2.26 events an exec
/// untraced and 2.45 traced (the difference is set-up, first pins and
/// the final sealing of eight rings, not the steady state:
/// `tests/trace_alloc.rs`), where the commit before spent 13.3 and
/// 13.4 building every program by value and freeing it on rejection.
///
/// Mutants now run from their parent's state, recorded as the parent's
/// mutants run: each corpus entry's states are stored once, and grow
/// no further than the entry's calls. The count may rise over what it
/// was before (2.27106 and 2.49206 events an exec, at 135 entries) by
/// at most the storage of every entry's states, each at most what
/// recording all the states of the dearest deep-chain program or
/// mutant of it costs with tracing on.
#[test]
fn a_deep_chain_exec_costs_a_pointee_not_a_program() {
    const EXECS: u64 = 50_000;
    /// Events of the whole campaign, ring 0 and ring 32, before mutants
    /// resumed.
    const BEFORE_RESUMING: [u64; 2] = [113_553, 124_603];
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    let dearest_states = {
        let db = SpecCache::global().get_or_build(&suite);
        let lowered = SpecCache::global().get_or_lower(&db, kc.consts());
        let mut g = Generator::from_lowered(Arc::clone(&lowered), 13);
        let mut scratch = ExecScratch::from_lowered(lowered);
        scratch.state.trace_mut().set_enabled(true);
        let mut dearest = 0;
        for _ in 0..200 {
            let mut prog = g.gen_program(12);
            for _ in 0..4 {
                execute_with(&kernel, &prog, &mut scratch);
                let before = events();
                let mut prefix = Box::new(ExecPrefix::new(&scratch));
                prefix.restore(prog.len(), &mut scratch);
                prefix.run(&kernel, &prog, &mut scratch, prog.len());
                assert_eq!(prefix.len(), prog.len());
                drop(black_box(prefix));
                dearest = dearest.max(events() - before);
                prog = g.mutate(&prog, 12);
            }
        }
        dearest
    };
    let campaign = |execs: u64, trace_ring: usize| {
        let config = CampaignConfig {
            execs,
            seed: 7,
            max_prog_len: 12,
            hub_epoch: 128,
            hub_top_k: 4,
            trace_ring,
            ..CampaignConfig::default()
        };
        ShardedCampaign::new(&kernel, &suite, kc.consts(), config)
            .with_shards(8)
            .with_threads(1)
    };
    // Compile and lower the suite into the global cache first.
    let _ = campaign(10, 0).run();
    for (ring, before_resuming) in [0, 32].into_iter().zip(BEFORE_RESUMING) {
        let before = events();
        let (result, stores) = campaign(EXECS, ring).run_traced();
        let spent = events() - before;
        let per_exec = spent as f64 / EXECS as f64;
        // No eviction at this size: a shard held each entry it ends with.
        let states_bound = result.corpus_size as u64 * dearest_states;
        println!(
            "deep-chain campaign, ring {ring}: {per_exec:.2} allocation events per exec; \
             {} over the count before resuming, at most {} entries x {dearest_states}",
            spent as i64 - before_resuming as i64,
            result.corpus_size
        );
        assert_eq!(result.execs, EXECS);
        assert_eq!(stores.len(), if ring > 0 { 8 } else { 0 });
        assert!(
            spent <= before_resuming + states_bound,
            "ring {ring}: {spent} events, {before_resuming} + at most {states_bound} in states"
        );
        assert!(
            per_exec <= 3.0,
            "ring {ring}: {per_exec:.2} events per exec"
        );
    }
}

/// A converged shard's loop, by hand from its public parts: select,
/// build into the one program, execute it — a mutant from its parent's
/// state at the index it diverges at, a fresh program whole — and offer
/// it to the corpus. Once the storage has settled after the last
/// admission, a step whose program draws no pointee costs **no**
/// allocator event, however many calls it copies, cuts, appends or
/// resumes past — unless it is the first to ask for its parent's
/// prefix or records states the prefix does not hold yet (it grows
/// once per entry, as deep as its mutants diverge); over the whole run
/// an exec costs what its new pointees do.
#[test]
fn a_converged_step_in_place_allocates_for_new_pointees_and_admissions_only() {
    const SETTLE: u32 = 5_000;
    const HELD: u32 = 5_000;
    const CAP: usize = 2048;
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let db = SpecDb::from_files(
        kc.blueprints()
            .iter()
            .map(Blueprint::ground_truth_spec)
            .collect(),
    );
    let kernel = VKernel::boot(deepchain::suite());
    let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
    let mut g = Generator::from_lowered(Arc::clone(&lowered), 9);
    let mut scratch = ExecScratch::from_lowered(lowered);
    let mut corpus = Corpus::new(CAP, 9);
    let mut prog = Program::default();
    let fresh = Program::default();

    // Which entries' prefixes exist: the first ask boxes one. Indices
    // are stable, as nothing is evicted under this cap.
    let mut asked = vec![false; CAP];

    let (mut since_admission, mut held, mut steps) = (0u32, 0u32, 0u64);
    let (mut grew, mut skipped) = (0u32, 0u64);
    let start = events();
    while held < HELD {
        steps += 1;
        assert!(steps < 400_000, "the shard never settles: held {held}");
        let parent = if steps.is_multiple_of(4) {
            None
        } else {
            corpus.select()
        };
        let before = events();
        let (mut recorded, mut at) = (false, 0);
        match parent {
            None => {
                g.gen_program_into(12, &mut prog);
                execute_with(&kernel, &prog, &mut scratch);
            }
            Some(idx) => {
                let from = g.mutate_into(corpus.program(idx), 12, &mut prog);
                let first = !std::mem::replace(&mut asked[idx], true);
                let prefix = corpus.prefix(idx, &scratch);
                let len_before = prefix.len();
                at = prefix.restore(from, &mut scratch);
                prefix.run(&kernel, &prog, &mut scratch, from);
                // Only a boxed or grown prefix may allocate; any other
                // event in `prefix`, `restore` or `run` fails the step.
                recorded = first || prefix.len() > len_before;
            }
        }
        grew += u32::from(recorded);
        let parent_prog = parent.map_or(&fresh, |idx| corpus.program(idx));
        let cheap = draws_no_pointee(&prog, parent_prog);
        let admitted = corpus.observe_in_place(&mut prog, scratch.coverage(), parent) > 0;
        let cost = events() - before;
        if admitted {
            assert!(prog.is_empty(), "an admitted program is taken");
            since_admission = 0;
            continue;
        }
        since_admission += 1;
        if since_admission > SETTLE && cheap && !recorded {
            held += 1;
            skipped += at as u64;
            assert_eq!(cost, 0, "step {steps}: {} calls from {at}", prog.len());
        }
    }
    let per_exec = (events() - start) as f64 / steps as f64;
    println!(
        "in-place shard: {steps} steps, {} entries, {grew} steps grew a prefix, {per_exec:.2} \
         events a step, {held} pointee-free steps at 0 resuming past {skipped} calls",
        corpus.len()
    );
    assert_eq!(corpus.stats().evicted, 0, "an entry moved");
    assert!(skipped > u64::from(held), "the held steps hardly resumed");
    assert!(per_exec <= 3.0, "{per_exec:.2} events a step");
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

/// A dm call whose `targets` array has thousands of elements is born
/// as one image: generating it, executing it for the first time,
/// serialising it and dropping it cost a constant handful of
/// allocator events, where building the same program as a tree costs
/// two per element.
#[test]
fn a_closed_pointee_of_thousands_of_elements_costs_constant_allocations() {
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let kernel = VKernel::boot(vec![kernelgpt::csrc::flagship::dm()]);
    // A scout finds which draw of this seed is the big one; the
    // counted generator replays the stream up to it. `gen_program(1)`
    // is one call plus the `openat` producing its fd.
    const SEED: u64 = 61;
    // One lowering behind generator and executor, as in a campaign: a
    // pointee's image is only trusted under the database it was born in.
    let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
    let mut scout = Generator::from_lowered(Arc::clone(&lowered), SEED);
    let (at, big) = std::iter::repeat_with(|| scout.gen_program(1))
        .take(4_000)
        .enumerate()
        .find(|(_, p)| {
            p.calls
                .iter()
                .flat_map(|c| &c.args)
                .any(|a| longest_group(a) >= 2_048)
        })
        .expect("no dm call with a >= 2048-element array in 4000 draws");
    assert!(big.len() <= 2, "{} calls", big.len());

    let mut g = Generator::from_lowered(Arc::clone(&lowered), SEED);
    let mut ast = AstGenerator::new(&db, kc.consts(), SEED);
    for _ in 0..at {
        let _ = (g.gen_program(1), ast.gen_program(1));
    }
    // Warm-up on the scout's copy: every pooled buffer and the wire
    // buffer reach the size this program needs.
    let mut scratch = ExecScratch::from_lowered(lowered);
    let mut wire = Vec::new();
    execute_with(&kernel, &big, &mut scratch);
    big.encode_into(&mut wire);
    let wire_len = wire.len();
    wire.clear();

    let before = events();
    let prog = g.gen_program(1);
    execute_with(&kernel, &prog, &mut scratch);
    prog.encode_into(&mut wire);
    drop(prog);
    let packed = events() - before;

    let before = events();
    let tree = ast.gen_program(1);
    let ast_events = events() - before;

    println!("one >= 2048-element call: {packed} events born packed, {ast_events} as a tree");
    assert_eq!(wire.len(), wire_len, "not the program the scout found");
    assert_eq!(tree, big);
    assert!(packed < 16, "{packed} allocation events: not O(1)");
    assert!(ast_events > 4_096, "the tree cost only {ast_events} events");
}

/// A whole dm campaign — generate, mutate, execute, observe, capture
/// and minimize crashes — allocates a few events per exec. Unpacking
/// one average `dm_ioctl` pointee is ~500 events, so nothing on the
/// per-exec path builds a tree.
#[test]
fn a_dm_campaign_never_unpacks_a_pointee() {
    const EXECS: u64 = 4_000;
    let kc = KernelCorpus::from_blueprints(vec![kernelgpt::csrc::flagship::dm()]);
    let suite = vec![kc.blueprints()[0].ground_truth_spec()];
    let kernel = VKernel::boot(vec![kernelgpt::csrc::flagship::dm()]);
    let config = CampaignConfig {
        execs: EXECS,
        seed: 5,
        ..CampaignConfig::default()
    };
    let before = events();
    let result = Campaign::new(&kernel, &suite, kc.consts(), config).run();
    let per_exec = (events() - before) as f64 / EXECS as f64;
    println!("dm campaign: {per_exec:.1} allocation events per exec");
    assert_eq!(result.execs, EXECS);
    assert!(per_exec < 32.0, "{per_exec:.1} allocation events per exec");
}

/// What one incremental boundary carries, read back from its frame.
#[derive(Debug, Default, Clone, Copy)]
struct PatchLoad {
    /// Survivors named (20 bytes each, no allocation).
    kept: usize,
    /// Corpus entries and triage candidates: programs, the dear part.
    programs: usize,
    /// What decoding its records costs: a string for a tally record's
    /// title and one for its CVE, and the growth of each shard's list
    /// of observation counts and of tally records.
    record_events: u64,
}

/// Allocator events of pushing `n` items onto a `Vec::new()`, as a
/// counted list is decoded: none for none, then 4, 8, 16, ... slots.
fn pushes(n: usize) -> u64 {
    let (mut cap, mut events) = (0, 0);
    while cap < n {
        cap = (2 * cap).max(4);
        events += 1;
    }
    events
}

fn patch_load(frame: &[u8]) -> Option<PatchLoad> {
    let Ok(Message::Delta { deltas, .. }) = Message::from_frame(frame) else {
        panic!("the worker's own frame does not decode");
    };
    let DeltaPayload::Incremental(patches) = deltas else {
        return None;
    };
    let mut load = PatchLoad::default();
    for p in &patches {
        load.kept += p.kept.len();
        load.programs += p.added.len() + p.candidates.len();
        let strings = |(_, _, cve): &(String, u64, Option<String>)| 1 + u64::from(cve.is_some());
        load.record_events += p.crashes.iter().map(strings).sum::<u64>();
        load.record_events += pushes(p.crashes.len()) + pushes(p.counts.len());
        // No admission, no coverage: nothing here allocates per word.
        assert!(!p.added.is_empty() || p.cov_diff.is_empty());
    }
    Some(load)
}

/// A deep-chain campaign through the two halves of the fabric's
/// blocking path — the worker writing each boundary from its live
/// shards and marking them on the ack, the coordinator decoding,
/// validating and committing in place — with every shard's corpus
/// padded, before the lease's first (full) frame, by `inert` entries
/// that claim blocks no program reaches: the corpus a longer campaign
/// over a larger kernel would hold, with the epochs of this one.
/// Returns, for every *converged* boundary of the second half (nothing
/// admitted, captured or exchanged): `(load, worker events, coordinator
/// events, events of one snapshot set)`, the last being what the
/// snapshot route paid four times a boundary.
fn converged_boundary_costs(inert: u64) -> Vec<(PatchLoad, u64, u64, u64)> {
    const SHARDS: u32 = 8;
    const BOUNDARIES: u64 = 40;
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    let db = SpecCache::global().get_or_build(&suite);
    let lowered = SpecCache::global().get_or_lower(&db, kc.consts());
    let config = CampaignConfig {
        execs: 128 * u64::from(SHARDS) * BOUNDARIES,
        seed: 3,
        max_prog_len: 12,
        hub_epoch: 128,
        hub_top_k: 4,
        trace_ring: 0,
        ..CampaignConfig::default()
    };
    // One block each, far above the four strata the kernel booted.
    let mut g = Generator::from_lowered(Arc::clone(&lowered), 77);
    let padding: Vec<HubSeed> = (0..inert)
        .map(|i| HubSeed {
            shard: u32::MAX,
            program: g.gen_program(4),
            contributed: [64 * 4096 + 3 * i].into_iter().collect(),
        })
        .collect();

    let mut runner = LeaseRunner::fresh(&lowered, &config, SHARDS, 0, SHARDS);
    let mut merge = CampaignMerge::new(config.clone(), SHARDS);
    let mut frame = Vec::new();
    let mut costs = Vec::new();
    loop {
        let boundary = merge.epochs_done() + 1;
        runner.advance(&kernel);
        if boundary == 1 {
            runner.import(&padding);
        }
        let before = events();
        Message::write_delta_frame(&mut frame, 0, 1, boundary, |w| {
            runner.write_boundary(&kernel, w);
        });
        let wrote = events() - before;
        let load = patch_load(&frame);

        let before = events();
        let Ok(Message::Delta { deltas, .. }) = Message::from_frame(&frame) else {
            panic!("the worker's own frame does not decode");
        };
        merge
            .validate(&deltas)
            .expect("the worker's own payload fits");
        let outcome = merge.commit(vec![deltas]).expect("commit");
        let committed = events() - before;
        if outcome.finished {
            return costs;
        }
        let before = events();
        runner.acked(&outcome.seeds);
        let marked = events() - before;

        let before = events();
        drop(black_box(runner.snapshots()));
        let snapshot = events() - before;
        match load {
            Some(load)
                if boundary > BOUNDARIES / 2 && load.programs == 0 && outcome.seeds.is_empty() =>
            {
                costs.push((load, wrote + marked, committed, snapshot));
            }
            _ => {}
        }
    }
}

/// Past the boundary where admissions stop, a fabric boundary costs a
/// fixed number of allocator events on either side — a couple per
/// shard on the worker (the drained counts, the tally records that
/// moved), the decoded records on the coordinator — whatever the
/// corpus holds: the same at four times the corpus, where one snapshot
/// set (the snapshot route took two on the worker and two on the
/// coordinator every boundary) costs four times the events.
#[test]
fn a_converged_fabric_boundary_allocates_for_what_changed_not_for_the_corpus() {
    const SHARDS: u64 = 8;
    let summarize = |inert: u64| {
        let costs = converged_boundary_costs(inert);
        assert!(
            costs.len() >= 8,
            "only {} converged boundaries",
            costs.len()
        );
        for (load, worker, coordinator, _) in &costs {
            // Per shard: the counts it drained and the tally records
            // that moved, each one `Vec`.
            assert!(*worker <= 2 * SHARDS, "{load:?}: {worker} worker events");
            // Its records aside: the list of patches, each shard's
            // list of survivors — allocated once, at its length — and
            // the commit's own three.
            let fixed = coordinator - load.record_events;
            assert!(
                fixed <= pushes(SHARDS as usize) + SHARDS + 3,
                "{load:?}: {coordinator} coordinator events"
            );
        }
        let kept = costs.iter().map(|c| c.0.kept).min().expect("non-empty");
        let worker = costs.iter().map(|c| c.1).max().expect("non-empty");
        let coordinator = costs.iter().map(|c| c.2 - c.0.record_events);
        let coordinator = coordinator.max().expect("non-empty");
        let snapshot = costs.iter().map(|c| c.3).min().expect("non-empty");
        println!(
            "{} converged boundaries at {kept} entries: worker <= {worker}, coordinator <= \
             {coordinator} + its decoded records, one snapshot set >= {snapshot} events",
            costs.len()
        );
        (kept, worker, coordinator, snapshot)
    };
    let (kept, worker, coordinator, snapshot) = summarize(0);
    // Three more entries per shard for each one it finds itself.
    let (kept_x4, worker_x4, coordinator_x4, snapshot_x4) = summarize(46);
    assert!(kept_x4 >= 4 * kept, "{kept_x4} entries against {kept}");
    assert_eq!(worker_x4, worker, "the worker's cost moved with the corpus");
    assert_eq!(
        coordinator_x4, coordinator,
        "the coordinator's cost moved with the corpus"
    );
    assert!(snapshot >= 2 * kept as u64, "a snapshot copies every entry");
    // (The padding's programs are short: fewer events an entry.)
    assert!(snapshot_x4 >= 2 * snapshot, "and grows with the corpus");
}

/// The identifier-stage prompt of a two-command driver, with `extra`
/// unrelated items after the four that matter.
fn dispatch_prompt(extra: usize) -> Prompt {
    let mut source = vec![
        "static long x_ioctl(struct file *file, unsigned int cmd, unsigned long arg) {\n\tswitch (cmd) {\n\tcase X_SET:\n\t\treturn x_set(file, (struct x_args *)arg);\n\tcase X_GET:\n\t\treturn x_get(file, arg);\n\t}\n\treturn -25;\n}".to_string(),
        "struct x_args {\n\t__u32 len;\n\t__u64 data[4];\n};".to_string(),
        "#define X_SET _IOW('x', 1, struct x_args)".to_string(),
        "#define X_GET _IO('x', 2)".to_string(),
    ];
    for i in 0..extra {
        source.push(format!(
            "static int x_helper_{i}(struct x_state *s, unsigned long arg) {{\n\tif (arg > {i})\n\t\treturn -22;\n\ts->slots[{i}] = arg;\n\treturn x_commit(s, {i});\n}}"
        ));
    }
    Prompt {
        task: Some(Task::Identifier),
        target_func: Some("x_ioctl".into()),
        handler_var: Some("_x_fops".into()),
        source,
        usage: vec![
            "static const struct file_operations _x_fops = {\n\t.unlocked_ioctl = x_ioctl,\n};"
                .into(),
        ],
        ..Prompt::default()
    }
}

/// A request the model has answered before costs allocator events for
/// what it answers, with no term in how much code it was shown: the
/// chunks' parses are looked up, shared into the request's corpus and
/// indexed by position. The parent commit, which lexed, parsed and
/// indexed every request's joined source, spent 249 events on the
/// small prompt and 2 646 on the large one; this one spends 41 on
/// either.
#[test]
fn a_warm_request_allocates_for_what_it_says_not_for_what_it_was_shown() {
    let model = OracleModel::new(ModelKind::Gpt4, 3);
    let mut costs = Vec::new();
    for extra in [0, 36] {
        let request = ChatRequest::new(dispatch_prompt(extra).render());
        let first = model.chat(&request);
        let before = events();
        let again = black_box(model.chat(&request));
        costs.push((events() - before, again.text.clone()));
        assert_eq!(first, again);
    }
    let (small, large) = (&costs[0], &costs[1]);
    println!(
        "warm chat events: 4 chunks {}, 40 chunks {}",
        small.0, large.0
    );
    assert!(small.1.contains("IDENT name=X_SET") && small.1.contains("IDENT name=X_GET"));
    assert_eq!(small.1, large.1, "the extra items say nothing");
    assert_eq!(small.0, large.0, "events grew with the chunks shown");
    assert!(small.0 <= 60, "a warm request cost {} events", small.0);
}

/// Items, fields, parameters, variants, statements, case arms, labels
/// and expressions of a parsed file.
fn ast_nodes(file: &CFile) -> u64 {
    let mut nodes = 0u64;
    for item in &file.items {
        nodes += 1;
        match &item.kind {
            CItemKind::Struct(s) => nodes += s.fields.len() as u64,
            CItemKind::Enum(e) => nodes += e.variants.len() as u64,
            CItemKind::Var(v) => {
                let init = v.init.iter();
                init.for_each(|e| kernelgpt::csrc::ast::walk_expr(e, &mut |_| nodes += 1));
            }
            CItemKind::Function(f) => {
                nodes += f.params.len() as u64;
                walk_stmts(&f.body, &mut |s| {
                    nodes += 1;
                    if let kernelgpt::csrc::Stmt::Switch { cases, .. } = s {
                        nodes += cases.iter().map(|c| 1 + c.labels.len() as u64).sum::<u64>();
                    }
                });
                walk_exprs(&f.body, &mut |_: &Expr| nodes += 1);
            }
            CItemKind::Macro(_) | CItemKind::Typedef(_) => {}
        }
    }
    nodes
}

/// The C front-end allocates for the tree it builds — a box, a name or
/// a list per node — and nothing per token: tokens borrow the source,
/// the parser moves them. The parent commit, which allocated a
/// `String` per identifier token and cloned every token it consumed,
/// spent 3 809 events on this file; this one spends 1 748, for 1 324
/// nodes out of 2 867 tokens.
#[test]
fn the_c_front_end_allocates_per_ast_node_not_per_token() {
    const PARENT_EVENTS: u64 = 3_809;
    let src = kernelgpt::csrc::emit::emit_blueprint(&kernelgpt::csrc::flagship::dm());
    let tokens = kernelgpt::csrc::token::clex(&src).unwrap().len() as u64;
    let before = events();
    let file = black_box(kernelgpt::csrc::parser::cparse("dm.c", &src).unwrap());
    let parse_events = events() - before;
    let nodes = ast_nodes(&file);
    println!(
        "cparse(dm): {parse_events} events for {} items, {nodes} nodes, {tokens} tokens",
        file.items.len()
    );
    assert!(
        parse_events <= 2 * nodes,
        "{parse_events} events for {nodes} nodes"
    );
    assert!(
        2 * parse_events <= PARENT_EVENTS,
        "{parse_events} is not half the parent's"
    );
    // The lexer's one allocation is the token list.
    let before = events();
    black_box(kernelgpt::csrc::token::clex(&src).unwrap());
    assert_eq!(events() - before, 1);
}

/// Validating a suite costs the allocator what it reports and a
/// constant besides. The merged flagship suite the benchmark validates
/// (48 files, 547 items, no error) and dm's ground truth cost the same
/// two events — the duplicate table and the layout stack. The parent
/// commit's validator, which keyed every item by a `format!`ed name,
/// allocated every syscall's name and sibling list and collected the
/// consumed resources into a tree, spent 3 513 on the merged suite
/// (6.4 an item) and 153 on dm's.
#[test]
fn validating_a_valid_suite_allocates_a_constant_not_per_item() {
    const PARENT_EVENTS: u64 = 3_513;
    let kc = KernelCorpus::flagship_only();
    let handlers = kernelgpt::extractor::find_handlers(kc.corpus());
    let model = OracleModel::new(ModelKind::Gpt4, 1);
    let report = kernelgpt::core::KernelGpt::new(&model, kc.corpus())
        .with_threads(1)
        .generate_all(&handlers, kc.consts());
    assert_eq!(report.valid_count(), handlers.len());
    let merged: Vec<_> = report.outcomes.into_iter().filter_map(|o| o.spec).collect();
    let items: usize = merged.iter().map(|f| f.items.len()).sum();
    let dm = kc.blueprint("dm").expect("dm").ground_truth_spec();
    let mut costs = Vec::new();
    for suite in [merged, vec![dm]] {
        let db = SpecDb::from_files(suite);
        let before = events();
        let errors = black_box(kernelgpt::syzlang::validate::validate(&db, kc.consts()));
        costs.push(events() - before);
        assert!(errors.is_empty(), "{errors:?}");
    }
    println!(
        "validate: {} events for the merged flagship suite ({items} items), {} for dm's ground truth",
        costs[0], costs[1]
    );
    assert!(PARENT_EVENTS >= items as u64);
    assert_eq!(costs[0], costs[1], "events grew with the items");
    assert!(costs[0] <= 4, "{costs:?}");
}
