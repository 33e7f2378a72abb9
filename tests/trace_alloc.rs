//! Heap-allocation accounting for the flight recorder.
//!
//! The recorder keeps each exec raw — the program moves into its ring
//! slot, the evicted slot's event buffer is reused — and encodes only
//! what is read. So once the ring and its buffers have reached their
//! high-water marks, recording an exec the corpus does not admit must
//! cost **no allocation event at all**: a traced shard's steady state
//! allocates exactly what an untraced one's does.
//!
//! The read side is held to the same kind of count: replaying a trace
//! checks its stream where it reads it and compares the live log by
//! encoding it against the recorded words, so replaying a sealed store
//! costs exactly what decoding and executing its programs costs — the
//! stream check and the comparison allocate nothing.
//!
//! Events are counted per thread, as in `tests/alloc_count.rs` (own
//! test binary: the counting allocator is process-global); a campaign
//! on one thread runs its shards on the calling thread.

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{
    cfg_successors, replay_trace, CampaignConfig, ExecScratch, ShardedCampaign,
};
use kernelgpt::syzlang::SpecCache;
use kernelgpt::vkernel::VKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts the calling thread's allocation events (alloc + realloc);
/// frees are not counted.
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

/// The deep-chain suite, its kernel and its constants.
fn deep_chain() -> (KernelCorpus, Vec<kernelgpt::syzlang::SpecFile>, VKernel) {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    (kc, suite, VKernel::boot(deepchain::suite()))
}

/// One shard, one thread, one epoch: a campaign of `2 * WARM` execs
/// repeats the campaign of `WARM` execs and then runs `WARM` more, so
/// the difference of their allocation counts is what the second half
/// — the steady state — allocated. Set-up and the final sealing of
/// the ring happen once in both and (all but) cancel.
#[test]
fn steady_state_tracing_allocates_nothing_per_dropped_exec() {
    const WARM: u64 = 20_000;
    let (kc, suite, kernel) = deep_chain();
    // (allocation events, corpus entries) of one whole campaign.
    let run = |execs: u64, trace_ring: usize| {
        let config = CampaignConfig {
            execs,
            seed: 5,
            max_prog_len: 12,
            trace_ring,
            ..CampaignConfig::default()
        };
        let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), config)
            .with_shards(1)
            .with_threads(1);
        let before = events();
        let (result, stores) = campaign.run_traced();
        let events = events() - before;
        assert_eq!(stores.len(), usize::from(trace_ring > 0));
        (events, result.corpus_size)
    };
    // Compile and lower the suite into the global cache first.
    run(10, 0);

    let steady = |trace_ring: usize| {
        let (warm_events, warm_corpus) = run(WARM, trace_ring);
        let (full_events, full_corpus) = run(2 * WARM, trace_ring);
        // Nothing is evicted at this size, so an unchanged corpus
        // means the second half admitted nothing: every one of its
        // execs took the recorder's move path.
        assert_eq!(warm_corpus, full_corpus, "the second half still admits");
        full_events - warm_events
    };
    let untraced = steady(0);
    let traced = steady(32);
    println!(
        "alloc events over {WARM} steady-state execs: untraced {untraced} ({:.2}/exec), traced {traced} ({:.2}/exec)",
        untraced as f64 / WARM as f64,
        traced as f64 / WARM as f64,
    );
    // The two sealing passes encode different execs, so their stream
    // buffers grow differently: a few events per ring slot either way.
    // Anything per exec would show as tens of thousands.
    assert!(
        traced <= untraced + 4 * 32,
        "tracing allocates at steady state: {traced} vs {untraced} events"
    );
}

/// Replaying every trace of a sealed deep-chain store — the ring the
/// campaign returns and its pinned crashes — costs exactly the
/// allocator events of decoding its programs: checking the recorded
/// stream, executing on a warm scratch and comparing the live log with
/// the stream allocate nothing.
#[test]
fn replaying_a_store_allocates_what_decoding_its_programs_does() {
    let (kc, suite, kernel) = deep_chain();
    let config = CampaignConfig {
        execs: 4_000,
        seed: 7,
        max_prog_len: 12,
        ..CampaignConfig::default()
    };
    let campaign = ShardedCampaign::new(&kernel, &suite, kc.consts(), config)
        .with_shards(1)
        .with_threads(1);
    let (_, stores) = campaign.run_traced();
    let traces: Vec<_> = stores.iter().flat_map(|s| s.iter()).collect();
    assert!(traces.iter().any(|t| t.crash.is_some()), "no pinned crash");
    assert!(traces.len() > 30, "{} traces", traces.len());
    let spec_fp = SpecCache::fingerprint(campaign.db().files());
    let cfg = cfg_successors(&kernel);
    let mut scratch = ExecScratch::from_lowered(campaign.lowered_shared());
    let mut replay_all = || {
        for t in &traces {
            let out =
                replay_trace(&kernel, &mut scratch, &cfg, t, spec_fp).expect("a sealed trace");
            assert!(out.identical, "exec {} diverged", t.exec);
        }
    };
    // Warm-up: the scratch's buffers reach their high-water marks.
    replay_all();

    let before = events();
    for t in &traces {
        black_box(t.decode_program().expect("a sealed program"));
    }
    let decode = events() - before;
    let before = events();
    replay_all();
    let replay = events() - before;
    println!(
        "alloc events over {} traces: decoding the programs {decode}, replaying them {replay}",
        traces.len()
    );
    assert_eq!(
        replay, decode,
        "replay allocated past decoding its programs"
    );
}
