//! Heap-allocation accounting for the flight recorder.
//!
//! The recorder keeps each exec raw — the program moves into its ring
//! slot, the evicted slot's event buffer is reused — and encodes only
//! what is read. So once the ring and its buffers have reached their
//! high-water marks, recording an exec the corpus does not admit must
//! cost **no allocation event at all**: a traced shard's steady state
//! allocates exactly what an untraced one's does. (Own test binary:
//! the counting allocator is process-global, as in
//! `tests/alloc_count.rs`.)

use kernelgpt::csrc::{deepchain, KernelCorpus};
use kernelgpt::fuzzer::{CampaignConfig, ShardedCampaign};
use kernelgpt::vkernel::VKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation events (alloc + realloc); frees are not counted.
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

/// Single test (so no parallel test thread pollutes the counter).
///
/// One shard, one thread, one epoch: a campaign of `2 * WARM` execs
/// repeats the campaign of `WARM` execs and then runs `WARM` more, so
/// the difference of their allocation counts is what the second half
/// — the steady state — allocated. Set-up and the final sealing of
/// the ring happen once in both and (all but) cancel.
#[test]
fn steady_state_tracing_allocates_nothing_per_dropped_exec() {
    const WARM: u64 = 20_000;
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
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
        let before = ALLOC_EVENTS.load(Ordering::Relaxed);
        let (result, stores) = campaign.run_traced();
        let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
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
