//! A mutant resumed from its parent's state is the mutant executed
//! whole.
//!
//! A campaign runs a mutant from the state its parent's first `k`
//! calls leave — `k` the index `Generator::mutate_into` returns, or
//! less while the parent's `ExecPrefix` (derived per corpus entry,
//! recorded as its mutants run) holds fewer states — and only the
//! calls from there on. This test drives that loop by hand, as a
//! shard does (one turn in four fresh, a weighted pick otherwise,
//! admission on new coverage), and holds every exec to `execute_with`
//! of the same program on a scratch of its own: coverage words (span
//! included), crash, returns, fuel spent and exhausted, trace events.
//!
//! Over dm, the deep-chain suite, and dm with the kvm chain, rds and
//! caif merged; at seeds drawn from a fixed stream; untraced, and
//! traced from half-way (the prefixes recorded before have no events
//! and are recorded again); at fuel 1 (every exec runs out at its first
//! block), 48 (parents that run out part-way through the prefix) and
//! the campaign default (parents that crashed before the mutant's
//! first new call); with the campaigns' corpus cap, and with a cap of
//! 8, under which entries — and the prefixes beside them — are
//! evicted all the time.

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fuzzer::{execute_with, CampaignConfig, Corpus, ExecScratch, Generator, Program};
use kernelgpt::syzlang::{LoweredDb, SpecDb};
use kernelgpt::vkernel::VKernel;
use std::sync::Arc;

const MAX_PROG_LEN: usize = 12;

/// What the resumed execs started from, over every run of one fuel.
#[derive(Debug, Default)]
struct Met {
    resumed: u64,
    /// Calls resumed execs did not run, and calls of all their programs.
    skipped: u64,
    calls: u64,
    /// Resumed from a parent state that had crashed / run out of fuel.
    crashed: u64,
    exhausted: u64,
    /// Entries evicted from the corpora.
    evicted: u64,
}

fn assert_same(resumed: &ExecScratch, whole: &ExecScratch, ctx: &str) {
    let (r, w) = (&resumed.state, &whole.state);
    assert_eq!(
        r.coverage.words(),
        w.coverage.words(),
        "{ctx}: coverage words"
    );
    assert_eq!(r.coverage, w.coverage, "{ctx}: coverage");
    assert_eq!(r.coverage.len(), w.coverage.len(), "{ctx}: blocks");
    assert_eq!(r.crash, w.crash, "{ctx}: crash");
    assert_eq!(resumed.rets, whole.rets, "{ctx}: returns");
    assert_eq!(r.fuel_spent(), w.fuel_spent(), "{ctx}: fuel spent");
    assert_eq!(
        r.fuel_exhausted(),
        w.fuel_exhausted(),
        "{ctx}: fuel exhausted"
    );
    assert_eq!(
        r.trace().events(),
        w.trace().events(),
        "{ctx}: trace events"
    );
}

/// One shard's loop over `execs` steps, every exec checked.
#[allow(clippy::too_many_arguments)]
fn run(
    label: &str,
    kernel: &VKernel,
    lowered: &Arc<LoweredDb>,
    seed: u64,
    fuel: u64,
    traced: bool,
    cap: usize,
    execs: usize,
    met: &mut Met,
) {
    let scratch = || {
        let mut s = ExecScratch::from_lowered(Arc::clone(lowered));
        s.state.set_fuel_limit(fuel);
        s
    };
    let (mut resumed, mut whole) = (scratch(), scratch());
    let mut g = Generator::from_lowered(Arc::clone(lowered), seed);
    let mut corpus = Corpus::new(cap, seed);
    let mut prog = Program::default();
    let mut pick = seed;
    for step in 0..execs {
        let ctx =
            format!("{label}: seed {seed:#x} fuel {fuel} traced {traced} cap {cap} step {step}");
        if traced && step == execs / 2 {
            resumed.state.trace_mut().set_enabled(true);
            whole.state.trace_mut().set_enabled(true);
        }
        pick = pick.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let parent = if pick.is_multiple_of(4) {
            None
        } else {
            corpus.select()
        };
        match parent {
            None => {
                g.gen_program_into(MAX_PROG_LEN, &mut prog);
                execute_with(kernel, &prog, &mut resumed);
            }
            Some(idx) => {
                let calls = corpus.program(idx).len();
                let from = g.mutate_into(corpus.program(idx), MAX_PROG_LEN, &mut prog);
                let prefix = corpus.prefix(idx, &resumed);
                let at = prefix.restore(from, &mut resumed);
                met.resumed += 1;
                met.skipped += at as u64;
                met.calls += prog.len() as u64;
                met.crashed += u64::from(at > 0 && resumed.crash().is_some());
                met.exhausted += u64::from(at > 0 && resumed.state.fuel_exhausted());
                prefix.run(kernel, &prog, &mut resumed, from);
                // Recorded as deep as the mutants diverged, no deeper
                // than the entry.
                assert!(from <= prefix.len() && prefix.len() <= calls, "{ctx}");
            }
        }
        execute_with(kernel, &prog, &mut whole);
        assert_same(&resumed, &whole, &ctx);
        corpus.observe_in_place(&mut prog, resumed.coverage(), parent);
    }
    met.evicted += corpus.stats().evicted;
    // The prefixes the corpus recorded are no part of it.
    assert!(corpus == corpus.clone(), "{label}: a corpus with prefixes");
}

/// Seeds from a SplitMix64 stream: a new set of campaigns per suite,
/// the same on every run.
fn seeds(stream: &mut u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            *stream = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *stream;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[test]
fn a_resumed_mutant_executes_exactly_like_the_whole_program() {
    // Debug builds (tier-1) run a third of the seeds.
    let (n_seeds, execs) = if cfg!(debug_assertions) {
        (1, 500)
    } else {
        (3, 1_500)
    };
    let suites: Vec<(&str, Vec<Blueprint>)> = vec![
        ("dm", vec![flagship::dm()]),
        ("deep-chain", deepchain::suite()),
        (
            "dm+kvm+rds+caif",
            vec![
                flagship::dm(),
                flagship::kvm(),
                flagship::kvm_vm(),
                flagship::kvm_vcpu(),
                flagship::rds(),
                flagship::caif_stream(),
            ],
        ),
    ];
    let fuels = [1, 48, CampaignConfig::default().exec_fuel];
    let mut mets: Vec<Met> = fuels.iter().map(|_| Met::default()).collect();
    let mut stream = 0x7E5_0E5u64;
    for (label, blueprints) in suites {
        let kc = KernelCorpus::from_blueprints(blueprints.clone());
        let db = SpecDb::from_files(
            kc.blueprints()
                .iter()
                .map(Blueprint::ground_truth_spec)
                .collect(),
        );
        let kernel = VKernel::boot(blueprints);
        let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
        for seed in seeds(&mut stream, n_seeds) {
            for (fuel, met) in fuels.iter().zip(&mut mets) {
                for (traced, cap) in [false, true].into_iter().flat_map(|t| [(t, 2048), (t, 8)]) {
                    run(
                        label, &kernel, &lowered, seed, *fuel, traced, cap, execs, met,
                    );
                }
            }
        }
    }
    for (fuel, met) in fuels.iter().zip(&mets) {
        println!(
            "fuel {fuel}: {} resumed execs, {:.2} of {:.2} calls an exec skipped; from a crashed \
             parent state {}, from an exhausted one {}; {} entries evicted",
            met.resumed,
            met.skipped as f64 / met.resumed as f64,
            met.calls as f64 / met.resumed as f64,
            met.crashed,
            met.exhausted,
            met.evicted
        );
        assert!(met.skipped > 0, "fuel {fuel}: nothing was resumed");
    }
    assert!(mets[0].exhausted > 0 && mets[1].exhausted > 0, "{mets:?}");
    assert!(mets[2].crashed > 0, "{mets:?}");
    // At fuel 1 a corpus holds a few first blocks and never fills.
    assert!(mets[1].evicted > 0 && mets[2].evicted > 0, "{mets:?}");
}
