//! A mutant resumed from its parent's state is the mutant executed
//! whole.
//!
//! A campaign edits a mutant into its parent where the corpus holds it
//! and runs it from the state the parent's first `k` calls leave — `k`
//! the index `Generator::mutate_in_place` returns, or less while the
//! parent's `ExecPrefix` (derived per corpus entry, recorded as its
//! mutants run) holds fewer states — and only the calls from there on;
//! then it puts the parent back. This test drives that loop by hand, as
//! a shard does (one turn in four fresh, a weighted pick otherwise,
//! admission on new coverage), and holds every exec to `execute_with`
//! of the same program, copied out, on a scratch of its own: logged
//! events, the coverage map built from them (words and span included),
//! crash, returns, fuel spent and exhausted. Every parent is `==` to
//! its clone once undone.
//!
//! Over dm, the deep-chain suite, and dm with the kvm chain, rds and
//! caif merged; at seeds drawn from a fixed stream; at fuel 1 (every
//! exec runs out at its first block), 48 (parents that run out
//! part-way through the prefix) and the campaign default (parents that
//! crashed before the mutant's first new call); with the campaigns'
//! corpus cap, and with a cap of 8, under which entries — and the
//! prefixes beside them — are evicted all the time.
//!
//! An exec's coverage is its event log: the corpus admits an exec by
//! walking its block runs (`Corpus::admits`) and builds no map of it
//! unless it keeps it (`ExecScratch::coverage`). The second test holds
//! both, on the same suites and fuels, resumed and whole, to the map the
//! VM once kept: the walk admits exactly when the corpus total lacks a
//! block of the built map, and the built map is the one `insert_run`
//! over the same runs gives, words and span included.

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fuzzer::{
    execute_with, CampaignConfig, Corpus, Edit, ExecScratch, Generator, Program,
};
use kernelgpt::syzlang::{LoweredDb, SpecDb};
use kernelgpt::vkernel::{CoverageMap, TraceEvent, VKernel};
use std::collections::BTreeSet;
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
    assert_eq!(resumed.events(), whole.events(), "{ctx}: events");
    let (rc, wc) = (resumed.coverage(), whole.coverage());
    assert_eq!(rc.words(), wc.words(), "{ctx}: coverage words");
    assert_eq!(rc, wc, "{ctx}: coverage");
    assert_eq!(rc.len(), wc.len(), "{ctx}: blocks");
    assert_eq!(r.crash, w.crash, "{ctx}: crash");
    assert_eq!(resumed.rets, whole.rets, "{ctx}: returns");
    assert_eq!(r.fuel_spent(), w.fuel_spent(), "{ctx}: fuel spent");
    assert_eq!(
        r.fuel_exhausted(),
        w.fuel_exhausted(),
        "{ctx}: fuel exhausted"
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
    let mut edit = Edit::default();
    let mut pick = seed;
    for step in 0..execs {
        let ctx = format!("{label}: seed {seed:#x} fuel {fuel} cap {cap} step {step}");
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
                let before = corpus.program(idx).clone();
                let (edited, prefix) = corpus.mutant(idx, &resumed);
                let from = g.mutate_in_place(edited, MAX_PROG_LEN, &mut edit);
                let at = prefix.restore(from, &mut resumed);
                met.resumed += 1;
                met.skipped += at as u64;
                met.calls += edited.len() as u64;
                met.crashed += u64::from(at > 0 && resumed.crash().is_some());
                met.exhausted += u64::from(at > 0 && resumed.state.fuel_exhausted());
                prefix.run(kernel, edited, &mut resumed, from);
                // Recorded as deep as the mutants diverged, no deeper
                // than the entry.
                assert!(
                    from <= prefix.len() && prefix.len() <= before.len(),
                    "{ctx}"
                );
                // The mutant, copied out to be run whole (and offered);
                // the entry is its parent again.
                g.copy_into(edited, &mut prog);
                g.undo(edited, &mut edit);
                assert_eq!(*corpus.program(idx), before, "{ctx}: undone");
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

/// What the admission pin met over every run.
#[derive(Debug, Default)]
struct Admissions {
    resumed: u64,
    admitted: u64,
    rejected: u64,
    crashed: u64,
    exhausted: u64,
}

/// The exec that just ran on `scratch`, judged against `total`: the run
/// walk agrees with the built map, and the built map with `insert_run`
/// over the same runs and with the blocks the runs name.
fn assert_admits_like_the_map(
    scratch: &ExecScratch,
    total: &CoverageMap,
    seen: &mut Admissions,
    ctx: &str,
) {
    let mut corpus = Corpus::from_parts(1, 0, total.clone(), Vec::new(), Default::default());
    let walked = corpus.admits(scratch.events());
    let built = scratch.coverage();
    let mut oracle = CoverageMap::new();
    let mut blocks = BTreeSet::new();
    for event in scratch.events() {
        if let TraceEvent::Block { start, len } = *event {
            oracle.insert_run(start, len);
            blocks.extend(start..start + u64::from(len));
        }
    }
    assert_eq!(built.words(), oracle.words(), "{ctx}: words");
    assert_eq!(*built, oracle, "{ctx}: map");
    assert_eq!(built.to_btree_set(), blocks, "{ctx}: blocks");
    assert_eq!(walked, total.new_blocks_in(built) != 0, "{ctx}: admission");
    // And the corpus that admits it takes exactly the map's news.
    let mut prog = Program::default();
    let added = corpus.observe_in_place(&mut prog, built, None);
    assert_eq!(added != 0, walked, "{ctx}: observe");
    seen.admitted += u64::from(walked);
    seen.rejected += u64::from(!walked);
    seen.crashed += u64::from(scratch.crash().is_some());
    seen.exhausted += u64::from(scratch.state.fuel_exhausted());
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
                for cap in [2048, 8] {
                    run(label, &kernel, &lowered, seed, *fuel, cap, execs, met);
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

#[test]
fn the_run_walk_admits_exactly_what_the_built_map_adds() {
    let (n_seeds, execs) = if cfg!(debug_assertions) {
        (1, 300)
    } else {
        (3, 1_000)
    };
    let suites: Vec<(&str, Vec<Blueprint>)> = vec![
        ("dm", vec![flagship::dm()]),
        ("deep-chain", deepchain::suite()),
        ("rds+caif", vec![flagship::rds(), flagship::caif_stream()]),
    ];
    let mut seen = Admissions::default();
    let mut stream = 0xAD_A175u64;
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
            for fuel in [1, 48, CampaignConfig::default().exec_fuel] {
                let scratch = || {
                    let mut s = ExecScratch::from_lowered(Arc::clone(&lowered));
                    s.state.set_fuel_limit(fuel);
                    s
                };
                let (mut resumed, mut whole) = (scratch(), scratch());
                let mut g = Generator::from_lowered(Arc::clone(&lowered), seed);
                let mut corpus = Corpus::new(2048, seed);
                // A total that lags the corpus's, so that more execs
                // bring something new to it.
                let mut lagging = CoverageMap::new();
                let (mut prog, mut edit) = (Program::default(), Edit::default());
                for step in 0..execs {
                    let ctx = format!("{label}: seed {seed:#x} fuel {fuel} step {step}");
                    let total = corpus.coverage().clone();
                    if step % 64 == 0 {
                        lagging.clone_from(&total);
                    }
                    let parent = if step % 4 == 0 { None } else { corpus.select() };
                    match parent {
                        None => g.gen_program_into(MAX_PROG_LEN, &mut prog),
                        Some(idx) => {
                            let (edited, prefix) = corpus.mutant(idx, &resumed);
                            let from = g.mutate_in_place(edited, MAX_PROG_LEN, &mut edit);
                            seen.resumed += prefix.restore(from, &mut resumed).min(1) as u64;
                            prefix.run(&kernel, edited, &mut resumed, from);
                            for total in [&total, &lagging] {
                                let ctx = format!("{ctx}: resumed");
                                assert_admits_like_the_map(&resumed, total, &mut seen, &ctx);
                            }
                            g.copy_into(edited, &mut prog);
                            g.undo(edited, &mut edit);
                        }
                    }
                    execute_with(&kernel, &prog, &mut whole);
                    for total in [&total, &lagging] {
                        assert_admits_like_the_map(&whole, total, &mut seen, &ctx);
                    }
                    corpus.observe_in_place(&mut prog, whole.coverage(), parent);
                }
            }
        }
    }
    println!("{seen:?}");
    let Admissions {
        resumed,
        admitted,
        rejected,
        crashed,
        exhausted,
    } = seen;
    assert!(resumed > 0 && crashed > 0 && exhausted > 0, "{seen:?}");
    assert!(admitted > 100 && rejected > admitted, "{seen:?}");
}
