//! Micro-benchmarks for the fuzzing substrate: program generation,
//! encoding+execution throughput, short campaigns, and the AST-walk
//! vs lowered-IR pairs (generation, execution, chained mutation) —
//! the one ratio the frozen `benchmark/` package has no AST side for
//! (ROADMAP item 3's `lowering.*.speedup` criterion).
//!
//! Plain `harness = false` timing loops (the offline build cannot
//! fetch criterion): each benchmark reports ns/iter over a fixed
//! iteration count. Run with `cargo bench -p kgpt-bench`.

use kgpt_csrc::KernelCorpus;
use kgpt_fuzzer::reference::{ast_execute_with, AstGenerator, AstScratch};
use kgpt_fuzzer::{
    execute_with, Campaign, CampaignConfig, ExecScratch, Generator, Program, ShardedCampaign,
};
use kgpt_syzlang::{LoweredDb, SpecCache, SpecDb};
use kgpt_vkernel::VKernel;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Time `iters` calls of `f`, print and return ns/iter.
fn report(name: &str, iters: u64, f: impl FnMut()) -> f64 {
    let mut f = f;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
    println!(
        "{name:<40} {ns_per_iter:>12.0} ns/iter ({iters} iters, {:.3}s total)",
        elapsed.as_secs_f64(),
    );
    ns_per_iter
}

/// One AST-walk vs lowered-IR pair and its `lowering.<what>.speedup`.
fn pair(what: &str, ast: impl FnMut(), lowered: impl FnMut()) {
    const ITERS: u64 = 20_000;
    let ast_ns = report(&format!("lowering/{what}/ast"), ITERS, ast);
    let lowered_ns = report(&format!("lowering/{what}/lowered"), ITERS, lowered);
    println!("lowering/{what}/speedup {:>27.3}x", ast_ns / lowered_ns);
}

fn setup() -> (KernelCorpus, SpecDb, VKernel) {
    let kc = KernelCorpus::from_blueprints(vec![kgpt_csrc::flagship::dm()]);
    let db = SpecDb::from_files(vec![kc.blueprints()[0].ground_truth_spec()]);
    let kernel = VKernel::boot(vec![kgpt_csrc::flagship::dm()]);
    (kc, db, kernel)
}

fn main() {
    let (kc, db, kernel) = setup();

    {
        let mut g = Generator::new(&db, kc.consts(), 1);
        report("fuzzer/gen_program", 2_000, || {
            black_box(g.gen_program(8));
        });
    }

    {
        // One lowering behind both, as in a campaign: a born-packed
        // pointee's image is only read under the database it was born
        // in (under another it is unpacked and walked).
        let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
        let mut g = Generator::from_lowered(Arc::clone(&lowered), 1);
        let progs: Vec<_> = (0..64).map(|_| g.gen_program(8)).collect();
        let mut scratch = ExecScratch::from_lowered(lowered);
        report("fuzzer/execute_64_programs", 200, || {
            for p in &progs {
                execute_with(&kernel, p, &mut scratch);
                black_box(scratch.state.coverage.len());
            }
        });
    }

    {
        let suite = vec![kc.blueprints()[0].ground_truth_spec()];
        report("fuzzer/campaign_1000_execs", 10, || {
            let cfg = CampaignConfig {
                execs: 1000,
                seed: 1,
                ..CampaignConfig::default()
            };
            black_box(Campaign::new(&kernel, &suite, kc.consts(), cfg).run());
        });
        report("fuzzer/sharded_campaign_8x1000_execs", 10, || {
            let cfg = CampaignConfig {
                execs: 8000,
                seed: 1,
                ..CampaignConfig::default()
            };
            black_box(
                ShardedCampaign::new(&kernel, &suite, kc.consts(), cfg)
                    .with_shards(8)
                    .run(),
            );
        });

        // AST walk vs lowered-IR hot path, same seeds and draw
        // sequences on both sides (bit-identity of the two paths is
        // `fuzz_bench`'s `lowering.bit_identical` flag).
        let (low_db, lowered) = SpecCache::global().get_or_build_lowered(&suite, kc.consts());
        let mut ag = AstGenerator::new(&low_db, kc.consts(), 42);
        let mut lg = Generator::from_lowered(Arc::clone(&lowered), 42);
        pair(
            "gen",
            || drop(black_box(ag.gen_program(8))),
            || drop(black_box(lg.gen_program(8))),
        );
        // End-to-end exec over a fixed pre-generated ring.
        let ring: Vec<Program> = {
            let mut g = Generator::from_lowered(Arc::clone(&lowered), 7);
            (0..512).map(|_| g.gen_program(8)).collect()
        };
        let mut ast_scratch = AstScratch::new(&low_db, kc.consts());
        let mut low_scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
        let (mut i, mut j) = (0usize, 0usize);
        pair(
            "exec",
            || {
                ast_execute_with(&kernel, &ring[i % 512], &mut ast_scratch);
                i += 1;
            },
            || {
                execute_with(&kernel, &ring[j % 512], &mut low_scratch);
                j += 1;
            },
        );
        // Chained mutation, so the deep-clone cost of the AST path
        // and the prefix-clone cost of the lowered path both show.
        let mut ag = AstGenerator::new(&low_db, kc.consts(), 9);
        let mut lg = Generator::from_lowered(Arc::clone(&lowered), 9);
        let (mut p, mut q) = (ring[0].clone(), ring[0].clone());
        pair("mutation", || p = ag.mutate(&p, 8), || q = lg.mutate(&q, 8));
        black_box(p.len() + q.len());
    }
}
