//! The stage registry counts the shard loop as it runs and changes
//! nothing it counts. One test in its own binary: the registry is
//! process-wide, and no other test may open spans beside it.

use kgpt_csrc::{deepchain, KernelCorpus};
use kgpt_fuzzer::{CampaignConfig, ShardedCampaign};
use kgpt_syzlang::stage::{self, Stage};
use kgpt_vkernel::VKernel;

#[test]
fn spans_count_the_loop_and_change_nothing() {
    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    // The benchmark's shape: 8 shards, epochs of 128, a ring of 32.
    let config = CampaignConfig {
        execs: 6_000,
        seed: 7,
        max_prog_len: 12,
        hub_epoch: 128,
        trace_ring: 32,
        ..CampaignConfig::default()
    };
    let run = |threads: usize| {
        ShardedCampaign::new(&kernel, &suite, kc.consts(), config.clone())
            .with_shards(8)
            .with_threads(threads)
            .run_traced()
    };
    let unmeasured = run(2);
    let mut counts = Vec::new();
    for threads in [1, 2] {
        stage::attach(None);
        let out = run(threads);
        let rows = stage::take();
        stage::detach();
        assert!(
            out == unmeasured,
            "spans changed the run at {threads} threads"
        );
        let fresh_and_mutants = rows.get(Stage::Generate).runs + rows.get(Stage::Mutate).runs;
        assert_eq!(fresh_and_mutants, out.0.execs);
        assert_eq!(rows.get(Stage::Exec).runs, out.0.execs);
        for stage in [
            Stage::Boundary,
            Stage::Seal,
            Stage::ProbeExec,
            Stage::Project,
        ] {
            assert!(rows.get(stage).runs > 0, "no {} span", stage.name());
        }
        counts.push(rows.iter().map(|(s, r)| (s, r.runs)).collect::<Vec<_>>());
    }
    assert_eq!(
        counts[0], counts[1],
        "the thread count changed a stage count"
    );
}
