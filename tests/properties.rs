//! Property-based tests over the core data structures and invariants.
//!
//! Cases are produced by a hand-rolled, seeded generator on the
//! workspace's deterministic `rand` (the offline environment has no
//! proptest); every failure message prints the case seed so a run can
//! be reproduced exactly.

use kernelgpt::csrc::cmacro;
use kernelgpt::fuzzer::{
    ast_execute_with, execute_with, AstGenerator, AstScratch, Corpus, ExecScratch, Generator,
    Program, SeedHub,
};
use kernelgpt::syzlang::ast::{
    ArrayLen, ConstExpr, Dir, Field, FlagsDef, IntBits, Item, Param, Resource, SpecFile, StructDef,
    Syscall, Type,
};
use kernelgpt::syzlang::LoweredDb;
use kernelgpt::syzlang::{parse, print_file, SpecDb};
use kernelgpt::vkernel::CoverageMap;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// A small strategy toolbox mirroring the shapes the old proptest
/// strategies produced.
struct Gen {
    rng: StdRng,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        s.push((b'a' + self.rng.random_range(0..26u32) as u8) as char);
        for _ in 0..self.rng.random_range(0..12u32) {
            let c = match self.rng.random_range(0..3u32) {
                0 => b'a' + self.rng.random_range(0..26u32) as u8,
                1 => b'0' + self.rng.random_range(0..10u32) as u8,
                _ => b'_',
            };
            s.push(c as char);
        }
        s
    }

    fn upper_ident(&mut self) -> String {
        self.ident().to_uppercase()
    }

    fn bits(&mut self) -> IntBits {
        *[IntBits::I8, IntBits::I16, IntBits::I32, IntBits::I64]
            .choose(&mut self.rng)
            .expect("non-empty")
    }

    fn dir(&mut self) -> Dir {
        *[Dir::In, Dir::Out, Dir::InOut]
            .choose(&mut self.rng)
            .expect("non-empty")
    }

    fn leaf_type(&mut self) -> Type {
        match self.rng.random_range(0..4u32) {
            0 => Type::Int {
                bits: self.bits(),
                range: if self.rng.random_bool(0.5) {
                    Some((
                        self.rng.random_range(0..100u64),
                        self.rng.random_range(100..200u64),
                    ))
                } else {
                    None
                },
            },
            1 => Type::Const {
                value: ConstExpr::Num(self.rng.random()),
                bits: self.bits(),
            },
            2 => Type::Const {
                value: ConstExpr::Sym(self.upper_ident()),
                bits: IntBits::I64,
            },
            _ => {
                let n = self.rng.random_range(1..=12usize);
                let mut s = String::new();
                for _ in 0..n {
                    if self.rng.random_bool(0.15) {
                        s.push('/');
                    } else {
                        s.push((b'a' + self.rng.random_range(0..26u32) as u8) as char);
                    }
                }
                Type::StringLit { values: vec![s] }
            }
        }
    }

    fn ty(&mut self, depth: usize) -> Type {
        if depth == 0 || self.rng.random_bool(0.5) {
            return self.leaf_type();
        }
        if self.rng.random_bool(0.5) {
            Type::Ptr {
                dir: self.dir(),
                elem: Box::new(self.ty(depth - 1)),
            }
        } else {
            let len = match self.rng.random_range(0..3u32) {
                0 => ArrayLen::Unsized,
                1 => ArrayLen::Fixed(self.rng.random_range(1..8u64)),
                _ => ArrayLen::Range(
                    self.rng.random_range(1..4u64),
                    self.rng.random_range(4..10u64),
                ),
            };
            Type::Array {
                elem: Box::new(self.ty(depth - 1)),
                len,
            }
        }
    }

    fn struct_def(&mut self) -> StructDef {
        let n = self.rng.random_range(1..6usize);
        StructDef {
            name: format!("st_{}", self.ident()),
            fields: (0..n)
                .map(|i| Field {
                    name: format!("f{i}"),
                    ty: self.ty(3),
                    dir: None,
                })
                .collect(),
            is_union: self.rng.random_bool(0.5),
            packed: false,
        }
    }

    fn syscall(&mut self) -> Syscall {
        let n = self.rng.random_range(0..5usize);
        Syscall {
            base: "fake".into(),
            variant: Some(self.upper_ident()),
            params: (0..n)
                .map(|i| Param::new(format!("a{i}"), self.ty(3)))
                .collect(),
            ret: None,
        }
    }

    fn spec_file(&mut self) -> SpecFile {
        let mut structs: Vec<StructDef> = (0..self.rng.random_range(0..4usize))
            .map(|_| self.struct_def())
            .collect();
        structs.sort_by(|a, b| a.name.cmp(&b.name));
        structs.dedup_by(|a, b| a.name == b.name);
        let mut items: Vec<Item> = Vec::new();
        items.push(Item::Resource(Resource {
            name: "res_x".into(),
            base: "int32".into(),
            values: vec![],
        }));
        items.extend(structs.into_iter().map(Item::Struct));
        let mut seen = BTreeSet::new();
        for _ in 0..self.rng.random_range(0..4usize) {
            let c = self.syscall();
            if seen.insert(c.name()) {
                items.push(Item::Syscall(c));
            }
        }
        let mut fseen = BTreeSet::new();
        for _ in 0..self.rng.random_range(0..3usize) {
            let fname = format!("fl_{}", self.ident());
            let v = self.rng.random_range(1..64u64);
            if fseen.insert(fname.clone()) {
                items.push(Item::Flags(FlagsDef {
                    name: fname,
                    values: vec![ConstExpr::Num(v)],
                }));
            }
        }
        SpecFile {
            name: "prop.txt".into(),
            items,
        }
    }
}

/// print → parse is the identity on well-formed spec files.
#[test]
fn printer_parser_round_trip() {
    for seed in 0..128u64 {
        let file = Gen::new(seed).spec_file();
        let printed = print_file(&file);
        let reparsed =
            parse("prop.txt", &printed).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
        assert_eq!(reparsed.items, file.items, "seed {seed}\n{printed}");
    }
}

/// The _IOC encoding round-trips through its field extractors.
#[test]
fn ioc_encoding_round_trips() {
    let mut g = Gen::new(0xC0DE);
    for case in 0..256 {
        let dir = g.rng.random_range(0..4u64);
        let ty = g.rng.random_range(0..256u64);
        let nr = g.rng.random_range(0..256u64);
        let size = g.rng.random_range(0..16384u64);
        let cmd = cmacro::ioc(dir, ty, nr, size);
        assert_eq!(cmacro::ioc_dir(cmd), dir, "case {case}");
        assert_eq!(cmacro::ioc_type(cmd), ty, "case {case}");
        assert_eq!(cmacro::ioc_nr(cmd), nr, "case {case}");
        assert_eq!(cmacro::ioc_size(cmd), size, "case {case}");
    }
}

/// Struct layout sizes are always a multiple of alignment and fields
/// never overlap (non-union).
#[test]
fn layout_invariants() {
    for seed in 0..128u64 {
        let def = Gen::new(seed).struct_def();
        let db = SpecDb::from_files(vec![SpecFile {
            name: "t".into(),
            items: vec![Item::Struct(def.clone())],
        }]);
        let Ok(l) = kernelgpt::syzlang::layout::struct_layout(&def, &db) else {
            continue;
        };
        assert!(l.align.is_power_of_two(), "seed {seed}");
        assert_eq!(l.size % l.align, 0, "seed {seed}");
        if def.is_union {
            continue;
        }
        let Ok((offsets, total)) = kernelgpt::syzlang::layout::field_offsets(&def, &db) else {
            continue;
        };
        let mut prev_end = 0u64;
        for (f, off) in def.fields.iter().zip(&offsets) {
            assert!(*off >= prev_end, "seed {seed}: field overlap");
            if let Ok(fl) = kernelgpt::syzlang::layout::type_layout(&f.ty, &db) {
                prev_end = off + fl.size;
            }
        }
        assert!(prev_end <= total, "seed {seed}");
    }
}

/// The encoder never panics on generator-produced values, and always
/// accepts the zero value of any layoutable struct.
#[test]
fn encode_zero_value_never_panics() {
    for seed in 0..128u64 {
        let def = Gen::new(seed ^ 0xE17C0DE).struct_def();
        let db = SpecDb::from_files(vec![SpecFile {
            name: "t".into(),
            items: vec![Item::Struct(def.clone())],
        }]);
        let consts = kernelgpt::syzlang::ConstDb::new();
        let ty = Type::Named(def.name.clone());
        if let Ok(v) = kernelgpt::syzlang::value::zero_value(&ty, &db) {
            let mut mb = kernelgpt::syzlang::value::MemBuilder::new(&db, &consts);
            let _ = mb.encode_arg(
                &Type::Ptr {
                    dir: Dir::In,
                    elem: Box::new(ty),
                },
                &kernelgpt::syzlang::Value::ptr_to(v),
                &|r| r.fallback,
            );
        }
    }
}

/// `CoverageMap` agrees with `BTreeSet<u64>` semantics — insert,
/// contains, len, union/merge, disjointness, and sorted iteration —
/// on random block sets shaped like real kernel coverage.
#[test]
fn coverage_map_matches_btreeset() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let mut map_a = CoverageMap::new();
        let mut map_b = CoverageMap::new();
        let mut set_a: BTreeSet<u64> = BTreeSet::new();
        let mut set_b: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.random_range(0..400u32) {
            // Same id-space shape as the kernel: per-handler 4096-block
            // strata with small offsets.
            let block = u64::from(rng.random_range(1..6u32)) * 4096 + rng.random_range(0..4100u64);
            if rng.random_bool(0.5) {
                assert_eq!(map_a.insert(block), set_a.insert(block), "seed {seed}");
            } else {
                assert_eq!(map_b.insert(block), set_b.insert(block), "seed {seed}");
            }
        }
        assert_eq!(map_a.len(), set_a.len(), "seed {seed}");
        assert_eq!(
            map_a.is_disjoint(&map_b),
            set_a.is_disjoint(&set_b),
            "seed {seed}"
        );
        for &b in &set_a {
            assert!(map_a.contains(b), "seed {seed}: missing {b}");
        }
        // Diff helpers agree with set difference, without mutation.
        let diff: BTreeSet<u64> = set_b.difference(&set_a).copied().collect();
        assert_eq!(map_a.diff_in(&map_b).to_btree_set(), diff, "seed {seed}");
        assert_eq!(map_a.to_btree_set(), set_a, "seed {seed}: diff_in mutated");
        let mut merged = map_a.clone();
        assert_eq!(
            merged.merge_diff(&map_b).to_btree_set(),
            diff,
            "seed {seed}"
        );
        // Merge = set union, and the return value counts new blocks.
        let old_len = map_a.len();
        let newly = map_a.merge(&map_b);
        let union: BTreeSet<u64> = set_a.union(&set_b).copied().collect();
        assert_eq!(merged, map_a, "seed {seed}: merge_diff union differs");
        assert_eq!(map_a.len(), union.len(), "seed {seed}");
        assert_eq!(newly, union.len() - old_len, "seed {seed}");
        // Iteration is sorted and complete; the BTreeSet view matches.
        let from_iter: Vec<u64> = map_a.iter().collect();
        let expect: Vec<u64> = union.iter().copied().collect();
        assert_eq!(from_iter, expect, "seed {seed}");
        assert_eq!(map_a.to_btree_set(), union, "seed {seed}");
        // Round trip through FromIterator preserves equality.
        let rebuilt: CoverageMap = union.iter().copied().collect();
        assert_eq!(rebuilt, map_a, "seed {seed}");
    }
}

/// The seed hub's epoch-boundary exchange is pinned to shard-id
/// order: on random shard corpora, hub contents match an independent
/// `BTreeSet`-based first-publisher-wins fold over shards 0..n — and
/// publishing in a different order attributes contested coverage
/// differently, which is exactly why the sharded driver publishes in
/// ascending shard-id order at every boundary.
#[test]
fn seed_hub_exchange_order_is_pinned() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x005E_ED4B));
        let shards = rng.random_range(2..6u32);
        // Random per-shard corpora. Entries within one corpus have
        // disjoint contributions by construction; overlap across
        // shards comes from the shared small block range.
        let mut corpora: Vec<Corpus> = Vec::new();
        let mut published_sets: Vec<Vec<BTreeSet<u64>>> = Vec::new();
        let mut max_entries = 0usize;
        for s in 0..shards {
            let mut corpus = Corpus::new(64, u64::from(s));
            let mut sets = Vec::new();
            for _ in 0..rng.random_range(1..6u32) {
                let blocks: BTreeSet<u64> = (0..rng.random_range(1..5u32))
                    .map(|_| rng.random_range(0..24u64))
                    .collect();
                let cov = blocks.iter().copied().collect();
                if corpus.observe(Program::default(), &cov, None) > 0 {
                    sets.push(blocks);
                }
            }
            max_entries = max_entries.max(corpus.len());
            // The recorded per-entry claims are the corpus's own
            // contribution keys, in admission order.
            let recorded: Vec<BTreeSet<u64>> = (0..corpus.len())
                .map(|i| corpus.entry(i).contributed.to_btree_set())
                .collect();
            corpora.push(corpus);
            published_sets.push(recorded);
        }
        // top_k ≥ every corpus size: ranking only picks which seeds
        // fill the k slots, so with all slots available the hub must
        // retain exactly the first-publisher-wins claims.
        let mut hub = SeedHub::new(max_entries.max(1));
        for (s, corpus) in corpora.iter().enumerate() {
            hub.publish(s as u32, corpus);
        }
        // Reference fold in shard-id order over BTreeSets. Claims
        // within one shard are disjoint, so intra-shard order is
        // irrelevant and only the shard order is load-bearing.
        let mut reference: Vec<(u32, BTreeSet<u64>)> = Vec::new();
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        for (s, sets) in published_sets.iter().enumerate() {
            for blocks in sets {
                let novel: BTreeSet<u64> = blocks.difference(&claimed).copied().collect();
                if !novel.is_empty() {
                    claimed.extend(&novel);
                    reference.push((s as u32, novel));
                }
            }
        }
        let mut got: Vec<(u32, BTreeSet<u64>)> = hub
            .seeds()
            .iter()
            .map(|h| (h.shard, h.contributed.to_btree_set()))
            .collect();
        let mut want = reference.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(hub.coverage().to_btree_set(), claimed, "seed {seed}");
        // Publishing in reverse shard order attributes contested
        // blocks to the *other* first publisher — matching the same
        // reference fold run in reverse. The claimed union is order-
        // independent, the attribution is not: that is why the driver
        // pins ascending shard-id order at every boundary.
        let mut reversed = SeedHub::new(max_entries.max(1));
        for (s, corpus) in corpora.iter().enumerate().rev() {
            reversed.publish(s as u32, corpus);
        }
        assert_eq!(
            reversed.coverage().to_btree_set(),
            claimed,
            "seed {seed}: claimed union must be order-independent"
        );
        let mut rev_reference: Vec<(u32, BTreeSet<u64>)> = Vec::new();
        let mut rev_claimed: BTreeSet<u64> = BTreeSet::new();
        for (s, sets) in published_sets.iter().enumerate().rev() {
            for blocks in sets {
                let novel: BTreeSet<u64> = blocks.difference(&rev_claimed).copied().collect();
                if !novel.is_empty() {
                    rev_claimed.extend(&novel);
                    rev_reference.push((s as u32, novel));
                }
            }
        }
        let mut rev_got: Vec<(u32, BTreeSet<u64>)> = reversed
            .seeds()
            .iter()
            .map(|h| (h.shard, h.contributed.to_btree_set()))
            .collect();
        rev_got.sort();
        rev_reference.sort();
        assert_eq!(rev_got, rev_reference, "seed {seed} (reverse order)");
        // After import, every shard knows the full claimed union.
        for (s, corpus) in corpora.iter_mut().enumerate() {
            let mut want_cov = corpus.coverage().to_btree_set();
            want_cov.extend(&claimed);
            hub.import_into(s as u32, corpus);
            assert_eq!(
                corpus.coverage().to_btree_set(),
                want_cov,
                "seed {seed}: shard {s} missing imported coverage"
            );
        }
    }
}

/// The lowered-IR generator is bit-identical to the pre-lowering AST
/// walk — same RNG draw sequence, same program streams, same mutation
/// chains — across seeds, on both the dm ground-truth suite and a
/// merged multi-blueprint suite (drivers and sockets, shared builtin
/// resources, cross-file name spaces). Execution outcomes through the
/// lowered encode→dispatch path match the AST executor on the same
/// kernels.
#[test]
fn lowered_pipeline_is_bit_identical_to_ast_walk() {
    use kernelgpt::csrc::{flagship, KernelCorpus};
    use kernelgpt::syzlang::SpecDb;
    use kernelgpt::vkernel::VKernel;

    let suites: Vec<(&str, Vec<kernelgpt::csrc::blueprint::Blueprint>)> = vec![
        ("dm ground truth", vec![flagship::dm()]),
        (
            "merged multi-blueprint",
            vec![
                flagship::dm(),
                flagship::cec(),
                flagship::rds(),
                flagship::caif_stream(),
            ],
        ),
    ];
    for (label, blueprints) in suites {
        let kc = KernelCorpus::from_blueprints(blueprints.clone());
        let suite: Vec<_> = kc
            .blueprints()
            .iter()
            .map(|bp| bp.ground_truth_spec())
            .collect();
        let db = SpecDb::from_files(suite);
        let kernel = VKernel::boot(blueprints);
        // Lower once per suite and execute through reused scratches,
        // like the campaign loop does (the one-shot `execute` wrapper
        // would re-lower per call).
        let lowered_db = std::sync::Arc::new(LoweredDb::build(&db, kc.consts()));
        let mut low_scratch = ExecScratch::from_lowered(std::sync::Arc::clone(&lowered_db));
        let mut ast_scratch = AstScratch::new(&db, kc.consts());
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let mut lowered = Generator::from_lowered(std::sync::Arc::clone(&lowered_db), seed);
            let mut ast = AstGenerator::new(&db, kc.consts(), seed);
            let mut lp = Program::default();
            let mut ap = Program::default();
            for step in 0..120u32 {
                // Interleave fresh generation and chained mutation,
                // like the campaign loop does.
                let (l, a) = if step % 4 == 0 {
                    (lowered.gen_program(8), ast.gen_program(8))
                } else {
                    (lowered.mutate(&lp, 8), ast.mutate(&ap, 8))
                };
                assert_eq!(l, a, "{label}: seed {seed} step {step}");
                if step % 3 == 0 {
                    execute_with(&kernel, &l, &mut low_scratch);
                    ast_execute_with(&kernel, &l, &mut ast_scratch);
                    assert_eq!(
                        low_scratch.rets, ast_scratch.rets,
                        "{label}: seed {seed} step {step}"
                    );
                    assert_eq!(
                        *low_scratch.coverage(),
                        ast_scratch.state.trace().coverage(),
                        "{label}: seed {seed} step {step}"
                    );
                    assert_eq!(
                        low_scratch.state.crash, ast_scratch.state.crash,
                        "{label}: seed {seed} step {step}"
                    );
                }
                lp = l;
                ap = a;
            }
        }
    }
}

/// The crash-triage report of a sharded campaign is a pure function
/// of `(config, shards)`: on the deep-chain suite — whose crashes sit
/// behind 3-4-call producer chains, so shards genuinely race to
/// discover them — the full [`TriageReport`] (signatures, first-seen
/// epoch/shard, dedup counts, raw and ddmin-minimized reproducers) is
/// bit-identical at 1/2/4/8 worker threads, across seeds. Capture
/// happens inside the deterministic shard loops; minimization runs at
/// epoch boundaries in shard-id order on the driving thread — the
/// same discipline the seed hub is pinned to above.
#[test]
fn triage_report_is_bit_identical_at_any_thread_count() {
    use kernelgpt::csrc::{deepchain, KernelCorpus};
    use kernelgpt::fuzzer::{CampaignConfig, ShardedCampaign};
    use kernelgpt::vkernel::VKernel;

    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    for seed in [1u64, 7, 0xDEAD_BEEF] {
        let cfg = CampaignConfig {
            execs: 3000,
            seed,
            max_prog_len: 10,
            hub_epoch: 125,
            hub_top_k: 4,
            ..CampaignConfig::default()
        };
        let run = |threads: usize| {
            ShardedCampaign::new(&kernel, &suite, kc.consts(), cfg.clone())
                .with_shards(8)
                .with_threads(threads)
                .run()
        };
        let base = run(1);
        assert!(
            !base.triage.is_empty(),
            "seed {seed}: no crash triaged on the deep-chain suite"
        );
        for threads in [2usize, 4, 8] {
            let r = run(threads);
            assert_eq!(base.coverage, r.coverage, "seed {seed} threads {threads}");
            assert_eq!(base.crashes, r.crashes, "seed {seed} threads {threads}");
            assert_eq!(base.triage, r.triage, "seed {seed} threads {threads}");
        }
    }
}

/// Campaign-produced minimized reproducers are 1-minimal against the
/// real kernel: each still triggers its signature through the lowered
/// dispatch path, and removing **any single call** (with resource
/// references remapped) loses the crash.
#[test]
fn triage_minimized_reproducers_are_one_minimal() {
    use kernelgpt::csrc::{deepchain, KernelCorpus};
    use kernelgpt::fuzzer::{CampaignConfig, ShardedCampaign};
    use kernelgpt::triage::without_call;
    use kernelgpt::vkernel::VKernel;

    let kc = KernelCorpus::from_blueprints(deepchain::suite());
    let suite: Vec<_> = kc
        .blueprints()
        .iter()
        .map(|bp| bp.ground_truth_spec())
        .collect();
    let kernel = VKernel::boot(deepchain::suite());
    let cfg = CampaignConfig {
        execs: 8000,
        seed: 1,
        max_prog_len: 12,
        hub_epoch: 250,
        hub_top_k: 4,
        ..CampaignConfig::default()
    };
    let r = ShardedCampaign::new(&kernel, &suite, kc.consts(), cfg).run();
    assert!(
        r.triage.len() >= 2,
        "expected several signatures, got {}",
        r.triage.len()
    );
    let (db, lowered) =
        kernelgpt::syzlang::SpecCache::global().get_or_build_lowered(&suite, kc.consts());
    let _ = db;
    let mut scratch = ExecScratch::from_lowered(lowered);
    for e in r.triage.entries() {
        execute_with(&kernel, &e.minimized, &mut scratch);
        assert_eq!(
            scratch.crash().map(|c| c.signature),
            Some(e.signature),
            "{}: minimized reproducer lost its crash",
            e.title
        );
        for i in 0..e.minimized.len() {
            let probe = without_call(&e.minimized, i);
            execute_with(&kernel, &probe, &mut scratch);
            assert_ne!(
                scratch.crash().map(|c| c.signature),
                Some(e.signature),
                "{}: still crashes without call {i} — not 1-minimal",
                e.title
            );
        }
    }
}

/// Synthetic blueprints always emit parseable C whose macros agree
/// with the blueprint's command values.
#[test]
fn synthetic_blueprints_are_coherent() {
    for seed in 0..32u64 {
        let plan = kernelgpt::csrc::synth::SynthPlan {
            drivers_loaded_complete: 1,
            drivers_loaded_partial: 1,
            drivers_loaded_none: 1,
            drivers_unloaded: 0,
            drivers_friendly: 1,
            drivers_too_deep: 0,
            sockets_loaded_complete: 1,
            sockets_loaded_partial: 1,
            sockets_loaded_none: 0,
            sockets_unloaded: 0,
            sockets_opaque: 0,
        };
        let bps = kernelgpt::csrc::synth::generate(&plan, seed * 17);
        for bp in &bps {
            let src = kernelgpt::csrc::emit::emit_blueprint(bp);
            let file = kernelgpt::csrc::parser::cparse("p.c", &src)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}\n{src}", bp.id));
            let corpus = kernelgpt::csrc::Corpus::build(vec![file]);
            for cmd in &bp.cmds {
                let v = cmacro::eval_const(&corpus, &cmd.name);
                assert_eq!(v, Some(bp.cmd_value(cmd)), "seed {seed} {}", bp.id);
            }
        }
    }
}
