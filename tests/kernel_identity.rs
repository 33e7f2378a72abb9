//! "Same kernel" pinned by bytes.
//!
//! `VKernel::boot` compiles every blueprint command into a dense table
//! and the exec path consumes only that table. These goldens were
//! recorded on the commit *before* that port (`36ac6d1`), where the
//! kernel still resolved structs, offsets, flag sets, trigger commands
//! and sub-handlers by name on every call — so they hold the compiled
//! kernel to the interpreted one, not to itself.
//!
//! Two digests per suite:
//!
//! * the **exec stream**: a fixed generate/mutate program stream,
//!   hashing every return value, covered block, logged event
//!   (which fixes the *order* blocks retire in), crash report and fuel
//!   count — once with fuel unlimited and once with a budget small
//!   enough that the watchdog trips in the middle of a command;
//! * the **campaign result**: coverage set, crash tally, triage report
//!   (reproducers included) and fuel count of a sharded, hub-on run.
//!
//! The suites cover ioctl and sockopt dispatch, `sendto` `PayloadLen`
//! bugs, `IocNr` and `Masked` command transforms, `CreatesFd` chains
//! three hops deep, state machines, id issue/validation and every
//! trigger shape — and, in `misnamed`, a kernel whose blueprints name
//! things that are not there, fuzzed with the specs of the kernel they
//! were derived from.

use kernelgpt::csrc::blueprint::{
    ArgField, ArgKind, Blueprint, BugBlueprint, CmdEffect, CmdTransform, FieldTy, Trigger,
};
use kernelgpt::csrc::synth::{self, SynthPlan};
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fuzzer::{
    execute_with, CampaignConfig, CampaignResult, ExecScratch, Generator, Program, ShardedCampaign,
};
use kernelgpt::syzlang::lowered::LoweredDb;
use kernelgpt::syzlang::{ConstDb, SpecDb, SpecFile};
use kernelgpt::trace::fnv1a;
use kernelgpt::vkernel::{CrashSignature, TraceEvent, VKernel};
use std::sync::Arc;

/// Little-endian words and length-prefixed strings, hashed at the end.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) -> &mut Digest {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    fn signature(&mut self, sig: &CrashSignature) -> &mut Digest {
        self.u64(u64::from(sig.sysno.as_index()))
            .u64(u64::from(sig.chain_depth))
            .u64(u64::from(sig.sanitizer.as_index()))
            .u64(sig.site)
    }

    fn program(&mut self, p: &Program) -> &mut Digest {
        let mut bytes = Vec::new();
        p.encode_into(&mut bytes);
        self.u64(bytes.len() as u64);
        self.0.extend_from_slice(&bytes);
        self
    }

    fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

/// A small synthetic population; it must contain a `Masked` driver,
/// which no flagship has.
fn synth_suite() -> Vec<Blueprint> {
    let plan = SynthPlan {
        drivers_loaded_complete: 6,
        drivers_loaded_partial: 3,
        drivers_loaded_none: 3,
        drivers_unloaded: 0,
        drivers_friendly: 1,
        drivers_too_deep: 0,
        sockets_loaded_complete: 2,
        sockets_loaded_partial: 1,
        sockets_loaded_none: 1,
        sockets_unloaded: 0,
        sockets_opaque: 0,
    };
    let blueprints = synth::generate(&plan, 5);
    assert!(
        blueprints.iter().any(|bp| matches!(
            bp.driver().map(|d| d.transform),
            Some(CmdTransform::Masked(_))
        )),
        "the synthetic suite lost its Masked driver"
    );
    blueprints
}

/// The deep-chain kernel with names that resolve to nothing, or to
/// more than one thing: a command on an undeclared struct, a
/// sub-handler that is not booted, two commands of one name, and
/// triggers on a missing field, a flexible array and a missing command.
fn misnamed_suite() -> Vec<Blueprint> {
    let mut suite = deepchain::suite();
    // DCROOT_STATS mints an fd on a handler nobody booted.
    suite[0].cmds[4].effect = CmdEffect::CreatesFd {
        handler: "absent".into(),
    };
    let buf = &mut suite[3];
    buf.cmds[3].arg = ArgKind::Struct("dcbuf_gone".into());
    buf.cmds[4].name = buf.cmds[2].name.clone();
    let flex = FieldTy::FlexArray(Box::new(FieldTy::U32));
    buf.structs[0].fields.push(ArgField::plain("tail", flex));
    let (scale, commit) = (buf.cmds[1].name.clone(), buf.cmds[2].name.clone());
    let bug = |title: &str, trigger| BugBlueprint {
        title: title.into(),
        cve: None,
        trigger,
    };
    buf.bugs.extend([
        bug(
            "never: no such field",
            Trigger::FieldZero {
                cmd: scale.clone(),
                field: "missing".into(),
            },
        ),
        bug(
            "never: nothing to decode",
            Trigger::FieldAbove {
                cmd: scale.clone(),
                field: "tail".into(),
                min: 0,
            },
        ),
        bug(
            "never: no such command",
            Trigger::Sequence {
                first: "DCBUF_NOPE".into(),
                then: scale.clone(),
            },
        ),
        bug(
            "KASAN: scale after either commit",
            Trigger::Sequence {
                first: commit,
                then: scale,
            },
        ),
    ]);
    suite
}

/// `(label, the kernel's blueprints, the blueprints the specs come
/// from)`.
fn suites() -> Vec<(&'static str, Vec<Blueprint>, Vec<Blueprint>)> {
    let mixed = vec![
        flagship::dm(),
        flagship::kvm(),
        flagship::kvm_vm(),
        flagship::kvm_vcpu(),
        flagship::rds(),
        flagship::caif_stream(),
    ];
    vec![
        ("dm", vec![flagship::dm()], vec![flagship::dm()]),
        ("deep-chain", deepchain::suite(), deepchain::suite()),
        ("mixed", mixed.clone(), mixed),
        ("synth", synth_suite(), synth_suite()),
        ("misnamed", misnamed_suite(), deepchain::suite()),
    ]
}

fn setup(kernel: &[Blueprint], described: &[Blueprint]) -> (VKernel, Vec<SpecFile>, ConstDb) {
    let kc = KernelCorpus::from_blueprints(described.to_vec());
    let suite = kc
        .blueprints()
        .iter()
        .map(Blueprint::ground_truth_spec)
        .collect();
    (VKernel::boot(kernel.to_vec()), suite, kc.consts().clone())
}

/// Everything one exec leaves behind.
fn exec_stream_digest(kernel: &[Blueprint], described: &[Blueprint], fuel: u64) -> u64 {
    let (kernel, suite, consts) = setup(kernel, described);
    let db = SpecDb::from_files(suite);
    let lowered = Arc::new(LoweredDb::build(&db, &consts));
    let mut scratch = ExecScratch::from_lowered(Arc::clone(&lowered));
    scratch.state.set_fuel_limit(fuel);
    let mut g = Generator::from_lowered(lowered, 0x1DE7);
    let mut d = Digest::default();
    let (mut crashes, mut exhausted) = (0u64, 0u64);
    for _ in 0..150 {
        let mut prog = g.gen_program(10);
        for _ in 0..4 {
            execute_with(&kernel, &prog, &mut scratch);
            d.u64(scratch.rets.len() as u64);
            for r in &scratch.rets {
                d.u64(*r as u64);
            }
            d.u64(scratch.coverage().len() as u64);
            for b in scratch.coverage().iter() {
                d.u64(b);
            }
            for ev in scratch.state.trace().events() {
                match *ev {
                    TraceEvent::Block { start, len } => d.u64(0).u64(start).u64(u64::from(len)),
                    TraceEvent::Call { index } => d.u64(1).u64(u64::from(index)),
                    TraceEvent::Crash { site } => d.u64(2).u64(site),
                };
            }
            match scratch.crash() {
                Some(c) => {
                    crashes += 1;
                    d.u64(1)
                        .str(&c.title)
                        .str(c.cve.as_deref().unwrap_or(""))
                        .str(&c.handler)
                        .signature(&c.signature);
                }
                None => {
                    d.u64(0);
                }
            }
            d.u64(scratch.state.fuel_spent())
                .u64(u64::from(scratch.state.fuel_exhausted()));
            exhausted += u64::from(scratch.state.fuel_exhausted());
            prog = g.mutate(&prog, 10);
        }
    }
    d.u64(crashes).u64(exhausted);
    d.finish()
}

fn campaign_digest(r: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.u64(r.coverage.len() as u64);
    for b in r.coverage.iter() {
        d.u64(b);
    }
    d.u64(r.crashes.len() as u64);
    for (title, (count, cve)) in &r.crashes {
        d.str(title).u64(*count).str(cve.as_deref().unwrap_or(""));
    }
    d.u64(r.execs)
        .u64(r.corpus_size as u64)
        .u64(r.fuel_exhausted)
        .u64(r.triage.len() as u64);
    for e in r.triage.entries() {
        d.signature(&e.signature)
            .str(&e.title)
            .str(e.cve.as_deref().unwrap_or(""))
            .u64(e.first_epoch)
            .u64(u64::from(e.first_shard))
            .u64(e.count)
            .u64(e.minimize_execs)
            .u64(u64::from(e.reproducible))
            .program(&e.raw)
            .program(&e.minimized);
    }
    d.finish()
}

fn campaign(
    kernel: &[Blueprint],
    described: &[Blueprint],
    execs: u64,
    fuel: u64,
) -> CampaignResult {
    let (kernel, suite, consts) = setup(kernel, described);
    let config = CampaignConfig {
        execs,
        seed: 0x5EED,
        max_prog_len: 10,
        hub_epoch: 150,
        hub_top_k: 4,
        exec_fuel: fuel,
        ..CampaignConfig::default()
    };
    let campaign = ShardedCampaign::new(&kernel, &suite, &consts, config)
        .with_shards(4)
        .with_threads(1);
    campaign.run()
}

/// A budget this small runs out while a struct argument is being
/// decoded or a command body retired, not between calls.
const TIGHT_FUEL: u64 = 48;

/// `(suite, exec stream, exec stream under TIGHT_FUEL, campaign,
/// campaign under TIGHT_FUEL)`, recorded on `36ac6d1`.
const GOLDEN: [(&str, u64, u64, u64, u64); 5] = [
    (
        "dm",
        0x2236_89af_bcda_7877,
        0xe7bb_f884_8982_c364,
        0x66fa_a12f_d0f8_2ecb,
        0x3e87_9f3b_6db2_9f48,
    ),
    (
        "deep-chain",
        0xd67e_025d_4b98_d359,
        0xb918_9d8e_50bc_d4dc,
        0x5063_ecc0_297a_080a,
        0xad61_7438_3b98_f4ef,
    ),
    (
        "mixed",
        0x0377_c98f_d570_40a1,
        0x316f_c584_8bf6_08f5,
        0x317e_7961_2f95_8558,
        0xfef4_21bc_e800_7a92,
    ),
    (
        "synth",
        0x5766_7cd7_07f3_dc03,
        0xa5bf_6e98_dbef_92d4,
        0xc89b_485f_366d_3f76,
        0x9e04_a2ac_ef89_38ea,
    ),
    (
        "misnamed",
        0xa375_8b33_7b32_b368,
        0xb918_9d8e_50bc_d4dc,
        0x7fc8_6ac7_0156_83ae,
        0xad61_7438_3b98_f4ef,
    ),
];

#[test]
fn the_compiled_kernel_is_the_interpreted_kernel_byte_for_byte() {
    let mut got = Vec::new();
    for (label, kernel, described) in suites() {
        // dm programs are ~200× the size of the others'.
        let execs = if label == "dm" { 1_200 } else { 6_000 };
        let full = campaign(&kernel, &described, execs, 1 << 20);
        let tight = campaign(&kernel, &described, execs, TIGHT_FUEL);
        // The synthetic population carries no injected bug.
        assert_eq!(full.triage.is_empty(), label == "synth", "{label}: triage");
        assert!(
            tight.fuel_exhausted > 0,
            "{label}: the watchdog never tripped"
        );
        let row = (
            label,
            exec_stream_digest(&kernel, &described, 0),
            exec_stream_digest(&kernel, &described, TIGHT_FUEL),
            campaign_digest(&full),
            campaign_digest(&tight),
        );
        // `--nocapture` prints the rows in the form `GOLDEN` holds.
        println!(
            "(\"{}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
            row.0, row.1, row.2, row.3, row.4
        );
        got.push(row);
    }
    assert_eq!(got, GOLDEN);
}
