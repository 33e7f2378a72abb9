//! A memoised pointee image never changes what a program encodes to.
//!
//! The lowered encoder copies a shared, closed pointee's bytes from an
//! image it memoised on an earlier walk (`kgpt_syzlang::value::Pointee`).
//! Everything here runs a program both ways — the lowered path, where
//! images fill and are read, and the AST walk, which has no cache — and
//! demands the same registers, the same raw segments, and the same
//! `rets`, coverage and crash, before a program is shared, while its
//! images fill, after, and for its mutants. The hostile cases are the
//! ways an image could be wrong: a value whose bytes depend on the run,
//! a value that does not encode, and a database the image was not
//! built under.

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fuzzer::{
    ast_execute_with, execute_with, AstScratch, ExecScratch, Generator, ProgCall, Program,
};
use kernelgpt::syzlang::lowered::{LoweredDb, LoweredEncoder};
use kernelgpt::syzlang::value::{MemBuilder, ResRef};
use kernelgpt::syzlang::{parse, ConstDb, SpecDb, Value};
use kernelgpt::vkernel::VKernel;
use std::sync::Arc;

/// Encode every call of `prog` through both encoders, resolving
/// resources against `rets`, and demand identical registers (or
/// errors) and identical raw segments.
fn assert_encodes_like_ast(
    db: &SpecDb,
    consts: &ConstDb,
    lowered: &LoweredDb,
    enc: &mut LoweredEncoder,
    prog: &Program,
    rets: &[i64],
    ctx: &str,
) {
    let mut ast = MemBuilder::new(db, consts);
    for (ci, call) in prog.calls.iter().enumerate() {
        let resolve = |r: &ResRef| match r.producer.and_then(|i| rets[..ci].get(i)) {
            Some(v) if *v >= 0 => *v as u64,
            _ => r.fallback,
        };
        enc.reset();
        ast.reset();
        let lparams = &lowered.syscall(call.sys as usize).params;
        let aparams = &db.syscall_at(call.sys as usize).params;
        for (i, v) in call.args.iter().enumerate().take(6) {
            let want = ast.encode_arg(&aparams[i].ty, v, &resolve);
            let got = enc.encode_arg(lowered, lparams[i].ty, v, &resolve);
            assert_eq!(got, want, "{ctx}: call {ci} arg {i}");
            if want.is_err() {
                break;
            }
        }
        assert_eq!(enc.segments(), ast.segments(), "{ctx}: call {ci}");
    }
}

#[test]
fn shared_programs_and_their_mutants_execute_exactly_like_the_ast_walk() {
    let suites: Vec<(&str, Vec<Blueprint>)> = vec![
        ("dm", vec![flagship::dm()]),
        ("deep-chain", deepchain::suite()),
        (
            "multi-driver",
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
        let db = SpecDb::from_files(
            kc.blueprints()
                .iter()
                .map(Blueprint::ground_truth_spec)
                .collect(),
        );
        let kernel = VKernel::boot(blueprints);
        let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
        let mut low = ExecScratch::from_lowered(Arc::clone(&lowered));
        let mut ast = AstScratch::new(&db, kc.consts());
        let mut enc = LoweredEncoder::new();
        let mut check = |prog: &Program, ctx: &str| {
            execute_with(&kernel, prog, &mut low);
            ast_execute_with(&kernel, prog, &mut ast);
            assert_eq!(low.rets, ast.rets, "{ctx}");
            assert_eq!(low.state.coverage, ast.state.coverage, "{ctx}");
            assert_eq!(low.state.crash, ast.state.crash, "{ctx}");
            assert_encodes_like_ast(&db, kc.consts(), &lowered, &mut enc, prog, &ast.rets, ctx);
        };
        // What a corpus does: hold programs so later mutants share
        // their pointees with them.
        let mut held: Vec<Program> = Vec::new();
        for seed in [3u64, 0xC0FFEE] {
            let mut g = Generator::from_lowered(Arc::clone(&lowered), seed);
            for step in 0..40 {
                let at = |what: &str| format!("{label}: seed {seed} step {step}: {what}");
                let prog = g.gen_program(8);
                check(&prog, &at("cold"));
                held.push(prog.clone());
                check(&prog, &at("shared, images filling"));
                check(&prog, &at("shared, images filled"));
                let mut mutant = g.mutate(&prog, 8);
                for depth in 0..3 {
                    check(&mutant, &at(&format!("mutant {depth}")));
                    held.push(mutant.clone());
                    mutant = g.mutate(&mutant, 8);
                }
                // Off the wire a program shares nothing and holds no
                // image, whatever the program it was encoded from held.
                let mut bytes = Vec::new();
                prog.encode_into(&mut bytes);
                let decoded = Program::decode_from(&bytes, &mut 0).expect("round trip");
                assert_eq!(decoded, prog, "{}", at("decoded"));
                check(&decoded, &at("decoded"));
            }
        }
    }
}

const HOSTILE_SPEC: &str = r#"
resource fd_t[fd]
openat$t(dir const[0], file ptr[in, string["/dev/t"]], flags const[2], mode const[0]) fd_t
ioctl$T(fd fd_t, cmd const[1], arg ptr[in, s])
s {
	magic	const[MAGIC, int32]
	n	int32
	data	array[int8, 4]
}
"#;

/// `[openat$t, ioctl$T(arg -> {magic, n, data})]`, with a second
/// holder of the same pointees so the encoder sees them as shared.
fn hostile_program(db: &SpecDb, n: Value) -> (Program, Program) {
    let sys = |name: &str| db.syscall_index(name).expect(name) as u32;
    let prog = Program {
        calls: vec![
            ProgCall {
                sys: sys("openat$t"),
                args: vec![
                    Value::Int(0),
                    Value::ptr_to(Value::Bytes(b"/dev/t".to_vec())),
                    Value::Int(0),
                    Value::Int(0),
                ],
            },
            ProgCall {
                sys: sys("ioctl$T"),
                args: vec![
                    Value::Res(ResRef {
                        producer: Some(0),
                        fallback: u64::MAX,
                    }),
                    Value::Int(0),
                    Value::ptr_to(Value::Group(vec![
                        Value::Int(0),
                        n,
                        Value::Bytes(vec![1, 2, 3, 4]),
                    ])),
                ],
            },
        ],
    };
    let holder = prog.clone();
    (prog, holder)
}

fn consts_with_magic(magic: u64) -> ConstDb {
    let mut consts = ConstDb::new();
    consts.define("MAGIC", magic);
    consts
}

#[test]
fn an_image_is_never_trusted_where_it_could_be_wrong() {
    let db = SpecDb::from_files(vec![parse("hostile", HOSTILE_SPEC).expect("spec parses")]);
    let consts = consts_with_magic(0xAAAA);
    let lowered = LoweredDb::build(&db, &consts);
    let mut enc = LoweredEncoder::new();

    // A closed, shared pointee under a second database whose type ids
    // coincide but whose bytes do not (another MAGIC): the image built
    // under the first must be ignored, both ways round.
    let (prog, _holder) = hostile_program(&db, Value::Int(7));
    let other_consts = consts_with_magic(0xBBBB);
    let other = LoweredDb::build(&db, &other_consts);
    for round in 0..3 {
        let ctx = format!("second database, round {round}");
        assert_encodes_like_ast(&db, &consts, &lowered, &mut enc, &prog, &[3], &ctx);
        assert_encodes_like_ast(&db, &other_consts, &other, &mut enc, &prog, &[3], &ctx);
    }

    // A `Res` in an `int32` slot: the type holds no resource, the
    // value does, and its bytes follow the producer's return value.
    let smuggled = Value::Res(ResRef {
        producer: Some(0),
        fallback: 9,
    });
    let (prog, _holder) = hostile_program(&db, smuggled);
    for rets in [[5i64], [6], [-1], [5]] {
        let ctx = format!("smuggled resource, rets {rets:?}");
        assert_encodes_like_ast(&db, &consts, &lowered, &mut enc, &prog, &rets, &ctx);
    }

    // A value that does not fit its type fails the same way on every
    // encode, shared or not.
    let (prog, _holder) = hostile_program(&db, Value::Bytes(vec![0]));
    for round in 0..3 {
        let ctx = format!("misfit value, round {round}");
        assert_encodes_like_ast(&db, &consts, &lowered, &mut enc, &prog, &[3], &ctx);
    }
    // So does a type that does not encode: MAGIC is undefined here.
    let no_consts = ConstDb::new();
    let unresolved = LoweredDb::build(&db, &no_consts);
    let (prog, _holder) = hostile_program(&db, Value::Int(7));
    for round in 0..3 {
        let ctx = format!("unresolved const, round {round}");
        assert_encodes_like_ast(&db, &no_consts, &unresolved, &mut enc, &prog, &[3], &ctx);
    }
}
