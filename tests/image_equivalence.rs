//! A pointee's image never changes what a program is or encodes to.
//!
//! The lowered encoder copies a closed pointee's bytes from an image
//! (`kgpt_syzlang::value::Pointee`): one the generator wrote directly,
//! for a type that is closed by construction (the pointee is *born
//! packed* and its tree is derived on demand), or one memoised from an
//! earlier walk of a shared tree. Everything here runs a program both
//! ways — the lowered path, where images are born, fill and are read,
//! and the AST walk, which builds trees and has no cache — and demands
//! equal programs and wire bytes, the same registers, the same raw
//! segments, and the same `rets`, coverage and crash: before a packed
//! pointee was ever unpacked and after, before a program is shared,
//! while its images fill, after, for its mutants, and off the wire.
//! The hostile cases are the ways an image could be wrong: a value
//! whose bytes depend on the run, a value that does not encode, a
//! database the image was not built under, and a type that only looks
//! closed.

use kernelgpt::csrc::blueprint::Blueprint;
use kernelgpt::csrc::{deepchain, flagship, KernelCorpus};
use kernelgpt::fuzzer::{
    ast_execute_with, execute_with, AstGenerator, AstScratch, ExecScratch, Generator, ProgCall,
    Program,
};
use kernelgpt::syzlang::lowered::{LType, LoweredDb, LoweredEncoder};
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

/// Both forms of one program: what the lowered generator made
/// (closed pointees born packed) and what the AST walk made from the
/// same draws (trees throughout).
fn assert_same_program(lowered: &Program, ast: &Program, ctx: &str) {
    // Equality in both argument orders: packed against tree and tree
    // against packed take different arms.
    assert_eq!(lowered, ast, "{ctx}");
    assert_eq!(ast, lowered, "{ctx}");
    let (mut l, mut a) = (Vec::new(), Vec::new());
    lowered.encode_into(&mut l);
    ast.encode_into(&mut a);
    assert_eq!(l, a, "{ctx}: wire bytes");
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
            assert_eq!(*low.coverage(), ast.state.trace().coverage(), "{ctx}");
            assert_eq!(low.state.crash, ast.state.crash, "{ctx}");
            assert_encodes_like_ast(&db, kc.consts(), &lowered, &mut enc, prog, &ast.rets, ctx);
        };
        // What a corpus does: hold programs so later mutants share
        // their pointees with them.
        let mut held: Vec<Program> = Vec::new();
        let (mut packed, mut trees) = (0, 0);
        for seed in [3u64, 0xC0FFEE, 0x5EED_0003] {
            let mut g = Generator::from_lowered(Arc::clone(&lowered), seed);
            let mut ag = AstGenerator::new(&db, kc.consts(), seed);
            for step in 0..40 {
                let at = |what: &str| format!("{label}: seed {seed} step {step}: {what}");
                let prog = g.gen_program(8);
                let ast_prog = ag.gen_program(8);
                let forms = prog.pointee_forms();
                (packed, trees) = (packed + forms.0, trees + forms.1);
                // The lowered run sees the program first: its packed
                // pointees have never been unpacked. (The AST run
                // right after it is the first to ask for their trees.)
                check(&prog, &at("cold"));
                assert_same_program(&prog, &ast_prog, &at("fresh"));
                check(&ast_prog, &at("the AST walk's own program"));
                held.push(prog.clone());
                check(&prog, &at("shared, unpacked, images filling"));
                check(&prog, &at("shared, unpacked, images filled"));
                let mut mutant = g.mutate(&prog, 8);
                let mut ast_mutant = ag.mutate(&ast_prog, 8);
                for depth in 0..3 {
                    check(&mutant, &at(&format!("mutant {depth}, cold")));
                    assert_same_program(&mutant, &ast_mutant, &at(&format!("mutant {depth}")));
                    check(&mutant, &at(&format!("mutant {depth}, unpacked")));
                    held.push(mutant.clone());
                    mutant = g.mutate(&mutant, 8);
                    ast_mutant = ag.mutate(&ast_mutant, 8);
                }
                // Off the wire a program is trees throughout, shares
                // nothing and holds no image, whatever the program it
                // was encoded from held.
                let mut bytes = Vec::new();
                mutant.encode_into(&mut bytes);
                let decoded = Program::decode_from(&bytes, &mut 0).expect("round trip");
                assert_eq!(decoded.pointee_forms().0, 0, "{}", at("decoded"));
                assert_same_program(&mutant, &decoded, &at("decoded"));
                assert_same_program(&decoded, &ast_mutant, &at("decoded against the AST walk"));
                check(&decoded, &at("decoded"));
            }
        }
        // Every ground-truth pointee is closed by construction, bar the
        // lone strings `openat` takes.
        assert!(packed > 100, "{label}: only {packed} pointees born packed");
        assert!(packed > trees, "{label}: {packed} packed, {trees} trees");
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

/// Programs the generator makes over `HOSTILE_SPEC` hold `s` born
/// packed, `MAGIC` and all; under a second database they must be walked
/// again.
#[test]
fn a_born_packed_image_is_never_trusted_under_another_database() {
    let db = SpecDb::from_files(vec![parse("hostile", HOSTILE_SPEC).expect("spec parses")]);
    let consts = consts_with_magic(0xAAAA);
    let other_consts = consts_with_magic(0xBBBB);
    let lowered = Arc::new(LoweredDb::build(&db, &consts));
    let other = LoweredDb::build(&db, &other_consts);
    let mut enc = LoweredEncoder::new();
    let mut g = Generator::from_lowered(Arc::clone(&lowered), 11);
    let mut packed = 0;
    for step in 0..60 {
        let prog = g.gen_program(4);
        packed += prog.pointee_forms().0;
        let rets = vec![3i64; prog.len()];
        // Same type ids, other bytes: first under the foreign database
        // (through the tree), then at home (the image), then both again.
        for round in 0..2 {
            let ctx = format!("step {step} round {round}");
            assert_encodes_like_ast(&db, &other_consts, &other, &mut enc, &prog, &rets, &ctx);
            assert_encodes_like_ast(&db, &consts, &lowered, &mut enc, &prog, &rets, &ctx);
        }
    }
    assert!(packed > 20, "only {packed} pointees born packed");
}

/// Every way a pointee type can fail to be closed by construction, one
/// pointee each, and two that are closed: alone, and nested inside a
/// pointee that is not.
const OPEN_SPEC: &str = r#"
resource fd_o[fd]
openat$o(dir const[0], file ptr[in, string["/dev/o"]], flags const[2], mode const[0]) fd_o
ioctl$UNION(fd fd_o, cmd const[1], arg ptr[in, with_union])
ioctl$PTR(fd fd_o, cmd const[2], arg ptr[in, with_ptr])
ioctl$CONST(fd fd_o, cmd const[3], arg ptr[in, with_const])
ioctl$NAMED(fd fd_o, cmd const[4], arg ptr[in, with_unknown])
ioctl$RES(fd fd_o, cmd const[5], arg ptr[in, with_res])
ioctl$MID(fd fd_o, cmd const[6], arg ptr[in, with_mid_array])
ioctl$DEEP(fd fd_o, cmd const[7], arg ptr[in, with_deep_array])
ioctl$STR(fd fd_o, cmd const[8], arg ptr[in, with_string])
ioctl$CLOSED(fd fd_o, cmd const[9], arg ptr[in, closed])
with_union {
	a	int32
	u	choice
}
choice [
	x	int8
	y	int64
]
with_ptr {
	n	len[data, int32]
	sz	bytesize[data, int32]
	data	ptr[in, array[int8]]
	inner_sz	bytesize[inner, int32]
	inner_n	len[inner, int32]
	inner	ptr[in, closed]
}
with_const {
	magic	const[UNDEFINED, int32]
	v	int32
}
with_unknown {
	x	mystery
	v	int32
}
with_res {
	f	fd_o
	v	int32
}
with_mid_array {
	a	array[int32, 1:3]
	after	int32
}
with_deep_array {
	n	int32
	inner	holds_array
}
holds_array {
	n	len[tail, int32]
	tail	array[int16]
}
with_string {
	s	string["a", "bcd"]
}
closed {
	magic	const[0x4f, int16]
	n	len[tail, int32]
	sz	bytesize[tail, int32]
	fixed_n	len[pair, int8]
	fixed_sz	bytesize[pair, int8]
	self_sz	bytesize[self_sz, int8]
	lost	len[nowhere, int16]
	mode	flags[modes, int16]
	pair	array[two, 2]
	small	int32[1:9]
	tail	array[two]
}
two {
	a	int8
	b	int64[0:1]
	name	array[int8, 3]
}
modes = 1, 2, 4
"#;

#[test]
fn a_type_that_is_not_closed_by_construction_compiles_no_plan_and_keeps_the_tree_stream() {
    let db = SpecDb::from_files(vec![parse("open", OPEN_SPEC).expect("spec parses")]);
    let consts = ConstDb::new();
    let lowered = Arc::new(LoweredDb::build(&db, &consts));
    let pointee = |name: &str| {
        let sys = lowered.syscall(lowered.syscall_index(name).expect(name));
        match lowered.ltype(sys.params[2].ty) {
            LType::Ptr { elem, .. } => elem,
            other => panic!("{name}: arg is {other:?}"),
        }
    };
    for open in [
        "ioctl$UNION",
        "ioctl$PTR",
        "ioctl$CONST",
        "ioctl$NAMED",
        "ioctl$RES",
        "ioctl$MID",
        "ioctl$DEEP",
        "ioctl$STR",
    ] {
        assert!(lowered.plan(pointee(open)).is_none(), "{open} got a plan");
    }
    assert!(lowered.plan(pointee("ioctl$CLOSED")).is_some());

    // The stream is the AST walk's, draw for draw, and only `closed`
    // (alone, or behind `with_ptr.inner`) and `with_ptr.data` are ever
    // born packed; every encode — errors included — is the AST walk's.
    let mut enc = LoweredEncoder::new();
    let (mut packed, mut trees) = (0, 0);
    for seed in [1u64, 2, 3] {
        let mut g = Generator::from_lowered(Arc::clone(&lowered), seed);
        let mut ag = AstGenerator::new(&db, &consts, seed);
        let (mut prog, mut ast_prog) = (Program::default(), Program::default());
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            (prog, ast_prog) = if step % 4 == 0 {
                (g.gen_program(6), ag.gen_program(6))
            } else {
                (g.mutate(&prog, 6), ag.mutate(&ast_prog, 6))
            };
            let rets = vec![3i64; prog.len()];
            // Lowered first: `with_ptr` measures its packed siblings
            // without their trees.
            assert_encodes_like_ast(&db, &consts, &lowered, &mut enc, &prog, &rets, &ctx);
            assert_same_program(&prog, &ast_prog, &ctx);
            for (call, sys) in prog
                .calls
                .iter()
                .map(|c| (c, db.syscall_at(c.sys as usize)))
            {
                let forms = Program {
                    calls: vec![call.clone()],
                }
                .pointee_forms();
                (packed, trees) = (packed + forms.0, trees + forms.1);
                if sys.name() == "ioctl$CLOSED" {
                    // Not vacuous: the closed pointee does encode.
                    enc.reset();
                    let arg = lowered.syscall(call.sys as usize).params[2].ty;
                    let reg = enc.encode_arg(&lowered, arg, &call.args[2], &|r| r.fallback);
                    assert!(reg.is_ok(), "{ctx}: {reg:?}");
                }
                let want = match sys.name().as_str() {
                    "ioctl$CLOSED" => forms.1 == 0,
                    "ioctl$PTR" => forms.1 <= 1,
                    _ => forms.0 == 0,
                };
                assert!(want, "{ctx}: {} has {forms:?} (packed, trees)", sys.name());
            }
        }
    }
    assert!(
        packed > 100 && trees > 100,
        "{packed} packed, {trees} trees"
    );
}

/// Over the 48 flagship handlers' ground truth every top-level pointer
/// parameter points at a type that is closed by construction, or at a
/// lone `string[...]` — one `Bytes` node either way, which a plan
/// would not make any cheaper. And every one of those plans lays its
/// pointee out exactly as the AST walk encodes the same draws.
#[test]
fn every_flagship_pointee_is_closed_or_a_lone_string_and_born_as_the_ast_walk_encodes_it() {
    let kc = KernelCorpus::flagship_only();
    assert_eq!(kc.blueprints().len(), 48);
    let db = SpecDb::from_files(
        kc.blueprints()
            .iter()
            .map(Blueprint::ground_truth_spec)
            .collect(),
    );
    let lowered = Arc::new(LoweredDb::build(&db, kc.consts()));
    let (mut pointers, mut plans) = (0, 0);
    for i in 0..lowered.syscall_count() {
        for p in &lowered.syscall(i).params {
            let LType::Ptr { elem, .. } = lowered.ltype(p.ty) else {
                continue;
            };
            pointers += 1;
            match lowered.plan(elem) {
                Some(_) => plans += 1,
                None => assert!(
                    matches!(lowered.ltype(elem), LType::StringLit { .. }),
                    "{}: {} is neither closed nor a string",
                    lowered.syscall_name(i),
                    lowered.printed(elem)
                ),
            }
        }
    }
    assert_eq!((plans, pointers), (203, 239));

    let mut enc = LoweredEncoder::new();
    let mut g = Generator::from_lowered(Arc::clone(&lowered), 48);
    let mut ag = AstGenerator::new(&db, kc.consts(), 48);
    let mut born: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for step in 0..1_500 {
        let ctx = format!("step {step}");
        let (prog, ast_prog) = (g.gen_program(8), ag.gen_program(8));
        let rets = vec![3i64; prog.len()];
        assert_encodes_like_ast(&db, kc.consts(), &lowered, &mut enc, &prog, &rets, &ctx);
        assert_same_program(&prog, &ast_prog, &ctx);
        for call in &prog.calls {
            let alone = Program {
                calls: vec![call.clone()],
            };
            if alone.pointee_forms().0 > 0 {
                born.insert(call.sys);
            }
        }
    }
    // The stream reached (nearly) every syscall that takes a closed
    // pointee: 203 parameters over fewer syscalls (some take two).
    assert!(born.len() > 150, "only {} syscalls born packed", born.len());
}
