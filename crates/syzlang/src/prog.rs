//! Program representation: an ordered list of syscalls with concrete
//! argument values and resource references into earlier calls.
//!
//! Calls reference their syscall description by dense [`SpecDb`]
//! index (see [`SpecDb::syscall_index`]) instead of owning a cloned
//! AST — a program is just indices plus argument values, so cloning
//! and mutating corpus entries never copies specification text.
//!
//! The type lives in `kgpt-syzlang` (not the fuzzer) because a
//! program is meaningful to every consumer of a compiled spec: the
//! fuzzer generates and executes programs, and the crash-triage
//! subsystem (`kgpt-triage`) projects and minimizes them without
//! pulling in the whole fuzzing loop.

use crate::codec::{Reader, Writer};
use crate::db::SpecDb;
use crate::lowered::{LoweredDb, PlanSink};
use crate::value::ResRef;
use crate::{Syscall, Value};
use serde::{Deserialize, Serialize};

pub use crate::codec::DecodeError;

/// Maximum value-tree nesting accepted by [`Program::decode`].
/// Generated values are shallow (a handful of levels); the bound
/// exists so a corrupt snapshot cannot recurse the decoder off the
/// stack.
pub const MAX_VALUE_DEPTH: usize = 64;

/// One call in a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgCall {
    /// Dense index of the syscall description in the [`SpecDb`] the
    /// program was generated from.
    pub sys: u32,
    /// One value per parameter.
    pub args: Vec<Value>,
}

impl ProgCall {
    /// Resolve the syscall description against its database.
    #[must_use]
    pub fn syscall<'a>(&self, db: &'a SpecDb) -> &'a Syscall {
        db.syscall_at(self.sys as usize)
    }
}

/// A syscall sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Program {
    /// Calls in execution order.
    pub calls: Vec<ProgCall>,
}

impl Program {
    /// Number of calls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Drop trailing calls, keeping resource references valid (they
    /// only ever point backwards).
    pub fn truncate(&mut self, len: usize) {
        self.calls.truncate(len);
    }

    /// Human-readable one-line-per-call rendering (for crash reports).
    #[must_use]
    pub fn display(&self, db: &SpecDb) -> String {
        self.calls
            .iter()
            .map(|c| c.syscall(db).name())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Non-null pointees anywhere in the program, as `(born packed,
    /// tree-first)`: which of its two forms the generator gave each
    /// (see [`crate::value::Pointee`]). A packed pointee holds no
    /// pointer; a tree is searched.
    #[must_use]
    pub fn pointee_forms(&self) -> (usize, usize) {
        fn walk(v: &Value, forms: &mut (usize, usize)) {
            match v {
                Value::Ptr { pointee: Some(p) } if p.packed().is_some() => forms.0 += 1,
                Value::Ptr { pointee: Some(p) } => {
                    forms.1 += 1;
                    walk(p, forms);
                }
                Value::Group(vs) => vs.iter().for_each(|v| walk(v, forms)),
                Value::Union { value, .. } => walk(value, forms),
                _ => {}
            }
        }
        let mut forms = (0, 0);
        for v in self.calls.iter().flat_map(|c| &c.args) {
            walk(v, &mut forms);
        }
        forms
    }

    /// Whether the program is one `lowered` could have generated, as
    /// far as generating from it and executing it rely on: every `sys`
    /// names a syscall of the database, every call has one argument per
    /// parameter, and every resource reference names an earlier call.
    /// [`Program::decode`] knows no database and accepts any of these;
    /// a program that arrives as bytes — a checkpoint, a journal or
    /// fabric record, a trace — is checked here once, where it enters,
    /// and the hot paths index without a check of their own.
    ///
    /// # Errors
    ///
    /// Returns the first [`Misfit`].
    pub fn fits(&self, lowered: &LoweredDb) -> Result<(), Misfit> {
        for (call, c) in self.calls.iter().enumerate() {
            let misfit = |message| Err(Misfit { call, message });
            if c.sys as usize >= lowered.syscall_count() {
                return misfit("syscall index out of range");
            }
            if c.args.len() != lowered.syscall(c.sys as usize).params.len() {
                return misfit("argument count differs from the parameter count");
            }
            if c.args.iter().any(|a| refers_forward(a, call)) {
                return misfit("resource producer does not precede its consumer");
            }
        }
        Ok(())
    }

    /// Write the program's binary encoding (layout rules:
    /// [`crate::codec`]). The format is self-delimiting, so programs
    /// concatenate and embed in every other format. This is the
    /// serialization hook for campaign checkpoints; the vendored
    /// `serde` derives are no-ops, so the wire format lives here.
    pub fn encode(&self, w: &mut Writer<'_>) {
        w.seq(&self.calls, |call, w| {
            w.u32(call.sys);
            w.seq(&call.args, encode_value);
        });
    }

    /// [`Program::encode`], appending to a plain buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode(&mut Writer::new(out));
    }

    /// Decode a program previously written by [`Program::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input, an unknown value
    /// tag, or value nesting deeper than [`MAX_VALUE_DEPTH`] —
    /// without panicking or recursing unboundedly, so a corrupt
    /// snapshot is a recoverable condition.
    pub fn decode(r: &mut Reader<'_>) -> Result<Program, DecodeError> {
        let calls = r.seq(|r| {
            Ok(ProgCall {
                sys: r.u32()?,
                args: r.seq(|r| decode_value(r, 0))?,
            })
        })?;
        Ok(Program { calls })
    }

    /// [`Program::decode`] out of a plain buffer, starting at `*pos`
    /// and advancing it past the consumed bytes.
    ///
    /// # Errors
    ///
    /// As [`Program::decode`].
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Program, DecodeError> {
        let mut r = Reader::at(bytes, *pos);
        let program = Program::decode(&mut r)?;
        *pos = r.pos();
        Ok(program)
    }
}

/// Whether some resource reference in `v`, an argument of call `call`,
/// names that call or a later one (allocation-free walk).
fn refers_forward(v: &Value, call: usize) -> bool {
    match v {
        Value::Res(r) => r.producer.is_some_and(|p| p >= call),
        Value::Group(vs) => vs.iter().any(|v| refers_forward(v, call)),
        Value::Union { value, .. } => refers_forward(value, call),
        // A packed pointee holds no reference; only a tree is walked.
        Value::Ptr { pointee: Some(p) } if p.packed().is_none() => refers_forward(p, call),
        _ => false,
    }
}

/// Why a [`Program`] does not fit a specification ([`Program::fits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Misfit {
    /// Index of the offending call.
    pub call: usize,
    /// What is wrong with it.
    pub message: &'static str,
}

impl std::fmt::Display for Misfit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "program call {}: {}", self.call, self.message)
    }
}

// ---- binary value codec -------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_RES: u8 = 1;
const TAG_BYTES: u8 = 2;
const TAG_GROUP: u8 = 3;
const TAG_UNION: u8 = 4;
const TAG_PTR_NULL: u8 = 5;
const TAG_PTR: u8 = 6;

/// `Option<usize>` producer indices are encoded as a u64 with
/// `u64::MAX` standing in for `None`; real indices are call positions
/// and never approach that value.
const NO_PRODUCER: u64 = u64::MAX;

fn encode_value(v: &Value, w: &mut Writer<'_>) {
    match v {
        Value::Int(n) => {
            w.u8(TAG_INT);
            w.u64(*n);
        }
        Value::Res(r) => {
            w.u8(TAG_RES);
            w.u64(r.producer.map_or(NO_PRODUCER, |p| p as u64));
            w.u64(r.fallback);
        }
        Value::Bytes(b) => {
            w.u8(TAG_BYTES);
            w.bytes(b);
        }
        Value::Group(vs) => {
            w.u8(TAG_GROUP);
            w.seq(vs, encode_value);
        }
        Value::Union { arm, value } => {
            w.u8(TAG_UNION);
            w.u32(u32::try_from(*arm).unwrap_or(u32::MAX));
            encode_value(value, w);
        }
        Value::Ptr { pointee: None } => w.u8(TAG_PTR_NULL),
        Value::Ptr { pointee: Some(p) } => {
            w.u8(TAG_PTR);
            // A born-packed pointee replays its tree from plan and
            // image: same bytes, nothing materialised.
            match p.packed() {
                Some((plan, image, tail)) => plan.read(image, tail, w),
                None => encode_value(p, w),
            }
        }
    }
}

impl PlanSink for Writer<'_> {
    fn int(&mut self, v: u64) {
        self.u8(TAG_INT);
        self.u64(v);
    }

    fn buffer(&mut self, b: &[u8]) {
        self.u8(TAG_BYTES);
        self.bytes(b);
    }

    fn group(&mut self, n: usize) {
        self.u8(TAG_GROUP);
        self.count(n);
    }
}

#[allow(clippy::cast_possible_truncation)]
fn decode_value(r: &mut Reader<'_>, depth: usize) -> Result<Value, DecodeError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(r.err("value nesting too deep"));
    }
    match r.u8()? {
        TAG_INT => Ok(Value::Int(r.u64()?)),
        TAG_RES => {
            let producer = r.u64()?;
            let fallback = r.u64()?;
            Ok(Value::Res(ResRef {
                producer: (producer != NO_PRODUCER).then_some(producer as usize),
                fallback,
            }))
        }
        TAG_BYTES => Ok(Value::Bytes(r.bytes()?.to_vec())),
        TAG_GROUP => Ok(Value::Group(r.seq(|r| decode_value(r, depth + 1))?)),
        TAG_UNION => {
            let arm = r.u32()? as usize;
            let value = Box::new(decode_value(r, depth + 1)?);
            Ok(Value::Union { arm, value })
        }
        TAG_PTR_NULL => Ok(Value::Ptr { pointee: None }),
        TAG_PTR => Ok(Value::ptr_to(decode_value(r, depth + 1)?)),
        _ => Err(DecodeError {
            message: "unknown value tag",
            offset: r.pos() - 1,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_and_display() {
        let db = SpecDb::from_files(vec![
            crate::parse("t", "close$a(fd fd)\nclose$b(fd fd)\n").unwrap()
        ]);
        let a = db.syscall_index("close$a").unwrap() as u32;
        let b = db.syscall_index("close$b").unwrap() as u32;
        let mut p = Program {
            calls: vec![
                ProgCall {
                    sys: b,
                    args: vec![Value::Int(0)],
                },
                ProgCall {
                    sys: a,
                    args: vec![Value::Int(0)],
                },
            ],
        };
        assert_eq!(p.len(), 2);
        assert_eq!(p.calls[0].syscall(&db).name(), "close$b");
        p.truncate(1);
        assert_eq!(p.display(&db), "close$b");
        assert!(!p.is_empty());
    }

    #[test]
    fn fits_holds_a_program_to_the_table_the_arity_and_the_call_order() {
        let db = SpecDb::from_files(vec![crate::parse(
            "t",
            "resource fd_t[fd]\nopen$t(mode int32) fd_t\nuse$t(fd fd_t, n int32)\n",
        )
        .unwrap()]);
        let lowered = LoweredDb::build(&db, &crate::ConstDb::new());
        let open = db.syscall_index("open$t").unwrap() as u32;
        let consume = db.syscall_index("use$t").unwrap() as u32;
        let from = |producer| {
            Value::Res(ResRef {
                producer,
                fallback: 3,
            })
        };
        let prog = |producer| Program {
            calls: vec![
                ProgCall {
                    sys: open,
                    args: vec![Value::Int(0)],
                },
                ProgCall {
                    sys: consume,
                    args: vec![
                        Value::ptr_to(Value::Group(vec![from(producer)])),
                        Value::Int(1),
                    ],
                },
            ],
        };
        // The reference is found wherever it hides; a value of the
        // wrong shape for its slot is the encoder's business, not ours.
        assert_eq!(prog(Some(0)).fits(&lowered), Ok(()));
        assert_eq!(prog(None).fits(&lowered), Ok(()));
        assert_eq!(Program::default().fits(&lowered), Ok(()));
        let misfit = |p: Program| p.fits(&lowered).unwrap_err();
        assert_eq!(misfit(prog(Some(1))).call, 1, "its own consumer");
        assert_eq!(misfit(prog(Some(7))).call, 1, "a call that is not there");
        let mut long = prog(Some(0));
        long.calls[0].args.push(Value::Int(0));
        assert_eq!(misfit(long).call, 0);
        let mut short = prog(Some(0));
        short.calls[1].args.pop();
        assert_eq!(misfit(short).call, 1);
        let mut unknown = prog(Some(0));
        unknown.calls[1].sys = lowered.syscall_count() as u32;
        let m = misfit(unknown);
        assert_eq!((m.call, m.message), (1, "syscall index out of range"));
        assert_eq!(m.to_string(), "program call 1: syscall index out of range");
    }

    #[test]
    fn binary_round_trip_preserves_every_value_shape() {
        let p = Program {
            calls: vec![
                ProgCall {
                    sys: 3,
                    args: vec![
                        Value::Int(u64::MAX),
                        Value::Res(ResRef {
                            producer: Some(0),
                            fallback: 7,
                        }),
                        Value::Res(ResRef {
                            producer: None,
                            fallback: 0xFFFF_FFFF_FFFF,
                        }),
                    ],
                },
                ProgCall {
                    sys: 0,
                    args: vec![
                        Value::Bytes(vec![0, 1, 255]),
                        Value::Group(vec![
                            Value::Int(1),
                            Value::Union {
                                arm: 2,
                                value: Box::new(Value::ptr_to(Value::Bytes(Vec::new()))),
                            },
                        ]),
                        Value::Ptr { pointee: None },
                    ],
                },
            ],
        };
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        // Format stability (`golden_bytes`): recorded before the port
        // onto `crate::codec` (see `tests/wire_golden.rs`). A mismatch
        // means the layout changed, and every carrier's version with it.
        assert_eq!(
            (buf.len(), crate::codec::fnv1a(&buf)),
            (97, 0xa199_aa4a_fa04_cc9d)
        );
        // Self-delimiting: a second program concatenates cleanly.
        Program::default().encode_into(&mut buf);
        let mut pos = 0;
        assert_eq!(Program::decode_from(&buf, &mut pos).unwrap(), p);
        assert_eq!(
            Program::decode_from(&buf, &mut pos).unwrap(),
            Program::default()
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decoder_rejects_corruption_without_panicking() {
        let p = Program {
            calls: vec![ProgCall {
                sys: 1,
                args: vec![Value::Int(5)],
            }],
        };
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Program::decode_from(&buf[..cut], &mut pos).is_err());
        }
        // Unknown tag.
        let mut bad = buf.clone();
        let tag_at = 4 + 4 + 4; // n_calls, sys, n_args
        bad[tag_at] = 0xEE;
        let mut pos = 0;
        assert!(Program::decode_from(&bad, &mut pos).is_err());
        // Nesting past the depth bound: a chain of Ptr tags.
        let mut deep = Vec::new();
        let mut w = Writer::new(&mut deep);
        w.u32(1); // one call
        w.u32(0); // sys
        w.u32(1); // one arg
        deep.extend(std::iter::repeat_n(super::TAG_PTR, 200));
        deep.push(super::TAG_PTR_NULL);
        let mut pos = 0;
        let err = Program::decode_from(&deep, &mut pos).unwrap_err();
        assert_eq!(err.message, "value nesting too deep");
    }
}
