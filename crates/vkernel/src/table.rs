//! The boot-compiled command tables.
//!
//! A [`Blueprint`] names things: a command's argument struct, a
//! field's flag set, a trigger's command and field, the sub-handler a
//! command mints fds on. [`Target::compile`] resolves every one of
//! those names once, when the kernel boots, into the integer tables
//! below — struct layouts as `(offset, width)` slots with their checks
//! attached, flag sets as masks, triggers as per-command arms over slot
//! and command indices, sub-handlers as target indices — and the exec
//! path in the crate root reads nothing else. The by-name helpers on
//! `Blueprint` (`arg_struct`, `size_align`, `offset_of`, `cmd`) are the
//! source the tables are compiled from and the oracle the tests here
//! hold them to; they are never called per exec.

use crate::{SanitizerKind, BLOCK_STRIDE};
use kgpt_csrc::blueprint::{
    ArgKind, Blueprint, BlueprintKind, CmdEffect, CmdTransform, FieldRole, SockCall, Trigger,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A semantic check on one decoded field (`EINVAL` on violation): a
/// [`FieldRole`] with every name it mentions resolved at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Check {
    /// Roles the kernel does not enforce.
    None,
    /// `lo <= v <= hi`.
    Range(u64, u64),
    /// `v == magic`.
    Magic(u64),
    /// `v == 0`.
    Reserved,
    /// No bit outside the flag set's values, OR-ed into this mask.
    Flags(u64),
    /// A previously issued id of the fd the command runs on.
    InId,
}

/// One field of a compiled argument struct: where its scalar sits and
/// what it must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FieldSlot {
    /// Byte offset in the struct (C layout, x86-64 rules).
    pub(crate) offset: u32,
    /// Bytes decoded, little-endian: the field's size capped at 8.
    /// 0 marks a field with nothing to decode (a flexible array); it
    /// reads as 0.
    pub(crate) width: u8,
    pub(crate) check: Check,
}

impl FieldSlot {
    /// The field's value in the struct image `bytes`.
    #[inline]
    pub(crate) fn read(&self, bytes: &[u8]) -> u64 {
        let (at, width) = (self.offset as usize, usize::from(self.width));
        let mut buf = [0u8; 8];
        if let Some(src) = bytes.get(at..at + width) {
            buf[..width].copy_from_slice(src);
        }
        u64::from_le_bytes(buf)
    }
}

/// A compiled argument struct, indexed like `Blueprint::structs`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct StructLayout {
    /// `sizeof` — what `copy_from_user` reads and fuel is charged for.
    pub(crate) size: u64,
    /// One slot per member, in declaration order.
    pub(crate) fields: Vec<FieldSlot>,
}

/// What a command decodes from its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgPlan {
    /// Nothing (scalar or ignored argument).
    None,
    /// A pointer to an `int32` id, validated like an `InId` field; it
    /// decodes into slot 0.
    IdPtr,
    /// A pointer to the struct at this index of `Target::structs`.
    Struct(u32),
    /// The blueprint names a struct it does not declare: `EINVAL`.
    UnknownStruct,
}

/// A command's side effect, its sub-handler resolved to a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    Pure,
    /// Mints an fd on this target (`None`: the sub-handler was not
    /// booted, and the command has no effect).
    CreatesFd(Option<u32>),
    StateStep {
        sets: u8,
        requires: u8,
    },
    IssuesId,
}

/// When an injected bug fires on the command it is compiled into — a
/// [`Trigger`] with its command resolved away and its field resolved
/// to a slot of the decoded scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum When {
    /// Slot value above `min`, valid call or not (allocation-size bugs
    /// fire right after `copy_from_user`).
    FieldAbove { slot: u32, min: u64 },
    /// Valid call with the slot zero.
    FieldZero { slot: u32 },
    /// Valid call whose fd last validly ran the command `first`
    /// (compared on [`Cmd::canon`]).
    After { first: u32 },
    /// Valid call, at least the `times`-th on this fd.
    Repeat { times: u32 },
}

/// One injected bug as seen from a command: index into
/// `Target::bugs` (which fixes the faulting block) and its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arm {
    pub(crate) bug: u32,
    pub(crate) when: When,
}

/// One compiled ioctl command or socket option.
#[derive(Debug)]
pub(crate) struct Cmd {
    /// Full encoded command value the user must pass.
    pub(crate) value: u64,
    /// Index of the first command of the target with this command's
    /// name — itself unless the blueprint repeats a name. Sequence
    /// triggers compare on it, as the by-name kernel compared names.
    pub(crate) canon: u32,
    pub(crate) arg: ArgPlan,
    /// Coverage blocks behind a reachable call.
    pub(crate) blocks: u32,
    /// Extra blocks unlocked when every check passes.
    pub(crate) deep_blocks: u32,
    pub(crate) effect: Effect,
    /// The bugs whose trigger names this command, in bug order (the
    /// first that fires is reported).
    pub(crate) arms: Vec<Arm>,
}

/// One injected bug's report data.
#[derive(Debug)]
pub(crate) struct Bug {
    pub(crate) title: Arc<str>,
    pub(crate) cve: Option<Arc<str>>,
    pub(crate) sanitizer: SanitizerKind,
    /// `sendto` payload length from which a `PayloadLen` bug fires.
    pub(crate) payload_min: Option<u64>,
}

/// The kind-specific half of a booted handler.
#[derive(Debug)]
pub(crate) enum Kind {
    Driver {
        transform: CmdTransform,
        magic: u64,
    },
    Socket {
        family: u64,
        level: u64,
        /// Bit `call as u8` set ⇔ the family implements `call`.
        calls: u8,
    },
}

/// One booted handler: its blueprint compiled into integer tables.
/// Nothing here is looked up by name after [`VKernel::boot`].
#[derive(Debug)]
pub(crate) struct Target {
    /// Blueprint id, shared into every crash report.
    pub(crate) id: Arc<str>,
    pub(crate) block_base: u64,
    pub(crate) kind: Kind,
    /// Coverage blocks behind a successful `open` / `socket()`.
    pub(crate) entry_blocks: u32,
    pub(crate) cmds: Vec<Cmd>,
    pub(crate) structs: Vec<StructLayout>,
    pub(crate) bugs: Vec<Bug>,
    /// Size of the blueprint's `sockaddr_<id>` struct, if declared.
    pub(crate) sockaddr_size: Option<u64>,
}

impl Target {
    /// Compile `bp` as the `index`-th handler of a kernel. `by_id`
    /// maps every booted blueprint id to its target index.
    pub(crate) fn compile(bp: &Blueprint, index: usize, by_id: &BTreeMap<&str, u32>) -> Target {
        let structs: Vec<StructLayout> = bp
            .structs
            .iter()
            .map(|sdef| StructLayout {
                size: sdef.size_align(&bp.structs).0,
                fields: sdef
                    .fields
                    .iter()
                    .map(|f| {
                        let size = f.ty.size_align(&bp.structs).0;
                        let (offset, width) = sdef
                            .offset_of(&f.name, &bp.structs)
                            .map_or((0, 0), |at| (at as u32, size.min(8) as u8));
                        FieldSlot {
                            offset,
                            width,
                            check: Check::compile(&f.role, bp),
                        }
                    })
                    .collect(),
            })
            .collect();
        let struct_index = |name: &str| bp.structs.iter().position(|s| s.name == name);
        let cmd_index = |name: &str| bp.cmds.iter().position(|c| c.name == name);
        let cmds = bp
            .cmds
            .iter()
            .map(|cb| {
                let arg = match &cb.arg {
                    ArgKind::Struct(name) => struct_index(name)
                        .map_or(ArgPlan::UnknownStruct, |i| ArgPlan::Struct(i as u32)),
                    ArgKind::IdPtr(_) => ArgPlan::IdPtr,
                    ArgKind::Int | ArgKind::None => ArgPlan::None,
                };
                // A trigger's field, as a slot of this command's
                // decoded scratch — `None` when there is nothing to
                // decode there, so the bug cannot fire here.
                let slot = |field: &str| -> Option<u32> {
                    match arg {
                        ArgPlan::IdPtr => (field == "__id").then_some(0),
                        ArgPlan::Struct(si) => {
                            let sdef = &bp.structs[si as usize];
                            let pos = sdef.fields.iter().position(|f| f.name == field)?;
                            (structs[si as usize].fields[pos].width > 0).then_some(pos as u32)
                        }
                        ArgPlan::None | ArgPlan::UnknownStruct => None,
                    }
                };
                let arms = (0u32..)
                    .zip(&bp.bugs)
                    .filter_map(|(bug, b)| {
                        let (on, when) = match &b.trigger {
                            Trigger::FieldAbove { cmd, field, min } => (
                                cmd,
                                When::FieldAbove {
                                    slot: slot(field)?,
                                    min: *min,
                                },
                            ),
                            Trigger::FieldZero { cmd, field } => {
                                (cmd, When::FieldZero { slot: slot(field)? })
                            }
                            Trigger::Sequence { first, then } => (
                                then,
                                When::After {
                                    first: cmd_index(first)? as u32,
                                },
                            ),
                            Trigger::Repeat { cmd, times } => (cmd, When::Repeat { times: *times }),
                            Trigger::PayloadLen { .. } => return None, // sendto path
                        };
                        (*on == cb.name).then_some(Arm { bug, when })
                    })
                    .collect();
                Cmd {
                    value: bp.cmd_value(cb),
                    canon: cmd_index(&cb.name).unwrap_or(0) as u32,
                    arg,
                    blocks: cb.blocks,
                    deep_blocks: cb.deep_blocks,
                    effect: match &cb.effect {
                        CmdEffect::Pure => Effect::Pure,
                        CmdEffect::CreatesFd { handler } => {
                            Effect::CreatesFd(by_id.get(handler.as_str()).copied())
                        }
                        CmdEffect::StateStep { sets, requires } => Effect::StateStep {
                            sets: *sets,
                            requires: *requires,
                        },
                        CmdEffect::IssuesId { .. } => Effect::IssuesId,
                    },
                    arms,
                }
            })
            .collect();
        let bugs = bp
            .bugs
            .iter()
            .map(|b| Bug {
                title: b.title.as_str().into(),
                cve: b.cve.as_deref().map(Arc::from),
                sanitizer: SanitizerKind::of_trigger(&b.trigger),
                payload_min: match b.trigger {
                    Trigger::PayloadLen { min_len } => Some(min_len),
                    _ => None,
                },
            })
            .collect();
        let (kind, entry_blocks) = match &bp.kind {
            BlueprintKind::Driver(d) => (
                Kind::Driver {
                    transform: d.transform,
                    magic: d.magic,
                },
                d.open_blocks,
            ),
            BlueprintKind::Socket(s) => (
                Kind::Socket {
                    family: s.family,
                    level: s.level,
                    calls: s.calls.iter().fold(0, |m, c| m | (1 << (*c as u8))),
                },
                s.socket_blocks,
            ),
        };
        Target {
            id: bp.id.as_str().into(),
            block_base: (index as u64 + 1) * BLOCK_STRIDE,
            kind,
            entry_blocks,
            cmds,
            sockaddr_size: struct_index(&format!("sockaddr_{}", bp.id)).map(|i| structs[i].size),
            structs,
            bugs,
        }
    }

    /// Whether this is a socket family implementing `call`; `None` for
    /// a driver.
    pub(crate) fn implements(&self, call: SockCall) -> Option<bool> {
        match self.kind {
            Kind::Socket { calls, .. } => Some(calls & (1 << (call as u8)) != 0),
            Kind::Driver { .. } => None,
        }
    }
}

impl Check {
    fn compile(role: &FieldRole, bp: &Blueprint) -> Check {
        match role {
            FieldRole::CheckedRange(lo, hi) => Check::Range(*lo, *hi),
            FieldRole::MagicCheck(m) => Check::Magic(*m),
            FieldRole::Reserved => Check::Reserved,
            FieldRole::Flags(set) => Check::Flags(
                bp.flag_sets
                    .iter()
                    .find(|(name, _)| name == set)
                    .map_or(0, |(_, values)| values.iter().fold(0, |m, (_, v)| m | v)),
            ),
            FieldRole::InId(_) => Check::InId,
            FieldRole::Plain
            | FieldRole::LenOf(_)
            | FieldRole::SizeOfPayload
            | FieldRole::OutId(_) => Check::None,
        }
    }

    /// Whether `v` passes, on an fd that has issued ids below `next_id`.
    #[inline]
    pub(crate) fn passes(self, v: u64, next_id: u32) -> bool {
        match self {
            Check::None => true,
            Check::Range(lo, hi) => (lo..=hi).contains(&v),
            Check::Magic(m) => v == m,
            Check::Reserved => v == 0,
            Check::Flags(mask) => v & !mask == 0,
            Check::InId => (1..next_id).contains(&(v as u32)),
        }
    }
}

/// How an `IdPtr` argument decodes: the `int32` at offset 0.
pub(crate) const ID_SLOT: FieldSlot = FieldSlot {
    offset: 0,
    width: 4,
    check: Check::InId,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VKernel;
    use kgpt_csrc::blueprint::{ArgField, BugBlueprint, FieldTy};
    use kgpt_csrc::synth::{self, SynthPlan};
    use kgpt_csrc::{deepchain, flagship};

    /// What the by-name kernel looked up per call, looked up once here:
    /// every compiled number must be the one the `Blueprint` helpers
    /// give for the name it replaced. Returns how many of each it saw:
    /// the four arm kinds, resolved sub-handlers, non-empty flag masks.
    fn assert_compiled_like_by_name(blueprints: &[Blueprint]) -> [usize; 6] {
        let kernel = VKernel::boot(blueprints.to_vec());
        assert_eq!(kernel.targets.len(), blueprints.len());
        let mut seen = [0usize; 6];
        for (index, (bp, t)) in blueprints.iter().zip(&kernel.targets).enumerate() {
            let at = |what: &str| format!("{}: {what}", bp.id);
            assert_eq!(&*t.id, bp.id);
            assert_eq!(t.block_base, (index as u64 + 1) * BLOCK_STRIDE);
            assert_eq!(
                t.sockaddr_size,
                bp.arg_struct(&format!("sockaddr_{}", bp.id))
                    .map(|s| s.size_align(&bp.structs).0),
                "{}",
                at("sockaddr")
            );
            assert_eq!(t.structs.len(), bp.structs.len());
            for (sdef, layout) in bp.structs.iter().zip(&t.structs) {
                let size = sdef.size_align(&bp.structs).0;
                assert_eq!(layout.size, size, "{}", at(&sdef.name));
                assert_eq!(layout.fields.len(), sdef.fields.len());
                for (f, slot) in sdef.fields.iter().zip(&layout.fields) {
                    let ctx = at(&format!("{}.{}", sdef.name, f.name));
                    let offset = sdef.offset_of(&f.name, &bp.structs);
                    assert_eq!(Some(u64::from(slot.offset)), offset, "{ctx}");
                    let width = f.ty.size_align(&bp.structs).0.min(8);
                    assert_eq!(u64::from(slot.width), width, "{ctx}");
                    assert!(u64::from(slot.offset) + width <= size, "{ctx}");
                    let want = match &f.role {
                        FieldRole::CheckedRange(lo, hi) => Check::Range(*lo, *hi),
                        FieldRole::MagicCheck(m) => Check::Magic(*m),
                        FieldRole::Reserved => Check::Reserved,
                        FieldRole::InId(_) => Check::InId,
                        FieldRole::Flags(set) => {
                            let values = bp.flag_sets.iter().find(|(name, _)| name == set);
                            let mask =
                                values.map_or(0, |(_, vs)| vs.iter().fold(0, |m, v| m | v.1));
                            seen[5] += usize::from(mask != 0);
                            Check::Flags(mask)
                        }
                        _ => Check::None,
                    };
                    assert_eq!(slot.check, want, "{ctx}");
                }
            }
            assert_eq!(t.cmds.len(), bp.cmds.len());
            for (cb, cmd) in bp.cmds.iter().zip(&t.cmds) {
                let ctx = at(&cb.name);
                assert_eq!(cmd.value, bp.cmd_value(cb), "{ctx}");
                assert_eq!((cmd.blocks, cmd.deep_blocks), (cb.blocks, cb.deep_blocks));
                let canon = &bp.cmds[cmd.canon as usize];
                assert!(std::ptr::eq(canon, bp.cmd(&cb.name).unwrap()), "{ctx}");
                let sdef = match (&cb.arg, cmd.arg) {
                    (ArgKind::Struct(name), ArgPlan::Struct(si)) => {
                        let sdef = bp.arg_struct(name).unwrap();
                        assert!(std::ptr::eq(sdef, &bp.structs[si as usize]), "{ctx}");
                        Some(sdef)
                    }
                    (ArgKind::Struct(name), ArgPlan::UnknownStruct) => {
                        assert!(bp.arg_struct(name).is_none(), "{ctx}");
                        None
                    }
                    (ArgKind::IdPtr(_), ArgPlan::IdPtr)
                    | (ArgKind::Int | ArgKind::None, ArgPlan::None) => None,
                    other => panic!("{ctx}: {other:?}"),
                };
                match (&cb.effect, cmd.effect) {
                    (CmdEffect::CreatesFd { handler }, Effect::CreatesFd(sub)) => {
                        let booted = blueprints.iter().rposition(|b| b.id == *handler);
                        assert_eq!(sub, booted.map(|i| i as u32), "{ctx}");
                        seen[4] += usize::from(sub.is_some());
                    }
                    (CmdEffect::StateStep { sets, requires }, got) => assert_eq!(
                        got,
                        Effect::StateStep {
                            sets: *sets,
                            requires: *requires
                        }
                    ),
                    (CmdEffect::IssuesId { .. }, Effect::IssuesId)
                    | (CmdEffect::Pure, Effect::Pure) => {}
                    other => panic!("{ctx}: {other:?}"),
                }
                // The by-name `field_value`: a struct field by name,
                // `__id` for an id pointer, if there is a value there.
                let slot = |field: &str| match &cb.arg {
                    ArgKind::IdPtr(_) => (field == "__id").then_some(0),
                    _ => {
                        let pos = sdef?.fields.iter().position(|f| f.name == field)?;
                        let size = sdef?.fields[pos].ty.size_align(&bp.structs).0;
                        (size > 0).then_some(pos as u32)
                    }
                };
                let want: Vec<Arm> = (0u32..)
                    .zip(&bp.bugs)
                    .filter_map(|(bug, b)| {
                        let when = match &b.trigger {
                            Trigger::FieldAbove { cmd, field, min } if *cmd == cb.name => {
                                seen[0] += 1;
                                When::FieldAbove {
                                    slot: slot(field)?,
                                    min: *min,
                                }
                            }
                            Trigger::FieldZero { cmd, field } if *cmd == cb.name => {
                                seen[1] += 1;
                                When::FieldZero { slot: slot(field)? }
                            }
                            Trigger::Sequence { first, then } if *then == cb.name => {
                                seen[2] += 1;
                                let first = bp.cmd(first)?;
                                let at = bp.cmds.iter().position(|c| std::ptr::eq(c, first));
                                When::After { first: at? as u32 }
                            }
                            Trigger::Repeat { cmd, times } if *cmd == cb.name => {
                                seen[3] += 1;
                                When::Repeat { times: *times }
                            }
                            _ => return None,
                        };
                        Some(Arm { bug, when })
                    })
                    .collect();
                assert_eq!(cmd.arms, want, "{ctx}");
            }
            assert_eq!(t.bugs.len(), bp.bugs.len());
            for (b, bug) in bp.bugs.iter().zip(&t.bugs) {
                assert_eq!(
                    (&*bug.title, bug.cve.as_deref()),
                    (&*b.title, b.cve.as_deref())
                );
                assert_eq!(bug.sanitizer, SanitizerKind::of_trigger(&b.trigger));
                let min_len = match b.trigger {
                    Trigger::PayloadLen { min_len } => Some(min_len),
                    _ => None,
                };
                assert_eq!(bug.payload_min, min_len);
            }
        }
        seen
    }

    #[test]
    fn compiled_tables_equal_the_by_name_lookups_they_replace() {
        let flagships = assert_compiled_like_by_name(&flagship::all_flagships());
        let deep = assert_compiled_like_by_name(&deepchain::suite());
        assert_compiled_like_by_name(&synth::generate(&SynthPlan::paper_defaults(), 11));
        // Not vacuous: every arm kind, a resolved sub-handler and a
        // non-empty flag mask were all compared.
        for (kind, (f, d)) in flagships.iter().zip(deep).enumerate() {
            assert!(f + d > 0, "nothing of kind {kind} compiled");
        }
    }

    /// What a campaign's crash tally rests on, over every kernel the
    /// repo boots. A crash's signature site is `block_base + 4000 +
    /// bug`: it names one bug of one handler only while every handler's
    /// bug sites fit inside its own block stratum. The tally is folded
    /// from the triage report by title: it carries one CVE a title only
    /// while equal titles carry equal CVEs.
    #[test]
    fn a_crash_site_names_one_bug_and_a_title_one_cve() {
        let kernels = [
            ("flagships", flagship::all_flagships()),
            (
                "full(1)",
                kgpt_csrc::KernelCorpus::full(1).blueprints().to_vec(),
            ),
            ("deep-chain", deepchain::suite()),
        ];
        for (name, blueprints) in kernels {
            let kernel = VKernel::boot(blueprints);
            let mut cves = BTreeMap::new();
            for t in &kernel.targets {
                let bugs = t.bugs.len() as u64;
                assert!(
                    4000 + bugs <= BLOCK_STRIDE,
                    "{name}: {} has {bugs} bugs",
                    t.id
                );
                for bug in &t.bugs {
                    let cve = *cves.entry(&*bug.title).or_insert(bug.cve.as_deref());
                    assert_eq!(cve, bug.cve.as_deref(), "{name}: {}", bug.title);
                }
            }
            assert!(!cves.is_empty(), "{name} boots no bug");
        }
    }

    #[test]
    fn names_that_resolve_to_nothing_compile_to_arms_that_cannot_fire() {
        // A command on an undeclared struct, a sub-handler that was
        // not booted, triggers on a missing field, on a flexible array
        // and after a missing command, and a repeated command name.
        let mut bp = deepchain::dcbuf();
        bp.cmds[0].arg = ArgKind::Struct("nope".into());
        bp.cmds[1].effect = CmdEffect::CreatesFd {
            handler: "absent".into(),
        };
        bp.cmds[4].name = bp.cmds[2].name.clone();
        let flex = FieldTy::FlexArray(Box::new(FieldTy::U32));
        bp.structs[0].fields.push(ArgField::plain("tail", flex));
        let scale = bp.cmds[1].name.clone();
        let commit = bp.cmds[2].name.clone();
        let bug = |trigger| BugBlueprint {
            title: "t".into(),
            cve: None,
            trigger,
        };
        bp.bugs = vec![
            bug(Trigger::FieldZero {
                cmd: scale.clone(),
                field: "missing".into(),
            }),
            bug(Trigger::FieldAbove {
                cmd: scale.clone(),
                field: "tail".into(),
                min: 0,
            }),
            bug(Trigger::Sequence {
                first: "DCBUF_NOPE".into(),
                then: scale.clone(),
            }),
            bug(Trigger::Sequence {
                first: commit.clone(),
                then: scale,
            }),
            bug(Trigger::Repeat {
                cmd: commit,
                times: 2,
            }),
        ];
        assert_compiled_like_by_name(std::slice::from_ref(&bp));
        let kernel = VKernel::boot(vec![bp]);
        let cmds = &kernel.targets[0].cmds;
        assert_eq!(cmds[0].arg, ArgPlan::UnknownStruct);
        assert_eq!(cmds[1].effect, Effect::CreatesFd(None));
        // Only the sequence after a real command survives on SCALE ...
        let after_commit = Arm {
            bug: 3,
            when: When::After { first: 2 },
        };
        assert_eq!(cmds[1].arms, [after_commit]);
        // ... and both commands named COMMIT carry the repeat arm and
        // count as COMMIT to a sequence.
        assert_eq!((cmds[2].canon, cmds[4].canon), (2, 2));
        assert_eq!(cmds[2].arms, cmds[4].arms);
        assert_eq!(cmds[2].arms.len(), 1);
    }
}
