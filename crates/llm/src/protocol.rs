//! The textual protocol between KernelGPT and the analysis LLM.
//!
//! Prompts are plain text with `##`-delimited sections (mirroring the
//! paper's Figure 6 template); completions are line-oriented facts —
//! the shape a few-shot-prompted LLM is instructed to produce. Both
//! sides round-trip through text: KernelGPT renders a [`Prompt`] and
//! parses [`Fact`]s back; the oracle parses the prompt text (it never
//! sees internal structures) and renders facts.

use kgpt_csrc::stage::{self, Stage};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Which analysis stage a prompt requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// §3.1.1 identifier deduction.
    Identifier,
    /// §3.1.2 type recovery.
    Types,
    /// §3.1.3 dependency analysis.
    Dependency,
    /// §3.2 specification repair.
    Repair,
    /// All-in-one (the §5.2.3 ablation).
    AllInOne,
}

impl Task {
    fn keyword(self) -> &'static str {
        match self {
            Task::Identifier => "identifier",
            Task::Types => "types",
            Task::Dependency => "dependency",
            Task::Repair => "repair",
            Task::AllInOne => "all",
        }
    }

    fn from_keyword(s: &str) -> Option<Task> {
        Some(match s {
            "identifier" => Task::Identifier,
            "types" => Task::Types,
            "dependency" => Task::Dependency,
            "repair" => Task::Repair,
            "all" => Task::AllInOne,
            _ => return None,
        })
    }
}

/// Argument signature of a command, as communicated by the LLM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgSig {
    /// No argument.
    None,
    /// Plain integer.
    Int,
    /// Pointer to a named C struct.
    StructPtr(String),
    /// Pointer to an id of the named resource.
    IdPtr(String),
}

impl ArgSig {
    fn render(&self) -> String {
        match self {
            ArgSig::None => "none".into(),
            ArgSig::Int => "int".into(),
            ArgSig::StructPtr(s) => format!("struct:{s}"),
            ArgSig::IdPtr(r) => format!("idptr:{r}"),
        }
    }

    fn parse(s: &str) -> Option<ArgSig> {
        Some(match s {
            "none" => ArgSig::None,
            "int" => ArgSig::Int,
            other => {
                if let Some(st) = other.strip_prefix("struct:") {
                    ArgSig::StructPtr(st.to_string())
                } else if let Some(r) = other.strip_prefix("idptr:") {
                    ArgSig::IdPtr(r.to_string())
                } else {
                    return None;
                }
            }
        })
    }
}

/// One fact in a completion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fact {
    /// Device node path.
    DevPath(String),
    /// Socket registration facts (fields may be unknown).
    Socket {
        /// `AF_*` macro name, if determinable.
        family_name: Option<String>,
        /// `SOCK_*` numeric type.
        sock_type: Option<u64>,
        /// Protocol number.
        proto: Option<u64>,
        /// `SOL_*` level macro name.
        level_name: Option<String>,
    },
    /// A generic socket call implementation (`bind` → `rds_bind`).
    SockCallFn {
        /// Call name (`bind`, `connect`, `sendmsg`, `recvmsg`, `accept`).
        call: String,
        /// Implementing function.
        func: String,
    },
    /// Command-value transform observed in the dispatcher.
    Transform {
        /// `"none"`, `"iocnr"` or `"mask:0x.."`.
        kind: String,
    },
    /// A discovered command.
    Ident {
        /// Macro name (the identifier value, symbolically).
        name: String,
        /// Sub-handler function, if dispatched to one.
        handler: Option<String>,
        /// Argument signature.
        arg: ArgSig,
        /// Direction keyword (`in`/`out`/`inout`).
        dir: String,
    },
    /// A function whose source is needed next round.
    UnknownFunc {
        /// Function name.
        name: String,
        /// Invocation context (free text).
        usage: String,
    },
    /// A struct whose definition is needed next round.
    UnknownStruct(String),
    /// A global variable (lookup table) needed next round.
    UnknownVar {
        /// Variable name.
        name: String,
        /// Usage context.
        usage: String,
    },
    /// A recovered type, as syzlang text (possibly several items).
    SyzType {
        /// The C struct name it corresponds to.
        c_name: String,
        /// syzlang item text.
        text: String,
    },
    /// A flag set recovered from a mask check.
    FlagSet {
        /// Set name.
        name: String,
        /// Member macro names.
        values: Vec<String>,
    },
    /// A resource the handler issues (queue ids etc.).
    ResourceDef {
        /// Resource name.
        name: String,
    },
    /// A command creates a new fd served by another ops variable.
    CreatesFd {
        /// The `file_operations` variable of the sub-handler.
        fops_var: String,
        /// The creating command's macro name.
        cmd: String,
    },
    /// Free-text commentary (readability; ignored by the pipeline).
    Note(String),
}

/// A rendered prompt.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Prompt {
    /// Requested stage.
    pub task: Option<Task>,
    /// Entry function to analyze (dispatcher or sub-handler).
    pub target_func: Option<String>,
    /// The ops variable (handler identity), for context.
    pub handler_var: Option<String>,
    /// Structs whose syzlang form is wanted (type stage).
    pub want_structs: Vec<String>,
    /// Raw C item texts.
    pub source: Vec<String>,
    /// Raw usage-site texts.
    pub usage: Vec<String>,
    /// Facts established in earlier rounds.
    pub known: Vec<Fact>,
    /// Validator errors (repair stage).
    pub errors: Vec<String>,
}

const INSTRUCTIONS: &str = "You are analyzing Linux kernel source code to produce Syzkaller \
(syzlang) specifications. Answer ONLY with fact lines: IDENT/DEVPATH/SOCKET/SOCKCALL/TRANSFORM/\
UNKNOWN/SYZTYPE/FLAGSET/RESOURCE/DEP/NOTE. If the logic you need lives in a function, struct or \
table that is not shown, list it in an UNKNOWN line instead of guessing.";

/// A prompt over borrowed parts: what the pipeline renders each round
/// from text it already holds (item texts in the corpus, the facts so
/// far) instead of cloning them into a [`Prompt`] first.
#[derive(Debug, Clone, Copy, Default)]
pub struct PromptRef<'a> {
    /// Requested stage.
    pub task: Option<Task>,
    /// Entry function to analyze (dispatcher or sub-handler).
    pub target_func: Option<&'a str>,
    /// The ops variable (handler identity), for context.
    pub handler_var: Option<&'a str>,
    /// Structs whose syzlang form is wanted (type stage).
    pub want_structs: &'a [&'a str],
    /// Raw C item texts.
    pub source: &'a [&'a str],
    /// Raw usage-site texts.
    pub usage: &'a [&'a str],
    /// Facts established in earlier rounds.
    pub known: &'a [Fact],
    /// Validator errors (repair stage).
    pub errors: &'a [String],
}

/// `## {header}\n{items joined by sep}\n\n`, or nothing for no items.
fn render_section<S: AsRef<str>>(out: &mut String, header: &str, items: &[S], sep: &str) {
    if items.is_empty() {
        return;
    }
    out.push_str("## ");
    out.push_str(header);
    out.push('\n');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(item.as_ref());
    }
    out.push_str("\n\n");
}

impl PromptRef<'_> {
    /// Render to the textual form sent to the model.
    #[must_use]
    pub fn render(&self) -> String {
        let texts = self.source.iter().chain(self.usage);
        let code: usize = texts.map(|s| s.len() + 2).sum();
        let mut out = String::with_capacity(INSTRUCTIONS.len() + code + 256);
        let _ = writeln!(out, "# INSTRUCTIONS\n{INSTRUCTIONS}\n");
        if let Some(t) = self.task {
            render_section(&mut out, "TASK", &[t.keyword()], "");
        }
        if let Some(f) = self.target_func {
            render_section(&mut out, "TARGET-FUNC", &[f], "");
        }
        if let Some(v) = self.handler_var {
            render_section(&mut out, "HANDLER-VAR", &[v], "");
        }
        render_section(&mut out, "WANT-STRUCTS", self.want_structs, "\n");
        if !self.known.is_empty() {
            out.push_str("## KNOWN\n");
            render_facts_into(&mut out, self.known);
            out.push('\n');
        }
        render_section(&mut out, "ERRORS", self.errors, "\n");
        render_section(&mut out, "USAGE", self.usage, "\n\n");
        render_section(&mut out, "SOURCE", self.source, "\n\n");
        out
    }
}

/// The sections of a rendered prompt, sliced out of its text: what the
/// model side reads. A body is the text between its `## HEADER` line
/// and the next, trimmed — a borrow of the request unless a line inside
/// it had to go (a `# ` comment line, a `\r\n` ending), in which case
/// it is rebuilt line by line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sections<'a> {
    /// Requested stage.
    pub task: Option<Task>,
    target_func: Cow<'a, str>,
    handler_var: Cow<'a, str>,
    want_structs: Cow<'a, str>,
    known: Cow<'a, str>,
    errors: Cow<'a, str>,
    usage: Cow<'a, str>,
    source: Cow<'a, str>,
}

/// The blank-line-separated pieces of a code section.
pub(crate) fn chunks(body: &str) -> impl Iterator<Item = &str> + Clone {
    body.split("\n\n").filter(|s| !s.trim().is_empty())
}

impl<'a> Sections<'a> {
    /// Slice a rendered prompt into its sections. Unknown headers and
    /// whatever precedes the first header are skipped; of a repeated
    /// header the last body stands.
    #[must_use]
    pub fn parse(text: &'a str) -> Sections<'a> {
        let _span = stage::span(Stage::Slice);
        let mut out = Sections::default();
        let mut header = "";
        // Of the section being read: where its lines start, the span
        // of the kept ones, and whether that span is its body verbatim.
        let (mut lines_from, mut span, mut verbatim) = (0usize, None::<(usize, usize)>, true);
        let body = |lines: &'a str, span: Option<(usize, usize)>, verbatim: bool| {
            if verbatim {
                Cow::Borrowed(span.map_or("", |(from, to)| &text[from..to]).trim())
            } else {
                let kept: Vec<&str> = lines.lines().filter(|l| !l.starts_with("# ")).collect();
                Cow::Owned(kept.join("\n").trim().to_string())
            }
        };
        let mut offset = 0usize;
        for raw in text.split_inclusive('\n') {
            let at = offset;
            offset += raw.len();
            // What `str::lines` yields for this line.
            let unix = raw.strip_suffix('\n');
            let line = unix.map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
            if let Some(next) = line.strip_prefix("## ") {
                out.set(header, body(&text[lines_from..at], span, verbatim));
                header = next.trim();
                (lines_from, span, verbatim) = (offset, None, true);
            } else if line.starts_with("# ") || unix.is_some_and(|l| l.len() != line.len()) {
                verbatim = false;
            } else {
                span = Some((span.map_or(at, |s| s.0), at + line.len()));
            }
        }
        out.set(header, body(&text[lines_from..], span, verbatim));
        out
    }

    fn set(&mut self, header: &str, body: Cow<'a, str>) {
        let slot = match header {
            "TASK" => {
                self.task = Task::from_keyword(&body);
                return;
            }
            // A blank TARGET-FUNC / HANDLER-VAR leaves an earlier one.
            "TARGET-FUNC" | "HANDLER-VAR" if body.is_empty() => return,
            "TARGET-FUNC" => &mut self.target_func,
            "HANDLER-VAR" => &mut self.handler_var,
            "WANT-STRUCTS" => &mut self.want_structs,
            "KNOWN" => &mut self.known,
            "ERRORS" => &mut self.errors,
            "USAGE" => &mut self.usage,
            "SOURCE" => &mut self.source,
            _ => return,
        };
        *slot = body;
    }

    /// Entry function to analyze.
    #[must_use]
    pub fn target_func(&self) -> Option<&str> {
        Some(&*self.target_func).filter(|s| !s.is_empty())
    }

    /// The ops variable (handler identity).
    #[must_use]
    pub fn handler_var(&self) -> Option<&str> {
        Some(&*self.handler_var).filter(|s| !s.is_empty())
    }

    /// Structs whose syzlang form is wanted, one per line.
    pub fn want_structs(&self) -> impl Iterator<Item = &str> + Clone {
        self.want_structs.lines()
    }

    /// The C items to analyze, in prompt order.
    pub fn source(&self) -> impl Iterator<Item = &str> + Clone {
        chunks(&self.source)
    }

    /// The usage-site items, in prompt order.
    pub fn usage(&self) -> impl Iterator<Item = &str> + Clone {
        chunks(&self.usage)
    }

    /// The `## SOURCE` body whole; [`chunks`] cuts it into items.
    pub(crate) fn source_body(&self) -> &str {
        &self.source
    }

    /// The `## USAGE` body whole.
    pub(crate) fn usage_body(&self) -> &str {
        &self.usage
    }

    /// The prompt with every part owned.
    #[must_use]
    pub fn to_prompt(&self) -> Prompt {
        let owned = |parts: &mut dyn Iterator<Item = &str>| parts.map(str::to_string).collect();
        Prompt {
            task: self.task,
            target_func: self.target_func().map(str::to_string),
            handler_var: self.handler_var().map(str::to_string),
            want_structs: owned(&mut self.want_structs()),
            source: owned(&mut self.source()),
            usage: owned(&mut self.usage()),
            known: parse_facts(&self.known),
            errors: owned(&mut self.errors.lines()),
        }
    }
}

impl Prompt {
    /// Render to the textual form sent to the model.
    #[must_use]
    pub fn render(&self) -> String {
        fn strs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }
        PromptRef {
            task: self.task,
            target_func: self.target_func.as_deref(),
            handler_var: self.handler_var.as_deref(),
            want_structs: &strs(&self.want_structs),
            source: &strs(&self.source),
            usage: &strs(&self.usage),
            known: &self.known,
            errors: &self.errors,
        }
        .render()
    }

    /// Parse a rendered prompt (oracle side).
    #[must_use]
    pub fn parse(text: &str) -> Prompt {
        Sections::parse(text).to_prompt()
    }

    /// The concatenated source text (what the oracle re-parses as C).
    #[must_use]
    pub fn source_text(&self) -> String {
        self.source.join("\n\n")
    }

    /// The concatenated usage text.
    #[must_use]
    pub fn usage_text(&self) -> String {
        self.usage.join("\n\n")
    }
}

/// Render facts to completion text.
#[must_use]
pub fn render_facts(facts: &[Fact]) -> String {
    let mut out = String::new();
    render_facts_into(&mut out, facts);
    out
}

fn render_facts_into(out: &mut String, facts: &[Fact]) {
    for f in facts {
        match f {
            Fact::DevPath(p) => {
                let _ = writeln!(out, "DEVPATH {p}");
            }
            Fact::Socket {
                family_name,
                sock_type,
                proto,
                level_name,
            } => {
                let _ = writeln!(
                    out,
                    "SOCKET family={} type={} proto={} level={}",
                    family_name.as_deref().unwrap_or("?"),
                    sock_type.map_or("?".to_string(), |v| v.to_string()),
                    proto.map_or("?".to_string(), |v| v.to_string()),
                    level_name.as_deref().unwrap_or("?"),
                );
            }
            Fact::SockCallFn { call, func } => {
                let _ = writeln!(out, "SOCKCALL {call}={func}");
            }
            Fact::Transform { kind } => {
                let _ = writeln!(out, "TRANSFORM {kind}");
            }
            Fact::Ident {
                name,
                handler,
                arg,
                dir,
            } => {
                let _ = writeln!(
                    out,
                    "IDENT name={name} handler={} arg={} dir={dir}",
                    handler.as_deref().unwrap_or("-"),
                    arg.render(),
                );
            }
            Fact::UnknownFunc { name, usage } => {
                let _ = writeln!(out, "UNKNOWN FUNC={name} USAGE={usage}");
            }
            Fact::UnknownStruct(n) => {
                let _ = writeln!(out, "UNKNOWN STRUCT={n}");
            }
            Fact::UnknownVar { name, usage } => {
                let _ = writeln!(out, "UNKNOWN VAR={name} USAGE={usage}");
            }
            Fact::SyzType { c_name, text } => {
                let _ = writeln!(out, "SYZTYPE c={c_name}");
                let _ = writeln!(out, "{}", text.trim_end());
                let _ = writeln!(out, "ENDTYPE");
            }
            Fact::FlagSet { name, values } => {
                let _ = writeln!(out, "FLAGSET name={name} values={}", values.join(","));
            }
            Fact::ResourceDef { name } => {
                let _ = writeln!(out, "RESOURCE name={name}");
            }
            Fact::CreatesFd { fops_var, cmd } => {
                let _ = writeln!(out, "DEP creates_fd fops={fops_var} cmd={cmd}");
            }
            Fact::Note(n) => {
                let _ = writeln!(out, "NOTE {n}");
            }
        }
    }
}

fn kv<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// Parse completion text back into facts. Unparseable lines become
/// [`Fact::Note`]s (a real LLM occasionally chats; the pipeline must
/// not choke).
#[must_use]
pub fn parse_facts(text: &str) -> Vec<Fact> {
    let mut out = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let line = line.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().unwrap_or_default();
        let rest: Vec<&str> = toks.collect();
        match head {
            "DEVPATH" => {
                if let Some(p) = rest.first() {
                    out.push(Fact::DevPath((*p).to_string()));
                }
            }
            "SOCKET" => {
                let mut family_name = None;
                let mut sock_type = None;
                let mut proto = None;
                let mut level_name = None;
                for t in &rest {
                    if let Some(v) = kv(t, "family") {
                        if v != "?" {
                            family_name = Some(v.to_string());
                        }
                    } else if let Some(v) = kv(t, "type") {
                        sock_type = v.parse().ok();
                    } else if let Some(v) = kv(t, "proto") {
                        proto = v.parse().ok();
                    } else if let Some(v) = kv(t, "level") {
                        if v != "?" {
                            level_name = Some(v.to_string());
                        }
                    }
                }
                out.push(Fact::Socket {
                    family_name,
                    sock_type,
                    proto,
                    level_name,
                });
            }
            "SOCKCALL" => {
                if let Some((call, func)) = rest.first().and_then(|t| t.split_once('=')) {
                    out.push(Fact::SockCallFn {
                        call: call.to_string(),
                        func: func.to_string(),
                    });
                }
            }
            "TRANSFORM" => {
                if let Some(k) = rest.first() {
                    out.push(Fact::Transform {
                        kind: (*k).to_string(),
                    });
                }
            }
            "IDENT" => {
                let mut name = None;
                let mut handler = None;
                let mut arg = ArgSig::None;
                let mut dir = "inout".to_string();
                for t in &rest {
                    if let Some(v) = kv(t, "name") {
                        name = Some(v.to_string());
                    } else if let Some(v) = kv(t, "handler") {
                        if v != "-" {
                            handler = Some(v.to_string());
                        }
                    } else if let Some(v) = kv(t, "arg") {
                        if let Some(a) = ArgSig::parse(v) {
                            arg = a;
                        }
                    } else if let Some(v) = kv(t, "dir") {
                        dir = v.to_string();
                    }
                }
                if let Some(name) = name {
                    out.push(Fact::Ident {
                        name,
                        handler,
                        arg,
                        dir,
                    });
                }
            }
            "UNKNOWN" => {
                if let Some(first) = rest.first() {
                    if let Some(n) = kv(first, "FUNC") {
                        let usage = line.split_once("USAGE=").map(|(_, u)| u).unwrap_or("");
                        out.push(Fact::UnknownFunc {
                            name: n.to_string(),
                            usage: usage.to_string(),
                        });
                    } else if let Some(n) = kv(first, "STRUCT") {
                        out.push(Fact::UnknownStruct(n.to_string()));
                    } else if let Some(n) = kv(first, "VAR") {
                        let usage = line.split_once("USAGE=").map(|(_, u)| u).unwrap_or("");
                        out.push(Fact::UnknownVar {
                            name: n.to_string(),
                            usage: usage.to_string(),
                        });
                    }
                }
            }
            "SYZTYPE" => {
                let c_name = rest
                    .first()
                    .and_then(|t| kv(t, "c"))
                    .unwrap_or("")
                    .to_string();
                let mut body = Vec::new();
                for l in lines.by_ref() {
                    if l.trim() == "ENDTYPE" {
                        break;
                    }
                    body.push(l.to_string());
                }
                out.push(Fact::SyzType {
                    c_name,
                    text: body.join("\n"),
                });
            }
            "FLAGSET" => {
                let mut name = None;
                let mut values = Vec::new();
                for t in &rest {
                    if let Some(v) = kv(t, "name") {
                        name = Some(v.to_string());
                    } else if let Some(v) = kv(t, "values") {
                        values = v.split(',').map(str::to_string).collect();
                    }
                }
                if let Some(name) = name {
                    out.push(Fact::FlagSet { name, values });
                }
            }
            "RESOURCE" => {
                if let Some(n) = rest.first().and_then(|t| kv(t, "name")) {
                    out.push(Fact::ResourceDef {
                        name: n.to_string(),
                    });
                }
            }
            "DEP" => {
                let mut fops = None;
                let mut cmd = None;
                for t in &rest {
                    if let Some(v) = kv(t, "fops") {
                        fops = Some(v.to_string());
                    } else if let Some(v) = kv(t, "cmd") {
                        cmd = Some(v.to_string());
                    }
                }
                if let (Some(fops_var), Some(cmd)) = (fops, cmd) {
                    out.push(Fact::CreatesFd { fops_var, cmd });
                }
            }
            "NOTE" => out.push(Fact::Note(rest.join(" "))),
            _ => out.push(Fact::Note(line.to_string())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_round_trip() {
        let facts = vec![
            Fact::DevPath("/dev/mapper/control".into()),
            Fact::Transform {
                kind: "iocnr".into(),
            },
            Fact::Ident {
                name: "DM_VERSION".into(),
                handler: Some("dm_version".into()),
                arg: ArgSig::StructPtr("dm_ioctl".into()),
                dir: "inout".into(),
            },
            Fact::UnknownFunc {
                name: "lookup_ioctl".into(),
                usage: "fn = lookup_ioctl(cmd, &flags);".into(),
            },
            Fact::UnknownStruct("dm_target_spec".into()),
            Fact::SyzType {
                c_name: "dm_ioctl".into(),
                text: "dm_dm_ioctl {\n\tversion array[int32, 3]\n}".into(),
            },
            Fact::FlagSet {
                name: "dm_flags".into(),
                values: vec!["A".into(), "B".into()],
            },
            Fact::ResourceDef {
                name: "dm_qid".into(),
            },
            Fact::CreatesFd {
                fops_var: "_kvm_vm_fops".into(),
                cmd: "KVM_CREATE_VM".into(),
            },
            Fact::Socket {
                family_name: Some("AF_RDS".into()),
                sock_type: Some(5),
                proto: Some(0),
                level_name: Some("SOL_RDS".into()),
            },
            Fact::SockCallFn {
                call: "bind".into(),
                func: "rds_bind".into(),
            },
            Fact::Note("the nodename field overrides name".into()),
        ];
        let text = render_facts(&facts);
        let parsed = parse_facts(&text);
        assert_eq!(parsed, facts, "text was:\n{text}");
    }

    #[test]
    fn prompt_round_trips() {
        let p = Prompt {
            task: Some(Task::Identifier),
            target_func: Some("dm_ctl_ioctl".into()),
            handler_var: Some("_ctl_fops".into()),
            want_structs: vec!["dm_ioctl".into()],
            source: vec![
                "static long dm_ctl_ioctl(struct file *f, uint c, ulong u) {\n\treturn 0;\n}"
                    .into(),
                "struct dm_ioctl {\n\t__u32 v;\n};".into(),
            ],
            usage: vec!["static struct miscdevice _dm = { .fops = &_ctl_fops };".into()],
            known: vec![Fact::Transform {
                kind: "iocnr".into(),
            }],
            errors: vec!["in `ioctl$X`: type `y` is not defined".into()],
        };
        let text = p.render();
        let q = Prompt::parse(&text);
        assert_eq!(q, p, "rendered:\n{text}");
    }

    /// `Prompt::parse` as it was before sections were sliced: every
    /// line copied, bodies joined back together. The oracle for
    /// [`Sections::parse`].
    fn parse_by_lines(text: &str) -> Prompt {
        let mut p = Prompt::default();
        let mut section = String::new();
        let mut buf: Vec<String> = Vec::new();
        let flush = |p: &mut Prompt, section: &str, buf: &mut Vec<String>| {
            let body = buf.join("\n").trim().to_string();
            let split = |body: &str| -> Vec<String> {
                body.split("\n\n")
                    .filter(|s| !s.trim().is_empty())
                    .map(str::to_string)
                    .collect()
            };
            match section {
                "TASK" => p.task = Task::from_keyword(body.trim()),
                "TARGET-FUNC" if !body.is_empty() => p.target_func = Some(body),
                "HANDLER-VAR" if !body.is_empty() => p.handler_var = Some(body),
                "WANT-STRUCTS" => p.want_structs = body.lines().map(str::to_string).collect(),
                "KNOWN" => p.known = parse_facts(&body),
                "ERRORS" => p.errors = body.lines().map(str::to_string).collect(),
                "USAGE" => p.usage = split(&body),
                "SOURCE" => p.source = split(&body),
                _ => {}
            }
            buf.clear();
        };
        for line in text.lines() {
            if let Some(h) = line.strip_prefix("## ") {
                let prev = std::mem::replace(&mut section, h.trim().to_string());
                flush(&mut p, &prev, &mut buf);
            } else if !line.starts_with("# ") {
                buf.push(line.to_string());
            }
        }
        let last = section.clone();
        flush(&mut p, &last, &mut buf);
        p
    }

    fn sample_prompt() -> Prompt {
        Prompt {
            task: Some(Task::Repair),
            target_func: Some("dm_ctl_ioctl".into()),
            handler_var: Some("_ctl_fops".into()),
            want_structs: vec!["dm_ioctl".into(), "dm_target_spec".into()],
            source: vec![
                "static long f(struct file *f, uint c) {\n\tchar *s = \"é\";\n\treturn 0;\n}"
                    .into(),
                "#define A 1".into(),
                "struct dm_ioctl {\n\t__u32 v;\n};".into(),
            ],
            usage: vec!["static struct miscdevice _dm = { .fops = &_ctl_fops };".into()],
            known: vec![
                Fact::SyzType {
                    c_name: "dm_ioctl".into(),
                    text: "dm_dm_ioctl {\n\tv int32\n}".into(),
                },
                Fact::Note("## not a header: it is indented by NOTE".into()),
            ],
            errors: vec!["in `ioctl$X`: type `y` is not defined".into()],
        }
    }

    #[test]
    fn sliced_sections_equal_the_line_by_line_parse_on_hostile_text() {
        let rendered = sample_prompt().render();
        let mut texts = vec![
            rendered.clone(),
            // CRLF line endings are folded to LF inside a body.
            rendered.replace('\n', "\r\n"),
            // A `# ` line is dropped wherever it sits.
            rendered.replace("\treturn 0;", "# dropped\n\treturn 0;"),
            rendered.replace("## SOURCE\n", "## SOURCE\n# dropped\n\n\n"),
            // A repeated header: the last body stands, but a blank
            // TARGET-FUNC does not erase an earlier one.
            format!("{rendered}## SOURCE\nint late;\n\n## TARGET-FUNC\n\n## TASK\nbogus\n"),
            // Headers the protocol does not know, no trailing newline,
            // a lone CR, blank chunks.
            "junk\n## NOPE\nx\n## SOURCE\n\n\n\nint a;\n\n\n\n \n\nint b;\r".to_string(),
            "## SOURCE".to_string(),
            "## \n## SOURCE \nint a;".to_string(),
            String::new(),
        ];
        // Cut anywhere, as the context window does (also inside `é`,
        // where the cut falls back to the previous boundary).
        for cut in 0..=rendered.len() {
            if rendered.is_char_boundary(cut) {
                texts.push(rendered[..cut].to_string());
            }
        }
        for text in &texts {
            assert_eq!(Prompt::parse(text), parse_by_lines(text), "text:\n{text:?}");
        }
        // The common case borrows: nothing in a rendered prompt needs rebuilding.
        let sections = Sections::parse(&rendered);
        assert!(matches!(sections.source, Cow::Borrowed(_)));
        assert!(matches!(sections.known, Cow::Borrowed(_)));
        assert_eq!(sections.source().count(), 3);
        assert_eq!(sections.target_func(), Some("dm_ctl_ioctl"));
    }

    #[test]
    fn borrowed_parts_render_like_the_owned_prompt() {
        let p = sample_prompt();
        let expected = "# INSTRUCTIONS\n".to_string()
            + INSTRUCTIONS
            + "\n\n## TASK\nrepair\n\n## TARGET-FUNC\ndm_ctl_ioctl\n\n## HANDLER-VAR\n_ctl_fops\n\n\
               ## WANT-STRUCTS\ndm_ioctl\ndm_target_spec\n\n## KNOWN\n"
            + &render_facts(&p.known)
            + "\n## ERRORS\nin `ioctl$X`: type `y` is not defined\n\n## USAGE\n"
            + &p.usage_text()
            + "\n\n## SOURCE\n"
            + &p.source_text() + "\n\n";
        assert_eq!(p.render(), expected);
        assert_eq!(
            Prompt::default().render(),
            format!("# INSTRUCTIONS\n{INSTRUCTIONS}\n\n")
        );
    }

    #[test]
    fn unparseable_lines_become_notes() {
        let facts = parse_facts("Sure! Here is the specification you asked for:\nDEVPATH /dev/x");
        assert_eq!(facts.len(), 2);
        assert!(matches!(&facts[0], Fact::Note(_)));
        assert!(matches!(&facts[1], Fact::DevPath(p) if p == "/dev/x"));
    }

    #[test]
    fn socket_with_unknown_family() {
        let facts = parse_facts("SOCKET family=? type=5 proto=0 level=SOL_X");
        assert_eq!(
            facts[0],
            Fact::Socket {
                family_name: None,
                sock_type: Some(5),
                proto: Some(0),
                level_name: Some("SOL_X".into()),
            }
        );
    }

    #[test]
    fn source_with_blank_lines_splits_items() {
        let p = Prompt {
            source: vec!["int a;".into(), "int b;".into()],
            ..Prompt::default()
        };
        let q = Prompt::parse(&p.render());
        assert_eq!(q.source.len(), 2);
        assert_eq!(q.source_text(), "int a;\n\nint b;");
    }
}
