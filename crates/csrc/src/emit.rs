//! C source emission: render a [`Blueprint`] into the kernel-style C
//! file the analyzers (oracle LLM, SyzDescribe baseline, extractor) see.
//!
//! The emitted code is deliberately idiomatic kernel C: `_IOWR` macro
//! definitions, designated-initializer `file_operations` /
//! `miscdevice` / `proto_ops` registrations, per-command sub-handler
//! functions whose bodies encode the field semantics (range checks,
//! flag masks, `kvmalloc(size)`, id allocation), and one of several
//! dispatch styles. Every semantic fact an analyzer must recover is
//! present in the text — nothing is inferred from the blueprint behind
//! the analyzers' backs.

use crate::blueprint::{
    ArgKind, ArgStruct, Blueprint, BlueprintKind, CmdBlueprint, CmdEncoding, CmdTransform,
    DispatchStyle, DriverBlueprint, FieldRole, FieldTy, RegStyle, SockCall, SocketBlueprint,
};
use std::fmt::Write as _;

/// Render the complete C source file for a blueprint.
#[must_use]
pub fn emit_blueprint(bp: &Blueprint) -> String {
    let mut out = String::new();
    if let Some(c) = &bp.comment {
        let _ = writeln!(out, "/* {c} */");
    }
    emit_macros(bp, &mut out);
    emit_structs(bp, &mut out);
    match &bp.kind {
        BlueprintKind::Driver(d) => emit_driver(bp, d, &mut out),
        BlueprintKind::Socket(s) => emit_socket(bp, s, &mut out),
    }
    out
}

fn c_field_ty(ty: &FieldTy, name: &str) -> String {
    match ty {
        FieldTy::U8 => format!("__u8 {name}"),
        FieldTy::U16 => format!("__u16 {name}"),
        FieldTy::U32 => format!("__u32 {name}"),
        FieldTy::U64 => format!("__u64 {name}"),
        FieldTy::CharArray(n) => format!("char {name}[{n}]"),
        FieldTy::Array(e, n) => {
            let inner = c_field_ty(e, name);
            format!("{inner}[{n}]")
        }
        FieldTy::FlexArray(e) => {
            let inner = c_field_ty(e, name);
            format!("{inner}[]")
        }
        FieldTy::Struct(s) => format!("struct {s} {name}"),
    }
}

fn emit_macros(bp: &Blueprint, out: &mut String) {
    if let Some(d) = bp.driver() {
        let _ = writeln!(
            out,
            "#define {}_IOCTL_MAGIC {:#x}",
            bp.id.to_uppercase(),
            d.magic
        );
    }
    for cmd in &bp.cmds {
        match cmd.encoding {
            CmdEncoding::Raw(v) => {
                let _ = writeln!(out, "#define {} {v:#x}", cmd.name);
            }
            CmdEncoding::Ioc { dir } => {
                let magic = format!("{}_IOCTL_MAGIC", bp.id.to_uppercase());
                let macro_name = match dir {
                    0 => "_IO",
                    1 => "_IOW",
                    2 => "_IOR",
                    _ => "_IOWR",
                };
                match &cmd.arg {
                    ArgKind::Struct(s) => {
                        if dir == 0 {
                            let _ = writeln!(out, "#define {} _IO({magic}, {})", cmd.name, cmd.nr);
                        } else {
                            let _ = writeln!(
                                out,
                                "#define {} {macro_name}({magic}, {}, struct {s})",
                                cmd.name, cmd.nr
                            );
                        }
                    }
                    ArgKind::IdPtr(_) => {
                        if dir == 0 {
                            let _ = writeln!(out, "#define {} _IO({magic}, {})", cmd.name, cmd.nr);
                        } else {
                            let _ = writeln!(
                                out,
                                "#define {} {macro_name}({magic}, {}, __u32)",
                                cmd.name, cmd.nr
                            );
                        }
                    }
                    ArgKind::Int => {
                        if dir == 0 {
                            let _ = writeln!(out, "#define {} _IO({magic}, {})", cmd.name, cmd.nr);
                        } else {
                            let _ = writeln!(
                                out,
                                "#define {} {macro_name}({magic}, {}, int)",
                                cmd.name, cmd.nr
                            );
                        }
                    }
                    ArgKind::None => {
                        let _ = writeln!(out, "#define {} _IO({magic}, {})", cmd.name, cmd.nr);
                    }
                }
            }
        }
    }
    for (set, values) in &bp.flag_sets {
        let _ = writeln!(out, "/* flags for {set} */");
        for (name, v) in values {
            let _ = writeln!(out, "#define {name} {v:#x}");
        }
    }
    if let Some(s) = bp.socket() {
        if !s.opaque_family {
            let _ = writeln!(out, "#define {} {}", s.family_name, s.family);
        }
        let _ = writeln!(out, "#define {} {}", s.level_name, s.level);
    }
    out.push('\n');
}

fn emit_structs(bp: &Blueprint, out: &mut String) {
    // Emit in dependency order: a struct after everything it embeds.
    let mut emitted: Vec<&str> = Vec::new();
    loop {
        let mut progressed = false;
        for s in &bp.structs {
            if emitted.contains(&s.name.as_str()) {
                continue;
            }
            let deps_ready = s.fields.iter().all(|f| match leaf_struct(&f.ty) {
                Some(dep) => emitted.contains(&dep),
                None => true,
            });
            if deps_ready {
                emit_one_struct(s, out);
                emitted.push(&s.name);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Emit any cyclically-stuck structs anyway (should not happen).
    for s in &bp.structs {
        if !emitted.contains(&s.name.as_str()) {
            emit_one_struct(s, out);
        }
    }
}

fn leaf_struct(ty: &FieldTy) -> Option<&str> {
    match ty {
        FieldTy::Struct(s) => Some(s),
        FieldTy::Array(e, _) | FieldTy::FlexArray(e) => leaf_struct(e),
        _ => None,
    }
}

fn emit_one_struct(s: &ArgStruct, out: &mut String) {
    let kw = if s.is_union { "union" } else { "struct" };
    let _ = writeln!(out, "{kw} {} {{", s.name);
    for f in &s.fields {
        let _ = writeln!(out, "\t{};", c_field_ty(&f.ty, &f.name));
    }
    let _ = writeln!(out, "}};\n");
}

/// Name of the per-command sub-handler function.
fn cmd_fn_name(bp: &Blueprint, cmd: &CmdBlueprint) -> String {
    format!("{}_{}", bp.id, cmd.name.to_lowercase())
}

fn emit_cmd_handler(bp: &Blueprint, cmd: &CmdBlueprint, out: &mut String) {
    let fname = cmd_fn_name(bp, cmd);
    // Sub-handler-creating commands use the canonical anon-inode
    // pattern; the dependency-analysis stage keys off this call.
    if let crate::blueprint::CmdEffect::CreatesFd { handler } = &cmd.effect {
        let _ = writeln!(
            out,
            "static int {fname}(struct file *file, unsigned long arg) {{\n\treturn anon_inode_getfd(\"{handler}\", &_{handler}_fops, file, 2);\n}}\n"
        );
        return;
    }
    match &cmd.arg {
        ArgKind::Struct(sname) => {
            let _ = writeln!(
                out,
                "static int {fname}(struct file *file, struct {sname} __user *u) {{"
            );
            let _ = writeln!(out, "\tstruct {sname} p;");
            let _ = writeln!(
                out,
                "\tif (copy_from_user(&p, u, sizeof(struct {sname})))\n\t\treturn -14;"
            );
            if let Some(s) = bp.arg_struct(sname) {
                emit_field_checks(bp, s, out);
            }
            match cmd.dir {
                crate::blueprint::ArgDir::Out | crate::blueprint::ArgDir::InOut => {
                    let _ = writeln!(
                        out,
                        "\tif (copy_to_user(u, &p, sizeof(struct {sname})))\n\t\treturn -14;"
                    );
                }
                crate::blueprint::ArgDir::In => {}
            }
            let _ = writeln!(out, "\treturn 0;\n}}\n");
        }
        ArgKind::IdPtr(res) => {
            let _ = writeln!(
                out,
                "static int {fname}(struct file *file, __u32 __user *u) {{"
            );
            let _ = writeln!(out, "\t__u32 id;");
            let _ = writeln!(
                out,
                "\tif (copy_from_user(&id, u, sizeof(__u32)))\n\t\treturn -14;"
            );
            let _ = writeln!(out, "\tif (!{}_lookup_{res}(id))\n\t\treturn -2;", bp.id);
            let _ = writeln!(out, "\treturn 0;\n}}\n");
        }
        ArgKind::Int => {
            let _ = writeln!(
                out,
                "static int {fname}(struct file *file, unsigned long arg) {{"
            );
            let _ = writeln!(out, "\treturn do_{fname}(arg);\n}}\n");
        }
        ArgKind::None => {
            let _ = writeln!(out, "static int {fname}(struct file *file) {{");
            let _ = writeln!(out, "\treturn 0;\n}}\n");
        }
    }
}

fn emit_field_checks(bp: &Blueprint, s: &ArgStruct, out: &mut String) {
    for f in &s.fields {
        match &f.role {
            FieldRole::CheckedRange(lo, hi) => {
                if *lo == 0 {
                    let _ = writeln!(out, "\tif (p.{} > {hi})\n\t\treturn -22;", f.name);
                } else {
                    let _ = writeln!(
                        out,
                        "\tif (p.{} < {lo} || p.{} > {hi})\n\t\treturn -22;",
                        f.name, f.name
                    );
                }
            }
            FieldRole::MagicCheck(v) => {
                let _ = writeln!(out, "\tif (p.{} != {v:#x})\n\t\treturn -22;", f.name);
            }
            FieldRole::Reserved => {
                let _ = writeln!(out, "\tif (p.{})\n\t\treturn -22;", f.name);
            }
            FieldRole::Flags(set) => {
                let mask: u64 = bp
                    .flag_sets
                    .iter()
                    .find(|(n, _)| n == set)
                    .map_or(0, |(_, vs)| vs.iter().fold(0, |a, (_, v)| a | v));
                let _ = writeln!(out, "\tif (p.{} & ~{mask:#x})\n\t\treturn -22;", f.name);
            }
            FieldRole::SizeOfPayload => {
                let _ = writeln!(out, "\tvoid *buf = kvmalloc(p.{}, 0xcc0);", f.name);
                let _ = writeln!(out, "\tif (!buf)\n\t\treturn -12;");
            }
            FieldRole::LenOf(target) => {
                let _ = writeln!(
                    out,
                    "\tfor (__u32 i = 0; i < p.{}; i++)\n\t\tprocess_one(&p.{target}[i]);",
                    f.name
                );
            }
            FieldRole::OutId(res) => {
                let _ = writeln!(out, "\tp.{} = {}_alloc_{res}(file);", f.name, bp.id);
            }
            FieldRole::InId(res) => {
                let _ = writeln!(
                    out,
                    "\tif (!{}_lookup_{res}(p.{}))\n\t\treturn -2;",
                    bp.id, f.name
                );
            }
            FieldRole::Plain => {}
        }
    }
}

fn cmd_dispatch_call(bp: &Blueprint, cmd: &CmdBlueprint) -> String {
    let fname = cmd_fn_name(bp, cmd);
    match &cmd.arg {
        ArgKind::Struct(sname) => format!("{fname}(file, (struct {sname} __user *)arg)"),
        ArgKind::IdPtr(_) => format!("{fname}(file, (__u32 __user *)arg)"),
        ArgKind::Int => format!("{fname}(file, arg)"),
        ArgKind::None => format!("{fname}(file)"),
    }
}

fn has_hidden(bp: &Blueprint) -> bool {
    bp.cmds.iter().any(|c| c.hidden)
}

/// What the dispatcher returns when no static case matched: either a
/// plain `-ENOTTY` or a hop into the runtime-registered (statically
/// opaque) handler table that serves `hidden` commands.
fn dynamic_tail(bp: &Blueprint) -> String {
    if has_hidden(bp) {
        format!("{}_dynamic_ioctl(file, command, arg)", bp.id)
    } else {
        "-25".to_string()
    }
}

fn emit_driver(bp: &Blueprint, d: &DriverBlueprint, out: &mut String) {
    let id = &bp.id;
    // open handler
    let _ = writeln!(
        out,
        "static int {id}_open(struct inode *inode, struct file *filp) {{\n\treturn 0;\n}}\n"
    );
    for cmd in &bp.cmds {
        emit_cmd_handler(bp, cmd, out);
    }
    if has_hidden(bp) {
        // Runtime-registered dispatch: the handler table is filled in at
        // module load time, so no static mapping exists in the text.
        let _ = writeln!(
            out,
            "long invoke_registered_handler(void *table, unsigned int cmd, unsigned long arg);\n"
        );
        let _ = writeln!(out, "static void *_{id}_dyn_table[16];\n");
        let _ = writeln!(
            out,
            "static long {id}_dynamic_ioctl(struct file *file, unsigned int command, unsigned long arg) {{\n\treturn invoke_registered_handler(_{id}_dyn_table, command, arg);\n}}\n"
        );
    }
    // Dispatcher.
    let real = format!("{id}_do_ioctl");
    let transform_decl = |out: &mut String| match d.transform {
        CmdTransform::None => {
            let _ = writeln!(out, "\tunsigned int cmd = command;");
        }
        CmdTransform::IocNr => {
            let _ = writeln!(out, "\tunsigned int cmd = _IOC_NR(command);");
        }
        CmdTransform::Masked(m) => {
            let _ = writeln!(out, "\tunsigned int cmd = command & {m:#x};");
        }
    };
    match &d.dispatch {
        DispatchStyle::Switch | DispatchStyle::Delegated(_) => {
            let _ = writeln!(
                out,
                "static long {real}(struct file *file, unsigned int command, unsigned long arg) {{"
            );
            transform_decl(out);
            let _ = writeln!(out, "\tswitch (cmd) {{");
            for cmd in bp.cmds.iter().filter(|c| !c.hidden) {
                let label = dispatch_label(bp, cmd);
                let _ = writeln!(out, "\tcase {label}:");
                let _ = writeln!(out, "\t\treturn {};", cmd_dispatch_call(bp, cmd));
            }
            let _ = writeln!(
                out,
                "\tdefault:\n\t\treturn {};\n\t}}\n}}\n",
                dynamic_tail(bp)
            );
        }
        DispatchStyle::IfChain => {
            let _ = writeln!(
                out,
                "static long {real}(struct file *file, unsigned int command, unsigned long arg) {{"
            );
            transform_decl(out);
            for cmd in bp.cmds.iter().filter(|c| !c.hidden) {
                let label = dispatch_label(bp, cmd);
                let _ = writeln!(out, "\tif (cmd == {label})");
                let _ = writeln!(out, "\t\treturn {};", cmd_dispatch_call(bp, cmd));
            }
            let _ = writeln!(out, "\treturn {};\n}}\n", dynamic_tail(bp));
        }
        DispatchStyle::LookupTable => {
            // typedef + entry struct + table + lookup fn.
            let _ = writeln!(
                out,
                "typedef int (*{id}_ioctl_fn)(struct file *file, unsigned long arg);\n"
            );
            let _ = writeln!(
                out,
                "struct {id}_ioctl_entry {{\n\tunsigned int cmd;\n\t{id}_ioctl_fn fn;\n}};\n"
            );
            let _ = writeln!(out, "static struct {id}_ioctl_entry _{id}_ioctls[] = {{");
            for cmd in bp.cmds.iter().filter(|c| !c.hidden) {
                let label = dispatch_label(bp, cmd);
                let _ = writeln!(out, "\t{{ {label}, (void *){} }},", cmd_fn_name(bp, cmd));
            }
            let _ = writeln!(out, "}};\n");
            let _ = writeln!(
                out,
                "static {id}_ioctl_fn {id}_lookup_ioctl(unsigned int cmd) {{\n\tfor (int i = 0; i < {}; i++) {{\n\t\tif (_{id}_ioctls[i].cmd == cmd)\n\t\t\treturn _{id}_ioctls[i].fn;\n\t}}\n\treturn 0;\n}}\n",
                bp.cmds.iter().filter(|c| !c.hidden).count()
            );
            let _ = writeln!(
                out,
                "static long {real}(struct file *file, unsigned int command, unsigned long arg) {{"
            );
            transform_decl(out);
            let _ = writeln!(
                out,
                "\t{id}_ioctl_fn fn = {id}_lookup_ioctl(cmd);\n\tif (!fn)\n\t\treturn {};\n\treturn fn(file, arg);\n}}\n",
                dynamic_tail(bp)
            );
        }
    }
    // Delegation wrappers (registered handler → … → real dispatcher).
    let depth = d.dispatch.delegation_depth();
    let mut entry = real.clone();
    for i in (0..depth).rev() {
        let wrapper = if i == 0 {
            format!("{id}_ctl_ioctl")
        } else {
            format!("{id}_ioctl_hop{i}")
        };
        let _ = writeln!(
            out,
            "static long {wrapper}(struct file *file, unsigned int command, unsigned long u) {{\n\treturn {entry}(file, command, u);\n}}\n"
        );
        entry = wrapper;
    }
    let registered = if depth > 0 {
        entry
    } else {
        let direct = format!("{id}_ctl_ioctl");
        let _ = writeln!(
            out,
            "static long {direct}(struct file *file, unsigned int command, unsigned long u) {{\n\treturn {real}(file, command, u);\n}}\n"
        );
        direct
    };
    // file_operations.
    let _ = writeln!(
        out,
        "static const struct file_operations _{id}_fops = {{\n\t.open = {id}_open,\n\t.unlocked_ioctl = {registered},\n\t.compat_ioctl = {registered},\n}};\n"
    );
    // Registration.
    match &d.reg {
        RegStyle::MiscName => {
            let name = d.dev_path.strip_prefix("/dev/").unwrap_or(&d.dev_path);
            let _ = writeln!(
                out,
                "static struct miscdevice _{id}_misc = {{\n\t.minor = 255,\n\t.name = \"{name}\",\n\t.fops = &_{id}_fops,\n}};\n"
            );
        }
        RegStyle::MiscNodename => {
            let node = d.dev_path.strip_prefix("/dev/").unwrap_or(&d.dev_path);
            // The paper's device-mapper case: .name is a *different*
            // human-readable name; .nodename carries the real path.
            let _ = writeln!(
                out,
                "static struct miscdevice _{id}_misc = {{\n\t.minor = 252,\n\t.name = \"{id}-controller\",\n\t.nodename = \"{node}\",\n\t.fops = &_{id}_fops,\n}};\n"
            );
        }
        RegStyle::Cdev => {
            let name = d.dev_path.strip_prefix("/dev/").unwrap_or(&d.dev_path);
            let _ = writeln!(
                out,
                "static int __init {id}_init(void) {{\n\tcdev_init(&{id}_cdev, &_{id}_fops);\n\tcdev_add(&{id}_cdev, {id}_devt, 1);\n\tdevice_create({id}_class, 0, {id}_devt, 0, \"{name}\");\n\treturn 0;\n}}\n"
            );
        }
        RegStyle::CdevIndexed => {
            // Replace the trailing index digits with a printf pattern.
            let name = d.dev_path.strip_prefix("/dev/").unwrap_or(&d.dev_path);
            let pattern = match name.find(|c: char| c.is_ascii_digit()) {
                Some(i) => format!("{}%i", &name[..i]),
                None => format!("{name}%i"),
            };
            let _ = writeln!(
                out,
                "static int __init {id}_init(void) {{\n\tcdev_init(&{id}_cdev, &_{id}_fops);\n\tcdev_add(&{id}_cdev, {id}_devt, 1);\n\tdevice_create({id}_class, 0, {id}_devt, 0, \"{pattern}\", card->number);\n\treturn 0;\n}}\n"
            );
        }
        RegStyle::ProcOps => {
            let name = d.dev_path.strip_prefix("/proc/").unwrap_or(&d.dev_path);
            let _ = writeln!(
                out,
                "static int __init {id}_init(void) {{\n\tproc_create(\"{name}\", 0, 0, &_{id}_fops);\n\treturn 0;\n}}\n"
            );
        }
        RegStyle::Anon => {
            let _ = writeln!(
                out,
                "/* fds for this handler are created by another driver's ioctl */"
            );
        }
    }
}

fn dispatch_label(bp: &Blueprint, cmd: &CmdBlueprint) -> String {
    let d = bp.driver();
    match d.map_or(CmdTransform::None, |dr| dr.transform) {
        CmdTransform::None => cmd.name.clone(),
        // Post-transform dispatch compares against the *command number*;
        // real kernels write the raw nr or `_IOC_NR(CMD)` here. We emit
        // `_IOC_NR(CMD)` so the macro connection stays in the text.
        CmdTransform::IocNr => format!("_IOC_NR({})", cmd.name),
        CmdTransform::Masked(m) => format!("({} & {m:#x})", cmd.name),
    }
}

fn emit_socket(bp: &Blueprint, s: &SocketBlueprint, out: &mut String) {
    let id = &bp.id;
    for cmd in &bp.cmds {
        emit_sockopt_handler(bp, cmd, out);
    }
    // setsockopt dispatcher (always switch-based).
    let _ = writeln!(
        out,
        "static int {id}_setsockopt(struct socket *sock, int level, int optname, char __user *optval, unsigned int optlen) {{"
    );
    let _ = writeln!(out, "\tif (level != {})\n\t\treturn -92;", s.level_name);
    let _ = writeln!(out, "\tswitch (optname) {{");
    for cmd in bp.cmds.iter().filter(|c| !c.hidden) {
        let _ = writeln!(out, "\tcase {}:", cmd.name);
        let call = match &cmd.arg {
            ArgKind::Struct(sn) => format!(
                "{}(sock, (struct {sn} __user *)optval, optlen)",
                cmd_fn_name(bp, cmd)
            ),
            _ => format!("{}(sock, optval, optlen)", cmd_fn_name(bp, cmd)),
        };
        let _ = writeln!(out, "\t\treturn {call};");
    }
    let _ = writeln!(out, "\tdefault:\n\t\treturn -92;\n\t}}\n}}\n");
    // Generic calls.
    for call in &s.calls {
        let (name, sig, body) = match call {
            SockCall::Bind => (
                "bind",
                "struct socket *sock, struct sockaddr *uaddr, int addr_len",
                format!(
                    "\tstruct sockaddr_{id} *sa = (struct sockaddr_{id} *)uaddr;\n\tif (addr_len < sizeof(struct sockaddr_{id}))\n\t\treturn -22;\n\tif (sa->family != {})\n\t\treturn -97;\n\treturn 0;",
                    s.family_name
                ),
            ),
            SockCall::Connect => (
                "connect",
                "struct socket *sock, struct sockaddr *uaddr, int addr_len",
                format!(
                    "\tif (addr_len < sizeof(struct sockaddr_{id}))\n\t\treturn -22;\n\treturn 0;"
                ),
            ),
            SockCall::Sendto => (
                "sendmsg",
                "struct socket *sock, struct msghdr *msg, size_t len",
                "\tif (len == 0)\n\t\treturn -22;\n\treturn len;".to_string(),
            ),
            SockCall::Recvfrom => (
                "recvmsg",
                "struct socket *sock, struct msghdr *msg, size_t len, int flags",
                "\treturn 0;".to_string(),
            ),
            SockCall::Accept => (
                "accept",
                "struct socket *sock, struct socket *newsock, int flags, bool kern",
                "\treturn 0;".to_string(),
            ),
        };
        let _ = writeln!(out, "static int {id}_{name}({sig}) {{\n{body}\n}}\n");
    }
    // proto_ops registration.
    let _ = writeln!(out, "static const struct proto_ops {id}_proto_ops = {{");
    if s.opaque_family {
        let _ = writeln!(out, "\t.family = 0,");
    } else {
        let _ = writeln!(out, "\t.family = {},", s.family_name);
    }
    let _ = writeln!(out, "\t.setsockopt = {id}_setsockopt,");
    let _ = writeln!(out, "\t.getsockopt = {id}_setsockopt,");
    for call in &s.calls {
        let name = match call {
            SockCall::Bind => "bind",
            SockCall::Connect => "connect",
            SockCall::Sendto => "sendmsg",
            SockCall::Recvfrom => "recvmsg",
            SockCall::Accept => "accept",
        };
        let _ = writeln!(out, "\t.{name} = {id}_{name},");
    }
    let _ = writeln!(out, "}};\n");
    // create + family registration.
    let _ = writeln!(
        out,
        "static int {id}_create(struct net *net, struct socket *sock, int protocol, int kern) {{\n\tif (protocol != {})\n\t\treturn -93;\n\tif (sock->type != {})\n\t\treturn -94;\n\tsock->ops = &{id}_proto_ops;\n\treturn 0;\n}}\n",
        s.proto, s.sock_type
    );
    if s.opaque_family {
        let _ = writeln!(out, "int runtime_family_id(void);\n");
        let _ = writeln!(
            out,
            "static int __init {id}_register(void) {{\n\t{id}_family_ops.family = runtime_family_id();\n\tsock_register(&{id}_family_ops);\n\treturn 0;\n}}\n"
        );
        let _ = writeln!(
            out,
            "static struct net_proto_family {id}_family_ops = {{\n\t.create = {id}_create,\n}};\n"
        );
    } else {
        let _ = writeln!(
            out,
            "static struct net_proto_family {id}_family_ops = {{\n\t.family = {},\n\t.create = {id}_create,\n}};\n",
            s.family_name
        );
    }
}

fn emit_sockopt_handler(bp: &Blueprint, cmd: &CmdBlueprint, out: &mut String) {
    let fname = cmd_fn_name(bp, cmd);
    match &cmd.arg {
        ArgKind::Struct(sname) => {
            let _ = writeln!(
                out,
                "static int {fname}(struct socket *sock, struct {sname} __user *optval, unsigned int optlen) {{"
            );
            let _ = writeln!(
                out,
                "\tstruct {sname} p;\n\tif (optlen < sizeof(struct {sname}))\n\t\treturn -22;"
            );
            let _ = writeln!(
                out,
                "\tif (copy_from_user(&p, optval, sizeof(struct {sname})))\n\t\treturn -14;"
            );
            if let Some(s) = bp.arg_struct(sname) {
                emit_field_checks(bp, s, out);
            }
            let _ = writeln!(out, "\treturn 0;\n}}\n");
        }
        _ => {
            let _ = writeln!(
                out,
                "static int {fname}(struct socket *sock, char __user *optval, unsigned int optlen) {{\n\tint v;\n\tif (optlen < sizeof(int))\n\t\treturn -22;\n\tif (copy_from_user(&v, optval, sizeof(int)))\n\t\treturn -14;\n\treturn 0;\n}}\n"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::{ArgDir, ArgField, ExistingSpec};
    use crate::cmacro;
    use crate::index::Corpus;
    use crate::parser::cparse;

    fn sample() -> Blueprint {
        Blueprint {
            id: "dm".into(),
            kind: BlueprintKind::Driver(DriverBlueprint {
                reg: RegStyle::MiscNodename,
                dev_path: "/dev/mapper/control".into(),
                dispatch: DispatchStyle::LookupTable,
                transform: CmdTransform::IocNr,
                magic: 0xfd,
                open_blocks: 4,
            }),
            cmds: vec![
                CmdBlueprint::new(
                    "DM_VERSION",
                    0,
                    ArgKind::Struct("dm_ioctl".into()),
                    ArgDir::InOut,
                ),
                CmdBlueprint::new(
                    "DM_DEV_CREATE",
                    3,
                    ArgKind::Struct("dm_ioctl".into()),
                    ArgDir::In,
                ),
            ],
            structs: vec![ArgStruct {
                name: "dm_ioctl".into(),
                fields: vec![
                    ArgField::plain("version", FieldTy::Array(Box::new(FieldTy::U32), 3)),
                    ArgField::with_role("data_size", FieldTy::U32, FieldRole::SizeOfPayload),
                    ArgField::plain("name", FieldTy::CharArray(16)),
                ],
                is_union: false,
            }],
            flag_sets: vec![],
            bugs: vec![],
            loaded: true,
            existing: ExistingSpec::None,
            source_file: "drivers/md/dm-ioctl.c".into(),
            comment: Some("Device mapper control interface".into()),
        }
    }

    #[test]
    fn emitted_source_parses() {
        let bp = sample();
        let src = emit_blueprint(&bp);
        let f = cparse(&bp.source_file, &src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert!(f.items.len() > 5);
    }

    #[test]
    fn macro_values_agree_with_blueprint() {
        let bp = sample();
        let src = emit_blueprint(&bp);
        let corpus = Corpus::build(vec![cparse("dm.c", &src).unwrap()]);
        for cmd in &bp.cmds {
            let from_c = cmacro::eval_const(&corpus, &cmd.name)
                .unwrap_or_else(|| panic!("cannot eval {}", cmd.name));
            assert_eq!(
                from_c,
                bp.cmd_value(cmd),
                "macro {} disagrees: C={from_c:#x} bp={:#x}",
                cmd.name,
                bp.cmd_value(cmd)
            );
        }
    }

    #[test]
    fn nodename_present_name_misleading() {
        let bp = sample();
        let src = emit_blueprint(&bp);
        assert!(src.contains(".nodename = \"mapper/control\""));
        assert!(src.contains(".name = \"dm-controller\""));
    }

    #[test]
    fn all_dispatch_styles_parse() {
        for style in [
            DispatchStyle::Switch,
            DispatchStyle::IfChain,
            DispatchStyle::LookupTable,
            DispatchStyle::Delegated(3),
        ] {
            let mut bp = sample();
            if let BlueprintKind::Driver(d) = &mut bp.kind {
                d.dispatch = style.clone();
            }
            let src = emit_blueprint(&bp);
            cparse("t.c", &src).unwrap_or_else(|e| panic!("{style:?}: {e}\n{src}"));
            assert!(src.contains(".unlocked_ioctl = dm_ctl_ioctl"));
        }
    }

    #[test]
    fn all_reg_styles_parse() {
        for reg in [
            RegStyle::MiscName,
            RegStyle::MiscNodename,
            RegStyle::Cdev,
            RegStyle::ProcOps,
            RegStyle::Anon,
        ] {
            let mut bp = sample();
            if let BlueprintKind::Driver(d) = &mut bp.kind {
                d.reg = reg.clone();
            }
            let src = emit_blueprint(&bp);
            cparse("t.c", &src).unwrap_or_else(|e| panic!("{reg:?}: {e}\n{src}"));
        }
    }

    #[test]
    fn socket_source_parses_and_registers() {
        let bp = Blueprint {
            id: "rds".into(),
            kind: BlueprintKind::Socket(SocketBlueprint {
                family_name: "AF_RDS".into(),
                family: 21,
                sock_type: 5,
                proto: 0,
                level: 276,
                level_name: "SOL_RDS".into(),
                calls: vec![SockCall::Bind, SockCall::Sendto, SockCall::Recvfrom],
                socket_blocks: 4,
                opaque_family: false,
            }),
            cmds: vec![CmdBlueprint {
                name: "RDS_CANCEL_SENT_TO".into(),
                nr: 1,
                encoding: CmdEncoding::Raw(1),
                arg: ArgKind::Struct("rds_opt".into()),
                dir: ArgDir::In,
                effect: crate::blueprint::CmdEffect::Pure,
                blocks: 6,
                deep_blocks: 4,
                hidden: false,
            }],
            structs: vec![
                ArgStruct {
                    name: "rds_opt".into(),
                    fields: vec![ArgField::plain("v", FieldTy::U64)],
                    is_union: false,
                },
                ArgStruct {
                    name: "sockaddr_rds".into(),
                    fields: vec![
                        ArgField::with_role("family", FieldTy::U16, FieldRole::MagicCheck(21)),
                        ArgField::plain("port", FieldTy::U16),
                        ArgField::plain("addr", FieldTy::U32),
                    ],
                    is_union: false,
                },
            ],
            flag_sets: vec![],
            bugs: vec![],
            loaded: true,
            existing: ExistingSpec::None,
            source_file: "net/rds/af_rds.c".into(),
            comment: None,
        };
        let src = emit_blueprint(&bp);
        let f = cparse("rds.c", &src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert!(src.contains(".family = AF_RDS"));
        assert!(src.contains(".setsockopt = rds_setsockopt"));
        assert!(f.items.iter().any(|i| i.name() == "rds_family_ops"));
    }

    #[test]
    fn field_checks_encode_roles() {
        let mut bp = sample();
        bp.flag_sets = vec![(
            "dm_flags".into(),
            vec![("DM_F_A".into(), 1), ("DM_F_B".into(), 2)],
        )];
        bp.structs[0].fields.push(ArgField::with_role(
            "prio",
            FieldTy::U32,
            FieldRole::CheckedRange(0, 3),
        ));
        bp.structs[0].fields.push(ArgField::with_role(
            "flags",
            FieldTy::U32,
            FieldRole::Flags("dm_flags".into()),
        ));
        let src = emit_blueprint(&bp);
        assert!(src.contains("if (p.prio > 3)"));
        assert!(src.contains("if (p.flags & ~0x3)"));
        assert!(src.contains("kvmalloc(p.data_size"));
        cparse("t.c", &src).unwrap();
    }
}
