//! # kgpt-extractor
//!
//! The *source code extractor* of the KernelGPT pipeline (paper §4):
//!
//! 1. **Operation-handler extraction** — simple, general pattern
//!    matching over the parsed corpus to find driver
//!    (`struct file_operations` with an `unlocked_ioctl`/`ioctl`
//!    initializer) and socket (`struct proto_ops` /
//!    `struct net_proto_family`) operation handlers, together with
//!    their *usage sites* (miscdevice registrations, `device_create`
//!    init functions, family registrations) that the analysis prompts
//!    embed.
//!
//! 2. **Kernel definition extraction** — the `ExtractCode(id)`
//!    primitive of Algorithm 1: fetch the raw source text of any
//!    function, struct, macro, enum or global by name.

use kgpt_csrc::ast::{CItemKind, Expr};
use kgpt_csrc::Corpus;
use serde::{Deserialize, Serialize};

/// Kind of operation handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandlerKind {
    /// A device driver (`file_operations`).
    Driver,
    /// A socket family (`proto_ops`).
    Socket,
}

/// One discovered operation handler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpHandler {
    /// Driver or socket.
    pub kind: HandlerKind,
    /// Name of the ops variable (`_dm_fops`, `rds_proto_ops`).
    pub ops_var: String,
    /// Source file the handler lives in.
    pub file: String,
    /// Function registered as `unlocked_ioctl`/`ioctl` (drivers).
    pub ioctl_fn: Option<String>,
    /// Function registered as `setsockopt` (sockets).
    pub setsockopt_fn: Option<String>,
    /// Function registered as `open` (drivers).
    pub open_fn: Option<String>,
    /// Raw texts of items that *use* the ops variable (registration
    /// sites); these carry the device-name / family evidence.
    pub usage: Vec<String>,
}

impl OpHandler {
    /// The raw text of the ops variable definition itself.
    #[must_use]
    pub fn definition<'a>(&self, corpus: &'a Corpus) -> Option<&'a str> {
        corpus.source_of(&self.ops_var)
    }
}

/// Find every operation handler in the corpus.
///
/// The ops variables are found first; then one pass over the corpus's
/// items finds what mentions each of them ([`Corpus::usages_of_all`]).
#[must_use]
pub fn find_handlers(corpus: &Corpus) -> Vec<OpHandler> {
    let mut found = Vec::new();
    for file in corpus.files() {
        for item in &file.items {
            let CItemKind::Var(v) = &item.kind else {
                continue;
            };
            let Some(init) = &v.init else { continue };
            let kind = match v.ty.base.as_str() {
                // Only an ioctl-capable driver is a handler.
                "struct file_operations" if driver_ioctl(init).is_some() => HandlerKind::Driver,
                "struct proto_ops" => HandlerKind::Socket,
                _ => continue,
            };
            found.push((file, v, init, kind));
        }
    }
    let names: Vec<&str> = found.iter().map(|(_, v, _, _)| v.name.as_str()).collect();
    let usages = corpus.usages_of_all(&names);
    found
        .into_iter()
        .zip(usages)
        .map(|((file, v, init, kind), usage)| {
            let field = |name: &str| {
                init.init_field(name)
                    .and_then(Expr::as_ident)
                    .map(str::to_string)
            };
            let mut usage: Vec<String> = usage.into_iter().map(str::to_string).collect();
            match kind {
                HandlerKind::Driver => OpHandler {
                    kind,
                    ops_var: v.name.clone(),
                    file: file.name.clone(),
                    ioctl_fn: driver_ioctl(init).map(str::to_string),
                    setsockopt_fn: None,
                    open_fn: field("open"),
                    usage,
                },
                HandlerKind::Socket => {
                    // Socket registration evidence: the family ops var
                    // in the same file and its create function.
                    for sib in &file.items {
                        if let CItemKind::Var(fv) = &sib.kind {
                            if fv.ty.base == "struct net_proto_family" {
                                if !usage.contains(&sib.text) {
                                    usage.push(sib.text.clone());
                                }
                                if let Some(create) = fv
                                    .init
                                    .as_ref()
                                    .and_then(|i| i.init_field("create"))
                                    .and_then(Expr::as_ident)
                                {
                                    if let Some(t) = corpus.source_of(create) {
                                        let t = t.to_string();
                                        if !usage.contains(&t) {
                                            usage.push(t);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    OpHandler {
                        kind,
                        ops_var: v.name.clone(),
                        file: file.name.clone(),
                        ioctl_fn: field("ioctl"),
                        setsockopt_fn: field("setsockopt"),
                        open_fn: None,
                        usage,
                    }
                }
            }
        })
        .collect()
}

/// The function a driver registers for ioctls: its `unlocked_ioctl`
/// initializer where it has one, else its `ioctl`.
fn driver_ioctl(init: &Expr) -> Option<&str> {
    init.init_field("unlocked_ioctl")
        .or_else(|| init.init_field("ioctl"))
        .and_then(Expr::as_ident)
}

/// `ExtractCode(id)` — raw definition text for any named entity.
#[must_use]
pub fn extract_code<'a>(corpus: &'a Corpus, id: &str) -> Option<&'a str> {
    corpus.source_of(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_csrc::KernelCorpus;

    #[test]
    fn finds_all_flagship_handlers() {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        // One handler per blueprint (38 drivers + 10 sockets).
        assert_eq!(handlers.len(), kc.blueprints().len());
        let drivers = handlers
            .iter()
            .filter(|h| h.kind == HandlerKind::Driver)
            .count();
        assert_eq!(drivers, 38);
    }

    #[test]
    fn dm_handler_shape() {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        let dm = handlers
            .iter()
            .find(|h| h.ops_var == "_dm_fops")
            .expect("dm fops");
        assert_eq!(dm.kind, HandlerKind::Driver);
        assert_eq!(dm.ioctl_fn.as_deref(), Some("dm_ctl_ioctl"));
        assert_eq!(dm.open_fn.as_deref(), Some("dm_open"));
        // Usage includes the miscdevice registration with the nodename.
        assert!(dm.usage.iter().any(|u| u.contains("nodename")));
    }

    #[test]
    fn socket_handler_shape() {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        let rds = handlers
            .iter()
            .find(|h| h.ops_var == "rds_proto_ops")
            .expect("rds proto_ops");
        assert_eq!(rds.kind, HandlerKind::Socket);
        assert_eq!(rds.setsockopt_fn.as_deref(), Some("rds_setsockopt"));
        // Usage includes the create function hooking sock->ops.
        assert!(rds.usage.iter().any(|u| u.contains("rds_create")));
    }

    /// A handler's usage list begins with exactly what the corpus finds
    /// for its ops variable alone (a socket's continues with its family
    /// registration) — the usages `find_handlers` looks up for every
    /// handler in one pass, pinned by digest in `kgpt-csrc`.
    fn usages_are_the_scans(kc: &KernelCorpus) -> usize {
        let handlers = find_handlers(kc.corpus());
        for h in &handlers {
            let scan = &kc.corpus().usages_of_all(&[h.ops_var.as_str()])[0];
            assert_eq!(h.usage[..scan.len()], scan[..], "{}", h.ops_var);
            if h.kind == HandlerKind::Driver {
                assert_eq!(h.usage.len(), scan.len(), "{}", h.ops_var);
            }
        }
        handlers.len()
    }

    #[test]
    fn flagship_usages_are_the_scans() {
        assert_eq!(usages_are_the_scans(&KernelCorpus::flagship_only()), 48);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "751 handlers: release builds only")]
    fn full_corpus_usages_are_the_scans() {
        assert_eq!(usages_are_the_scans(&KernelCorpus::full(1)), 751);
    }

    #[test]
    fn extract_code_reaches_all_namespaces() {
        let kc = KernelCorpus::flagship_only();
        let c = kc.corpus();
        assert!(extract_code(c, "dm_ctl_ioctl").is_some());
        assert!(extract_code(c, "dm_ioctl").is_some()); // struct
        assert!(extract_code(c, "DM_DEV_CREATE").is_some()); // macro
        assert!(extract_code(c, "no_such_symbol").is_none());
    }

    #[test]
    fn definition_text_available() {
        let kc = KernelCorpus::flagship_only();
        let handlers = find_handlers(kc.corpus());
        for h in handlers {
            let def = h.definition(kc.corpus()).expect("definition text");
            assert!(def.contains(&h.ops_var));
        }
    }
}
