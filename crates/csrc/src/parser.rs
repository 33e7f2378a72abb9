//! Recursive-descent parser for the kernel-C subset.
//!
//! Handles what synthetic Linux driver sources need: `#define` macros
//! (including function-like `_IOWR(...)` bodies), struct/union/enum
//! definitions with flexible array members, global variables with
//! designated initializers (`.unlocked_ioctl = dm_ctl_ioctl`), lookup
//! tables, and function bodies with `switch`/`if`/`for`/`while`
//! statements and the usual expression grammar.
//!
//! **Who owns what.** The parser borrows the source text, the file name
//! and the tokens (which are themselves slices of the source, see
//! [`crate::token`]); it advances by index and copies a slice into a
//! `String` exactly where an AST node takes it. The AST owns all of its
//! text — a [`CFile`] outlives the source it was parsed from.
//!
//! **The only state carried across top-level items is the set of
//! `typedef` names seen so far** (it decides whether an identifier can
//! start a type). [`cparse_chunk`] takes that set as an argument and
//! reports whether the parse ever looked past its last token, which is
//! what lets a caller parse a text piece by piece and know the pieces
//! add up to the parse of the whole.

use crate::ast::{
    CArraySize, CEnumDef, CField, CFile, CFunction, CItem, CItemKind, CStructDef, CType, CTypedef,
    CVarDef, CaseLabel, Expr, MacroDef, Stmt, SwitchCase,
};
use crate::token::{clex, unescape, CSpanned, CTok, Punct as P};
use kgpt_syzlang::stage::{self, Stage};
use std::cell::Cell;
use std::fmt;

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CParseError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// File name.
    pub file: String,
}

impl fmt::Display for CParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for CParseError {}

fn is_qualifier(id: &str) -> bool {
    matches!(
        id,
        "static"
            | "const"
            | "volatile"
            | "__user"
            | "__iomem"
            | "inline"
            | "extern"
            | "__init"
            | "__exit"
            | "noinline"
    )
}

/// Built-in and kernel scalar type names. Asked of every identifier
/// that could start a declaration, a cast or a call argument, so the
/// first byte picks the few spellings worth comparing.
fn is_type_keyword(id: &str) -> bool {
    match id.as_bytes().first() {
        Some(b'_') => matches!(
            id,
            "__u8"
                | "__u16"
                | "__u32"
                | "__u64"
                | "__s8"
                | "__s16"
                | "__s32"
                | "__s64"
                | "__le16"
                | "__le32"
                | "__le64"
                | "__be16"
                | "__be32"
                | "__be64"
                | "__poll_t"
        ),
        Some(b'u') => matches!(
            id,
            "u8" | "u16"
                | "u32"
                | "u64"
                | "uint"
                | "ulong"
                | "ushort"
                | "uchar"
                | "unsigned"
                | "uid_t"
                | "uintptr_t"
        ),
        Some(b's') => matches!(
            id,
            "s8" | "s16" | "s32" | "s64" | "short" | "signed" | "size_t" | "ssize_t"
        ),
        Some(b'i') => matches!(id, "int" | "intptr_t"),
        Some(b'l') => matches!(id, "long" | "loff_t"),
        Some(b'd') => matches!(id, "double" | "dev_t"),
        Some(b'p') => matches!(id, "poll_t" | "pid_t"),
        _ => matches!(id, "void" | "char" | "float" | "bool" | "off_t" | "gid_t"),
    }
}

fn is_stmt_keyword(id: &str) -> bool {
    matches!(
        id,
        "return"
            | "if"
            | "else"
            | "switch"
            | "case"
            | "default"
            | "while"
            | "for"
            | "break"
            | "continue"
    )
}

fn is_tag_keyword(id: &str) -> bool {
    matches!(id, "struct" | "union" | "enum")
}

/// Binding strength of a binary operator, loosest (`||`) = 0.
fn binary_level(p: P) -> Option<u8> {
    Some(match p {
        P::OrOr => 0,
        P::AndAnd => 1,
        P::Pipe => 2,
        P::Caret => 3,
        P::Amp => 4,
        P::EqEq | P::Ne => 5,
        P::Lt | P::Le | P::Gt | P::Ge => 6,
        P::Shl | P::Shr => 7,
        P::Plus | P::Minus => 8,
        P::Star | P::Slash | P::Percent => 9,
        _ => return None,
    })
}

/// The binary operator a compound assignment applies.
fn compound_op(p: P) -> Option<&'static str> {
    Some(match p {
        P::AddAssign => "+",
        P::SubAssign => "-",
        P::MulAssign => "*",
        P::DivAssign => "/",
        P::RemAssign => "%",
        P::AndAssign => "&",
        P::OrAssign => "|",
        P::XorAssign => "^",
        P::ShlAssign => "<<",
        P::ShrAssign => ">>",
        _ => return None,
    })
}

/// Parse a C translation unit.
///
/// # Errors
///
/// Returns [`CParseError`] on lexical or syntactic errors.
pub fn cparse(file_name: &str, src: &str) -> Result<CFile, CParseError> {
    cparse_chunk(file_name, src, &[]).map(|chunk| chunk.file)
}

/// A stretch of a larger text parsed on its own, see [`cparse_chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CChunk {
    /// The items of the stretch.
    pub file: CFile,
    /// Whether the parse never looked past its last token. The parser
    /// is deterministic in the tokens it observes, so a closed chunk
    /// parses to these same items, and leaves the parser between
    /// items, whatever text follows it.
    pub closed: bool,
}

/// Parse `src` as it would parse inside a larger text in which the
/// `typedefs` names were introduced before it.
///
/// Given a text cut into pieces none of which splits a token: if each
/// piece parses under the typedef names of the pieces before it, and
/// every piece but the last is [`closed`](CChunk::closed), the items of
/// the pieces in order are the items [`cparse`] gives for the whole.
///
/// # Errors
///
/// Returns [`CParseError`] on lexical or syntactic errors.
pub fn cparse_chunk(
    file_name: &str,
    src: &str,
    typedefs: &[String],
) -> Result<CChunk, CParseError> {
    let _span = stage::span(Stage::Parse);
    let mut p = CParser::new(file_name, src)?;
    p.typedefs.extend(typedefs.iter().map(String::as_str));
    let file = p.file()?;
    Ok(CChunk {
        file,
        closed: !p.saw_end.get(),
    })
}

struct CParser<'s> {
    toks: Vec<CSpanned<'s>>,
    pos: usize,
    file: &'s str,
    src: &'s str,
    /// Typedef names in scope: the caller's, then this text's own.
    typedefs: Vec<&'s str>,
    /// Set when a look-ahead found no token where it looked.
    saw_end: Cell<bool>,
    /// Statements and call arguments of the lists being parsed, the
    /// innermost list last: a finished list is drained off the end
    /// into a vector of exactly its size.
    stmts: Vec<Stmt>,
    args: Vec<Expr>,
}

impl<'s> CParser<'s> {
    fn new(file: &'s str, src: &'s str) -> Result<CParser<'s>, CParseError> {
        let toks = clex(src).map_err(|e| CParseError {
            message: e.message,
            line: e.line,
            file: file.to_string(),
        })?;
        Ok(CParser {
            toks,
            pos: 0,
            file,
            src,
            typedefs: Vec::new(),
            saw_end: Cell::new(false),
            stmts: Vec::new(),
            args: Vec::new(),
        })
    }

    fn peek(&self) -> Option<CTok<'s>> {
        self.peek_at(0)
    }

    fn peek_at(&self, n: usize) -> Option<CTok<'s>> {
        let tok = self.toks.get(self.pos + n).map(|s| s.tok);
        if tok.is_none() {
            self.saw_end.set(true);
        }
        tok
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |s| s.line)
    }

    fn bump(&mut self) -> Option<CTok<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CParseError> {
        Err(CParseError {
            message: msg.into(),
            line: self.line(),
            file: self.file.to_string(),
        })
    }

    /// "expected {what}, found {the next token}".
    fn expected<T>(&self, what: fmt::Arguments<'_>) -> Result<T, CParseError> {
        match self.peek() {
            Some(t) => self.err(format!("expected {what}, found {t}")),
            None => self.err(format!("expected {what}, found end of file")),
        }
    }

    fn eat_punct(&mut self, p: P) -> bool {
        let hit = self.is_punct(0, p);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect_punct(&mut self, p: P) -> Result<(), CParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.expected(format_args!("`{p}`"))
        }
    }

    fn ident(&mut self) -> Result<&'s str, CParseError> {
        match self.peek() {
            Some(CTok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.expected(format_args!("identifier")),
        }
    }

    fn peek_ident(&self) -> Option<&'s str> {
        match self.peek() {
            Some(CTok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn is_ident_at(&self, n: usize) -> bool {
        matches!(self.peek_at(n), Some(CTok::Ident(_)))
    }

    fn is_punct(&self, n: usize, p: P) -> bool {
        self.peek_at(n) == Some(CTok::Punct(p))
    }

    fn is_typedef(&self, id: &str) -> bool {
        self.typedefs.contains(&id)
    }

    // ---- top level -------------------------------------------------

    fn file(&mut self) -> Result<CFile, CParseError> {
        let mut items = Vec::new();
        while let Some(first) = self.toks.get(self.pos) {
            let start = first.offset;
            let kind = if let CTok::Directive(d) = first.tok {
                self.pos += 1;
                match parse_macro(d) {
                    Some(m) => CItemKind::Macro(m),
                    None => continue,
                }
            } else {
                self.top_item()?
            };
            let end = self.toks[self.pos - 1].end;
            items.push(CItem {
                kind,
                text: self.src[start..end].to_string(),
            });
        }
        items.shrink_to_fit();
        Ok(CFile {
            name: self.file.to_string(),
            items,
        })
    }

    fn top_item(&mut self) -> Result<CItemKind, CParseError> {
        // struct/union/enum *definitions* (tag followed by `{`).
        match self.peek_ident() {
            Some("typedef") => return self.typedef_item(),
            Some(kw @ ("struct" | "union"))
                if self.is_ident_at(1) && self.is_punct(2, P::LBrace) =>
            {
                self.pos += 1;
                let name = self.ident()?.to_string();
                let fields = self.struct_body()?;
                self.expect_punct(P::Semi)?;
                return Ok(CItemKind::Struct(CStructDef {
                    name,
                    is_union: kw == "union",
                    fields,
                }));
            }
            Some("enum")
                if self.is_ident_at(1) && self.is_punct(2, P::LBrace)
                    || self.is_punct(1, P::LBrace) =>
            {
                self.pos += 1;
                let name = match self.peek() {
                    Some(CTok::Ident(_)) => self.ident()?.to_string(),
                    _ => String::new(),
                };
                let variants = self.enum_body()?;
                self.expect_punct(P::Semi)?;
                return Ok(CItemKind::Enum(CEnumDef { name, variants }));
            }
            _ => {}
        }
        // Otherwise: [qualifiers] type declarator.
        let ty = self.parse_type()?;
        let name = self.ident()?.to_string();
        if self.is_punct(0, P::LParen) {
            self.function_item(ty, name)
        } else {
            self.var_item(ty, name)
        }
    }

    fn typedef_item(&mut self) -> Result<CItemKind, CParseError> {
        // Consume `typedef`, then scan to `;` remembering a plausible
        // introduced name: `(*name)` for fn-pointers, else the last
        // identifier before the terminator.
        self.pos += 1;
        let mut name: Option<&'s str> = None;
        let mut last_ident: Option<&'s str> = None;
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            self.pos += 1;
            match tok {
                CTok::Punct(P::Semi) if depth == 0 => break,
                CTok::Punct(P::LParen) => {
                    depth += 1;
                    // `(*name)` pattern.
                    if self.is_punct(0, P::Star) {
                        if let Some(CTok::Ident(n)) = self.peek_at(1) {
                            name = Some(n);
                        }
                    }
                }
                CTok::Punct(P::RParen) => depth = depth.saturating_sub(1),
                CTok::Ident(s) => last_ident = Some(s),
                _ => {}
            }
        }
        let Some(name) = name.or(last_ident) else {
            return self.err("typedef with no name");
        };
        if !self.is_typedef(name) {
            self.typedefs.push(name);
        }
        Ok(CItemKind::Typedef(CTypedef {
            name: name.to_string(),
        }))
    }

    fn struct_body(&mut self) -> Result<Vec<CField>, CParseError> {
        self.expect_punct(P::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(P::RBrace) {
            let ty = self.parse_type()?;
            // Function-pointer member: `ret (*name)(params);`
            if self.eat_punct(P::LParen) {
                self.expect_punct(P::Star)?;
                let name = self.ident()?.to_string();
                self.expect_punct(P::RParen)?;
                self.skip_paren_group()?;
                self.expect_punct(P::Semi)?;
                fields.push(CField {
                    name,
                    ty: CType {
                        base: format!("fnptr:{}", ty.base),
                        ptr: 1,
                        array: None,
                    },
                });
                continue;
            }
            let name = self.ident()?.to_string();
            let array = self.opt_array()?;
            self.expect_punct(P::Semi)?;
            fields.push(CField {
                name,
                ty: CType { array, ..ty },
            });
        }
        fields.shrink_to_fit();
        Ok(fields)
    }

    fn enum_body(&mut self) -> Result<Vec<(String, Option<u64>)>, CParseError> {
        self.expect_punct(P::LBrace)?;
        let mut variants = Vec::new();
        while !self.eat_punct(P::RBrace) {
            let name = self.ident()?.to_string();
            let value = if self.eat_punct(P::Assign) {
                match self.parse_ternary()? {
                    Expr::Num(n) => Some(n),
                    // Non-literal enum values are rare in the corpus;
                    // represent them as "unknown" (None) so values()
                    // falls back to counting.
                    _ => None,
                }
            } else {
                None
            };
            variants.push((name, value));
            if !self.eat_punct(P::Comma) && !self.is_punct(0, P::RBrace) {
                return self.err("expected `,` or `}` in enum");
            }
        }
        variants.shrink_to_fit();
        Ok(variants)
    }

    fn skip_paren_group(&mut self) -> Result<(), CParseError> {
        self.expect_punct(P::LParen)?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(CTok::Punct(P::LParen)) => depth += 1,
                Some(CTok::Punct(P::RParen)) => depth -= 1,
                Some(_) => {}
                None => return self.err("unterminated parenthesis group"),
            }
        }
        Ok(())
    }

    fn function_item(&mut self, ret: CType, name: String) -> Result<CItemKind, CParseError> {
        self.expect_punct(P::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(P::RParen) {
            if self.peek_ident() == Some("void") && self.is_punct(1, P::RParen) {
                self.pos += 2;
            } else {
                loop {
                    if self.eat_punct(P::Ellipsis) {
                        params.push(("...".to_string(), CType::named("...")));
                    } else {
                        let ty = self.parse_type()?;
                        let pname = match self.peek() {
                            Some(CTok::Ident(_)) => self.ident()?.to_string(),
                            _ => format!("arg{}", params.len()),
                        };
                        let array = self.opt_array()?;
                        params.push((pname, CType { array, ..ty }));
                    }
                    if !self.eat_punct(P::Comma) {
                        break;
                    }
                }
                self.expect_punct(P::RParen)?;
            }
        }
        params.shrink_to_fit();
        let is_proto = self.eat_punct(P::Semi);
        let body = if is_proto { Vec::new() } else { self.block()? };
        Ok(CItemKind::Function(CFunction {
            name,
            ret,
            params,
            body,
            is_proto,
        }))
    }

    fn var_item(&mut self, ty: CType, name: String) -> Result<CItemKind, CParseError> {
        let array = self.opt_array()?;
        let init = self.opt_init()?;
        self.expect_punct(P::Semi)?;
        Ok(CItemKind::Var(CVarDef {
            name,
            ty: CType { array, ..ty },
            init,
        }))
    }

    /// `= expr`, if it is there.
    fn opt_init(&mut self) -> Result<Option<Expr>, CParseError> {
        if self.eat_punct(P::Assign) {
            Ok(Some(self.parse_assign()?))
        } else {
            Ok(None)
        }
    }

    fn opt_array(&mut self) -> Result<Option<CArraySize>, CParseError> {
        if !self.eat_punct(P::LBracket) {
            return Ok(None);
        }
        let size = match self.peek() {
            Some(CTok::Punct(P::RBracket)) => CArraySize::Flex,
            Some(CTok::Num(n)) => {
                self.pos += 1;
                CArraySize::Fixed(n)
            }
            Some(CTok::Ident(s)) => {
                self.pos += 1;
                CArraySize::Named(s.to_string())
            }
            other => return self.err(format!("unexpected array size {other:?}")),
        };
        self.expect_punct(P::RBracket)?;
        Ok(Some(size))
    }

    // ---- types -----------------------------------------------------

    /// Can `id` start a type other than by position?
    fn names_type(&self, id: &str) -> bool {
        is_type_keyword(id) || is_tag_keyword(id) || self.is_typedef(id)
    }

    fn at_type(&self) -> bool {
        self.peek_ident()
            .is_some_and(|id| is_qualifier(id) || self.names_type(id))
    }

    fn parse_type(&mut self) -> Result<CType, CParseError> {
        // The words of the base type, space-separated.
        let mut base = String::new();
        fn word(base: &mut String, w: &str) {
            if !base.is_empty() {
                base.push(' ');
            }
            base.push_str(w);
        }
        while let Some(id) = self.peek_ident() {
            if is_qualifier(id) {
                self.pos += 1;
            } else if is_tag_keyword(id) {
                self.pos += 1;
                let tag = self.ident()?;
                word(&mut base, id);
                word(&mut base, tag);
                break;
            } else if is_type_keyword(id) {
                self.pos += 1;
                word(&mut base, id);
                // multi-word types keep accumulating (unsigned long ...)
                if !matches!(id, "unsigned" | "signed" | "long" | "short") {
                    break;
                }
            } else if !base.is_empty() {
                break;
            } else if self.is_typedef(id) {
                self.pos += 1;
                word(&mut base, id);
                break;
            } else {
                // Unknown leading identifier used in type position
                // (custom typedef the parser has not seen). Accept it
                // only when followed by another identifier or `*`.
                if self.is_ident_at(1) || self.is_punct(1, P::Star) {
                    self.pos += 1;
                    word(&mut base, id);
                    break;
                }
                return self.err(format!("`{id}` does not start a type"));
            }
        }
        if base.is_empty() {
            return self.err("expected a type");
        }
        if let Some(canonical) = canonical_base(&base) {
            base.clear();
            base.push_str(canonical);
        }
        let mut ptr = 0u8;
        loop {
            if self.eat_punct(P::Star) {
                ptr += 1;
            } else if self.peek_ident().is_some_and(is_qualifier) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(CType {
            base,
            ptr,
            array: None,
        })
    }

    // ---- statements --------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CParseError> {
        self.expect_punct(P::LBrace)?;
        let from = self.stmts.len();
        while !self.eat_punct(P::RBrace) {
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        Ok(self.stmts.drain(from..).collect())
    }

    fn stmt(&mut self) -> Result<Stmt, CParseError> {
        if self.is_punct(0, P::LBrace) {
            return Ok(Stmt::Block(self.block()?));
        }
        match self.peek_ident() {
            Some("return") => {
                self.pos += 1;
                if self.eat_punct(P::Semi) {
                    return Ok(Stmt::Return(None));
                }
                let e = self.parse_assign()?;
                self.expect_punct(P::Semi)?;
                return Ok(Stmt::Return(Some(e)));
            }
            Some("break") => {
                self.pos += 1;
                self.expect_punct(P::Semi)?;
                return Ok(Stmt::Break);
            }
            Some("continue") => {
                self.pos += 1;
                self.expect_punct(P::Semi)?;
                return Ok(Stmt::Continue);
            }
            Some("if") => return self.if_stmt(),
            Some("switch") => return self.switch_stmt(),
            Some("while") => {
                self.pos += 1;
                self.expect_punct(P::LParen)?;
                let cond = self.parse_assign()?;
                self.expect_punct(P::RParen)?;
                let body = self.stmt_as_block()?;
                return Ok(Stmt::While { cond, body });
            }
            Some("for") => return self.for_stmt(),
            _ => {}
        }
        if self.at_decl() {
            return self.decl_stmt();
        }
        let e = self.parse_assign()?;
        self.expect_punct(P::Semi)?;
        Ok(Stmt::Expr(e))
    }

    fn at_decl(&self) -> bool {
        match self.peek_ident() {
            Some(id) if is_stmt_keyword(id) => false,
            Some(_) if self.at_type() => true,
            Some(_) => {
                // `ident ident` or `ident * ident ;/=` are declarations.
                self.is_ident_at(1)
                    || (self.is_punct(1, P::Star)
                        && self.is_ident_at(2)
                        && (self.is_punct(3, P::Semi) || self.is_punct(3, P::Assign)))
            }
            None => false,
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, CParseError> {
        let ty = self.parse_type()?;
        let name = self.ident()?.to_string();
        let array = self.opt_array()?;
        let init = self.opt_init()?;
        self.expect_punct(P::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty: CType { array, ..ty },
            init,
        })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, CParseError> {
        if self.is_punct(0, P::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, CParseError> {
        self.pos += 1; // `if`
        self.expect_punct(P::LParen)?;
        let cond = self.parse_assign()?;
        self.expect_punct(P::RParen)?;
        let then = self.stmt_as_block()?;
        let els = if self.peek_ident() == Some("else") {
            self.pos += 1;
            self.stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then, els })
    }

    fn for_stmt(&mut self) -> Result<Stmt, CParseError> {
        self.pos += 1; // `for`
        self.expect_punct(P::LParen)?;
        let init = if self.eat_punct(P::Semi) {
            None
        } else if self.at_decl() {
            Some(Box::new(self.decl_stmt()?))
        } else {
            let e = self.parse_assign()?;
            self.expect_punct(P::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.is_punct(0, P::Semi) {
            None
        } else {
            Some(self.parse_assign()?)
        };
        self.expect_punct(P::Semi)?;
        let step = if self.is_punct(0, P::RParen) {
            None
        } else {
            Some(self.parse_assign()?)
        };
        self.expect_punct(P::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn switch_stmt(&mut self) -> Result<Stmt, CParseError> {
        self.pos += 1; // `switch`
        self.expect_punct(P::LParen)?;
        let cond = self.parse_assign()?;
        self.expect_punct(P::RParen)?;
        self.expect_punct(P::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        while !self.eat_punct(P::RBrace) {
            let mut labels = Vec::new();
            loop {
                match self.peek_ident() {
                    Some("case") => {
                        self.pos += 1;
                        let e = self.parse_ternary()?;
                        self.expect_punct(P::Colon)?;
                        labels.push(CaseLabel::Expr(e));
                    }
                    Some("default") => {
                        self.pos += 1;
                        self.expect_punct(P::Colon)?;
                        labels.push(CaseLabel::Default);
                    }
                    _ => break,
                }
            }
            if labels.is_empty() {
                return self.err("expected `case` or `default` in switch");
            }
            let from = self.stmts.len();
            loop {
                if matches!(self.peek_ident(), Some("case" | "default")) {
                    break;
                }
                if self.is_punct(0, P::RBrace) {
                    break;
                }
                let stmt = self.stmt()?;
                self.stmts.push(stmt);
            }
            labels.shrink_to_fit();
            let body = self.stmts.drain(from..).collect();
            cases.push(SwitchCase { labels, body });
        }
        cases.shrink_to_fit();
        Ok(Stmt::Switch { cond, cases })
    }

    // ---- expressions -------------------------------------------------

    fn parse_assign(&mut self) -> Result<Expr, CParseError> {
        let lhs = self.parse_ternary()?;
        let Some(CTok::Punct(p)) = self.peek() else {
            return Ok(lhs);
        };
        if p == P::Assign {
            self.pos += 1;
            let rhs = self.parse_assign()?;
            return Ok(Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        let Some(op) = compound_op(p) else {
            return Ok(lhs);
        };
        self.pos += 1;
        let rhs = self.parse_assign()?;
        Ok(Expr::Assign {
            lhs: Box::new(lhs.clone()),
            rhs: Box::new(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }),
        })
    }

    fn parse_ternary(&mut self) -> Result<Expr, CParseError> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(P::Question) {
            let then = self.parse_assign()?;
            self.expect_punct(P::Colon)?;
            let els = self.parse_ternary()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        Ok(cond)
    }

    /// A chain of binary operators binding at least as tightly as
    /// `min` (see [`binary_level`]), left-associative at every level.
    fn parse_binary(&mut self, min: u8) -> Result<Expr, CParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some(CTok::Punct(p)) = self.peek() {
            let Some(level) = binary_level(p).filter(|l| *l >= min) else {
                break;
            };
            self.pos += 1;
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::Binary {
                op: p.as_str(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn looks_like_cast(&self) -> bool {
        // `(` followed by a type keyword / struct / typedef.
        self.is_punct(0, P::LParen)
            && matches!(self.peek_at(1), Some(CTok::Ident(id)) if self.names_type(id))
    }

    fn parse_unary(&mut self) -> Result<Expr, CParseError> {
        if let Some(CTok::Punct(p)) = self.peek() {
            let op = match p {
                P::Minus | P::Bang | P::Tilde | P::Star | P::Amp => Some(p.as_str()),
                // Either way the operand is stepped; analyses only
                // care that it is written to.
                P::Inc | P::Dec => Some("++"),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                let e = self.parse_unary()?;
                return Ok(Expr::Unary {
                    op,
                    expr: Box::new(e),
                });
            }
        }
        if self.peek_ident() == Some("sizeof") {
            self.pos += 1;
            if self.looks_like_cast() {
                self.pos += 1;
                let ty = self.parse_type()?;
                self.expect_punct(P::RParen)?;
                return Ok(Expr::SizeofType(ty));
            }
            let e = self.parse_unary()?;
            return Ok(Expr::SizeofExpr(Box::new(e)));
        }
        if self.looks_like_cast() {
            self.pos += 1;
            let ty = self.parse_type()?;
            self.expect_punct(P::RParen)?;
            let e = self.parse_unary()?;
            return Ok(Expr::Cast {
                ty,
                expr: Box::new(e),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, CParseError> {
        let mut e = self.parse_primary()?;
        while let Some(CTok::Punct(p)) = self.peek() {
            match p {
                P::LParen => {
                    let func = match e {
                        Expr::Ident(n) => n,
                        Expr::Member { field, .. } => format!("<indirect>{field}"),
                        _ => "<indirect>".to_string(),
                    };
                    self.pos += 1;
                    let from = self.args.len();
                    if !self.eat_punct(P::RParen) {
                        loop {
                            let arg = self.call_arg()?;
                            self.args.push(arg);
                            if !self.eat_punct(P::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(P::RParen)?;
                    }
                    let args = self.args.drain(from..).collect();
                    e = Expr::Call { func, args };
                }
                P::Dot | P::Arrow => {
                    self.pos += 1;
                    let field = self.ident()?.to_string();
                    e = Expr::Member {
                        base: Box::new(e),
                        field,
                        arrow: p == P::Arrow,
                    };
                }
                P::LBracket => {
                    self.pos += 1;
                    let index = self.parse_assign()?;
                    self.expect_punct(P::RBracket)?;
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    };
                }
                P::Inc | P::Dec => {
                    self.pos += 1;
                    e = Expr::Unary {
                        op: "p++",
                        expr: Box::new(e),
                    };
                }
                _ => break,
            }
        }
        // String/macro concatenation chains: `DM_DIR "/" DM_CONTROL_NODE`.
        // Only a string literal can start one; after it, literals and
        // ALL_CAPS macro names continue it.
        if matches!(e, Expr::Str(_) | Expr::Ident(_)) && matches!(self.peek(), Some(CTok::Str(_))) {
            let mut chain = vec![e];
            loop {
                match self.peek() {
                    Some(CTok::Str(s)) => chain.push(Expr::Str(unescape(s))),
                    Some(CTok::Ident(id))
                        if id.chars().all(|c| c.is_ascii_uppercase() || c == '_') =>
                    {
                        chain.push(Expr::Ident(id.to_string()));
                    }
                    _ => break,
                }
                self.pos += 1;
            }
            e = Expr::Call {
                func: "__concat".into(),
                args: chain,
            };
        }
        Ok(e)
    }

    /// One call argument. `_IOWR('f', 0, struct dm_ioctl)`-style macros
    /// take *types* as arguments; a bare type in argument position is
    /// represented as `SizeofType` (the macro uses its size, and the
    /// analyzers recover the struct name from it).
    fn call_arg(&mut self) -> Result<Expr, CParseError> {
        let type_arg = match self.peek_ident() {
            Some("struct" | "union") => self.is_ident_at(1),
            Some(id) if is_type_keyword(id) => {
                self.is_punct(1, P::Comma)
                    || self.is_punct(1, P::RParen)
                    || self.is_punct(1, P::Star)
            }
            _ => false,
        };
        if type_arg {
            let ty = self.parse_type()?;
            return Ok(Expr::SizeofType(ty));
        }
        self.parse_assign()
    }

    fn parse_primary(&mut self) -> Result<Expr, CParseError> {
        let e = match self.peek() {
            Some(CTok::Num(n)) => Expr::Num(n),
            Some(CTok::Str(s)) => Expr::Str(unescape(s)),
            Some(CTok::Ident(s)) => Expr::Ident(s.to_string()),
            Some(CTok::Punct(P::LParen)) => {
                self.pos += 1;
                let e = self.parse_assign()?;
                self.expect_punct(P::RParen)?;
                return Ok(e);
            }
            Some(CTok::Punct(P::LBrace)) => return self.init_list(),
            Some(t) => return self.err(format!("unexpected {t} in expression")),
            None => return self.err("unexpected end of file in expression"),
        };
        self.pos += 1;
        Ok(e)
    }

    fn init_list(&mut self) -> Result<Expr, CParseError> {
        self.expect_punct(P::LBrace)?;
        let mut entries = Vec::new();
        while !self.eat_punct(P::RBrace) {
            if self.is_punct(0, P::Dot) && self.is_ident_at(1) {
                self.pos += 1;
                let field = self.ident()?.to_string();
                self.expect_punct(P::Assign)?;
                let value = self.parse_assign()?;
                entries.push((Some(field), value));
            } else {
                let value = self.parse_assign()?;
                entries.push((None, value));
            }
            if !self.eat_punct(P::Comma) && !self.is_punct(0, P::RBrace) {
                return self.err("expected `,` or `}` in initializer");
            }
        }
        entries.shrink_to_fit();
        Ok(Expr::InitList { entries })
    }
}

/// Parse a standalone C expression (used for `#define` macro bodies).
///
/// # Errors
///
/// Returns [`CParseError`] if the text is not a single valid expression.
pub fn parse_expr_str(src: &str) -> Result<Expr, CParseError> {
    let mut p = CParser::new("<expr>", src)?;
    let e = p.parse_assign()?;
    if p.pos != p.toks.len() {
        return p.err("trailing tokens after expression");
    }
    Ok(e)
}

/// The short spelling of a multi-word base type, if it has one.
fn canonical_base(words: &str) -> Option<&'static str> {
    Some(match words {
        "unsigned" | "unsigned int" => "uint",
        "unsigned long" | "unsigned long long" => "ulong",
        "unsigned short" => "ushort",
        "unsigned char" => "uchar",
        "signed int" | "signed" => "int",
        "long long" => "long",
        _ => return None,
    })
}

fn parse_macro(directive: &str) -> Option<MacroDef> {
    let rest = directive.strip_prefix("define")?.trim_start();
    let name_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    let name = rest[..name_end].to_string();
    if name.is_empty() {
        return None;
    }
    let after = &rest[name_end..];
    if let Some(stripped) = after.strip_prefix('(') {
        let close = stripped.find(')')?;
        let params: Vec<String> = stripped[..close]
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        Some(MacroDef {
            name,
            params: Some(params),
            body: stripped[close + 1..].trim().to_string(),
        })
    } else {
        Some(MacroDef {
            name,
            params: None,
            body: after.trim().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> CFile {
        cparse("test.c", src).unwrap()
    }

    #[test]
    fn parses_file_operations_initializer() {
        let f = parse_ok(
            r#"
static const struct file_operations _ctl_fops = {
    .open = dm_open,
    .unlocked_ioctl = dm_ctl_ioctl,
    .compat_ioctl = dm_compat_ctl_ioctl,
};
"#,
        );
        let CItemKind::Var(v) = &f.items[0].kind else {
            panic!("expected var")
        };
        assert_eq!(v.name, "_ctl_fops");
        assert_eq!(v.ty.base, "struct file_operations");
        let init = v.init.as_ref().unwrap();
        assert_eq!(
            init.init_field("unlocked_ioctl").and_then(Expr::as_ident),
            Some("dm_ctl_ioctl")
        );
        assert!(f.items[0].text.contains(".open = dm_open"));
    }

    #[test]
    fn parses_miscdevice_with_concat_nodename() {
        let f = parse_ok(
            r#"
#define DM_DIR "mapper"
static struct miscdevice _dm_misc = {
    .minor = 252,
    .name = "device-mapper",
    .nodename = DM_DIR "/" "control",
    .fops = &_ctl_fops,
};
"#,
        );
        let CItemKind::Var(v) = &f.items[1].kind else {
            panic!("expected var")
        };
        let init = v.init.as_ref().unwrap();
        let node = init.init_field("nodename").unwrap();
        match node {
            Expr::Call { func, args } => {
                assert_eq!(func, "__concat");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected concat, got {other:?}"),
        }
        assert_eq!(
            init.init_field("fops").and_then(Expr::as_ident),
            Some("_ctl_fops")
        );
    }

    #[test]
    fn parses_switch_dispatch() {
        let f = parse_ok(
            r#"
static long vid_ioctl(struct file *file, unsigned int cmd, unsigned long arg) {
    switch (cmd) {
    case 0x1234:
        return do_a(arg);
    case VID_SET:
    case VID_GET:
        return do_b(arg);
    default:
        return -25;
    }
}
"#,
        );
        let CItemKind::Function(func) = &f.items[0].kind else {
            panic!("expected function")
        };
        assert_eq!(func.name, "vid_ioctl");
        assert_eq!(func.params.len(), 3);
        assert_eq!(func.params[1].1.base, "uint");
        let Stmt::Switch { cases, .. } = &func.body[0] else {
            panic!("expected switch")
        };
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[1].labels.len(), 2);
    }

    #[test]
    fn parses_ioc_macros() {
        let f = parse_ok(
            "#define DM_VERSION _IOWR('f', 0, struct dm_ioctl)\n#define DM_DEV_CREATE _IOWR('f', 3, struct dm_ioctl)\n",
        );
        let CItemKind::Macro(m) = &f.items[0].kind else {
            panic!("expected macro")
        };
        assert_eq!(m.name, "DM_VERSION");
        assert!(m.params.is_none());
        assert!(m.body.contains("_IOWR"));
    }

    #[test]
    fn parses_function_like_macro() {
        let f = parse_ok("#define _IOC_NR(nr) ((nr) & 0xff)\n");
        let CItemKind::Macro(m) = &f.items[0].kind else {
            panic!("expected macro")
        };
        assert_eq!(m.params.as_deref(), Some(&["nr".to_string()][..]));
        assert_eq!(m.body, "((nr) & 0xff)");
    }

    #[test]
    fn parses_struct_with_flex_array() {
        let f = parse_ok(
            "struct vfio_pci_hot_reset_info {\n    __u32 count;\n    struct vfio_pci_dependent_device devices[];\n};\n",
        );
        let CItemKind::Struct(s) = &f.items[0].kind else {
            panic!("expected struct")
        };
        assert_eq!(s.fields[1].ty.array, Some(CArraySize::Flex));
        assert_eq!(s.fields[1].ty.base, "struct vfio_pci_dependent_device");
    }

    #[test]
    fn parses_lookup_table() {
        let f = parse_ok(
            r#"
typedef int (*ioctl_fn)(struct file *file, unsigned long arg);
struct dm_ioctl_entry {
    unsigned int cmd;
    ioctl_fn fn;
};
static struct dm_ioctl_entry _ioctls[] = {
    { 0, dm_version },
    { 3, dev_create },
};
"#,
        );
        let CItemKind::Var(v) = &f.items[2].kind else {
            panic!("expected var")
        };
        assert_eq!(v.ty.array, Some(CArraySize::Flex));
        let Expr::InitList { entries } = v.init.as_ref().unwrap() else {
            panic!("expected list")
        };
        assert_eq!(entries.len(), 2);
        let Expr::InitList { entries: row } = &entries[0].1 else {
            panic!("expected nested list")
        };
        assert_eq!(row[1].1.as_ident(), Some("dm_version"));
    }

    #[test]
    fn parses_cmd_transform_body() {
        let f = parse_ok(
            r#"
static int ctl_ioctl(struct file *file, uint command, ulong u) {
    uint cmd = _IOC_NR(command);
    if (cmd == 0)
        return 0;
    cmd = cmd & 0xff;
    return lookup_ioctl(cmd, (struct dm_ioctl *)u);
}
"#,
        );
        let CItemKind::Function(func) = &f.items[0].kind else {
            panic!("expected fn")
        };
        let Stmt::Decl { name, init, .. } = &func.body[0] else {
            panic!("expected decl")
        };
        assert_eq!(name, "cmd");
        assert!(matches!(init, Some(Expr::Call { func, .. }) if func == "_IOC_NR"));
        // Cast inside the call argument.
        let Stmt::Return(Some(Expr::Call { args, .. })) = &func.body[3] else {
            panic!("expected return call")
        };
        assert!(matches!(&args[1], Expr::Cast { ty, .. } if ty.base == "struct dm_ioctl"));
    }

    #[test]
    fn parses_copy_from_user_and_sizeof() {
        let f = parse_ok(
            r#"
static int handler(ulong arg) {
    struct hpet_info info;
    if (copy_from_user(&info, (void *)arg, sizeof(struct hpet_info)))
        return -14;
    for (int i = 0; i < 4; i++)
        consume(i);
    while (info.flags) {
        info.flags--;
    }
    return 0;
}
"#,
        );
        let CItemKind::Function(func) = &f.items[0].kind else {
            panic!("expected fn")
        };
        // decl, if, for, while, return
        assert_eq!(func.body.len(), 5);
    }

    #[test]
    fn parses_enum() {
        let f = parse_ok("enum vid_cmds { VID_A = 5, VID_B, VID_C = 9 };\n");
        let CItemKind::Enum(e) = &f.items[0].kind else {
            panic!("expected enum")
        };
        assert_eq!(
            e.values(),
            vec![
                ("VID_A".to_string(), 5),
                ("VID_B".to_string(), 6),
                ("VID_C".to_string(), 9)
            ]
        );
    }

    #[test]
    fn parses_ternary_and_compound_assign() {
        let f = parse_ok("static int f(int a) {\n    a += 2;\n    return a > 0 ? a : -a;\n}\n");
        let CItemKind::Function(func) = &f.items[0].kind else {
            panic!()
        };
        assert!(matches!(&func.body[0], Stmt::Expr(Expr::Assign { .. })));
        assert!(matches!(
            &func.body[1],
            Stmt::Return(Some(Expr::Ternary { .. }))
        ));
    }

    #[test]
    fn prototype_parsed() {
        let f = parse_ok("long dm_ctl_ioctl(struct file *file, uint command, ulong u);\n");
        let CItemKind::Function(func) = &f.items[0].kind else {
            panic!()
        };
        assert!(func.is_proto);
    }

    #[test]
    fn item_text_is_exact_span() {
        let src = "int a = 1;\nint b = 2;\n";
        let f = parse_ok(src);
        assert_eq!(f.items[0].text, "int a = 1;");
        assert_eq!(f.items[1].text, "int b = 2;");
    }

    #[test]
    fn function_pointer_struct_member() {
        let f = parse_ok(
            "struct proto_ops {\n    int family;\n    int (*bind)(struct socket *sock, int len);\n};\n",
        );
        let CItemKind::Struct(s) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(s.fields[1].name, "bind");
        assert!(s.fields[1].ty.base.starts_with("fnptr:"));
    }

    #[test]
    fn a_chunk_parses_under_the_typedefs_before_it() {
        // The same text reads as a cast with `qid_t` in scope and does
        // not parse without it; `sizeof` reads it two ways.
        let scope = vec!["qid_t".to_string()];
        let cast = "static int v = (qid_t)3;";
        assert!(cparse("t.c", cast).is_err());
        let chunk = cparse_chunk("t.c", cast, &scope).unwrap();
        assert!(chunk.closed);
        let CItemKind::Var(v) = &chunk.file.items[0].kind else {
            panic!("expected var")
        };
        assert!(matches!(&v.init, Some(Expr::Cast { ty, .. }) if ty.base == "qid_t"));
        let size = "static int n = sizeof(qid_t);";
        let bare = cparse_chunk("t.c", size, &[]).unwrap();
        let scoped = cparse_chunk("t.c", size, &scope).unwrap();
        assert_ne!(bare, scoped);
        // Pieces parsed under the names the earlier ones introduce add
        // up to the parse of the whole.
        let pieces = ["typedef u32 qid_t;", cast, size];
        let whole = cparse("t.c", &pieces.join("\n\n")).unwrap();
        let mut items = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for piece in pieces {
            let chunk = cparse_chunk("t.c", piece, &names).unwrap();
            assert!(chunk.closed, "{piece}");
            for item in &chunk.file.items {
                if let CItemKind::Typedef(t) = &item.kind {
                    names.push(t.name.clone());
                }
            }
            items.extend(chunk.file.items);
        }
        assert_eq!(items, whole.items);
    }

    #[test]
    fn a_chunk_that_looked_past_its_end_is_not_closed() {
        // A typedef runs to the next `;` — which here is not its own.
        let open = cparse_chunk("t.c", "typedef int qid_t", &[]).unwrap();
        assert!(!open.closed);
        assert_eq!(open.file.items[0].name(), "qid_t");
        let whole = cparse("t.c", "typedef int qid_t\n\nint x;").unwrap();
        assert_eq!(whole.items.len(), 1);
        assert_eq!(whole.items[0].name(), "x");
        // Everything else either ends on its own terminator or fails.
        for src in [
            "int a = 1;",
            "#define A 1",
            "struct s { int a; };",
            "enum { A, B };",
            "typedef int (*fn_t)(int);",
            "static int f(int a) {\n\tswitch (a) {\n\tcase 1:\n\t\treturn g(a);\n\t}\n\treturn A \"x\";\n}",
            "int f(void);",
            "",
            "// nothing\n",
        ] {
            assert!(cparse_chunk("t.c", src, &[]).unwrap().closed, "{src}");
        }
        for src in [
            "int a = 1",
            "struct s { int a; }",
            "int f(void) {",
            "int f(",
            "x",
        ] {
            assert!(cparse_chunk("t.c", src, &[]).is_err(), "{src}");
        }
    }

    /// `cparse` and `clex` on `src`: an answer, whatever it is.
    fn survives(src: &str) {
        let _ = crate::token::clex(src);
        let _ = cparse("hostile.c", src);
    }

    #[test]
    fn the_front_end_is_total_over_flagship_prefixes_and_byte_flips() {
        // Every prefix of every top-level item, and of every file (in
        // a debug build, a stride of them: the work is quadratic), as
        // it is and with one byte flipped to another ASCII byte.
        let stride = if cfg!(debug_assertions) { 61 } else { 1 };
        let masks = [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x7f];
        let prefixes = |text: &str, stride: usize| {
            assert!(text.is_ascii());
            for cut in (0..=text.len()).step_by(stride) {
                let prefix = &text[..cut];
                survives(prefix);
                if cut > 0 {
                    let mut bytes = prefix.as_bytes().to_vec();
                    let at = (cut * 7919) % cut;
                    bytes[at] = (bytes[at] ^ masks[cut % masks.len()]) & 0x7f;
                    survives(std::str::from_utf8(&bytes).unwrap());
                }
            }
        };
        for bp in crate::flagship::all_flagships() {
            let src = crate::emit::emit_blueprint(&bp);
            prefixes(&src, stride);
            for item in &parse_ok(&src).items {
                prefixes(&item.text, 1);
            }
        }
    }

    #[test]
    fn the_front_end_is_total_over_non_ascii_text() {
        let src =
            "static int f(void) {\n\tchar *s = \"naïve \\é\";\n\treturn 'x' + g(s); /* ü */\n}\n";
        assert!(cparse("t.c", src).is_ok());
        for cut in (0..=src.len()).filter(|c| src.is_char_boundary(*c)) {
            survives(&src[..cut]);
            // A multi-byte character dropped anywhere.
            survives(&format!("{}é{}", &src[..cut], &src[cut..]));
            survives(&format!("{}'é{}", &src[..cut], &src[cut..]));
            survives(&format!("{}\\é{}", &src[..cut], &src[cut..]));
        }
    }
}
