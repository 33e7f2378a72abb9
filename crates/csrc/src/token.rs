//! Lexer for the kernel-C subset.
//!
//! Preprocessor lines (`#define`, `#include`, …) are captured whole as
//! [`CTok::Directive`] tokens; comments (`//` and `/* */`) are skipped.
//!
//! **Tokens borrow.** An identifier, a directive and a string literal
//! are slices of the source text ([`CTok`] is `Copy`); the lexer
//! allocates nothing but the token vector. A slice becomes a `String`
//! only where the parser puts it in an AST node — a string literal is
//! held raw (escapes intact) and [`unescape`]d at that point.
//! Punctuation is a [`Punct`] discriminant, compared as an integer and
//! spelled through [`Punct::as_str`] where the AST or an error message
//! wants the text.

use std::fmt;

/// An operator or punctuation mark (multi-char operators are one mark,
/// e.g. `->`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are their spelling, see `as_str`
pub enum Punct {
    ShlAssign,
    ShrAssign,
    Ellipsis,
    Arrow,
    Shl,
    Shr,
    Le,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
    RemAssign,
    AndAssign,
    OrAssign,
    XorAssign,
    Inc,
    Dec,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Assign,
    Lt,
    Gt,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Question,
    Colon,
}

impl Punct {
    /// The mark as written in C.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Punct::ShlAssign => "<<=",
            Punct::ShrAssign => ">>=",
            Punct::Ellipsis => "...",
            Punct::Arrow => "->",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::Le => "<=",
            Punct::Ge => ">=",
            Punct::EqEq => "==",
            Punct::Ne => "!=",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
            Punct::AddAssign => "+=",
            Punct::SubAssign => "-=",
            Punct::MulAssign => "*=",
            Punct::DivAssign => "/=",
            Punct::RemAssign => "%=",
            Punct::AndAssign => "&=",
            Punct::OrAssign => "|=",
            Punct::XorAssign => "^=",
            Punct::Inc => "++",
            Punct::Dec => "--",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::Semi => ";",
            Punct::Comma => ",",
            Punct::Dot => ".",
            Punct::Assign => "=",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Amp => "&",
            Punct::Pipe => "|",
            Punct::Caret => "^",
            Punct::Tilde => "~",
            Punct::Bang => "!",
            Punct::Question => "?",
            Punct::Colon => ":",
        }
    }

    /// The longest mark `bytes` starts with, and its length.
    fn lex(bytes: &[u8]) -> Option<(Punct, usize)> {
        use Punct::*;
        let at = |n: usize| bytes.get(n).copied().unwrap_or(0);
        let (b1, b2) = (at(1), at(2));
        // `one` alone, or `two` when followed by `=`.
        let or_assign = |one, two| if b1 == b'=' { (two, 2) } else { (one, 1) };
        // The same for a doubled `<` or `>`.
        let shift = |one, two| if b2 == b'=' { (two, 3) } else { (one, 2) };
        Some(match at(0) {
            b'<' if b1 == b'<' => shift(Shl, ShlAssign),
            b'>' if b1 == b'>' => shift(Shr, ShrAssign),
            b'<' => or_assign(Lt, Le),
            b'>' => or_assign(Gt, Ge),
            b'.' if b1 == b'.' && b2 == b'.' => (Ellipsis, 3),
            b'.' => (Dot, 1),
            b'-' if b1 == b'>' => (Arrow, 2),
            b'-' if b1 == b'-' => (Dec, 2),
            b'-' => or_assign(Minus, SubAssign),
            b'+' if b1 == b'+' => (Inc, 2),
            b'+' => or_assign(Plus, AddAssign),
            b'&' if b1 == b'&' => (AndAnd, 2),
            b'&' => or_assign(Amp, AndAssign),
            b'|' if b1 == b'|' => (OrOr, 2),
            b'|' => or_assign(Pipe, OrAssign),
            b'=' => or_assign(Assign, EqEq),
            b'!' => or_assign(Bang, Ne),
            b'*' => or_assign(Star, MulAssign),
            b'/' => or_assign(Slash, DivAssign),
            b'%' => or_assign(Percent, RemAssign),
            b'^' => or_assign(Caret, XorAssign),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b'~' => (Tilde, 1),
            b'?' => (Question, 1),
            b':' => (Colon, 1),
            _ => return None,
        })
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A C token; text-carrying tokens are slices of the source.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CTok<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Integer literal (char literals are folded to their value).
    Num(u64),
    /// String literal as written between the quotes, escapes intact
    /// ([`unescape`] gives its value).
    Str(&'src str),
    /// Operator or punctuation.
    Punct(Punct),
    /// A whole preprocessor line, without the leading `#`, trimmed.
    Directive(&'src str),
}

/// Prints a token by its value — a string literal unescaped, a mark
/// as spelled — which is the form parse errors quote tokens in.
impl fmt::Debug for CTok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CTok::Ident(s) => f.debug_tuple("Ident").field(s).finish(),
            CTok::Num(n) => f.debug_tuple("Num").field(n).finish(),
            CTok::Str(s) => f.debug_tuple("Str").field(&unescape(s)).finish(),
            CTok::Punct(p) => f.debug_tuple("Punct").field(&p.as_str()).finish(),
            CTok::Directive(d) => f.debug_tuple("Directive").field(d).finish(),
        }
    }
}

impl fmt::Display for CTok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CTok::Ident(s) => write!(f, "`{s}`"),
            CTok::Num(n) => write!(f, "number {n}"),
            CTok::Str(s) => write!(f, "string {:?}", unescape(s)),
            CTok::Punct(p) => write!(f, "`{p}`"),
            CTok::Directive(d) => write!(f, "directive #{d}"),
        }
    }
}

/// Token plus source position (1-based line, byte offset of token start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CSpanned<'src> {
    /// The token.
    pub tok: CTok<'src>,
    /// 1-based source line.
    pub line: u32,
    /// Byte offset of the first character of this token.
    pub offset: usize,
    /// Byte offset one past the last character of this token.
    pub end: usize,
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CLexError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for CLexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CLexError {}

fn lex_err<T>(message: &str, line: u32) -> Result<T, CLexError> {
    Err(CLexError {
        message: message.into(),
        line,
    })
}

/// Bytes an identifier continues with.
const IDENT_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = (b as u8).is_ascii_alphanumeric() || b as u8 == b'_';
        b += 1;
    }
    t
};

/// Tokenize C source text.
///
/// # Errors
///
/// Returns [`CLexError`] on unterminated strings/comments or characters
/// outside the supported alphabet.
pub fn clex(src: &str) -> Result<Vec<CSpanned<'_>>, CLexError> {
    let bytes = src.as_bytes();
    // The flagship sources run from four to six bytes a token.
    let mut out = Vec::with_capacity(bytes.len() / 3);
    let mut line: u32 = 1;
    let mut i = 0usize;
    let mut at_line_start = true;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let tok = match b {
            b'\n' => {
                line += 1;
                i += 1;
                at_line_start = true;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                i += 1;
                while bytes.get(i).is_some_and(|&c| IDENT_BYTE[usize::from(c)]) {
                    i += 1;
                }
                // Identifier bytes are ASCII: both ends are char boundaries.
                CTok::Ident(&src[start..i])
            }
            b'0'..=b'9' => {
                let (n, next) = lex_c_number(bytes, i, line)?;
                i = next;
                CTok::Num(n)
            }
            b'#' if at_line_start => {
                i = line_end(bytes, i);
                // `#` and the newline are ASCII: char boundaries.
                CTok::Directive(src[start + 1..i].trim())
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i = line_end(bytes, i);
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return lex_err("unterminated block comment", line);
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                }
                i = j + 2;
                continue;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return lex_err("unterminated string literal", line);
                }
                i = j + 1;
                // Both quotes are ASCII: char boundaries, whatever
                // the escapes between them skipped over.
                CTok::Str(&src[start + 1..j])
            }
            b'\'' => {
                let (value, next) = lex_char(bytes, i, line)?;
                i = next;
                CTok::Num(value)
            }
            _ => {
                let Some((p, len)) = Punct::lex(&bytes[i..]) else {
                    return lex_err(&format!("unexpected character {:?}", b as char), line);
                };
                i += len;
                CTok::Punct(p)
            }
        };
        out.push(CSpanned {
            tok,
            line,
            offset: start,
            end: i,
        });
        at_line_start = false;
    }
    Ok(out)
}

/// Offset of the newline that ends the line `from` is on (or of the
/// end of input).
fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| from + n)
}

/// The value of a string literal's raw text.
#[must_use]
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn lex_char(bytes: &[u8], start: usize, line: u32) -> Result<(u64, usize), CLexError> {
    // start points at the opening quote.
    let mut i = start + 1;
    if i >= bytes.len() {
        return Err(CLexError {
            message: "unterminated char literal".into(),
            line,
        });
    }
    let value = if bytes[i] == b'\\' {
        i += 1;
        let v = match bytes.get(i) {
            Some(b'n') => b'\n',
            Some(b't') => b'\t',
            Some(b'0') => 0,
            Some(&c) => c,
            None => {
                return Err(CLexError {
                    message: "unterminated char literal".into(),
                    line,
                })
            }
        };
        i += 1;
        u64::from(v)
    } else {
        let v = u64::from(bytes[i]);
        i += 1;
        v
    };
    if bytes.get(i) != Some(&b'\'') {
        return Err(CLexError {
            message: "unterminated char literal".into(),
            line,
        });
    }
    Ok((value, i + 1))
}

fn lex_c_number(bytes: &[u8], start: usize, line: u32) -> Result<(u64, usize), CLexError> {
    let mut i = start;
    let (radix, digits_start) =
        if i + 1 < bytes.len() && bytes[i] == b'0' && (bytes[i + 1] | 0x20) == b'x' {
            (16u32, i + 2)
        } else {
            (10u32, i)
        };
    i = digits_start;
    let mut value: u64 = 0;
    let mut any = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let Some(d) = c.to_digit(radix) else { break };
        value = value
            .checked_mul(u64::from(radix))
            .and_then(|v| v.checked_add(u64::from(d)))
            .ok_or_else(|| CLexError {
                message: "integer literal overflows u64".into(),
                line,
            })?;
        any = true;
        i += 1;
    }
    if !any {
        return Err(CLexError {
            message: "malformed integer literal".into(),
            line,
        });
    }
    // Swallow integer suffixes (UL, ULL, u, l, …).
    while i < bytes.len() && matches!(bytes[i] | 0x20, b'u' | b'l') {
        i += 1;
    }
    Ok((value, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<CTok<'_>> {
        clex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_designated_initializer() {
        let t = toks(".unlocked_ioctl = dm_ctl_ioctl,");
        assert_eq!(
            t,
            vec![
                CTok::Punct(Punct::Dot),
                CTok::Ident("unlocked_ioctl"),
                CTok::Punct(Punct::Assign),
                CTok::Ident("dm_ctl_ioctl"),
                CTok::Punct(Punct::Comma),
            ]
        );
    }

    #[test]
    fn lexes_directive_whole_line() {
        let t = toks("#define DM_VERSION_CMD 0\nint x;");
        assert_eq!(t[0], CTok::Directive("define DM_VERSION_CMD 0"));
        assert_eq!(t[1], CTok::Ident("int"));
    }

    #[test]
    fn hash_mid_line_is_error() {
        assert!(clex("int x = #define").is_err());
    }

    #[test]
    fn skips_comments() {
        let t = toks("a /* hidden */ b // tail\nc");
        assert_eq!(
            t,
            vec![CTok::Ident("a"), CTok::Ident("b"), CTok::Ident("c")]
        );
    }

    #[test]
    fn char_literals_fold_to_values() {
        assert_eq!(toks("'x'"), vec![CTok::Num(120)]);
        assert_eq!(toks(r"'\n'"), vec![CTok::Num(10)]);
        assert_eq!(toks(r"'\0'"), vec![CTok::Num(0)]);
    }

    #[test]
    fn numbers_with_suffixes() {
        assert_eq!(toks("10UL"), vec![CTok::Num(10)]);
        assert_eq!(toks("0xffULL"), vec![CTok::Num(255)]);
    }

    #[test]
    fn every_mark_lexes_to_itself_longest_first() {
        use Punct::*;
        let all = [
            ShlAssign, ShrAssign, Ellipsis, Arrow, Shl, Shr, Le, Ge, EqEq, Ne, AndAnd, OrOr,
            AddAssign, SubAssign, MulAssign, DivAssign, RemAssign, AndAssign, OrAssign, XorAssign,
            Inc, Dec, LBrace, RBrace, LParen, RParen, LBracket, RBracket, Semi, Comma, Dot, Assign,
            Lt, Gt, Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Bang, Question,
            Colon,
        ];
        for p in all {
            assert_eq!(toks(p.as_str()), vec![CTok::Punct(p)], "{p}");
            // A mark is never split by what follows it.
            let followed = format!("{p} x");
            assert_eq!(toks(&followed), vec![CTok::Punct(p), CTok::Ident("x")]);
        }
        assert_eq!(
            toks("a->b << 2 >= c"),
            vec![
                CTok::Ident("a"),
                CTok::Punct(Arrow),
                CTok::Ident("b"),
                CTok::Punct(Shl),
                CTok::Num(2),
                CTok::Punct(Ge),
                CTok::Ident("c"),
            ]
        );
        assert_eq!(toks(".."), vec![CTok::Punct(Dot), CTok::Punct(Dot)]);
        assert_eq!(
            toks("<<=="),
            vec![CTok::Punct(ShlAssign), CTok::Punct(Assign)]
        );
    }

    #[test]
    fn string_tokens_stay_raw_until_unescaped() {
        assert_eq!(toks(r#""a\nb""#), vec![CTok::Str(r"a\nb")]);
        assert_eq!(unescape(r"a\nb"), "a\nb");
        // An escaped quote does not end the literal; an escape may
        // sit in front of a multi-byte character.
        assert_eq!(toks(r#""q\"é\é""#), vec![CTok::Str(r#"q\"é\é"#)]);
        assert_eq!(unescape(r#"q\"é\é"#), "q\"éé");
        assert_eq!(CTok::Str(r"a\nb").to_string(), r#"string "a\nb""#);
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(clex("/* never ends").is_err());
    }

    #[test]
    fn non_ascii_outside_literals_is_an_error_not_a_panic() {
        let e = clex("int é;").unwrap_err();
        assert_eq!(e.message, "unexpected character 'Ã'");
        assert!(clex("'é'").is_err());
        assert!(clex("'\\é").is_err());
        assert!(clex("\"\\").is_err());
    }

    #[test]
    fn offsets_track_bytes() {
        let spanned = clex("ab cd").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 3);
        assert_eq!(spanned[1].end, 5);
    }
}
