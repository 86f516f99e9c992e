//! Tokenizer for the ASP input language subset.

use asp_core::AspError;
use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Lowercase-initial identifier (predicate or constant name).
    Ident(String),
    /// Uppercase- or underscore-initial identifier (variable).
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Double-quoted string constant (content without quotes, unescaped).
    Str(String),
    /// `#`-directive name, e.g. `show` for `#show`.
    Directive(String),
    /// `not` keyword.
    Not,
    /// `.`
    Dot,
    /// `..` (interval)
    DotDot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `|`
    Pipe,
    /// `:-`
    If,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` (also accepted as `==`)
    Eq,
    /// `!=`
    Neq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `\`
    Backslash,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Var(s) => write!(f, "variable `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::Directive(d) => write!(f, "directive `#{d}`"),
            Tok::Not => write!(f, "`not`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::If => write!(f, "`:-`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Neq => write!(f, "`!=`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Backslash => write!(f, "`\\`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its 1-based source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Tokenizes `src`, stripping `%` line comments. The result always ends with
/// an [`Tok::Eof`] token.
pub fn lex(src: &str) -> Result<Vec<Spanned>, AspError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! err {
        ($($arg:tt)*) => {
            return Err(AspError::Parse { message: format!($($arg)*), line, col })
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tl, tc) = (line, col);
        let mut push = |tok: Tok| out.push(Spanned { tok, line: tl, col: tc });
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '%' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '.' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'.' {
                    push(Tok::DotDot);
                    i += 2;
                    col += 2;
                } else {
                    push(Tok::Dot);
                    i += 1;
                    col += 1;
                }
            }
            ',' => {
                push(Tok::Comma);
                i += 1;
                col += 1;
            }
            ';' => {
                push(Tok::Semi);
                i += 1;
                col += 1;
            }
            '|' => {
                push(Tok::Pipe);
                i += 1;
                col += 1;
            }
            '(' => {
                push(Tok::LParen);
                i += 1;
                col += 1;
            }
            ')' => {
                push(Tok::RParen);
                i += 1;
                col += 1;
            }
            '{' => {
                push(Tok::LBrace);
                i += 1;
                col += 1;
            }
            '}' => {
                push(Tok::RBrace);
                i += 1;
                col += 1;
            }
            '+' => {
                push(Tok::Plus);
                i += 1;
                col += 1;
            }
            '-' => {
                push(Tok::Minus);
                i += 1;
                col += 1;
            }
            '*' => {
                push(Tok::Star);
                i += 1;
                col += 1;
            }
            '/' => {
                push(Tok::Slash);
                i += 1;
                col += 1;
            }
            '\\' => {
                push(Tok::Backslash);
                i += 1;
                col += 1;
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    push(Tok::If);
                    i += 2;
                    col += 2;
                } else {
                    err!("expected `:-`, found lone `:`");
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push(Tok::Le);
                    i += 2;
                    col += 2;
                } else {
                    push(Tok::Lt);
                    i += 1;
                    col += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push(Tok::Ge);
                    i += 2;
                    col += 2;
                } else {
                    push(Tok::Gt);
                    i += 1;
                    col += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push(Tok::Eq);
                    i += 2;
                    col += 2;
                } else {
                    push(Tok::Eq);
                    i += 1;
                    col += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push(Tok::Neq);
                    i += 2;
                    col += 2;
                } else {
                    err!("expected `!=`, found lone `!`");
                }
            }
            '#' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && (bytes[end] as char).is_ascii_alphanumeric() {
                    end += 1;
                }
                if end == start {
                    err!("expected directive name after `#`");
                }
                let name = src[start..end].to_string();
                if matches!(name.as_str(), "count" | "sum" | "min" | "max") {
                    err!("aggregates (#{name}) are not supported");
                }
                let len = (end - i) as u32;
                push(Tok::Directive(name));
                i = end;
                col += len;
            }
            '"' => {
                let mut s = String::new();
                let mut j = i + 1;
                let mut advance = 1u32;
                loop {
                    if j >= bytes.len() {
                        err!("unterminated string literal");
                    }
                    match bytes[j] as char {
                        '"' => {
                            j += 1;
                            advance += 1;
                            break;
                        }
                        '\\' => {
                            if j + 1 >= bytes.len() {
                                err!("unterminated escape in string literal");
                            }
                            let esc = bytes[j + 1] as char;
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                '\\' => '\\',
                                '"' => '"',
                                other => err!("unknown escape `\\{other}` in string"),
                            });
                            j += 2;
                            advance += 2;
                        }
                        '\n' => err!("newline inside string literal"),
                        other => {
                            s.push(other);
                            j += 1;
                            advance += 1;
                        }
                    }
                }
                push(Tok::Str(s));
                i = j;
                col += advance;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                col += text.len() as u32;
                match text.parse::<i64>() {
                    Ok(v) => push(Tok::Int(v)),
                    Err(_) => err!("integer literal `{text}` out of range"),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                col += text.len() as u32;
                if text == "not" {
                    push(Tok::Not);
                } else if text.starts_with(|ch: char| ch.is_ascii_uppercase() || ch == '_') {
                    push(Tok::Var(text.to_string()));
                } else {
                    push(Tok::Ident(text.to_string()));
                }
            }
            other => err!("unexpected character `{other}`"),
        }
    }
    out.push(Spanned { tok: Tok::Eof, line, col });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_paper_rule() {
        let t = toks("very_slow_speed(X) :- average_speed(X,Y), Y<20.");
        assert_eq!(
            t,
            vec![
                Tok::Ident("very_slow_speed".into()),
                Tok::LParen,
                Tok::Var("X".into()),
                Tok::RParen,
                Tok::If,
                Tok::Ident("average_speed".into()),
                Tok::LParen,
                Tok::Var("X".into()),
                Tok::Comma,
                Tok::Var("Y".into()),
                Tok::RParen,
                Tok::Comma,
                Tok::Var("Y".into()),
                Tok::Lt,
                Tok::Int(20),
                Tok::Dot,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_stripped() {
        let t = toks("p. % a comment with :- tokens\nq.");
        assert_eq!(
            t,
            vec![Tok::Ident("p".into()), Tok::Dot, Tok::Ident("q".into()), Tok::Dot, Tok::Eof]
        );
    }

    #[test]
    fn variables_vs_constants() {
        let t = toks("x X _x foo Foo");
        assert_eq!(
            t,
            vec![
                Tok::Ident("x".into()),
                Tok::Var("X".into()),
                Tok::Var("_x".into()),
                Tok::Ident("foo".into()),
                Tok::Var("Foo".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn not_is_a_keyword() {
        assert_eq!(toks("not nota"), vec![Tok::Not, Tok::Ident("nota".into()), Tok::Eof]);
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            toks(r#""http://ex.org/a" "a\"b""#),
            vec![Tok::Str("http://ex.org/a".into()), Tok::Str("a\"b".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators_and_directives() {
        assert_eq!(
            toks("#show p/1. X <= Y != 3"),
            vec![
                Tok::Directive("show".into()),
                Tok::Ident("p".into()),
                Tok::Slash,
                Tok::Int(1),
                Tok::Dot,
                Tok::Var("X".into()),
                Tok::Le,
                Tok::Var("Y".into()),
                Tok::Neq,
                Tok::Int(3),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn error_positions_are_one_based() {
        let err = lex("p :\nq").unwrap_err();
        match err {
            AspError::Parse { line, col, .. } => {
                assert_eq!((line, col), (1, 3));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = lex("ok.\n  $").unwrap_err();
        match err {
            AspError::Parse { line, col, .. } => assert_eq!((line, col), (2, 3)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"ab\nc\"").is_err());
    }
}
