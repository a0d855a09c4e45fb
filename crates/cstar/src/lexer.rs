//! Tokenizer for mini-C\*\*.

use std::fmt;

use crate::diag::{codes, Diagnostic, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (contains `.` or exponent).
    Float(f64),
    /// `#0`, `#1`, ... — position pseudo-variable.
    Pos(usize),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Pos(k) => write!(f, "#{k}"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus its source span (char offsets and line), for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Source region in char offsets.
    pub span: Span,
}

const PUNCTS: &[&str] = &[
    "..", "<=", ">=", "==", "!=", "(", ")", "[", "]", "{", "}", ",", ";", ":", "=", "+", "-", "*",
    "/", "%", "<", ">",
];

/// Tokenize `src`, reporting failures as `E001` diagnostics with spans.
/// Comments run from `//` to end of line.
pub fn lex_diag(src: &str) -> Result<Vec<SpannedTok>, Diagnostic> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let err = |msg: String, span: Span| Diagnostic::error(codes::LEX, msg).with_span(span);
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '#' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j == i + 1 {
                return Err(err("expected digit after '#'".into(), Span::point(i, line)));
            }
            let k: usize = bytes[i + 1..j]
                .iter()
                .collect::<String>()
                .parse()
                .map_err(|_| err("bad position index".into(), Span::new(i, j, line)))?;
            out.push(SpannedTok { tok: Tok::Pos(k), span: Span::new(i, j, line) });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i;
            let mut is_float = false;
            while j < bytes.len()
                && (bytes[j].is_ascii_digit()
                    || bytes[j] == '.'
                    || bytes[j] == 'e'
                    || bytes[j] == 'E'
                    || (is_float
                        && (bytes[j] == '+' || bytes[j] == '-')
                        && matches!(bytes[j - 1], 'e' | 'E')))
            {
                if bytes[j] == '.' {
                    // `..` is the range operator, not a float dot.
                    if j + 1 < bytes.len() && bytes[j + 1] == '.' {
                        break;
                    }
                    is_float = true;
                } else if bytes[j] == 'e' || bytes[j] == 'E' {
                    is_float = true;
                }
                j += 1;
            }
            let text: String = bytes[i..j].iter().collect();
            let span = Span::new(i, j, line);
            let tok = if is_float {
                Tok::Float(
                    text.parse().map_err(|_| err(format!("bad float literal `{text}`"), span))?,
                )
            } else {
                Tok::Int(text.parse().map_err(|_| err(format!("bad int literal `{text}`"), span))?)
            };
            out.push(SpannedTok { tok, span });
            i = j;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
                j += 1;
            }
            out.push(SpannedTok {
                tok: Tok::Ident(bytes[i..j].iter().collect()),
                span: Span::new(i, j, line),
            });
            i = j;
            continue;
        }
        let rest: String = bytes[i..bytes.len().min(i + 2)].iter().collect();
        let mut matched = false;
        for p in PUNCTS {
            if rest.starts_with(p) {
                out.push(SpannedTok { tok: Tok::Punct(p), span: Span::new(i, i + p.len(), line) });
                i += p.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(err(format!("unexpected character `{c}`"), Span::point(i, line)));
        }
    }
    out.push(SpannedTok { tok: Tok::Eof, span: Span::point(bytes.len(), line) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex_diag(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_keywords() {
        assert_eq!(
            toks("aggregate Grid of float"),
            vec![
                Tok::Ident("aggregate".into()),
                Tok::Ident("Grid".into()),
                Tok::Ident("of".into()),
                Tok::Ident("float".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("0.25"), vec![Tok::Float(0.25), Tok::Eof]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
    }

    #[test]
    fn range_vs_float_dot() {
        assert_eq!(toks("0 .. 100"), vec![Tok::Int(0), Tok::Punct(".."), Tok::Int(100), Tok::Eof]);
        assert_eq!(toks("0..100"), vec![Tok::Int(0), Tok::Punct(".."), Tok::Int(100), Tok::Eof]);
    }

    #[test]
    fn position_pseudovars() {
        assert_eq!(
            toks("g[#0-1][#1]"),
            vec![
                Tok::Ident("g".into()),
                Tok::Punct("["),
                Tok::Pos(0),
                Tok::Punct("-"),
                Tok::Int(1),
                Tok::Punct("]"),
                Tok::Punct("["),
                Tok::Pos(1),
                Tok::Punct("]"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment\n b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn two_char_ops() {
        assert_eq!(
            toks("a <= b != c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<="),
                Tok::Ident("b".into()),
                Tok::Punct("!="),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn error_on_garbage() {
        assert!(lex_diag("a $ b").is_err());
        assert!(lex_diag("#x").is_err());
    }

    #[test]
    fn spans_cover_tokens() {
        let ts = lex_diag("ab + #12").unwrap();
        assert_eq!((ts[0].span.lo, ts[0].span.hi), (0, 2));
        assert_eq!((ts[1].span.lo, ts[1].span.hi), (3, 4));
        assert_eq!((ts[2].span.lo, ts[2].span.hi), (5, 8));
    }

    #[test]
    fn lex_diag_spans_errors() {
        let d = lex_diag("a\n $").unwrap_err();
        assert_eq!(d.code, "E001");
        let s = d.primary_span().expect("span");
        assert_eq!((s.lo, s.line), (3, 2));
    }

    #[test]
    fn lines_tracked() {
        let ts = lex_diag("a\nb\n\nc").unwrap();
        assert_eq!(ts[0].span.line, 1);
        assert_eq!(ts[1].span.line, 2);
        assert_eq!(ts[2].span.line, 4);
    }
}
