//! Tokenizer for Piet-QL.

use crate::{PietError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier or keyword (keywords are resolved by the parser,
    /// case-insensitively).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Quoted string literal (single or double quotes).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `|`
    Pipe,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!=` or `<>`
    Ne,
}

/// Tokenizes an input string.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '|' => {
                out.push(Token::Pipe);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Ne);
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = bytes[i];
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(PietError::Lex {
                        at: i,
                        msg: "unterminated string".into(),
                    });
                }
                out.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, '0'..='9' | '.' | 'e' | 'E' | '_')
                {
                    // Don't swallow a dot that is followed by a letter
                    // (qualified names like `layer.cities` never follow a
                    // number, but be safe).
                    if bytes[i] == b'.'
                        && bytes
                            .get(i + 1)
                            .is_some_and(|&b| (b as char).is_ascii_alphabetic())
                    {
                        break;
                    }
                    i += 1;
                }
                let text: String = input[start..i].chars().filter(|&ch| ch != '_').collect();
                let n: f64 = text.parse().map_err(|_| PietError::Lex {
                    at: start,
                    msg: format!("bad number {text:?}"),
                })?;
                out.push(Token::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(PietError::Lex {
                    at: i,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_and_idents() {
        let toks = lex("SELECT layer.cities;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("layer".into()),
                Token::Dot,
                Token::Ident("cities".into()),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("< <= > >= = != <>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne,
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        let toks = lex("1500 2.5 1_000 'Morning' \"Wednesday\"").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number(1500.0),
                Token::Number(2.5),
                Token::Number(1000.0),
                Token::Str("Morning".into()),
                Token::Str("Wednesday".into()),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("COUNT -- the works\n ( TUPLES )").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn errors() {
        assert!(matches!(lex("'unterminated"), Err(PietError::Lex { .. })));
        assert!(matches!(lex("@"), Err(PietError::Lex { .. })));
    }

    #[test]
    fn pipe_separator() {
        let toks = lex("x | y").unwrap();
        assert_eq!(toks[1], Token::Pipe);
    }
}
