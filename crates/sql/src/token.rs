//! SQL tokenizer.

use qcc_common::{QccError, Result};

/// A lexical token. Keywords are folded into `Ident` at this level and
/// recognized case-insensitively by the parser, except for operators and
/// punctuation which get their own variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
}

impl Token {
    /// True when this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(QccError::Parse("unexpected '!'".into()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (s, consumed) = lex_string(&input[i..])?;
                tokens.push(Token::Str(s));
                i += consumed;
            }
            c if c.is_ascii_digit() => {
                let (tok, consumed) = lex_number(&input[i..])?;
                tokens.push(tok);
                i += consumed;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                return Err(QccError::Parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(tokens)
}

fn lex_string(input: &str) -> Result<(String, usize)> {
    debug_assert!(input.starts_with('\''));
    let bytes = input.as_bytes();
    let mut out = String::new();
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Keep multi-byte UTF-8 intact by walking char boundaries.
            let ch = input[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(QccError::Parse("unterminated string literal".into()))
}

fn lex_number(input: &str) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    // Fractional part — but not if the dot starts a qualified name (digits
    // never start identifiers, so `1.x` can't occur in valid SQL here).
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[..i];
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok((Token::Int(v), i));
        }
        // Overflowing integers degrade to floats.
    }
    match text.parse::<f64>() {
        // A literal beyond the float range would read as infinity, which
        // prints as `inf` — a column name to whoever parses that text.
        Ok(v) if v.is_finite() => Ok((Token::Float(v), i)),
        _ => Err(QccError::Parse(format!("bad number literal '{text}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Ident("b".into()),
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("a".into()),
                Token::GtEq,
                Token::Int(10),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'o''neil'").unwrap();
        assert_eq!(toks, vec![Token::Str("o'neil".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 3e2 4.5E-1 12345678901234567890").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Float(300.0));
        assert_eq!(toks[3], Token::Float(0.45));
        assert!(matches!(toks[4], Token::Float(_)), "overflow → float");
    }

    /// Fuzz regression (`... ON 1e309 = a.id`): the literal lexed as
    /// infinity, printed as `inf` and came back as a column reference.
    #[test]
    fn number_beyond_the_float_range_is_rejected() {
        assert!(matches!(tokenize("1e309"), Err(QccError::Parse(_))));
        assert!(matches!(
            tokenize(&"9".repeat(400)),
            Err(QccError::Parse(_))
        ));
    }

    #[test]
    fn qualified_name_dots() {
        let toks = tokenize("t1.col").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t1".into()),
                Token::Dot,
                Token::Ident("col".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::NotEq,
                Token::NotEq,
            ]
        );
    }

    #[test]
    fn line_comments_skipped() {
        let toks = tokenize("SELECT -- comment here\n 1").unwrap();
        assert_eq!(toks, vec![Token::Ident("SELECT".into()), Token::Int(1)]);
    }

    #[test]
    fn bad_character_errors() {
        assert!(tokenize("SELECT @").is_err());
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        assert!(Token::Ident("select".into()).is_keyword("SELECT"));
        assert!(!Token::Int(1).is_keyword("SELECT"));
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize("'héllo→world'").unwrap();
        assert_eq!(toks, vec![Token::Str("héllo→world".into())]);
    }
}
