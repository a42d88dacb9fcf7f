//! A hand-rolled, dependency-free Rust lexer.
//!
//! Produces a flat token stream with line/column positions. It exists so
//! the lint rules can pattern-match *code* without ever seeing the inside
//! of a string literal or a comment — the false-positive class the old
//! line-regex engine could not eliminate. It handles the lexical corners
//! that actually bite a textual pass:
//!
//! * raw strings `r"…"` / `r#"…"#` (any hash depth) and their byte
//!   cousins `br#"…"#`;
//! * nested block comments `/* a /* b */ c */`;
//! * `'a` lifetimes vs `'a'` char literals (including `'\n'`, `'\''`,
//!   and multi-byte chars like `'é'`);
//! * raw identifiers `r#type`.
//!
//! It is deliberately *not* a full Rust lexer: float/int literal
//! subtleties, shebangs and frontmatter are out of scope because no rule
//! looks at them. Unknown bytes become one-byte `Punct` tokens, so the
//! lexer never fails — worst case a rule just doesn't match.

/// Token classes, as coarse as the rules allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers `r#type`).
    Ident,
    /// `'a`, `'static` — a quote not closed by another quote.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Numeric literal (integers and floats, loosely).
    Num,
    /// `// …` (including doc comments).
    LineComment,
    /// `/* … */`, nesting-aware.
    BlockComment,
    /// Any other single byte: `{`, `}`, `(`, `.`, `:`, `&`, `|`, …
    Punct,
}

/// One token. `text` borrows from the source; `line`/`col` are 1-based,
/// `col` counted in bytes from the line start (what editors call the
/// column for ASCII code, which is all this workspace contains).
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's source text.
    pub text: &'a str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl<'a> Tok<'a> {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    /// Is this the one-character punctuation `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into tokens. Never fails; unrecognized bytes come out as
/// one-byte `Punct` tokens.
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize; // byte offset of the current line start

    macro_rules! col {
        ($at:expr) => {
            ($at - line_start + 1) as u32
        };
    }
    // Advance line/col bookkeeping over src[from..to].
    macro_rules! count_newlines {
        ($from:expr, $to:expr) => {
            for k in $from..$to {
                if bytes[k] == b'\n' {
                    line += 1;
                    line_start = k + 1;
                }
            }
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        let start_line = line;
        let start_col = col!(i);

        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j] != b'\n' {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::LineComment,
                text: &src[i..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            count_newlines!(i, j);
            toks.push(Tok {
                kind: TokKind::BlockComment,
                text: &src[start..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Raw strings / raw identifiers / byte strings. A prefix of `b`,
        // `r`, or `br` is only a literal prefix when it is not the tail of
        // a longer identifier — but we get here token-by-token, so any
        // preceding identifier characters were already consumed into an
        // Ident token; a bare `b`/`r` here genuinely starts a token.
        if b == b'r' || b == b'b' {
            // br#"…"# / b"…" / r"…" / r#"…"# / r#ident
            let (raw, j0) = match (b, bytes.get(i + 1)) {
                (b'b', Some(b'r')) => (true, i + 2),
                (b'r', _) => (true, i + 1),
                (b'b', Some(b'"')) => (false, i + 1),
                (b'b', Some(b'\'')) => {
                    // Byte char b'x'.
                    let mut j = i + 2;
                    if bytes.get(j) == Some(&b'\\') {
                        j += 2; // escape + escaped byte
                    } else {
                        j += 1;
                    }
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    j = (j + 1).min(bytes.len());
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: &src[start..j],
                        line: start_line,
                        col: start_col,
                    });
                    i = j;
                    continue;
                }
                _ => (false, i + 1),
            };
            if raw {
                let mut hashes = 0usize;
                let mut j = j0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    // Raw (byte) string: scan for `"` + hashes `#`s.
                    j += 1;
                    'scan: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut ok = true;
                            for k in 1..=hashes {
                                if bytes.get(j + k) != Some(&b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                j += hashes + 1;
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    count_newlines!(i, j);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: &src[start..j],
                        line: start_line,
                        col: start_col,
                    });
                    i = j;
                    continue;
                }
                if b == b'r' && hashes == 1 && j < bytes.len() && is_ident_start(bytes[j]) {
                    // Raw identifier r#type.
                    let mut k = j;
                    while k < bytes.len() && is_ident_cont(bytes[k]) {
                        k += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: &src[start..k],
                        line: start_line,
                        col: start_col,
                    });
                    i = k;
                    continue;
                }
                // Not a raw literal after all: fall through to plain ident.
            }
            if !raw && bytes.get(i + 1) == Some(&b'"') {
                // b"…": cooked byte string — same scan as a plain string.
                let mut j = i + 2;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                let j = j.min(bytes.len());
                count_newlines!(i, j);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[start..j],
                    line: start_line,
                    col: start_col,
                });
                i = j;
                continue;
            }
            // Plain identifier starting with r/b.
            let mut j = i;
            while j < bytes.len() && is_ident_cont(bytes[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: &src[start..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Plain strings.
        if b == b'"' {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let j = j.min(bytes.len());
            count_newlines!(i, j);
            toks.push(Tok {
                kind: TokKind::Str,
                text: &src[start..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            // `'\…'` is always a char. Otherwise decode one char; if the
            // byte after it is `'`, it's a char literal ('a', 'é'),
            // else a lifetime ('a, 'static, or the dangling quote in
            // `&'a str`).
            if bytes.get(i + 1) == Some(&b'\\') {
                let mut j = i + 2;
                // Skip the escape payload up to the closing quote.
                if j < bytes.len() {
                    j += 1; // escaped char (or the x/u introducer)
                }
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                let j = (j + 1).min(bytes.len());
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: &src[start..j],
                    line: start_line,
                    col: start_col,
                });
                i = j;
                continue;
            }
            // Decode one UTF-8 char after the quote.
            let rest = &src[i + 1..];
            if let Some(c) = rest.chars().next() {
                let after = i + 1 + c.len_utf8();
                if bytes.get(after) == Some(&b'\'') {
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: &src[i..after + 1],
                        line: start_line,
                        col: start_col,
                    });
                    i = after + 1;
                    continue;
                }
            }
            // Lifetime: consume identifier chars.
            let mut j = i + 1;
            while j < bytes.len() && is_ident_cont(bytes[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Lifetime,
                text: &src[i..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Identifiers / keywords.
        if is_ident_start(b) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_cont(bytes[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: &src[i..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Numbers (loose: `1_000`, `0x1f`, `1.5e-3`, `1.0f64`).
        if b.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() && (is_ident_cont(bytes[j]) || bytes[j] == b'.') {
                if bytes[j] == b'.' {
                    // `1.0` continues the number; `1..n` and `1.method()`
                    // do not.
                    if bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
                        j += 1;
                    } else {
                        break;
                    }
                } else {
                    j += 1;
                }
                // Exponent sign: 1e-3 / 1E+3.
                if (bytes[j - 1] == b'e' || bytes[j - 1] == b'E')
                    && matches!(bytes.get(j), Some(b'+') | Some(b'-'))
                    && bytes.get(j + 1).is_some_and(u8::is_ascii_digit)
                {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: &src[i..j],
                line: start_line,
                col: start_col,
            });
            i = j;
            continue;
        }

        // Everything else: one byte of punctuation. Multi-byte UTF-8
        // outside literals shouldn't occur; emit the whole char so the
        // slice stays on a boundary.
        let c_len = src[i..].chars().next().map_or(1, char::len_utf8);
        toks.push(Tok {
            kind: TokKind::Punct,
            text: &src[i..i + c_len],
            line: start_line,
            col: start_col,
        });
        i += c_len;
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let toks = lex("fn f() {\n    x.unwrap();\n}\n");
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.kind, TokKind::Ident);
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let toks = kinds(r####"let s = r#"a "quoted" unwrap()"#; y()"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("unwrap")));
        // The unwrap inside the raw string is not an ident token.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "unwrap"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "y"));
        // Deeper hashes with an embedded "# that must not close.
        let deep = "r##\"has \"# inside\"## rest";
        let toks = kinds(deep);
        assert_eq!(toks[0].0, TokKind::Str);
        assert!(toks.iter().any(|(_, t)| *t == "rest"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds("b\"panic!\" br#\"todo!\"# b'x' b'\\n'");
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[1].0, TokKind::Str);
        assert_eq!(toks[2].0, TokKind::Char);
        assert_eq!(toks[3].0, TokKind::Char);
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Ident));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* a /* unwrap() */ still */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert_eq!(toks[1], (TokKind::Ident, "code"));
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let s = '\\''; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\''"]);
        // 'static too.
        let toks = kinds("&'static str");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && *t == "'static"));
    }

    #[test]
    fn multibyte_char_literal() {
        let toks = kinds("let c = 'é'; x");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && *t == "'é'"));
        assert!(toks.iter().any(|(_, t)| *t == "x"));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1; r#fn");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "r#type"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "r#fn"));
    }

    #[test]
    fn idents_ending_in_r_or_b_do_not_eat_strings() {
        // `var"x"` is not valid Rust, but `r` as the *tail* of an ident
        // must not trigger raw-string mode: `for r in …`, `let b = …`.
        let toks = kinds("for r in list { let b = r; }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "r"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "b"));
    }

    #[test]
    fn strings_with_escapes() {
        let toks = kinds(r#"let s = "a \" unwrap() \\"; done"#);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        assert!(toks.iter().any(|(_, t)| *t == "done"));
    }

    #[test]
    fn numbers_do_not_eat_method_calls_or_ranges() {
        let toks = kinds("1.0f64 0x1f 1_000 x.0 1..9 1.5e-3");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(
            nums,
            vec!["1.0f64", "0x1f", "1_000", "0", "1", "9", "1.5e-3"]
        );
    }

    #[test]
    fn line_comment_token_keeps_text_for_waiver_parsing() {
        let toks = lex("x(); // qcc-lint: allow(L3): reason\n");
        let c = toks
            .iter()
            .find(|t| t.kind == TokKind::LineComment)
            .unwrap();
        assert!(c.text.contains("allow(L3)"));
        assert_eq!(c.line, 1);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'a", "b'", "1e"] {
            let _ = lex(src); // must not panic or loop forever
        }
    }
}
