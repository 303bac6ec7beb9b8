//! A small hand-rolled Rust lexer: just enough fidelity for token-pattern
//! lints. It distinguishes identifiers, punctuation, literals (string / raw
//! string / byte string / char / number), lifetimes, and comments, and tracks
//! the 1-based source line of every token. It does not attempt full
//! tokenization of Rust (no float-suffix pedantry, no shebang handling) —
//! the lints only need identifier and punctuation sequences to be exact and
//! literal/comment text to be *excluded* from them.

/// One lexical token. Comments are reported separately (see [`Comment`]) so
/// pattern matching over `Tok` streams never has to skip them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`HashMap`, `as`, `pub`, ...).
    Ident(String),
    /// Single punctuation character (`.`, `!`, `(`, ...).
    Punct(char),
    /// Any literal: string, raw string, byte string, char, or number,
    /// with its source text. No lint matches inside it; K1 only compares
    /// a literal setter's value with the default's.
    Lit(String),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

/// A comment with its starting line. `whole_line` is true when nothing but
/// whitespace precedes it on its line — such comments can annotate the line
/// *below* them.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: usize,
    pub whole_line: bool,
}

pub struct LexOutput {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

pub fn lex(src: &str) -> LexOutput {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    text: chars[start..i].iter().collect(),
                    line,
                    whole_line: !line_has_code,
                });
            }
            '/' if i + 1 < chars.len() && chars[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let whole_line = !line_has_code;
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(Comment {
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line: start_line,
                    whole_line,
                });
                line_has_code = line == start_line && line_has_code;
            }
            '"' => {
                line_has_code = true;
                let start = i;
                i = skip_string(&chars, i, &mut line);
                tokens.push(Token {
                    tok: Tok::Lit(chars[start..i.min(chars.len())].iter().collect()),
                    line,
                });
            }
            '\'' => {
                line_has_code = true;
                // Char literal vs lifetime. `'\...'` and `'x'` are chars;
                // `'ident` not closed by a quote is a lifetime.
                let is_char = if i + 1 < chars.len() && chars[i + 1] == '\\' {
                    true
                } else {
                    i + 2 < chars.len() && chars[i + 2] == '\''
                };
                if is_char {
                    let lit_line = line;
                    let start = i;
                    i += 1; // past opening quote
                    while i < chars.len() && chars[i] != '\'' {
                        if chars[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i += 1; // past closing quote
                    tokens.push(Token {
                        tok: Tok::Lit(chars[start..i.min(chars.len())].iter().collect()),
                        line: lit_line,
                    });
                } else {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    tokens.push(Token { tok: Tok::Lifetime, line });
                }
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // A fractional part: `.` followed by a digit (so `0..10`
                // leaves the range dots alone).
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                tokens.push(Token {
                    tok: Tok::Lit(chars[start..i].iter().collect()),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                line_has_code = true;
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes: r"", r#""#, b"", br"", c"".
                let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr")
                    && i < chars.len()
                    && (chars[i] == '"' || (chars[i] == '#' && word.contains('r')));
                if is_str_prefix {
                    let lit_line = line;
                    if word.contains('r') {
                        i = skip_raw_string(&chars, i, &mut line);
                    } else {
                        i = skip_string(&chars, i, &mut line);
                    }
                    tokens.push(Token {
                        tok: Tok::Lit(chars[start..i.min(chars.len())].iter().collect()),
                        line: lit_line,
                    });
                } else {
                    tokens.push(Token { tok: Tok::Ident(word), line });
                }
            }
            other => {
                line_has_code = true;
                tokens.push(Token { tok: Tok::Punct(other), line });
                i += 1;
            }
        }
    }

    LexOutput { tokens, comments }
}

/// `i` points at the opening `"`. Returns the index just past the closing
/// quote, updating `line` across embedded newlines.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// `i` points at the first `#` or the `"` after a raw-string prefix.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut hashes = 0usize;
    while i < chars.len() && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i < chars.len() && chars[i] == '"' {
        i += 1;
    }
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < chars.len() && chars[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn literals_hide_their_contents() {
        // Identifier-looking text inside strings/comments must not surface.
        let src = r##"let x = "HashMap"; // HashMap in comment
let y = r#"HashSet"#; /* HashMap */ let z = 'H';"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "ids: {ids:?}");
        assert!(!ids.contains(&"HashSet".to_string()));
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "z"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }").tokens;
        let lifetimes = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let lits = toks.iter().filter(|t| matches!(t.tok, Tok::Lit(_))).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(lits, 1);
    }

    #[test]
    fn lines_and_whole_line_comments() {
        let src = "let a = 1;\n// whole line\nlet b = 2; // trailing\n";
        let out = lex(src);
        assert_eq!(out.comments.len(), 2);
        assert!(out.comments[0].whole_line);
        assert_eq!(out.comments[0].line, 2);
        assert!(!out.comments[1].whole_line);
        assert_eq!(out.comments[1].line, 3);
        let b = out
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn nested_block_comments_and_numbers() {
        let src = "/* outer /* inner */ still comment */ let n = 1_000.5e3; let r = 0..10;";
        let out = lex(src);
        assert_eq!(out.comments.len(), 1);
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "n", "let", "r"]);
    }
}
