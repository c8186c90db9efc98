//! A small hand-written Rust lexer — just enough syntax to run textual
//! rules safely.
//!
//! The analyzer's rules match identifier and punctuation sequences, so
//! the one job of this lexer is to make sure those matches never land
//! inside a string literal, a char literal, or a comment. It therefore
//! understands, precisely:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), which it captures as [`Comment`]s so suppression
//!   annotations can be read back out;
//! * string literals with escapes, byte strings, and raw strings with
//!   any number of `#` guards (`r"…"`, `r#"…"#`, `br##"…"##`);
//! * char and byte-char literals vs. lifetimes (`'a'` is a literal,
//!   `'a` is a lifetime);
//! * identifiers, numbers, and single-character punctuation.
//!
//! Everything else about Rust — types, macros, expressions — is left to
//! the rule engine, which works on the token stream with file-path
//! context.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `HashMap`, …).
    Ident,
    /// A numeric, string, char, byte, or raw-string literal.
    Literal,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character (`.`, `!`, `:`, `{`, …).
    Punct(char),
}

/// One token of the source, with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's text. String/char literals keep a placeholder (their
    /// contents are deliberately opaque to the rules); number literals
    /// keep their exact source text.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// 0-based char offset the token starts at. Adjacency between
    /// consecutive punctuation tokens (`pos + 1 == next.pos`) is how
    /// the analyses tell compound operators (`==`, `->`, `..`, `>>`)
    /// from coincidental neighbors (`a > -b`).
    pub pos: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether `next` starts at the very next char after this token —
    /// true for the halves of a compound operator like `::` or `>>`,
    /// false for `> >` written apart. Only meaningful for
    /// single-character punctuation tokens.
    pub fn is_joint(&self, next: &Token) -> bool {
        self.pos + 1 == next.pos
    }
}

/// One comment of the source (line or block), captured so suppression
/// annotations can be parsed from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equal to `line` for line
    /// comments).
    pub end_line: u32,
    /// Whether the comment is the first non-whitespace on its line (a
    /// standalone comment, as opposed to a trailing one).
    pub owns_line: bool,
    /// The comment text, including its `//` or `/*` introducer.
    pub text: String,
}

/// The result of lexing one file: the code tokens and the comments,
/// each in source order.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// Code tokens in source order; comments and literal contents are
    /// never part of this stream.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer<'a> {
    chars: &'a [char],
    pos: usize,
    line: u32,
    /// Whether only whitespace has been seen since the last newline.
    at_line_start: bool,
    out: LexedFile,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.at_line_start = true;
        }
        Some(c)
    }

    fn push_token(&mut self, kind: TokenKind, text: String, line: u32, pos: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            pos,
        });
    }

    /// Lexes a `//` comment (to end of line, newline not consumed).
    fn line_comment(&mut self, owns_line: bool) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        self.out.comments.push(Comment {
            line,
            end_line: line,
            owns_line,
            text,
        });
    }

    /// Lexes a `/* … */` comment, honoring nesting.
    fn block_comment(&mut self, owns_line: bool) {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '/' && self.peek(0) == Some('*') {
                text.push('*');
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek(0) == Some('/') {
                text.push('/');
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        self.out.comments.push(Comment {
            line,
            end_line: self.line,
            owns_line,
            text,
        });
    }

    /// Lexes a `"…"` string body; the opening quote is already consumed.
    fn quoted_string(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Lexes a raw string: `pos` is at the first `#` or the opening
    /// quote. Returns false if this is not actually a raw string (e.g.
    /// `r#foo`, a raw identifier).
    fn raw_string(&mut self) -> bool {
        let start = self.pos;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some('"') {
            self.pos = start;
            return false;
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'scan;
                    }
                }
                self.pos += hashes;
                break;
            }
        }
        true
    }

    /// Lexes a char literal or lifetime; `pos` is at the `'`.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let start = self.pos as u32;
        self.pos += 1; // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: skip to the closing quote.
                self.pos += 1; // backslash
                self.pos += 1; // escaped char (enough even for \u{…})
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    if c == '\'' {
                        break;
                    }
                }
                self.push_token(TokenKind::Literal, "'…'".to_string(), line, start);
            }
            Some(c) if is_ident_start(c) => {
                // `'r#async` is a raw lifetime: strip the `r#` so the
                // token carries the escaped name and the stream stays
                // in sync (naively it would desync into 'r + # + ident).
                if c == 'r' && self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start)
                {
                    self.pos += 2;
                }
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    name.push(c);
                    self.pos += 1;
                }
                if self.peek(0) == Some('\'') {
                    self.pos += 1;
                    self.push_token(TokenKind::Literal, "'…'".to_string(), line, start);
                } else {
                    self.push_token(TokenKind::Lifetime, name, line, start);
                }
            }
            Some(_) => {
                // A non-identifier char literal like ' ' or '0'.
                self.pos += 1;
                if self.peek(0) == Some('\'') {
                    self.pos += 1;
                }
                self.push_token(TokenKind::Literal, "'…'".to_string(), line, start);
            }
            None => {}
        }
    }

    /// Lexes an identifier at `pos`, handling string-literal prefixes
    /// (`r"…"`, `b"…"`, `br#"…"#`, `b'…'`) and raw identifiers.
    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let start = self.pos as u32;
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            name.push(c);
            self.pos += 1;
        }
        match (name.as_str(), self.peek(0)) {
            ("r" | "br" | "rb", Some('"' | '#')) => {
                if self.raw_string() {
                    self.push_token(TokenKind::Literal, "\"…\"".to_string(), line, start);
                } else if name == "r"
                    && self.peek(0) == Some('#')
                    && self.peek(1).is_some_and(is_ident_start)
                {
                    // `r#type` — a raw identifier; lex it as the plain
                    // identifier it escapes, so rules see `type`.
                    self.pos += 1; // the '#'
                    let mut raw = String::new();
                    while let Some(c) = self.peek(0) {
                        if !is_ident_continue(c) {
                            break;
                        }
                        raw.push(c);
                        self.pos += 1;
                    }
                    self.push_token(TokenKind::Ident, raw, line, start);
                } else {
                    self.push_token(TokenKind::Ident, name, line, start);
                }
            }
            ("b", Some('"')) => {
                self.bump();
                self.quoted_string();
                self.push_token(TokenKind::Literal, "\"…\"".to_string(), line, start);
            }
            ("b", Some('\'')) => {
                self.char_or_lifetime();
            }
            _ => self.push_token(TokenKind::Ident, name, line, start),
        }
    }

    /// Appends a run of digit/identifier chars (digits, `_` separators,
    /// hex digits, exponent `e`, type suffixes like `f64`) to `text`.
    fn digit_run(&mut self, text: &mut String) {
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
    }

    /// Lexes a number literal, keeping its exact text: integers with
    /// radix prefixes and `_` separators, floats with a decimal point
    /// and/or signed exponent, and type suffixes (`1e9`, `1.5f64`,
    /// `0x1f`, `2.5E+3`, `1_000u64`).
    fn number(&mut self) {
        let line = self.line;
        let start = self.pos as u32;
        let mut text = String::new();
        self.digit_run(&mut text);
        // A decimal point (`1.5`) — but not the range in `1..5`.
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            text.push('.');
            self.pos += 1;
            self.digit_run(&mut text);
        }
        // A signed exponent: `1e-9`, `2.5E+3`. The `e` itself was
        // consumed by the runs above; radix-prefixed literals (`0xee`)
        // never carry one.
        let radix_prefixed =
            text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b");
        if !radix_prefixed
            && (text.ends_with('e') || text.ends_with('E'))
            && matches!(self.peek(0), Some('+' | '-'))
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            text.push(self.peek(0).unwrap_or('+'));
            self.pos += 1;
            self.digit_run(&mut text);
        }
        self.push_token(TokenKind::Literal, text, line, start);
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('/') {
                let owns = self.at_line_start;
                self.at_line_start = false;
                self.line_comment(owns);
            } else if c == '/' && self.peek(1) == Some('*') {
                let owns = self.at_line_start;
                self.at_line_start = false;
                self.block_comment(owns);
            } else if c == '"' {
                let line = self.line;
                let start = self.pos as u32;
                self.at_line_start = false;
                self.bump();
                self.quoted_string();
                self.push_token(TokenKind::Literal, "\"…\"".to_string(), line, start);
            } else if c == '\'' {
                self.at_line_start = false;
                self.char_or_lifetime();
            } else if is_ident_start(c) {
                self.at_line_start = false;
                self.ident_or_prefixed_literal();
            } else if c.is_ascii_digit() {
                self.at_line_start = false;
                self.number();
            } else if c.is_whitespace() {
                self.bump();
            } else {
                let line = self.line;
                let start = self.pos as u32;
                self.at_line_start = false;
                self.pos += 1;
                self.push_token(TokenKind::Punct(c), c.to_string(), line, start);
            }
        }
        self.out
    }
}

/// Lexes one Rust source file into tokens and comments.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    Lexer {
        chars: &chars,
        pos: 0,
        line: 1,
        at_line_start: true,
        out: LexedFile::default(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // thread_rng in a comment
            /* Instant::now in /* a nested */ block */
            let s = "thread_rng() and \" quotes";
            let r = r#"Instant::now"#;
            call();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "thread_rng"));
        assert!(!ids.iter().any(|i| i == "Instant"));
        assert!(ids.iter().any(|i| i == "call"));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let lexed = lex("fn f<'a>(c: char) { let x = 'y'; let z = '\\n'; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 1);
        assert_eq!(lifetimes[0].text, "a");
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 2);
    }

    #[test]
    fn byte_and_raw_strings_are_opaque() {
        let ids = idents(r##"let a = b"SystemTime"; let c = br#"unwrap"#; done();"##);
        assert!(!ids.iter().any(|i| i == "SystemTime"));
        assert!(!ids.iter().any(|i| i == "unwrap"));
        assert!(ids.iter().any(|i| i == "done"));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"x\ny\";\n/* c\nc */\nmarker();\n";
        let lexed = lex(src);
        let marker = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("marker"))
            .expect("marker token");
        assert_eq!(marker.line, 5);
    }

    #[test]
    fn comments_record_ownership_of_their_line() {
        let src = "x(); // trailing\n// standalone\ny();\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].owns_line);
        assert!(lexed.comments[1].owns_line);
    }

    #[test]
    fn punctuation_sequences_survive() {
        let lexed = lex("Instant::now()");
        let texts: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["Instant", ":", ":", "now", "(", ")"]);
    }

    #[test]
    fn raw_identifiers_lex_as_their_escaped_name() {
        let lexed = lex("let r#type = r#fn + other;");
        let texts: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "type", "=", "fn", "+", "other", ";"]);
        assert!(lexed.tokens.iter().all(|t| t.kind != TokenKind::Literal));
    }

    #[test]
    fn raw_lifetimes_lex_as_single_tokens() {
        // `'r#async` must not desync into 'r + # + async — a stray `#`
        // in the stream would shift every downstream token position.
        let lexed = lex("fn f<'r#async>(x: &'r#async str) -> &'r#async str { x }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "async"));
        assert!(!lexed.tokens.iter().any(|t| t.is_punct('#')));
    }

    #[test]
    fn deeply_nested_block_comments_terminate_correctly() {
        let src = "/* a /* b /* \" 'c' */ */ still comment */ after();";
        assert_eq!(idents(src), vec!["after"]);
        // An unbalanced inner opener swallows the rest of the file
        // rather than resurfacing mid-comment.
        let unterminated = "/* open /* never closed */ still_comment();";
        assert!(idents(unterminated).is_empty());
    }

    #[test]
    fn raw_strings_still_beat_raw_identifiers() {
        // `r#"…"#` is a raw string; `r#ident` is a raw identifier.
        let lexed = lex(r##"let a = r#"text"#; let b = r#match;"##);
        let literals: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(literals.len(), 1);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("match")));
    }

    #[test]
    fn float_literals_keep_their_exact_text() {
        let src = "a(1e9, 1.5f64, 2.5E+3, 1e-9, 1_000u64, 0x1f, 3.25)";
        let nums: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text)
            .collect();
        assert_eq!(
            nums,
            ["1e9", "1.5f64", "2.5E+3", "1e-9", "1_000u64", "0x1f", "3.25"]
        );
    }

    #[test]
    fn ranges_are_not_swallowed_by_float_lexing() {
        let texts: Vec<String> = lex("for i in 0..10 {}")
            .tokens
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, ["for", "i", "in", "0", ".", ".", "10", "{", "}"]);
    }

    #[test]
    fn hex_literals_do_not_grow_exponents() {
        // `0xee-1` is a subtraction, not a malformed exponent.
        let texts: Vec<String> = lex("0xee-1").tokens.into_iter().map(|t| t.text).collect();
        assert_eq!(texts, ["0xee", "-", "1"]);
    }

    #[test]
    fn adjacency_distinguishes_compound_operators() {
        let lexed = lex("a >> b; c > -d; Vec<Vec<u8>>");
        let gt: Vec<&Token> = lexed.tokens.iter().filter(|t| t.is_punct('>')).collect();
        assert_eq!(gt.len(), 5);
        // `>>` in the shift is joint …
        assert!(gt[0].is_joint(gt[1]));
        // … `> -` is not …
        let minus = lexed
            .tokens
            .iter()
            .find(|t| t.is_punct('-'))
            .expect("minus");
        assert!(!gt[2].is_joint(minus));
        // … and the generic close-close is joint too: only parsing
        // context, not spacing, separates it from a shift.
        assert!(gt[3].is_joint(gt[4]));
    }

    #[test]
    fn lifetime_vs_char_literal_with_adjacent_generics() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'a'; let nl = '\\n'; }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 2);
    }
}
