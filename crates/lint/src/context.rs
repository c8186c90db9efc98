//! File-path and in-file context for the rule engine: what kind of
//! source a file is, which token ranges are `#[cfg(test)]` code, and
//! where function bodies start and end.

use crate::lexer::{LexedFile, Token, TokenKind};

/// The coarse classification of a source file by its workspace path.
///
/// Rules apply per class: e.g. wall-clock reads are legitimate in
/// benchmark drivers and binaries but not in library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code — the default, and the strictest class.
    Lib,
    /// A binary target (`src/bin/…` or `src/main.rs`).
    Bin,
    /// An example (`examples/…`).
    Example,
    /// Integration-test code (`tests/…`).
    Test,
    /// Benchmark code: `benches/…` or anything in `crates/bench`.
    Bench,
}

/// Classifies a file by its path relative to the workspace root.
///
/// Order matters: the bench crate wins over everything (its `src/bin`
/// drivers are still benchmarks), and test/example directories win over
/// `src/bin`.
pub fn classify(rel_path: &str) -> FileClass {
    let p = rel_path.replace('\\', "/");
    if p.starts_with("crates/bench/") || p.contains("/benches/") {
        FileClass::Bench
    } else if p.starts_with("tests/") || p.contains("/tests/") {
        FileClass::Test
    } else if p.starts_with("examples/") || p.contains("/examples/") {
        FileClass::Example
    } else if p.contains("/src/bin/") || p.ends_with("src/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// The token-index span of one function: its `fn` keyword, its body's
/// opening brace, and the matching closing brace (all inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnSpan {
    /// Index of the `fn` keyword — the span includes the signature.
    pub start: usize,
    /// Index of the body's `{`.
    pub open: usize,
    /// Index of the body's matching `}`.
    pub close: usize,
}

/// Per-token flags derived from the token stream.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// The file's path class.
    pub class: FileClass,
    /// `in_test[i]` — token `i` lies inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Every `fn`'s span (signature plus brace-matched body), outer
    /// functions before the closures and items nested inside them.
    pub fn_spans: Vec<FnSpan>,
}

impl FileContext {
    /// Builds the context for a lexed file.
    pub fn build(class: FileClass, lexed: &LexedFile) -> Self {
        FileContext {
            class,
            in_test: mark_cfg_test(&lexed.tokens),
            fn_spans: find_fn_spans(&lexed.tokens),
        }
    }
}

/// Marks every token that belongs to a `#[cfg(test)]`-gated item.
///
/// Recognizes `#[cfg(test)]` and composites like `#[cfg(all(test, …))]`:
/// any outer attribute whose argument tokens include the identifier
/// `test` under a `cfg`. The gated item extends over any further
/// attributes, then either to the first top-level `;` or over the first
/// balanced `{ … }` block (covering `mod tests { … }` and gated `fn`s
/// alike).
fn mark_cfg_test(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && matches(tokens, i + 1, "[") {
            let attr_end = match matching_close(tokens, i + 1, ('[', ']')) {
                Some(end) => end,
                None => break,
            };
            if attr_is_cfg_test(&tokens[i + 2..attr_end]) {
                let item_end = item_end(tokens, attr_end + 1);
                for flag in flags.iter_mut().take(item_end + 1).skip(i) {
                    *flag = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    flags
}

/// Whether attribute argument tokens (between `[` and `]`) denote a
/// `cfg(…)` mentioning `test`.
fn attr_is_cfg_test(args: &[Token]) -> bool {
    args.first().is_some_and(|t| t.is_ident("cfg")) && args.iter().any(|t| t.is_ident("test"))
}

/// Index of the `close` matching the `open_char` delimiter at `open`
/// (`[`/`]` or `(`/`)`).
pub(crate) fn matching_close(
    tokens: &[Token],
    open: usize,
    (open_char, close): (char, char),
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_char) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// The index of the last token of the item starting at `start` (after
/// its attributes): the matching `}` of its first top-level block, or
/// the first `;` seen before any block.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip any further attributes.
    while i < tokens.len() && tokens[i].is_punct('#') && matches(tokens, i + 1, "[") {
        match matching_close(tokens, i + 1, ('[', ']')) {
            Some(end) => i = end + 1,
            None => return tokens.len().saturating_sub(1),
        }
    }
    let mut brace_depth = 0usize;
    let mut seen_brace = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            brace_depth += 1;
            seen_brace = true;
        } else if t.is_punct('}') {
            brace_depth = brace_depth.saturating_sub(1);
            if seen_brace && brace_depth == 0 {
                return i;
            }
        } else if t.is_punct(';') && !seen_brace {
            return i;
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Finds every `fn` span (signature plus brace-matched body).
///
/// From each `fn` keyword the scanner walks to the body's `{` (skipping
/// the parameter list and any return type) and brace-matches to its
/// end; a `;` first means a bodiless trait/extern declaration.
fn find_fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let mut j = i + 1;
        let mut paren_depth = 0usize;
        let body_open = loop {
            let Some(t) = tokens.get(j) else {
                break None;
            };
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => paren_depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => {
                    paren_depth = paren_depth.saturating_sub(1)
                }
                TokenKind::Punct('{') if paren_depth == 0 => break Some(j),
                TokenKind::Punct(';') if paren_depth == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        let mut depth = 0usize;
        let mut k = open;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                depth += 1;
            } else if tokens[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        spans.push(FnSpan {
            start: i,
            open,
            close: k.min(tokens.len() - 1),
        });
    }
    spans
}

fn matches(tokens: &[Token], i: usize, punct: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| punct.chars().next().is_some_and(|c| t.is_punct(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn paths_classify_by_role() {
        assert_eq!(classify("crates/rl/src/policy.rs"), FileClass::Lib);
        assert_eq!(
            classify("crates/core/src/bin/autoscale-cli.rs"),
            FileClass::Bin
        );
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Bench);
        assert_eq!(classify("crates/bench/src/bin/fig9.rs"), FileClass::Bench);
        assert_eq!(classify("crates/sim/tests/properties.rs"), FileClass::Test);
        assert_eq!(classify("crates/sim/examples/probe.rs"), FileClass::Example);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("tests/integration.rs"), FileClass::Test);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    fn test_flag_for(src: &str, ident: &str) -> bool {
        let lexed = lex(src);
        let flags = mark_cfg_test(&lexed.tokens);
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident(ident))
            .expect("ident present");
        flags[idx]
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn gated() { x.unwrap(); } }\n";
        assert!(!test_flag_for(src, "live"));
        assert!(test_flag_for(src, "gated"));
        assert!(test_flag_for(src, "unwrap"));
    }

    #[test]
    fn cfg_test_with_extra_attributes_and_composites() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nfn gated() { inner(); }\nfn live() {}\n";
        assert!(test_flag_for(src, "inner"));
        assert!(!test_flag_for(src, "live"));
    }

    #[test]
    fn non_test_cfg_is_not_marked() {
        let src = "#[cfg(feature = \"serde\")]\nfn live() { body(); }\n";
        assert!(!test_flag_for(src, "body"));
    }

    #[test]
    fn fn_spans_are_brace_matched_and_include_the_signature() {
        let lexed = lex("fn a(m: Map) { if x { y(); } }\nfn b(v: Vec<u8>) -> usize { v.len() }\n");
        let spans = find_fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 2);
        let span = spans[0];
        assert!(lexed.tokens[span.start].is_ident("fn"));
        assert!(lexed.tokens[span.open].is_punct('{'));
        assert!(lexed.tokens[span.close].is_punct('}'));
        // The signature type and the nested block both belong to fn a.
        let m = lexed.tokens.iter().position(|t| t.is_ident("Map")).unwrap();
        let y = lexed.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert!(span.start < m && m < span.open);
        assert!(span.open < y && y < span.close);
    }
}
