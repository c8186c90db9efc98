//! The rule engine: determinism & robustness rules over the token
//! stream, with per-statement suppression.
//!
//! ## Suppression
//!
//! Any finding can be waived with an annotation naming its rule:
//!
//! ```text
//! let t0 = Instant::now(); // lint:allow(nondeterministic-time): wall-clock stays outside digests
//! ```
//!
//! The annotation may trail the offending line or stand alone on the
//! line directly above it. A standalone annotation covers the **full
//! statement** that starts on the next line — a multi-line initializer
//! is covered to its `;`; an item (`fn`, `impl`, `match`, …) is covered
//! only to its opening `{`, so a single annotation can never blanket a
//! whole body. Everything after an optional `:` is a free-form
//! justification; several rules may be listed, comma-separated.
//! Suppressions are deliberate, reviewable diffs — the goal is that a
//! waiver is visible in the same hunk as the code it excuses.

use std::collections::BTreeMap;

use crate::context::{matching_close, FileClass, FileContext};
use crate::lexer::{Comment, LexedFile, Token, TokenKind};

/// The analyzer's rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in library code.
    NondeterministicTime,
    /// RNG construction not derived from an explicit seed
    /// (`thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`, …).
    NondeterministicRng,
    /// `HashMap`/`HashSet` iteration in a function that also touches
    /// digests, serialization, or `SessionReport`.
    UnorderedIteration,
    /// `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in non-test library code.
    PanicInLib,
    /// `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` outside
    /// binaries, examples, and benchmarks.
    PrintInLib,
    /// An RNG constructed from a literal or ad-hoc value instead of the
    /// `cell_seed`/`seeded_rng` derivation discipline.
    UnderivedRngStream,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 6] = [
        Rule::NondeterministicTime,
        Rule::NondeterministicRng,
        Rule::UnorderedIteration,
        Rule::PanicInLib,
        Rule::PrintInLib,
        Rule::UnderivedRngStream,
    ];

    /// The rule's kebab-case name — what `lint:allow(…)` takes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicTime => "nondeterministic-time",
            Rule::NondeterministicRng => "nondeterministic-rng",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::PanicInLib => "panic-in-lib",
            Rule::PrintInLib => "print-in-lib",
            Rule::UnderivedRngStream => "underived-rng-stream",
        }
    }

    /// Resolves a rule from its kebab-case name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description, shown by `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::NondeterministicTime => {
                "wall-clock reads (Instant::now / SystemTime) in library code; \
                 time is allowed only in benches and binaries, or quarantined \
                 behind an annotated helper"
            }
            Rule::NondeterministicRng => {
                "RNG construction that is not derived from an explicit seed \
                 (thread_rng, from_entropy, from_os_rng, OsRng, rand::random)"
            }
            Rule::UnorderedIteration => {
                "HashMap/HashSet iteration inside a function that also touches \
                 digests, serialization, or SessionReport — iteration order \
                 would leak into supposedly deterministic output"
            }
            Rule::PanicInLib => {
                "unwrap/expect/panic!/unreachable! in non-test library code; \
                 return a Result or annotate the provably-infallible case"
            }
            Rule::PrintInLib => "println!/eprintln!/dbg! outside binaries, examples and benches",
            Rule::UnderivedRngStream => {
                "RNG seeded from a literal or ad-hoc expression instead of the \
                 cell_seed/seeded_rng derivation discipline — every stream must \
                 trace back to (base_seed, cell index, stream index)"
            }
        }
    }
}

/// One confirmed finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// What was matched, phrased for a human.
    pub message: String,
}

/// Per-line suppressions parsed from `lint:allow(…)` comments.
#[derive(Debug, Default)]
pub(crate) struct Suppressions {
    /// line → rules allowed on that line.
    by_line: BTreeMap<u32, Vec<Rule>>,
    /// Rule names that did not resolve, with the line of the annotation
    /// — surfaced as analyzer errors so typos cannot silently waive.
    unknown: Vec<(u32, String)>,
}

impl Suppressions {
    pub(crate) fn parse(comments: &[Comment], tokens: &[Token]) -> Self {
        let mut out = Suppressions::default();
        for comment in comments {
            // Doc comments talk *about* the annotation syntax; only
            // regular comments carry live directives.
            if is_doc_comment(&comment.text) {
                continue;
            }
            let mut rest = comment.text.as_str();
            while let Some(at) = rest.find("lint:allow(") {
                rest = &rest[at + "lint:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                for name in rest[..close].split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    match Rule::from_name(name) {
                        Some(rule) => out.cover(comment, tokens, rule),
                        None => out.unknown.push((comment.line, name.to_string())),
                    }
                }
                rest = &rest[close..];
            }
        }
        out
    }

    fn cover(&mut self, comment: &Comment, tokens: &[Token], rule: Rule) {
        for line in coverage_span(comment, tokens) {
            self.by_line.entry(line).or_default().push(rule);
        }
    }

    pub(crate) fn allows(&self, line: u32, rule: Rule) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    }

    pub(crate) fn unknown(&self) -> &[(u32, String)] {
        &self.unknown
    }
}

fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// The lines a directive comment covers: its own line(s), plus — for a
/// standalone comment — the full span of the statement that starts on
/// the very next line.
fn coverage_span(comment: &Comment, tokens: &[Token]) -> std::ops::RangeInclusive<u32> {
    if !comment.owns_line {
        return comment.line..=comment.end_line;
    }
    let next = comment.end_line + 1;
    let Some(start) = tokens.iter().position(|t| t.line >= next) else {
        return comment.line..=comment.end_line;
    };
    if tokens[start].line != next {
        // The comment does not directly precede code (blank line or end
        // of file): it covers nothing beyond itself.
        return comment.line..=comment.end_line;
    }
    comment.line..=statement_end_line(tokens, start)
}

/// Keywords that open an item or block statement: coverage stops at
/// their `{` so one annotation can never waive a whole body.
const STATEMENT_HEADS: [&str; 17] = [
    "fn",
    "impl",
    "mod",
    "struct",
    "enum",
    "trait",
    "union",
    "pub",
    "if",
    "match",
    "for",
    "while",
    "loop",
    "unsafe",
    "else",
    "macro_rules",
    "extern",
];

/// The line on which the statement starting at `tokens[start]` ends:
/// the first `;` at delimiter depth 0 for expression statements, the
/// opening `{` for item/block heads, or the enclosing close brace for
/// tail expressions.
fn statement_end_line(tokens: &[Token], start: usize) -> u32 {
    let head = &tokens[start];
    let item_like = head.is_punct('#')
        || (head.kind == TokenKind::Ident && STATEMENT_HEADS.contains(&head.text.as_str()));
    let mut depth = 0i32;
    let mut last = head.line;
    for t in &tokens[start..] {
        last = t.line;
        if let TokenKind::Punct(c) = t.kind {
            match c {
                '{' if item_like && depth == 0 => return t.line,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        // Fell out of the enclosing block: the covered
                        // statement was a tail expression.
                        return last;
                    }
                    depth -= 1;
                }
                ';' if depth == 0 => return t.line,
                _ => {}
            }
        }
    }
    last
}

/// Analyzes one file in isolation.
///
/// `rel_path` must be workspace-relative: rule applicability is decided
/// from it (see [`crate::context::classify`]).
pub fn analyze_file(rel_path: &str, source: &str) -> Vec<Finding> {
    crate::analyze_sources(vec![(rel_path.to_string(), source.to_string())]).findings
}

/// Runs the per-file rules and returns their raw, unsuppressed
/// findings. The caller owns suppression filtering, so the
/// workspace pipeline can report waived findings separately.
pub(crate) fn per_file_findings(
    rel_path: &str,
    lexed: &LexedFile,
    ctx: &FileContext,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_time(rel_path, lexed, ctx, &mut findings);
    check_rng(rel_path, lexed, &mut findings);
    check_unordered_iteration(rel_path, lexed, ctx, &mut findings);
    check_panic(rel_path, lexed, ctx, &mut findings);
    check_print(rel_path, lexed, ctx, &mut findings);
    check_underived(rel_path, lexed, ctx, &mut findings);
    findings
}

/// An unresolvable rule name inside `lint:allow(…)` is itself a
/// finding: a typo there would silently waive nothing.
pub(crate) fn push_unknown_rule_findings(
    rel_path: &str,
    suppressions: &Suppressions,
    findings: &mut Vec<Finding>,
) {
    for (line, name) in suppressions.unknown() {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: *line,
            rule: Rule::PanicInLib,
            message: format!(
                "unknown rule `{name}` in lint:allow — a typo here would silently waive nothing"
            ),
        });
    }
}

/// `tokens[i..]` starts the ident path `a :: b`.
fn ident_path2(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    tokens[i].is_ident(a)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(b))
}

fn check_time(path: &str, lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Lib {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if ident_path2(&lexed.tokens, i, "Instant", "now") {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::NondeterministicTime,
                message: "`Instant::now()` reads the wall clock in library code".to_string(),
            });
        } else if t.is_ident("SystemTime") {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::NondeterministicTime,
                message: "`SystemTime` brings wall-clock state into library code".to_string(),
            });
        }
    }
}

/// Identifiers that construct an entropy-seeded (non-reproducible) RNG.
const ENTROPY_RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
];

fn check_rng(path: &str, lexed: &LexedFile, out: &mut Vec<Finding>) {
    // Applies to *every* class and even to test code: the workspace's
    // whole premise is seed-derived reproducibility, and a stray
    // entropy-seeded stream in a bench or test is exactly the bug the
    // digest assertions cannot localize.
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let entropy = ENTROPY_RNG_IDENTS.contains(&t.text.as_str());
        let rand_random = ident_path2(&lexed.tokens, i, "rand", "random");
        if entropy || rand_random {
            let what = if rand_random { "rand::random" } else { &t.text };
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::NondeterministicRng,
                message: format!(
                    "`{what}` constructs an entropy-seeded RNG; derive every stream from an \
                     explicit seed (see `autoscale::seeded_rng` / `cell_seed`)"
                ),
            });
        }
    }
}

/// Identifiers that mark a function as feeding deterministic output:
/// digest arithmetic, serde serialization, or the session report.
const SENSITIVE_IDENTS: [&str; 7] = [
    "digest",
    "trace_digest",
    "fnv1a_fold",
    "fnv1a_start",
    "serialize",
    "to_value",
    "SessionReport",
];

/// Method names whose call iterates a collection.
const ITERATION_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

fn check_unordered_iteration(
    path: &str,
    lexed: &LexedFile,
    ctx: &FileContext,
    out: &mut Vec<Finding>,
) {
    if !matches!(ctx.class, FileClass::Lib | FileClass::Bin) {
        return;
    }
    for span in &ctx.fn_spans {
        if ctx.in_test[span.start] {
            continue;
        }
        // The whole span (signature + body): a `&HashMap<…>` parameter
        // marks the function even though the type never recurs inside.
        let tokens = &lexed.tokens[span.start..=span.close];
        let unordered = tokens
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
        let sensitive = tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && SENSITIVE_IDENTS.contains(&t.text.as_str()));
        if !(unordered && sensitive) {
            continue;
        }
        for (k, t) in tokens.iter().enumerate() {
            let is_call = k > 0
                && tokens[k - 1].is_punct('.')
                && t.kind == TokenKind::Ident
                && ITERATION_METHODS.contains(&t.text.as_str())
                && tokens.get(k + 1).is_some_and(|n| n.is_punct('('));
            if is_call {
                out.push(Finding {
                    file: path.to_string(),
                    line: t.line,
                    rule: Rule::UnorderedIteration,
                    message: format!(
                        "`.{}()` in a function that uses HashMap/HashSet and feeds \
                         digests/serialization — iteration order is not deterministic; \
                         use BTreeMap/BTreeSet or sort first",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Macro names that abort in library code.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_panic(path: &str, lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Lib {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = i > 0
            && lexed.tokens[i - 1].is_punct('.')
            && (t.text == "unwrap" || t.text == "expect")
            && lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let macro_call = PANIC_MACROS.contains(&t.text.as_str())
            && lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method_call {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::PanicInLib,
                message: format!(
                    "`.{}()` can abort library code; return a Result or annotate why it cannot fail",
                    t.text
                ),
            });
        } else if macro_call {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::PanicInLib,
                message: format!(
                    "`{}!` aborts library code; return a Result or annotate why it is unreachable",
                    t.text
                ),
            });
        }
    }
}

/// Print-family macros.
const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

fn check_print(path: &str, lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.class != FileClass::Lib {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if PRINT_MACROS.contains(&t.text.as_str())
            && lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::PrintInLib,
                message: format!(
                    "`{}!` writes to stdio from library code; report through return values \
                     and let binaries do the printing",
                    t.text
                ),
            });
        }
    }
}

/// Flags RNG constructions whose seed argument shows no sign of the
/// workspace derivation discipline (no `*seed*` ident in the argument).
fn check_underived(path: &str, lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Lib | FileClass::Bin) {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text != "seed_from_u64" && t.text != "from_seed" {
            continue;
        }
        // `fn seed_from_u64(…)` is a definition, not a construction.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_close(tokens, i + 1, ('(', ')')) else {
            continue;
        };
        let derived = tokens[i + 2..close]
            .iter()
            .any(|a| a.kind == TokenKind::Ident && a.text.to_lowercase().contains("seed"));
        if !derived {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::UnderivedRngStream,
                message: format!(
                    "`{}(…)` constructs an RNG stream outside the seed-derivation discipline; \
                     derive the seed via `cell_seed`/`seeded_rng` (or pass a `*seed*`-named \
                     value) or waive with lint:allow(underived-rng-stream): <why>",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        analyze_file(path, src)
            .into_iter()
            .map(|f| (f.line, f.rule.name()))
            .collect()
    }

    #[test]
    fn time_fires_only_in_lib_code() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_hit(LIB, src), vec![(1, "nondeterministic-time")]);
        assert!(rules_hit("crates/bench/src/lib.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/bin/cli.rs", src).is_empty());
    }

    #[test]
    fn rng_fires_everywhere_including_tests() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let r = thread_rng(); } }\n";
        assert_eq!(rules_hit(LIB, src), vec![(2, "nondeterministic-rng")]);
        assert_eq!(
            rules_hit("crates/bench/src/bin/fig9.rs", src),
            vec![(2, "nondeterministic-rng")]
        );
    }

    #[test]
    fn panic_skips_tests_and_bins() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u8>) { x.unwrap(); } }\n";
        assert_eq!(rules_hit(LIB, src), vec![(1, "panic-in-lib")]);
        assert!(rules_hit("crates/core/src/bin/cli.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn unordered_iteration_needs_both_halves() {
        let iter_only = "fn f(m: &HashMap<u8, u8>) -> usize { m.keys().count() }\n";
        assert!(rules_hit(LIB, iter_only).is_empty());
        let both = "fn f(m: &HashMap<u8, u8>, mut digest: u64) -> u64 {\n\
                    for k in m.keys() { digest = fnv1a_fold(digest, *k as u64); }\n digest }\n";
        let hits = rules_hit(LIB, both);
        assert_eq!(hits, vec![(2, "unordered-iteration")]);
    }

    #[test]
    fn vec_iteration_near_digests_is_fine() {
        let src = "fn f(v: &[u64], mut digest: u64) -> u64 {\n\
                   for k in v.iter() { digest = fnv1a_fold(digest, *k); }\n digest }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn suppression_works_trailing_and_above() {
        let trailing =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(panic-in-lib): infallible\n";
        assert!(rules_hit(LIB, trailing).is_empty());
        let above =
            "// lint:allow(panic-in-lib): infallible\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(rules_hit(LIB, above).is_empty());
        let wrong_rule = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(print-in-lib)\n";
        assert_eq!(rules_hit(LIB, wrong_rule), vec![(1, "panic-in-lib")]);
    }

    #[test]
    fn unknown_suppressed_rule_is_itself_a_finding() {
        let src = "fn f() {} // lint:allow(panic-in-libz)\n";
        let findings = analyze_file(LIB, src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn doc_comments_carry_no_directives() {
        // Docs may *describe* the syntax without suppressing anything or
        // tripping the unknown-rule check.
        let src = "/// Waive with `lint:allow(<rule>)` or lint:allow(panic-in-lib).\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_hit(LIB, src), vec![(2, "panic-in-lib")]);
    }

    #[test]
    fn print_allows_bins_and_benches() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert_eq!(rules_hit(LIB, src), vec![(1, "print-in-lib")]);
        assert!(rules_hit("crates/bench/src/lib.rs", src).is_empty());
        assert!(rules_hit("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn literal_seeds_are_underived_and_named_seeds_are_fine() {
        let src = "fn fresh() -> StdRng { StdRng::seed_from_u64(42) }\n\
                   fn derived(cell_seed: u64) -> StdRng { StdRng::seed_from_u64(cell_seed) }\n";
        assert_eq!(rules_hit(LIB, src), vec![(1, "underived-rng-stream")]);
        // Tests may pin literal seeds freely.
        let test_src = "#[cfg(test)]\nmod t { fn f() -> StdRng { StdRng::seed_from_u64(7) } }\n";
        assert!(rules_hit(LIB, test_src).is_empty());
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn standalone_suppression_covers_the_whole_statement() {
        // The annotated statement wraps over three lines; the waiver
        // must reach the `.unwrap()` on the last of them.
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // lint:allow(panic-in-lib): checked by caller\n\
                   let v = x\n\
                       .map(|v| v + 1)\n\
                       .unwrap();\n\
                   v }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn standalone_suppression_stops_at_an_item_brace() {
        // An annotation above `fn` covers the signature, not the body:
        // blanket whole-function waivers stay impossible.
        let src = "// lint:allow(panic-in-lib)\n\
                   fn f(x: Option<u8>) -> u8 {\n\
                       x.unwrap()\n\
                   }\n";
        assert_eq!(rules_hit(LIB, src), vec![(3, "panic-in-lib")]);
    }

    #[test]
    fn suppression_after_blank_line_covers_nothing_below() {
        let src = "// lint:allow(panic-in-lib)\n\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_hit(LIB, src), vec![(3, "panic-in-lib")]);
    }

    #[test]
    fn standalone_suppression_covers_a_tail_expression() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // lint:allow(panic-in-lib): caller guarantees Some\n\
                   x.unwrap()\n\
                   }\n";
        assert!(rules_hit(LIB, src).is_empty());
    }
}
