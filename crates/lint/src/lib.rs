//! # autoscale-lint
//!
//! Determinism & robustness static analysis for the AutoScale
//! workspace — the "Analysis layer" of DESIGN.md.
//!
//! The workspace's load-bearing guarantee is that every sweep and every
//! serve fleet is **bit-identical for any thread/shard count**: all
//! randomness derives from explicit seeds ([`cell_seed`]-style mixing)
//! and all reports are pure functions of specs and seeds, fingerprinted
//! by FNV-1a trace digests. That invariant is easy to break silently —
//! one stray `Instant::now()` in a report path, one entropy-seeded RNG,
//! one `HashMap` iteration feeding a digest — and tests can miss all
//! three. This crate enforces the invariant mechanically, as a blocking
//! CI step.
//!
//! ## How it works
//!
//! 1. [`lexer`] tokenizes every workspace `.rs` file with a small
//!    hand-written lexer that correctly skips string literals, char
//!    literals, and nested block comments — so rules can never fire on
//!    text inside a string or a comment.
//! 2. [`context`] classifies each file by path (library, binary,
//!    example, test, bench) and marks `#[cfg(test)]` token regions and
//!    function-body spans.
//! 3. [`rules`] runs the token-pattern rules (see [`rules::Rule`]) and
//!    filters findings through `// lint:allow(<rule>)` suppressions.
//! 4. [`report`] renders the findings as terminal lines or stable JSON
//!    (`results/lint_baseline.json` is one such document).
//!
//! The crate is std-only and dependency-free on purpose: the analyzer
//! must keep working when anything else in the tree is broken, and it
//! must not be able to perturb what it measures.
//!
//! [`cell_seed`]: https://docs.rs/autoscale

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod explain;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{PassTimings, Report};
pub use rules::{analyze_file, Finding, Rule};

use crate::context::{classify, FileContext};

/// Runs the whole pipeline (lexing, file contexts, per-file rules and
/// suppressions) over in-memory `(path, source)` pairs.
///
/// [`analyze_workspace`] feeds it the workspace read from disk, and
/// [`analyze_file`] a single in-memory file.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Report {
    let mut timings = PassTimings::default();
    let t = pass_clock();
    let files: Vec<(String, lexer::LexedFile)> = sources
        .into_iter()
        .map(|(rel, source)| (rel, lexer::lex(&source)))
        .collect();
    let contexts: Vec<FileContext> = files
        .iter()
        .map(|(rel, lexed)| FileContext::build(classify(rel), lexed))
        .collect();
    timings.lex_ms = millis_between(t, pass_clock());

    let t = pass_clock();
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for (i, (rel, lexed)) in files.iter().enumerate() {
        let sup = rules::Suppressions::parse(&lexed.comments, &lexed.tokens);
        for f in rules::per_file_findings(rel, lexed, &contexts[i]) {
            if sup.allows(f.line, f.rule) {
                suppressed.push(f);
            } else {
                findings.push(f);
            }
        }
        rules::push_unknown_rule_findings(rel, &sup, &mut findings);
    }
    timings.rules_ms = millis_between(t, pass_clock());

    let mut report = Report::with_details(findings, suppressed, files.len());
    report.timings = Some(timings);
    report
}

/// Reads the pass timer. Quarantines the analyzer's one wall-clock
/// read: timings are diagnostics for the CI budget, never folded into
/// findings, digests, or baselines.
fn pass_clock() -> std::time::Instant {
    // lint:allow(nondeterministic-time): pass timings are diagnostics, stripped from baselines
    std::time::Instant::now()
}

/// Elapsed milliseconds between two pass-clock reads.
fn millis_between(start: std::time::Instant, end: std::time::Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// Analyzes every workspace source file under `root` and returns the
/// aggregated report.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn analyze_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    let files = walk::workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), source));
    }
    Ok(analyze_sources(sources))
}
