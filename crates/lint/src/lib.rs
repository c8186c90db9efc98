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
//! 4. [`callgraph`] builds a conservative workspace call graph on top
//!    of the same token streams, and [`streams`] checks RNG stream
//!    discipline over it (seed derivation, draw-count interval analysis
//!    over per-request paths).
//! 5. [`report`] renders the findings as terminal lines or stable JSON
//!    (`results/lint_baseline.json` is one such document).
//!
//! The crate is std-only and dependency-free on purpose: the analyzer
//! must keep working when anything else in the tree is broken, and it
//! must not be able to perturb what it measures.
//!
//! [`cell_seed`]: https://docs.rs/autoscale

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod context;
pub mod explain;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod streams;
pub mod walk;

pub use report::{AnalysisStats, PassTimings, Report};
pub use rules::{analyze_file, Finding, Rule};

use crate::context::{classify, FileContext};

/// A full workspace analysis: the report plus the artifacts behind it,
/// so callers (the CLI's `--graph-out`, tests) can inspect the graph.
#[derive(Debug)]
pub struct Analysis {
    /// Findings, suppressions, and coverage stats.
    pub report: Report,
    /// The workspace call graph the stream pass ran on.
    pub graph: callgraph::CallGraph,
    /// Workspace-relative paths, in the order the graph's `file`
    /// indices reference them.
    pub files: Vec<String>,
}

/// Runs the whole pipeline — per-file rules, call graph, stream
/// discipline — over in-memory `(path, source)` pairs.
///
/// This is the substitution point the sabotage tests use: read the real
/// workspace, swap one file's source for a doctored version, and assert
/// the defect is caught.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Analysis {
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
    let graph = callgraph::CallGraph::build(&files, &contexts);
    timings.callgraph_ms = millis_between(t, pass_clock());
    let t = pass_clock();
    let streamed = streams::analyze(&files, &contexts, &graph);
    timings.streams_ms = millis_between(t, pass_clock());

    // Global (interprocedural) findings, grouped by file so each file's
    // suppressions can waive them alongside the per-file rules.
    let global = streamed.findings;

    let t = pass_clock();
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for (i, (rel, lexed)) in files.iter().enumerate() {
        let sup = rules::Suppressions::parse(&lexed.comments, &lexed.tokens);
        let mut raw = rules::per_file_findings(rel, lexed, &contexts[i]);
        raw.extend(global.iter().filter(|f| &f.file == rel).cloned());
        for f in raw {
            if sup.allows(f.line, f.rule) {
                suppressed.push(f);
            } else {
                findings.push(f);
            }
        }
        rules::push_unknown_rule_findings(rel, &sup, &mut findings);
    }
    timings.rules_ms = millis_between(t, pass_clock());

    let analysis = AnalysisStats {
        functions: graph.defs.len(),
        call_edges: graph.edge_count(),
        unresolved_calls: graph.unresolved_calls().count(),
        stream_checked: streamed.checked.iter().filter(|&&c| c).count(),
    };
    let mut report = Report::with_details(findings, suppressed, files.len(), analysis);
    report.timings = Some(timings);
    Analysis {
        report,
        graph,
        files: files.into_iter().map(|(rel, _)| rel).collect(),
    }
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

/// Reads every workspace source file under `root` into memory as
/// `(workspace-relative path, source)` pairs, in walk order.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn read_workspace_sources(root: &std::path::Path) -> std::io::Result<Vec<(String, String)>> {
    let files = walk::workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), source));
    }
    Ok(sources)
}

/// Analyzes every workspace source file under `root` and returns the
/// full [`Analysis`] (report + call graph).
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn analyze_workspace_full(root: &std::path::Path) -> std::io::Result<Analysis> {
    Ok(analyze_sources(read_workspace_sources(root)?))
}

/// Analyzes every workspace source file under `root` and returns the
/// aggregated report.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn analyze_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    Ok(analyze_workspace_full(root)?.report)
}
