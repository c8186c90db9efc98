//! Golden-fixture self-tests for the analyzer, plus workspace-level
//! gates: the live tree must be lint-clean, and a deliberately
//! injected entropy-seeded RNG must be caught.

use std::fs;
use std::path::{Path, PathBuf};

use autoscale_lint::rules::{analyze_file, Rule};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The virtual workspace path a fixture declares on its first line.
fn fixture_path(source: &str, file: &Path) -> String {
    let first = source.lines().next().unwrap_or_default();
    first
        .strip_prefix("// lint-fixture-path: ")
        .unwrap_or_else(|| panic!("{} must declare `// lint-fixture-path: …`", file.display()))
        .trim()
        .to_string()
}

#[test]
fn every_fixture_matches_its_expected_findings() {
    let mut checked = 0;
    let mut entries: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for fixture in entries {
        let source = fs::read_to_string(&fixture).expect("fixture is readable");
        let virtual_path = fixture_path(&source, &fixture);
        let got: Vec<String> = analyze_file(&virtual_path, &source)
            .into_iter()
            .map(|f| format!("{}:{}", f.line, f.rule.name()))
            .collect();
        let expected_file = fixture.with_extension("expected");
        let expected_text = fs::read_to_string(&expected_file)
            .unwrap_or_else(|_| panic!("{} needs {}", fixture.display(), expected_file.display()));
        let want: Vec<String> = expected_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        assert_eq!(
            got,
            want,
            "fixture {} (as {})",
            fixture.display(),
            virtual_path
        );
        checked += 1;
    }
    assert!(
        checked >= 7,
        "expected at least 7 fixtures, found {checked}"
    );
}

#[test]
fn the_lexer_token_stream_matches_its_golden_dump() {
    // Edge cases the rules depend on: raw identifiers and raw lifetimes
    // lex as their escaped name, float shapes keep exact text, `>>` is
    // two adjacent `>` tokens (context decides shift vs generic),
    // `'a` vs `'a'` resolve to lifetime vs literal, and doubly-nested
    // block comments close where they should.
    // Regenerate the dump with LEX_GOLDEN_REGEN=1.
    use autoscale_lint::lexer::{lex, TokenKind};
    let dir = fixtures_dir().join("lexer");
    let source = fs::read_to_string(dir.join("edge.rs")).expect("lexer fixture is readable");
    let got: Vec<String> = lex(&source)
        .tokens
        .iter()
        .map(|t| {
            let kind = match t.kind {
                TokenKind::Ident => "ident",
                TokenKind::Literal => "lit",
                TokenKind::Lifetime => "life",
                TokenKind::Punct(_) => "punct",
            };
            format!("{}:{}:{}", t.line, kind, t.text)
        })
        .collect();
    if std::env::var_os("LEX_GOLDEN_REGEN").is_some() {
        fs::write(dir.join("edge.tokens"), got.join("\n") + "\n").expect("dump is writable");
        return;
    }
    let want: Vec<String> = fs::read_to_string(dir.join("edge.tokens"))
        .expect("golden token dump exists")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(got, want, "token stream drifted from its golden dump");
}

#[test]
fn the_live_workspace_is_lint_clean() {
    let report =
        autoscale_lint::analyze_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "the tree must stay lint-clean; findings:\n{}",
        report.render_human()
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}

#[test]
fn an_injected_thread_rng_in_the_policy_is_caught() {
    // The acceptance check from the issue: sabotaging the epsilon-greedy
    // policy with an entropy-seeded RNG must flip the analyzer to red
    // with rule `nondeterministic-rng`.
    let policy_path = workspace_root().join("crates/rl/src/policy.rs");
    let pristine = fs::read_to_string(policy_path).expect("policy source is readable");
    assert!(
        analyze_file("crates/rl/src/policy.rs", &pristine).is_empty(),
        "the pristine policy must be clean"
    );
    let sabotaged = format!(
        "{pristine}\npub fn sabotage() -> f64 {{\n    let mut rng = rand::thread_rng();\n    rng.gen()\n}}\n"
    );
    let findings = analyze_file("crates/rl/src/policy.rs", &sabotaged);
    assert!(
        findings.iter().any(|f| f.rule == Rule::NondeterministicRng),
        "thread_rng must be flagged; got {findings:?}"
    );
}
