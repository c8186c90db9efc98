//! Rendering a lint run: human-readable lines for terminals and a
//! stable JSON document for baselines and tooling.
//!
//! The JSON is hand-rolled (this crate is std-only by design) and
//! field-ordered deterministically, so `results/lint_baseline.json`
//! diffs cleanly across PRs.

use std::collections::BTreeMap;

use crate::rules::{Finding, Rule};

/// Wall-clock cost of each analyzer pass, in milliseconds. Carried on
/// the report only when `--timings` asks for it, and always stripped
/// before a baseline is written — baselines must stay byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassTimings {
    /// Lexing every file.
    pub lex_ms: f64,
    /// The per-file token rules and suppression filtering.
    pub rules_ms: f64,
}

impl PassTimings {
    /// Total across all passes.
    pub fn total_ms(&self) -> f64 {
        self.lex_ms + self.rules_ms
    }
}

/// The outcome of analyzing a set of files.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every unsuppressed finding, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings waived by `lint:allow`, same order.
    /// Kept visible so waivers are auditable from the JSON report and
    /// so the baseline diff can tell "fixed" from "silenced".
    pub suppressed: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Per-pass wall-clock timings; `None` unless `--timings` asked for
    /// them (and always `None` in baselines).
    pub timings: Option<PassTimings>,
}

impl Report {
    /// Builds a report, normalizing finding order.
    pub fn new(findings: Vec<Finding>, files_scanned: usize) -> Self {
        Report::with_details(findings, Vec::new(), files_scanned)
    }

    /// Builds a report that also carries suppressed findings.
    pub fn with_details(
        mut findings: Vec<Finding>,
        mut suppressed: Vec<Finding>,
        files_scanned: usize,
    ) -> Self {
        let order = |list: &mut Vec<Finding>| {
            list.sort_by(|a: &Finding, b: &Finding| {
                (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
            });
            list.dedup();
        };
        order(&mut findings);
        order(&mut suppressed);
        Report {
            findings,
            suppressed,
            files_scanned,
            timings: None,
        }
    }

    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts per rule, every rule present (zero included) so
    /// baseline diffs show rule additions explicitly.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            Rule::ALL.iter().map(|r| (r.name(), 0)).collect();
        for f in &self.findings {
            if let Some(n) = counts.get_mut(f.rule.name()) {
                *n += 1;
            }
        }
        counts
    }

    /// Terminal rendering: one `file:line: [rule] message` per finding,
    /// then a per-rule summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file,
                f.line,
                f.rule.name(),
                f.message
            ));
        }
        let per_rule: Vec<String> = self
            .counts()
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(name, n)| format!("{name}: {n}"))
            .collect();
        let waived = if self.suppressed.is_empty() {
            String::new()
        } else {
            format!(" ({} waived)", self.suppressed.len())
        };
        if self.is_clean() {
            out.push_str(&format!(
                "autoscale-lint: clean — 0 findings{waived} across {} files\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "autoscale-lint: {} finding{} ({}){waived} across {} files\n",
                self.findings.len(),
                if self.findings.len() == 1 { "" } else { "s" },
                per_rule.join(", "),
                self.files_scanned
            ));
        }
        if let Some(t) = &self.timings {
            out.push_str(&format!(
                "timings: lex {:.1} ms, rules {:.1} ms (total {:.1} ms)\n",
                t.lex_ms,
                t.rules_ms,
                t.total_ms()
            ));
        }
        out
    }

    /// JSON rendering with stable field and entry order.
    ///
    /// `findings` comes first and `suppressed` second — baseline
    /// parsing relies on that order to take entries only from the
    /// former (see [`parse_baseline`]).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        render_finding_array(&mut out, &self.findings);
        out.push_str("],\n  \"suppressed\": [");
        render_finding_array(&mut out, &self.suppressed);
        out.push_str("],\n  \"counts\": {");
        for (i, (name, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {n}"));
        }
        out.push_str("\n  },");
        if let Some(t) = &self.timings {
            out.push_str(&format!(
                "\n  \"timings\": {{\"lex_ms\": {:.2}, \"rules_ms\": {:.2}, \"total_ms\": {:.2}}},",
                t.lex_ms,
                t.rules_ms,
                t.total_ms()
            ));
        }
        out.push_str(&format!(
            "\n  \"total\": {},\n  \"files_scanned\": {}\n}}\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }
}

fn render_finding_array(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.name(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
}

/// One baseline entry: the identity of a previously-accepted finding.
/// Messages are deliberately not part of the identity — rewording a
/// diagnostic must not break the baseline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (kept as text so baselines survive rule renames as
    /// explicit diffs rather than parse errors).
    pub rule: String,
}

impl BaselineEntry {
    fn of(f: &Finding) -> BaselineEntry {
        BaselineEntry {
            file: f.file.clone(),
            line: f.line,
            rule: f.rule.name().to_string(),
        }
    }
}

/// The comparison of a fresh run against a committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineDiff {
    /// Findings not present in the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Baseline entries no longer reported — fixed (or moved); they
    /// never fail the run, but the baseline should be regenerated.
    pub fixed: Vec<BaselineEntry>,
}

/// Parses the analyzer's own JSON format (see [`Report::render_json`])
/// back into baseline entries. This is not a general JSON parser: it
/// reads the one-object-per-line layout this crate writes, which is
/// exactly what a committed `results/lint_baseline.json` contains.
///
/// # Errors
///
/// Returns a message when the document has no `"findings"` key or an
/// entry line is missing one of `file`/`line`/`rule`.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    if !text.contains("\"findings\"") {
        return Err("not a lint report: no \"findings\" key".to_string());
    }
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        // Entry lines after the `"suppressed"` key describe waived
        // findings; those never belong in a baseline.
        if line.starts_with("\"suppressed\"") {
            break;
        }
        let Some(rest) = line.strip_prefix('{') else {
            continue;
        };
        if !rest.trim_start().starts_with("\"file\"") {
            continue;
        }
        let file = json_str_field(line, "file")
            .ok_or_else(|| format!("baseline entry without a file: {line}"))?;
        let lineno = json_num_field(line, "line")
            .ok_or_else(|| format!("baseline entry without a line: {line}"))?;
        let rule = json_str_field(line, "rule")
            .ok_or_else(|| format!("baseline entry without a rule: {line}"))?;
        entries.push(BaselineEntry {
            file,
            line: lineno,
            rule,
        });
    }
    entries.sort();
    entries.dedup();
    Ok(entries)
}

/// Extracts `"key": "value"` from a single-line JSON object, undoing
/// the escapes [`json_escape`] writes.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    // \uXXXX — baseline identities never need these;
                    // keep the escape verbatim.
                    out.push_str("\\u");
                }
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts `"key": 123` from a single-line JSON object.
fn json_num_field(line: &str, key: &str) -> Option<u32> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

impl Report {
    /// Splits this run's findings against a baseline: what is new
    /// (fails) and what the baseline lists but the run no longer
    /// reports (fixed).
    pub fn against_baseline(&self, baseline: &[BaselineEntry]) -> BaselineDiff {
        let current: Vec<BaselineEntry> = self.findings.iter().map(BaselineEntry::of).collect();
        let waived: Vec<BaselineEntry> = self.suppressed.iter().map(BaselineEntry::of).collect();
        let new = self
            .findings
            .iter()
            .filter(|f| !baseline.contains(&BaselineEntry::of(f)))
            .cloned()
            .collect();
        // A baseline entry that is now *suppressed* was silenced, not
        // fixed — claiming it fixed would invite a baseline regen that
        // hides the waiver.
        let fixed = baseline
            .iter()
            .filter(|e| !current.contains(e) && !waived.contains(e))
            .cloned()
            .collect();
        BaselineDiff { new, fixed }
    }
}

/// Escapes a string for a JSON double-quoted context.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: Rule) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: "msg with \"quotes\"".to_string(),
        }
    }

    #[test]
    fn findings_are_ordered_and_counted() {
        let report = Report::new(
            vec![
                finding("b.rs", 3, Rule::PanicInLib),
                finding("a.rs", 9, Rule::NondeterministicRng),
                finding("a.rs", 2, Rule::PanicInLib),
            ],
            5,
        );
        let order: Vec<(&str, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line))
            .collect();
        assert_eq!(order, vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 3)]);
        assert_eq!(report.counts()["panic-in-lib"], 2);
        assert_eq!(report.counts()["nondeterministic-rng"], 1);
        assert_eq!(report.counts()["print-in-lib"], 0);
    }

    #[test]
    fn human_rendering_summarizes() {
        let report = Report::new(vec![finding("a.rs", 1, Rule::PrintInLib)], 2);
        let text = report.render_human();
        assert!(text.contains("a.rs:1: [print-in-lib]"));
        assert!(text.contains("1 finding (print-in-lib: 1) across 2 files"));
        let clean = Report::new(Vec::new(), 7);
        assert!(clean
            .render_human()
            .contains("clean — 0 findings across 7 files"));
    }

    #[test]
    fn baselines_round_trip_through_the_json_renderer() {
        let report = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnorderedIteration),
                finding("b.rs", 7, Rule::PanicInLib),
            ],
            3,
        );
        let entries = parse_baseline(&report.render_json()).expect("own JSON parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].file, "a.rs");
        assert_eq!(entries[0].line, 2);
        assert_eq!(entries[0].rule, "unordered-iteration");
        // A full round trip is a no-op diff.
        let diff = report.against_baseline(&entries);
        assert!(diff.new.is_empty());
        assert!(diff.fixed.is_empty());
    }

    #[test]
    fn baseline_diff_separates_new_from_fixed() {
        let old = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnorderedIteration),
                finding("gone.rs", 4, Rule::PrintInLib),
            ],
            3,
        );
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::new(
            vec![
                finding("a.rs", 2, Rule::UnorderedIteration),
                finding("fresh.rs", 9, Rule::UnderivedRngStream),
            ],
            3,
        );
        let diff = now.against_baseline(&baseline);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.new[0].file, "fresh.rs");
        assert_eq!(diff.fixed.len(), 1);
        assert_eq!(diff.fixed[0].file, "gone.rs");
    }

    #[test]
    fn non_reports_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("findings findings").is_err());
        // An empty findings list is a valid (clean) baseline.
        let clean = Report::new(Vec::new(), 1);
        assert_eq!(
            parse_baseline(&clean.render_json()).expect("parses"),
            vec![]
        );
    }

    #[test]
    fn suppressed_findings_stay_out_of_the_baseline() {
        let report = Report::with_details(
            vec![finding("a.rs", 2, Rule::UnderivedRngStream)],
            vec![finding("waived.rs", 9, Rule::UnorderedIteration)],
            3,
        );
        let entries = parse_baseline(&report.render_json()).expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "a.rs");
    }

    #[test]
    fn suppressed_findings_do_not_count_as_fixed() {
        // Yesterday the finding was live and baselined; today it is
        // suppressed. That is "silenced", not "fixed".
        let old = Report::new(vec![finding("a.rs", 2, Rule::PanicInLib)], 1);
        let baseline = parse_baseline(&old.render_json()).expect("parses");
        let now = Report::with_details(Vec::new(), vec![finding("a.rs", 2, Rule::PanicInLib)], 1);
        let diff = now.against_baseline(&baseline);
        assert!(diff.new.is_empty());
        assert!(diff.fixed.is_empty());
        // A genuinely removed finding still reports as fixed.
        let removed = Report::new(Vec::new(), 1);
        assert_eq!(removed.against_baseline(&baseline).fixed.len(), 1);
    }

    #[test]
    fn timings_render_only_when_requested_and_parse_cleanly() {
        let mut report = Report::new(vec![finding("a.rs", 2, Rule::UnorderedIteration)], 3);
        assert!(!report.render_json().contains("\"timings\""));
        report.timings = Some(PassTimings {
            lex_ms: 1.5,
            rules_ms: 2.75,
        });
        let json = report.render_json();
        assert!(json.contains("\"timings\": {\"lex_ms\": 1.50"));
        assert!(json.contains("\"total_ms\": 4.25"));
        assert!(report.render_human().contains("total 4.2 ms"));
        // A timings section must not confuse the baseline parser.
        let entries = parse_baseline(&json).expect("parses with timings present");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "a.rs");
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let report = Report::new(vec![finding("a.rs", 1, Rule::PanicInLib)], 1);
        let json = report.render_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"files_scanned\": 1"));
        // Every rule appears in counts, even at zero.
        for rule in Rule::ALL {
            assert!(json.contains(rule.name()), "{}", rule.name());
        }
    }
}
