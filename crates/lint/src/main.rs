//! `autoscale-lint` — the workspace's determinism & robustness gate.
//!
//! ```text
//! cargo run -p autoscale-lint                    # human output, exit 1 on findings
//! cargo run -p autoscale-lint -- --format json   # stable JSON (the baseline format)
//! cargo run -p autoscale-lint -- --list-rules    # what the rules check
//! cargo run -p autoscale-lint -- --check-baseline results/lint_baseline.json
//! cargo run -p autoscale-lint -- --write-baseline
//! cargo run -p autoscale-lint -- --explain underived-rng-stream
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use autoscale_lint::report::parse_baseline;
use autoscale_lint::rules::Rule;

/// Output formats.
enum Format {
    Human,
    Json,
}

/// Where the baseline lives unless a path is given explicitly.
const DEFAULT_BASELINE: &str = "results/lint_baseline.json";

struct Args {
    format: Format,
    root: PathBuf,
    /// Compare against this committed baseline: fail only on findings
    /// it does not list, and report the ones it lists that are gone.
    check_baseline: Option<PathBuf>,
    /// Write the run's JSON report to this path as the new baseline.
    write_baseline: Option<PathBuf>,
    /// Always write the JSON report here too (CI artifact on failure).
    report_out: Option<PathBuf>,
    /// Keep per-pass wall-clock timings in the report output.
    timings: bool,
}

const USAGE: &str = "\
autoscale-lint: determinism & robustness static analysis for this workspace

USAGE:
    autoscale-lint [--format human|json] [--root PATH] [--list-rules]
                   [--explain RULE|all] [--check-baseline [PATH]]
                   [--write-baseline [PATH]] [--report-out PATH]
                   [--timings]

OPTIONS:
    --format human|json     Output format (default: human)
    --root PATH             Workspace root to analyze (default: .)
    --list-rules            Print every rule with its description and exit
    --explain RULE|all      Print the long-form documentation for one rule
                            (or every rule) and exit
    --check-baseline [PATH] Fail only on findings absent from the baseline
                            (default path: results/lint_baseline.json);
                            baseline entries no longer reported are listed
                            as fixed
    --write-baseline [PATH] Write this run's JSON report as the new
                            baseline (default path as above) and exit 0
    --report-out PATH       Additionally write the JSON report to PATH
                            (for CI artifacts)
    --timings               Keep per-pass wall-clock timings (lex, rules;
                            ms) in the report, so a blown CI budget names
                            the slow pass; always stripped from baselines
    -h, --help              Show this help

EXIT CODES:
    0  clean (no unsuppressed findings / none beyond the baseline)
    1  findings reported
    2  usage or I/O error

Suppress a single finding with `// lint:allow(<rule>): <justification>`
on the offending line or standing alone directly above it (a standalone
annotation covers the full statement that starts on the next line).";

/// Consumes an optional path value for a flag: the next argument if it
/// exists and is not itself a flag, the default otherwise.
fn optional_path(argv: &[String], i: &mut usize) -> PathBuf {
    match argv.get(*i + 1) {
        Some(next) if !next.starts_with('-') => {
            *i += 1;
            PathBuf::from(next)
        }
        _ => PathBuf::from(DEFAULT_BASELINE),
    }
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        format: Format::Human,
        root: PathBuf::from("."),
        check_baseline: None,
        write_baseline: None,
        report_out: None,
        timings: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--format" => {
                i += 1;
                let value = argv.get(i).ok_or("--format requires a value")?;
                args.format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--root" => {
                i += 1;
                args.root = PathBuf::from(argv.get(i).ok_or("--root requires a path")?);
            }
            "--check-baseline" => {
                args.check_baseline = Some(optional_path(argv, &mut i));
            }
            "--write-baseline" => {
                args.write_baseline = Some(optional_path(argv, &mut i));
            }
            "--report-out" => {
                i += 1;
                args.report_out = Some(PathBuf::from(
                    argv.get(i).ok_or("--report-out requires a path")?,
                ));
            }
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{:<24} {}", rule.name(), rule.description());
                }
                return Ok(None);
            }
            "--explain" => {
                i += 1;
                let value = argv
                    .get(i)
                    .ok_or("--explain requires a rule name or `all`")?;
                if value == "all" {
                    for (k, rule) in Rule::ALL.into_iter().enumerate() {
                        if k > 0 {
                            println!("\n---\n");
                        }
                        println!("{}", autoscale_lint::explain::explain(rule));
                    }
                } else {
                    let rule = Rule::from_name(value)
                        .ok_or_else(|| format!("unknown rule `{value}` (try --list-rules)"))?;
                    println!("{}", autoscale_lint::explain::explain(rule));
                }
                return Ok(None);
            }
            "--timings" => {
                args.timings = true;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if args.check_baseline.is_some() && args.write_baseline.is_some() {
        return Err("--check-baseline and --write-baseline are mutually exclusive".to_string());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("autoscale-lint: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match autoscale_lint::analyze_workspace(&args.root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("autoscale-lint: I/O error: {err}");
            return ExitCode::from(2);
        }
    };
    if !args.timings {
        report.timings = None;
    }
    if let Some(path) = &args.report_out {
        if let Err(err) = write_report(path, &report.render_json()) {
            eprintln!("autoscale-lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.write_baseline {
        // Baselines must stay byte-stable run to run: timings never
        // belong in one, even under --timings.
        let mut baseline = report.clone();
        baseline.timings = None;
        let target = args.root.join(path);
        if let Err(err) = write_report(&target, &baseline.render_json()) {
            eprintln!("autoscale-lint: cannot write {}: {err}", target.display());
            return ExitCode::from(2);
        }
        println!(
            "autoscale-lint: baseline written to {} ({} finding{})",
            path.display(),
            report.findings.len(),
            if report.findings.len() == 1 { "" } else { "s" },
        );
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.check_baseline {
        return check_against_baseline(&args, path, &report);
    }
    match args.format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--check-baseline` mode: new findings fail, fixed ones inform.
fn check_against_baseline(
    args: &Args,
    path: &std::path::Path,
    report: &autoscale_lint::Report,
) -> ExitCode {
    let target = args.root.join(path);
    let text = match std::fs::read_to_string(&target) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("autoscale-lint: cannot read {}: {err}", target.display());
            return ExitCode::from(2);
        }
    };
    let baseline = match parse_baseline(&text) {
        Ok(entries) => entries,
        Err(message) => {
            eprintln!(
                "autoscale-lint: bad baseline {}: {message}",
                target.display()
            );
            return ExitCode::from(2);
        }
    };
    let diff = report.against_baseline(&baseline);
    for f in &diff.new {
        println!(
            "{}:{}: [{}] {} (new)",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        );
    }
    for e in &diff.fixed {
        println!(
            "{}:{}: [{}] fixed — regenerate the baseline",
            e.file, e.line, e.rule
        );
    }
    println!(
        "autoscale-lint: {} new, {} fixed vs baseline {} ({} finding{} total, {} files)",
        diff.new.len(),
        diff.fixed.len(),
        path.display(),
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
    );
    if diff.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `contents` to `path`, creating parent directories.
fn write_report(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}
