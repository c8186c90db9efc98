//! Shared harness code for the per-figure experiment binaries.
//!
//! Every figure and table of the paper's evaluation has a binary in
//! `src/bin` (`fig2` … `fig14`, `tab_states`, `tab_devices`,
//! `tab_workloads`, `tab_overhead`) that regenerates the corresponding
//! rows/series. This library holds what they share: scheduler
//! construction, suite execution, aggregation and table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use autoscale::experiment::{self, Comparison};
use autoscale::parallel::resolve_threads;
use autoscale::prelude::*;
use autoscale::scheduler::AutoScaleScheduler;

/// Default per-episode measurement length (inference runs).
pub const RUNS: usize = 100;
/// Default warm-up runs for learning schedulers.
pub const WARMUP: usize = 100;
/// Default per-(workload, environment) training runs, mirroring the
/// paper's "100 times for each NN in each runtime variance-related state".
pub const TRAIN_RUNS: usize = 30;

/// Trains an AutoScale engine with leave-one-out cross-validation and
/// wraps it as an evaluation scheduler (greedy serving + online learning,
/// the paper's deployment mode).
pub fn autoscale_for(
    sim: &Simulator,
    held_out: Workload,
    environments: &[EnvironmentId],
    config: EngineConfig,
    seed: u64,
) -> AutoScaleScheduler {
    let engine =
        experiment::train_leave_one_out(sim, held_out, environments, TRAIN_RUNS, config, seed);
    AutoScaleScheduler::new(engine)
}

/// Extracts `--threads N` from command-line arguments and resolves it
/// via [`resolve_threads`] — the shared flag parser for the sweep
/// binaries.
///
/// # Panics
///
/// Panics with a usage message if `--threads` is present without a valid
/// count.
pub fn threads_from_args<I: IntoIterator<Item = String>>(args: I) -> usize {
    let mut args = args.into_iter();
    let mut requested = None;
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("--threads requires a count"));
            let n: usize = value
                .parse()
                .unwrap_or_else(|_| panic!("--threads expects a number, got `{value}`"));
            requested = Some(n);
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            let n: usize = value
                .parse()
                .unwrap_or_else(|_| panic!("--threads expects a number, got `{value}`"));
            requested = Some(n);
        }
    }
    resolve_threads(requested)
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Accumulates per-scheduler averages across (workload, environment)
/// cells, normalizing PPW to a baseline scheduler cell-by-cell as the
/// paper's figures do.
#[derive(Debug, Default)]
pub struct SuiteAccumulator {
    rows: Vec<SchedulerRow>,
}

/// One scheduler's accumulated cells: name, normalized PPW, QoS-violation
/// ratio and oracle-match ratio per cell.
type SchedulerRow = (String, Vec<f64>, Vec<f64>, Vec<f64>);

impl SuiteAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SuiteAccumulator::default()
    }

    /// Records one cell: a scheduler's report plus the baseline report of
    /// the same cell.
    pub fn record(&mut self, report: &EpisodeReport, baseline: &EpisodeReport) {
        self.record_means(
            &report.scheduler,
            report.normalized_ppw(baseline),
            report.qos_violation_ratio,
            report.oracle_match_ratio,
        );
    }

    /// Records one environment of a comparison: the baseline against
    /// itself, then AutoScale and every comparator against it.
    pub fn record_comparison(&mut self, comparison: &Comparison) {
        let baseline = &comparison.baseline;
        for report in [baseline, &comparison.autoscale]
            .into_iter()
            .chain(&comparison.comparators)
        {
            self.record(report, baseline);
        }
    }

    /// Records one cell from values already normalized: a scheduler's
    /// PPW, QoS-violation ratio and oracle-match ratio (when tracked).
    pub fn record_means(&mut self, name: &str, ppw: f64, qos: f64, opt_match: Option<f64>) {
        let entry = match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(e) => e,
            None => {
                self.rows
                    .push((name.to_string(), Vec::new(), Vec::new(), Vec::new()));
                self.rows.last_mut().expect("just pushed")
            }
        };
        entry.1.push(ppw);
        entry.2.push(qos);
        entry.3.extend(opt_match);
    }

    /// Prints the aggregate table: normalized PPW (mean across cells),
    /// QoS-violation ratio, and oracle-match ratio where tracked.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        println!(
            "{:<18} {:>14} {:>14} {:>12}",
            "scheduler", "PPW (norm)", "QoS viol.", "opt match"
        );
        for (name, ppw, qos, opt) in &self.rows {
            let opt_s = if opt.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}%", mean(opt) * 100.0)
            };
            println!(
                "{:<18} {:>13.2}x {:>13.1}% {:>12}",
                name,
                mean(ppw),
                mean(qos) * 100.0,
                opt_s
            );
        }
    }

    /// The mean normalized PPW of a scheduler, if recorded.
    pub fn mean_ppw(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| mean(&r.1))
    }

    /// The mean QoS-violation ratio of a scheduler, if recorded.
    pub fn mean_qos(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| mean(&r.2))
    }

    /// The mean oracle-match ratio of a scheduler, if recorded.
    pub fn mean_opt_match(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).and_then(|r| {
            if r.3.is_empty() {
                None
            } else {
                Some(mean(&r.3))
            }
        })
    }
}

/// Prints a labelled section header for figure output.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale::parallel::default_threads;

    #[test]
    fn threads_flag_parsing() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let cores = default_threads();
        assert_eq!(threads_from_args(args(&["--threads", "3"])), 3.min(cores));
        assert_eq!(
            threads_from_args(args(&["--threads=5", "other"])),
            5.min(cores)
        );
        assert_eq!(threads_from_args(args(&["--threads", "0"])), cores);
        assert_eq!(threads_from_args(args(&[])), cores);
        assert_eq!(resolve_threads(Some(2)), 2.min(cores));
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "--threads expects a number")]
    fn bad_threads_flag_panics() {
        let _ = threads_from_args(vec!["--threads".to_string(), "many".to_string()]);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_groups_by_scheduler() {
        let mk = |name: &str, eff: f64, qos: f64| EpisodeReport {
            scheduler: name.into(),
            workload: Workload::MobileNetV1,
            environment: EnvironmentId::S1,
            runs: 1,
            mean_energy_mj: 1.0,
            mean_efficiency_ipj: eff,
            mean_latency_ms: 1.0,
            qos_violation_ratio: qos,
            accuracy_violation_ratio: 0.0,
            placement_shares: [1.0, 0.0, 0.0],
            oracle_match_ratio: None,
        };
        let base = mk("Edge (CPU FP32)", 10.0, 0.5);
        let mut acc = SuiteAccumulator::new();
        acc.record(&mk("AutoScale", 90.0, 0.0), &base);
        acc.record(&mk("AutoScale", 110.0, 0.1), &base);
        acc.record(&base.clone(), &base);
        assert!((acc.mean_ppw("AutoScale").unwrap() - 10.0).abs() < 1e-12);
        assert!((acc.mean_qos("AutoScale").unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(acc.mean_ppw("Edge (CPU FP32)"), Some(1.0));
        assert_eq!(acc.mean_opt_match("AutoScale"), None);
    }
}
