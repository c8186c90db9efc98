//! Figure 12: adaptability to inference quality (accuracy) targets.
//!
//! Runs AutoScale on the Mi8Pro under accuracy targets of none, 50%, 65%
//! and 70%. Tighter targets disqualify the low-precision on-device
//! targets, costing efficiency; below the 50% threshold nothing changes
//! because every target already clears it.
//!
//! Runs on the deterministic parallel harness: one cell per
//! (accuracy target, workload); output is bit-identical for any
//! `--threads` value.

use autoscale::experiment::{self, Comparison};
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale_bench::{autoscale_for, threads_from_args, SuiteAccumulator, RUNS, WARMUP};

const TARGETS: [Option<f64>; 4] = [None, Some(50.0), Some(65.0), Some(70.0)];

fn run_cell(cell: &Cell<'_, (Option<f64>, Workload)>) -> Vec<Comparison> {
    let (target, w) = *cell.spec;
    let config = EngineConfig {
        accuracy_target: target,
        ..EngineConfig::paper()
    };
    let envs = EnvironmentId::STATIC;
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    experiment::compare(
        &ev,
        w,
        &envs,
        autoscale_for(ev.sim(), w, &envs, config, 72),
        Vec::new(),
        WARMUP,
        RUNS,
        &mut autoscale::seeded_rng(cell.seed),
    )
}

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    println!("Figure 12: AutoScale under different inference accuracy targets (Mi8Pro)");
    let specs: Vec<(Option<f64>, Workload)> = TARGETS
        .iter()
        .flat_map(|&t| Workload::ALL.iter().map(move |&w| (t, w)))
        .collect();
    let results = run_cells(threads, 1200, &specs, run_cell);

    let per_target = Workload::ALL.len();
    for (target_idx, target) in TARGETS.into_iter().enumerate() {
        let mut acc = SuiteAccumulator::new();
        for c in results[target_idx * per_target..(target_idx + 1) * per_target]
            .iter()
            .flatten()
        {
            acc.record(&c.autoscale, &c.baseline);
        }
        let label = match target {
            None => "no accuracy target".to_string(),
            Some(t) => format!("{t:.0}% accuracy target"),
        };
        acc.print(&format!("Fig. 12: {label}"));
    }
}
