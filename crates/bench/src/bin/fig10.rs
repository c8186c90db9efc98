//! Figure 10: rising inference intensity (non-streaming → streaming).
//!
//! Repeats the Fig. 9 comparison on the Mi8Pro for both QoS regimes: the
//! non-streaming 50 ms target and the streaming 33.3 ms (30 FPS) target.
//! AutoScale's efficiency and QoS-violation ratio degrade under the
//! tighter target but stay close to Opt.
//!
//! Runs on the deterministic parallel harness: one cell per
//! (streaming regime, vision workload); output is bit-identical for any
//! `--threads` value.

use autoscale::experiment::{self, Comparison};
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale_bench::{autoscale_for, threads_from_args, SuiteAccumulator, RUNS, WARMUP};

fn run_cell(cell: &Cell<'_, (bool, Workload)>) -> Vec<Comparison> {
    let (streaming, w) = *cell.spec;
    let config = EngineConfig {
        streaming,
        ..EngineConfig::paper()
    };
    let envs = EnvironmentId::STATIC;
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    experiment::compare(
        &ev,
        w,
        &envs,
        autoscale_for(ev.sim(), w, &envs, config, 52),
        experiment::fixed_baselines(ev.sim(), config),
        WARMUP,
        RUNS,
        &mut autoscale::seeded_rng(cell.seed),
    )
}

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    // Streaming only applies to the vision workloads.
    let vision: Vec<Workload> = Workload::ALL
        .iter()
        .copied()
        .filter(|w| w.task() != Task::Translation)
        .collect();
    let specs: Vec<(bool, Workload)> = [false, true]
        .iter()
        .flat_map(|&s| vision.iter().map(move |&w| (s, w)))
        .collect();
    let results = run_cells(threads, 1000, &specs, run_cell);

    for (regime_idx, streaming) in [false, true].into_iter().enumerate() {
        let mut acc = SuiteAccumulator::new();
        let per_regime = vision.len();
        for c in results[regime_idx * per_regime..(regime_idx + 1) * per_regime]
            .iter()
            .flatten()
        {
            acc.record_comparison(c);
        }
        let label = if streaming {
            "streaming (33.3 ms QoS)"
        } else {
            "non-streaming (50 ms QoS)"
        };
        acc.print(&format!("Fig. 10 (Mi8Pro, vision workloads): {label}"));
    }
}
