//! Figure 11: adaptability to stochastic variance — per-environment
//! results across S1–S5 and D1–D4.
//!
//! For each Table IV environment on the Mi8Pro: AutoScale (leave-one-out
//! trained, learning online) vs the four baselines and Opt, averaged
//! over the ten workloads. Prints PPW normalized to `Edge (CPU FP32)`
//! and the QoS-violation ratio per environment.
//!
//! Runs on the deterministic parallel harness: one cell per
//! (environment, workload); output is bit-identical for any `--threads`
//! value.

use autoscale::experiment::{self, Comparison};
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale_bench::{autoscale_for, threads_from_args, SuiteAccumulator, RUNS, WARMUP};

fn run_cell(cell: &Cell<'_, (EnvironmentId, Workload)>) -> Vec<Comparison> {
    let (env, w) = *cell.spec;
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    // Train on the other nine workloads across every environment so the
    // engine has seen the variance states it will face.
    experiment::compare(
        &ev,
        w,
        &[env],
        autoscale_for(ev.sim(), w, &EnvironmentId::ALL, config, 62),
        experiment::fixed_baselines(ev.sim(), config),
        WARMUP,
        RUNS,
        &mut autoscale::seeded_rng(cell.seed),
    )
}

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    let specs: Vec<(EnvironmentId, Workload)> = EnvironmentId::ALL
        .iter()
        .flat_map(|&e| Workload::ALL.iter().map(move |&w| (e, w)))
        .collect();
    let results = run_cells(threads, 1100, &specs, run_cell);

    let mut grand = SuiteAccumulator::new();
    let per_env = Workload::ALL.len();
    for (env_idx, &env) in EnvironmentId::ALL.iter().enumerate() {
        let mut acc = SuiteAccumulator::new();
        for c in results[env_idx * per_env..(env_idx + 1) * per_env]
            .iter()
            .flatten()
        {
            acc.record_comparison(c);
            grand.record_comparison(c);
        }
        acc.print(&format!("Fig. 11: {env} — {}", env.description()));
    }
    grand.print("Fig. 11: average across all nine environments");
}
