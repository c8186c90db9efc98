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

use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale::scheduler::{Scheduler, SchedulerKind};
use autoscale_bench::{
    autoscale_for, build_baseline, reward_fn, threads_from_args, SuiteAccumulator, RUNS, WARMUP,
};

type CellReports = Vec<(EpisodeReport, EpisodeReport)>;

fn run_cell(cell: &Cell<'_, (EnvironmentId, Workload)>) -> CellReports {
    let (env, w) = *cell.spec;
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let oracle = autoscale::scheduler::OracleScheduler::new(ev.sim(), reward_fn(config));
    let mut rng = autoscale::seeded_rng(cell.seed);

    // Train on the other nine workloads across every environment so the
    // engine has seen the variance states it will face.
    let mut autoscale_sched = autoscale_for(ev.sim(), w, &EnvironmentId::ALL, config, 62);
    let mut others: Vec<Box<dyn Scheduler>> = vec![
        build_baseline(SchedulerKind::EdgeBest, ev.sim(), config),
        build_baseline(SchedulerKind::Cloud, ev.sim(), config),
        build_baseline(SchedulerKind::ConnectedEdge, ev.sim(), config),
        build_baseline(SchedulerKind::Oracle, ev.sim(), config),
    ];
    let mut reports = Vec::new();
    let mut base = build_baseline(SchedulerKind::EdgeCpuFp32, ev.sim(), config);
    let baseline = ev.run(base.as_mut(), w, env, 0, RUNS, None, &mut rng);
    reports.push((baseline.clone(), baseline.clone()));
    let rep = ev.run(
        &mut autoscale_sched,
        w,
        env,
        WARMUP,
        RUNS,
        Some(&oracle),
        &mut rng,
    );
    reports.push((rep, baseline.clone()));
    for s in others.iter_mut() {
        let rep = ev.run(s.as_mut(), w, env, 0, RUNS, None, &mut rng);
        reports.push((rep, baseline.clone()));
    }
    reports
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
        for reports in &results[env_idx * per_env..(env_idx + 1) * per_env] {
            for (rep, baseline) in reports {
                acc.record(rep, baseline);
                grand.record(rep, baseline);
            }
        }
        acc.print(&format!("Fig. 11: {env} — {}", env.description()));
    }
    grand.print("Fig. 11: average across all nine environments");
}
