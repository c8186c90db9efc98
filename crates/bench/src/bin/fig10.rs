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

use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale::scheduler::{Scheduler, SchedulerKind};
use autoscale_bench::{
    autoscale_for, build_baseline, reward_fn, threads_from_args, SuiteAccumulator, RUNS, WARMUP,
};

type CellReports = Vec<(EpisodeReport, EpisodeReport)>;

fn run_cell(cell: &Cell<'_, (bool, Workload)>) -> CellReports {
    let (streaming, w) = *cell.spec;
    let config = EngineConfig {
        streaming,
        ..EngineConfig::paper()
    };
    let envs = EnvironmentId::STATIC;
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let oracle = autoscale::scheduler::OracleScheduler::new(ev.sim(), reward_fn(config));
    let mut rng = autoscale::seeded_rng(cell.seed);

    let mut autoscale_sched = autoscale_for(ev.sim(), w, &envs, config, 52);
    let mut others: Vec<Box<dyn Scheduler>> = vec![
        build_baseline(SchedulerKind::EdgeBest, ev.sim(), config),
        build_baseline(SchedulerKind::Cloud, ev.sim(), config),
        build_baseline(SchedulerKind::ConnectedEdge, ev.sim(), config),
        build_baseline(SchedulerKind::Oracle, ev.sim(), config),
    ];
    let mut reports = Vec::new();
    for env in envs {
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
    }
    reports
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
        for reports in &results[regime_idx * per_regime..(regime_idx + 1) * per_regime] {
            for (rep, baseline) in reports {
                acc.record(rep, baseline);
            }
        }
        let label = if streaming {
            "streaming (33.3 ms QoS)"
        } else {
            "non-streaming (50 ms QoS)"
        };
        acc.print(&format!("Fig. 10 (Mi8Pro, vision workloads): {label}"));
    }
}
