//! Figure 9: AutoScale vs baselines and prior work, static environments.
//!
//! For each of the three phones: leave-one-out-trained AutoScale, the
//! four fixed baselines, Opt, MOSAIC and NeuroSurgeon, averaged across
//! the ten workloads and the five static environments. Prints PPW
//! normalized to `Edge (CPU FP32)` and the QoS-violation ratio.
//!
//! The sweep runs on the deterministic parallel harness: one cell per
//! (device, workload), each with its own derived RNG seed, so the output
//! is bit-identical for any `--threads` value.

use autoscale::experiment;
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale::scheduler::{OracleScheduler, Scheduler, SchedulerKind};
use autoscale_bench::{
    autoscale_for, build_baseline, reward_fn, section, threads_from_args, SuiteAccumulator, RUNS,
    WARMUP,
};

/// (report, baseline-of-the-same-cell) pairs in recording order.
type CellReports = Vec<(EpisodeReport, EpisodeReport)>;

/// The sweep grid: one cell per (phone, workload), device-major.
fn fig9_specs() -> Vec<(DeviceId, Workload)> {
    DeviceId::PHONES
        .iter()
        .flat_map(|&d| Workload::ALL.iter().map(move |&w| (d, w)))
        .collect()
}

/// Runs one cell: leave-one-out-trained AutoScale plus the four fixed
/// baselines, Opt, MOSAIC and NeuroSurgeon across the five static
/// environments.
fn fig9_cell(cell: &Cell<'_, (DeviceId, Workload)>) -> CellReports {
    let (device, w) = *cell.spec;
    let config = EngineConfig::paper();
    let envs = EnvironmentId::STATIC;
    let ev = Evaluator::new(Simulator::new(device), config);
    let oracle = OracleScheduler::new(ev.sim(), reward_fn(config));
    let mut rng = autoscale::seeded_rng(cell.seed);

    // Leave-one-out: AutoScale's Q-table is trained on the other nine
    // workloads (Section V-C), then keeps learning online.
    let mut autoscale_sched = autoscale_for(ev.sim(), w, &envs, config, 42);
    let mut prior_rng = autoscale::seeded_rng(43);
    let qos = config.scenario_for(w).qos_ms();
    let mut others: Vec<Box<dyn Scheduler>> = vec![
        build_baseline(SchedulerKind::EdgeBest, ev.sim(), config),
        build_baseline(SchedulerKind::Cloud, ev.sim(), config),
        build_baseline(SchedulerKind::ConnectedEdge, ev.sim(), config),
        build_baseline(SchedulerKind::Oracle, ev.sim(), config),
        Box::new(experiment::build_mosaic(ev.sim(), qos, &mut prior_rng)),
        Box::new(experiment::build_neurosurgeon(ev.sim(), &mut prior_rng)),
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
    let specs = fig9_specs();
    let results = run_cells(threads, 900, &specs, fig9_cell);

    let mut grand = SuiteAccumulator::new();
    for (device_idx, &device) in DeviceId::PHONES.iter().enumerate() {
        section(&device.to_string());
        let mut acc = SuiteAccumulator::new();
        let per_device = Workload::ALL.len();
        for reports in &results[device_idx * per_device..(device_idx + 1) * per_device] {
            for (rep, baseline) in reports {
                acc.record(rep, baseline);
            }
        }
        acc.print(&format!(
            "Fig. 9 ({device}): static environments, all workloads"
        ));
        merge(&mut grand, &acc);
    }
    grand.print("Fig. 9: average across the three devices");
}

/// Merges per-device means into the cross-device accumulator.
fn merge(grand: &mut SuiteAccumulator, device: &SuiteAccumulator) {
    for name in [
        "AutoScale",
        "Edge (CPU FP32)",
        "Edge (Best)",
        "Cloud",
        "Connected Edge",
        "Opt",
        "MOSAIC",
        "NeuroSurgeon",
    ] {
        if let (Some(ppw), Some(qos)) = (device.mean_ppw(name), device.mean_qos(name)) {
            let rep = EpisodeReport {
                scheduler: name.to_string(),
                workload: Workload::MobileNetV1,
                environment: EnvironmentId::S1,
                runs: 1,
                mean_energy_mj: 1.0,
                mean_efficiency_ipj: ppw,
                mean_latency_ms: 0.0,
                qos_violation_ratio: qos,
                accuracy_violation_ratio: 0.0,
                placement_shares: [0.0; 3],
                oracle_match_ratio: device.mean_opt_match(name),
            };
            let base = EpisodeReport {
                mean_efficiency_ipj: 1.0,
                ..rep.clone()
            };
            grand.record(&rep, &base);
        }
    }
}
