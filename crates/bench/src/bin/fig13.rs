//! Figure 13: AutoScale accurately selects the optimal execution target.
//!
//! For each phone, prints AutoScale's and Opt's decision distributions
//! (on-device / connected edge / cloud) and AutoScale's prediction
//! accuracy against the oracle. Then reproduces the paper's two spot
//! checks: under weak Wi-Fi (S4) decisions shift away from the cloud,
//! and under the web-browser co-runner (D2) they shift off the device.
//!
//! Runs on the deterministic parallel harness in three grids: one cell
//! per device to train the engines, one per (device, workload,
//! environment) for the decision-distribution analysis (each cell clones
//! the trained engine), and one per (device, spot-check environment) —
//! the spot checks keep one online-learning scheduler across all ten
//! workloads, a sequential chain that stays inside a single cell.

use autoscale::experiment;
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale::scheduler::{AutoScaleScheduler, OracleScheduler};
use autoscale_bench::{section, threads_from_args, RUNS, TRAIN_RUNS, WARMUP};

const ANALYSIS_ENVS: [EnvironmentId; 3] = [EnvironmentId::S1, EnvironmentId::S4, EnvironmentId::D2];
const SPOT_CHECKS: [(EnvironmentId, &str); 2] = [
    (EnvironmentId::S4, "weak Wi-Fi (S4)"),
    (EnvironmentId::D2, "web browser (D2)"),
];

/// One analysis cell: AutoScale's and Opt's placement shares plus the
/// oracle-match ratio for one (device, workload, environment).
struct AnalysisCell {
    shares_as: [f64; 3],
    shares_opt: [f64; 3],
    oracle_match: f64,
}

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    let config = EngineConfig::paper();
    println!("Figure 13: decision distributions and prediction accuracy");

    // Grid 1 — one fully trained engine per phone (every workload, every
    // environment), as deployed after training.
    let devices: Vec<DeviceId> = DeviceId::PHONES.to_vec();
    let engines = run_cells(threads, 1300, &devices, |cell| {
        let sim = Simulator::new(*cell.spec);
        experiment::train_engine(
            &sim,
            &Workload::ALL,
            &EnvironmentId::ALL,
            TRAIN_RUNS,
            config,
            82,
        )
    });

    // Grid 2 — decision-distribution analysis over engine clones.
    let analysis_specs: Vec<(usize, Workload, EnvironmentId)> = (0..devices.len())
        .flat_map(|d| {
            Workload::ALL
                .iter()
                .flat_map(move |&w| ANALYSIS_ENVS.iter().map(move |&e| (d, w, e)))
        })
        .collect();
    let analysis = run_cells(threads, 1310, &analysis_specs, |cell| {
        let (device_idx, w, env) = *cell.spec;
        let ev = Evaluator::new(Simulator::new(devices[device_idx]), config);
        let mut oracle = OracleScheduler::new(ev.sim(), config);
        let mut rng = autoscale::seeded_rng(cell.seed);
        let mut sched = AutoScaleScheduler::new(engines[device_idx].clone());
        let rep = ev.run(&mut sched, w, env, WARMUP, RUNS, Some(&oracle), &mut rng);
        let opt_rep = ev.run(&mut oracle, w, env, 0, RUNS, None, &mut rng);
        AnalysisCell {
            shares_as: rep.placement_shares,
            shares_opt: opt_rep.placement_shares,
            oracle_match: rep.oracle_match_ratio.expect("oracle tracking enabled"),
        }
    });

    // Grid 3 — spot checks: one online-learning scheduler carried across
    // all ten workloads (sequential inside the cell).
    let spot_specs: Vec<(usize, EnvironmentId)> = (0..devices.len())
        .flat_map(|d| SPOT_CHECKS.iter().map(move |&(e, _)| (d, e)))
        .collect();
    let spots = run_cells(
        threads,
        1320,
        &spot_specs,
        |cell: &Cell<'_, (usize, EnvironmentId)>| {
            let (device_idx, env) = *cell.spec;
            let ev = Evaluator::new(Simulator::new(devices[device_idx]), config);
            let oracle = OracleScheduler::new(ev.sim(), config);
            let mut rng = autoscale::seeded_rng(cell.seed);
            let mut sched = AutoScaleScheduler::new(engines[device_idx].clone());
            let mut shares = [0.0; 3];
            let mut matches = 0.0;
            for w in Workload::ALL {
                let rep = ev.run(&mut sched, w, env, WARMUP, RUNS, Some(&oracle), &mut rng);
                for (acc, share) in shares.iter_mut().zip(rep.placement_shares) {
                    *acc += share;
                }
                matches += rep.oracle_match_ratio.expect("oracle tracking enabled");
            }
            (shares, matches)
        },
    );

    // All numbers collected; print per device in figure order.
    let per_device = Workload::ALL.len() * ANALYSIS_ENVS.len();
    for (device_idx, device) in devices.iter().enumerate() {
        section(&device.to_string());
        let cells = &analysis[device_idx * per_device..(device_idx + 1) * per_device];
        let mut shares_as = [0.0; 3];
        let mut shares_opt = [0.0; 3];
        let mut match_sum = 0.0;
        for c in cells {
            for i in 0..3 {
                shares_as[i] += c.shares_as[i];
                shares_opt[i] += c.shares_opt[i];
            }
            match_sum += c.oracle_match;
        }
        let n = cells.len() as f64;
        let pct = |v: f64| v / n * 100.0;
        println!(
            "  AutoScale decisions: on-device {:.1}%  connected {:.1}%  cloud {:.1}%",
            pct(shares_as[0]),
            pct(shares_as[1]),
            pct(shares_as[2])
        );
        println!(
            "  Opt decisions:       on-device {:.1}%  connected {:.1}%  cloud {:.1}%",
            pct(shares_opt[0]),
            pct(shares_opt[1]),
            pct(shares_opt[2])
        );
        println!("  prediction accuracy: {:.1}%", match_sum / n * 100.0);

        for (check_idx, (_, label)) in SPOT_CHECKS.iter().enumerate() {
            let (shares, matches) = &spots[device_idx * SPOT_CHECKS.len() + check_idx];
            let n = Workload::ALL.len() as f64;
            println!(
                "  {label}: on-device {:.1}%  connected {:.1}%  cloud {:.1}%  (accuracy {:.1}%)",
                shares[0] / n * 100.0,
                shares[1] / n * 100.0,
                shares[2] / n * 100.0,
                matches / n * 100.0
            );
        }
    }
}
