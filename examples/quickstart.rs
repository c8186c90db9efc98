//! Quickstart: train AutoScale on one phone and watch it beat the
//! always-on-CPU baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use autoscale::prelude::*;
use autoscale_rl::QTable;

fn main() {
    // 1. Build the edge-cloud testbed around a Xiaomi Mi8Pro: the phone
    //    itself, a Galaxy Tab S6 over Wi-Fi Direct, and a Xeon+P100 cloud
    //    server over Wi-Fi.
    let sim = Simulator::new(DeviceId::Mi8Pro);

    // 2. Create the engine with the paper's configuration: Q-learning with
    //    learning rate 0.9, discount 0.1, epsilon 0.1; reward weights
    //    alpha = beta = 0.1; 50% accuracy target.
    let config = EngineConfig::paper();
    let mut engine = AutoScaleEngine::new(&sim, config);
    let (states, actions) = (engine.states().len(), engine.actions().len());
    println!(
        "engine: {states} states x {actions} actions ({} KiB Q-table, built 64 states at a time on first use)",
        QTable::full_bytes(states, actions) / 1024
    );

    // 3. Train: run inference after inference in the calm environment,
    //    feeding each measured outcome back into the Q-table.
    let workload = Workload::InceptionV1;
    let mut env = Environment::for_id(EnvironmentId::S1);
    let mut rng = autoscale::seeded_rng(7);
    for run in 0.. {
        let snapshot = env.sample(&mut rng);
        let step = engine
            .decide(&sim, workload, &snapshot, &mut rng)
            .expect("the CPU serves every workload");
        let outcome = sim
            .execute_measured(workload, &step.request, &snapshot, &mut rng)
            .expect("the engine only proposes feasible targets");
        engine.learn(&sim, workload, step, &outcome, &snapshot);
        if engine.is_converged() {
            println!("reward converged after {} inference runs", run + 1);
            break;
        }
        if run > 500 {
            println!("stopping after 500 runs");
            break;
        }
    }

    println!(
        "Q-table resident after training: {} KiB",
        engine.agent().store().memory_bytes() / 1024
    );

    // 4. Serve: compare the engine's greedy decision with the baseline
    //    that always runs on the mobile CPU at FP32.
    let snapshot = Snapshot::calm();
    let step = engine
        .decide_greedy(&sim, workload, &snapshot)
        .expect("the CPU serves every workload");
    let chosen = sim
        .execute_expected(workload, &step.request, &snapshot)
        .expect("greedy decisions are feasible");
    let baseline_request = Request::at_max_frequency(
        &sim,
        Placement::OnDevice(ProcessorKind::Cpu),
        Precision::Fp32,
    );
    let baseline = sim
        .execute_expected(workload, &baseline_request, &snapshot)
        .expect("the CPU runs everything");

    println!("\n{workload} on {}:", sim.host().id());
    println!(
        "  Edge (CPU FP32): {:6.1} ms, {:7.1} mJ",
        baseline.latency_ms, baseline.energy_mj
    );
    println!(
        "  AutoScale chose {}: {:6.1} ms, {:7.1} mJ  ({:.1}x more efficient)",
        step.request,
        chosen.latency_ms,
        chosen.energy_mj,
        baseline.energy_mj / chosen.energy_mj
    );
}
