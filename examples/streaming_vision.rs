//! Streaming vision: an object-detection app processing a 30 FPS camera
//! stream while the user walks around and multitasks.
//!
//! The app runs SSD MobileNet v2 frame after frame under the paper's
//! streaming QoS target (33.3 ms per frame). Midway, the runtime
//! environment changes twice — a web browser starts co-running, then the
//! Wi-Fi signal collapses — and AutoScale re-routes the inference on the
//! fly while the fixed cloud baseline degrades.
//!
//! ```sh
//! cargo run --release --example streaming_vision
//! ```

use autoscale::prelude::*;
use autoscale::scheduler::FixedScheduler;

fn main() {
    let config = EngineConfig {
        streaming: true,
        ..EngineConfig::paper()
    };
    let sim = Simulator::new(DeviceId::GalaxyS10e);
    let workload = Workload::SsdMobileNetV2;
    let qos = config.scenario_for(workload).qos_ms();
    println!(
        "streaming {workload} on {} at 30 FPS (QoS {qos:.1} ms/frame)\n",
        sim.host().id()
    );

    // Pre-train the engine across every environment, then serve greedily
    // while continuing to learn — the paper's deployment mode.
    let engine = autoscale::experiment::train_engine(
        &sim,
        &Workload::ALL,
        &EnvironmentId::ALL,
        40,
        config,
        11,
    );
    let mut autoscale_sched = autoscale::scheduler::AutoScaleScheduler::new(engine);
    let mut cloud = FixedScheduler::cloud(&sim, config);
    let mut rng = autoscale::seeded_rng(42);

    // Three acts: calm commute, browser co-running, weak Wi-Fi.
    let acts = [
        (EnvironmentId::S1, "calm"),
        (EnvironmentId::D2, "web browser co-running"),
        (EnvironmentId::S4, "weak Wi-Fi"),
    ];
    let ev = Evaluator::new(sim, config);
    for (env, label) in acts {
        let a = ev.run(&mut autoscale_sched, workload, env, 60, 90, None, &mut rng);
        let c = ev.run(&mut cloud, workload, env, 0, 90, None, &mut rng);
        println!("act: {label} ({env})");
        println!(
            "  AutoScale: {:5.1} ms/frame, {:6.1} mJ/frame, {:4.1}% dropped frames  [{}]",
            a.mean_latency_ms,
            a.mean_energy_mj,
            a.qos_violation_ratio * 100.0,
            dominant_target(&a)
        );
        println!(
            "  Cloud:     {:5.1} ms/frame, {:6.1} mJ/frame, {:4.1}% dropped frames",
            c.mean_latency_ms,
            c.mean_energy_mj,
            c.qos_violation_ratio * 100.0
        );
    }
}

fn dominant_target(report: &EpisodeReport) -> &'static str {
    let shares = report.placement_shares;
    if shares[0] >= shares[1] && shares[0] >= shares[2] {
        "mostly on-device"
    } else if shares[1] >= shares[2] {
        "mostly connected edge"
    } else {
        "mostly cloud"
    }
}
