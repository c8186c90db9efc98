//! Extension experiment: the NPU/TPU actions the paper names as future
//! work ("depending on the configurations of edge-cloud systems,
//! additional actions, such as mobile NPU or cloud TPU, could be further
//! considered", Section V-C).
//!
//! Builds a testbed with an NPU-unlocked Mi8Pro and a TPU-equipped cloud,
//! re-trains AutoScale over the enlarged action space, and compares
//! against the stock testbed: the engine discovers the new accelerators
//! without any code change beyond the device catalog.

use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::{AutoScaleScheduler, FixedScheduler};
use autoscale_bench::{mean, section, RUNS, TRAIN_RUNS, WARMUP};
use autoscale_platform::Device;

fn main() {
    let config = EngineConfig::paper();
    let stock = Simulator::new(DeviceId::Mi8Pro);
    let extended = Simulator::with_devices(
        Device::mi8pro_npu(),
        Device::galaxy_tab_s6(),
        Device::cloud_server_tpu(),
    );
    println!(
        "action spaces: stock {} actions, extended {} actions",
        ActionSpace::for_simulator(&stock).len(),
        ActionSpace::for_simulator(&extended).len()
    );

    section("per-target survey (Inception v1, calm)");
    for (label, placement, precision) in [
        (
            "Edge (DSP INT8)",
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        ),
        (
            "Edge (NPU INT8)",
            Placement::OnDevice(ProcessorKind::Npu),
            Precision::Int8,
        ),
        (
            "Cloud (GPU FP32)",
            Placement::Cloud(ProcessorKind::Gpu),
            Precision::Fp32,
        ),
        (
            "Cloud (TPU FP16)",
            Placement::Cloud(ProcessorKind::Npu),
            Precision::Fp16,
        ),
    ] {
        let request = Request::at_max_frequency(&extended, placement, precision);
        match extended.execute_expected(Workload::InceptionV1, &request, &Snapshot::calm()) {
            Ok(o) => println!(
                "  {label:<18} {:6.1} ms {:7.1} mJ  accuracy {:4.1}%",
                o.latency_ms, o.energy_mj, o.accuracy
            ),
            Err(e) => println!("  {label:<18} ({e})"),
        }
    }

    section("AutoScale on the stock vs extended testbed (static envs, all workloads)");
    let envs = [EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4];
    for (label, sim) in [("stock (DSP)", &stock), ("extended (NPU+TPU)", &extended)] {
        let ev = Evaluator::new(sim.clone(), config);
        // Enough runs per (workload, environment) that the optimistic
        // sweep covers the enlarged action space in every visited state.
        let engine =
            experiment::train_engine(ev.sim(), &Workload::ALL, &envs, TRAIN_RUNS * 4, config, 7);
        let mut rng = autoscale::seeded_rng(8);
        let mut ppws = Vec::new();
        let mut npu_share = Vec::new();
        for w in Workload::ALL {
            for env in envs {
                let mut base = FixedScheduler::edge_cpu_fp32(ev.sim());
                let baseline = ev.run(&mut base, w, env, 0, RUNS, None, &mut rng);
                let mut sched = AutoScaleScheduler::new(engine.clone());
                let rep = ev.run(&mut sched, w, env, WARMUP, RUNS, None, &mut rng);
                ppws.push(rep.normalized_ppw(&baseline));
                // Count how often the greedy decision lands on an NPU/TPU.
                let step = engine
                    .decide_greedy(ev.sim(), w, &Snapshot::calm())
                    .expect("feasible");
                npu_share.push(
                    (step.request.placement.processor_kind() == ProcessorKind::Npu) as u8 as f64,
                );
            }
        }
        println!(
            "  {label:<20} PPW {:>5.2}x  NPU/TPU chosen in {:>4.1}% of calm greedy decisions",
            mean(&ppws),
            mean(&npu_share) * 100.0
        );
    }
}
