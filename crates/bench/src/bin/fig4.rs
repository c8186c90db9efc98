//! Figure 4: the optimal edge-cloud execution target shifts with the
//! inference accuracy target.
//!
//! Prints PPW (normalized to `Edge (CPU FP32)`) and accuracy for every
//! (target, precision) combination of Inception v1 and MobileNet v3 on
//! the Mi8Pro, then the optimal target under a 50% and a 65% accuracy
//! requirement.

use autoscale::prelude::*;
use autoscale::scheduler::OracleScheduler;
use autoscale_bench::section;

fn main() {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let calm = Snapshot::calm();
    println!("Figure 4: PPW (normalized to Edge (CPU FP32)) and accuracy per target");

    for w in [Workload::InceptionV1, Workload::MobileNetV3] {
        section(&w.to_string());
        let base = sim
            .execute_expected(
                w,
                &Request::at_max_frequency(
                    &sim,
                    Placement::OnDevice(ProcessorKind::Cpu),
                    Precision::Fp32,
                ),
                &calm,
            )
            .expect("CPU FP32 always runs");
        for (label, placement, precision) in combos() {
            let request = Request::at_max_frequency(&sim, placement, precision);
            if let Ok(o) = sim.execute_expected(w, &request, &calm) {
                println!(
                    "  {label:<22} PPW {:>5.2}x   accuracy {:>5.1}%",
                    base.energy_mj / o.energy_mj,
                    o.accuracy
                )
            }
        }
        for target in [50.0, 65.0] {
            let oracle = OracleScheduler::new(
                &sim,
                EngineConfig {
                    accuracy_target: Some(target),
                    ..EngineConfig::paper()
                },
            );
            let opt = oracle.optimal_request(&sim, w, &calm);
            println!("  optimal @ {target:.0}% accuracy target: {opt}");
        }
    }
}

fn combos() -> Vec<(&'static str, Placement, Precision)> {
    vec![
        (
            "Edge (CPU FP32)",
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        ),
        (
            "Edge (CPU INT8)",
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Int8,
        ),
        (
            "Edge (GPU FP32)",
            Placement::OnDevice(ProcessorKind::Gpu),
            Precision::Fp32,
        ),
        (
            "Edge (GPU FP16)",
            Placement::OnDevice(ProcessorKind::Gpu),
            Precision::Fp16,
        ),
        (
            "Edge (DSP INT8)",
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        ),
        (
            "Cloud (GPU FP32)",
            Placement::Cloud(ProcessorKind::Gpu),
            Precision::Fp32,
        ),
    ]
}
