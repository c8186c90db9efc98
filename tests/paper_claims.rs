//! Integration tests for the paper's headline qualitative claims.
//!
//! These are scaled-down versions of the figure experiments: small run
//! counts, one or two devices, fixed seeds. Absolute numbers differ from
//! the paper (our substrate is a simulator, not the authors' testbed);
//! what must hold is the *shape* — who wins, roughly by how much, and
//! where the crossovers fall.

use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::scheduler::{AutoScaleScheduler, FixedScheduler, OracleScheduler};

/// Runs one scheduler over every workload in the static environments and
/// returns (mean normalized PPW vs Edge CPU FP32, mean QoS violation).
fn suite(
    ev: &Evaluator,
    build: &mut dyn FnMut(Workload) -> Box<dyn autoscale::scheduler::Scheduler>,
    warmup: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = autoscale::seeded_rng(seed);
    let mut ppw = Vec::new();
    let mut qos = Vec::new();
    for w in Workload::ALL {
        let mut sched = build(w);
        for env in [EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4] {
            let mut base = FixedScheduler::edge_cpu_fp32(ev.sim());
            let baseline = ev.run(&mut base, w, env, 0, 40, None, &mut rng);
            let rep = ev.run(sched.as_mut(), w, env, warmup, 40, None, &mut rng);
            ppw.push(rep.normalized_ppw(&baseline));
            qos.push(rep.qos_violation_ratio);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&ppw), mean(&qos))
}

#[test]
fn autoscale_beats_the_cpu_baseline_by_a_large_factor() {
    // Paper: 9.8x average energy-efficiency improvement over Edge (CPU
    // FP32) in static environments.
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let engine = experiment::train_engine(
        ev.sim(),
        &Workload::ALL,
        &[EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4],
        25,
        config,
        1,
    );
    let (ppw, qos) = suite(
        &ev,
        &mut |_| Box::new(AutoScaleScheduler::new(engine.clone())),
        60,
        2,
    );
    assert!(ppw > 5.0, "AutoScale only reached {ppw:.2}x");
    assert!(
        qos < 0.10,
        "AutoScale violated QoS {:.1}% of the time",
        qos * 100.0
    );
}

#[test]
fn autoscale_beats_cloud_and_edge_best_baselines() {
    // Paper: 1.6x over always-cloud and 2.3x over Edge (Best).
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let engine = experiment::train_engine(
        ev.sim(),
        &Workload::ALL,
        &[EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4],
        25,
        config,
        3,
    );
    let (autoscale_ppw, _) = suite(
        &ev,
        &mut |_| Box::new(AutoScaleScheduler::new(engine.clone())),
        60,
        4,
    );
    let (cloud_ppw, _) = suite(
        &ev,
        &mut |_| Box::new(FixedScheduler::cloud(ev.sim(), config)),
        0,
        4,
    );
    let (best_ppw, _) = suite(
        &ev,
        &mut |_| Box::new(FixedScheduler::edge_best(ev.sim(), config)),
        0,
        4,
    );
    assert!(
        autoscale_ppw > 1.2 * cloud_ppw,
        "AutoScale {autoscale_ppw:.2}x vs cloud {cloud_ppw:.2}x"
    );
    // The full Fig. 9 gap (2.3x) emerges across all three devices; on the
    // DSP-equipped Mi8Pro alone the margin is thinner.
    assert!(
        autoscale_ppw > 1.1 * best_ppw,
        "AutoScale {autoscale_ppw:.2}x vs Edge (Best) {best_ppw:.2}x"
    );
}

#[test]
fn autoscale_tracks_the_oracle_closely() {
    // Paper: AutoScale lands within 3.2% of Opt's energy efficiency and
    // within 1.9% of its QoS-violation ratio. We allow 15% on the shrunken
    // test budget.
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let engine = experiment::train_engine(
        ev.sim(),
        &Workload::ALL,
        &[EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4],
        25,
        config,
        5,
    );
    let (autoscale_ppw, autoscale_qos) = suite(
        &ev,
        &mut |_| Box::new(AutoScaleScheduler::new(engine.clone())),
        60,
        6,
    );
    let (opt_ppw, opt_qos) = suite(
        &ev,
        &mut |_| Box::new(OracleScheduler::new(ev.sim(), config)),
        0,
        6,
    );
    assert!(
        autoscale_ppw > 0.85 * opt_ppw,
        "AutoScale {autoscale_ppw:.2}x vs Opt {opt_ppw:.2}x"
    );
    assert!(
        autoscale_qos - opt_qos < 0.08,
        "QoS gap too large: {:.3} vs {:.3}",
        autoscale_qos,
        opt_qos
    );
}

#[test]
fn mid_end_device_always_benefits_from_scaling_out() {
    // Section III-A / Fig. 2: "for the mid-end system, scaling out to the
    // connected systems is always beneficial". Fig. 2 compares targets at
    // their deployment defaults (maximum frequency, native precision), so
    // that is what we compare here: the best remote default target beats
    // every on-device default target on the Moto X Force.
    let sim = Simulator::new(DeviceId::MotoXForce);
    let calm = Snapshot::calm();
    for w in Workload::ALL {
        let energy = |placement, precision| {
            let request = Request::at_max_frequency(&sim, placement, precision);
            sim.execute_expected(w, &request, &calm)
                .ok()
                .map(|o| o.energy_mj)
        };
        let best_local = [
            energy(Placement::OnDevice(ProcessorKind::Cpu), Precision::Fp32),
            energy(Placement::OnDevice(ProcessorKind::Gpu), Precision::Fp32),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        let best_remote = [
            energy(
                Placement::ConnectedEdge(ProcessorKind::Gpu),
                Precision::Fp32,
            ),
            energy(
                Placement::ConnectedEdge(ProcessorKind::Dsp),
                Precision::Int8,
            ),
            energy(Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        assert!(
            best_remote < best_local,
            "{w}: remote {best_remote:.1} mJ vs local {best_local:.1} mJ"
        );
    }
}

#[test]
fn high_end_device_runs_light_nns_locally_and_heavy_nns_remotely() {
    // Section III-A: light NNs favour the edge on high-end phones; heavy
    // NNs favour the cloud.
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let oracle = OracleScheduler::new(&sim, config);
    let calm = Snapshot::calm();
    for light in [
        Workload::MobileNetV1,
        Workload::MobileNetV3,
        Workload::InceptionV1,
    ] {
        let opt = oracle.optimal_request(&sim, light, &calm);
        assert!(
            matches!(opt.placement, Placement::OnDevice(_)),
            "{light}: expected on-device, got {opt}"
        );
    }
    let opt = oracle.optimal_request(&sim, Workload::MobileBert, &calm);
    assert!(
        matches!(opt.placement, Placement::Cloud(_)),
        "MobileBERT: got {opt}"
    );
}

#[test]
fn prior_work_layer_splitters_trail_autoscale() {
    // Paper: 1.9x over MOSAIC and 1.2x over NeuroSurgeon on average.
    let config = EngineConfig::paper();
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let engine = experiment::train_engine(
        ev.sim(),
        &Workload::ALL,
        &[EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4],
        25,
        config,
        7,
    );
    let (autoscale_ppw, _) = suite(
        &ev,
        &mut |_| Box::new(AutoScaleScheduler::new(engine.clone())),
        60,
        8,
    );
    let mut prior_rng = autoscale::seeded_rng(9);
    let (ns_ppw, _) = suite(
        &ev,
        &mut |_| Box::new(experiment::build_neurosurgeon(ev.sim(), &mut prior_rng)),
        0,
        8,
    );
    let mut prior_rng2 = autoscale::seeded_rng(10);
    let (mosaic_ppw, _) = suite(
        &ev,
        &mut |w| {
            Box::new(experiment::build_mosaic(
                ev.sim(),
                config.scenario_for(w).qos_ms(),
                &mut prior_rng2,
            ))
        },
        0,
        8,
    );
    assert!(
        autoscale_ppw > ns_ppw,
        "AutoScale {autoscale_ppw:.2} vs NeuroSurgeon {ns_ppw:.2}"
    );
    assert!(
        autoscale_ppw > mosaic_ppw,
        "AutoScale {autoscale_ppw:.2} vs MOSAIC {mosaic_ppw:.2}"
    );
}

#[test]
fn streaming_tightens_results_but_autoscale_still_beats_baselines() {
    // Fig. 10: under the 33.3 ms streaming target AutoScale degrades but
    // keeps its advantage.
    let config = EngineConfig {
        streaming: true,
        ..EngineConfig::paper()
    };
    let ev = Evaluator::new(Simulator::new(DeviceId::Mi8Pro), config);
    let engine = experiment::train_engine(
        ev.sim(),
        &[Workload::InceptionV1, Workload::SsdMobileNetV2],
        &[EnvironmentId::S1],
        60,
        config,
        11,
    );
    let mut rng = autoscale::seeded_rng(12);
    let mut sched = AutoScaleScheduler::new(engine);
    let mut base = FixedScheduler::edge_cpu_fp32(ev.sim());
    let baseline = ev.run(
        &mut base,
        Workload::InceptionV1,
        EnvironmentId::S1,
        0,
        40,
        None,
        &mut rng,
    );
    let rep = ev.run(
        &mut sched,
        Workload::InceptionV1,
        EnvironmentId::S1,
        60,
        40,
        None,
        &mut rng,
    );
    assert!(rep.normalized_ppw(&baseline) > 3.0);
    assert!(rep.qos_violation_ratio < baseline.qos_violation_ratio);
}
