//! Figure 14: training overhead — the reward converges within tens of
//! runs, and learning transfer accelerates convergence.
//!
//! Prints (a) the reward curve (window medians) when training from
//! scratch on the Mi8Pro, (b) convergence points with and without a
//! Q-table transferred from the Mi8Pro on the other two phones, and
//! (c) the static-vs-dynamic convergence comparison.
//!
//! Parts (b) and (c) run on the deterministic parallel harness, one cell
//! per training curve. Curve seeds stay explicit (scratch and
//! transferred runs must pair on the same seed), so results are
//! bit-identical for any `--threads` value.

use autoscale::experiment::{self, TrainingCurve};
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale_bench::{mean, section, threads_from_args, TRAIN_RUNS};

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    let config = EngineConfig::paper();
    println!("Figure 14: reward convergence and learning transfer");

    // (a) Reward curve from scratch, Mi8Pro, calm environment.
    let mi8 = Simulator::new(DeviceId::Mi8Pro);
    let curve = experiment::training_curve(
        &mi8,
        Workload::InceptionV1,
        EnvironmentId::S1,
        150,
        config,
        7,
        None,
    );
    section("reward curve (Mi8Pro, Inception v1, S1) — window medians of 10");
    for (i, chunk) in curve.rewards.chunks(10).enumerate() {
        let mut sorted = chunk.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite rewards"));
        println!(
            "  runs {:>3}-{:>3}: median reward {:>9.1}",
            i * 10 + 1,
            i * 10 + chunk.len(),
            sorted[chunk.len() / 2]
        );
    }
    println!(
        "  converged at run {}",
        curve
            .converged_at
            .map_or("-".to_string(), |c| c.to_string())
    );

    // (b) Transfer: Mi8Pro-trained engine warm-starts the other phones.
    section("learning transfer (Mi8Pro donor)");
    let donor = experiment::train_engine(
        &mi8,
        &Workload::ALL,
        &EnvironmentId::STATIC,
        TRAIN_RUNS,
        config,
        17,
    );
    // One cell per (device, transferred?, seed) training curve; scratch
    // and transferred pair on the same explicit seed 20+s.
    let transfer_specs: Vec<(DeviceId, bool, u64)> = [DeviceId::GalaxyS10e, DeviceId::MotoXForce]
        .iter()
        .flat_map(|&d| {
            [false, true]
                .iter()
                .flat_map(move |&t| (0..6).map(move |s| (d, t, 20 + s)))
        })
        .collect();
    let curves = run_cells(
        threads,
        1400,
        &transfer_specs,
        |cell: &Cell<'_, (DeviceId, bool, u64)>| {
            let (device, transferred, seed) = *cell.spec;
            let sim = Simulator::new(device);
            experiment::training_curve(
                &sim,
                Workload::MobileNetV2,
                EnvironmentId::S1,
                200,
                config,
                seed,
                transferred.then_some(&donor),
            )
        },
    );
    let avg = |cs: &[TrainingCurve], cap: usize| {
        mean(
            &cs.iter()
                .map(|c| c.converged_at.unwrap_or(cap) as f64)
                .collect::<Vec<_>>(),
        )
    };
    for (device_idx, device) in [DeviceId::GalaxyS10e, DeviceId::MotoXForce]
        .iter()
        .enumerate()
    {
        let base = device_idx * 12;
        let s = avg(&curves[base..base + 6], 200);
        let t = avg(&curves[base + 6..base + 12], 200);
        println!(
            "  {device}: scratch converges ~run {s:.0}, transferred ~run {t:.0} ({:.1}% faster)",
            (1.0 - t / s) * 100.0
        );
    }

    // (c) Static vs dynamic environments.
    section("static vs dynamic convergence (Mi8Pro, MobileNet v1)");
    let env_specs: Vec<(EnvironmentId, u64)> = [EnvironmentId::S1, EnvironmentId::D2]
        .iter()
        .flat_map(|&e| (0..6).map(move |s| (e, 30 + s)))
        .collect();
    let env_curves = run_cells(
        threads,
        1410,
        &env_specs,
        |cell: &Cell<'_, (EnvironmentId, u64)>| {
            let (env, seed) = *cell.spec;
            experiment::training_curve(&mi8, Workload::MobileNetV1, env, 250, config, seed, None)
        },
    );
    for (env_idx, label) in ["static S1", "dynamic D2"].iter().enumerate() {
        let a = avg(&env_curves[env_idx * 6..(env_idx + 1) * 6], 250);
        println!("  {label}: converges ~run {a:.0}");
    }
}
