//! Fleet transfer: train once on a flagship, ship the Q-table to the
//! rest of the fleet.
//!
//! The paper's Section VI-C shows that a Q-table trained on the Mi8Pro
//! transfers to other phones and accelerates their convergence, because
//! "they all exhibit a similar energy trend for each NN". This example
//! trains a donor on the Mi8Pro, serializes its agent with serde (as a
//! deployment pipeline would), transfers it to the other two phones, and
//! compares cold-start vs warm-start convergence.
//!
//! It then scales the same transfer to a serving fleet and compares it
//! with a cold one. A warm-started fleet (`--qtable` in `autoscale-cli
//! serve`) does not clone the donor's ~1.8 MiB table into every session:
//! it shares the converged donor table once and gives each session a
//! sparse copy-on-write overlay, so its sessions converge sooner while
//! each holds only a few KiB of its own.
//!
//! ```sh
//! cargo run --release --example fleet_transfer
//! ```

use autoscale::experiment;
use autoscale::prelude::*;
use autoscale::serve::serve;

fn main() {
    let config = EngineConfig::paper();

    // Train the donor across the full static design space.
    println!("training donor on Mi8Pro...");
    let mi8 = Simulator::new(DeviceId::Mi8Pro);
    let donor =
        experiment::train_engine(&mi8, &Workload::ALL, &EnvironmentId::STATIC, 40, config, 17);

    // Ship the learned table over the wire, as a fleet rollout would.
    let wire = serde_json::to_vec(donor.agent()).expect("agents serialize");
    println!(
        "donor Q-table serialized: {:.1} KiB ({} updates applied)\n",
        wire.len() as f64 / 1024.0,
        donor.agent().updates()
    );

    for device in [DeviceId::GalaxyS10e, DeviceId::MotoXForce] {
        let sim = Simulator::new(device);
        let scratch = experiment::training_curve(
            &sim,
            Workload::MobileNetV2,
            EnvironmentId::S1,
            250,
            config,
            23,
            None,
        );
        let transferred = experiment::training_curve(
            &sim,
            Workload::MobileNetV2,
            EnvironmentId::S1,
            250,
            config,
            23,
            Some(&donor),
        );
        let fmt = |c: &experiment::TrainingCurve| {
            c.converged_at
                .map_or("not within 250 runs".to_string(), |r| format!("run {r}"))
        };
        println!("{device}:");
        println!("  from scratch:     converged at {}", fmt(&scratch));
        println!("  with transfer:    converged at {}", fmt(&transferred));
        let early = |c: &experiment::TrainingCurve| {
            let n = 30.min(c.rewards.len());
            c.rewards[..n].iter().sum::<f64>() / n as f64
        };
        println!(
            "  mean reward over the first 30 runs: scratch {:.1}, transferred {:.1}\n",
            early(&scratch),
            early(&transferred)
        );
    }

    // Fleet rollout: many sessions, all seeded from the converged donor,
    // against a cold fleet of the same shape. The warm fleet shares the
    // donor table once and each session overlays only the rows its own
    // trace rewrites; every cold session draws its own random table.
    println!("fleet rollout on Mi8Pro: 500 sessions x 200 decisions");
    let mix = ScenarioMix::static_envs();
    let fleet = ServeConfig {
        sessions: 500,
        decisions_per_session: 200,
        ..ServeConfig::fleet()
    };
    let warm = serve(&mi8, &mix, &fleet, Some(donor.agent())).expect("warm fleets never error");
    let cold = serve(&mi8, &mix, &fleet, None).expect("cold fleets never error");
    let convergence = |r: &ServeReport| {
        let done: Vec<usize> = r.sessions.iter().filter_map(|s| s.converged_at).collect();
        let mean = done.iter().sum::<usize>() as f64 / done.len().max(1) as f64;
        (done.len(), mean)
    };
    let (cold_n, cold_mean) = convergence(&cold);
    let (warm_n, warm_mean) = convergence(&warm);
    println!(
        "  cold start:    {cold_n:>4}/{} sessions converged, mean at decision {cold_mean:.0}",
        cold.sessions.len()
    );
    println!(
        "  donor seeded:  {warm_n:>4}/{} sessions converged, mean at decision {warm_mean:.0} \
         ({:.2}x sooner)",
        warm.sessions.len(),
        cold_mean / warm_mean,
    );
    let per_session = |r: &ServeReport| r.store.bytes_per_session(r.sessions.len()) / 1024.0;
    println!(
        "  memory/session: cold {:.1} KiB ({} tables), donor seeded {:.1} KiB \
         ({} overlays, {:.1} rows/session, shared base counted once)",
        per_session(&cold),
        cold.store.qstore,
        per_session(&warm),
        warm.store.qstore,
        warm.store.overlay_rows as f64 / warm.sessions.len() as f64
    );
}
