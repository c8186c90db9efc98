//! The `R_energy` estimator — how AutoScale actually obtains its energy
//! reward on a phone.
//!
//! A deployed phone has no per-inference power meter. Section IV-A of the
//! paper therefore *estimates* `R_energy` from the measured latency and
//! pre-profiled power tables: the utilization-based CPU/GPU models
//! (eqs. (1) and (2)), the constant DSP power (eq. (3)), and the
//! signal-strength-based transmission model (eq. (4)) — "since the energy
//! estimation is based on the measured latency its MAPE is 7.3%, low
//! enough to identify the optimal action".
//!
//! This module reproduces that estimator. It deliberately reuses only the
//! quantities a phone can observe — the measured end-to-end latency, the
//! DVFS step it requested, the RSSI it sampled, and the profiled power
//! tables — *not* the simulator's internal ground truth. Its error
//! relative to the simulator's measured energy comes from the same
//! sources as the paper's: the measured latency folds in interference the
//! power tables know nothing about, and remote compute time must be
//! inferred by subtracting modelled transmission time.

use autoscale_net::Transfer;
use autoscale_nn::Workload;
use autoscale_platform::{power, ExecutionConditions};
use autoscale_sim::{Placement, Request, Simulator, Snapshot};

/// Estimates the phone-side energy of one executed inference, in
/// millijoules, from its measured latency (the paper's eqs. (1)–(4)):
/// the request's latency-independent terms, evaluated at the measured
/// latency.
///
/// # Panics
///
/// Panics if the request's placement does not exist on the testbed (the
/// inference could never have executed there).
pub fn estimate_energy_mj(
    sim: &Simulator,
    workload: Workload,
    request: &Request,
    snapshot: &Snapshot,
    measured_latency_ms: f64,
) -> f64 {
    EnergyTerms::new(sim, workload, request, snapshot).at(measured_latency_ms)
}

/// The latency-independent terms of one request's energy estimate: what
/// the estimator reads from the power tables and the link model before
/// it sees a measured latency. They depend on the testbed, the workload,
/// the request and the snapshot only, so a session that serves the same
/// request under the same snapshot again prices it once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EnergyTerms {
    /// Eqs. (1)–(3): power drawn for the whole measured latency.
    Local {
        /// Busy power at the requested (thermally capped) step, in W.
        busy_power_w: f64,
        /// The device's base draw, in W.
        base_power_w: f64,
    },
    /// Eq. (4): transmission bursts, then idle-wait power for the rest
    /// of the measured round trip.
    Remote {
        /// Radio energy of the wake ramp and both bursts, in mJ.
        radio_energy_mj: f64,
        /// Uplink time, in ms.
        tx_ms: f64,
        /// Downlink time, in ms.
        rx_ms: f64,
        /// Base plus radio-wait power, in W.
        wait_power_w: f64,
    },
}

impl EnergyTerms {
    /// Reads the terms of `request` under `snapshot`.
    ///
    /// # Panics
    ///
    /// As [`estimate_energy_mj`].
    pub(crate) fn new(
        sim: &Simulator,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "the request already executed, so its placement resolved to a processor"
        )]
        let processor = sim
            .processor_for(request.placement)
            .expect("the executed request's processor exists");
        match request.placement {
            Placement::OnDevice(_) => {
                // The phone knows its own thermal state, so the capped
                // step is used.
                let cond = ExecutionConditions {
                    freq_index: request.freq_index.min(processor.dvfs().max_index()),
                    precision: request.precision,
                    compute_availability: 1.0,
                    mem_availability: 1.0,
                    thermal_cap: sim.host().thermal().cap_for(snapshot.co_cpu),
                };
                EnergyTerms::Local {
                    busy_power_w: power::busy_power_w(processor, &cond),
                    base_power_w: sim.host().base_power_w(),
                }
            }
            Placement::ConnectedEdge(_) | Placement::Cloud(_) => {
                let (link, rssi) = match request.placement {
                    Placement::ConnectedEdge(_) => (sim.p2p(), snapshot.p2p),
                    _ => (sim.wlan(), snapshot.wlan),
                };
                let network = sim.network(workload);
                let transfer =
                    Transfer::compute(link, network.input_bytes(), network.output_bytes(), rssi);
                EnergyTerms::Remote {
                    radio_energy_mj: transfer.radio_energy_mj(),
                    tx_ms: transfer.tx_ms,
                    rx_ms: transfer.rx_ms,
                    wait_power_w: sim.host().base_power_w() + transfer.wait_power_w,
                }
            }
        }
    }

    /// The estimate at a measured latency, in millijoules. Local: busy
    /// plus base power times the measured busy time, as
    /// `power::on_device_energy_mj` sums them. Remote: the radio energy
    /// plus wait power over the measured round trip less both bursts.
    #[inline]
    pub(crate) fn at(&self, measured_latency_ms: f64) -> f64 {
        match *self {
            EnergyTerms::Local {
                busy_power_w,
                base_power_w,
            } => busy_power_w * measured_latency_ms + base_power_w * measured_latency_ms,
            EnergyTerms::Remote {
                radio_energy_mj,
                tx_ms,
                rx_ms,
                wait_power_w,
            } => {
                let wait_ms = (measured_latency_ms - tx_ms - rx_ms).max(0.0);
                radio_energy_mj + wait_power_w * wait_ms
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use autoscale_nn::Precision;
    use autoscale_platform::{DeviceId, ProcessorKind};
    use autoscale_sim::{Environment, EnvironmentId};

    /// The paper's estimator quality claim: MAPE low enough (≈7%) to rank
    /// actions. We reproduce the measurement across placements and
    /// environments.
    #[test]
    fn estimator_mape_is_single_digit() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = crate::action::ActionSpace::for_simulator(&sim);
        let mut rng = seeded_rng(31);
        let mut errors = Vec::new();
        for env_id in [EnvironmentId::S1, EnvironmentId::S2, EnvironmentId::S4] {
            let mut env = Environment::for_id(env_id);
            for w in [
                Workload::MobileNetV3,
                Workload::ResNet50,
                Workload::MobileBert,
            ] {
                for a in (0..space.len()).step_by(5) {
                    let request = space.request(a);
                    let snapshot = env.sample(&mut rng);
                    let Ok(measured) = sim.execute_measured(w, &request, &snapshot, &mut rng)
                    else {
                        continue;
                    };
                    let estimate =
                        estimate_energy_mj(&sim, w, &request, &snapshot, measured.latency_ms);
                    errors.push(((estimate - measured.energy_mj) / measured.energy_mj).abs());
                }
            }
        }
        let mape = errors.iter().sum::<f64>() / errors.len() as f64 * 100.0;
        assert!(mape < 10.0, "estimator MAPE {mape:.1}% (paper: 7.3%)");
        assert!(
            mape > 0.5,
            "estimator suspiciously exact ({mape:.2}%) — is it peeking?"
        );
    }

    /// The estimate as one body, before its split into terms: the
    /// on-device energy model and the transfer, read at the latency.
    fn unsplit_estimate_mj(
        sim: &Simulator,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
        measured_latency_ms: f64,
    ) -> f64 {
        let processor = sim.processor_for(request.placement).expect("feasible");
        let base_power_w = sim.host().base_power_w();
        let (link, rssi) = match request.placement {
            Placement::OnDevice(_) => {
                let cond = ExecutionConditions {
                    freq_index: request.freq_index.min(processor.dvfs().max_index()),
                    precision: request.precision,
                    compute_availability: 1.0,
                    mem_availability: 1.0,
                    thermal_cap: sim.host().thermal().cap_for(snapshot.co_cpu),
                };
                return power::on_device_energy_mj(
                    processor,
                    &cond,
                    measured_latency_ms,
                    base_power_w,
                )
                .total_mj();
            }
            Placement::ConnectedEdge(_) => (sim.p2p(), snapshot.p2p),
            Placement::Cloud(_) => (sim.wlan(), snapshot.wlan),
        };
        let network = sim.network(workload);
        let transfer = Transfer::compute(link, network.input_bytes(), network.output_bytes(), rssi);
        let wait_ms = (measured_latency_ms - transfer.tx_ms - transfer.rx_ms).max(0.0);
        transfer.radio_energy_mj() + (base_power_w + transfer.wait_power_w) * wait_ms
    }

    #[test]
    fn terms_at_a_latency_equal_the_unsplit_estimate_bit_for_bit() {
        // A session prices a request's terms once and evaluates them at
        // every measured latency: that must be the one-body estimate,
        // bit for bit. Latencies below a transfer's wire time exercise
        // the remote wait clamp.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = crate::action::ActionSpace::for_simulator(&sim);
        let mut rng = seeded_rng(34);
        let mut checked = 0;
        for env_id in EnvironmentId::ALL {
            // Past D4's first app switch, so both of its apps are seen
            // across the dynamic environments.
            let mut env = Environment::for_id(env_id);
            let snapshot = (0..30).map(|_| env.sample(&mut rng)).last().expect("30");
            for w in Workload::ALL {
                for a in 0..space.len() {
                    let request = space.request(a);
                    if !sim.is_feasible(w, &request) {
                        continue;
                    }
                    let terms = EnergyTerms::new(&sim, w, &request, &snapshot);
                    for latency_ms in [0.0, 0.25, 3.7, 18.0, 49.9, 240.5] {
                        let want = unsplit_estimate_mj(&sim, w, &request, &snapshot, latency_ms);
                        let got = terms.at(latency_ms);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{env_id} {w} {request} at {latency_ms} ms"
                        );
                        let public = estimate_energy_mj(&sim, w, &request, &snapshot, latency_ms);
                        assert_eq!(public.to_bits(), want.to_bits());
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked} estimates checked");
    }

    #[test]
    fn on_device_estimate_scales_with_latency() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let request = Request::at_max_frequency(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let calm = Snapshot::calm();
        let short = estimate_energy_mj(&sim, Workload::MobileNetV1, &request, &calm, 10.0);
        let long = estimate_energy_mj(&sim, Workload::MobileNetV1, &request, &calm, 20.0);
        assert!((long / short - 2.0).abs() < 1e-9);
    }

    #[test]
    fn remote_estimate_includes_radio_floor() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let request =
            Request::at_max_frequency(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let calm = Snapshot::calm();
        let e = estimate_energy_mj(&sim, Workload::ResNet50, &request, &calm, 40.0);
        // At least the radio wake energy is always paid.
        assert!(e > sim.wlan().wake_energy_mj());
    }

    #[test]
    fn estimator_ranks_actions_like_the_ground_truth() {
        // The point of the 7.3% MAPE claim: the estimate is good enough to
        // identify the optimal action. Check that the estimator's best
        // action (by estimated energy over measured latencies) matches the
        // ground truth's best within the calm environment.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = crate::action::ActionSpace::for_simulator(&sim);
        let calm = Snapshot::calm();
        let mut rng = seeded_rng(32);
        let w = Workload::InceptionV1;
        let mut best_true: Option<(usize, f64)> = None;
        let mut best_est: Option<(usize, f64)> = None;
        for a in 0..space.len() {
            let request = space.request(a);
            let Ok(measured) = sim.execute_measured(w, &request, &calm, &mut rng) else {
                continue;
            };
            let truth = sim
                .execute_expected(w, &request, &calm)
                .expect("feasible")
                .energy_mj;
            let est = estimate_energy_mj(&sim, w, &request, &calm, measured.latency_ms);
            if best_true.is_none_or(|(_, e)| truth < e) {
                best_true = Some((a, truth));
            }
            if best_est.is_none_or(|(_, e)| est < e) {
                best_est = Some((a, est));
            }
        }
        let (ta, _) = best_true.expect("actions evaluated");
        let (ea, _) = best_est.expect("actions evaluated");
        // Identical action, or within 5% energy of the true optimum.
        if ta != ea {
            let true_best = sim
                .execute_expected(w, &space.request(ta), &calm)
                .expect("feasible")
                .energy_mj;
            let est_choice = sim
                .execute_expected(w, &space.request(ea), &calm)
                .expect("feasible")
                .energy_mj;
            assert!(
                (est_choice - true_best) / true_best < 0.05,
                "estimator picked {} ({est_choice:.1} mJ) vs true best {} ({true_best:.1} mJ)",
                space.request(ea),
                space.request(ta)
            );
        }
    }
}
