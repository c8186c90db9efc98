//! Strategies shared by the integration tests that drive whole fleets.

use autoscale::prelude::*;
use proptest::prelude::*;

/// An arbitrary fault profile: every rate spans [0, 1] (including the
/// degenerate all-fail and all-clear corners), windows up to 6 requests,
/// stragglers up to 8x, bursts up to 50 °C.
pub fn arb_fault_profile() -> impl Strategy<Value = FaultProfile> {
    (
        (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
        (0.0..=1.0f64, 0.0..=1.0f64, 0usize..=6),
        (0.0..=1.0f64, 0.5..=8.0f64),
        (0.0..=1.0f64, 25.0..=50.0f64),
    )
        .prop_map(
            |(
                (edge_drop, cloud_drop, edge_to, cloud_to),
                (edge_disc, cloud_disc, disconnect_len),
                (straggler_rate, straggler_scale),
                (thermal_burst_rate, thermal_burst_temp_c),
            )| {
                // Per-attempt dropout and timeout rates share one draw, so
                // their sum must stay within [0, 1] for the bands to be
                // disjoint; rescale the pair when it overflows.
                let scale = |drop: f64, to: f64| {
                    let sum = drop + to;
                    if sum > 1.0 {
                        (drop / sum, to / sum)
                    } else {
                        (drop, to)
                    }
                };
                let (edge_dropout_rate, edge_timeout_rate) = scale(edge_drop, edge_to);
                let (cloud_dropout_rate, cloud_timeout_rate) = scale(cloud_drop, cloud_to);
                FaultProfile {
                    edge_dropout_rate,
                    cloud_dropout_rate,
                    edge_timeout_rate,
                    cloud_timeout_rate,
                    edge_disconnect_rate: edge_disc,
                    cloud_disconnect_rate: cloud_disc,
                    disconnect_len,
                    straggler_rate,
                    straggler_scale,
                    thermal_burst_rate,
                    thermal_burst_temp_c,
                }
            },
        )
}

/// An arbitrary open-loop traffic shape: every named arrival process at
/// rates spanning "well under" to "well over" the device's service rate,
/// every named churn schedule, every admission policy, and queue bounds
/// down to a single slot.
pub fn arb_openloop() -> impl Strategy<Value = OpenLoopConfig> {
    (
        prop::sample::select(ArrivalProcess::NAMES.to_vec()),
        20.0..=1500.0f64,
        prop::sample::select(ChurnConfig::NAMES.to_vec()),
        prop::sample::select(AdmissionPolicy::NAMES.to_vec()),
        1usize..=16,
    )
        .prop_map(|(arrivals, rate_hz, churn, admission, queue_capacity)| {
            let horizon_ms = 250.0;
            OpenLoopConfig {
                arrivals: ArrivalProcess::parse(arrivals, rate_hz).expect("named process"),
                churn: ChurnConfig::parse(churn, horizon_ms).expect("named schedule"),
                horizon_ms,
                queue_capacity,
                admission: AdmissionPolicy::parse(admission).expect("named policy"),
            }
        })
}
