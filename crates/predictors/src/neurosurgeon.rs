//! NeuroSurgeon \[53\]: regression-driven layer-split selection between the
//! phone CPU and the cloud.
//!
//! NeuroSurgeon trains per-layer-type latency/energy prediction models
//! offline, then at runtime predicts each layer's cost on the device and
//! the server, prices the candidate split points, and picks the best one.
//! Crucially it assumes a *static* network profile (a fixed bandwidth and
//! round-trip time measured at profiling time) and does not observe
//! co-runner interference — the blindness to stochastic variance that the
//! paper's Fig. 9 comparison exploits.

use autoscale_nn::{Layer, Network};
use serde::{Deserialize, Serialize};

use crate::linreg::{FitError, LinearRegression};

/// What a split-selection policy optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitObjective {
    /// Minimize predicted end-to-end latency.
    Latency,
    /// Minimize predicted phone-side energy.
    Energy,
}

/// A profiled training sample: one layer's observed costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSample {
    /// Layer MAC count.
    pub macs: u64,
    /// Layer FP32 memory traffic in bytes.
    pub traffic_bytes: u64,
    /// Observed latency on the phone processor, in milliseconds.
    pub local_ms: f64,
    /// Observed latency on the remote processor, in milliseconds.
    pub remote_ms: f64,
}

/// The static link profile NeuroSurgeon measured at deployment time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticLinkProfile {
    /// Assumed uplink rate in Mbit/s.
    pub rate_mbps: f64,
    /// Assumed round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Assumed radio power during transfers, in watts.
    pub radio_power_w: f64,
    /// Assumed phone power while computing locally, in watts.
    pub local_power_w: f64,
    /// Assumed phone power while waiting for the server, in watts.
    pub wait_power_w: f64,
}

impl Default for StaticLinkProfile {
    fn default() -> Self {
        // A healthy office Wi-Fi, as profiled on a good day.
        StaticLinkProfile {
            rate_mbps: 60.0,
            rtt_ms: 20.0,
            radio_power_w: 0.9,
            local_power_w: 4.5,
            wait_power_w: 1.2,
        }
    }
}

/// The NeuroSurgeon split planner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuroSurgeon {
    local_model: LinearRegression,
    remote_model: LinearRegression,
    link: StaticLinkProfile,
}

/// Extracts the regression features of one layer: giga-MACs and MB of
/// traffic — the quantities NeuroSurgeon's per-layer models key on.
pub fn layer_features(macs: u64, traffic_bytes: u64) -> Vec<f64> {
    vec![macs as f64 / 1e9, traffic_bytes as f64 / 1e6]
}

impl NeuroSurgeon {
    /// Trains the per-layer latency regressions from profiled samples.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if the samples are empty or degenerate.
    pub fn train(samples: &[LayerSample], link: StaticLinkProfile) -> Result<Self, FitError> {
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| layer_features(s.macs, s.traffic_bytes))
            .collect();
        let local_ys: Vec<f64> = samples.iter().map(|s| s.local_ms).collect();
        let remote_ys: Vec<f64> = samples.iter().map(|s| s.remote_ms).collect();
        Ok(NeuroSurgeon {
            local_model: LinearRegression::fit(&xs, &local_ys, 1e-6)?,
            remote_model: LinearRegression::fit(&xs, &remote_ys, 1e-6)?,
            link,
        })
    }

    /// The static link profile the planner assumes.
    pub fn link(&self) -> StaticLinkProfile {
        self.link
    }

    /// Predicted latency of one layer on the phone, in milliseconds.
    pub fn predict_local_ms(&self, layer: &Layer) -> f64 {
        self.local_model
            .predict(&layer_features(
                layer.macs,
                layer.weight_bytes_fp32 + layer.input_bytes_fp32 + layer.output_bytes_fp32,
            ))
            .max(0.0)
    }

    /// Predicted latency of one layer on the server, in milliseconds.
    pub fn predict_remote_ms(&self, layer: &Layer) -> f64 {
        self.remote_model
            .predict(&layer_features(
                layer.macs,
                layer.weight_bytes_fp32 + layer.input_bytes_fp32 + layer.output_bytes_fp32,
            ))
            .max(0.0)
    }

    /// Predicted (latency, energy) of splitting `network` at `split`.
    pub fn predict_split(&self, network: &Network, split: usize) -> (f64, f64) {
        let layers = network.layers();
        let local_ms: f64 = layers[..split]
            .iter()
            .map(|l| self.predict_local_ms(l))
            .sum();
        if split == layers.len() {
            return (local_ms, self.link.local_power_w * local_ms);
        }
        let cut_bytes = if split == 0 {
            network.input_bytes()
        } else {
            layers[split - 1].output_bytes_fp32
        };
        let tx_ms = cut_bytes as f64 * 8.0 / (self.link.rate_mbps * 1e6) * 1e3;
        let rx_ms = network.output_bytes() as f64 * 8.0 / (self.link.rate_mbps * 1e6) * 1e3;
        let remote_ms: f64 = layers[split..]
            .iter()
            .map(|l| self.predict_remote_ms(l))
            .sum();
        let latency = local_ms + tx_ms + self.link.rtt_ms + remote_ms + rx_ms;
        let energy = self.link.local_power_w * local_ms
            + self.link.radio_power_w * (tx_ms + rx_ms)
            + self.link.wait_power_w * (self.link.rtt_ms + remote_ms);
        (latency, energy)
    }

    /// The split point NeuroSurgeon selects for a network.
    pub fn choose_split(&self, network: &Network, objective: SplitObjective) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "a network always has at least one split point"
        )]
        (0..=network.layers().len())
            .map(|s| {
                let (lat, en) = self.predict_split(network, s);
                let score = match objective {
                    SplitObjective::Latency => lat,
                    SplitObjective::Energy => en,
                };
                (s, score)
            })
            .min_by(
                #[expect(clippy::expect_used, reason = "predicted layer costs are finite")]
                |a, b| a.1.partial_cmp(&b.1).expect("finite predictions"),
            )
            .map(|(s, _)| s)
            .expect("at least one split point")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_nn::Workload;

    /// Profiled samples for a world where the server is 20x faster.
    fn samples() -> Vec<LayerSample> {
        (1..40)
            .map(|i| {
                let macs = i as u64 * 40_000_000;
                let traffic = i as u64 * 600_000;
                LayerSample {
                    macs,
                    traffic_bytes: traffic,
                    local_ms: macs as f64 / 18e6 + traffic as f64 / 12e6,
                    remote_ms: macs as f64 / 3_000e6 + traffic as f64 / 500e6,
                }
            })
            .collect()
    }

    fn planner() -> NeuroSurgeon {
        NeuroSurgeon::train(&samples(), StaticLinkProfile::default()).unwrap()
    }

    #[test]
    fn predictions_are_nonnegative() {
        let ns = planner();
        let net = Network::workload(Workload::InceptionV1);
        for layer in net.layers() {
            assert!(ns.predict_local_ms(layer) >= 0.0);
            assert!(ns.predict_remote_ms(layer) >= 0.0);
        }
    }

    #[test]
    fn remote_prediction_is_faster_for_heavy_layers() {
        let ns = planner();
        let net = Network::workload(Workload::ResNet50);
        let heavy = net.layers().iter().max_by_key(|l| l.macs).unwrap();
        assert!(ns.predict_remote_ms(heavy) < ns.predict_local_ms(heavy));
    }

    #[test]
    fn heavy_network_prefers_offloading_early() {
        let ns = planner();
        let net = Network::workload(Workload::ResNet50);
        let split = ns.choose_split(&net, SplitObjective::Latency);
        // With a 20x-faster server and a healthy link, most of ResNet 50
        // should run remotely.
        assert!(split < net.layers().len() / 2, "split={split}");
    }

    #[test]
    fn objectives_can_disagree() {
        // Both objectives must at least produce valid split points.
        let ns = planner();
        let net = Network::workload(Workload::MobileNetV3);
        for obj in [SplitObjective::Latency, SplitObjective::Energy] {
            let split = ns.choose_split(&net, obj);
            assert!(split <= net.layers().len());
        }
    }

    #[test]
    fn static_profile_is_blind_to_signal_collapse() {
        // The planner's choice does not depend on the *actual* RSSI — it
        // has no input for it. This blindness is the point of the paper's
        // comparison: the same split is chosen under any signal.
        let ns = planner();
        let net = Network::workload(Workload::InceptionV1);
        let split_a = ns.choose_split(&net, SplitObjective::Latency);
        let split_b = ns.choose_split(&net, SplitObjective::Latency);
        assert_eq!(split_a, split_b);
    }

    #[test]
    fn training_rejects_empty_samples() {
        assert!(NeuroSurgeon::train(&[], StaticLinkProfile::default()).is_err());
    }
}
