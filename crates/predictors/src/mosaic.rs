//! MOSAIC \[42\]: heterogeneity-, communication- and constraint-aware model
//! slicing.
//!
//! MOSAIC generalizes NeuroSurgeon's single split by considering every
//! local processor (CPU and GPU) for the on-device slice and picking the
//! (processor, split) pair whose predicted cost is lowest while meeting
//! the latency constraint. Like NeuroSurgeon it relies on regression
//! models and a statically profiled link, so it too is blind to
//! stochastic runtime variance.

use autoscale_nn::Network;
use serde::{Deserialize, Serialize};

use crate::linreg::{FitError, LinearRegression};
use crate::neurosurgeon::{layer_features, LayerSample, SplitObjective, StaticLinkProfile};

/// A MOSAIC execution plan: which local processor runs the prefix and
/// where the model is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MosaicPlan {
    /// Index of the chosen local processor (into the processor list the
    /// planner was trained with; by convention 0 = CPU, 1 = GPU).
    pub local_processor: usize,
    /// The layer split point (0 = fully remote, n = fully local).
    pub split: usize,
}

/// The MOSAIC planner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mosaic {
    local_models: Vec<LinearRegression>,
    local_powers_w: Vec<f64>,
    remote_model: LinearRegression,
    link: StaticLinkProfile,
    qos_ms: f64,
}

impl Mosaic {
    /// Trains per-processor latency regressions.
    ///
    /// `local_samples[p]` holds the profiled samples of local processor
    /// `p`; `local_powers_w[p]` its assumed busy power. `qos_ms` is the
    /// latency constraint MOSAIC plans against.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if any sample set is empty or degenerate, or
    /// if the processor/power lists disagree in length.
    pub fn train(
        local_samples: &[Vec<LayerSample>],
        local_powers_w: &[f64],
        link: StaticLinkProfile,
        qos_ms: f64,
    ) -> Result<Self, FitError> {
        if local_samples.is_empty() || local_samples.len() != local_powers_w.len() {
            return Err(FitError::Empty);
        }
        let mut local_models = Vec::with_capacity(local_samples.len());
        let mut remote_xs = Vec::new();
        let mut remote_ys = Vec::new();
        for samples in local_samples {
            let xs: Vec<Vec<f64>> = samples
                .iter()
                .map(|s| layer_features(s.macs, s.traffic_bytes))
                .collect();
            let ys: Vec<f64> = samples.iter().map(|s| s.local_ms).collect();
            local_models.push(LinearRegression::fit(&xs, &ys, 1e-6)?);
            for s in samples {
                remote_xs.push(layer_features(s.macs, s.traffic_bytes));
                remote_ys.push(s.remote_ms);
            }
        }
        let remote_model = LinearRegression::fit(&remote_xs, &remote_ys, 1e-6)?;
        Ok(Mosaic {
            local_models,
            local_powers_w: local_powers_w.to_vec(),
            remote_model,
            link,
            qos_ms,
        })
    }

    /// Number of local processors the planner knows about.
    pub fn local_processors(&self) -> usize {
        self.local_models.len()
    }

    /// Predicted (latency, energy) of a plan.
    pub fn predict_plan(&self, network: &Network, plan: MosaicPlan) -> (f64, f64) {
        let layers = network.layers();
        let model = &self.local_models[plan.local_processor];
        let feats = |l: &autoscale_nn::Layer| {
            layer_features(
                l.macs,
                l.weight_bytes_fp32 + l.input_bytes_fp32 + l.output_bytes_fp32,
            )
        };
        let local_ms: f64 = layers[..plan.split]
            .iter()
            .map(|l| model.predict(&feats(l)).max(0.0))
            .sum();
        let local_power = self.local_powers_w[plan.local_processor];
        if plan.split == layers.len() {
            return (local_ms, local_power * local_ms);
        }
        let cut_bytes = if plan.split == 0 {
            network.input_bytes()
        } else {
            layers[plan.split - 1].output_bytes_fp32
        };
        let tx_ms = cut_bytes as f64 * 8.0 / (self.link.rate_mbps * 1e6) * 1e3;
        let rx_ms = network.output_bytes() as f64 * 8.0 / (self.link.rate_mbps * 1e6) * 1e3;
        let remote_ms: f64 = layers[plan.split..]
            .iter()
            .map(|l| self.remote_model.predict(&feats(l)).max(0.0))
            .sum();
        let latency = local_ms + tx_ms + self.link.rtt_ms + remote_ms + rx_ms;
        let energy = local_power * local_ms
            + self.link.radio_power_w * (tx_ms + rx_ms)
            + self.link.wait_power_w * (self.link.rtt_ms + remote_ms);
        (latency, energy)
    }

    /// The plan MOSAIC selects: the constraint-satisfying plan with the
    /// best objective, or the lowest-latency plan if none satisfies the
    /// QoS constraint.
    pub fn choose_plan(&self, network: &Network, objective: SplitObjective) -> MosaicPlan {
        let n = network.layers().len();
        let mut best: Option<(MosaicPlan, f64)> = None;
        let mut fastest: Option<(MosaicPlan, f64)> = None;
        for p in 0..self.local_models.len() {
            for split in 0..=n {
                let plan = MosaicPlan {
                    local_processor: p,
                    split,
                };
                let (lat, en) = self.predict_plan(network, plan);
                if fastest.as_ref().is_none_or(|&(_, fl)| lat < fl) {
                    fastest = Some((plan, lat));
                }
                if lat > self.qos_ms {
                    continue;
                }
                let score = match objective {
                    SplitObjective::Latency => lat,
                    SplitObjective::Energy => en,
                };
                if best.as_ref().is_none_or(|&(_, bs)| score < bs) {
                    best = Some((plan, score));
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the plan enumeration always contains the fully-local fallback"
        )]
        best.or(fastest)
            .map(|(plan, _)| plan)
            .expect("at least one plan exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_nn::Workload;

    fn samples(speed_gmacs: f64, bw_gbps: f64) -> Vec<LayerSample> {
        (1..40)
            .map(|i| {
                let macs = i as u64 * 40_000_000;
                let traffic = i as u64 * 600_000;
                LayerSample {
                    macs,
                    traffic_bytes: traffic,
                    local_ms: macs as f64 / (speed_gmacs * 1e6) + traffic as f64 / (bw_gbps * 1e6),
                    remote_ms: macs as f64 / 3_000e6 + traffic as f64 / 500e6,
                }
            })
            .collect()
    }

    fn planner(qos_ms: f64) -> Mosaic {
        Mosaic::train(
            &[samples(18.0, 12.0), samples(120.0, 18.0)],
            &[4.8, 3.1],
            StaticLinkProfile::default(),
            qos_ms,
        )
        .unwrap()
    }

    #[test]
    fn knows_both_local_processors() {
        assert_eq!(planner(50.0).local_processors(), 2);
    }

    #[test]
    fn heavy_network_slices_toward_the_server() {
        let m = planner(50.0);
        let net = Network::workload(Workload::ResNet50);
        let plan = m.choose_plan(&net, SplitObjective::Latency);
        assert!(plan.split < net.layers().len(), "plan={plan:?}");
    }

    #[test]
    fn prefers_the_faster_local_processor_for_local_slices() {
        let m = planner(50.0);
        let net = Network::workload(Workload::InceptionV1);
        let plan = m.choose_plan(&net, SplitObjective::Latency);
        // When any prefix runs locally, the GPU model (index 1) predicts
        // lower latency for CONV-dominated prefixes.
        if plan.split > 0 {
            assert_eq!(plan.local_processor, 1);
        }
    }

    #[test]
    fn infeasible_qos_falls_back_to_fastest() {
        let m = planner(0.001);
        let net = Network::workload(Workload::MobileNetV1);
        let plan = m.choose_plan(&net, SplitObjective::Energy);
        let (lat, _) = m.predict_plan(&net, plan);
        // Nothing satisfies 1 µs; the planner still returns its fastest.
        assert!(lat > 0.001);
    }

    #[test]
    fn energy_objective_yields_a_valid_plan() {
        let m = planner(100.0);
        let net = Network::workload(Workload::MobileNetV3);
        let plan = m.choose_plan(&net, SplitObjective::Energy);
        assert!(plan.local_processor < 2);
        assert!(plan.split <= net.layers().len());
    }

    #[test]
    fn training_validates_shapes() {
        assert!(Mosaic::train(&[], &[], StaticLinkProfile::default(), 50.0).is_err());
        assert!(Mosaic::train(
            &[samples(18.0, 12.0)],
            &[4.8, 3.1],
            StaticLinkProfile::default(),
            50.0
        )
        .is_err());
    }
}
