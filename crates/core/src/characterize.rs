//! Offline characterization: the profiling runs that produce training
//! data for the predictive baselines of Section III-C.
//!
//! The paper trains its comparison predictors on measurements of the
//! design space (states × actions). This module sweeps the simulator the
//! same way: for sampled runtime-variance snapshots and every feasible
//! action it records the measured energy and latency, producing the
//! feature/target matrices the regression, classification and
//! Bayesian-optimization baselines are built from — and the per-layer
//! profiles the NeuroSurgeon/MOSAIC planners train on.

use autoscale_net::Rssi;
use autoscale_nn::{Network, Precision, Workload};
use autoscale_platform::{latency::layer_latency_ms, ExecutionConditions, ProcessorKind};
use autoscale_predictors::neurosurgeon::LayerSample;
use autoscale_predictors::svr::SvrConfig;
use autoscale_predictors::{
    KnnClassifier, LinearRegression, StandardScaler, SupportVectorRegression, SvmClassifier,
};
use autoscale_sim::{Outcome, Simulator, Snapshot};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::action::ActionSpace;
use crate::engine::EngineConfig;
use crate::scheduler::{
    ClassificationScheduler, ClassifierModel, RegressionModel, RegressionScheduler, SchedulerKind,
};

/// The raw (unstandardized) state features of one inference, in the order
/// of the paper's Table I: CONV count, FC count, RC count, giga-MACs,
/// co-runner CPU utilization, co-runner memory usage, WLAN dBm, P2P dBm.
pub fn state_features(network: &Network, snapshot: &Snapshot) -> Vec<f64> {
    vec![
        network.count(autoscale_nn::LayerKind::Conv) as f64,
        network.count(autoscale_nn::LayerKind::Fc) as f64,
        network.count(autoscale_nn::LayerKind::Rc) as f64,
        network.total_macs() as f64 / 1e9,
        snapshot.co_cpu,
        snapshot.co_mem,
        snapshot.wlan.dbm(),
        snapshot.p2p.dbm(),
    ]
}

/// One characterization measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// The profiled workload.
    pub workload: Workload,
    /// The runtime-variance snapshot of the run.
    pub snapshot: Snapshot,
    /// The action index in the device's [`ActionSpace`].
    pub action: usize,
    /// Concatenated state + action features.
    pub features: Vec<f64>,
    /// The measured outcome.
    pub outcome: Outcome,
}

/// A characterization dataset with its action space.
#[derive(Debug)]
pub struct Dataset {
    /// The action space the samples index into.
    pub space: ActionSpace,
    /// The measurements.
    pub samples: Vec<Sample>,
}

/// Whether the profiling sweep includes stochastic runtime variance —
/// the axis the paper's Fig. 7 MAPE comparison varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarianceMode {
    /// Calm conditions only (no co-runners, strong signals).
    Calm,
    /// Random co-runner pressure and signal strengths per run.
    Stochastic,
}

/// Draws a profiling snapshot for the given variance mode.
pub fn sample_snapshot(mode: VarianceMode, rng: &mut StdRng) -> Snapshot {
    match mode {
        VarianceMode::Calm => Snapshot::calm(),
        VarianceMode::Stochastic => Snapshot::new(
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
            Rssi::new(rng.gen_range(-92.0..-45.0)),
            Rssi::new(rng.gen_range(-92.0..-45.0)),
        ),
    }
}

/// Profiles `snapshots_per_workload` snapshots per workload, measuring
/// every feasible action under each.
pub fn collect(
    sim: &Simulator,
    workloads: &[Workload],
    mode: VarianceMode,
    snapshots_per_workload: usize,
    rng: &mut StdRng,
) -> Dataset {
    let space = ActionSpace::for_simulator(sim);
    let mut samples = Vec::new();
    for &workload in workloads {
        for _ in 0..snapshots_per_workload {
            let snapshot = sample_snapshot(mode, rng);
            let state = state_features(sim.network(workload), &snapshot);
            for action in 0..space.len() {
                let request = space.request(action);
                let outcome = match sim.execute_measured(workload, &request, &snapshot, rng) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                let mut features = state.clone();
                features.extend(space.action_features(sim, action));
                samples.push(Sample {
                    workload,
                    snapshot,
                    action,
                    features,
                    outcome,
                });
            }
        }
    }
    Dataset { space, samples }
}

impl Dataset {
    /// The feature matrix.
    pub fn xs(&self) -> Vec<Vec<f64>> {
        self.samples.iter().map(|s| s.features.clone()).collect()
    }

    /// Energy targets in millijoules.
    pub fn energies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.outcome.energy_mj).collect()
    }

    /// Natural-log energy targets. The regression baselines fit in log
    /// space because per-inference energies span three orders of
    /// magnitude across the design space; a raw-scale linear fit would
    /// have unbounded relative error on the cheap targets.
    pub fn log_energies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.outcome.energy_mj.ln())
            .collect()
    }

    /// Latency targets in milliseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.outcome.latency_ms).collect()
    }

    /// Natural-log latency targets (see [`Dataset::log_energies`]).
    pub fn log_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.outcome.latency_ms.ln())
            .collect()
    }

    /// Per-(workload, snapshot) optimal-target labels for the
    /// classification baselines: the *coarse* execution target (placement
    /// and precision, ignoring DVFS) of the measured most-efficient
    /// feasible action meeting the constraints, paired with the state
    /// features it was observed under. `config` sets the constraints.
    pub fn classification_set(
        &self,
        sim: &Simulator,
        config: EngineConfig,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        use std::collections::BTreeMap;
        // Group samples by (workload, snapshot) via their state features:
        // key -> (state features, workload, observed (action, outcome)s).
        type Group = (Vec<f64>, Workload, Vec<(usize, Outcome)>);
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for s in &self.samples {
            let state = state_features(sim.network(s.workload), &s.snapshot);
            let key = format!("{:?}-{:?}", s.workload, state);
            groups
                .entry(key)
                .or_insert_with(|| (state, s.workload, Vec::new()))
                .2
                .push((s.action, s.outcome));
        }
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for (_, (state, workload, outcomes)) in groups {
            let cfg = config.reward_for(workload);
            let accuracy_ok = |o: &Outcome| cfg.accuracy_target.is_none_or(|t| o.accuracy >= t);
            #[expect(
                clippy::expect_used,
                reason = "cost-model energies are finite, so partial_cmp cannot return None"
            )]
            let best = outcomes
                .iter()
                .filter(|(_, o)| accuracy_ok(o) && o.latency_ms < cfg.qos_ms)
                .chain(outcomes.iter().filter(|(_, o)| accuracy_ok(o)))
                .chain(outcomes.iter())
                .min_by(|a, b| a.1.energy_mj.partial_cmp(&b.1.energy_mj).expect("finite"));
            if let Some(&(action, _)) = best {
                xs.push(state);
                labels.push(self.space.coarse_of(action));
            }
        }
        (xs, labels)
    }
}

/// Trains the LR baseline scheduler from a dataset.
pub fn train_lr_scheduler(
    sim: &Simulator,
    dataset: &Dataset,
    config: EngineConfig,
) -> RegressionScheduler {
    let xs = dataset.xs();
    let scaler = StandardScaler::fit(&xs);
    let xs = scaler.transform_all(&xs);
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let energy =
        LinearRegression::fit(&xs, &dataset.log_energies(), 1e-6).expect("dataset is valid");
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let latency =
        LinearRegression::fit(&xs, &dataset.log_latencies(), 1e-6).expect("dataset is valid");
    RegressionScheduler::new(
        sim,
        SchedulerKind::LinearRegression,
        RegressionModel::Linear { energy, latency },
        scaler,
        config,
    )
}

/// Trains the SVR baseline scheduler from a dataset.
pub fn train_svr_scheduler(
    sim: &Simulator,
    dataset: &Dataset,
    config: EngineConfig,
) -> RegressionScheduler {
    let xs = dataset.xs();
    let scaler = StandardScaler::fit(&xs);
    let xs = scaler.transform_all(&xs);
    let svr = SvrConfig {
        epsilon: 0.05,
        lambda: 1e-5,
        epochs: 400,
    };
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let energy =
        SupportVectorRegression::fit(&xs, &dataset.log_energies(), svr).expect("dataset is valid");
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let latency =
        SupportVectorRegression::fit(&xs, &dataset.log_latencies(), svr).expect("dataset is valid");
    RegressionScheduler::new(
        sim,
        SchedulerKind::Svr,
        RegressionModel::Svr { energy, latency },
        scaler,
        config,
    )
}

/// Trains the SVM baseline scheduler from a dataset.
pub fn train_svm_scheduler(
    sim: &Simulator,
    dataset: &Dataset,
    config: EngineConfig,
) -> ClassificationScheduler {
    let (xs, labels) = dataset.classification_set(sim, config);
    let scaler = StandardScaler::fit(&xs);
    let xs = scaler.transform_all(&xs);
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let model = SvmClassifier::fit_default(&xs, &labels).expect("dataset is valid");
    ClassificationScheduler::new(sim, SchedulerKind::Svm, ClassifierModel::Svm(model), scaler)
}

/// Trains the k-NN baseline scheduler from a dataset.
pub fn train_knn_scheduler(
    sim: &Simulator,
    dataset: &Dataset,
    config: EngineConfig,
) -> ClassificationScheduler {
    let (xs, labels) = dataset.classification_set(sim, config);
    let scaler = StandardScaler::fit(&xs);
    let xs = scaler.transform_all(&xs);
    #[expect(
        clippy::expect_used,
        reason = "the characterization dataset is non-empty and well-formed by construction"
    )]
    let model = KnnClassifier::fit(&xs, &labels, 5).expect("dataset is valid");
    ClassificationScheduler::new(sim, SchedulerKind::Knn, ClassifierModel::Knn(model), scaler)
}

/// Profiles per-layer latencies for the NeuroSurgeon/MOSAIC planners:
/// each layer of every workload measured on a local processor and on the
/// cloud GPU, with small multiplicative profiling noise.
pub fn layer_profile(sim: &Simulator, local: ProcessorKind, rng: &mut StdRng) -> Vec<LayerSample> {
    #[expect(
        clippy::expect_used,
        reason = "layer_profile is only called for processors the host exposes"
    )]
    let local_proc = sim
        .host()
        .processor(local)
        .expect("profiled local processor exists");
    #[expect(
        clippy::expect_used,
        reason = "every testbed cloud is provisioned with a GPU"
    )]
    let remote_proc = sim
        .cloud()
        .processor(ProcessorKind::Gpu)
        .expect("the cloud has a GPU");
    let local_cond = ExecutionConditions::max_frequency(local_proc, Precision::Fp32);
    let remote_cond = ExecutionConditions::max_frequency(remote_proc, Precision::Fp32);
    let mut samples = Vec::new();
    for w in Workload::ALL {
        for layer in sim.network(w).layers() {
            let mut noise = || 1.0 + rng.gen_range(-0.03..0.03);
            let local_noise = noise();
            let remote_noise = noise();
            samples.push(LayerSample {
                macs: layer.macs,
                traffic_bytes: layer.weight_bytes_fp32
                    + layer.input_bytes_fp32
                    + layer.output_bytes_fp32,
                local_ms: layer_latency_ms(local_proc, layer, &local_cond) * local_noise,
                remote_ms: layer_latency_ms(remote_proc, layer, &remote_cond) * remote_noise,
            });
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use autoscale_platform::DeviceId;

    #[test]
    fn state_features_have_eight_dimensions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let f = state_features(sim.network(Workload::MobileNetV3), &Snapshot::calm());
        assert_eq!(f.len(), 8);
        assert_eq!(f[0], 23.0); // CONV count
        assert_eq!(f[1], 20.0); // FC count
    }

    #[test]
    fn collect_measures_every_feasible_action() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(1);
        let ds = collect(
            &sim,
            &[Workload::MobileNetV1],
            VarianceMode::Calm,
            2,
            &mut rng,
        );
        // All 66 actions are feasible for a vision model.
        assert_eq!(ds.samples.len(), 2 * 66);
        assert!(ds.samples.iter().all(|s| s.outcome.energy_mj > 0.0));
    }

    #[test]
    fn recurrent_workload_skips_infeasible_actions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(2);
        let ds = collect(
            &sim,
            &[Workload::MobileBert],
            VarianceMode::Calm,
            1,
            &mut rng,
        );
        // CPU (46) + cloud CPU/GPU (2) + connected CPU (1) = 49 actions.
        assert_eq!(ds.samples.len(), 49);
    }

    #[test]
    fn stochastic_mode_varies_snapshots() {
        let mut rng = seeded_rng(3);
        let a = sample_snapshot(VarianceMode::Stochastic, &mut rng);
        let b = sample_snapshot(VarianceMode::Stochastic, &mut rng);
        assert_ne!(a, b);
        assert_eq!(
            sample_snapshot(VarianceMode::Calm, &mut rng),
            Snapshot::calm()
        );
    }

    #[test]
    fn classification_set_labels_are_valid_actions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(4);
        let ds = collect(
            &sim,
            &[Workload::MobileNetV1, Workload::InceptionV1],
            VarianceMode::Stochastic,
            3,
            &mut rng,
        );
        let (xs, labels) = ds.classification_set(&sim, EngineConfig::paper());
        assert_eq!(xs.len(), labels.len());
        assert!(!labels.is_empty());
        assert!(labels.iter().all(|&l| l < ds.space.coarse_targets().len()));
    }

    #[test]
    fn trained_lr_scheduler_decides_feasibly() {
        use crate::scheduler::{Decision, Scheduler};
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(5);
        let ds = collect(&sim, &Workload::ALL, VarianceMode::Calm, 1, &mut rng);
        let mut lr = train_lr_scheduler(&sim, &ds, EngineConfig::paper());
        for w in Workload::ALL {
            match lr.decide(&sim, w, &Snapshot::calm(), &mut rng) {
                Decision::Whole(r) => assert!(sim.is_feasible(w, &r), "{w}: {r}"),
                _ => panic!("regression schedulers run whole models"),
            }
        }
    }

    #[test]
    fn layer_profile_covers_all_layers() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = seeded_rng(6);
        let samples = layer_profile(&sim, ProcessorKind::Cpu, &mut rng);
        let expected: usize = Workload::ALL
            .iter()
            .map(|&w| sim.network(w).layers().len())
            .sum();
        assert_eq!(samples.len(), expected);
        assert!(samples
            .iter()
            .all(|s| s.local_ms >= 0.0 && s.remote_ms >= 0.0));
    }
}
