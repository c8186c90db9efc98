//! The evaluation harness: runs a scheduler through an environment and
//! measures what the paper's figures report — energy efficiency (PPW),
//! QoS-violation ratio, decision distribution, and prediction accuracy
//! against the oracle.

use autoscale_net::LinkKind;
use autoscale_nn::{accuracy_for, Precision, Workload};
use autoscale_platform::{ExecutionConditions, ProcessorKind};
use autoscale_predictors::partition::partition_cost_at;
use autoscale_sim::{Environment, EnvironmentId, Outcome, Simulator, Snapshot};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::engine::EngineConfig;
use crate::scheduler::{Decision, OracleScheduler, Scheduler};

/// Aggregated results of one evaluation episode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpisodeReport {
    /// The scheduler's figure label.
    pub scheduler: String,
    /// The workload evaluated.
    pub workload: Workload,
    /// The environment evaluated in.
    pub environment: EnvironmentId,
    /// Number of inferences.
    pub runs: usize,
    /// Mean per-inference energy in millijoules.
    pub mean_energy_mj: f64,
    /// Mean energy efficiency in inferences per joule (the PPW metric).
    pub mean_efficiency_ipj: f64,
    /// Mean latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Fraction of inferences violating the QoS constraint.
    pub qos_violation_ratio: f64,
    /// Fraction of inferences violating the accuracy target.
    pub accuracy_violation_ratio: f64,
    /// Share of decisions per category: [on-device, connected edge, cloud].
    pub placement_shares: [f64; 3],
    /// Fraction of decisions matching the oracle (within its 1% energy
    /// tolerance), when oracle tracking was enabled.
    pub oracle_match_ratio: Option<f64>,
}

impl EpisodeReport {
    /// PPW normalized to a baseline report (the paper normalizes to
    /// `Edge (CPU FP32)`).
    pub fn normalized_ppw(&self, baseline: &EpisodeReport) -> f64 {
        self.mean_efficiency_ipj / baseline.mean_efficiency_ipj
    }
}

/// Evaluation driver for one simulator/testbed.
pub struct Evaluator {
    sim: Simulator,
    config: EngineConfig,
}

impl Evaluator {
    /// Creates an evaluator with the engine configuration that defines
    /// QoS scenarios and accuracy targets.
    pub fn new(sim: Simulator, config: EngineConfig) -> Self {
        Evaluator { sim, config }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The evaluator's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Executes one decision under a snapshot, with measurement noise for
    /// whole-model requests. Partitioned decisions are priced by the
    /// shared layer-split cost model under the *true* conditions.
    pub fn execute_decision(
        &self,
        workload: Workload,
        decision: &Decision,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Outcome {
        match decision {
            #[expect(
                clippy::expect_used,
                reason = "the harness only drives schedulers that emit device-feasible requests"
            )]
            Decision::Whole(request) => self
                .sim
                .execute_measured(workload, request, snapshot, rng)
                .expect("schedulers must produce feasible requests"),
            Decision::Partitioned { local, split } => {
                let network = self.sim.network(workload);
                let host = self.sim.host();
                #[expect(
                    clippy::expect_used,
                    reason = "partitioned baselines only name processors the device exposes"
                )]
                let local_proc = host
                    .processor(*local)
                    .expect("partitioned decisions use an existing local processor");
                let cond = ExecutionConditions {
                    freq_index: local_proc.dvfs().max_index(),
                    precision: Precision::Fp32,
                    compute_availability: snapshot.cpu_availability(),
                    mem_availability: snapshot.mem_availability(),
                    thermal_cap: host.thermal().cap_for(snapshot.co_cpu),
                };
                #[expect(
                    clippy::expect_used,
                    reason = "every testbed cloud is provisioned with a GPU"
                )]
                let remote = self
                    .sim
                    .cloud()
                    .processor(ProcessorKind::Gpu)
                    .expect("the cloud has a GPU");
                let link = autoscale_net::LinkModel::for_kind(LinkKind::Wlan);
                let cost = partition_cost_at(
                    network,
                    local_proc,
                    &cond,
                    host.base_power_w(),
                    remote,
                    self.sim.cloud().serving_overhead_ms(),
                    &link,
                    snapshot.wlan,
                    (*split).min(network.layers().len()),
                );
                Outcome {
                    latency_ms: cost.latency_ms,
                    energy_mj: cost.energy_mj,
                    accuracy: accuracy_for(workload).at(Precision::Fp32),
                }
            }
        }
    }

    /// Runs `warmup + runs` inferences of `workload` in `environment`
    /// under the scheduler, feeding every outcome back via
    /// [`Scheduler::observe`]. Only the final `runs` inferences count
    /// toward the metrics: the warm-up models the paper's protocol, where
    /// measurements are taken after training has converged while learning
    /// schedulers keep adapting online.
    ///
    /// When `oracle` is provided, each measured decision is compared
    /// against the oracle's *execution scaling decision*: a match is the
    /// same execution target (placement and precision — what the paper's
    /// Fig. 13 compares), or a request whose expected energy is within 1%
    /// of the optimum (the paper finds AutoScale "mis-predicts the
    /// optimal target only when the energy difference ... is less than
    /// 1%").
    // The episode protocol really does have this many independent knobs;
    // bundling them into a struct would just move the noise to call sites.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: Workload,
        environment: EnvironmentId,
        warmup: usize,
        runs: usize,
        oracle: Option<&OracleScheduler>,
        rng: &mut StdRng,
    ) -> EpisodeReport {
        assert!(runs > 0, "episode needs at least one run");
        let mut env = Environment::for_id(environment);
        let cfg = self.config.reward_for(workload);
        let total_layers = self.sim.network(workload).layers().len();

        let mut energy_sum = 0.0;
        let mut eff_sum = 0.0;
        let mut latency_sum = 0.0;
        let mut qos_violations = 0usize;
        let mut accuracy_violations = 0usize;
        let mut shares = [0usize; 3];
        let mut oracle_matches = 0usize;

        for i in 0..warmup + runs {
            let snapshot = env.sample(rng);
            let decision = scheduler.decide(&self.sim, workload, &snapshot, rng);
            let outcome = self.execute_decision(workload, &decision, &snapshot, rng);
            scheduler.observe(&self.sim, workload, &snapshot, &decision, &outcome);
            if i < warmup {
                continue;
            }

            energy_sum += outcome.energy_mj;
            eff_sum += outcome.efficiency_ipj();
            latency_sum += outcome.latency_ms;
            if outcome.latency_ms >= cfg.qos_ms {
                qos_violations += 1;
            }
            if cfg.accuracy_target.is_some_and(|t| outcome.accuracy < t) {
                accuracy_violations += 1;
            }
            shares[decision.category(total_layers)] += 1;

            if let Some(oracle) = oracle {
                let opt_request = oracle.optimal_request(&self.sim, workload, &snapshot);
                #[expect(
                    clippy::expect_used,
                    reason = "the oracle enumerates only feasible requests"
                )]
                let opt_energy = self
                    .sim
                    .execute_expected(workload, &opt_request, &snapshot)
                    .expect("oracle requests are feasible")
                    .energy_mj;
                let matched = match &decision {
                    Decision::Whole(r)
                        if r.placement == opt_request.placement
                            && r.precision == opt_request.precision =>
                    {
                        true
                    }
                    Decision::Whole(r) => self
                        .sim
                        .execute_expected(workload, r, &snapshot)
                        .map(|o| (o.energy_mj - opt_energy).abs() / opt_energy <= 0.01)
                        .unwrap_or(false),
                    Decision::Partitioned { .. } => false,
                };
                if matched {
                    oracle_matches += 1;
                }
            }
        }

        let n = runs as f64;
        EpisodeReport {
            scheduler: scheduler.kind().paper_name().to_string(),
            workload,
            environment,
            runs,
            mean_energy_mj: energy_sum / n,
            mean_efficiency_ipj: eff_sum / n,
            mean_latency_ms: latency_sum / n,
            qos_violation_ratio: qos_violations as f64 / n,
            accuracy_violation_ratio: accuracy_violations as f64 / n,
            placement_shares: [
                shares[0] as f64 / n,
                shares[1] as f64 / n,
                shares[2] as f64 / n,
            ],
            oracle_match_ratio: oracle.map(|_| oracle_matches as f64 / n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedScheduler;
    use crate::seeded_rng;
    use autoscale_platform::DeviceId;

    fn evaluator() -> Evaluator {
        Evaluator::new(Simulator::new(DeviceId::Mi8Pro), EngineConfig::paper())
    }

    #[test]
    fn baseline_episode_reports_sane_metrics() {
        let ev = evaluator();
        let mut s = FixedScheduler::edge_cpu_fp32(ev.sim());
        let mut rng = seeded_rng(1);
        let report = ev.run(
            &mut s,
            Workload::MobileNetV1,
            EnvironmentId::S1,
            0,
            30,
            None,
            &mut rng,
        );
        assert_eq!(report.runs, 30);
        assert!(report.mean_energy_mj > 0.0);
        assert!(report.mean_latency_ms > 0.0);
        assert_eq!(report.placement_shares[0], 1.0);
        assert_eq!(report.oracle_match_ratio, None);
    }

    #[test]
    fn oracle_matches_itself() {
        let ev = evaluator();
        let oracle = OracleScheduler::new(ev.sim(), ev.config());
        let mut s = OracleScheduler::new(ev.sim(), ev.config());
        let mut rng = seeded_rng(2);
        let report = ev.run(
            &mut s,
            Workload::InceptionV1,
            EnvironmentId::S1,
            0,
            20,
            Some(&oracle),
            &mut rng,
        );
        assert_eq!(report.oracle_match_ratio, Some(1.0));
    }

    #[test]
    fn heavy_workload_cpu_baseline_violates_qos() {
        // Inception v1 on the Mi8Pro CPU at FP32 takes ~80 ms against a
        // 50 ms target: every run violates.
        let ev = evaluator();
        let mut s = FixedScheduler::edge_cpu_fp32(ev.sim());
        let mut rng = seeded_rng(3);
        let report = ev.run(
            &mut s,
            Workload::InceptionV1,
            EnvironmentId::S1,
            0,
            20,
            None,
            &mut rng,
        );
        assert!(
            report.qos_violation_ratio > 0.9,
            "{}",
            report.qos_violation_ratio
        );
    }

    #[test]
    fn normalized_ppw_is_relative() {
        let ev = evaluator();
        let mut rng = seeded_rng(4);
        let mut cpu = FixedScheduler::edge_cpu_fp32(ev.sim());
        let mut cloud = FixedScheduler::cloud(ev.sim(), ev.config());
        let base = ev.run(
            &mut cpu,
            Workload::ResNet50,
            EnvironmentId::S1,
            0,
            20,
            None,
            &mut rng,
        );
        let cl = ev.run(
            &mut cloud,
            Workload::ResNet50,
            EnvironmentId::S1,
            0,
            20,
            None,
            &mut rng,
        );
        // Cloud is far more efficient than the CPU for ResNet 50.
        assert!(cl.normalized_ppw(&base) > 5.0);
        assert!((base.normalized_ppw(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partitioned_decision_executes() {
        let ev = evaluator();
        let mut rng = seeded_rng(5);
        let decision = Decision::Partitioned {
            local: ProcessorKind::Cpu,
            split: 10,
        };
        let outcome = ev.execute_decision(
            Workload::InceptionV1,
            &decision,
            &Snapshot::calm(),
            &mut rng,
        );
        assert!(outcome.latency_ms > 0.0);
        assert!(outcome.energy_mj > 0.0);
        assert_eq!(
            outcome.accuracy,
            accuracy_for(Workload::InceptionV1).at(Precision::Fp32)
        );
    }

    #[test]
    fn weak_signal_environment_hurts_the_cloud_baseline() {
        let ev = evaluator();
        let mut cloud = FixedScheduler::cloud(ev.sim(), ev.config());
        let mut rng = seeded_rng(6);
        let calm = ev.run(
            &mut cloud,
            Workload::ResNet50,
            EnvironmentId::S1,
            0,
            15,
            None,
            &mut rng,
        );
        let weak = ev.run(
            &mut cloud,
            Workload::ResNet50,
            EnvironmentId::S4,
            0,
            15,
            None,
            &mut rng,
        );
        assert!(weak.mean_efficiency_ipj < calm.mean_efficiency_ipj / 2.0);
        assert!(weak.qos_violation_ratio > calm.qos_violation_ratio);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let ev = evaluator();
        let mut s = FixedScheduler::edge_cpu_fp32(ev.sim());
        let mut rng = seeded_rng(7);
        let _ = ev.run(
            &mut s,
            Workload::MobileNetV1,
            EnvironmentId::S1,
            0,
            0,
            None,
            &mut rng,
        );
    }
}
