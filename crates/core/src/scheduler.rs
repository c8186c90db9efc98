//! Schedulers: everything the paper evaluates, behind one interface.
//!
//! * the five baselines of Section V-A — `Edge (CPU FP32)`, `Edge (Best)`,
//!   `Cloud`, `Connected Edge`, and the oracular `Opt`;
//! * the Section III-C predictive approaches — linear regression, SVR,
//!   SVM, k-NN, and Bayesian optimization;
//! * the prior-work comparators — NeuroSurgeon \[53\] and MOSAIC \[42\],
//!   which offload at layer granularity;
//! * AutoScale itself.
//!
//! A scheduler's [`Scheduler::decide`] may be stateful (AutoScale learns,
//! BO accumulates observations) and is followed by an
//! [`Scheduler::observe`] callback with the measured outcome.

use autoscale_nn::{Precision, Workload};
use autoscale_platform::ProcessorKind;
use autoscale_predictors::neurosurgeon::SplitObjective;
use autoscale_predictors::{
    BayesianOptimizer, KnnClassifier, LinearRegression, Mosaic, NeuroSurgeon, StandardScaler,
    SupportVectorRegression, SvmClassifier,
};
use autoscale_rl::MaskSet;
use autoscale_sim::{Outcome, Placement, Request, Simulator, Snapshot};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::characterize::state_features;
use crate::engine::{AutoScaleEngine, DecisionStep, EngineConfig};
use crate::reward::RewardConfig;

/// What a scheduler decided for one inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// Run the whole model per this request (AutoScale and all
    /// whole-model baselines).
    Whole(Request),
    /// Split the model at layer granularity: the prefix `[0, split)` runs
    /// on the given local processor, the rest on the cloud
    /// (NeuroSurgeon / MOSAIC).
    Partitioned {
        /// The local processor running the prefix.
        local: ProcessorKind,
        /// The layer split point.
        split: usize,
    },
}

impl Decision {
    /// The coarse placement category of the decision, for the Fig. 13
    /// decision-distribution analysis: 0 = on-device, 1 = connected edge,
    /// 2 = cloud. A partitioned decision counts as on-device when more
    /// than half its layers stay local, cloud otherwise.
    pub fn category(&self, total_layers: usize) -> usize {
        match self {
            Decision::Whole(request) => match request.placement {
                Placement::OnDevice(_) => 0,
                Placement::ConnectedEdge(_) => 1,
                Placement::Cloud(_) => 2,
            },
            Decision::Partitioned { split, .. } => {
                if *split * 2 > total_layers {
                    0
                } else {
                    2
                }
            }
        }
    }
}

/// Identifies a scheduler for reports and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// The paper's engine.
    AutoScale,
    /// Always the mobile CPU at FP32, maximum frequency.
    EdgeCpuFp32,
    /// The statically most energy-efficient on-device target per NN.
    EdgeBest,
    /// Always the cloud.
    Cloud,
    /// Always the locally connected edge device.
    ConnectedEdge,
    /// The oracle: the best feasible action under the true conditions.
    Oracle,
    /// Linear-regression energy/latency prediction (Section III-C).
    LinearRegression,
    /// Support-vector-regression prediction (Section III-C).
    Svr,
    /// SVM classification of the optimal target (Section III-C).
    Svm,
    /// k-NN classification of the optimal target (Section III-C).
    Knn,
    /// Bayesian optimization with a GP surrogate (Section III-C).
    BayesOpt,
    /// NeuroSurgeon layer splitting \[53\].
    NeuroSurgeon,
    /// MOSAIC heterogeneous model slicing \[42\].
    Mosaic,
    /// AutoScale's loop driven by a linear function-approximation agent
    /// instead of the Q-table — the design alternative the paper rejects
    /// (Section IV, "Low Latency Overhead").
    AutoScaleLinearFa,
}

impl SchedulerKind {
    /// The label used in the paper's figures.
    pub fn paper_name(self) -> &'static str {
        match self {
            SchedulerKind::AutoScale => "AutoScale",
            SchedulerKind::EdgeCpuFp32 => "Edge (CPU FP32)",
            SchedulerKind::EdgeBest => "Edge (Best)",
            SchedulerKind::Cloud => "Cloud",
            SchedulerKind::ConnectedEdge => "Connected Edge",
            SchedulerKind::Oracle => "Opt",
            SchedulerKind::LinearRegression => "LR",
            SchedulerKind::Svr => "SVR",
            SchedulerKind::Svm => "SVM",
            SchedulerKind::Knn => "KNN",
            SchedulerKind::BayesOpt => "BO",
            SchedulerKind::NeuroSurgeon => "NeuroSurgeon",
            SchedulerKind::Mosaic => "MOSAIC",
            SchedulerKind::AutoScaleLinearFa => "AutoScale (linear FA)",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A per-inference execution-target selection policy.
pub trait Scheduler {
    /// Which scheduler this is.
    fn kind(&self) -> SchedulerKind;

    /// Decides where the next inference runs.
    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Decision;

    /// Receives the measured outcome of the executed decision. Learning
    /// schedulers update themselves here; static ones ignore it.
    fn observe(
        &mut self,
        _sim: &Simulator,
        _workload: Workload,
        _snapshot: &Snapshot,
        _decision: &Decision,
        _outcome: &Outcome,
    ) {
    }
}

// ---------------------------------------------------------------------------
// AutoScale
// ---------------------------------------------------------------------------

/// AutoScale behind the [`Scheduler`] interface, in the paper's
/// deployment mode: it serves greedily, drawing nothing, while still
/// applying Q updates (the paper's engine "continuously learns").
pub struct AutoScaleScheduler {
    engine: AutoScaleEngine,
    last_step: Option<DecisionStep>,
}

impl AutoScaleScheduler {
    /// Wraps a (typically pre-trained) engine.
    pub fn new(engine: AutoScaleEngine) -> Self {
        AutoScaleScheduler {
            engine,
            last_step: None,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &AutoScaleEngine {
        &self.engine
    }
}

impl Scheduler for AutoScaleScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::AutoScale
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        // The Scheduler trait is the evaluation harness's common surface
        // and stays infallible; the harness only drives the paper's
        // testbeds, whose CPUs serve every workload.
        #[expect(
            clippy::expect_used,
            reason = "evaluation-only wrapper over the fallible engine API"
        )]
        let step = self
            .engine
            .decide_greedy(sim, workload, snapshot)
            .expect("the paper testbeds always expose a feasible CPU action");
        self.last_step = Some(step);
        Decision::Whole(step.request)
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _decision: &Decision,
        outcome: &Outcome,
    ) {
        if let Some(step) = self.last_step.take() {
            self.engine.learn(sim, workload, step, outcome, snapshot);
        }
    }
}

// ---------------------------------------------------------------------------
// Linear function-approximation variant
// ---------------------------------------------------------------------------

/// AutoScale's observe→decide→execute→learn loop driven by a
/// [`autoscale_rl::LinearQAgent`] over the raw (normalized) Table I
/// features instead of the discretized Q-table. This is the measurable
/// stand-in for the function-approximation/deep-RL family the paper
/// rejects: it generalizes across states but pays a dot product per
/// action per decision and an approximation error the table does not have.
pub struct LinearFaScheduler {
    agent: autoscale_rl::LinearQAgent,
    space: crate::action::ActionSpace,
    config: EngineConfig,
    training: bool,
    last: Option<(Vec<f64>, usize)>,
}

impl LinearFaScheduler {
    /// Creates the scheduler with the paper's hyperparameters mapped onto
    /// the linear agent, rewarding by `config`'s eq. (5). With `training`
    /// it explores ε-greedily; otherwise it acts greedily, drawing nothing.
    pub fn new(sim: &Simulator, training: bool, config: EngineConfig) -> Self {
        let space = crate::action::ActionSpace::for_simulator(sim);
        let agent = autoscale_rl::LinearQAgent::new(8, space.len(), 0.9, 0.1, 0.1);
        LinearFaScheduler {
            agent,
            space,
            config,
            training,
            last: None,
        }
    }

    /// The underlying agent.
    pub fn agent(&self) -> &autoscale_rl::LinearQAgent {
        &self.agent
    }

    /// Normalized Table I features: each dimension scaled into roughly
    /// [0, 1] so the shared learning rate behaves across features.
    pub fn phi(sim: &Simulator, workload: Workload, snapshot: &Snapshot) -> Vec<f64> {
        let raw = crate::characterize::state_features(sim.network(workload), snapshot);
        vec![
            raw[0] / 100.0,         // CONV layers
            raw[1] / 20.0,          // FC layers
            raw[2] / 24.0,          // RC layers
            raw[3] / 6.0,           // giga-MACs
            raw[4],                 // co-runner CPU utilization
            raw[5],                 // co-runner memory usage
            (raw[6] + 95.0) / 65.0, // WLAN dBm mapped to [0, 1]
            (raw[7] + 95.0) / 65.0, // P2P dBm mapped to [0, 1]
        ]
    }
}

impl Scheduler for LinearFaScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::AutoScaleLinearFa
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Decision {
        let phi = Self::phi(sim, workload, snapshot);
        let mask = self.space.mask(sim, workload);
        #[expect(
            clippy::expect_used,
            reason = "the paper testbeds always expose a feasible CPU action"
        )]
        let action = if self.training {
            self.agent.select_action(&phi, &mask, rng)
        } else {
            self.agent.best_action(&phi, &mask).map(|(a, _)| a)
        }
        .expect("the CPU can always run the model");
        self.last = Some((phi, action));
        Decision::Whole(self.space.request(action))
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _decision: &Decision,
        outcome: &Outcome,
    ) {
        if let Some((phi, action)) = self.last.take() {
            let r = crate::reward::reward(&self.config.reward_for(workload), outcome);
            let next_phi = Self::phi(sim, workload, snapshot);
            let mask = self.space.mask(sim, workload);
            self.agent.update(&phi, action, r, &next_phi, &mask);
        }
    }
}

// ---------------------------------------------------------------------------
// Hybrid (partition-augmented) AutoScale
// ---------------------------------------------------------------------------

/// AutoScale with layer-partitioning actions added to its action space —
/// the extension the paper sketches in Section IV footnote 4: "model
/// partitioning at layer granularity ... is complementary to and can be
/// applied on top of AutoScale".
///
/// The Q-table grows by `splits_per_model` extra actions, each meaning
/// "run the first `i/n` of the layers on the phone CPU at maximum
/// frequency, ship the cut activation to the cloud GPU, finish there".
/// Everything else — state encoding, reward, epsilon-greedy — is
/// unchanged, so whether partitioning ever pays is learned, not assumed.
pub struct HybridScheduler {
    engine_states: crate::state::StateSpace,
    space: crate::action::ActionSpace,
    split_fractions: Vec<f64>,
    agent: autoscale_rl::QLearningAgent,
    config: EngineConfig,
    last: Option<(usize, usize)>,
}

impl HybridScheduler {
    /// Creates the hybrid scheduler with `splits_per_model` partition
    /// actions at evenly spaced depth fractions. It keeps exploring
    /// ε-greedily and learning online, rewarding by `config`'s eq. (5).
    ///
    /// # Panics
    ///
    /// Panics if `splits_per_model == 0`.
    pub fn new(sim: &Simulator, splits_per_model: usize, seed: u64, config: EngineConfig) -> Self {
        assert!(splits_per_model > 0, "need at least one split action");
        let engine_states = crate::state::StateSpace::paper();
        let space = crate::action::ActionSpace::for_simulator(sim);
        let split_fractions: Vec<f64> = (1..=splits_per_model)
            .map(|i| i as f64 / (splits_per_model + 1) as f64)
            .collect();
        let agent = autoscale_rl::QLearningAgent::new(
            engine_states.len(),
            space.len() + splits_per_model,
            autoscale_rl::Hyperparameters::paper(),
            seed,
        );
        HybridScheduler {
            engine_states,
            space,
            split_fractions,
            agent,
            config,
            last: None,
        }
    }

    /// Total number of actions (whole-model plus partition).
    pub fn actions(&self) -> usize {
        self.space.len() + self.split_fractions.len()
    }

    /// Fraction of applied updates that chose a partition action.
    pub fn partition_share(&self, sim: &Simulator) -> f64 {
        // Greedy decision per (workload, calm): how many are partitions.
        let calm = Snapshot::calm();
        let mut partitions = 0usize;
        for w in Workload::ALL {
            let state = self.engine_states.encode_observation(sim.network(w), &calm);
            let mask = self.mask(sim, w);
            if let Some(a) = self.agent.select_greedy(state, &mask) {
                if a >= self.space.len() {
                    partitions += 1;
                }
            }
        }
        partitions as f64 / Workload::ALL.len() as f64
    }

    fn mask(&self, sim: &Simulator, workload: Workload) -> Vec<bool> {
        let mut mask = self.space.mask(sim, workload);
        // Partition actions: the CPU prefix and cloud-GPU suffix run every
        // model in this testbed.
        mask.extend(std::iter::repeat_n(true, self.split_fractions.len()));
        mask
    }

    fn decision_of(&self, sim: &Simulator, workload: Workload, action: usize) -> Decision {
        if action < self.space.len() {
            Decision::Whole(self.space.request(action))
        } else {
            let fraction = self.split_fractions[action - self.space.len()];
            let layers = sim.network(workload).layers().len();
            Decision::Partitioned {
                local: ProcessorKind::Cpu,
                split: ((layers as f64 * fraction).round() as usize).clamp(1, layers - 1),
            }
        }
    }
}

impl Scheduler for HybridScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::AutoScale
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Decision {
        let state = self
            .engine_states
            .encode_observation(sim.network(workload), snapshot);
        let mask = MaskSet::from_bools(&self.mask(sim, workload));
        #[expect(
            clippy::expect_used,
            reason = "the paper testbeds always expose a feasible CPU action"
        )]
        let action = self
            .agent
            .select_action(state, &mask, rng)
            .expect("the CPU can always run the model");
        self.last = Some((state, action));
        self.decision_of(sim, workload, action)
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _decision: &Decision,
        outcome: &Outcome,
    ) {
        if let Some((state, action)) = self.last.take() {
            let r = crate::reward::reward(&self.config.reward_for(workload), outcome);
            let next_state = self
                .engine_states
                .encode_observation(sim.network(workload), snapshot);
            let mask = self.mask(sim, workload);
            self.agent.update(state, action, r, next_state, &mask);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed baselines
// ---------------------------------------------------------------------------

/// The `Edge (CPU FP32)`, `Edge (Best)`, `Cloud` and `Connected Edge`
/// baselines: a fixed request per workload, chosen once offline.
pub struct FixedScheduler {
    kind: SchedulerKind,
    /// The request per workload, indexed by [`Workload::index`].
    table: Vec<Request>,
}

impl FixedScheduler {
    /// `Edge (CPU FP32)`: the mobile CPU at FP32 and maximum frequency.
    pub fn edge_cpu_fp32(sim: &Simulator) -> Self {
        FixedScheduler {
            kind: SchedulerKind::EdgeCpuFp32,
            table: vec![cpu_fp32(sim); Workload::ALL.len()],
        }
    }

    /// `Edge (Best)`: the statically most energy-efficient on-device
    /// *processor* per NN, profiled under calm conditions subject to the
    /// QoS and accuracy targets. Unlike AutoScale's action space, this
    /// baseline does not tune DVFS or quantization: each processor runs
    /// at its default governor setting (maximum frequency) and native
    /// deployment precision (FP32 on CPU/GPU, INT8 on the DSP).
    pub fn edge_best(sim: &Simulator, config: EngineConfig) -> Self {
        let candidates: Vec<Request> = [
            (ProcessorKind::Cpu, Precision::Fp32),
            (ProcessorKind::Gpu, Precision::Fp32),
            (ProcessorKind::Dsp, Precision::Int8),
        ]
        .iter()
        .filter(|(kind, _)| sim.host().processor(*kind).is_some())
        .map(|&(kind, precision)| {
            Request::at_max_frequency(sim, Placement::OnDevice(kind), precision)
        })
        .collect();
        FixedScheduler {
            kind: SchedulerKind::EdgeBest,
            table: per_workload_best(sim, config, &candidates),
        }
    }

    /// `Cloud`: the best cloud processor per NN under calm conditions.
    pub fn cloud(sim: &Simulator, config: EngineConfig) -> Self {
        let candidates = actions_where(sim, |p| matches!(p, Placement::Cloud(_)));
        FixedScheduler {
            kind: SchedulerKind::Cloud,
            table: per_workload_best(sim, config, &candidates),
        }
    }

    /// `Connected Edge`: the best tablet processor per NN under calm
    /// conditions.
    pub fn connected_edge(sim: &Simulator, config: EngineConfig) -> Self {
        let candidates = actions_where(sim, |p| matches!(p, Placement::ConnectedEdge(_)));
        FixedScheduler {
            kind: SchedulerKind::ConnectedEdge,
            table: per_workload_best(sim, config, &candidates),
        }
    }
}

impl Scheduler for FixedScheduler {
    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn decide(
        &mut self,
        _sim: &Simulator,
        workload: Workload,
        _snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        Decision::Whole(self.table[workload.index()])
    }
}

/// The mobile CPU at FP32 and maximum frequency: `Edge (CPU FP32)`, and
/// the fallback of a baseline whose pick cannot run.
fn cpu_fp32(sim: &Simulator) -> Request {
    Request::at_max_frequency(
        sim,
        Placement::OnDevice(ProcessorKind::Cpu),
        Precision::Fp32,
    )
}

/// The device's actions whose placement `filter` admits.
fn actions_where(sim: &Simulator, filter: impl Fn(Placement) -> bool) -> Vec<Request> {
    crate::action::ActionSpace::for_simulator(sim)
        .actions()
        .iter()
        .copied()
        .filter(|r| filter(r.placement))
        .collect()
}

/// Profiles, under calm conditions, the most energy-efficient request per
/// workload among the candidates it can run, subject to the constraints
/// as the oracle relaxes them; falls back to CPU FP32 if none is feasible
/// (e.g. no DSP and no GPU support for RC models).
fn per_workload_best(
    sim: &Simulator,
    config: EngineConfig,
    candidates: &[Request],
) -> Vec<Request> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let feasible: Vec<Request> = candidates
                .iter()
                .copied()
                .filter(|r| sim.is_feasible(w, r))
                .collect();
            let calm = Snapshot::calm();
            select_best(sim, w, &config.reward_for(w), &calm, &feasible)
                .unwrap_or_else(|| cpu_fp32(sim))
        })
        .collect()
}

/// Oracle-style selection among explicit candidates under a given
/// snapshot: max efficiency subject to both constraints, then subject to
/// accuracy only, then unconstrained.
fn select_best(
    sim: &Simulator,
    workload: Workload,
    cfg: &RewardConfig,
    snapshot: &Snapshot,
    candidates: &[Request],
) -> Option<Request> {
    let outcomes: Vec<(Request, Outcome)> = candidates
        .iter()
        .filter_map(|r| {
            sim.execute_expected(workload, r, snapshot)
                .ok()
                .map(|o| (*r, o))
        })
        .collect();
    let accuracy_ok = |o: &Outcome| cfg.accuracy_target.is_none_or(|t| o.accuracy >= t);
    let tiers: [&dyn Fn(&Outcome) -> bool; 3] = [
        &|o| accuracy_ok(o) && o.latency_ms < cfg.qos_ms,
        &|o| accuracy_ok(o),
        &|_| true,
    ];
    for tier in tiers {
        #[expect(
            clippy::expect_used,
            reason = "cost-model energies are finite, so partial_cmp cannot return None"
        )]
        let best = outcomes.iter().filter(|(_, o)| tier(o)).min_by(|a, b| {
            a.1.energy_mj
                .partial_cmp(&b.1.energy_mj)
                .expect("finite energy")
        });
        if let Some((r, _)) = best {
            return Some(*r);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// `Opt`: evaluates every feasible action under the *true* current
/// conditions (the simulator's expectation) and picks the most energy-
/// efficient one meeting the constraints. This is what the paper obtains
/// by exhaustively measuring the ~200,000-point design space.
pub struct OracleScheduler {
    space: crate::action::ActionSpace,
    config: EngineConfig,
}

impl OracleScheduler {
    /// Builds the oracle for a simulator, judging requests by `config`'s
    /// QoS and accuracy targets.
    pub fn new(sim: &Simulator, config: EngineConfig) -> Self {
        OracleScheduler {
            space: crate::action::ActionSpace::for_simulator(sim),
            config,
        }
    }

    /// The oracle's choice for a specific (workload, snapshot) pair.
    pub fn optimal_request(
        &self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
    ) -> Request {
        let cfg = self.config.reward_for(workload);
        let candidates: Vec<Request> = self
            .space
            .actions()
            .iter()
            .copied()
            .filter(|r| sim.is_feasible(workload, r))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "the paper testbeds always expose a feasible CPU action"
        )]
        select_best(sim, workload, &cfg, snapshot, &candidates)
            .expect("the CPU can always run the model")
    }
}

impl Scheduler for OracleScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Oracle
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        Decision::Whole(self.optimal_request(sim, workload, snapshot))
    }
}

// ---------------------------------------------------------------------------
// Regression-based predictors (LR / SVR)
// ---------------------------------------------------------------------------

/// The regression model family a [`RegressionScheduler`] uses.
pub enum RegressionModel {
    /// Linear regression (normal equations).
    Linear {
        /// Predicts energy in mJ from standardized features.
        energy: LinearRegression,
        /// Predicts latency in ms from standardized features.
        latency: LinearRegression,
    },
    /// Support vector regression (epsilon-insensitive).
    Svr {
        /// Predicts energy in mJ from standardized features.
        energy: SupportVectorRegression,
        /// Predicts latency in ms from standardized features.
        latency: SupportVectorRegression,
    },
}

impl RegressionModel {
    /// Predicted (energy mJ, latency ms). The underlying models are fit
    /// on log targets (see `Dataset::log_energies`), so predictions are
    /// exponentiated here.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let (log_e, log_l) = match self {
            RegressionModel::Linear { energy, latency } => (energy.predict(x), latency.predict(x)),
            RegressionModel::Svr { energy, latency } => (energy.predict(x), latency.predict(x)),
        };
        (log_e.exp(), log_l.exp())
    }
}

/// A scheduler that predicts each action's energy and latency with a
/// regression model and picks the best predicted-feasible action — the
/// paper's LR and SVR baselines.
pub struct RegressionScheduler {
    kind: SchedulerKind,
    model: RegressionModel,
    scaler: StandardScaler,
    space: crate::action::ActionSpace,
    config: EngineConfig,
}

impl RegressionScheduler {
    /// Builds the scheduler from a trained model and the scaler its
    /// training features were standardized with; `config` sets the QoS
    /// target a prediction must meet.
    pub fn new(
        sim: &Simulator,
        kind: SchedulerKind,
        model: RegressionModel,
        scaler: StandardScaler,
        config: EngineConfig,
    ) -> Self {
        assert!(
            matches!(kind, SchedulerKind::LinearRegression | SchedulerKind::Svr),
            "regression scheduler must be LR or SVR"
        );
        RegressionScheduler {
            kind,
            model,
            scaler,
            space: crate::action::ActionSpace::for_simulator(sim),
            config,
        }
    }

    /// Predicted (energy mJ, latency ms) of one inference, from its raw
    /// state and action features (a characterization sample's
    /// `features`).
    pub fn predict(&self, features: &[f64]) -> (f64, f64) {
        self.model.predict(&self.scaler.transform(features))
    }
}

impl Scheduler for RegressionScheduler {
    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        let qos_ms = self.config.reward_for(workload).qos_ms;
        let state = state_features(sim.network(workload), snapshot);
        let mask = self.space.mask(sim, workload);
        let mut best: Option<(usize, f64)> = None;
        let mut fastest: Option<(usize, f64)> = None;
        for (a, &allowed) in mask.iter().enumerate() {
            if !allowed {
                continue;
            }
            let mut x = state.clone();
            x.extend(self.space.action_features(sim, a));
            let (energy, latency) = self.predict(&x);
            if fastest.as_ref().is_none_or(|&(_, l)| latency < l) {
                fastest = Some((a, latency));
            }
            if latency >= qos_ms {
                continue;
            }
            if best.as_ref().is_none_or(|&(_, e)| energy < e) {
                best = Some((a, energy));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the paper testbeds always expose a feasible CPU action"
        )]
        let action = best
            .or(fastest)
            .map(|(a, _)| a)
            .expect("mask is never empty");
        Decision::Whole(self.space.request(action))
    }
}

// ---------------------------------------------------------------------------
// Classification-based predictors (SVM / k-NN)
// ---------------------------------------------------------------------------

/// The classifier family a [`ClassificationScheduler`] uses.
pub enum ClassifierModel {
    /// One-vs-rest linear SVM.
    Svm(SvmClassifier),
    /// k-nearest neighbours.
    Knn(KnnClassifier),
}

impl ClassifierModel {
    fn predict(&self, x: &[f64]) -> usize {
        match self {
            ClassifierModel::Svm(m) => m.predict(x),
            ClassifierModel::Knn(m) => m.predict(x),
        }
    }
}

/// A scheduler that classifies the optimal *coarse target* (placement and
/// precision) directly from the state features — the paper's SVM and KNN
/// baselines. The chosen target runs at its deployment default: maximum
/// frequency. As the paper observes, such classifiers "make the wrong
/// decision regardless of the absolute energy and latency magnitudes".
pub struct ClassificationScheduler {
    kind: SchedulerKind,
    model: ClassifierModel,
    scaler: StandardScaler,
    space: crate::action::ActionSpace,
}

impl ClassificationScheduler {
    /// Builds the scheduler from a trained classifier.
    pub fn new(
        sim: &Simulator,
        kind: SchedulerKind,
        model: ClassifierModel,
        scaler: StandardScaler,
    ) -> Self {
        assert!(
            matches!(kind, SchedulerKind::Svm | SchedulerKind::Knn),
            "classification scheduler must be SVM or KNN"
        );
        ClassificationScheduler {
            kind,
            model,
            scaler,
            space: crate::action::ActionSpace::for_simulator(sim),
        }
    }

    /// The predicted coarse target's index in
    /// [`ActionSpace::coarse_targets`](crate::action::ActionSpace::coarse_targets),
    /// from raw state features.
    pub fn classify(&self, state: &[f64]) -> usize {
        self.model.predict(&self.scaler.transform(state))
    }
}

impl Scheduler for ClassificationScheduler {
    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        let coarse = self.space.coarse_targets();
        let predicted = self
            .classify(&state_features(sim.network(workload), snapshot))
            .min(coarse.len() - 1);
        let (placement, precision) = coarse[predicted];
        let request = Request::at_max_frequency(sim, placement, precision);
        if sim.is_feasible(workload, &request) {
            Decision::Whole(request)
        } else {
            // The classifier picked an infeasible target (e.g. a DSP for a
            // recurrent model): fall back to the CPU FP32 action.
            Decision::Whole(cpu_fp32(sim))
        }
    }
}

// ---------------------------------------------------------------------------
// Bayesian optimization
// ---------------------------------------------------------------------------

/// The BO baseline: per workload, a GP surrogate over action features
/// maximizing calm-condition energy efficiency subject to the QoS
/// constraint. The optimizer never sees the runtime-variance features —
/// exactly the blindness the paper measured (MAPE 15.7% under variance
/// vs 9.2% without).
pub struct BoScheduler {
    space: crate::action::ActionSpace,
    optimizers: Vec<BayesianOptimizer>,
    budget: usize,
    config: EngineConfig,
    last_action: Option<(Workload, usize)>,
}

impl BoScheduler {
    /// Builds the BO scheduler with an exploration `budget` (suggestions
    /// taken via expected improvement before switching to exploitation),
    /// penalizing violations of `config`'s QoS and accuracy targets.
    pub fn new(sim: &Simulator, budget: usize, config: EngineConfig) -> Self {
        BoScheduler {
            space: crate::action::ActionSpace::for_simulator(sim),
            optimizers: (0..Workload::ALL.len())
                .map(|_| BayesianOptimizer::with_default_kernel())
                .collect(),
            budget,
            config,
            last_action: None,
        }
    }

    fn candidates(&self, sim: &Simulator, workload: Workload) -> (Vec<usize>, Vec<Vec<f64>>) {
        let mask = self.space.mask(sim, workload);
        let indices: Vec<usize> = (0..self.space.len()).filter(|&a| mask[a]).collect();
        let feats = indices
            .iter()
            .map(|&a| self.space.action_features(sim, a))
            .collect();
        (indices, feats)
    }
}

impl Scheduler for BoScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::BayesOpt
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        _snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        let (indices, feats) = self.candidates(sim, workload);
        let bo = &self.optimizers[workload as usize];
        let pick = if bo.observations() < self.budget {
            #[expect(
                clippy::expect_used,
                reason = "candidates() yields at least the CPU actions for every workload"
            )]
            bo.suggest(&feats).expect("candidates are non-empty")
        } else {
            #[expect(
                clippy::expect_used,
                reason = "candidates() yields at least the CPU actions for every workload"
            )]
            bo.best_by_mean(&feats).expect("candidates are non-empty")
        };
        let action = indices[pick];
        self.last_action = Some((workload, action));
        Decision::Whole(self.space.request(action))
    }

    fn observe(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        _snapshot: &Snapshot,
        _decision: &Decision,
        outcome: &Outcome,
    ) {
        if let Some((w, action)) = self.last_action.take() {
            if w != workload {
                return;
            }
            let cfg = self.config.reward_for(workload);
            // Objective: energy efficiency, with constraint violations
            // pushed far down so EI avoids them.
            let mut objective = outcome.efficiency_ipj();
            if outcome.latency_ms >= cfg.qos_ms {
                objective -= 100.0;
            }
            if cfg.accuracy_target.is_some_and(|t| outcome.accuracy < t) {
                objective -= 200.0;
            }
            self.optimizers[workload as usize]
                .observe(self.space.action_features(sim, action), objective);
        }
    }
}

// ---------------------------------------------------------------------------
// Layer-partitioning prior works
// ---------------------------------------------------------------------------

/// NeuroSurgeon behind the [`Scheduler`] interface. The split plan is a
/// pure function of the network and the planner's static profile, so the
/// decision never reacts to the snapshot.
pub struct NeuroSurgeonScheduler {
    planner: NeuroSurgeon,
    objective: SplitObjective,
}

impl NeuroSurgeonScheduler {
    /// Wraps a trained planner.
    pub fn new(planner: NeuroSurgeon, objective: SplitObjective) -> Self {
        NeuroSurgeonScheduler { planner, objective }
    }
}

impl Scheduler for NeuroSurgeonScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::NeuroSurgeon
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        _snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        let split = self
            .planner
            .choose_split(sim.network(workload), self.objective);
        Decision::Partitioned {
            local: ProcessorKind::Cpu,
            split,
        }
    }
}

/// MOSAIC behind the [`Scheduler`] interface.
pub struct MosaicScheduler {
    planner: Mosaic,
    objective: SplitObjective,
}

impl MosaicScheduler {
    /// Wraps a trained planner.
    pub fn new(planner: Mosaic, objective: SplitObjective) -> Self {
        MosaicScheduler { planner, objective }
    }
}

impl Scheduler for MosaicScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Mosaic
    }

    fn decide(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        _snapshot: &Snapshot,
        _rng: &mut StdRng,
    ) -> Decision {
        let network = sim.network(workload);
        let plan = self.planner.choose_plan(network, self.objective);
        // MOSAIC's processor index convention: 0 = CPU, 1 = GPU. Recurrent
        // models cannot run a prefix on the mobile GPU.
        let local = if plan.local_processor == 1 && !network.has_recurrent_layers() {
            ProcessorKind::Gpu
        } else {
            ProcessorKind::Cpu
        };
        Decision::Partitioned {
            local,
            split: plan.split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use autoscale_platform::DeviceId;

    #[test]
    fn edge_cpu_baseline_always_picks_cpu_fp32() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut s = FixedScheduler::edge_cpu_fp32(&sim);
        let mut rng = seeded_rng(1);
        for w in Workload::ALL {
            match s.decide(&sim, w, &Snapshot::calm(), &mut rng) {
                Decision::Whole(r) => {
                    assert_eq!(r.placement, Placement::OnDevice(ProcessorKind::Cpu));
                    assert_eq!(r.precision, Precision::Fp32);
                }
                _ => panic!("baseline never partitions"),
            }
        }
    }

    #[test]
    fn edge_best_beats_edge_cpu_on_energy() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut best = FixedScheduler::edge_best(&sim, EngineConfig::paper());
        let mut cpu = FixedScheduler::edge_cpu_fp32(&sim);
        let mut rng = seeded_rng(2);
        let calm = Snapshot::calm();
        for w in [Workload::InceptionV1, Workload::ResNet50] {
            let rb = match best.decide(&sim, w, &calm, &mut rng) {
                Decision::Whole(r) => r,
                _ => unreachable!(),
            };
            let rc = match cpu.decide(&sim, w, &calm, &mut rng) {
                Decision::Whole(r) => r,
                _ => unreachable!(),
            };
            let eb = sim.execute_expected(w, &rb, &calm).unwrap().energy_mj;
            let ec = sim.execute_expected(w, &rc, &calm).unwrap().energy_mj;
            assert!(eb < ec, "{w}: {eb} vs {ec}");
        }
    }

    #[test]
    fn cloud_baseline_stays_in_the_cloud() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut s = FixedScheduler::cloud(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(3);
        for w in Workload::ALL {
            match s.decide(&sim, w, &Snapshot::calm(), &mut rng) {
                Decision::Whole(r) => assert!(matches!(r.placement, Placement::Cloud(_)), "{w}"),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn connected_edge_baseline_uses_the_tablet() {
        let sim = Simulator::new(DeviceId::MotoXForce);
        let mut s = FixedScheduler::connected_edge(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(4);
        for w in [Workload::InceptionV1, Workload::MobileNetV3] {
            match s.decide(&sim, w, &Snapshot::calm(), &mut rng) {
                Decision::Whole(r) => {
                    assert!(matches!(r.placement, Placement::ConnectedEdge(_)), "{w}")
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn oracle_meets_qos_when_possible_and_adapts_to_signal() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let oracle = OracleScheduler::new(&sim, EngineConfig::paper());
        let calm = Snapshot::calm();
        let weak = Snapshot::new(
            0.0,
            0.0,
            autoscale_net::Rssi::WEAK,
            autoscale_net::Rssi::WEAK,
        );
        // Calm: MobileBERT's optimal is the cloud (heavy NN, tiny sentence
        // payload) — and it stays there even under weak signal, because a
        // 2 KiB transfer barely notices the collapsed data rate.
        let calm_req = oracle.optimal_request(&sim, Workload::MobileBert, &calm);
        assert!(
            matches!(calm_req.placement, Placement::Cloud(_)),
            "{calm_req}"
        );
        // ResNet 50 ships a camera frame. With a 75% accuracy target the
        // INT8 DSP is disqualified, making the cloud optimal at strong
        // signal; weak signal everywhere brings the oracle home to the
        // device (the paper's Fig. 6 experiment).
        let strict = OracleScheduler::new(
            &sim,
            EngineConfig {
                accuracy_target: Some(75.0),
                ..EngineConfig::paper()
            },
        );
        let calm_vision = strict.optimal_request(&sim, Workload::ResNet50, &calm);
        assert!(calm_vision.placement.is_remote(), "{calm_vision}");
        let weak_req = strict.optimal_request(&sim, Workload::ResNet50, &weak);
        assert!(
            matches!(weak_req.placement, Placement::OnDevice(_)),
            "{weak_req}"
        );
    }

    #[test]
    fn oracle_outcome_meets_constraints_in_calm_conditions() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let oracle = OracleScheduler::new(&sim, EngineConfig::paper());
        let calm = Snapshot::calm();
        for w in Workload::ALL {
            let req = oracle.optimal_request(&sim, w, &calm);
            let out = sim.execute_expected(w, &req, &calm).unwrap();
            let cfg = EngineConfig::paper().reward_for(w);
            assert!(out.latency_ms < cfg.qos_ms, "{w}: {} ms", out.latency_ms);
            assert!(out.accuracy >= cfg.accuracy_target.unwrap(), "{w}");
        }
    }

    #[test]
    fn decision_categories() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let req = Request::at_max_frequency(
            &sim,
            Placement::ConnectedEdge(ProcessorKind::Gpu),
            Precision::Fp32,
        );
        assert_eq!(Decision::Whole(req).category(80), 1);
        assert_eq!(
            Decision::Partitioned {
                local: ProcessorKind::Cpu,
                split: 70
            }
            .category(80),
            0
        );
        assert_eq!(
            Decision::Partitioned {
                local: ProcessorKind::Cpu,
                split: 10
            }
            .category(80),
            2
        );
    }

    #[test]
    fn hybrid_scheduler_learns_and_stays_feasible() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut hybrid = HybridScheduler::new(&sim, 3, 7, EngineConfig::paper());
        assert_eq!(hybrid.actions(), 66 + 3);
        let mut rng = seeded_rng(8);
        let calm = Snapshot::calm();
        for _ in 0..30 {
            let d = hybrid.decide(&sim, Workload::InceptionV1, &calm, &mut rng);
            match d {
                Decision::Whole(r) => assert!(sim.is_feasible(Workload::InceptionV1, &r)),
                Decision::Partitioned { split, .. } => {
                    let n = sim.network(Workload::InceptionV1).layers().len();
                    assert!(split >= 1 && split < n);
                }
            }
            // Feed a plausible outcome back.
            let outcome = Outcome {
                latency_ms: 20.0,
                energy_mj: 50.0,
                accuracy: 69.8,
            };
            hybrid.observe(&sim, Workload::InceptionV1, &calm, &d, &outcome);
        }
        let share = hybrid.partition_share(&sim);
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn linear_fa_scheduler_learns_and_stays_feasible() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut fa = LinearFaScheduler::new(&sim, true, EngineConfig::paper());
        let mut rng = seeded_rng(21);
        let calm = Snapshot::calm();
        for w in [Workload::InceptionV1, Workload::MobileBert] {
            for _ in 0..40 {
                let d = fa.decide(&sim, w, &calm, &mut rng);
                let Decision::Whole(r) = d else {
                    panic!("FA runs whole models")
                };
                assert!(sim.is_feasible(w, &r), "{w}: {r}");
                let outcome = sim
                    .execute_measured(w, &r, &calm, &mut rng)
                    .expect("feasible");
                fa.observe(&sim, w, &calm, &d, &outcome);
            }
        }
        assert!(fa.agent().updates() >= 80);
    }

    #[test]
    fn linear_fa_features_are_normalized() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        for w in Workload::ALL {
            let phi = LinearFaScheduler::phi(&sim, w, &Snapshot::calm());
            assert_eq!(phi.len(), 8);
            for (i, v) in phi.iter().enumerate() {
                assert!((0.0..=1.5).contains(v), "{w} phi[{i}]={v}");
            }
        }
    }

    #[test]
    fn scheduler_kind_labels_match_paper() {
        assert_eq!(SchedulerKind::EdgeCpuFp32.paper_name(), "Edge (CPU FP32)");
        assert_eq!(SchedulerKind::Oracle.paper_name(), "Opt");
    }
}
