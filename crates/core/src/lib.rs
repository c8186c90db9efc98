//! # AutoScale
//!
//! A reproduction of **"AutoScale: Energy Efficiency Optimization for
//! Stochastic Edge Inference Using Reinforcement Learning"** (Young Geun
//! Kim and Carole-Jean Wu, MICRO 2020).
//!
//! AutoScale is an adaptive, lightweight execution-scaling engine for DNN
//! inference at the edge. For every inference it observes the current
//! execution state — the network's layer composition and the stochastic
//! runtime variance (co-runner interference, wireless signal strength) —
//! and selects the execution target expected to maximize energy efficiency
//! while satisfying latency (QoS) and accuracy constraints. Selection is
//! driven by tabular Q-learning over a compact discretized state space
//! (Table I of the paper) and an action space spanning every on-device
//! processor with its DVFS and quantization knobs, a locally connected
//! edge device, and the cloud.
//!
//! ## Crate map
//!
//! * [`state`] — the Table I state features and their 3,072-point encoding;
//! * [`action`] — the per-device action space (~66 actions on the Mi8Pro);
//! * [`mod@reward`] — the eq. (5) reward;
//! * [`estimator`] — the eqs. (1)–(4) `R_energy` estimator a meterless
//!   phone uses (MAPE ≈ 7%, as the paper reports);
//! * [`engine`] — the Q-learning scaling engine (Algorithm 1) with
//!   learning transfer;
//! * [`scheduler`] — a common interface over AutoScale, the paper's five
//!   baselines (Edge CPU FP32, Edge Best, Cloud, Connected Edge, Opt), the
//!   Section III-C predictive approaches (LR, SVR, SVM, k-NN, BO), and the
//!   prior-work comparators (NeuroSurgeon, MOSAIC);
//! * [`eval`] — the measurement harness: PPW, QoS-violation ratio,
//!   prediction accuracy, MAPE;
//! * [`parallel`] — the deterministic parallel experiment harness the
//!   figure sweeps run on (bit-identical results for any thread count);
//! * [`serve`] — the multi-session decision server: a fleet of
//!   independent device sessions sharded over the parallel work queue,
//!   with per-session seeding that keeps reports bit-identical for any
//!   shard count and an allocation-free per-decision hot path;
//! * [`characterize`] — offline profiling runs that generate the training
//!   data the predictive baselines need;
//! * [`experiment`] — end-to-end experiment drivers for the paper's
//!   figures.
//!
//! ## Quickstart
//!
//! ```
//! use autoscale::prelude::*;
//!
//! // Build the testbed around a phone and an AutoScale engine for it.
//! let sim = Simulator::new(DeviceId::Mi8Pro);
//! let mut engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
//! let mut rng = autoscale::seeded_rng(7);
//!
//! // Train on a few inferences in the calm environment.
//! let mut env = Environment::for_id(EnvironmentId::S1);
//! for _ in 0..50 {
//!     let snapshot = env.sample(&mut rng);
//!     let step = engine
//!         .decide(&sim, Workload::MobileNetV3, &snapshot, &mut rng)
//!         .expect("the Mi8Pro CPU serves every workload");
//!     let outcome = sim
//!         .execute_measured(Workload::MobileNetV3, &step.request, &snapshot, &mut rng)
//!         .expect("engine only proposes feasible requests");
//!     engine.learn(&sim, Workload::MobileNetV3, step, &outcome, &snapshot);
//! }
//! assert!(engine.agent().updates() >= 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro
    )
)]

pub mod action;
pub mod characterize;
pub mod engine;
pub mod estimator;
pub mod eval;
pub mod experiment;
pub mod parallel;
pub mod reward;
pub mod scheduler;
pub mod serve;
pub mod state;

pub use action::ActionSpace;
pub use engine::{AutoScaleEngine, DecisionStep, EngineConfig};
pub use eval::{EpisodeReport, Evaluator};
pub use reward::{reward, RewardConfig};
pub use serve::{
    AdmissionPolicy, FleetTraffic, OpenLoopConfig, ScenarioMix, ServeConfig, ServeReport,
    SessionReport, SessionSpec, SessionTraffic,
};
pub use state::{State, StateSpace};

/// A deterministic RNG for experiments; thin wrapper over the `rand`
/// `StdRng` used throughout the workspace.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// One-stop imports for examples and experiments.
pub mod prelude {
    pub use crate::action::ActionSpace;
    pub use crate::engine::{AutoScaleEngine, DecisionStep, EngineConfig};
    pub use crate::eval::{EpisodeReport, Evaluator};
    pub use crate::reward::RewardConfig;
    pub use crate::scheduler::{Decision, Scheduler, SchedulerKind};
    pub use crate::serve::{
        serve, AdmissionPolicy, DeviceSession, FleetTraffic, OpenLoopConfig, ScenarioMix,
        ServeConfig, ServeReport, SessionReport, SessionRun, SessionSpec, SessionTraffic,
    };
    pub use crate::state::{State, StateSpace};
    pub use autoscale_nn::{Network, Precision, Task, Workload};
    pub use autoscale_platform::{Device, DeviceId, ProcessorKind};
    pub use autoscale_sim::{
        ArrivalProcess, ChurnConfig, Environment, EnvironmentId, FaultInjector, FaultProfile,
        Outcome, Placement, Request, ResiliencePolicy, Scenario, Simulator, Snapshot,
    };
}
