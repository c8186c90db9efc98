//! The AutoScale engine: Algorithm 1 wired to the state space, action
//! space and reward of this domain.
//!
//! The engine is deliberately thin — observe, look up, select, learn —
//! because that is the paper's point: a Q-table decision costs
//! microseconds and ~0.4 MB on a phone (Section VI-C), which deep-RL
//! alternatives cannot match.

use std::sync::Arc;

use autoscale_nn::Workload;
use autoscale_rl::qtable::ShapeMismatchError;
use autoscale_rl::{
    ConvergenceDetector, EpsilonGreedy, Hyperparameters, MaskSet, QLearningAgent, ScalarKernel,
};
use autoscale_sim::{Outcome, Request, Scenario, Simulator, Snapshot};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::action::ActionSpace;
use crate::estimator::estimate_energy_mj;
use crate::reward::{reward, RewardConfig};
use crate::state::StateSpace;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Q-learning hyperparameters (γ, µ, ε).
    pub hyperparameters: Hyperparameters,
    /// The latency weight α of eq. (5).
    pub alpha: f64,
    /// The accuracy weight β of eq. (5).
    pub beta: f64,
    /// The inference-quality (accuracy) target in percent, if any.
    pub accuracy_target: Option<f64>,
    /// Whether vision workloads run in the streaming scenario (33.3 ms
    /// QoS) instead of non-streaming (50 ms).
    pub streaming: bool,
    /// Seed for the random Q-table initialization.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper's configuration: γ = 0.9, µ = 0.1, ε = 0.1,
    /// α = β = 0.1, 50% accuracy target, non-streaming.
    pub fn paper() -> Self {
        EngineConfig {
            hyperparameters: Hyperparameters::paper(),
            alpha: 0.1,
            beta: 0.1,
            accuracy_target: Some(50.0),
            streaming: false,
            seed: 0x5ca1e,
        }
    }

    /// The scenario (and hence QoS constraint) for a workload under this
    /// configuration.
    pub fn scenario_for(&self, workload: Workload) -> Scenario {
        if self.streaming {
            Scenario::streaming_for(workload.task())
        } else {
            Scenario::default_for(workload.task())
        }
    }

    /// The eq. (5) reward configuration for a workload.
    pub fn reward_for(&self, workload: Workload) -> RewardConfig {
        RewardConfig {
            alpha: self.alpha,
            beta: self.beta,
            qos_ms: self.scenario_for(workload).qos_ms(),
            accuracy_target: self.accuracy_target,
            accuracy_penalty_scale: 100.0,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::paper()
    }
}

/// One decision made by the engine, to be passed back to
/// [`AutoScaleEngine::learn`] after the inference executes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionStep {
    /// The encoded state the decision was made in.
    pub state_index: usize,
    /// The index of the selected action.
    pub action_index: usize,
    /// The fully specified request the action denotes.
    pub request: Request,
}

/// No action in the action space can serve a workload on this device.
///
/// Cannot occur on the paper's three testbeds — their CPUs run every
/// Table III model, so the feasibility mask always has at least one
/// `true` — but an engine built for a hypothetical device without a
/// universal fallback processor would hit it, and the serving stack
/// must surface that as a typed error rather than an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFeasibleActionError {
    /// The workload no action could serve.
    pub workload: Workload,
}

impl std::fmt::Display for NoFeasibleActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no feasible action for workload {} on this device (empty feasibility mask)",
            self.workload
        )
    }
}

impl std::error::Error for NoFeasibleActionError {}

/// The AutoScale execution-scaling engine.
///
/// An engine is two parts. Its decision context — the state space, the
/// action space and the per-workload feasibility masks, state bases and
/// reward configurations — depends only on the device and the
/// configuration, and never changes after construction. Its learner —
/// the Q-learning agent, the convergence detector and the seed — is what
/// a session trains. [`AutoScaleEngine::spawn`] makes a sibling engine
/// with a fresh learner over the same, shared context: a serving fleet
/// builds the context once and spawns every session from it.
///
/// An engine binds to the device it was built for: the action space and
/// the per-workload feasibility masks are enumerated from the
/// construction-time [`Simulator`], so `decide`/`learn` must be driven
/// with that same testbed.
#[derive(Debug, Clone)]
pub struct AutoScaleEngine {
    context: DecisionContext,
    agent: QLearningAgent,
    detector: ConvergenceDetector,
    config: EngineConfig,
}

/// What an engine decides over: everything that depends only on the
/// device and the engine configuration, precomputed at construction so
/// the per-decision hot path is allocation-free and skips the O(layers)
/// network fold on every state encoding.
///
/// Cloning shares it. The action space and the workload contexts sit
/// behind reference counts; the workload contexts as a fat pointer, so
/// a decision reaches its context in one load, as from a `Vec`. The
/// state space, which every decision reads, stays by value.
#[derive(Debug, Clone)]
struct DecisionContext {
    states: StateSpace,
    actions: Arc<ActionSpace>,
    /// Per-workload decision context indexed by [`Workload::index`].
    workloads: Arc<[WorkloadContext]>,
}

/// The construction-time invariants of one workload on one device: its
/// feasibility mask (as both `&[bool]` and allowed indices), the workload
/// component of every state index it can observe, and its eq. (5)
/// reward configuration.
#[derive(Debug, Clone)]
struct WorkloadContext {
    mask: MaskSet,
    state_base: usize,
    reward: RewardConfig,
}

impl DecisionContext {
    /// Precomputes the decision context of every Table III workload on a
    /// simulator's host device.
    fn new(sim: &Simulator, config: &EngineConfig) -> Self {
        let states = StateSpace::paper();
        let actions = ActionSpace::for_simulator(sim);
        let workloads = Workload::ALL
            .iter()
            .map(|&w| WorkloadContext {
                mask: MaskSet::from_bools(&actions.mask(sim, w)),
                state_base: states.network_base(sim.network(w)),
                reward: config.reward_for(w),
            })
            .collect();
        DecisionContext {
            states,
            actions: Arc::new(actions),
            workloads,
        }
    }

    /// Checks that an agent's Q-table is shaped for this context's state
    /// and action spaces.
    fn fits(&self, agent: &QLearningAgent) -> Result<(), ShapeMismatchError> {
        let expected = (self.states.len(), self.actions.len());
        let found = (agent.store().states(), agent.store().actions());
        if found != expected {
            return Err(ShapeMismatchError { expected, found });
        }
        Ok(())
    }
}

impl AutoScaleEngine {
    /// Builds an engine for a simulator's host device.
    pub fn new(sim: &Simulator, config: EngineConfig) -> Self {
        Self::assemble(DecisionContext::new(sim, &config), config, None)
    }

    /// Builds an engine around a pre-trained agent (e.g. one restored
    /// from serde persistence by a deployment pipeline).
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if the agent's Q-table does not match
    /// this device's state and action spaces.
    pub fn with_agent(
        sim: &Simulator,
        config: EngineConfig,
        agent: QLearningAgent,
    ) -> Result<Self, ShapeMismatchError> {
        let context = DecisionContext::new(sim, &config);
        context.fits(&agent)?;
        Ok(Self::assemble(context, config, Some(agent)))
    }

    /// A sibling engine over this engine's decision context, shared
    /// rather than rebuilt, with a learner of its own: `agent`, or a
    /// fresh random Q-table drawn from `seed`, and a fresh convergence
    /// detector. Its configuration is this engine's with `seed` in place
    /// of the seed. The result decides, learns and converges exactly as
    /// [`AutoScaleEngine::new`] (or [`AutoScaleEngine::with_agent`]) with
    /// that configuration would, on this engine's device.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if `agent`'s Q-table does not match
    /// this device's state and action spaces.
    pub fn spawn(
        &self,
        seed: u64,
        agent: Option<QLearningAgent>,
    ) -> Result<Self, ShapeMismatchError> {
        if let Some(agent) = &agent {
            self.context.fits(agent)?;
        }
        let config = EngineConfig {
            seed,
            ..self.config
        };
        Ok(Self::assemble(self.context.clone(), config, agent))
    }

    /// Checks that `agent`'s Q-table is shaped for this engine's state
    /// and action spaces, as [`Self::with_agent`] and [`Self::spawn`] do.
    pub(crate) fn fits(&self, agent: &QLearningAgent) -> Result<(), ShapeMismatchError> {
        self.context.fits(agent)
    }

    /// The one constructor body: `agent` (shape-checked by the caller),
    /// or a fresh random Q-table drawn from `config.seed`, and a fresh
    /// detector, over `context`.
    fn assemble(
        context: DecisionContext,
        config: EngineConfig,
        agent: Option<QLearningAgent>,
    ) -> Self {
        let (states, actions) = (context.states.len(), context.actions.len());
        let agent = agent.unwrap_or_else(|| {
            QLearningAgent::new(states, actions, config.hyperparameters, config.seed)
        });
        // Convergence cannot be meaningful before the epsilon-greedy sweep
        // has visited every action once (see ConvergenceDetector docs).
        let detector = ConvergenceDetector::paper().with_min_observations(actions);
        AutoScaleEngine {
            context,
            agent,
            detector,
            config,
        }
    }

    /// The precomputed feasibility mask for a workload on this engine's
    /// device — the allocation-free equivalent of
    /// [`ActionSpace::mask`].
    pub fn mask_for(&self, workload: Workload) -> &[bool] {
        self.context.workloads[workload.index()].mask.bools()
    }

    /// Encodes the state a decision for `workload` under `snapshot` is
    /// made in, using the factored form: the workload's precomputed
    /// network base plus the snapshot's runtime index. Identical to
    /// [`StateSpace::encode_observation`] on the construction-time
    /// simulator's network, without the per-decision O(layers) fold.
    pub fn state_for(&self, workload: Workload, snapshot: &Snapshot) -> usize {
        self.context.workloads[workload.index()].state_base
            + self.context.states.runtime_index(snapshot)
    }

    /// The engine's state space.
    pub fn states(&self) -> &StateSpace {
        &self.context.states
    }

    /// The engine's action space.
    pub fn actions(&self) -> &ActionSpace {
        &self.context.actions
    }

    /// The underlying Q-learning agent.
    pub fn agent(&self) -> &QLearningAgent {
        &self.agent
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The reward-convergence detector (paper Fig. 14).
    pub fn convergence(&self) -> &ConvergenceDetector {
        &self.detector
    }

    /// Selects an action for the next inference with the epsilon-greedy
    /// policy (steps ① and ② of the paper's Fig. 8).
    ///
    /// # Errors
    ///
    /// Returns [`NoFeasibleActionError`] when the workload's feasibility
    /// mask is empty — impossible on the paper's devices, whose CPUs run
    /// every model.
    pub fn decide(
        &self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        debug_assert_eq!(
            self.state_for(workload, snapshot),
            self.states()
                .encode_observation(sim.network(workload), snapshot),
            "factored state must match the direct encoding"
        );
        self.decide_with(self.agent.policy(), workload, snapshot, rng)
            .map(|(step, _)| step)
    }

    /// [`AutoScaleEngine::decide`] without the simulator argument, which
    /// only feeds a debug check. Kept for the serving benchmark's traced
    /// replica (`crates/bench/src/bin/benchmark/replica.rs`); the kernel
    /// argument selects nothing. Delete it with
    /// `autoscale_rl::ScalarKernel` once the replica calls `decide`.
    ///
    /// # Errors
    ///
    /// As [`AutoScaleEngine::decide`].
    #[doc(hidden)]
    #[inline]
    pub fn decide_kernel(
        &self,
        _: &ScalarKernel,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        self.decide_with(self.agent.policy(), workload, snapshot, rng)
            .map(|(step, _)| step)
    }

    /// The one decision body: state encode, one
    /// [`EpsilonGreedy::choose_reporting_max`] under `policy`, request
    /// build. [`AutoScaleEngine::decide`] passes the agent's own policy,
    /// as serving does; the open loop's degrade admission passes
    /// [`EpsilonGreedy::greedy`], which draws the same one uniform value
    /// and never explores, so degrading a request never re-times the
    /// session's decision stream.
    ///
    /// Beside the step it returns the row maximum the choice read when it
    /// exploited — `max_a' Q(S, a')` over the workload's mask — and
    /// `None` when it explored. [`Self::learn_rewarded`] takes it as the
    /// bootstrap of a transition back into the same state.
    #[inline]
    pub(crate) fn decide_with(
        &self,
        policy: EpsilonGreedy,
        workload: Workload,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<(DecisionStep, Option<f64>), NoFeasibleActionError> {
        let ctx = &self.context.workloads[workload.index()];
        let state_index = ctx.state_base + self.context.states.runtime_index(snapshot);
        let choice = policy
            .choose_reporting_max(self.agent.store(), state_index, &ctx.mask, rng)
            .ok_or(NoFeasibleActionError { workload })?;
        let step = DecisionStep {
            state_index,
            action_index: choice.action,
            request: self.context.actions.request(choice.action),
        };
        Ok((step, choice.row_max))
    }

    /// Selects the greedy (exploitation-only) action — serving mode, once
    /// training has converged.
    ///
    /// # Errors
    ///
    /// Returns [`NoFeasibleActionError`] when the workload's feasibility
    /// mask is empty — see [`AutoScaleEngine::decide`].
    pub fn decide_greedy(
        &self,
        sim: &Simulator,
        workload: Workload,
        snapshot: &Snapshot,
    ) -> Result<DecisionStep, NoFeasibleActionError> {
        let state_index = self.state_for(workload, snapshot);
        debug_assert_eq!(
            state_index,
            self.states()
                .encode_observation(sim.network(workload), snapshot),
            "factored state must match the direct encoding"
        );
        let action_index = self
            .agent
            .select_greedy(state_index, self.mask_for(workload))
            .ok_or(NoFeasibleActionError { workload })?;
        Ok(DecisionStep {
            state_index,
            action_index,
            request: self.context.actions.request(action_index),
        })
    }

    /// Feeds the measured result of an executed decision back into the
    /// Q-table (steps ④ and ⑤ of Fig. 8) and returns the eq. (5) reward.
    ///
    /// The paper's engine measures latency but *estimates* energy from it
    /// (eqs. (1)–(4), Section IV-A) — a phone has no per-inference power
    /// meter — so the reward reads the estimator at the measured latency
    /// in place of the outcome's energy.
    ///
    /// `next_snapshot` is the runtime variance observed after the
    /// inference (Algorithm 1's S'); passing the same snapshot is fine in
    /// slowly varying environments.
    pub fn learn(
        &mut self,
        sim: &Simulator,
        workload: Workload,
        step: DecisionStep,
        outcome: &Outcome,
        next_snapshot: &Snapshot,
    ) -> f64 {
        let rewarded = self.rewarded(outcome, || {
            estimate_energy_mj(
                sim,
                workload,
                &step.request,
                next_snapshot,
                outcome.latency_ms,
            )
        });
        self.learn_rewarded(workload, step, &rewarded, next_snapshot, None)
    }

    /// The outcome the reward reads: the measured one, with its energy
    /// replaced by `estimate()`, the estimator at the measured latency.
    #[inline]
    pub(crate) fn rewarded(&self, outcome: &Outcome, estimate: impl FnOnce() -> f64) -> Outcome {
        Outcome {
            energy_mj: estimate(),
            ..*outcome
        }
    }

    /// The one learning body: reward `rewarded`, back it up into
    /// Q(S, A), observe it for convergence, and return it.
    ///
    /// `row_max` is `max_a' Q(S', a')` when the caller already read it —
    /// the row maximum [`Self::decide_with`] returned, valid when S' = S
    /// and nothing wrote the row since. `None` reads it from the table.
    pub(crate) fn learn_rewarded(
        &mut self,
        workload: Workload,
        step: DecisionStep,
        rewarded: &Outcome,
        next_snapshot: &Snapshot,
        row_max: Option<f64>,
    ) -> f64 {
        let ctx = &self.context.workloads[workload.index()];
        let r = reward(&ctx.reward, rewarded);
        let next_state = ctx.state_base + self.context.states.runtime_index(next_snapshot);
        let mask = ctx.mask.bools();
        let bootstrap = match row_max {
            Some(known) => {
                debug_assert_eq!(
                    known.to_bits(),
                    self.agent.store().max_value(next_state, mask).to_bits(),
                    "a known bootstrap must be the next state's row maximum"
                );
                known
            }
            None => self.agent.store().max_value(next_state, mask),
        };
        self.agent
            .update_toward(step.state_index, step.action_index, r, bootstrap);
        self.detector.observe(r);
        r
    }

    /// Whether the reward has converged (after which the paper switches
    /// to pure exploitation).
    pub fn is_converged(&self) -> bool {
        self.detector.is_converged()
    }

    /// Switches to pure exploitation (ε = 0).
    pub fn freeze(&mut self) {
        self.agent.freeze();
    }

    /// Warm-starts this engine from another engine's Q-table — the
    /// paper's learning transfer across devices (Section VI-C).
    ///
    /// Requires both engines to expose identical state and action spaces;
    /// the three phones differ in action count, so cross-device transfer
    /// goes through [`AutoScaleEngine::transfer_by_action`] instead.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if the Q-tables differ in size.
    pub fn transfer_from(&mut self, donor: &AutoScaleEngine) -> Result<(), ShapeMismatchError> {
        self.agent.transfer_from(&donor.agent)
    }

    /// Cross-device learning transfer: copies Q-values for every action
    /// that exists in both devices' action spaces (matched by placement,
    /// precision and *relative* DVFS position), leaving the rest at their
    /// random initialization. This reproduces the Fig. 14 transfer from
    /// the Mi8Pro to the Galaxy S10e / Moto X Force.
    pub fn transfer_by_action(&mut self, donor: &AutoScaleEngine) {
        // Matched columns are written straight into this engine's table —
        // no clone of the (states × actions) value array. The recipient's
        // update counter and exploration policy are untouched: a transfer
        // injects knowledge, it does not reset the agent's history.
        let donor_q = donor.agent.store();
        let actions = &self.context.actions;
        for a in 0..actions.len() {
            let request = actions.request(a);
            let donor_a = match donor.match_action(&request, actions) {
                Some(idx) => idx,
                None => continue,
            };
            for s in 0..self.context.states.len() {
                let v = donor_q.get(s, donor_a);
                self.agent.store_mut().set(s, a, v);
            }
        }
    }

    /// Finds the donor-side action corresponding to `request` from a
    /// recipient action space: exact placement and precision, nearest
    /// relative DVFS position.
    fn match_action(&self, request: &Request, recipient_actions: &ActionSpace) -> Option<usize> {
        // Relative DVFS position of the request on the recipient device.
        let rel = relative_freq(request, recipient_actions);
        let mut best: Option<(usize, f64)> = None;
        let actions = &self.context.actions;
        for (i, cand) in actions.actions().iter().enumerate() {
            if cand.placement != request.placement || cand.precision != request.precision {
                continue;
            }
            let cand_rel = relative_freq(cand, actions);
            let dist = (cand_rel - rel).abs();
            if best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// The relative DVFS position of a request within its placement's step
/// range in an action space, in [0, 1].
fn relative_freq(request: &Request, space: &ActionSpace) -> f64 {
    let max_index = space
        .actions()
        .iter()
        .filter(|r| r.placement == request.placement && r.precision == request.precision)
        .map(|r| r.freq_index)
        .max()
        .unwrap_or(0);
    if max_index == 0 {
        1.0
    } else {
        request.freq_index as f64 / max_index as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use autoscale_platform::DeviceId;
    use autoscale_sim::{Environment, EnvironmentId};

    fn trained_engine(sim: &Simulator, workload: Workload, runs: usize) -> AutoScaleEngine {
        let mut engine = AutoScaleEngine::new(sim, EngineConfig::paper());
        let mut rng = seeded_rng(42);
        let mut env = Environment::for_id(EnvironmentId::S1);
        for _ in 0..runs {
            let snapshot = env.sample(&mut rng);
            let step = engine
                .decide(sim, workload, &snapshot, &mut rng)
                .expect("feasible");
            let outcome = sim
                .execute_measured(workload, &step.request, &snapshot, &mut rng)
                .expect("feasible");
            engine.learn(sim, workload, step, &outcome, &snapshot);
        }
        engine
    }

    #[test]
    fn engine_learns_to_beat_the_cpu_baseline() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::InceptionV1, 150);
        let snapshot = Snapshot::calm();
        let step = engine
            .decide_greedy(&sim, Workload::InceptionV1, &snapshot)
            .expect("feasible");
        let chosen = sim
            .execute_expected(Workload::InceptionV1, &step.request, &snapshot)
            .unwrap();
        let baseline_req = autoscale_sim::Request::at_max_frequency(
            &sim,
            autoscale_sim::Placement::OnDevice(autoscale_platform::ProcessorKind::Cpu),
            autoscale_nn::Precision::Fp32,
        );
        let baseline = sim
            .execute_expected(Workload::InceptionV1, &baseline_req, &snapshot)
            .unwrap();
        assert!(
            chosen.energy_mj < baseline.energy_mj / 2.0,
            "chosen {} mJ vs baseline {} mJ",
            chosen.energy_mj,
            baseline.energy_mj
        );
    }

    #[test]
    fn decisions_respect_the_feasibility_mask() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(3);
        for _ in 0..50 {
            let step = engine
                .decide(&sim, Workload::MobileBert, &Snapshot::calm(), &mut rng)
                .expect("feasible");
            assert!(
                sim.is_feasible(Workload::MobileBert, &step.request),
                "{}",
                step.request
            );
        }
    }

    #[test]
    fn learn_returns_the_reward_and_counts_updates() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mut engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut rng = seeded_rng(5);
        let snapshot = Snapshot::calm();
        let step = engine
            .decide(&sim, Workload::MobileNetV1, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
            .unwrap();
        let r = engine.learn(&sim, Workload::MobileNetV1, step, &outcome, &snapshot);
        assert!(r.is_finite());
        assert_eq!(engine.agent().updates(), 1);
    }

    #[test]
    fn same_shape_transfer_copies_knowledge() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&sim, Workload::InceptionV1, 150);
        let mut fresh = AutoScaleEngine::new(&sim, EngineConfig::paper());
        fresh.transfer_from(&donor).unwrap();
        let snapshot = Snapshot::calm();
        assert_eq!(
            fresh
                .decide_greedy(&sim, Workload::InceptionV1, &snapshot)
                .expect("feasible")
                .action_index,
            donor
                .decide_greedy(&sim, Workload::InceptionV1, &snapshot)
                .expect("feasible")
                .action_index
        );
    }

    #[test]
    fn cross_device_transfer_carries_the_energy_trend() {
        // Train on the Mi8Pro, transfer to the Moto X Force: the
        // transferred engine's greedy decision should already be
        // competitive (well below the CPU FP32 baseline's energy).
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&mi8, Workload::InceptionV1, 200);
        let moto = Simulator::new(DeviceId::MotoXForce);
        let mut recipient = AutoScaleEngine::new(&moto, EngineConfig::paper());
        donor_into(&donor, &mut recipient);
        let snapshot = Snapshot::calm();
        let step = recipient
            .decide_greedy(&moto, Workload::InceptionV1, &snapshot)
            .expect("feasible");
        let chosen = moto
            .execute_expected(Workload::InceptionV1, &step.request, &snapshot)
            .unwrap();
        let baseline_req = autoscale_sim::Request::at_max_frequency(
            &moto,
            autoscale_sim::Placement::OnDevice(autoscale_platform::ProcessorKind::Cpu),
            autoscale_nn::Precision::Fp32,
        );
        let baseline = moto
            .execute_expected(Workload::InceptionV1, &baseline_req, &snapshot)
            .unwrap();
        assert!(
            chosen.energy_mj < baseline.energy_mj,
            "transfer should carry the trend"
        );
    }

    fn donor_into(donor: &AutoScaleEngine, recipient: &mut AutoScaleEngine) {
        recipient.transfer_by_action(donor);
    }

    #[test]
    fn with_agent_accepts_matching_and_rejects_foreign_tables() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&sim, Workload::MobileNetV1, 80);
        let restored =
            AutoScaleEngine::with_agent(&sim, EngineConfig::paper(), donor.agent().clone())
                .expect("same testbed, same shape");
        let snapshot = Snapshot::calm();
        assert_eq!(
            restored
                .decide_greedy(&sim, Workload::MobileNetV1, &snapshot)
                .expect("feasible")
                .action_index,
            donor
                .decide_greedy(&sim, Workload::MobileNetV1, &snapshot)
                .expect("feasible")
                .action_index
        );
        // A Moto-shaped table (47 actions) must be rejected on the Mi8Pro.
        let moto = Simulator::new(DeviceId::MotoXForce);
        let foreign = AutoScaleEngine::new(&moto, EngineConfig::paper());
        assert!(
            AutoScaleEngine::with_agent(&sim, EngineConfig::paper(), foreign.agent().clone())
                .is_err()
        );
    }

    #[test]
    fn estimated_energy_reward_stays_close_to_measured_reward() {
        // The reward the engine learns from, on estimated energy, tracks
        // the reward of the measured outcome within the estimator's
        // single-digit MAPE.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let config = EngineConfig::paper();
        let mut engine = AutoScaleEngine::new(&sim, config);
        let mut rng = seeded_rng(33);
        let snapshot = Snapshot::calm();
        let step = engine
            .decide(&sim, Workload::MobileNetV1, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
            .expect("feasible");
        let r_est = engine.learn(&sim, Workload::MobileNetV1, step, &outcome, &snapshot);
        let r_meas = reward(&config.reward_for(Workload::MobileNetV1), &outcome);
        assert!(
            (r_est - r_meas).abs() / r_meas.abs() < 0.25,
            "estimated-reward {r_est} vs measured-reward {r_meas}"
        );
    }

    #[test]
    fn scenario_selection_follows_config() {
        let cfg = EngineConfig::paper();
        assert_eq!(
            cfg.scenario_for(Workload::InceptionV1),
            Scenario::NonStreaming
        );
        assert_eq!(
            cfg.scenario_for(Workload::MobileBert),
            Scenario::Translation
        );
        let streaming = EngineConfig {
            streaming: true,
            ..EngineConfig::paper()
        };
        assert_eq!(
            streaming.scenario_for(Workload::InceptionV1),
            Scenario::Streaming
        );
    }

    #[test]
    fn transfer_by_action_writes_in_place_and_matches_donor_columns() {
        // The in-place transfer (no Q-table clone) must land exactly the
        // donor's matched columns in the recipient's table.
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        let donor = trained_engine(&mi8, Workload::InceptionV1, 120);
        let moto = Simulator::new(DeviceId::MotoXForce);
        let mut recipient = AutoScaleEngine::new(&moto, EngineConfig::paper());
        let before_updates = recipient.agent().updates();
        recipient.transfer_by_action(&donor);
        assert_eq!(
            recipient.agent().updates(),
            before_updates,
            "transfer must not reset the update history"
        );
        for a in 0..recipient.actions().len() {
            let request = recipient.actions().request(a);
            let Some(donor_a) = donor.match_action(&request, recipient.actions()) else {
                continue;
            };
            for s in (0..recipient.states().len()).step_by(97) {
                assert_eq!(
                    recipient.agent().store().get(s, a),
                    donor.agent().store().get(s, donor_a),
                    "state {s} action {a}"
                );
            }
        }
    }

    #[test]
    fn eval_path_works_on_a_shared_reference() {
        // Greedy serving is &self: many readers may evaluate the same
        // engine concurrently without cloning its Q-table.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::MobileNetV2, 120);
        let reference = engine
            .decide_greedy(&sim, Workload::MobileNetV2, &Snapshot::calm())
            .expect("feasible");
        let shared = &engine;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        shared
                            .decide_greedy(&sim, Workload::MobileNetV2, &Snapshot::calm())
                            .expect("feasible")
                            .action_index
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), reference.action_index);
            }
        });
    }

    #[test]
    fn a_degraded_decide_draws_one_uniform_and_picks_the_greedy_action() {
        // The open loop's degrade admission decides with ε = 0: the ε
        // gate still draws its one uniform value, so the session stream
        // stays aligned, and the action is the one decide_greedy picks
        // without drawing at all.
        use rand::Rng;
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::InceptionV1, 60);
        assert!(engine.agent().policy().epsilon() > 0.0, "still exploring");
        let mut env = Environment::for_id(EnvironmentId::D2);
        let mut env_rng = seeded_rng(11);
        for seed in 0..25 {
            let snapshot = env.sample(&mut env_rng);
            for w in [Workload::InceptionV1, Workload::MobileBert] {
                let mut rng = seeded_rng(seed);
                let (degraded, row_max) = engine
                    .decide_with(EpsilonGreedy::greedy(), w, &snapshot, &mut rng)
                    .expect("feasible");
                let mut shadow = seeded_rng(seed);
                let _: f64 = shadow.gen();
                assert_eq!(rng, shadow, "exactly one uniform draw");
                let greedy = engine.decide_greedy(&sim, w, &snapshot).expect("feasible");
                assert_eq!(degraded, greedy);
                let state = degraded.state_index;
                let q = engine.agent().store();
                assert_eq!(row_max, Some(q.get(state, degraded.action_index)));
                assert_eq!(row_max, Some(q.max_value(state, engine.mask_for(w))));
            }
        }
    }

    #[test]
    fn state_for_matches_encode_observation() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let mut env = Environment::for_id(EnvironmentId::S4);
        let mut rng = seeded_rng(8);
        for _ in 0..10 {
            let snapshot = env.sample(&mut rng);
            for w in Workload::ALL {
                assert_eq!(
                    engine.state_for(w, &snapshot),
                    engine
                        .states()
                        .encode_observation(sim.network(w), &snapshot),
                    "{w}"
                );
            }
        }
    }

    #[test]
    fn one_decision_builds_one_block_of_the_q_table() {
        use autoscale_rl::qtable::BLOCK_ROWS;
        use autoscale_rl::QTable;
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        assert_eq!(
            engine.agent().store().memory_bytes(),
            0,
            "a fresh paper-size table has built no block"
        );
        engine
            .decide(
                &sim,
                Workload::ResNet50,
                &Snapshot::calm(),
                &mut seeded_rng(4),
            )
            .expect("feasible");
        assert_eq!(
            engine.agent().store().memory_bytes(),
            QTable::full_bytes(BLOCK_ROWS, engine.actions().len())
        );
    }

    #[test]
    fn precomputed_masks_match_the_action_space() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = AutoScaleEngine::new(&sim, EngineConfig::paper());
        for w in Workload::ALL {
            assert_eq!(
                engine.mask_for(w),
                engine.actions().mask(&sim, w).as_slice(),
                "{w}"
            );
        }
    }

    /// Drives `spawned` and `built` through the same `steps` decisions on
    /// one environment trace, freezing each when it converges, and
    /// asserts they decide, learn and converge alike. Returns whether
    /// they converged.
    fn assert_twins(
        sim: &Simulator,
        workload: Workload,
        mut spawned: AutoScaleEngine,
        mut built: AutoScaleEngine,
        steps: usize,
    ) -> bool {
        assert_eq!(spawned.config(), built.config());
        let mut env = Environment::for_id(EnvironmentId::S1);
        let mut env_rng = seeded_rng(12);
        let (mut rng_a, mut rng_b) = (seeded_rng(13), seeded_rng(13));
        for i in 0..steps {
            let snapshot = env.sample(&mut env_rng);
            let step = spawned
                .decide(sim, workload, &snapshot, &mut rng_a)
                .expect("feasible");
            let twin = built
                .decide(sim, workload, &snapshot, &mut rng_b)
                .expect("feasible");
            assert_eq!(step, twin, "{workload} step {i}");
            let outcome = sim
                .execute_measured(workload, &step.request, &snapshot, &mut env_rng)
                .expect("feasible");
            let r = spawned.learn(sim, workload, step, &outcome, &snapshot);
            let r_twin = built.learn(sim, workload, twin, &outcome, &snapshot);
            assert_eq!(r.to_bits(), r_twin.to_bits(), "{workload} step {i}");
            assert_eq!(spawned.is_converged(), built.is_converged());
            if spawned.is_converged() {
                spawned.freeze();
                built.freeze();
            }
        }
        assert_eq!(spawned.agent(), built.agent(), "{workload}");
        assert_eq!(
            spawned.convergence().converged_at(),
            built.convergence().converged_at()
        );
        spawned.is_converged()
    }

    #[test]
    fn spawned_engines_match_freshly_built_ones() {
        // The template's own seed and agent must not leak into what it
        // spawns; its configuration (here a streaming one, which changes
        // every vision reward) must.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let config = EngineConfig {
            streaming: true,
            alpha: 0.2,
            seed: 1,
            ..EngineConfig::paper()
        };
        let template = AutoScaleEngine::new(&sim, config);
        let reseeded = EngineConfig { seed: 77, ..config };
        let mut converged = 0;
        for w in [Workload::MobileNetV2, Workload::MobileBert] {
            let cold = template.spawn(77, None).expect("no agent to mismatch");
            converged +=
                assert_twins(&sim, w, cold, AutoScaleEngine::new(&sim, reseeded), 300) as usize;
            let warm = trained_engine(&sim, w, 60).agent().clone();
            let spawned = template.spawn(77, Some(warm.clone())).expect("same shape");
            let built = AutoScaleEngine::with_agent(&sim, reseeded, warm).expect("same shape");
            converged += assert_twins(&sim, w, spawned, built, 300) as usize;
        }
        assert!(converged > 0, "the comparison reached convergence");
        let moto = Simulator::new(DeviceId::MotoXForce);
        let foreign = AutoScaleEngine::new(&moto, EngineConfig::paper());
        assert!(template.spawn(3, Some(foreign.agent().clone())).is_err());
    }

    #[test]
    fn spawned_engines_share_the_template_context() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let template = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let a = template.spawn(1, None).expect("no agent to mismatch");
        let b = template.spawn(2, None).expect("no agent to mismatch");
        for engine in [&a, &b] {
            assert!(Arc::ptr_eq(
                &engine.context.workloads,
                &template.context.workloads
            ));
            assert!(Arc::ptr_eq(
                &engine.context.actions,
                &template.context.actions
            ));
        }
        assert_ne!(a.agent(), b.agent(), "each spawn draws its own table");
    }

    #[test]
    fn convergence_is_reported_after_training() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let engine = trained_engine(&sim, Workload::MobileNetV2, 150);
        assert!(engine.is_converged(), "150 calm runs should converge");
        let at = engine.convergence().converged_at().unwrap();
        assert!(at <= 120, "converged at {at}");
    }
}
