//! One device session: an independent AutoScale lifetime — its own
//! engine, environment trace and RNG stream — driven for a fixed number
//! of decisions.
//!
//! A session is the unit of work the serving shards pull from the queue.
//! Everything a session computes is a pure function of its
//! [`SessionSpec`] and seed, so its [`SessionReport`] is bit-identical
//! no matter which shard runs it or what else runs beside it. Wall-clock
//! decision latencies are the one exception — they are measured, not
//! simulated — so they are returned *next to* the report, never inside
//! it.

use autoscale_nn::Workload;
use autoscale_rl::qtable::ShapeMismatchError;
use autoscale_rl::{EpsilonGreedy, QLearningAgent, QStoreStats};
use autoscale_sim::{
    Environment, EnvironmentId, ExecutionError, FaultInjector, FaultProfile, Outcome,
    ResiliencePolicy, Simulator, Snapshot,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use super::openloop::{OpenLoopConfig, SessionTraffic};
use super::timing::DecisionTimer;
use super::ServeError;
use crate::engine::{AutoScaleEngine, DecisionStep};
use crate::estimator::EnergyTerms;
use crate::parallel::cell_seed;
use crate::seeded_rng;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a digest, byte by byte.
pub(crate) fn fnv1a_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Starts an FNV-1a digest.
pub(crate) fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// What one session runs: its index in the fleet, its scenario, and how
/// many inferences it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Position of the session in the fleet (also its grid index in the
    /// shard queue).
    pub session: usize,
    /// The model this session serves.
    pub workload: Workload,
    /// The Table IV environment its runtime variance is drawn from.
    pub environment: EnvironmentId,
    /// Number of inference decisions to serve.
    pub decisions: usize,
}

/// The deterministic outcome of one session.
///
/// Contains **no wall-clock measurements**: two runs of the same spec
/// and seed produce byte-identical reports regardless of shard count,
/// which is what `tests/reference_model.rs` compares at every shard
/// count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session index this report belongs to.
    pub session: usize,
    /// The workload served.
    pub workload: Workload,
    /// The environment the session ran in.
    pub environment: EnvironmentId,
    /// Decisions actually served.
    pub decisions: usize,
    /// FNV-1a digest over the full (state, action) decision trace — a
    /// compact fingerprint two traces can be compared by.
    pub trace_digest: u64,
    /// Mean eq. (5) reward over the session.
    pub mean_reward: f64,
    /// Decisions whose measured latency exceeded the scenario QoS.
    pub qos_violations: usize,
    /// Total measured energy over the session, in mJ.
    pub total_energy_mj: f64,
    /// Requests whose offload path suffered at least one injected fault
    /// (dropout or timeout). Always zero when fault injection is off.
    pub faulted_requests: usize,
    /// Backoff-then-retry cycles the resilience policy took across the
    /// session.
    pub retries: usize,
    /// Requests that exhausted their offload attempts and fell back to
    /// local execution.
    pub fallbacks: usize,
    /// Requests the session's arrival process offered, whether or not
    /// they were served. Zero in closed-loop runs, where nothing is
    /// "offered" — the session just executes its fixed decision count.
    pub offered_requests: usize,
    /// Offered requests dropped at admission (queue full, predicted
    /// deadline miss) or abandoned when the session churned out. Always
    /// zero in closed-loop runs.
    pub dropped_requests: usize,
    /// Requests admitted past their predicted deadline and served
    /// greedily (exploration off) under the degrade admission policy.
    /// Always zero in closed-loop runs.
    pub degraded_requests: usize,
    /// Served requests whose *sojourn* (queue wait plus service)
    /// exceeded the scenario QoS — the open-loop counterpart of
    /// `qos_violations`, which only measures service latency. Always
    /// zero in closed-loop runs.
    pub deadline_violations: usize,
    /// The deepest the session's request queue ever got. Always zero in
    /// closed-loop runs.
    pub peak_queue_depth: usize,
    /// FNV-1a digest over the arrival schedule the session actually saw
    /// (arrival index and time bits) — fingerprint of the open-loop
    /// traffic, independent of what the scheduler decided. Zero in
    /// closed-loop runs.
    pub arrival_digest: u64,
    /// The decision index at which the reward converged, if it did.
    pub converged_at: Option<usize>,
}

/// The deterministic counters a session folds request by request: what
/// its [`SessionReport`] carries beyond the spec and the open-loop
/// traffic.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tally {
    digest: u64,
    reward_sum: f64,
    qos_violations: usize,
    total_energy_mj: f64,
    faulted_requests: usize,
    retries: usize,
    fallbacks: usize,
    /// Requests served so far.
    pub(super) served: usize,
    /// How many requests the session had served when its reward
    /// converged and its policy froze.
    frozen_at: Option<usize>,
}

/// The price of one fault-free request: its noise-free outcome and the
/// latency-independent terms of its energy estimate, keyed by what they
/// depend on within a session.
///
/// Both are pure functions of the simulator, the workload, the request
/// and the snapshot. A session fixes the first two, and the action index
/// names the request, so the key is the action plus the snapshot's four
/// fields as bits: equal bits are equal inputs, and the reused price is
/// the one a fresh call would compute, bit for bit.
#[derive(Debug, Clone, Copy)]
pub(super) struct Priced {
    key: (usize, [u64; 4]),
    /// [`Simulator::execute_expected`] of the request.
    expected: Outcome,
    /// The estimator's terms, evaluated at each measured latency.
    terms: EnergyTerms,
}

impl Priced {
    /// The memo key of `action` under `snapshot`.
    fn key(action: usize, snapshot: &Snapshot) -> (usize, [u64; 4]) {
        let fields = [
            snapshot.co_cpu,
            snapshot.co_mem,
            snapshot.wlan.dbm(),
            snapshot.p2p.dbm(),
        ];
        (action, fields.map(f64::to_bits))
    }

    /// The price of the decided request under `snapshot`: `last` when it
    /// priced the same key, otherwise a fresh one, stored in its place.
    fn lookup(
        last: &mut Option<Priced>,
        sim: &Simulator,
        workload: Workload,
        step: &DecisionStep,
        snapshot: &Snapshot,
    ) -> Result<Priced, ExecutionError> {
        let key = Priced::key(step.action_index, snapshot);
        if let Some(hit) = last.filter(|priced| priced.key == key) {
            return Ok(hit);
        }
        let priced = Priced {
            key,
            expected: sim.execute_expected(workload, &step.request, snapshot)?,
            terms: EnergyTerms::new(sim, workload, &step.request, snapshot),
        };
        *last = Some(priced);
        Ok(priced)
    }
}

/// Everything one session run returns: the deterministic report, and
/// beside it what is measured or merely observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRun {
    /// The deterministic outcome of the session.
    pub report: SessionReport,
    /// Wall-clock decision latencies in nanoseconds, one per served
    /// request; empty unless latency recording was on.
    pub latencies_ns: Vec<u64>,
    /// The session's Q-value store after learning: its memory
    /// accounting, kept outside the report, whose serialized field set is
    /// pinned.
    pub store: QStoreStats,
    /// The open loop's traffic accounting; `None` for a closed-loop run.
    pub traffic: Option<SessionTraffic>,
}

/// One live device session: engine, environment and RNG bundled over a
/// shared simulator.
///
/// The per-decision loop is allocation-free, as `tests/alloc_free.rs`
/// counts: the engine's feasibility masks are precomputed per workload
/// in the fleet's template engine and shared, the epsilon-greedy policy
/// reads the allowed actions in O(1), and the closed loop sizes its
/// latency buffer once up front. The open loop's request count depends
/// on its arrival schedule, so there the latency buffer grows amortized.
pub struct DeviceSession<'a> {
    pub(super) sim: &'a Simulator,
    pub(super) spec: SessionSpec,
    pub(super) engine: AutoScaleEngine,
    pub(super) env: Environment,
    pub(super) rng: StdRng,
    pub(super) qos_ms: f64,
    pub(super) latencies_ns: Vec<u64>,
    /// Seeded fault source, present only when the session runs under a
    /// non-empty fault profile. `None` keeps the fault-free hot path
    /// untouched — and its reports byte-identical to builds without
    /// fault injection.
    pub(super) injector: Option<FaultInjector>,
    pub(super) resilience: ResiliencePolicy,
    /// The last fault-free request's price. In a static environment the
    /// snapshot never changes, so once the policy settles every request
    /// reuses it.
    pub(super) priced: Option<Priced>,
    pub(super) tally: Tally,
    /// The session's private seed, which every stream is split from.
    pub(super) seed: u64,
}

impl<'a> DeviceSession<'a> {
    /// Builds a session over a shared simulator, under a fault profile.
    ///
    /// The session's engine is spawned from `template`
    /// ([`AutoScaleEngine::spawn`]), which must have been built for
    /// `sim`'s device: it shares the template's decision context and
    /// configuration and owns only its learner, so one template serves a
    /// whole fleet.
    ///
    /// `seed` is the session's private seed (one per session, derived by
    /// the caller — see [`crate::parallel::cell_seed`]). Its streams stay
    /// uncorrelated: the engine's random Q-table initialization draws
    /// from stream 0 (`cell_seed(seed, 0)`), the environment and
    /// exploration from stream 1, and the fault injector from stream 2,
    /// so the fault schedule never perturbs the decision stream. An empty
    /// profile builds no injector at all, and with any profile the
    /// schedule is a pure function of the session seed — shard-count
    /// invariant like everything else. The session keeps `seed`: an
    /// open-loop [`Self::run`] splits its arrival and churn streams (3
    /// and 4) from it.
    ///
    /// `agent` is the warm start, taken by value: the session learns on
    /// it independently of every other session. [`super::serve`] passes
    /// each session a copy-on-write overlay over the fleet's shared base
    /// ([`QLearningAgent::overlay_variant`]), which decides exactly as a
    /// clone of the agent would. `None` draws a random table from stream
    /// 0, as Algorithm 1 prescribes.
    ///
    /// # Errors
    ///
    /// Returns the shape mismatch if `agent` has a Q-table shaped for a
    /// different device. [`super::serve`] checks the fleet's warm start
    /// once against its template engine, before any session is built, so
    /// this only trips for callers that build sessions by hand.
    pub fn spawn(
        sim: &'a Simulator,
        spec: SessionSpec,
        template: &AutoScaleEngine,
        agent: Option<QLearningAgent>,
        seed: u64,
        faults: FaultProfile,
    ) -> Result<Self, ShapeMismatchError> {
        let engine = template.spawn(cell_seed(seed, 0), agent)?;
        let qos_ms = engine.config().scenario_for(spec.workload).qos_ms();
        let injector = (!faults.is_none()).then(|| FaultInjector::new(faults, cell_seed(seed, 2)));
        Ok(DeviceSession {
            sim,
            spec,
            engine,
            env: Environment::for_id(spec.environment),
            rng: seeded_rng(cell_seed(seed, 1)),
            qos_ms,
            latencies_ns: Vec::new(),
            injector,
            resilience: ResiliencePolicy::for_qos(qos_ms),
            priced: None,
            tally: Tally {
                digest: fnv1a_start(),
                reward_sum: 0.0,
                qos_violations: 0,
                total_energy_mj: 0.0,
                faulted_requests: 0,
                retries: 0,
                fallbacks: 0,
                served: 0,
                frozen_at: None,
            },
            seed,
        })
    }

    /// Runs the session to completion.
    ///
    /// Closed loop (`open` is `None`): `spec.decisions` iterations of
    /// decide → execute → learn, freezing to pure exploitation once the
    /// reward converges (the paper's serving-mode switch).
    ///
    /// Open loop: requests arrive on the session's private arrival
    /// schedule instead of back-to-back, queue in a bounded buffer under
    /// the configured admission policy, and the session only exists
    /// inside its churn window; `spec.decisions` is ignored. The
    /// discrete-event loop lives in [`super::openloop`]. Its arrival and
    /// churn streams are split from the session seed (`cell_seed(seed,
    /// 3)` and `cell_seed(seed, 4)`), disjoint from the engine (0),
    /// environment/exploration (1) and fault (2) streams, so open-loop
    /// traffic never perturbs — and is never perturbed by — any other
    /// stream.
    ///
    /// Either way every request goes through the same step. With
    /// `record_latency` the wall-clock time of each *decision* (the
    /// Q-table lookup, not the simulated inference) is captured in
    /// nanoseconds and returned beside the deterministic report, as is
    /// the final [`QStoreStats`] of the session's Q-value store.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoFeasibleAction`] or
    /// [`ServeError::Execution`] when a decision cannot be made or the
    /// simulator rejects the chosen request — unreachable on the paper's
    /// testbeds (the engine only proposes mask-feasible requests), but
    /// surfaced as typed errors so the serving hot path never aborts.
    pub fn run(
        mut self,
        record_latency: bool,
        open: Option<&OpenLoopConfig>,
    ) -> Result<SessionRun, ServeError> {
        if let Some(open) = open {
            return super::openloop::drive(self, record_latency, open);
        }
        if record_latency {
            // Sized once for the whole session: recording allocates
            // nothing per decision.
            self.latencies_ns.reserve_exact(self.spec.decisions);
        }
        for _ in 0..self.spec.decisions {
            self.serve_request(false, record_latency)?;
        }
        Ok(self.finish())
    }

    /// Serves one request: sample → decide → execute → learn →
    /// convergence check, folded into the session's [`Tally`]. The
    /// closed and the open loop serve every request through here, and
    /// every request executes through the simulator's own calls.
    ///
    /// `greedy` decides with exploration off — the open loop's degrade
    /// admission. It draws exactly what an exploring decision draws, so
    /// degrading a request never re-times the session's streams.
    ///
    /// Each request is priced once per (action, snapshot): a fault-free
    /// request reuses the session's [`Priced`] memo when the key matches,
    /// then draws its two noise values ([`Simulator::measure`]) and
    /// evaluates the energy estimate at the measured latency — exactly
    /// `execute_measured` and `estimate_energy_mj`. And since S′ = S,
    /// learning bootstraps from the row maximum an exploiting decision
    /// already read.
    pub(super) fn serve_request(
        &mut self,
        greedy: bool,
        record_latency: bool,
    ) -> Result<Outcome, ServeError> {
        let snapshot = self.env.sample(&mut self.rng);
        // A single decide path keeps the RNG draw sequence a pure
        // function of the session's history: freezing sets ε = 0 inside
        // the policy rather than switching to a different
        // (differently-drawing) greedy call site. The timer lives in
        // statements of its own, never in the expression that produces
        // the step, so the measured wall clock stays visibly beside,
        // not inside, the decision data.
        let policy = if greedy {
            EpsilonGreedy::greedy()
        } else {
            self.engine.agent().policy()
        };
        let timer = if record_latency {
            Some(DecisionTimer::start())
        } else {
            None
        };
        let decided = self
            .engine
            .decide_with(policy, self.spec.workload, &snapshot, &mut self.rng);
        if let Some(timer) = &timer {
            // The closed loop sized the buffer at session start. The open
            // loop's count depends on its schedule, so there the buffer
            // grows amortized.
            self.latencies_ns.push(timer.elapsed_ns());
        }
        let (step, row_max) = decided.map_err(|source| ServeError::NoFeasibleAction {
            session: self.spec.session,
            source,
        })?;
        let tally = &mut self.tally;
        tally.digest = fnv1a_fold(tally.digest, step.state_index as u64);
        tally.digest = fnv1a_fold(tally.digest, step.action_index as u64);
        // An absent injector costs nothing and changes nothing. Under
        // faults, the resilient path draws the same two noise values per
        // request from the session stream; all fault draws come from the
        // injector's private stream.
        let (sim, workload) = (self.sim, self.spec.workload);
        let (outcome, terms) = match &mut self.injector {
            None => Priced::lookup(&mut self.priced, sim, workload, &step, &snapshot)
                .map(|priced| (sim.measure(priced.expected, &mut self.rng), priced.terms)),
            Some(injector) => {
                let plan = injector.next_faults();
                self.sim
                    .execute_resilient(
                        workload,
                        &step.request,
                        &snapshot,
                        &plan,
                        &self.resilience,
                        &mut self.rng,
                    )
                    .map(|resilient| {
                        if resilient.offload_faults > 0 {
                            tally.faulted_requests += 1;
                        }
                        tally.retries += resilient.retries;
                        if resilient.fell_back {
                            tally.fallbacks += 1;
                        }
                        let terms = EnergyTerms::new(sim, workload, &step.request, &snapshot);
                        (resilient.outcome, terms)
                    })
            }
        }
        .map_err(|source| ServeError::Execution {
            session: self.spec.session,
            source,
        })?;
        if outcome.latency_ms > self.qos_ms {
            tally.qos_violations += 1;
        }
        tally.total_energy_mj += outcome.energy_mj;
        // S′ = S: the estimate reads the decision's snapshot, and the
        // bootstrap is the row the decision read.
        let rewarded = self
            .engine
            .rewarded(&outcome, || terms.at(outcome.latency_ms));
        tally.reward_sum += self
            .engine
            .learn_rewarded(workload, step, &rewarded, &snapshot, row_max);
        if tally.frozen_at.is_none() && self.engine.is_converged() {
            self.engine.freeze();
            tally.frozen_at = Some(tally.served);
        }
        tally.served += 1;
        Ok(outcome)
    }

    /// Consumes the session into its closed-loop run: the report, the
    /// latency samples and the final Q-store stats, with no traffic. The
    /// report's open-loop fields are zero — a closed-loop run offers
    /// nothing, queues nothing and drops nothing, so a pre-open-loop
    /// report is this report minus six zeros; the open loop fills them in
    /// from its own bookkeeping.
    pub(super) fn finish(self) -> SessionRun {
        let tally = self.tally;
        let report = SessionReport {
            session: self.spec.session,
            workload: self.spec.workload,
            environment: self.spec.environment,
            decisions: tally.served,
            trace_digest: tally.digest,
            mean_reward: if tally.served == 0 {
                0.0
            } else {
                tally.reward_sum / tally.served as f64
            },
            qos_violations: tally.qos_violations,
            total_energy_mj: tally.total_energy_mj,
            faulted_requests: tally.faulted_requests,
            retries: tally.retries,
            fallbacks: tally.fallbacks,
            offered_requests: 0,
            dropped_requests: 0,
            degraded_requests: 0,
            deadline_violations: 0,
            peak_queue_depth: 0,
            arrival_digest: 0,
            converged_at: tally.frozen_at,
        };
        SessionRun {
            report,
            latencies_ns: self.latencies_ns,
            store: self.engine.agent().store().stats(),
            traffic: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use autoscale_platform::DeviceId;

    fn spec(decisions: usize) -> SessionSpec {
        SessionSpec {
            session: 0,
            workload: Workload::MobileNetV1,
            environment: EnvironmentId::S1,
            decisions,
        }
    }

    fn session(sim: &Simulator, decisions: usize, seed: u64) -> DeviceSession<'_> {
        let template = AutoScaleEngine::new(sim, EngineConfig::paper());
        DeviceSession::spawn(
            sim,
            spec(decisions),
            &template,
            None,
            seed,
            FaultProfile::none(),
        )
        .expect("no warm start, nothing to mismatch")
    }

    #[test]
    fn same_seed_reproduces_the_report_bit_for_bit() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let run = |seed| {
            session(&sim, 120, seed)
                .run(false, None)
                .expect("session runs")
                .report
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).trace_digest, run(8).trace_digest);
    }

    #[test]
    fn latency_recording_does_not_perturb_the_trace() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let timed = session(&sim, 80, 3).run(true, None).expect("session runs");
        let untimed = session(&sim, 80, 3).run(false, None).expect("session runs");
        assert_eq!(timed.report, untimed.report);
        assert_eq!(timed.latencies_ns.len(), 80);
        assert!(untimed.latencies_ns.is_empty());
        assert_eq!(timed.traffic, None, "a closed loop carries no traffic");
    }

    #[test]
    fn long_sessions_converge_and_freeze() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let report = session(&sim, 200, 11)
            .run(false, None)
            .expect("session runs")
            .report;
        assert!(report.converged_at.is_some(), "200 calm runs converge");
        assert_eq!(report.decisions, 200);
        assert!(report.mean_reward.is_finite());
    }

    #[test]
    fn session_report_serializes_no_wall_clock_fields() {
        // The structural guarantee behind the timing quarantine: latency
        // samples live *beside* the report (`SessionRun::latencies_ns`),
        // so the serialized report — the thing digests and
        // shard-invariance comparisons are built from — must not carry
        // any wall-clock field.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let SessionRun {
            report,
            latencies_ns: latencies,
            ..
        } = session(&sim, 30, 5).run(true, None).expect("session runs");
        assert_eq!(
            latencies.len(),
            30,
            "latencies are returned beside the report"
        );
        let value = serde::Serialize::to_value(&report);
        let fields = value.as_object().expect("a struct serializes to an object");
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for name in &names {
            let lower = name.to_lowercase();
            let banned = ["latency", "latencies", "wall", "instant", "elapsed"]
                .iter()
                .any(|b| lower.contains(b))
                || lower.ends_with("_ns");
            assert!(
                !banned,
                "field `{name}` smells like a wall-clock measurement"
            );
        }
        // Pin the exact deterministic field set: adding a field here is a
        // deliberate, reviewed act.
        assert_eq!(
            names,
            [
                "session",
                "workload",
                "environment",
                "decisions",
                "trace_digest",
                "mean_reward",
                "qos_violations",
                "total_energy_mj",
                "faulted_requests",
                "retries",
                "fallbacks",
                "offered_requests",
                "dropped_requests",
                "degraded_requests",
                "deadline_violations",
                "peak_queue_depth",
                "arrival_digest",
                "converged_at",
            ]
        );
    }

    #[test]
    fn faulted_sessions_reproduce_and_count_consistently() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let template = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let run = |seed: u64| {
            DeviceSession::spawn(
                &sim,
                spec(150),
                &template,
                None,
                seed,
                autoscale_sim::FaultProfile::chaos(),
            )
            .expect("no warm start")
            .run(false, None)
            .expect("session survives chaos")
            .report
        };
        let a = run(33);
        assert_eq!(a, run(33), "same seed, same faults, same report");
        assert!(
            a.fallbacks <= a.faulted_requests,
            "a fallback implies at least one fault on that request"
        );
        assert!(a.faulted_requests <= a.decisions);
    }

    #[test]
    fn cow_store_session_matches_a_dense_warm_start() {
        use autoscale_rl::qtable::BLOCK_ROWS;
        use autoscale_rl::{Hyperparameters, QStoreKind, QTable};
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let template = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let (states, actions) = (template.states().len(), template.actions().len());
        // One shared warm agent: the dense path clones it per session,
        // the cow path overlays its flattened base — same logical values,
        // so the sessions must be bit-identical.
        let warm = QLearningAgent::with_table(
            QTable::new_random(states, actions, 0xba5e),
            Hyperparameters::paper(),
        );
        let dense = DeviceSession::spawn(
            &sim,
            spec(100),
            &template,
            Some(warm.clone()),
            21,
            FaultProfile::none(),
        )
        .expect("matching shape")
        .run(false, None)
        .expect("session runs");
        let base = warm.shared_base();
        let overlay_agent = warm.overlay_variant(&base).expect("same shape");
        let cow = DeviceSession::spawn(
            &sim,
            spec(100),
            &template,
            Some(overlay_agent),
            21,
            FaultProfile::none(),
        )
        .expect("matching shape")
        .run(false, None)
        .expect("session runs");
        assert_eq!(cow.report, dense.report, "reports are backend-independent");
        let (dense_stats, cow_stats) = (dense.store, cow.store);
        assert_eq!(dense_stats.kind, QStoreKind::Dense);
        assert_eq!(cow_stats.kind, QStoreKind::Cow);
        assert!(cow_stats.overlay_rows > 0, "learning materialized rows");
        assert_eq!(
            cow_stats.shared_bytes,
            QTable::full_bytes(states, actions) as u64,
            "the shared base is the whole table, fully built"
        );
        assert_eq!(
            dense_stats.private_bytes,
            QTable::full_bytes(BLOCK_ROWS, actions) as u64,
            "the dense session built only its workload's block"
        );
        assert!(
            cow_stats.private_bytes < dense_stats.private_bytes,
            "overlay ({} B) must undercut one dense block ({} B)",
            cow_stats.private_bytes,
            dense_stats.private_bytes
        );
        // The dense session cloned the warm table and the cow session
        // copied it into the base: neither built a block of it.
        assert_eq!(warm.store().memory_bytes(), 0);
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a_fold(fnv1a_fold(fnv1a_start(), 1), 2);
        let b = fnv1a_fold(fnv1a_fold(fnv1a_start(), 2), 1);
        assert_ne!(a, b);
    }
}
