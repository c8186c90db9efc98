//! The multi-session decision server: N independent device sessions
//! sharded across worker threads.
//!
//! A deployment of AutoScale is not one engine — it is a fleet: every
//! device runs its own session (its own Q-table, its own environment
//! trace, its own RNG stream), and a serving host replays many such
//! sessions at once. This module runs that fleet over the same
//! deterministic work queue the figure sweeps use
//! ([`crate::parallel::run_cells`]): sessions are the cells, shards are
//! the workers, and every session derives its private seed from
//! `(base_seed, session_index)` — so the fleet's reports are
//! **bit-identical for any shard count**.
//!
//! The per-decision hot path inside each session is allocation-free:
//! feasibility masks are precomputed per workload, once per fleet, and
//! shared by every session; state encoding is pure arithmetic, the
//! epsilon-greedy policy reads the allowed actions in O(1), and the
//! Q-table argmax is served from an incrementally maintained per-state
//! cache. `tests/alloc_free.rs` counts the heap allocations of whole
//! fleets at two horizons and requires them to be equal, and at two
//! fleet sizes and requires a small constant per extra session.
//!
//! Wall-clock decision latencies are measured (optionally) but kept
//! *outside* the deterministic [`SessionReport`]s, so determinism can be
//! asserted byte-for-byte while throughput is still benchmarked from the
//! same run.

mod mix;
pub mod openloop;
mod session;
mod timing;

pub use mix::ScenarioMix;
pub use openloop::{AdmissionPolicy, FleetTraffic, OpenLoopConfig, SessionTraffic};
pub use session::{DeviceSession, SessionReport, SessionRun, SessionSpec};

use std::sync::Arc;

use autoscale_rl::qtable::ShapeMismatchError;
use autoscale_rl::{QLearningAgent, QStoreKind, QTable};
use autoscale_sim::{ExecutionError, FaultProfile, Simulator};
use serde::{Deserialize, Serialize};

use crate::engine::{AutoScaleEngine, EngineConfig, NoFeasibleActionError};
use crate::parallel::{cell_seed, resolve_threads, run_cells};

/// Everything that can stop a serving run.
///
/// The fleet validates its configuration and warm start once up front,
/// so the per-session variants are unreachable on the paper's testbeds —
/// they exist so the serving hot path aborts nothing and reports which
/// session tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A hyperparameter of `config.engine` lies outside [0, 1] (NaN and
    /// the infinities included) — rejected before any session is built.
    HyperparameterOutOfRange {
        /// The first such field: `learning_rate`, `discount` or
        /// `epsilon`.
        field: &'static str,
    },
    /// The warm-start agent's Q-table was trained for a different
    /// device — rejected before any session is built.
    WarmStart(ShapeMismatchError),
    /// The warm-start agent holds a NaN or infinite Q value — rejected
    /// before any session is built, since one such value wins or loses
    /// every argmax it enters. Names the first one, state-major.
    NonFiniteWarmStart {
        /// The state of the first non-finite value.
        state: usize,
        /// Its action.
        action: usize,
    },
    /// A session's workload had an empty feasibility mask.
    NoFeasibleAction {
        /// The session that could not decide.
        session: usize,
        /// The underlying engine error.
        source: NoFeasibleActionError,
    },
    /// The simulator rejected a request the engine proposed.
    Execution {
        /// The session whose request was rejected.
        session: usize,
        /// The simulator's rejection.
        source: ExecutionError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::HyperparameterOutOfRange { field } => {
                write!(f, "engine hyperparameter `{field}` must be in [0, 1]")
            }
            ServeError::WarmStart(e) => write!(f, "warm-start agent rejected: {e}"),
            ServeError::NonFiniteWarmStart { state, action } => write!(
                f,
                "warm-start agent rejected: Q(state {state}, action {action}) is not finite"
            ),
            ServeError::NoFeasibleAction { session, source } => {
                write!(f, "session {session}: {source}")
            }
            ServeError::Execution { session, source } => {
                write!(
                    f,
                    "session {session}: simulator rejected the request: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::WarmStart(e) => Some(e),
            ServeError::HyperparameterOutOfRange { .. } | ServeError::NonFiniteWarmStart { .. } => {
                None
            }
            ServeError::NoFeasibleAction { source, .. } => Some(source),
            ServeError::Execution { source, .. } => Some(source),
        }
    }
}

impl From<ShapeMismatchError> for ServeError {
    fn from(e: ShapeMismatchError) -> Self {
        ServeError::WarmStart(e)
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Engine configuration every session starts from (each session
    /// re-derives its own `seed` field from the fleet seeding).
    pub engine: EngineConfig,
    /// Number of device sessions in the fleet.
    pub sessions: usize,
    /// Inference decisions each session serves.
    pub decisions_per_session: usize,
    /// Worker shards; `None` (or `Some(0)`) means one per hardware
    /// thread. Clamped to `available_parallelism` either way.
    pub shards: Option<usize>,
    /// Fleet base seed; session `i` runs on
    /// [`cell_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Whether to measure the wall-clock latency of every decision.
    pub record_latency: bool,
    /// Fault profile every session runs under. Each session draws its
    /// own schedule from `cell_seed(session_seed, 2)`, so faulted runs
    /// stay shard-count invariant; [`FaultProfile::none`] (the default)
    /// skips injection entirely.
    pub faults: FaultProfile,
    /// Open-loop traffic, or `None` (the default) for the classic
    /// closed-loop run. When set, `decisions_per_session` is ignored:
    /// each session serves whatever its private arrival schedule offers
    /// inside its churn window, under the configured queue bound and
    /// admission policy. The arrival and churn streams are
    /// `cell_seed(session_seed, 3)` and `cell_seed(session_seed, 4)` —
    /// disjoint from every existing stream, so `None` keeps the
    /// closed-loop output byte-identical to builds without open-loop
    /// support.
    pub openloop: Option<OpenLoopConfig>,
}

impl ServeConfig {
    /// A small default fleet: 16 sessions × 200 decisions, paper engine,
    /// all shards, latency recording off.
    pub fn fleet() -> Self {
        ServeConfig {
            engine: EngineConfig::paper(),
            sessions: 16,
            decisions_per_session: 200,
            shards: None,
            base_seed: 0xf1ee7,
            record_latency: false,
            faults: FaultProfile::none(),
            openloop: None,
        }
    }
}

/// Aggregated Q-store memory accounting for a fleet, reported beside the
/// deterministic per-session results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStoreStats {
    /// The backend every session ran on, which [`serve`] picks from the
    /// warm start: [`QStoreKind::Cow`] when the fleet is warm,
    /// [`QStoreKind::Dense`] when it is cold.
    pub qstore: QStoreKind,
    /// Sum of per-session private bytes (built table blocks, or
    /// overlays).
    pub private_bytes: u64,
    /// Bytes of the shared base table, counted once for the whole fleet
    /// (zero for a dense fleet).
    pub shared_bytes: u64,
    /// Total materialized overlay rows across the fleet (zero for a
    /// dense fleet).
    pub overlay_rows: u64,
    /// The largest single session's private bytes — the per-session
    /// worst case capacity planning needs.
    pub max_session_private_bytes: u64,
}

impl FleetStoreStats {
    /// Resident Q-storage bytes per session: the shared base amortized
    /// over the fleet plus the mean private overlay/table.
    pub fn bytes_per_session(&self, sessions: usize) -> f64 {
        if sessions == 0 {
            return 0.0;
        }
        (self.private_bytes + self.shared_bytes) as f64 / sessions as f64
    }
}

/// The outcome of a serving run: one deterministic report per session,
/// plus the (non-deterministic) decision-latency samples when
/// [`ServeConfig::record_latency`] was set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-session reports, in session order.
    pub sessions: Vec<SessionReport>,
    /// Decision latencies in nanoseconds, concatenated in session order;
    /// empty unless latency recording was on.
    pub latencies_ns: Vec<u64>,
    /// Aggregated Q-store memory accounting for the fleet. Purely
    /// observational — identical decision traces are produced whatever
    /// the backend, so this lives beside the sessions, not inside them.
    pub store: FleetStoreStats,
    /// Fleet-level open-loop traffic accounting (offered load, goodput,
    /// drops, queue-depth histogram); `None` for closed-loop runs.
    pub traffic: Option<FleetTraffic>,
}

impl ServeReport {
    /// Total decisions served across the fleet.
    pub fn total_decisions(&self) -> usize {
        self.sessions.iter().map(|s| s.decisions).sum()
    }

    /// FNV-1a digest over every session's trace digest — one number that
    /// fingerprints the whole fleet's decision history. Equal digests
    /// across shard counts is the serve determinism guarantee.
    pub fn digest(&self) -> u64 {
        self.sessions.iter().fold(session::fnv1a_start(), |h, s| {
            session::fnv1a_fold(h, s.trace_digest)
        })
    }

    /// Total requests across the fleet whose offload path suffered at
    /// least one injected fault.
    pub fn total_faulted(&self) -> usize {
        self.sessions.iter().map(|s| s.faulted_requests).sum()
    }

    /// Total backoff-then-retry cycles the fleet's resilience policies
    /// took.
    pub fn total_retries(&self) -> usize {
        self.sessions.iter().map(|s| s.retries).sum()
    }

    /// Total requests that fell back to local execution after exhausting
    /// their offload attempts.
    pub fn total_fallbacks(&self) -> usize {
        self.sessions.iter().map(|s| s.fallbacks).sum()
    }

    /// Fraction of decisions that violated their scenario's QoS.
    pub fn qos_violation_ratio(&self) -> f64 {
        let total = self.total_decisions();
        if total == 0 {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(|s| s.qos_violations)
            .sum::<usize>() as f64
            / total as f64
    }

    /// The `p`-th percentile of the recorded decision latencies, in
    /// nanoseconds (`p` in [0, 100]); `None` when none were recorded.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }
}

/// Builds the fleet's session specs: `config.sessions` sessions assigned
/// round-robin over the mix.
pub fn session_specs(mix: &ScenarioMix, config: &ServeConfig) -> Vec<SessionSpec> {
    (0..config.sessions)
        .map(|i| {
            let (workload, environment) = mix.assign(i);
            SessionSpec {
                session: i,
                workload,
                environment,
                decisions: config.decisions_per_session,
            }
        })
        .collect()
}

/// Runs the fleet: every session in `config` over the scenario `mix`,
/// sharded across worker threads, optionally warm-started from a shared
/// pre-trained agent.
///
/// What depends only on the device and `config.engine` — the action
/// space, the per-workload feasibility masks, state bases and rewards —
/// is built once, in a template engine, before the shards start; every
/// session is spawned from it ([`DeviceSession::spawn`]) and pays only
/// for its own learner. Each session then runs through
/// [`DeviceSession::run`] with the fleet's `config.openloop`: closed
/// loop when it is `None`, its arrival schedule otherwise.
///
/// The warm start picks the Q-value store. A cold fleet gives every
/// session a private random table (Algorithm 1's init, drawn from the
/// session's seed), built lazily one 64-state block at a time. A warm
/// fleet copies the agent's values once into an immutable shared base
/// and gives every session a copy-on-write overlay over it, which holds
/// only the rows the session writes; the agent itself is neither
/// modified nor built.
///
/// Session `i` is a pure function of `(specs[i], cell_seed(base_seed,
/// i))`, so the returned reports are bit-identical for any shard count;
/// only `latencies_ns` (wall-clock measurements) varies between runs.
///
/// # Errors
///
/// Returns [`ServeError::HyperparameterOutOfRange`] if
/// `config.engine.hyperparameters` holds a value outside [0, 1],
/// [`ServeError::WarmStart`] if `warm_start` was trained for a different
/// device, and [`ServeError::NonFiniteWarmStart`] if it holds a NaN or
/// infinite value — all checked once, before any session is built. The
/// per-session variants propagate decision or execution failures from a
/// session without aborting the process.
pub fn serve(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm_start: Option<&QLearningAgent>,
) -> Result<ServeReport, ServeError> {
    if let Some(field) = config.engine.hyperparameters.out_of_range() {
        return Err(ServeError::HyperparameterOutOfRange { field });
    }
    // The decision context depends only on the device and the engine
    // config: built once here, shared by every session, and the shape a
    // warm start must fit.
    let template = AutoScaleEngine::new(sim, config.engine);
    // The shared base of a warm fleet is a copy of the agent's values,
    // every block built here, before the shards start, so they never
    // race to build a shared block. The copy is what gets scanned, so
    // the caller's agent stays unbuilt.
    let warm: Option<(&QLearningAgent, Arc<QTable>)> = match warm_start {
        None => None,
        Some(agent) => {
            template.fits(agent)?;
            let base = agent.shared_base();
            base.materialize();
            if let Some((state, action)) = first_non_finite(&base) {
                return Err(ServeError::NonFiniteWarmStart { state, action });
            }
            Some((agent, base))
        }
    };
    let specs = session_specs(mix, config);
    let shards = resolve_threads(config.shards);
    let results = run_cells(shards, config.base_seed, &specs, |cell| {
        // A warm session gets the agent's values, params, policy state
        // and update count, over the shared base.
        let agent = match &warm {
            None => None,
            Some((agent, base)) => Some(agent.overlay_variant(base)?),
        };
        DeviceSession::spawn(sim, *cell.spec, &template, agent, cell.seed, config.faults)?
            .run(config.record_latency, config.openloop.as_ref())
    });
    let mut sessions = Vec::with_capacity(results.len());
    let mut latencies_ns = Vec::new();
    let mut traffics = Vec::new();
    let mut store = FleetStoreStats {
        qstore: if warm.is_some() {
            QStoreKind::Cow
        } else {
            QStoreKind::Dense
        },
        private_bytes: 0,
        shared_bytes: 0,
        overlay_rows: 0,
        max_session_private_bytes: 0,
    };
    for result in results {
        let run = result?;
        store.private_bytes += run.store.private_bytes;
        store.overlay_rows += run.store.overlay_rows;
        store.max_session_private_bytes =
            store.max_session_private_bytes.max(run.store.private_bytes);
        // Every cow session shares the same base, so it is counted once
        // for the fleet rather than summed per session.
        store.shared_bytes = store.shared_bytes.max(run.store.shared_bytes);
        sessions.push(run.report);
        latencies_ns.extend(run.latencies_ns);
        traffics.extend(run.traffic);
    }
    let traffic = config
        .openloop
        .map(|open| FleetTraffic::aggregate(&traffics, open.horizon_ms));
    Ok(ServeReport {
        sessions,
        latencies_ns,
        store,
        traffic,
    })
}

/// The first `(state, action)` of `table`, state-major, whose value is
/// NaN or infinite.
fn first_non_finite(table: &QTable) -> Option<(usize, usize)> {
    (0..table.states())
        .flat_map(|state| (0..table.actions()).map(move |action| (state, action)))
        .find(|&(state, action)| !table.get(state, action).is_finite())
}

/// The seed of session `index` under a fleet `base_seed` — exposed so
/// external drivers (benchmarks, CLIs) can reproduce a single session in
/// isolation.
pub fn session_seed(base_seed: u64, index: usize) -> u64 {
    cell_seed(base_seed, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpace;
    use crate::state::StateSpace;
    use autoscale_nn::Workload;
    use autoscale_platform::DeviceId;
    use autoscale_sim::EnvironmentId;

    fn small_config(shards: Option<usize>) -> ServeConfig {
        ServeConfig {
            sessions: 6,
            decisions_per_session: 60,
            shards,
            ..ServeConfig::fleet()
        }
    }

    #[test]
    fn sessions_get_distinct_scenarios_and_seeds() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::new(vec![
            (Workload::MobileNetV1, EnvironmentId::S1),
            (Workload::InceptionV1, EnvironmentId::S4),
        ]);
        let report = serve(&sim, &mix, &small_config(Some(1)), None).unwrap();
        assert_eq!(report.sessions.len(), 6);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.session, i);
            assert_eq!((s.workload, s.environment), mix.assign(i));
        }
        // Sessions 0 and 2 share a scenario but not a seed: their traces
        // must differ (independent exploration).
        assert_ne!(
            report.sessions[0].trace_digest,
            report.sessions[2].trace_digest
        );
        assert_ne!(session_seed(1, 0), session_seed(1, 2));
    }

    #[test]
    fn latency_recording_fills_the_buffer_without_changing_reports() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::single(Workload::MobileNetV2, EnvironmentId::S2);
        let quiet = serve(&sim, &mix, &small_config(Some(1)), None).unwrap();
        let timed = serve(
            &sim,
            &mix,
            &ServeConfig {
                record_latency: true,
                ..small_config(Some(1))
            },
            None,
        )
        .unwrap();
        assert_eq!(timed.sessions, quiet.sessions);
        assert_eq!(timed.latencies_ns.len(), timed.total_decisions());
        assert!(quiet.latencies_ns.is_empty());
        assert!(timed.latency_percentile_ns(50.0).is_some());
        assert!(
            timed.latency_percentile_ns(99.0) >= timed.latency_percentile_ns(50.0),
            "p99 >= p50"
        );
        assert_eq!(quiet.latency_percentile_ns(50.0), None);
    }

    #[test]
    fn warm_start_is_validated_once_and_shapes_behavior() {
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        // Train a donor briefly, then serve a fleet warm-started from it.
        let mut donor = AutoScaleEngine::new(&mi8, EngineConfig::paper());
        let mut rng = crate::seeded_rng(9);
        let mut env = autoscale_sim::Environment::for_id(EnvironmentId::S1);
        for _ in 0..150 {
            let snapshot = env.sample(&mut rng);
            let step = donor
                .decide(&mi8, Workload::MobileNetV1, &snapshot, &mut rng)
                .expect("feasible");
            let outcome = mi8
                .execute_measured(Workload::MobileNetV1, &step.request, &snapshot, &mut rng)
                .unwrap();
            donor.learn(&mi8, Workload::MobileNetV1, step, &outcome, &snapshot);
        }
        let mix = ScenarioMix::single(Workload::MobileNetV1, EnvironmentId::S1);
        let config = ServeConfig {
            sessions: 3,
            decisions_per_session: 40,
            ..ServeConfig::fleet()
        };
        let cold = serve(&mi8, &mix, &config, None).unwrap();
        let warm = serve(&mi8, &mix, &config, Some(donor.agent())).unwrap();
        assert_ne!(
            warm.sessions[0].trace_digest, cold.sessions[0].trace_digest,
            "a trained table changes the decision trace"
        );
        // A Moto-shaped table must be rejected before any session runs.
        let moto = Simulator::new(DeviceId::MotoXForce);
        let foreign = AutoScaleEngine::new(&moto, EngineConfig::paper());
        let err = serve(&mi8, &mix, &config, Some(foreign.agent())).unwrap_err();
        let ServeError::WarmStart(shape) = err else {
            panic!("expected a warm-start rejection, got {err}");
        };
        assert_ne!(shape.expected, shape.found);
    }

    #[test]
    fn uneven_mix_still_covers_every_session() {
        // A 3-scenario mix over 7 sessions: round-robin wraps, the first
        // scenario runs one extra session, and the fleet report still
        // carries one entry per session in index order.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::new(vec![
            (Workload::MobileNetV1, EnvironmentId::S1),
            (Workload::InceptionV1, EnvironmentId::S2),
            (Workload::MobileBert, EnvironmentId::S4),
        ]);
        let config = ServeConfig {
            sessions: 7,
            decisions_per_session: 30,
            shards: Some(2),
            ..ServeConfig::fleet()
        };
        let specs = session_specs(&mix, &config);
        assert_eq!(specs.len(), 7);
        let first = specs
            .iter()
            .filter(|s| (s.workload, s.environment) == mix.assign(0))
            .count();
        assert_eq!(first, 3, "the first scenario absorbs the remainder");
        let report = serve(&sim, &mix, &config, None).unwrap();
        assert_eq!(report.sessions.len(), 7);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.session, i);
            assert_eq!((s.workload, s.environment), mix.assign(i));
            assert_eq!(s.decisions, 30);
        }
    }

    #[test]
    fn fault_free_digests_match_the_pre_fault_injection_build() {
        // Pinned from the serving stack before fault injection existed
        // (autoscale-cli serve --device mi8pro --sessions 4 --decisions 60
        // --seed 7): the fault-free path must keep producing these exact
        // traces, or the zero-cost-default guarantee is broken.
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let config = ServeConfig {
            sessions: 4,
            decisions_per_session: 60,
            base_seed: 7,
            ..ServeConfig::fleet()
        };
        let report = serve(&sim, &mix, &config, None).unwrap();
        let digests: Vec<u64> = report.sessions.iter().map(|s| s.trace_digest).collect();
        assert_eq!(
            digests,
            [
                17847800452639538401,
                1335274894445777040,
                979505169217834271,
                1096245207193002747,
            ]
        );
    }

    fn paper_shaped_warm_agent(sim: &Simulator) -> QLearningAgent {
        QLearningAgent::with_table(
            QTable::new_random(
                StateSpace::paper().len(),
                ActionSpace::for_simulator(sim).len(),
                0xba5e,
            ),
            EngineConfig::paper().hyperparameters,
        )
    }

    #[test]
    fn the_warm_start_picks_the_store() {
        use autoscale_rl::qtable::BLOCK_ROWS;
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let (states, actions) = (
            StateSpace::paper().len(),
            ActionSpace::for_simulator(&sim).len(),
        );
        let mix = ScenarioMix::static_envs();
        // A cold session builds only the block of its workload's states
        // in its private random table.
        let cold = serve(&sim, &mix, &small_config(Some(2)), None).unwrap();
        let block = QTable::full_bytes(BLOCK_ROWS, actions) as u64;
        assert_eq!(cold.store.qstore, QStoreKind::Dense);
        assert_eq!(cold.store.shared_bytes, 0);
        assert_eq!(cold.store.overlay_rows, 0);
        assert_eq!(cold.store.max_session_private_bytes, block);
        assert_eq!(cold.store.private_bytes, 6 * block);
        let warm = paper_shaped_warm_agent(&sim);
        let cow = serve(&sim, &mix, &small_config(Some(2)), Some(&warm)).unwrap();
        // The warm fleet shares one fully built base, counted once, and
        // each overlay stays under one block of a private table.
        assert_eq!(cow.store.qstore, QStoreKind::Cow);
        assert!(cow.store.overlay_rows > 0, "sessions wrote overlay rows");
        assert_eq!(
            cow.store.shared_bytes,
            QTable::full_bytes(states, actions) as u64
        );
        assert!(
            cow.store.max_session_private_bytes < block,
            "largest overlay {} B vs one table block {block} B",
            cow.store.max_session_private_bytes
        );
        // Building the base copied the warm table without building it.
        assert_eq!(warm.store().memory_bytes(), 0);
    }

    #[test]
    fn non_finite_warm_starts_are_rejected() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut warm = paper_shaped_warm_agent(&sim);
            warm.store_mut().set(1_234, 5, poison);
            warm.store_mut().set(2_000, 0, poison);
            let built = warm.store().memory_bytes();
            let err = serve(&sim, &mix, &small_config(Some(2)), Some(&warm)).unwrap_err();
            assert_eq!(
                err,
                ServeError::NonFiniteWarmStart {
                    state: 1_234,
                    action: 5
                },
                "{poison}"
            );
            assert!(err.to_string().contains("(state 1234, action 5)"), "{err}");
            // The scan read the fleet's copy, so the agent built nothing.
            assert_eq!(warm.store().memory_bytes(), built);
        }
    }

    #[test]
    fn out_of_range_hyperparameters_are_rejected() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let warm = paper_shaped_warm_agent(&sim);
        for field in ["learning_rate", "epsilon"] {
            let mut config = small_config(Some(2));
            let params = &mut config.engine.hyperparameters;
            match field {
                "learning_rate" => params.learning_rate = 2.0,
                _ => params.epsilon = f64::NAN,
            }
            let expected = ServeError::HyperparameterOutOfRange { field };
            let err = serve(&sim, &mix, &config, None).unwrap_err();
            assert_eq!(err, expected);
            assert!(err.to_string().contains(field), "{err}");
            // A warm fleet's template is built from the same config.
            let err = serve(&sim, &mix, &config, Some(&warm)).unwrap_err();
            assert_eq!(err, expected);
        }
    }

    fn open_config(shards: Option<usize>, open: OpenLoopConfig) -> ServeConfig {
        ServeConfig {
            openloop: Some(open),
            ..small_config(shards)
        }
    }

    #[test]
    fn open_loop_fleets_churn_and_stay_conservative() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let open = OpenLoopConfig {
            arrivals: autoscale_sim::ArrivalProcess::bursty(400.0),
            churn: autoscale_sim::ChurnConfig::heavy(1_500.0),
            horizon_ms: 1_500.0,
            queue_capacity: 8,
            admission: openloop::AdmissionPolicy::Degrade,
        };
        let report = serve(&sim, &mix, &open_config(Some(2), open), None).unwrap();
        let traffic = report.traffic.as_ref().expect("open-loop sets traffic");
        assert_eq!(traffic.offered, traffic.served + traffic.dropped);
        let per_session: usize = report.sessions.iter().map(|s| s.offered_requests).sum();
        assert_eq!(per_session, traffic.offered, "fleet view sums the sessions");
        assert!(traffic.peak_queue_depth <= 8);
    }

    #[test]
    fn qos_ratio_and_totals_add_up() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let report = serve(&sim, &mix, &small_config(None), None).unwrap();
        assert_eq!(report.total_decisions(), 6 * 60);
        let ratio = report.qos_violation_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        assert!(report.sessions.iter().all(|s| s.total_energy_mj > 0.0));
    }
}
