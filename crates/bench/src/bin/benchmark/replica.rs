//! The traced replica of a serving session, built only from public calls.
//!
//! `serve()` runs each closed-loop session through
//! `DeviceSession::run_inner`, which reads no clock. The replica repeats
//! that loop call for call, on the same seed streams, and reads the
//! clock between the calls, so each layer gets its own span. It folds
//! the same FNV-1a digest of every (state, action) pair; a session whose
//! digest differs from the one `serve()` returned means the replica
//! timed a different program, and the run fails.
//!
//! The open loop (`serve::openloop::drive`) is private and has no
//! replica: an open-loop fleet is traced through its closed-loop twin
//! (see `measure.rs`).
//!
//! The replica mirrors the default serving configuration: the scalar
//! kernel (every kernel is digest-identical to it) and a dense Q-store
//! with a cold start.

use std::ops::Range;

use autoscale::engine::{AutoScaleEngine, EngineConfig};
use autoscale::parallel::cell_seed;
use autoscale::prelude::{
    Environment, FaultInjector, ResiliencePolicy, ScenarioMix, ServeConfig, SessionReport,
    SessionSpec, Simulator,
};
use autoscale::seeded_rng;
use autoscale::serve::{session_seed, session_specs};
use autoscale_rl::ScalarKernel;
use autoscale_sim::PreparedExecutor;
use rand::rngs::StdRng;

use crate::trace::{Layer, Tracer};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into an FNV-1a digest, byte by byte, as `serve()`
/// does.
fn fnv1a_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// What the replica observed of one session: the fields it must share
/// with the session's [`SessionReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed {
    pub session: usize,
    pub decisions: usize,
    pub trace_digest: u64,
    pub converged_at: Option<usize>,
}

impl Replayed {
    /// The same fields, read from the report `serve()` returned.
    pub fn of_report(report: &SessionReport) -> Self {
        Replayed {
            session: report.session,
            decisions: report.decisions,
            trace_digest: report.trace_digest,
            converged_at: report.converged_at,
        }
    }
}

/// Replays sessions `range` of the closed-loop fleet
/// `serve(sim, mix, config, None)` runs, recording every layer's spans
/// into `tracer`.
///
/// # Errors
///
/// Returns a description of the first decide or execute failure;
/// `serve()` would have failed on the same session. An open-loop
/// `config` is an error: the open loop has no replica.
pub fn replay(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    range: Range<usize>,
    tracer: &mut Tracer,
) -> Result<Vec<Replayed>, String> {
    if config.openloop.is_some() {
        return Err("the open loop has no replica".to_string());
    }
    let specs = session_specs(mix, config);
    specs[range]
        .iter()
        .map(|spec| {
            tracer.begin_session(spec.session);
            let seed = session_seed(config.base_seed, spec.session);
            let mut session = Session::new(sim, *spec, config, seed, tracer);
            for i in 0..spec.decisions {
                session.replay_request(i, tracer)?;
            }
            Ok(Replayed {
                session: spec.session,
                decisions: spec.decisions,
                trace_digest: session.digest,
                converged_at: session.frozen_at,
            })
        })
        .collect()
}

/// One session's state, as `DeviceSession` holds it.
struct Session<'a> {
    spec: SessionSpec,
    engine: AutoScaleEngine,
    env: Environment,
    rng: StdRng,
    injector: Option<FaultInjector>,
    resilience: ResiliencePolicy,
    prepared: PreparedExecutor<'a>,
    digest: u64,
    frozen_at: Option<usize>,
}

impl<'a> Session<'a> {
    /// `DeviceSession::with_faults` followed by `Simulator::prepare`,
    /// on the session's seed streams 0 (engine), 1 (environment and
    /// exploration) and 2 (faults).
    fn new(
        sim: &'a Simulator,
        spec: SessionSpec,
        config: &ServeConfig,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Self {
        let engine = AutoScaleEngine::new(
            sim,
            EngineConfig {
                seed: cell_seed(seed, 0),
                ..config.engine
            },
        );
        let env = Environment::for_id(spec.environment);
        let rng = seeded_rng(cell_seed(seed, 1));
        let injector = (!config.faults.is_none())
            .then(|| FaultInjector::new(config.faults, cell_seed(seed, 2)));
        let resilience =
            ResiliencePolicy::for_qos(config.engine.scenario_for(spec.workload).qos_ms());
        tracer.lap(Layer::SessionSetup);
        let prepared = sim.prepare(spec.workload);
        tracer.lap(Layer::Prepare);
        Session {
            spec,
            engine,
            env,
            rng,
            injector,
            resilience,
            prepared,
            digest: FNV_OFFSET,
            frozen_at: None,
        }
    }

    /// One request: sample → decide → execute → learn → convergence
    /// check, in `run_inner`'s call order. `index` is the session's
    /// decision index.
    fn replay_request(&mut self, index: usize, tracer: &mut Tracer) -> Result<(), String> {
        tracer.begin_step(index);
        let workload = self.spec.workload;
        let snapshot = self.env.sample(&mut self.rng);
        tracer.lap(Layer::EnvSample);
        let decided = self
            .engine
            .decide_kernel(&ScalarKernel, workload, &snapshot, &mut self.rng);
        tracer.lap(Layer::Decide);
        let step = decided.map_err(|e| format!("session {}: {e}", self.spec.session))?;
        let executed = match &mut self.injector {
            None => self
                .prepared
                .execute_measured(&step.request, &snapshot, &mut self.rng),
            Some(injector) => {
                let plan = injector.next_faults();
                tracer.lap(Layer::FaultDraw);
                self.prepared
                    .execute_resilient(
                        &step.request,
                        &snapshot,
                        &plan,
                        &self.resilience,
                        &mut self.rng,
                    )
                    .map(|resilient| resilient.outcome)
            }
        };
        tracer.lap(Layer::Execute);
        let outcome = executed.map_err(|e| format!("session {}: {e}", self.spec.session))?;
        self.digest = fnv1a_fold(self.digest, step.state_index as u64);
        self.digest = fnv1a_fold(self.digest, step.action_index as u64);
        tracer.lap(Layer::Bookkeeping);
        self.engine.learn(
            self.prepared.simulator(),
            workload,
            step,
            &outcome,
            &snapshot,
        );
        tracer.lap(Layer::Learn);
        if self.frozen_at.is_none() && self.engine.is_converged() {
            self.engine.freeze();
            self.frozen_at = Some(index);
        }
        tracer.lap(Layer::ConvergeCheck);
        tracer.end_step();
        Ok(())
    }
}
