//! The benchmark's four workloads, each one serving fleet on one shard.
//!
//! A workload sets only the fleet's size, seed, fault profile and
//! open-loop traffic; the engine, kernel and Q-store stay at the
//! [`ServeConfig::fleet`] defaults, so a change to a serving default is
//! measured rather than bypassed.
//!
//! Each fleet is sized so that one `serve()` call takes 0.07–0.35 s on
//! the reference machine: a run repeats the call for its whole time
//! budget and keeps the fastest, and short calls let it step over the
//! bursts in which another tenant slows the shared core.

use autoscale::prelude::{
    AdmissionPolicy, ArrivalProcess, ChurnConfig, EnvironmentId, FaultProfile, OpenLoopConfig,
    ScenarioMix, ServeConfig, Workload as Model,
};

/// The fleet seed a run uses unless `--seed` says otherwise; the pinned
/// digests hold at this seed.
pub const DEFAULT_SEED: u64 = 0xf1ee7;

/// `--smoke` runs every workload at this fraction of its size.
pub const SMOKE_DIVISOR: usize = 100;

/// Sessions the empty-schedule pass builds to time session setup.
const SETUP_SESSIONS: usize = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long closed-loop sessions: the per-decision step, past convergence.
    Steady,
    /// Many short closed-loop sessions: session construction and the
    /// learning phase.
    ShortSessions,
    /// Every scenario under the chaos fault profile, static and dynamic
    /// environments: the faulted execute path.
    Chaos,
    /// Bursty open-loop overload: arrival sampling, queueing and
    /// admission.
    Overload,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::ShortSessions,
        Workload::Chaos,
        Workload::Overload,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::ShortSessions => "short_sessions",
            Workload::Chaos => "chaos",
            Workload::Overload => "overload",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios the fleet's sessions are assigned round-robin.
    pub fn mix(self) -> ScenarioMix {
        match self {
            Workload::ShortSessions => ScenarioMix::static_envs(),
            Workload::Chaos => ScenarioMix::all_envs(),
            Workload::Steady | Workload::Overload => one_per_model(&EnvironmentId::STATIC),
        }
    }

    /// The workload's fleet at `1/divisor` of its measured size: fewer
    /// decisions per session for `steady` and `chaos`, fewer sessions
    /// for `short_sessions`, a shorter horizon for `overload`.
    pub fn config(self, seed: u64, divisor: usize) -> ServeConfig {
        let fleet = ServeConfig {
            shards: Some(1),
            base_seed: seed,
            ..ServeConfig::fleet()
        };
        match self {
            Workload::Steady => ServeConfig {
                sessions: 10,
                decisions_per_session: 50_000 / divisor,
                ..fleet
            },
            Workload::ShortSessions => ServeConfig {
                sessions: (100 / divisor).max(1),
                decisions_per_session: 200,
                ..fleet
            },
            // Every one of the 90 scenarios twice: under faults, which
            // action a session's Q-learner freezes on is up to the seed,
            // and energy per inference moved 8.7% between seeds with ten
            // long sessions against 1.1% with these 180 shorter ones.
            Workload::Chaos => ServeConfig {
                sessions: 180,
                decisions_per_session: 2_500 / divisor,
                faults: FaultProfile::chaos(),
                ..fleet
            },
            Workload::Overload => {
                let horizon_ms = 300_000.0 / divisor as f64;
                ServeConfig {
                    sessions: 10,
                    openloop: Some(OpenLoopConfig {
                        arrivals: ArrivalProcess::bursty(400.0),
                        // Without churn every session is present for the
                        // whole horizon. Under heavy churn, which of the ten
                        // models stay longest is up to the seed, and that
                        // moved decisions/s by 23% and energy per
                        // inference by 37% between seeds.
                        churn: ChurnConfig::none(),
                        horizon_ms,
                        queue_capacity: 16,
                        admission: AdmissionPolicy::Degrade,
                    }),
                    ..fleet
                }
            }
        }
    }

    /// The fleet digest `serve()` must return at [`DEFAULT_SEED`] and
    /// `1/divisor` size, pinned for the full size and [`SMOKE_DIVISOR`].
    pub fn pinned_digest(self, divisor: usize) -> Option<u64> {
        let (full, smoke) = match self {
            Workload::Steady => (0xc88f_1299_d0e5_e30e, 0x3ba7_c840_5998_f16c),
            Workload::ShortSessions => (0x5fd9_7354_0b13_8e64, 0x910b_d2c2_e004_34b3),
            Workload::Chaos => (0xdf5e_0ad1_b805_0add, 0xfb87_26d9_ddf1_f960),
            Workload::Overload => (0xa01b_3c5f_858b_da54, 0x8200_0319_c9c8_e7ad),
        };
        match divisor {
            1 => Some(full),
            SMOKE_DIVISOR => Some(smoke),
            _ => None,
        }
    }
}

/// Every model once, beside the environments `envs` in turn: ten
/// scenarios that cover all ten models and every environment, so a
/// ten-session fleet is as varied as the paper's grids.
fn one_per_model(envs: &[EnvironmentId]) -> ScenarioMix {
    ScenarioMix::new(
        Model::ALL
            .iter()
            .zip(envs.iter().cycle())
            .map(|(&model, &env)| (model, env))
            .collect(),
    )
}

/// `config` with an empty schedule (no decisions, or a zero horizon)
/// over at most [`SETUP_SESSIONS`] sessions: what `serve()` costs before
/// the first decision.
pub fn empty_schedule(config: &ServeConfig) -> ServeConfig {
    ServeConfig {
        sessions: config.sessions.min(SETUP_SESSIONS),
        decisions_per_session: 0,
        openloop: config.openloop.map(|open| OpenLoopConfig {
            horizon_ms: 0.0,
            ..open
        }),
        ..*config
    }
}
