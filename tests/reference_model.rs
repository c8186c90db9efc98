//! The reference model: Algorithm 1 of the paper, interpreted plainly
//! one session at a time, as the equivalence oracle for `serve()`.
//!
//! `serve()` runs the paper's loop through lazy Q-table blocks, an argmax
//! cache, copy-on-write overlays, a ring-buffer convergence detector and
//! a discrete-event open loop. The interpreter uses none of them:
//!
//! * an eager `Vec<f64>` Q-table, drawn state-major from the session's
//!   stream 0 or copied from the warm-start agent with its
//!   hyperparameters and ε;
//! * a brute-force masked argmax behind the pinned ε-greedy draws;
//! * a convergence check that keeps every reward;
//! * a `VecDeque` open loop following the four event rules of
//!   `autoscale::serve::openloop`.
//!
//! It executes requests through the same `Simulator::execute_measured` /
//! `execute_resilient` calls as `serve()`, then `estimate_energy_mj` and
//! `reward`; its independence lies in the four pieces above. The
//! executor's lookups are held to first principles by
//! `autoscale_sim`'s `feasibility_matches_the_layer_walk_on_every_testbed`.
//!
//! A stray draw in the code both sides share (`Environment::sample`
//! and the executor) would move both alike, so every interpreted
//! request also counts its draws from stream 1: the
//! environment's (fixed per environment and step), one ε uniform plus
//! one more when it explores, and two Box–Muller normals of measurement
//! noise. A copy of the stream, stepped by that count, must equal the
//! stream once the request has executed.

mod common;

use std::collections::VecDeque;

use autoscale::estimator::estimate_energy_mj;
use autoscale::parallel::cell_seed;
use autoscale::prelude::*;
use autoscale::reward::reward;
use autoscale_rl::{Hyperparameters, QLearningAgent, QStoreKind, QTable};
use autoscale_sim::{ArrivalSampler, ChurnWindow};
use common::{arb_fault_profile, arb_openloop};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit offset basis: an empty digest.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one `u64` into an FNV-1a digest, byte by byte.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One session of Algorithm 1, written plainly.
struct Interpreter<'a> {
    sim: &'a Simulator,
    workload: Workload,
    states: StateSpace,
    actions: ActionSpace,
    mask: Vec<bool>,
    /// Allowed actions, ascending: exploration picks the k-th.
    allowed: Vec<usize>,
    /// Q(S, A) at `q[S * actions + A]`.
    q: Vec<f64>,
    params: Hyperparameters,
    epsilon: f64,
    engine: EngineConfig,
    qos_ms: f64,
    env: Environment,
    rng: StdRng,
    injector: Option<FaultInjector>,
    resilience: ResiliencePolicy,
    /// Every reward so far, in order.
    rewards: Vec<f64>,
    reward_sum: f64,
    stable_windows: usize,
    last_level: Option<f64>,
    report: SessionReport,
}

/// Builds session `index` of the fleet on its private seed streams:
/// 0 for the random Q init, 1 for the environment and exploration, 2
/// for faults. A warm session starts from the agent's values
/// (state-major), hyperparameters and ε instead.
fn interpret_start<'a>(
    sim: &'a Simulator,
    config: &ServeConfig,
    index: usize,
    (workload, environment): (Workload, EnvironmentId),
    warm: Option<&(Vec<f64>, Hyperparameters, f64)>,
) -> Interpreter<'a> {
    let seed = cell_seed(config.base_seed, index);
    let states = StateSpace::paper();
    let actions = ActionSpace::for_simulator(sim);
    let mask = actions.mask(sim, workload);
    let allowed: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
    // Algorithm 1: "Initialize Q(S,A) as random values".
    let (q, params, epsilon) = match warm {
        Some((q, params, epsilon)) => (q.clone(), *params, *epsilon),
        None => {
            let mut init = StdRng::seed_from_u64(cell_seed(seed, 0));
            let q = (0..states.len() * actions.len())
                .map(|_| init.gen_range(-0.01..0.01))
                .collect();
            let params = config.engine.hyperparameters;
            (q, params, params.epsilon)
        }
    };
    let qos_ms = config.engine.scenario_for(workload).qos_ms();
    Interpreter {
        sim,
        workload,
        states,
        actions,
        mask,
        allowed,
        q,
        params,
        epsilon,
        engine: config.engine,
        qos_ms,
        env: Environment::for_id(environment),
        rng: StdRng::seed_from_u64(cell_seed(seed, 1)),
        injector: (!config.faults.is_none())
            .then(|| FaultInjector::new(config.faults, cell_seed(seed, 2))),
        resilience: ResiliencePolicy::for_qos(qos_ms),
        rewards: Vec::new(),
        reward_sum: 0.0,
        stable_windows: 0,
        last_level: None,
        report: SessionReport {
            session: index,
            workload,
            environment,
            decisions: 0,
            trace_digest: FNV_OFFSET,
            mean_reward: 0.0,
            qos_violations: 0,
            total_energy_mj: 0.0,
            faulted_requests: 0,
            retries: 0,
            fallbacks: 0,
            offered_requests: 0,
            dropped_requests: 0,
            degraded_requests: 0,
            deadline_violations: 0,
            peak_queue_depth: 0,
            arrival_digest: 0,
            converged_at: None,
        },
    }
}

impl Interpreter<'_> {
    /// The allowed action with the largest Q value in `state`, lowest
    /// index on ties, by scanning the whole row.
    fn masked_row_argmax(&self, state: usize) -> Option<(usize, f64)> {
        let n = self.mask.len();
        let row = &self.q[state * n..(state + 1) * n];
        let mut best: Option<(usize, f64)> = None;
        for a in (0..n).filter(|&a| self.mask[a]) {
            if best.is_none_or(|(_, v)| row[a] > v) {
                best = Some((a, row[a]));
            }
        }
        best
    }

    /// One inference of Algorithm 1: observe, select, run, reward,
    /// update, then the convergence check. `greedy` turns exploration
    /// off for this request (degrade admission) without changing what
    /// is drawn.
    fn interpret_request(&mut self, greedy: bool) -> Outcome {
        let (sim, workload) = (self.sim, self.workload);
        let (env, step) = (self.env.id(), self.env.step());
        let mut shadow = self.rng.clone();
        let snapshot = self.env.sample(&mut self.rng);
        let state = self
            .states
            .encode_observation(sim.network(workload), &snapshot);
        let epsilon = if greedy { 0.0 } else { self.epsilon };
        let explored = self.rng.gen::<f64>() < epsilon;
        let action = if explored {
            self.allowed[self.rng.gen_range(0..self.allowed.len())]
        } else {
            self.masked_row_argmax(state).expect("a feasible action").0
        };
        let report = &mut self.report;
        report.trace_digest = fnv1a(fnv1a(report.trace_digest, state as u64), action as u64);
        let request = self.actions.request(action);
        let outcome = match &mut self.injector {
            None => sim.execute_measured(workload, &request, &snapshot, &mut self.rng),
            Some(injector) => {
                let (plan, policy) = (injector.next_faults(), &self.resilience);
                sim.execute_resilient(workload, &request, &snapshot, &plan, policy, &mut self.rng)
                    .map(|resilient| {
                        report.faulted_requests += usize::from(resilient.offload_faults > 0);
                        report.retries += resilient.retries;
                        report.fallbacks += usize::from(resilient.fell_back);
                        resilient.outcome
                    })
            }
        }
        .expect("the engine proposes only feasible requests");
        // Stream 1's draws: the environment's, one ε uniform plus one
        // more to explore, and two Box–Muller normals of noise on every
        // execute path.
        let drawn = env_draws(env, step) + 1 + usize::from(explored) + 4;
        for _ in 0..drawn {
            let _: u64 = shadow.gen();
        }
        assert!(
            shadow == self.rng,
            "stream 1 drew other than {drawn} values at env step {step} in {env}"
        );
        report.qos_violations += usize::from(outcome.latency_ms > self.qos_ms);
        report.total_energy_mj += outcome.energy_mj;
        // "Measure R_latency, estimate R_energy": the phone has no meter.
        let mut rewarded = outcome;
        rewarded.energy_mj =
            estimate_energy_mj(sim, workload, &request, &snapshot, outcome.latency_ms);
        let r = reward(&self.engine.reward_for(workload), &rewarded);
        // Q(S,A) ← Q(S,A) + γ[R + µ·max Q(S',A') − Q(S,A)], with S'
        // observed from the same snapshot.
        let bootstrap = self.masked_row_argmax(state).map_or(0.0, |(_, v)| v);
        let cell = state * self.mask.len() + action;
        let target = r + self.params.discount * bootstrap;
        self.q[cell] += self.params.learning_rate * (target - self.q[cell]);
        self.reward_sum += r;
        self.rewards.push(r);
        if self.report.converged_at.is_none() && self.window_converged() {
            self.epsilon = 0.0;
            self.report.converged_at = Some(self.report.decisions);
        }
        self.report.decisions += 1;
        outcome
    }

    /// The paper's convergence rule over every reward so far: past one
    /// reward per action, each 10-reward window's median is compared with
    /// the last; three windows in a row within 10% converge.
    fn window_converged(&mut self) -> bool {
        let seen = self.rewards.len();
        if seen < self.mask.len() || !seen.is_multiple_of(10) {
            return false;
        }
        let mut window = self.rewards[seen - 10..].to_vec();
        window.sort_by(|a, b| a.partial_cmp(b).expect("finite rewards"));
        let level = (window[4] + window[5]) / 2.0;
        if let Some(prev) = self.last_level {
            let stable = (level - prev).abs() / prev.abs().max(1e-9) < 0.1;
            self.stable_windows = if stable { self.stable_windows + 1 } else { 0 };
        }
        self.last_level = Some(level);
        self.stable_windows >= 3
    }

    /// Serves a request queued at `at_ms` once the device frees up.
    fn interpret_queued(
        &mut self,
        (at_ms, degraded): (f64, bool),
        free_at_ms: &mut f64,
        traffic: &mut SessionTraffic,
    ) {
        let start_ms = free_at_ms.max(at_ms);
        let outcome = self.interpret_request(degraded);
        *free_at_ms = start_ms + outcome.latency_ms;
        traffic.busy_ms += outcome.latency_ms;
        traffic.deadline_violations += usize::from(*free_at_ms - at_ms > self.qos_ms);
        traffic.degraded += usize::from(degraded);
    }

    /// The open loop, rule by rule (arrivals from stream 3, the churn
    /// window from stream 4).
    fn interpret_open_loop(&mut self, open: &OpenLoopConfig, seed: u64) -> SessionTraffic {
        let window = ChurnWindow::draw(open.churn, cell_seed(seed, 4));
        let mut arrivals = ArrivalSampler::new(open.arrivals, cell_seed(seed, 3));
        let capacity = open.queue_capacity.max(1);
        let end_ms = window.end_ms(open.horizon_ms);
        let mut traffic = SessionTraffic {
            session: self.report.session,
            offered: 0,
            served: 0,
            dropped_full: 0,
            dropped_deadline: 0,
            dropped_churn: 0,
            degraded: 0,
            deadline_violations: 0,
            peak_queue_depth: 0,
            queue_histogram: vec![0; capacity + 1],
            busy_ms: 0.0,
            window_ms: (end_ms - window.join_ms).max(0.0),
            span_ms: 0.0,
        };
        let mut queue: VecDeque<(f64, bool)> = VecDeque::new();
        let mut arrival_digest = FNV_OFFSET;
        let mut free_at_ms = window.join_ms;
        loop {
            let arrival = arrivals.next_arrival();
            let at_ms = window.join_ms + arrival.at_ms;
            // Rule 4: nothing is offered at or past the window end.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(at_ms < end_ms) {
                break;
            }
            traffic.offered += 1;
            arrival_digest = fnv1a(fnv1a(arrival_digest, arrival.index), at_ms.to_bits());
            // Rule 1: every request that can start by now is served.
            while free_at_ms <= at_ms {
                let Some(queued) = queue.pop_front() else {
                    break;
                };
                self.interpret_queued(queued, &mut free_at_ms, &mut traffic);
            }
            // Rule 2: the depth this arrival found.
            let depth = queue.len();
            traffic.queue_histogram[depth] += 1;
            // Rule 3: a full queue drops; so may a predicted-late request
            // that finds the device busy.
            if depth >= capacity {
                traffic.dropped_full += 1;
                continue;
            }
            // The mean service time so far (zero before any completion).
            let mean_service_ms = traffic.busy_ms / self.report.decisions.max(1) as f64;
            let backlog_ms = (free_at_ms - at_ms).max(0.0);
            let late = backlog_ms + (depth + 1) as f64 * mean_service_ms > self.qos_ms;
            // An arrival that finds the device idle is never
            // deadline-dropped.
            let idle = depth == 0 && free_at_ms <= at_ms;
            let degraded = match open.admission {
                AdmissionPolicy::DropTail => false,
                AdmissionPolicy::Deadline if late && !idle => {
                    traffic.dropped_deadline += 1;
                    continue;
                }
                AdmissionPolicy::Deadline => false,
                AdmissionPolicy::Degrade => late,
            };
            queue.push_back((at_ms, degraded));
            traffic.peak_queue_depth = traffic.peak_queue_depth.max(queue.len());
        }
        // Rule 4: the window has ended.
        if window.churns_out(open.horizon_ms) && !open.churn.drain_on_leave {
            traffic.dropped_churn += queue.len();
        } else {
            while let Some(queued) = queue.pop_front() {
                self.interpret_queued(queued, &mut free_at_ms, &mut traffic);
            }
        }
        traffic.served = self.report.decisions;
        traffic.span_ms = (free_at_ms.max(end_ms) - window.join_ms).max(0.0);
        let report = &mut self.report;
        report.offered_requests = traffic.offered;
        report.dropped_requests = traffic.dropped();
        report.degraded_requests = traffic.degraded;
        report.deadline_violations = traffic.deadline_violations;
        report.peak_queue_depth = traffic.peak_queue_depth;
        report.arrival_digest = arrival_digest;
        traffic
    }
}

/// Values `Environment::sample` draws at `step`: one per uniform, two
/// per normal.
fn env_draws(env: EnvironmentId, step: u64) -> usize {
    // The music player draws two normals (CPU, memory); the web browser
    // a burst trigger, a CPU level and a memory level.
    let (music, browser) = (4, 3);
    match env {
        EnvironmentId::D1 => music,
        EnvironmentId::D2 => browser,
        // One normal: the Wi-Fi signal.
        EnvironmentId::D3 => 2,
        // The two apps alternate every 25 samples.
        EnvironmentId::D4 if (step / 25).is_multiple_of(2) => music,
        EnvironmentId::D4 => browser,
        // S1–S5: constant co-runners and signals.
        _ => 0,
    }
}

/// The interpreter's prediction for a whole fleet: every session's
/// report, and every session's traffic when the loop is open.
fn interpret_fleet(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm: Option<&QLearningAgent>,
) -> (Vec<SessionReport>, Vec<SessionTraffic>) {
    let warm = warm.map(|agent| {
        let q = agent.store();
        let values = (0..q.states()).flat_map(|s| (0..q.actions()).map(move |a| q.get(s, a)));
        (values.collect(), agent.params(), agent.policy().epsilon())
    });
    let mut reports = Vec::new();
    let mut traffic = Vec::new();
    for index in 0..config.sessions {
        let mut session = interpret_start(sim, config, index, mix.assign(index), warm.as_ref());
        match &config.openloop {
            None => {
                for _ in 0..config.decisions_per_session {
                    session.interpret_request(false);
                }
            }
            Some(open) => {
                let seed = cell_seed(config.base_seed, index);
                traffic.push(session.interpret_open_loop(open, seed));
            }
        }
        // An empty session's mean reward is zero.
        session.report.mean_reward = session.reward_sum / session.report.decisions.max(1) as f64;
        reports.push(session.report);
    }
    (reports, traffic)
}

/// Serves the fleet and asserts that `serve()` returned exactly what
/// the interpreter predicts. Returns the prediction.
fn check_fleet(
    device: DeviceId,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm: Option<&QLearningAgent>,
) -> (Vec<SessionReport>, Vec<SessionTraffic>) {
    let sim = Simulator::new(device);
    let served = serve(&sim, mix, config, warm).expect("the fleet serves");
    let (sessions, traffic) = interpret_fleet(&sim, mix, config, warm);
    assert_eq!(served.sessions.len(), sessions.len());
    for (got, want) in served.sessions.iter().zip(&sessions) {
        assert_eq!(got, want, "{device:?} {config:?}");
    }
    let fleet_traffic = config
        .openloop
        .map(|open| FleetTraffic::aggregate(&traffic, open.horizon_ms));
    assert_eq!(served.traffic, fleet_traffic, "{device:?} {config:?}");
    let store = warm.map_or(QStoreKind::Dense, |_| QStoreKind::Cow);
    assert_eq!(served.store.qstore, store);
    // One latency sample per decision when recording, none otherwise.
    let samples = usize::from(config.record_latency) * served.total_decisions();
    assert_eq!(served.latencies_ns.len(), samples);
    (sessions, traffic)
}

/// Every model once, beside the static environments in turn.
fn one_per_model() -> ScenarioMix {
    ScenarioMix::new(
        Workload::ALL
            .iter()
            .zip(EnvironmentId::STATIC.iter().cycle())
            .map(|(&model, &env)| (model, env))
            .collect(),
    )
}

/// A fleet of `sessions` × `decisions` at the default seed.
fn fleet(sessions: usize, decisions: usize) -> ServeConfig {
    ServeConfig {
        sessions,
        decisions_per_session: decisions,
        ..ServeConfig::fleet()
    }
}

#[test]
fn steady_sessions_match_the_reference_past_convergence() {
    let (sessions, _) = check_fleet(DeviceId::Mi8Pro, &one_per_model(), &fleet(10, 5_000), None);
    assert!(sessions.iter().all(|s| s.converged_at.is_some()));
}

#[test]
fn short_sessions_match_the_reference() {
    let mix = ScenarioMix::static_envs();
    let (sessions, _) = check_fleet(DeviceId::Mi8Pro, &mix, &fleet(10, 200), None);
    assert!(sessions.iter().any(|s| s.converged_at.is_some()));
}

#[test]
fn chaos_fleets_match_the_reference() {
    let config = ServeConfig {
        faults: FaultProfile::chaos(),
        ..fleet(18, 250)
    };
    let (sessions, _) = check_fleet(DeviceId::Mi8Pro, &ScenarioMix::all_envs(), &config, None);
    assert!(sessions.iter().map(|s| s.retries).sum::<usize>() > 0);
}

#[test]
fn dynamic_fault_free_fleets_match_the_reference() {
    // The D1–D4 snapshots change from request to request, so a session
    // may reuse a request's price only while its action and snapshot
    // hold; the chaos fleets above price every request afresh.
    let mix = ScenarioMix::all_envs();
    let (sessions, _) = check_fleet(DeviceId::Mi8Pro, &mix, &fleet(18, 250), None);
    let dynamic = |s: &&SessionReport| !EnvironmentId::STATIC.contains(&s.environment);
    assert!(sessions.iter().filter(dynamic).count() >= 8);
}

#[test]
fn overloaded_degrade_fleets_match_the_reference() {
    let config = ServeConfig {
        openloop: Some(OpenLoopConfig {
            arrivals: ArrivalProcess::bursty(400.0),
            churn: ChurnConfig::none(),
            horizon_ms: 15_000.0,
            queue_capacity: 16,
            admission: AdmissionPolicy::Degrade,
        }),
        ..fleet(10, 0)
    };
    let (sessions, _) = check_fleet(DeviceId::Mi8Pro, &one_per_model(), &config, None);
    assert!(sessions.iter().map(|s| s.degraded_requests).sum::<usize>() > 0);
}

#[test]
fn deadline_admission_fleets_match_the_reference() {
    // A cold fleet: a session whose first requests run past the QoS
    // still serves every arrival that finds its device idle.
    let config = ServeConfig {
        openloop: Some(OpenLoopConfig {
            admission: AdmissionPolicy::Deadline,
            ..OpenLoopConfig::poisson(100.0, 5_000.0)
        }),
        ..fleet(10, 0)
    };
    let (_, traffic) = check_fleet(DeviceId::Mi8Pro, &one_per_model(), &config, None);
    assert!(traffic.iter().map(|t| t.dropped_deadline).sum::<usize>() > 0);
    assert!(traffic.iter().map(|t| t.served).sum::<usize>() > 500);
}

/// A mix: the five static environments, all ninety scenarios, or one
/// scenario for every session.
fn arb_mix() -> impl Strategy<Value = ScenarioMix> {
    (
        0u8..3,
        prop::sample::select(Workload::ALL.to_vec()),
        prop::sample::select(EnvironmentId::ALL.to_vec()),
    )
        .prop_map(|(kind, workload, env)| match kind {
            0 => ScenarioMix::static_envs(),
            1 => ScenarioMix::all_envs(),
            _ => ScenarioMix::single(workload, env),
        })
}

/// A warm-start agent for `sim`'s device: none (`kind` 0), a random
/// table under the paper's hyperparameters (1), or a frozen agent with
/// hyperparameters of its own (2).
fn warm_agent(sim: &Simulator, kind: u8, table_seed: u64) -> Option<QLearningAgent> {
    let actions = ActionSpace::for_simulator(sim).len();
    let table = QTable::new_random(StateSpace::paper().len(), actions, table_seed);
    let params = match kind {
        2 => Hyperparameters {
            learning_rate: 0.5,
            discount: 0.3,
            epsilon: 0.2,
        },
        _ => Hyperparameters::paper(),
    };
    let mut agent = QLearningAgent::with_table(table, params);
    if kind == 2 {
        agent.freeze();
    }
    (kind > 0).then_some(agent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For any phone, mix, seed, fleet size, fault profile, open-loop
    /// configuration, warm start, latency recording and shard count,
    /// `serve()` returns exactly the interpreter's reports and traffic.
    #[test]
    fn serve_matches_the_reference_model(
        device in prop::sample::select(DeviceId::PHONES.to_vec()),
        mix in arb_mix(),
        (base_seed, sessions, decisions) in (any::<u64>(), 1usize..=6, 0usize..=150),
        faults in (any::<bool>(), arb_fault_profile())
            .prop_map(|(calm, p)| if calm { FaultProfile::none() } else { p }),
        openloop in (any::<bool>(), arb_openloop()).prop_map(|(open, o)| open.then_some(o)),
        (warm, table_seed) in (0u8..3, any::<u64>()),
        record_latency in any::<bool>(),
        shards in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let config = ServeConfig {
            sessions,
            decisions_per_session: decisions,
            shards: Some(shards),
            base_seed,
            record_latency,
            faults,
            openloop,
            ..ServeConfig::fleet()
        };
        let warm = warm_agent(&Simulator::new(device), warm, table_seed);
        check_fleet(device, &mix, &config, warm.as_ref());
    }
}
