//! Property-based tests over the substrate invariants, spanning crates.

mod common;
mod dense_fleet;

use autoscale::experiment;
use autoscale::parallel::{cell_seed, run_cells};
use autoscale::prelude::*;
use autoscale::scheduler::AutoScaleScheduler;
use autoscale::state::State;
use autoscale_net::Rssi;
use autoscale_rl::{
    EpsilonGreedy, Hyperparameters, MaskSet, QLearningAgent, QStore, QStoreKind, QTable,
};
use autoscale_sim::{ArrivalSampler, ChurnWindow};
use common::{arb_fault_profile, arb_openloop};
use dense_fleet::dense_warm_fleet;
use proptest::prelude::*;

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        0.0..=1.0f64,
        0.0..=1.0f64,
        -95.0..=-40.0f64,
        -95.0..=-40.0f64,
    )
        .prop_map(|(cpu, mem, wlan, p2p)| Snapshot::new(cpu, mem, Rssi::new(wlan), Rssi::new(p2p)))
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop::sample::select(Workload::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every feasible request yields a physically sane outcome under any
    /// runtime variance.
    #[test]
    fn outcomes_are_physical(snapshot in arb_snapshot(), w in arb_workload(), action in 0usize..66) {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let space = ActionSpace::for_simulator(&sim);
        let request = space.request(action % space.len());
        if let Ok(o) = sim.execute_expected(w, &request, &snapshot) {
            prop_assert!(o.latency_ms.is_finite() && o.latency_ms > 0.0);
            prop_assert!(o.energy_mj.is_finite() && o.energy_mj > 0.0);
            prop_assert!((0.0..=100.0).contains(&o.accuracy));
        }
    }

    /// More interference never makes an on-device inference faster or
    /// cheaper.
    #[test]
    fn interference_is_monotone(w in arb_workload(), cpu in 0.0..=1.0f64, mem in 0.0..=1.0f64) {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let calm = Snapshot::calm();
        let loaded = Snapshot::new(cpu, mem, calm.wlan, calm.p2p);
        let request = Request::at_max_frequency(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let base = sim.execute_expected(w, &request, &calm).expect("feasible");
        let under = sim.execute_expected(w, &request, &loaded).expect("feasible");
        prop_assert!(under.latency_ms >= base.latency_ms - 1e-9);
        prop_assert!(under.energy_mj >= base.energy_mj - 1e-9);
    }

    /// A weaker WLAN signal never makes a cloud inference faster or
    /// cheaper.
    #[test]
    fn signal_is_monotone_for_cloud(w in arb_workload(), a in -95.0..=-40.0f64, b in -95.0..=-40.0f64) {
        let (strong, weak) = if a >= b { (a, b) } else { (b, a) };
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let calm = Snapshot::calm();
        let request = Request::at_max_frequency(
            &sim,
            Placement::Cloud(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let s = Snapshot::new(0.0, 0.0, Rssi::new(strong), calm.p2p);
        let wk = Snapshot::new(0.0, 0.0, Rssi::new(weak), calm.p2p);
        let so = sim.execute_expected(w, &request, &s).expect("feasible");
        let wo = sim.execute_expected(w, &request, &wk).expect("feasible");
        prop_assert!(wo.latency_ms >= so.latency_ms - 1e-9);
        prop_assert!(wo.energy_mj >= so.energy_mj - 1e-9);
    }

    /// State encoding is total and in range for every observable input.
    #[test]
    fn state_encoding_is_in_range(snapshot in arb_snapshot(), w in arb_workload()) {
        let space = StateSpace::paper();
        let sim = Simulator::new(DeviceId::GalaxyS10e);
        let idx = space.encode_observation(sim.network(w), &snapshot);
        prop_assert!(idx < space.len());
    }

    /// Encoding distinct bucket combinations never collides.
    #[test]
    fn state_encoding_is_injective(
        a in (0usize..4, 0usize..2, 0usize..2, 0usize..3, 0usize..4, 0usize..4, 0usize..2, 0usize..2),
        b in (0usize..4, 0usize..2, 0usize..2, 0usize..3, 0usize..4, 0usize..4, 0usize..2, 0usize..2),
    ) {
        let mk = |(conv, fc, rc, mac, co_cpu, co_mem, rssi_wlan, rssi_p2p)| State {
            conv, fc, rc, mac, co_cpu, co_mem, rssi_wlan, rssi_p2p,
        };
        let space = StateSpace::paper();
        let (sa, sb) = (mk(a), mk(b));
        if sa != sb {
            prop_assert_ne!(space.encode(&sa), space.encode(&sb));
        } else {
            prop_assert_eq!(space.encode(&sa), space.encode(&sb));
        }
    }

    /// The Q update is a contraction toward the target: after updating
    /// (s, a) with reward r, the new value lies between the old value and
    /// the bootstrapped target.
    #[test]
    fn q_update_moves_toward_target(
        old in -1000.0..1000.0f64,
        reward in -1000.0..1000.0f64,
        bootstrap in -1000.0..1000.0f64,
        lr in 0.01..=1.0f64,
        discount in 0.0..=1.0f64,
    ) {
        let mut q = QTable::new_zeroed(2, 1);
        q.set(0, 0, old);
        q.set(1, 0, bootstrap);
        let params = Hyperparameters { learning_rate: lr, discount, epsilon: 0.0 };
        let mut agent = QLearningAgent::with_table(q, params);
        agent.update(0, 0, reward, 1, &[true]);
        let target = reward + discount * bootstrap;
        let new = agent.store().get(0, 0);
        let lo = old.min(target) - 1e-9;
        let hi = old.max(target) + 1e-9;
        prop_assert!(new >= lo && new <= hi, "new={new} not between {old} and {target}");
    }

    /// The eq. (5) reward strictly prefers lower energy among outcomes
    /// that meet both constraints.
    #[test]
    fn reward_prefers_lower_energy(
        e1 in 1.0..5000.0f64,
        e2 in 1.0..5000.0f64,
        lat in 1.0..49.0f64,
    ) {
        prop_assume!((e1 - e2).abs() > 1e-6);
        let cfg = autoscale::reward::RewardConfig::paper(50.0, Some(50.0));
        let mk = |e| Outcome { latency_ms: lat, energy_mj: e, accuracy: 70.0 };
        let (cheap, costly) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(
            autoscale::reward::reward(&cfg, &mk(cheap))
                > autoscale::reward::reward(&cfg, &mk(costly))
        );
    }

    /// Epsilon-greedy never selects a masked action, for any mask with at
    /// least one allowed entry.
    #[test]
    fn policy_respects_masks(mask in prop::collection::vec(any::<bool>(), 5), seed in any::<u64>()) {
        prop_assume!(mask.iter().any(|&m| m));
        let q = QStore::Dense(QTable::new_random(1, 5, seed));
        let policy = EpsilonGreedy::new(0.5);
        let mask_set = MaskSet::from_bools(&mask);
        let mut rng = autoscale::seeded_rng(seed);
        for _ in 0..20 {
            let a = policy.choose(&q, 0, &mask_set, &mut rng).expect("mask non-empty");
            prop_assert!(mask[a]);
        }
    }

    /// DBSCAN discretizers map every input to a valid bucket.
    #[test]
    fn discretizer_buckets_are_total(
        samples in prop::collection::vec(0.0..1000.0f64, 1..60),
        probe in -100.0..2000.0f64,
    ) {
        let db = autoscale_rl::Dbscan::new(10.0, 1);
        let d = db.discretizer(&samples);
        prop_assert!(d.bucket(probe) < d.buckets());
    }
}

/// A Q-store with the given row-major logical values: a dense table, or
/// a copy-on-write overlay over a base holding them, with the last
/// state's row rewritten so it reads from the overlay while the others
/// read through to the base.
fn store_from(states: usize, actions: usize, values: &[f64], cow: bool) -> QStore {
    let mut table = QTable::new_zeroed(states, actions);
    for s in 0..states {
        for a in 0..actions {
            table.set(s, a, values[s * actions + a]);
        }
    }
    if !cow {
        return QStore::Dense(table);
    }
    let mut q = QStore::cow(std::sync::Arc::new(table));
    let last = states - 1;
    for a in 0..actions {
        q.set(last, a, values[last * actions + a]);
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `EpsilonGreedy::choose` is the one ε-greedy body every decision
    /// runs through, and session digests pin its RNG draws. Checked
    /// against a shadow generator over arbitrary rows (exact ties from a
    /// three-value alphabet included), masks (all-masked included), the
    /// paper's ε range and both storage backends:
    /// * an empty mask returns `None` and draws nothing;
    /// * otherwise exactly one uniform `f64` decides the arm;
    /// * below ε, one bounded draw `k` picks the `k`-th allowed action;
    /// * otherwise the pick is the lowest-index allowed maximum, found by
    ///   brute-force scan, and nothing more is drawn.
    #[test]
    fn epsilon_greedy_follows_the_draw_protocol(
        values in (
            prop::collection::vec(prop::sample::select(vec![-1.0f64, 0.0, 1.0]), 2 * 66),
            prop::collection::vec(-100.0..100.0f64, 2 * 66),
            any::<bool>(),
        )
            .prop_map(|(tied, spread, ties)| if ties { tied } else { spread }),
        mask in (prop::collection::vec(any::<bool>(), 66), 0u8..4)
            .prop_map(|(mask, k)| if k == 0 { vec![false; 66] } else { mask }),
        epsilon in prop::sample::select(vec![0.0, 0.1, 0.5, 1.0]),
        cow in any::<bool>(),
        seed in any::<u64>(),
        state in 0usize..2,
    ) {
        use rand::Rng;
        let q = store_from(2, 66, &values, cow);
        let mask_set = MaskSet::from_bools(&mask);
        let mut rng = autoscale::seeded_rng(seed);
        let picked = EpsilonGreedy::new(epsilon).choose(&q, state, &mask_set, &mut rng);
        let mut shadow = autoscale::seeded_rng(seed);
        let allowed: Vec<usize> = (0..66).filter(|&a| mask[a]).collect();
        let expected = if allowed.is_empty() {
            None
        } else if shadow.gen::<f64>() < epsilon {
            Some(allowed[shadow.gen_range(0..allowed.len())])
        } else {
            let row = &values[state * 66..(state + 1) * 66];
            allowed.iter().copied().reduce(|best, a| if row[a] > row[best] { a } else { best })
        };
        prop_assert_eq!(picked, expected);
        prop_assert!(rng == shadow, "choose drew differently from the protocol");
    }
}

/// A closed-loop fleet of 4 sessions, 40 decisions each.
fn small_fleet(profile: FaultProfile, seed: u64, shards: usize) -> ServeConfig {
    ServeConfig {
        sessions: 4,
        decisions_per_session: 40,
        shards: Some(shards),
        base_seed: seed,
        faults: profile,
        ..ServeConfig::fleet()
    }
}

/// A faulted serving run over a 4-session fleet.
fn faulted_serve(profile: FaultProfile, seed: u64, shards: usize) -> ServeReport {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let config = small_fleet(profile, seed, shards);
    serve(&sim, &ScenarioMix::static_envs(), &config, None).expect("faulted fleets never error")
}

/// A paper-shaped agent with random Q-values, used as a common warm
/// start so dense and copy-on-write fleets can be compared bit-for-bit.
fn warm_paper_agent(table_seed: u64) -> QLearningAgent {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    QLearningAgent::with_table(
        QTable::new_random(
            StateSpace::paper().len(),
            ActionSpace::for_simulator(&sim).len(),
            table_seed,
        ),
        Hyperparameters::paper(),
    )
}

/// [`faulted_serve`] warm-started from `warm`, on the given Q-store:
/// `Cow` is the fleet `serve()` runs, `Dense` gives every session a
/// private clone of `warm` instead.
fn warm_serve(
    qstore: QStoreKind,
    profile: FaultProfile,
    seed: u64,
    shards: usize,
    warm: &QLearningAgent,
) -> ServeReport {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mix = ScenarioMix::static_envs();
    let config = small_fleet(profile, seed, shards);
    match qstore {
        QStoreKind::Dense => dense_warm_fleet(&sim, &mix, &config, warm),
        QStoreKind::Cow => serve(&sim, &mix, &config, Some(warm)).expect("warm fleets never error"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fleet memory: for any fault profile, warm start, and seed, a
    /// copy-on-write fleet sharing one base table reproduces the dense
    /// fleet byte for byte at every shard count.
    #[test]
    fn cow_fleets_reproduce_dense_fleets_exactly(
        profile in (any::<bool>(), arb_fault_profile()).prop_map(|(calm, p)| {
            if calm { FaultProfile::none() } else { p }
        }),
        seed in any::<u64>(),
        table_seed in any::<u64>(),
    ) {
        let warm = warm_paper_agent(table_seed);
        let dense = warm_serve(QStoreKind::Dense, profile, seed, 1, &warm);
        for shards in [1usize, 4, 8] {
            let cow = warm_serve(QStoreKind::Cow, profile, seed, shards, &warm);
            prop_assert_eq!(&cow.sessions, &dense.sessions);
            prop_assert_eq!(cow.digest(), dense.digest());
            prop_assert!(cow.store.overlay_rows > 0);
        }
    }

    /// Chaos: under any fault profile and seed, serve() completes without
    /// error, its counters are internally consistent, and its reports are
    /// bit-identical across shard counts.
    #[test]
    fn serve_survives_arbitrary_fault_profiles(
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let reference = faulted_serve(profile, seed, 1);
        for s in &reference.sessions {
            prop_assert!(s.fallbacks <= s.faulted_requests, "a fallback implies a fault");
            prop_assert!(s.faulted_requests <= s.decisions);
            // The policy takes at most max_retries backoff cycles per request.
            let policy = ResiliencePolicy::for_qos(50.0);
            prop_assert!(s.retries <= policy.max_retries * s.decisions);
            prop_assert!(s.mean_reward.is_finite());
            prop_assert!(s.total_energy_mj.is_finite() && s.total_energy_mj > 0.0);
            prop_assert!(s.qos_violations <= s.decisions);
        }
        for shards in [2usize, 4, 8] {
            let sharded = faulted_serve(profile, seed, shards);
            prop_assert_eq!(&sharded.sessions, &reference.sessions);
        }
    }

    /// The injector draws a fixed number of values per request, so its
    /// schedule for request i depends only on (profile, seed, i) — the
    /// plans of a prefix never change when more requests are planned.
    #[test]
    fn fault_schedules_are_prefix_stable(
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let mut short = FaultInjector::new(profile, seed);
        let mut long = FaultInjector::new(profile, seed);
        let a: Vec<String> = (0..10).map(|_| short.next_faults().to_string()).collect();
        let b: Vec<String> = (0..40).map(|_| long.next_faults().to_string()).collect();
        prop_assert_eq!(&a[..], &b[..10]);
    }

    /// Prefix stability survives execution: driving
    /// `Simulator::execute_resilient` with the plans of a 10-request
    /// schedule produces the same outcomes — and consumes the same
    /// session-RNG draws — as driving it with the first 10 plans of a
    /// 40-request schedule. Execution must not change when fault plans
    /// are drawn or how they are applied.
    #[test]
    fn resilient_execution_is_prefix_stable(
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let workload = Workload::MobileNetV1;
        let request = Request::at_max_frequency(
            &sim,
            Placement::Cloud(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let policy = ResiliencePolicy::for_qos(50.0);
        let snapshot = Snapshot::calm();
        let mut short = FaultInjector::new(profile, seed);
        let mut long = FaultInjector::new(profile, seed);
        let long_plans: Vec<_> = (0..40).map(|_| long.next_faults()).collect();
        let mut short_rng = autoscale::seeded_rng(seed ^ 0x5e5510);
        let mut long_rng = autoscale::seeded_rng(seed ^ 0x5e5510);
        for plan_from_long in long_plans.iter().take(10) {
            let plan_from_short = short.next_faults();
            let a = sim
                .execute_resilient(
                    workload,
                    &request,
                    &snapshot,
                    &plan_from_short,
                    &policy,
                    &mut short_rng,
                )
                .expect("cloud CPU FP32 always runs");
            let b = sim
                .execute_resilient(
                    workload,
                    &request,
                    &snapshot,
                    plan_from_long,
                    &policy,
                    &mut long_rng,
                )
                .expect("cloud CPU FP32 always runs");
            prop_assert_eq!(a, b);
            prop_assert!(short_rng == long_rng, "prefix draws diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degenerate fault rates behave exactly as advertised: rate 1.0 on
    /// both links makes every offload fall back locally, and the QoS /
    /// counter accounting still adds up.
    #[test]
    fn total_disconnection_forces_local_fallback(seed in any::<u64>()) {
        let blackout = FaultProfile {
            edge_dropout_rate: 1.0,
            cloud_dropout_rate: 1.0,
            ..FaultProfile::none()
        };
        let report = faulted_serve(blackout, seed, 2);
        for s in &report.sessions {
            // Every faulted offload exhausts its retries and falls back.
            prop_assert_eq!(s.fallbacks, s.faulted_requests);
            prop_assert!(s.qos_violations <= s.decisions);
        }
        // Offload decisions exist in any 40-decision exploration phase, so
        // somewhere in the fleet faults must have fired.
        prop_assert!(report.total_faulted() > 0, "exploration always tries offloads");
        prop_assert_eq!(report.total_fallbacks(), report.total_faulted());
    }

    /// Degenerate rate 0.0: an all-zero profile is bit-identical to the
    /// fault-free default for any seed.
    #[test]
    fn zero_rates_are_bit_identical_to_fault_free(seed in any::<u64>()) {
        let plain = faulted_serve(FaultProfile::none(), seed, 2);
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let mix = ScenarioMix::static_envs();
        let config = ServeConfig {
            sessions: 4,
            decisions_per_session: 40,
            shards: Some(2),
            base_seed: seed,
            ..ServeConfig::fleet()
        };
        let default_run = serve(&sim, &mix, &config, None).expect("serves");
        prop_assert_eq!(&plain.sessions, &default_run.sessions);
        prop_assert_eq!(plain.total_faulted(), 0);
        prop_assert_eq!(plain.total_retries(), 0);
        prop_assert_eq!(plain.total_fallbacks(), 0);
    }
}

/// Serialized results of a Figure 9-shaped grid run on the parallel
/// harness with the given worker count. Each (phone, workload) cell
/// trains leave-one-out AutoScale, then runs Figure 9's comparison (with
/// oracle tracking, beside the four fixed baselines, Opt, MOSAIC and
/// NeuroSurgeon) on two static environments. Every stream derives from
/// the cell seed.
fn harness_grid_bytes(threads: usize, base_seed: u64) -> Vec<u8> {
    let specs: Vec<(DeviceId, Workload)> = [DeviceId::Mi8Pro, DeviceId::MotoXForce]
        .into_iter()
        .flat_map(|d| [Workload::MobileNetV2, Workload::ResNet50].map(|w| (d, w)))
        .collect();
    let envs = [EnvironmentId::S1, EnvironmentId::S4];
    let config = EngineConfig::paper();
    let comparisons = run_cells(threads, base_seed, &specs, |cell| {
        let (device, w) = *cell.spec;
        let ev = Evaluator::new(Simulator::new(device), config);
        let sim = ev.sim();
        let [train_seed, prior_seed] = [1, 2].map(|k| cell_seed(cell.seed, k));
        let engine = experiment::train_leave_one_out(sim, w, &envs, 5, config, train_seed);
        let mut prior_rng = autoscale::seeded_rng(prior_seed);
        let comparators = experiment::baselines_and_prior_work(sim, config, w, &mut prior_rng);
        experiment::compare(
            &ev,
            w,
            &envs,
            AutoScaleScheduler::new(engine),
            comparators,
            10,
            20,
            &mut autoscale::seeded_rng(cell.seed),
        )
    });
    serde_json::to_vec(&comparisons).expect("reports serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The parallel harness is deterministic in the thread count: the
    /// serialized cell results for 1, 2 and 8 workers are byte-identical
    /// for any base seed.
    #[test]
    fn harness_results_independent_of_thread_count(base_seed in any::<u64>()) {
        let serial = harness_grid_bytes(1, base_seed);
        prop_assert_eq!(&serial, &harness_grid_bytes(2, base_seed));
        prop_assert_eq!(&serial, &harness_grid_bytes(8, base_seed));
    }
}

/// An open-loop serving run over a 4-session fleet.
fn openloop_serve(
    open: OpenLoopConfig,
    profile: FaultProfile,
    seed: u64,
    shards: usize,
) -> ServeReport {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let config = ServeConfig {
        openloop: Some(open),
        ..small_fleet(profile, seed, shards)
    };
    serve(&sim, &ScenarioMix::static_envs(), &config, None).expect("open-loop fleets never error")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The open-loop determinism contract: for any traffic shape, fault
    /// profile and seed, the fleet report — sessions, aggregate traffic
    /// and digest — is bit-identical across 1, 4 and 8 shards.
    #[test]
    fn open_loop_fleets_are_shard_invariant(
        open in arb_openloop(),
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let reference = openloop_serve(open, profile, seed, 1);
        for shards in [4usize, 8] {
            let sharded = openloop_serve(open, profile, seed, shards);
            prop_assert_eq!(&sharded.sessions, &reference.sessions);
            prop_assert_eq!(&sharded.traffic, &reference.traffic);
            prop_assert_eq!(sharded.digest(), reference.digest());
        }
    }

    /// Chaos, open-loop edition: any fault profile crossed with any
    /// arrival process, churn schedule and admission policy completes,
    /// conserves its counters (offered == served + dropped), and keeps
    /// every queue within its configured bound.
    #[test]
    fn open_loop_chaos_conserves_counters(
        open in arb_openloop(),
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let report = openloop_serve(open, profile, seed, 2);
        for s in &report.sessions {
            // Offered must split exactly into served + dropped.
            prop_assert_eq!(s.offered_requests, s.decisions + s.dropped_requests);
            prop_assert!(s.peak_queue_depth <= open.capacity());
            prop_assert!(s.degraded_requests <= s.decisions);
            prop_assert!(s.deadline_violations <= s.decisions);
            prop_assert!(s.qos_violations <= s.decisions);
        }
        let traffic = report.traffic.as_ref().expect("open-loop runs report traffic");
        let offered: usize = report.sessions.iter().map(|s| s.offered_requests).sum();
        let served: usize = report.sessions.iter().map(|s| s.decisions).sum();
        let dropped: usize = report.sessions.iter().map(|s| s.dropped_requests).sum();
        prop_assert_eq!(traffic.offered, offered);
        prop_assert_eq!(traffic.served, served);
        prop_assert_eq!(traffic.dropped, dropped);
        prop_assert_eq!(traffic.offered, traffic.served + traffic.dropped);
        prop_assert_eq!(traffic.queue_histogram.len(), open.capacity() + 1);
        prop_assert!(traffic.utilization() >= 0.0 && traffic.utilization() <= 1.0);
        prop_assert!(traffic.queue_depth_percentile(100.0) <= open.capacity());
        prop_assert!(traffic.span_ms >= traffic.window_ms - 1e-9);
    }

    /// The arrival and churn schedules are pure functions of
    /// `(spec, seed, index)`: swapping the admission policy, the shard
    /// count AND the fault profile changes what happens to each request
    /// but never which requests are offered or when.
    #[test]
    fn arrival_schedules_ignore_policy_kernel_and_faults(
        open in arb_openloop(),
        profile in arb_fault_profile(),
        admission in prop::sample::select(AdmissionPolicy::NAMES.to_vec()),
        seed in any::<u64>(),
    ) {
        let reference = openloop_serve(open, FaultProfile::none(), seed, 1);
        let variant_open = OpenLoopConfig {
            admission: AdmissionPolicy::parse(admission).expect("named policy"),
            ..open
        };
        let variant = openloop_serve(variant_open, profile, seed, 2);
        for (a, b) in reference.sessions.iter().zip(&variant.sessions) {
            prop_assert_eq!(a.offered_requests, b.offered_requests);
            // The arrival schedule must not depend on policy, shards or
            // faults.
            prop_assert_eq!(a.arrival_digest, b.arrival_digest);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arrival sampler draws a fixed number of values per event, so
    /// the schedule for arrival i depends only on (process, seed, i) —
    /// generating more arrivals never rewrites an earlier prefix.
    #[test]
    fn arrival_schedules_are_prefix_stable(
        name in prop::sample::select(ArrivalProcess::NAMES.to_vec()),
        rate_hz in 0.0..=2000.0f64,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::parse(name, rate_hz).expect("named process");
        let mut short = ArrivalSampler::new(process, seed);
        let mut long = ArrivalSampler::new(process, seed);
        let a: Vec<_> = (0..10).map(|_| short.next_arrival()).collect();
        let b: Vec<_> = (0..40).map(|_| long.next_arrival()).collect();
        prop_assert_eq!(&a[..], &b[..10]);
    }

    /// Churn windows are deterministic in (config, seed) and ordered:
    /// the join never happens after the leave, and a no-churn window
    /// spans every finite horizon.
    #[test]
    fn churn_windows_are_seed_deterministic(
        name in prop::sample::select(ChurnConfig::NAMES.to_vec()),
        horizon_ms in 50.0..=5000.0f64,
        seed in any::<u64>(),
    ) {
        let config = ChurnConfig::parse(name, horizon_ms).expect("named schedule");
        let w = ChurnWindow::draw(config, seed);
        prop_assert_eq!(w, ChurnWindow::draw(config, seed));
        prop_assert!(w.join_ms >= 0.0);
        prop_assert!(w.leave_ms >= w.join_ms);
        if config.is_none() {
            prop_assert!(!w.churns_out(horizon_ms));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With open-loop traffic off, the fleet is the closed fixed-count
    /// loop it always was: no traffic aggregate, and every session's
    /// open-loop counters pinned at zero — under any fault profile.
    /// (The byte-level half of this contract is the pinned digest test
    /// in `serve`: closed-loop digests equal their pre-open-loop
    /// values.)
    #[test]
    fn closed_loop_fleets_carry_no_open_loop_traffic(
        profile in arb_fault_profile(),
        seed in any::<u64>(),
    ) {
        let report = faulted_serve(profile, seed, 2);
        prop_assert!(report.traffic.is_none());
        for s in &report.sessions {
            prop_assert_eq!(s.offered_requests, 0);
            prop_assert_eq!(s.dropped_requests, 0);
            prop_assert_eq!(s.degraded_requests, 0);
            prop_assert_eq!(s.deadline_violations, 0);
            prop_assert_eq!(s.peak_queue_depth, 0);
            prop_assert_eq!(s.arrival_digest, 0);
        }
    }

    /// A silent arrival process (rate 0) yields empty but fully valid
    /// reports: zero offered, zero served, empty histograms tail, and
    /// finite normalized rates.
    #[test]
    fn silent_open_loop_fleets_are_empty_but_valid(seed in any::<u64>()) {
        let open = OpenLoopConfig::poisson(0.0, 500.0);
        let report = openloop_serve(open, FaultProfile::none(), seed, 2);
        let traffic = report.traffic.as_ref().expect("traffic present even when silent");
        prop_assert_eq!(traffic.offered, 0);
        prop_assert_eq!(traffic.served, 0);
        prop_assert_eq!(traffic.dropped, 0);
        prop_assert_eq!(traffic.peak_queue_depth, 0);
        prop_assert!(traffic.goodput_hz() == 0.0);
        prop_assert!(traffic.drop_rate() == 0.0);
        prop_assert_eq!(traffic.queue_depth_percentile(99.0), 0);
        for s in &report.sessions {
            prop_assert_eq!(s.decisions, 0);
            prop_assert_eq!(s.offered_requests, 0);
        }
    }

    /// Overload: an offered load far beyond the device's service rate
    /// keeps every queue at its bound and sheds the excess as drops —
    /// the fleet never falls over and never buffers unboundedly.
    #[test]
    fn overloaded_open_loop_fleets_shed_load(seed in any::<u64>()) {
        let open = OpenLoopConfig {
            queue_capacity: 4,
            ..OpenLoopConfig::poisson(2_000.0, 250.0)
        };
        let report = openloop_serve(open, FaultProfile::none(), seed, 2);
        let traffic = report.traffic.as_ref().expect("open-loop runs report traffic");
        prop_assert!(traffic.dropped > 0, "2 kHz against a ~50 Hz device must drop");
        prop_assert!(traffic.served > 0, "overload still serves at the service rate");
        prop_assert!(traffic.peak_queue_depth <= open.capacity());
        prop_assert!(traffic.drop_rate() > 0.5, "most of a 40x overload is shed");
    }
}

/// Deadline admission cannot lock a cold open-loop session out. Six cold
/// sessions at 40 req/s for 5 s (`autoscale-cli serve --device mi8pro
/// --sessions 6 --mix static --arrivals poisson --rate 40 --horizon-ms
/// 5000 --admission deadline`): a session whose first request ran past
/// its QoS used to be predicted late at every later arrival and drop
/// them all. An arrival that finds the device idle is admitted, so every
/// session keeps serving and the fleet stays busy.
#[test]
fn deadline_admission_keeps_cold_open_loop_sessions_serving() {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let config = ServeConfig {
        sessions: 6,
        openloop: Some(OpenLoopConfig {
            admission: AdmissionPolicy::Deadline,
            ..OpenLoopConfig::poisson(40.0, 5_000.0)
        }),
        ..ServeConfig::fleet()
    };
    let report = serve(&sim, &ScenarioMix::static_envs(), &config, None)
        .expect("open-loop fleets never error");
    let served: Vec<usize> = report.sessions.iter().map(|s| s.decisions).collect();
    assert!(
        served.iter().all(|&n| n >= 10),
        "served per session: {served:?}"
    );
    let traffic = report
        .traffic
        .as_ref()
        .expect("open-loop runs report traffic");
    assert!(
        traffic.utilization() > 0.5,
        "utilization {:.3}, served per session {served:?}",
        traffic.utilization()
    );
}
