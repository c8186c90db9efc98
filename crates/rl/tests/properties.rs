//! Property tests for the RL primitives.

use std::sync::Arc;

use autoscale_rl::{
    ConvergenceDetector, CowQTable, Dbscan, EpsilonGreedy, Hyperparameters, MaskSet,
    QLearningAgent, QStore, QTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eager reference for `QTable::new_random(states, actions, seed)`:
/// a raw re-draw of every value, state-major and action-minor, loaded
/// through the dense wire format, which builds every block from the
/// given values.
fn eager_random(states: usize, actions: usize, seed: u64) -> QTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..states * actions)
        .map(|_| serde::Value::Float(rng.gen_range(-0.01..0.01)))
        .collect();
    let wire = serde::Value::Object(vec![
        ("states".to_string(), serde::Value::UInt(states as u64)),
        ("actions".to_string(), serde::Value::UInt(actions as u64)),
        ("values".to_string(), serde::Value::Array(values)),
    ]);
    serde::Deserialize::from_value(&wire).expect("finite values of the right count")
}

proptest! {
    /// Q-tables store and retrieve every written value exactly.
    #[test]
    fn qtable_store_retrieve(
        states in 1usize..20,
        actions in 1usize..20,
        writes in prop::collection::vec((0usize..20, 0usize..20, -1e6..1e6f64), 0..50),
    ) {
        let mut q = QTable::new_zeroed(states, actions);
        let mut shadow = std::collections::HashMap::new();
        for (s, a, v) in writes {
            let (s, a) = (s % states, a % actions);
            q.set(s, a, v);
            shadow.insert((s, a), v);
        }
        for ((s, a), v) in shadow {
            prop_assert_eq!(q.get(s, a), v);
        }
    }

    /// best_action returns the argmax among allowed actions.
    #[test]
    fn best_action_is_argmax(values in prop::collection::vec(-1e3..1e3f64, 1..30), seed in any::<u64>()) {
        let n = values.len();
        let mut q = QTable::new_zeroed(1, n);
        for (a, &v) in values.iter().enumerate() {
            q.set(0, a, v);
        }
        // Random mask with at least one allowed entry.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        if !mask.iter().any(|&m| m) {
            mask[0] = true;
        }
        let (best, bv) = q.best_action(0, &mask).expect("non-empty mask");
        prop_assert!(mask[best]);
        for a in 0..n {
            if mask[a] {
                prop_assert!(values[a] <= bv + 1e-12);
            }
        }
    }

    /// Repeated updates with a constant reward converge the Q value to
    /// the fixed point r / (1 - lr_discount_term) — here with no
    /// bootstrap (single state, masked next state), simply to r.
    #[test]
    fn constant_reward_fixed_point(r in -1e3..1e3f64, lr in 0.05..=1.0f64) {
        let params = Hyperparameters { learning_rate: lr, discount: 0.0, epsilon: 0.0 };
        let mut agent = QLearningAgent::with_table(QTable::new_zeroed(1, 1), params);
        for _ in 0..200 {
            agent.update(0, 0, r, 0, &[false]);
        }
        prop_assert!((agent.store().get(0, 0) - r).abs() < 1e-3_f64.max(r.abs() * 1e-3));
    }

    /// Greedy selection after training on distinguishable rewards picks
    /// the best action.
    #[test]
    fn greedy_finds_the_best_of_k(k in 2usize..10, seed in any::<u64>()) {
        let params = Hyperparameters::paper();
        let mut agent = QLearningAgent::new(1, k, params, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mask = MaskSet::from_bools(&vec![true; k]);
        // Rewards: action i pays -(i as f64) * 10; action 0 is best.
        for _ in 0..k * 30 {
            let a = agent.select_action(0, &mask, &mut rng).expect("mask allows all");
            agent.update(0, a, -(a as f64) * 10.0, 0, mask.bools());
        }
        prop_assert_eq!(agent.select_greedy(0, mask.bools()), Some(0));
    }

    /// The epsilon-greedy policy degenerates correctly at the extremes.
    #[test]
    fn epsilon_extremes(seed in any::<u64>(), n in 2usize..10) {
        let mut q = QTable::new_zeroed(1, n);
        q.set(0, n - 1, 1.0);
        let q = QStore::Dense(q);
        let mask = MaskSet::from_bools(&vec![true; n]);
        let mut rng = StdRng::seed_from_u64(seed);
        // epsilon = 0: always the argmax.
        let greedy = EpsilonGreedy::greedy();
        for _ in 0..10 {
            prop_assert_eq!(greedy.choose(&q, 0, &mask, &mut rng), Some(n - 1));
        }
        // epsilon = 1: everything gets sampled eventually.
        let explore = EpsilonGreedy::new(1.0);
        let mut seen = vec![false; n];
        for _ in 0..400 {
            seen[explore.choose(&q, 0, &mask, &mut rng).expect("non-empty")] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// DBSCAN clusters partition the non-noise samples: every clustered
    /// value came from the input and clusters are ordered and disjoint.
    #[test]
    fn dbscan_clusters_partition(samples in prop::collection::vec(0.0..1e4f64, 0..80)) {
        let db = Dbscan::new(50.0, 2);
        let clusters = db.cluster(&samples);
        let mut prev_max = f64::NEG_INFINITY;
        for c in &clusters {
            prop_assert!(c.len() >= 2);
            for v in c {
                prop_assert!(samples.contains(v));
                prop_assert!(*v >= prev_max);
            }
            prev_max = *c.last().expect("non-empty cluster");
        }
    }

    /// A convergence detector never reports an index beyond the number of
    /// observations, and once converged it stays converged.
    #[test]
    fn detector_is_monotone(rewards in prop::collection::vec(-1e3..1e3f64, 0..200)) {
        let mut d = ConvergenceDetector::paper();
        let mut was_converged = false;
        for r in rewards {
            let now = d.observe(r);
            prop_assert!(!was_converged || now, "convergence must be sticky");
            was_converged = now;
        }
        if let Some(at) = d.converged_at() {
            prop_assert!(at <= d.observations());
        }
    }

    /// Q-tables survive serde exactly (float_roundtrip is enabled
    /// workspace-wide for this reason).
    #[test]
    fn qtable_serde_exact(states in 1usize..10, actions in 1usize..10, seed in any::<u64>()) {
        let q = QTable::new_random(states, actions, seed);
        let json = serde_json::to_string(&q).expect("serializes");
        let back: QTable = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(q, back);
    }

    /// The incrementally maintained argmax cache answers exactly like a
    /// brute-force row rescan — same action, same value, same
    /// lower-index tie-breaking — under arbitrary interleavings of
    /// direct writes and Algorithm 1 updates and under arbitrary masks.
    /// Values are small integers so ties happen constantly.
    #[test]
    fn argmax_cache_matches_rescan(
        states in 1usize..6,
        actions in 1usize..8,
        ops in prop::collection::vec((0usize..6, 0usize..8, 0u8..2, -3i8..=3i8), 0..100),
        seed in any::<u64>(),
    ) {
        let params = Hyperparameters {
            learning_rate: 0.9,
            discount: 0.1,
            epsilon: 0.0,
        };
        let mut agent = QLearningAgent::with_table(QTable::new_zeroed(states, actions), params);
        let mut rng = StdRng::seed_from_u64(seed);
        let full = vec![true; actions];
        for (s, a, kind, v) in ops {
            let (s, a, v) = (s % states, a % actions, v as f64);
            if kind == 0 {
                agent.store_mut().set(s, a, v);
            } else {
                let next = rng.gen_range(0..states);
                agent.update(s, a, v, next, &full);
            }
            for state in 0..states {
                let mut mask: Vec<bool> = (0..actions).map(|_| rng.gen_bool(0.8)).collect();
                if !mask.iter().any(|&m| m) {
                    mask[rng.gen_range(0..actions)] = true;
                }
                for m in [&mask, &full] {
                    let mut brute: Option<(usize, f64)> = None;
                    for a2 in (0..actions).filter(|&a2| m[a2]) {
                        let v2 = agent.store().get(state, a2);
                        if brute.is_none_or(|(_, bv)| v2 > bv) {
                            brute = Some((a2, v2));
                        }
                    }
                    prop_assert_eq!(agent.store().best_action(state, m), brute);
                }
            }
        }
    }

    /// Persisted agent snapshots (the session warm-start format) survive
    /// serde exactly, and a snapshot whose value array was truncated or
    /// padded is rejected at parse time rather than panicking later.
    #[test]
    fn agent_snapshot_round_trip_and_tamper_rejection(
        states in 1usize..8,
        actions in 1usize..8,
        seed in any::<u64>(),
        extra in 1usize..4,
    ) {
        let agent = QLearningAgent::new(states, actions, Hyperparameters::paper(), seed);
        let json = serde_json::to_string(&agent).expect("serializes");
        let back: QLearningAgent = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&agent, &back);
        // Tamper: grow the values array past states*actions.
        let tampered = json.replacen("\"values\":[", &format!("\"values\":[{}", "0.5,".repeat(extra)), 1);
        prop_assert!(serde_json::from_str::<QLearningAgent>(&tampered).is_err());
    }

    /// A copy-on-write overlay fed the same write sequence as a dense
    /// table is bit-identical to it: every Q value, every masked argmax,
    /// every epsilon-greedy pick, and the post-decision RNG state all
    /// agree. This is the determinism contract that lets
    /// serving swap storage backends without perturbing trace digests.
    #[test]
    fn overlay_is_bit_identical_to_dense(
        states in 1usize..6,
        actions in 1usize..12,
        base_seed in any::<u64>(),
        ops in prop::collection::vec((0usize..6, 0usize..12, 0u8..2, -3i8..=3i8), 0..80),
        eps_idx in 0usize..3,
        rng_seed in any::<u64>(),
    ) {
        let base = Arc::new(QTable::new_random(states, actions, base_seed));
        let mut dense = QStore::Dense((*base).clone());
        let mut cow = QStore::Cow(CowQTable::new(base));
        for &(s, a, kind, v) in &ops {
            let (s, a, v) = (s % states, a % actions, v as f64);
            if kind == 0 {
                dense.set(s, a, v);
                cow.set(s, a, v);
            } else {
                dense.add(s, a, v);
                cow.add(s, a, v);
            }
        }
        prop_assert_eq!(&dense, &cow);
        prop_assert_eq!(dense.value_digest(), cow.value_digest());
        let policy = EpsilonGreedy::new([0.0, 0.5, 1.0][eps_idx]);
        let mut mask_rng = StdRng::seed_from_u64(rng_seed);
        for state in 0..states {
            let mask: Vec<bool> = (0..actions).map(|_| mask_rng.gen_bool(0.7)).collect();
            prop_assert_eq!(dense.best_action(state, &mask), cow.best_action(state, &mask));
            for a in 0..actions {
                prop_assert_eq!(dense.get(state, a), cow.get(state, a));
            }
            let mask = MaskSet::from_bools(&mask);
            let mut rng_d = StdRng::seed_from_u64(rng_seed ^ state as u64);
            let mut rng_c = rng_d.clone();
            let pick_d = policy.choose(&dense, state, &mask, &mut rng_d);
            let pick_c = policy.choose(&cow, state, &mask, &mut rng_c);
            prop_assert_eq!(pick_d, pick_c);
            prop_assert_eq!(rng_d, rng_c);
        }
    }

    /// A random table whose blocks are built on first touch is the eager
    /// table bit for bit, whatever order its blocks are first touched in:
    /// over arbitrary shapes (partial last blocks included), seeds, and
    /// touch orders interleaved with `set`/`add`, every value, masked
    /// argmax, epsilon-greedy pick (with its RNG draws), digest and serde
    /// round trip agrees.
    #[test]
    fn lazy_blocks_equal_the_eager_table(
        states in 1usize..200,
        actions in 1usize..80,
        seed in any::<u64>(),
        touches in prop::collection::vec((0usize..200, 0usize..80, 0u8..3, -3i8..=3i8), 1..40),
        sweep_from in 0usize..200,
        rng_seed in any::<u64>(),
    ) {
        let mut lazy = QTable::new_random(states, actions, seed);
        let mut eager = eager_random(states, actions, seed);
        for &(s, a, kind, v) in &touches {
            let (s, a, v) = (s % states, a % actions, v as f64 / 100.0);
            match kind {
                0 => prop_assert_eq!(lazy.get(s, a), eager.get(s, a)),
                1 => {
                    lazy.set(s, a, v);
                    eager.set(s, a, v);
                }
                _ => {
                    lazy.add(s, a, v);
                    eager.add(s, a, v);
                }
            }
        }
        let (lazy, eager) = (QStore::Dense(lazy), QStore::Dense(eager));
        let mut mask_rng = StdRng::seed_from_u64(rng_seed);
        // The sweep starts mid-table, so the untouched blocks are built
        // in rotated order.
        for state in (0..states).map(|i| (i + sweep_from) % states) {
            for a in 0..actions {
                prop_assert_eq!(lazy.get(state, a).to_bits(), eager.get(state, a).to_bits());
            }
            let mut mask: Vec<bool> = (0..actions).map(|_| mask_rng.gen_bool(0.7)).collect();
            prop_assert_eq!(lazy.best_action(state, &mask), eager.best_action(state, &mask));
            mask[0] = true;
            let mask = MaskSet::from_bools(&mask);
            for policy in [EpsilonGreedy::greedy(), EpsilonGreedy::new(0.5)] {
                let mut rng_lazy = StdRng::seed_from_u64(rng_seed ^ state as u64);
                let mut rng_eager = rng_lazy.clone();
                prop_assert_eq!(
                    policy.choose(&lazy, state, &mask, &mut rng_lazy),
                    policy.choose(&eager, state, &mask, &mut rng_eager)
                );
                prop_assert_eq!(rng_lazy, rng_eager);
            }
        }
        prop_assert_eq!(lazy.value_digest(), eager.value_digest());
        let json = serde_json::to_string(&lazy).expect("serializes");
        prop_assert_eq!(&json, &serde_json::to_string(&eager).expect("serializes"));
        let back: QStore = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&back, &eager);
    }
}
