//! The epsilon-greedy exploration policy.
//!
//! Section IV of the paper: "If an RL agent always exploits an action with
//! the temporary highest reward, it can get stuck in local optima. On the
//! other hand, if it keeps exploring all possible actions, convergence may
//! get slower. To solve this problem, we employ the epsilon-greedy
//! algorithm [...] for its effectiveness and simplicity." The paper uses
//! ε = 0.1, following prior RL work in this domain.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::qstore::QStore;

/// A feasibility mask in the two shapes a decision reads.
///
/// Built once per workload at engine construction and reused for every
/// decision, so the hot path never re-derives a representation:
///
/// * `bools` — the `&[bool]` view the Q-store's masked argmax reads;
/// * `allowed` — the allowed action indices in ascending order, so the
///   allowed count and "the k-th allowed action" (the exploration draw)
///   are O(1) instead of a scan over the whole mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSet {
    bools: Vec<bool>,
    allowed: Vec<u32>,
}

impl MaskSet {
    /// Builds both views of a `&[bool]` feasibility mask.
    pub fn from_bools(mask: &[bool]) -> Self {
        MaskSet {
            bools: mask.to_vec(),
            allowed: mask
                .iter()
                .enumerate()
                .filter_map(|(i, &allow)| allow.then_some(i as u32))
                .collect(),
        }
    }

    /// Number of actions the mask covers (allowed or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.bools.len()
    }

    /// Whether the mask covers zero actions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bools.is_empty()
    }

    /// Number of allowed actions.
    #[inline]
    pub fn allowed_count(&self) -> usize {
        self.allowed.len()
    }

    /// The `&[bool]` view.
    #[inline]
    pub fn bools(&self) -> &[bool] {
        &self.bools
    }

    /// The `k`-th allowed action in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= allowed_count()`.
    #[inline]
    pub fn nth_allowed(&self, k: usize) -> usize {
        self.allowed[k] as usize
    }
}

/// An epsilon-greedy action-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EpsilonGreedy {
    epsilon: f64,
}

/// Whether `value` lies in [0, 1], the range of every Algorithm 1
/// hyperparameter (γ, µ and ε). NaN and the infinities lie outside it.
#[inline]
pub(crate) fn in_unit_interval(value: f64) -> bool {
    (0.0..=1.0).contains(&value)
}

/// Reads field `name` of `ty` from a serde object as a value in
/// [0, 1], with an error naming the field when it is non-finite or out
/// of range.
pub(crate) fn unit_field(
    obj: &[(String, serde::Value)],
    name: &str,
    ty: &str,
) -> Result<f64, serde::Error> {
    let v: f64 = serde::__field(obj, name, ty)?;
    if in_unit_interval(v) {
        Ok(v)
    } else {
        Err(serde::Error::custom(format!(
            "field `{name}` of `{ty}` must be in [0, 1], found {v}"
        )))
    }
}

// Hand-written rather than derived so a persisted policy is held to
// `EpsilonGreedy::new`'s range at parse time.
impl Deserialize for EpsilonGreedy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("struct EpsilonGreedy", value))?;
        Ok(EpsilonGreedy {
            epsilon: unit_field(obj, "epsilon", "EpsilonGreedy")?,
        })
    }
}

impl EpsilonGreedy {
    /// Creates a policy with exploration probability `epsilon` ∈ [0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside [0, 1] or not finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(in_unit_interval(epsilon), "epsilon must be in [0, 1]");
        EpsilonGreedy { epsilon }
    }

    /// The paper's value: ε = 0.1.
    pub fn paper() -> Self {
        EpsilonGreedy::new(0.1)
    }

    /// A purely greedy policy (ε = 0), used after training converges.
    pub fn greedy() -> Self {
        EpsilonGreedy::new(0.0)
    }

    /// The exploration probability.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Chooses an action for `state`: with probability ε a uniformly random
    /// allowed action (exploration), otherwise the allowed action with the
    /// largest Q value, lowest index on ties (exploitation).
    ///
    /// This is Algorithm 1's one selection step, and the only tabular one
    /// in the workspace: training, evaluation and every serving session
    /// call it.
    /// Its RNG draws are pinned, because session digests depend on them:
    /// an empty mask returns `None` and draws nothing; otherwise one
    /// uniform `f64` decides the arm, and the exploration arm adds one
    /// bounded draw `k` over the allowed count and returns the `k`-th
    /// allowed action. The exploitation arm draws nothing and answers
    /// from the store's per-row argmax cache.
    ///
    /// `#[inline]` because callers live in other crates and the workspace
    /// builds without LTO; the serving loop calls this once per decision.
    ///
    /// # Panics
    ///
    /// The exploitation arm panics if `mask.len()` differs from the
    /// store's action count (debug builds check it on every call).
    #[inline]
    pub fn choose(
        &self,
        q: &QStore,
        state: usize,
        mask: &MaskSet,
        rng: &mut StdRng,
    ) -> Option<usize> {
        self.choose_reporting_max(q, state, mask, rng)
            .map(|choice| choice.action)
    }

    /// [`Self::choose`], reporting what the exploitation arm read: the
    /// row's largest allowed Q value, which is `max_a' Q(state, a')` —
    /// the bootstrap of an update whose next state is `state`, as long
    /// as nothing writes the row in between. The exploration arm reads no
    /// Q value and reports none. Same draws, same action.
    ///
    /// # Panics
    ///
    /// As [`Self::choose`].
    #[inline]
    pub fn choose_reporting_max(
        &self,
        q: &QStore,
        state: usize,
        mask: &MaskSet,
        rng: &mut StdRng,
    ) -> Option<Choice> {
        debug_assert_eq!(
            mask.len(),
            q.actions(),
            "mask length must equal action count"
        );
        let allowed = mask.allowed_count();
        if allowed == 0 {
            return None;
        }
        // The pinned epsilon-greedy protocol: one uniform draw per decision,
        // one bounded draw on the exploration arm only; digest tests freeze it.
        if rng.gen::<f64>() < self.epsilon {
            let k = rng.gen_range(0..allowed);
            Some(Choice {
                action: mask.nth_allowed(k),
                row_max: None,
            })
        } else {
            q.best_action(state, mask.bools())
                .map(|(action, value)| Choice {
                    action,
                    row_max: Some(value),
                })
        }
    }
}

/// One epsilon-greedy choice: the action, and the row maximum when the
/// choice exploited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// The chosen action.
    pub action: usize,
    /// The largest allowed Q value of the state's row, which the
    /// exploitation arm read to choose; `None` after exploring.
    pub row_max: Option<f64>,
}

impl Default for EpsilonGreedy {
    fn default() -> Self {
        EpsilonGreedy::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QTable;
    use rand::SeedableRng;

    fn table() -> QStore {
        let mut q = QTable::new_zeroed(1, 4);
        q.set(0, 2, 10.0);
        QStore::Dense(q)
    }

    #[test]
    fn mask_set_views_agree() {
        let bools = [true, false, true, true, false];
        let m = MaskSet::from_bools(&bools);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.allowed_count(), 3);
        assert_eq!(m.bools(), &bools);
        assert_eq!(m.nth_allowed(0), 0);
        assert_eq!(m.nth_allowed(1), 2);
        assert_eq!(m.nth_allowed(2), 3);
    }

    #[test]
    fn greedy_always_picks_the_best() {
        let q = table();
        let policy = EpsilonGreedy::greedy();
        let mask = MaskSet::from_bools(&[true; 4]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(policy.choose(&q, 0, &mask, &mut rng), Some(2));
        }
    }

    #[test]
    fn exploration_rate_is_close_to_epsilon() {
        let q = table();
        let policy = EpsilonGreedy::new(0.3);
        let mask = MaskSet::from_bools(&[true; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let non_greedy = (0..n)
            .filter(|_| policy.choose(&q, 0, &mask, &mut rng) != Some(2))
            .count();
        // Exploration picks uniformly among 4 actions, so 3/4 of explored
        // steps deviate from the greedy choice: expect 0.3 * 0.75 = 0.225.
        let rate = non_greedy as f64 / n as f64;
        assert!((rate - 0.225).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let q = table();
        let policy = EpsilonGreedy::new(1.0); // always explore
        let mut rng = StdRng::seed_from_u64(2);
        let bools = [true, false, false, true];
        let mask = MaskSet::from_bools(&bools);
        for _ in 0..200 {
            let a = policy.choose(&q, 0, &mask, &mut rng).unwrap();
            assert!(bools[a]);
        }
    }

    #[test]
    fn empty_mask_yields_none_and_draws_nothing() {
        let q = table();
        let policy = EpsilonGreedy::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let mask = MaskSet::from_bools(&[false; 4]);
        assert_eq!(policy.choose(&q, 0, &mask, &mut rng), None);
        assert_eq!(rng, StdRng::seed_from_u64(3));
    }

    #[test]
    fn an_exploiting_choice_reports_the_masked_row_maximum() {
        // The reported maximum is what a learner bootstraps from when the
        // next state is the decided one: the largest allowed value of the
        // row, on both stores, and nothing after exploring. The choice
        // itself and the draws are `choose`'s.
        use crate::qstore::QStore;
        let mut init = StdRng::seed_from_u64(4);
        let dense = QTable::new_random(3, 11, 9);
        let cow = QStore::cow(std::sync::Arc::new(dense.clone()));
        for q in [QStore::Dense(dense), cow] {
            for policy in [EpsilonGreedy::greedy(), EpsilonGreedy::new(0.5)] {
                for _ in 0..200 {
                    let bools: Vec<bool> = (0..11).map(|_| init.gen_bool(0.6)).collect();
                    let mask = MaskSet::from_bools(&bools);
                    let state = init.gen_range(0..3);
                    let seed = init.gen();
                    let (mut rng, mut twin) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let choice = policy.choose_reporting_max(&q, state, &mask, &mut rng);
                    let plain = policy.choose(&q, state, &mask, &mut twin);
                    assert_eq!(choice.map(|c| c.action), plain);
                    assert_eq!(rng, twin);
                    let Some(Choice { action, row_max }) = choice else {
                        assert_eq!(mask.allowed_count(), 0);
                        continue;
                    };
                    let brute = (0..11)
                        .filter(|&a| bools[a])
                        .map(|a| q.get(state, a))
                        .fold(f64::NEG_INFINITY, f64::max);
                    match row_max {
                        Some(max) => {
                            assert_eq!(max.to_bits(), brute.to_bits());
                            assert_eq!(max.to_bits(), q.get(state, action).to_bits());
                        }
                        None => assert!(policy.epsilon() > 0.0, "greedy always exploits"),
                    }
                }
            }
        }
    }

    #[test]
    fn default_is_paper_epsilon() {
        assert_eq!(EpsilonGreedy::default().epsilon(), 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn invalid_epsilon_panics() {
        let _ = EpsilonGreedy::new(1.5);
    }
}
