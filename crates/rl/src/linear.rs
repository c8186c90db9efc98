//! Linear function-approximation Q-learning — the alternative the paper
//! rejects.
//!
//! Section IV of the paper weighs Q-learning against TD-learning and deep
//! RL and picks the lookup table for its "low latency overhead". To make
//! that trade-off measurable rather than asserted, this module implements
//! the lightest member of the function-approximation family: per-action
//! linear value functions `Q(s, a) = w_a · φ(s)` trained by semi-gradient
//! TD(0). It shares the [`crate::agent::QLearningAgent`] interface shape
//! so the ablation bench can swap it in, compare decision latency (a dot
//! product per action instead of one table read), convergence, and final
//! policy quality.
//!
//! A full deep-RL agent would only widen the latency gap this module
//! already demonstrates; the linear approximator is the most favourable
//! representative of that family for the mobile use case.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::policy::in_unit_interval;

/// A Q-learning agent with per-action linear value functions over a
/// continuous feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearQAgent {
    /// One weight vector (plus bias as the last entry) per action.
    weights: Vec<Vec<f64>>,
    features: usize,
    learning_rate: f64,
    discount: f64,
    epsilon: f64,
    updates: u64,
}

impl LinearQAgent {
    /// Creates an agent for `actions` actions over `features`-dimensional
    /// state features.
    ///
    /// # Panics
    ///
    /// Panics if `actions == 0`, `features == 0`, or any hyperparameter
    /// lies outside [0, 1].
    pub fn new(
        features: usize,
        actions: usize,
        learning_rate: f64,
        discount: f64,
        epsilon: f64,
    ) -> Self {
        assert!(features > 0 && actions > 0, "dimensions must be non-zero");
        for (name, v) in [
            ("learning_rate", learning_rate),
            ("discount", discount),
            ("epsilon", epsilon),
        ] {
            assert!(in_unit_interval(v), "{name} must be in [0, 1]");
        }
        LinearQAgent {
            weights: vec![vec![0.0; features + 1]; actions],
            features,
            learning_rate,
            discount,
            epsilon,
            updates: 0,
        }
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.weights.len()
    }

    /// Feature dimension (excluding the bias).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Q(s, a) for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `phi.len() != features` or `action` is out of range.
    pub fn value(&self, phi: &[f64], action: usize) -> f64 {
        assert_eq!(phi.len(), self.features, "feature dimension mismatch");
        let w = &self.weights[action];
        w[..self.features]
            .iter()
            .zip(phi)
            .map(|(wi, xi)| wi * xi)
            .sum::<f64>()
            + w[self.features]
    }

    /// The allowed action with the largest value, with its value.
    pub fn best_action(&self, phi: &[f64], mask: &[bool]) -> Option<(usize, f64)> {
        assert_eq!(mask.len(), self.actions(), "mask length mismatch");
        let mut best: Option<(usize, f64)> = None;
        for (a, &allowed) in mask.iter().enumerate() {
            if !allowed {
                continue;
            }
            let v = self.value(phi, a);
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((a, v));
            }
        }
        best
    }

    /// Epsilon-greedy selection.
    pub fn select_action(&self, phi: &[f64], mask: &[bool], rng: &mut StdRng) -> Option<usize> {
        let allowed: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
        if allowed.is_empty() {
            return None;
        }
        // The pinned epsilon-greedy protocol: one uniform draw per decision,
        // one bounded draw on the exploration arm only; digest tests freeze it.
        if rng.gen::<f64>() < self.epsilon {
            Some(allowed[rng.gen_range(0..allowed.len())])
        } else {
            self.best_action(phi, mask).map(|(a, _)| a)
        }
    }

    /// Semi-gradient TD(0) update toward `r + µ max_a' Q(s', a')`.
    ///
    /// The step is scaled by 1/(1+‖φ‖²) (normalized LMS) so updates stay
    /// stable for arbitrary feature magnitudes.
    pub fn update(
        &mut self,
        phi: &[f64],
        action: usize,
        reward: f64,
        next_phi: &[f64],
        next_mask: &[bool],
    ) {
        let bootstrap = self
            .best_action(next_phi, next_mask)
            .map_or(0.0, |(_, v)| v);
        let target = reward + self.discount * bootstrap;
        let error = target - self.value(phi, action);
        let norm = 1.0 + phi.iter().map(|x| x * x).sum::<f64>();
        let step = self.learning_rate * error / norm;
        let w = &mut self.weights[action];
        for (wi, xi) in w[..self.features].iter_mut().zip(phi) {
            *wi += step * xi;
        }
        w[self.features] += step;
        self.updates += 1;
    }

    /// Memory footprint of the weights in bytes (for the overhead
    /// comparison against the Q-table).
    pub fn memory_bytes(&self) -> usize {
        self.weights.len() * (self.features + 1) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn learns_a_feature_dependent_policy() {
        // Two actions: action 0 pays +phi[0], action 1 pays -phi[0].
        // For positive features action 0 is better, for negative action 1.
        let mut agent = LinearQAgent::new(1, 2, 0.5, 0.0, 0.2);
        let mut r = rng();
        let mask = [true, true];
        for i in 0..2_000 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let phi = [x];
            let a = agent
                .select_action(&phi, &mask, &mut r)
                .expect("mask non-empty");
            let reward = if a == 0 { x } else { -x };
            agent.update(&phi, a, reward, &phi, &mask);
        }
        assert_eq!(agent.best_action(&[1.0], &mask).map(|(a, _)| a), Some(0));
        assert_eq!(agent.best_action(&[-1.0], &mask).map(|(a, _)| a), Some(1));
    }

    #[test]
    fn generalizes_across_unseen_feature_values() {
        // Trained only at |x| = 1, the linear model extrapolates to 3.
        let mut agent = LinearQAgent::new(1, 2, 0.5, 0.0, 0.1);
        let mut r = rng();
        let mask = [true, true];
        for i in 0..2_000 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let a = agent.select_action(&[x], &mask, &mut r).expect("non-empty");
            agent.update(&[x], a, if a == 0 { x } else { -x }, &[x], &mask);
        }
        assert_eq!(agent.best_action(&[3.0], &mask).map(|(a, _)| a), Some(0));
    }

    #[test]
    fn masked_actions_are_never_best_or_selected() {
        let mut agent = LinearQAgent::new(2, 3, 0.5, 0.0, 1.0);
        agent.weights[1] = vec![10.0, 10.0, 10.0];
        let mask = [true, false, true];
        assert_ne!(
            agent.best_action(&[1.0, 1.0], &mask).map(|(a, _)| a),
            Some(1)
        );
        let mut r = rng();
        for _ in 0..100 {
            assert_ne!(agent.select_action(&[1.0, 1.0], &mask, &mut r), Some(1));
        }
    }

    #[test]
    fn update_reduces_td_error() {
        let mut agent = LinearQAgent::new(2, 1, 0.8, 0.0, 0.0);
        let phi = [2.0, -1.0];
        let before = (5.0 - agent.value(&phi, 0)).abs();
        agent.update(&phi, 0, 5.0, &phi, &[false]);
        let after = (5.0 - agent.value(&phi, 0)).abs();
        assert!(after < before);
    }

    #[test]
    fn normalized_step_is_stable_for_large_features() {
        let mut agent = LinearQAgent::new(1, 1, 1.0, 0.0, 0.0);
        for _ in 0..100 {
            agent.update(&[1_000.0], 0, 1.0, &[1_000.0], &[false]);
            assert!(agent.value(&[1_000.0], 0).is_finite());
        }
        assert!((agent.value(&[1_000.0], 0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn memory_footprint_is_tiny_compared_to_a_table() {
        // 8 features x 66 actions: under 5 KiB, vs ~1.6 MB for the dense
        // 3072x66 table — the FA trade-off is memory for per-decision
        // compute and approximation error.
        let agent = LinearQAgent::new(8, 66, 0.5, 0.1, 0.1);
        assert!(agent.memory_bytes() < 5 * 1024);
    }

    #[test]
    fn empty_mask_yields_none() {
        let agent = LinearQAgent::new(1, 2, 0.5, 0.0, 0.5);
        let mut r = rng();
        assert_eq!(agent.select_action(&[0.0], &[false, false], &mut r), None);
        assert_eq!(agent.best_action(&[0.0], &[false, false]), None);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_feature_dimension_panics() {
        let agent = LinearQAgent::new(2, 1, 0.5, 0.0, 0.0);
        let _ = agent.value(&[1.0], 0);
    }
}
