//! Bayesian optimization with expected improvement — the "BO" baseline of
//! Section III-C: "The objective of Bayesian optimization is set to find
//! the execution target that maximizes energy efficiency while satisfying
//! the QoS constraint. We employ the Gaussian process as the surrogate
//! model and expected improvement as the acquisition function."

use serde::{Deserialize, Serialize};

use crate::gp::{GaussianProcess, RbfKernel};
use crate::linreg::FitError;

/// A Bayesian optimizer over a finite candidate set (the execution-target
/// design space is discrete).
///
/// The optimizer *maximizes* its objective. Callers feed it observations
/// of `(candidate features, objective)` — e.g. measured energy efficiency,
/// with QoS violations penalized — and ask for the next candidate via
/// expected improvement, or for the incumbent best via the posterior mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BayesianOptimizer {
    kernel: RbfKernel,
    observations_x: Vec<Vec<f64>>,
    observations_y: Vec<f64>,
}

impl BayesianOptimizer {
    /// Creates an optimizer with the given surrogate kernel.
    pub fn new(kernel: RbfKernel) -> Self {
        BayesianOptimizer {
            kernel,
            observations_x: Vec::new(),
            observations_y: Vec::new(),
        }
    }

    /// Creates an optimizer with the default kernel.
    pub fn with_default_kernel() -> Self {
        BayesianOptimizer::new(RbfKernel::default())
    }

    /// Records one observation of the objective.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) {
        self.observations_x.push(x);
        self.observations_y.push(y);
    }

    /// Number of recorded observations.
    pub fn observations(&self) -> usize {
        self.observations_y.len()
    }

    /// The best objective value observed so far.
    pub fn incumbent(&self) -> Option<f64> {
        self.observations_y
            .iter()
            .copied()
            .fold(None, |acc, y| match acc {
                Some(best) if best >= y => Some(best),
                _ => Some(y),
            })
    }

    /// Fits the surrogate to the observations so far.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if fewer than one observation exists or the
    /// kernel matrix is degenerate.
    fn surrogate(&self) -> Result<GaussianProcess, FitError> {
        GaussianProcess::fit(&self.observations_x, &self.observations_y, self.kernel)
    }

    /// Expected improvement of candidate `x` over the incumbent, under the
    /// current surrogate.
    pub fn expected_improvement(&self, gp: &GaussianProcess, x: &[f64]) -> f64 {
        let best = self.incumbent().unwrap_or(0.0);
        let (mean, var) = gp.predict(x);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (mean - best).max(0.0);
        }
        let z = (mean - best) / sigma;
        (mean - best) * standard_normal_cdf(z) + sigma * standard_normal_pdf(z)
    }

    /// The candidate with the highest expected improvement.
    ///
    /// Before any observation exists, falls back to the first candidate
    /// (pure exploration has no gradient to follow yet).
    ///
    /// # Errors
    ///
    /// Returns [`FitError::Empty`] when `candidates` is empty.
    pub fn suggest(&self, candidates: &[Vec<f64>]) -> Result<usize, FitError> {
        if candidates.is_empty() {
            return Err(FitError::Empty);
        }
        let gp = match self.surrogate() {
            Ok(gp) => gp,
            Err(_) => return Ok(0),
        };
        #[expect(
            clippy::expect_used,
            reason = "candidates were validated non-empty at entry"
        )]
        let best = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.expected_improvement(&gp, c)))
            .max_by(
                #[expect(
                    clippy::expect_used,
                    reason = "GP outputs over validated inputs are finite"
                )]
                |a, b| a.1.partial_cmp(&b.1).expect("finite EI"),
            )
            .map(|(i, _)| i)
            .expect("non-empty candidates");
        Ok(best)
    }

    /// The candidate with the highest posterior-mean objective — the
    /// exploitation decision used once the budget is spent.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::Empty`] when `candidates` is empty.
    pub fn best_by_mean(&self, candidates: &[Vec<f64>]) -> Result<usize, FitError> {
        if candidates.is_empty() {
            return Err(FitError::Empty);
        }
        let gp = match self.surrogate() {
            Ok(gp) => gp,
            Err(_) => return Ok(0),
        };
        #[expect(
            clippy::expect_used,
            reason = "candidates were validated non-empty at entry"
        )]
        let best = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, gp.predict_mean(c)))
            .max_by(
                #[expect(
                    clippy::expect_used,
                    reason = "GP outputs over validated inputs are finite"
                )]
                |a, b| a.1.partial_cmp(&b.1).expect("finite means"),
            )
            .map(|(i, _)| i)
            .expect("non-empty candidates");
        Ok(best)
    }
}

/// Standard normal probability density.
fn standard_normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution via the Abramowitz–Stegun
/// erf approximation (max error ≈ 1.5e-7, ample for acquisition ranking).
fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Objective with a single peak at x = 2 over a 1-D grid.
    fn objective(x: f64) -> f64 {
        -(x - 2.0) * (x - 2.0)
    }

    fn grid() -> Vec<Vec<f64>> {
        (0..41).map(|i| vec![i as f64 * 0.1]).collect()
    }

    #[test]
    fn optimizes_a_smooth_objective() {
        let mut bo = BayesianOptimizer::with_default_kernel();
        let candidates = grid();
        // Seed with the two endpoints, then run the EI loop.
        for x in [0.0, 4.0] {
            bo.observe(vec![x], objective(x));
        }
        for _ in 0..12 {
            let idx = bo.suggest(&candidates).unwrap();
            let x = candidates[idx][0];
            bo.observe(vec![x], objective(x));
        }
        let best_idx = bo.best_by_mean(&candidates).unwrap();
        let best_x = candidates[best_idx][0];
        assert!((best_x - 2.0).abs() <= 0.3, "best_x={best_x}");
    }

    #[test]
    fn incumbent_tracks_the_best_observation() {
        let mut bo = BayesianOptimizer::with_default_kernel();
        assert_eq!(bo.incumbent(), None);
        bo.observe(vec![0.0], -1.0);
        bo.observe(vec![1.0], 3.0);
        bo.observe(vec![2.0], 2.0);
        assert_eq!(bo.incumbent(), Some(3.0));
        assert_eq!(bo.observations(), 3);
    }

    #[test]
    fn suggest_without_observations_falls_back() {
        let bo = BayesianOptimizer::with_default_kernel();
        assert_eq!(bo.suggest(&grid()).unwrap(), 0);
    }

    #[test]
    fn empty_candidates_error() {
        let bo = BayesianOptimizer::with_default_kernel();
        assert!(bo.suggest(&[]).is_err());
        assert!(bo.best_by_mean(&[]).is_err());
    }

    #[test]
    fn ei_is_zero_at_a_certain_worse_point() {
        let mut bo = BayesianOptimizer::new(RbfKernel {
            noise_variance: 1e-8,
            ..RbfKernel::default()
        });
        bo.observe(vec![0.0], 1.0);
        bo.observe(vec![5.0], 0.0);
        let gp = GaussianProcess::fit(
            &[vec![0.0], vec![5.0]],
            &[1.0, 0.0],
            RbfKernel {
                noise_variance: 1e-8,
                ..RbfKernel::default()
            },
        )
        .unwrap();
        // At the known worse observation the EI is essentially zero.
        assert!(bo.expected_improvement(&gp, &[5.0]) < 1e-3);
        // Away from data, uncertainty makes EI positive.
        assert!(bo.expected_improvement(&gp, &[2.5]) > 1e-3);
    }

    #[test]
    fn normal_helpers_are_sane() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(standard_normal_cdf(3.0) > 0.995);
        assert!(standard_normal_cdf(-3.0) < 0.005);
        assert!((standard_normal_pdf(0.0) - 0.3989).abs() < 1e-3);
    }
}
