//! Multiclass support vector machine — the "SVM" classification baseline
//! of Section III-C (citing Suykens & Vandewalle \[102\]).
//!
//! One-vs-rest linear SVMs trained by deterministic subgradient descent on
//! the hinge loss with L2 regularization. The classifier predicts the
//! optimal execution target directly from the state features; the paper
//! notes that such classifiers "make the wrong decision regardless of the
//! absolute energy and latency magnitudes", which is exactly the failure
//! mode the core crate's Fig. 7 experiment reproduces.

use serde::{Deserialize, Serialize};

use crate::linalg::dot;
use crate::linreg::{validate, FitError};

/// Training configuration for [`SvmClassifier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Regularization strength λ.
    pub lambda: f64,
    /// Number of full passes over the training set.
    pub epochs: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1e-4,
            epochs: 400,
        }
    }
}

/// A fitted one-vs-rest linear SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmClassifier {
    /// One (weights, bias) pair per class, indexed by label.
    hyperplanes: Vec<(Vec<f64>, f64)>,
}

impl SvmClassifier {
    /// Fits one-vs-rest hyperplanes for labels `0..=max(labels)`.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for empty, mismatched or ragged inputs.
    pub fn fit(xs: &[Vec<f64>], labels: &[usize], config: SvmConfig) -> Result<Self, FitError> {
        let ys: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        validate(xs, &ys)?;
        #[expect(
            clippy::expect_used,
            reason = "validate() rejected empty inputs on the line above"
        )]
        let classes = labels.iter().copied().max().expect("non-empty") + 1;
        let dim = xs[0].len();
        let n = xs.len();
        let mut hyperplanes = Vec::with_capacity(classes);
        for class in 0..classes {
            let targets: Vec<f64> = labels
                .iter()
                .map(|&l| if l == class { 1.0 } else { -1.0 })
                .collect();
            let mut w = vec![0.0; dim];
            let mut b = 0.0;
            for epoch in 0..config.epochs {
                let lr = (1.0 / (config.lambda.max(1e-9) * (epoch + 1) as f64) / n as f64).min(0.5);
                let mut grad_w = vec![0.0; dim];
                let mut grad_b = 0.0;
                for (x, &t) in xs.iter().zip(&targets) {
                    let margin = t * (dot(&w, x) + b);
                    if margin >= 1.0 {
                        continue;
                    }
                    for (g, &xv) in grad_w.iter_mut().zip(x) {
                        *g -= t * xv;
                    }
                    grad_b -= t;
                }
                for (wv, g) in w.iter_mut().zip(&grad_w) {
                    *wv -= lr * (g / n as f64 + config.lambda * *wv);
                }
                b -= lr * grad_b / n as f64;
            }
            hyperplanes.push((w, b));
        }
        Ok(SvmClassifier { hyperplanes })
    }

    /// Fits with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for invalid training sets.
    pub fn fit_default(xs: &[Vec<f64>], labels: &[usize]) -> Result<Self, FitError> {
        SvmClassifier::fit(xs, labels, SvmConfig::default())
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.hyperplanes.len()
    }

    /// The decision value of each class for `x` (higher = more confident).
    pub fn decision_values(&self, x: &[f64]) -> Vec<f64> {
        self.hyperplanes
            .iter()
            .map(|(w, b)| dot(w, x) + b)
            .collect()
    }

    /// The predicted class label for `x`.
    pub fn predict(&self, x: &[f64]) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "a fitted classifier has at least one class"
        )]
        self.decision_values(x)
            .iter()
            .enumerate()
            .max_by(
                #[expect(
                    clippy::expect_used,
                    reason = "decision values are finite dot products"
                )]
                |a, b| a.1.partial_cmp(b.1).expect("finite decision values"),
            )
            .map(|(i, _)| i)
            .expect("at least one class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (5.0, 5.0), (0.0, 6.0)];
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..15 {
                let dx = (i % 4) as f64 * 0.2 - 0.3;
                let dy = (i / 4) as f64 * 0.2 - 0.3;
                xs.push(vec![cx + dx, cy + dy]);
                labels.push(label);
            }
        }
        (xs, labels)
    }

    #[test]
    fn separable_blobs_are_classified() {
        let (xs, labels) = blobs();
        let model = SvmClassifier::fit_default(&xs, &labels).unwrap();
        let correct = xs
            .iter()
            .zip(&labels)
            .filter(|(x, &l)| model.predict(x) == l)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.95,
            "correct={correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn class_count_matches_labels() {
        let (xs, labels) = blobs();
        let model = SvmClassifier::fit_default(&xs, &labels).unwrap();
        assert_eq!(model.classes(), 3);
        assert_eq!(model.decision_values(&xs[0]).len(), 3);
    }

    #[test]
    fn predicts_the_nearest_blob_for_new_points() {
        let (xs, labels) = blobs();
        let model = SvmClassifier::fit_default(&xs, &labels).unwrap();
        assert_eq!(model.predict(&[0.1, -0.2]), 0);
        assert_eq!(model.predict(&[5.2, 4.9]), 1);
        assert_eq!(model.predict(&[-0.2, 6.3]), 2);
    }

    #[test]
    fn rejects_invalid_training_sets() {
        assert!(SvmClassifier::fit_default(&[], &[]).is_err());
        assert!(SvmClassifier::fit_default(&[vec![1.0]], &[0, 1]).is_err());
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let xs = vec![vec![1.0], vec![2.0]];
        let model = SvmClassifier::fit_default(&xs, &[0, 0]).unwrap();
        assert_eq!(model.classes(), 1);
        assert_eq!(model.predict(&[5.0]), 0);
    }
}
