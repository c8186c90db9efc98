//! k-nearest-neighbour classification — the "KNN" baseline of Section
//! III-C (citing Zhang & Srihari \[114\]).

use serde::{Deserialize, Serialize};

use crate::linalg::squared_distance;
use crate::linreg::{validate, FitError};

/// A k-nearest-neighbour classifier over standardized features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnClassifier {
    k: usize,
    xs: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl KnnClassifier {
    /// Stores the training set for lazy classification.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for empty, mismatched or ragged inputs, and
    /// [`FitError::Empty`] when `k == 0`.
    pub fn fit(xs: &[Vec<f64>], labels: &[usize], k: usize) -> Result<Self, FitError> {
        let ys: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        validate(xs, &ys)?;
        if k == 0 {
            return Err(FitError::Empty);
        }
        Ok(KnnClassifier {
            k,
            xs: xs.to_vec(),
            labels: labels.to_vec(),
        })
    }

    /// The `k` in k-NN (clamped to the training-set size at query time).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored training samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the training set is empty (never true after a successful
    /// [`KnnClassifier::fit`]).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Predicts the majority label among the k nearest neighbours of `x`.
    /// Ties break toward the label of the nearest tied neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different dimension than the training data.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut neighbours: Vec<(f64, usize)> = self
            .xs
            .iter()
            .zip(&self.labels)
            .map(|(xi, &l)| (squared_distance(xi, x), l))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "squared distances of finite features are finite"
        )]
        neighbours.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let k = self.k.min(neighbours.len());
        let top = &neighbours[..k];
        let max_label = self.labels.iter().copied().max().unwrap_or(0);
        let mut votes = vec![0usize; max_label + 1];
        for &(_, l) in top {
            votes[l] += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "fit rejects empty training sets, so votes is non-empty"
        )]
        let best_count = *votes.iter().max().expect("non-empty votes");
        // Tie break: first (nearest) neighbour whose label has the best count.
        #[expect(
            clippy::expect_used,
            reason = "top holds at least one neighbour (k >= 1, training set non-empty)"
        )]
        top.iter()
            .find(|&&(_, l)| votes[l] == best_count)
            .map(|&(_, l)| l)
            .expect("at least one neighbour")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (Vec<Vec<f64>>, Vec<usize>) {
        (
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.2],
                vec![0.2, 0.1],
                vec![5.0, 5.0],
                vec![5.1, 5.2],
                vec![4.9, 5.1],
            ],
            vec![0, 0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn classifies_nearby_points() {
        let (xs, labels) = data();
        let knn = KnnClassifier::fit(&xs, &labels, 3).unwrap();
        assert_eq!(knn.predict(&[0.05, 0.05]), 0);
        assert_eq!(knn.predict(&[5.05, 5.0]), 1);
    }

    #[test]
    fn k_one_is_nearest_neighbour() {
        let (xs, labels) = data();
        let knn = KnnClassifier::fit(&xs, &labels, 1).unwrap();
        assert_eq!(knn.predict(&[4.0, 4.0]), 1);
    }

    #[test]
    fn k_larger_than_dataset_uses_everything() {
        let (xs, labels) = data();
        let knn = KnnClassifier::fit(&xs, &labels, 100).unwrap();
        // 3 votes each; the nearest neighbour breaks the tie.
        assert_eq!(knn.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        let xs = vec![vec![0.0], vec![1.0], vec![3.0], vec![4.0]];
        let labels = vec![0, 0, 1, 1];
        let knn = KnnClassifier::fit(&xs, &labels, 4).unwrap();
        // Two votes each; 1.9 is nearest to label 0's point at 1.0.
        assert_eq!(knn.predict(&[1.9]), 0);
        // 2.6 is nearest to label 1's point at 3.0.
        assert_eq!(knn.predict(&[2.6]), 1);
    }

    #[test]
    fn rejects_zero_k_and_empty_sets() {
        let (xs, labels) = data();
        assert!(KnnClassifier::fit(&xs, &labels, 0).is_err());
        assert!(KnnClassifier::fit(&[], &[], 3).is_err());
    }

    #[test]
    fn accessors() {
        let (xs, labels) = data();
        let knn = KnnClassifier::fit(&xs, &labels, 3).unwrap();
        assert_eq!(knn.k(), 3);
        assert_eq!(knn.len(), 6);
        assert!(!knn.is_empty());
    }
}
