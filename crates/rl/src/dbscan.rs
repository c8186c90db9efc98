//! One-dimensional DBSCAN clustering and the discretizer built from it.
//!
//! Section IV-A of the paper: "When a feature has a continuous value, it is
//! difficult to define the state in a discrete manner for the lookup table
//! of Q-learning. To convert the continuous features into discrete values,
//! we applied DBSCAN clustering algorithm to each feature; DBSCAN
//! determines the optimal number of clusters for the given data."
//!
//! Each state feature is a scalar, so the clustering is one-dimensional:
//! a density-based scan over the sorted samples. Runs of points whose
//! consecutive gaps are at most `eps` and that contain at least
//! `min_points` samples form clusters; sparser points are noise and are
//! absorbed by the nearest cluster when building the [`Discretizer`].

use serde::{Deserialize, Serialize};

/// A 1-D DBSCAN clusterer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dbscan {
    /// Maximum gap between consecutive samples within one cluster.
    pub eps: f64,
    /// Minimum number of samples a cluster must contain.
    pub min_points: usize,
}

impl Dbscan {
    /// Creates a clusterer.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not positive and finite, or `min_points == 0`.
    pub fn new(eps: f64, min_points: usize) -> Self {
        assert!(eps.is_finite() && eps > 0.0, "eps must be positive");
        assert!(min_points > 0, "min_points must be positive");
        Dbscan { eps, min_points }
    }

    /// Clusters `samples`, returning each cluster as a sorted vector of
    /// the values it contains. Clusters are ordered by value. Samples in
    /// runs shorter than `min_points` are noise and are omitted.
    pub fn cluster(&self, samples: &[f64]) -> Vec<Vec<f64>> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        #[expect(
            clippy::expect_used,
            reason = "values were filtered with is_finite on the line above"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        let mut clusters = Vec::new();
        let mut current: Vec<f64> = Vec::new();
        for &v in &sorted {
            match current.last() {
                Some(&last) if v - last <= self.eps => current.push(v),
                Some(_) => {
                    if current.len() >= self.min_points {
                        clusters.push(std::mem::take(&mut current));
                    } else {
                        current.clear();
                    }
                    current.push(v);
                }
                None => current.push(v),
            }
        }
        if current.len() >= self.min_points {
            clusters.push(current);
        }
        clusters
    }

    /// Clusters `samples` and derives a [`Discretizer`] whose bucket
    /// boundaries are the midpoints between adjacent clusters — this is
    /// how the Table I bucket thresholds (e.g. "small < 30, medium < 50,
    /// large < 90" CONV layers) are derived from characterization data.
    ///
    /// Returns a single-bucket discretizer when fewer than two clusters
    /// are found.
    pub fn discretizer(&self, samples: &[f64]) -> Discretizer {
        let clusters = self.cluster(samples);
        let mut boundaries = Vec::new();
        for pair in clusters.windows(2) {
            #[expect(
                clippy::expect_used,
                reason = "cluster() only emits runs of at least min_points samples"
            )]
            let left_max = *pair[0].last().expect("clusters are non-empty");
            let right_min = pair[1][0];
            boundaries.push((left_max + right_min) / 2.0);
        }
        Discretizer::new(boundaries)
    }
}

/// Maps a continuous feature value to a discrete bucket index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discretizer {
    boundaries: Vec<f64>,
}

impl Discretizer {
    /// Creates a discretizer from ascending bucket boundaries; a value `x`
    /// falls in bucket `i` where `i` is the number of boundaries `<= x`.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly ascending or not finite.
    pub fn new(boundaries: Vec<f64>) -> Self {
        for w in boundaries.windows(2) {
            assert!(w[0] < w[1], "boundaries must be strictly ascending");
        }
        assert!(
            boundaries.iter().all(|b| b.is_finite()),
            "boundaries must be finite"
        );
        Discretizer { boundaries }
    }

    /// The bucket index of `x`, in `0..=boundaries.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// use autoscale_rl::Discretizer;
    /// // Table I S_CONV buckets: small (<30), medium (<50), large (<90), larger (>=90).
    /// let d = Discretizer::new(vec![30.0, 50.0, 90.0]);
    /// assert_eq!(d.bucket(14.0), 0);
    /// assert_eq!(d.bucket(49.0), 1);
    /// assert_eq!(d.bucket(53.0), 2);
    /// assert_eq!(d.bucket(94.0), 3);
    /// ```
    pub fn bucket(&self, x: f64) -> usize {
        self.boundaries.iter().filter(|&&b| x >= b).count()
    }

    /// Number of buckets (`boundaries.len() + 1`).
    pub fn buckets(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary values.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_well_separated_groups() {
        let db = Dbscan::new(2.0, 2);
        let samples = [1.0, 1.5, 2.0, 10.0, 10.5, 20.0, 20.2, 20.4];
        let clusters = db.cluster(&samples);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], vec![1.0, 1.5, 2.0]);
        assert_eq!(clusters[2].len(), 3);
    }

    #[test]
    fn sparse_points_are_noise() {
        let db = Dbscan::new(1.0, 3);
        let samples = [0.0, 0.5, 1.0, 50.0, 100.0, 100.5, 101.0];
        let clusters = db.cluster(&samples);
        // The lone 50.0 is noise; two proper clusters survive.
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().all(|c| !c.contains(&50.0)));
    }

    #[test]
    fn discretizer_boundaries_sit_between_clusters() {
        let db = Dbscan::new(2.0, 2);
        let samples = [1.0, 2.0, 10.0, 11.0];
        let d = db.discretizer(&samples);
        assert_eq!(d.buckets(), 2);
        assert!((d.boundaries()[0] - 6.0).abs() < 1e-12);
        assert_eq!(d.bucket(3.0), 0);
        assert_eq!(d.bucket(9.0), 1);
    }

    #[test]
    fn single_cluster_yields_single_bucket() {
        let db = Dbscan::new(5.0, 2);
        let d = db.discretizer(&[1.0, 2.0, 3.0]);
        assert_eq!(d.buckets(), 1);
        assert_eq!(d.bucket(-100.0), 0);
        assert_eq!(d.bucket(100.0), 0);
    }

    #[test]
    fn table_i_sconv_buckets_reproduce_from_layer_counts() {
        // Characterization samples: CONV layer counts of the Table III
        // workloads cluster into four groups whose midpoints land near the
        // paper's 30 / 50 / 90 thresholds.
        let conv_counts = [49.0, 94.0, 14.0, 35.0, 23.0, 53.0, 19.0, 52.0, 28.0, 0.0];
        let db = Dbscan::new(10.0, 1);
        let d = db.discretizer(&conv_counts);
        assert_eq!(d.buckets(), 4, "boundaries: {:?}", d.boundaries());
        // The Table III models spread across all four buckets.
        assert_eq!(d.bucket(14.0), d.bucket(23.0));
        assert!(d.bucket(94.0) > d.bucket(53.0));
    }

    #[test]
    fn empty_input_yields_single_bucket() {
        let db = Dbscan::new(1.0, 1);
        let d = db.discretizer(&[]);
        assert_eq!(d.buckets(), 1);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let db = Dbscan::new(1.0, 1);
        let clusters = db.cluster(&[f64::NAN, 1.0, f64::INFINITY, 1.5]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![1.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_boundaries_panic() {
        let _ = Discretizer::new(vec![5.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn non_positive_eps_panics() {
        let _ = Dbscan::new(0.0, 1);
    }
}
