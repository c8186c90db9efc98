//! A minimal dense linear-algebra kernel: just enough for normal
//! equations, Cholesky-based Gaussian-process solves, and the other
//! learners in this crate. Row-major `f64` storage throughout.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have rows");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have columns");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "rows must have equal length"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element (i, j).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of range");
        self.data[i * self.cols + j]
    }

    /// Sets element (i, j).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index out of range");
        self.data[i * self.cols + j] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    let v = out.get(i, j) + a * other.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self.get(i, j) * v[j]).sum())
            .collect()
    }

    /// Adds `lambda` to the diagonal (ridge / jitter).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let v = self.get(i, i) + lambda;
            self.set(i, i, v);
        }
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if a pivot is (numerically) zero.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "rhs length must equal row count");
    let n = a.rows();
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        #[expect(
            clippy::expect_used,
            reason = "the pivot search range col..rows is non-empty"
        )]
        let pivot_row = (col..n)
            .max_by(
                #[expect(
                    clippy::expect_used,
                    reason = "matrix entries are finite by construction"
                )]
                |&r1, &r2| {
                    m.get(r1, col)
                        .abs()
                        .partial_cmp(&m.get(r2, col).abs())
                        .expect("finite values")
                },
            )
            .expect("non-empty range");
        if m.get(pivot_row, col).abs() < 1e-12 {
            return Err(SingularMatrixError);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot_row, j));
                m.set(pivot_row, j, tmp);
            }
            x.swap(col, pivot_row);
        }
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = m.get(row, col) / m.get(col, col);
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m.get(row, j) - factor * m.get(col, j);
                m.set(row, j, v);
            }
            x[row] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut sum = x[col];
        for (j, &xj) in x.iter().enumerate().skip(col + 1) {
            sum -= m.get(col, j) * xj;
        }
        x[col] = sum / m.get(col, col);
    }
    Ok(x)
}

/// The lower-triangular Cholesky factor `L` with `L Lᵀ = A`, for a
/// symmetric positive-definite `A`.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if `A` is not positive definite.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn cholesky(a: &Matrix) -> Result<Matrix, SingularMatrixError> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SingularMatrixError);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` given the Cholesky factor `L` of `A` (forward then
/// backward substitution).
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n, "rhs length must equal factor size");
    // Forward: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for (k, &yk) in y.iter().enumerate().take(i) {
            sum -= l.get(i, k) * yk;
        }
        y[i] = sum / l.get(i, i);
    }
    // Backward: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            sum -= l.get(k, i) * xk;
        }
        x[i] = sum / l.get(i, i);
    }
    x
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Error: the matrix was singular (or not positive definite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("matrix is singular or not positive definite")
    }
}

impl std::error::Error for SingularMatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_handles_permuted_pivots() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(SingularMatrixError));
    }

    #[test]
    fn cholesky_factorizes_spd() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        let rebuilt = l.matmul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!((rebuilt.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solve_matches_direct_solve() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 3.0, 0.4],
            vec![0.6, 0.4, 2.0],
        ]);
        let b = [1.0, 2.0, 3.0];
        let direct = solve(&a, &b).unwrap();
        let l = cholesky(&a).unwrap();
        let chol = cholesky_solve(&l, &b);
        for (d, c) in direct.iter().zip(&chol) {
            assert!((d - c).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(cholesky(&a), Err(SingularMatrixError));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let prod = a.matmul(&Matrix::identity(2));
        assert_eq!(prod, a);
        assert_eq!(a.transpose().get(0, 1), 3.0);
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn ridge_changes_diagonal_only() {
        let mut a = Matrix::identity(2);
        a.add_diagonal(0.5);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "rows must have equal length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
