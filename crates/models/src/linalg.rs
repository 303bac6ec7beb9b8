//! Minimal dense linear algebra: just enough for the spatial Gaussian
//! model (symmetric positive-definite solves via Cholesky).
//!
//! Written in-tree because the allowed dependency set contains no linear
//! algebra crate; the matrices involved are tiny (one row/column per
//! sensor in a proxy's neighbourhood, i.e. tens).

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix. Returns `None` if the matrix is not (numerically) SPD.
    pub fn cholesky(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Given `self = L` (lower triangular Cholesky factor), solves
    /// `L·Lᵀ·x = b` by forward then backward substitution.
    pub fn solve_cholesky(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n);
        // Forward: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self[(i, k)] * y[k];
            }
            y[i] = sum / self[(i, i)];
        }
        // Backward: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self[(k, i)] * x[k];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Extracts the submatrix with the given row and column index sets.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out[(oi, oj)] = self[(i, j)];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A matrix from a row-major data vector.
    fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// `A·v`.
    fn mul_vec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows)
            .map(|i| (0..a.cols).map(|k| a[(i, k)] * v[k]).sum())
            .collect()
    }

    /// `B·Bᵀ`, symmetric positive semi-definite for any `B`.
    fn gram(b: &Matrix) -> Matrix {
        let n = b.rows;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                g[(i, j)] = (0..b.cols).map(|k| b[(i, k)] * b[(j, k)]).sum();
            }
        }
        g
    }

    #[test]
    fn cholesky_of_known_spd() {
        let a = from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky().unwrap();
        // L = [[2, 0], [1, √2]].
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // indefinite
        assert!(a.cholesky().is_none());
        let r = from_vec(2, 3, vec![0.0; 6]); // not square
        assert!(r.cholesky().is_none());
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = mul_vec(&a, &x_true);
        let x = a.cholesky().unwrap().solve_cholesky(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn submatrix_extracts() {
        let a = from_vec(3, 3, (1..=9).map(f64::from).collect());
        let s = a.submatrix(&[0, 2], &[1]);
        assert_eq!(s, from_vec(2, 1, vec![2.0, 8.0]));
    }

    proptest! {
        #[test]
        fn solve_random_spd(vals in proptest::collection::vec(-2.0f64..2.0, 16), rhs in proptest::collection::vec(-5.0f64..5.0, 4)) {
            // Build SPD as BBᵀ + εI.
            let mut a = gram(&from_vec(4, 4, vals));
            for i in 0..4 {
                a[(i, i)] += 0.5;
            }
            let x = a.cholesky().unwrap().solve_cholesky(&rhs);
            let back = mul_vec(&a, &x);
            for (u, v) in back.iter().zip(&rhs) {
                prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
