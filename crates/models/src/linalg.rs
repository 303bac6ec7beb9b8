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

    /// Creates a matrix from a row-major data vector.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// k-panel width for [`Matrix::mul`]: a 64-row panel of `rhs` stays
    /// L2-resident across every output row it feeds.
    const MUL_BLOCK: usize = 64;

    /// Matrix product `self × rhs`, blocked over `MUL_BLOCK`-row panels
    /// of `rhs`: instead of streaming the whole right operand once per
    /// output row (the naive order re-reads it `rows` times from
    /// memory), each panel is reused across *all* output rows while
    /// cache-hot, and the inner loop runs over bounds-check-free row
    /// slices. For each output element the k-accumulation order is
    /// identical to [`Matrix::mul_naive`] (panels ascend, k ascends
    /// within a panel), so the result is bit-for-bit equal to the naive
    /// triple loop.
    ///
    /// Panics on inner-dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        for k0 in (0..self.cols).step_by(Self::MUL_BLOCK) {
            let k_end = (k0 + Self::MUL_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for k in k0..k_end {
                    let a = self.data[i * self.cols + k];
                    if a == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs.data[k * n..(k + 1) * n];
                    for (o, r) in out_row.iter_mut().zip(rhs_row) {
                        *o += a * r;
                    }
                }
            }
        }
        out
    }

    /// The naive O(n³) triple loop `mul` used to be — kept as the
    /// reference implementation for the differential tests and the
    /// criterion datapoint quantifying the blocking win.
    pub fn mul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
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

    /// `A·v` through the matrix product.
    fn mul_vec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        let col = a.mul(&Matrix::from_vec(v.len(), 1, v.to_vec()));
        (0..a.rows).map(|i| col[(i, 0)]).collect()
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
    fn mul_matches_hand_example() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.mul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn cholesky_of_known_spd() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky().unwrap();
        // L = [[2, 0], [1, √2]].
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // indefinite
        assert!(a.cholesky().is_none());
        let r = Matrix::from_vec(2, 3, vec![0.0; 6]); // not square
        assert!(r.cholesky().is_none());
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = mul_vec(&a, &x_true);
        let x = a.cholesky().unwrap().solve_cholesky(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn submatrix_extracts() {
        let a = Matrix::from_vec(3, 3, (1..=9).map(f64::from).collect());
        let s = a.submatrix(&[0, 2], &[1]);
        assert_eq!(s, Matrix::from_vec(2, 1, vec![2.0, 8.0]));
    }

    /// Deterministic pseudo-random matrix for differential tests.
    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    #[test]
    fn blocked_mul_is_bit_identical_to_naive_across_shapes() {
        // Shapes straddling the 64-wide block edge in every dimension,
        // including non-square and degenerate ones.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (63, 64, 65),
            (64, 64, 64),
            (65, 1, 65),
            (1, 130, 64),
            (100, 70, 129),
        ] {
            let a = filled(m, k, (m * 1000 + k) as u64);
            let b = filled(k, n, (k * 1000 + n) as u64);
            let blocked = a.mul(&b);
            let naive = a.mul_naive(&b);
            // Identical accumulation order ⇒ bit-for-bit equality, not
            // just within-epsilon.
            assert_eq!(blocked, naive, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn blocked_mul_skips_zeros_like_naive() {
        let mut a = filled(70, 70, 7);
        for i in 0..70 {
            for j in 0..70 {
                if (i + j) % 3 == 0 {
                    a[(i, j)] = 0.0;
                }
            }
        }
        let b = filled(70, 70, 8);
        assert_eq!(a.mul(&b), a.mul_naive(&b));
    }

    proptest! {
        #[test]
        fn blocked_mul_matches_naive_random(
            vals_a in proptest::collection::vec(-2.0f64..2.0, 30),
            vals_b in proptest::collection::vec(-2.0f64..2.0, 36),
        ) {
            let a = Matrix::from_vec(5, 6, vals_a);
            let b = Matrix::from_vec(6, 6, vals_b);
            prop_assert_eq!(a.mul(&b), a.mul_naive(&b));
        }
    }

    proptest! {
        #[test]
        fn solve_random_spd(vals in proptest::collection::vec(-2.0f64..2.0, 16), rhs in proptest::collection::vec(-5.0f64..5.0, 4)) {
            // Build SPD as BBᵀ + εI.
            let mut a = gram(&Matrix::from_vec(4, 4, vals));
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
