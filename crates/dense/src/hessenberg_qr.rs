//! Incremental Givens-QR factorization of the GMRES upper Hessenberg matrix.
//!
//! At iteration `k` GMRES must solve the projected least-squares problem
//! (Eq. 4 of the paper):
//!
//! ```text
//! min_y ‖ H_k y − β e₁ ‖₂ ,     H_k ∈ ℝ^{(k+1)×k} upper Hessenberg.
//! ```
//!
//! Saad & Schultz's structured QR keeps one Givens rotation per column; each
//! new Hessenberg column is reduced by the stored rotations plus one new
//! rotation, the rotated right-hand side `g = Ω β e₁` is updated in `O(1)`,
//! and `|g[k]|` *is* the current residual norm — GMRES gets its famous free
//! residual recurrence. Total cost per iteration: `O(k)` instead of `O(k³)`.
//!
//! The triangular factor is retained explicitly so the §VI-D least-squares
//! policies (standard / fallback / rank-revealing) can operate on
//! `R y = g[0..k]` directly.

use crate::givens::GivensRotation;
use crate::matrix::DenseMatrix;

/// Incremental QR of a growing `(k+1) × k` upper Hessenberg matrix.
#[derive(Clone, Debug)]
pub struct HessenbergQr {
    /// Columns of the upper-triangular factor; `r_cols[j]` has `j+1` entries.
    r_cols: Vec<Vec<f64>>,
    /// One rotation per processed column.
    rotations: Vec<GivensRotation>,
    /// Rotated right-hand side; length `k+1`. `g[k]` is the signed residual.
    g: Vec<f64>,
    /// Initial residual norm β (the problem's right-hand side is `β e₁`).
    beta: f64,
}

impl HessenbergQr {
    /// Starts a factorization for the right-hand side `β e₁`.
    pub fn new(beta: f64) -> Self {
        Self { r_cols: Vec::new(), rotations: Vec::new(), g: vec![beta], beta }
    }

    /// Number of columns processed so far.
    #[inline]
    pub fn k(&self) -> usize {
        self.r_cols.len()
    }

    /// The initial residual norm β.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Appends Hessenberg column `j = k()` and returns the new least-squares
    /// residual norm `|g[k+1]|`.
    ///
    /// `h` must contain the `j+2` entries `h[0..=j+1]` of the new column
    /// (the final entry is the subdiagonal `h_{j+2,j+1}` in 1-based paper
    /// notation).
    pub fn push_column(&mut self, h: &[f64]) -> f64 {
        let j = self.k();
        assert_eq!(h.len(), j + 2, "push_column: column {j} must have {} entries", j + 2);
        let mut col = h.to_vec();
        // Apply the stored rotations to the new column.
        for (i, rot) in self.rotations.iter().enumerate() {
            rot.apply_to_column(&mut col, i);
        }
        // New rotation annihilates the subdiagonal entry.
        let rot = GivensRotation::compute(col[j], col[j + 1]);
        col[j] = rot.r;
        col.truncate(j + 1);
        self.rotations.push(rot);
        self.r_cols.push(col);
        // Update the rotated RHS: g grows by one (zero), rotated in rows (j, j+1).
        self.g.push(0.0);
        let (a, b) = rot.apply(self.g[j], self.g[j + 1]);
        self.g[j] = a;
        self.g[j + 1] = b;
        self.residual_norm()
    }

    /// The current least-squares residual norm `|g[k]|` — in exact
    /// arithmetic this equals `‖b − A x_k‖₂` for GMRES.
    #[inline]
    pub fn residual_norm(&self) -> f64 {
        self.g[self.k()].abs()
    }

    /// The `k × k` upper-triangular factor as a dense matrix.
    pub fn r_matrix(&self) -> DenseMatrix {
        let k = self.k();
        let mut r = DenseMatrix::zeros(k, k);
        for (j, col) in self.r_cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                r[(i, j)] = v;
            }
        }
        r
    }

    /// The leading `k` entries of the rotated right-hand side (the `z` of
    /// `R y = z`).
    pub fn rhs(&self) -> &[f64] {
        &self.g[..self.k()]
    }

    /// True if all stored factors are finite — corrupted Hessenberg entries
    /// (e.g. a class-1 SDC of magnitude 1e150 followed by overflow) surface
    /// here.
    pub fn all_finite(&self) -> bool {
        self.g.iter().all(|x| x.is_finite())
            && self.r_cols.iter().all(|c| c.iter().all(|x| x.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::householder_qr;
    use crate::triangular::solve_upper;

    /// Builds the dense (k+1) x k Hessenberg from explicit columns.
    fn dense_hessenberg(cols: &[Vec<f64>]) -> DenseMatrix {
        let k = cols.len();
        let mut h = DenseMatrix::zeros(k + 1, k);
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                h[(i, j)] = v;
            }
        }
        h
    }

    fn hess_columns() -> Vec<Vec<f64>> {
        vec![
            vec![2.0, 1.0],
            vec![0.5, 3.0, 0.7],
            vec![-1.0, 0.25, 2.0, 0.3],
            vec![0.1, -0.5, 1.0, 1.5, 0.9],
        ]
    }

    #[test]
    fn residual_matches_reference_lstsq() {
        let cols = hess_columns();
        let beta = 1.7;
        let mut qr = HessenbergQr::new(beta);
        for (j, col) in cols.iter().enumerate() {
            let res = qr.push_column(col);
            // Reference: dense Householder least squares on H(1:j+2, 1:j+1).
            let h = dense_hessenberg(&cols[..=j]);
            let mut b = vec![0.0; j + 2];
            b[0] = beta;
            let y = householder_qr(&h).solve_lstsq(&b).unwrap();
            let mut hy = vec![0.0; j + 2];
            h.matvec(&y, &mut hy);
            let ref_res = crate::vector::nrm2(
                &b.iter().zip(hy.iter()).map(|(a, c)| a - c).collect::<Vec<_>>(),
            );
            assert!(
                (res - ref_res).abs() < 1e-12 * ref_res.max(1.0),
                "iteration {j}: incremental {res} vs reference {ref_res}"
            );
        }
    }

    #[test]
    fn solution_matches_reference_lstsq() {
        let cols = hess_columns();
        let beta = 0.9;
        let mut qr = HessenbergQr::new(beta);
        for col in &cols {
            qr.push_column(col);
        }
        let y = solve_upper(&qr.r_matrix(), qr.rhs()).unwrap_finite();
        let h = dense_hessenberg(&cols);
        let mut b = vec![0.0; cols.len() + 1];
        b[0] = beta;
        let yref = householder_qr(&h).solve_lstsq(&b).unwrap();
        for i in 0..y.len() {
            assert!((y[i] - yref[i]).abs() < 1e-12, "{y:?} vs {yref:?}");
        }
    }

    #[test]
    fn residual_is_monotone_nonincreasing() {
        // GMRES' hallmark property, inherited by the QR recurrence.
        let cols = hess_columns();
        let mut qr = HessenbergQr::new(2.0);
        let mut prev = 2.0;
        for col in &cols {
            let res = qr.push_column(col);
            assert!(res <= prev + 1e-15, "residual increased: {res} > {prev}");
            prev = res;
        }
    }

    #[test]
    fn exact_solve_drives_residual_to_zero() {
        // If the subdiagonal entry is zero, the space is invariant and the
        // residual must vanish ("happy breakdown").
        let mut qr = HessenbergQr::new(1.0);
        qr.push_column(&[2.0, 1.0]);
        let res = qr.push_column(&[1.0, 1.0, 0.0]);
        assert!(res < 1e-15);
    }

    #[test]
    fn r_is_upper_triangular_by_construction() {
        let cols = hess_columns();
        let mut qr = HessenbergQr::new(1.0);
        for col in &cols {
            qr.push_column(col);
        }
        let r = qr.r_matrix();
        for j in 0..r.cols() {
            for i in j + 1..r.rows() {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        assert_eq!(qr.k(), 4);
        assert_eq!(qr.rhs().len(), 4);
    }

    #[test]
    fn huge_fault_entry_keeps_factorization_finite() {
        // Class-1 SDC: an h entry scaled by 1e150 flows through the
        // rotations without overflow (rotations are norm-preserving).
        let mut qr = HessenbergQr::new(1.0);
        qr.push_column(&[1e150, 1.0]);
        let res = qr.push_column(&[0.5, 2.0, 0.25]);
        assert!(qr.all_finite());
        assert!(res.is_finite());
    }

    #[test]
    fn nan_fault_is_visible_via_all_finite() {
        let mut qr = HessenbergQr::new(1.0);
        qr.push_column(&[f64::NAN, 1.0]);
        assert!(!qr.all_finite());
    }

    #[test]
    fn beta_zero_residual_zero() {
        let mut qr = HessenbergQr::new(0.0);
        let res = qr.push_column(&[1.0, 0.5]);
        assert_eq!(res, 0.0);
    }
}
