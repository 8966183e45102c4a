//! One-sided Jacobi singular value decomposition.
//!
//! The paper (§VI-D) uses "a singular-value decomposition as the
//! rank-revealing factorization, as an easier to implement and no more
//! accurate substitute" for an incrementally-updated rank-revealing
//! decomposition. We follow suit: the one-sided Jacobi method is compact,
//! numerically excellent (high relative accuracy for small singular
//! values — exactly what rank detection needs), and entirely adequate for
//! the small `(k+1) × k` Hessenberg factors GMRES produces.
//!
//! The algorithm orthogonalizes pairs of columns of `A` by plane rotations
//! until all pairs are numerically orthogonal; then `σᵢ = ‖aᵢ‖₂`,
//! `uᵢ = aᵢ/σᵢ`, and the accumulated rotations form `V`.

use crate::matrix::DenseMatrix;
use crate::vector;

/// Error conditions for the SVD routine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvdError {
    /// The input contained NaN or ±Inf; Jacobi rotations cannot converge.
    NonFiniteInput,
    /// The sweep limit was reached before convergence (should not happen
    /// for finite input; reported rather than looping forever).
    NoConvergence,
}

/// The thin SVD `A = U Σ Vᵀ` of an `m × n` matrix with `m ≥ n`
/// (for `m < n` the factorization is computed on `Aᵀ` and swapped).
#[derive(Clone, Debug)]
pub struct Svd {
    /// `m × n` matrix with orthonormal columns.
    pub u: DenseMatrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// `n × n` orthogonal matrix.
    pub v: DenseMatrix,
}

impl Svd {
    /// Largest singular value (0 for an empty matrix).
    pub fn sigma_max(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }

    /// Smallest singular value (0 for an empty matrix).
    pub fn sigma_min(&self) -> f64 {
        self.sigma.last().copied().unwrap_or(0.0)
    }

    /// Numerical rank with relative tolerance `tol`: the number of
    /// singular values `> tol · σ_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let cutoff = tol * self.sigma_max();
        self.sigma.iter().filter(|&&s| s > cutoff).count()
    }

    /// Minimum-norm least-squares solution of `min ‖A y − b‖₂` using the
    /// truncated pseudoinverse: singular values `≤ tol·σ_max` are dropped.
    ///
    /// This is the paper's regularization policy: the solution norm is
    /// bounded by `‖b‖ · σ_max / σ_trunc_min`, no matter how singular the
    /// (possibly corrupted) matrix became.
    pub fn solve_truncated(&self, b: &[f64], tol: f64) -> Vec<f64> {
        let m = self.u.rows();
        let n = self.v.rows();
        assert_eq!(b.len(), m, "solve_truncated: rhs length");
        let cutoff = tol * self.sigma_max();
        let mut y = vec![0.0; n];
        for (i, &s) in self.sigma.iter().enumerate() {
            if s > cutoff && s > 0.0 {
                let c = vector::dot(self.u.col(i), b) / s;
                vector::axpy(c, self.v.col(i), &mut y);
            }
        }
        y
    }

    /// Reconstructs `U Σ Vᵀ` (test utility).
    pub fn reconstruct(&self) -> DenseMatrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let mut us = DenseMatrix::zeros(m, self.sigma.len());
        for (i, &s) in self.sigma.iter().enumerate() {
            let src = self.u.col(i);
            let dst = us.col_mut(i);
            for r in 0..m {
                dst[r] = src[r] * s;
            }
        }
        let vt = self.v.transpose();
        let vt_lead = vt.leading(self.sigma.len(), n);
        us.matmul(&vt_lead)
    }
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of `a` by one-sided Jacobi rotations.
pub fn jacobi_svd(a: &DenseMatrix) -> Result<Svd, SvdError> {
    if !a.all_finite() {
        return Err(SvdError::NonFiniteInput);
    }
    if a.rows() >= a.cols() {
        jacobi_svd_tall(a)
    } else {
        // Work on the transpose and swap factors: A = U Σ Vᵀ ⇔ Aᵀ = V Σ Uᵀ.
        let at = a.transpose();
        let s = jacobi_svd_tall(&at)?;
        Ok(Svd { u: s.v, sigma: s.sigma, v: s.u })
    }
}

fn jacobi_svd_tall(a: &DenseMatrix) -> Result<Svd, SvdError> {
    let m = a.rows();
    let n = a.cols();
    if n == 0 {
        return Ok(Svd { u: DenseMatrix::zeros(m, 0), sigma: vec![], v: DenseMatrix::zeros(0, 0) });
    }

    // Pre-scale to avoid overflow when columns hold fault-scaled (1e150+)
    // entries: Jacobi needs dot products of columns, whose squares would
    // overflow. The scale is a power of two, so it is exact.
    let maxabs = a.norm_max();
    let scale = if maxabs > 1e100 {
        let ex = maxabs.log2().ceil();
        (2.0_f64).powi(-(ex as i32))
    } else if maxabs > 0.0 && maxabs < 1e-100 {
        let ex = maxabs.log2().floor();
        (2.0_f64).powi(-(ex as i32))
    } else {
        1.0
    };

    let mut w = a.clone();
    if scale != 1.0 {
        for c in 0..n {
            vector::scal(scale, w.col_mut(c));
        }
    }
    let mut v = DenseMatrix::identity(n);

    let eps = f64::EPSILON;
    let tol = (m as f64).sqrt() * eps;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of the column pair.
                let (app, aqq, apq) = {
                    let cp = w.col(p);
                    let cq = w.col(q);
                    (vector::dot(cp, cp), vector::dot(cq, cq), vector::dot(cp, cq))
                };
                if app == 0.0 && aqq == 0.0 {
                    continue;
                }
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                if apq.abs() <= tol * denom || denom == 0.0 {
                    continue;
                }
                // Two-sided rotation angle for the 2x2 Gram block.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate columns p and q of W and V.
                rotate_cols(&mut w, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
        if off <= tol {
            converged = true;
            break;
        }
    }
    if !converged {
        // One last orthogonality audit: accept if every pair is orthogonal
        // to a slightly looser tolerance, otherwise report.
        let mut worst = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let cp = w.col(p);
                let cq = w.col(q);
                let denom = (vector::dot(cp, cp) * vector::dot(cq, cq)).sqrt();
                if denom > 0.0 {
                    worst = worst.max(vector::dot(cp, cq).abs() / denom);
                }
            }
        }
        if worst > 1e3 * tol {
            return Err(SvdError::NoConvergence);
        }
    }

    // Extract singular values and left vectors.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|c| vector::nrm2(w.col(c))).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    let mut u = DenseMatrix::zeros(m, n);
    let mut vv = DenseMatrix::zeros(n, n);
    let mut sigma = vec![0.0; n];
    let inv_scale = 1.0 / scale;
    for (k, &c) in order.iter().enumerate() {
        sigma[k] = norms[c] * inv_scale;
        let src = w.col(c);
        let dst = u.col_mut(k);
        if norms[c] > 0.0 {
            let inv = 1.0 / norms[c];
            for r in 0..m {
                dst[r] = src[r] * inv;
            }
        } else {
            // Zero column: leave U column zero (still a valid thin SVD for
            // rank-deficient input as long as sigma is 0).
        }
        vv.col_mut(k).copy_from_slice(v.col(c));
    }

    Ok(Svd { u, sigma, v: vv })
}

#[inline]
fn rotate_cols(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let rows = m.rows();
    // Split borrow: p < q always.
    debug_assert!(p < q);
    for r in 0..rows {
        let vp = m[(r, p)];
        let vq = m[(r, q)];
        m[(r, p)] = c * vp - s * vq;
        m[(r, q)] = s * vp + c * vq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_svd_valid(a: &DenseMatrix, tol: f64) -> Svd {
        let s = jacobi_svd(a).expect("svd failed");
        // Reconstruction.
        let rec = s.reconstruct();
        let scale = a.norm_fro().max(1.0);
        assert!(
            rec.max_diff(a) < tol * scale,
            "reconstruction error {} vs tol {}",
            rec.max_diff(a),
            tol * scale
        );
        // Descending order.
        for wpair in s.sigma.windows(2) {
            assert!(wpair[0] >= wpair[1] - 1e-300, "sigma not sorted: {:?}", s.sigma);
        }
        // Nonnegative.
        assert!(s.sigma.iter().all(|&x| x >= 0.0));
        s
    }

    #[test]
    fn diagonal_matrix() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -7.0]]);
        let s = assert_svd_valid(&a, 1e-13);
        assert!((s.sigma[0] - 7.0).abs() < 1e-12);
        assert!((s.sigma[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_rank_one() {
        // Outer product has rank 1 with sigma = ‖u‖‖v‖.
        let a = DenseMatrix::from_rows(&[&[2.0, 4.0], &[1.0, 2.0], &[3.0, 6.0]]);
        let s = assert_svd_valid(&a, 1e-12);
        assert!(s.sigma[1] < 1e-12 * s.sigma[0]);
        assert_eq!(s.rank(1e-10), 1);
    }

    #[test]
    fn tall_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.5], &[-2.0, 1.0], &[0.0, 3.0], &[4.0, -1.0]]);
        let s = assert_svd_valid(&a, 1e-12);
        // U has orthonormal columns.
        let utu = s.u.transpose().matmul(&s.u);
        assert!(utu.max_diff(&DenseMatrix::identity(2)) < 1e-12);
        // V orthogonal.
        let vtv = s.v.transpose().matmul(&s.v);
        assert!(vtv.max_diff(&DenseMatrix::identity(2)) < 1e-12);
    }

    #[test]
    fn wide_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = assert_svd_valid(&a, 1e-12);
        assert_eq!(s.u.rows(), 2);
        assert_eq!(s.v.rows(), 3);
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(3, 2);
        let s = jacobi_svd(&a).unwrap();
        assert_eq!(s.sigma, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_matrix() {
        let a = DenseMatrix::zeros(3, 0);
        let s = jacobi_svd(&a).unwrap();
        assert!(s.sigma.is_empty());
        assert_eq!(s.sigma_max(), 0.0);
    }

    #[test]
    fn nonfinite_input_is_rejected() {
        let mut a = DenseMatrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert_eq!(jacobi_svd(&a).unwrap_err(), SvdError::NonFiniteInput);
    }

    #[test]
    fn fault_scaled_entries_do_not_overflow() {
        // Hessenberg matrix with a 1e150 entry from a class-1 SDC event.
        let a = DenseMatrix::from_rows(&[
            &[1e150, 1.0, 0.2],
            &[0.5, 2.0, 0.1],
            &[0.0, 0.7, 1.5],
            &[0.0, 0.0, 0.3],
        ]);
        let s = jacobi_svd(&a).expect("svd must handle huge entries");
        assert!(s.sigma_max() > 1e149);
        assert!(s.sigma.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn truncated_solve_bounds_solution() {
        // Nearly singular system: the standard solve would produce a huge
        // y; the truncated solve keeps it bounded.
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-280]]);
        let s = jacobi_svd(&a).unwrap();
        let y = s.solve_truncated(&[1.0, 1.0], 1e-12);
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert_eq!(y[1], 0.0, "tiny singular value must be truncated");
    }

    #[test]
    fn truncated_solve_full_rank_matches_exact() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0], &[1.0, -1.0]]);
        let b = [1.0, 2.0, 0.5];
        let s = jacobi_svd(&a).unwrap();
        let y = s.solve_truncated(&b, 1e-14);
        // Compare to Householder least squares.
        let y2 = crate::householder::householder_qr(&a).solve_lstsq(&b).unwrap();
        for i in 0..2 {
            assert!((y[i] - y2[i]).abs() < 1e-10, "{y:?} vs {y2:?}");
        }
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let s = assert_svd_valid(&a, 1e-12);
        // det(A) = -2 => product of sigmas = 2; ‖A‖_F² = 30 = σ1²+σ2².
        let prod = s.sigma[0] * s.sigma[1];
        let ssq = s.sigma[0].powi(2) + s.sigma[1].powi(2);
        assert!((prod - 2.0).abs() < 1e-10);
        assert!((ssq - 30.0).abs() < 1e-10);
    }
}
