//! Norm estimation for sparse operators.
//!
//! The paper's detector bound (Eq. 3) is `|h_ij| ≤ ‖A‖₂ ≤ ‖A‖_F`, and
//! Table I reports both norms as "potential fault detectors". `‖A‖_F` is
//! one pass over the stored values; `‖A‖₂ = σ_max(A)` is estimated by
//! power iteration on `AᵀA`, which converges monotonically from below —
//! important to note, because a *lower* bound on `‖A‖₂` used as a detector
//! threshold can only make the detector more aggressive, never unsound
//! with respect to `‖A‖_F` filtering.

use crate::csr::CsrMatrix;
use sdc_dense::vector;

/// Result of the 2-norm power iteration.
#[derive(Clone, Copy, Debug)]
pub struct Norm2Estimate {
    /// The estimated `‖A‖₂` (a lower bound, converging to the true value).
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Relative change of the estimate in the final iteration.
    pub last_rel_change: f64,
}

/// Estimates `‖A‖₂` by power iteration on `AᵀA`, stopping after
/// `max_iters` iterations or when the estimate changes by less than
/// `rel_tol` relatively.
pub fn norm2_est(a: &CsrMatrix, max_iters: usize, rel_tol: f64) -> Norm2Estimate {
    let n = a.ncols();
    let m = a.nrows();
    if n == 0 || m == 0 || a.nnz() == 0 {
        return Norm2Estimate { value: 0.0, iterations: 0, last_rel_change: 0.0 };
    }
    // Deterministic quasi-random start vector avoids adversarial alignment
    // with the null space while keeping runs reproducible.
    let mut x: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.0) * 0.754_877).sin() + 0.25).collect();
    vector::normalize(&mut x);
    let mut ax = vec![0.0; m];
    let mut atax = vec![0.0; n];
    let mut est = 0.0f64;
    let mut change = 0.0;
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        a.par_spmv(&x, &mut ax);
        let new_est = vector::nrm2(&ax);
        if new_est == 0.0 {
            return Norm2Estimate { value: 0.0, iterations: iters, last_rel_change: 0.0 };
        }
        change = (new_est - est).abs() / new_est;
        est = new_est;
        if change < rel_tol && it > 2 {
            break;
        }
        a.spmv_transpose(&ax, &mut atax);
        x.copy_from_slice(&atax);
        if vector::normalize(&mut x) == 0.0 {
            break;
        }
    }
    Norm2Estimate { value: est, iterations: iters, last_rel_change: change }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::ops::tridiag_toeplitz;

    #[test]
    fn norm2_of_diagonal_is_max_abs() {
        let a = CsrMatrix::from_diagonal(&[1.0, -9.0, 3.0]);
        let est = norm2_est(&a, 200, 1e-12);
        assert!((est.value - 9.0).abs() < 1e-8, "{est:?}");
    }

    #[test]
    fn norm2_below_frobenius() {
        let a = gallery::poisson2d(12);
        let est = norm2_est(&a, 300, 1e-12);
        assert!(est.value <= a.norm_fro() * (1.0 + 1e-12));
    }

    #[test]
    fn poisson_norm2_matches_eigenvalue_formula() {
        // gallery('poisson',m) has eigenvalues
        // 4 − 2cos(iπ/(m+1)) − 2cos(jπ/(m+1)); the largest is
        // 4 + 4cos(π/(m+1)).
        let m = 20;
        let a = gallery::poisson2d(m);
        let exact = 4.0 + 4.0 * (std::f64::consts::PI / (m as f64 + 1.0)).cos();
        let est = norm2_est(&a, 2000, 1e-13);
        assert!(
            (est.value - exact).abs() < 1e-6 * exact,
            "power est {} vs exact {exact}",
            est.value
        );
    }

    #[test]
    fn empty_matrix_estimate_zero() {
        let a = crate::coo::CooMatrix::new(5, 5).to_csr();
        assert_eq!(norm2_est(&a, 10, 1e-10).value, 0.0);
    }

    #[test]
    fn tridiagonal_norm2_known() {
        // tridiag(-1,2,-1) of order n has ‖A‖₂ = 2 + 2cos(π/(n+1)).
        let n = 64;
        let a = tridiag_toeplitz(n, -1.0, 2.0, -1.0);
        let exact = 2.0 + 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let est = norm2_est(&a, 3000, 1e-13);
        assert!((est.value - exact).abs() < 1e-6, "{} vs {exact}", est.value);
    }
}
