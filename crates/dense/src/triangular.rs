//! Triangular solves with explicit non-finite reporting.
//!
//! §VI-D of the paper distinguishes three ways to solve the final upper
//! triangular system `R y = z` of GMRES' projected least-squares problem.
//! The *standard* solve (Saad & Schultz) is a plain back-substitution; what
//! makes it interesting under SDC is that a (near-)singular or corrupted `R`
//! can produce `Inf`/`NaN` coefficients. These solvers therefore report
//! exactly what happened instead of silently returning garbage.

use crate::matrix::DenseMatrix;

/// Outcome of a triangular solve.
#[derive(Clone, Debug, PartialEq)]
pub enum TriangularOutcome {
    /// All solution components are finite.
    Finite(Vec<f64>),
    /// The solve completed arithmetically but produced at least one
    /// non-finite component (the natural IEEE-754 "loud" error the paper's
    /// Approach 2 listens for). The offending solution is returned so the
    /// caller can inspect it.
    NonFinite(Vec<f64>),
    /// A diagonal entry was exactly zero; back-substitution is undefined
    /// without regularization.
    ZeroDiagonal { index: usize },
}

impl TriangularOutcome {
    /// Unwraps the finite solution, panicking otherwise (test convenience).
    pub fn unwrap_finite(self) -> Vec<f64> {
        match self {
            TriangularOutcome::Finite(v) => v,
            other => panic!("expected finite solution, got {other:?}"),
        }
    }

    /// The solution vector if one was produced (finite or not).
    pub fn solution(&self) -> Option<&[f64]> {
        match self {
            TriangularOutcome::Finite(v) | TriangularOutcome::NonFinite(v) => Some(v),
            TriangularOutcome::ZeroDiagonal { .. } => None,
        }
    }
}

/// Solves `R y = z` by back-substitution for upper-triangular `R`
/// (`n × n`, entries below the diagonal ignored).
pub fn solve_upper(r: &DenseMatrix, z: &[f64]) -> TriangularOutcome {
    let n = r.cols();
    assert!(r.rows() >= n, "solve_upper: R must have at least n rows");
    assert_eq!(z.len(), n, "solve_upper: rhs length");
    let mut y = vec![0.0; n];
    for i in (0..n).rev() {
        let d = r[(i, i)];
        if d == 0.0 {
            return TriangularOutcome::ZeroDiagonal { index: i };
        }
        let mut s = z[i];
        for j in i + 1..n {
            s -= r[(i, j)] * y[j];
        }
        y[i] = s / d;
    }
    if crate::all_finite(&y) {
        TriangularOutcome::Finite(y)
    } else {
        TriangularOutcome::NonFinite(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_solve_known() {
        let r = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let y = solve_upper(&r, &[5.0, 8.0]).unwrap_finite();
        assert!((y[1] - 2.0).abs() < 1e-15);
        assert!((y[0] - 1.5).abs() < 1e-15);
    }

    #[test]
    fn zero_diagonal_reported() {
        let r = DenseMatrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        match solve_upper(&r, &[1.0, 1.0]) {
            TriangularOutcome::ZeroDiagonal { index } => assert_eq!(index, 1),
            other => panic!("expected ZeroDiagonal, got {other:?}"),
        }
    }

    #[test]
    fn overflow_produces_nonfinite_outcome() {
        // A huge off-diagonal with a tiny diagonal drives the solution to
        // overflow: exactly the ill-conditioning scenario of §VI-D.
        let r = DenseMatrix::from_rows(&[&[1e-300, 1e300], &[0.0, 1.0]]);
        match solve_upper(&r, &[1.0, 1.0]) {
            TriangularOutcome::NonFinite(y) => {
                assert!(!y[0].is_finite());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn huge_diagonal_from_class1_fault_stays_finite() {
        // A 1e150-scaled Hessenberg entry lands on the diagonal of R: the
        // standard solve divides by it and stays finite (tiny coefficient),
        // matching the paper's observation that huge orthogonalization
        // faults do not necessarily explode the update coefficients.
        let r = DenseMatrix::from_rows(&[&[1e150, 2.0], &[0.0, 1.0]]);
        let y = solve_upper(&r, &[1.0, 1.0]).unwrap_finite();
        assert!(y[0].abs() < 1e-140);
        assert!((y[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn residual_check_on_random_system() {
        let r = DenseMatrix::from_rows(&[
            &[4.0, -2.0, 1.0, 0.5],
            &[0.0, 3.0, -1.0, 2.0],
            &[0.0, 0.0, 2.5, 1.0],
            &[0.0, 0.0, 0.0, 1.5],
        ]);
        let z = [1.0, 2.0, 3.0, 4.0];
        let y = solve_upper(&r, &z).unwrap_finite();
        let mut ry = vec![0.0; 4];
        r.matvec(&y, &mut ry);
        for i in 0..4 {
            assert!((ry[i] - z[i]).abs() < 1e-13);
        }
    }
}
