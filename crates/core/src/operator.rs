//! The linear-operator abstraction.
//!
//! GMRES only needs `y = A x`; abstracting it keeps the solvers usable
//! with explicit sparse matrices, matrix-free stencils, and the test
//! suite's synthetic operators alike.

use sdc_sparse::{CsrMatrix, FormatMatrix, SellMatrix};

/// Anything that can apply itself to a vector.
pub trait LinearOperator: Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;
    /// Number of columns of the operator.
    fn ncols(&self) -> usize;
    /// Computes `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// True if the operator is square.
    fn is_square(&self) -> bool {
        self.nrows() == self.ncols()
    }
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.par_spmv(x, y);
    }
}

impl LinearOperator for SellMatrix {
    fn nrows(&self) -> usize {
        SellMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        SellMatrix::ncols(self)
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.par_spmv(x, y);
    }
}

// A format-committed matrix is an operator too, so campaigns can feed
// either engine to any solver (outer SpMV *and* the inner/preconditioner
// solves, which reuse the same operator). The SELL kernel is bitwise
// identical to CSR, so swapping formats here cannot change a result.
impl LinearOperator for FormatMatrix {
    fn nrows(&self) -> usize {
        FormatMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        FormatMatrix::ncols(self)
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.par_spmv(x, y);
    }
}

/// A matrix-free operator defined by a closure.
pub struct FnOperator<F: Fn(&[f64], &mut [f64]) + Sync> {
    nrows: usize,
    ncols: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> FnOperator<F> {
    /// Wraps a closure as a square `n × n` operator.
    pub fn square(n: usize, f: F) -> Self {
        Self { nrows: n, ncols: n, f }
    }

    /// Wraps a closure as an `nrows × ncols` operator.
    pub fn new(nrows: usize, ncols: usize, f: F) -> Self {
        Self { nrows, ncols, f }
    }
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> LinearOperator for FnOperator<F> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
}

/// Computes the residual `r = b − A x` (reliable helper used by outer
/// solvers and verification).
pub fn residual<A: LinearOperator + ?Sized>(a: &A, b: &[f64], x: &[f64], r: &mut [f64]) {
    a.apply(x, r);
    for i in 0..r.len() {
        r[i] = b[i] - r[i];
    }
}

/// The true relative residual `‖b − A x‖₂ / ‖b‖₂` (guarded against a
/// zero `b`): the reliable check every solve's answer is reported with.
pub fn true_rel_residual<A: LinearOperator + ?Sized>(a: &A, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    residual(a, b, x, &mut r);
    sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(b).max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_sparse::gallery;

    #[test]
    fn csr_operator_applies() {
        let a = gallery::poisson1d(4);
        let x = [1.0, 1.0, 1.0, 1.0];
        let mut y = [0.0; 4];
        LinearOperator::apply(&a, &x, &mut y);
        assert_eq!(y, [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn fn_operator_scales() {
        let op = FnOperator::square(3, |x, y| {
            for i in 0..3 {
                y[i] = 2.0 * x[i];
            }
        });
        assert_eq!(op.nrows(), 3);
        assert!(op.is_square());
        let mut y = [0.0; 3];
        op.apply(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, [2.0, 4.0, 6.0]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = gallery::poisson1d(5);
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        let mut b = [0.0; 5];
        LinearOperator::apply(&a, &x, &mut b);
        let mut r = [0.0; 5];
        residual(&a, &b, &x, &mut r);
        assert!(r.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn format_operators_match_csr_bitwise() {
        use sdc_sparse::SparseFormat;
        let a = gallery::poisson2d(12);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut y_csr = vec![0.0; a.nrows()];
        LinearOperator::apply(&a, &x, &mut y_csr);

        let sell = sdc_sparse::SellMatrix::from_csr(&a);
        let mut y = vec![0.0; a.nrows()];
        LinearOperator::apply(&sell, &x, &mut y);
        assert!(y.iter().zip(&y_csr).all(|(p, q)| p.to_bits() == q.to_bits()));

        for fmt in [SparseFormat::Csr, SparseFormat::Sell, SparseFormat::Auto] {
            let m = FormatMatrix::convert(&a, fmt);
            let dyn_op: &dyn LinearOperator = &m;
            assert_eq!(dyn_op.nrows(), a.nrows());
            let mut y = vec![0.0; a.nrows()];
            dyn_op.apply(&x, &mut y);
            assert!(
                y.iter().zip(&y_csr).all(|(p, q)| p.to_bits() == q.to_bits()),
                "format {fmt:?} diverged from CSR"
            );
        }
    }

    #[test]
    fn reference_blanket_impl() {
        let a = gallery::poisson1d(3);
        let r: &CsrMatrix = &a;
        assert_eq!(LinearOperator::nrows(&r), 3);
    }
}
