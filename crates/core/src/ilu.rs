//! The ILU(0) preconditioner.
//!
//! The paper's experiments run the inner GMRES unpreconditioned, but its
//! framing — inner solves as disposable preconditioner applications —
//! invites stronger inner operators. ILU(0) (incomplete LU with zero
//! fill-in, on the existing sparsity pattern) is the standard choice for
//! the circuit-class problems of §VII-A. It plugs into
//! [`crate::precond::Preconditioner`], so it works as an inner-solve
//! preconditioner or directly under FGMRES.

use crate::precond::Preconditioner;
use sdc_sparse::ilu::{Ilu0Error, Ilu0Factor};
use sdc_sparse::CsrMatrix;

/// The ILU(0) preconditioner: a [`Preconditioner`] wrapper around the
/// sparse substrate's [`Ilu0Factor`] (the factorization math and the
/// stored-factor fault surface live in `sdc_sparse::ilu`).
#[derive(Clone, Debug)]
pub struct Ilu0 {
    factor: Ilu0Factor,
}

impl Ilu0 {
    /// Computes ILU(0) of `a`.
    pub fn factor(a: &CsrMatrix) -> Result<Self, Ilu0Error> {
        Ok(Self { factor: Ilu0Factor::factor(a)? })
    }

    /// Wraps an existing factorization (e.g. one with fault-corrupted
    /// stored factors).
    pub fn from_factor(factor: Ilu0Factor) -> Self {
        Self { factor }
    }

    /// Applies `z = U⁻¹ L⁻¹ q` (the preconditioner solve).
    pub fn solve(&self, q: &[f64], z: &mut [f64]) {
        self.factor.solve(q, z)
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.factor.order()
    }

    /// The underlying stored factorization.
    pub fn factor_data(&self) -> &Ilu0Factor {
        &self.factor
    }

    /// Mutable access to the stored factorization — the
    /// opaque-preconditioner fault surface.
    pub fn factor_data_mut(&mut self) -> &mut Ilu0Factor {
        &mut self.factor
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&mut self, q: &[f64], z: &mut [f64]) {
        Ilu0::solve(self, q, z)
    }
    fn name(&self) -> &'static str {
        "ilu0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::{gmres_solve, GmresConfig};
    use sdc_dense::vector;
    use sdc_sparse::gallery;

    fn b_for(a: &CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // A tridiagonal matrix suffers no fill-in: ILU(0) = full LU, so
        // the preconditioner solve is a direct solve.
        let a = gallery::poisson1d(50);
        let f = Ilu0::factor(&a).unwrap();
        let b = b_for(&a);
        let mut x = vec![0.0; 50];
        f.solve(&b, &mut x);
        for (i, &v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-10, "x[{i}] = {v}");
        }
    }

    #[test]
    fn ilu0_residual_small_on_poisson2d() {
        // On the 5-point stencil ILU(0) is approximate; M⁻¹A should be
        // much better conditioned than A. Test: the preconditioned
        // residual of the exact solution is far below the plain one.
        let a = gallery::poisson2d(12);
        let f = Ilu0::factor(&a).unwrap();
        let b = b_for(&a);
        // One application of M⁻¹ must substantially reduce the residual
        // relative to the zero guess.
        let mut z = vec![0.0; a.nrows()];
        f.solve(&b, &mut z);
        let mut r = vec![0.0; a.nrows()];
        crate::operator::residual(&a, &b, &z, &mut r);
        let rel = vector::nrm2(&r) / vector::nrm2(&b);
        assert!(rel < 0.5, "ILU(0) preconditioner too weak: rel residual {rel}");
    }

    #[test]
    fn ilu0_accelerates_gmres() {
        let a = gallery::convection_diffusion_2d(16, 3.0, 1.0);
        let n = a.nrows();
        let b = b_for(&a);
        let plain_cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (_, plain) = gmres_solve(&a, &b, None, &plain_cfg);

        // Right-preconditioned operator A·M⁻¹ solved for u, x = M⁻¹u.
        let f = Ilu0::factor(&a).unwrap();
        let op = crate::precond::right_preconditioned(&a, |u, z, _| f.solve(u, z));
        let (u, pre) = gmres_solve(&op, &b, None, &plain_cfg);
        let mut x = vec![0.0; n];
        f.solve(&u, &mut x);
        assert!(pre.outcome.is_converged());
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "preconditioned solution error {err}");
        assert!(
            pre.iterations * 2 < plain.iterations,
            "ILU(0) must at least halve the iterations: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn ilu0_rejects_missing_diagonal() {
        let mut coo = sdc_sparse::CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        assert_eq!(Ilu0::factor(&a).unwrap_err(), Ilu0Error::BadPivot { row: 0 });
    }

    #[test]
    fn ilu0_rejects_rectangular() {
        let mut coo = sdc_sparse::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert_eq!(Ilu0::factor(&a).unwrap_err(), Ilu0Error::NotSquare);
    }
}
