//! ILU(0) and SSOR preconditioners.
//!
//! The paper's experiments run the inner GMRES unpreconditioned, but its
//! framing — inner solves as disposable preconditioner applications —
//! invites stronger inner operators. ILU(0) (incomplete LU with zero
//! fill-in, on the existing sparsity pattern) is the standard choice for
//! the circuit-class problems of §VII-A; SSOR needs no factorization at
//! all. Both plug into [`crate::precond::Preconditioner`], so they work
//! as inner-solve preconditioners or directly under FGMRES.

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

/// Symmetric successive over-relaxation preconditioner
/// `M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + Lᵀ or U)` applied via two
/// triangular sweeps. No factorization required; `ω ∈ (0, 2)`.
#[derive(Clone, Debug)]
pub struct Ssor {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    omega: f64,
}

impl Ssor {
    /// Builds an SSOR preconditioner with relaxation factor `omega`.
    ///
    /// # Panics
    /// Panics if `omega` is outside `(0, 2)` or the matrix is not square.
    pub fn new(a: &CsrMatrix, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "SSOR: omega must be in (0,2)");
        assert_eq!(a.nrows(), a.ncols(), "SSOR: matrix must be square");
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d != 0.0 && d.is_finite() { 1.0 / d } else { 1.0 })
            .collect();
        Self { a: a.clone(), inv_diag, omega }
    }
}

impl Preconditioner for Ssor {
    fn apply(&mut self, q: &[f64], z: &mut [f64]) {
        let n = self.a.nrows();
        assert_eq!(q.len(), n);
        assert_eq!(z.len(), n);
        let w = self.omega;
        // Forward sweep: (D/ω + L) y = q.
        for i in 0..n {
            let (cols, vals) = self.a.row(i);
            let mut s = q[i];
            for (c, v) in cols.iter().zip(vals.iter()) {
                if *c < i {
                    s -= v * z[*c];
                }
            }
            z[i] = s * self.inv_diag[i] * w;
        }
        // Backward sweep: (D/ω + U) z = (D/ω) y, with y currently in z.
        for i in (0..n).rev() {
            let (cols, vals) = self.a.row(i);
            let mut s = z[i] / (self.inv_diag[i] * w);
            for (c, v) in cols.iter().zip(vals.iter()) {
                if *c > i {
                    s -= v * z[*c];
                }
            }
            z[i] = s * self.inv_diag[i] * w;
        }
    }
    fn name(&self) -> &'static str {
        "ssor"
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
        use crate::operator::FnOperator;
        let a = gallery::convection_diffusion_2d(16, 3.0, 1.0);
        let n = a.nrows();
        let b = b_for(&a);
        let plain_cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (_, plain) = gmres_solve(&a, &b, None, &plain_cfg);

        // Right-preconditioned operator A·M⁻¹ solved for u, x = M⁻¹u.
        let f = Ilu0::factor(&a).unwrap();
        let op = FnOperator::square(n, |u, y| {
            let mut z = vec![0.0; u.len()];
            f.solve(u, &mut z);
            a.spmv(&z, y);
        });
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

    #[test]
    fn ssor_reduces_error_as_preconditioner() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let mut p = Ssor::new(&a, 1.2);
        let mut z = vec![0.0; a.nrows()];
        p.apply(&b, &mut z);
        // One SSOR application is a rough solve: error well below the
        // trivial z=0 guess.
        let err0 = vector::nrm2(&vec![1.0; a.nrows()]);
        let err: f64 = {
            let d: Vec<f64> = z.iter().map(|v| v - 1.0).collect();
            vector::nrm2(&d)
        };
        assert!(err < 0.9 * err0, "SSOR made no progress: {err} vs {err0}");
    }

    #[test]
    fn ssor_in_fgmres() {
        use crate::fgmres::{fgmres_solve, FgmresConfig, FixedPrecond};
        let a = gallery::poisson2d(12);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-9, max_outer: 300, ..Default::default() };
        let mut p = FixedPrecond(Ssor::new(&a, 1.5));
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6);
        // It should beat identity preconditioning.
        let mut ident = FixedPrecond(crate::precond::IdentityPrecond);
        let (_, plain) = fgmres_solve(&a, &b, None, &cfg, &mut ident);
        assert!(rep.iterations < plain.iterations, "{} vs {}", rep.iterations, plain.iterations);
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn ssor_rejects_bad_omega() {
        let a = gallery::poisson1d(4);
        Ssor::new(&a, 2.5);
    }
}
