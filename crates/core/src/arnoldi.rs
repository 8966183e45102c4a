//! The Arnoldi process — the one loop every Krylov solver here runs.
//!
//! GMRES (Algorithm 1, lines 3–14), FGMRES (Algorithm 2), the ABFT
//! baseline and the standalone [`arnoldi`] decomposition all step one
//! `Arnoldi` state: the orthonormal basis `Q`, the work vector `w`, the
//! raw Hessenberg columns and their incremental Givens QR. A step is
//! `expand` (`w = A v`, orthogonalized through the fault injector and
//! the §V detector), `push_column` (the free residual recurrence) and
//! `normalize`; a cycle ends with `update`. Each solver keeps its own
//! control flow — restart, trichotomy, audit — and its own trace events
//! around those calls.
//!
//! [`arnoldi`] runs the process standalone so experiments can inspect
//! the upper Hessenberg matrix itself — Fig. 2 of the paper turns on
//! exactly this: for a symmetric operator `H` is tridiagonal (entries
//! `h_ij ≈ 0` for `i < j−1`), so an SDC striking one of those
//! "structural zeros" is especially damaging, while for a nonsymmetric
//! operator every entry may be legitimately nonzero.

use crate::detector::SdcDetector;
use crate::operator::LinearOperator;
use crate::ortho::{orthogonalize, OrthoResult, OrthoSiteCtx};
use sdc_dense::hessenberg_qr::HessenbergQr;
use sdc_dense::lstsq::{solve_projected, LstsqError, LstsqPolicy};
use sdc_dense::matrix::DenseMatrix;
use sdc_dense::vector;
use sdc_faults::{FaultInjector, NoFaults};

/// Happy-breakdown threshold on `h_{j+1,j}`, relative to the cycle's
/// initial residual norm β.
const BREAKDOWN_REL: f64 = 1e-13;

/// The state of one Arnoldi cycle, with buffers kept across cycles.
pub(crate) struct Arnoldi {
    /// Orthonormal basis `q₁ … q_{j+1}`.
    basis: Vec<Vec<f64>>,
    /// Basis vectors of finished cycles, reused by the next one.
    spare: Vec<Vec<f64>>,
    /// The direction being orthogonalized; becomes the next basis vector.
    w: Vec<f64>,
    /// Hessenberg columns `[h_{1..j,j}; h_{j+1,j}]` as orthogonalized.
    h_cols: Vec<Vec<f64>>,
    /// Incremental Givens QR of those columns against `β e₁`.
    hqr: HessenbergQr,
}

impl Arnoldi {
    /// An empty state for operators of order `n`.
    pub fn new(n: usize) -> Self {
        Self {
            basis: Vec::new(),
            spare: Vec::new(),
            w: vec![0.0; n],
            h_cols: Vec::new(),
            hqr: HessenbergQr::new(0.0),
        }
    }

    /// Starts a cycle from `q₁ = r/β` with an empty `H`.
    pub fn start(&mut self, r: &[f64], beta: f64) {
        self.spare.append(&mut self.basis);
        let mut q1 = self.spare.pop().unwrap_or_else(|| vec![0.0; r.len()]);
        q1.copy_from_slice(r);
        vector::scal(1.0 / beta, &mut q1);
        self.basis.push(q1);
        self.h_cols.clear();
        self.hqr = HessenbergQr::new(beta);
    }

    /// Computes `w = A v` and orthogonalizes it against the basis, every
    /// coefficient passing through `injector` and `detector`. `v` is the
    /// newest basis vector when `None`; FGMRES passes its preconditioned
    /// direction `z_j`.
    pub fn expand<A: LinearOperator + ?Sized>(
        &mut self,
        a: &A,
        v: Option<&[f64]>,
        site: OrthoSiteCtx,
        injector: &dyn FaultInjector,
        detector: Option<&SdcDetector>,
    ) -> OrthoResult {
        let v = match v {
            Some(v) => v,
            None => self.basis.last().expect("Arnoldi::start before expand"),
        };
        a.apply(v, &mut self.w);
        orthogonalize(&self.basis, &mut self.w, site, injector, detector)
    }

    /// Appends the column `[h; h_next]` to `H` and returns the new
    /// least-squares residual estimate.
    pub fn push_column(&mut self, mut h: Vec<f64>, h_next: f64) -> f64 {
        h.push(h_next);
        let res_est = self.hqr.push_column(&h);
        self.h_cols.push(h);
        res_est
    }

    /// True when `h_next` signals an invariant subspace: at most
    /// `BREAKDOWN_REL·β`, or NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN norm must count as breakdown
    pub fn is_breakdown(&self, h_next: f64) -> bool {
        !(h_next.abs() > BREAKDOWN_REL * self.hqr.beta())
    }

    /// Normalizes `w` into the basis, `q_{j+1} = w / h_next`.
    pub fn normalize(&mut self, h_next: f64) {
        let fresh = self.spare.pop().unwrap_or_else(|| vec![0.0; self.w.len()]);
        let mut q = std::mem::replace(&mut self.w, fresh);
        vector::scal(1.0 / h_next, &mut q);
        self.basis.push(q);
    }

    /// Solves the projected least-squares problem under `policy` and
    /// applies `x ← x + D y`. GMRES passes the basis `Q`, FGMRES its
    /// preconditioned directions `Z` (Algorithm 2, line 22).
    pub fn update(
        &self,
        x: &mut [f64],
        directions: &[Vec<f64>],
        policy: LstsqPolicy,
    ) -> Result<(), LstsqError> {
        if self.hqr.k() == 0 {
            return Ok(());
        }
        let out = solve_projected(&self.hqr.r_matrix(), self.hqr.rhs(), policy)?;
        for (c, &yc) in out.y.iter().enumerate() {
            vector::par_axpy(yc, &directions[c], x);
        }
        Ok(())
    }

    /// Completed steps `j` (columns of `H`).
    pub fn steps(&self) -> usize {
        self.hqr.k()
    }

    /// The orthonormal basis `Q`.
    pub fn basis(&self) -> &[Vec<f64>] {
        &self.basis
    }

    /// The newest basis vector.
    pub fn last(&self) -> &[f64] {
        self.basis.last().expect("Arnoldi::start before last")
    }

    /// The Hessenberg columns pushed this cycle.
    pub fn h_cols(&self) -> &[Vec<f64>] {
        &self.h_cols
    }
}

/// Result of `m` steps of Arnoldi.
#[derive(Clone, Debug)]
pub struct ArnoldiDecomposition {
    /// Orthonormal basis `Q = [q₁ … q_k]` (k ≤ m+1 columns of length n).
    pub q: Vec<Vec<f64>>,
    /// The `(k+1) × k` upper Hessenberg matrix (dense, zeros below the
    /// subdiagonal), where `k ≤ m` is the number of completed steps.
    pub h: DenseMatrix,
    /// True if the process stopped early on an invariant subspace.
    pub breakdown: bool,
}

/// Runs `m` Arnoldi steps from start vector `v0` (need not be
/// normalized).
pub fn arnoldi<A: LinearOperator + ?Sized>(a: &A, v0: &[f64], m: usize) -> ArnoldiDecomposition {
    let n = a.nrows();
    assert!(a.is_square(), "arnoldi: operator must be square");
    assert_eq!(v0.len(), n, "arnoldi: v0 length");
    let beta = vector::nrm2(v0);
    assert!(beta > 0.0 && beta.is_finite(), "arnoldi: zero or non-finite start vector");

    let mut state = Arnoldi::new(n);
    state.start(v0, beta);
    let mut breakdown = false;
    for j in 1..=m {
        let site = OrthoSiteCtx { outer_iteration: 0, inner_solve: 0, column: j };
        let ores = state.expand(a, None, site, &NoFaults, None);
        state.push_column(ores.h, ores.vnorm);
        if ores.vnorm <= 1e-12 * beta.max(1.0) {
            breakdown = true;
            break;
        }
        state.normalize(ores.vnorm);
    }
    ArnoldiDecomposition { h: dense_hessenberg(&state.h_cols), q: state.basis, breakdown }
}

/// The `(k+1) × k` dense Hessenberg matrix of `k` columns.
fn dense_hessenberg(h_cols: &[Vec<f64>]) -> DenseMatrix {
    let k = h_cols.len();
    let mut h = DenseMatrix::zeros(k + 1, k);
    for (c, col) in h_cols.iter().enumerate() {
        for (r, &val) in col.iter().enumerate() {
            h[(r, c)] = val;
        }
    }
    h
}

/// Measures how far `H` is from tridiagonal: the largest `|h_ij|` with
/// `i < j−1` (1-based), normalized by `‖H‖_max`. Zero for a perfectly
/// tridiagonal H (symmetric operator), order-one for a nonsymmetric one.
pub fn tridiagonality_defect(h: &DenseMatrix) -> f64 {
    let scale = h.norm_max();
    if scale == 0.0 {
        return 0.0;
    }
    let mut worst = 0.0f64;
    for c in 0..h.cols() {
        for r in 0..c.saturating_sub(1) {
            worst = worst.max(h[(r, c)].abs());
        }
    }
    worst / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_sparse::gallery;

    fn start(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.317).sin() + 0.73).collect()
    }

    #[test]
    fn basis_is_orthonormal() {
        let a = gallery::convection_diffusion_2d(8, 1.5, 0.5);
        let dec = arnoldi(&a, &start(64), 15);
        for i in 0..dec.q.len() {
            for j in 0..=i {
                let d = vector::dot(&dec.q[i], &dec.q[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "Q[{i}]·Q[{j}] = {d}");
            }
        }
    }

    #[test]
    fn arnoldi_relation_holds() {
        // A Q_k = Q_{k+1} H — the defining relation.
        let a = gallery::poisson2d(7);
        let m = 10;
        let dec = arnoldi(&a, &start(49), m);
        let k = dec.h.cols();
        for j in 0..k {
            let mut aqj = vec![0.0; 49];
            a.spmv(&dec.q[j], &mut aqj);
            // Compare to sum_i H[i,j] q_i.
            let mut rec = vec![0.0; 49];
            for i in 0..=j + 1 {
                vector::axpy(dec.h[(i, j)], &dec.q[i], &mut rec);
            }
            let err: f64 =
                aqj.iter().zip(rec.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10, "column {j}: relation violated by {err}");
        }
    }

    #[test]
    fn spd_operator_gives_tridiagonal_h() {
        // Fig. 2's left panel: symmetric input ⇒ H tridiagonal.
        let a = gallery::poisson2d(10);
        let dec = arnoldi(&a, &start(100), 20);
        assert!(
            tridiagonality_defect(&dec.h) < 1e-10,
            "defect = {}",
            tridiagonality_defect(&dec.h)
        );
    }

    #[test]
    fn nonsymmetric_operator_fills_upper_triangle() {
        // Fig. 2's right panel.
        let a = gallery::grcar(80, 3);
        let dec = arnoldi(&a, &start(80), 15);
        assert!(
            tridiagonality_defect(&dec.h) > 1e-3,
            "defect = {} — expected clearly nonzero",
            tridiagonality_defect(&dec.h)
        );
    }

    #[test]
    fn hessenberg_entries_respect_eq3_bound() {
        // |h_ij| ≤ ‖A‖_F always (the detector's soundness).
        let a = gallery::convection_diffusion_2d(6, 2.0, -1.0);
        let bound = a.norm_fro();
        let dec = arnoldi(&a, &start(36), 12);
        assert!(dec.h.norm_max() <= bound * (1.0 + 1e-12));
    }

    #[test]
    fn breakdown_on_invariant_start() {
        // Start vector = eigenvector of the identity → immediate breakdown.
        let a = sdc_sparse::CsrMatrix::identity(6);
        let dec = arnoldi(&a, &start(6), 6);
        assert!(dec.breakdown);
        assert_eq!(dec.h.cols(), 1);
    }
}
