//! The plain Arnoldi process, exposed for analysis.
//!
//! GMRES embeds Arnoldi (Algorithm 1, lines 3–14); the solvers run it
//! inline for efficiency. This module exposes the process standalone so
//! experiments can inspect the upper Hessenberg matrix itself — Fig. 2 of
//! the paper turns on exactly this: for a symmetric operator `H` is
//! tridiagonal (entries `h_ij ≈ 0` for `i < j−1`), so an SDC striking one
//! of those "structural zeros" is especially damaging, while for a
//! nonsymmetric operator every entry may be legitimately nonzero.

use crate::operator::LinearOperator;
use crate::ortho::{orthogonalize, OrthoSiteCtx, OrthoStrategy};
use sdc_dense::matrix::DenseMatrix;
use sdc_dense::vector;
use sdc_faults::NoFaults;

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
pub fn arnoldi<A: LinearOperator + ?Sized>(
    a: &A,
    v0: &[f64],
    m: usize,
    strategy: OrthoStrategy,
) -> ArnoldiDecomposition {
    let n = a.nrows();
    assert!(a.is_square(), "arnoldi: operator must be square");
    assert_eq!(v0.len(), n, "arnoldi: v0 length");
    let mut q1 = v0.to_vec();
    let beta = vector::normalize(&mut q1);
    assert!(beta > 0.0, "arnoldi: zero start vector");

    let mut q: Vec<Vec<f64>> = vec![q1];
    let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut breakdown = false;

    for j in 1..=m {
        // Applied straight into the buffer that becomes `q_{j+1}`.
        let mut v = vec![0.0; n];
        a.apply(&q[j - 1], &mut v);
        let ores = orthogonalize(
            strategy,
            &q,
            &mut v,
            OrthoSiteCtx { outer_iteration: 0, inner_solve: 0, column: j },
            &NoFaults,
            None,
        );
        let mut col = ores.h;
        col.push(ores.vnorm);
        h_cols.push(col);
        if ores.vnorm <= 1e-12 * beta.max(1.0) {
            breakdown = true;
            break;
        }
        vector::scal(1.0 / ores.vnorm, &mut v);
        q.push(v);
    }

    let k = h_cols.len();
    let mut h = DenseMatrix::zeros(k + 1, k);
    for (c, col) in h_cols.iter().enumerate() {
        for (r, &val) in col.iter().enumerate() {
            h[(r, c)] = val;
        }
    }
    ArnoldiDecomposition { q, h, breakdown }
}

/// Arnoldi with Householder reflections (Walker's method) — the third
/// orthogonalization the paper names. Costlier than Gram-Schmidt but
/// unconditionally orthogonal to machine precision; the Eq.-3 bound
/// `|h_ij| ≤ ‖A‖_F` is invariant to this choice, which
/// [`householder_matches_mgs_bound`](#)'s tests verify.
pub fn householder_arnoldi<A: LinearOperator + ?Sized>(
    a: &A,
    v0: &[f64],
    m: usize,
) -> ArnoldiDecomposition {
    let n = a.nrows();
    assert!(a.is_square(), "householder_arnoldi: operator must be square");
    assert_eq!(v0.len(), n, "householder_arnoldi: v0 length");
    let m = m.min(n.saturating_sub(1));

    // Reflectors u_k with support in [k, n): P_k = I − 2 u_k u_kᵀ.
    let mut reflectors: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut breakdown = false;

    // Generates the reflector zeroing w[k+1..] and applies it.
    fn housegen(w: &mut [f64], k: usize) -> Vec<f64> {
        let n = w.len();
        let sigma = vector::nrm2(&w[k..]);
        let mut u = vec![0.0; n];
        if sigma == 0.0 {
            return u; // identity reflector
        }
        let beta = if w[k] >= 0.0 { -sigma } else { sigma };
        u[k..].copy_from_slice(&w[k..]);
        u[k] -= beta;
        let unorm = vector::nrm2(&u[k..]);
        if unorm == 0.0 {
            return vec![0.0; n];
        }
        vector::scal(1.0 / unorm, &mut u[k..]);
        // Apply to w: becomes (0.., beta, 0..).
        w[k] = beta;
        for wi in w[k + 1..].iter_mut() {
            *wi = 0.0;
        }
        u
    }

    #[inline]
    fn apply_reflector(u: &[f64], x: &mut [f64], k: usize) {
        // x ← x − 2 u (uᵀ x); u supported on [k, n).
        let d = 2.0 * vector::dot(&u[k..], &x[k..]);
        if d != 0.0 {
            vector::axpy(-d, &u[k..], &mut x[k..]);
        }
    }

    // Step 0: reduce v0.
    let mut w = v0.to_vec();
    let u0 = housegen(&mut w, 0);
    let beta = w[0];
    assert!(beta != 0.0, "householder_arnoldi: zero start vector");
    reflectors.push(u0);

    // q_0 = P_0 e_0.
    let basis_vec = |reflectors: &[Vec<f64>], j: usize, n: usize| -> Vec<f64> {
        let mut q = vec![0.0; n];
        q[j] = 1.0;
        for (k, u) in reflectors.iter().enumerate().take(j + 1).rev() {
            apply_reflector(u, &mut q, k);
        }
        q
    };
    let mut q: Vec<Vec<f64>> = vec![basis_vec(&reflectors, 0, n)];

    let mut v = vec![0.0; n];
    for j in 0..m {
        a.apply(&q[j], &mut v);
        let mut w = v.clone();
        for (k, u) in reflectors.iter().enumerate() {
            apply_reflector(u, &mut w, k);
        }
        let u_next = housegen(&mut w, j + 1);
        reflectors.push(u_next);
        // Hessenberg column j: components 0..=j+1 of the reduced vector.
        h_cols.push(w[..=j + 1].to_vec());
        let subdiag = w[j + 1];
        if subdiag.abs() <= 1e-12 * beta.abs().max(1.0) {
            breakdown = true;
            break;
        }
        q.push(basis_vec(&reflectors, j + 1, n));
    }

    let k = h_cols.len();
    let mut h = DenseMatrix::zeros(k + 1, k);
    for (c, col) in h_cols.iter().enumerate() {
        for (r, &val) in col.iter().enumerate() {
            h[(r, c)] = val;
        }
    }
    ArnoldiDecomposition { q, h, breakdown }
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
        let dec = arnoldi(&a, &start(64), 15, OrthoStrategy::Mgs);
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
        let dec = arnoldi(&a, &start(49), m, OrthoStrategy::Mgs);
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
        let dec = arnoldi(&a, &start(100), 20, OrthoStrategy::Mgs);
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
        let dec = arnoldi(&a, &start(80), 15, OrthoStrategy::Mgs);
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
        let dec = arnoldi(&a, &start(36), 12, OrthoStrategy::Mgs);
        assert!(dec.h.norm_max() <= bound * (1.0 + 1e-12));
    }

    #[test]
    fn householder_basis_is_orthonormal_to_machine_precision() {
        let a = gallery::convection_diffusion_2d(8, 2.0, -1.0);
        let dec = householder_arnoldi(&a, &start(64), 20);
        for i in 0..dec.q.len() {
            for j in 0..=i {
                let d = vector::dot(&dec.q[i], &dec.q[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-13, "Q[{i}]·Q[{j}] = {d}");
            }
        }
    }

    #[test]
    fn householder_satisfies_arnoldi_relation() {
        let a = gallery::poisson2d(7);
        let dec = householder_arnoldi(&a, &start(49), 10);
        let k = dec.h.cols();
        for j in 0..k {
            let mut aqj = vec![0.0; 49];
            a.spmv(&dec.q[j], &mut aqj);
            let mut rec = vec![0.0; 49];
            for i in 0..=(j + 1).min(dec.q.len() - 1) {
                vector::axpy(dec.h[(i, j)], &dec.q[i], &mut rec);
            }
            let err: f64 =
                aqj.iter().zip(rec.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
            assert!(err < 1e-10, "column {j}: relation violated by {err}");
        }
    }

    #[test]
    fn householder_h_matches_mgs_h_up_to_signs() {
        // The Hessenberg matrices from MGS and Householder Arnoldi are
        // related by a diagonal ±1 similarity; entrywise magnitudes agree.
        let a = gallery::convection_diffusion_2d(6, 1.0, 2.0);
        let v0 = start(36);
        let mgs = arnoldi(&a, &v0, 8, OrthoStrategy::Mgs);
        let hh = householder_arnoldi(&a, &v0, 8);
        let k = mgs.h.cols().min(hh.h.cols());
        for c in 0..k {
            for r in 0..=c + 1 {
                let x = mgs.h[(r, c)].abs();
                let y = hh.h[(r, c)].abs();
                assert!(
                    (x - y).abs() < 1e-9 * x.max(y).max(1.0),
                    "|H[{r},{c}]| differs: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn householder_respects_eq3_bound() {
        // The paper's claim: the bound is invariant to the
        // orthogonalization algorithm.
        let a = gallery::grcar(100, 4);
        let dec = householder_arnoldi(&a, &start(100), 20);
        assert!(dec.h.norm_max() <= a.norm_fro() * (1.0 + 1e-12));
    }

    #[test]
    fn householder_breakdown_on_identity() {
        let a = sdc_sparse::CsrMatrix::identity(6);
        let dec = householder_arnoldi(&a, &start(6), 5);
        assert!(dec.breakdown);
        assert_eq!(dec.h.cols(), 1);
    }

    #[test]
    fn breakdown_on_invariant_start() {
        // Start vector = eigenvector of the identity → immediate breakdown.
        let a = sdc_sparse::CsrMatrix::identity(6);
        let dec = arnoldi(&a, &start(6), 6, OrthoStrategy::Mgs);
        assert!(dec.breakdown);
        assert_eq!(dec.h.cols(), 1);
    }
}
