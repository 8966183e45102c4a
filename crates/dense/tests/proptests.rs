//! Property-based tests for the dense substrate.
//!
//! These check the algebraic invariants the solvers rely on, over random
//! inputs: rotation orthonormality, QR reconstruction, SVD reconstruction
//! and ordering, least-squares optimality, and the determinism of parallel
//! reductions.

use proptest::prelude::*;
use sdc_dense::givens::GivensRotation;
use sdc_dense::householder::householder_qr;
use sdc_dense::lstsq::{solve_projected, LstsqPolicy};
use sdc_dense::matrix::DenseMatrix;
use sdc_dense::svd::jacobi_svd;
use sdc_dense::triangular::{solve_upper, TriangularOutcome};
use sdc_dense::vector;

fn finite_f64(mag: f64) -> impl Strategy<Value = f64> {
    (-mag..mag).prop_filter("nonzero-ish magnitude", move |x: &f64| x.abs() < mag)
}

fn vec_strategy(len: usize, mag: f64) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(finite_f64(mag), len)
}

fn matrix_strategy(r: usize, c: usize, mag: f64) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(finite_f64(mag), r * c)
        .prop_map(move |data| DenseMatrix::from_col_major(r, c, data))
}

proptest! {
    #[test]
    fn givens_is_orthonormal_and_annihilates(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let g = GivensRotation::compute(a, b);
        prop_assert!((g.c * g.c + g.s * g.s - 1.0).abs() < 1e-12);
        let (_r, zero) = g.apply(a, b);
        prop_assert!(zero.abs() <= 1e-9 * a.hypot(b).max(1e-12));
    }

    #[test]
    fn givens_preserves_two_norm(a in -1e3f64..1e3, b in -1e3f64..1e3,
                                 x in -1e3f64..1e3, y in -1e3f64..1e3) {
        let g = GivensRotation::compute(a, b);
        let (nx, ny) = g.apply(x, y);
        prop_assert!((nx.hypot(ny) - x.hypot(y)).abs() < 1e-9 * x.hypot(y).max(1.0));
    }

    #[test]
    fn par_dot_is_bitwise_deterministic(x in vec_strategy(3000, 1e3)) {
        // Long enough for `dot` to split its blocks over the pool.
        let _guard = sdc_parallel::test_serial_guard();
        let long: Vec<f64> = x.iter().cycle().take(40_000).copied().collect();
        let ylong: Vec<f64> = long.iter().map(|v| v * 0.5 + 1.0).collect();
        sdc_parallel::set_threads(1);
        let serial = vector::dot(&long, &ylong);
        sdc_parallel::set_threads(4);
        let parallel = vector::dot(&long, &ylong);
        sdc_parallel::set_threads(0);
        prop_assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn nrm2_matches_dot_sqrt(x in vec_strategy(200, 1e6)) {
        let n = vector::nrm2(&x);
        let d = vector::dot(&x, &x).sqrt();
        prop_assert!((n - d).abs() <= 1e-9 * d.max(1e-12));
    }

    #[test]
    fn qr_reconstructs_random_matrices(a in matrix_strategy(6, 4, 1e3)) {
        let f = householder_qr(&a);
        let q = f.q_explicit();
        let r = f.r();
        let mut rfull = DenseMatrix::zeros(6, 4);
        for c in 0..4 {
            for row in 0..r.rows() {
                rfull[(row, c)] = r[(row, c)];
            }
        }
        let qa = q.matmul(&rfull);
        prop_assert!(qa.max_diff(&a) < 1e-9 * a.norm_fro().max(1.0));
        // Q orthogonal.
        let qtq = q.transpose().matmul(&q);
        prop_assert!(qtq.max_diff(&DenseMatrix::identity(6)) < 1e-10);
    }

    #[test]
    fn svd_reconstructs_and_orders(a in matrix_strategy(5, 3, 1e3)) {
        let s = jacobi_svd(&a).unwrap();
        let rec = s.reconstruct();
        prop_assert!(rec.max_diff(&a) < 1e-9 * a.norm_fro().max(1.0));
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // sigma_max <= ||A||_F always.
        prop_assert!(s.sigma_max() <= a.norm_fro() * (1.0 + 1e-12) + 1e-12);
    }

    #[test]
    fn truncated_svd_solution_norm_is_bounded(
        a in matrix_strategy(4, 4, 1e2),
        z in vec_strategy(4, 1e2),
    ) {
        let s = jacobi_svd(&a).unwrap();
        let tol = 1e-10;
        let y = s.solve_truncated(&z, tol);
        // ‖y‖ ≤ ‖z‖ / (smallest kept singular value).
        let cutoff = tol * s.sigma_max();
        let smin_kept = s.sigma.iter().copied().filter(|&v| v > cutoff).fold(f64::INFINITY, f64::min);
        if smin_kept.is_finite() && smin_kept > 0.0 {
            let bound = vector::nrm2(&z) / smin_kept;
            prop_assert!(vector::nrm2(&y) <= bound * (1.0 + 1e-9) + 1e-12);
        } else {
            // Entire spectrum truncated: minimum-norm solution is zero.
            prop_assert!(vector::nrm2(&y) == 0.0);
        }
    }

    #[test]
    fn back_substitution_solves_triangular_systems(
        diag in proptest::collection::vec(0.5f64..10.0, 5),
        upper in vec_strategy(10, 5.0),
        z in vec_strategy(5, 10.0),
    ) {
        let mut r = DenseMatrix::zeros(5, 5);
        let mut it = upper.into_iter();
        for i in 0..5 {
            r[(i, i)] = diag[i];
            for j in (i + 1)..5 {
                r[(i, j)] = it.next().unwrap_or(0.0);
            }
        }
        match solve_upper(&r, &z) {
            TriangularOutcome::Finite(y) => {
                let mut ry = vec![0.0; 5];
                r.matvec(&y, &mut ry);
                for i in 0..5 {
                    prop_assert!((ry[i] - z[i]).abs() < 1e-7 * vector::nrm2(&z).max(1.0));
                }
            }
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn policies_agree_when_well_conditioned(
        diag in proptest::collection::vec(1.0f64..4.0, 4),
        z in vec_strategy(4, 10.0),
    ) {
        let mut r = DenseMatrix::identity(4);
        for i in 0..4 {
            r[(i, i)] = diag[i];
            if i + 1 < 4 {
                r[(i, i + 1)] = 0.25;
            }
        }
        let std = solve_projected(&r, &z, LstsqPolicy::Standard).unwrap();
        let rr = solve_projected(&r, &z, LstsqPolicy::RankRevealing { tol: 1e-13 }).unwrap();
        for i in 0..4 {
            prop_assert!((std.y[i] - rr.y[i]).abs() < 1e-8 * vector::nrm2(&z).max(1.0),
                         "std {:?} vs rr {:?}", std.y, rr.y);
        }
    }
}
