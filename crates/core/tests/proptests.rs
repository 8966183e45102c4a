//! Property-based tests for the solver core.
//!
//! The central properties under test are the paper's own claims:
//!
//! * Eq. 3 soundness: fault-free Hessenberg entries never exceed `‖A‖_F`
//!   (the detector has zero false positives);
//! * run-through: FT-GMRES converges to the *true* solution under a
//!   single SDC of any of the paper's classes at any site;
//! * detection: class-1 faults are always caught when a detector is on.

use proptest::prelude::*;
use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
use sdc_gmres::arnoldi::arnoldi;
use sdc_gmres::prelude::*;
use sdc_sparse::gallery;

fn b_for(a: &sdc_sparse::CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    b
}

fn rel_residual(a: &sdc_sparse::CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    sdc_gmres::operator::residual(a, b, x, &mut r);
    sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hessenberg_bound_never_false_positives(seed in 0u64..500, m in 4usize..9) {
        // Random sparse SPD and nonsymmetric operators: every fault-free
        // Hessenberg entry obeys |h| <= ||A||_F.
        let a = if seed % 2 == 0 {
            gallery::sprand_spd(m * m, 0.08, seed)
        } else {
            gallery::convection_diffusion_2d(m, (seed % 7) as f64 * 0.5, 1.0)
        };
        let n = a.nrows();
        let v0: Vec<f64> = (0..n).map(|i| ((i as f64 + seed as f64) * 0.37).sin() + 0.2).collect();
        let dec = arnoldi(&a, &v0, 12.min(n - 1));
        prop_assert!(dec.h.norm_max() <= a.norm_fro() * (1.0 + 1e-12));
    }

    #[test]
    fn ftgmres_runs_through_any_single_fault(
        agg in 1usize..60,
        class_ix in 0usize..3,
        pos_ix in 0usize..2,
    ) {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = FtGmresConfig {
            outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-8, max_outer: 50, ..Default::default() },
            inner_iters: 10,
            ..Default::default()
        };
        let point = CampaignPoint {
            aggregate_iteration: agg,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::all()[class_ix],
            position: MgsPosition::both()[pos_ix],
        };
        let inj = point.injector();
        let (x, rep) = sdc_gmres::ftgmres::ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
        // Either it converged to the true answer, or (never observed, but
        // permitted by the trichotomy) failed loudly — silence is the one
        // forbidden outcome.
        if rep.outcome.is_converged() {
            prop_assert!(rel_residual(&a, &b, &x) <= 1e-7,
                "claimed convergence but residual is {}", rel_residual(&a, &b, &x));
        } else {
            prop_assert!(rep.outcome.is_loud_failure() ||
                         matches!(rep.outcome, SolveOutcome::MaxIterations),
                "silent bad outcome: {:?}", rep.outcome);
        }
    }

    #[test]
    fn detector_always_catches_class1(agg in 1usize..40) {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let mut cfg = FtGmresConfig {
            outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-8, max_outer: 50, ..Default::default() },
            inner_iters: 10,
            ..Default::default()
        };
        cfg.inner_detector = Some(SdcDetector::with_frobenius_bound(
            &a, DetectorResponse::RestartInner));
        let point = CampaignPoint {
            aggregate_iteration: agg,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = point.injector();
        let (_, rep) = sdc_gmres::ftgmres::ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
        // If the fault was actually committed (the run may converge before
        // reaching the target site), it must have been detected.
        if !rep.injections.is_empty() {
            prop_assert!(rep.detected_anything(),
                "committed class-1 fault escaped the detector at agg={agg}");
        }
    }

    #[test]
    fn gmres_residuals_monotone_on_random_spd(seed in 0u64..200) {
        let a = gallery::sprand_spd(60, 0.08, seed);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-9, max_iters: 70, ..Default::default() };
        let (_, rep) = gmres_solve(&a, &b, None, &cfg);
        for w in rep.residual_history.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-10),
                "residual increased {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn gmres_matches_dense_direct_solve_on_random_spd(seed in 0u64..100) {
        let a = gallery::sprand_spd(50, 0.1, seed);
        let b = b_for(&a);
        let (xg, repg) = gmres_solve(&a, &b, None,
            &GmresConfig { tol: 1e-11, max_iters: 200, ..Default::default() });
        prop_assert!(repg.outcome.is_converged());
        let xd = sdc_dense::householder_qr(&a.to_dense())
            .solve_lstsq(&b)
            .expect("an SPD matrix is nonsingular");
        let diff: f64 = xd.iter().zip(xg.iter()).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
        let scale: f64 = xg.iter().map(|v| v.abs()).fold(0.0, f64::max);
        prop_assert!(diff <= 1e-6 * scale.max(1.0), "diff {diff}");
    }
}
