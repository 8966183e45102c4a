//! Integration test of the detector's theoretical guarantees (Eq. 3):
//! zero false positives on fault-free runs across matrix families,
//! detector bounds and solver stacks — the property that makes the
//! filter safe to leave on in production.

use sdc_repro::prelude::*;
use sdc_repro::solvers::ftgmres::ftgmres_solve;
use sdc_repro::solvers::gmres::gmres_solve;

fn b_for(a: &CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    b
}

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    use sdc_repro::sparse::gallery::*;
    vec![
        ("poisson2d", poisson2d(15)),
        ("poisson3d", poisson3d(6)),
        ("convdiff", convection_diffusion_2d(12, 3.0, -2.0)),
        ("grcar", grcar(200, 4)),
        ("sprand_spd", sprand_spd(150, 0.05, 17)),
    ]
}

#[test]
fn no_false_positives_any_matrix_any_ortho() {
    for (name, a) in matrices() {
        let b = b_for(&a);
        let cfg = GmresConfig {
            tol: 1e-9,
            max_iters: 120,
            detector: Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::Halt)),
            ..Default::default()
        };
        let (_, rep) = gmres_solve(&a, &b, None, &cfg);
        assert!(
            rep.detector_events.is_empty(),
            "{name}: false positive! {:?}",
            rep.detector_events.first()
        );
        assert!(
            !matches!(rep.outcome, SolveOutcome::Halted(_)),
            "{name}: halted on a fault-free run"
        );
    }
}

#[test]
fn no_false_positives_nested_solver() {
    for (name, a) in matrices() {
        let b = b_for(&a);
        let cfg = FtGmresConfig {
            outer: sdc_repro::solvers::fgmres::FgmresConfig {
                tol: 1e-8,
                max_outer: 60,
                ..Default::default()
            },
            inner_iters: 9,
            inner_detector: Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::Halt)),
            ..Default::default()
        };
        let (_, rep) = ftgmres_solve(&a, &b, None, &cfg);
        assert!(rep.detector_events.is_empty(), "{name}: false positive in nested solve");
    }
}

#[test]
fn two_norm_bound_is_tighter_but_still_sound() {
    // Using the (estimated) ‖A‖₂ instead of ‖A‖_F: a tighter detector
    // that must still never fire fault-free. The power-iteration estimate
    // converges from below, so a safety factor covers the estimation gap.
    use sdc_repro::sparse::norm_est;
    for (name, a) in matrices() {
        let b = b_for(&a);
        let est = norm_est::norm2_est(&a, 2000, 1e-12).value;
        let cfg = GmresConfig {
            tol: 1e-9,
            max_iters: 120,
            detector: Some(SdcDetector {
                bound: est * (1.0 + 1e-8),
                response: DetectorResponse::Halt,
            }),
            ..Default::default()
        };
        let (_, rep) = gmres_solve(&a, &b, None, &cfg);
        assert!(
            rep.detector_events.is_empty(),
            "{name}: 2-norm-bound false positive (bound {est})"
        );
    }
}

#[test]
fn frobenius_dominates_two_norm_estimate() {
    use sdc_repro::sparse::norm_est;
    for (name, a) in matrices() {
        let two = norm_est::norm2_est(&a, 1000, 1e-12).value;
        let fro = a.norm_fro();
        assert!(two <= fro * (1.0 + 1e-10), "{name}: ‖A‖₂ estimate {two} exceeds ‖A‖_F {fro}");
    }
}
