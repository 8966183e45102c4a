//! Integration tests asserting the *shape* of the paper's headline
//! figures at a CI-friendly scale, through the same harness the full
//! experiment binaries use. If these pass, the regenerated Fig. 3/4
//! qualitatively match the paper.

use sdc_campaigns::{failure_free, problems, run_sweep, CampaignConfig};
use sdc_repro::faults::campaign::{FaultClass, MgsPosition};
use sdc_repro::prelude::*;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        inner_iters: 10,
        outer_tol: 1e-7,
        outer_max: 80,
        detector_response: None,
        stride: 3,
        inner_lsq: LstsqPolicy::Standard,
        ..Default::default()
    }
}

#[test]
fn fig3_shape_poisson() {
    let p = problems::poisson(16);
    let cfg = cfg();
    let ff = failure_free(&p, &cfg);
    assert!(ff.outcome.is_converged());
    let ff_outer = ff.iterations;

    let mut worst_by_class = Vec::new();
    for class in FaultClass::all() {
        let res = run_sweep(&p, &cfg, class, MgsPosition::First, ff_outer);
        // Claim (v): zero silent failures, every experiment converged.
        assert_eq!(res.count_failures(), 0, "{class:?}");
        for pt in &res.points {
            assert!(pt.true_rel_residual <= 1e-6, "{class:?} agg {}: silent!", pt.aggregate);
        }
        worst_by_class.push((class, res.max_increase()));
    }
    // Claim (i)-(ii): bounded penalties; class-1 worst or tied.
    let huge = worst_by_class[0].1;
    for &(class, w) in &worst_by_class {
        assert!(w <= ff_outer, "{class:?}: unbounded penalty {w}");
        assert!(w <= huge + 1, "{class:?} ({w}) should not far exceed class-1 ({huge})");
    }
}

#[test]
fn fig3_shape_detector_removes_class1_penalty() {
    let p = problems::poisson(16);
    let base = cfg();
    let ff = failure_free(&p, &base);
    let undetected = run_sweep(&p, &base, FaultClass::Huge, MgsPosition::First, ff.iterations);

    let det = CampaignConfig { detector_response: Some(DetectorResponse::RestartInner), ..base };
    let detected = run_sweep(&p, &det, FaultClass::Huge, MgsPosition::First, ff.iterations);
    // Claim: full coverage of committed class-1 faults...
    for pt in &detected.points {
        if pt.injected {
            assert!(pt.detected, "committed fault at {} escaped", pt.aggregate);
        }
    }
    // ...and the detector never makes things worse than running blind.
    assert!(
        detected.max_increase() <= undetected.max_increase().max(1),
        "detector increased the worst case: {} vs {}",
        detected.max_increase(),
        undetected.max_increase()
    );
}

#[test]
fn fig4_shape_nonsymmetric_early_vulnerability() {
    // The paper's §VII-E observation on the nonsymmetric problem:
    // penalties concentrate early (the first inner solves). Verified on
    // the small synthetic circuit.
    let p = problems::dcop(None, 1200, 1311);
    let cfg = CampaignConfig { outer_tol: 1e-6, ..cfg() };
    let ff = failure_free(&p, &cfg);
    assert!(ff.outcome.is_converged(), "{:?}", ff.outcome);
    let res = run_sweep(&p, &cfg, FaultClass::Slight, MgsPosition::First, ff.iterations);
    assert_eq!(res.count_failures(), 0);
    let worst_point =
        res.points.iter().max_by_key(|pt| pt.outer_iterations).expect("nonempty sweep");
    if worst_point.outer_iterations > ff.iterations {
        let domain = res.points.last().unwrap().aggregate;
        assert!(
            worst_point.aggregate <= domain / 2 + 1,
            "worst penalty at {} of {domain}: not early",
            worst_point.aggregate
        );
    }
}

#[test]
fn ritz_values_of_arnoldi_h_lie_in_operator_spectrum() {
    // Cross-validation of three substrates: Arnoldi (core), the exact
    // Poisson spectrum (sparse gallery) and the symmetric eigensolver
    // (dense): the Ritz values of the tridiagonal H are inside
    // [λ_min, λ_max] of the operator.
    use sdc_repro::dense::eigen::symmetric_eigen;
    use sdc_repro::solvers::arnoldi::arnoldi;
    use sdc_repro::solvers::ortho::OrthoStrategy;
    let m = 12;
    let a = gallery::poisson2d(m);
    let (lmin, lmax, _) = gallery::poisson2d_spectrum(m);
    let v0: Vec<f64> = (0..a.nrows()).map(|i| ((i as f64) * 0.7).sin() + 0.3).collect();
    let dec = arnoldi(&a, &v0, 15, OrthoStrategy::Mgs);
    let k = dec.h.cols();
    // Square (tridiagonal) part of H; symmetrize away rounding noise.
    let mut hsq = sdc_repro::dense::DenseMatrix::zeros(k, k);
    for c in 0..k {
        for r in 0..k {
            hsq[(r, c)] = (dec.h[(r, c)] + dec.h[(c, r)]) / 2.0;
        }
    }
    let e = symmetric_eigen(&hsq, 1e-8).unwrap();
    assert!(e.lambda_min() >= lmin - 1e-8, "Ritz below λ_min: {}", e.lambda_min());
    assert!(e.lambda_max() <= lmax + 1e-8, "Ritz above λ_max: {}", e.lambda_max());
    // The extreme Ritz values approximate the spectrum edges from inside.
    assert!(e.lambda_max() > 0.8 * lmax, "λ_max Ritz convergence too poor");
}
