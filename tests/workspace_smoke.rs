//! Workspace smoke test: the umbrella crate's re-export surface resolves
//! and a tiny end-to-end solve works through `sdc_repro::prelude` alone.
//!
//! This is the tier-1 canary for the Cargo workspace wiring itself — if a
//! crate rename, prelude change, or dependency edge breaks, this file
//! fails before any numerics are in question.

use sdc_repro::prelude::*;

/// Every re-exported layer is reachable under its umbrella path.
#[test]
fn umbrella_reexports_resolve() {
    // dense
    let m = sdc_repro::dense::DenseMatrix::identity(3);
    assert_eq!(m[(2, 2)], 1.0);
    // sparse (via prelude)
    let a: CsrMatrix = gallery::poisson2d(3);
    assert_eq!(a.nrows(), 9);
    // faults
    let f = sdc_repro::faults::FaultModel::CLASS1_HUGE;
    assert_eq!(f.apply(2.0), 2e150);
    // solvers: prelude types are nameable and default-constructible
    let _ = GmresConfig::default();
    let _ = FtGmresConfig::default();
    let _ = LstsqPolicy::default();
    let _ = DetectorResponse::Record;
}

/// A tiny Poisson problem converges end-to-end through the prelude.
#[test]
fn tiny_poisson_gmres_converges() {
    let a = gallery::poisson2d(6);
    let n = a.nrows();
    // b = A·1 so the exact solution is the all-ones vector.
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    a.spmv(&ones, &mut b);

    let cfg = GmresConfig { tol: 1e-10, max_iters: 100, ..Default::default() };
    let (x, report) = gmres_solve(&a, &b, None, &cfg);

    assert!(report.outcome.is_converged(), "outcome: {:?}", report.outcome);
    let max_err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
    assert!(max_err < 1e-8, "max error vs exact solution: {max_err}");
}
