//! Quickstart: assemble a sparse system, solve it three ways, inspect
//! the reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sdc_gmres::prelude::*;
use sdc_sparse::gallery;

fn main() {
    // The paper's first test problem at a laptop-friendly size:
    // the 5-point Poisson operator on a 50x50 interior grid.
    let a = gallery::poisson2d(50);
    let n = a.nrows();
    println!("matrix: {} rows, {} nonzeros, ‖A‖_F = {:.2}", n, a.nnz(), a.norm_fro());

    // Right-hand side with known solution x* = 1.
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    a.par_spmv(&ones, &mut b);

    // 1. Plain GMRES.
    let cfg = GmresConfig { tol: 1e-10, max_iters: 300, ..Default::default() };
    let (x, rep) = gmres_solve(&a, &b, None, &cfg);
    report("GMRES", &x, &rep);

    // 2. Restarted GMRES(25): bounded basis memory, more iterations.
    let cfg = GmresConfig { tol: 1e-10, max_iters: 1000, restart: Some(25), ..Default::default() };
    let (x, rep) = gmres_solve(&a, &b, None, &cfg);
    report("GMRES(25)", &x, &rep);

    // 3. FT-GMRES: reliable outer iteration, 25-iteration inner GMRES
    //    solves as the (sandboxed) preconditioner, SDC detector armed.
    let ft = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-10, max_outer: 40, ..Default::default() },
        inner_iters: 25,
        inner_detector: Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner)),
        ..Default::default()
    };
    let (x, rep) = sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &ft);
    report("FT-GMRES", &x, &rep);
    println!(
        "  (outer iterations: {}, total inner iterations: {})",
        rep.iterations, rep.total_inner_iterations
    );
}

fn report(name: &str, x: &[f64], rep: &SolveReport) {
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
    println!(
        "{name:>9}: {:?} in {} iterations | true residual {:.2e} | max error vs x*=1: {:.2e}",
        rep.outcome,
        rep.iterations,
        rep.true_residual_norm.unwrap_or(f64::NAN),
        err
    );
}
