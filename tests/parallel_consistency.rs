//! Integration test: the parallel kernels are bitwise identical to the
//! serial ones, and whole solves are bitwise reproducible run-to-run —
//! the property that makes the fault-injection campaign's comparisons
//! meaningful.
//!
//! The `par_*` kernels run on the `sdc_parallel` pool (sized by
//! `SDC_THREADS`) through `par_map`/`par_chunks_mut`, so these assertions
//! compare threaded runs against the serial kernels: they catch a
//! reduction whose result depends on thread count.

use sdc_repro::dense::vector;
use sdc_repro::prelude::*;
use sdc_repro::solvers::ftgmres::ftgmres_solve;

#[test]
fn par_spmv_bitwise_equals_spmv_at_experiment_scale() {
    let a = gallery::poisson2d(60); // 3600 rows, above the parallel cutoff
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.193).sin() * 3.0).collect();
    let mut y1 = vec![0.0; a.nrows()];
    let mut y2 = vec![0.0; a.nrows()];
    a.spmv(&x, &mut y1);
    a.par_spmv(&x, &mut y2);
    for i in 0..y1.len() {
        assert_eq!(y1[i].to_bits(), y2[i].to_bits(), "row {i}");
    }
}

#[test]
fn par_dot_bitwise_equals_dot_at_experiment_scale() {
    // Past PAR_MIN `dot` evaluates its blocks on the pool; one thread
    // runs the same blocks in a loop.
    let _guard = sdc_repro::parallel::test_serial_guard();
    let n = 100_000;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.371).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.517).cos()).collect();
    sdc_repro::parallel::set_threads(1);
    let serial = vector::dot(&x, &y);
    sdc_repro::parallel::set_threads(4);
    let parallel = vector::dot(&x, &y);
    sdc_repro::parallel::set_threads(0);
    assert_eq!(serial.to_bits(), parallel.to_bits());
}

#[test]
fn whole_solve_is_bitwise_reproducible() {
    let a = gallery::poisson2d(20);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    let cfg = FtGmresConfig {
        outer: sdc_repro::solvers::fgmres::FgmresConfig {
            tol: 1e-9,
            max_outer: 40,
            ..Default::default()
        },
        inner_iters: 10,
        ..Default::default()
    };
    let (x1, r1) = ftgmres_solve(&a, &b, None, &cfg);
    let (x2, r2) = ftgmres_solve(&a, &b, None, &cfg);
    assert_eq!(r1.iterations, r2.iterations);
    for i in 0..x1.len() {
        assert_eq!(x1[i].to_bits(), x2[i].to_bits(), "x[{i}] differs between runs");
    }
    assert_eq!(r1.residual_history.len(), r2.residual_history.len(), "residual histories diverged");
    for (a1, a2) in r1.residual_history.iter().zip(r2.residual_history.iter()) {
        assert_eq!(a1.to_bits(), a2.to_bits());
    }
}

#[test]
fn faulted_solve_is_bitwise_reproducible() {
    use sdc_repro::faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
    use sdc_repro::solvers::ftgmres::ftgmres_solve_instrumented;
    let a = gallery::poisson2d(16);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    let cfg = FtGmresConfig {
        outer: sdc_repro::solvers::fgmres::FgmresConfig {
            tol: 1e-8,
            max_outer: 40,
            ..Default::default()
        },
        inner_iters: 8,
        ..Default::default()
    };
    let point = CampaignPoint {
        aggregate_iteration: 11,
        inner_per_outer: 8,
        class: FaultClass::Huge,
        position: MgsPosition::First,
    };
    let run = || {
        let inj = point.injector();
        ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj)
    };
    let (x1, r1) = run();
    let (x2, r2) = run();
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.injections.len(), 1);
    assert_eq!(r2.injections.len(), 1);
    assert_eq!(r1.injections[0].original.to_bits(), r2.injections[0].original.to_bits());
    for i in 0..x1.len() {
        assert_eq!(x1[i].to_bits(), x2[i].to_bits());
    }
}
