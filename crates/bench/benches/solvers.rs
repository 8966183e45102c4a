//! Criterion benchmarks at the solver level: time-to-solution of GMRES,
//! restarted GMRES and FT-GMRES on the Poisson problem, and the
//! cost of running FT-GMRES with injection plumbing armed versus
//! fault-free — the end-to-end version of the "cheap detector" claim.

use criterion::{criterion_group, criterion_main, Criterion};
use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
use sdc_gmres::prelude::*;
use sdc_sparse::gallery;
use std::hint::black_box;

fn problem() -> (sdc_sparse::CsrMatrix, Vec<f64>) {
    let a = gallery::poisson2d(40);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

fn bench_solvers(c: &mut Criterion) {
    criterion::set_dump_context(&[
        ("isa", sdc_sparse::simd::active().as_str()),
        ("tier", "strict"),
    ]);
    let mut g = c.benchmark_group("time_to_solution_poisson40");
    g.sample_size(10);
    let (a, b) = problem();

    g.bench_function("gmres_full", |bch| {
        let cfg = GmresConfig { tol: 1e-7, max_iters: 400, ..Default::default() };
        bch.iter(|| black_box(gmres_solve(&a, &b, None, &cfg)))
    });
    g.bench_function("gmres_restart25", |bch| {
        let cfg =
            GmresConfig { tol: 1e-7, max_iters: 2000, restart: Some(25), ..Default::default() };
        bch.iter(|| black_box(gmres_solve(&a, &b, None, &cfg)))
    });
    g.bench_function("ftgmres_25inner", |bch| {
        let cfg = FtGmresConfig {
            outer: sdc_gmres::fgmres::FgmresConfig {
                tol: 1e-7,
                max_outer: 60,
                ..Default::default()
            },
            inner_iters: 25,
            ..Default::default()
        };
        bch.iter(|| black_box(sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &cfg)))
    });
    g.finish();
}

fn bench_injection_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftgmres_injection_overhead");
    g.sample_size(10);
    let (a, b) = problem();
    let cfg = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-7, max_outer: 60, ..Default::default() },
        inner_iters: 25,
        ..Default::default()
    };
    g.bench_function("fault_free", |bch| {
        bch.iter(|| black_box(sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &cfg)))
    });
    g.bench_function("armed_injector", |bch| {
        // Single-shot injector targeting a site that exists: measures the
        // full plumbing cost including the one committed fault.
        bch.iter(|| {
            let point = CampaignPoint {
                aggregate_iteration: 30,
                inner_per_outer: 25,
                class: FaultClass::Slight,
                position: MgsPosition::First,
            };
            let inj = point.injector();
            black_box(sdc_gmres::ftgmres::ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj))
        })
    });
    let det_cfg = FtGmresConfig {
        inner_detector: Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner)),
        ..cfg
    };
    g.bench_function("armed_injector_plus_detector", |bch| {
        bch.iter(|| {
            let point = CampaignPoint {
                aggregate_iteration: 30,
                inner_per_outer: 25,
                class: FaultClass::Huge,
                position: MgsPosition::First,
            };
            let inj = point.injector();
            black_box(sdc_gmres::ftgmres::ftgmres_solve_instrumented(&a, &b, None, &det_cfg, &inj))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_solvers, bench_injection_overhead);
criterion_main!(benches);
