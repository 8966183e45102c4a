//! Criterion microbenchmarks for the computational kernels.
//!
//! Backs the paper's performance claims at the kernel level: SpMV is the
//! dominant cost, orthogonalization grows linearly with the iteration
//! index, and the parallel kernels are worth their overhead at the
//! experiment sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdc_dense::vector;
use sdc_faults::NoFaults;
use sdc_gmres::ortho::{orthogonalize, OrthoSiteCtx};
use sdc_sparse::gallery;
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    criterion::set_dump_context(&[
        ("isa", sdc_sparse::simd::active().as_str()),
        ("tier", "strict"),
    ]);
    let mut g = c.benchmark_group("spmv");
    g.sample_size(20);
    for m in [50usize, 100] {
        let a = gallery::poisson2d(m);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; n];
        g.bench_with_input(BenchmarkId::new("serial", n), &a, |b, a| {
            b.iter(|| {
                a.spmv(black_box(&x), &mut y);
                black_box(&y);
            })
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &a, |b, a| {
            b.iter(|| {
                a.par_spmv(black_box(&x), &mut y);
                black_box(&y);
            })
        });
    }
    g.finish();
}

fn bench_dot(c: &mut Criterion) {
    let mut g = c.benchmark_group("dot");
    g.sample_size(30);
    for n in [10_000usize, 100_000] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).cos()).collect();
        g.bench_with_input(BenchmarkId::new("pairwise", n), &n, |b, _| {
            b.iter(|| black_box(vector::dot(&x, &y)))
        });
    }
    g.finish();
}

/// `k` unit vectors of length `n` and a start vector to orthogonalize.
fn ortho_case(n: usize, k: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let basis = (0..k)
        .map(|j| {
            let mut v: Vec<f64> = (0..n).map(|i| ((i + 7 * j) as f64 * 0.31).sin()).collect();
            vector::normalize(&mut v);
            v
        })
        .collect();
    (basis, (0..n).map(|i| (i as f64 * 0.53).cos()).collect())
}

fn orthogonalize_once(basis: &[Vec<f64>], v0: &[f64]) -> f64 {
    let mut v = v0.to_vec();
    let ctx = OrthoSiteCtx { outer_iteration: 0, inner_solve: 0, column: basis.len() };
    orthogonalize(basis, &mut v, ctx, &NoFaults, None).vnorm
}

fn bench_ortho(c: &mut Criterion) {
    // Orthogonalization cost grows linearly in the basis size — the
    // paper's argument that extra robustness early in the inner solve is
    // nearly free (§VII-E-1). n = 10,000 is the fig3 inner solve (one
    // thread: a campaign runs its solves on pool workers).
    let mut g = c.benchmark_group("orthogonalize");
    g.sample_size(20);
    let n = 10_000;
    for basis_size in [1usize, 5, 25] {
        let (basis, v0) = ortho_case(n, basis_size);
        g.bench_with_input(BenchmarkId::new("Mgs", basis_size), &basis_size, |b, _| {
            b.iter(|| black_box(orthogonalize_once(&basis, &v0)))
        });
    }
    // The last step of a GMRES(128) cycle on poisson180: past the team
    // gate, so at two threads every coefficient's blocks are split.
    let (basis, v0) = ortho_case(32_400, 128);
    for threads in [1usize, 2] {
        sdc_parallel::set_threads(threads);
        g.bench_with_input(
            BenchmarkId::new(format!("Mgs_threads{threads}"), "32400x128"),
            &threads,
            |b, _| b.iter(|| black_box(orthogonalize_once(&basis, &v0))),
        );
    }
    sdc_parallel::set_threads(0);
    g.finish();
}

criterion_group!(benches, bench_spmv, bench_dot, bench_ortho);
criterion_main!(benches);
