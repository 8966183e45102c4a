//! Right-preconditioned GMRES across the preconditioner vocabulary
//! (none / jacobi / ilu0 / chebyshev) on the same two matrices as the
//! SpMV format bench: the near-uniform `poisson180` stencil and the
//! ragged `circuit3000` MNA system. Measures wall time to tolerance and
//! records the (deterministic) iterations-to-tol per preconditioner.
//!
//! `BENCH_precond.json` at the repo root commits the baseline medians;
//! CI's `bench-regression` job re-runs in quick mode (`BENCH_QUICK=1`,
//! same matrices, fewer samples) and fails on gross slowdowns via
//! `bench_gate`. Iteration counts ride along in the same dump as
//! `gmres_precond_iters_*` pseudo-benches (the "µs" fields hold the
//! iteration count); they are bitwise deterministic, so the gate pins
//! them far more tightly than any timing.
//!
//! The bench also asserts the headline claim the preconditioners exist
//! for: on poisson180 at tol 1e-8, ILU(0) or Chebyshev must converge in
//! at most half the unpreconditioned iterations.
//!
//! `precond_apply_poisson180/{ilu0,chebyshev}` time one `z = M⁻¹q`
//! apply alone: the preconditioner layer's own number, without the
//! GMRES around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdc_gmres::gmres::{gmres_solve_right_precond, GmresConfig};
use sdc_gmres::precond::{BuiltPrecond, PrecondKind};
use sdc_sparse::{gallery, CsrMatrix};
use std::hint::black_box;
use std::io::Write as _;

struct Case {
    name: &'static str,
    a: CsrMatrix,
    tol: f64,
    maxit: usize,
}

fn cases() -> Vec<Case> {
    vec![
        Case { name: "poisson180", a: gallery::poisson2d(180), tol: 1e-8, maxit: 2000 },
        Case {
            name: "circuit3000",
            a: {
                // Equilibrated like the campaign dcop problem: the raw
                // MNA scaling (supply rails vs leakage) stalls even full
                // GMRES, which would measure the scaling, not the
                // preconditioner.
                let mut a = gallery::circuit_mna(&gallery::CircuitMnaConfig {
                    nodes: 3000,
                    seed: 7,
                    ..Default::default()
                });
                sdc_campaigns::problems::equilibrate(&mut a);
                a
            },
            tol: 1e-8,
            maxit: 3000,
        },
    ]
}

/// Appends the deterministic iteration counts to the `BENCH_JSON` dump
/// in the same line format the vendored criterion writes, so the
/// committed baseline pins them alongside the timings.
fn dump_iteration_counts(group: &str, iters: &[(PrecondKind, usize)]) {
    let Ok(path) = std::env::var("BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let isa = sdc_sparse::simd::active().as_str();
    let mut text = String::new();
    for (kind, n) in iters {
        text.push_str(&format!(
            "{{\"id\":\"{group}/{kind}\",\"samples\":1,\"min_us\":{n},\"median_us\":{n},\"mean_us\":{n},\"isa\":\"{isa}\",\"tier\":\"strict\"}}\n"
        ));
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()));
    if let Err(e) = written {
        eprintln!("gmres_precond: cannot append BENCH_JSON to {path}: {e}");
    }
}

fn bench_gmres_precond(c: &mut Criterion) {
    criterion::set_dump_context(&[
        ("isa", sdc_sparse::simd::active().as_str()),
        ("tier", "strict"),
    ]);
    for case in cases() {
        let a = &case.a;
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        let cfg = GmresConfig { tol: case.tol, max_iters: case.maxit, ..Default::default() };

        let mut iters: Vec<(PrecondKind, usize)> = Vec::new();
        let mut g = c.benchmark_group(format!("gmres_precond_{}", case.name));
        g.sample_size(10);
        for kind in PrecondKind::all() {
            let pc = BuiltPrecond::build(kind, a)
                .unwrap_or_else(|e| panic!("{kind} on {}: {e}", case.name));
            let (_, report) = gmres_solve_right_precond(a, &b, None, &cfg, &pc);
            assert!(
                report.outcome.is_converged(),
                "{kind} GMRES must converge on {} (tol {:.0e}): stopped at {} iterations",
                case.name,
                case.tol,
                report.iterations
            );
            println!(
                "{}/{kind}: {} iterations to tol {:.0e}",
                case.name, report.iterations, case.tol
            );
            iters.push((kind, report.iterations));
            g.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |bch, _| {
                bch.iter(|| black_box(gmres_solve_right_precond(a, &b, None, &cfg, &pc)))
            });
        }
        g.finish();
        dump_iteration_counts(&format!("gmres_precond_iters_{}", case.name), &iters);

        if case.name == "poisson180" {
            bench_apply(c, case.name, a, &b);
            let count = |k: PrecondKind| iters.iter().find(|(kk, _)| *kk == k).unwrap().1;
            let none = count(PrecondKind::None);
            let best = count(PrecondKind::Ilu0).min(count(PrecondKind::Chebyshev));
            assert!(
                2 * best <= none,
                "ILU(0) or Chebyshev must at least halve poisson180 iterations \
                 (none={none}, best preconditioned={best})"
            );
        }
    }
}

/// One preconditioner apply per sample, for the kinds with real work.
fn bench_apply(c: &mut Criterion, name: &str, a: &CsrMatrix, q: &[f64]) {
    let mut g = c.benchmark_group(format!("precond_apply_{name}"));
    g.sample_size(200);
    let mut z = vec![0.0; a.nrows()];
    for kind in [PrecondKind::Ilu0, PrecondKind::Chebyshev] {
        let pc = BuiltPrecond::build(kind, a).unwrap_or_else(|e| panic!("{kind} on {name}: {e}"));
        g.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |bch, _| {
            bch.iter(|| pc.solve(black_box(q), black_box(&mut z)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gmres_precond);
criterion_main!(benches);
