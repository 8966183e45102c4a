//! CSR vs SELL-C-σ SpMV across the gallery's two structural classes, at
//! 1/2/4 threads. `BENCH_spmv.json` at the repo root commits the
//! baseline medians; CI's `bench-regression` job re-runs this bench in
//! quick mode (`BENCH_QUICK=1`, same matrices, fewer samples) and fails
//! on gross slowdowns via the `bench_gate` binary.
//!
//! Three engines per matrix: CSR and SELL under the auto-detected ISA,
//! and SELL under the forced scalar fallback (`sell_scalar` — the AVX2
//! speedup witness is the sell/sell_scalar ratio on poisson180).
//!
//! Before timing anything, every product is compared *bitwise* against
//! the 1-thread CSR result — the bench doubles as an end-to-end witness
//! of the format/thread/SIMD determinism contract.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdc_sparse::simd::{set_mode, SimdMode};
use sdc_sparse::{auto_format, gallery, CsrMatrix, SellMatrix};
use std::hint::black_box;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

struct Case {
    name: &'static str,
    a: CsrMatrix,
}

fn cases() -> Vec<Case> {
    vec![
        // Near-uniform rows (5-point stencil): SELL's best case; auto
        // picks SELL. n = 32 400, nnz = 161 280.
        Case { name: "poisson180", a: gallery::poisson2d(180) },
        // Ragged circuit rows (supply rails): padding-hostile; the auto
        // heuristic decides from the fill ratio.
        Case {
            name: "circuit3000",
            a: gallery::circuit_mna(&gallery::CircuitMnaConfig {
                nodes: 3000,
                seed: 7,
                ..Default::default()
            }),
        },
    ]
}

/// The kernel engines under test. `simd` forces a mode for the
/// duration of the engine's groups (None = leave the active mode).
struct Engine {
    name: &'static str,
    simd: Option<SimdMode>,
    sell: bool,
}

const ENGINES: [Engine; 3] = [
    Engine { name: "csr", simd: None, sell: false },
    Engine { name: "sell", simd: None, sell: true },
    Engine { name: "sell_scalar", simd: Some(SimdMode::Scalar), sell: true },
];

fn bench_spmv_formats(c: &mut Criterion) {
    for case in cases() {
        let a = &case.a;
        let sell = SellMatrix::from_csr(a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).cos()).collect();

        sdc_parallel::set_threads(1);
        let mut reference = vec![0.0; a.nrows()];
        a.par_spmv(&x, &mut reference);

        let stats = sdc_sparse::structure::row_length_stats(a);
        println!(
            "{}: n={} nnz={} row_len(mean={:.2} cv={:.2}) sell_fill={:.3} auto={}",
            case.name,
            a.nrows(),
            a.nnz(),
            stats.mean,
            stats.cv(),
            sell.fill_ratio(),
            auto_format(a)
        );

        for engine in &ENGINES {
            if let Some(mode) = engine.simd {
                set_mode(mode).expect("scalar fallback always available");
            }
            // Tag this engine's BENCH_JSON lines with the ISA it actually
            // runs (and the strict kernel tier the baselines record), so
            // baselines regenerated on SIMD hosts are self-describing and
            // bench_gate can flag a machine-class mismatch.
            criterion::set_dump_context(&[
                ("isa", sdc_sparse::simd::active().as_str()),
                ("tier", "strict"),
            ]);
            let mut g = c.benchmark_group(format!("spmv_{}_{}", engine.name, case.name));
            g.sample_size(20);
            for t in THREAD_COUNTS {
                sdc_parallel::set_threads(t);
                let mut y = vec![0.0; a.nrows()];
                let run = |y: &mut Vec<f64>| {
                    if engine.sell {
                        sell.par_spmv(&x, y)
                    } else {
                        a.par_spmv(&x, y)
                    }
                };
                run(&mut y);
                assert!(
                    y.iter().zip(&reference).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{} SpMV must be bitwise format-, thread- and SIMD-independent",
                    engine.name
                );
                g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
                    b.iter(|| {
                        run(black_box(&mut y));
                        black_box(y[0])
                    })
                });
            }
            g.finish();
            if engine.simd.is_some() {
                set_mode(SimdMode::Auto).expect("restore auto dispatch");
            }
        }
        sdc_parallel::set_threads(0);
    }
}

criterion_group!(benches, bench_spmv_formats);
criterion_main!(benches);
