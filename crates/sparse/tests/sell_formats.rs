//! Format-determinism contract across the gallery: SELL-C-σ SpMV is
//! bitwise equal to CSR SpMV on random, Poisson and circuit matrices at
//! pinned 1-thread and 4-thread pools, and the CSR→SELL→CSR round trip
//! is exact. (The CI test matrix additionally runs this whole file under
//! `SDC_THREADS=1` and `=4`; the explicit pinning below makes the
//! cross-thread-count comparison hold inside a single process too.)

use sdc_sparse::{gallery, CsrMatrix, SellMatrix};

fn gallery_cases() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("random", gallery::sprand(300, 300, 0.03, 2026)),
        // Large enough that par_spmv takes its parallel branch.
        ("poisson", gallery::poisson2d(150)),
        (
            "circuit",
            gallery::circuit_mna(&gallery::CircuitMnaConfig {
                nodes: 900,
                seed: 5,
                ..Default::default()
            }),
        ),
    ]
}

#[test]
fn sell_round_trips_and_matches_csr_bitwise_at_1_2_and_8_threads() {
    let _guard = sdc_parallel::test_serial_guard();
    for (name, a) in gallery_cases() {
        let sell = SellMatrix::from_csr(&a);
        assert_eq!(sell.to_csr(), a, "{name}: CSR→SELL→CSR must be exact");

        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.43).sin() + 0.2).collect();
        let mut reference = vec![0.0; a.nrows()];
        a.spmv(&x, &mut reference); // serial CSR: the ground truth

        for threads in [1usize, 2, 8] {
            sdc_parallel::set_threads(threads);
            let mut y_csr = vec![0.0; a.nrows()];
            let mut y_sell = vec![0.0; a.nrows()];
            a.par_spmv(&x, &mut y_csr);
            sell.par_spmv(&x, &mut y_sell);
            for i in 0..a.nrows() {
                assert_eq!(
                    reference[i].to_bits(),
                    y_csr[i].to_bits(),
                    "{name}: CSR thread-count drift at row {i} ({threads} threads)"
                );
                assert_eq!(
                    reference[i].to_bits(),
                    y_sell[i].to_bits(),
                    "{name}: SELL format drift at row {i} ({threads} threads)"
                );
            }
        }
        sdc_parallel::set_threads(0);
    }
}

#[test]
fn auto_format_is_deterministic_per_matrix() {
    for (name, a) in gallery_cases() {
        let f1 = sdc_sparse::auto_format(&a);
        let f2 = sdc_sparse::auto_format(&a);
        assert_eq!(f1, f2, "{name}");
        assert_ne!(f1, sdc_sparse::SparseFormat::Auto, "{name}: auto must resolve");
    }
    // The two structural classes land where the heuristic intends:
    // stencil rows are uniform (SELL), tiny matrices stay CSR.
    assert_eq!(sdc_sparse::auto_format(&gallery::poisson2d(150)), sdc_sparse::SparseFormat::Sell);
    assert_eq!(sdc_sparse::auto_format(&gallery::poisson2d(6)), sdc_sparse::SparseFormat::Csr);
}
