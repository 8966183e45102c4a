//! SIMD kernel contracts, property-tested.
//!
//! The AVX2 SELL kernel must be *bitwise* equal to the scalar kernel
//! over random matrices, chunk heights and σ windows — including
//! NaN-corrupted padding slots (which the masked gather must never read)
//! and zero-width chunks.
//!
//! Every test that pins a SIMD mode holds `test_mode_guard`, which
//! serializes the global-mode flips and restores `auto` on drop.

use proptest::prelude::*;
use sdc_sparse::simd::{set_mode, test_mode_guard, SimdMode};
use sdc_sparse::{CooMatrix, CsrMatrix, SellMatrix};
use std::collections::BTreeMap;

fn csr_from(entries: &[(usize, usize, f64)], r: usize, c: usize) -> CsrMatrix {
    let mut map = BTreeMap::new();
    for &(i, j, v) in entries {
        if i < r && j < c {
            map.insert((i, j), v);
        }
    }
    let mut coo = CooMatrix::new(r, c);
    for (&(i, j), &v) in &map {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

fn probe(c: usize) -> Vec<f64> {
    (0..c).map(|i| (i as f64 * 0.7).sin() * 2.0 - 0.3).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sell_simd_bitwise_equals_scalar(
        r in 1usize..40,
        c in 1usize..40,
        entries in proptest::collection::vec(
            (0usize..40, 0usize..40, -100.0f64..100.0), 0..220),
        chunk_sel in 0usize..4,
        sigma_sel in 0usize..4,
        corrupt_sel in 0usize..2,
    ) {
        let corrupt_padding = corrupt_sel == 1;
        let a = csr_from(&entries, r, c);
        // C = 8 twice: that is the SIMD-eligible chunk height; the other
        // heights pin the scalar fallback.
        let chunk = [1, 3, 8, 8][chunk_sel];
        let sigma = [1, 2, 8, 64][sigma_sel];
        let mut s = SellMatrix::from_csr_with(&a, chunk, sigma);
        if corrupt_padding {
            // The masked gather must leave padding architecturally
            // unread: NaN here may not perturb a single output bit.
            for i in 0..s.storage_len() {
                if s.is_padding_slot(i) {
                    s.values_mut()[i] = f64::NAN;
                }
            }
        }
        let x = probe(c);
        let _guard = test_mode_guard();
        set_mode(SimdMode::Scalar).unwrap();
        let mut y_scalar = vec![0.0; r];
        s.spmv(&x, &mut y_scalar);
        let mut y_csr = vec![0.0; r];
        a.spmv(&x, &mut y_csr);
        if !corrupt_padding {
            for i in 0..r {
                prop_assert_eq!(y_scalar[i].to_bits(), y_csr[i].to_bits(), "row {}", i);
            }
        }
        if set_mode(SimdMode::Avx2).is_ok() {
            let mut y_simd = vec![0.0; r];
            s.spmv(&x, &mut y_simd);
            let mut y_par = vec![0.0; r];
            s.par_spmv(&x, &mut y_par);
            for i in 0..r {
                prop_assert_eq!(
                    y_scalar[i].to_bits(), y_simd[i].to_bits(),
                    "C={} sigma={} row {}", chunk, sigma, i);
                prop_assert_eq!(y_scalar[i].to_bits(), y_par[i].to_bits(), "par row {}", i);
            }
        }
    }
}

/// Zero-width (empty) chunks: eight consecutive empty stored rows give a
/// chunk whose slab is empty; the SIMD kernel must handle `width == 0`.
#[test]
fn sell_simd_handles_empty_chunks() {
    let mut coo = CooMatrix::new(16, 16);
    for i in 0..8 {
        coo.push(i, i, 1.0 + i as f64);
    }
    // Rows 8..16 empty: with C = 8 and σ = 1 the second chunk has width 0.
    let a = coo.to_csr();
    let s = SellMatrix::from_csr_with(&a, 8, 1);
    let x = probe(16);
    let _guard = test_mode_guard();
    set_mode(SimdMode::Scalar).unwrap();
    let mut y_scalar = vec![0.0; 16];
    s.spmv(&x, &mut y_scalar);
    if set_mode(SimdMode::Avx2).is_ok() {
        let mut y_simd = vec![0.0; 16];
        s.spmv(&x, &mut y_simd);
        for i in 0..16 {
            assert_eq!(y_scalar[i].to_bits(), y_simd[i].to_bits(), "row {i}");
        }
    }
}
