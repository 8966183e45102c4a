//! Property-based tests for the sparse substrate.

use proptest::prelude::*;
use sdc_dense::vector;
use sdc_sparse::gallery;
use sdc_sparse::io::{read_matrix_market_from, write_matrix_market_to};
use sdc_sparse::{structure, CooMatrix};
use std::io::Cursor;

/// Strategy: a random COO matrix with bounded size and entries.
fn coo_strategy(max_n: usize) -> impl Strategy<Value = CooMatrix> {
    (1..max_n, 1..max_n).prop_flat_map(|(r, c)| {
        let triplets =
            proptest::collection::vec((0..r, 0..c, -100.0f64..100.0), 0..(r * c).min(80) + 1);
        triplets.prop_map(move |ts| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in ts {
                coo.push(i, j, v);
            }
            coo
        })
    })
}

proptest! {
    #[test]
    fn csr_spmv_matches_dense_matvec(coo in coo_strategy(12)) {
        let a = coo.to_csr();
        let d = a.to_dense();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.61).sin() + 0.3).collect();
        let mut ys = vec![0.0; a.nrows()];
        a.spmv(&x, &mut ys);
        let mut yd = vec![0.0; a.nrows()];
        d.matvec(&x, &mut yd);
        for i in 0..a.nrows() {
            prop_assert!((ys[i] - yd[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy(12)) {
        let a = coo.to_csr();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmv_transpose_adjoint_identity(coo in coo_strategy(10)) {
        // <A x, y> == <x, Aᵀ y> up to rounding.
        let a = coo.to_csr();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).cos()).collect();
        let y: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.73).sin()).collect();
        let mut ax = vec![0.0; a.nrows()];
        a.spmv(&x, &mut ax);
        let mut aty = vec![0.0; a.ncols()];
        a.spmv_transpose(&y, &mut aty);
        let lhs = vector::dot(&ax, &y);
        let rhs = vector::dot(&x, &aty);
        let scale = a.norm_fro().max(1.0) * vector::nrm2(&x).max(1.0) * vector::nrm2(&y).max(1.0);
        prop_assert!((lhs - rhs).abs() <= 1e-12 * scale);
    }

    #[test]
    fn matrix_market_round_trip_is_exact(coo in coo_strategy(10)) {
        let a = coo.to_csr();
        let mut bytes = Vec::new();
        write_matrix_market_to(&mut bytes, &a).unwrap();
        let b = read_matrix_market_from(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn structural_rank_bounds(coo in coo_strategy(10)) {
        let a = coo.to_csr();
        let sr = structure::structural_rank(&a);
        prop_assert!(sr <= a.nrows().min(a.ncols()));
        // Rank at least the number of rows holding a "private" column is
        // hard to compute; weaker invariant: a nonzero matrix has rank>=1.
        if a.nnz() > 0 {
            prop_assert!(sr >= 1);
        } else {
            prop_assert_eq!(sr, 0);
        }
    }

    // SELL-C-σ: the format must be lossless and bitwise-invisible for
    // *every* pattern and every (C, σ) — not just the gallery shapes.

    #[test]
    fn csr_sell_csr_round_trip_is_exact(
        coo in coo_strategy(14),
        chunk in 1usize..9,
        sigma in 1usize..20,
    ) {
        let a = coo.to_csr();
        let s = sdc_sparse::SellMatrix::from_csr_with(&a, chunk, sigma);
        prop_assert_eq!(s.to_csr(), a);
    }

    #[test]
    fn sell_spmv_is_bitwise_equal_to_csr(
        coo in coo_strategy(14),
        chunk in 1usize..9,
        sigma in 1usize..20,
    ) {
        let a = coo.to_csr();
        let s = sdc_sparse::SellMatrix::from_csr_with(&a, chunk, sigma);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.61).sin() + 0.3).collect();
        let mut yc = vec![0.0; a.nrows()];
        let mut ys = vec![0.0; a.nrows()];
        let mut yp = vec![0.0; a.nrows()];
        a.spmv(&x, &mut yc);
        s.spmv(&x, &mut ys);
        s.par_spmv(&x, &mut yp);
        for i in 0..a.nrows() {
            prop_assert_eq!(yc[i].to_bits(), ys[i].to_bits(), "serial row {}", i);
            prop_assert_eq!(yc[i].to_bits(), yp[i].to_bits(), "parallel row {}", i);
        }
    }

    #[test]
    fn frobenius_dominates_each_entry(coo in coo_strategy(10)) {
        // The detector-bound chain: every |a_ij| ≤ ‖A‖_max ≤ ‖A‖_F.
        let a = coo.to_csr();
        prop_assert!(a.norm_max() <= a.norm_fro() + 1e-12);
    }

    #[test]
    fn poisson_sizes_are_consistent(m in 1usize..12) {
        let a = gallery::poisson2d(m);
        prop_assert_eq!(a.nrows(), m * m);
        // nnz = 5m² − 4m (each grid direction drops 2m boundary couplings).
        prop_assert_eq!(a.nnz(), 5 * m * m - 4 * m);
        prop_assert!(a.is_numerically_symmetric(0.0));
        prop_assert_eq!(a, gallery::poisson2d_kron(m));
    }

    #[test]
    fn kron_norm_multiplicativity(m in 1usize..5, n in 1usize..5) {
        // ‖A ⊗ B‖_F = ‖A‖_F · ‖B‖_F.
        let a = gallery::poisson1d(m);
        let b = gallery::grcar(n, 1);
        let k = sdc_sparse::ops::kron(&a, &b);
        let lhs = k.norm_fro();
        let rhs = a.norm_fro() * b.norm_fro();
        prop_assert!((lhs - rhs).abs() < 1e-10 * rhs.max(1.0));
    }

    // Matrix Market round trips. Campaign specs load real `.mtx` inputs,
    // so the reader must reproduce matrices *exactly* — the writer's 17
    // significant digits round-trip every f64, and the three supported
    // symmetry/field variants must expand to the same CSR a direct
    // construction gives.

    #[test]
    fn matrix_market_general_round_trip(coo in coo_strategy(12)) {
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &a).unwrap();
        let b = read_matrix_market_from(Cursor::new(buf)).unwrap();
        prop_assert_eq!(b, a);
    }

    #[test]
    fn matrix_market_symmetric_expands_exactly(
        n in 1usize..10,
        entries in proptest::collection::vec((0usize..10, 0usize..10, -100.0f64..100.0), 0..30),
    ) {
        // Keep the first value per distinct lower-triangle coordinate so
        // the file and the reference agree without duplicate-summing.
        let mut seen = std::collections::BTreeSet::new();
        let mut lower = Vec::new();
        for (i, j, v) in entries {
            let (r, c) = (i.max(j) % n, i.min(j) % n);
            if seen.insert((r, c)) {
                lower.push((r, c, v));
            }
        }
        let mut text = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {}\n",
            lower.len()
        );
        let mut reference = CooMatrix::new(n, n);
        for &(r, c, v) in &lower {
            text.push_str(&format!("{} {} {v:e}\n", r + 1, c + 1));
            reference.push_sym(r, c, v);
        }
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        prop_assert_eq!(a, reference.to_csr());
    }

    // ILU(0): on any strictly diagonally dominant matrix (nonsingular by
    // Gershgorin) the factorization must succeed and never manufacture a
    // NaN/Inf — neither in the stored factor nor in a triangular solve.
    // The opaque-preconditioner fault model corrupts these stored values
    // deliberately; this pins down that *clean* factors are always finite.

    #[test]
    fn ilu0_on_diagonally_dominant_input_is_finite(
        n in 2usize..12,
        entries in proptest::collection::vec((0usize..12, 0usize..12, -10.0f64..10.0), 0..40),
    ) {
        let mut coo = CooMatrix::new(n, n);
        let mut row_abs = vec![0.0f64; n];
        let mut seen = std::collections::BTreeSet::new();
        for (i, j, v) in entries {
            let (r, c) = (i % n, j % n);
            if r != c && seen.insert((r, c)) {
                coo.push(r, c, v);
                row_abs[r] += v.abs();
            }
        }
        for (r, &s) in row_abs.iter().enumerate() {
            coo.push(r, r, s + 1.0);
        }
        let a = coo.to_csr();
        let f = sdc_sparse::Ilu0Factor::factor(&a).expect("dominant input must factor");
        prop_assert!(f.values().iter().all(|v| v.is_finite()), "factor has non-finite entries");
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin() + 0.2).collect();
        let mut z = vec![0.0; n];
        f.solve(&q, &mut z);
        prop_assert!(z.iter().all(|v| v.is_finite()), "solve produced non-finite entries");
        // The triangular solves are deterministic: same input, same bits.
        let mut z2 = vec![f64::NAN; n];
        f.solve(&q, &mut z2);
        for i in 0..n {
            prop_assert_eq!(z[i].to_bits(), z2[i].to_bits(), "row {}", i);
        }
    }

    #[test]
    fn matrix_market_pattern_reads_unit_values(
        n in 1usize..10,
        entries in proptest::collection::vec((0usize..10, 0usize..10), 0..30),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let mut coords = Vec::new();
        for (i, j) in entries {
            let (r, c) = (i % n, j % n);
            if seen.insert((r, c)) {
                coords.push((r, c));
            }
        }
        let mut text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{n} {n} {}\n",
            coords.len()
        );
        let mut reference = CooMatrix::new(n, n);
        for &(r, c) in &coords {
            text.push_str(&format!("{} {}\n", r + 1, c + 1));
            reference.push(r, c, 1.0);
        }
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        prop_assert_eq!(a, reference.to_csr());
    }
}
