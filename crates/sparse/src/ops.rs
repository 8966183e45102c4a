//! Sparse matrix algebra: addition, scaling, Kronecker products.
//!
//! The Kronecker product is the assembly tool for the paper's first test
//! problem: Matlab's `gallery('poisson',n)` is exactly
//! `kron(I,T) + kron(T,I)` with `T = tridiag(−1, 2, −1)`. Building the
//! operator both ways (stencil and Kronecker) gives the gallery a strong
//! cross-validation test.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Sparse matrix sum `A + B` (patterns merged, values added).
///
/// # Panics
/// Panics if shapes differ.
pub fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.nrows(), b.nrows(), "add: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "add: col mismatch");
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    let mut col_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    row_ptr.push(0);
    for r in 0..a.nrows() {
        let (ca, va) = a.row(r);
        let (cb, vb) = b.row(r);
        let (mut i, mut j) = (0, 0);
        while i < ca.len() || j < cb.len() {
            match (ca.get(i), cb.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    col_idx.push(x);
                    values.push(va[i] + vb[j]);
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    col_idx.push(x);
                    values.push(va[i]);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    col_idx.push(y);
                    values.push(vb[j]);
                    j += 1;
                }
                (Some(&x), None) => {
                    col_idx.push(x);
                    values.push(va[i]);
                    i += 1;
                }
                (None, Some(&y)) => {
                    col_idx.push(y);
                    values.push(vb[j]);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(a.nrows(), a.ncols(), row_ptr, col_idx, values)
}

/// Scaled copy `s · A`.
pub fn scale(a: &CsrMatrix, s: f64) -> CsrMatrix {
    let mut out = a.clone();
    out.scale(s);
    out
}

/// Kronecker product `A ⊗ B`: the `(ia·rb + ib, ja·cb + jb)` entry is
/// `A[ia,ja] · B[ib,jb]`.
///
/// Assembled directly in CSR, in parallel over row chunks: output row
/// `ia·rb + ib` holds exactly `nnz(A, ia) · nnz(B, ib)` entries, so the
/// row pointers are computed exactly up front and each chunk of rows is
/// filled independently. Iterating `(ja, jb)` lexicographically emits
/// columns `ja·cb + jb` in strictly increasing order, so no sort is
/// needed — and the result is identical (bitwise) at any thread count.
pub fn kron(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let (an, bn) = (a.nrows(), b.nrows());
    let (ac, bc) = (a.ncols(), b.ncols());
    let nrows = an * bn;
    let ncols = ac * bc;
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    for ia in 0..an {
        let na = a.row(ia).0.len();
        for ib in 0..bn {
            let nb = b.row(ib).0.len();
            row_ptr.push(row_ptr.last().unwrap() + na * nb);
        }
    }
    let nnz = *row_ptr.last().unwrap();

    // Fill one row range's entries into its (exactly-sized) slices.
    let fill_rows = |rows: std::ops::Range<usize>, cols: &mut [usize], vals: &mut [f64]| {
        let mut k = 0;
        for r in rows {
            let (ca, va) = a.row(r / bn);
            let (cb, vb) = b.row(r % bn);
            for (&ja, &av) in ca.iter().zip(va.iter()) {
                for (&jb, &bv) in cb.iter().zip(vb.iter()) {
                    cols[k] = ja * bc + jb;
                    vals[k] = av * bv;
                    k += 1;
                }
            }
        }
        debug_assert_eq!(k, cols.len());
    };

    let mut col_idx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    if nnz < crate::PAR_SPMV_MIN_NNZ {
        fill_rows(0..nrows, &mut col_idx, &mut values);
    } else {
        // Contiguous row chunks; `row_ptr` gives each chunk's exact
        // destination span, so the chunks write disjoint subslices of
        // the final arrays in place — no concat pass, and the layout is
        // canonical by construction at any thread count.
        let chunk = nrows.div_ceil(64).max(1);
        let mut pieces = Vec::with_capacity(nrows.div_ceil(chunk));
        let (mut crest, mut vrest) = (col_idx.as_mut_slice(), values.as_mut_slice());
        for start in (0..nrows).step_by(chunk) {
            let rows = start..(start + chunk).min(nrows);
            let take = row_ptr[rows.end] - row_ptr[rows.start];
            let (c, cr) = std::mem::take(&mut crest).split_at_mut(take);
            let (v, vr) = std::mem::take(&mut vrest).split_at_mut(take);
            (crest, vrest) = (cr, vr);
            pieces.push((rows, c, v));
        }
        sdc_dense::par_chunks_mut(&mut pieces, 1, |_, piece| {
            let (rows, c, v) = &mut piece[0];
            fill_rows(rows.clone(), c, v);
        });
    }
    CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, values)
}

/// Symmetric tridiagonal Toeplitz matrix `tridiag(sub, diag, sup)` of
/// order `n`.
pub fn tridiag_toeplitz(n: usize, sub: f64, diag: f64, sup: f64) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        if i > 0 {
            coo.push(i, i - 1, sub);
        }
        coo.push(i, i, diag);
        if i + 1 < n {
            coo.push(i, i + 1, sup);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_disjoint_and_overlapping() {
        let a = CsrMatrix::from_diagonal(&[1.0, 2.0]);
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 5.0);
        coo.push(0, 0, 3.0);
        let b = coo.to_csr();
        let c = add(&a, &b);
        assert_eq!(c.get(0, 0), 4.0);
        assert_eq!(c.get(0, 1), 5.0);
        assert_eq!(c.get(1, 1), 2.0);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn scale_copies() {
        let a = CsrMatrix::identity(3);
        let b = scale(&a, 2.5);
        assert_eq!(b.get(1, 1), 2.5);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn kron_identity_is_identity() {
        let i2 = CsrMatrix::identity(2);
        let i3 = CsrMatrix::identity(3);
        let k = kron(&i2, &i3);
        assert_eq!(k, CsrMatrix::identity(6));
    }

    #[test]
    fn kron_known_values() {
        // [1 2] ⊗ [0 1] = [[0 1 0 2],[1 0 2 0]] pattern with products.
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        let a = coo.to_csr();
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 3.0);
        let b = coo.to_csr();
        let k = kron(&a, &b);
        assert_eq!(k.nrows(), 1);
        assert_eq!(k.ncols(), 4);
        assert_eq!(k.get(0, 1), 3.0);
        assert_eq!(k.get(0, 3), 6.0);
        assert_eq!(k.nnz(), 2);
    }

    #[test]
    fn kron_dimensions() {
        let a = tridiag_toeplitz(3, -1.0, 2.0, -1.0);
        let b = tridiag_toeplitz(4, 0.0, 1.0, 5.0);
        let k = kron(&a, &b);
        assert_eq!(k.nrows(), 12);
        assert_eq!(k.ncols(), 12);
    }

    #[test]
    fn tridiag_structure() {
        let t = tridiag_toeplitz(4, -1.0, 2.0, -1.0);
        assert_eq!(t.nnz(), 10);
        assert_eq!(t.get(0, 0), 2.0);
        assert_eq!(t.get(1, 0), -1.0);
        assert_eq!(t.get(2, 3), -1.0);
        assert!(t.is_numerically_symmetric(0.0));
    }

    /// The pre-refactor reference: build through COO and sort.
    fn kron_via_coo(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        let nrows = a.nrows() * b.nrows();
        let ncols = a.ncols() * b.ncols();
        let mut coo = CooMatrix::with_capacity(nrows, ncols, a.nnz() * b.nnz());
        for ia in 0..a.nrows() {
            let (ca, va) = a.row(ia);
            for (ja, &av) in ca.iter().zip(va.iter()) {
                for ib in 0..b.nrows() {
                    let (cb, vb) = b.row(ib);
                    for (jb, &bv) in cb.iter().zip(vb.iter()) {
                        coo.push(ia * b.nrows() + ib, *ja * b.ncols() + jb, av * bv);
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn direct_assembly_matches_coo_reference_including_parallel_path() {
        // Large enough that the row-chunk parallel branch runs:
        // tridiag(100) ⊗ tridiag(100) has (3·100−2)² = 88804 entries,
        // well past PAR_KRON_MIN_NNZ.
        let t = tridiag_toeplitz(100, -1.0, 2.0, -1.0);
        let s = tridiag_toeplitz(100, 0.5, 1.0, -0.25);
        let direct = kron(&t, &s);
        let reference = kron_via_coo(&t, &s);
        assert_eq!(direct, reference);
        // And the tiny/serial branch.
        let a = tridiag_toeplitz(3, -1.0, 2.0, -1.0);
        let b = tridiag_toeplitz(4, 0.0, 1.0, 5.0);
        assert_eq!(kron(&a, &b), kron_via_coo(&a, &b));
    }

    #[test]
    fn kron_with_empty_factor() {
        let a = tridiag_toeplitz(3, -1.0, 2.0, -1.0);
        let empty = CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]);
        let k = kron(&a, &empty);
        assert_eq!(k.nrows(), 0);
        assert_eq!(k.nnz(), 0);
    }

    #[test]
    fn kron_spmv_matches_dense_identity_expansion() {
        // (I ⊗ T) x applies T to contiguous blocks.
        let t = tridiag_toeplitz(3, -1.0, 2.0, -1.0);
        let i2 = CsrMatrix::identity(2);
        let k = kron(&i2, &t);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y = [0.0; 6];
        k.spmv(&x, &mut y);
        let mut yb = [0.0; 3];
        t.spmv(&x[0..3], &mut yb);
        assert_eq!(&y[0..3], &yb);
        t.spmv(&x[3..6], &mut yb);
        assert_eq!(&y[3..6], &yb);
    }
}
