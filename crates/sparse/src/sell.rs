//! SELL-C-σ (sliced ELLPACK) storage: the second SpMV engine.
//!
//! CSR streams each row's indices and values behind a per-row pointer
//! chase; SELL-C-σ instead packs rows into *chunks* of `C` rows stored
//! column-major (lane-interleaved), so a chunk's SpMV walks `C` rows in
//! lockstep with unit-stride loads — the layout GPUs and wide-SIMD CPUs
//! want (Kreutzer et al., SIAM J. Sci. Comput. 2014). The σ parameter
//! sorts rows by descending length inside windows of σ rows before
//! chunking, which shrinks the padding that ragged rows would otherwise
//! force on their chunk.
//!
//! Two contracts make the format safe for this workspace:
//!
//! * **Bitwise identity with CSR.** Entries of a row are stored in the
//!   same (ascending-column) order as CSR, each stored row carries its
//!   exact length, and the kernel accumulates `acc += a_ij · x_j`
//!   sequentially over exactly those entries — the identical
//!   floating-point op sequence as [`CsrMatrix::spmv`]. σ-sorting only
//!   permutes *which output slot* a row's result lands in, and the
//!   permutation is inverted on write-back, so `y` is bitwise equal to
//!   the CSR result at any thread count. Campaign artifacts therefore do
//!   not depend on the storage format.
//! * **Lossless round-trip.** Padding slots (value `0.0`, column `0`)
//!   are never read by the kernel and never emitted by [`SellMatrix::to_csr`];
//!   CSR → SELL → CSR reproduces the original matrix exactly.

use crate::csr::CsrMatrix;
use crate::perm::Permutation;
use sdc_dense::par_chunks_mut;

/// Default chunk height `C` (rows per chunk).
pub const DEFAULT_CHUNK: usize = 8;

/// Default sorting window σ (rows; a multiple of [`DEFAULT_CHUNK`]).
pub const DEFAULT_SIGMA: usize = 64;

/// [`SellMatrix::from_csr`] skips σ-sorting entirely when the *unsorted*
/// fill ratio is already below this: sorting exists to squeeze padding
/// out of ragged chunks, and when there is no padding to squeeze the
/// identity permutation is strictly better (the parallel kernel then
/// writes `y` directly instead of through a gather pass).
pub const SIGMA_SKIP_FILL: f64 = 1.1;

/// A validated sparse matrix in SELL-C-σ format.
#[derive(Clone, Debug, PartialEq)]
pub struct SellMatrix {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    chunk: usize,
    sigma: usize,
    /// Slab start of chunk `c` in `col_idx`/`values`; `len = n_chunks + 1`.
    chunk_ptr: Vec<usize>,
    /// Exact entry count of each *stored* row; `len = nrows`.
    row_len: Vec<usize>,
    /// `forward[stored] = original` (σ-window sort permutation).
    perm: Permutation,
    /// True when σ-sorting left every row in place.
    identity_perm: bool,
    /// Per chunk: stored row lengths are non-increasing across lanes
    /// (always true for sorted chunks; also true for uniform unsorted
    /// chunks) — enables the branch-free prefix kernel.
    chunk_sorted: Vec<bool>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SellMatrix {
    /// Converts from CSR with the default `C`, sorting with the default
    /// σ only when sorting actually pays ([`SIGMA_SKIP_FILL`]).
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let sigma =
            if fill_ratio_of(a, DEFAULT_CHUNK, 1) <= SIGMA_SKIP_FILL { 1 } else { DEFAULT_SIGMA };
        Self::from_csr_with(a, DEFAULT_CHUNK, sigma)
    }

    /// Converts from CSR with explicit chunk height `C` and sorting
    /// window σ. `sigma = 1` disables sorting (plain SELL-C).
    ///
    /// # Panics
    /// Panics if `chunk == 0` or `sigma == 0`.
    pub fn from_csr_with(a: &CsrMatrix, chunk: usize, sigma: usize) -> Self {
        assert!(chunk > 0, "SELL: chunk height C must be >= 1");
        assert!(sigma > 0, "SELL: sorting window sigma must be >= 1");
        let n = a.nrows();
        let lens: Vec<usize> = (0..n).map(|r| a.row(r).0.len()).collect();
        let stored_to_orig = sigma_order(&lens, sigma);
        let identity_perm = stored_to_orig.iter().enumerate().all(|(s, &o)| s == o);
        let perm = Permutation::from_vec(stored_to_orig);

        let n_chunks = n.div_ceil(chunk);
        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        chunk_ptr.push(0usize);
        let mut row_len = Vec::with_capacity(n);
        for c in 0..n_chunks {
            let rows = (c * chunk)..((c + 1) * chunk).min(n);
            let width = rows.clone().map(|s| lens[perm.forward()[s]]).max().unwrap_or(0);
            for s in rows {
                row_len.push(lens[perm.forward()[s]]);
            }
            // Every slab holds C lanes even when the last chunk has fewer
            // rows; the spare lanes are all-padding (length 0).
            chunk_ptr.push(chunk_ptr.last().unwrap() + width * chunk);
        }
        let chunk_sorted: Vec<bool> =
            row_len.chunks(chunk).map(|lens| lens.windows(2).all(|w| w[0] >= w[1])).collect();
        let slots = *chunk_ptr.last().unwrap();
        let mut col_idx = vec![0usize; slots];
        let mut values = vec![0.0f64; slots];
        for s in 0..n {
            let (c, lane) = (s / chunk, s % chunk);
            let base = chunk_ptr[c] + lane;
            let (cols, vals) = a.row(perm.forward()[s]);
            for (k, (&j, &v)) in cols.iter().zip(vals.iter()).enumerate() {
                col_idx[base + k * chunk] = j;
                values[base + k * chunk] = v;
            }
        }
        SellMatrix {
            nrows: n,
            ncols: a.ncols(),
            nnz: a.nnz(),
            chunk,
            sigma,
            chunk_ptr,
            row_len,
            perm,
            identity_perm,
            chunk_sorted,
            col_idx,
            values,
        }
    }

    /// Lossless conversion back to CSR (padding dropped, σ-permutation
    /// inverted): exactly the matrix this was built from.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for s in 0..self.nrows {
            row_ptr[self.perm.forward()[s] + 1] = self.row_len[s];
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        for s in 0..self.nrows {
            let (c, lane) = (s / self.chunk, s % self.chunk);
            let base = self.chunk_ptr[c] + lane;
            let dst = row_ptr[self.perm.forward()[s]];
            for k in 0..self.row_len[s] {
                col_idx[dst + k] = self.col_idx[base + k * self.chunk];
                values[dst + k] = self.values[base + k * self.chunk];
            }
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of *matrix* entries (padding slots excluded).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Chunk height `C`.
    #[inline]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Sorting window σ.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of row chunks.
    #[inline]
    pub fn n_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Total storage slots including padding.
    #[inline]
    pub fn storage_len(&self) -> usize {
        self.values.len()
    }

    /// Stored slots (incl. padding) per matrix entry: `1.0` means no
    /// padding at all; large values mean ragged rows defeated σ-sorting.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.storage_len() as f64 / self.nnz as f64
        }
    }

    /// Mutable value storage, *including* padding slots (pattern fixed;
    /// see [`SellMatrix::is_padding_slot`]). Writing a padding slot
    /// changes no product: the kernel never reads it.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// True if `slot` is a padding slot (never read by the kernel).
    pub fn is_padding_slot(&self, slot: usize) -> bool {
        let c = match self.chunk_ptr.binary_search(&slot) {
            // `slot` may sit exactly on a chunk boundary whose chunk is
            // empty (width 0); skip to the chunk that actually covers it.
            Ok(mut i) => {
                while i + 1 < self.chunk_ptr.len() && self.chunk_ptr[i + 1] == slot {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        let lane = (slot - self.chunk_ptr[c]) % self.chunk;
        let k = (slot - self.chunk_ptr[c]) / self.chunk;
        let s = c * self.chunk + lane;
        s >= self.nrows || k >= self.row_len[s]
    }

    /// k-major kernel over chunk `c`: `out[lane]` accumulates its row's
    /// entries in ascending-`k` (= ascending-column) order — the exact
    /// op sequence of CSR's row dot — while the slab is streamed with
    /// unit stride, which is the whole point of the sliced layout. The
    /// per-element `row_len` guard stops short rows exactly at their
    /// length; padding slots are never touched, so a non-finite `x` (or
    /// a corrupted padding slot) cannot leak a spurious `0·∞` into a row.
    #[inline]
    fn chunk_dot(&self, c: usize, x: &[f64], out: &mut [f64]) {
        let base = self.chunk_ptr[c];
        let width = (self.chunk_ptr[c + 1] - base) / self.chunk;
        let row0 = c * self.chunk;
        // Full C=8 chunks take the lane-parallel AVX2 body when the
        // dispatcher selected it: one row per SIMD lane, so each row's
        // op sequence — and hence every output bit — is unchanged (see
        // `crate::simd`). Partial tail chunks and non-default C fall
        // through to the scalar kernel.
        #[cfg(target_arch = "x86_64")]
        if self.chunk == 8 && out.len() == 8 && crate::simd::active() == crate::simd::Isa::Avx2 {
            // SAFETY: AVX2 verified by `active()`; the slab bounds come
            // from `chunk_ptr`, and `out.len() == 8` implies the chunk
            // has 8 stored rows, so `row_len[row0..row0 + 8]` is in
            // range.
            unsafe {
                crate::simd::avx2::sell_chunk8(
                    &self.values,
                    &self.col_idx,
                    x,
                    base,
                    width,
                    &self.row_len[row0..row0 + 8],
                    out,
                );
            }
            return;
        }
        out.fill(0.0);
        let mut slot = base;
        if self.chunk_sorted[c] {
            // Lengths are non-increasing across lanes, so at depth `k`
            // the live rows form a prefix: no per-element length test.
            let mut active = out.len();
            for k in 0..width {
                while active > 0 && self.row_len[row0 + active - 1] <= k {
                    active -= 1;
                }
                for (lane, yr) in out[..active].iter_mut().enumerate() {
                    let i = slot + lane;
                    *yr += self.values[i] * x[self.col_idx[i]];
                }
                slot += self.chunk;
            }
        } else {
            for k in 0..width {
                for (lane, yr) in out.iter_mut().enumerate() {
                    if k < self.row_len[row0 + lane] {
                        let i = slot + lane;
                        *yr += self.values[i] * x[self.col_idx[i]];
                    }
                }
                slot += self.chunk;
            }
        }
    }

    /// Serial SpMV `y = A x`, bitwise identical to [`CsrMatrix::spmv`].
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell spmv: x length");
        assert_eq!(y.len(), self.nrows, "sell spmv: y length");
        let mut buf = vec![0.0; self.chunk];
        for c in 0..self.n_chunks() {
            let row0 = c * self.chunk;
            let lanes = self.chunk.min(self.nrows - row0);
            self.chunk_dot(c, x, &mut buf[..lanes]);
            for (lane, &acc) in buf[..lanes].iter().enumerate() {
                y[self.perm.forward()[row0 + lane]] = acc;
            }
        }
    }

    /// Chunk-parallel SpMV on the `sdc_parallel` pool, bitwise identical
    /// to [`SellMatrix::spmv`] (and hence to the CSR kernels) at any
    /// thread count: chunks write disjoint stored slots, and the
    /// σ-permutation is inverted by a deterministic element-wise gather.
    pub fn par_spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell par_spmv: x length");
        assert_eq!(y.len(), self.nrows, "sell par_spmv: y length");
        if self.nnz < crate::PAR_SPMV_MIN_NNZ {
            return self.spmv(x, y);
        }
        if self.identity_perm {
            // stored == original: chunk results land directly in y.
            par_chunks_mut(y, self.chunk, |c, yc| self.chunk_dot(c, x, yc));
        } else {
            let mut ys = vec![0.0; self.nrows];
            par_chunks_mut(&mut ys, self.chunk, |c, yc| self.chunk_dot(c, x, yc));
            let inv = self.perm.inverse();
            par_chunks_mut(y, 1, |orig, yr| yr[0] = ys[inv[orig]]);
        }
    }
}

/// σ-window stable sort of row indices by descending length (`out[stored]
/// = original`): ties keep original order, so the permutation is a pure
/// function of the pattern. Shared by the constructor and the
/// fill-ratio predictor — they must never disagree on the ordering.
fn sigma_order(lens: &[usize], sigma: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lens.len()).collect();
    for window in order.chunks_mut(sigma) {
        window.sort_by_key(|&r| std::cmp::Reverse(lens[r]));
    }
    order
}

/// The fill ratio a CSR matrix *would* have in SELL-C-σ, computed from
/// row lengths alone (no conversion). This is the operational measure of
/// within-window row-length variance: uniform rows give exactly `1.0`,
/// ragged rows inflate it. [`crate::format::auto_format`] gates on it.
pub fn fill_ratio_of(a: &CsrMatrix, chunk: usize, sigma: usize) -> f64 {
    assert!(chunk > 0 && sigma > 0, "fill_ratio_of: chunk and sigma must be >= 1");
    if a.nnz() == 0 {
        return 1.0;
    }
    let lens: Vec<usize> = (0..a.nrows()).map(|r| a.row(r).0.len()).collect();
    let slots: usize = sigma_order(&lens, sigma)
        .chunks(chunk)
        .map(|rows| rows.iter().map(|&r| lens[r]).max().unwrap_or(0) * chunk)
        .sum();
    slots as f64 / a.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::gallery;

    fn assert_bitwise_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "element {i}: {} vs {}", a[i], b[i]);
        }
    }

    fn spmv_both(a: &CsrMatrix, s: &SellMatrix) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).cos() + 0.1).collect();
        let mut yc = vec![0.0; a.nrows()];
        let mut ys = vec![0.0; a.nrows()];
        a.spmv(&x, &mut yc);
        s.spmv(&x, &mut ys);
        assert_bitwise_eq(&yc, &ys);
        let mut yp = vec![0.0; a.nrows()];
        s.par_spmv(&x, &mut yp);
        assert_bitwise_eq(&yc, &yp);
    }

    #[test]
    fn round_trip_small_ragged() {
        // Ragged rows across several chunks, C smaller than some rows.
        let mut coo = CooMatrix::new(7, 9);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 3, 2.0),
            (0, 8, 3.0),
            (1, 1, 4.0),
            (3, 0, 5.0),
            (3, 1, 6.0),
            (3, 2, 7.0),
            (3, 7, 8.0),
            (5, 5, 9.0),
            (6, 2, 10.0),
            (6, 6, 11.0),
        ] {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        for chunk in [1, 2, 3, 8] {
            for sigma in [1, 2, 4, 100] {
                let s = SellMatrix::from_csr_with(&a, chunk, sigma);
                assert_eq!(s.to_csr(), a, "C={chunk} sigma={sigma}");
                assert_eq!(s.nnz(), a.nnz());
                spmv_both(&a, &s);
            }
        }
    }

    #[test]
    fn round_trip_gallery() {
        for a in [
            gallery::poisson2d(13),
            gallery::sprand(150, 150, 0.05, 42),
            gallery::circuit_mna(&gallery::CircuitMnaConfig {
                nodes: 120,
                seed: 3,
                ..Default::default()
            }),
        ] {
            let s = SellMatrix::from_csr(&a);
            assert_eq!(s.to_csr(), a);
            spmv_both(&a, &s);
        }
    }

    #[test]
    fn parallel_path_bitwise_on_large_matrix() {
        // Big enough that par_spmv takes its parallel branch; σ forced
        // on so the permutation (and its inversion) is non-trivial.
        let a = gallery::poisson2d(150);
        assert!(a.nnz() >= crate::PAR_SPMV_MIN_NNZ);
        let s = SellMatrix::from_csr_with(&a, DEFAULT_CHUNK, DEFAULT_SIGMA);
        assert!(!s.identity_perm, "poisson boundary rows force a real permutation");
        spmv_both(&a, &s);

        // The default constructor notices sorting buys nothing here
        // (near-uniform rows) and keeps the identity permutation.
        let fast = SellMatrix::from_csr(&a);
        assert!(fast.identity_perm);
        assert_eq!(fast.sigma(), 1);
        assert!(fast.fill_ratio() < SIGMA_SKIP_FILL);
        spmv_both(&a, &fast);
    }

    #[test]
    fn identity_perm_fast_path_on_uniform_rows() {
        // Every row of a diagonal matrix has exactly one entry: stable
        // σ-sort is the identity and the direct-write path runs.
        let n = 20_000;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let a = CsrMatrix::from_diagonal(&d);
        let s = SellMatrix::from_csr(&a);
        assert!(s.identity_perm);
        assert!((s.fill_ratio() - 1.0).abs() < 1e-12);
        spmv_both(&a, &s);
    }

    #[test]
    fn empty_and_empty_rows() {
        let a = CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]);
        let s = SellMatrix::from_csr(&a);
        assert_eq!(s.to_csr(), a);
        let mut y: Vec<f64> = vec![];
        s.spmv(&[], &mut y);

        // All-empty rows.
        let a = CsrMatrix::from_raw(5, 3, vec![0; 6], vec![], vec![]);
        let s = SellMatrix::from_csr(&a);
        assert_eq!(s.to_csr(), a);
        let mut y = vec![1.0; 5];
        s.spmv(&[0.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 5]);
    }

    #[test]
    fn padding_slots_are_classified_and_masked() {
        // Rows of length 3 and 1 in one C=2 chunk: the short row's lanes
        // beyond its length are padding.
        let mut coo = CooMatrix::new(2, 4);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 1, 2.0), (0, 3, 3.0), (1, 2, 4.0)] {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let mut s = SellMatrix::from_csr_with(&a, 2, 2);
        assert_eq!(s.storage_len(), 6);
        let n_padding = (0..s.storage_len()).filter(|&i| s.is_padding_slot(i)).count();
        assert_eq!(n_padding, 2);

        // Corrupting every padding slot changes no SpMV result.
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y_ref = [0.0; 2];
        s.spmv(&x, &mut y_ref);
        for i in 0..s.storage_len() {
            if s.is_padding_slot(i) {
                s.values_mut()[i] = f64::NAN;
            }
        }
        let mut y = [0.0; 2];
        s.spmv(&x, &mut y);
        assert_eq!(y, y_ref);
        // ... and the round trip still reproduces the original matrix.
        assert_eq!(s.to_csr(), a);
    }

    #[test]
    fn fill_ratio_of_predicts_actual_ratio() {
        for (a, chunk, sigma) in [
            (gallery::poisson2d(9), 4, 8),
            (gallery::sprand(100, 80, 0.07, 5), 8, 32),
            (gallery::poisson2d(20), 8, 1),
        ] {
            let predicted = fill_ratio_of(&a, chunk, sigma);
            let actual = SellMatrix::from_csr_with(&a, chunk, sigma).fill_ratio();
            assert!((predicted - actual).abs() < 1e-12, "{predicted} vs {actual}");
        }
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        // Ragged matrix: σ-sorted SELL must waste no more than unsorted.
        let a = gallery::circuit_mna(&gallery::CircuitMnaConfig {
            nodes: 200,
            seed: 9,
            ..Default::default()
        });
        let sorted = SellMatrix::from_csr_with(&a, 8, 64).fill_ratio();
        let unsorted = SellMatrix::from_csr_with(&a, 8, 1).fill_ratio();
        assert!(sorted <= unsorted + 1e-12, "sorted {sorted} vs unsorted {unsorted}");
    }

    #[test]
    #[should_panic(expected = "chunk height")]
    fn zero_chunk_rejected() {
        SellMatrix::from_csr_with(&CsrMatrix::identity(3), 0, 1);
    }
}
