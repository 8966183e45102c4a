//! Compressed sparse row storage and kernels.
//!
//! CSR is the compute format: GMRES' dominant kernel, sparse
//! matrix–vector multiply (SpMV), streams each row's column indices and
//! values once. The parallel SpMV partitions *rows* disjointly across
//! the `sdc_parallel` work pool (threads claim contiguous row chunks
//! dynamically), so every output element is written by exactly one task
//! and the result is bitwise identical to the serial kernel — campaign
//! reproducibility does not depend on thread count.

use sdc_dense::vector;

/// Rows per [`CsrMatrix::par_spmv`] chunk. Each chunk is one call of the
/// row walk; 256 rows still give the smallest matrix that runs in
/// parallel (a 5-point stencil at [`crate::PAR_SPMV_MIN_NNZ`]) a dozen
/// chunks to balance.
const PAR_SPMV_ROWS: usize = 256;

/// A validated sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays, validating the invariants:
    /// `row_ptr` monotone with `row_ptr[0]=0`, `row_ptr[nrows]=nnz`,
    /// column indices in range and strictly increasing within each row.
    ///
    /// # Panics
    /// Panics on malformed input — CSR invariants are structural
    /// correctness, not recoverable data errors.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "CSR: row_ptr length");
        assert_eq!(row_ptr[0], 0, "CSR: row_ptr[0] must be 0");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "CSR: row_ptr[last] must equal nnz");
        assert_eq!(col_idx.len(), values.len(), "CSR: col_idx/values length mismatch");
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "CSR: row_ptr not monotone at {r}");
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "CSR: columns not strictly increasing in row {r}");
            }
            if let Some(&last) = cols.last() {
                assert!(last < ncols, "CSR: column index out of range in row {r}");
            }
        }
        Self { nrows, ncols, row_ptr, col_idx, values }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Diagonal matrix from a vector.
    pub fn from_diagonal(d: &[f64]) -> Self {
        let n = d.len();
        Self::from_raw(n, n, (0..=n).collect(), (0..n).collect(), d.to_vec())
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Raw values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable values (pattern is fixed; used by scaling utilities).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Value at `(r, c)` (zero if not stored). O(log nnz_row).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Serial SpMV: `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        self.for_each_row_dot(0..self.nrows, x, |r, v| y[r] = v);
    }

    /// Parallel SpMV, bitwise identical to [`CsrMatrix::spmv`].
    pub fn par_spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "par_spmv: x length");
        assert_eq!(y.len(), self.nrows, "par_spmv: y length");
        if self.nnz() < crate::PAR_SPMV_MIN_NNZ {
            return self.spmv(x, y);
        }
        sdc_dense::par_chunks_mut(y, PAR_SPMV_ROWS, |k, ys| {
            let lo = k * PAR_SPMV_ROWS;
            self.for_each_row_dot(lo..lo + ys.len(), x, |r, v| ys[r - lo] = v);
        });
    }

    /// Calls `f(r, (A·x)_r)` for each row `r` of `rows` in order, each
    /// product summed left to right from `0.0`. The one CSR row kernel:
    /// [`CsrMatrix::spmv`] and [`CsrMatrix::par_spmv`] are built on it,
    /// and kernels that fuse more work into the row loop call it directly.
    pub fn for_each_row_dot(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        mut f: impl FnMut(usize, f64),
    ) {
        assert_eq!(x.len(), self.ncols, "for_each_row_dot: x length");
        let ptr = &self.row_ptr[rows.start..=rows.end];
        let span = ptr[0]..ptr[ptr.len() - 1];
        let (mut cols, mut vals) = (&self.col_idx[span.clone()], &self.values[span]);
        for (r, w) in rows.zip(ptr.windows(2)) {
            let (c, c_rest) = cols.split_at(w[1] - w[0]);
            let (v, v_rest) = vals.split_at(w[1] - w[0]);
            (cols, vals) = (c_rest, v_rest);
            let mut acc = 0.0;
            for (c, v) in c.iter().zip(v) {
                // SAFETY: `from_raw`, the only constructor, checked every
                // column index against `ncols`, which is `x.len()`
                // (asserted above); `col_idx` is never mutated after.
                acc += v * unsafe { x.get_unchecked(*c) };
            }
            f(r, acc);
        }
    }

    /// Transposed SpMV: `y = Aᵀ x` (serial; scatter-based).
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: x length");
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length");
        y.fill(0.0);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let xr = x[r];
            if xr != 0.0 {
                for (c, v) in cols.iter().zip(vals.iter()) {
                    y[*c] += v * xr;
                }
            }
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals.iter()) {
                let k = next[*c];
                col_idx[k] = r;
                values[k] = *v;
                next[*c] += 1;
            }
        }
        CsrMatrix::from_raw(self.ncols, self.nrows, counts, col_idx, values)
    }

    /// The diagonal as a dense vector (zeros where unset).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Frobenius norm — the paper's default (cheap) detector bound.
    pub fn norm_fro(&self) -> f64 {
        vector::nrm2(&self.values)
    }

    /// Maximum absolute column sum (`‖A‖₁`).
    pub fn norm_one(&self) -> f64 {
        let mut colsum = vec![0.0f64; self.ncols];
        for (c, v) in self.col_idx.iter().zip(self.values.iter()) {
            colsum[*c] += v.abs();
        }
        colsum.iter().fold(0.0, |m, &s| m.max(s))
    }

    /// Maximum absolute row sum (`‖A‖_∞`).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|r| {
                let (_, vals) = self.row(r);
                vals.iter().map(|v| v.abs()).sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        vector::norm_inf(&self.values)
    }

    /// Scales all values by `s` in place.
    pub fn scale(&mut self, s: f64) {
        vector::scal(s, &mut self.values);
    }

    /// Row scaling `A ← D A` with `D = diag(d)`.
    pub fn scale_rows(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.nrows);
        for r in 0..self.nrows {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            for v in &mut self.values[span] {
                *v *= d[r];
            }
        }
    }

    /// Column scaling `A ← A D` with `D = diag(d)`.
    pub fn scale_cols(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.ncols);
        for (c, v) in self.col_idx.iter().zip(self.values.iter_mut()) {
            *v *= d[*c];
        }
    }

    /// True if the sparsity pattern is symmetric (requires square).
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// True if `‖A − Aᵀ‖_max ≤ tol · ‖A‖_max` (requires square).
    pub fn is_numerically_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        let scale = self.norm_max().max(f64::MIN_POSITIVE);
        // Walk both patterns; different patterns with nonzero values break
        // symmetry too.
        for r in 0..self.nrows {
            let (c1, v1) = self.row(r);
            let (c2, v2) = t.row(r);
            let mut i = 0;
            let mut j = 0;
            while i < c1.len() || j < c2.len() {
                match (c1.get(i), c2.get(j)) {
                    (Some(&a), Some(&b)) if a == b => {
                        if (v1[i] - v2[j]).abs() > tol * scale {
                            return false;
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), Some(&b)) if a < b => {
                        if v1[i].abs() > tol * scale {
                            return false;
                        }
                        i += 1;
                    }
                    (Some(_), Some(_)) => {
                        if v2[j].abs() > tol * scale {
                            return false;
                        }
                        j += 1;
                    }
                    (Some(_), None) => {
                        if v1[i].abs() > tol * scale {
                            return false;
                        }
                        i += 1;
                    }
                    (None, Some(_)) => {
                        if v2[j].abs() > tol * scale {
                            return false;
                        }
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        true
    }

    /// Converts to a dense matrix (test/debug utility; small matrices only).
    pub fn to_dense(&self) -> sdc_dense::DenseMatrix {
        let mut m = sdc_dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals.iter()) {
                m[(r, *c)] = *v;
            }
        }
        m
    }

    /// True if every stored value is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut coo = CooMatrix::new(3, 3);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn spmv_known() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [7.0, 6.0, 19.0]);
    }

    #[test]
    fn par_spmv_matches_serial_bitwise() {
        // Large random-ish matrix to trigger the parallel path.
        let n = 2000;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + (i as f64 * 0.01).sin());
            if i + 1 < n {
                coo.push(i, i + 1, -0.5);
                coo.push(i + 1, i, -0.25);
            }
            coo.push(i, (i * 7 + 3) % n, 0.125);
        }
        let a = coo.to_csr();
        assert!(a.nnz() >= 1 << 14 || a.nnz() == a.nnz()); // sanity
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        a.par_spmv(&x, &mut y2);
        for i in 0..n {
            // The textbook row sum: left to right from 0.0.
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c];
            }
            assert_eq!(y1[i].to_bits(), acc.to_bits(), "row {i}");
            assert_eq!(y1[i].to_bits(), y2[i].to_bits(), "row {i}");
        }
        for rows in [0..n, 7..7, 3..1500] {
            let mut seen = rows.start;
            a.for_each_row_dot(rows.clone(), &x, |r, v| {
                assert_eq!((r, v.to_bits()), (seen, y1[r].to_bits()), "{rows:?}");
                seen += 1;
            });
            assert_eq!(seen, rows.end);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn spmv_transpose_matches_explicit() {
        let a = small();
        let x = [1.0, -1.0, 0.5];
        let mut y1 = [0.0; 3];
        a.spmv_transpose(&x, &mut y1);
        let mut y2 = [0.0; 3];
        a.transpose().spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn norms_small() {
        let a = small();
        // values: 1,2,3,4,5
        assert!((a.norm_fro() - (55.0f64).sqrt()).abs() < 1e-14);
        assert_eq!(a.norm_one(), 7.0); // col2: |2|+|5|=7
        assert_eq!(a.norm_inf(), 9.0); // row2: 4+5
        assert_eq!(a.norm_max(), 5.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = small();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let a = small();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = CsrMatrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        i3.spmv(&x, &mut y);
        assert_eq!(y, x);
        let d = CsrMatrix::from_diagonal(&[2.0, 3.0, 4.0]);
        d.spmv(&x, &mut y);
        assert_eq!(y, [2.0, 6.0, 12.0]);
    }

    #[test]
    fn symmetry_checks() {
        let a = small();
        // (0,2)/(2,0) mirror each other, so the *pattern* is symmetric —
        // but the values (2 vs 4) are not.
        assert!(a.is_pattern_symmetric());
        assert!(!a.is_numerically_symmetric(1e-12));
        let mut coo = CooMatrix::new(2, 2);
        coo.push_sym(0, 1, 5.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let s = coo.to_csr();
        assert!(s.is_pattern_symmetric());
        assert!(s.is_numerically_symmetric(1e-14));
    }

    #[test]
    fn numeric_asymmetry_detected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 5.0);
        coo.push(1, 0, 4.0);
        let a = coo.to_csr();
        assert!(a.is_pattern_symmetric());
        assert!(!a.is_numerically_symmetric(1e-10));
    }

    #[test]
    fn scaling_ops() {
        let mut a = small();
        a.scale(2.0);
        assert_eq!(a.get(0, 0), 2.0);
        a.scale_rows(&[1.0, 0.5, 1.0]);
        assert_eq!(a.get(1, 1), 3.0);
        a.scale_cols(&[0.5, 1.0, 1.0]);
        assert_eq!(a.get(2, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "columns not strictly increasing")]
    fn malformed_csr_rejected() {
        CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn all_finite_flags_nan() {
        let mut a = small();
        assert!(a.all_finite());
        a.values_mut()[0] = f64::INFINITY;
        assert!(!a.all_finite());
    }

    #[test]
    fn to_dense_matches() {
        let a = small();
        let d = a.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[(r, c)], a.get(r, c));
            }
        }
    }
}
