//! Coordinate (triplet) sparse matrix builder.
//!
//! COO is the assembly format: generators and the Matrix Market reader
//! push `(row, col, value)` triplets in any order (duplicates allowed and
//! summed, as in finite-element assembly), then convert to CSR for
//! compute.

use crate::csr::CsrMatrix;

/// A sparse matrix in coordinate form. Duplicate entries are allowed and
/// are *summed* on conversion to CSR.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` builder.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty builder with capacity for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "COO push: row {row} out of range (nrows={})", self.nrows);
        assert!(col < self.ncols, "COO push: col {col} out of range (ncols={})", self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
    }

    /// Adds a symmetric pair `(i,j)` and `(j,i)` with the same value.
    #[inline]
    pub fn push_sym(&mut self, i: usize, j: usize, value: f64) {
        self.push(i, j, value);
        if i != j {
            self.push(j, i, value);
        }
    }

    /// Iterates over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().zip(self.cols.iter()).zip(self.vals.iter()).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicates. An entry whose duplicates
    /// cancel to an exact zero stays stored.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row's column slice.
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.nnz()];
        {
            let mut next = row_counts.clone();
            for (k, &r) in self.rows.iter().enumerate() {
                order[next[r]] = k;
                next[r] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.nnz());
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &k in &order[row_counts[r]..row_counts[r + 1]] {
                scratch.push((self.cols[k], self.vals[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicates.
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 1), 5.0);
    }

    #[test]
    fn cancellation_keeps_the_zero() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 6.0);
        coo.push(0, 2, 3.0);
        coo.push(1, 0, 4.0);
        coo.push(0, 0, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row(0), (&[0usize, 2][..], &[1.0, 3.0][..]));
        assert_eq!(csr.row(1), (&[0usize, 2][..], &[4.0, 6.0][..]));
    }

    #[test]
    fn push_sym_mirrors() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 2, -1.5);
        coo.push_sym(1, 1, 4.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 2), -1.5);
        assert_eq!(csr.get(2, 0), -1.5);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn iter_yields_all_triplets() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        let got: Vec<_> = coo.iter().collect();
        assert_eq!(got, vec![(0, 1, 2.0), (1, 0, 3.0)]);
    }
}
