//! Column-major dense matrices.
//!
//! The solvers only need dense matrices for *small* objects — the upper
//! Hessenberg matrix `H` (at most `(m+1)×m` for restart length `m`), the
//! factors of its QR decomposition, and the factors of the rank-revealing
//! SVD. Column-major storage matches the access pattern of Gram-Schmidt
//! (whole columns are appended and rotated).

use crate::vector;
use std::fmt;

/// A dense column-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// `data[c * rows + r]` is entry `(r, c)`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major nested array (convenient in tests).
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_rows: ragged row {i}");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Builds from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_col_major: size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of column `c` as a slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.cols, "col index out of range");
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable borrow of column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.cols, "col index out of range");
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Underlying column-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        y.fill(0.0);
        for c in 0..self.cols {
            vector::axpy(x[c], self.col(c), y);
        }
    }

    /// Dense matrix product `A · B`.
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for j in 0..b.cols {
            let bj = b.col(j);
            let outj = &mut out.data[j * self.rows..(j + 1) * self.rows];
            for k in 0..self.cols {
                let scale = bj[k];
                if scale != 0.0 {
                    let ak = &self.data[k * self.rows..(k + 1) * self.rows];
                    for r in 0..self.rows {
                        outj[r] += scale * ak[r];
                    }
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for c in 0..self.cols {
            for r in 0..self.rows {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        vector::nrm2(&self.data)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Returns the leading `r × c` sub-matrix as a copy.
    pub fn leading(&self, r: usize, c: usize) -> DenseMatrix {
        assert!(r <= self.rows && c <= self.cols, "leading: out of range");
        let mut m = DenseMatrix::zeros(r, c);
        for j in 0..c {
            m.col_mut(j).copy_from_slice(&self.col(j)[..r]);
        }
        m
    }

    /// `‖A - B‖_max`, convenient for tests.
    pub fn max_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(other.data.iter()).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        crate::all_finite(&self.data)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[c * self.rows + r]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let rshow = self.rows.min(8);
        let cshow = self.cols.min(8);
        for r in 0..rshow {
            write!(f, "  ")?;
            for c in 0..cshow {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            if cshow < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if rshow < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_noop() {
        let a = DenseMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        a.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn from_rows_and_index() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 0)], 3.0);
        assert_eq!(a[(1, 1)], 4.0);
        assert_eq!(a.col(0), &[1.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        let expect = DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.max_diff(&expect) == 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().max_diff(&a) == 0.0);
    }

    #[test]
    fn leading_submatrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let l = a.leading(2, 2);
        let expect = DenseMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]);
        assert_eq!(l.max_diff(&expect), 0.0);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn all_finite_detects_corruption() {
        let mut a = DenseMatrix::identity(3);
        assert!(a.all_finite());
        a[(1, 2)] = f64::NAN;
        assert!(!a.all_finite());
    }
}
