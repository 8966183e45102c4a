//! ILU(0) factorization on CSR storage.
//!
//! Incomplete LU with zero fill-in: Gaussian elimination restricted to
//! the sparsity pattern of `A` (IKJ variant, LU-in-place). The factors
//! live here in the sparse substrate because they *are* sparse storage:
//! the combined `L`/`U` values sit on `A`'s exact pattern, and — like
//! [`crate::FormatMatrix`] — that flat value array is a fault-injection
//! surface. `sdc_gmres::precond::BuiltPrecond::Ilu0` holds this type
//! directly; fault campaigns corrupt stored factor slots through
//! [`Ilu0Factor::values_mut`] exactly as they corrupt matrix values.
//!
//! The triangular solves are strictly sequential sweeps (forward
//! substitution row 0..n, backward n..0) with a fixed per-row
//! accumulation order, so every apply is bitwise identical at any thread
//! count by construction.

use crate::csr::CsrMatrix;

/// Error from the ILU(0) factorization.
#[derive(Clone, Debug, PartialEq)]
pub enum Ilu0Error {
    /// The matrix is not square.
    NotSquare,
    /// A zero (or non-finite) pivot appeared at the given row — either
    /// the structural diagonal is missing or elimination annihilated it.
    BadPivot {
        /// Row index of the offending pivot.
        row: usize,
    },
}

impl std::fmt::Display for Ilu0Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ilu0Error::NotSquare => write!(f, "ILU(0): matrix must be square"),
            Ilu0Error::BadPivot { row } => write!(f, "ILU(0): zero/non-finite pivot in row {row}"),
        }
    }
}

impl std::error::Error for Ilu0Error {}

/// The ILU(0) factorization `A ≈ L·U` with unit-diagonal `L`, stored on
/// the pattern of `A`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ilu0Factor {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Combined factors on A's pattern: strictly-lower part holds L
    /// (unit diagonal implicit), diagonal + upper part holds U.
    values: Vec<f64>,
    /// Position of the diagonal entry within each row's slice.
    diag_pos: Vec<usize>,
}

impl Ilu0Factor {
    /// Computes ILU(0) of `a` (IKJ elimination restricted to the
    /// pattern; deterministic — the elimination order is fixed by the
    /// storage order).
    pub fn factor(a: &CsrMatrix) -> Result<Self, Ilu0Error> {
        if a.nrows() != a.ncols() {
            return Err(Ilu0Error::NotSquare);
        }
        let n = a.nrows();
        let row_ptr = a.row_ptr().to_vec();
        let col_idx = a.col_idx().to_vec();
        let mut values = a.values().to_vec();

        // Locate diagonals; a missing structural diagonal is a bad pivot.
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                if col_idx[k] == i {
                    diag_pos[i] = k;
                    break;
                }
            }
            if diag_pos[i] == usize::MAX {
                return Err(Ilu0Error::BadPivot { row: i });
            }
        }

        // IKJ Gaussian elimination restricted to the pattern.
        // Work array: column -> position in current row (or MAX).
        let mut pos_of_col = vec![usize::MAX; n];
        for i in 0..n {
            let row_span = row_ptr[i]..row_ptr[i + 1];
            for k in row_span.clone() {
                pos_of_col[col_idx[k]] = k;
            }
            // Eliminate using previous rows k (< i) present in row i.
            for kk in row_span.clone() {
                let k = col_idx[kk];
                if k >= i {
                    break;
                }
                let pivot = values[diag_pos[k]];
                if pivot == 0.0 || !pivot.is_finite() {
                    return Err(Ilu0Error::BadPivot { row: k });
                }
                let lik = values[kk] / pivot;
                values[kk] = lik;
                // Subtract lik * U(k, j) for j > k where (i, j) exists.
                for uj in diag_pos[k] + 1..row_ptr[k + 1] {
                    let j = col_idx[uj];
                    let p = pos_of_col[j];
                    if p != usize::MAX {
                        values[p] -= lik * values[uj];
                    }
                }
            }
            let di = values[diag_pos[i]];
            if di == 0.0 || !di.is_finite() {
                return Err(Ilu0Error::BadPivot { row: i });
            }
            for k in row_span {
                pos_of_col[col_idx[k]] = usize::MAX;
            }
        }
        Ok(Self { n, row_ptr, col_idx, values, diag_pos })
    }

    /// Applies `z = U⁻¹ L⁻¹ q` (the preconditioner solve). Two
    /// sequential triangular sweeps; bitwise thread-count-independent.
    pub fn solve(&self, q: &[f64], z: &mut [f64]) {
        assert_eq!(q.len(), self.n, "ilu0 solve: rhs length");
        assert_eq!(z.len(), self.n, "ilu0 solve: output length");
        // Forward: L y = q (unit diagonal).
        for i in 0..self.n {
            let mut s = q[i];
            for k in self.row_ptr[i]..self.diag_pos[i] {
                s -= self.values[k] * z[self.col_idx[k]];
            }
            z[i] = s;
        }
        // Backward: U z = y.
        for i in (0..self.n).rev() {
            let mut s = z[i];
            for k in self.diag_pos[i] + 1..self.row_ptr[i + 1] {
                s -= self.values[k] * z[self.col_idx[k]];
            }
            z[i] = s / self.values[self.diag_pos[i]];
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (= nnz of the source pattern).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw stored-factor values — the fault-injection surface for the
    /// opaque-preconditioner model (slot `k` ↔ 1-based fault site
    /// `loop_index = k + 1`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored-factor values for fault campaigns.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;

    #[test]
    fn tridiagonal_factorization_is_exact() {
        // No fill-in on a tridiagonal pattern: ILU(0) = full LU.
        let a = gallery::poisson1d(40);
        let f = Ilu0Factor::factor(&a).unwrap();
        let ones = vec![1.0; 40];
        let mut b = vec![0.0; 40];
        a.spmv(&ones, &mut b);
        let mut x = vec![0.0; 40];
        f.solve(&b, &mut x);
        for (i, &v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-10, "x[{i}] = {v}");
        }
        assert_eq!(f.order(), 40);
        assert_eq!(f.nnz(), a.nnz());
    }

    #[test]
    fn missing_diagonal_is_bad_pivot() {
        let mut coo = crate::CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        assert_eq!(Ilu0Factor::factor(&coo.to_csr()).unwrap_err(), Ilu0Error::BadPivot { row: 0 });
    }

    #[test]
    fn rectangular_is_rejected() {
        let mut coo = crate::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        assert_eq!(Ilu0Factor::factor(&coo.to_csr()).unwrap_err(), Ilu0Error::NotSquare);
    }

    #[test]
    fn stored_values_expose_the_fault_surface() {
        let a = gallery::poisson2d(6);
        let mut f = Ilu0Factor::factor(&a).unwrap();
        let clean = f.values().to_vec();
        f.values_mut()[0] *= 1e3;
        assert_ne!(f.values()[0], clean[0]);
        assert_eq!(f.values().len(), a.nnz());
    }
}
