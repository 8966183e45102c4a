//! Structural analysis of sparsity patterns.
//!
//! Table I of the paper reports whether each test matrix has *structural
//! full rank* — a property of the nonzero pattern alone: the size of a
//! maximum matching in the bipartite graph pairing rows with the columns
//! they touch. We compute it with the Hopcroft–Karp algorithm
//! (`O(E·√V)`), plus the pattern-symmetry score that separates the two
//! matrix classes (§VII-A-1: SPD inputs give a tridiagonal `H`,
//! nonsymmetric inputs a full upper Hessenberg), and the row-length
//! moments the `spmv_formats` bench prints.

use crate::csr::CsrMatrix;

/// Maximum bipartite matching size between rows and columns of the
/// pattern — the structural rank (`sprank` in Matlab).
pub fn structural_rank(a: &CsrMatrix) -> usize {
    hopcroft_karp(a)
}

/// True if `sprank(A) == min(nrows, ncols)` — Table I's
/// "structural full rank?" row.
pub fn is_structurally_full_rank(a: &CsrMatrix) -> bool {
    structural_rank(a) == a.nrows().min(a.ncols())
}

const NIL: usize = usize::MAX;

/// Hopcroft–Karp maximum matching on the row/column bipartite graph.
fn hopcroft_karp(a: &CsrMatrix) -> usize {
    let nr = a.nrows();
    let nc = a.ncols();
    let mut match_row = vec![NIL; nr]; // row -> col
    let mut match_col = vec![NIL; nc]; // col -> row
    let mut dist = vec![usize::MAX; nr];
    let mut matching = 0usize;

    // Greedy initialization speeds up the phases considerably.
    for r in 0..nr {
        let (cols, _) = a.row(r);
        for &c in cols {
            if match_col[c] == NIL {
                match_col[c] = r;
                match_row[r] = c;
                matching += 1;
                break;
            }
        }
    }

    let mut queue = std::collections::VecDeque::new();
    loop {
        // BFS phase: layer the free rows.
        queue.clear();
        for r in 0..nr {
            if match_row[r] == NIL {
                dist[r] = 0;
                queue.push_back(r);
            } else {
                dist[r] = usize::MAX;
            }
        }
        let mut found_augmenting = false;
        while let Some(r) = queue.pop_front() {
            let (cols, _) = a.row(r);
            for &c in cols {
                let r2 = match_col[c];
                if r2 == NIL {
                    found_augmenting = true;
                } else if dist[r2] == usize::MAX {
                    dist[r2] = dist[r] + 1;
                    queue.push_back(r2);
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint shortest augmenting paths.
        for r in 0..nr {
            if match_row[r] == NIL && dfs(a, r, &mut match_row, &mut match_col, &mut dist) {
                matching += 1;
            }
        }
    }
    matching
}

fn dfs(
    a: &CsrMatrix,
    r: usize,
    match_row: &mut [usize],
    match_col: &mut [usize],
    dist: &mut [usize],
) -> bool {
    let (cols, _) = a.row(r);
    for &c in cols {
        let r2 = match_col[c];
        if r2 == NIL || (dist[r2] == dist[r] + 1 && dfs(a, r2, match_row, match_col, dist)) {
            match_row[r] = c;
            match_col[c] = r;
            return true;
        }
    }
    dist[r] = usize::MAX;
    false
}

/// Fraction of off-diagonal stored entries `(i,j)` whose mirror `(j,i)` is
/// also stored. 1.0 for a symmetric pattern, 0.0 for a fully one-sided
/// pattern; matrices with an empty off-diagonal report 1.0.
pub fn pattern_symmetry_score(a: &CsrMatrix) -> f64 {
    if a.nrows() != a.ncols() {
        return 0.0;
    }
    let t = a.transpose();
    let mut offdiag = 0usize;
    let mut mirrored = 0usize;
    for r in 0..a.nrows() {
        let (cols, _) = a.row(r);
        let (tcols, _) = t.row(r);
        for &c in cols {
            if c == r {
                continue;
            }
            offdiag += 1;
            if tcols.binary_search(&c).is_ok() {
                mirrored += 1;
            }
        }
    }
    if offdiag == 0 {
        1.0
    } else {
        mirrored as f64 / offdiag as f64
    }
}

/// Moments of the row-length (nnz-per-row) distribution. Low variance
/// is why sliced-ELLPACK chunks pad almost nothing on stencil matrices;
/// note the actual CSR-vs-SELL gate in [`crate::format::auto_format`]
/// is the sharper [`crate::sell::fill_ratio_of`] (variance *within σ
/// windows* is what padding responds to) — these moments are the
/// structural summary the `spmv_formats` bench prints per matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowLengthStats {
    /// Shortest row.
    pub min: usize,
    /// Longest row.
    pub max: usize,
    /// Mean row length.
    pub mean: f64,
    /// Population variance of the row lengths.
    pub variance: f64,
}

impl RowLengthStats {
    /// Coefficient of variation (`σ / μ`; `0` for an empty matrix).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.variance.sqrt() / self.mean
        }
    }
}

/// Computes [`RowLengthStats`] from the row pointer array in one pass.
pub fn row_length_stats(a: &CsrMatrix) -> RowLengthStats {
    let n = a.nrows();
    if n == 0 {
        return RowLengthStats { min: 0, max: 0, mean: 0.0, variance: 0.0 };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut sum_sq = 0u128;
    for r in 0..n {
        let len = a.row_ptr()[r + 1] - a.row_ptr()[r];
        min = min.min(len);
        max = max.max(len);
        sum += len;
        sum_sq += (len as u128) * (len as u128);
    }
    let mean = sum as f64 / n as f64;
    let variance = (sum_sq as f64 / n as f64 - mean * mean).max(0.0);
    RowLengthStats { min, max, mean, variance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::ops::tridiag_toeplitz;

    #[test]
    fn identity_has_full_structural_rank() {
        let a = CsrMatrix::identity(10);
        assert_eq!(structural_rank(&a), 10);
        assert!(is_structurally_full_rank(&a));
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let a = CooMatrix::new(4, 4).to_csr();
        assert_eq!(structural_rank(&a), 0);
        assert!(!is_structurally_full_rank(&a));
    }

    #[test]
    fn rank_deficient_pattern() {
        // Two rows share the only column => matching size 1.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        assert_eq!(structural_rank(&a), 1);
    }

    #[test]
    fn permutation_needs_augmenting_paths() {
        // A pattern where greedy matching fails without augmentation:
        // row0: {0,1}, row1: {0}, row2: {1,2}.
        // Greedy: r0->0, r1 blocked... augmenting path must reassign.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 1, 1.0);
        coo.push(2, 2, 1.0);
        let a = coo.to_csr();
        assert_eq!(structural_rank(&a), 3);
    }

    #[test]
    fn rectangular_rank_bounded_by_min_dim() {
        let mut coo = CooMatrix::new(2, 5);
        for c in 0..5 {
            coo.push(0, c, 1.0);
            coo.push(1, c, 1.0);
        }
        let a = coo.to_csr();
        assert_eq!(structural_rank(&a), 2);
        assert!(is_structurally_full_rank(&a));
    }

    #[test]
    fn tridiagonal_full_rank_and_symmetric() {
        let t = tridiag_toeplitz(50, -1.0, 2.0, -1.0);
        assert!(is_structurally_full_rank(&t));
        assert!((pattern_symmetry_score(&t) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn one_sided_pattern_scores_zero() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        coo.push(0, 2, 1.0);
        let a = coo.to_csr();
        assert_eq!(pattern_symmetry_score(&a), 0.0);
    }

    #[test]
    fn row_length_moments() {
        // tridiag(4): lengths 2,3,3,2 — mean 2.5, variance 0.25.
        let t = tridiag_toeplitz(4, -1.0, 2.0, -1.0);
        let s = row_length_stats(&t);
        assert_eq!((s.min, s.max), (2, 3));
        assert!((s.mean - 2.5).abs() < 1e-15);
        assert!((s.variance - 0.25).abs() < 1e-15);
        assert!((s.cv() - 0.5 / 2.5).abs() < 1e-15);

        // Uniform rows: zero variance.
        let d = crate::CsrMatrix::identity(6);
        let s = row_length_stats(&d);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.cv(), 0.0);

        let empty = crate::CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]);
        assert_eq!(row_length_stats(&empty).mean, 0.0);
    }

    #[test]
    fn hard_matching_instance() {
        // Bipartite "crown"-ish pattern exercising multiple BFS phases.
        let n = 60;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 1.0);
            coo.push(i, (i + 7) % n, 1.0);
        }
        let a = coo.to_csr();
        assert_eq!(structural_rank(&a), n);
    }
}
