//! Special test matrices from the Krylov-methods literature.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// The Grcar matrix of order `n` with `k` superdiagonals: −1 on the
/// subdiagonal, +1 on the diagonal and the first `k` superdiagonals.
/// Strongly nonnormal — a classic stress test for GMRES convergence
/// behaviour and for the Hessenberg structure experiments.
pub fn grcar(n: usize, k: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, n * (k + 2));
    for i in 0..n {
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        for d in 0..=k {
            if i + d < n {
                coo.push(i, i + d, 1.0);
            }
        }
    }
    coo.to_csr()
}

/// Graph Laplacian of a path on `n` vertices (singular: the all-ones
/// vector is its null space). Useful for exercising breakdown and
/// rank-deficiency handling.
pub fn laplacian_path_graph(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        let mut deg = 0.0;
        if i > 0 {
            coo.push(i, i - 1, -1.0);
            deg += 1.0;
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
            deg += 1.0;
        }
        coo.push(i, i, deg);
    }
    coo.to_csr()
}

/// Anisotropic 2-D diffusion: 5-point stencil with horizontal coupling
/// `−ε` and vertical coupling `−1` (diagonal `2 + 2ε`). Strong
/// anisotropy (`ε ≪ 1`) degrades unpreconditioned Krylov convergence and
/// stresses the inner-solve quality of FT-GMRES.
pub fn anisotropic_poisson2d(m: usize, eps: f64) -> CsrMatrix {
    let n = m * m;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for i in 0..m {
        for j in 0..m {
            let row = i * m + j;
            if i > 0 {
                coo.push(row, row - m, -1.0);
            }
            if j > 0 {
                coo.push(row, row - 1, -eps);
            }
            coo.push(row, row, 2.0 + 2.0 * eps);
            if j + 1 < m {
                coo.push(row, row + 1, -eps);
            }
            if i + 1 < m {
                coo.push(row, row + m, -1.0);
            }
        }
    }
    coo.to_csr()
}

/// Shifted Poisson operator `A − σI` (discrete Helmholtz). For
/// `σ > λ_min(A)` the matrix is symmetric *indefinite*: a controlled,
/// well-understood operator for exercising GMRES on indefinite systems.
pub fn helmholtz2d(m: usize, sigma: f64) -> CsrMatrix {
    let a = crate::gallery::poisson2d(m);
    let shift = crate::ops::scale(&CsrMatrix::identity(m * m), -sigma);
    crate::ops::add(&a, &shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anisotropic_reduces_to_poisson_at_eps_one() {
        assert_eq!(anisotropic_poisson2d(6, 1.0), crate::gallery::poisson2d(6));
    }

    #[test]
    fn anisotropic_is_spd_for_positive_eps() {
        let a = anisotropic_poisson2d(7, 0.01);
        assert!(a.is_numerically_symmetric(0.0));
        // Weak row diagonal dominance with strict dominance at boundary.
        let ones = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut y);
        assert!(y.iter().all(|&v| v >= -1e-14));
    }

    #[test]
    fn helmholtz_shift_moves_diagonal() {
        let a = helmholtz2d(5, 0.5);
        assert_eq!(a.get(0, 0), 3.5);
        assert!(a.is_numerically_symmetric(0.0));
    }

    #[test]
    fn helmholtz_is_indefinite_past_lambda_min() {
        // σ between λ_min and λ_max makes xᵀAx change sign.
        let m = 8;
        let (lmin, lmax, _) = crate::gallery::poisson2d_spectrum(m);
        let sigma = (lmin + lmax) / 2.0;
        let a = helmholtz2d(m, sigma);
        let n = a.nrows();
        // The lowest Poisson eigenvector (all-positive sine sheet) gives a
        // negative quadratic form; a high-frequency vector gives positive.
        let h = std::f64::consts::PI / (m as f64 + 1.0);
        let low: Vec<f64> = (0..n)
            .map(|k| {
                let (i, j) = (k / m + 1, k % m + 1);
                (h * i as f64).sin() * (h * j as f64).sin()
            })
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|k| {
                let (i, j) = (k / m + 1, k % m + 1);
                (h * (m * i) as f64).sin() * (h * (m * j) as f64).sin()
            })
            .collect();
        let quad = |x: &[f64]| {
            let mut y = vec![0.0; n];
            a.spmv(x, &mut y);
            sdc_dense::vector::dot(x, &y)
        };
        assert!(quad(&low) < 0.0, "low mode must be negative under the shift");
        assert!(quad(&high) > 0.0, "high mode must stay positive");
    }

    #[test]
    fn grcar_structure() {
        let a = grcar(6, 3);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 3), 1.0);
        assert_eq!(a.get(0, 4), 0.0);
        assert!(!a.is_numerically_symmetric(1e-12));
    }

    #[test]
    fn grcar_nnz() {
        // Row i holds: 1 subdiag (if i>0) + min(k+1, n-i) upper entries.
        let (n, k) = (10, 2);
        let a = grcar(n, k);
        let expected: usize = (0..n).map(|i| usize::from(i > 0) + (k + 1).min(n - i)).sum();
        assert_eq!(a.nnz(), expected);
    }

    #[test]
    fn laplacian_is_singular_with_ones_nullspace() {
        let a = laplacian_path_graph(8);
        let ones = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        a.spmv(&ones, &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-15));
        assert!(a.is_numerically_symmetric(0.0));
    }
}
