//! Dense linear-algebra substrate for the SDC-GMRES reproduction.
//!
//! This crate provides every dense kernel the solvers in `sdc-gmres` need,
//! implemented from scratch in safe Rust:
//!
//! * BLAS-1 style vector operations with **deterministic** reductions
//!   ([`vector`]): dot products and norms are computed with a fixed-shape
//!   pairwise tree so that results are bitwise reproducible regardless of
//!   thread count — a prerequisite for reproducible fault-injection
//!   campaigns.
//! * Column-major dense matrices ([`matrix`]).
//! * Givens rotations ([`givens`]) and Householder reflections
//!   ([`householder`]), the building blocks of the QR factorizations used by
//!   GMRES' projected least-squares problem.
//! * Triangular solves with non-finite detection ([`triangular`]) — the
//!   paper's "Approach 2" (fall back to a rank-revealing method when the
//!   standard solve produces `Inf`/`NaN`) needs to know *whether* the fast
//!   path failed.
//! * A one-sided Jacobi SVD ([`svd`]) used as the rank-revealing
//!   factorization, exactly as the paper substitutes an SVD for the
//!   incremental rank-revealing decomposition.
//! * The incremental Givens-QR of the upper Hessenberg matrix
//!   ([`hessenberg_qr`]) that lets GMRES update its least-squares solution
//!   in `O(k)` per iteration with an `O(1)` residual-norm recurrence.
//! * The three projected least-squares policies of §VI-D of the paper
//!   ([`lstsq`]).
//!
//! The scalar type is `f64` throughout: the paper's SDC model is defined on
//! IEEE-754 binary64 data.

// Index-based loops intentionally mirror the paper's i/j/k matrix notation
// (e.g. Householder and back-substitution kernels); iterator rewrites would
// obscure the correspondence the reproduction is documenting.
#![allow(clippy::needless_range_loop)]

pub mod givens;
pub mod hessenberg_qr;
pub mod householder;
pub mod lstsq;
pub mod matrix;
pub mod simd;
pub mod svd;
pub mod triangular;
pub mod vector;

pub use givens::GivensRotation;
pub use hessenberg_qr::HessenbergQr;
pub use householder::{householder_qr, HouseholderQr};
pub use lstsq::{LstsqOutcome, LstsqPolicy, LstsqReport};
pub use matrix::DenseMatrix;
/// The chunked data-parallel loop and thread-team regions of
/// [`sdc_parallel`], for `sdc_sparse`, which has no direct dependency.
pub use sdc_parallel::{par_chunks_mut, team, BLOCK};
pub use svd::{Svd, SvdError};

/// Machine epsilon for `f64`, re-exported for convenience.
pub const EPS: f64 = f64::EPSILON;

/// Returns true if every element of `xs` is finite (no `NaN`, no `±Inf`).
///
/// This is the cheap "reliable introspection" primitive used throughout the
/// solvers: IEEE-754 gives natural loud-error detection, and the paper's
/// Approach 2 is defined in terms of it.
#[inline]
pub fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_finite_accepts_normal_data() {
        assert!(all_finite(&[0.0, 1.0, -2.5, f64::MIN_POSITIVE, f64::MAX]));
    }

    #[test]
    fn all_finite_rejects_nan_and_inf() {
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(!all_finite(&[f64::NEG_INFINITY, 1.0]));
    }

    #[test]
    fn all_finite_on_empty_slice_is_true() {
        assert!(all_finite(&[]));
    }
}
