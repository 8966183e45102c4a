//! Sparse linear-algebra substrate for the SDC-GMRES reproduction.
//!
//! The paper evaluates GMRES on large sparse systems (a 2-D Poisson matrix
//! and a circuit-simulation matrix). This crate provides, from scratch:
//!
//! * Triplet ([`coo`]) and compressed-sparse-row ([`csr`]) storage with
//!   validated construction.
//! * A second SpMV engine ([`sell`]): SELL-C-σ sliced-ELLPACK storage
//!   with chunk-parallel kernels, plus a format abstraction and
//!   row-length-variance `auto` heuristic ([`format`](mod@format))
//!   choosing between the engines per matrix.
//! * Serial and thread-parallel sparse matrix–vector products. Row
//!   partitioning is disjoint, so parallel SpMV is bitwise identical to
//!   serial SpMV — and the SELL kernels preserve each row's accumulation
//!   order exactly, so the *format* is bitwise-invisible too;
//!   fault-injection campaigns stay reproducible either way.
//! * Sparse matrix algebra ([`ops`]): addition, scaling, Kronecker
//!   products (used to assemble Poisson operators the same way Matlab's
//!   `gallery('poisson',n)` does), identity/diagonal constructors.
//! * Matrix Market I/O ([`io`]) so the real `mult_dcop_03.mtx` can be
//!   dropped into the experiments when available.
//! * Structural analysis ([`structure`]): structural rank via
//!   Hopcroft–Karp maximum bipartite matching (Table I's "structural
//!   full rank?" row), a pattern-symmetry score and row-length moments.
//! * Norm estimation ([`norm_est`]): exact Frobenius/1/∞ norms and a
//!   power-iteration estimate of `‖A‖₂` — the paper's two "potential fault
//!   detectors" (Table I).
//! * A matrix gallery ([`gallery`]): Poisson operators in 1/2/3
//!   dimensions, nonsymmetric convection–diffusion, Toeplitz/Grcar test
//!   matrices, seeded random sparse matrices, and the synthetic
//!   circuit-simulation generator that stands in for `mult_dcop_03`
//!   (`crates/sparse/src/gallery/circuit.rs` documents the substitution).

// Index-based loops intentionally mirror the CSR/SELL index arithmetic of the
// kernels (row pointers, column indices); iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]

pub mod coo;
pub mod csr;
pub mod format;
pub mod gallery;
pub mod ilu;
pub mod io;
pub mod norm_est;
pub mod ops;
pub mod perm;
pub mod sell;
pub mod simd;
pub mod structure;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use format::{auto_format, FormatMatrix, SparseFormat};
pub use ilu::{Ilu0Error, Ilu0Factor};
pub use sell::SellMatrix;
pub use simd::SimdMode;

/// Below this many nonzeros the parallel kernels (`par_spmv` in either
/// format, `kron` assembly) stay serial: piece handoff on the pool would
/// cost more than the arithmetic saves. Shared by [`csr`], [`sell`] and
/// [`ops`] so the formats agree on when "parallel" begins.
pub const PAR_SPMV_MIN_NNZ: usize = 1 << 14;

/// Largest row or column count accepted from a size that a spec, a
/// request or a Matrix Market header declares. Storage is allocated from
/// such a size before any entry is seen, and a failed allocation aborts
/// the process rather than panicking, so the size is checked first. The
/// paper's problems have under 10⁵ unknowns.
pub const MAX_DIM: usize = 1 << 24;
