//! GMRES, Flexible GMRES and Fault-Tolerant GMRES with invariant-based
//! SDC detection — the primary contribution of Elliott, Hoemmen & Mueller,
//! *Evaluating the Impact of SDC on the GMRES Iterative Solver*
//! (IPDPS 2014), reproduced in Rust.
//!
//! # The pieces
//!
//! * [`operator`] — the [`operator::LinearOperator`] abstraction; sparse
//!   matrices and closures are operators.
//! * [`ortho`] — instrumented orthogonalization kernels (Modified
//!   Gram-Schmidt, Classical Gram-Schmidt, CGS with reorthogonalization).
//!   Every dot product and norm passes through a fault injector and the
//!   SDC detector: this is where the paper's experiments strike.
//! * [`detector`] — the Hessenberg-bound detector of §V:
//!   `|h_ij| ≤ ‖A‖₂ ≤ ‖A‖_F` (Eq. 3), with the response policies the
//!   solvers support (record / restart inner / abort inner / halt).
//! * [`arnoldi`] — the Arnoldi state every Krylov solver here steps
//!   (basis, Hessenberg columns, their incremental Givens QR and the
//!   least-squares update), and the standalone decomposition of Fig. 2.
//! * [`gmres`] — restarted GMRES (Algorithm 1) with the three §VI-D
//!   projected least-squares policies and the detector responses.
//! * [`fgmres`] — Flexible GMRES (Algorithm 2) with rank monitoring of
//!   the projected matrix and the "trichotomy" outcome (§VI-C).
//! * [`abft`] — the Online-ABFT baseline: periodic orthogonality audits
//!   with rollback.
//! * [`ftgmres`] — FT-GMRES: reliable FGMRES outer iteration around
//!   sandboxed, unreliable inner GMRES solves (§VI).
//! * [`precond`] — right/flexible preconditioning: the `PrecondKind`
//!   axis and the `BuiltPrecond` it builds (none, Jacobi, ILU(0) from
//!   `sdc_sparse::ilu`, Chebyshev), and the opaque-preconditioner fault
//!   surface of the sequel paper (stored-factor corruption, per-apply
//!   transient flips).
//! * [`telemetry`] — solve reports: outcomes, residual histories,
//!   detector events, injection records.
//!
//! # Quick start
//!
//! ```
//! use sdc_gmres::prelude::*;
//! use sdc_sparse::gallery;
//!
//! let a = gallery::poisson2d(16);
//! let n = a.nrows();
//! let b = vec![1.0; n];
//! let cfg = GmresConfig { tol: 1e-10, max_iters: 400, restart: Some(40), ..Default::default() };
//! let (x, report) = gmres_solve(&a, &b, None, &cfg);
//! assert!(report.outcome.is_converged());
//! assert_eq!(x.len(), n);
//! ```

// Index-based loops intentionally mirror the paper's Algorithm 1 notation
// (Arnoldi columns); iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]

pub mod abft;
pub mod arnoldi;
pub mod detector;
pub mod fgmres;
pub mod ftgmres;
pub mod gmres;
pub mod operator;
pub mod ortho;
pub mod precond;
mod summary;
pub mod telemetry;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::detector::{DetectorResponse, SdcDetector, Violation};
    pub use crate::fgmres::{fgmres_solve, FgmresConfig};
    pub use crate::ftgmres::{ftgmres_solve, ftgmres_solve_precond, FtGmresConfig};
    pub use crate::gmres::{
        gmres_solve, gmres_solve_instrumented, gmres_solve_right_precond, GmresConfig, SiteContext,
    };
    pub use crate::operator::{FnOperator, LinearOperator};
    pub use crate::ortho::OrthoStrategy;
    pub use crate::precond::{
        BuiltPrecond, ChebyshevPrecond, FaultedPrecond, JacobiPrecond, PrecondKind,
    };
    pub use crate::telemetry::{SolveOutcome, SolveReport, SolveSummary};
    pub use sdc_dense::lstsq::LstsqPolicy;
}

pub use prelude::*;
