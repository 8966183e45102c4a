//! # sdc-repro
//!
//! Umbrella crate for the reproduction of Elliott, Hoemmen & Mueller,
//! *Evaluating the Impact of SDC on the GMRES Iterative Solver*
//! (IPDPS 2014). It re-exports the eight library crates so applications
//! can depend on a single crate:
//!
//! * [`obs`] — the observability spine: structured events with a
//!   deterministic/timing two-channel trace sink and the unified
//!   metrics registry (Prometheus text exposition).
//! * [`parallel`] — the execution substrate: a deterministic
//!   `std::thread` work pool and the canonical tree reduction every
//!   `par_*` kernel dispatches to (`--threads` / `SDC_THREADS`).
//! * [`dense`] — dense linear-algebra substrate (QR, SVD, incremental
//!   Hessenberg least squares, rank-revealing solve policies).
//! * [`sparse`] — sparse matrices, kernels, Matrix Market I/O, the
//!   matrix gallery (including the paper's exact Poisson operator and
//!   the synthetic `mult_dcop_03` stand-in).
//! * [`faults`] — SDC fault models, injection sites/triggers and
//!   bit-flip anatomy.
//! * [`solvers`] — GMRES / Flexible GMRES / FT-GMRES with the
//!   invariant-based SDC detector, plus the Online-ABFT baseline.
//! * [`campaigns`] — the declarative, resumable, artifact-first
//!   campaign engine (specs, sharded executor, JSONL artifacts,
//!   re-solve-free reports).
//! * [`server`] — the long-lived solve service: matrix registry,
//!   batching scheduler, streaming campaign jobs over a
//!   newline-delimited JSON protocol (`serve` / `solve-client`).
//!
//! See `README.md` for a tour. The `examples/` directory contains
//! runnable walkthroughs and `crates/bench` the binaries that regenerate
//! every table and figure of the paper.

pub use sdc_campaigns as campaigns;
pub use sdc_dense as dense;
pub use sdc_faults as faults;
pub use sdc_gmres as solvers;
pub use sdc_obs as obs;
pub use sdc_parallel as parallel;
pub use sdc_server as server;
pub use sdc_sparse as sparse;

/// Everything an application typically needs.
pub mod prelude {
    pub use sdc_gmres::prelude::*;
    pub use sdc_sparse::{gallery, CsrMatrix};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let a = crate::sparse::gallery::poisson2d(4);
        assert_eq!(a.nrows(), 16);
        let m = crate::dense::DenseMatrix::identity(2);
        assert_eq!(m[(0, 0)], 1.0);
        let f = crate::faults::FaultModel::CLASS1_HUGE;
        assert_eq!(f.apply(1.0), 1e150);
        let spec = crate::campaigns::CampaignSpec::paper_shape(
            "wired",
            vec![crate::campaigns::ProblemSpec::Poisson { m: 4 }],
        );
        assert_eq!(spec.scenarios().len(), 8);
        assert!(crate::parallel::threads() >= 1);
    }
}
