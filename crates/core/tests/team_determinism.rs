//! Thread-count determinism of solves whose MGS runs on a thread team.
//!
//! Every committed golden uses vectors shorter than
//! `sdc_parallel::TEAM_MIN`, where the MGS sweep runs inline. Poisson
//! 130² (n = 16,900) is just past the gate, so at two or more threads
//! each Arnoldi step's coefficients are computed by a team. A faulted
//! FT-GMRES solve (fault hook on every coefficient, detector recording)
//! and an ILU(0)-preconditioned GMRES solve must produce the same
//! deterministic trace bytes and the same `x` bits at 1, 2 and 8
//! threads.

use sdc_faults::trigger::LoopPosition;
use sdc_faults::{FaultModel, SingleFaultInjector, SitePredicate, Trigger};
use sdc_gmres::detector::{DetectorResponse, SdcDetector};
use sdc_gmres::fgmres::FgmresConfig;
use sdc_gmres::ftgmres::{ftgmres_solve_precond, FtGmresConfig};
use sdc_gmres::gmres::{gmres_solve_right_precond, GmresConfig};
use sdc_gmres::precond::{BuiltPrecond, PrecondKind};
use sdc_obs::trace::TraceSink;
use sdc_sparse::gallery;
use std::sync::Arc;

/// Runs `solve` under a fresh trace sink: (det bytes, x bits).
fn traced(solve: impl FnOnce() -> Vec<f64>) -> (String, Vec<u64>) {
    let sink = Arc::new(TraceSink::new());
    let x = sdc_obs::with_local(sink.clone(), solve);
    (sink.det_bytes(), x.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn team_split_solves_are_bitwise_thread_independent() {
    let _guard = sdc_parallel::test_serial_guard();
    let a = gallery::poisson2d(130);
    assert!(a.nrows() >= sdc_parallel::TEAM_MIN, "the problem must reach the team path");
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    let none = BuiltPrecond::None;
    let ilu0 = PrecondKind::Ilu0.build(&a).unwrap();

    let ft_cfg = FtGmresConfig {
        outer: FgmresConfig { tol: 1e-7, max_outer: 4, ..Default::default() },
        inner_iters: 12,
        inner_detector: Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::Record)),
        ..Default::default()
    };
    let faulted_ft = || {
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(2, 7, LoopPosition::Index(4))),
        );
        let (x, rep) = ftgmres_solve_precond(&a, &b, None, &ft_cfg, &none, &inj);
        assert_eq!(rep.injections.len(), 1, "the fault must fire");
        x
    };
    let gmres_cfg = GmresConfig { tol: 0.0, max_iters: 40, ..Default::default() };
    let ilu_gmres = || gmres_solve_right_precond(&a, &b, None, &gmres_cfg, &ilu0).0;

    let mut runs = Vec::new();
    for t in [1, 2, 8] {
        sdc_parallel::set_threads(t);
        runs.push((t, traced(faulted_ft), traced(ilu_gmres)));
    }
    sdc_parallel::set_threads(0);
    let (_, ft_ref, ilu_ref) = &runs[0];
    assert!(ft_ref.0.contains("\"ev\":\"gmres.detect\""), "the detector must record the fault");
    for (t, ft, ilu) in &runs[1..] {
        assert_eq!(ft.0, ft_ref.0, "faulted FT-GMRES det trace differs at {t} threads");
        assert_eq!(ft.1, ft_ref.1, "faulted FT-GMRES x differs at {t} threads");
        assert_eq!(ilu.0, ilu_ref.0, "ILU(0) GMRES det trace differs at {t} threads");
        assert_eq!(ilu.1, ilu_ref.1, "ILU(0) GMRES x differs at {t} threads");
    }
}
