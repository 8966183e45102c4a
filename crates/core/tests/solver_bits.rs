//! Bit-level goldens for every Arnoldi-based solver entry point.
//!
//! Each case runs one solve under a fresh trace sink and records FNV-1a
//! digests of the `x` bits, the residual-history bits and the
//! deterministic trace bytes, plus the iteration count. The goldens pin
//! the exact floating-point operation order of each solver: a refactor
//! of the Arnoldi core must reproduce them bit for bit, at any thread
//! count and under every SIMD tier (the kernels are contractually
//! bitwise-deterministic in both).

use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
use sdc_faults::trigger::LoopPosition;
use sdc_faults::{
    FaultInjector, FaultModel, NoFaults, SingleFaultInjector, SitePredicate, Trigger,
};
use sdc_gmres::abft::{abft_gmres_solve, AbftGmresConfig};
use sdc_gmres::arnoldi::arnoldi;
use sdc_gmres::detector::{DetectorResponse, SdcDetector};
use sdc_gmres::fgmres::{fgmres_solve, FgmresConfig, FlexiblePreconditioner, PrecondReport};
use sdc_gmres::ftgmres::{ftgmres_capture, ftgmres_fork, ftgmres_solve_precond, FtGmresConfig};
use sdc_gmres::gmres::{gmres_solve_instrumented, gmres_solve_right_precond, GmresConfig};
use sdc_gmres::precond::{BuiltPrecond, JacobiPrecond, PrecondKind};
use sdc_gmres::telemetry::SolveReport;
use sdc_gmres::SiteContext;
use sdc_obs::trace::TraceSink;
use sdc_sparse::{gallery, CsrMatrix};
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits_digest(v: &[f64]) -> u64 {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn b_for(a: &CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    b
}

/// One solve's fingerprint: `iters=.. x=.. hist=.. trace=..`.
fn fingerprint(solve: impl FnOnce() -> (Vec<f64>, SolveReport)) -> String {
    let sink = Arc::new(TraceSink::new());
    let (x, rep) = sdc_obs::with_local(sink.clone(), solve);
    format!(
        "iters={} x={:016x} hist={:016x} trace={:016x}",
        rep.iterations,
        bits_digest(&x),
        bits_digest(&rep.residual_history),
        fnv1a(sink.det_bytes().as_bytes())
    )
}

fn check(case: &str, got: String, want: &str) {
    assert_eq!(got, want, "{case}: solver bits moved");
}

#[test]
fn restarted_gmres_with_mgs_fault_and_detector_restart() {
    let a = gallery::poisson2d(12);
    let b = b_for(&a);
    let det = SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner);
    let cfg = GmresConfig {
        tol: 1e-10,
        max_iters: 400,
        restart: Some(15),
        detector: Some(det),
        ..Default::default()
    };
    let got = fingerprint(|| {
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 7, LoopPosition::First)),
        );
        let ctx = SiteContext { outer_iteration: 1, inner_solve: 1 };
        let (x, rep) = gmres_solve_instrumented(&a, &b, None, &cfg, &inj, ctx);
        assert_eq!(rep.detector_restarts, 1, "the fault must force a restart");
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        (x, rep)
    });
    check(
        "gmres restart",
        got,
        "iters=53 x=fa0b28471fc0052b hist=2b0a59a2392597cd trace=0ca997f6b501f711",
    );
}

#[test]
fn ilu0_right_preconditioned_gmres_from_nonzero_guess() {
    let a = gallery::convection_diffusion_2d(14, 2.0, 1.0);
    let b = b_for(&a);
    let n = b.len();
    let x0: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.13).sin() * 0.1).collect();
    let p = PrecondKind::Ilu0.build(&a).unwrap();
    let cfg = GmresConfig { tol: 1e-10, max_iters: 300, restart: Some(8), ..Default::default() };
    let got = fingerprint(|| {
        let (x, rep) = gmres_solve_right_precond(&a, &b, Some(&x0), &cfg, &p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        (x, rep)
    });
    check(
        "ilu0 gmres",
        got,
        "iters=18 x=009a33580b4e63d3 hist=3384f6e38c5d0d14 trace=ee1c41173f2abdd8",
    );
}

#[test]
fn jacobi_fgmres() {
    let a = gallery::convection_diffusion_2d(10, 3.0, 1.0);
    let b = b_for(&a);
    let cfg = FgmresConfig { tol: 1e-10, max_outer: 300, ..Default::default() };
    let got = fingerprint(|| {
        let p = BuiltPrecond::Jacobi(JacobiPrecond::from_matrix(&a));
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut &p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        (x, rep)
    });
    check(
        "jacobi fgmres",
        got,
        "iters=37 x=e3b691935f066bff hist=87a707821a5d68fa trace=4c2db40dd0a4e08b",
    );
}

#[test]
fn fgmres_retries_a_useless_direction_with_z_equal_q() {
    // Returns the zero vector on its third application: the new column
    // is rank deficient, so FGMRES must retry it with z = q.
    struct ZeroOnThird(usize);
    impl FlexiblePreconditioner for ZeroOnThird {
        fn apply_flexible(&mut self, _j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
            self.0 += 1;
            if self.0 == 3 {
                z.fill(0.0);
            } else {
                for (zi, qi) in z.iter_mut().zip(q) {
                    *zi = 0.5 * qi;
                }
            }
            PrecondReport::default()
        }
    }
    let a = gallery::poisson2d(9);
    let b = b_for(&a);
    let cfg = FgmresConfig { tol: 1e-10, max_outer: 200, ..Default::default() };
    let got = fingerprint(|| {
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut ZeroOnThird(0));
        assert_eq!(rep.inner_rejections, 1, "the z = q retry must fire once");
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        (x, rep)
    });
    check(
        "fgmres z=q retry",
        got,
        "iters=13 x=42f4e08fc210e7ea hist=25c469938be8c77f trace=4b96ad06891280f5",
    );
}

#[test]
fn chebyshev_ftgmres_with_precond_apply_fault() {
    let a = gallery::poisson2d(10);
    let b = b_for(&a);
    let p = PrecondKind::Chebyshev.build(&a).unwrap();
    let cfg = FtGmresConfig {
        outer: FgmresConfig { tol: 1e-9, max_outer: 40, ..Default::default() },
        inner_iters: 6,
        inner_detector: Some(SdcDetector::for_precond(&a, &p, DetectorResponse::Record)),
        ..Default::default()
    };
    let got = fingerprint(|| {
        let point = CampaignPoint {
            aggregate_iteration: 8,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = point.injector_precond_apply(a.nrows());
        let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &inj);
        assert_eq!(rep.injections.len(), 1, "the fault must fire");
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        (x, rep)
    });
    check(
        "chebyshev ftgmres",
        got,
        "iters=3 x=c7fc16ff6579b82a hist=6e8cb90a0ba1644a trace=be58962b62a8e01e",
    );
}

#[test]
fn abft_gmres_rolls_back_a_class1_fault() {
    let a = gallery::poisson2d(10);
    let b = b_for(&a);
    let cfg = AbftGmresConfig { tol: 1e-9, max_iters: 400, check_every: 3, ..Default::default() };
    let mut stats = None;
    let got = fingerprint(|| {
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 4, LoopPosition::First)),
        );
        let ctx = SiteContext { outer_iteration: 1, inner_solve: 1 };
        let (x, rep, s) = abft_gmres_solve(&a, &b, None, &cfg, &inj, ctx);
        assert_eq!(s.rollbacks, 1, "the fault must force a rollback");
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        stats = Some(s);
        (x, rep)
    });
    let s = stats.unwrap();
    let got = format!("{got} checks={} dots={}", s.checks, s.extra_dots);
    check("abft rollback", got, "iters=15 x=5f74affbf9cd3650 hist=24db146478941183 trace=b72688d905a1ab10 checks=7 dots=117");
}

#[test]
fn arnoldi_hessenberg() {
    let a = gallery::convection_diffusion_2d(9, 1.5, -0.5);
    let v0: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.317).sin() + 0.73).collect();
    let dec = arnoldi(&a, &v0, 20);
    let q: Vec<f64> = dec.q.concat();
    let got = format!(
        "cols={} breakdown={} h={:016x} q={:016x}",
        dec.h.cols(),
        dec.breakdown,
        bits_digest(dec.h.data()),
        bits_digest(&q)
    );
    check("arnoldi", got, "cols=20 breakdown=false h=e111b7d453ac3f37 q=cc3cc5bbc5573fbe");
}

/// `x` bits plus every report field (`Debug` prints floats exactly).
fn solve_bits((x, rep): (Vec<f64>, SolveReport)) -> String {
    let x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    let hist: Vec<u64> = rep.residual_history.iter().map(|v| v.to_bits()).collect();
    format!("x={x:?} hist={hist:?} {rep:?}")
}

#[test]
fn ftgmres_forked_at_every_outer_boundary_matches_the_solve_from_scratch() {
    let a = gallery::poisson2d(16);
    let b = b_for(&a);
    for kind in [PrecondKind::None, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
        let p = kind.build(&a).unwrap();
        let clean_cfg = FtGmresConfig {
            outer: FgmresConfig { tol: 1e-10, max_outer: 40, ..Default::default() },
            inner_iters: 3,
            ..Default::default()
        };
        let (x, clean_rep, clean) = ftgmres_capture(&a, &b, None, &clean_cfg, &p);
        let outers = clean_rep.iterations;
        assert_eq!(
            solve_bits((x, clean_rep)),
            solve_bits(ftgmres_solve_precond(&a, &b, None, &clean_cfg, &p, &NoFaults)),
            "{kind}: the capture is the clean solve"
        );
        assert!(outers >= 3, "{kind}: {outers} outer iterations leave little to fork");
        for detector in
            [None, Some(SdcDetector::for_precond(&a, &p, DetectorResponse::RestartInner))]
        {
            let cfg = FtGmresConfig { inner_detector: detector, ..clean_cfg };
            for o in 1..=outers {
                assert_eq!(clean.fork_boundary(o, detector.as_ref()), o, "{kind}: outer {o}");
                let fault = CampaignPoint {
                    aggregate_iteration: (o - 1) * cfg.inner_iters + 2,
                    inner_per_outer: cfg.inner_iters,
                    class: FaultClass::Huge,
                    position: MgsPosition::First,
                };
                let injectors: [&dyn Fn() -> Box<dyn FaultInjector>; 2] =
                    [&|| Box::new(NoFaults), &|| Box::new(fault.injector())];
                for (faults, make) in injectors.into_iter().enumerate() {
                    let inj = make();
                    let scratch = ftgmres_solve_precond(&a, &b, None, &cfg, &p, inj.as_ref());
                    assert_eq!(scratch.1.injections.len(), faults, "{kind}: outer {o}");
                    let inj = make();
                    let forked = ftgmres_fork(&a, &b, &cfg, &p, inj.as_ref(), &clean, o);
                    assert_eq!(
                        solve_bits(forked),
                        solve_bits(scratch),
                        "{kind} detector={} outer {o}",
                        detector.is_some()
                    );
                }
            }
        }
    }
}
