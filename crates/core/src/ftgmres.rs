//! FT-GMRES — the fault-tolerant inner-outer iteration of §VI.
//!
//! The outer solver is [Flexible GMRES](crate::fgmres) running reliably;
//! the preconditioner application (Algorithm 2, line 4) is an entire GMRES
//! solve running **unreliably** — inside the sandbox model of §IV, with
//! fault injection wired into its orthogonalization kernels. Faults in the
//! inner solve are "rolled forward" through, not rolled back: the outer
//! iteration treats whatever the inner solve returns as just another
//! preconditioner.
//!
//! The sandbox promises the inner solve returns *something* in *finite
//! time*. Concretely:
//!
//! * the inner solve runs under `catch_unwind`, so a panic (hard fault)
//!   becomes a reportable event, and
//! * its result is validated by the reliable outer layer (finite entries);
//!   rejected results are replaced by the unpreconditioned direction
//!   `z = q` — the cheapest correct preconditioner.

use crate::detector::SdcDetector;
use crate::fgmres::{
    fgmres_resume, fgmres_solve, fgmres_solve_capture, FgmresConfig, FgmresPrefix,
    FlexiblePreconditioner, PrecondReport,
};
use crate::gmres::{gmres_solve_instrumented, GmresConfig, SiteContext};
use crate::operator::LinearOperator;
use crate::precond::{right_preconditioned, BuiltPrecond, FaultedPrecond};
use crate::telemetry::{SolveOutcome, SolveReport};
use sdc_dense::lstsq::LstsqPolicy;
use sdc_faults::{FaultInjector, Kernel, NoFaults, Site};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// FT-GMRES configuration. The inner solves always orthogonalize with
/// MGS, and the outer layer always rejects non-finite inner results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtGmresConfig {
    /// Outer (reliable) solver settings.
    pub outer: FgmresConfig,
    /// Iterations each inner solve performs (25 in the paper's
    /// experiments). The inner solver runs in fixed-iteration mode.
    pub inner_iters: usize,
    /// Inner projected least-squares policy (§VI-D ablations).
    pub inner_lsq_policy: LstsqPolicy,
    /// The inner solve's SDC detector (None = undetected baseline).
    pub inner_detector: Option<SdcDetector>,
}

impl Default for FtGmresConfig {
    fn default() -> Self {
        Self {
            outer: FgmresConfig::default(),
            inner_iters: 25,
            inner_lsq_policy: LstsqPolicy::Standard,
            inner_detector: None,
        }
    }
}

impl FtGmresConfig {
    /// The inner solve's GMRES settings: fixed-iteration mode (`tol` 0
    /// runs all `inner_iters`), unrestarted, MGS.
    fn inner_config(&self) -> GmresConfig {
        GmresConfig {
            tol: 0.0,
            max_iters: self.inner_iters,
            restart: None,
            lsq_policy: self.inner_lsq_policy,
            detector: self.inner_detector,
        }
    }
}

/// The unreliable inner solve, packaged as a flexible preconditioner.
///
/// Without a preconditioner the inner GMRES runs on `A` itself. With one,
/// it runs on `B = A·M⁻¹` (both the operator applies and the
/// orthogonalization passing through the fault injector — `M` is the
/// sequel paper's opaque preconditioner, corruptible via
/// [`FaultedPrecond`]), and the returned direction is `z = M⁻¹u`, mapped
/// through the *clean* application (stored-factor corruption, being
/// persistent, still applies). The outer FGMRES remains reliable and
/// unpreconditioned — the residual identity `b − A x = b − B u` keeps
/// its convergence checks and detector bounds valid; see
/// [`crate::precond`].
pub struct InnerGmresPrecond<'a, A: LinearOperator + ?Sized> {
    a: &'a A,
    cfg: GmresConfig,
    precond: Option<FaultedPrecond<'a>>,
    injector: &'a dyn FaultInjector,
}

impl<'a, A: LinearOperator + ?Sized> InnerGmresPrecond<'a, A> {
    /// Builds the inner-solve preconditioner from an FT-GMRES config.
    pub fn new(
        a: &'a A,
        ft: &FtGmresConfig,
        precond: &'a BuiltPrecond,
        injector: &'a dyn FaultInjector,
    ) -> Self {
        let precond = (!precond.is_none()).then(|| FaultedPrecond::new(precond, injector));
        Self { a, cfg: ft.inner_config(), precond, injector }
    }

    /// The unreliable guest phase: the inner GMRES solve of `A u = q`
    /// (or `A·M⁻¹ u = q`), returning `u` before any mapping back.
    fn guest_solve(&self, outer_iteration: usize, q: &[f64]) -> (Vec<f64>, SolveReport) {
        let ctx = SiteContext { outer_iteration, inner_solve: outer_iteration };
        let Some(precond) = &self.precond else {
            return gmres_solve_instrumented(self.a, q, None, &self.cfg, self.injector, ctx);
        };
        // The apply ordinal addresses transient preconditioner faults.
        let op = right_preconditioned(self.a, |u, m_u, ordinal| {
            precond.solve_faulted(u, m_u, outer_iteration, ordinal)
        });
        gmres_solve_instrumented(&op, q, None, &self.cfg, self.injector, ctx)
    }
}

impl<'a, A: LinearOperator + ?Sized> FlexiblePreconditioner for InnerGmresPrecond<'a, A> {
    fn apply_flexible(
        &mut self,
        outer_iteration: usize,
        q: &[f64],
        z: &mut [f64],
    ) -> PrecondReport {
        let mut preport = PrecondReport::default();
        let injections_before = self.injector.records().len();
        // catch_unwind converts a guest panic into a reportable event
        // (the sandbox's "returns something" promise).
        let guest = catch_unwind(AssertUnwindSafe(|| self.guest_solve(outer_iteration, q)));
        let Ok((u, inner_rep)) = guest else {
            // Guest crashed: the hard fault becomes a rejection; the
            // solve continues with z = q.
            preport.rejected = true;
            z.copy_from_slice(q);
            return preport;
        };
        preport.inner_iterations = inner_rep.iterations;
        preport.detector_events = inner_rep.detector_events;
        preport.detector_restarts = inner_rep.detector_restarts;
        preport.injections = self.injector.records().into_iter().skip(injections_before).collect();
        if let SolveOutcome::Halted(v) = inner_rep.outcome {
            preport.halted = Some(v);
            // Hand back the (loud) fallback anyway so the caller has
            // defined data if it chooses to continue.
            z.copy_from_slice(q);
            return preport;
        }
        // ---- Reliable host phase: map u back, validate before use.
        match &self.precond {
            None => z.copy_from_slice(&u),
            Some(precond) => precond.solve_clean(&u, z),
        }
        if !sdc_dense::all_finite(z) {
            preport.rejected = true;
            z.copy_from_slice(q);
        }
        preport
    }

    fn name(&self) -> &'static str {
        "inner-gmres (unreliable)"
    }
}

/// Solves `A x = b` with FT-GMRES, fault-free.
pub fn ftgmres_solve<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FtGmresConfig,
) -> (Vec<f64>, SolveReport) {
    ftgmres_solve_instrumented(a, b, x0, cfg, &NoFaults)
}

/// Solves `A x = b` with FT-GMRES, injecting faults into the inner solves
/// via `injector`. This is the paper's experimental configuration.
pub fn ftgmres_solve_instrumented<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FtGmresConfig,
    injector: &dyn FaultInjector,
) -> (Vec<f64>, SolveReport) {
    ftgmres_solve_precond(a, b, x0, cfg, &BuiltPrecond::None, injector)
}

/// FT-GMRES with a right-preconditioned inner solve and the
/// opaque-preconditioner fault surface armed (see
/// [`InnerGmresPrecond`]). With
/// [`PrecondKind::None`](crate::precond::PrecondKind::None) this is
/// [`ftgmres_solve_instrumented`].
pub fn ftgmres_solve_precond<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FtGmresConfig,
    precond: &BuiltPrecond,
    injector: &dyn FaultInjector,
) -> (Vec<f64>, SolveReport) {
    let mut inner = InnerGmresPrecond::new(a, cfg, precond, injector);
    fgmres_solve(a, b, x0, &cfg.outer, &mut inner)
}

/// A clean FT-GMRES solve kept so that faulted solves of the same
/// system can start at an outer boundary instead of from `x₀`
/// ([`ftgmres_fork`]).
///
/// Besides the outer [`FgmresPrefix`] it records, per inner solve, the
/// largest `|h|` of any orthogonalization coefficient or norm (NaN if
/// one was NaN): a solve whose detector stays below that bound takes
/// the same path as the clean one, because the detector only acts when
/// it fires.
#[derive(Clone, Debug)]
pub struct CleanFtGmres {
    cfg: FtGmresConfig,
    prefix: FgmresPrefix,
    inner_max_abs_h: Vec<f64>,
}

impl CleanFtGmres {
    /// The latest outer boundary, at most `outer`, that a solve whose
    /// inner detector is `detector` may fork at: within the recorded
    /// prefix, and after no inner solve the detector would have fired
    /// in. Boundary 1 is a start from scratch.
    pub fn fork_boundary(&self, outer: usize, detector: Option<&SdcDetector>) -> usize {
        let silent = match detector {
            Some(d) => 1 + self.inner_max_abs_h.iter().take_while(|&&h| h <= d.bound).count(),
            None => usize::MAX,
        };
        outer.min(self.prefix.boundaries()).min(silent).max(1)
    }

    /// The largest `|h|` per inner solve (index 0 is inner solve 1).
    pub fn inner_max_abs_h(&self) -> &[f64] {
        &self.inner_max_abs_h
    }

    /// Bytes held by the recorded state.
    pub fn bytes(&self) -> usize {
        self.prefix.bytes() + 8 * self.inner_max_abs_h.len()
    }
}

/// Pass-through injector recording the largest `|h|` per inner solve.
#[derive(Default)]
struct MaxAbsH(Mutex<Vec<f64>>);

impl FaultInjector for MaxAbsH {
    fn corrupt(&self, site: Site, value: f64) -> f64 {
        if matches!(site.kernel, Kernel::OrthoDot | Kernel::OrthoNorm) && site.inner_solve > 0 {
            // Recover poison: the sandbox keeps going after a crashed inner solve.
            let mut maxima = self.0.lock().unwrap_or_else(|e| e.into_inner());
            if maxima.len() < site.inner_solve {
                maxima.resize(site.inner_solve, 0.0);
            }
            let (m, v) = (&mut maxima[site.inner_solve - 1], value.abs());
            // NaN sticks: it fails every bound, as it fails the detector.
            if !m.is_nan() && (v.is_nan() || v > *m) {
                *m = v;
            }
        }
        value
    }
}

/// Solves `A x = b` with fault-free FT-GMRES (bitwise
/// [`ftgmres_solve_precond`] with [`NoFaults`]) and keeps what
/// [`ftgmres_fork`] needs.
pub fn ftgmres_capture<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FtGmresConfig,
    precond: &BuiltPrecond,
) -> (Vec<f64>, SolveReport, CleanFtGmres) {
    let maxima = MaxAbsH::default();
    let mut inner = InnerGmresPrecond::new(a, cfg, precond, &maxima);
    let (x, report, prefix) = fgmres_solve_capture(a, b, x0, &cfg.outer, &mut inner);
    let clean = CleanFtGmres {
        cfg: *cfg,
        prefix,
        inner_max_abs_h: maxima.0.into_inner().unwrap_or_else(|e| e.into_inner()),
    };
    (x, report, clean)
}

/// [`ftgmres_solve_precond`] on the system `clean` was captured on,
/// forked at outer boundary `outer`: the inner solves of outer
/// iterations `1 … outer−1` are taken from the clean solve instead of
/// run. The result is bitwise the from-scratch one whenever `injector`
/// fires nowhere in those inner solves (e.g. a campaign's MGS-site
/// injector aimed at inner solve `outer` or later).
///
/// Panics unless `outer` is a valid [`CleanFtGmres::fork_boundary`] for
/// `cfg`'s detector and `cfg` equals the captured configuration up to
/// the detector.
pub fn ftgmres_fork<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    cfg: &FtGmresConfig,
    precond: &BuiltPrecond,
    injector: &dyn FaultInjector,
    clean: &CleanFtGmres,
    outer: usize,
) -> (Vec<f64>, SolveReport) {
    assert_eq!(
        outer,
        clean.fork_boundary(outer, cfg.inner_detector.as_ref()),
        "ftgmres_fork: outer boundary {outer} is not forkable"
    );
    assert_eq!(
        FtGmresConfig { inner_detector: None, ..*cfg },
        FtGmresConfig { inner_detector: None, ..clean.cfg },
        "ftgmres_fork: configuration differs from the captured solve"
    );
    let mut inner = InnerGmresPrecond::new(a, cfg, precond, injector);
    fgmres_resume(a, b, &cfg.outer, &mut inner, &clean.prefix, outer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorResponse;
    use sdc_dense::vector;
    use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
    use sdc_faults::trigger::LoopPosition;
    use sdc_faults::{FaultModel, SingleFaultInjector, SitePredicate, Trigger};
    use sdc_sparse::gallery;

    fn b_for(a: &sdc_sparse::CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    fn poisson_cfg() -> FtGmresConfig {
        FtGmresConfig {
            outer: FgmresConfig { tol: 1e-8, max_outer: 40, ..Default::default() },
            inner_iters: 10,
            ..Default::default()
        }
    }

    fn check_solution(a: &sdc_sparse::CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let mut r = vec![0.0; b.len()];
        crate::operator::residual(a, b, x, &mut r);
        let rel = vector::nrm2(&r) / vector::nrm2(b);
        assert!(rel <= tol, "relative residual {rel} > {tol}");
    }

    #[test]
    fn det_trace_is_reproducible_and_covers_every_layer() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        let precond = PrecondKind::Jacobi.build(&a).unwrap();
        let run = || {
            let sink = std::sync::Arc::new(sdc_obs::trace::TraceSink::new());
            let inj = SingleFaultInjector::new(
                FaultModel::CLASS1_HUGE,
                Trigger::once(SitePredicate::mgs_site(1, 3, LoopPosition::First)),
            );
            sdc_obs::with_local(sink.clone(), || {
                ftgmres_solve_precond(&a, &b, None, &cfg, &precond, &inj);
            });
            sink.det_bytes()
        };
        let t1 = run();
        let t2 = run();
        assert_eq!(t1, t2, "det trace must be a pure function of the spec");
        for ev in [
            "gmres.iter",
            "gmres.done",
            "fgmres.outer",
            "fgmres.done",
            "fault.inject",
            "precond.apply",
        ] {
            assert!(t1.contains(&format!("\"ev\":\"{ev}\"")), "missing {ev} in det trace");
        }
        // Exactly one committed injection in the trace.
        assert_eq!(t1.matches("\"ev\":\"fault.inject\"").count(), 1);
    }

    #[test]
    fn fault_free_nested_solve_converges() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        let (x, rep) = ftgmres_solve(&a, &b, None, &cfg);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        check_solution(&a, &b, &x, 1e-7);
        assert!(rep.total_inner_iterations >= rep.iterations * cfg.inner_iters);
        assert_eq!(rep.inner_rejections, 0);
        assert_eq!(rep.injections.len(), 0);
    }

    #[test]
    fn runs_through_huge_fault_without_detector() {
        // The paper's headline: FT-GMRES "runs through" SDC of almost any
        // magnitude in the orthogonalization phase.
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        let (_, ff) = ftgmres_solve(&a, &b, None, &cfg);
        for class in FaultClass::all() {
            let point = CampaignPoint {
                aggregate_iteration: 12, // inner solve 2, iteration 2
                inner_per_outer: cfg.inner_iters,
                class,
                position: MgsPosition::First,
            };
            let inj = point.injector();
            let (x, rep) = ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
            assert!(rep.outcome.is_converged(), "{class:?}: {:?}", rep.outcome);
            assert_eq!(rep.injections.len(), 1, "{class:?}: exactly one SDC");
            check_solution(&a, &b, &x, 1e-7);
            // Bounded penalty: a handful of extra outer iterations at most.
            assert!(
                rep.iterations <= ff.iterations + 6,
                "{class:?}: {} vs failure-free {}",
                rep.iterations,
                ff.iterations
            );
        }
    }

    #[test]
    fn detector_catches_huge_fault_and_restart_shrinks_penalty() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let mut cfg = poisson_cfg();
        let (_, ff) = ftgmres_solve(&a, &b, None, &cfg);

        cfg.inner_detector =
            Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner));
        let point = CampaignPoint {
            aggregate_iteration: 3,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = point.injector();
        let (x, rep) = ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
        assert!(rep.outcome.is_converged());
        assert!(rep.detected_anything(), "class-1 fault must be detected");
        assert_eq!(rep.detector_restarts, 1);
        check_solution(&a, &b, &x, 1e-7);
        assert!(
            rep.iterations <= ff.iterations + 1,
            "with detector the penalty is at most one outer iteration: {} vs {}",
            rep.iterations,
            ff.iterations
        );
    }

    #[test]
    fn class2_and_class3_faults_are_undetectable_but_survivable() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let mut cfg = poisson_cfg();
        cfg.inner_detector =
            Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner));
        for class in [FaultClass::Slight, FaultClass::Tiny] {
            let point = CampaignPoint {
                aggregate_iteration: 7,
                inner_per_outer: cfg.inner_iters,
                class,
                position: MgsPosition::Last,
            };
            let inj = point.injector();
            let (x, rep) = ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
            assert!(rep.outcome.is_converged(), "{class:?}");
            assert!(
                rep.detector_events.is_empty(),
                "{class:?} must be invisible to the bound detector"
            );
            assert_eq!(rep.detector_restarts, 0);
            check_solution(&a, &b, &x, 1e-7);
        }
    }

    #[test]
    fn nan_inner_result_is_rejected_by_reliable_validation() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        for kind in [PrecondKind::None, PrecondKind::Jacobi] {
            let p = kind.build(&a).unwrap();
            // Inject NaN into an orthogonalization coefficient: without a
            // detector the inner solve returns a NaN-tainted iterate,
            // which the outer validation must reject.
            let inj = SingleFaultInjector::new(
                FaultModel::SetNan,
                Trigger::once(SitePredicate::mgs_site(1, 2, LoopPosition::First)),
            );
            let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &inj);
            assert!(rep.outcome.is_converged(), "{kind}: {:?}", rep.outcome);
            assert!(rep.inner_rejections >= 1, "{kind}: NaN result must be rejected");
            check_solution(&a, &b, &x, 1e-7);
        }
    }

    #[test]
    fn panicking_guest_becomes_rejection_not_crash() {
        use crate::precond::PrecondKind;
        use sdc_faults::Site;
        // An injector that panics at its target site — a hard fault inside
        // the unreliable guest phase. The injector only runs inside inner
        // solves (the reliable outer phase uses NoFaults), so the panic is
        // guaranteed to strike guest code.
        struct CrashingInjector;
        impl sdc_faults::FaultInjector for CrashingInjector {
            fn corrupt(&self, site: Site, value: f64) -> f64 {
                if site.inner_solve == 2 && site.inner_iteration == 3 && site.loop_index == 1 {
                    panic!("simulated guest crash");
                }
                value
            }
        }
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = FtGmresConfig {
            outer: FgmresConfig { tol: 1e-8, max_outer: 30, ..Default::default() },
            inner_iters: 8,
            ..Default::default()
        };
        for kind in [PrecondKind::None, PrecondKind::Jacobi] {
            let p = kind.build(&a).unwrap();
            let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &CrashingInjector);
            // The guest's hard fault was converted into a rejection; the
            // outer solve proceeded and converged.
            assert!(rep.inner_rejections >= 1, "{kind}: crash must be converted to a rejection");
            assert!(rep.outcome.is_converged(), "{kind}: {:?}", rep.outcome);
            assert!(x.iter().all(|v| v.is_finite()));
            check_solution(&a, &b, &x, 1e-7);
        }
    }

    #[test]
    fn detector_halt_propagates_loudly() {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let mut cfg = poisson_cfg();
        cfg.inner_detector = Some(SdcDetector::with_frobenius_bound(&a, DetectorResponse::Halt));
        let point = CampaignPoint {
            aggregate_iteration: 5,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = point.injector();
        let (_, rep) = ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
        assert!(matches!(rep.outcome, SolveOutcome::Halted(_)), "{:?}", rep.outcome);
    }

    #[test]
    fn precond_none_is_plain_ftgmres_bit_for_bit() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        let (x1, r1) = ftgmres_solve(&a, &b, None, &cfg);
        let (x2, r2) =
            ftgmres_solve_precond(&a, &b, None, &cfg, &BuiltPrecond::None, &sdc_faults::NoFaults);
        assert_eq!(r1.iterations, r2.iterations);
        for i in 0..x1.len() {
            assert_eq!(x1[i].to_bits(), x2[i].to_bits(), "x[{i}]");
        }
    }

    #[test]
    fn preconditioned_inner_solves_cut_outer_iterations() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(16);
        let b = b_for(&a);
        let cfg = FtGmresConfig {
            outer: FgmresConfig { tol: 1e-8, max_outer: 60, ..Default::default() },
            inner_iters: 5,
            ..Default::default()
        };
        let (_, plain) = ftgmres_solve(&a, &b, None, &cfg);
        for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
            let p = kind.build(&a).unwrap();
            let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &sdc_faults::NoFaults);
            assert!(rep.outcome.is_converged(), "{kind}: {:?}", rep.outcome);
            check_solution(&a, &b, &x, 1e-7);
            assert!(
                rep.iterations <= plain.iterations,
                "{kind}: {} vs plain {}",
                rep.iterations,
                plain.iterations
            );
            if kind == PrecondKind::Chebyshev {
                assert!(
                    rep.iterations * 2 <= plain.iterations,
                    "{kind} must at least halve outer iterations: {} vs {}",
                    rep.iterations,
                    plain.iterations
                );
            }
        }
    }

    #[test]
    fn opaque_precond_transient_fault_is_survived() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = poisson_cfg();
        for kind in [PrecondKind::Jacobi, PrecondKind::Chebyshev] {
            let p = kind.build(&a).unwrap();
            // Aggregate 3 = inner solve 1, apply 3: guaranteed reached
            // even when the preconditioned solve converges in one outer
            // iteration.
            let point = CampaignPoint {
                aggregate_iteration: 3,
                inner_per_outer: cfg.inner_iters,
                class: FaultClass::Huge,
                position: MgsPosition::First,
            };
            let inj = point.injector_precond_apply(a.nrows());
            let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &inj);
            assert!(rep.outcome.is_converged(), "{kind}: {:?}", rep.outcome);
            assert_eq!(rep.injections.len(), 1, "{kind}: exactly one SDC");
            check_solution(&a, &b, &x, 1e-7);
        }
    }

    #[test]
    fn opaque_precond_stored_factor_fault_is_survived_and_detected() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let p = PrecondKind::Ilu0.build(&a).unwrap();
        let mut cfg = poisson_cfg();
        let point = CampaignPoint {
            aggregate_iteration: 12,
            inner_per_outer: cfg.inner_iters,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let nnz = match &p {
            BuiltPrecond::Ilu0(f) => f.nnz(),
            _ => unreachable!(),
        };
        // Undetected: the corrupted factors poison inner directions, but
        // the reliable outer layer still converges to the true solution.
        let inj = point.injector_precond_factor(nnz);
        let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &inj);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert_eq!(rep.injections.len(), 1);
        check_solution(&a, &b, &x, 1e-7);

        // Detected: the huge factor inflates an inner Hessenberg entry
        // beyond the preconditioned bound.
        cfg.inner_detector =
            Some(SdcDetector::with_preconditioned_bound(&a, &p, DetectorResponse::Record));
        let inj = point.injector_precond_factor(nnz);
        let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &inj);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert!(rep.detected_anything(), "huge stored-factor fault must trip the bound");
        check_solution(&a, &b, &x, 1e-7);
    }

    #[test]
    fn preconditioned_detector_never_fires_fault_free() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(12);
        let b = b_for(&a);
        for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
            let p = kind.build(&a).unwrap();
            let mut cfg = poisson_cfg();
            cfg.inner_detector =
                Some(SdcDetector::with_preconditioned_bound(&a, &p, DetectorResponse::Halt));
            let (x, rep) = ftgmres_solve_precond(&a, &b, None, &cfg, &p, &sdc_faults::NoFaults);
            assert!(rep.outcome.is_converged(), "{kind}: false positive: {:?}", rep.outcome);
            assert!(rep.detector_events.is_empty(), "{kind}");
            check_solution(&a, &b, &x, 1e-7);
        }
    }

    #[test]
    fn nonsymmetric_system_with_faults() {
        let a = gallery::convection_diffusion_2d(8, 2.0, -1.0);
        let b = b_for(&a);
        let cfg = FtGmresConfig {
            outer: FgmresConfig { tol: 1e-8, max_outer: 60, ..Default::default() },
            inner_iters: 12,
            ..Default::default()
        };
        let point = CampaignPoint {
            aggregate_iteration: 14,
            inner_per_outer: 12,
            class: FaultClass::Slight,
            position: MgsPosition::Last,
        };
        let inj = point.injector();
        let (x, rep) = ftgmres_solve_instrumented(&a, &b, None, &cfg, &inj);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        check_solution(&a, &b, &x, 1e-7);
    }
}
