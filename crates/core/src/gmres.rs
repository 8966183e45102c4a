//! GMRES — Algorithm 1 of the paper, instrumented for fault injection.
//!
//! Restarted GMRES over the shared `Arnoldi` core, with:
//!
//! * Modified Gram-Schmidt orthogonalization, each coefficient passing
//!   through the fault injector and the SDC detector;
//! * the incremental Givens-QR least-squares solve with its free residual
//!   recurrence;
//! * the three §VI-D projected least-squares policies;
//! * detector response handling: record, restart (the paper's cheap
//!   response — discard the tainted Krylov space and redo the solve),
//!   abort (return the current iterate to a reliable caller), halt.
//!
//! In FT-GMRES this solver runs as the *unreliable inner* phase with a
//! fixed iteration count (`tol = 0`); standalone it is a conventional
//! restarted GMRES.

use crate::arnoldi::Arnoldi;
use crate::detector::{DetectorResponse, SdcDetector};
use crate::operator::{residual, LinearOperator};
use crate::ortho::OrthoSiteCtx;
use crate::precond::right_preconditioned;
use crate::telemetry::{SolveOutcome, SolveReport};
use sdc_dense::lstsq::LstsqPolicy;
use sdc_dense::vector;
use sdc_faults::{FaultInjector, NoFaults};

/// One Arnoldi step. Deterministic channel: every field is a pure
/// function of the operator, rhs and fault spec. Emitted from the
/// orchestrating thread (never from pool workers), so a thread-local
/// trace sink sees the full iteration history in program order.
static EV_ITER: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "gmres.iter", channel: sdc_obs::Channel::Det };
/// A Hessenberg-bound violation flagged by the §V detector, plus the
/// response the solver took.
static EV_DETECT: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "gmres.detect", channel: sdc_obs::Channel::Det };
/// End of one (possibly restarted) GMRES solve.
static EV_DONE: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "gmres.done", channel: sdc_obs::Channel::Det };

/// Cap on detector-forced restarts (guards against non-transient
/// injectors).
const MAX_DETECTOR_RESTARTS: usize = 4;

/// Nesting coordinates stamped on injection sites (zeros when GMRES runs
/// standalone).
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteContext {
    /// Outer (flexible) iteration this solve serves, 1-based.
    pub outer_iteration: usize,
    /// Ordinal of this inner solve, 1-based.
    pub inner_solve: usize,
}

/// GMRES configuration.
#[derive(Clone, Copy, Debug)]
pub struct GmresConfig {
    /// Relative residual target `‖r‖ ≤ tol·‖b‖`. `0.0` disables the
    /// convergence test: the solver runs a fixed number of iterations —
    /// the paper's inner-solve mode.
    pub tol: f64,
    /// Total iteration budget (across restart cycles).
    pub max_iters: usize,
    /// Krylov dimension per cycle; `None` = no restarting (full GMRES up
    /// to `max_iters`).
    pub restart: Option<usize>,
    /// Projected least-squares policy (§VI-D).
    pub lsq_policy: LstsqPolicy,
    /// The SDC detector; `None` runs undetected (the paper's baseline).
    pub detector: Option<SdcDetector>,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_iters: 200,
            restart: None,
            lsq_policy: LstsqPolicy::Standard,
            detector: None,
        }
    }
}

/// Solves `A x = b` with fault-free kernels.
pub fn gmres_solve<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &GmresConfig,
) -> (Vec<f64>, SolveReport) {
    gmres_solve_instrumented(a, b, x0, cfg, &NoFaults, SiteContext::default())
}

/// Solves `A x = b` with *right preconditioning*: GMRES runs on
/// `B = A·M⁻¹`, solves `B u = r₀`, and recovers the update `M⁻¹u`. The
/// residual is invariant under the substitution (`b − A x = b − B u`),
/// so the convergence test, the reported residual history and the
/// Hessenberg-bound detector semantics all survive unchanged — see the
/// [`crate::precond`] module docs. With [`PrecondKind::None`] this *is*
/// [`gmres_solve`], bit for bit.
///
/// When `x0` is nonzero the solver iterates on the correction
/// (`B u = r₀ = b − A x₀`, `x = x₀ + M⁻¹u`) with the relative target
/// rescaled so convergence still means `‖b − A x‖ ≤ tol·‖b‖`.
///
/// [`PrecondKind::None`]: crate::precond::PrecondKind::None
pub fn gmres_solve_right_precond<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &GmresConfig,
    precond: &crate::precond::BuiltPrecond,
) -> (Vec<f64>, SolveReport) {
    if precond.is_none() {
        return gmres_solve(a, b, x0, cfg);
    }
    let n = a.nrows();
    assert!(a.is_square(), "gmres: operator must be square");
    assert_eq!(b.len(), n, "gmres: rhs length");

    let (r0, x_base) = match x0 {
        Some(x0) if x0.iter().any(|&v| v != 0.0) => {
            let mut r = vec![0.0; n];
            residual(a, b, x0, &mut r);
            (r, Some(x0.to_vec()))
        }
        _ => (b.to_vec(), None),
    };
    let bnorm = vector::nrm2(b);
    let r0norm = vector::nrm2(&r0);
    let mut cfg_u = *cfg;
    if cfg.tol > 0.0 && r0norm > 0.0 && bnorm > 0.0 {
        // Correction form: the inner target tol·‖b‖ expressed relative
        // to the actual rhs r0.
        cfg_u.tol = cfg.tol * bnorm / r0norm;
    }

    let op = right_preconditioned(a, |u, z, _| precond.solve(u, z));
    let (u, mut report) = gmres_solve(&op, &r0, None, &cfg_u);

    let mut x = vec![0.0; n];
    precond.solve(&u, &mut x);
    if let Some(base) = x_base {
        for i in 0..n {
            x[i] += base[i];
        }
    }
    let mut r = vec![0.0; n];
    residual(a, b, &x, &mut r);
    report.true_residual_norm = Some(vector::nrm2(&r));
    (x, report)
}

/// Solves `A x = b` with every orthogonalization coefficient passing
/// through `injector` — the unreliable ("sandboxed guest") mode.
pub fn gmres_solve_instrumented<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &GmresConfig,
    injector: &dyn FaultInjector,
    ctx: SiteContext,
) -> (Vec<f64>, SolveReport) {
    let n = a.nrows();
    assert!(a.is_square(), "gmres: operator must be square");
    assert_eq!(b.len(), n, "gmres: rhs length");
    // Timing span over the whole (possibly restarted) solve; nests
    // under the server's `solve.exec` root in span logs. Durations are
    // wall-clock, so this never touches the Det channel.
    static EV_SOLVE: sdc_obs::Callsite =
        sdc_obs::Callsite { name: "gmres.solve", channel: sdc_obs::Channel::Timing };
    let mut solve_span = sdc_obs::span(&EV_SOLVE);
    if let Some(s) = &mut solve_span {
        s.u64("n", n as u64).u64("inner_solve", ctx.inner_solve as u64);
    }
    let mut report = SolveReport::new();
    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "gmres: x0 length");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    let bnorm = vector::nrm2(b);
    if bnorm == 0.0 {
        // The exact solution of A x = 0 with a nonsingular A.
        x.fill(0.0);
        report.outcome = SolveOutcome::Converged;
        report.residual_norm = 0.0;
        report.true_residual_norm = Some(0.0);
        return (x, report);
    }
    let target = cfg.tol * bnorm;

    let mut iterations_done = 0usize;
    let mut restarts_left = MAX_DETECTOR_RESTARTS;
    let mut r = vec![0.0; n];
    let mut finished: Option<SolveOutcome> = None;
    let m = cfg.restart.unwrap_or(cfg.max_iters).max(1);
    let mut arnoldi = Arnoldi::new(n);

    'cycles: while finished.is_none() {
        residual(a, b, &x, &mut r);
        let beta = vector::nrm2(&r);
        if report.residual_history.is_empty() {
            report.residual_history.push(beta);
        }
        report.residual_norm = beta;
        if !beta.is_finite() {
            finished =
                Some(SolveOutcome::NumericalBreakdown("non-finite residual at cycle start".into()));
            break;
        }
        if cfg.tol > 0.0 && beta <= target {
            finished = Some(SolveOutcome::Converged);
            break;
        }
        if beta == 0.0 {
            finished = Some(SolveOutcome::Converged);
            break;
        }

        arnoldi.start(&r, beta);
        while arnoldi.steps() < m && iterations_done < cfg.max_iters {
            let j = arnoldi.steps() + 1;
            iterations_done += 1;
            let site = OrthoSiteCtx {
                outer_iteration: ctx.outer_iteration,
                inner_solve: ctx.inner_solve,
                column: j,
            };
            let ores = arnoldi.expand(a, None, site, injector, cfg.detector.as_ref());
            report.detector_events.extend(ores.violations.iter().copied());
            if !ores.violations.is_empty() {
                let response = cfg.detector.expect("violations imply a detector").response;
                if sdc_obs::enabled() {
                    for v in &ores.violations {
                        sdc_obs::Event::new(&EV_DETECT)
                            .u64("outer", ctx.outer_iteration as u64)
                            .u64("inner_solve", ctx.inner_solve as u64)
                            .u64("j", j as u64)
                            .u64("loop_index", v.site.loop_index as u64)
                            .f64("value", v.value)
                            .f64("bound", v.bound)
                            .str("response", format!("{response:?}"))
                            .emit();
                    }
                }
                match response {
                    DetectorResponse::Record => {}
                    DetectorResponse::RestartInner => {
                        if restarts_left == 0 {
                            finished = Some(SolveOutcome::Halted(ores.violations[0]));
                            break 'cycles;
                        }
                        restarts_left -= 1;
                        report.detector_restarts += 1;
                        // A transient fault leaves the hardware healthy:
                        // redo the solve from scratch with a full budget.
                        iterations_done = 0;
                        continue 'cycles;
                    }
                    DetectorResponse::AbortInner => {
                        // Use the columns accumulated before the tainted
                        // one, then stop.
                        finished = Some(SolveOutcome::MaxIterations);
                        break;
                    }
                    DetectorResponse::Halt => {
                        finished = Some(SolveOutcome::Halted(ores.violations[0]));
                        break 'cycles;
                    }
                }
            }

            let res_est = arnoldi.push_column(ores.h, ores.vnorm);
            report.residual_history.push(res_est);
            report.residual_norm = res_est;
            if sdc_obs::enabled() {
                sdc_obs::Event::new(&EV_ITER)
                    .u64("outer", ctx.outer_iteration as u64)
                    .u64("inner_solve", ctx.inner_solve as u64)
                    .u64("j", j as u64)
                    .f64("res_est", res_est)
                    .f64("h_next", ores.vnorm)
                    .u64("violations", ores.violations.len() as u64)
                    .emit();
            }

            if arnoldi.is_breakdown(ores.vnorm) {
                // Invariant subspace (or a faulted norm faking one — the
                // reliable outer layer is who verifies).
                finished = Some(SolveOutcome::InvariantSubspace);
                break;
            }
            if cfg.tol > 0.0 && res_est <= target {
                finished = Some(SolveOutcome::Converged);
                break;
            }
            arnoldi.normalize(ores.vnorm);
        }

        // The cycle ended (exhausted, or finished above): fold its
        // update into x. A failed projected solve is loud and takes
        // precedence over whatever the control flow concluded.
        if let Err(e) = arnoldi.update(&mut x, arnoldi.basis(), cfg.lsq_policy) {
            report.residual_history.push(f64::NAN);
            report.outcome = SolveOutcome::NumericalBreakdown(e.to_string());
            break;
        }
        if finished.is_none() && iterations_done >= cfg.max_iters {
            finished = Some(SolveOutcome::MaxIterations);
        }
    }

    if !matches!(report.outcome, SolveOutcome::NumericalBreakdown(_)) {
        report.outcome = finished.unwrap_or(SolveOutcome::MaxIterations);
    }
    report.iterations = report.residual_history.len().saturating_sub(1);
    // One reliable residual evaluation at exit (cheap: a single SpMV).
    residual(a, b, &x, &mut r);
    report.true_residual_norm = Some(vector::nrm2(&r));
    report.injections = injector.records();
    if sdc_obs::enabled() {
        sdc_obs::Event::new(&EV_DONE)
            .u64("outer", ctx.outer_iteration as u64)
            .u64("inner_solve", ctx.inner_solve as u64)
            .str("outcome", report.outcome.label().to_string())
            .u64("iterations", report.iterations as u64)
            .f64("res_est", report.residual_norm)
            .f64("true_residual", report.true_residual_norm.unwrap_or(f64::NAN))
            .u64("detector_restarts", report.detector_restarts as u64)
            .u64("injections", report.injections.len() as u64)
            .emit();
    }
    (x, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_faults::trigger::LoopPosition;
    use sdc_faults::{FaultModel, SingleFaultInjector, SitePredicate, Trigger};
    use sdc_sparse::gallery;

    fn b_for(a: &sdc_sparse::CsrMatrix) -> Vec<f64> {
        // b = A·1 so the exact solution is the ones vector.
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    fn err_vs_ones(x: &[f64]) -> f64 {
        x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solves_poisson_to_tolerance() {
        let a = gallery::poisson2d(12);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-10, max_iters: 500, ..Default::default() };
        let (x, rep) = gmres_solve(&a, &b, None, &cfg);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert!(err_vs_ones(&x) < 1e-7, "error {}", err_vs_ones(&x));
        assert!(rep.true_residual_norm.unwrap() <= 1e-10 * vector::nrm2(&b) * 10.0);
    }

    #[test]
    fn residual_history_is_monotone() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-10, max_iters: 300, ..Default::default() };
        let (_, rep) = gmres_solve(&a, &b, None, &cfg);
        for w in rep.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "residual increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn restarted_gmres_converges() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg =
            GmresConfig { tol: 1e-8, max_iters: 3000, restart: Some(20), ..Default::default() };
        let (x, rep) = gmres_solve(&a, &b, None, &cfg);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert!(err_vs_ones(&x) < 1e-5);
    }

    #[test]
    fn fixed_iteration_mode_runs_exactly_m() {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 0.0, max_iters: 25, ..Default::default() };
        let (_, rep) = gmres_solve(&a, &b, None, &cfg);
        assert_eq!(rep.iterations, 25);
        assert_eq!(rep.outcome, SolveOutcome::MaxIterations);
        // It still reduced the residual substantially.
        let last = *rep.residual_history.last().unwrap();
        assert!(last < rep.residual_history[0] * 0.5);
    }

    #[test]
    fn nonsymmetric_system_converges() {
        let a = gallery::convection_diffusion_2d(10, 2.0, 1.0);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-10, max_iters: 400, ..Default::default() };
        let (x, rep) = gmres_solve(&a, &b, None, &cfg);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert!(err_vs_ones(&x) < 1e-6);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-10, max_iters: 500, ..Default::default() };
        let (x1, rep_cold) = gmres_solve(&a, &b, None, &cfg);
        let (_, rep_warm) = gmres_solve(&a, &b, Some(&x1), &cfg);
        assert!(rep_warm.iterations <= 1, "warm start from the solution: {}", rep_warm.iterations);
        assert!(rep_cold.iterations > 5);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = gallery::poisson2d(5);
        let b = vec![0.0; a.nrows()];
        let (x, rep) = gmres_solve(&a, &b, None, &GmresConfig::default());
        assert!(x.iter().all(|&v| v == 0.0));
        assert!(rep.outcome.is_converged());
    }

    #[test]
    fn happy_breakdown_on_invariant_subspace() {
        // A = I: the first Krylov step is already invariant.
        let a = sdc_sparse::CsrMatrix::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64 + 1.0).collect();
        let cfg = GmresConfig { tol: 1e-12, max_iters: 10, ..Default::default() };
        let (x, rep) = gmres_solve(&a, &b, None, &cfg);
        for i in 0..10 {
            assert!((x[i] - b[i]).abs() < 1e-12);
        }
        assert!(rep.outcome.is_converged());
        assert!(rep.iterations <= 2);
    }

    #[test]
    fn fault_without_detector_degrades_solution() {
        // Class-1 fault, no detector: the solve keeps running on tainted
        // data (unreliable mode) — exactly the behaviour the outer solver
        // must cope with.
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 5, LoopPosition::First)),
        );
        let cfg = GmresConfig { tol: 0.0, max_iters: 25, ..Default::default() };
        let (x, rep) = gmres_solve_instrumented(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert_eq!(rep.injections.len(), 1, "exactly one SDC committed");
        assert_eq!(rep.detector_events.len(), 0, "no detector configured");
        // The returned iterate is finite (GMRES "runs through") but the
        // corrupted column costs at least one effective Krylov dimension:
        // the true residual is measurably worse than fault-free.
        assert!(x.iter().all(|v| v.is_finite()));
        let (xg, repg) = gmres_solve(&a, &b, None, &cfg);
        let res_f = rep.true_residual_norm.unwrap();
        let res_g = repg.true_residual_norm.unwrap();
        assert!(
            res_f > 1.2 * res_g,
            "faulted true residual {res_f} not measurably worse than fault-free {res_g}"
        );
        let diff: f64 = x.iter().zip(xg.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(diff > 1e-10 * err_vs_ones(&xg).max(1e-300), "solutions identical?");
    }

    #[test]
    fn detector_restart_recovers_fault_free_quality() {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let det = SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner);
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 3, LoopPosition::First)),
        );
        let cfg =
            GmresConfig { tol: 0.0, max_iters: 25, detector: Some(det), ..Default::default() };
        let (x, rep) = gmres_solve_instrumented(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert_eq!(rep.detector_restarts, 1);
        assert!(rep.detected_anything());
        // After the restart the transient fault is gone: solution quality
        // matches the fault-free run.
        let (xg, _) = gmres_solve(&a, &b, None, &cfg);
        let diff: f64 = x.iter().zip(xg.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(diff < 1e-12, "restarted solve must equal fault-free solve, diff={diff}");
    }

    #[test]
    fn detector_halt_is_loud() {
        let a = gallery::poisson2d(6);
        let b = b_for(&a);
        let det = SdcDetector::with_frobenius_bound(&a, DetectorResponse::Halt);
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 2, LoopPosition::First)),
        );
        let cfg =
            GmresConfig { tol: 0.0, max_iters: 25, detector: Some(det), ..Default::default() };
        let (_, rep) = gmres_solve_instrumented(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert!(matches!(rep.outcome, SolveOutcome::Halted(_)), "{:?}", rep.outcome);
        assert!(rep.outcome.is_loud_failure());
    }

    #[test]
    fn detector_never_false_positives_fault_free() {
        for m in [6, 9, 12] {
            let a = gallery::poisson2d(m);
            let b = b_for(&a);
            let det = SdcDetector::with_frobenius_bound(&a, DetectorResponse::Halt);
            let cfg = GmresConfig {
                tol: 1e-10,
                max_iters: 400,
                detector: Some(det),
                ..Default::default()
            };
            let (_, rep) = gmres_solve(&a, &b, None, &cfg);
            assert!(rep.outcome.is_converged(), "m={m}: {:?}", rep.outcome);
            assert!(rep.detector_events.is_empty(), "m={m}: false positive!");
        }
    }

    #[test]
    fn rank_revealing_policy_matches_standard_fault_free() {
        let a = gallery::poisson2d(9);
        let b = b_for(&a);
        let std_cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let rr_cfg =
            GmresConfig { lsq_policy: LstsqPolicy::RankRevealing { tol: 1e-12 }, ..std_cfg };
        let (x1, r1) = gmres_solve(&a, &b, None, &std_cfg);
        let (x2, r2) = gmres_solve(&a, &b, None, &rr_cfg);
        assert_eq!(r1.iterations, r2.iterations);
        let diff: f64 = x1.iter().zip(x2.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(diff < 1e-8, "policies diverged fault-free: {diff}");
    }

    #[test]
    fn right_precond_none_is_plain_gmres_bit_for_bit() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (x1, r1) = gmres_solve(&a, &b, None, &cfg);
        let none = crate::precond::BuiltPrecond::None;
        let (x2, r2) = gmres_solve_right_precond(&a, &b, None, &cfg, &none);
        assert_eq!(r1.iterations, r2.iterations);
        for i in 0..x1.len() {
            assert_eq!(x1[i].to_bits(), x2[i].to_bits(), "x[{i}]");
        }
    }

    #[test]
    fn right_precond_cuts_iterations_and_converges_truly() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(20);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-8, max_iters: 400, ..Default::default() };
        let (_, plain) = gmres_solve(&a, &b, None, &cfg);
        for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
            let p = kind.build(&a).unwrap();
            let (x, rep) = gmres_solve_right_precond(&a, &b, None, &cfg, &p);
            assert!(rep.outcome.is_converged(), "{kind}: {:?}", rep.outcome);
            let true_res = rep.true_residual_norm.unwrap();
            assert!(true_res <= 10.0 * 1e-8 * vector::nrm2(&b), "{kind}: true residual {true_res}");
            assert!(err_vs_ones(&x) < 1e-5, "{kind}");
            // Jacobi on constant-diagonal Poisson is a scalar scaling
            // (same Krylov space); the strong preconditioners must cut
            // iterations, Chebyshev by at least 2x even at this size.
            match kind {
                PrecondKind::Ilu0 => assert!(
                    rep.iterations < plain.iterations,
                    "{kind}: {} vs {}",
                    rep.iterations,
                    plain.iterations
                ),
                PrecondKind::Chebyshev => assert!(
                    rep.iterations * 2 <= plain.iterations,
                    "{kind} must at least halve iterations: {} vs {}",
                    rep.iterations,
                    plain.iterations
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn right_precond_honors_nonzero_initial_guess() {
        use crate::precond::PrecondKind;
        let a = gallery::poisson2d(12);
        let b = b_for(&a);
        let n = b.len();
        let x0: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.13).sin() * 0.1).collect();
        let p = PrecondKind::Ilu0.build(&a).unwrap();
        let cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (x, rep) = gmres_solve_right_precond(&a, &b, Some(&x0), &cfg, &p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert!(rep.true_residual_norm.unwrap() <= 1e-8 * vector::nrm2(&b));
        assert!(err_vs_ones(&x) < 1e-6);
    }
}
