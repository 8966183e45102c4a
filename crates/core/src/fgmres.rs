//! Flexible GMRES — Algorithm 2 of the paper, over the shared `Arnoldi`
//! core.
//!
//! FGMRES lets the preconditioner change every iteration, which is what
//! makes inner-outer iterations (and hence FT-GMRES) possible: a faulty
//! inner solve is just "a different preconditioner". The Arnoldi step
//! expands the preconditioned direction `z_j` instead of `q_j`, and the
//! update lives in the span of the `z`s. The implementation adds the two
//! reliability features §VI calls out:
//!
//! * **Rank monitoring / trichotomy** (§VI-C): when the subdiagonal
//!   `h_{j+1,j}` vanishes, FGMRES — unlike GMRES — cannot conclude
//!   convergence: `H(1:j,1:j)` may be singular even in exact arithmetic
//!   (Saad, Prop. 2.2). The solver checks the square projected matrix
//!   with the rank-revealing SVD and reports either
//!   [`SolveOutcome::InvariantSubspace`] (converged) or the loud
//!   [`SolveOutcome::RankDeficient`].
//! * **Reliable final verification**: the outer solver re-computes the
//!   true residual `b − A x` reliably before declaring convergence; if
//!   garbage inner results made the recurrence lie, the outer iteration
//!   restarts from the current (reliable) iterate instead of returning a
//!   wrong answer — "the outer solver will never compute the wrong
//!   answer, no matter what the inner solves do".

use crate::arnoldi::Arnoldi;
use crate::detector::Violation;
use crate::operator::{residual, LinearOperator};
use crate::ortho::OrthoSiteCtx;
use crate::telemetry::{SolveOutcome, SolveReport};
use sdc_dense::lstsq::LstsqPolicy;
use sdc_dense::matrix::DenseMatrix;
use sdc_dense::svd::jacobi_svd;
use sdc_dense::vector;
use sdc_faults::{InjectionRecord, NoFaults};

/// One reliable outer (flexible) iteration, after the unreliable inner
/// phase reported back. Deterministic channel.
static EV_OUTER: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "fgmres.outer", channel: sdc_obs::Channel::Det };
/// End of an FGMRES solve, with the reliably verified residual.
static EV_DONE: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "fgmres.done", channel: sdc_obs::Channel::Det };

/// Relative singular-value tolerance declaring `H(1:j,1:j)` rank
/// deficient.
const RANK_TOL: f64 = 1e-12;
/// Outer restarts allowed when the reliable check rejects a "converged"
/// iterate.
const MAX_OUTER_RESTARTS: usize = 3;

/// What one application of a flexible preconditioner reports back.
#[derive(Clone, Debug, Default)]
pub struct PrecondReport {
    /// Iterations the inner solve spent (0 for non-iterative
    /// preconditioners).
    pub inner_iterations: usize,
    /// Detector events raised inside the inner solve.
    pub detector_events: Vec<Violation>,
    /// Detector-forced inner restarts.
    pub detector_restarts: usize,
    /// Faults committed inside the inner solve.
    pub injections: Vec<InjectionRecord>,
    /// True if the unreliable result was rejected by reliable validation
    /// and replaced by a fallback.
    pub rejected: bool,
    /// True if the inner solve was halted loudly by its detector — the
    /// outer solver must propagate the loud failure.
    pub halted: Option<Violation>,
}

/// A preconditioner that may differ on every application — the `M_j` of
/// Algorithm 2. Implementations may be full iterative solvers.
pub trait FlexiblePreconditioner {
    /// Computes `z = M_j⁻¹ q` for outer iteration `j` (1-based).
    fn apply_flexible(&mut self, outer_iteration: usize, q: &[f64], z: &mut [f64])
        -> PrecondReport;

    /// Display name for reports.
    fn name(&self) -> &'static str {
        "flexible preconditioner"
    }
}

/// FGMRES configuration. The outer iteration always orthogonalizes
/// reliably with MGS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FgmresConfig {
    /// Relative residual target.
    pub tol: f64,
    /// Outer iteration budget (across outer restarts).
    pub max_outer: usize,
    /// Projected least-squares policy for the outer update coefficients.
    pub lsq_policy: LstsqPolicy,
    /// Safety factor on the reliable final residual check: accept if
    /// `‖b−Ax‖ ≤ final_check_slack · tol · ‖b‖`.
    pub final_check_slack: f64,
}

impl Default for FgmresConfig {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_outer: 60,
            lsq_policy: LstsqPolicy::Standard,
            final_check_slack: 10.0,
        }
    }
}

/// The clean head of a finished FGMRES run, from which solves of the
/// same system resume at an outer boundary instead of from `x₀`.
///
/// It keeps the inner results `z₁ … z_c` (and their inner iteration
/// counts) of the run's first `c` *crossed* outer iterations: those that
/// needed no outer restart, no inner rejection, had no detector event,
/// restart or committed fault in their inner solve, and did not end the
/// cycle (breakdown or convergence test). A resumed solve replays the
/// reliable outer steps of iterations `1 … o−1` from them — one `A·z`,
/// one short MGS and one Givens rotation each, so `V`, `H`, its QR and
/// the residual history come out with the recorded run's bits — and
/// solves from outer iteration `o` on.
#[derive(Clone, Debug, Default)]
pub struct FgmresPrefix {
    /// The initial guess the run started from (`None`: zeros).
    x0: Option<Vec<f64>>,
    /// `z₁ … z_c`.
    z: Vec<Vec<f64>>,
    /// Inner iterations behind each of them.
    inner_iterations: Vec<usize>,
}

impl FgmresPrefix {
    /// The largest outer boundary a solve may resume at: outer
    /// iteration `boundaries()` is the first one it solves itself.
    pub fn boundaries(&self) -> usize {
        self.z.len() + 1
    }

    /// Bytes held by the recorded vectors.
    pub fn bytes(&self) -> usize {
        let floats =
            self.x0.as_ref().map_or(0, Vec::len) + self.z.iter().map(Vec::len).sum::<usize>();
        8 * floats + std::mem::size_of::<usize>() * self.inner_iterations.len()
    }
}

/// Hands back the recorded `z_j` for outer iterations before `outer`
/// and asks `precond` from `outer` on.
struct Replay<'p, M: ?Sized> {
    prefix: &'p FgmresPrefix,
    outer: usize,
    precond: &'p mut M,
}

impl<M: FlexiblePreconditioner + ?Sized> FlexiblePreconditioner for Replay<'_, M> {
    fn apply_flexible(&mut self, j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
        if j >= self.outer {
            return self.precond.apply_flexible(j, q, z);
        }
        z.copy_from_slice(&self.prefix.z[j - 1]);
        PrecondReport {
            inner_iterations: self.prefix.inner_iterations[j - 1],
            ..Default::default()
        }
    }

    fn name(&self) -> &'static str {
        self.precond.name()
    }
}

/// Solves `A x = b` by FGMRES with the given flexible preconditioner.
pub fn fgmres_solve<A, M>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FgmresConfig,
    precond: &mut M,
) -> (Vec<f64>, SolveReport)
where
    A: LinearOperator + ?Sized,
    M: FlexiblePreconditioner + ?Sized,
{
    let (x, report, _) = fgmres_run(a, b, x0, cfg, precond, false);
    (x, report)
}

/// [`fgmres_solve`], also returning the run's [`FgmresPrefix`].
pub fn fgmres_solve_capture<A, M>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FgmresConfig,
    precond: &mut M,
) -> (Vec<f64>, SolveReport, FgmresPrefix)
where
    A: LinearOperator + ?Sized,
    M: FlexiblePreconditioner + ?Sized,
{
    let (x, report, prefix) = fgmres_run(a, b, x0, cfg, precond, true);
    (x, report, prefix.expect("capture requested"))
}

/// Solves the system `prefix` was recorded on (same operator, rhs and
/// configuration), applying `precond` only from outer iteration `outer`
/// on (1-based; boundary 1 is a fresh start from the recorded `x₀`). The
/// result — `x` and every [`SolveReport`] field — is bitwise the one
/// [`fgmres_solve`] returns when `precond` behaves like the recorded
/// run's preconditioner in outer iterations `1 … outer−1`.
///
/// Panics unless `1 ≤ outer ≤ prefix.boundaries()`.
pub fn fgmres_resume<A, M>(
    a: &A,
    b: &[f64],
    cfg: &FgmresConfig,
    precond: &mut M,
    prefix: &FgmresPrefix,
    outer: usize,
) -> (Vec<f64>, SolveReport)
where
    A: LinearOperator + ?Sized,
    M: FlexiblePreconditioner + ?Sized,
{
    assert!(
        (1..=prefix.boundaries()).contains(&outer),
        "fgmres: resume at outer {outer} outside the recorded prefix"
    );
    let mut replay = Replay { prefix, outer, precond };
    let (x, report, _) = fgmres_run(a, b, prefix.x0.as_deref(), cfg, &mut replay, false);
    (x, report)
}

/// The one FGMRES outer loop, optionally recording its clean prefix.
fn fgmres_run<A, M>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &FgmresConfig,
    precond: &mut M,
    capture: bool,
) -> (Vec<f64>, SolveReport, Option<FgmresPrefix>)
where
    A: LinearOperator + ?Sized,
    M: FlexiblePreconditioner + ?Sized,
{
    let n = a.nrows();
    assert!(a.is_square(), "fgmres: operator must be square");
    assert_eq!(b.len(), n, "fgmres: rhs length");
    // Timing span over the outer flexible iteration; inner `gmres.solve`
    // spans (FT-GMRES inner phases) nest beneath it in span logs.
    static EV_SOLVE: sdc_obs::Callsite =
        sdc_obs::Callsite { name: "fgmres.solve", channel: sdc_obs::Channel::Timing };
    let mut solve_span = sdc_obs::span(&EV_SOLVE);
    if let Some(s) = &mut solve_span {
        s.u64("n", n as u64);
    }
    let mut report = SolveReport::new();
    let mut x = match x0 {
        Some(x0) => x0.to_vec(),
        None => vec![0.0; n],
    };
    let bnorm = vector::nrm2(b);
    if bnorm == 0.0 {
        x.fill(0.0);
        report.outcome = SolveOutcome::Converged;
        report.residual_norm = 0.0;
        report.true_residual_norm = Some(0.0);
        return (x, report, capture.then(FgmresPrefix::default));
    }
    let target = cfg.tol * bnorm;

    let mut outer_done = 0usize;
    let mut outer_restarts = 0usize;
    let mut r = vec![0.0; n];
    let mut finished: Option<SolveOutcome> = None;
    let mut arnoldi = Arnoldi::new(n);
    let mut z_basis: Vec<Vec<f64>> = Vec::new();
    let mut prefix =
        capture.then(|| FgmresPrefix { x0: x0.map(<[f64]>::to_vec), ..Default::default() });

    'cycles: while finished.is_none() {
        residual(a, b, &x, &mut r);
        let beta = vector::nrm2(&r);
        if report.residual_history.is_empty() {
            report.residual_history.push(beta);
        }
        report.residual_norm = beta;
        if !beta.is_finite() {
            finished = Some(SolveOutcome::NumericalBreakdown("non-finite outer residual".into()));
            break;
        }
        if beta <= target {
            finished = Some(SolveOutcome::Converged);
            report.true_residual_norm = Some(beta);
            break;
        }
        arnoldi.start(&r, beta);
        z_basis.clear();

        while outer_done < cfg.max_outer {
            let j = arnoldi.steps() + 1;
            outer_done += 1;
            report.iterations = outer_done;

            // ---- Unreliable phase: apply the flexible preconditioner.
            z_basis.push(vec![0.0; n]);
            let z = z_basis.last_mut().expect("just pushed");
            let preport = precond.apply_flexible(outer_done, arnoldi.last(), z);
            report.total_inner_iterations += preport.inner_iterations;
            report.detector_events.extend(preport.detector_events.iter().copied());
            report.detector_restarts += preport.detector_restarts;
            report.injections.extend(preport.injections.iter().copied());
            if preport.rejected {
                report.inner_rejections += 1;
            }
            if let Some(v) = preport.halted {
                finished = Some(SolveOutcome::Halted(v));
                break 'cycles;
            }

            // ---- Reliable phase.
            let site = OrthoSiteCtx { outer_iteration: outer_done, inner_solve: 0, column: j };
            let mut ores = arnoldi.expand(a, Some(z.as_slice()), site, &NoFaults, None);
            if arnoldi.is_breakdown(ores.vnorm) {
                // The new direction vanished. If the projected matrix
                // including this column is rank deficient, the inner
                // result was useless (e.g. a near-zero vector from a
                // regularized solve of a corrupted system): retry the
                // column once with the unpreconditioned direction z = q
                // before concluding anything — the sandbox model promises
                // nothing about inner results, and the identity
                // preconditioner is always a sound substitute.
                let mut candidate = arnoldi.h_cols().to_vec();
                let mut hcol = ores.h.clone();
                hcol.push(ores.vnorm);
                candidate.push(hcol);
                if !square_hessenberg_is_full_rank(&candidate) && z.as_slice() != arnoldi.last() {
                    report.inner_rejections += 1;
                    z.copy_from_slice(arnoldi.last());
                    ores = arnoldi.expand(a, Some(z.as_slice()), site, &NoFaults, None);
                }
            }

            let res_est = arnoldi.push_column(ores.h, ores.vnorm);
            report.residual_history.push(res_est);
            report.residual_norm = res_est;
            if sdc_obs::enabled() {
                sdc_obs::Event::new(&EV_OUTER)
                    .u64("outer", outer_done as u64)
                    .f64("res_est", res_est)
                    .f64("h_next", ores.vnorm)
                    .u64("inner_iterations", preport.inner_iterations as u64)
                    .u64("inner_detector_events", preport.detector_events.len() as u64)
                    .u64("inner_detector_restarts", preport.detector_restarts as u64)
                    .u64("inner_injections", preport.injections.len() as u64)
                    .bool("rejected", preport.rejected)
                    .emit();
            }

            if arnoldi.is_breakdown(ores.vnorm) {
                // Breakdown: FGMRES' trichotomy (§VI-C). Decide with the
                // rank-revealing factorization of the square projected
                // matrix H(1:j,1:j).
                if square_hessenberg_is_full_rank(arnoldi.h_cols()) {
                    if let Err(e) = arnoldi.update(&mut x, &z_basis, cfg.lsq_policy) {
                        report.outcome = SolveOutcome::NumericalBreakdown(e.to_string());
                    }
                    residual(a, b, &x, &mut r);
                    report.true_residual_norm = Some(vector::nrm2(&r));
                    finished = Some(SolveOutcome::InvariantSubspace);
                } else {
                    finished = Some(SolveOutcome::RankDeficient);
                }
                break 'cycles;
            }
            arnoldi.normalize(ores.vnorm);

            if res_est <= target {
                // Candidate convergence — verify reliably before claiming.
                if let Err(e) = arnoldi.update(&mut x, &z_basis, cfg.lsq_policy) {
                    report.outcome = SolveOutcome::NumericalBreakdown(e.to_string());
                    break 'cycles;
                }
                residual(a, b, &x, &mut r);
                let true_res = vector::nrm2(&r);
                report.true_residual_norm = Some(true_res);
                if true_res <= cfg.final_check_slack * target {
                    finished = Some(SolveOutcome::Converged);
                    break 'cycles;
                }
                // The recurrence lied (tainted inner data). Restart the
                // outer iteration from the current reliable iterate.
                if outer_restarts < MAX_OUTER_RESTARTS {
                    outer_restarts += 1;
                    continue 'cycles;
                }
                finished = Some(SolveOutcome::MaxIterations);
                break 'cycles;
            }

            // Crossed: the prefix grows while every outer iteration so
            // far ran clean in the first cycle (the counts are
            // cumulative, so the first unclean one ends it for good).
            if let Some(p) = prefix.as_mut().filter(|_| outer_restarts == 0 && ran_clean(&report)) {
                p.z.push(z_basis[outer_done - 1].clone());
                p.inner_iterations.push(preport.inner_iterations);
            }
        }

        if outer_done >= cfg.max_outer && finished.is_none() {
            if let Err(e) = arnoldi.update(&mut x, &z_basis, cfg.lsq_policy) {
                report.outcome = SolveOutcome::NumericalBreakdown(e.to_string());
            }
            residual(a, b, &x, &mut r);
            report.true_residual_norm = Some(vector::nrm2(&r));
            finished = Some(SolveOutcome::MaxIterations);
        }
    }

    if !matches!(report.outcome, SolveOutcome::NumericalBreakdown(_)) {
        report.outcome = finished.unwrap_or(SolveOutcome::MaxIterations);
    }
    report.iterations = outer_done;
    if report.true_residual_norm.is_none() {
        residual(a, b, &x, &mut r);
        report.true_residual_norm = Some(vector::nrm2(&r));
    }
    if sdc_obs::enabled() {
        sdc_obs::Event::new(&EV_DONE)
            .str("outcome", report.outcome.label().to_string())
            .u64("iterations", report.iterations as u64)
            .u64("total_inner_iterations", report.total_inner_iterations as u64)
            .u64("inner_rejections", report.inner_rejections as u64)
            .u64("detector_restarts", report.detector_restarts as u64)
            .u64("injections", report.injections.len() as u64)
            .f64("true_residual", report.true_residual_norm.unwrap_or(f64::NAN))
            .emit();
    }
    (x, report, prefix)
}

/// True while no inner solve was rejected, detected anything or
/// committed a fault: all a replayed outer iteration reports is its
/// inner iteration count.
fn ran_clean(report: &SolveReport) -> bool {
    report.inner_rejections == 0
        && report.detector_events.is_empty()
        && report.detector_restarts == 0
        && report.injections.is_empty()
}

/// Checks whether the square projected matrix `H(1:j,1:j)` has full
/// numerical rank at relative tolerance [`RANK_TOL`] (the trichotomy
/// test).
fn square_hessenberg_is_full_rank(h_cols: &[Vec<f64>]) -> bool {
    let j = h_cols.len();
    if j == 0 {
        return true;
    }
    let mut hsq = DenseMatrix::zeros(j, j);
    for (c, col) in h_cols.iter().enumerate() {
        for (rix, &v) in col.iter().enumerate().take(j) {
            hsq[(rix, c)] = v;
        }
    }
    match jacobi_svd(&hsq) {
        Ok(svd) => svd.rank(RANK_TOL) == j,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BuiltPrecond, PrecondKind};
    use sdc_sparse::gallery;

    fn b_for(a: &sdc_sparse::CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    #[test]
    fn identity_precond_matches_gmres_trajectory() {
        // FGMRES with M = I spans the same Krylov space as GMRES.
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-9, max_outer: 200, ..Default::default() };
        let mut p = &BuiltPrecond::None;
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "{err}");
        // Reliable verification recorded.
        assert!(rep.true_residual_norm.unwrap() <= 1e-8 * vector::nrm2(&b) * 10.0);
    }

    #[test]
    fn jacobi_precond_converges() {
        let a = gallery::convection_diffusion_2d(9, 3.0, 1.0);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-9, max_outer: 300, ..Default::default() };
        let jacobi = PrecondKind::Jacobi.build(&a).unwrap();
        let mut p = &jacobi;
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut p);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-5);
    }

    #[test]
    fn varying_preconditioner_is_tolerated() {
        // A preconditioner that changes scale every iteration — legal for
        // FGMRES, fatal for plain GMRES theory.
        struct Wobbly;
        impl FlexiblePreconditioner for Wobbly {
            fn apply_flexible(&mut self, j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
                let s = if j % 2 == 0 { 3.0 } else { 0.25 };
                for i in 0..q.len() {
                    z[i] = s * q[i];
                }
                PrecondReport::default()
            }
        }
        let a = gallery::poisson2d(7);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-9, max_outer: 200, ..Default::default() };
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut Wobbly);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6);
    }

    #[test]
    fn garbage_preconditioner_never_yields_wrong_answer() {
        // The key FT-GMRES promise: an adversarial preconditioner may slow
        // convergence but must not produce a silently wrong solution.
        struct Adversarial {
            count: usize,
        }
        impl FlexiblePreconditioner for Adversarial {
            fn apply_flexible(&mut self, _j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
                self.count += 1;
                if self.count == 3 {
                    // Garbage direction of huge magnitude.
                    for (i, zi) in z.iter_mut().enumerate() {
                        *zi = ((i * 2654435761) % 1000) as f64 * 1e6 - 5e8;
                    }
                } else {
                    z.copy_from_slice(q);
                }
                PrecondReport::default()
            }
        }
        let a = gallery::poisson2d(7);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-9, max_outer: 300, ..Default::default() };
        let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut Adversarial { count: 0 });
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        // Verified true residual, not just the recurrence.
        let mut r = vec![0.0; b.len()];
        residual(&a, &b, &x, &mut r);
        assert!(vector::nrm2(&r) <= 1e-7 * vector::nrm2(&b));
    }

    #[test]
    fn prefix_stops_at_the_first_rejected_outer_iteration() {
        // Zero at outer iteration 3 forces the z = q retry (a
        // rejection): the prefix keeps boundaries 1..=3, and resuming at
        // each of them reproduces the solve from scratch bit for bit.
        struct ZeroAtThird;
        impl FlexiblePreconditioner for ZeroAtThird {
            fn apply_flexible(&mut self, j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
                for (zi, qi) in z.iter_mut().zip(q) {
                    *zi = if j == 3 { 0.0 } else { 0.5 * qi };
                }
                PrecondReport::default()
            }
        }
        let a = gallery::poisson2d(9);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-10, max_outer: 200, ..Default::default() };
        let (x, rep, prefix) = fgmres_solve_capture(&a, &b, None, &cfg, &mut ZeroAtThird);
        assert_eq!(rep.inner_rejections, 1);
        assert_eq!(prefix.boundaries(), 3);
        let bits = |(x, rep): (Vec<f64>, SolveReport)| {
            let x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            format!("{x:?} {rep:?}")
        };
        let scratch = bits((x, rep));
        for o in 1..=3 {
            let resumed = fgmres_resume(&a, &b, &cfg, &mut ZeroAtThird, &prefix, o);
            assert_eq!(bits(resumed), scratch, "outer {o}");
        }
    }

    #[test]
    fn square_rank_check_detects_singularity() {
        // h columns representing H(1:2,1:2) = [[1,1],[0,0]] (singular).
        let cols = vec![vec![1.0, 0.0], vec![1.0, 0.0, 0.0]];
        assert!(!square_hessenberg_is_full_rank(&cols));
        let cols = vec![vec![1.0, 0.5], vec![1.0, 2.0, 0.0]];
        assert!(square_hessenberg_is_full_rank(&cols));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = gallery::poisson2d(4);
        let b = vec![0.0; a.nrows()];
        let mut p = &BuiltPrecond::None;
        let (x, rep) = fgmres_solve(&a, &b, None, &FgmresConfig::default(), &mut p);
        assert!(x.iter().all(|&v| v == 0.0));
        assert!(rep.outcome.is_converged());
    }

    #[test]
    fn outer_budget_respected() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = FgmresConfig { tol: 1e-14, max_outer: 3, ..Default::default() };
        let mut p = &BuiltPrecond::None;
        let (_, rep) = fgmres_solve(&a, &b, None, &cfg, &mut p);
        assert_eq!(rep.iterations, 3);
        assert_eq!(rep.outcome, SolveOutcome::MaxIterations);
        assert!(rep.true_residual_norm.is_some());
    }
}
