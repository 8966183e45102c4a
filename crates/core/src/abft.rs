//! An Online-ABFT-style baseline: periodic orthogonality checking with
//! rollback (after Chen, PPoPP 2013 — reference 18 of the paper).
//!
//! The paper contrasts its approach with Chen's: *"Chen performs
//! additional computation and parallel communication in order to check
//! invariants of the iterative linear solvers… If those invariants are
//! violated, the solver can roll back one or more iterations and resume
//! from the last known correct point."* This module implements that
//! strategy for GMRES so the trade-off can be measured head-to-head:
//!
//! * **Check**: every `d` iterations, verify that the newest Arnoldi
//!   basis vector is orthogonal to *all* previous ones (`j` extra dot
//!   products — in a distributed setting, a global reduction) and has
//!   unit norm. Under MGS, a corrupted projection coefficient leaves a
//!   residual component along the corresponding basis vector, so this
//!   check catches even faults *inside* the Eq.-3 bound (the paper's
//!   undetectable classes 2 and 3) whenever the corrupted coefficient was
//!   numerically significant.
//! * **Respond**: roll back — discard the Krylov space and restart from
//!   the last checkpoint (the solution iterate at cycle start).
//!
//! The price, relative to the paper's detector: `O(j)` extra dots per
//! check instead of one comparison, plus checkpoint/rollback machinery —
//! exactly the cost the paper's communication-free bound avoids.
//!
//! The Arnoldi steps and the least-squares update are the shared
//! `Arnoldi` core's; the audit and the rollback are this module's.

use crate::arnoldi::Arnoldi;
use crate::gmres::SiteContext;
use crate::operator::{residual, LinearOperator};
use crate::ortho::OrthoSiteCtx;
use crate::telemetry::{SolveOutcome, SolveReport};
use sdc_dense::lstsq::LstsqPolicy;
use sdc_dense::vector;
use sdc_faults::FaultInjector;

/// Orthogonality violation threshold for `|q_new · q_i|`.
const ORTHO_TOL: f64 = 1e-4;
/// Unit-norm violation threshold for `|‖q_new‖ − 1|`.
const NORM_TOL: f64 = 1e-8;
/// Noise floor: skip checks once `h_{j+1,j} < CHECK_FLOOR_REL · β`.
/// Near an invariant subspace the normalized basis vector is rounding
/// noise and *legitimately* non-orthogonal; checking there would produce
/// false positives (a practical caveat of orthogonality-based ABFT the
/// bound-based detector does not have).
const CHECK_FLOOR_REL: f64 = 1e-8;

/// Configuration for the ABFT-checked GMRES (unrestarted, MGS).
#[derive(Clone, Copy, Debug)]
pub struct AbftGmresConfig {
    /// Relative residual target (`0.0` = fixed-iteration mode).
    pub tol: f64,
    /// Total iteration budget.
    pub max_iters: usize,
    /// Check period `d`: verify invariants every `d` iterations.
    pub check_every: usize,
    /// Rollbacks allowed before giving up loudly.
    pub max_rollbacks: usize,
}

impl Default for AbftGmresConfig {
    fn default() -> Self {
        Self { tol: 1e-8, max_iters: 200, check_every: 5, max_rollbacks: 4 }
    }
}

/// Cost and event counters for the ABFT run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbftStats {
    /// Invariant checks performed.
    pub checks: usize,
    /// Extra dot products spent on checks.
    pub extra_dots: usize,
    /// Violations observed.
    pub violations: usize,
    /// Rollbacks taken.
    pub rollbacks: usize,
}

/// GMRES with periodic orthogonality checks and checkpoint/rollback.
pub fn abft_gmres_solve<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    cfg: &AbftGmresConfig,
    injector: &dyn FaultInjector,
    ctx: SiteContext,
) -> (Vec<f64>, SolveReport, AbftStats) {
    let n = a.nrows();
    assert!(a.is_square(), "abft_gmres: operator must be square");
    assert_eq!(b.len(), n, "abft_gmres: rhs length");
    let mut report = SolveReport::new();
    let mut stats = AbftStats::default();
    let mut x = match x0 {
        Some(x0) => x0.to_vec(),
        None => vec![0.0; n],
    };
    let bnorm = vector::nrm2(b);
    if bnorm == 0.0 {
        x.fill(0.0);
        report.outcome = SolveOutcome::Converged;
        report.true_residual_norm = Some(0.0);
        return (x, report, stats);
    }
    let target = cfg.tol * bnorm;
    let mut iterations_done = 0usize;
    let mut r = vec![0.0; n];
    let mut finished: Option<SolveOutcome> = None;
    let mut arnoldi = Arnoldi::new(n);

    'cycles: while finished.is_none() {
        // The checkpoint is the iterate at cycle start: "the last known
        // correct point".
        residual(a, b, &x, &mut r);
        let beta = vector::nrm2(&r);
        if report.residual_history.is_empty() {
            report.residual_history.push(beta);
        }
        if !beta.is_finite() {
            finished = Some(SolveOutcome::NumericalBreakdown("non-finite residual".into()));
            break;
        }
        if (cfg.tol > 0.0 && beta <= target) || beta == 0.0 {
            finished = Some(SolveOutcome::Converged);
            break;
        }
        arnoldi.start(&r, beta);

        // Audit state per basis vector: q₁ is exact by construction;
        // vectors normalized in the noise regime are exempt (their
        // non-orthogonality is legitimate).
        let mut audited: Vec<bool> = vec![true];
        while arnoldi.steps() < cfg.max_iters && iterations_done < cfg.max_iters {
            let j = arnoldi.steps() + 1;
            iterations_done += 1;
            let site = OrthoSiteCtx {
                outer_iteration: ctx.outer_iteration,
                inner_solve: ctx.inner_solve,
                column: j,
            };
            let ores = arnoldi.expand(a, None, site, injector, None);
            let res_est = arnoldi.push_column(ores.h, ores.vnorm);
            let hnorm = vector::nrm2(&arnoldi.h_cols()[j - 1]);
            report.residual_history.push(res_est);
            report.residual_norm = res_est;

            // The candidate q_{j+1} joins the basis now (at index
            // `cand`); a rollback discards it with the rest.
            let breakdown = arnoldi.is_breakdown(ores.vnorm);
            if !breakdown {
                arnoldi.normalize(ores.vnorm);
            }
            let cand = audited.len();

            // ---- Online-ABFT check.
            //
            // Runs on schedule (every `check_every` iterations) and,
            // additionally, before trusting any breakdown: an invariant
            // subspace declared over an unverified basis could be a
            // corruption artifact. The candidate joins the audit only
            // while its normalization is healthy (in the noise regime
            // near a true invariant subspace, orthogonality loss is
            // legitimate — a practical caveat of orthogonality-based
            // ABFT that the bound-based detector does not share).
            //
            // The orthogonality tolerance is scaled by ‖h‖/h_{j+1,j}: the
            // loss MGS legitimately commits when normalizing a nearly
            // invariant direction is O(ε·‖A q_j‖ / h_{j+1,j}).
            let candidate_healthy = !breakdown && ores.vnorm > CHECK_FLOOR_REL * beta;
            let scheduled = j % cfg.check_every == 0;
            let unaudited_pending = audited.iter().any(|&a| !a);
            if (scheduled && candidate_healthy) || ((breakdown || scheduled) && unaudited_pending) {
                stats.checks += 1;
                let eff_ortho_tol = ORTHO_TOL
                    .max(1e4 * f64::EPSILON * hnorm / ores.vnorm.abs().max(f64::MIN_POSITIVE));
                let basis = arnoldi.basis();
                let mut violated = false;
                if candidate_healthy {
                    stats.extra_dots += 1;
                    violated = (vector::nrm2(&basis[cand]) - 1.0).abs() > NORM_TOL;
                }
                if !violated {
                    // Verify every not-yet-audited basis vector (plus the
                    // healthy candidate) against all its predecessors —
                    // corruption committed anywhere since the last check
                    // is caught here.
                    let upper = if candidate_healthy { cand } else { cand - 1 };
                    'check: for k in 1..=upper {
                        if k < cand && audited[k] {
                            continue;
                        }
                        let tol_k = if k == cand { eff_ortho_tol } else { ORTHO_TOL };
                        for qi in basis.iter().take(k) {
                            stats.extra_dots += 1;
                            if vector::dot(qi, &basis[k]).abs() > tol_k {
                                violated = true;
                                break 'check;
                            }
                        }
                        if k < cand {
                            audited[k] = true;
                        }
                    }
                }
                if violated {
                    stats.violations += 1;
                    if stats.rollbacks >= cfg.max_rollbacks {
                        finished = Some(SolveOutcome::NumericalBreakdown(
                            "ABFT rollback limit exceeded".into(),
                        ));
                        break 'cycles;
                    }
                    stats.rollbacks += 1;
                    // Roll back: discard the Krylov space, resume from
                    // the checkpoint (x unchanged since cycle start).
                    iterations_done = iterations_done.saturating_sub(j);
                    continue 'cycles;
                }
                if candidate_healthy {
                    // The candidate passed its audit.
                    audited.push(true);
                    if cfg.tol > 0.0 && res_est <= target {
                        finished = Some(SolveOutcome::Converged);
                        break;
                    }
                    continue;
                }
            }

            if breakdown {
                finished = Some(SolveOutcome::InvariantSubspace);
                break;
            }
            // Unaudited (scheduled checks will audit healthy ones;
            // noise-regime vectors stay exempt).
            audited.push(!candidate_healthy);
            if cfg.tol > 0.0 && res_est <= target {
                finished = Some(SolveOutcome::Converged);
                break;
            }
        }
        if let Err(e) = arnoldi.update(&mut x, arnoldi.basis(), LstsqPolicy::Standard) {
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
    report.iterations = iterations_done;
    residual(a, b, &x, &mut r);
    report.true_residual_norm = Some(vector::nrm2(&r));
    report.injections = injector.records();
    (x, report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_faults::trigger::LoopPosition;
    use sdc_faults::{FaultModel, NoFaults, SingleFaultInjector, SitePredicate, Trigger};
    use sdc_sparse::gallery;

    fn b_for(a: &sdc_sparse::CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    #[test]
    fn fault_free_run_has_no_violations() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = AbftGmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (x, rep, stats) =
            abft_gmres_solve(&a, &b, None, &cfg, &NoFaults, SiteContext::default());
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        assert_eq!(stats.violations, 0, "false positive");
        assert_eq!(stats.rollbacks, 0);
        assert!(stats.checks > 0);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6);
    }

    #[test]
    fn class1_fault_detected_and_rolled_back() {
        let a = gallery::poisson2d(10);
        let b = b_for(&a);
        let cfg = AbftGmresConfig { tol: 1e-9, max_iters: 400, ..Default::default() };
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 4, LoopPosition::First)),
        );
        let (x, rep, stats) = abft_gmres_solve(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert_eq!(rep.injections.len(), 1);
        assert!(stats.violations >= 1, "huge fault must break orthogonality");
        assert_eq!(stats.rollbacks, 1);
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "post-rollback solution wrong: {err}");
    }

    #[test]
    fn class2_fault_detected_where_eq3_bound_cannot() {
        // A ×10^-0.5 fault keeps |h| within ‖A‖_F — invisible to the
        // paper's detector — but the orthogonality check sees the
        // leftover basis component, provided the coefficient mattered.
        // Use a nonsymmetric operator so h_{1,j} is significant.
        let a = gallery::convection_diffusion_2d(12, 3.0, 1.0);
        let b = b_for(&a);
        let cfg = AbftGmresConfig {
            tol: 1e-9,
            max_iters: 200,
            check_every: 1, // check every iteration for the tightest net
            ..Default::default()
        };
        let inj = SingleFaultInjector::new(
            FaultModel::class2_slight(),
            Trigger::once(SitePredicate::mgs_site(1, 5, LoopPosition::First)),
        );
        let (_, rep, stats) = abft_gmres_solve(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert_eq!(rep.injections.len(), 1);
        assert!(
            stats.violations >= 1,
            "orthogonality check should catch a significant class-2 fault"
        );
        assert!(rep.outcome.is_converged(), "{:?}", rep.outcome);
    }

    #[test]
    fn persistent_fault_exhausts_rollbacks_loudly() {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg =
            AbftGmresConfig { tol: 1e-9, max_iters: 200, max_rollbacks: 2, ..Default::default() };
        // Persistent corruption: fires on every matching site.
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::always(SitePredicate::mgs_site(1, 2, LoopPosition::First)),
        );
        let (_, rep, stats) = abft_gmres_solve(
            &a,
            &b,
            None,
            &cfg,
            &inj,
            SiteContext { outer_iteration: 1, inner_solve: 1 },
        );
        assert_eq!(stats.rollbacks, 2);
        assert!(
            matches!(rep.outcome, SolveOutcome::NumericalBreakdown(_)),
            "persistent fault must end loudly: {:?}",
            rep.outcome
        );
    }

    #[test]
    fn check_costs_are_counted() {
        let a = gallery::poisson2d(8);
        let b = b_for(&a);
        let cfg = AbftGmresConfig { tol: 0.0, max_iters: 8, check_every: 4, ..Default::default() };
        let (_, _, stats) = abft_gmres_solve(&a, &b, None, &cfg, &NoFaults, SiteContext::default());
        assert_eq!(stats.checks, 2);
        // Each check costs 1 norm + pairwise dots over the unchecked
        // window: j=4 verifies q₂..q₅ (1+2+3+4 dots), j=8 verifies
        // q₆..q₉ (5+6+7+8 dots).
        assert_eq!(stats.extra_dots, 2 + (1 + 2 + 3 + 4) + (5 + 6 + 7 + 8));
        assert_eq!(stats.violations, 0);
    }
}
