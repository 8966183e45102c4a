//! Solve reports: what happened, loudly.
//!
//! A faulted solve either runs through to a correct answer, or its
//! report says the fault was detected or the solve failed — never a
//! silent wrong answer. The report
//! types here carry everything an experiment needs: the outcome, the
//! iteration counts the figures plot, residual histories, every detector
//! event and every committed injection.

use crate::detector::Violation;
use sdc_faults::InjectionRecord;

/// Terminal state of a solve.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveOutcome {
    /// Residual tolerance reached (for outer/reliable solvers this is
    /// verified with a reliably computed true residual).
    Converged,
    /// Iteration budget exhausted before reaching the tolerance.
    MaxIterations,
    /// Happy breakdown: the Krylov space became invariant and the
    /// projected solution is exact (`h_{j+1,j} ≈ 0` with nonsingular
    /// projected matrix).
    InvariantSubspace,
    /// FGMRES' additional failure mode (Saad Prop. 2.2): breakdown with a
    /// *singular* projected matrix — reported loudly, part of the
    /// trichotomy.
    RankDeficient,
    /// The detector fired with [`crate::detector::DetectorResponse::Halt`].
    Halted(Violation),
    /// The projected least-squares solve could not produce usable
    /// coefficients (non-finite factors under `LstsqPolicy::Standard`).
    NumericalBreakdown(String),
}

impl SolveOutcome {
    /// True for outcomes that delivered a solution at the requested
    /// tolerance.
    pub fn is_converged(&self) -> bool {
        matches!(self, SolveOutcome::Converged | SolveOutcome::InvariantSubspace)
    }

    /// Stable machine-readable label (wire protocol, CSV, summaries).
    pub fn label(&self) -> &'static str {
        match self {
            SolveOutcome::Converged => "converged",
            SolveOutcome::MaxIterations => "max_iterations",
            SolveOutcome::InvariantSubspace => "invariant_subspace",
            SolveOutcome::RankDeficient => "rank_deficient",
            SolveOutcome::Halted(_) => "halted",
            SolveOutcome::NumericalBreakdown(_) => "numerical_breakdown",
        }
    }

    /// Human detail beyond the label, when the outcome carries one.
    pub fn detail(&self) -> Option<String> {
        match self {
            SolveOutcome::Halted(v) => Some(format!(
                "detector violation at outer {} inner {}: |h| = {:.6e} > bound {:.6e}",
                v.site.outer_iteration,
                v.site.inner_iteration,
                v.value.abs(),
                v.bound
            )),
            SolveOutcome::NumericalBreakdown(msg) => Some(msg.clone()),
            _ => None,
        }
    }

    /// True for outcomes that are loud failures (never silent).
    pub fn is_loud_failure(&self) -> bool {
        matches!(
            self,
            SolveOutcome::RankDeficient
                | SolveOutcome::Halted(_)
                | SolveOutcome::NumericalBreakdown(_)
        )
    }
}

/// Full diagnostics of one solve.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Terminal state.
    pub outcome: SolveOutcome,
    /// Iterations performed (outer iterations for nested solvers).
    pub iterations: usize,
    /// Total inner iterations across all inner solves (nested solvers
    /// only; 0 otherwise).
    pub total_inner_iterations: usize,
    /// The solver's final residual-norm estimate.
    pub residual_norm: f64,
    /// True residual `‖b − A x‖₂` computed reliably at exit (present for
    /// solvers that can afford it; `None` for raw unreliable inner
    /// solves).
    pub true_residual_norm: Option<f64>,
    /// Residual-norm estimate per iteration.
    pub residual_history: Vec<f64>,
    /// Every detector violation observed.
    pub detector_events: Vec<Violation>,
    /// Every fault actually committed by the injector.
    pub injections: Vec<InjectionRecord>,
    /// Inner-solve restarts forced by the detector
    /// ([`crate::detector::DetectorResponse::RestartInner`]).
    pub detector_restarts: usize,
    /// Inner results replaced by the reliable outer validation (non-finite
    /// data or sandbox failure).
    pub inner_rejections: usize,
}

impl SolveReport {
    /// A fresh report in the not-yet-converged state.
    pub fn new() -> Self {
        Self {
            outcome: SolveOutcome::MaxIterations,
            iterations: 0,
            total_inner_iterations: 0,
            residual_norm: f64::NAN,
            true_residual_norm: None,
            residual_history: Vec::new(),
            detector_events: Vec::new(),
            injections: Vec::new(),
            detector_restarts: 0,
            inner_rejections: 0,
        }
    }

    /// Whether any detector event was recorded.
    pub fn detected_anything(&self) -> bool {
        !self.detector_events.is_empty()
    }
}

impl Default for SolveReport {
    fn default() -> Self {
        Self::new()
    }
}

/// The flat, serialization-ready digest of a [`SolveReport`].
///
/// Every consumer that turns a report into text or JSON — the
/// experiment binaries, the `sdc_server` wire protocol —
/// goes through this one type, so field names and outcome labels cannot
/// drift between surfaces; [`SolveSummary::to_json`] is its one JSON
/// rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSummary {
    /// Stable outcome label ([`SolveOutcome::label`]).
    pub outcome: &'static str,
    /// Extra outcome detail (halt violation, breakdown message).
    pub detail: Option<String>,
    /// [`SolveOutcome::is_converged`].
    pub converged: bool,
    /// Iterations performed (outer iterations for nested solvers).
    pub iterations: usize,
    /// Total inner iterations (nested solvers; 0 otherwise).
    pub total_inner_iterations: usize,
    /// The solver's final residual-norm estimate.
    pub residual_norm: f64,
    /// Reliable `‖b − A x‖₂` at exit, when the solver computed it.
    pub true_residual_norm: Option<f64>,
    /// Detector violations observed.
    pub detector_events: usize,
    /// Detector-forced inner restarts.
    pub detector_restarts: usize,
    /// Faults actually committed by the injector.
    pub injections: usize,
    /// Inner results replaced by the reliable outer validation.
    pub inner_rejections: usize,
}

impl SolveSummary {
    /// Digests a report.
    pub fn from_report(rep: &SolveReport) -> Self {
        Self {
            outcome: rep.outcome.label(),
            detail: rep.outcome.detail(),
            converged: rep.outcome.is_converged(),
            iterations: rep.iterations,
            total_inner_iterations: rep.total_inner_iterations,
            residual_norm: rep.residual_norm,
            true_residual_norm: rep.true_residual_norm,
            detector_events: rep.detector_events.len(),
            detector_restarts: rep.detector_restarts,
            injections: rep.injections.len(),
            inner_rejections: rep.inner_rejections,
        }
    }

    /// One-line human rendering (the experiment binaries' format).
    pub fn render(&self) -> String {
        let mut s = format!(
            "outer={} inner_total={} outcome={} true_res={:.2e}",
            self.iterations,
            self.total_inner_iterations,
            self.outcome,
            self.true_residual_norm.unwrap_or(f64::NAN),
        );
        if self.detector_events > 0 || self.detector_restarts > 0 {
            s.push_str(&format!(
                " detected={} restarts={}",
                self.detector_events, self.detector_restarts
            ));
        }
        if self.injections > 0 {
            s.push_str(&format!(" injections={}", self.injections));
        }
        if self.inner_rejections > 0 {
            s.push_str(&format!(" rejected={}", self.inner_rejections));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        assert!(SolveOutcome::Converged.is_converged());
        assert!(SolveOutcome::InvariantSubspace.is_converged());
        assert!(!SolveOutcome::MaxIterations.is_converged());
        assert!(!SolveOutcome::MaxIterations.is_loud_failure());
        assert!(SolveOutcome::RankDeficient.is_loud_failure());
        assert!(SolveOutcome::NumericalBreakdown("x".into()).is_loud_failure());
    }

    #[test]
    fn fresh_report_state() {
        let r = SolveReport::new();
        assert_eq!(r.iterations, 0);
        assert!(!r.detected_anything());
        assert!(r.residual_norm.is_nan());
    }

    #[test]
    fn outcome_labels_are_stable() {
        // These strings are wire-protocol constants; changing one is a
        // breaking protocol change.
        assert_eq!(SolveOutcome::Converged.label(), "converged");
        assert_eq!(SolveOutcome::MaxIterations.label(), "max_iterations");
        assert_eq!(SolveOutcome::InvariantSubspace.label(), "invariant_subspace");
        assert_eq!(SolveOutcome::RankDeficient.label(), "rank_deficient");
        assert_eq!(SolveOutcome::NumericalBreakdown("x".into()).label(), "numerical_breakdown");
        assert_eq!(SolveOutcome::NumericalBreakdown("x".into()).detail().as_deref(), Some("x"));
        assert_eq!(SolveOutcome::Converged.detail(), None);
    }

    #[test]
    fn summary_digests_report_and_omits_absent_fields() {
        let mut rep = SolveReport::new();
        rep.outcome = SolveOutcome::Converged;
        rep.iterations = 9;
        rep.total_inner_iterations = 225;
        rep.residual_norm = 1e-9;
        let s = SolveSummary::from_report(&rep);
        assert_eq!(s.outcome, "converged");
        assert!(s.converged);
        assert_eq!(s.iterations, 9);
        let j = s.to_json();
        assert!(j.get("true_residual_norm").is_none());
        assert!(j.get("detail").is_none());

        rep.true_residual_norm = Some(2e-9);
        rep.outcome = SolveOutcome::NumericalBreakdown("boom".into());
        let s = SolveSummary::from_report(&rep);
        let j = s.to_json();
        assert!(j.get("true_residual_norm").is_some());
        assert_eq!(j.field("detail").unwrap().as_str().unwrap(), "boom");
        assert!(!s.converged);
    }

    #[test]
    fn render_is_one_line_and_mentions_faults_only_when_present() {
        let mut rep = SolveReport::new();
        rep.outcome = SolveOutcome::Converged;
        rep.iterations = 4;
        let s = SolveSummary::from_report(&rep).render();
        assert!(!s.contains('\n'));
        assert!(s.contains("outcome=converged"), "{s}");
        assert!(!s.contains("injections"), "{s}");
        rep.injections.push(sdc_faults::InjectionRecord {
            site: sdc_faults::Site {
                kernel: sdc_faults::Kernel::OrthoDot,
                outer_iteration: 1,
                inner_solve: 1,
                inner_iteration: 1,
                loop_index: 1,
            },
            original: 1.0,
            corrupted: 1e150,
        });
        let s = SolveSummary::from_report(&rep).render();
        assert!(s.contains("injections=1"), "{s}");
    }
}
