//! Integration test of FGMRES' "trichotomy" (§VI-C): the flexible solver
//! either converges, correctly detects an invariant subspace, or loudly
//! reports rank deficiency — silence is structurally impossible.

use sdc_repro::prelude::*;
use sdc_repro::solvers::fgmres::{
    fgmres_solve, FgmresConfig, FlexiblePreconditioner, PrecondReport,
};

#[test]
fn converges_on_regular_problem() {
    let a = gallery::poisson2d(10);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    let cfg = FgmresConfig { tol: 1e-9, max_outer: 150, ..Default::default() };
    let (_, rep) = fgmres_solve(&a, &b, None, &cfg, &mut &BuiltPrecond::None);
    assert_eq!(rep.outcome, SolveOutcome::Converged);
}

#[test]
fn invariant_subspace_detected_on_identity() {
    // A = I: first iteration produces an invariant subspace; H(1:1,1:1)
    // is nonsingular → happy breakdown, converged.
    let a = CsrMatrix::identity(30);
    let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
    let cfg = FgmresConfig { tol: 1e-12, max_outer: 10, ..Default::default() };
    let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut &BuiltPrecond::None);
    assert!(
        matches!(rep.outcome, SolveOutcome::InvariantSubspace | SolveOutcome::Converged),
        "{:?}",
        rep.outcome
    );
    for i in 0..30 {
        assert!((x[i] - b[i]).abs() < 1e-10);
    }
}

/// A preconditioner engineered to trigger Saad's Proposition 2.2: by
/// alternating `M⁻¹ = A` and `M⁻¹ = A⁻¹`-ish applications it can produce
/// a singular projected matrix with a vanishing subdiagonal.
struct DegeneratePrecond {
    count: usize,
    q1: Vec<f64>,
}

impl FlexiblePreconditioner for DegeneratePrecond {
    fn apply_flexible(&mut self, _j: usize, q: &[f64], z: &mut [f64]) -> PrecondReport {
        self.count += 1;
        if self.count == 1 {
            // Remember the first Krylov direction and return it.
            self.q1 = q.to_vec();
            z.copy_from_slice(q);
        } else {
            // Return something in the span already explored: z = q1.
            // Then A z is (nearly) in the span of existing basis vectors,
            // driving h_{j+1,j} toward zero with a singular H square part.
            z.copy_from_slice(&self.q1);
        }
        PrecondReport::default()
    }
}

#[test]
fn rank_deficiency_is_loud_not_silent() {
    // With the degenerate preconditioner the solver must either converge
    // (if the lucky subspace contains the solution), report an invariant
    // subspace, report rank deficiency, or exhaust iterations — but NEVER
    // claim convergence with a bad solution.
    let a = gallery::poisson2d(8);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    let cfg = FgmresConfig { tol: 1e-10, max_outer: 12, ..Default::default() };
    let mut p = DegeneratePrecond { count: 0, q1: vec![] };
    let (x, rep) = fgmres_solve(&a, &b, None, &cfg, &mut p);
    match rep.outcome {
        SolveOutcome::Converged | SolveOutcome::InvariantSubspace => {
            // Then the answer must actually be right (reliable final check).
            let mut r = vec![0.0; b.len()];
            sdc_repro::solvers::operator::residual(&a, &b, &x, &mut r);
            let rel = sdc_repro::dense::vector::nrm2(&r) / sdc_repro::dense::vector::nrm2(&b);
            assert!(rel <= 1e-8, "claimed convergence with residual {rel}");
        }
        SolveOutcome::RankDeficient => { /* loud, correct */ }
        SolveOutcome::MaxIterations => { /* honest no-progress report */ }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn singular_operator_reports_loudly() {
    // The path-graph Laplacian is exactly singular (ones in the null
    // space). With b chosen outside the range the solver cannot converge;
    // it must end in one of the loud/honest states.
    let a = gallery::laplacian_path_graph(40);
    let b = vec![1.0; 40]; // constant vector: not in range(L) (sum ≠ 0 component)
    let cfg = FgmresConfig { tol: 1e-10, max_outer: 45, ..Default::default() };
    let (_, rep) = fgmres_solve(&a, &b, None, &cfg, &mut &BuiltPrecond::None);
    assert!(
        matches!(
            rep.outcome,
            SolveOutcome::RankDeficient
                | SolveOutcome::MaxIterations
                | SolveOutcome::NumericalBreakdown(_)
        ),
        "singular system must not report success: {:?}",
        rep.outcome
    );
}
