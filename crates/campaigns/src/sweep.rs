//! The single-SDC sweep driver (§VII-B).
//!
//! Each experiment solves the same system (same matrix, right-hand side
//! and initial guess) with a single fault injected at one (aggregate
//! inner iteration, MGS position, fault class) coordinate. The
//! experiments are mutually independent, so the sweep runs them in
//! parallel on the sdc_parallel pool — each experiment's kernels are
//! deterministic, so the sweep's output is identical however it is
//! scheduled.
//!
//! This module is the *raw* path: one (class, position) series, no
//! persistence, every experiment solved from `x₀` — the reference the
//! executor is tested against. The [`crate::executor`] runs the same
//! experiments unit by unit behind an artifact file, forking each one
//! from the clean solve's state at the outer iteration that holds its
//! fault ([`clean_run`], [`run_experiment`]); [`crate::report`]
//! reconstructs [`SweepResult`] values from that artifact without
//! re-solving.

use crate::problems::Problem;
use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
use sdc_gmres::ftgmres::{ftgmres_capture, ftgmres_fork, ftgmres_solve_precond, CleanFtGmres};
use sdc_gmres::operator::true_rel_residual;
use sdc_gmres::prelude::*;

/// Sweep configuration (mirrors the paper's experimental setup).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Inner iterations per outer iteration (paper: 25).
    pub inner_iters: usize,
    /// Outer relative-residual tolerance.
    pub outer_tol: f64,
    /// Outer iteration cap (well above the failure-free count so
    /// penalties are measurable).
    pub outer_max: usize,
    /// Detector response, or `None` to run undetected.
    pub detector_response: Option<DetectorResponse>,
    /// Sweep stride: 1 = every aggregate iteration (the paper's full
    /// figures), larger = subsampled quick runs.
    pub stride: usize,
    /// Inner projected-LSQ policy (§VI-D; the paper recommends 1 or 3).
    pub inner_lsq: LstsqPolicy,
    /// Sparse storage engine for the operator. SELL SpMV is bitwise
    /// identical to CSR, so this is a pure performance knob: artifacts
    /// are byte-identical whichever engine runs.
    pub format: sdc_sparse::SparseFormat,
    /// Right preconditioner applied inside the inner solves (the sequel
    /// paper's opaque inner operator). `None` reproduces the
    /// unpreconditioned solver bit-for-bit, including the legacy
    /// Frobenius detector bound.
    pub precond: PrecondKind,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            inner_iters: 25,
            outer_tol: 1e-8,
            outer_max: 120,
            detector_response: None,
            stride: 1,
            inner_lsq: LstsqPolicy::Standard,
            format: sdc_sparse::SparseFormat::Auto,
            precond: PrecondKind::None,
        }
    }
}

impl CampaignConfig {
    /// The FT-GMRES configuration realizing this campaign on matrix `a`
    /// with no preconditioner (legacy path, byte-stable).
    pub fn ft_config(&self, a: &sdc_sparse::CsrMatrix) -> FtGmresConfig {
        self.ft_config_with(a, &BuiltPrecond::None)
    }

    /// The FT-GMRES configuration realizing this campaign on matrix `a`,
    /// preconditioned by `precond`. The detector bound follows the
    /// iteration it guards: the Frobenius bound for plain Arnoldi, the
    /// `‖A‖_F·‖M⁻¹‖`-scaled bound when the inner operator is `A·M⁻¹`.
    pub fn ft_config_with(
        &self,
        a: &sdc_sparse::CsrMatrix,
        precond: &BuiltPrecond,
    ) -> FtGmresConfig {
        FtGmresConfig {
            outer: sdc_gmres::fgmres::FgmresConfig {
                tol: self.outer_tol,
                max_outer: self.outer_max,
                ..Default::default()
            },
            inner_iters: self.inner_iters,
            inner_lsq_policy: self.inner_lsq,
            inner_detector: self
                .detector_response
                .map(|resp| SdcDetector::for_precond(a, precond, resp)),
        }
    }

    /// Resolves this config's preconditioner on problem `p` (cached per
    /// problem). Panics on a build failure: campaign configs are
    /// validated up front, so an unfactorable matrix is a caller bug.
    pub fn precond<'p>(&self, p: &'p Problem) -> &'p BuiltPrecond {
        p.precond(self.precond).unwrap_or_else(|e| panic!("{} on {}: {e}", self.precond, p.name))
    }
}

/// One experiment's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// The aggregate inner iteration that was faulted (x-axis).
    pub aggregate: usize,
    /// Outer iterations to convergence (y-axis).
    pub outer_iterations: usize,
    /// Whether the solve converged within the cap.
    pub converged: bool,
    /// Whether the fault was actually committed (late sites may never be
    /// reached if the solve converges first).
    pub injected: bool,
    /// Whether the detector flagged anything.
    pub detected: bool,
    /// Detector-forced inner restarts.
    pub restarts: usize,
    /// Reliable relative residual of the returned solution.
    pub true_rel_residual: f64,
}

/// A full (class, position) series.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Fault class of this series.
    pub class: FaultClass,
    /// MGS position of this series.
    pub position: MgsPosition,
    /// Failure-free outer iteration count (the baseline).
    pub failure_free_outer: usize,
    /// One point per (strided) aggregate iteration.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The worst outer-iteration count in the series.
    pub fn max_outer(&self) -> usize {
        self.points.iter().map(|p| p.outer_iterations).max().unwrap_or(0)
    }

    /// The worst increase over failure-free.
    pub fn max_increase(&self) -> usize {
        self.max_outer().saturating_sub(self.failure_free_outer)
    }

    /// Worst-case percentage increase in time-to-solution (§VII-E).
    pub fn pct_increase(&self) -> f64 {
        100.0 * self.max_increase() as f64 / self.failure_free_outer.max(1) as f64
    }

    /// Number of experiments with no penalty at all.
    pub fn count_no_penalty(&self) -> usize {
        self.points.iter().filter(|p| p.outer_iterations <= self.failure_free_outer).count()
    }

    /// Number of experiments in which the fault was committed and detected.
    pub fn count_detected(&self) -> usize {
        self.points.iter().filter(|p| p.detected).count()
    }

    /// Number of experiments that failed to converge.
    pub fn count_failures(&self) -> usize {
        self.points.iter().filter(|p| !p.converged).count()
    }
}

/// Runs the failure-free baseline and returns its report.
pub fn failure_free(p: &Problem, cfg: &CampaignConfig) -> SolveReport {
    clean_run(p, cfg).0
}

/// Runs the failure-free baseline, keeping the state experiments fork
/// from (see [`run_experiment`]).
pub fn clean_run(p: &Problem, cfg: &CampaignConfig) -> (SolveReport, CleanFtGmres) {
    let pc = cfg.precond(p);
    let ft = cfg.ft_config_with(&p.a, pc);
    let (_, rep, clean) = ftgmres_capture(p.operator(cfg.format), &p.b, None, &ft, pc);
    (rep, clean)
}

/// Runs one full sweep series: a single SDC of `class` at `position`,
/// swept over every (strided) aggregate inner iteration in
/// `1..=inner_iters·failure_free_outer`.
pub fn run_sweep(
    p: &Problem,
    cfg: &CampaignConfig,
    class: FaultClass,
    position: MgsPosition,
    failure_free_outer: usize,
) -> SweepResult {
    let pc = cfg.precond(p);
    let ft = cfg.ft_config_with(&p.a, pc);
    let domain: Vec<usize> =
        (1..=cfg.inner_iters * failure_free_outer).step_by(cfg.stride.max(1)).collect();
    let points: Vec<SweepPoint> = sdc_parallel::par_map(domain.len(), |i| {
        let point = CampaignPoint {
            aggregate_iteration: domain[i],
            inner_per_outer: cfg.inner_iters,
            class,
            position,
        };
        run_experiment(p, &ft, point, cfg.format, pc, None)
    });
    SweepResult { class, position, failure_free_outer, points }
}

/// Runs exactly one experiment: one solve with one SDC coordinate armed.
///
/// With `clean = None` the solve starts from `x₀` ([`run_sweep`]). With
/// the clean solve of the same configuration up to the detector
/// ([`clean_run`]) it starts at [`fork_boundary`]: the injector cannot
/// fire before inner solve `point.inner_solve()`, so the prefix it skips
/// is the clean one. Both paths give the same [`SweepPoint`] bit for
/// bit — not because they share code but because the executor-parity
/// and solver-bits tests say so. `format` picks the SpMV engine; results
/// are bitwise independent of it.
pub fn run_experiment(
    p: &Problem,
    ft: &FtGmresConfig,
    point: CampaignPoint,
    format: sdc_sparse::SparseFormat,
    precond: &BuiltPrecond,
    clean: Option<&CleanFtGmres>,
) -> SweepPoint {
    let inj = point.injector();
    let op = p.operator(format);
    let (x, rep) = match clean {
        Some(c) => ftgmres_fork(op, &p.b, ft, precond, &inj, c, fork_boundary(c, ft, point)),
        None => ftgmres_solve_precond(op, &p.b, None, ft, precond, &inj),
    };
    SweepPoint {
        aggregate: point.aggregate_iteration,
        outer_iterations: rep.iterations,
        converged: rep.outcome.is_converged(),
        injected: !rep.injections.is_empty(),
        detected: rep.detected_anything(),
        restarts: rep.detector_restarts,
        true_rel_residual: true_rel_residual(&p.a, &p.b, &x),
    }
}

/// The outer boundary [`run_experiment`] forks `point` at: the outer
/// iteration whose inner solve holds the fault, or earlier if `ft`'s
/// detector would have fired on the clean run before it.
pub fn fork_boundary(clean: &CleanFtGmres, ft: &FtGmresConfig, point: CampaignPoint) -> usize {
    clean.fork_boundary(point.inner_solve(), ft.inner_detector.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;

    fn tiny_cfg() -> CampaignConfig {
        CampaignConfig {
            inner_iters: 8,
            outer_tol: 1e-8,
            outer_max: 60,
            detector_response: None,
            stride: 5,
            inner_lsq: LstsqPolicy::Standard,
            format: sdc_sparse::SparseFormat::Auto,
            precond: PrecondKind::None,
        }
    }

    #[test]
    fn sweep_runs_and_all_points_converge() {
        let p = problems::poisson(8);
        let cfg = tiny_cfg();
        let ff = failure_free(&p, &cfg);
        assert!(ff.outcome.is_converged());
        let res = run_sweep(&p, &cfg, FaultClass::Slight, MgsPosition::First, ff.iterations);
        assert!(!res.points.is_empty());
        assert_eq!(res.count_failures(), 0, "all experiments must converge");
        for pt in &res.points {
            assert!(pt.true_rel_residual <= 1e-7, "agg {}: {}", pt.aggregate, pt.true_rel_residual);
        }
    }

    #[test]
    fn detector_sweep_detects_all_committed_class1() {
        let p = problems::poisson(8);
        let mut cfg = tiny_cfg();
        cfg.detector_response = Some(DetectorResponse::RestartInner);
        let ff = failure_free(&p, &cfg);
        let res = run_sweep(&p, &cfg, FaultClass::Huge, MgsPosition::First, ff.iterations);
        for pt in &res.points {
            if pt.injected {
                assert!(pt.detected, "committed class-1 fault at {} escaped", pt.aggregate);
            }
        }
        // With the detector, the worst-case penalty is tiny.
        assert!(res.max_increase() <= 2, "max increase {}", res.max_increase());
    }

    #[test]
    fn sweep_is_deterministic() {
        let p = problems::poisson(6);
        let cfg = CampaignConfig { inner_iters: 5, stride: 7, ..tiny_cfg() };
        let ff = failure_free(&p, &cfg);
        let r1 = run_sweep(&p, &cfg, FaultClass::Tiny, MgsPosition::Last, ff.iterations);
        let r2 = run_sweep(&p, &cfg, FaultClass::Tiny, MgsPosition::Last, ff.iterations);
        assert_eq!(r1.points.len(), r2.points.len());
        for (a, b) in r1.points.iter().zip(r2.points.iter()) {
            assert_eq!(a.outer_iterations, b.outer_iterations);
            assert_eq!(a.true_rel_residual.to_bits(), b.true_rel_residual.to_bits());
        }
    }

    #[test]
    fn preconditioned_sweep_converges_and_is_deterministic() {
        let p = problems::poisson(8);
        for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
            let mut cfg = tiny_cfg();
            cfg.precond = kind;
            cfg.detector_response = Some(DetectorResponse::RestartInner);
            let ff = failure_free(&p, &cfg);
            assert!(ff.outcome.is_converged(), "{kind}: baseline must converge");
            let r1 = run_sweep(&p, &cfg, FaultClass::Huge, MgsPosition::First, ff.iterations);
            let r2 = run_sweep(&p, &cfg, FaultClass::Huge, MgsPosition::First, ff.iterations);
            assert_eq!(r1.count_failures(), 0, "{kind}: every experiment must converge");
            for (a, b) in r1.points.iter().zip(r2.points.iter()) {
                assert_eq!(a.outer_iterations, b.outer_iterations, "{kind}");
                assert_eq!(a.true_rel_residual.to_bits(), b.true_rel_residual.to_bits(), "{kind}");
            }
        }
    }

    #[test]
    fn summary_statistics() {
        let res = SweepResult {
            class: FaultClass::Huge,
            position: MgsPosition::First,
            failure_free_outer: 9,
            points: vec![
                SweepPoint {
                    aggregate: 1,
                    outer_iterations: 12,
                    converged: true,
                    injected: true,
                    detected: true,
                    restarts: 1,
                    true_rel_residual: 1e-9,
                },
                SweepPoint {
                    aggregate: 2,
                    outer_iterations: 9,
                    converged: true,
                    injected: true,
                    detected: false,
                    restarts: 0,
                    true_rel_residual: 1e-9,
                },
            ],
        };
        assert_eq!(res.max_outer(), 12);
        assert_eq!(res.max_increase(), 3);
        assert!((res.pct_increase() - 33.333).abs() < 0.01);
        assert_eq!(res.count_no_penalty(), 1);
        assert_eq!(res.count_detected(), 1);
        assert_eq!(res.count_failures(), 0);
    }
}
