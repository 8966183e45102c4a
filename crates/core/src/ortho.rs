//! Instrumented orthogonalization kernels.
//!
//! The Arnoldi process makes the new direction `v = A q_j` orthogonal to
//! the current basis with Modified Gram-Schmidt, the paper's choice
//! (§VII-B). The detector bound `|h_ij| ≤ ‖A‖_F` holds for any
//! orthonormal basis, so no second variant is needed.
//!
//! **Instrumentation**: every projection coefficient passes through the
//! fault injector *before* it is used to update `v` — this is what lets a
//! single corrupted `h_{1,j}` "taint all subsequent iterations of the
//! orthogonalization loop" under MGS (§VII-B), exactly as the paper's
//! experiments require. The detector checks each coefficient (and the
//! final norm) as it is produced. Only the thread that called
//! [`orthogonalize`] ever calls the injector, the detector or `sdc_obs`,
//! one coefficient at a time in loop order, so injection records and
//! traces are the same at every thread count.
//!
//! **MGS execution** is [`vector::mgs_sweep`]: fused update-and-dot
//! passes over `v`, split over a thread team for long vectors, bitwise
//! equal to a dot followed by an axpy per coefficient. The injector and
//! detector run in its per-coefficient hook, on the calling thread.

use crate::detector::{SdcDetector, Violation};
use sdc_dense::vector;
use sdc_faults::{FaultInjector, Kernel, Site};

/// Iteration coordinates stamped on every injection/detection site.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrthoSiteCtx {
    /// Outer (flexible) iteration, 0 if not nested.
    pub outer_iteration: usize,
    /// Inner-solve ordinal, 0 if not nested.
    pub inner_solve: usize,
    /// Current Arnoldi column `j` (1-based).
    pub column: usize,
}

impl OrthoSiteCtx {
    fn dot_site(&self, i: usize) -> Site {
        Site {
            kernel: Kernel::OrthoDot,
            outer_iteration: self.outer_iteration,
            inner_solve: self.inner_solve,
            inner_iteration: self.column,
            loop_index: i,
        }
    }

    fn norm_site(&self) -> Site {
        Site {
            kernel: Kernel::OrthoNorm,
            outer_iteration: self.outer_iteration,
            inner_solve: self.inner_solve,
            inner_iteration: self.column,
            loop_index: self.column + 1,
        }
    }
}

/// Result of orthogonalizing one vector against the basis.
#[derive(Clone, Debug)]
pub struct OrthoResult {
    /// Projection coefficients `h_{1..j, j}` (length = basis size).
    pub h: Vec<f64>,
    /// The subdiagonal entry `h_{j+1,j} = ‖v‖₂` after orthogonalization.
    pub vnorm: f64,
    /// Detector violations, in the order they occurred.
    pub violations: Vec<Violation>,
}

fn check(detector: Option<&SdcDetector>, value: f64, site: Site, violations: &mut Vec<Violation>) {
    if let Some(d) = detector {
        if let Some(v) = d.check(value, site) {
            violations.push(v);
        }
    }
}

/// Orthogonalizes `v` in place against `basis` (unit-length vectors) by
/// Modified Gram-Schmidt, passing every produced coefficient through
/// `injector` and checking it with `detector` (if any).
///
/// The returned `h` holds the *(possibly corrupted)* coefficients that
/// were actually applied — they are what the solver must store in `H`
/// for the arithmetic to mirror Algorithm 1 under fault injection.
pub fn orthogonalize(
    basis: &[Vec<f64>],
    v: &mut [f64],
    ctx: OrthoSiteCtx,
    injector: &dyn FaultInjector,
    detector: Option<&SdcDetector>,
) -> OrthoResult {
    let mut h = Vec::with_capacity(basis.len());
    let mut violations = Vec::new();
    vector::mgs_sweep(basis, v, |idx, dot| {
        // Paper notation: i = idx+1 (1-based row of h_ij).
        let site = ctx.dot_site(idx + 1);
        let hij = injector.corrupt(site, dot);
        check(detector, hij, site, &mut violations);
        // The corrupted coefficient is applied: under MGS the fault
        // propagates into v and taints every later step.
        h.push(hij);
        hij
    });
    let nsite = ctx.norm_site();
    let vnorm = injector.corrupt(nsite, vector::nrm2(v));
    check(detector, vnorm, nsite, &mut violations);
    OrthoResult { h, vnorm, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorResponse;
    use sdc_faults::trigger::LoopPosition;
    use sdc_faults::{FaultModel, NoFaults, SingleFaultInjector, SitePredicate, Trigger};

    fn unit(v: Vec<f64>) -> Vec<f64> {
        let mut v = v;
        vector::normalize(&mut v);
        v
    }

    fn ctx(col: usize) -> OrthoSiteCtx {
        OrthoSiteCtx { outer_iteration: 1, inner_solve: 1, column: col }
    }

    fn check_orthogonal(basis: &[Vec<f64>], v: &[f64], tol: f64) {
        for (k, q) in basis.iter().enumerate() {
            let d = vector::dot(q, v);
            assert!(d.abs() < tol, "v not orthogonal to basis[{k}]: {d}");
        }
    }

    #[test]
    fn mgs_orthogonalizes() {
        let basis = [unit(vec![1.0, 1.0, 0.0, 0.0]), unit(vec![-1.0, 1.0, 1.0, 0.0])];
        // Gram-Schmidt the second basis vector first for a true orthobasis.
        let mut q2 = basis[1].clone();
        let r = orthogonalize(&basis[..1], &mut q2, ctx(1), &NoFaults, None);
        let q2 = unit(q2);
        assert!(r.violations.is_empty());
        let basis = vec![basis[0].clone(), q2];

        let mut v = vec![0.3, -0.2, 0.9, 1.0];
        let res = orthogonalize(&basis, &mut v, ctx(2), &NoFaults, None);
        assert_eq!(res.h.len(), 2);
        check_orthogonal(&basis, &v, 1e-14);
        assert!((vector::nrm2(&v) - res.vnorm).abs() < 1e-14);
    }

    #[test]
    fn injected_fault_taints_mgs_result() {
        let basis = vec![unit(vec![1.0, 0.0, 0.0]), unit(vec![0.0, 1.0, 0.0])];
        let mut v = vec![0.5, 0.5, 1.0];
        let inj = SingleFaultInjector::new(
            FaultModel::ScaleRelative(100.0),
            Trigger::once(SitePredicate::mgs_site(1, 2, LoopPosition::First)),
        );
        let res = orthogonalize(&basis, &mut v, ctx(2), &inj, None);
        // h_{1,2} corrupted: 0.5*100.
        assert_eq!(res.h[0], 50.0);
        // The corrupted coefficient was applied: v[0] = 0.5 - 50 = -49.5.
        assert_eq!(v[0], -49.5);
        // Result is no longer orthogonal to q1 — the taint is real.
        assert!(vector::dot(&basis[0], &v).abs() > 1.0);
    }

    #[test]
    fn detector_flags_corrupted_coefficient() {
        let basis = vec![unit(vec![1.0, 0.0])];
        let mut v = vec![0.7, 0.7];
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(1, 1, LoopPosition::First)),
        );
        let det = SdcDetector { bound: 10.0, response: DetectorResponse::Record };
        let res = orthogonalize(&basis, &mut v, ctx(1), &inj, Some(&det));
        assert_eq!(res.violations.len(), 2, "dot violation, then the norm blows past the bound");
        assert_eq!(res.violations[0].value, 0.7 * 1e150);
    }

    #[test]
    fn detector_silent_on_fault_free_run() {
        let basis = vec![unit(vec![1.0, 2.0, 0.0]), unit(vec![0.0, 0.0, 1.0])];
        // bound = a generous overestimate of ‖v‖.
        let det = SdcDetector { bound: 1e3, response: DetectorResponse::Record };
        let mut v = vec![0.1, -0.4, 0.8];
        let res = orthogonalize(&basis, &mut v, ctx(2), &NoFaults, Some(&det));
        assert!(res.violations.is_empty());
    }

    #[test]
    fn empty_basis_returns_norm_only() {
        let mut v = vec![3.0, 4.0];
        let res = orthogonalize(&[], &mut v, ctx(1), &NoFaults, None);
        assert!(res.h.is_empty());
        assert!((res.vnorm - 5.0).abs() < 1e-15);
    }

    /// MGS as one dot and one axpy per coefficient — the composition the
    /// fused, team-split sweep must reproduce bit for bit.
    fn mgs_reference(
        basis: &[Vec<f64>],
        v: &mut [f64],
        ctx: OrthoSiteCtx,
        injector: &dyn FaultInjector,
        detector: Option<&SdcDetector>,
    ) -> OrthoResult {
        let mut h = Vec::with_capacity(basis.len());
        let mut violations = Vec::new();
        for (idx, q) in basis.iter().enumerate() {
            let site = ctx.dot_site(idx + 1);
            let hij = injector.corrupt(site, vector::dot(q, v));
            check(detector, hij, site, &mut violations);
            vector::axpy(-hij, q, v);
            h.push(hij);
        }
        let nsite = ctx.norm_site();
        let vnorm = injector.corrupt(nsite, vector::nrm2(v));
        check(detector, vnorm, nsite, &mut violations);
        OrthoResult { h, vnorm, violations }
    }

    #[test]
    fn fused_team_mgs_matches_dot_then_axpy_bitwise() {
        let _guard = sdc_parallel::test_serial_guard();
        let k = 9;
        let det = SdcDetector { bound: 5.0, response: DetectorResponse::Record };
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // 1024 and 10,000 run inline; 32,400 and 70,000 split over the team.
        for n in [1024usize, 10_000, 32_400, 70_000] {
            let basis: Vec<Vec<f64>> = (0..k)
                .map(|j| {
                    unit((0..n).map(|i| ((i * (j + 3)) as f64 * 0.0137).sin() + 0.01).collect())
                })
                .collect();
            let v0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.021).cos() * 3.0).collect();
            for pos in [LoopPosition::First, LoopPosition::Index(k / 2), LoopPosition::Last] {
                let injector = || {
                    SingleFaultInjector::new(
                        FaultModel::ScaleRelative(1e4),
                        Trigger::once(SitePredicate::mgs_site(1, k, pos)),
                    )
                };
                let inj = injector();
                let mut v_ref = v0.clone();
                let want = mgs_reference(&basis, &mut v_ref, ctx(k), &inj, Some(&det));
                let want_records = inj.records();
                assert_eq!(want_records.len(), 1, "n={n} {pos:?}: the fault must fire");
                assert!(!want.violations.is_empty(), "n={n} {pos:?}: the detector must see it");
                for t in [1, 2, 8] {
                    sdc_parallel::set_threads(t);
                    let inj = injector();
                    let mut v = v0.clone();
                    let got = orthogonalize(&basis, &mut v, ctx(k), &inj, Some(&det));
                    let at = format!("n={n} {pos:?} threads={t}");
                    assert_eq!(bits(&got.h), bits(&want.h), "{at}: h");
                    assert_eq!(got.vnorm.to_bits(), want.vnorm.to_bits(), "{at}: vnorm");
                    assert_eq!(got.violations, want.violations, "{at}: violations");
                    assert_eq!(inj.records(), want_records, "{at}: injection records");
                    assert_eq!(bits(&v), bits(&v_ref), "{at}: v");
                }
                sdc_parallel::set_threads(0);
            }
        }
    }
}
