//! The invariant-based SDC detector of §V.
//!
//! The orthogonalization kernel starts from `v = A q_j` with `‖q_j‖₂ = 1`,
//! so `‖v‖₂ ≤ ‖A‖₂` and every projection coefficient satisfies
//!
//! ```text
//! |h_ij| ≤ ‖A‖₂ ≤ ‖A‖_F          (Eq. 3)
//! ```
//!
//! The check `|h| ≤ bound` is inserted after the dot product (Algorithm 1,
//! lines 6–7) and after the norm (lines 9–10). It costs one comparison, no
//! communication, and its guarantees are *exact*: any value above the
//! bound is theoretically impossible, any value below it is allowed — "we
//! either detect a large error or commit a small error" (§V-C).
//!
//! The comparison is written `!(|h| ≤ bound)` so that `NaN` — which
//! compares false with everything — is flagged, inheriting IEEE-754's
//! loud-error semantics.

use sdc_faults::Site;

/// What the solver does when the detector fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorResponse {
    /// Log the violation and keep computing (observation mode — used to
    /// measure what *would* have been caught).
    Record,
    /// Discard the current inner Krylov space and restart the inner solve
    /// from scratch — the paper's suggested cheap response ("restarting
    /// the inner solve").
    RestartInner,
    /// Abandon the inner solve immediately and hand the current iterate
    /// to the reliable outer solver.
    AbortInner,
    /// Stop the whole solver and report loudly ("halting the
    /// application").
    Halt,
}

/// A detected bound violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Violation {
    /// Where the offending value was produced.
    pub site: Site,
    /// The offending value.
    pub value: f64,
    /// The bound it violated.
    pub bound: f64,
}

/// The Hessenberg-entry bound detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdcDetector {
    /// The bound on `|h_ij|`: `‖A‖_F` (always safe) or a trusted
    /// estimate of `‖A‖₂` (tighter).
    pub bound: f64,
    /// Response policy.
    pub response: DetectorResponse,
}

impl SdcDetector {
    /// Detector with the paper's default bound `‖A‖_F`.
    pub fn with_frobenius_bound(a: &sdc_sparse::CsrMatrix, response: DetectorResponse) -> Self {
        Self { bound: a.norm_fro(), response }
    }

    /// Detector bound for a *right-preconditioned* iteration (the sequel
    /// paper's opaque-preconditioner model): the Arnoldi coefficients are
    /// projections of `B = A·M⁻¹`, so `|h_ij| ≤ ‖B‖₂ ≤ ‖A‖₂·‖M⁻¹‖₂`.
    /// The bound is `‖A‖_F` times a deterministic power-iteration
    /// estimate of `‖M⁻¹‖₂` times a safety factor of 2 (the estimate
    /// converges from below; the `‖A‖_F ≥ ‖A‖₂` slack absorbs the rest).
    /// For the `none` kind this is `2·‖A‖_F` — still exact, just looser
    /// than [`SdcDetector::with_frobenius_bound`]; callers keep the
    /// legacy constructor on unpreconditioned solves (see
    /// [`SdcDetector::for_precond`]).
    pub fn with_preconditioned_bound(
        a: &sdc_sparse::CsrMatrix,
        precond: &crate::precond::BuiltPrecond,
        response: DetectorResponse,
    ) -> Self {
        const SAFETY: f64 = 2.0;
        let minv = precond.inv_norm_est(a.nrows(), 8).max(1.0);
        Self { bound: a.norm_fro() * minv * SAFETY, response }
    }

    /// The bound for the iteration a right preconditioner shapes: the
    /// Frobenius bound when `precond` is `none` (plain Arnoldi on `A`),
    /// the preconditioned bound when the iteration projects `A·M⁻¹`.
    pub fn for_precond(
        a: &sdc_sparse::CsrMatrix,
        precond: &crate::precond::BuiltPrecond,
        response: DetectorResponse,
    ) -> Self {
        if precond.is_none() {
            Self::with_frobenius_bound(a, response)
        } else {
            Self::with_preconditioned_bound(a, precond, response)
        }
    }

    /// Checks a Hessenberg value; `Some(violation)` if it is impossible
    /// under exact arithmetic.
    #[inline]
    pub fn check(&self, value: f64, site: Site) -> Option<Violation> {
        // NaN must be flagged: `!(NaN.abs() <= b)` is true.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        // negation is how NaN lands in the flagged branch
        if !(value.abs() <= self.bound) {
            Some(Violation { site, value, bound: self.bound })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_faults::Kernel;

    fn site() -> Site {
        Site::bare(Kernel::OrthoDot)
    }

    #[test]
    fn values_within_bound_pass() {
        let d = SdcDetector { bound: 446.0, response: DetectorResponse::Record };
        assert!(d.check(0.0, site()).is_none());
        assert!(d.check(446.0, site()).is_none());
        assert!(d.check(-446.0, site()).is_none());
        assert!(d.check(-445.9, site()).is_none());
    }

    #[test]
    fn values_beyond_bound_flagged() {
        let d = SdcDetector { bound: 446.0, response: DetectorResponse::Halt };
        let v = d.check(447.0, site()).expect("must flag");
        assert_eq!(v.value, 447.0);
        assert_eq!(v.bound, 446.0);
        assert!(d.check(-1e150, site()).is_some());
    }

    #[test]
    fn nan_and_inf_flagged() {
        let d = SdcDetector { bound: 10.0, response: DetectorResponse::Record };
        assert!(d.check(f64::NAN, site()).is_some(), "NaN must be flagged");
        assert!(d.check(f64::INFINITY, site()).is_some());
        assert!(d.check(f64::NEG_INFINITY, site()).is_some());
    }

    #[test]
    fn class2_and_class3_faults_are_undetectable_by_design() {
        // The paper's point: shrinking faults keep |h| within the bound,
        // so the detector cannot (and need not) catch them.
        let d = SdcDetector { bound: 446.0, response: DetectorResponse::Record };
        let h = 3.7;
        assert!(d.check(h * 10f64.powf(-0.5), site()).is_none());
        assert!(d.check(h * 1e-300, site()).is_none());
        // Class 1 on any representative entry is caught.
        assert!(d.check(h * 1e150, site()).is_some());
    }

    #[test]
    fn frobenius_bound_constructor() {
        let a = sdc_sparse::gallery::poisson2d(100);
        let d = SdcDetector::with_frobenius_bound(&a, DetectorResponse::RestartInner);
        assert!((d.bound - 446.0).abs() < 1.0);
        assert_eq!(d.response, DetectorResponse::RestartInner);
    }

    #[test]
    fn preconditioned_bound_scales_with_inverse_norm() {
        use crate::precond::PrecondKind;
        let a = sdc_sparse::gallery::poisson2d(20);
        let fro = a.norm_fro();
        for kind in PrecondKind::all() {
            let p = kind.build(&a).unwrap();
            let d = SdcDetector::with_preconditioned_bound(&a, &p, DetectorResponse::Record);
            // Never tighter than the unpreconditioned Frobenius bound
            // (the estimate multiplier is clamped to >= 1, safety = 2).
            assert!(d.bound >= 2.0 * fro, "{kind}: bound {} < 2*fro {fro}", d.bound);
            assert!(d.bound.is_finite(), "{kind}");
        }
        // Jacobi on Poisson: diag = 4, so ‖M⁻¹‖₂ = 1/4 < 1 — clamped.
        let jac = PrecondKind::Jacobi.build(&a).unwrap();
        let d = SdcDetector::with_preconditioned_bound(&a, &jac, DetectorResponse::Record);
        assert!((d.bound - 2.0 * fro).abs() < 1e-9);
    }
}
