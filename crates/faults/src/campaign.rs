//! The paper's campaign vocabulary: fault classes and MGS positions.
//!
//! §VII-B-1 defines three classes of injected SDC, all *relative to the
//! correct value* of the Hessenberg entry, and two injection positions
//! within the Modified Gram-Schmidt loop. A campaign sweeps the single
//! fault over every aggregate inner iteration — this module builds those
//! plans deterministically.

use crate::injector::SingleFaultInjector;
use crate::model::FaultModel;
use crate::trigger::{LoopPosition, SitePredicate, Trigger};

/// The paper's three SDC magnitudes (§VII-B-1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Class 1: very large, `h̃ = h × 10^150`. Detectable by the bound.
    Huge,
    /// Class 2: slightly smaller, `h̃ = h × 10^-0.5`. Undetectable.
    Slight,
    /// Class 3: nearly zero, `h̃ = h × 10^-300`. Undetectable.
    Tiny,
}

impl FaultClass {
    /// The multiplicative factor of this class.
    pub fn factor(&self) -> f64 {
        match self {
            FaultClass::Huge => 1e150,
            FaultClass::Slight => 10f64.powf(-0.5),
            FaultClass::Tiny => 1e-300,
        }
    }

    /// The corresponding fault model.
    pub fn model(&self) -> FaultModel {
        FaultModel::ScaleRelative(self.factor())
    }

    /// All three classes, in the paper's order.
    pub fn all() -> [FaultClass; 3] {
        [FaultClass::Huge, FaultClass::Slight, FaultClass::Tiny]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Huge => "h x 10^+150",
            FaultClass::Slight => "h x 10^-0.5",
            FaultClass::Tiny => "h x 10^-300",
        }
    }
}

/// Where in the Modified Gram-Schmidt loop the fault lands (§VII-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MgsPosition {
    /// First loop iteration: corrupts `h_{1,j}`, tainting every
    /// subsequent orthogonalization step of the column — the paper's
    /// worst case by construction.
    First,
    /// Last loop iteration: corrupts `h_{j,j}`.
    Last,
}

impl MgsPosition {
    /// Both positions, in the paper's order (Fig. 3a/3b).
    pub fn both() -> [MgsPosition; 2] {
        [MgsPosition::First, MgsPosition::Last]
    }

    /// The trigger loop-position selector.
    pub fn loop_position(&self) -> LoopPosition {
        match self {
            MgsPosition::First => LoopPosition::First,
            MgsPosition::Last => LoopPosition::Last,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MgsPosition::First => "first MGS iteration",
            MgsPosition::Last => "last MGS iteration",
        }
    }
}

/// Which solver surface a single-fault experiment corrupts.
///
/// The paper's protocol strikes the Modified Gram-Schmidt loop
/// ([`FaultTarget::Mgs`]); the sequel's opaque-preconditioner model
/// strikes the preconditioner instead ([`FaultTarget::Precond`]) —
/// transiently in its output for stateless applications
/// (Jacobi/Chebyshev), persistently in its stored factors for ILU(0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The orthogonalization loop (the paper's Hessenberg-entry faults).
    #[default]
    Mgs,
    /// The preconditioner application (the sequel's opaque operator).
    Precond,
}

impl FaultTarget {
    /// The wire/CLI string for this target.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultTarget::Mgs => "mgs",
            FaultTarget::Precond => "precond",
        }
    }

    /// Parses a wire/CLI string.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mgs" => Ok(FaultTarget::Mgs),
            "precond" => Ok(FaultTarget::Precond),
            other => Err(format!("unknown fault target '{other}' (expected mgs|precond)")),
        }
    }
}

impl std::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One experiment of the sweep: a single SDC event at a specific
/// aggregate inner iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CampaignPoint {
    /// 1-based aggregate inner iteration (the figures' x-axis).
    pub aggregate_iteration: usize,
    /// Inner iterations per outer iteration (25 in the paper).
    pub inner_per_outer: usize,
    /// Fault magnitude class.
    pub class: FaultClass,
    /// MGS loop position.
    pub position: MgsPosition,
}

impl CampaignPoint {
    /// The inner-solve ordinal this aggregate iteration falls in (1-based).
    pub fn inner_solve(&self) -> usize {
        (self.aggregate_iteration - 1) / self.inner_per_outer + 1
    }

    /// The iteration within that inner solve (1-based).
    pub fn inner_iteration(&self) -> usize {
        (self.aggregate_iteration - 1) % self.inner_per_outer + 1
    }

    /// Builds the single-shot injector realizing this point.
    pub fn injector(&self) -> SingleFaultInjector {
        let predicate = SitePredicate::mgs_site(
            self.inner_solve(),
            self.inner_iteration(),
            self.position.loop_position(),
        );
        SingleFaultInjector::new(self.class.model(), Trigger::once(predicate))
    }

    /// Builds the injector realizing this point against the
    /// *preconditioner application* of an order-`n_rows` operator
    /// (transient model, Jacobi/Chebyshev): the fault lands on the
    /// first or last output element of the `inner_iteration()`-th apply
    /// of the `inner_solve()`-th inner solve.
    pub fn injector_precond_apply(&self, n_rows: usize) -> SingleFaultInjector {
        let position = match self.position {
            MgsPosition::First => LoopPosition::First,
            // LoopPosition::Last means "loop index == inner iteration"
            // (MGS column semantics) — for an output vector the last
            // element is an explicit index.
            MgsPosition::Last => LoopPosition::Index(n_rows.max(1)),
        };
        let predicate =
            SitePredicate::precond_apply(self.inner_solve(), self.inner_iteration(), position);
        SingleFaultInjector::new(self.class.model(), Trigger::once(predicate))
    }

    /// Builds the injector realizing this point against *stored
    /// preconditioner factors* (persistent model, ILU(0)): the fault
    /// lands on factor slot `aggregate_iteration` (1-based, wrapped into
    /// `1..=nnz` by the caller if needed) and persists for the solve.
    pub fn injector_precond_factor(&self, factor_nnz: usize) -> SingleFaultInjector {
        let slot = if factor_nnz == 0 {
            self.aggregate_iteration
        } else {
            (self.aggregate_iteration - 1) % factor_nnz + 1
        };
        let predicate = SitePredicate::precond_factor(slot);
        SingleFaultInjector::new(self.class.model(), Trigger::once(predicate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultInjector;
    use crate::site::{Kernel, Site};

    #[test]
    fn class_factors_match_paper() {
        assert_eq!(FaultClass::Huge.factor(), 1e150);
        assert_eq!(FaultClass::Tiny.factor(), 1e-300);
        assert!((FaultClass::Slight.factor() - 0.31622776601683794).abs() < 1e-16);
    }

    #[test]
    fn point_decomposition() {
        let p = CampaignPoint {
            aggregate_iteration: 26,
            inner_per_outer: 25,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        assert_eq!(p.inner_solve(), 2);
        assert_eq!(p.inner_iteration(), 1);
        let p = CampaignPoint { aggregate_iteration: 225, ..p };
        assert_eq!(p.inner_solve(), 9);
        assert_eq!(p.inner_iteration(), 25);
    }

    #[test]
    fn injector_from_point_fires_at_intended_site_only() {
        let p = CampaignPoint {
            aggregate_iteration: 27,
            inner_per_outer: 25,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = p.injector();
        // solve 2, iteration 2, first position.
        let target = Site {
            kernel: Kernel::OrthoDot,
            outer_iteration: 2,
            inner_solve: 2,
            inner_iteration: 2,
            loop_index: 1,
        };
        let miss = Site { loop_index: 2, ..target };
        assert_eq!(inj.corrupt(miss, 1.0), 1.0);
        assert_eq!(inj.corrupt(target, 1.0), 1e150);
        assert_eq!(inj.corrupt(target, 1.0), 1.0, "single shot");
    }

    #[test]
    fn fault_target_strings_round_trip() {
        assert_eq!(FaultTarget::parse("mgs").unwrap(), FaultTarget::Mgs);
        assert_eq!(FaultTarget::parse("precond").unwrap(), FaultTarget::Precond);
        assert_eq!(FaultTarget::default(), FaultTarget::Mgs);
        assert_eq!(format!("{}", FaultTarget::Precond), "precond");
        let err = FaultTarget::parse("spmv").unwrap_err();
        assert!(err.contains("unknown fault target 'spmv'"), "{err}");
    }

    #[test]
    fn precond_apply_injector_fires_on_the_selected_element() {
        let p = CampaignPoint {
            aggregate_iteration: 27,
            inner_per_outer: 25,
            class: FaultClass::Huge,
            position: MgsPosition::Last,
        };
        let inj = p.injector_precond_apply(100);
        let target = Site {
            kernel: Kernel::Precond,
            outer_iteration: 2,
            inner_solve: 2,
            inner_iteration: 2,
            loop_index: 100,
        };
        assert_eq!(inj.corrupt(Site { loop_index: 1, ..target }, 1.0), 1.0);
        assert_eq!(inj.corrupt(target, 1.0), 1e150);
        assert_eq!(inj.corrupt(target, 1.0), 1.0, "single shot");
    }

    #[test]
    fn precond_factor_injector_wraps_slot_into_nnz() {
        let p = CampaignPoint {
            aggregate_iteration: 12,
            inner_per_outer: 25,
            class: FaultClass::Huge,
            position: MgsPosition::First,
        };
        let inj = p.injector_precond_factor(5);
        // slot = (12-1) % 5 + 1 = 2, regardless of iteration coords.
        let target = Site {
            kernel: Kernel::Precond,
            outer_iteration: 0,
            inner_solve: 0,
            inner_iteration: 0,
            loop_index: 2,
        };
        assert_eq!(inj.corrupt(Site { loop_index: 1, ..target }, 1.0), 1.0);
        assert_eq!(inj.corrupt(target, 1.0), 1e150);
    }

    #[test]
    fn labels_are_paper_like() {
        assert!(FaultClass::Huge.label().contains("+150"));
        assert!(MgsPosition::First.label().contains("first"));
    }
}
