//! Triggers: *when* a fault strikes.
//!
//! A [`SitePredicate`] selects the coordinates of interest (any field may
//! be wildcarded); a [`FireMode`] turns matches into firings — the paper's
//! protocol is "fire exactly once, at this exact site".

use crate::site::{Kernel, Site};

/// Selects the orthogonalization-loop position symbolically, so "last"
/// can be expressed without knowing the column index up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopPosition {
    /// `i == 1` — the paper's "first iteration of the MGS loop".
    First,
    /// `i == j` — the paper's "last iteration of the MGS loop".
    Last,
    /// An explicit loop index.
    Index(usize),
    /// Any position.
    Any,
}

/// A conjunctive match over site coordinates; `None` = wildcard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SitePredicate {
    /// Match a specific kernel.
    pub kernel: Option<Kernel>,
    /// Match a specific outer iteration.
    pub outer_iteration: Option<usize>,
    /// Match a specific inner-solve ordinal.
    pub inner_solve: Option<usize>,
    /// Match a specific inner iteration (Hessenberg column).
    pub inner_iteration: Option<usize>,
    /// Match a loop position.
    pub loop_position: LoopPosition,
}

impl SitePredicate {
    /// Wildcard predicate: matches every site.
    pub fn any() -> Self {
        Self {
            kernel: None,
            outer_iteration: None,
            inner_solve: None,
            inner_iteration: None,
            loop_position: LoopPosition::Any,
        }
    }

    /// Predicate for the paper's campaign: the orthogonalization dot
    /// product at inner solve `solve`, inner iteration `iter`, at the
    /// first or last MGS position.
    pub fn mgs_site(solve: usize, iter: usize, position: LoopPosition) -> Self {
        Self {
            kernel: Some(Kernel::OrthoDot),
            outer_iteration: None,
            inner_solve: Some(solve),
            inner_iteration: Some(iter),
            loop_position: position,
        }
    }

    /// Predicate for the opaque-preconditioner model's transient faults:
    /// a preconditioner *application* inside inner solve `solve`, at
    /// operator apply `apply` of that solve, striking the output element
    /// selected by `position` (`First` = element 1; use
    /// `LoopPosition::Index(n)` for the last element of an order-`n`
    /// operator — `Last` has MGS column semantics and never matches
    /// apply sites).
    pub fn precond_apply(solve: usize, apply: usize, position: LoopPosition) -> Self {
        Self {
            kernel: Some(Kernel::Precond),
            outer_iteration: None,
            inner_solve: Some(solve),
            inner_iteration: Some(apply),
            loop_position: position,
        }
    }

    /// Predicate for the opaque-preconditioner model's *persistent*
    /// faults: stored-factor slot `slot` (1-based, carried in
    /// `loop_index`). Iteration coordinates are wildcarded — stored-factor
    /// sweeps carry zeros there.
    pub fn precond_factor(slot: usize) -> Self {
        Self {
            kernel: Some(Kernel::Precond),
            outer_iteration: None,
            inner_solve: None,
            inner_iteration: None,
            loop_position: LoopPosition::Index(slot),
        }
    }

    /// Tests the predicate against a site.
    pub fn matches(&self, site: &Site) -> bool {
        if let Some(k) = self.kernel {
            if site.kernel != k {
                return false;
            }
        }
        if let Some(o) = self.outer_iteration {
            if site.outer_iteration != o {
                return false;
            }
        }
        if let Some(s) = self.inner_solve {
            if site.inner_solve != s {
                return false;
            }
        }
        if let Some(j) = self.inner_iteration {
            if site.inner_iteration != j {
                return false;
            }
        }
        match self.loop_position {
            LoopPosition::Any => true,
            LoopPosition::First => site.loop_index == 1,
            LoopPosition::Last => site.loop_index != 0 && site.loop_index == site.inner_iteration,
            LoopPosition::Index(i) => site.loop_index == i,
        }
    }
}

/// How many matches become firings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FireMode {
    /// Fire on the first match only — single transient SDC (the paper's
    /// protocol).
    Once,
    /// Fire on every match — models *persistent* corruption (Fig. 1:
    /// permanently faulty hardware).
    Always,
    /// Fire on the n-th match only (1-based).
    NthMatch(u64),
}

/// A complete trigger: predicate + firing mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// Which sites are eligible.
    pub predicate: SitePredicate,
    /// Which matches actually fire.
    pub mode: FireMode,
}

impl Trigger {
    /// Single-shot trigger at the given predicate (the paper's protocol).
    pub fn once(predicate: SitePredicate) -> Self {
        Trigger { predicate, mode: FireMode::Once }
    }

    /// Fires on every matching site.
    pub fn always(predicate: SitePredicate) -> Self {
        Trigger { predicate, mode: FireMode::Always }
    }

    /// Decides whether a match with the given ordinal (1-based count of
    /// matches so far, including this one) and prior firing count fires.
    pub fn should_fire(&self, match_ordinal: u64, fired_before: u64) -> bool {
        match self.mode {
            FireMode::Once => fired_before == 0,
            FireMode::Always => true,
            FireMode::NthMatch(n) => match_ordinal == n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgs(solve: usize, iter: usize, i: usize) -> Site {
        Site {
            kernel: Kernel::OrthoDot,
            outer_iteration: solve,
            inner_solve: solve,
            inner_iteration: iter,
            loop_index: i,
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        let p = SitePredicate::any();
        assert!(p.matches(&mgs(1, 1, 1)));
        assert!(p.matches(&Site::bare(Kernel::Precond)));
    }

    #[test]
    fn mgs_site_first() {
        let p = SitePredicate::mgs_site(3, 7, LoopPosition::First);
        assert!(p.matches(&mgs(3, 7, 1)));
        assert!(!p.matches(&mgs(3, 7, 2)));
        assert!(!p.matches(&mgs(3, 6, 1)));
        assert!(!p.matches(&mgs(2, 7, 1)));
    }

    #[test]
    fn mgs_site_last_tracks_column() {
        let p = SitePredicate::mgs_site(1, 5, LoopPosition::Last);
        assert!(p.matches(&mgs(1, 5, 5)));
        assert!(!p.matches(&mgs(1, 5, 4)));
        // Column 1: loop index 1 is last.
        let p1 = SitePredicate::mgs_site(1, 1, LoopPosition::Last);
        assert!(p1.matches(&mgs(1, 1, 1)));
    }

    #[test]
    fn kernel_mismatch_rejected() {
        let p = SitePredicate::mgs_site(1, 1, LoopPosition::Any);
        let mut s = mgs(1, 1, 1);
        s.kernel = Kernel::OrthoNorm;
        assert!(!p.matches(&s));
    }

    #[test]
    fn fire_modes() {
        let t = Trigger::once(SitePredicate::any());
        assert!(t.should_fire(1, 0));
        assert!(!t.should_fire(2, 1));
        let t = Trigger::always(SitePredicate::any());
        assert!(t.should_fire(5, 4));
        let t = Trigger { predicate: SitePredicate::any(), mode: FireMode::NthMatch(3) };
        assert!(!t.should_fire(1, 0));
        assert!(!t.should_fire(2, 0));
        assert!(t.should_fire(3, 0));
        assert!(!t.should_fire(4, 1));
    }

    #[test]
    fn precond_apply_matches_transient_sites_only() {
        let p = SitePredicate::precond_apply(2, 3, LoopPosition::First);
        let hit = Site {
            kernel: Kernel::Precond,
            outer_iteration: 2,
            inner_solve: 2,
            inner_iteration: 3,
            loop_index: 1,
        };
        assert!(p.matches(&hit));
        assert!(!p.matches(&Site { loop_index: 2, ..hit }));
        assert!(!p.matches(&Site { inner_solve: 1, ..hit }));
        assert!(!p.matches(&Site { kernel: Kernel::OrthoDot, ..hit }));
    }

    #[test]
    fn precond_factor_matches_stored_slots_regardless_of_iteration() {
        let p = SitePredicate::precond_factor(7);
        let hit = Site {
            kernel: Kernel::Precond,
            outer_iteration: 0,
            inner_solve: 0,
            inner_iteration: 0,
            loop_index: 7,
        };
        assert!(p.matches(&hit));
        assert!(p.matches(&Site { outer_iteration: 3, inner_solve: 3, ..hit }));
        assert!(!p.matches(&Site { loop_index: 8, ..hit }));
    }

    #[test]
    fn explicit_index_position() {
        let p = SitePredicate::mgs_site(1, 9, LoopPosition::Index(4));
        assert!(p.matches(&mgs(1, 9, 4)));
        assert!(!p.matches(&mgs(1, 9, 1)));
    }
}
