//! The fault-injection interface the solvers call.
//!
//! Instrumented kernels pass every produced scalar through
//! [`FaultInjector::corrupt`] together with its [`Site`]. In a fault-free
//! run the injector is [`NoFaults`] — an identity function the optimizer
//! reduces to nothing. A campaign run installs a [`SingleFaultInjector`]
//! that fires exactly once at its trigger and records what it did (the
//! record is how experiments verify that the intended fault, and only that
//! fault, was committed).

use crate::model::FaultModel;
use crate::site::Site;
use crate::trigger::Trigger;
use std::sync::{Mutex, MutexGuard};

/// One committed corruption. Deterministic channel: the trigger decides
/// on logical site coordinates, so the event (including the exact bit
/// patterns) is a pure function of the experiment spec.
static EV_INJECT: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "fault.inject", channel: sdc_obs::Channel::Det };

fn trace_injection(site: &Site, ordinal: u64, original: f64, corrupted: f64) {
    if sdc_obs::enabled() {
        sdc_obs::Event::new(&EV_INJECT)
            .str("kernel", format!("{:?}", site.kernel))
            .u64("outer", site.outer_iteration as u64)
            .u64("inner_solve", site.inner_solve as u64)
            .u64("inner_iter", site.inner_iteration as u64)
            .u64("loop_index", site.loop_index as u64)
            .u64("ordinal", ordinal)
            .u64("original_bits", original.to_bits())
            .u64("corrupted_bits", corrupted.to_bits())
            .u64("flipped_bits", original.to_bits() ^ corrupted.to_bits())
            .emit();
    }
}

/// A record of one committed corruption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectionRecord {
    /// Where it happened.
    pub site: Site,
    /// The correct value the kernel produced.
    pub original: f64,
    /// The corrupted value handed back to the solver.
    pub corrupted: f64,
}

/// The injection interface. Implementations must be cheap in the
/// non-firing path and thread-safe (campaigns run many solves in
/// parallel; a single solve may also use parallel kernels).
pub trait FaultInjector: Send + Sync {
    /// Possibly corrupts `value` produced at `site`.
    fn corrupt(&self, site: Site, value: f64) -> f64;

    /// Records of every corruption committed so far.
    fn records(&self) -> Vec<InjectionRecord> {
        Vec::new()
    }
}

/// The fault-free injector: identity.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline]
    fn corrupt(&self, _site: Site, value: f64) -> f64 {
        value
    }
}

#[derive(Debug, Default)]
struct InjectorState {
    matches: u64,
    fired: u64,
    records: Vec<InjectionRecord>,
}

/// Injects according to a [`Trigger`] and [`FaultModel`]; the default
/// single-shot trigger realizes the paper's single-transient-SDC protocol.
#[derive(Debug)]
pub struct SingleFaultInjector {
    model: FaultModel,
    trigger: Trigger,
    state: Mutex<InjectorState>,
}

impl SingleFaultInjector {
    /// Creates an injector firing `model` according to `trigger`.
    pub fn new(model: FaultModel, trigger: Trigger) -> Self {
        Self { model, trigger, state: Mutex::new(InjectorState::default()) }
    }

    /// The injector state. A panic while the lock was held does not
    /// poison it: FT-GMRES' sandbox catches a crashed inner solve and
    /// keeps using the injector for the rest of the run.
    fn state(&self) -> MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of corruptions committed so far.
    pub fn fired_count(&self) -> u64 {
        self.state().fired
    }

    /// The configured model.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The configured trigger.
    pub fn trigger(&self) -> Trigger {
        self.trigger
    }
}

impl FaultInjector for SingleFaultInjector {
    fn corrupt(&self, site: Site, value: f64) -> f64 {
        // Fast reject without locking: predicate evaluation is pure.
        if !self.trigger.predicate.matches(&site) {
            return value;
        }
        let mut st = self.state();
        st.matches += 1;
        if self.trigger.should_fire(st.matches, st.fired) {
            st.fired += 1;
            let corrupted = self.model.apply(value);
            st.records.push(InjectionRecord { site, original: value, corrupted });
            trace_injection(&site, st.fired, value, corrupted);
            corrupted
        } else {
            value
        }
    }

    fn records(&self) -> Vec<InjectionRecord> {
        self.state().records.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Kernel;
    use crate::trigger::{LoopPosition, SitePredicate};

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
    fn no_faults_is_identity() {
        let inj = NoFaults;
        assert_eq!(inj.corrupt(Site::bare(Kernel::Precond), 1.25), 1.25);
        assert!(inj.records().is_empty());
    }

    #[test]
    fn fires_exactly_once_at_target_site() {
        let inj = SingleFaultInjector::new(
            FaultModel::CLASS1_HUGE,
            Trigger::once(SitePredicate::mgs_site(2, 3, LoopPosition::First)),
        );
        // Non-matching sites untouched.
        assert_eq!(inj.corrupt(mgs(1, 1, 1), 0.5), 0.5);
        assert_eq!(inj.corrupt(mgs(2, 3, 2), 0.5), 0.5);
        // Target site corrupted.
        let v = inj.corrupt(mgs(2, 3, 1), 0.5);
        assert_eq!(v, 0.5 * 1e150);
        // Same site again (e.g. after an inner restart): single transient
        // SDC fires only once.
        assert_eq!(inj.corrupt(mgs(2, 3, 1), 0.5), 0.5);
        assert_eq!(inj.fired_count(), 1);
        let recs = inj.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].original, 0.5);
        assert_eq!(recs[0].corrupted, 0.5 * 1e150);
        assert_eq!(recs[0].site, mgs(2, 3, 1));
    }

    #[test]
    fn always_mode_fires_on_every_match() {
        let inj = SingleFaultInjector::new(
            FaultModel::ScaleRelative(2.0),
            Trigger::always(SitePredicate::mgs_site(1, 1, LoopPosition::Any)),
        );
        assert_eq!(inj.corrupt(mgs(1, 1, 1), 1.0), 2.0);
        assert_eq!(inj.corrupt(mgs(1, 1, 1), 1.0), 2.0);
        assert_eq!(inj.fired_count(), 2);
    }

    #[test]
    fn thread_safety_single_fire_under_contention() {
        use std::sync::Arc;
        let inj = Arc::new(SingleFaultInjector::new(
            FaultModel::SetValue(-1.0),
            Trigger::once(SitePredicate::any()),
        ));
        let mut handles = Vec::new();
        for t in 0..8 {
            let inj = Arc::clone(&inj);
            handles.push(std::thread::spawn(move || {
                let mut corrupted = 0usize;
                for k in 0..1000 {
                    let v = inj.corrupt(mgs(t + 1, k + 1, 1), 1.0);
                    if v == -1.0 {
                        corrupted += 1;
                    }
                }
                corrupted
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1, "exactly one corruption across all threads");
        assert_eq!(inj.fired_count(), 1);
    }
}
