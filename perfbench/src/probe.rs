//! Outside-in instrumentation for the traced runs: wrappers around the
//! public traits the solvers call (`LinearOperator`, `FaultInjector`)
//! and a counting `sdc_obs` subscriber for events the program already
//! emits. Nothing here changes a computed value: the wrappers delegate
//! and only read the clock, so traced solves are bitwise identical to
//! untraced ones (the workloads check this).

use sdc_faults::{FaultInjector, InjectionRecord, Site};
use sdc_gmres::operator::LinearOperator;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A call counter with accumulated nanoseconds.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    /// Times `f` and counts it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(ns_since(t), Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Milliseconds so far.
    pub fn ms(&self) -> f64 {
        self.ns.load(Relaxed) as f64 * 1e-6
    }
}

/// A `LinearOperator` that times every apply of the operator it wraps
/// (the `sparse` layer).
pub struct TimedOp<'a> {
    inner: &'a dyn LinearOperator,
    /// SpMV calls and time.
    pub spmv: Tally,
}

impl<'a> TimedOp<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn LinearOperator) -> Self {
        Self { inner, spmv: Tally::default() }
    }
}

impl LinearOperator for TimedOp<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv.time(|| self.inner.apply(x, y));
    }
}

/// A `FaultInjector` that counts and times every `corrupt` call of the
/// injector it wraps (the `faults` layer; each call is one MGS
/// coefficient passing through the hook).
pub struct TimedInjector<'a> {
    inner: &'a dyn FaultInjector,
    /// `corrupt` calls and time.
    pub corrupt: Tally,
}

impl<'a> TimedInjector<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn FaultInjector) -> Self {
        Self { inner, corrupt: Tally::default() }
    }
}

impl FaultInjector for TimedInjector<'_> {
    fn corrupt(&self, site: Site, value: f64) -> f64 {
        self.corrupt.time(|| self.inner.corrupt(site, value))
    }
    fn records(&self) -> Vec<InjectionRecord> {
        self.inner.records()
    }
}

/// Counts of `sdc_obs` events emitted by the solver stack.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCounts {
    /// Completed inner Arnoldi steps (`gmres.iter`).
    pub inner_steps: u64,
    /// Completed outer FGMRES steps (`fgmres.outer`).
    pub outer_steps: u64,
    /// MGS coefficients of the completed inner steps: `j + 1` per step
    /// `j` (`j` dots plus the norm).
    pub inner_coeffs: u64,
    /// Parallel regions dispatched to the pool (`pool.run`, not inline).
    pub pool_runs: u64,
    /// Committed faults (`fault.inject`).
    pub injections: u64,
    /// Inner steps that raised a restarting detector violation.
    pub restart_steps: u64,
    /// Inner steps discarded by those restarts (including the step that
    /// detected).
    pub restart_waste: u64,
}

impl EventCounts {
    /// Sums two tallies.
    pub fn add(&mut self, o: &EventCounts) {
        self.inner_steps += o.inner_steps;
        self.outer_steps += o.outer_steps;
        self.inner_coeffs += o.inner_coeffs;
        self.pool_runs += o.pool_runs;
        self.injections += o.injections;
        self.restart_steps += o.restart_steps;
        self.restart_waste += o.restart_waste;
    }

    /// Completed Arnoldi steps, inner and outer.
    pub fn arnoldi_steps(&self) -> u64 {
        self.inner_steps + self.outer_steps
    }

    /// Inner iterations discarded by detector restarts over inner
    /// iterations run.
    pub fn restart_waste_frac(&self) -> f64 {
        let run = self.inner_steps + self.restart_steps;
        if run == 0 {
            0.0
        } else {
            self.restart_waste as f64 / run as f64
        }
    }
}

/// (outer iteration, inner solve, step) of a detector violation.
type StepKey = (u64, u64, u64);

/// The `sdc_obs` subscriber that fills [`EventCounts`].
#[derive(Default)]
pub struct EventCounter {
    /// The counts, and the step of the last restarting violation seen.
    state: Mutex<(EventCounts, Option<StepKey>)>,
}

impl EventCounter {
    /// The counts so far.
    pub fn counts(&self) -> EventCounts {
        self.state.lock().expect("event counter poisoned").0
    }
}

fn field_u64(e: &sdc_obs::Event, key: &str) -> u64 {
    e.fields
        .iter()
        .find_map(|(k, v)| match v {
            sdc_obs::Value::U64(x) if *k == key => Some(*x),
            _ => None,
        })
        .unwrap_or(0)
}

fn field_str<'e>(e: &'e sdc_obs::Event, key: &str) -> &'e str {
    e.fields
        .iter()
        .find_map(|(k, v)| match v {
            sdc_obs::Value::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
        .unwrap_or("")
}

impl sdc_obs::Subscriber for EventCounter {
    fn event(&self, e: &sdc_obs::Event) {
        let mut st = self.state.lock().expect("event counter poisoned");
        let (c, last_detect) = &mut *st;
        match e.callsite.name {
            "gmres.iter" => {
                c.inner_steps += 1;
                c.inner_coeffs += field_u64(e, "j") + 1;
                *last_detect = None;
            }
            "fgmres.outer" => c.outer_steps += 1,
            "pool.run" if field_u64(e, "inline") == 0 => c.pool_runs += 1,
            "fault.inject" => c.injections += 1,
            "gmres.detect" if field_str(e, "response") == "RestartInner" => {
                // One step may raise several violations; it restarts once.
                let key = (field_u64(e, "outer"), field_u64(e, "inner_solve"), field_u64(e, "j"));
                if *last_detect != Some(key) {
                    c.restart_steps += 1;
                    c.restart_waste += key.2;
                    *last_detect = Some(key);
                }
            }
            _ => {}
        }
    }
}

/// Runs `f` with a fresh [`EventCounter`] on this thread's local
/// subscriber stack and returns its result and the counts.
pub fn count_events<R>(f: impl FnOnce() -> R) -> (R, EventCounts) {
    let counter = std::sync::Arc::new(EventCounter::default());
    let r = sdc_obs::with_local(counter.clone(), f);
    let counts = counter.counts();
    (r, counts)
}
