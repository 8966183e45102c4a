//! `sdc_obs`: the workspace observability spine.
//!
//! Every layer of the workspace — solvers, preconditioners, fault
//! injectors, the sparse engine, the work pool, the campaign executor
//! and the solve service — reports what it is doing through this crate,
//! and nothing in this crate is allowed to perturb what those layers
//! compute. Two ideas make that safe:
//!
//! 1. **Events are passive.** An [`Event`] is a named bag of typed
//!    fields handed to whatever [`Subscriber`] is installed; emission
//!    never feeds a value back into the caller. With no subscriber
//!    installed, [`enabled`] is a relaxed atomic load plus one
//!    thread-local read and call sites build nothing.
//! 2. **Channels separate logic from wall-clock.** Every [`Callsite`]
//!    is pinned to a [`Channel`]: [`Channel::Det`] events carry only
//!    logical fields (iteration numbers, residuals, injection sites)
//!    and are rendered to canonical JSONL whose bytes are a pure
//!    function of the computation — byte-diffable in CI like campaign
//!    artifacts. [`Channel::Timing`] events may carry durations, thread
//!    ids and scheduling accidents; they go to a sidecar that is never
//!    diffed.
//!
//! Subscribers come in two scopes: a process-wide global
//! ([`install_global`]) and a thread-local stack ([`with_local`]) used
//! for per-solve and per-campaign-unit capture. Metrics are a separate,
//! always-on surface: see [`metrics`].
//!
//! The crate also holds the workspace's one JSON codec, [`json`]: the
//! det trace channel, campaign specs and artifacts, solve summaries and
//! the solve service's wire protocol all write their bytes with it.

pub mod flight;
pub mod json;
pub mod metrics;
pub mod spanlog;
pub mod trace;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which trace channel a callsite's events belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Deterministic: logical fields only, canonical JSONL, byte-diffed
    /// in CI. Bytes must be a pure function of spec + seed, independent
    /// of thread count and wall-clock.
    Det,
    /// Timing sidecar: durations, scheduling events, anything that can
    /// differ between runs. Never diffed.
    Timing,
}

/// A static identity for one emission point: its stable event name and
/// its channel. Declared once per site as a `static`, so the identity
/// of an event is a pointer to its callsite.
pub struct Callsite {
    /// Stable dotted event name, e.g. `"gmres.iter"`.
    pub name: &'static str,
    /// The channel every event from this site goes to.
    pub channel: Channel,
}

/// A typed field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, ordinals, bit patterns).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (residuals, bounds).
    F64(f64),
    /// Short string (labels, verdicts, format names).
    Str(String),
}

/// One structured event: a callsite plus its fields, in emission order.
pub struct Event {
    /// The static emission point.
    pub callsite: &'static Callsite,
    /// Field key/value pairs (keys are static, rendering sorts them).
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Starts an event at `callsite`. Call-sites should gate on
    /// [`enabled`] first so the field vector is never built when nobody
    /// is listening.
    pub fn new(callsite: &'static Callsite) -> Self {
        Self { callsite, fields: Vec::with_capacity(6) }
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.fields.push((key, Value::U64(v)));
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, key: &'static str, v: i64) -> Self {
        self.fields.push((key, Value::I64(v)));
        self
    }

    /// Adds a floating-point field.
    pub fn f64(mut self, key: &'static str, v: f64) -> Self {
        self.fields.push((key, Value::F64(v)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &'static str, v: bool) -> Self {
        self.fields.push((key, Value::Bool(v)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.fields.push((key, Value::Str(v.into())));
        self
    }

    /// Hands the event to every installed subscriber.
    pub fn emit(self) {
        dispatch(&self);
    }
}

/// An event consumer. Implementations must tolerate concurrent calls
/// (the global subscriber sees events from every thread).
pub trait Subscriber: Send + Sync {
    /// Receives one event. Must not call back into solver code.
    fn event(&self, event: &Event);
}

static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<dyn Subscriber>>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Vec<Arc<dyn Subscriber>>> = const { RefCell::new(Vec::new()) };
}

/// True when any subscriber (global or on this thread's local stack) is
/// installed. The no-subscriber fast path is one relaxed atomic load
/// and one thread-local check — call sites gate event construction on
/// this so tracing-off costs nothing measurable.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ON.load(Ordering::Relaxed) || LOCAL.with(|l| !l.borrow().is_empty())
}

/// Installs (or replaces) the process-wide subscriber.
pub fn install_global(sub: Arc<dyn Subscriber>) {
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = Some(sub);
    GLOBAL_ON.store(true, Ordering::Relaxed);
}

/// Removes the process-wide subscriber.
pub fn clear_global() {
    GLOBAL_ON.store(false, Ordering::Relaxed);
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Runs `f` with `sub` pushed on this thread's local subscriber stack.
/// Used for per-solve and per-campaign-unit capture: the subscriber
/// sees exactly the events emitted by `f` on this thread, and is popped
/// (panic-safely) when `f` returns.
pub fn with_local<R>(sub: Arc<dyn Subscriber>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            LOCAL.with(|l| {
                l.borrow_mut().pop();
            });
        }
    }
    LOCAL.with(|l| l.borrow_mut().push(sub));
    let _guard = Guard;
    f()
}

thread_local! {
    static TRACE_CTX: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Process-global span-id allocator. Ids are only unique within one
/// process; cross-shard analysis keys spans by (span-log file, id).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Runs `f` with `id` as this thread's current trace id.
///
/// The trace id is pure correlation context: it is **never** injected
/// into deterministic-channel output (det bytes stay a pure function of
/// the computation). Context-aware subscribers — the span log, the
/// flight-recorder header — read it via [`current_trace`] at render
/// time and stamp it on their own sidecar records. Contexts nest and
/// pop panic-safely, mirroring [`with_local`].
pub fn with_trace<R>(id: impl Into<String>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            TRACE_CTX.with(|t| {
                t.borrow_mut().pop();
            });
        }
    }
    TRACE_CTX.with(|t| t.borrow_mut().push(id.into()));
    let _guard = Guard;
    f()
}

/// The innermost trace id installed on this thread, if any.
pub fn current_trace() -> Option<String> {
    TRACE_CTX.with(|t| t.borrow().last().cloned())
}

/// The id of the innermost open span on this thread (0 when none).
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Delivers an event to every local subscriber on this thread, then to
/// the global subscriber if one is installed.
pub fn dispatch(event: &Event) {
    LOCAL.with(|l| {
        for sub in l.borrow().iter() {
            sub.event(event);
        }
    });
    if GLOBAL_ON.load(Ordering::Relaxed) {
        let sub = GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(sub) = sub {
            sub.event(event);
        }
    }
}

/// A scope guard that emits a duration event on drop.
///
/// Spans are **timing-channel only**: a duration is wall-clock by
/// definition, so a span's callsite must be declared with
/// [`Channel::Timing`] (debug-asserted). Obtain one with [`span`]; it
/// returns `None` when no subscriber is installed, so the `Instant`
/// read is also skipped on the fast path.
pub struct SpanGuard {
    callsite: &'static Callsite,
    fields: Vec<(&'static str, Value)>,
    start: std::time::Instant,
    id: u64,
    parent: u64,
}

/// Opens a timing span at `callsite`; `None` when tracing is off.
///
/// Each span gets a process-unique id and records the id of the
/// innermost span already open on this thread as its parent (0 for a
/// root). The pair is emitted as `span`/`parent` fields on the closing
/// event, which is what lets `sdc_trace merge` rebuild the span tree
/// from a flat span log. Guards are scope-bound and must close in LIFO
/// order on the thread that opened them.
pub fn span(callsite: &'static Callsite) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    debug_assert!(
        callsite.channel == Channel::Timing,
        "span callsites must be Timing: durations are wall-clock ({})",
        callsite.name
    );
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Some(SpanGuard { callsite, fields: Vec::new(), start: std::time::Instant::now(), id, parent })
}

impl SpanGuard {
    /// Attaches an unsigned-integer field to the closing event.
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.fields.push((key, Value::U64(v)));
        self
    }

    /// Attaches a string field to the closing event.
    pub fn str(&mut self, key: &'static str, v: impl Into<String>) -> &mut Self {
        self.fields.push((key, Value::Str(v.into())));
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "span guards must close in LIFO order");
        });
        let mut fields = std::mem::take(&mut self.fields);
        fields.push(("span", Value::U64(self.id)));
        fields.push(("parent", Value::U64(self.parent)));
        fields.push(("duration_us", Value::U64(self.start.elapsed().as_micros() as u64)));
        dispatch(&Event { callsite: self.callsite, fields });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static TEST_DET: Callsite = Callsite { name: "test.det", channel: Channel::Det };
    static TEST_TIMING: Callsite = Callsite { name: "test.timing", channel: Channel::Timing };

    // Tests observing `enabled()` share process-global state with the
    // global-subscriber test; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct CountingSub(AtomicUsize);
    impl Subscriber for CountingSub {
        fn event(&self, _: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_by_default_and_local_scope_enables() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let sub = Arc::new(CountingSub(AtomicUsize::new(0)));
        let n = with_local(sub.clone(), || {
            assert!(enabled());
            Event::new(&TEST_DET).u64("k", 1).emit();
            Event::new(&TEST_TIMING).u64("k", 2).emit();
            sub.0.load(Ordering::Relaxed)
        });
        assert_eq!(n, 2);
        assert!(!enabled());
        // After the scope, emissions go nowhere.
        Event::new(&TEST_DET).u64("k", 3).emit();
        assert_eq!(sub.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn local_stack_nests_and_pops_on_panic() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = Arc::new(CountingSub(AtomicUsize::new(0)));
        let inner = Arc::new(CountingSub(AtomicUsize::new(0)));
        with_local(outer.clone(), || {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_local(inner.clone(), || {
                    Event::new(&TEST_DET).emit();
                    panic!("boom")
                })
            }));
            assert!(res.is_err());
            // The inner subscriber was popped by the panic; only the
            // outer one sees this event.
            Event::new(&TEST_DET).emit();
        });
        assert_eq!(inner.0.load(Ordering::Relaxed), 1);
        assert_eq!(outer.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn global_subscriber_installs_and_clears() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sub = Arc::new(CountingSub(AtomicUsize::new(0)));
        install_global(sub.clone());
        assert!(enabled());
        Event::new(&TEST_DET).f64("x", 1.5).emit();
        clear_global();
        assert!(!enabled());
        Event::new(&TEST_DET).emit();
        assert_eq!(sub.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn span_emits_duration_on_drop_and_is_none_when_off() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(span(&TEST_TIMING).is_none());
        let sink = Arc::new(trace::TraceSink::new());
        with_local(sink.clone(), || {
            let mut s = span(&TEST_TIMING).expect("enabled");
            s.u64("pieces", 4).str("stage", "apply");
        });
        let timing = sink.timing_bytes();
        assert!(timing.contains("\"ev\":\"test.timing\""), "{timing}");
        assert!(timing.contains("\"duration_us\":"), "{timing}");
        assert!(timing.contains("\"pieces\":4"), "{timing}");
        assert!(sink.det_bytes().is_empty());
    }

    #[test]
    fn trace_context_nests_and_pops_on_panic() {
        assert_eq!(current_trace(), None);
        with_trace("outer", || {
            assert_eq!(current_trace().as_deref(), Some("outer"));
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_trace("inner", || {
                    assert_eq!(current_trace().as_deref(), Some("inner"));
                    panic!("boom")
                })
            }));
            assert!(res.is_err());
            assert_eq!(current_trace().as_deref(), Some("outer"));
        });
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn spans_link_parent_to_the_enclosing_span_on_this_thread() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(trace::TraceSink::new());
        with_local(sink.clone(), || {
            assert_eq!(current_span(), 0);
            let outer = span(&TEST_TIMING).expect("enabled");
            let outer_id = current_span();
            assert_ne!(outer_id, 0);
            {
                let _inner = span(&TEST_TIMING).expect("enabled");
                assert_ne!(current_span(), outer_id);
            }
            drop(outer);
            assert_eq!(current_span(), 0);
        });
        let timing = sink.timing_bytes();
        let lines: Vec<&str> = timing.lines().collect();
        assert_eq!(lines.len(), 2, "{timing}");
        // Inner closes first and names the outer as its parent; the
        // outer is a root (parent 0).
        let outer_id: u64 = lines[1]
            .split("\"span\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .expect("outer span id");
        assert!(lines[0].contains(&format!("\"parent\":{outer_id}")), "{timing}");
        assert!(lines[1].contains("\"parent\":0"), "{timing}");
    }
}
