//! The global work pool: plain `std::thread` workers pulling pieces of
//! submitted jobs from a shared queue.
//!
//! Scheduling model: a job is a closure over a *piece index* plus a
//! piece count. Workers (and the submitting thread itself) claim piece
//! indices with an atomic counter, so load balancing is dynamic — a
//! thread that finishes its piece early steals the next unclaimed one —
//! while the *decomposition into pieces* stays fixed. Callers that need
//! bitwise-reproducible results therefore only have to make each piece's
//! result independent of the others (disjoint output slots, partials
//! combined in piece order); see [`crate::reduce`] for the canonical
//! floating-point reduction built on this rule.
//!
//! Sizing: the worker count is `--threads`/[`set_threads`] when given,
//! else the `SDC_THREADS` environment variable, else
//! `std::thread::available_parallelism()`. Workers are spawned lazily on
//! first use and grow on demand when the setting is raised mid-process
//! (tests exercise 1/2/8 threads in one binary). A nested submission
//! from inside a worker runs inline on that worker — parallel kernels
//! inside parallel campaign units degrade gracefully instead of
//! deadlocking the pool.
//!
//! [`par_map`] and [`par_chunks_mut`] are the workspace's data-parallel
//! loop: both cut `n` items into `min(n, 64)` contiguous pieces whose
//! boundaries depend on `n` alone, and run inline when `n ≤ 1`, at one
//! thread, or when called from inside a piece.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One parallel region, submit → drain (timing channel: durations and
/// piece distribution are scheduling accidents, never byte-diffed).
pub(crate) static EV_RUN: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "pool.run", channel: sdc_obs::Channel::Timing };
/// One participant's share of a region: how many pieces it claimed.
/// Claims beyond the submitter's are the pool's work-stealing in action.
static EV_WORKER: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "pool.worker", channel: sdc_obs::Channel::Timing };

/// Hard cap on the thread setting; oversubscription beyond this is
/// certainly a configuration error.
const MAX_THREADS: usize = 1024;

/// Explicit override from [`set_threads`]; 0 = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for every subsequent parallel
/// region (`n = 0` clears the override, falling back to `SDC_THREADS`
/// or the hardware default). Takes effect immediately: the pool grows
/// on demand, and a setting of 1 makes every region run inline.
///
/// Precedence: `set_threads` (i.e. `--threads`) > `SDC_THREADS` >
/// `available_parallelism()`.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("SDC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of threads parallel regions currently target (including
/// the submitting thread itself).
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n.min(MAX_THREADS);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// True on threads currently executing pool work (workers, and any
/// thread inside a [`run_pieces`] region). Nested submissions from such
/// threads run inline.
pub fn is_pool_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// One submitted parallel region.
pub(crate) struct Job {
    /// Borrowed from the submitting stack frame. Safety: the submitter
    /// blocks in [`finish`] until `completed == pieces`, and a piece
    /// is only claimed (hence the pointer only dereferenced) before that
    /// point, so the closure outlives every use.
    body: *const (dyn Fn(usize) + Sync),
    pieces: usize,
    /// Next unclaimed piece index (may grow past `pieces`).
    next: AtomicUsize,
    /// Pieces fully executed.
    completed: AtomicUsize,
    /// How many *additional* workers may still join (the submitter is
    /// not counted). Lets a lowered `set_threads` constrain a job even
    /// when more workers were spawned earlier in the process.
    worker_budget: AtomicIsize,
    panicked: AtomicBool,
    /// The first panic's payload, re-raised verbatim by the submitter so
    /// assertion messages and locations survive the thread hop.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `body` is only dereferenced under the claim/completion
// protocol documented on the field; all other state is atomics/locks.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs pieces until none are left. Once any piece has
    /// panicked the remaining claims drain as no-ops (fail-fast: the
    /// submitter re-raises without waiting for the rest of the region's
    /// work), while the claim/complete accounting keeps the completion
    /// latch exact.
    fn work(&self, submitter: bool) {
        let mut claimed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.pieces {
                break;
            }
            claimed += 1;
            if !self.panicked.load(Ordering::SeqCst) {
                // SAFETY: piece `i` was claimed, so `completed < pieces`
                // until it finishes and the submitter is still parked in
                // `finish` borrowing the closure.
                let body = unsafe { &*self.body };
                if let Err(payload) =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(i)))
                {
                    let mut slot = self.panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                    drop(slot);
                    self.panicked.store(true, Ordering::SeqCst);
                }
            }
            if self.completed.fetch_add(1, Ordering::SeqCst) + 1 == self.pieces {
                *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
                self.done_cv.notify_all();
            }
        }
        if claimed > 0 && sdc_obs::enabled() {
            sdc_obs::Event::new(&EV_WORKER)
                .u64("claimed", claimed)
                .u64("pieces", self.pieces as u64)
                .bool("submitter", submitter)
                .emit();
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.pieces
    }

    /// Tries to reserve a worker slot on this job.
    fn try_join(&self) -> bool {
        self.worker_budget.fetch_sub(1, Ordering::SeqCst) > 0
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    spawned: AtomicUsize,
    spawn_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

/// Ensures at least `target` workers exist (they are never torn down;
/// idle workers block on the queue condvar and cost nothing).
fn ensure_workers(target: usize) {
    let p = pool();
    if p.spawned.load(Ordering::SeqCst) >= target {
        return;
    }
    let _guard = p.spawn_lock.lock().unwrap_or_else(|e| e.into_inner());
    while p.spawned.load(Ordering::SeqCst) < target {
        let id = p.spawned.fetch_add(1, Ordering::SeqCst);
        std::thread::Builder::new()
            .name(format!("sdc-par-{id}"))
            .spawn(worker_loop)
            .expect("sdc_parallel: cannot spawn worker thread");
    }
}

fn worker_loop() {
    IN_POOL.with(|f| f.set(true));
    let p = pool();
    loop {
        let job = {
            let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                q.retain(|j| !j.exhausted());
                if let Some(j) = q.iter().find(|j| j.try_join()) {
                    break j.clone();
                }
                q = p.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work(false);
    }
}

/// Queues `pieces` pieces of `body` for at most `workers` pool workers
/// (spawning them if needed) without running any piece itself.
///
/// The caller must pass the returned job to [`finish`] before `body`
/// goes out of scope: `finish` is what guarantees no worker still holds
/// the (lifetime-erased) pointer to it.
pub(crate) fn submit(pieces: usize, workers: usize, body: &(dyn Fn(usize) + Sync)) -> Arc<Job> {
    ensure_workers(workers);
    // SAFETY: the job's pointer to `body` is only dereferenced until the
    // job's completion latch flips, and `finish` blocks on that latch
    // while the caller still borrows `body` (see `Job::body`).
    let body_erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body: body_erased,
        pieces,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        worker_budget: AtomicIsize::new(workers as isize),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut q = pool().queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job.clone());
    }
    pool().queue_cv.notify_all();
    job
}

/// Claims and runs every piece of `job` no worker has claimed yet, waits
/// for the claimed ones to finish and removes the job from the queue.
/// Returns the first piece's panic payload, if any piece panicked.
pub(crate) fn finish(job: &Job) -> Option<Box<dyn std::any::Any + Send>> {
    // Participate; mark the thread so nested regions inline.
    let was_in_pool = IN_POOL.with(|f| f.replace(true));
    job.work(true);
    IN_POOL.with(|f| f.set(was_in_pool));

    // Workers still running a piece usually finish within microseconds;
    // a short spin saves the condvar round trip.
    for _ in 0..FINISH_SPINS {
        if job.completed.load(Ordering::Acquire) == job.pieces {
            break;
        }
        std::hint::spin_loop();
    }
    let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
    while !*done {
        done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
    }
    drop(done);
    {
        let mut q = pool().queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|j| !std::ptr::eq(Arc::as_ptr(j), job));
    }
    if job.panicked.load(Ordering::SeqCst) {
        let payload = job.panic_payload.lock().unwrap_or_else(|e| e.into_inner()).take();
        return Some(payload.unwrap_or_else(|| Box::new("sdc_parallel: a parallel task panicked")));
    }
    None
}

/// Spin iterations [`finish`] tries before parking on the latch.
const FINISH_SPINS: usize = 2000;

/// Runs `body(0) ..= body(pieces - 1)`, distributing piece indices over
/// the pool, and returns once every piece has finished.
///
/// The submitting thread participates, so `run_pieces` never deadlocks
/// and a 1-thread setting is exactly a `for` loop. Pieces are claimed
/// dynamically; callers guarantee determinism by making piece *results*
/// independent (write to disjoint, piece-indexed locations). If any
/// piece panics the panic is re-raised here after the region drains.
pub fn run_pieces(pieces: usize, body: &(dyn Fn(usize) + Sync)) {
    if pieces == 0 {
        return;
    }
    if pieces == 1 || threads() <= 1 || is_pool_worker() {
        let mut span = sdc_obs::span(&EV_RUN);
        if let Some(span) = span.as_mut() {
            span.u64("pieces", pieces as u64).u64("inline", 1);
            // A nested region from inside a worker is the graceful-
            // degradation path; make it visible.
            span.u64("nested", u64::from(is_pool_worker()));
        }
        for i in 0..pieces {
            body(i);
        }
        return;
    }
    let mut span = sdc_obs::span(&EV_RUN);
    if let Some(span) = span.as_mut() {
        span.u64("pieces", pieces as u64).u64("inline", 0).u64("threads", threads() as u64);
    }
    let job = submit(pieces, threads() - 1, body);
    if let Some(payload) = finish(&job) {
        // Re-raise the first piece's payload verbatim so the assertion
        // message and location read the same as a 1-thread run.
        std::panic::resume_unwind(payload);
    }
}

/// Most pieces one [`par_map`]/[`par_chunks_mut`] loop is cut into:
/// enough for dynamic load balancing at any sane thread count, few
/// enough that piece handoff is noise.
const MAX_PIECES: usize = 64;

/// True when a loop over `n` items runs inline on the calling thread.
fn runs_inline(n: usize) -> bool {
    n <= 1 || threads() <= 1 || is_pool_worker()
}

/// Boundaries of the `k = min(n, MAX_PIECES)` contiguous pieces of
/// `0..n`: piece `i` is `bounds[i]..bounds[i + 1]` and takes
/// `⌊rest/(k−i)⌋` of the `rest` items still unassigned. A function of
/// `n` alone, never of the thread count.
fn piece_bounds(n: usize) -> Vec<usize> {
    let k = n.min(MAX_PIECES);
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0);
    let mut start = 0;
    for i in 0..k {
        start += (n - start) / (k - i);
        bounds.push(start);
    }
    bounds
}

/// Returns `[f(0), f(1), …, f(n − 1)]`, evaluated over the pool.
///
/// Index order is preserved and each `f(i)` is computed exactly once, so
/// the result equals the serial map at any thread count.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if runs_inline(n) {
        return (0..n).map(f).collect();
    }
    let bounds = piece_bounds(n);
    let parts: Vec<Mutex<Vec<R>>> = bounds[1..].iter().map(|_| Mutex::new(Vec::new())).collect();
    run_pieces(parts.len(), &|i| {
        let part = (bounds[i]..bounds[i + 1]).map(&f).collect();
        *parts[i].lock().unwrap_or_else(|e| e.into_inner()) = part;
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    out
}

/// Calls `f(c, chunk)` for every chunk `c` of `data.chunks_mut(len)`
/// (the last one may be shorter), evaluated over the pool.
///
/// Chunks are disjoint, so each element is written by exactly one call
/// and the result equals the serial loop at any thread count.
///
/// # Panics
/// Panics if `len == 0`.
pub fn par_chunks_mut<T: Send>(data: &mut [T], len: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(len > 0, "par_chunks_mut: chunk length must be > 0");
    let n = data.len().div_ceil(len);
    if runs_inline(n) {
        data.chunks_mut(len).enumerate().for_each(|(c, chunk)| f(c, chunk));
        return;
    }
    let bounds = piece_bounds(n);
    let mut rest = data;
    let pieces: Vec<Mutex<&mut [T]>> = bounds
        .windows(2)
        .map(|w| {
            let take = ((w[1] - w[0]) * len).min(rest.len());
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            Mutex::new(piece)
        })
        .collect();
    run_pieces(pieces.len(), &|i| {
        let mut piece = pieces[i].lock().unwrap_or_else(|e| e.into_inner());
        for (j, chunk) in piece.chunks_mut(len).enumerate() {
            f(bounds[i] + j, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_piece_exactly_once() {
        let _guard = crate::test_guard();
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run_pieces(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        set_threads(0);
    }

    #[test]
    fn zero_and_one_piece() {
        run_pieces(0, &|_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        run_pieces(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_thread_setting_runs_inline() {
        let _guard = crate::test_guard();
        set_threads(1);
        let tid = std::thread::current().id();
        run_pieces(16, &|_| assert_eq!(std::thread::current().id(), tid));
        set_threads(0);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let _guard = crate::test_guard();
        set_threads(4);
        let total = AtomicUsize::new(0);
        run_pieces(8, &|_| {
            run_pieces(8, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
        set_threads(0);
    }

    #[test]
    fn results_are_piece_indexed_and_complete() {
        let _guard = crate::test_guard();
        set_threads(8);
        let out: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_pieces(out.len(), &|i| {
            out[i].store((i as u64) * 3 + 1, Ordering::Relaxed);
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), (i as u64) * 3 + 1);
        }
        set_threads(0);
    }

    #[test]
    fn growing_the_setting_mid_process_works() {
        let _guard = crate::test_guard();
        set_threads(2);
        let a = AtomicUsize::new(0);
        run_pieces(32, &|_| {
            a.fetch_add(1, Ordering::SeqCst);
        });
        set_threads(6);
        run_pieces(32, &|_| {
            a.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(a.load(Ordering::SeqCst), 64);
        set_threads(0);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let _guard = crate::test_guard();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            run_pieces(16, &|i| {
                if i == 7 {
                    panic!("piece 7 exploded");
                }
            });
        });
        let payload = result.expect_err("the panic must reach the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("piece 7 exploded"), "original payload must survive: {msg:?}");
        // The pool must remain usable afterwards.
        let ran = AtomicUsize::new(0);
        run_pieces(16, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        set_threads(0);
    }

    #[test]
    fn pool_events_go_to_the_timing_channel_only() {
        let _guard = crate::test_guard();
        set_threads(2);
        // Worker threads have their own subscriber stacks, so per-worker
        // claim events are only observable through a global subscriber.
        let sink = Arc::new(sdc_obs::trace::TraceSink::new());
        sdc_obs::install_global(sink.clone());
        run_pieces(8, &|_| {});
        // The inline path (one piece runs on the submitter).
        run_pieces(1, &|_| {});
        // A worker's claim report lands just after the completion latch
        // flips, i.e. possibly after `run_pieces` returned; wait for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !sink.timing_bytes().contains("\"ev\":\"pool.worker\"")
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        sdc_obs::clear_global();
        let timing = sink.timing_bytes();
        assert!(timing.contains("\"ev\":\"pool.run\""), "{timing}");
        // Every piece is claimed by someone, so at least one participant
        // reported its share (which participant is a scheduling accident).
        assert!(timing.contains("\"ev\":\"pool.worker\""), "{timing}");
        assert!(timing.contains("\"claimed\":"), "{timing}");
        assert!(timing.contains("\"inline\":1"), "{timing}");
        // Scheduling events never reach the deterministic channel.
        assert!(sink.det_bytes().is_empty());
        set_threads(0);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let _guard = crate::test_guard();
        set_threads(4);
        let out = par_map(10_000, |i| i * 2);
        assert_eq!(out.len(), 10_000);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i * 2));
        assert!(par_map(0, |i| i).is_empty());
        set_threads(0);
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let _guard = crate::test_guard();
        set_threads(8);
        // 1000 = 142 full chunks of 7 plus a ragged chunk of 6.
        let mut data = vec![0usize; 1000];
        let calls = AtomicUsize::new(0);
        par_chunks_mut(&mut data, 7, |c, chunk| {
            assert_eq!(chunk.len(), if c == 142 { 6 } else { 7 });
            calls.fetch_add(1, Ordering::SeqCst);
            for (j, v) in chunk.iter_mut().enumerate() {
                *v += c * 7 + j + 1;
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 143);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
        par_chunks_mut(&mut [0u8; 0], 4, |_, _| panic!("an empty input has no chunks"));
        set_threads(0);
    }

    #[test]
    fn piece_bounds_depend_on_the_item_count_alone() {
        // `piece_bounds` takes nothing but `n`; 127 items give 64 pieces,
        // one single and then 63 pairs, as `⌊rest/(k−i)⌋` prescribes.
        let sizes: Vec<usize> = piece_bounds(127).windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sizes, [&[1][..], &[2; 63]].concat());
        assert_eq!(piece_bounds(5), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(*piece_bounds(10_000).last().unwrap(), 10_000);
        assert_eq!(piece_bounds(1), vec![0, 1]);
        assert_eq!(piece_bounds(0), vec![0]);
    }

    #[test]
    fn a_loop_inside_a_piece_runs_inline() {
        let _guard = crate::test_guard();
        set_threads(4);
        let outer = par_map(8, |_| {
            let tid = std::thread::current().id();
            let mut inline = par_map(100, |_| std::thread::current().id() == tid);
            par_chunks_mut(&mut inline, 3, |_, c| {
                c.iter_mut().for_each(|b| *b &= std::thread::current().id() == tid)
            });
            inline.iter().all(|&b| b)
        });
        assert!(outer.iter().all(|&b| b));
        set_threads(0);
    }

    #[test]
    fn thread_setting_is_clamped_and_clearable() {
        let _guard = crate::test_guard();
        set_threads(usize::MAX);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
