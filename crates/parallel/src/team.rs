//! Team regions: the calling thread and a few pool helpers stepping
//! together through a sequence of short *phases* over the [`BLOCK`]
//! chunks of one buffer.
//!
//! [`run_pieces`](crate::run_pieces) pays a queue round trip and a
//! condvar wake per region — tens of microseconds. On a 2-vCPU host that
//! makes a CSR SpMV on Poisson 100² slower split than serial (84 µs
//! against 45 µs), and it is far too much for one Modified Gram-Schmidt
//! coefficient, a single pass over a vector that must finish before the
//! next coefficient can start. A team is recruited once for a whole
//! sequence (one Arnoldi step's MGS, one Chebyshev apply) and then
//! synchronizes each phase with atomics only:
//!
//! * the caller publishes phase `p`, claims chunks itself, waits until
//!   every chunk of the phase is done, then runs whatever serial code
//!   sits between phases (in MGS: the fault injector and the detector)
//!   before publishing `p + 1`;
//! * helpers spin for the next phase while one is likely to come and
//!   leave after [`HELPER_PATIENCE`] without one, so no thread spins
//!   outside a region; they may join late or never;
//! * each chunk goes to exactly one participant per phase, as `&mut`,
//!   and phases never overlap.
//!
//! The caller can run every chunk alone, so a team cannot deadlock.
//! Below [`TEAM_MIN`] elements, at one thread, or on a pool worker (a
//! campaign unit) it *is* a plain loop. A body that writes only
//! chunk-indexed outputs gives results bitwise independent of which
//! thread ran which chunk.

use crate::is_pool_worker;
use crate::pool::{finish, submit, threads, EV_RUN};
use crate::reduce::BLOCK;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Buffers shorter than this run a team inline: with fewer than two
/// full chunks there is nothing worth splitting.
pub const TEAM_MIN: usize = 2 * BLOCK;

/// How long a helper waits for the next phase before it leaves.
pub const HELPER_PATIENCE: Duration = Duration::from_micros(50);

/// Spins before a waiting caller starts yielding its core.
const CALLER_SPINS: u32 = 1 << 12;

/// Cores this process may run on. A spinning team member beyond them
/// only takes time from the members doing the work.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The state one team shares: the chunked buffer, the body and the
/// phase protocol.
struct Region<'a, T> {
    data: *mut T,
    len: usize,
    pieces: usize,
    body: &'a (dyn Fn(usize, usize, &mut [T]) + Sync),
    /// Phases published so far; phase `p` is live once this is `p + 1`.
    published: AtomicUsize,
    /// Per chunk: the number of phases it has been claimed for. Claiming
    /// chunk `b` in phase `p` is the compare-exchange `p → p + 1`, so a
    /// helper holding a stale phase number can never claim.
    claimed: Box<[AtomicUsize]>,
    /// Chunks completed over all phases.
    done: AtomicUsize,
    closed: AtomicBool,
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` is only turned into a `&mut` chunk by the single
// participant holding that chunk's claim for the live phase, and a phase
// starts only after every chunk of the previous one completed (see
// `Team::run`); `T: Send` lets chunks cross threads.
unsafe impl<T: Send> Sync for Region<'_, T> {}

impl<T: Send> Region<'_, T> {
    /// Runs chunk `b` of phase `p`.
    ///
    /// # Safety
    /// The calling thread must own chunk `b` for phase `p`: it claimed
    /// it, or the team runs inline.
    unsafe fn run(&self, p: usize, b: usize) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(self.len);
        let chunk = std::slice::from_raw_parts_mut(self.data.add(lo), hi - lo);
        if let Err(e) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.body)(p, b, chunk)))
        {
            self.payload.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(e);
            self.panicked.store(true, Ordering::Release);
        }
        // Release: the chunk's writes happen-before the caller's
        // completion check, hence before the next phase's claims.
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Claims and runs unclaimed chunks of phase `p`, scanning from
    /// `home` so each participant tends to keep the same chunks (and
    /// their cache lines) from phase to phase.
    fn work(&self, p: usize, home: usize) {
        for k in 0..self.pieces {
            let b = (home + k) % self.pieces;
            let slot = &self.claimed[b];
            if slot.load(Ordering::Relaxed) == p
                && slot.compare_exchange(p, p + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                // SAFETY: the claim makes this thread the chunk's owner.
                unsafe { self.run(p, b) };
            }
        }
    }

    /// A helper's life in the team: work every phase it sees, leave on
    /// close or after [`HELPER_PATIENCE`] without a new phase.
    fn help(&self, home: usize) {
        let mut seen = 0;
        let mut idle_since = Instant::now();
        let mut spins = 0u32;
        while !self.closed.load(Ordering::Acquire) {
            let published = self.published.load(Ordering::Acquire);
            if published > seen {
                seen = published;
                self.work(published - 1, home);
                idle_since = Instant::now();
                continue;
            }
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins % 64 == 0 && idle_since.elapsed() > HELPER_PATIENCE {
                return;
            }
        }
    }
}

/// The caller's handle on a team region; see [`team`].
pub struct Team<'r, 'a, T> {
    region: &'r Region<'a, T>,
    phases: usize,
    recruited: bool,
}

impl<T: Send> Team<'_, '_, T> {
    /// Runs the next phase — `body(phase, chunk_index, chunk)` once for
    /// every chunk — and returns when all of them are done. A panic in
    /// any chunk is re-raised here.
    pub fn run(&mut self) {
        let p = self.phases;
        self.phases += 1;
        let r = self.region;
        if !self.recruited {
            for b in 0..r.pieces {
                // SAFETY: no helpers: this thread owns every chunk.
                unsafe { r.run(p, b) };
            }
        } else {
            r.published.store(p + 1, Ordering::Release);
            r.work(p, 0);
            let target = (p + 1) * r.pieces;
            let mut spins = 0u32;
            while r.done.load(Ordering::Acquire) < target {
                if spins < CALLER_SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    // A helper lost its core mid-chunk; give it back.
                    std::thread::yield_now();
                }
            }
        }
        if r.panicked.load(Ordering::Acquire) {
            let payload = r.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
            std::panic::resume_unwind(payload.unwrap_or_else(|| Box::new("team piece panicked")));
        }
    }
}

/// Runs `drive` with a team over the [`BLOCK`]-sized chunks of `data`.
/// Each [`Team::run`] call inside `drive` is one phase: `body(phase,
/// chunk_index, chunk)` for every chunk, spread over the caller and up to
/// `min(threads, cores, chunks) - 1` pool helpers. Code in `drive`
/// between phases runs on the calling thread only.
///
/// Outputs a body writes must be indexed by chunk (or phase) for results
/// to be thread-count independent; inputs for phase `p` that `drive`
/// computes are visible to every chunk of phase `p` when published
/// through atomics before the `run` call (Relaxed suffices: `run`
/// publishes with Release).
pub fn team<T: Send, R>(
    data: &mut [T],
    body: &(dyn Fn(usize, usize, &mut [T]) + Sync),
    drive: impl FnOnce(&mut Team<'_, '_, T>) -> R,
) -> R {
    let pieces = data.len().div_ceil(BLOCK);
    let helpers = if data.len() < TEAM_MIN || is_pool_worker() {
        0
    } else {
        threads().min(hardware_threads()).min(pieces).saturating_sub(1)
    };
    let region = Region {
        data: data.as_mut_ptr(),
        len: data.len(),
        pieces,
        body,
        published: AtomicUsize::new(0),
        claimed: (0..if helpers > 0 { pieces } else { 0 }).map(|_| AtomicUsize::new(0)).collect(),
        done: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
    };
    let mut team = Team { region: &region, phases: 0, recruited: helpers > 0 };
    if helpers == 0 {
        return drive(&mut team);
    }

    let mut span = sdc_obs::span(&EV_RUN);
    if let Some(span) = span.as_mut() {
        span.u64("pieces", pieces as u64).u64("inline", 0).u64("threads", helpers as u64 + 1);
        span.u64("team", 1);
    }
    // Helper `s` starts its scans at its own share of the chunks.
    let help = |slot: usize| region.help((slot + 1) * pieces / (helpers + 1));
    let job = submit(helpers, helpers, &help);
    /// Closes the team on every exit from `drive`, unwinding included:
    /// no helper may outlive the borrowed `data` and `body`.
    struct Close<'r, 'a, T> {
        region: &'r Region<'a, T>,
        job: std::sync::Arc<crate::pool::Job>,
    }
    impl<T> Drop for Close<'_, '_, T> {
        fn drop(&mut self) {
            self.region.closed.store(true, Ordering::Release);
            // Helper slots catch chunk panics themselves, so there is no
            // payload to forward here.
            let _ = finish(&self.job);
        }
    }
    let close = Close { region: &region, job };
    let out = drive(&mut team);
    drop(close);
    if let Some(span) = span.as_mut() {
        span.u64("phases", team.phases as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::set_threads;
    use crate::test_guard;
    use std::sync::atomic::AtomicU64;

    /// A two-phase team: phase 0 adds the chunk index, phase 1 doubles
    /// and reports per-chunk sums. Every thread count must agree.
    fn two_phase(n: usize) -> (Vec<f64>, Vec<u64>) {
        let mut data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let sums: Vec<AtomicU64> = (0..n.div_ceil(BLOCK)).map(|_| AtomicU64::new(0)).collect();
        let body = |p: usize, b: usize, c: &mut [f64]| match p {
            0 => c.iter_mut().for_each(|v| *v += b as f64),
            _ => {
                c.iter_mut().for_each(|v| *v *= 2.0);
                sums[b].store(c.iter().sum::<f64>().to_bits(), Ordering::Relaxed);
            }
        };
        team(&mut data, &body, |t| {
            t.run();
            t.run();
        });
        (data, sums.iter().map(|s| s.load(Ordering::Relaxed)).collect())
    }

    #[test]
    fn results_are_identical_at_every_thread_count() {
        let _guard = test_guard();
        for n in [0, 1, BLOCK, TEAM_MIN - 1, TEAM_MIN, 4 * BLOCK + 17] {
            let mut runs = Vec::new();
            for t in [1, 2, 8] {
                set_threads(t);
                runs.push(two_phase(n));
            }
            set_threads(0);
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "n={n}");
            let (data, _) = &runs[0];
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 2.0 * (i as f64 * 0.5 + (i / BLOCK) as f64));
            }
        }
    }

    #[test]
    fn serial_code_between_phases_sees_every_chunk() {
        let _guard = test_guard();
        set_threads(2);
        let n = 5 * BLOCK;
        let mut data = vec![1.0f64; n];
        let partial: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
        let scale = AtomicU64::new(1.0f64.to_bits());
        let body = |_p: usize, b: usize, c: &mut [f64]| {
            let s = f64::from_bits(scale.load(Ordering::Relaxed));
            c.iter_mut().for_each(|v| *v *= s);
            partial[b].store(c.iter().sum::<f64>().to_bits(), Ordering::Relaxed);
        };
        let totals = team(&mut data, &body, |t| {
            let mut totals = Vec::new();
            for k in 0..20 {
                t.run();
                let total: f64 =
                    partial.iter().map(|s| f64::from_bits(s.load(Ordering::Relaxed))).sum();
                totals.push(total);
                scale.store((1.0 + (k % 2) as f64).to_bits(), Ordering::Relaxed);
            }
            totals
        });
        set_threads(0);
        // Scales alternate 1, 1, 2, 1, 2, ...: the running product.
        let mut expect = n as f64;
        for (k, got) in totals.iter().enumerate() {
            if k >= 2 && k % 2 == 0 {
                expect *= 2.0;
            }
            assert_eq!(*got, expect, "phase {k}");
        }
    }

    #[test]
    fn chunk_panics_reach_the_caller_and_the_pool_survives() {
        let _guard = test_guard();
        set_threads(2);
        let mut data = vec![0u8; 4 * BLOCK];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team(
                &mut data,
                &|p, b, _c: &mut [u8]| assert!(!(p == 1 && b == 3), "chunk 3 broke"),
                |t| {
                    t.run();
                    t.run();
                    t.run();
                },
            )
        }));
        let payload = result.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("chunk 3 broke"), "{msg:?}");
        let ran = AtomicUsize::new(0);
        crate::run_pieces(8, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        set_threads(0);
    }

    #[test]
    fn runs_inline_below_the_gate_and_inside_workers() {
        let _guard = test_guard();
        set_threads(4);
        let caller = std::thread::current().id();
        let mut small = vec![0u8; TEAM_MIN - 1];
        team(&mut small, &|_, _, _| assert_eq!(std::thread::current().id(), caller), |t| t.run());
        // Nested inside a pool region: every worker runs its team alone.
        crate::run_pieces(4, &|_| {
            let me = std::thread::current().id();
            let mut big = vec![0u8; 4 * BLOCK];
            team(&mut big, &|_, _, _| assert_eq!(std::thread::current().id(), me), |t| t.run());
        });
        set_threads(0);
    }
}
