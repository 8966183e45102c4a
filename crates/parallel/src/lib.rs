//! # sdc_parallel — the workspace's execution substrate
//!
//! A dependency-free `std::thread` work pool plus the canonical
//! deterministic reduction, shared by every `par_*` kernel in the
//! workspace: every data-parallel loop calls [`par_map`] or
//! [`par_chunks_mut`] here directly.
//!
//! Two invariants make real threads safe for SDC research code:
//!
//! * **Determinism.** Work is decomposed into pieces whose boundaries
//!   depend only on problem size; threads claim pieces dynamically but
//!   every result lands in a piece-indexed slot, and floating-point
//!   partials are combined in a fixed tree ([`reduce`]). Any output —
//!   a vector, a dot product, a campaign artifact — is therefore a pure
//!   function of the input at *any* thread count, which is what lets
//!   fault campaigns replay solves and diff artifacts by byte.
//! * **Composability.** A parallel region submitted from inside another
//!   parallel region runs inline on the current thread, so parallel
//!   kernels (SpMV, dots) nested in parallel campaign units neither
//!   deadlock nor oversubscribe.
//!
//! Two region shapes exist: [`run_pieces`] (one fork-join over pieces,
//! what SpMV and long dots use) and [`team()`] (a caller plus spinning
//! helpers stepping through many short phases, what one Arnoldi step's
//! Modified Gram-Schmidt uses).
//!
//! Thread count precedence: [`set_threads`] (the shared `--threads`
//! flag) > the `SDC_THREADS` environment variable >
//! `std::thread::available_parallelism()`.

pub mod pool;
pub mod reduce;
pub mod team;

pub use pool::{is_pool_worker, par_chunks_mut, par_map, run_pieces, set_threads, threads};
pub use reduce::{combine_blocks, det_map_sum, pairwise_sum, BLOCK, PAIRWISE_BASE, PAR_MIN};
pub use team::{team, Team, TEAM_MIN};

/// Serializes tests (in any crate of this workspace) that mutate the
/// global thread setting via [`set_threads`]. Without it, two
/// concurrently-running `#[test]`s comparing results across thread
/// counts could interleave their `set_threads` calls and silently
/// compare same-count runs — passing vacuously. Test support only, not
/// part of the public API.
#[doc(hidden)]
pub fn test_serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
pub(crate) use test_serial_guard as test_guard;
