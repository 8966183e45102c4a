//! The workspace's single deterministic floating-point reduction.
//!
//! Every dot product, norm and sum in the workspace reduces with one
//! canonical shape, a *fixed-block pairwise tree*:
//!
//! 1. the index range `0..len` is cut into [`BLOCK`]-sized blocks
//!    (`len ≤ BLOCK` is a single block — the shapes coincide);
//! 2. a caller-supplied leaf kernel reduces each block (by convention
//!    with a [`PAIRWISE_BASE`]-base pairwise tree over slices, which the
//!    compiler vectorizes);
//! 3. the block partials are combined with [`pairwise_sum`].
//!
//! The shape is a function of `len` alone — never of thread count or
//! scheduling — so serial and parallel runs are bitwise identical, which
//! is what lets SDC campaigns replay solves and compare artifacts by
//! byte. Blocks are evaluated over the pool when the input is large
//! enough to pay for it; each partial lands in its own slot, so dynamic
//! piece claiming cannot reorder the combination.
//!
//! Accuracy: the pairwise tree has an `O(log n · eps)` error bound
//! versus `O(n · eps)` for running accumulation, keeping Modified
//! Gram-Schmidt's orthogonality loss near the theoretical bound and the
//! SDC detector free of arithmetic-noise false positives.

use crate::pool::{is_pool_worker, run_pieces, threads};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Block size of the canonical reduction: a constant of the *algorithm*,
/// not of the machine, preserving determinism.
pub const BLOCK: usize = 8192;

/// Base-case length of the pairwise tree; below this a simple
/// (vectorizable) loop runs.
pub const PAIRWISE_BASE: usize = 64;

/// Inputs shorter than this are reduced without touching the pool —
/// piece handoff costs more than the arithmetic saves.
pub const PAR_MIN: usize = 4 * BLOCK;

/// Pairwise sum of a slice with a fixed-shape reduction tree
/// (base [`PAIRWISE_BASE`]).
#[inline]
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    if xs.len() <= PAIRWISE_BASE {
        let mut acc = 0.0;
        for &x in xs {
            acc += x;
        }
        acc
    } else {
        let mid = xs.len() / 2;
        pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
    }
}

/// Combines per-block partials into the canonical result: a lone block
/// is its own result, more are summed with [`pairwise_sum`] in block
/// order. Callers that evaluate the blocks themselves (fused kernels, a
/// team) use this to stay bitwise equal to [`det_map_sum`].
#[inline]
pub fn combine_blocks(partials: &[f64]) -> f64 {
    match partials {
        [only] => *only,
        _ => pairwise_sum(partials),
    }
}

/// Deterministic blocked map-reduce over `0..len`.
///
/// `leaf(lo..hi)` reduces one block (block boundaries are multiples of
/// [`BLOCK`]); the partials are combined with [`pairwise_sum`]. The
/// result is a pure function of `len` and the leaf values — bitwise
/// independent of thread count — and large inputs evaluate their blocks
/// concurrently on the pool.
pub fn det_map_sum(len: usize, leaf: &(dyn Fn(Range<usize>) -> f64 + Sync)) -> f64 {
    if len <= BLOCK {
        return leaf(0..len);
    }
    let nblocks = len.div_ceil(BLOCK);
    let block_range = |b: usize| b * BLOCK..((b + 1) * BLOCK).min(len);
    // The worker check keeps nested reductions (a dot inside a pool-run
    // campaign unit, which would inline anyway) off the atomic-slot path.
    let partials: Vec<f64> = if len >= PAR_MIN && threads() > 1 && !is_pool_worker() {
        // One slot per block; bits written by whichever thread claims
        // the piece, read back in block order after the region ends.
        let slots: Vec<AtomicU64> = (0..nblocks).map(|_| AtomicU64::new(0)).collect();
        run_pieces(nblocks, &|b| {
            slots[b].store(leaf(block_range(b)).to_bits(), Ordering::Relaxed);
        });
        slots.iter().map(|s| f64::from_bits(s.load(Ordering::Relaxed))).collect()
    } else {
        (0..nblocks).map(|b| leaf(block_range(b))).collect()
    };
    combine_blocks(&partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::set_threads;
    use crate::test_guard;

    /// Pairwise-tree leaf over a value slice, as the dense kernels use.
    fn leaf_sum(xs: &[f64]) -> f64 {
        if xs.len() <= PAIRWISE_BASE {
            xs.iter().sum()
        } else {
            let mid = xs.len() / 2;
            leaf_sum(&xs[..mid]) + leaf_sum(&xs[mid..])
        }
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.7311).sin() * 1e3 + 1e-7 * i as f64).collect()
    }

    #[test]
    fn matches_single_block_leaf_below_block_size() {
        let xs = data(BLOCK);
        let got = det_map_sum(xs.len(), &|r| leaf_sum(&xs[r]));
        assert_eq!(got.to_bits(), leaf_sum(&xs).to_bits());
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let _guard = test_guard();
        let xs = data(3 * BLOCK + 1234);
        let mut results = Vec::new();
        for t in [1, 2, 5, 8] {
            set_threads(t);
            results.push(det_map_sum(xs.len(), &|r| leaf_sum(&xs[r])).to_bits());
        }
        set_threads(0);
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:x?}");
    }

    #[test]
    fn parallel_path_matches_serial_shape() {
        let _guard = test_guard();
        // Force the pool path (len >= PAR_MIN) and compare against a
        // hand-rolled serial evaluation of the same canonical shape.
        let xs = data(PAR_MIN + 4097);
        let serial: Vec<f64> = xs.chunks(BLOCK).map(leaf_sum).collect();
        let expect = pairwise_sum(&serial);
        set_threads(4);
        let got = det_map_sum(xs.len(), &|r| leaf_sum(&xs[r]));
        set_threads(0);
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn empty_input_reduces_the_empty_range() {
        let got = det_map_sum(0, &|r| {
            assert!(r.is_empty());
            0.0
        });
        assert_eq!(got, 0.0);
    }
}
