//! BLAS-1 style vector kernels with deterministic reductions.
//!
//! GMRES spends its orthogonalization phase in dot products and AXPYs
//! (Algorithm 1, lines 5–8 of the paper). Two requirements shape this
//! module:
//!
//! 1. **Determinism.** A fault-injection campaign replays the same solve
//!    thousands of times with a single value perturbed; any run-to-run
//!    nondeterminism in the *fault-free* arithmetic would pollute the
//!    comparison. Every reduction here goes through the workspace's one
//!    deterministic primitive, [`sdc_parallel::det_map_sum`]: a
//!    fixed-block pairwise tree whose shape depends only on the input
//!    length — never on thread count — so serial and parallel execution
//!    produce bitwise-identical results. This module contributes the
//!    per-block *leaf trees*, whose leaves run side by side in
//!    `simd::chains` without changing a single addition.
//! 2. **Accuracy.** Pairwise summation has an error bound of
//!    `O(log n · eps)` versus `O(n · eps)` for recursive summation, which
//!    keeps the orthogonality loss of Modified Gram-Schmidt close to the
//!    theoretical bound and the detector free of arithmetic-noise false
//!    positives.

use crate::simd;
use sdc_parallel::{combine_blocks, det_map_sum, BLOCK, PAIRWISE_BASE, PAR_MIN};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Pairwise sum of a slice with a fixed-shape reduction tree.
#[inline]
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    sdc_parallel::pairwise_sum(xs)
}

/// Dot product `xᵀy` with the canonical deterministic reduction:
/// [`sdc_parallel::BLOCK`]-sized blocks, each reduced with a pairwise
/// tree, the partials combined with another pairwise tree. Large inputs
/// evaluate their blocks over the thread pool; the shape — hence the
/// bits — is identical at every thread count.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    det_map_sum(x.len(), &|r| {
        let (x, y) = (&x[r.clone()], &y[r]);
        // SAFETY: both slices hold every index of the tree.
        unsafe { tree(simd::Dot { x: x.as_ptr(), y: y.as_ptr() }, 0, x.len()) }
    })
}

/// The fused Modified Gram-Schmidt step: `v ← v + a·p`, then `qᵀv`.
/// Bitwise `axpy(a, p, v); dot(q, v)`, but for a vector of at most one
/// [`BLOCK`] the update is applied one leaf group (about 1,024 elements)
/// at a time just before the dot reads it, so `v` makes one trip
/// through the cache instead of two. Longer vectors run the two kernels
/// in turn.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_dot(a: f64, p: &[f64], q: &[f64], v: &mut [f64]) -> f64 {
    assert_eq!(p.len(), v.len(), "axpy_dot: length mismatch");
    assert_eq!(q.len(), v.len(), "axpy_dot: length mismatch");
    if v.len() > BLOCK {
        axpy(a, p, v);
        return dot(q, v);
    }
    let terms = simd::AxpyDot { a, p: p.as_ptr(), q: q.as_ptr(), v: v.as_mut_ptr() };
    // SAFETY: all three buffers hold every index of the tree, and `v` is
    // reached only through `terms` until the call returns.
    unsafe { tree(terms, 0, v.len()) }
}

/// Modified Gram-Schmidt against `basis`, with the coefficients chosen
/// by the caller: for each `q_i` in order, `coeff(i, q_i·v)` returns the
/// coefficient `c` to apply and `v ← v − c·q_i`. `coeff` runs on the
/// calling thread only, once per basis vector, in order — where the
/// solvers inject faults and run the detector.
///
/// Bitwise `for i { c = coeff(i, dot(q_i, v)); axpy(-c, q_i, v) }`, but
/// each pass over `v` is fused: per [`BLOCK`] of `v`, apply the previous
/// update and return that block's partial of the next dot
/// ([`axpy_dot`]); the partials combine in block order
/// ([`sdc_parallel::combine_blocks`]) exactly as [`dot`] combines them.
/// From [`sdc_parallel::TEAM_MIN`] elements the blocks of every pass are
/// split over one [`sdc_parallel::team()`] recruited for the whole sweep.
pub fn mgs_sweep(basis: &[Vec<f64>], v: &mut [f64], mut coeff: impl FnMut(usize, f64) -> f64) {
    let k = basis.len();
    // Pass `i < k` leaves block partials of `q_i·v`; pass `k` applies
    // the last update. Coefficients and partials cross threads as bits,
    // ordered by the team's phase hand-off.
    let partials: Vec<AtomicU64> =
        (0..v.len().div_ceil(BLOCK)).map(|_| AtomicU64::new(0)).collect();
    let applied: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let pass = |i: usize, b: usize, vb: &mut [f64]| {
        let r = b * BLOCK..b * BLOCK + vb.len();
        let prev = i
            .checked_sub(1)
            .map(|p| (-f64::from_bits(applied[p].load(Relaxed)), &basis[p][r.clone()]));
        let partial = match (basis.get(i), prev) {
            (Some(q), Some((a, p))) => axpy_dot(a, p, &q[r], vb),
            (Some(q), None) => dot(&q[r], vb),
            (None, Some((a, p))) => return axpy(a, p, vb),
            (None, None) => return,
        };
        partials[b].store(partial.to_bits(), Relaxed);
    };
    let mut block_dots = vec![0.0; partials.len()];
    sdc_parallel::team(v, &pass, |team| {
        for (i, c) in applied.iter().enumerate() {
            team.run();
            for (d, p) in block_dots.iter_mut().zip(&partials) {
                *d = f64::from_bits(p.load(Relaxed));
            }
            c.store(coeff(i, combine_blocks(&block_dots)).to_bits(), Relaxed);
        }
        if k > 0 {
            team.run();
        }
    });
}

/// Sums terms `lo..lo + len` with the canonical pairwise tree: a node of
/// at most [`PAIRWISE_BASE`] terms is one left-to-right add chain (a
/// *leaf*), a longer one is `tree(left half) + tree(right half)` with the
/// left half `len / 2` long. Subtrees whose leaves all sit at the same
/// depth — 16 leaves for 520–1,024 terms, 4 for 130–256 — go to
/// [`simd::chains`] in one piece; their sums are then combined in the
/// same tree shape. Every other node recurses, so every length gives
/// the bits of the plain recursion.
///
/// # Safety
/// `lo..lo + len` must be valid for `t` (see [`simd::Terms`]).
unsafe fn tree<T: simd::Terms>(t: T, lo: usize, len: usize) -> f64 {
    if len <= PAIRWISE_BASE {
        t.prepare(lo, len);
        let mut acc = 0.0;
        for i in lo..lo + len {
            acc += t.at(i);
        }
        acc
    } else if complete(len, 4) {
        group::<T, 16>(t, lo, len)
    } else if complete(len, 2) {
        group::<T, 4>(t, lo, len)
    } else {
        let mid = len / 2;
        tree(t, lo, mid) + tree(t, lo + mid, len - mid)
    }
}

/// True when a node of `len` terms is a complete tree of `2^depth`
/// leaves: every node `depth - 1` levels down still splits (its floor
/// length exceeds the base) and every node `depth` levels down is a leaf.
const fn complete(len: usize, depth: u32) -> bool {
    len >> (depth - 1) > PAIRWISE_BASE && len.div_ceil(1 << depth) <= PAIRWISE_BASE
}

/// One complete subtree of `C` leaves: split `len` the way [`tree`]
/// does, sum the leaves side by side, combine the sums pairwise.
unsafe fn group<T: simd::Terms, const C: usize>(t: T, lo: usize, len: usize) -> f64 {
    let mut lens = [0usize; C];
    lens[0] = len;
    let mut width = 1;
    while width < C {
        // Back to front, so each parent is read before its slot is reused.
        for k in (0..width).rev() {
            let l = lens[k];
            lens[2 * k] = l / 2;
            lens[2 * k + 1] = l - l / 2;
        }
        width *= 2;
    }
    let mut starts = [lo; C];
    for c in 1..C {
        starts[c] = starts[c - 1] + lens[c - 1];
    }
    t.prepare(lo, len);
    combine_pairwise(&simd::chains::<T, C>(t, &starts, &lens))
}

/// `combine(left half) + combine(right half)`: the tree above the
/// leaves of a complete subtree.
fn combine_pairwise(sums: &[f64]) -> f64 {
    match sums {
        [only] => *only,
        _ => {
            let (l, r) = sums.split_at(sums.len() / 2);
            combine_pairwise(l) + combine_pairwise(r)
        }
    }
}

/// `y ← a·x + y`. Bitwise identical across the scalar and SIMD bodies:
/// both compute `y[i] + a * x[i]` with separate multiply and add.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if crate::simd::axpy4(a, x, y).is_some() {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// Parallel `y ← a·x + y`; element-wise, hence trivially deterministic.
pub fn par_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy: length mismatch");
    if x.len() < PAR_MIN {
        return axpy(a, x, y);
    }
    sdc_parallel::par_chunks_mut(y, BLOCK, |c, cy| {
        axpy(a, &x[c * BLOCK..c * BLOCK + cy.len()], cy);
    });
}

/// `x ← a·x`. Bitwise identical across the scalar and SIMD bodies.
#[inline]
pub fn scal(a: f64, x: &mut [f64]) {
    if crate::simd::scal4(a, x).is_some() {
        return;
    }
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// `y ← x`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `z ← x - y`.
#[inline]
pub fn sub(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        z[i] = x[i] - y[i];
    }
}

/// Euclidean norm with overflow/underflow-safe two-pass scaling and a
/// deterministic pairwise accumulation.
pub fn nrm2(x: &[f64]) -> f64 {
    let maxabs = norm_inf(x);
    if maxabs == 0.0 {
        return 0.0;
    }
    if !maxabs.is_finite() {
        return f64::INFINITY;
    }
    // Scale so the largest element is 1; the sum of squares then cannot
    // overflow for any realistic length.
    let inv = 1.0 / maxabs;
    let ss = det_map_sum(x.len(), &|r| {
        let x = &x[r];
        // SAFETY: the slice holds every index of the tree.
        unsafe { tree(simd::ScaledSquares { x: x.as_ptr(), inv }, 0, x.len()) }
    });
    maxabs * ss.sqrt()
}

/// Infinity norm `max |x_i|` (NaN elements are skipped).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    simd::max_abs(x)
}

/// Normalizes `x` in place and returns its original 2-norm. If the norm is
/// zero (or not finite) the vector is left untouched and the norm returned
/// as-is, letting the caller decide how to handle breakdown.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = nrm2(x);
    if n > 0.0 && n.is_finite() {
        scal(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.01 * i as f64).collect()
    }

    #[test]
    fn dot_matches_naive_small() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// The canonical shape written out plainly: one add chain per leaf,
    /// `BLOCK`-sized blocks, partials combined with `combine_blocks`.
    fn reference_dot(x: &[f64], y: &[f64]) -> f64 {
        fn leaf(x: &[f64], y: &[f64]) -> f64 {
            if x.len() <= PAIRWISE_BASE {
                x.iter().zip(y).fold(0.0, |acc, (a, b)| acc + a * b)
            } else {
                let mid = x.len() / 2;
                leaf(&x[..mid], &y[..mid]) + leaf(&x[mid..], &y[mid..])
            }
        }
        let partials: Vec<f64> =
            x.chunks(BLOCK).zip(y.chunks(BLOCK)).map(|(a, b)| leaf(a, b)).collect();
        sdc_parallel::combine_blocks(&partials)
    }

    #[test]
    fn par_dot_bitwise_matches_serial() {
        // `dot` evaluates large inputs on the pool; it must match the
        // serial reference shape at every size.
        for n in [0, 1, 63, 64, 65, 129, 257, 1000, 8192, 8193, 70_000] {
            let x = seq(n);
            let y: Vec<f64> = x.iter().map(|v| v * 1.3 - 0.2).collect();
            assert_eq!(dot(&x, &y).to_bits(), reference_dot(&x, &y).to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_dot_is_axpy_then_dot() {
        for n in [0, 5, 64, 129, 520, 1024, 1808, 7824, BLOCK, BLOCK + 3] {
            let p = seq(n);
            let q: Vec<f64> = p.iter().map(|v| v * -0.7 + 0.05).collect();
            let v0: Vec<f64> = p.iter().map(|v| (v * 3.1).cos()).collect();
            let mut split = v0.clone();
            axpy(-0.37, &p, &mut split);
            let want = dot(&q, &split);
            let mut fused = v0.clone();
            let got = axpy_dot(-0.37, &p, &q, &mut fused);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            assert!(fused.iter().zip(&split).all(|(a, b)| a.to_bits() == b.to_bits()), "n={n}");
        }
    }

    #[test]
    fn dot_bitwise_independent_of_thread_count() {
        let _guard = sdc_parallel::test_serial_guard();
        let n = 200_000; // well past PAR_MIN: the pool path runs
        let x = seq(n);
        let y: Vec<f64> = x.iter().map(|v| v * 0.9 + 0.1).collect();
        let mut bits = Vec::new();
        for t in [1, 2, 8] {
            sdc_parallel::set_threads(t);
            bits.push(dot(&x, &y).to_bits());
        }
        sdc_parallel::set_threads(0);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:x?}");
    }

    #[test]
    fn nrm2_bitwise_independent_of_thread_count() {
        let _guard = sdc_parallel::test_serial_guard();
        let x = seq(150_000);
        let mut bits = Vec::new();
        for t in [1, 2, 8] {
            sdc_parallel::set_threads(t);
            bits.push(nrm2(&x).to_bits());
        }
        sdc_parallel::set_threads(0);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:x?}");
    }

    #[test]
    fn par_axpy_matches_serial() {
        let _guard = sdc_parallel::test_serial_guard();
        // Not a multiple of BLOCK: the last chunk is ragged.
        let n = 70_000;
        assert_ne!(n % BLOCK, 0);
        let x = seq(n);
        let mut serial = seq(n);
        axpy(0.75, &x, &mut serial);
        for threads in [1, 8] {
            sdc_parallel::set_threads(threads);
            let mut y = seq(n);
            par_axpy(0.75, &x, &mut y);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&serial), "{threads} threads");
        }
        sdc_parallel::set_threads(0);
    }

    #[test]
    fn kernels_bitwise_invariant_across_simd_modes() {
        use crate::simd::{set_mode, SimdMode};
        let _guard = crate::simd::test_mode_guard();
        for n in [0, 1, 63, 255, 256, 257, 8192, 70_000] {
            let x = seq(n);
            let y0: Vec<f64> = x.iter().map(|v| v * 1.3 - 0.2).collect();
            set_mode(SimdMode::Scalar).unwrap();
            let d_scalar = dot(&x, &y0);
            let mut ax_scalar = y0.clone();
            axpy(0.3, &x, &mut ax_scalar);
            let mut sc_scalar = x.clone();
            scal(-1.7, &mut sc_scalar);
            if set_mode(SimdMode::Avx2).is_err() {
                return; // no AVX2 on this host; nothing to compare.
            }
            assert_eq!(d_scalar.to_bits(), dot(&x, &y0).to_bits(), "dot n={n}");
            let mut ax_simd = y0.clone();
            axpy(0.3, &x, &mut ax_simd);
            let mut sc_simd = x.clone();
            scal(-1.7, &mut sc_simd);
            for i in 0..n {
                assert_eq!(ax_scalar[i].to_bits(), ax_simd[i].to_bits(), "axpy n={n} i={i}");
                assert_eq!(sc_scalar[i].to_bits(), sc_simd[i].to_bits(), "scal n={n} i={i}");
            }
        }
    }

    #[test]
    fn nrm2_is_scale_safe() {
        // Would overflow with naive sum of squares.
        let x = [1e200, 1e200];
        let n = nrm2(&x);
        assert!((n - 2f64.sqrt() * 1e200).abs() / n < 1e-15);
        // Would underflow to zero with naive sum of squares.
        let y = [1e-200, 1e-200];
        let n = nrm2(&y);
        assert!((n - 2f64.sqrt() * 1e-200).abs() / n < 1e-15);
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0; 10]), 0.0);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn nrm2_propagates_inf() {
        assert!(nrm2(&[1.0, f64::INFINITY]).is_infinite());
        // NaN input: maxabs treats NaN as skipped by max; nrm2 of [NaN] is
        // then driven by the scaled sum, which is NaN (not finite) — accept
        // any non-finite result.
        assert!(!nrm2(&[f64::NAN, 1.0]).is_finite() || nrm2(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn normalize_unit_length() {
        let mut x = seq(257);
        let n0 = nrm2(&x);
        let returned = normalize(&mut x);
        assert_eq!(returned, n0);
        assert!((nrm2(&x) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0; 5];
        let n = normalize(&mut x);
        assert_eq!(n, 0.0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pairwise_sum_accuracy_vs_naive() {
        // Classic pathological case: many small values after a large one.
        let mut xs = vec![1.0_f64];
        xs.extend(std::iter::repeat(1e-16).take(100_000));
        let pw = pairwise_sum(&xs);
        let expected = 1.0 + 1e-16 * 100_000.0;
        assert!((pw - expected).abs() < 1e-12, "pairwise sum lost too much");
    }

    #[test]
    fn sub_and_axpy_and_scal() {
        let x = [1.0, 2.0];
        let y = [0.5, 1.0];
        let mut z = [0.0; 2];
        sub(&x, &y, &mut z);
        assert_eq!(z, [0.5, 1.0]);
        let mut w = [1.0, 1.0];
        axpy(2.0, &x, &mut w);
        assert_eq!(w, [3.0, 5.0]);
        scal(0.5, &mut w);
        assert_eq!(w, [1.5, 2.5]);
    }

    #[test]
    fn norm_inf_is_max_abs() {
        let x = [3.0, -4.0, 1.0];
        assert_eq!(norm_inf(&x), 4.0);
    }
}
