//! SIMD SpMV kernels.
//!
//! Mode selection (`SDC_SIMD`, `--simd`) lives in [`sdc_dense::simd`]
//! and is re-exported here so sparse callers see one dispatch point;
//! this module adds the SELL chunk kernel (`avx2::sell_chunk8`). The
//! SELL-C-σ slab stores `C = 8` rows lane-interleaved, so the kernel
//! runs the eight independent row accumulations in two `f64x4` register
//! groups. Each lane performs exactly its row's scalar op sequence —
//! `acc += a_ij · x_j` in ascending-column order, separate multiply and
//! add (no FMA: fusing would change the rounding) — and row raggedness
//! is handled by *blending the accumulator*, never by adding a
//! masked-to-zero product (`acc + 0.0` would flush `-0.0` to `+0.0` and
//! canonicalize NaN payloads of finished lanes). A masked gather keeps
//! padding slots unread, preserving the architectural-masking contract
//! the fault campaigns rely on. The result is bitwise identical to the
//! scalar kernel — and therefore to CSR — so `SDC_SIMD` never perturbs
//! an artifact byte.

pub use sdc_dense::simd::{active, detected, set_mode, test_mode_guard, Isa, ModeGuard, SimdMode};

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// Strict SELL kernel over one full `C = 8` chunk: lanes 0–3 in
    /// `acc0`, lanes 4–7 in `acc1`. See the module docs for why the
    /// masking blends accumulators and why there is no FMA here.
    ///
    /// # Safety
    /// Requires AVX2. `row_len8.len() == out.len() == 8`; the slab
    /// `[base, base + 8·width)` must lie inside `values`/`col_idx`.
    /// Column indices of *live* (non-padding) slots are range-checked
    /// against `x` and panic exactly like the scalar kernel's slice
    /// index; padding slots are never dereferenced.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sell_chunk8(
        values: &[f64],
        col_idx: &[usize],
        x: &[f64],
        base: usize,
        width: usize,
        row_len8: &[usize],
        out: &mut [f64],
    ) {
        debug_assert_eq!(row_len8.len(), 8);
        debug_assert_eq!(out.len(), 8);
        debug_assert!(base + 8 * width <= values.len().min(col_idx.len()));
        let rl0 = _mm256_loadu_si256(row_len8.as_ptr() as *const __m256i);
        let rl1 = _mm256_loadu_si256(row_len8.as_ptr().add(4) as *const __m256i);
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut slot = base;
        for k in 0..width {
            let kv = _mm256_set1_epi64x(k as i64);
            // Lane live while its row still has entries at depth k.
            let m0 = _mm256_cmpgt_epi64(rl0, kv);
            let m1 = _mm256_cmpgt_epi64(rl1, kv);
            acc0 = lane_step(values, col_idx, x, slot, m0, acc0);
            acc1 = lane_step(values, col_idx, x, slot + 4, m1, acc1);
            slot += 8;
        }
        _mm256_storeu_pd(out.as_mut_ptr(), acc0);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), acc1);
    }

    /// One depth-k step for four lanes: masked gather of `x`, separate
    /// mul/add, accumulator blend on the live mask.
    ///
    /// # Safety
    /// Requires AVX2; `slot + 4 <= values.len().min(col_idx.len())`.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_step(
        values: &[f64],
        col_idx: &[usize],
        x: &[f64],
        slot: usize,
        live: __m256i,
        acc: __m256d,
    ) -> __m256d {
        let idx = _mm256_loadu_si256(col_idx.as_ptr().add(slot) as *const __m256i);
        // Unsigned `idx < x.len()` via sign-bias (a bit-flipped index can
        // have its top bit set, which a signed compare would call small).
        let bias = _mm256_set1_epi64x(i64::MIN);
        let bound = _mm256_xor_si256(_mm256_set1_epi64x(x.len() as i64), bias);
        let valid = _mm256_cmpgt_epi64(bound, _mm256_xor_si256(idx, bias));
        if _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_andnot_si256(valid, live))) != 0 {
            // A live lane's index is out of range: reproduce the scalar
            // kernel's bounds-check panic: a loud crash, never a wild read.
            let live_l: [i64; 4] = std::mem::transmute(live);
            for (lane, &l) in live_l.iter().enumerate() {
                if l != 0 {
                    let _ = x[col_idx[slot + lane]];
                }
            }
        }
        // Masked gather: padding slots are architecturally unread.
        let gx = _mm256_mask_i64gather_pd::<8>(
            _mm256_setzero_pd(),
            x.as_ptr(),
            idx,
            _mm256_castsi256_pd(live),
        );
        let v = _mm256_loadu_pd(values.as_ptr().add(slot));
        // mul then add — the scalar op sequence — then blend so finished
        // lanes keep their bits untouched.
        let sum = _mm256_add_pd(acc, _mm256_mul_pd(v, gx));
        _mm256_blendv_pd(acc, sum, _mm256_castsi256_pd(live))
    }
}
