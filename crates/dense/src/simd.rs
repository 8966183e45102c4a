//! Runtime SIMD dispatch and the AVX2 bodies of the dense kernels.
//!
//! The workspace's determinism contract says every floating-point result
//! is a pure function of the *logical* operation sequence — never of
//! thread count, storage format, or (now) instruction set. The kernels
//! here therefore vectorize **across independent scalar chains**, not
//! within one chain:
//!
//! * [`axpy4`]/[`scal4`] are element-wise maps — each lane computes one
//!   `a * x[i]` / `x[i] * a` with a separate multiply and add, exactly
//!   the scalar op per element, so the result is trivially bitwise
//!   identical (no FMA: fusing would change the rounding of `y + a*x`).
//! * `chains` evaluates the leaves of the canonical pairwise tree (see
//!   [`crate::vector`]) 4 or 16 at a time. Each leaf is one scalar add
//!   chain of at most [`PAIRWISE_BASE`] terms; a single chain is bound by
//!   add latency, 16 side by side by throughput. The AVX2 body loads four
//!   consecutive terms of each of four leaves, transposes the 4×4 block so
//!   lane `l` holds leaf `l`'s terms in order, and adds them one after the
//!   other — lane `l` performs precisely the additions the scalar leaf
//!   performs, in the same order. Leaves of a ragged tree differ in length
//!   by one; the vector loop stops at the shortest leaf and each chain
//!   finishes its own tail in scalar code. The portable body runs the
//!   same chains interleaved in scalar registers. Dot products, the
//!   fused MGS update-and-dot and `nrm2`'s scaled squares all go through
//!   it, each supplying its terms as a `Terms` implementation.
//! * `max_abs` is `nrm2`'s scaling pass. A maximum is exact and ignores
//!   NaN operands in every order, so four vector accumulators give the
//!   same bits as the scalar fold.
//!
//! Mode selection happens once per process: the first kernel that asks
//! reads `SDC_SIMD` (`auto` | `avx2` | `scalar`), resolves `auto` via
//! `is_x86_feature_detected!`, and caches the answer in an atomic. The
//! shared CLI's `--simd` flag overrides the cache before any kernel runs.
//!
//! [`PAIRWISE_BASE`]: sdc_parallel::PAIRWISE_BASE

use std::sync::atomic::{AtomicU8, Ordering};

/// The user-facing SIMD mode (`SDC_SIMD` env var / `--simd` flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the widest ISA the CPU supports (the default).
    #[default]
    Auto,
    /// Require the AVX2+FMA kernels; an error if the CPU lacks them.
    Avx2,
    /// Force the scalar fallback kernels.
    Scalar,
}

impl SimdMode {
    /// The env/CLI string for this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Avx2 => "avx2",
            SimdMode::Scalar => "scalar",
        }
    }

    /// Parses an env/CLI string (`auto`, `avx2` or `scalar`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SimdMode::Auto),
            "avx2" => Ok(SimdMode::Avx2),
            "scalar" => Ok(SimdMode::Scalar),
            other => Err(format!("unknown SIMD mode '{other}' (expected auto|avx2|scalar)")),
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The instruction set the kernels actually run on after dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX2 `f64x4` kernels (detection also requires FMA; no kernel fuses).
    Avx2,
    /// Portable scalar kernels.
    Scalar,
}

impl Isa {
    /// Stable name for traces, metrics and bench dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }

    /// Independent `f64` lanes per vector register (4 for AVX2).
    pub fn lanes(&self) -> usize {
        match self {
            Isa::Avx2 => 4,
            Isa::Scalar => 1,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widest ISA this CPU supports. The AVX2 gate also checks FMA:
/// no kernel fuses (fusing would change the rounding), but the two
/// features ship together on every AVX2-era core, so the check costs
/// nothing and keeps the dispatch binary.
pub fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

// 0 = undecided, 1 = Avx2, 2 = Scalar. Relaxed is enough: the value is
// write-once-ish config, not a synchronization edge.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(isa: Isa) -> u8 {
    match isa {
        Isa::Avx2 => 1,
        Isa::Scalar => 2,
    }
}

/// The ISA the kernels dispatch to. First call resolves `SDC_SIMD`
/// (unset or unparseable ⇒ `auto`) against [`detected`] and caches the
/// answer; an env request for `avx2` on a CPU without it quietly falls
/// back to scalar (the CLI flag, by contrast, errors — see
/// [`set_mode`]).
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Isa::Avx2,
        2 => Isa::Scalar,
        _ => {
            let mode = std::env::var("SDC_SIMD")
                .ok()
                .and_then(|s| SimdMode::parse(&s).ok())
                .unwrap_or_default();
            let isa = match (mode, detected()) {
                (SimdMode::Scalar, _) | (SimdMode::Avx2, Isa::Scalar) => Isa::Scalar,
                (_, det) => det,
            };
            ACTIVE.store(encode(isa), Ordering::Relaxed);
            isa
        }
    }
}

/// Resolves and installs `mode`, returning the resulting ISA. `Avx2` on
/// a CPU without AVX2+FMA is an error (an explicit CLI request must not
/// silently degrade). Called by the shared CLI's `--simd` flag and by
/// tests pinning a specific kernel path.
pub fn set_mode(mode: SimdMode) -> Result<Isa, String> {
    let isa = match mode {
        SimdMode::Scalar => Isa::Scalar,
        SimdMode::Auto => detected(),
        SimdMode::Avx2 => match detected() {
            Isa::Avx2 => Isa::Avx2,
            Isa::Scalar => {
                return Err("--simd avx2 requested but this CPU lacks avx2+fma".to_string())
            }
        },
    };
    ACTIVE.store(encode(isa), Ordering::Relaxed);
    Ok(isa)
}

/// Serializes tests that flip the global mode, restoring `auto`
/// resolution on drop. Kernel *results* are mode-invariant by
/// construction, but tests asserting which path ran must not race.
pub fn test_mode_guard() -> ModeGuard {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ModeGuard { _inner: LOCK.lock().unwrap_or_else(|e| e.into_inner()) }
}

/// Guard returned by [`test_mode_guard`].
pub struct ModeGuard {
    _inner: std::sync::MutexGuard<'static, ()>,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        let _ = set_mode(SimdMode::Auto);
    }
}

/// `y ← a·x + y` over four lanes; `None` when the scalar path should
/// run. Each element still computes `y[i] + a * x[i]` with separate
/// multiply and add, so the result is bitwise-identical to scalar.
#[inline]
pub fn axpy4(a: f64, x: &[f64], y: &mut [f64]) -> Option<()> {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 && x.len() >= 8 {
            // SAFETY: AVX2 availability was verified by `active()`.
            unsafe { avx2::axpy(a, x, y) };
            return Some(());
        }
    }
    let _ = (a, x, y);
    None
}

/// `x ← a·x` over four lanes; `None` when the scalar path should run.
#[inline]
pub fn scal4(a: f64, x: &mut [f64]) -> Option<()> {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 && x.len() >= 8 {
            // SAFETY: AVX2 availability was verified by `active()`.
            unsafe { avx2::scal(a, x) };
            return Some(());
        }
    }
    let _ = (a, x);
    None
}

/// The terms one pairwise-tree leaf adds up; `at(i)` is term `i`.
///
/// # Safety
/// Implementations read through raw pointers (and [`AxpyDot::prepare`]
/// writes). Callers keep every index (and `i + 3` for [`Terms::at4`])
/// inside the buffers the value was built from, and `prepare` a range
/// before reading any term of it.
pub(crate) unsafe trait Terms: Copy {
    /// Updates `lo..lo + len` before its terms are read; nothing by
    /// default.
    #[inline(always)]
    unsafe fn prepare(self, _lo: usize, _len: usize) {}
    /// Term `i`.
    unsafe fn at(self, i: usize) -> f64;
    /// Terms `i..i + 4`, each computed exactly as [`Terms::at`] does.
    #[cfg(target_arch = "x86_64")]
    unsafe fn at4(self, i: usize) -> std::arch::x86_64::__m256d;
}

/// `x[i] * y[i]`: a dot product's terms (operands in this order).
#[derive(Clone, Copy)]
pub(crate) struct Dot {
    pub x: *const f64,
    pub y: *const f64,
}

unsafe impl Terms for Dot {
    #[inline(always)]
    unsafe fn at(self, i: usize) -> f64 {
        *self.x.add(i) * *self.y.add(i)
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn at4(self, i: usize) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        _mm256_mul_pd(_mm256_loadu_pd(self.x.add(i)), _mm256_loadu_pd(self.y.add(i)))
    }
}

/// `(x[i] * inv)²`: `nrm2`'s scaled squares.
#[derive(Clone, Copy)]
pub(crate) struct ScaledSquares {
    pub x: *const f64,
    pub inv: f64,
}

unsafe impl Terms for ScaledSquares {
    #[inline(always)]
    unsafe fn at(self, i: usize) -> f64 {
        let s = *self.x.add(i) * self.inv;
        s * s
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn at4(self, i: usize) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        let s = _mm256_mul_pd(_mm256_loadu_pd(self.x.add(i)), _mm256_set1_pd(self.inv));
        _mm256_mul_pd(s, s)
    }
}

/// The fused MGS step: `prepare` applies `v ← v + a·p` to a range (the
/// plain [`crate::vector::axpy`]), then the terms are `q[i] * v[i]` of
/// the updated `v`. A leaf group's range is about 1,024 elements, so the
/// dot reads `v` back from L1.
#[derive(Clone, Copy)]
pub(crate) struct AxpyDot {
    pub a: f64,
    pub p: *const f64,
    pub q: *const f64,
    pub v: *mut f64,
}

unsafe impl Terms for AxpyDot {
    #[inline(always)]
    unsafe fn prepare(self, lo: usize, len: usize) {
        crate::vector::axpy(
            self.a,
            std::slice::from_raw_parts(self.p.add(lo), len),
            std::slice::from_raw_parts_mut(self.v.add(lo), len),
        );
    }
    #[inline(always)]
    unsafe fn at(self, i: usize) -> f64 {
        *self.q.add(i) * *self.v.add(i)
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn at4(self, i: usize) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        _mm256_mul_pd(_mm256_loadu_pd(self.q.add(i)), _mm256_loadu_pd(self.v.add(i)))
    }
}

/// Sums `C` leaves side by side: leaf `c` is the add chain `0.0 +
/// t.at(starts[c]) + t.at(starts[c] + 1) + …` over `lens[c]` terms,
/// evaluated left to right exactly as the scalar loop does. `C` is 4 or
/// 16.
///
/// # Safety
/// Every leaf range must be valid for `t` (see [`Terms`]).
#[inline]
pub(crate) unsafe fn chains<T: Terms, const C: usize>(
    t: T,
    starts: &[usize; C],
    lens: &[usize; C],
) -> [f64; C] {
    const { assert!(C % 4 == 0) };
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 {
            return avx2::chains(t, starts, lens);
        }
    }
    let shortest = lens.iter().copied().min().unwrap_or(0);
    let mut sums = [0.0; C];
    for i in 0..shortest {
        for c in 0..C {
            sums[c] += t.at(starts[c] + i);
        }
    }
    finish_chains(t, starts, lens, shortest, &mut sums);
    sums
}

/// Adds each leaf's terms from `from` to its end onto `sums`.
#[inline(always)]
unsafe fn finish_chains<T: Terms, const C: usize>(
    t: T,
    starts: &[usize; C],
    lens: &[usize; C],
    from: usize,
    sums: &mut [f64; C],
) {
    for c in 0..C {
        for i in from..lens[c] {
            sums[c] += t.at(starts[c] + i);
        }
    }
}

/// `max |x_i|`, ignoring NaN elements (0 for an empty or all-NaN `x`):
/// bitwise the fold `x.iter().fold(0.0, |m, v| m.max(v.abs()))`.
#[inline]
pub(crate) fn max_abs(x: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 && x.len() >= 16 {
            // SAFETY: AVX2 availability was verified by `active()`.
            return unsafe { avx2::max_abs(x) };
        }
    }
    let mut m = [0.0f64; 4];
    let mut quads = x.chunks_exact(4);
    for q in &mut quads {
        for k in 0..4 {
            m[k] = m[k].max(q[k].abs());
        }
    }
    let tail = quads.remainder().iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    m.iter().fold(tail, |acc, &v| acc.max(v))
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_mut_ptr().add(i));
            // mul then add, not FMA: bitwise-matches the scalar kernel.
            let r = _mm256_add_pd(yv, _mm256_mul_pd(av, xv));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            y[i] += a * x[i];
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scal(a: f64, x: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            _mm256_storeu_pd(x.as_mut_ptr().add(i), _mm256_mul_pd(xv, av));
            i += 4;
        }
        while i < n {
            x[i] *= a;
            i += 1;
        }
    }

    /// Transposes four rows of four lanes: lane `l` of result `k` is
    /// lane `k` of row `l`.
    #[inline(always)]
    unsafe fn transpose(r: [__m256d; 4]) -> [__m256d; 4] {
        let t0 = _mm256_unpacklo_pd(r[0], r[1]);
        let t1 = _mm256_unpackhi_pd(r[0], r[1]);
        let t2 = _mm256_unpacklo_pd(r[2], r[3]);
        let t3 = _mm256_unpackhi_pd(r[2], r[3]);
        [
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        ]
    }

    /// See [`super::chains`]. Register `g` carries leaves `4g..4g + 4`,
    /// one per lane; each step loads four consecutive terms of each leaf,
    /// transposes them into term order and adds them one at a time, so
    /// every lane repeats its scalar chain. Separate mul and add, no FMA.
    ///
    /// # Safety
    /// Requires AVX2; every leaf range valid for `t`; `C` is 4 or 16.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn chains<T: super::Terms, const C: usize>(
        t: T,
        starts: &[usize; C],
        lens: &[usize; C],
    ) -> [f64; C] {
        let shortest = lens.iter().copied().min().unwrap_or(0);
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut i = 0;
        while i + 4 <= shortest {
            for g in 0..C / 4 {
                let s = &starts[4 * g..4 * g + 4];
                let cols =
                    transpose([t.at4(s[0] + i), t.at4(s[1] + i), t.at4(s[2] + i), t.at4(s[3] + i)]);
                let mut a = acc[g];
                for c in cols {
                    a = _mm256_add_pd(a, c);
                }
                acc[g] = a;
            }
            i += 4;
        }
        let mut sums = [0.0; C];
        for g in 0..C / 4 {
            _mm256_storeu_pd(sums.as_mut_ptr().add(4 * g), acc[g]);
        }
        super::finish_chains(t, starts, lens, i, &mut sums);
        sums
    }

    /// See [`super::max_abs`]. `_mm256_max_pd(v, m)` returns `m` when
    /// `v` is NaN, as `f64::max` does.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs(x: &[f64]) -> f64 {
        let n = x.len();
        let sign = _mm256_set1_pd(-0.0);
        let mut m = [_mm256_setzero_pd(); 4];
        let mut i = 0;
        while i + 16 <= n {
            for (k, mk) in m.iter_mut().enumerate() {
                let v = _mm256_andnot_pd(sign, _mm256_loadu_pd(x.as_ptr().add(i + 4 * k)));
                *mk = _mm256_max_pd(v, *mk);
            }
            i += 16;
        }
        let mut lanes = [0.0f64; 16];
        for (k, mk) in m.iter().enumerate() {
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4 * k), *mk);
        }
        let tail = x[i..].iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        lanes.iter().fold(tail, |acc, &v| acc.max(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_strings_round_trip() {
        for m in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Scalar] {
            assert_eq!(SimdMode::parse(m.as_str()).unwrap(), m);
            assert_eq!(format!("{m}"), m.as_str());
        }
        assert!(SimdMode::parse("sse9").is_err());
        assert_eq!(SimdMode::default(), SimdMode::Auto);
    }

    #[test]
    fn isa_lanes_and_names() {
        assert_eq!(Isa::Avx2.lanes(), 4);
        assert_eq!(Isa::Scalar.lanes(), 1);
        assert_eq!(Isa::Avx2.as_str(), "avx2");
        assert_eq!(format!("{}", Isa::Scalar), "scalar");
    }

    #[test]
    fn set_mode_respects_detection() {
        let _guard = test_mode_guard();
        assert_eq!(set_mode(SimdMode::Scalar).unwrap(), Isa::Scalar);
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(set_mode(SimdMode::Auto).unwrap(), detected());
        match detected() {
            Isa::Avx2 => assert_eq!(set_mode(SimdMode::Avx2).unwrap(), Isa::Avx2),
            Isa::Scalar => assert!(set_mode(SimdMode::Avx2).is_err()),
        }
    }

    #[test]
    fn avx2_kernels_bitwise_match_scalar() {
        let _guard = test_mode_guard();
        if set_mode(SimdMode::Avx2).is_err() {
            return; // no AVX2 on this host; the proptests cover scalar.
        }
        let x: Vec<f64> = (0..301).map(|i| (i as f64 * 0.31).sin() * 1e3).collect();
        let y0: Vec<f64> = (0..301).map(|i| (i as f64 * 0.17).cos() - 0.4).collect();
        let a = 0.734_f64;

        let mut y_simd = y0.clone();
        assert!(axpy4(a, &x, &mut y_simd).is_some());
        set_mode(SimdMode::Scalar).unwrap();
        assert!(axpy4(a, &x, &mut y0.clone()).is_none());
        let mut y_scalar = y0.clone();
        for (yi, xi) in y_scalar.iter_mut().zip(x.iter()) {
            *yi += a * xi;
        }
        for (s, v) in y_scalar.iter().zip(y_simd.iter()) {
            assert_eq!(s.to_bits(), v.to_bits());
        }

        set_mode(SimdMode::Avx2).unwrap();
        let mut xs = x.clone();
        assert!(scal4(a, &mut xs).is_some());
        let mut xr = x.clone();
        for v in xr.iter_mut() {
            *v *= a;
        }
        for (s, v) in xr.iter().zip(xs.iter()) {
            assert_eq!(s.to_bits(), v.to_bits());
        }
    }
}
