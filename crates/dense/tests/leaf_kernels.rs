//! The multi-chain leaf kernels against the plain scalar pairwise tree.
//!
//! `dot`, `nrm2`, `norm_inf` and the fused `axpy_dot` evaluate the leaves
//! of the canonical reduction tree 4 or 16 at a time. They must give the
//! bits of the textbook recursion — one left-to-right add chain per leaf
//! of at most `PAIRWISE_BASE` terms, `BLOCK`-sized blocks combined
//! pairwise — at every length and under every SIMD mode, including
//! inputs with signed zeros, subnormals, infinities and NaNs. NaN
//! payloads are not part of IEEE 754's contract, so any two NaNs compare
//! equal here; every other result must match bit for bit.

use proptest::prelude::*;
use sdc_dense::simd::{set_mode, test_mode_guard, SimdMode};
use sdc_dense::vector;
use sdc_parallel::{combine_blocks, BLOCK, PAIRWISE_BASE};

/// The textbook recursion over one block.
fn ref_tree(n: usize, lo: usize, term: &impl Fn(usize) -> f64) -> f64 {
    if n <= PAIRWISE_BASE {
        let mut acc = 0.0;
        for i in lo..lo + n {
            acc += term(i);
        }
        acc
    } else {
        let mid = n / 2;
        ref_tree(mid, lo, term) + ref_tree(n - mid, lo + mid, term)
    }
}

fn ref_blocks(n: usize, term: impl Fn(usize) -> f64) -> f64 {
    let partials: Vec<f64> =
        (0..n).step_by(BLOCK).map(|lo| ref_tree(BLOCK.min(n - lo), lo, &term)).collect();
    combine_blocks(&partials)
}

fn ref_dot(x: &[f64], y: &[f64]) -> f64 {
    ref_blocks(x.len(), |i| x[i] * y[i])
}

fn ref_norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

fn ref_nrm2(x: &[f64]) -> f64 {
    let maxabs = ref_norm_inf(x);
    if maxabs == 0.0 {
        return 0.0;
    }
    if !maxabs.is_finite() {
        return f64::INFINITY;
    }
    let inv = 1.0 / maxabs;
    maxabs
        * ref_blocks(x.len(), |i| {
            let s = x[i] * inv;
            s * s
        })
        .sqrt()
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// SplitMix64 values: mostly ordinary magnitudes across many decades,
/// with signed zeros and subnormals always mixed in, and infinities and
/// NaNs when `specials` is set.
fn values(n: usize, seed: u64, specials: bool) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            match z % 1000 {
                0..=9 => -0.0,
                10..=14 => 0.0,
                15..=24 => {
                    f64::from_bits(z & 0x000F_FFFF_FFFF_FFFF) * if z & 1 == 0 { 1.0 } else { -1.0 }
                }
                25 if specials => f64::INFINITY,
                26 if specials => f64::NEG_INFINITY,
                27 if specials => f64::NAN,
                _ => (u - 0.5) * 10f64.powi((z % 13) as i32 - 6),
            }
        })
        .collect()
}

/// Inputs for one check: `x`, `y` and the fused step's `p`.
struct Case {
    x: Vec<f64>,
    y: Vec<f64>,
    p: Vec<f64>,
}

impl Case {
    fn new(n: usize, seed: u64, specials: bool) -> Self {
        Case {
            x: values(n, seed, specials),
            y: values(n, seed ^ 0xABCD, specials),
            p: values(n, seed ^ 0x1234, specials),
        }
    }
}

const A: f64 = -0.3711;

/// The reference results for the first `n` elements of `c`: dot,
/// norm_inf, nrm2, the fused step's dot and its updated `v`.
fn references(c: &Case, n: usize) -> (f64, f64, f64, f64, Vec<f64>) {
    let (x, y, p) = (&c.x[..n], &c.y[..n], &c.p[..n]);
    let mut split = y.to_vec();
    for i in 0..n {
        split[i] += A * p[i];
    }
    (ref_dot(x, y), ref_norm_inf(x), ref_nrm2(x), ref_dot(x, &split), split)
}

/// Every kernel on the first `n` elements of `c`, in the current mode,
/// against `want` from [`references`].
fn check(c: &Case, n: usize, want: &(f64, f64, f64, f64, Vec<f64>)) -> Result<(), String> {
    let (x, y, p) = (&c.x[..n], &c.y[..n], &c.p[..n]);
    let fail = |what: &str, got: f64, want: f64| format!("{what} n={n}: {got:e} vs {want:e}");
    let mut fused = y.to_vec();
    let got = [
        ("dot", vector::dot(x, y), want.0),
        ("norm_inf", vector::norm_inf(x), want.1),
        ("nrm2", vector::nrm2(x), want.2),
        ("axpy_dot", vector::axpy_dot(A, p, x, &mut fused), want.3),
    ];
    for (what, got, want) in got {
        if !same(got, want) {
            return Err(fail(what, got, want));
        }
    }
    match (0..n).find(|&i| !same(fused[i], want.4[i])) {
        Some(i) => Err(fail(&format!("axpy_dot v[{i}]"), fused[i], want.4[i])),
        None => Ok(()),
    }
}

fn modes() -> Vec<SimdMode> {
    let mut m = vec![SimdMode::Scalar];
    if set_mode(SimdMode::Avx2).is_ok() {
        m.push(SimdMode::Avx2);
    }
    m
}

#[test]
fn every_length_to_4096_and_the_workload_sizes_match_the_scalar_tree() {
    let _guard = test_mode_guard();
    let modes = modes();
    for specials in [false, true] {
        // Length `n` checks a prefix of one long case.
        let case = Case::new(70_000, 7, specials);
        for n in (0..=4096).chain([7824, 1808, 10_000, 32_400, 70_000]) {
            let want = references(&case, n);
            for &mode in &modes {
                set_mode(mode).unwrap();
                check(&case, n, &want)
                    .unwrap_or_else(|e| panic!("{mode} specials={specials}: {e}"));
            }
        }
    }
}

#[test]
fn special_values_in_every_lane_position() {
    // One special value at each position of a 16-leaf group: every lane,
    // every step of the transposed loads, and the scalar tails.
    let _guard = test_mode_guard();
    for mode in modes() {
        set_mode(mode).unwrap();
        for n in [61 * 16 + 8, 1024, 200] {
            for special in
                [-0.0, f64::MIN_POSITIVE / 8.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
            {
                for pos in 0..n {
                    let mut x = vec![-0.0; n];
                    x[pos] = special;
                    let y: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { -1.5 } else { 0.0 }).collect();
                    let (got, want) = (vector::dot(&x, &y), ref_dot(&x, &y));
                    assert!(
                        same(got, want),
                        "{mode} dot n={n} pos={pos} {special}: {got} vs {want}"
                    );
                    let (got, want) = (vector::nrm2(&x), ref_nrm2(&x));
                    assert!(
                        same(got, want),
                        "{mode} nrm2 n={n} pos={pos} {special}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_lengths_and_values_match_the_scalar_tree(
        n in 0usize..20_000,
        seed in 0u64..u64::MAX,
        specials in 0u8..2,
    ) {
        let _guard = test_mode_guard();
        let case = Case::new(n, seed, specials == 1);
        let want = references(&case, n);
        for mode in modes() {
            set_mode(mode).unwrap();
            let checked = check(&case, n, &want);
            prop_assert!(checked.is_ok(), "{mode} seed={seed}: {:?}", checked);
        }
    }
}
