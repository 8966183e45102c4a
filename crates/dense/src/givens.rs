//! Givens plane rotations.
//!
//! GMRES solves its projected least-squares problem by a *structured* QR
//! factorization (Saad & Schultz): each new Hessenberg column is reduced by
//! one new Givens rotation, and the rotations are retained so the
//! factorization is updated in `O(k)` per iteration instead of recomputed in
//! `O(k³)`. This module provides the robust construction (in the style of
//! LAPACK `dlartg`) and application of those rotations.

/// A plane rotation `G = [c s; -s c]` with `c² + s² = 1`, chosen so that
/// `G · [a; b] = [r; 0]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GivensRotation {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
    /// The resulting `r = c·a + s·b`.
    pub r: f64,
}

impl GivensRotation {
    /// Computes the rotation annihilating `b` against `a`, robust against
    /// overflow/underflow of `sqrt(a² + b²)`.
    pub fn compute(a: f64, b: f64) -> Self {
        if b == 0.0 {
            // Includes the (0, 0) case: identity rotation.
            GivensRotation { c: 1.0, s: 0.0, r: a }
        } else if a == 0.0 {
            GivensRotation { c: 0.0, s: b.signum(), r: b.abs() }
        } else if a.abs() > b.abs() {
            let t = b / a;
            let u = (1.0 + t * t).sqrt().copysign(a);
            let c = 1.0 / u;
            GivensRotation { c, s: t * c, r: a * u }
        } else {
            let t = a / b;
            let u = (1.0 + t * t).sqrt().copysign(b);
            let s = 1.0 / u;
            GivensRotation { c: t * s, s, r: b * u }
        }
    }

    /// Applies the rotation to the pair `(x, y)`, returning
    /// `(c·x + s·y, -s·x + c·y)`.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        (self.c * x + self.s * y, -self.s * x + self.c * y)
    }

    /// Applies the rotation to rows `i` and `i+1` of a column vector stored
    /// as a slice — the access pattern of Hessenberg QR updates.
    #[inline]
    pub fn apply_to_column(&self, col: &mut [f64], i: usize) {
        let (nx, ny) = self.apply(col[i], col[i + 1]);
        col[i] = nx;
        col[i + 1] = ny;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: f64, b: f64) {
        let g = GivensRotation::compute(a, b);
        // Orthonormality.
        assert!((g.c * g.c + g.s * g.s - 1.0).abs() < 1e-14, "c²+s²≠1 for ({a},{b})");
        // Annihilation.
        let (r, zero) = g.apply(a, b);
        assert!(
            zero.abs() <= 1e-13 * r.abs().max(1e-300),
            "second component not annihilated for ({a},{b}): {zero}"
        );
        assert!((r - g.r).abs() <= 1e-13 * g.r.abs().max(1e-300));
        // r carries the magnitude.
        let hyp = a.hypot(b);
        assert!((r.abs() - hyp).abs() <= 1e-12 * hyp.max(1e-300), "|r|≠hypot for ({a},{b})");
    }

    #[test]
    fn annihilates_standard_cases() {
        check(3.0, 4.0);
        check(4.0, 3.0);
        check(-3.0, 4.0);
        check(3.0, -4.0);
        check(-3.0, -4.0);
        check(1.0, 0.0);
        check(0.0, 1.0);
        check(0.0, -1.0);
        check(1e-8, 1.0);
        check(1.0, 1e-8);
    }

    #[test]
    fn zero_zero_is_identity() {
        let g = GivensRotation::compute(0.0, 0.0);
        assert_eq!(g.c, 1.0);
        assert_eq!(g.s, 0.0);
        assert_eq!(g.r, 0.0);
    }

    #[test]
    fn extreme_magnitudes_do_not_overflow() {
        check(1e200, 1e200);
        check(1e-200, 1e-200);
        check(1e200, 1e-200);
        check(1e-200, 1e200);
        check(1e300, 5e299);
    }

    #[test]
    fn apply_preserves_norm() {
        let g = GivensRotation::compute(2.0, -7.0);
        let (x, y) = (0.3, -0.9);
        let (nx, ny) = g.apply(x, y);
        let before = x.hypot(y);
        let after = nx.hypot(ny);
        assert!((before - after).abs() < 1e-14);
    }

    #[test]
    fn apply_to_column_rotates_adjacent_rows() {
        let g = GivensRotation::compute(1.0, 1.0);
        let mut col = vec![5.0, 1.0, 1.0, 9.0];
        g.apply_to_column(&mut col, 1);
        assert_eq!(col[0], 5.0);
        assert_eq!(col[3], 9.0);
        assert!((col[1] - 2.0_f64.sqrt()).abs() < 1e-14);
        assert!(col[2].abs() < 1e-14);
    }

    #[test]
    fn huge_fault_values_stay_finite() {
        // The detector experiments scale Hessenberg entries by 1e150; the
        // rotation construction must not overflow when it meets them.
        let g = GivensRotation::compute(1e150, 0.5);
        assert!(g.c.is_finite() && g.s.is_finite() && g.r.is_finite());
        let g = GivensRotation::compute(0.5, 1e150);
        assert!(g.c.is_finite() && g.s.is_finite() && g.r.is_finite());
    }
}
