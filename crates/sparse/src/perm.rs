//! The row permutation of SELL-C-σ: [`crate::sell::SellMatrix`] sorts rows
//! by length inside each σ-window and keeps the validated map between
//! stored and original row order.

/// A validated permutation of `0..n`: `perm[new_index] = old_index`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Permutation {
    /// Builds from `perm[new] = old`, validating bijectivity.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn from_vec(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (new, &old) in forward.iter().enumerate() {
            assert!(old < n, "permutation entry {old} out of range");
            assert!(inverse[old] == usize::MAX, "duplicate permutation entry {old}");
            inverse[old] = new;
        }
        Self { forward, inverse }
    }

    /// `perm[new] = old`.
    pub fn forward(&self) -> &[usize] {
        &self.forward
    }

    /// `inv[old] = new`.
    pub fn inverse(&self) -> &[usize] {
        &self.inverse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_round_trip() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]);
        assert_eq!(p.inverse(), &[1, 3, 0, 2]);
        for (new, &old) in p.forward().iter().enumerate() {
            assert_eq!(p.inverse()[old], new);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_non_bijection() {
        Permutation::from_vec(vec![0, 0, 1]);
    }
}
