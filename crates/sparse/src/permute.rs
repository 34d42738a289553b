//! Permutation vectors.
//!
//! Reorderings are the heart of the paper: the multicolor ordering permutes
//! the stiffness matrix into the 6-block form (3.1) and the CYBER
//! implementation renumbers equations color-by-color to maximize vector
//! length. A [`Permutation`] stores the *new → old* map (a gather order);
//! its [`inverse`](Permutation::inverse) is the scatter map.

use crate::error::SparseError;

/// A bijection on `0..n`, stored as `order[new_index] = old_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    order: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            order: (0..n).collect(),
        }
    }

    /// Build from a new→old order, validating bijectivity.
    ///
    /// # Errors
    /// [`SparseError::InvalidPermutation`] if any index repeats or is out of
    /// range.
    pub fn from_new_to_old(order: Vec<usize>) -> Result<Self, SparseError> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &o in &order {
            if o >= n || seen[o] {
                return Err(SparseError::InvalidPermutation { len: n, culprit: o });
            }
            seen[o] = true;
        }
        Ok(Permutation { order })
    }

    /// Length of the permuted index set.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the permutation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Old index corresponding to `new`.
    #[inline]
    pub fn new_to_old(&self, new: usize) -> usize {
        self.order[new]
    }

    /// New index corresponding to `old` (O(1) via [`Permutation::inverse`]
    /// if called repeatedly — this form is O(n) worst-case only when used
    /// once; here it is a direct lookup because we precompute nothing).
    #[inline]
    pub fn old_to_new(&self, old: usize) -> usize {
        // Callers that need many lookups should use `inverse()` once.
        self.order
            .iter()
            .position(|&o| o == old)
            .expect("old index out of range")
    }

    /// The inverse permutation (`inverse.new_to_old == self.old_to_new`).
    pub fn inverse(&self) -> InversePermutation {
        let mut inv = vec![0usize; self.order.len()];
        for (new, &old) in self.order.iter().enumerate() {
            inv[old] = new;
        }
        InversePermutation { map: inv }
    }

    /// Gather a vector: `out[new] = x[order[new]]`.
    ///
    /// # Panics
    /// Panics if `x.len() != len()`.
    pub fn gather(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.order.len(), "gather: length mismatch");
        self.order.iter().map(|&o| x[o]).collect()
    }

    /// Scatter a permuted vector back: `out[order[new]] = x[new]`.
    ///
    /// # Panics
    /// Panics if `x.len() != len()`.
    pub fn scatter(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.order.len(), "scatter: length mismatch");
        let mut out = vec![0.0; x.len()];
        for (new, &old) in self.order.iter().enumerate() {
            out[old] = x[new];
        }
        out
    }

    /// Raw new→old order.
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }
}

/// Precomputed old→new lookup produced by [`Permutation::inverse`].
#[derive(Debug, Clone)]
pub struct InversePermutation {
    map: Vec<usize>,
}

impl InversePermutation {
    /// New index for `old`.
    #[inline]
    pub fn old_to_new(&self, old: usize) -> usize {
        self.map[old]
    }

    /// Raw old→new map.
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let p = Permutation::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.gather(&x), x.to_vec());
        assert_eq!(p.scatter(&x), x.to_vec());
    }

    #[test]
    fn rejects_duplicate_indices() {
        assert!(Permutation::from_new_to_old(vec![0, 0, 1]).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Permutation::from_new_to_old(vec![0, 3]).is_err());
    }

    #[test]
    fn gather_scatter_inverse() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let x = [10.0, 11.0, 12.0, 13.0];
        let g = p.gather(&x);
        assert_eq!(g, vec![12.0, 10.0, 13.0, 11.0]);
        assert_eq!(p.scatter(&g), x.to_vec());
    }

    #[test]
    fn inverse_agrees_with_old_to_new() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        for old in 0..3 {
            assert_eq!(inv.old_to_new(old), p.old_to_new(old));
        }
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert_eq!(p.gather(&[]), Vec::<f64>::new());
    }
}
