//! Contiguous index partitions.
//!
//! After the multicolor permutation, the unknowns `0..n` split into
//! contiguous color blocks (Red-u, Red-v, Black-u, Black-v, Green-u,
//! Green-v in the paper's plate problem). A [`Partition`] records the block
//! boundaries; the multicolor SSOR sweep, the CYBER vector layout and the
//! array-machine assignment all consume it.

use crate::error::SparseError;

/// A division of `0..n` into consecutive half-open ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Block boundaries: block `b` spans `offsets[b]..offsets[b+1]`.
    offsets: Vec<usize>,
}

impl Partition {
    /// Build from block sizes.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] if any block is empty — the
    /// multicolor SSOR sweep requires every color class to be nonempty.
    pub fn from_sizes(sizes: &[usize]) -> Result<Self, SparseError> {
        if sizes.contains(&0) {
            return Err(SparseError::InvalidPartition {
                reason: "empty block".into(),
            });
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &s in sizes {
            acc += s;
            offsets.push(acc);
        }
        Ok(Partition { offsets })
    }

    /// Single block covering `0..n`.
    pub fn single(n: usize) -> Self {
        Partition {
            offsets: vec![0, n.max(1)],
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of indices covered.
    #[inline]
    pub fn total_len(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Half-open range of block `b`.
    #[inline]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.offsets[b]..self.offsets[b + 1]
    }

    /// Size of block `b`.
    #[inline]
    pub fn block_len(&self, b: usize) -> usize {
        self.offsets[b + 1] - self.offsets[b]
    }

    /// Block containing index `i` (binary search).
    pub fn block_of(&self, i: usize) -> usize {
        debug_assert!(i < self.total_len(), "index outside partition");
        match self.offsets.binary_search(&i) {
            Ok(b) => b.min(self.num_blocks() - 1),
            Err(ins) => ins - 1,
        }
    }

    /// Raw boundary array.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Iterator over block ranges.
    pub fn iter(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.num_blocks()).map(move |b| self.range(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sizes_builds_offsets() {
        let p = Partition::from_sizes(&[3, 2, 4]).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.total_len(), 9);
        assert_eq!(p.range(1), 3..5);
        assert_eq!(p.block_len(2), 4);
    }

    #[test]
    fn rejects_empty_block() {
        assert!(Partition::from_sizes(&[2, 0, 1]).is_err());
    }

    #[test]
    fn block_of_finds_correct_block() {
        let p = Partition::from_sizes(&[3, 2, 4]).unwrap();
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(2), 0);
        assert_eq!(p.block_of(3), 1);
        assert_eq!(p.block_of(4), 1);
        assert_eq!(p.block_of(5), 2);
        assert_eq!(p.block_of(8), 2);
    }

    #[test]
    fn iter_covers_everything() {
        let p = Partition::from_sizes(&[1, 1, 1]).unwrap();
        let all: Vec<usize> = p.iter().flatten().collect();
        assert_eq!(all, vec![0, 1, 2]);
    }
}
