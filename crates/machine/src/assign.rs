//! Node-to-processor assignment for the Finite Element Machine (§3.2,
//! Figures 3 and 5).
//!
//! The paper assigns each processor "as nearly as possible, an equal
//! number of Red/Black/Green unconstrained nodes". We reproduce this with
//! contiguous row-major strips of the free nodes: because the R/B/G
//! coloring is cyclic with period 3 along the free-node ordering whenever
//! the number of free columns ≡ 2 (mod 3) — true for the paper's 6×6
//! plate — equal strip sizes divisible by 3 give *perfectly* balanced
//! colors, exactly as in Figure 5.

use mspcg_coloring::grid::NodeColor;
use mspcg_fem::plate::AssembledProblem;
use mspcg_fem::PlateMesh;
use mspcg_sparse::SparseError;

/// Which processor owns each unconstrained node.
#[derive(Debug, Clone)]
pub struct ProcessorAssignment {
    p: usize,
    mesh: PlateMesh,
    /// Full-grid node ids of the free nodes, row-major ascending.
    free_nodes: Vec<usize>,
    /// Owner processor of `free_nodes[k]`.
    owner: Vec<usize>,
    /// Owner lookup by full node id (usize::MAX = constrained).
    owner_by_node: Vec<usize>,
}

impl ProcessorAssignment {
    /// Contiguous balanced strips over the free nodes.
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] if `p == 0` or `p` exceeds the
    /// number of free nodes.
    pub fn strips(asm: &AssembledProblem, p: usize) -> Result<Self, SparseError> {
        let mesh = asm.mesh;
        let mut free_nodes = Vec::new();
        for node in 0..mesh.num_nodes() {
            if asm.free_map.full_to_reduced(2 * node).is_some() {
                free_nodes.push(node);
            }
        }
        if p == 0 || p > free_nodes.len() {
            return Err(SparseError::InvalidPartition {
                reason: format!("{p} processors for {} free nodes", free_nodes.len()),
            });
        }
        let n = free_nodes.len();
        let base = n / p;
        let extra = n % p;
        let mut owner = Vec::with_capacity(n);
        for q in 0..p {
            let size = base + usize::from(q < extra);
            owner.extend(std::iter::repeat_n(q, size));
        }
        let mut owner_by_node = vec![usize::MAX; mesh.num_nodes()];
        for (k, &node) in free_nodes.iter().enumerate() {
            owner_by_node[node] = owner[k];
        }
        Ok(ProcessorAssignment {
            p,
            mesh,
            free_nodes,
            owner,
            owner_by_node,
        })
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.p
    }

    /// Free nodes owned by processor `q` (full-grid node ids).
    pub fn nodes_of(&self, q: usize) -> Vec<usize> {
        self.free_nodes
            .iter()
            .zip(&self.owner)
            .filter(|&(_, &o)| o == q)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Owner of a full-grid node id (`None` for constrained nodes).
    pub fn owner_of(&self, node: usize) -> Option<usize> {
        let o = self.owner_by_node[node];
        (o != usize::MAX).then_some(o)
    }

    /// R/B/G counts of processor `q`'s nodes.
    pub fn color_counts(&self, q: usize) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for node in self.nodes_of(q) {
            let (r, c) = self.mesh.node_row_col(node);
            counts[NodeColor::of(r, c) as usize] += 1;
        }
        counts
    }

    /// True when every processor owns the same number of nodes of each
    /// color (the paper's requirement for ideal speedup).
    pub fn colors_balanced(&self) -> bool {
        let first = self.color_counts(0);
        (1..self.p).all(|q| self.color_counts(q) == first)
    }

    /// 2-D block assignment on a `pr × pc` processor grid (paper Fig. 3):
    /// the free-node bounding box is cut into `pr` row bands × `pc` column
    /// bands, as evenly as possible. Interior processors then talk over up
    /// to six of the machine's eight links (N, S, E, W + the two
    /// anti-diagonal neighbours of the triangulation), matching Fig. 4.
    ///
    /// Unlike [`ProcessorAssignment::strips`], block boundaries generally
    /// do not balance the color classes exactly — the trade the paper's
    /// figures illustrate (strips balance colors; blocks shorten borders).
    ///
    /// # Errors
    /// [`SparseError::InvalidPartition`] if either grid dimension is zero
    /// or exceeds the free rows/columns.
    pub fn blocks(asm: &AssembledProblem, pr: usize, pc: usize) -> Result<Self, SparseError> {
        let mesh = asm.mesh;
        let mut free_nodes = Vec::new();
        let (mut min_r, mut max_r, mut min_c, mut max_c) = (usize::MAX, 0usize, usize::MAX, 0usize);
        for node in 0..mesh.num_nodes() {
            if asm.free_map.full_to_reduced(2 * node).is_some() {
                free_nodes.push(node);
                let (r, c) = mesh.node_row_col(node);
                min_r = min_r.min(r);
                max_r = max_r.max(r);
                min_c = min_c.min(c);
                max_c = max_c.max(c);
            }
        }
        let rows = max_r - min_r + 1;
        let cols = max_c - min_c + 1;
        if pr == 0 || pc == 0 || pr > rows || pc > cols {
            return Err(SparseError::InvalidPartition {
                reason: format!("{pr}x{pc} processor grid for {rows}x{cols} free nodes"),
            });
        }
        // Band boundary: band b of `n` items over `p` bands.
        let band = |x: usize, n: usize, p: usize| -> usize {
            // Inverse of the balanced split sizes base + (b < extra).
            let base = n / p;
            let extra = n % p;
            let cut = extra * (base + 1);
            if x < cut {
                x / (base + 1)
            } else {
                extra + (x - cut) / base.max(1)
            }
        };
        let mut owner = Vec::with_capacity(free_nodes.len());
        for &node in &free_nodes {
            let (r, c) = mesh.node_row_col(node);
            let br = band(r - min_r, rows, pr);
            let bc = band(c - min_c, cols, pc);
            owner.push(br * pc + bc);
        }
        let mut owner_by_node = vec![usize::MAX; mesh.num_nodes()];
        for (k, &node) in free_nodes.iter().enumerate() {
            owner_by_node[node] = owner[k];
        }
        Ok(ProcessorAssignment {
            p: pr * pc,
            mesh,
            free_nodes,
            owner,
            owner_by_node,
        })
    }

    /// Neighbour processors of `q`: owners of free stencil neighbours of
    /// `q`'s nodes. Sorted, deduplicated, excludes `q`.
    pub fn neighbor_procs(&self, q: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .nodes_of(q)
            .into_iter()
            .flat_map(|node| {
                let (r, c) = self.mesh.node_row_col(node);
                self.mesh.stencil_neighbors(r, c)
            })
            .filter_map(|nb| self.owner_of(nb))
            .filter(|&o| o != q)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Border nodes of `q` facing neighbour `to`: nodes owned by `q` with
    /// at least one stencil neighbour owned by `to`. These are the nodes
    /// whose `(u, v)` values must be sent each exchange.
    pub fn border_nodes(&self, q: usize, to: usize) -> Vec<usize> {
        self.nodes_of(q)
            .into_iter()
            .filter(|&node| {
                let (r, c) = self.mesh.node_row_col(node);
                self.mesh
                    .stencil_neighbors(r, c)
                    .into_iter()
                    .any(|nb| self.owner_of(nb) == Some(to))
            })
            .collect()
    }

    /// Maximum number of distinct neighbour processors over all processors
    /// — must be ≤ 8 for the FEM's eight nearest-neighbour links
    /// (Figure 4 shows the plate problem using six of them).
    pub fn max_links_used(&self) -> usize {
        (0..self.p)
            .map(|q| self.neighbor_procs(q).len())
            .max()
            .unwrap_or(0)
    }

    /// ASCII map of the assignment (Figures 3/5): one digit per node
    /// (owner id mod 10), `·` for constrained nodes; bottom row last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in (0..self.mesh.rows).rev() {
            for c in 0..self.mesh.cols {
                let node = self.mesh.node_index(r, c);
                match self.owner_of(node) {
                    Some(o) => out.push(char::from_digit((o % 10) as u32, 10).unwrap()),
                    None => out.push('.'),
                }
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspcg_fem::plate::PlaneStressProblem;

    fn plate6() -> AssembledProblem {
        PlaneStressProblem::unit_square(6).assemble().unwrap()
    }

    #[test]
    fn equal_node_counts_for_divisors() {
        let asm = plate6();
        for p in [1usize, 2, 3, 5, 6] {
            let a = ProcessorAssignment::strips(&asm, p).unwrap();
            let sizes: Vec<usize> = (0..p).map(|q| a.nodes_of(q).len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), 30);
            assert!(sizes.iter().all(|&s| s == 30 / p), "{sizes:?}");
        }
    }

    #[test]
    fn paper_assignments_have_balanced_colors() {
        // §4: "each processor has an equal number of R, B, and G nodes"
        // for the 1-, 2- and 5-processor splits of the 6×6 plate.
        let asm = plate6();
        for p in [1usize, 2, 5] {
            let a = ProcessorAssignment::strips(&asm, p).unwrap();
            assert!(a.colors_balanced(), "p = {p}");
            let c = a.color_counts(0);
            assert_eq!(c[0] + c[1] + c[2], 30 / p);
            assert_eq!(c[0], c[1]);
            assert_eq!(c[1], c[2]);
        }
    }

    #[test]
    fn two_processor_split_has_equal_borders() {
        let asm = plate6();
        let a = ProcessorAssignment::strips(&asm, 2).unwrap();
        let b01 = a.border_nodes(0, 1).len();
        let b10 = a.border_nodes(1, 0).len();
        assert!(b01 > 0 && b10 > 0);
        assert_eq!(b01, b10);
    }

    #[test]
    fn neighbor_procs_are_adjacent_strips() {
        let asm = plate6();
        let a = ProcessorAssignment::strips(&asm, 5).unwrap();
        for q in 0..5 {
            let nbrs = a.neighbor_procs(q);
            assert!(!nbrs.is_empty());
            // Strip q talks only to strips within distance 2 (row strips of
            // 6 nodes are ~1.2 mesh rows tall).
            for &o in &nbrs {
                assert!((o as isize - q as isize).abs() <= 2, "{q} -> {o}");
            }
        }
    }

    #[test]
    fn links_fit_the_machine() {
        let asm = plate6();
        for p in [1usize, 2, 5, 10] {
            let a = ProcessorAssignment::strips(&asm, p).unwrap();
            assert!(a.max_links_used() <= 8, "p = {p}: {}", a.max_links_used());
        }
    }

    #[test]
    fn owner_lookup_consistent() {
        let asm = plate6();
        let a = ProcessorAssignment::strips(&asm, 5).unwrap();
        for q in 0..5 {
            for node in a.nodes_of(q) {
                assert_eq!(a.owner_of(node), Some(q));
            }
        }
        // Constrained left-column nodes have no owner.
        assert_eq!(a.owner_of(0), None);
    }

    #[test]
    fn render_shows_grid() {
        let asm = plate6();
        let a = ProcessorAssignment::strips(&asm, 2).unwrap();
        let s = a.render();
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains('.') && s.contains('0') && s.contains('1'));
    }

    #[test]
    fn rejects_too_many_processors() {
        let asm = plate6();
        assert!(ProcessorAssignment::strips(&asm, 0).is_err());
        assert!(ProcessorAssignment::strips(&asm, 31).is_err());
    }

    #[test]
    fn block_assignment_covers_all_nodes_evenly() {
        let asm = PlaneStressProblem::unit_square(13).assemble().unwrap();
        let a = ProcessorAssignment::blocks(&asm, 3, 4).unwrap();
        assert_eq!(a.num_processors(), 12);
        let sizes: Vec<usize> = (0..12).map(|q| a.nodes_of(q).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 13 * 12);
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        // Bands are balanced to ±1 row/column each: sizes within ~2x.
        assert!(hi - lo <= (13 / 3 + 1) + (12 / 4 + 1), "{sizes:?}");
    }

    #[test]
    fn interior_block_processor_uses_six_links() {
        // Paper Fig. 4: the plate problem needs six of the eight links.
        let asm = PlaneStressProblem::unit_square(16).assemble().unwrap();
        let a = ProcessorAssignment::blocks(&asm, 3, 3).unwrap();
        // Processor 4 (center of the 3x3 grid) has all six triangulation
        // neighbours: N, S, E, W, NW, SE.
        let nbrs = a.neighbor_procs(4);
        assert_eq!(nbrs.len(), 6, "{nbrs:?}");
        assert!(a.max_links_used() <= 8);
        // The anti-diagonal neighbours (NW = proc 6, SE = proc 2 in
        // row-major processor numbering) are present; NE/SW are not.
        assert!(nbrs.contains(&6) && nbrs.contains(&2));
        assert!(!nbrs.contains(&0) && !nbrs.contains(&8));
    }

    #[test]
    fn blocks_reject_degenerate_grids() {
        let asm = plate6();
        assert!(ProcessorAssignment::blocks(&asm, 0, 2).is_err());
        assert!(ProcessorAssignment::blocks(&asm, 7, 1).is_err());
        assert!(ProcessorAssignment::blocks(&asm, 2, 1).is_ok());
    }

    #[test]
    fn blocks_have_shorter_borders_than_strips_at_same_p() {
        // The reason Fig. 3 uses 2-D blocks: perimeter scales better.
        let asm = PlaneStressProblem::unit_square(16).assemble().unwrap();
        let strips = ProcessorAssignment::strips(&asm, 4).unwrap();
        let blocks = ProcessorAssignment::blocks(&asm, 2, 2).unwrap();
        let border_total = |a: &ProcessorAssignment| -> usize {
            (0..a.num_processors())
                .map(|q| {
                    a.neighbor_procs(q)
                        .into_iter()
                        .map(|o| a.border_nodes(q, o).len())
                        .sum::<usize>()
                })
                .sum()
        };
        assert!(
            border_total(&blocks) <= border_total(&strips),
            "blocks {} vs strips {}",
            border_total(&blocks),
            border_total(&strips)
        );
    }
}
