//! The paper's structural test problem, end to end.
//!
//! A rectangular plate is discretized with linear triangles
//! ([`crate::mesh::PlateMesh`]), clamped along its left edge and loaded by
//! an in-plane traction along its right edge. The unknowns are the nodal
//! displacements `(u, v)`; the assembled stiffness matrix is SPD of order
//! `2·a·b` where `a` is the number of node rows and `b` the number of
//! unconstrained node columns — exactly the setting of §3.
//!
//! Equation numbering in the *full* system is `2·node + dof` (dof 0 = u,
//! dof 1 = v); Dirichlet elimination compresses to the free dofs and
//! [`AssembledProblem::multicolor`] renumbers those by the six colors
//! Red(u), Red(v), Black(u), Black(v), Green(u), Green(v) into the block
//! form (3.1).

use crate::element::{cst_stiffness, Material};
use crate::mesh::PlateMesh;
use mspcg_coloring::{rbg_node_coloring, Coloring};
use mspcg_sparse::{CooMatrix, CsrMatrix, Partition, Permutation, SparseError};

/// In-plane traction applied to the right edge of the plate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeLoad {
    /// Uniform normal traction (stretching, +x), total force given.
    TractionX(f64),
    /// Uniform shear traction (+y), total force given.
    TractionY(f64),
}

/// The plane-stress model problem (mesh + material + boundary conditions).
#[derive(Debug, Clone)]
pub struct PlaneStressProblem {
    /// Node grid.
    pub mesh: PlateMesh,
    /// Isotropic material.
    pub material: Material,
    /// Right-edge load.
    pub load: EdgeLoad,
}

impl PlaneStressProblem {
    /// The paper's test case: unit-square plate with `a × a` nodes, left
    /// column clamped, unit tension on the right edge, normalized material.
    /// The reduced system has `2·a·(a−1)` unknowns.
    ///
    /// # Panics
    /// Panics if `a < 3` (the R/B/G coloring needs 3 columns).
    pub fn unit_square(a: usize) -> Self {
        assert!(a >= 3, "plate needs at least 3x3 nodes for R/B/G coloring");
        PlaneStressProblem {
            mesh: PlateMesh::unit_square(a),
            material: Material::unit(),
            load: EdgeLoad::TractionX(1.0),
        }
    }

    /// General rectangular plate.
    pub fn rectangle(rows: usize, cols: usize, material: Material, load: EdgeLoad) -> Self {
        PlaneStressProblem {
            mesh: PlateMesh::rectangle(
                rows,
                cols,
                1.0 / (cols as f64 - 1.0),
                1.0 / (rows as f64 - 1.0),
            ),
            material,
            load,
        }
    }

    /// Assemble the constrained SPD system. The clamped dofs are dropped
    /// as the element loop pushes each stiffness entry, straight into the
    /// reduced system (no full matrix is built), so every stored value is
    /// the sum of its element contributions in element order.
    ///
    /// # Errors
    /// Propagates sparse-construction errors (cannot occur for a
    /// well-formed mesh) and coloring errors for degenerate grids.
    pub fn assemble(&self) -> Result<AssembledProblem, SparseError> {
        let mesh = self.mesh;
        let n_full = 2 * mesh.num_nodes();

        // --- Dirichlet elimination (clamp left column) -------------------
        let mut keep = vec![true; n_full];
        for r in 0..mesh.rows {
            let node = mesh.node_index(r, 0);
            keep[2 * node] = false;
            keep[2 * node + 1] = false;
        }
        let free_map = FreeDofMap::new(&keep);
        let n_red = free_map.num_free();

        // --- reduced stiffness --------------------------------------------
        let mut coo = CooMatrix::with_capacity(n_red, n_red, mesh.num_triangles() * 36);
        for tri in mesh.triangles() {
            let [p0, p1, p2] = tri.map(|n| mesh.node_coords(n));
            let ke = cst_stiffness(p0, p1, p2, &self.material);
            for (r, &nr) in tri.iter().enumerate() {
                for dr in 0..2 {
                    let Some(ri) = free_map.full_to_reduced(2 * nr + dr) else {
                        continue;
                    };
                    for (c, &nc) in tri.iter().enumerate() {
                        for dc in 0..2 {
                            let v = ke[2 * r + dr][2 * c + dc];
                            match free_map.full_to_reduced(2 * nc + dc) {
                                Some(rj) if v != 0.0 => coo.push(ri, rj, v)?,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        let matrix = coo.to_csr();

        // --- load vector (trapezoid-weighted edge traction) --------------
        let mut f_full = vec![0.0; n_full];
        let (dir, total) = match self.load {
            EdgeLoad::TractionX(t) => (0usize, t),
            EdgeLoad::TractionY(t) => (1usize, t),
        };
        let edge_col = mesh.cols - 1;
        let edge_len = (mesh.rows - 1) as f64 * mesh.dy;
        // `total` is the resultant force; distribute it along the edge with
        // trapezoid weights so that Σ nodal forces = total exactly (no
        // thickness factor here — thickness already scales the stiffness).
        let per_length = total / edge_len;
        for r in 0..mesh.rows {
            let node = mesh.node_index(r, edge_col);
            let w = if r == 0 || r == mesh.rows - 1 {
                0.5 * mesh.dy
            } else {
                mesh.dy
            };
            f_full[2 * node + dir] += per_length * w;
        }
        let rhs: Vec<f64> = (0..n_red)
            .map(|ri| f_full[free_map.reduced_to_full(ri)])
            .collect();

        let node_coloring = rbg_node_coloring(mesh.rows, mesh.cols)?;
        Ok(AssembledProblem {
            matrix,
            rhs,
            mesh,
            free_map,
            node_coloring,
        })
    }
}

/// Bidirectional map between full dof indices and reduced (free) indices.
#[derive(Debug, Clone)]
pub struct FreeDofMap {
    full_to_reduced: Vec<Option<u32>>,
    reduced_to_full: Vec<u32>,
}

impl FreeDofMap {
    /// Build from a keep mask over the full dof set.
    pub fn new(keep: &[bool]) -> Self {
        let mut full_to_reduced = vec![None; keep.len()];
        let mut reduced_to_full = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                full_to_reduced[i] = Some(reduced_to_full.len() as u32);
                reduced_to_full.push(i as u32);
            }
        }
        FreeDofMap {
            full_to_reduced,
            reduced_to_full,
        }
    }

    /// Number of free dofs.
    #[inline]
    pub fn num_free(&self) -> usize {
        self.reduced_to_full.len()
    }

    /// Number of dofs in the full system.
    #[inline]
    pub fn num_full(&self) -> usize {
        self.full_to_reduced.len()
    }

    /// Reduced index of full dof `i`, if free.
    #[inline]
    pub fn full_to_reduced(&self, i: usize) -> Option<usize> {
        self.full_to_reduced[i].map(|x| x as usize)
    }

    /// Full dof index of reduced dof `r`.
    #[inline]
    pub fn reduced_to_full(&self, r: usize) -> usize {
        self.reduced_to_full[r] as usize
    }

    /// Expand a reduced vector to the full dof set (zeros at constraints).
    pub fn expand(&self, reduced: &[f64]) -> Vec<f64> {
        assert_eq!(reduced.len(), self.num_free(), "expand: length mismatch");
        let mut full = vec![0.0; self.num_full()];
        for (r, &v) in reduced.iter().enumerate() {
            full[self.reduced_to_full(r)] = v;
        }
        full
    }
}

/// The assembled, constrained system in the original (node-major) ordering.
#[derive(Debug, Clone)]
pub struct AssembledProblem {
    /// Reduced SPD stiffness matrix.
    pub matrix: CsrMatrix,
    /// Reduced load vector.
    pub rhs: Vec<f64>,
    /// Geometry (kept for machine assignment and figures).
    pub mesh: PlateMesh,
    /// Full ↔ reduced dof map.
    pub free_map: FreeDofMap,
    /// R/B/G coloring of *all* nodes (3 colors).
    pub node_coloring: Coloring,
}

impl AssembledProblem {
    /// Number of unknowns of the reduced system.
    pub fn num_unknowns(&self) -> usize {
        self.matrix.rows()
    }

    /// Six-color coloring of the *reduced* dofs: node colors refined per
    /// dof, restricted to free dofs. The six classes are nonempty for any
    /// plate with ≥ 3 unconstrained columns.
    ///
    /// # Errors
    /// Propagates coloring restriction errors on degenerate plates.
    pub fn reduced_dof_coloring(&self) -> Result<Coloring, SparseError> {
        let six = self.node_coloring.refine_per_dof(2)?;
        let keep: Vec<bool> = (0..self.free_map.num_full())
            .map(|i| self.free_map.full_to_reduced(i).is_some())
            .collect();
        six.restrict(&keep)
    }

    /// Renumber by the six-color ordering into the block form (3.1).
    ///
    /// # Errors
    /// Propagates coloring/permutation errors.
    pub fn multicolor(&self) -> Result<OrderedProblem, SparseError> {
        let coloring = self.reduced_dof_coloring()?;
        coloring.verify_for(&self.matrix)?;
        let ordering = coloring.ordering();
        let matrix = ordering.permute_matrix(&self.matrix)?;
        let rhs = ordering.permutation.gather(&self.rhs);
        Ok(OrderedProblem {
            matrix,
            rhs,
            colors: ordering.partition,
            permutation: ordering.permutation,
        })
    }

    /// Per-color vector lengths of the CYBER layout, which numbers the
    /// *constrained* nodes too so each color block is one contiguous vector
    /// (§3.1). Block `2c + d` holds the dof-`d` equations of node color `c`.
    pub fn cyber_color_lengths(&self) -> Vec<usize> {
        let node_sizes = self.node_coloring.class_sizes();
        let mut out = Vec::with_capacity(6);
        for c in 0..3 {
            out.push(node_sizes[c]); // u equations
            out.push(node_sizes[c]); // v equations
        }
        out
    }

    /// Maximum CYBER vector length (the `v` column of Table 2).
    pub fn max_vector_length(&self) -> usize {
        self.cyber_color_lengths().into_iter().max().unwrap_or(0)
    }
}

/// The color-ordered system: block form (3.1).
#[derive(Debug, Clone)]
pub struct OrderedProblem {
    /// Permuted SPD matrix; each diagonal color block is diagonal.
    pub matrix: CsrMatrix,
    /// Permuted load vector.
    pub rhs: Vec<f64>,
    /// The six contiguous color blocks.
    pub colors: Partition,
    /// New→old permutation (use [`Permutation::scatter`] to map solutions
    /// back to the node-major ordering).
    pub permutation: Permutation,
}

impl OrderedProblem {
    /// Map a solution of the ordered system back to node-major dof order.
    pub fn to_nodal(&self, x: &[f64]) -> Vec<f64> {
        self.permutation.scatter(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square_dimensions_match_paper_formula() {
        // N = 2·a·(a−1): a rows, a−1 unconstrained columns.
        for a in [3usize, 4, 6] {
            let p = PlaneStressProblem::unit_square(a).assemble().unwrap();
            assert_eq!(p.num_unknowns(), 2 * a * (a - 1));
        }
    }

    #[test]
    fn six_by_six_plate_has_sixty_equations() {
        // §4: "6 rows and 6 columns of nodes (60 equations)".
        let p = PlaneStressProblem::unit_square(6).assemble().unwrap();
        assert_eq!(p.num_unknowns(), 60);
    }

    #[test]
    fn stiffness_is_symmetric_and_stencil_bounded() {
        let p = PlaneStressProblem::unit_square(6).assemble().unwrap();
        p.matrix.check_symmetric(1e-10).unwrap();
        // "each row of K will contain at most 14 nonzero elements".
        assert!(p.matrix.max_row_nnz() <= 14, "{}", p.matrix.max_row_nnz());
    }

    #[test]
    fn stiffness_is_positive_definite() {
        let p = PlaneStressProblem::unit_square(4).assemble().unwrap();
        p.matrix.to_dense().cholesky().unwrap();
    }

    #[test]
    fn load_only_on_right_edge() {
        let p = PlaneStressProblem::unit_square(5).assemble().unwrap();
        let mesh = p.mesh;
        for r in 0..p.num_unknowns() {
            let full = p.free_map.reduced_to_full(r);
            let node = full / 2;
            let (_, c) = mesh.node_row_col(node);
            if p.rhs[r] != 0.0 {
                assert_eq!(c, mesh.cols - 1, "load off the right edge");
            }
        }
        // Total applied force equals the requested traction resultant.
        let total: f64 = p.rhs.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn multicolor_blocks_are_diagonal() {
        let p = PlaneStressProblem::unit_square(5).assemble().unwrap();
        let o = p.multicolor().unwrap();
        assert_eq!(o.colors.num_blocks(), 6);
        for blk in o.colors.iter() {
            for i in blk.clone() {
                for (j, _) in o.matrix.row_entries(i) {
                    assert!(
                        !blk.contains(&j) || j == i,
                        "block not diagonal at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn multicolor_preserves_solution() {
        let p = PlaneStressProblem::unit_square(4).assemble().unwrap();
        let o = p.multicolor().unwrap();
        // Solve both orderings densely and compare through the permutation.
        let x0 = p.matrix.to_dense().cholesky().unwrap().solve(&p.rhs);
        let x1 = o.matrix.to_dense().cholesky().unwrap().solve(&o.rhs);
        let x1_nodal = o.to_nodal(&x1);
        for (a, b) in x0.iter().zip(&x1_nodal) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn clamped_edge_displacements_are_removed() {
        let a = 5;
        let p = PlaneStressProblem::unit_square(a).assemble().unwrap();
        for r in 0..a {
            let node = p.mesh.node_index(r, 0);
            assert!(p.free_map.full_to_reduced(2 * node).is_none());
            assert!(p.free_map.full_to_reduced(2 * node + 1).is_none());
        }
    }

    #[test]
    fn tension_pulls_plate_in_positive_x() {
        let p = PlaneStressProblem::unit_square(5).assemble().unwrap();
        let x = p.matrix.to_dense().cholesky().unwrap().solve(&p.rhs);
        let full = p.free_map.expand(&x);
        // Every free node should move right (u > 0) under uniform tension.
        for node in 0..p.mesh.num_nodes() {
            let (_, c) = p.mesh.node_row_col(node);
            if c > 0 {
                assert!(full[2 * node] > 0.0, "node {node} moved left");
            }
        }
    }

    #[test]
    fn cyber_lengths_match_table2_formula() {
        // v ≈ a²/3 for the unit square (Table 2 reports 561 for a = 41,
        // 1282 for a = 62, 2134 for a = 80).
        for (a, v_paper) in [(41usize, 561usize), (62, 1282), (80, 2134)] {
            let prob = PlaneStressProblem::unit_square(a);
            let asm = prob.assemble().unwrap();
            let v = asm.max_vector_length();
            assert_eq!(v, (a * a).div_ceil(3), "a = {a}");
            let rel = (v as f64 - v_paper as f64).abs() / v_paper as f64;
            assert!(rel < 0.01, "a = {a}: v = {v} vs paper {v_paper}");
        }
    }

    /// The stored pattern and values are bitwise a naive per-entry
    /// accumulation of the element stiffnesses, in element order, into
    /// the reduced system.
    #[test]
    fn assembly_sums_every_entry_in_element_order() {
        use std::collections::BTreeMap;
        let shear = PlaneStressProblem::rectangle(5, 8, Material::unit(), EdgeLoad::TractionY(1.0));
        let plates = [3usize, 6, 12, 24, 30].map(PlaneStressProblem::unit_square);
        for prob in plates.iter().chain([&shear]) {
            let asm = prob.assemble().unwrap();
            let free = |dof| asm.free_map.full_to_reduced(dof);
            let mut naive = BTreeMap::new();
            for tri in prob.mesh.triangles() {
                let p: Vec<[f64; 2]> = tri.iter().map(|&n| prob.mesh.node_coords(n)).collect();
                let ke = cst_stiffness(p[0], p[1], p[2], &prob.material);
                for (r, c) in (0..6).flat_map(|r| (0..6).map(move |c| (r, c))) {
                    let (gi, gj) = (2 * tri[r / 2] + r % 2, 2 * tri[c / 2] + c % 2);
                    if let (Some(ri), Some(rj), true) = (free(gi), free(gj), ke[r][c] != 0.0) {
                        *naive.entry((ri, rj)).or_insert(0.0) += ke[r][c];
                    }
                }
            }
            let want: Vec<_> = naive.into_iter().map(|(at, v)| (at, v.to_bits())).collect();
            let got: Vec<_> = (0..asm.num_unknowns())
                .flat_map(|i| {
                    asm.matrix
                        .row_entries(i)
                        .map(move |(j, v)| ((i, j), v.to_bits()))
                })
                .collect();
            let mesh = prob.mesh;
            assert!(got == want, "{} x {} plate", mesh.rows, mesh.cols);
        }
    }

    #[test]
    fn free_dof_map_round_trip() {
        let keep = vec![true, false, true, true, false];
        let m = FreeDofMap::new(&keep);
        assert_eq!(m.num_free(), 3);
        assert_eq!(m.reduced_to_full(1), 2);
        assert_eq!(m.full_to_reduced(2), Some(1));
        assert_eq!(m.full_to_reduced(1), None);
        let x = m.expand(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn shear_load_produces_vertical_motion() {
        let p = PlaneStressProblem {
            load: EdgeLoad::TractionY(1.0),
            ..PlaneStressProblem::unit_square(4)
        }
        .assemble()
        .unwrap();
        let x = p.matrix.to_dense().cholesky().unwrap().solve(&p.rhs);
        let full = p.free_map.expand(&x);
        let tip = p.mesh.node_index(p.mesh.rows - 1, p.mesh.cols - 1);
        assert!(full[2 * tip + 1] > 0.0, "tip did not deflect upward");
    }
}
