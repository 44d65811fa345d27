//! Blockwise-precomputed RWR — the partition counterpart of
//! [`crate::precomputed`].
//!
//! Sec. 6 presents two speedups in tension: precompute the dense
//! `(I − c W̃)⁻¹` ("nearly real-time" queries, `O(N²)` memory) or
//! pre-partition the graph (cheap, approximate). This module combines
//! them the way Tong's later *Fast Random Walk with Restart* line does in
//! its simplest ("NB_LIN") form: normalize the **whole** graph once, drop
//! the cross-partition entries of `W̃`, and precompute a dense LU
//! factorization of `I − c W̃_b` **per block**. A query then costs one
//! dense triangular solve inside its own block — no iteration, no
//! whole-graph pass — and memory is `Σ n_b²` instead of `N²`.
//!
//! The approximation error is exactly the walk mass that would have
//! crossed partition boundaries, i.e. the same quantity Fast CePS's
//! `RelRatio` measures; on community-structured graphs it is small.

use ceps_graph::{NodeId, Transition};

use crate::exact::LuFactors;
use crate::{Result, RwrError, ScoreMatrix};

/// Per-partition dense RWR solvers over a shared normalization.
#[derive(Debug)]
pub struct BlockwiseRwr {
    /// Per-node block id.
    assignment: Vec<u32>,
    /// Per-block member lists (original node ids).
    members: Vec<Vec<u32>>,
    /// Per-block LU factors of `I − c W̃_b`.
    factors: Vec<LuFactors>,
    c: f64,
    node_count: usize,
}

impl BlockwiseRwr {
    /// Builds the per-block factorizations.
    ///
    /// * `transition` — the full-graph normalized operator (so blocks keep
    ///   the *global* degrees; cross-block mass is simply lost, making
    ///   every block sub-stochastic and the solves well-posed);
    /// * `assignment` — node → block (any `Partitioning::assignment()`);
    /// * `max_block` — refuse blocks larger than this (dense `n_b²` cost).
    ///
    /// # Errors
    /// [`RwrError::InvalidRestart`] for `c ∉ (0, 1)`;
    /// [`RwrError::GraphTooLarge`] if any block exceeds `max_block`.
    ///
    /// # Panics
    /// Panics if `assignment.len()` differs from the operator's node count.
    pub fn new(
        transition: &Transition,
        assignment: &[u32],
        c: f64,
        max_block: usize,
    ) -> Result<Self> {
        if !(c > 0.0 && c < 1.0) {
            return Err(RwrError::InvalidRestart { c });
        }
        let n = transition.node_count();
        assert_eq!(assignment.len(), n, "assignment must cover every node");

        let block_count = assignment
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); block_count];
        for (v, &b) in assignment.iter().enumerate() {
            members[b as usize].push(v as u32);
        }

        let mut factors = Vec::with_capacity(block_count);
        for block in &members {
            let nb = block.len();
            if nb > max_block {
                return Err(RwrError::GraphTooLarge {
                    nodes: nb,
                    max_nodes: max_block,
                });
            }
            // Dense I - c * M restricted to the block (row-major).
            let mut local = vec![u32::MAX; n];
            for (i, &v) in block.iter().enumerate() {
                local[v as usize] = i as u32;
            }
            let mut a = vec![0f64; nb * nb];
            for i in 0..nb {
                a[i * nb + i] = 1.0;
            }
            for (i, &v) in block.iter().enumerate() {
                // Row v of M restricted to in-block columns.
                for (u, m) in transition.row(NodeId(v)) {
                    let j = local[u.index()];
                    if j != u32::MAX {
                        a[i * nb + j as usize] -= c * m;
                    }
                }
            }
            factors.push(LuFactors::factor(a, nb));
        }
        Ok(BlockwiseRwr {
            assignment: assignment.to_vec(),
            members,
            factors,
            c,
            node_count: n,
        })
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.members.len()
    }

    /// Total dense storage across blocks, in bytes — compare with the
    /// `N²` of [`crate::precomputed::PrecomputedRwr`].
    pub fn memory_bytes(&self) -> usize {
        self.members.iter().map(|m| m.len() * m.len() * 8).sum()
    }

    /// Approximate stationary distribution for one query: exact within the
    /// query's block, zero elsewhere (cross-block mass is dropped).
    ///
    /// # Errors
    /// [`RwrError::BadQueryNode`] for an out-of-range query.
    pub fn query(&self, q: NodeId) -> Result<Vec<f64>> {
        if q.index() >= self.node_count {
            return Err(RwrError::BadQueryNode {
                node: q,
                node_count: self.node_count,
            });
        }
        let b = self.assignment[q.index()] as usize;
        let block = &self.members[b];
        let nb = block.len();
        let mut rhs = vec![0f64; nb];
        let local_q = block
            .iter()
            .position(|&v| v == q.0)
            .expect("query is a member of its own block");
        rhs[local_q] = 1.0 - self.c;
        self.factors[b].solve_in_place(&mut rhs);

        let mut out = vec![0f64; self.node_count];
        for (i, &v) in block.iter().enumerate() {
            out[v as usize] = rhs[i];
        }
        Ok(out)
    }

    /// Score matrix for a query set.
    ///
    /// Queries are grouped by block and their rows written straight into
    /// the contiguous matrix: each block's member list is walked once per
    /// group, and no per-query full-`N` scratch vector is allocated (rows
    /// outside the query's block stay at the zero the matrix starts with).
    ///
    /// # Errors
    /// [`RwrError::NoQueries`] / [`RwrError::BadQueryNode`].
    pub fn query_many(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        if queries.is_empty() {
            return Err(RwrError::NoQueries);
        }
        for &q in queries {
            if q.index() >= self.node_count {
                return Err(RwrError::BadQueryNode {
                    node: q,
                    node_count: self.node_count,
                });
            }
        }
        let mut matrix = ScoreMatrix::zeros(queries.to_vec(), self.node_count)?;
        let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); self.members.len()];
        for (i, &q) in queries.iter().enumerate() {
            by_block[self.assignment[q.index()] as usize].push(i);
        }
        let mut rhs = Vec::new();
        for (b, group) in by_block.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let block = &self.members[b];
            for &i in group {
                rhs.clear();
                rhs.resize(block.len(), 0.0);
                let local_q = block
                    .iter()
                    .position(|&v| v == queries[i].0)
                    .expect("query is a member of its own block");
                rhs[local_q] = 1.0 - self.c;
                self.factors[b].solve_in_place(&mut rhs);
                let row = matrix.row_mut(i);
                for (li, &v) in block.iter().enumerate() {
                    row[v as usize] = rhs[li];
                }
            }
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use ceps_graph::{normalize::Normalization, GraphBuilder};

    /// Two triangles; optionally joined by a weak bridge.
    fn two_triangles(bridge: Option<f64>) -> Transition {
        let mut b = GraphBuilder::new();
        for base in [0u32, 3] {
            b.add_edge(NodeId(base), NodeId(base + 1), 2.0).unwrap();
            b.add_edge(NodeId(base + 1), NodeId(base + 2), 2.0).unwrap();
            b.add_edge(NodeId(base), NodeId(base + 2), 2.0).unwrap();
        }
        if let Some(w) = bridge {
            b.add_edge(NodeId(2), NodeId(3), w).unwrap();
        }
        let g = b.build().unwrap();
        Transition::new(&g, Normalization::ColumnStochastic)
    }

    const SPLIT: [u32; 6] = [0, 0, 0, 1, 1, 1];

    #[test]
    fn exact_when_blocks_match_components() {
        // No bridge: the blocks ARE the components, so blockwise = exact.
        let t = two_triangles(None);
        let bw = BlockwiseRwr::new(&t, &SPLIT, 0.5, 100).unwrap();
        for q in 0..6u32 {
            let exact = solve_exact(&t, 0.5, &[NodeId(q)]).unwrap();
            let approx = bw.query(NodeId(q)).unwrap();
            for j in 0..6 {
                assert!(
                    (exact.row(0)[j] - approx[j]).abs() < 1e-12,
                    "q={q} j={j}: {} vs {}",
                    exact.row(0)[j],
                    approx[j]
                );
            }
        }
    }

    #[test]
    fn weak_bridge_costs_little_mass() {
        // A weak bridge leaks a little mass; the in-block scores stay
        // close to exact and out-of-block scores are exactly zero.
        let t = two_triangles(Some(0.05));
        let bw = BlockwiseRwr::new(&t, &SPLIT, 0.5, 100).unwrap();
        let exact = solve_exact(&t, 0.5, &[NodeId(0)]).unwrap();
        let approx = bw.query(NodeId(0)).unwrap();
        for j in 0..3 {
            assert!(
                (exact.row(0)[j] - approx[j]).abs() < 0.02,
                "in-block node {j}"
            );
        }
        for j in 3..6 {
            assert_eq!(approx[j], 0.0, "cross-block node {j} must be zero");
        }
        // The dropped mass equals 1 - captured, and must be small.
        let captured: f64 = approx.iter().sum();
        assert!(captured > 0.97, "captured only {captured}");
    }

    #[test]
    fn memory_is_sum_of_block_squares() {
        let t = two_triangles(Some(1.0));
        let bw = BlockwiseRwr::new(&t, &SPLIT, 0.5, 100).unwrap();
        assert_eq!(bw.block_count(), 2);
        assert_eq!(bw.memory_bytes(), 2 * 3 * 3 * 8);
        // The monolithic precompute would need 6*6*8.
        assert!(bw.memory_bytes() < 6 * 6 * 8);
    }

    #[test]
    fn validates_inputs() {
        let t = two_triangles(None);
        assert!(BlockwiseRwr::new(&t, &SPLIT, 0.0, 100).is_err());
        assert!(matches!(
            BlockwiseRwr::new(&t, &SPLIT, 0.5, 2),
            Err(RwrError::GraphTooLarge {
                nodes: 3,
                max_nodes: 2
            })
        ));
        let bw = BlockwiseRwr::new(&t, &SPLIT, 0.5, 100).unwrap();
        assert!(bw.query(NodeId(99)).is_err());
        assert!(bw.query_many(&[]).is_err());
        let m = bw.query_many(&[NodeId(0), NodeId(4)]).unwrap();
        assert_eq!(m.query_count(), 2);
    }
}
