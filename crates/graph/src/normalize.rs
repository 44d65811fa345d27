//! Adjacency-matrix normalizations (Eqs. 5, 10 and 20 of the paper).
//!
//! The random walk with restart at the heart of CePS iterates
//!
//! ```text
//! x ← c · W̃ x + (1 − c) · e          (Eq. 4, written per source column)
//! ```
//!
//! where `W̃` is the adjacency matrix `W` "appropriately normalized". The
//! paper uses three normalizations:
//!
//! * **Column-stochastic** (Eq. 5): `W̃ = W D⁻¹`, i.e. entry
//!   `W̃[u, v] = w(u, v) / d_v` — the probability a particle at `v` steps to
//!   `u`.
//! * **Degree-penalized** (Sec. 4.3, Eq. 10): first rescale
//!   `w(j, l) ← w(j, l) / d_j^α` (every edge *out of the row node* `j` is
//!   penalized by its degree), then column-normalize the rescaled matrix.
//!   This is the paper's fix for the "pizza delivery person" problem: with
//!   `α > 0` a walk is less likely to step *into* a high-degree node, since
//!   the rescaled entry `w'(u, v) = w(u, v) / d_u^α` shrinks with the
//!   *destination*'s degree once viewed down column `v`. `α = 0` recovers
//!   Eq. 5.
//! * **Symmetric / manifold-ranking** (Appendix, Eq. 20):
//!   `S = D^{-1/2} W D^{-1/2}` — not stochastic, but symmetric, so the
//!   resulting closeness scores satisfy `r(i, j) = r(j, i)`.
//!
//! All three are captured by [`Transition`], whose constructor *is* the
//! normalization: once built, the coefficients are immutable and (for the
//! stochastic kinds) columns are guaranteed to sum to 1 over the incident
//! arcs.
//!
//! ## Layout and precision
//!
//! One flat CSR sweep serves every graph size: each row's arcs are visited
//! once per product in ascending target order, and a const-generic panel
//! kernel keeps up to eight columns' accumulators in registers. A
//! cache-blocked ("banded") layout once took over at 2¹⁶ nodes; it was
//! bitwise equal to the flat sweep but 1.13–2.13× slower per block product
//! on the medium, large and paper-scale presets (315K nodes, 6.47M arcs),
//! and its band index cost 9–25% more operator memory. Those operators fit
//! in the host's last-level cache, so the extra band pass bought nothing.
//!
//! Coefficients are stored as `f64` only. An opt-in `f32` storage once
//! halved the coefficient array, at a score drift of up to 1e-5. On a
//! 2-core host it did not pay: median `f32`/`f64` time per block product
//! at widths 1/3/5/8 was 0.99/1.11/1.08/0.94 on the medium preset,
//! 0.90/0.91/0.92/0.93 on large and 0.87/1.00/0.95/0.97 on paper, and a
//! full three-query solve took 0.94, 0.88 and 1.09 of the `f64` time. The
//! `f64` operators (2.1, 18.4 and 75.2 MB) already fit in the last-level
//! cache, so halving the coefficients saved little bandwidth.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ceps_pool::WorkerPool;

use crate::{CsrGraph, NodeId};

/// Which normalization a [`Transition`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Normalization {
    /// Eq. 5: `W̃ = W D⁻¹` (column-stochastic).
    ColumnStochastic,
    /// Eq. 10 followed by Eq. 5: degree penalization with exponent `alpha`,
    /// then column normalization. `alpha = 0.0` equals
    /// [`Normalization::ColumnStochastic`]; the paper's default is 0.5.
    DegreePenalized {
        /// Penalization strength `α ≥ 0` (paper studies `0 ≤ α ≤ 1`).
        alpha: f64,
    },
    /// Eq. 20: `S = D^{-1/2} W D^{-1/2}` (symmetric; not stochastic, but its
    /// spectral radius is at most 1, so the iteration still converges).
    Symmetric,
}

/// `K`-column panel kernel: one pass over the full CSR arc list per row.
/// Per column the arc order is exactly ascending-target order.
#[allow(clippy::too_many_arguments)]
fn panel<const K: usize>(
    offsets: &[u32],
    targets: &[u32],
    coeffs: &[f64],
    x: &[f64],
    out: &mut [f64],
    cols: usize,
    first_row: usize,
    first_col: usize,
) {
    for (local, orow) in out.chunks_exact_mut(cols).enumerate() {
        let u = first_row + local;
        let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
        let mut acc = [0f64; K];
        for (t, c) in targets[s..e].iter().zip(&coeffs[s..e]) {
            let xrow = &x[*t as usize * cols + first_col..];
            for (a, xv) in acc.iter_mut().zip(&xrow[..K]) {
                *a += c * xv;
            }
        }
        orow[first_col..first_col + K].copy_from_slice(&acc);
    }
}

/// A normalized adjacency operator, laid out arc-parallel with the source
/// [`CsrGraph`].
///
/// ```
/// use ceps_graph::{normalize::{Normalization, Transition}, GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
/// let g = b.build().unwrap();
///
/// let t = Transition::new(&g, Normalization::ColumnStochastic);
/// // Probability of stepping 1 -> 0 is w(0,1)/d_1 = 3/4.
/// assert_eq!(t.coeff(NodeId(0), NodeId(1)), Some(0.75));
/// ```
///
/// `coeff[arc u→v] = M[u, v]`: the coefficient that multiplies `x[v]` when
/// accumulating the new value at `u`, so one matrix–vector product is a pure
/// gather over each node's CSR slice (see [`Transition::apply`]).
#[derive(Debug, Clone)]
pub struct Transition {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    coeffs: Vec<f64>,
    kind: Normalization,
    node_count: usize,
}

impl Transition {
    /// Normalizes `graph` according to `kind`, with `f64` coefficients.
    ///
    /// Isolated nodes get an all-zero column (the walk can never reach or
    /// leave them), which the stochastic invariant tolerates.
    pub fn new(graph: &CsrGraph, kind: Normalization) -> Self {
        let (offsets, targets, coeffs, kind) = match kind {
            Normalization::ColumnStochastic => raw_degree_penalized(graph, 0.0),
            Normalization::DegreePenalized { alpha } => raw_degree_penalized(graph, alpha),
            Normalization::Symmetric => raw_symmetric(graph),
        };
        Transition {
            offsets,
            targets,
            coeffs,
            kind,
            node_count: graph.node_count(),
        }
    }

    /// The normalization this operator applies.
    pub fn kind(&self) -> Normalization {
        self.kind
    }

    /// Bytes held by the operator's index and coefficient arrays (offsets,
    /// targets and coefficients).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
            + std::mem::size_of_val(self.coeffs.as_slice())
    }

    /// Number of nodes (matrix dimension).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Computes `out = M · x` (one sparse matrix–vector product).
    ///
    /// The caller layers the restart term on top (`ceps-rwr` does
    /// `x ← c · Mx + (1−c) e`).
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `node_count` long.
    pub fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.node_count, "input vector length mismatch");
        assert_eq!(out.len(), self.node_count, "output vector length mismatch");
        self.apply_block_rows(x, out, 1, 0);
    }

    /// Computes `out = M · X` for a dense block `X` of `cols` column
    /// vectors, stored row-major with stride `cols` (node-major: `X[u, j]`
    /// at `x[u * cols + j]`).
    ///
    /// One pass over the CSR arrays serves every column: each
    /// `(target, coeff)` entry is loaded once and applied to `cols`
    /// accumulators, instead of being re-read per solve as in the
    /// one-column [`Transition::apply`]. Per column, the accumulation
    /// visits arcs in the same order as `apply`, so results are
    /// bitwise-identical to `cols` independent scalar products.
    ///
    /// # Panics
    /// Panics if `cols == 0` or either slice is not `node_count * cols`
    /// long.
    pub fn apply_block(&self, x: &[f64], out: &mut [f64], cols: usize) {
        assert!(cols > 0, "block must have at least one column");
        assert_eq!(
            x.len(),
            self.node_count * cols,
            "input block length mismatch"
        );
        assert_eq!(
            out.len(),
            self.node_count * cols,
            "output block length mismatch"
        );
        self.apply_block_rows(x, out, cols, 0);
    }

    /// Block kernel over the row range `first_row ..`, writing into `out`
    /// (whose length selects how many rows are computed). Shared by
    /// [`Transition::apply`], [`Transition::apply_block`] and the row
    /// chunks of [`Transition::par_apply_block`]. Narrow widths run as one
    /// const-generic panel whose accumulators live in registers; wider
    /// blocks sweep in 8-column panels.
    fn apply_block_rows(&self, x: &[f64], out: &mut [f64], cols: usize, first_row: usize) {
        debug_assert_eq!(out.len() % cols, 0);
        let (o, t, c) = (&self.offsets, &self.targets, &self.coeffs);
        macro_rules! p {
            ($k:literal, $fc:expr) => {
                panel::<$k>(o, t, c, x, out, cols, first_row, $fc)
            };
        }
        match cols {
            1 => p!(1, 0),
            2 => p!(2, 0),
            3 => p!(3, 0),
            4 => p!(4, 0),
            5 => p!(5, 0),
            6 => p!(6, 0),
            7 => p!(7, 0),
            8 => p!(8, 0),
            _ => {
                let mut first_col = 0;
                while first_col < cols {
                    match cols - first_col {
                        1 => p!(1, first_col),
                        2 => p!(2, first_col),
                        3 => p!(3, first_col),
                        4 => p!(4, first_col),
                        5 => p!(5, first_col),
                        6 => p!(6, first_col),
                        7 => p!(7, first_col),
                        _ => p!(8, first_col),
                    }
                    first_col += 8;
                }
            }
        }
    }

    /// Number of stored coefficients (arcs): the cost of one
    /// [`Transition::apply`] sweep, and — times the column count — the
    /// work estimate the parallel kernels weigh against a pool's
    /// [`WorkerPool::min_work`] threshold.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.coeffs.len()
    }

    /// Splits the rows into up to `target` contiguous ranges of roughly
    /// equal **nonzero count** (not row count): chunk boundaries are found
    /// by binary-searching the CSR `offsets` prefix sums for the `k/target`
    /// nnz quantiles. Skewed-degree graphs (ours are) make per-row-count
    /// chunks pathologically unbalanced — one hub-heavy chunk serializes
    /// the whole product; nnz balancing is what lets the worker pool keep
    /// every thread busy.
    ///
    /// Ranges are non-empty, disjoint, ascending and cover `0..node_count`
    /// exactly. A row whose nnz exceeds a quantile span simply becomes its
    /// own (oversized) chunk — rows are never split.
    pub fn balanced_row_chunks(&self, target: usize) -> Vec<(usize, usize)> {
        let n = self.node_count;
        if n == 0 {
            return Vec::new();
        }
        let target = target.clamp(1, n);
        let nnz = self.nnz() as u64;
        if nnz == 0 {
            return vec![(0, n)];
        }
        let mut chunks = Vec::with_capacity(target);
        let mut prev = 0usize;
        for k in 1..target {
            let want = (k as u64 * nnz).div_ceil(target as u64) as u32;
            // First row index whose prefix sum reaches the quantile.
            let bound = self.offsets.partition_point(|&o| o < want).min(n);
            if bound > prev {
                chunks.push((prev, bound));
                prev = bound;
            }
        }
        if prev < n {
            chunks.push((prev, n));
        }
        chunks
    }

    /// Parallel [`Transition::apply_block`] over a persistent
    /// [`WorkerPool`]: one dispatch (wake → steal → sleep) per call, no
    /// thread spawns. The rows are pre-split into nnz-balanced chunks
    /// ([`Transition::balanced_row_chunks`], ~4 per worker) and claimed off an atomic cursor, so a straggling
    /// worker sheds load to the others.
    ///
    /// Falls back to the sequential kernel when the pool is
    /// single-threaded or the estimated work (`nnz × cols`) is under the
    /// pool's [`WorkerPool::min_work`] threshold — below it the barrier
    /// costs more than the parallelism recovers.
    ///
    /// **Bitwise-identical to [`Transition::apply_block`]**: each row is
    /// computed by exactly one worker with the same per-row arithmetic
    /// order, so neither the chunking nor the
    /// claiming order can change a single bit of the output.
    ///
    /// Telemetry (when a `ceps-obs` recorder is installed): a `pool.apply`
    /// span around the dispatch and a `pool.chunks_stolen` counter for
    /// chunks claimed by non-calling workers.
    ///
    /// # Panics
    /// Panics if `cols == 0`, either slice is not `node_count * cols` long,
    /// or the job panics on a worker.
    pub fn par_apply_block(&self, x: &[f64], out: &mut [f64], cols: usize, pool: &WorkerPool) {
        assert!(cols > 0, "block must have at least one column");
        assert_eq!(
            x.len(),
            self.node_count * cols,
            "input block length mismatch"
        );
        assert_eq!(
            out.len(),
            self.node_count * cols,
            "output block length mismatch"
        );
        let workers = pool.threads().min(self.node_count).max(1);
        if workers <= 1 || self.nnz().saturating_mul(cols) < pool.min_work() {
            return self.apply_block_rows(x, out, cols, 0);
        }
        let _span = ceps_obs::span("pool.apply");
        let bounds = self.balanced_row_chunks(workers * ceps_pool::CHUNKS_PER_WORKER);
        // Split `out` into per-chunk slices up front; each cell is locked
        // exactly once by whichever worker claims it (uncontended by
        // construction — the cursor hands every index to one worker), which
        // is how disjoint `&mut` access crosses the `Fn` closure without
        // `unsafe` in this crate.
        let mut jobs: Vec<Mutex<Option<(usize, &mut [f64])>>> = Vec::with_capacity(bounds.len());
        let mut rest = out;
        for &(start, end) in &bounds {
            let (chunk, tail) = rest.split_at_mut((end - start) * cols);
            jobs.push(Mutex::new(Some((start, chunk))));
            rest = tail;
        }
        let cursor = AtomicUsize::new(0);
        let stolen = AtomicU64::new(0);
        pool.run(&|worker| {
            let mut claimed = 0u64;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = jobs.get(i) else { break };
                let (first_row, chunk) = cell
                    .lock()
                    .expect("chunk cell lock")
                    .take()
                    .expect("chunk claimed twice");
                self.apply_block_rows(x, chunk, cols, first_row);
                claimed += 1;
            }
            if worker != 0 && claimed > 0 {
                stolen.fetch_add(claimed, Ordering::Relaxed);
            }
        });
        if ceps_obs::enabled() {
            ceps_obs::counter("pool.chunks_stolen", stolen.load(Ordering::Relaxed));
        }
    }

    /// The matrix entry `M[u, v]` (`W̃[u, v]` in the paper's notation — for
    /// the stochastic kinds, the probability of stepping `v → u`).
    ///
    /// Used by the edge-score definition Eq. 15. `O(log deg(u))`.
    pub fn coeff(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let (s, e) = (
            self.offsets[u.index()] as usize,
            self.offsets[u.index() + 1] as usize,
        );
        self.targets[s..e]
            .binary_search(&v.0)
            .ok()
            .map(|i| self.coeffs[s + i])
    }

    /// Out-neighborhood view used by solvers: ids and coefficients of row
    /// `u`.
    #[inline]
    pub fn row(&self, u: NodeId) -> (&[u32], &[f64]) {
        let (s, e) = (
            self.offsets[u.index()] as usize,
            self.offsets[u.index() + 1] as usize,
        );
        (&self.targets[s..e], &self.coeffs[s..e])
    }

    /// Entries of column `v`: `(u, M[u, v])` for every structurally
    /// non-zero row `u` — the out-distribution of a walk standing at `v`
    /// for the stochastic kinds. `O(deg(v) · log deg(u))`.
    ///
    /// The sparsity pattern is symmetric (the operator comes from an
    /// undirected graph), so column `v`'s rows are exactly `v`'s CSR
    /// neighbors; only the coefficients differ from row `v`'s.
    pub fn column_entries(&self, v: NodeId) -> Vec<(NodeId, f64)> {
        let (ids, _) = self.row(v);
        ids.iter()
            .map(|&u| {
                let c = self.coeff(NodeId(u), v).unwrap_or(0.0);
                (NodeId(u), c)
            })
            .collect()
    }

    /// Column sums `Σ_u M[u, v]` — 1.0 (or 0.0 for isolated nodes) for the
    /// stochastic kinds; used by tests to assert the invariant.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0f64; self.node_count];
        for u in 0..self.node_count {
            let (s, e) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for (t, c) in self.targets[s..e].iter().zip(&self.coeffs[s..e]) {
                sums[*t as usize] += c;
            }
        }
        sums
    }

    /// Densifies the operator into row-major `n × n` — test-oracle helper for
    /// small graphs only.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let n = self.node_count;
        let mut m = vec![vec![0f64; n]; n];
        for u in 0..n {
            let (s, e) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for (t, c) in self.targets[s..e].iter().zip(&self.coeffs[s..e]) {
                m[u][*t as usize] = *c;
            }
        }
        m
    }
}

/// Eq. 10 + Eq. 5 raw arrays. With `alpha == 0` this is exactly Eq. 5.
fn raw_degree_penalized(
    graph: &CsrGraph,
    alpha: f64,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, Normalization) {
    let n = graph.node_count();
    // Penalty factor 1 / d_u^alpha per *destination* node u (the row node
    // of Eq. 10 becomes the destination when reading down a column).
    let penalty: Vec<f64> = (0..n)
        .map(|u| {
            let d = graph.degree(NodeId::from_index(u));
            if d > 0.0 {
                d.powf(-alpha)
            } else {
                0.0
            }
        })
        .collect();

    // Column sums of the penalized matrix: for column v,
    // Σ_u w(u, v) · penalty[u].
    let mut col_sum = vec![0f64; n];
    for v in 0..n {
        let vid = NodeId::from_index(v);
        let ids = graph.neighbor_ids(vid);
        let ws = graph.neighbor_weights(vid);
        let mut s = 0.0;
        for (t, w) in ids.iter().zip(ws) {
            s += w * penalty[*t as usize];
        }
        col_sum[v] = s;
    }

    // coeff[u→v] = w(u, v) · penalty[u] / col_sum[v].
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(graph.arc_count());
    let mut coeffs = Vec::with_capacity(graph.arc_count());
    offsets.push(0u32);
    for u in 0..n {
        let uid = NodeId::from_index(u);
        let ids = graph.neighbor_ids(uid);
        let ws = graph.neighbor_weights(uid);
        for (t, w) in ids.iter().zip(ws) {
            let v = *t as usize;
            let c = if col_sum[v] > 0.0 {
                w * penalty[u] / col_sum[v]
            } else {
                0.0
            };
            targets.push(*t);
            coeffs.push(c);
        }
        offsets.push(targets.len() as u32);
    }
    (
        offsets,
        targets,
        coeffs,
        Normalization::DegreePenalized { alpha },
    )
}

/// Eq. 20 raw arrays: `S[u, v] = w(u, v) / sqrt(d_u · d_v)`.
fn raw_symmetric(graph: &CsrGraph) -> (Vec<u32>, Vec<u32>, Vec<f64>, Normalization) {
    let n = graph.node_count();
    let inv_sqrt: Vec<f64> = (0..n)
        .map(|u| {
            let d = graph.degree(NodeId::from_index(u));
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(graph.arc_count());
    let mut coeffs = Vec::with_capacity(graph.arc_count());
    offsets.push(0u32);
    for u in 0..n {
        let uid = NodeId::from_index(u);
        let ids = graph.neighbor_ids(uid);
        let ws = graph.neighbor_weights(uid);
        for (t, w) in ids.iter().zip(ws) {
            targets.push(*t);
            coeffs.push(w * inv_sqrt[u] * inv_sqrt[*t as usize]);
        }
        offsets.push(targets.len() as u32);
    }
    (offsets, targets, coeffs, Normalization::Symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // Triangle 0-1-2 (weights 1, 2, 3) with a tail 2-3 (weight 4).
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 3.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn column_stochastic_columns_sum_to_one() {
        let g = triangle_plus_tail();
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        for s in t.column_sums() {
            assert!((s - 1.0).abs() < 1e-12, "column sum {s}");
        }
    }

    #[test]
    fn column_stochastic_matches_w_over_degree() {
        let g = triangle_plus_tail();
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        // M[u, v] = w(u, v) / d_v. d_2 = 2 + 3 + 4 = 9.
        let c = t.coeff(NodeId(1), NodeId(2)).unwrap();
        assert!((c - 2.0 / 9.0).abs() < 1e-12);
        let c = t.coeff(NodeId(3), NodeId(2)).unwrap();
        assert!((c - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(t.coeff(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn degree_penalized_columns_still_stochastic() {
        let g = triangle_plus_tail();
        for alpha in [0.0, 0.25, 0.5, 1.0] {
            let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
            for s in t.column_sums() {
                assert!((s - 1.0).abs() < 1e-12, "alpha {alpha}: column sum {s}");
            }
        }
    }

    #[test]
    fn alpha_zero_equals_plain_column_normalization() {
        let g = triangle_plus_tail();
        let a = Transition::new(&g, Normalization::ColumnStochastic);
        let b = Transition::new(&g, Normalization::DegreePenalized { alpha: 0.0 });
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.coeff(u, v), b.coeff(u, v));
            }
        }
    }

    #[test]
    fn penalization_shifts_mass_away_from_high_degree_destinations() {
        // From node 1, the unpenalized walk prefers node 2 (weight 2, d=9)
        // over node 0 (weight 1, d=4). Penalizing by destination degree must
        // raise the relative probability of the low-degree destination 0.
        let g = triangle_plus_tail();
        let plain = Transition::new(&g, Normalization::ColumnStochastic);
        let pen = Transition::new(&g, Normalization::DegreePenalized { alpha: 1.0 });
        let ratio_plain =
            plain.coeff(NodeId(0), NodeId(1)).unwrap() / plain.coeff(NodeId(2), NodeId(1)).unwrap();
        let ratio_pen =
            pen.coeff(NodeId(0), NodeId(1)).unwrap() / pen.coeff(NodeId(2), NodeId(1)).unwrap();
        assert!(ratio_pen > ratio_plain);
    }

    #[test]
    fn symmetric_kind_is_symmetric() {
        let g = triangle_plus_tail();
        let t = Transition::new(&g, Normalization::Symmetric);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(t.coeff(u, v), t.coeff(v, u));
            }
        }
        // Column sums of S are not stochastic (they may exceed 1); the
        // relevant spectral property (radius ≤ 1, so Eq. 20 converges) is
        // exercised by the ceps-rwr variant tests instead.
        // S[0, 1] = w / sqrt(d_0 d_1) = 1 / sqrt(4 * 3).
        let c = t.coeff(NodeId(0), NodeId(1)).unwrap();
        assert!((c - 1.0 / (12.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn apply_matches_dense_multiply() {
        let g = triangle_plus_tail();
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha: 0.5 });
        let dense = t.to_dense();
        let x = [0.1, 0.2, 0.3, 0.4];
        let mut out = [0f64; 4];
        t.apply(&x, &mut out);
        for u in 0..4 {
            let want: f64 = (0..4).map(|v| dense[u][v] * x[v]).sum();
            assert!((out[u] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn isolated_nodes_get_zero_columns() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build().unwrap();
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let sums = t.column_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert_eq!(sums[2], 0.0);
    }
}
