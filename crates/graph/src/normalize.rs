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
//! The operator is stored row-interleaved, in the SELL-C-σ scheme of
//! Kreutzer et al. (SIAM J. Sci. Comput. 2014) with C = 4 and
//! σ = [`WINDOW_ROWS`] = 256: rows are sorted by degree inside each window
//! of 256 rows, taken four at a time, and each group of four stores its
//! arcs interleaved (arc `i` of lane `r` at `start + 4·i + r`), padded to
//! the group's longest row with `+0.0` coefficients. The kernel adds each
//! row's arcs in ascending target order, exactly as a plain CSR sweep
//! does, so every output bit is the CSR result for finite inputs (see
//! [`Transition::apply`] for why the padding cannot change a bit).
//!
//! The plain CSR sweep it replaced was bound by latency and branches, not
//! by memory bandwidth. Each row is a short dependent `+=` chain (18 arcs
//! on average, Zipf degrees) whose variable-length exit mispredicts. On
//! the medium preset (10K nodes, 180,126 arcs, 2-core VM) a probe measured
//! the CSR sweep at 2.0–2.8 ns per arc at width 1, the same arcs at
//! 0.9–1.2 ns as one long chain and 0.5–0.8 ns with eight independent
//! accumulators. Four interleaved rows give four independent chains, and
//! a group's rows have similar lengths, so the loop exits once per group.
//! Time per `apply_block` product, interleaved over CSR (median of 21
//! alternating pairs), at widths 1/3/5/8: 0.50–0.55/0.57–0.65/0.72–0.75/
//! 0.85–0.87 on medium and 0.68–0.78/0.79–0.83/0.80–0.88/0.99–1.04 on
//! large (80K nodes, 1.58M arcs). Window sizes 64, 256 and 1024 measured
//! the same within noise; they pad the arcs 1.090/1.068/1.062× on medium and
//! 1.068/1.047/1.041× on large, and 256 keeps ~40 windows on medium for
//! the pool's window-aligned chunks. The four accumulators must be
//! separate locals: as one `[[f64; K]; 4]` array the compiler spilled them
//! through the stack and widths 5 and 8 ran 0.7–0.8× as fast as CSR.
//!
//! A cache-blocked ("banded") layout once took over at 2¹⁶ nodes; it was
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

/// Rows per sorting window (σ): rows are sorted by degree inside each
/// window of this many consecutive rows, never across windows, so a
/// window's output rows stay one contiguous range.
pub const WINDOW_ROWS: usize = 256;

/// Rows interleaved per group (C): the kernel runs this many independent
/// accumulator chains side by side.
const LANES: usize = 4;

/// The restart term of Eq. 4 for a block of sources, applied by
/// [`Transition::apply_block_restart`] as it writes each row.
#[derive(Debug, Clone, Copy)]
pub struct Restart<'s> {
    /// The continuation probability `c`; each walk restarts with
    /// probability `1 − c`.
    pub c: f64,
    /// The source node of each column of the block.
    pub sources: &'s [NodeId],
}

/// A normalized adjacency operator in a row-interleaved layout.
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
/// // Row 0 in ascending target order: its one arc, M[0, 1] = 3/4.
/// let row: Vec<(NodeId, f64)> = t.row(NodeId(0)).collect();
/// assert_eq!(row, vec![(NodeId(1), 0.75)]);
/// ```
///
/// Entry `M[u, v]` is the coefficient that multiplies `x[v]` when
/// accumulating the new value at `u`, so one matrix–vector product is a
/// gather over each row's arcs (see [`Transition::apply`]).
///
/// Rows are sorted by degree (descending, stable) inside windows of
/// [`WINDOW_ROWS`] rows and grouped four at a time in that order. A group
/// stores its rows' arcs interleaved: arc `i` of the group's lane `r` sits
/// at slot `start + 4·i + r`, each row's arcs in ascending target order.
/// A group is as wide as its longest row; shorter rows are padded with
/// `+0.0` coefficients whose target repeats the row's last real target.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Original row of each sorted position.
    perm: Vec<u32>,
    /// Sorted position of each original row (the inverse of `perm`).
    rank: Vec<u32>,
    /// Real arc count of each original row.
    row_len: Vec<u32>,
    /// First slot of each group of `LANES` sorted positions, plus the end.
    group_start: Vec<usize>,
    /// Real arcs before each window, plus the total: the nnz prefix sums
    /// that [`Transition::balanced_row_chunks`] cuts.
    window_nnz: Vec<usize>,
    targets: Vec<u32>,
    coeffs: Vec<f64>,
    kind: Normalization,
}

impl Transition {
    /// Normalizes `graph` according to `kind`, with `f64` coefficients.
    ///
    /// Isolated nodes get an all-zero column (the walk can never reach or
    /// leave them), which the stochastic invariant tolerates.
    pub fn new(graph: &CsrGraph, kind: Normalization) -> Self {
        match kind {
            Normalization::ColumnStochastic => degree_penalized(graph, 0.0),
            Normalization::DegreePenalized { alpha } => degree_penalized(graph, alpha),
            Normalization::Symmetric => symmetric(graph),
        }
    }

    /// Lays `graph`'s arcs out row-interleaved, with `coeff(u, v, w)` as the
    /// coefficient of arc `u → v` of weight `w`.
    fn interleave(
        graph: &CsrGraph,
        kind: Normalization,
        coeff: impl Fn(usize, usize, f64) -> f64,
    ) -> Self {
        let n = graph.node_count();
        let row_len: Vec<u32> = (0..n)
            .map(|u| graph.neighbor_ids(NodeId::from_index(u)).len() as u32)
            .collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for window in perm.chunks_mut(WINDOW_ROWS) {
            window.sort_by_key(|&u| std::cmp::Reverse(row_len[u as usize]));
        }
        let mut rank = vec![0u32; n];
        for (k, &u) in perm.iter().enumerate() {
            rank[u as usize] = k as u32;
        }
        // Rows are sorted descending, so a group's first row is its widest.
        let mut group_start = Vec::with_capacity(n.div_ceil(LANES) + 1);
        group_start.push(0usize);
        for rows in perm.chunks(LANES) {
            let width = row_len[rows[0] as usize] as usize;
            group_start.push(group_start[group_start.len() - 1] + LANES * width);
        }
        let slots = group_start[group_start.len() - 1];
        let mut targets = vec![0u32; slots];
        let mut coeffs = vec![0f64; slots];
        for (group, rows) in perm.chunks(LANES).enumerate() {
            let (start, end) = (group_start[group], group_start[group + 1]);
            for lane in 0..LANES {
                // The last group may have fewer than LANES rows; its empty
                // lanes are all padding.
                let (u, ts, ws) = match rows.get(lane) {
                    Some(&u) => {
                        let id = NodeId(u);
                        (u, graph.neighbor_ids(id), graph.neighbor_weights(id))
                    }
                    None => (rows[0], &[][..], &[][..]),
                };
                let first_pad = start + lane + LANES * ts.len();
                for (i, (&t, &w)) in ts.iter().zip(ws).enumerate() {
                    let s = start + lane + LANES * i;
                    targets[s] = t;
                    coeffs[s] = coeff(u as usize, t as usize, w);
                }
                // Padding keeps its `+0.0` coefficient.
                let pad = ts.last().copied().unwrap_or(u);
                for s in (first_pad..end).step_by(LANES) {
                    targets[s] = pad;
                }
            }
        }
        let mut window_nnz = vec![0usize];
        for window in row_len.chunks(WINDOW_ROWS) {
            let before = window_nnz[window_nnz.len() - 1];
            window_nnz.push(before + window.iter().map(|&d| d as usize).sum::<usize>());
        }
        Transition {
            perm,
            rank,
            row_len,
            group_start,
            window_nnz,
            targets,
            coeffs,
            kind,
        }
    }

    /// The normalization this operator applies.
    pub fn kind(&self) -> Normalization {
        self.kind
    }

    /// Bytes held by the operator's index and coefficient arrays, padding
    /// slots included.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.perm.as_slice())
            + std::mem::size_of_val(self.rank.as_slice())
            + std::mem::size_of_val(self.row_len.as_slice())
            + std::mem::size_of_val(self.group_start.as_slice())
            + std::mem::size_of_val(self.window_nnz.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
            + std::mem::size_of_val(self.coeffs.as_slice())
    }

    /// Number of nodes (matrix dimension).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.perm.len()
    }

    /// Computes `out = M · x` (one sparse matrix–vector product).
    ///
    /// This is the bare product. A power-iteration step of Eq. 4, restart
    /// term included, is [`Transition::apply_block_restart`], which applies
    /// the restart as it writes each row.
    ///
    /// For finite `x`, every `out[u]` is bitwise the plain CSR sum
    /// `Σ M[u, v] · x[v]` taken over [`Transition::row`] in ascending `v`
    /// from `+0.0`: padding slots add `+0.0 · x[v]`, which leaves an
    /// accumulator that started at `+0.0` unchanged (such a sum is never
    /// `−0.0`). An infinite or NaN entry of `x` can turn a padding slot
    /// into NaN.
    ///
    /// # Panics
    /// Panics if `x` or `out` is not `node_count` long.
    pub fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.node_count(), "input vector length mismatch");
        assert_eq!(
            out.len(),
            self.node_count(),
            "output vector length mismatch"
        );
        self.apply_block_rows(x, out, 1, 0, None);
    }

    /// Computes `out = M · X` for a dense block `X` of `cols` column
    /// vectors, stored row-major with stride `cols` (node-major: `X[u, j]`
    /// at `x[u * cols + j]`).
    ///
    /// One pass over the interleaved arrays serves every column: each
    /// `(target, coeff)` slot is loaded once and applied to `cols`
    /// accumulators. Per column, the accumulation visits arcs in the same
    /// order as `apply`, so for finite `x` results are bitwise-identical
    /// to `cols` independent scalar products.
    ///
    /// # Panics
    /// Panics if `cols == 0` or either slice is not `node_count * cols`
    /// long.
    pub fn apply_block(&self, x: &[f64], out: &mut [f64], cols: usize) {
        self.check_block(x, out, cols);
        self.apply_block_rows(x, out, cols, 0, None);
    }

    fn check_block(&self, x: &[f64], out: &[f64], cols: usize) {
        assert!(cols > 0, "block must have at least one column");
        let len = self.node_count() * cols;
        assert_eq!(x.len(), len, "input block length mismatch");
        assert_eq!(out.len(), len, "output block length mismatch");
    }

    /// Block kernel over the windows starting at row `first_row`, writing
    /// into `out` (whose length selects how many rows are computed; it
    /// ends on a window boundary or at `node_count`). Shared by
    /// [`Transition::apply`], [`Transition::apply_block`] and the row
    /// chunks of [`Transition::apply_block_restart`]; `restart`, when
    /// given, is applied as each row is written. Widths up to 8 run as one
    /// const-generic panel reading `x` as `[f64; K]` rows; wider blocks
    /// sweep in 8-column panels.
    fn apply_block_rows(
        &self,
        x: &[f64],
        out: &mut [f64],
        cols: usize,
        first_row: usize,
        restart: Option<Restart<'_>>,
    ) {
        debug_assert_eq!(out.len() % cols, 0);
        debug_assert_eq!(first_row % WINDOW_ROWS, 0);
        macro_rules! whole {
            ($k:literal) => {{
                let (rows, _) = x.as_chunks::<$k>();
                self.panel::<$k>(|t| &rows[t], out, cols, first_row, 0, restart)
            }};
        }
        macro_rules! part {
            ($k:literal, $fc:expr) => {{
                let fc = $fc;
                let row = |t: usize| -> &[f64; $k] {
                    x[t * cols + fc..][..$k]
                        .try_into()
                        .expect("panel slice has K entries")
                };
                self.panel::<$k>(row, out, cols, first_row, fc, restart)
            }};
        }
        match cols {
            1 => whole!(1),
            2 => whole!(2),
            3 => whole!(3),
            4 => whole!(4),
            5 => whole!(5),
            6 => whole!(6),
            7 => whole!(7),
            8 => whole!(8),
            _ => {
                let mut first_col = 0;
                while first_col < cols {
                    match cols - first_col {
                        1 => part!(1, first_col),
                        2 => part!(2, first_col),
                        3 => part!(3, first_col),
                        4 => part!(4, first_col),
                        5 => part!(5, first_col),
                        6 => part!(6, first_col),
                        7 => part!(7, first_col),
                        _ => part!(8, first_col),
                    }
                    first_col += 8;
                }
            }
        }
    }

    /// `K`-column panel: columns `first_col..first_col + K` of the rows
    /// in `out`, where `xrow(v)` is those columns of `x`'s row `v`. Each
    /// group's four rows accumulate side by side, one slot of each per
    /// step, so four independent add chains hide each other's latency.
    /// The four accumulators are separate locals, not one `[[f64; K]; 4]`
    /// indexed by lane: the array form made the compiler rotate and spill
    /// accumulators through the stack every step.
    ///
    /// Without `restart` each row's sums are stored as they are; with it,
    /// column `j`'s entry of row `u` is stored as
    /// `c·acc + (1 − c)·[u == sources[j]]`, the restart step of Eq. 4.
    fn panel<'x, const K: usize>(
        &self,
        xrow: impl Fn(usize) -> &'x [f64; K],
        out: &mut [f64],
        cols: usize,
        first_row: usize,
        first_col: usize,
        restart: Option<Restart<'_>>,
    ) {
        #[inline(always)]
        fn madd<const K: usize>(acc: &mut [f64; K], c: f64, x: &[f64; K]) {
            for (a, x) in acc.iter_mut().zip(x) {
                *a += c * x;
            }
        }
        let restart = restart.map(|r| {
            let sources: &[NodeId; K] = r.sources[first_col..first_col + K]
                .try_into()
                .expect("panel sources have K entries");
            (r.c, 1.0 - r.c, sources)
        });
        let end_row = first_row + out.len() / cols;
        for group in first_row / LANES..end_row.div_ceil(LANES) {
            let (start, end) = (self.group_start[group], self.group_start[group + 1]);
            let (targets, _) = self.targets[start..end].as_chunks::<LANES>();
            let (coeffs, _) = self.coeffs[start..end].as_chunks::<LANES>();
            let (mut a0, mut a1, mut a2, mut a3) = ([0f64; K], [0f64; K], [0f64; K], [0f64; K]);
            for (t, c) in targets.iter().zip(coeffs) {
                madd(&mut a0, c[0], xrow(t[0] as usize));
                madd(&mut a1, c[1], xrow(t[1] as usize));
                madd(&mut a2, c[2], xrow(t[2] as usize));
                madd(&mut a3, c[3], xrow(t[3] as usize));
            }
            let first = group * LANES;
            let rows = &self.perm[first..(first + LANES).min(end_row)];
            for (&u, acc) in rows.iter().zip([&a0, &a1, &a2, &a3]) {
                let at = (u as usize - first_row) * cols + first_col;
                let dst = &mut out[at..at + K];
                match restart {
                    None => dst.copy_from_slice(acc),
                    Some((c, fly, sources)) => {
                        for ((o, &a), s) in dst.iter_mut().zip(acc).zip(sources) {
                            *o = c * a + if s.0 == u { fly } else { 0.0 };
                        }
                    }
                }
            }
        }
    }

    /// Number of real arcs (padding excluded): the cost of one
    /// [`Transition::apply`] sweep, and — times the column count — the
    /// work estimate the parallel kernels weigh against a pool's
    /// [`WorkerPool::min_work`] threshold.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.window_nnz[self.window_nnz.len() - 1]
    }

    /// Splits the rows into up to `target` contiguous ranges of roughly
    /// equal **nonzero count** (not row count), cut only at window
    /// boundaries (multiples of [`WINDOW_ROWS`]): chunk ends are found by
    /// binary-searching the per-window nnz prefix sums for the `k/target`
    /// quantiles. Skewed-degree graphs (ours are) make per-row-count
    /// chunks pathologically unbalanced — one hub-heavy chunk serializes
    /// the whole product; nnz balancing is what lets the worker pool keep
    /// every thread busy.
    ///
    /// Ranges are non-empty, disjoint, ascending and cover `0..node_count`
    /// exactly. A window whose nnz exceeds a quantile span simply becomes
    /// its own (oversized) chunk — windows are never split.
    pub fn balanced_row_chunks(&self, target: usize) -> Vec<(usize, usize)> {
        let n = self.node_count();
        if n == 0 {
            return Vec::new();
        }
        let windows = self.window_nnz.len() - 1;
        let target = target.clamp(1, windows);
        let nnz = self.nnz();
        if nnz == 0 {
            return vec![(0, n)];
        }
        let mut chunks = Vec::with_capacity(target);
        let mut prev = 0usize;
        for k in 1..target {
            let want = (k * nnz).div_ceil(target);
            // First window boundary whose prefix sum reaches the quantile.
            let window = self.window_nnz.partition_point(|&o| o < want);
            let bound = (window * WINDOW_ROWS).min(n);
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

    /// `out = M · X`, or with `restart` one power-iteration step of Eq. 4
    /// for a block of sources, `out = c · M · X + (1 − c) · E`, where
    /// column `j` of `E` is the indicator of `restart.sources[j]`. `X` and
    /// `out` are laid out as in [`Transition::apply_block`].
    ///
    /// The restart is applied as each row of the product is written, by
    /// the thread that computes the row, so every entry of `out` is written
    /// once and no second pass over the block follows. Per entry it
    /// evaluates `c · acc + (if u == source { 1 − c } else { 0 })` on the
    /// bare product's sum `acc`, so the result is bitwise that of
    /// [`Transition::apply_block`] followed by that expression per entry.
    ///
    /// With `pool`, the product runs on a persistent [`WorkerPool`]: one
    /// dispatch (wake → steal → sleep) per call, no thread spawns. The rows
    /// are pre-split into nnz-balanced, window-aligned chunks
    /// ([`Transition::balanced_row_chunks`], ~4 per worker) and claimed off
    /// an atomic cursor, so a straggling worker sheds load to the others.
    /// The calling thread runs the whole sweep when there is no pool, the
    /// pool is single-threaded or the estimated work (`nnz × cols`) is under
    /// the pool's [`WorkerPool::min_work`] threshold — below it the barrier
    /// costs more than the parallelism recovers.
    ///
    /// **Pooled and sequential runs are bitwise identical**: each row is
    /// computed by exactly one worker with the same per-row arithmetic
    /// order, so neither the chunking nor the claiming order can change a
    /// single bit of the output.
    ///
    /// Telemetry (when a `ceps-obs` recorder is installed): a `pool.apply`
    /// span around a pooled dispatch and a `pool.chunks_stolen` counter for
    /// chunks claimed by non-calling workers.
    ///
    /// # Panics
    /// Panics if `cols == 0`, either slice is not `node_count * cols` long,
    /// `restart.sources` is not `cols` long, or the job panics on a worker.
    pub fn apply_block_restart(
        &self,
        x: &[f64],
        out: &mut [f64],
        cols: usize,
        restart: Option<Restart<'_>>,
        pool: Option<&WorkerPool>,
    ) {
        self.check_block(x, out, cols);
        if let Some(r) = restart {
            assert_eq!(r.sources.len(), cols, "one restart source per column");
        }
        let workers = pool.map_or(1, |p| p.threads().min(self.node_count()));
        let pool = match pool {
            Some(p) if workers > 1 && self.nnz().saturating_mul(cols) >= p.min_work() => p,
            _ => return self.apply_block_rows(x, out, cols, 0, restart),
        };
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
                self.apply_block_rows(x, chunk, cols, first_row, restart);
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

    /// First slot and real length of row `u`; its arc `i` is at
    /// `start + LANES·i`.
    fn row_span(&self, u: NodeId) -> (usize, usize) {
        let k = self.rank[u.index()] as usize;
        (
            self.group_start[k / LANES] + k % LANES,
            self.row_len[u.index()] as usize,
        )
    }

    /// The matrix entry `M[u, v]` (`W̃[u, v]` in the paper's notation — for
    /// the stochastic kinds, the probability of stepping `v → u`).
    ///
    /// Used by the edge-score definition Eq. 15. `O(log deg(u))`.
    pub fn coeff(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let (start, len) = self.row_span(u);
        let at = |i: usize| start + LANES * i;
        let (mut lo, mut hi) = (0, len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.targets[at(mid)] < v.0 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < len && self.targets[at(lo)] == v.0).then(|| self.coeffs[at(lo)])
    }

    /// Row `u`'s arcs `(v, M[u, v])` in ascending `v`, padding excluded —
    /// the order in which the kernels add them.
    pub fn row(&self, u: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> + '_ {
        let (start, len) = self.row_span(u);
        // A row of an all-empty final group may start past the arrays.
        let targets = self.targets.get(start..).unwrap_or_default();
        let coeffs = self.coeffs.get(start..).unwrap_or_default();
        targets
            .iter()
            .step_by(LANES)
            .zip(coeffs.iter().step_by(LANES))
            .take(len)
            .map(|(&v, &c)| (NodeId(v), c))
    }

    /// Entries of column `v`: `(u, M[u, v])` for every structurally
    /// non-zero row `u` — the out-distribution of a walk standing at `v`
    /// for the stochastic kinds. `O(deg(v) · log deg(u))`.
    ///
    /// The sparsity pattern is symmetric (the operator comes from an
    /// undirected graph), so column `v`'s rows are exactly row `v`'s
    /// targets; only the coefficients differ from row `v`'s.
    pub fn column_entries(&self, v: NodeId) -> Vec<(NodeId, f64)> {
        self.row(v)
            .map(|(u, _)| (u, self.coeff(u, v).unwrap_or(0.0)))
            .collect()
    }

    /// Column sums `Σ_u M[u, v]` — 1.0 (or 0.0 for isolated nodes) for the
    /// stochastic kinds; used by tests to assert the invariant.
    pub fn column_sums(&self) -> Vec<f64> {
        let n = self.node_count();
        let mut sums = vec![0f64; n];
        for u in 0..n {
            for (v, c) in self.row(NodeId::from_index(u)) {
                sums[v.index()] += c;
            }
        }
        sums
    }

    /// Densifies the operator into row-major `n × n` — test-oracle helper for
    /// small graphs only.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let n = self.node_count();
        let mut m = vec![vec![0f64; n]; n];
        for (u, dense_row) in m.iter_mut().enumerate() {
            for (v, c) in self.row(NodeId::from_index(u)) {
                dense_row[v.index()] = c;
            }
        }
        m
    }
}

/// Eq. 10 + Eq. 5. With `alpha == 0` this is exactly Eq. 5.
fn degree_penalized(graph: &CsrGraph, alpha: f64) -> Transition {
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
    Transition::interleave(
        graph,
        Normalization::DegreePenalized { alpha },
        |u, v, w| {
            if col_sum[v] > 0.0 {
                w * penalty[u] / col_sum[v]
            } else {
                0.0
            }
        },
    )
}

/// Eq. 20: `S[u, v] = w(u, v) / sqrt(d_u · d_v)`.
fn symmetric(graph: &CsrGraph) -> Transition {
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
    Transition::interleave(graph, Normalization::Symmetric, |u, v, w| {
        w * inv_sqrt[u] * inv_sqrt[v]
    })
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
