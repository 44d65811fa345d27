//! Property-based tests for the graph substrate.

use std::io::Cursor;

use ceps_graph::{
    algo::{connected_components, dijkstra, hop_distances},
    io::{read_edge_list, write_edge_list},
    normalize::{Normalization, Restart, Transition, WINDOW_ROWS},
    GraphBuilder, NodeId, Subgraph,
};
use proptest::prelude::*;

/// Arbitrary edge soup over up to 24 nodes (may be disconnected, with
/// duplicate pairs to exercise merging).
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.1f64..100.0), 1..4 * n);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> ceps_graph::CsrGraph {
    let mut b = GraphBuilder::with_nodes(n);
    for &(x, y, w) in edges {
        if x != y {
            b.add_edge(NodeId(x as u32), NodeId(y as u32), w).unwrap();
        }
    }
    b.build().unwrap()
}

/// Graphs spanning several [`WINDOW_ROWS`] windows: up to 2,000 nodes
/// with random edges, three hub rows of degree about `n / 5`, and every
/// node `≡ 5 (mod 61)` left isolated. Returns `(n, edges, hubs)`.
fn arb_windowed_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<usize>)> {
    (300usize..=2000).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.1f64..100.0), n..3 * n);
        let hubs = proptest::collection::vec(0..n, 3..4);
        (Just(n), edges, hubs)
    })
}

fn build_windowed(n: usize, edges: &[(usize, usize, f64)], hubs: &[usize]) -> ceps_graph::CsrGraph {
    let isolated = |v: usize| v % 61 == 5;
    let mut b = GraphBuilder::with_nodes(n);
    let hub_edges = hubs
        .iter()
        .flat_map(|&h| (0..n / 5).map(move |i| (h, (h * 7 + 13 * i + 1) % n, 1.5)));
    for (x, y, w) in edges.iter().copied().chain(hub_edges) {
        if x != y && !isolated(x) && !isolated(y) {
            b.add_edge(NodeId(x as u32), NodeId(y as u32), w).unwrap();
        }
    }
    b.build().unwrap()
}

/// Finite test input in `[-1, 1)` with some exact zeros, so padding slots
/// meet negative and zero `x` entries.
fn test_block(len: usize, seed: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(7) {
                0.0
            } else {
                (h % 2048) as f64 / 1024.0 - 1.0
            }
        })
        .collect()
}

/// The plain CSR sweep: each row's arcs in [`Transition::row`] order,
/// one accumulator per column starting at `+0.0`.
fn csr_reference(t: &Transition, x: &[f64], cols: usize) -> Vec<f64> {
    let mut out = vec![0f64; t.node_count() * cols];
    for u in 0..t.node_count() {
        for j in 0..cols {
            let mut acc = 0.0;
            for (v, c) in t.row(NodeId(u as u32)) {
                acc += c * x[v.index() * cols + j];
            }
            out[u * cols + j] = acc;
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR structural invariants: symmetric adjacency, sorted neighbor
    /// slices, degree = sum of incident weights.
    #[test]
    fn csr_invariants_hold((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        for v in g.nodes() {
            let ids = g.neighbor_ids(v);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted slice at {v}");
            let mut deg = 0.0;
            for (u, w) in g.neighbors(v) {
                prop_assert_eq!(g.weight(u, v), Some(w), "asymmetric edge {}-{}", v, u);
                deg += w;
            }
            prop_assert!((deg - g.degree(v)).abs() < 1e-9);
        }
        // Arc count is exactly twice the edge count.
        prop_assert_eq!(g.arc_count(), 2 * g.edge_count());
        // Total weight halves the degree sum.
        let deg_sum: f64 = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert!((g.total_weight() - deg_sum / 2.0).abs() < 1e-9);
    }

    /// Duplicate edges merge by weight sum regardless of orientation.
    #[test]
    fn duplicate_edges_merge((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        // Recompute expected pair sums independently.
        let mut expected = std::collections::BTreeMap::new();
        for &(x, y, w) in &edges {
            if x != y {
                let key = (x.min(y), x.max(y));
                *expected.entry(key).or_insert(0.0) += w;
            }
        }
        prop_assert_eq!(g.edge_count(), expected.len());
        for ((lo, hi), w) in expected {
            let got = g.weight(NodeId(lo as u32), NodeId(hi as u32)).unwrap();
            prop_assert!((got - w).abs() < 1e-9);
        }
    }

    /// Edge-list round trip is the identity.
    #[test]
    fn io_round_trip((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Stochastic normalizations have unit (or empty) columns for any
    /// graph and alpha.
    #[test]
    fn normalization_columns_stochastic((n, edges) in arb_edges(), alpha in 0.0f64..2.0) {
        let g = build(n, &edges);
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        for (v, s) in t.column_sums().into_iter().enumerate() {
            let isolated = g.degree(NodeId(v as u32)) == 0.0;
            if isolated {
                prop_assert_eq!(s, 0.0);
            } else {
                prop_assert!((s - 1.0).abs() < 1e-9, "column {v} sums to {s}");
            }
        }
        // column_entries agrees with coeff lookups.
        for v in g.nodes() {
            for (u, c) in t.column_entries(v) {
                prop_assert_eq!(t.coeff(u, v), Some(c));
            }
        }
    }

    /// The block kernel is the scalar operator applied per column: for any
    /// graph, normalization and block width, `apply_block` on a random
    /// N x Q block equals Q scalar `apply` calls, bitwise (the per-column
    /// arithmetic order is identical by construction).
    #[test]
    fn apply_block_matches_scalar_apply(
        (n, edges) in arb_edges(),
        alpha in 0.0f64..2.0,
        cols in 1usize..6,
        fill in proptest::collection::vec(0.0f64..1.0, 24 * 6),
    ) {
        let g = build(n, &edges);
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        let x: Vec<f64> = fill[..n * cols].to_vec();
        let mut block_out = vec![0f64; n * cols];
        t.apply_block(&x, &mut block_out, cols);
        let mut col = vec![0f64; n];
        let mut col_out = vec![0f64; n];
        for j in 0..cols {
            for u in 0..n {
                col[u] = x[u * cols + j];
            }
            t.apply(&col, &mut col_out);
            for u in 0..n {
                prop_assert_eq!(block_out[u * cols + j], col_out[u],
                    "col {} node {}", j, u);
            }
        }
    }

    /// Pooled row-chunking never changes the output: `apply_block_restart`
    /// without a restart, over a persistent worker pool, equals
    /// `apply_block` bitwise across thread counts {1, 2, 3, 8} and widths
    /// {1, 2, 5} (each row is computed by exactly one worker, same inner
    /// loop). The pool's `min_work` is forced to 0 so tiny random graphs
    /// still exercise the parallel path, and the pool is reused across both
    /// calls like the solver reuses it across iterations.
    #[test]
    fn par_apply_block_matches_sequential(
        (n, edges) in arb_edges(),
        cols_pick in 0usize..3,
        threads_pick in 0usize..4,
        fill in proptest::collection::vec(0.0f64..1.0, 24 * 5),
    ) {
        let cols = [1usize, 2, 5][cols_pick];
        let threads = [1usize, 2, 3, 8][threads_pick];
        let g = build(n, &edges);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let pool = ceps_pool::WorkerPool::with_min_work(threads, 0);
        let x: Vec<f64> = fill[..n * cols].to_vec();
        let mut seq = vec![0f64; n * cols];
        let mut par = vec![0f64; n * cols];
        t.apply_block(&x, &mut seq, cols);
        t.apply_block_restart(&x, &mut par, cols, None, Some(&pool));
        prop_assert_eq!(&seq, &par);
    }

    /// `balanced_row_chunks` partitions the rows exactly (non-empty,
    /// disjoint, ascending, covering, cut only at window boundaries), and
    /// no chunk carries more than one quantile span of nnz beyond its
    /// largest single window — the balance guarantee the pool's work
    /// distribution rests on. Windows are the unit because the kernel
    /// writes a window's rows in degree-sorted order, so a chunk must own
    /// whole windows.
    #[test]
    fn balanced_row_chunks_cover_rows_and_balance_nnz(
        (n, edges, hubs) in arb_windowed_graph(),
        target in 1usize..12,
    ) {
        let g = build_windowed(n, &edges, &hubs);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let windows = n.div_ceil(WINDOW_ROWS);
        let chunks = t.balanced_row_chunks(target);
        prop_assert!(chunks.len() <= target.min(windows));
        let mut expect = 0usize;
        for &(s, e) in &chunks {
            prop_assert_eq!(s, expect, "contiguous ascending coverage");
            prop_assert!(e > s, "non-empty chunk");
            prop_assert!(e == n || e.is_multiple_of(WINDOW_ROWS), "chunk [{s}, {e}) splits a window");
            expect = e;
        }
        prop_assert_eq!(expect, n, "chunks cover every row");
        let window_nnz = |w: usize| -> usize {
            (w * WINDOW_ROWS..((w + 1) * WINDOW_ROWS).min(n))
                .map(|u| t.row(NodeId(u as u32)).len())
                .sum()
        };
        // The implementation clamps `target` to the window count.
        let quantile = t.nnz().div_ceil(target.min(windows));
        for &(s, e) in &chunks {
            let covered = s / WINDOW_ROWS..e.div_ceil(WINDOW_ROWS);
            let nnz: usize = covered.clone().map(window_nnz).sum();
            let biggest = covered.map(window_nnz).max().unwrap_or(0);
            prop_assert!(
                nnz <= quantile + biggest,
                "chunk [{s}, {e}) holds {nnz} nnz > quantile {quantile} + biggest window {biggest}"
            );
        }
    }

    /// Dijkstra distances are consistent with BFS hops under unit costs.
    #[test]
    fn dijkstra_matches_bfs_on_unit_costs((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let run = dijkstra(&g, NodeId(0), |_| 1.0);
        let hops = hop_distances(&g, NodeId(0));
        for v in 0..n {
            if hops[v] == u32::MAX {
                prop_assert!(run.dist[v].is_infinite());
            } else {
                prop_assert!((run.dist[v] - hops[v] as f64).abs() < 1e-9);
            }
        }
    }

    /// Components partition the graph and agree with subgraph connectivity.
    #[test]
    fn components_are_consistent((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let comp = connected_components(&g);
        prop_assert_eq!(comp.sizes().iter().sum::<usize>(), n);
        // Every edge joins same-component endpoints.
        for (a, b, _) in g.edges() {
            prop_assert!(comp.same_component(a, b));
        }
        // The whole-graph subgraph has exactly comp.count components.
        let all: Subgraph = g.nodes().collect();
        prop_assert_eq!(all.component_count(&g), comp.count);
    }

    /// Induced-subgraph materialization preserves weights through the
    /// id mapping.
    #[test]
    fn subgraph_materialization_preserves_weights(
        (n, edges) in arb_edges(),
        picks in proptest::collection::vec(0usize..24, 1..10),
    ) {
        let g = build(n, &edges);
        let sub: Subgraph =
            picks.iter().map(|&p| NodeId((p % n) as u32)).collect();
        let (mat, back) = sub.into_graph(&g).unwrap();
        prop_assert_eq!(mat.node_count(), sub.len());
        for (a, b, w) in mat.edges() {
            let (pa, pb) = (back[a.index()], back[b.index()]);
            prop_assert_eq!(g.weight(pa, pb), Some(w));
        }
        prop_assert_eq!(mat.edge_count(), sub.induced_edge_count(&g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The row-interleaved kernels equal a naive CSR sweep over
    /// `Transition::row` bit for bit: `apply` per column, `apply_block`
    /// at widths 1..=10 (10 crosses the 8-column panel split) and pooled
    /// `apply_block_restart` without a restart on 1, 2 and 3 threads, on graphs of several
    /// windows with hub rows (wide, heavily padded groups), isolated rows
    /// (all-padding lanes) and a final partial group.
    #[test]
    fn interleaved_kernels_match_plain_csr_bitwise(
        (n, edges, hubs) in arb_windowed_graph(),
        alpha in 0.0f64..1.5,
        cols in 1usize..=10,
        threads in 1usize..=3,
        seed in 0u64..u64::MAX,
    ) {
        let g = build_windowed(n, &edges, &hubs);
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        let x = test_block(n * cols, seed);
        let want = bits(&csr_reference(&t, &x, cols));

        let mut out = vec![f64::NAN; n * cols];
        t.apply_block(&x, &mut out, cols);
        prop_assert!(bits(&out) == want, "apply_block diverged at width {}", cols);

        let pool = ceps_pool::WorkerPool::with_min_work(threads, 0);
        let mut out = vec![f64::NAN; n * cols];
        t.apply_block_restart(&x, &mut out, cols, None, Some(&pool));
        prop_assert!(bits(&out) == want, "pooled product diverged on {} threads", threads);

        let mut col = vec![0f64; n];
        let mut col_out = vec![f64::NAN; n];
        for j in 0..cols {
            for u in 0..n {
                col[u] = x[u * cols + j];
            }
            t.apply(&col, &mut col_out);
            for u in 0..n {
                prop_assert_eq!(col_out[u].to_bits(), want[u * cols + j], "apply col {} node {}", j, u);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused restart step equals the bare product followed by the
    /// restart loop the solver once ran over the block, bit for bit:
    /// `apply_block`, then `c·acc + (1 − c)·[u == source]` per entry. Widths
    /// 1..=12 cross the split into 8-column panels (9 as 8 + 1, 12 as
    /// 8 + 4); the kernel runs on the calling thread and on pools of 1, 2
    /// and 3 threads. Every fourth column repeats the source three columns
    /// back, and every third column restarts at an isolated node.
    #[test]
    fn fused_restart_matches_product_then_restart_bitwise(
        (n, edges, hubs) in arb_windowed_graph(),
        alpha in 0.0f64..1.5,
        c in 0.05f64..0.95,
        cols in 1usize..=12,
        picks in proptest::collection::vec(0usize..2000, 12),
        seed in 0u64..u64::MAX,
    ) {
        let g = build_windowed(n, &edges, &hubs);
        let t = Transition::new(&g, Normalization::DegreePenalized { alpha });
        let mut sources: Vec<NodeId> = Vec::with_capacity(cols);
        for (j, &p) in picks[..cols].iter().enumerate() {
            // Nodes `≡ 5 (mod 61)` are isolated (see `build_windowed`).
            let u = match j % 4 {
                3 => sources[j - 3].index(),
                2 => (p % (n / 61)) * 61 + 5,
                _ => p % n,
            };
            sources.push(NodeId(u as u32));
        }
        let x = test_block(n * cols, seed);
        let mut want = vec![0f64; n * cols];
        t.apply_block(&x, &mut want, cols);
        for (u, row) in want.chunks_exact_mut(cols).enumerate() {
            for (v, s) in row.iter_mut().zip(&sources) {
                *v = c * *v + if s.index() == u { 1.0 - c } else { 0.0 };
            }
        }
        let want = bits(&want);
        let restart = Restart { c, sources: &sources };

        let mut out = vec![f64::NAN; n * cols];
        t.apply_block_restart(&x, &mut out, cols, Some(restart), None);
        prop_assert!(bits(&out) == want, "sequential fused step diverged at width {}", cols);
        for threads in 1..=3 {
            let pool = ceps_pool::WorkerPool::with_min_work(threads, 0);
            let mut out = vec![f64::NAN; n * cols];
            t.apply_block_restart(&x, &mut out, cols, Some(restart), Some(&pool));
            prop_assert!(
                bits(&out) == want,
                "pooled fused step diverged at width {} on {} threads", cols, threads
            );
        }
    }
}
