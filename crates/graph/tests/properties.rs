//! Property-based tests for the graph substrate.

use std::io::Cursor;

use ceps_graph::{
    algo::{connected_components, dijkstra, hop_distances},
    io::{read_edge_list, write_edge_list},
    normalize::{Normalization, Transition},
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

    /// Pooled row-chunking never changes the output: `par_apply_block`
    /// over a persistent worker pool equals `apply_block` bitwise across
    /// thread counts {1, 2, 3, 8} and widths {1, 2, 5} (each row is
    /// computed by exactly one worker, same inner loop). The pool's `min_work` is forced to 0 so tiny random graphs
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
        t.par_apply_block(&x, &mut par, cols, &pool);
        prop_assert_eq!(&seq, &par);
    }

    /// `balanced_row_chunks` partitions the rows exactly (non-empty,
    /// disjoint, ascending, covering), and no chunk carries more than one
    /// quantile span of nnz beyond its largest single row — the balance
    /// guarantee the pool's work distribution rests on.
    #[test]
    fn balanced_row_chunks_cover_rows_and_balance_nnz(
        (n, edges) in arb_edges(),
        target in 1usize..12,
    ) {
        let g = build(n, &edges);
        let t = Transition::new(&g, Normalization::ColumnStochastic);
        let chunks = t.balanced_row_chunks(target);
        prop_assert!(chunks.len() <= target.min(n));
        let mut expect = 0usize;
        for &(s, e) in &chunks {
            prop_assert_eq!(s, expect, "contiguous ascending coverage");
            prop_assert!(e > s, "non-empty chunk");
            expect = e;
        }
        prop_assert_eq!(expect, n, "chunks cover every row");
        let row_nnz = |u: usize| t.row(NodeId(u as u32)).0.len();
        // The implementation clamps `target` to the row count.
        let quantile = t.nnz().div_ceil(target.min(n));
        for &(s, e) in &chunks {
            let nnz: usize = (s..e).map(row_nnz).sum();
            let biggest = (s..e).map(row_nnz).max().unwrap_or(0);
            prop_assert!(
                nnz <= quantile + biggest,
                "chunk [{s}, {e}) holds {nnz} nnz > quantile {quantile} + biggest row {biggest}"
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
