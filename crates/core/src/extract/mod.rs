//! The EXTRACT algorithm (Sec. 5, Table 4).
//!
//! EXTRACT turns the combined closeness scores into an actual subgraph. It
//! repeatedly:
//!
//! 1. picks the most promising **destination node** `pd` — the best-scoring
//!    node not yet in the output (Eq. 11);
//! 2. determines the **active sources** for `pd` (the `k` queries whose
//!    individual score at `pd` is highest — [`active::active_sources`]);
//! 3. for each active source, discovers a **key path** from that source to
//!    `pd` maximizing captured goodness per new node
//!    ([`path::discover_key_path`], Table 3) and merges it into the output.
//!
//! The loop stops once the budget of non-query nodes is spent (or no
//! positive-score destination remains). Because a path is added atomically —
//! splitting one would break the "reasonably connected" requirement — the
//! final round may overshoot the budget by at most `k · len` nodes; callers
//! that need a hard cap can lower `budget` accordingly.

pub mod active;
pub mod path;

pub use path::{PathWorkspace, SharingRule};

use ceps_graph::{CsrGraph, NodeId, Subgraph};
use ceps_rwr::ScoreMatrix;

use self::active::active_sources;
use self::path::{discover_key_path_in_memo, PathQuery, UphillMemo};

/// One key path discovered during extraction, for interpretability: the
/// paper stresses that EXTRACT "provides some interpretations on why such
/// nodes are good/close wrt the query set".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPath {
    /// Index (into the query set) of the source this path serves.
    pub source_index: usize,
    /// The destination node `pd` the path reaches.
    pub dest: NodeId,
    /// The full node sequence, source first, `dest` last.
    pub nodes: Vec<NodeId>,
}

/// The result of one EXTRACT run.
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// The output subgraph `H` (query nodes included).
    pub subgraph: Subgraph,
    /// Destination nodes in the order they were chosen (Eq. 11 argmax trace).
    pub destinations: Vec<NodeId>,
    /// Every key path that was merged into `H`.
    pub paths: Vec<KeyPath>,
    /// Destinations for which **no** active source had a downhill path —
    /// they were added alone (disconnected queries, or `OR` queries whose
    /// communities are separate).
    pub orphan_destinations: Vec<NodeId>,
}

/// Inputs to [`extract`].
#[derive(Debug, Clone, Copy)]
pub struct ExtractParams<'a> {
    /// The graph `W`.
    pub graph: &'a CsrGraph,
    /// Individual score matrix `R` (one row per query).
    pub scores: &'a ScoreMatrix,
    /// Combined scores `r(Q, ·)`.
    pub combined: &'a [f64],
    /// Number of active sources per destination (the resolved softAND `k`).
    pub k: usize,
    /// Budget `b`: target number of non-query output nodes.
    pub budget: usize,
    /// Maximum allowable path length (`⌈b/k⌉` in the paper).
    pub max_path_len: usize,
    /// Node-sharing ablation switch (the paper's rule by default).
    pub sharing: SharingRule,
}

/// Runs EXTRACT (Table 4).
///
/// The output always contains every query node; all other content is
/// budget-bounded as described in the module docs.
pub fn extract(params: ExtractParams<'_>) -> ExtractOutcome {
    let ExtractParams {
        graph,
        scores,
        combined,
        k,
        budget,
        max_path_len,
        sharing,
    } = params;
    let n = graph.node_count();
    debug_assert_eq!(combined.len(), n);

    let queries = scores.sources();
    let mut in_h = vec![false; n];
    let mut subgraph = Subgraph::new();
    for &q in queries {
        in_h[q.index()] = true;
        subgraph.insert(q);
    }

    let mut destinations = Vec::new();
    let mut paths = Vec::new();
    let mut orphans = Vec::new();
    let mut added = 0usize; // non-query nodes added so far
    let mut col = vec![0f64; queries.len()];
    let mut ws = PathWorkspace::new();
    // A source's uphill neighbours depend only on its score row — not on
    // the destination or the growing subgraph — so each active source keeps
    // one memo across every round; all are dropped when this call returns.
    let mut memos: Vec<Option<UphillMemo>> = (0..queries.len()).map(|_| None).collect();

    // Eq. 11: pd = argmax_{j ∉ H} r(Q, j); ties by id for determinism.
    // One pass ranks the `budget` best positive-score nodes outside H. H
    // only grows, so the first ranked node still outside H is the argmax.
    // Each ranked node that joins H adds one to `added`, so the list runs
    // out only once the budget is spent or no positive score is left.
    let ranked = rank_destinations(combined, &in_h, budget.min(n));
    let mut next = 0;
    while added < budget {
        while next < ranked.len() && in_h[ranked[next].1 as usize] {
            next += 1;
        }
        // None left with positive score: zero-score nodes have no closeness
        // to the query set and cannot improve g(H).
        let Some(&(_, pd)) = ranked.get(next) else {
            break;
        };
        let pd = NodeId(pd);
        destinations.push(pd);

        scores.column_into(pd, &mut col);
        let actives = active_sources(&col, k);

        let mut found_any = false;
        for &i in &actives {
            let memo = memos[i].get_or_insert_with(|| UphillMemo::new(n, queries[i]));
            let key_path = discover_key_path_in_memo(
                PathQuery {
                    graph,
                    individual: scores.row(i),
                    combined,
                    in_subgraph: &in_h,
                    source: queries[i],
                    dest: pd,
                    max_new_nodes: max_path_len,
                    sharing,
                },
                memo,
                &mut ws,
            );
            let Some(nodes) = key_path else { continue };
            found_any = true;
            for &v in &nodes {
                if !in_h[v.index()] {
                    in_h[v.index()] = true;
                    subgraph.insert(v);
                    added += 1;
                }
            }
            paths.push(KeyPath {
                source_index: i,
                dest: pd,
                nodes,
            });
        }

        if !found_any {
            // pd is unreachable downhill from every active source (e.g. a
            // separate component under an OR query). Take the node itself —
            // it still carries goodness — and move on.
            in_h[pd.index()] = true;
            subgraph.insert(pd);
            added += 1;
            orphans.push(pd);
        }
        debug_assert!(in_h[pd.index()], "every round must consume pd");
    }

    if ceps_obs::enabled() {
        ceps_obs::counter("extract.rounds", destinations.len() as u64);
        ceps_obs::counter("extract.paths", paths.len() as u64);
        ceps_obs::counter("extract.orphans", orphans.len() as u64);
        ceps_obs::counter("extract.nodes_added", added as u64);
        let scanned = memos.iter().flatten().map(|m| m.scanned).sum();
        ceps_obs::counter("extract.adjacency_scanned", scanned);
    }

    ExtractOutcome {
        subgraph,
        destinations,
        paths,
        orphan_destinations: orphans,
    }
}

/// The `keep` best positive-score nodes outside `H` as `(score, id)`, in
/// Eq. 11 order: score descending, then id ascending.
fn rank_destinations(combined: &[f64], in_h: &[bool], keep: usize) -> Vec<(f64, u32)> {
    let by_rank = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    let mut ranked = Vec::new();
    // A node must score above `floor` to make the cut: ids ascend, so a
    // tie with the worst kept node loses on id.
    let mut floor = 0.0;
    for (j, (&s, &taken)) in combined.iter().zip(in_h).enumerate() {
        if taken || s <= floor {
            continue;
        }
        ranked.push((s, j as u32));
        if ranked.len() == 2 * keep {
            ranked.select_nth_unstable_by(keep - 1, by_rank);
            ranked.truncate(keep);
            floor = ranked[keep - 1].0;
        }
    }
    ranked.sort_unstable_by(by_rank);
    ranked.truncate(keep);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceps_graph::GraphBuilder;
    use ceps_rwr::ScoreMatrix;

    /// Barbell: triangle {0,1,2} — bridge 2-3-4 — triangle {4,5,6}.
    fn barbell() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (x, y) in [
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (4, 6),
        ] {
            b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    /// Hand-built scores: queries 0 and 6, bridge nodes score well for both.
    fn barbell_scores() -> (ScoreMatrix, Vec<f64>) {
        let r0 = vec![0.90, 0.30, 0.40, 0.20, 0.10, 0.05, 0.04];
        let r6 = vec![0.04, 0.05, 0.10, 0.20, 0.40, 0.30, 0.90];
        let combined: Vec<f64> = r0.iter().zip(&r6).map(|(a, b)| a * b).collect();
        let m = ScoreMatrix::new(vec![NodeId(0), NodeId(6)], vec![r0, r6]).unwrap();
        (m, combined)
    }

    #[test]
    fn connects_queries_through_the_bridge() {
        let g = barbell();
        let (scores, combined) = barbell_scores();
        let out = extract(ExtractParams {
            graph: &g,
            scores: &scores,
            combined: &combined,
            k: 2,
            budget: 3,
            max_path_len: 4,
            sharing: SharingRule::default(),
        });
        assert!(out.subgraph.contains(NodeId(0)));
        assert!(out.subgraph.contains(NodeId(6)));
        // The bridge 2-3-4 is the only route; it must be in the subgraph and
        // the whole thing connected.
        for v in [2u32, 3, 4] {
            assert!(out.subgraph.contains(NodeId(v)), "missing bridge node {v}");
        }
        assert!(out.subgraph.is_connected(&g));
        assert!(out.orphan_destinations.is_empty());
        assert!(!out.paths.is_empty());
    }

    #[test]
    fn queries_always_present_even_with_tiny_budget() {
        let g = barbell();
        let (scores, combined) = barbell_scores();
        let out = extract(ExtractParams {
            graph: &g,
            scores: &scores,
            combined: &combined,
            k: 2,
            budget: 1,
            max_path_len: 4,
            sharing: SharingRule::default(),
        });
        assert!(out.subgraph.contains(NodeId(0)));
        assert!(out.subgraph.contains(NodeId(6)));
    }

    #[test]
    fn budget_overshoot_is_bounded() {
        let g = barbell();
        let (scores, combined) = barbell_scores();
        for budget in 1..=6 {
            let out = extract(ExtractParams {
                graph: &g,
                scores: &scores,
                combined: &combined,
                k: 2,
                budget,
                max_path_len: 3,
                sharing: SharingRule::default(),
            });
            let non_query = out.subgraph.len() - 2;
            assert!(
                non_query <= budget - 1 + 2 * 3,
                "budget {budget}: {non_query} non-query nodes"
            );
        }
    }

    #[test]
    fn zero_scores_stop_extraction() {
        let g = barbell();
        let r0 = vec![0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let r6 = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9];
        let combined: Vec<f64> = r0.iter().zip(&r6).map(|(a, b)| a * b).collect();
        let scores = ScoreMatrix::new(vec![NodeId(0), NodeId(6)], vec![r0, r6]).unwrap();
        let out = extract(ExtractParams {
            graph: &g,
            scores: &scores,
            combined: &combined,
            k: 2,
            budget: 5,
            max_path_len: 4,
            sharing: SharingRule::default(),
        });
        // AND scores are zero everywhere: only the queries survive.
        assert_eq!(out.subgraph.len(), 2);
        assert!(out.destinations.is_empty());
    }

    #[test]
    fn disconnected_queries_or_query_yields_orphans() {
        // Two components; OR query (k = 1) wants good nodes near either.
        let mut b = GraphBuilder::with_nodes(6);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 1.0).unwrap();
        b.add_edge(NodeId(4), NodeId(5), 1.0).unwrap();
        let g = b.build().unwrap();
        let r0 = vec![0.7, 0.2, 0.1, 0.0, 0.0, 0.0];
        let r5 = vec![0.0, 0.0, 0.0, 0.1, 0.2, 0.7];
        let or: Vec<f64> = r0
            .iter()
            .zip(&r5)
            .map(|(a, b)| 1.0 - (1.0 - a) * (1.0 - b))
            .collect();
        let scores = ScoreMatrix::new(vec![NodeId(0), NodeId(5)], vec![r0, r5]).unwrap();
        let out = extract(ExtractParams {
            graph: &g,
            scores: &scores,
            combined: &or,
            k: 1,
            budget: 4,
            max_path_len: 4,
            sharing: SharingRule::default(),
        });
        // All four intermediates have positive OR scores and are downhill
        // from their own query, so both components grow — the result is
        // (at least) two components, like Fig. 1(a)'s split communities.
        assert!(out.subgraph.component_count(&g) >= 2);
        assert!(out.subgraph.len() >= 4);
    }

    #[test]
    fn paths_record_their_sources_and_destinations() {
        let g = barbell();
        let (scores, combined) = barbell_scores();
        let out = extract(ExtractParams {
            graph: &g,
            scores: &scores,
            combined: &combined,
            k: 2,
            budget: 4,
            max_path_len: 4,
            sharing: SharingRule::default(),
        });
        for p in &out.paths {
            assert_eq!(p.nodes.first(), Some(&scores.sources()[p.source_index]));
            assert_eq!(p.nodes.last(), Some(&p.dest));
            // Every path node made it into H.
            for v in &p.nodes {
                assert!(out.subgraph.contains(*v));
            }
        }
    }
}
