//! Reference checks for EXTRACT's pruned key path discovery.
//!
//! `reference_path` is the unpruned Table 3 dynamic program: it sorts the
//! whole `[key(pd), key(q_i)]` score band into downhill order, relaxes
//! every downhill arc between band nodes in adjacency order, and
//! backtracks with the same tie rules. `discover_key_path` only visits the
//! nodes an uphill sweep from `pd` reaches, so these properties pin that
//! pruning to the plain DP, path for path, on random graphs with forced
//! score ties (`-0.0` against `0.0` included), random `H` masks, both
//! sharing rules and the dense (`max_new_nodes ≥ 64`) fallback.

use std::cmp::Reverse;

use ceps_core::extract::active::active_sources;
use ceps_core::extract::path::{discover_key_path, discover_key_path_with, PathQuery};
use ceps_core::extract::{extract, ExtractParams, KeyPath, PathWorkspace, SharingRule};
use ceps_graph::{CsrGraph, GraphBuilder, NodeId};
use ceps_rwr::ScoreMatrix;
use proptest::prelude::*;

/// One random instance: a graph whose last node is isolated (so some
/// destinations below a source are always unreachable), three score rows,
/// combined scores, an `H` mask and a small path-length bound.
#[derive(Debug, Clone)]
struct Case {
    graph: CsrGraph,
    rows: Vec<Vec<f64>>,
    combined: Vec<f64>,
    in_h: Vec<bool>,
    len: usize,
}

/// Maps a raw draw to a score. `tie_mod < 7` folds the draws onto a few
/// levels so ties are common, and level 0 alternates `0.0` and `-0.0`;
/// `tie_mod == 7` keeps the draws nearly distinct.
fn score(raw: u32, tie_mod: u32) -> f64 {
    if tie_mod == 7 {
        return f64::from(raw) / 1000.0;
    }
    match raw % tie_mod {
        0 if raw % 2 == 1 => -0.0,
        level => f64::from(level) * 0.125,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..=14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..3 * n);
        let rows = proptest::collection::vec(proptest::collection::vec(0u32..1000, n + 1), 3);
        let combined = proptest::collection::vec(0u32..6, n + 1);
        let in_h = proptest::collection::vec(0u32..4, n + 1);
        let knobs = (1u32..8, 0usize..7, 0u32..4);
        (Just(n), edges, rows, combined, in_h, knobs).prop_map(
            |(n, edges, rows, combined, in_h, (tie_mod, len, h_cut))| {
                let mut b = GraphBuilder::with_nodes(n + 1);
                for (a, c) in edges {
                    if a != c {
                        b.add_edge(NodeId(a as u32), NodeId(c as u32), 1.0).unwrap();
                    }
                }
                Case {
                    graph: b.build().unwrap(),
                    rows: rows
                        .iter()
                        .map(|r| r.iter().map(|&x| score(x, tie_mod)).collect())
                        .collect(),
                    // Zeros and repeats exercise the Eq. 11 stop and ties.
                    combined: combined.iter().map(|&x| f64::from(x) * 0.2).collect(),
                    in_h: in_h.iter().map(|&x| x < h_cut).collect(),
                    len,
                }
            },
        )
    })
}

/// The unpruned Table 3 DP over the whole `[key(pd), key(q_i)]` band.
fn reference_path(q: &PathQuery<'_>) -> Option<Vec<NodeId>> {
    let key = |v: u32| (q.individual[v as usize], Reverse(v));
    let (src, dst) = (q.source.0, q.dest.0);
    if src == dst || key(src) < key(dst) {
        return None;
    }
    let n = q.graph.node_count() as u32;
    let mut band: Vec<u32> = (0..n)
        .filter(|&v| key(v) >= key(dst) && key(v) <= key(src))
        .collect();
    band.sort_by(|&a, &b| key(b).partial_cmp(&key(a)).unwrap());
    let mut pos = vec![usize::MAX; n as usize];
    for (p, &v) in band.iter().enumerate() {
        pos[v as usize] = p;
    }

    const NEG: f64 = f64::NEG_INFINITY;
    let width = q.max_new_nodes + 1;
    let mut dp = vec![vec![NEG; width]; band.len()];
    let mut parent = vec![vec![(usize::MAX, usize::MAX); width]; band.len()];
    let free = q.sharing == SharingRule::FreeSharedNodes;
    let s0 = usize::from(!(free && q.in_subgraph[src as usize]));
    if s0 > q.max_new_nodes {
        return None;
    }
    dp[0][s0] = q.combined[src as usize];
    for p in 1..band.len() {
        let v = band[p];
        let v_free = free && q.in_subgraph[v as usize];
        for &u in q.graph.neighbor_ids(NodeId(v)) {
            let up = pos[u as usize];
            if up >= p {
                continue; // outside the band, or not uphill of v
            }
            for s in usize::from(!v_free)..width {
                let s_prev = if v_free { s } else { s - 1 };
                let val = dp[up][s_prev] + q.combined[v as usize];
                if dp[up][s_prev] != NEG && val > dp[p][s] {
                    dp[p][s] = val;
                    parent[p][s] = (up, s_prev);
                }
            }
        }
    }

    let last = band.len() - 1;
    let mut best: Option<(usize, f64)> = None;
    for s in 1..width {
        if dp[last][s] == NEG {
            continue;
        }
        let ratio = dp[last][s] / s as f64;
        if best.map_or(true, |(_, br)| br < ratio) {
            best = Some((s, ratio));
        }
    }
    let (mut s, _) = best?;
    let (mut p, mut path) = (last, Vec::new());
    loop {
        path.push(NodeId(band[p]));
        if p == 0 {
            break;
        }
        (p, s) = parent[p][s];
    }
    path.reverse();
    Some(path)
}

/// Table 4 driven by [`reference_path`]: the same loop as `extract`, with
/// nothing carried between path discoveries.
fn reference_extract(params: &ExtractParams<'_>) -> (Vec<NodeId>, Vec<KeyPath>, Vec<NodeId>) {
    let n = params.graph.node_count();
    let queries = params.scores.sources();
    let mut in_h = vec![false; n];
    for q in queries {
        in_h[q.index()] = true;
    }
    let (mut dests, mut paths, mut orphans, mut added) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut col = vec![0.0; queries.len()];
    while added < params.budget {
        let mut pd: Option<(u32, f64)> = None;
        for j in (0..n as u32).filter(|&j| !in_h[j as usize]) {
            if pd.map_or(true, |(_, bs)| bs < params.combined[j as usize]) {
                pd = Some((j, params.combined[j as usize]));
            }
        }
        let Some((pd, pd_score)) = pd else { break };
        if pd_score <= 0.0 {
            break;
        }
        let pd = NodeId(pd);
        dests.push(pd);
        params.scores.column_into(pd, &mut col);
        let mut found_any = false;
        for i in active_sources(&col, params.k) {
            let q = PathQuery {
                graph: params.graph,
                individual: params.scores.row(i),
                combined: params.combined,
                in_subgraph: &in_h,
                source: queries[i],
                dest: pd,
                max_new_nodes: params.max_path_len,
                sharing: params.sharing,
            };
            let Some(nodes) = reference_path(&q) else {
                continue;
            };
            found_any = true;
            for v in &nodes {
                if !in_h[v.index()] {
                    in_h[v.index()] = true;
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
            in_h[pd.index()] = true;
            added += 1;
            orphans.push(pd);
        }
    }
    (dests, paths, orphans)
}

const SHARING: [SharingRule; 2] = [SharingRule::FreeSharedNodes, SharingRule::CountAllNodes];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every (source, destination) pair — so `pd` above `q_i`, `pd`
    /// unreachable and `source == dest` all occur in each case — under
    /// both sharing rules, a small bound and a dense-fallback bound, with
    /// one workspace reused across all calls and a fresh one per call.
    #[test]
    fn pruned_key_paths_match_the_unpruned_dp(case in arb_case()) {
        let n = case.graph.node_count() as u32;
        let mut ws = PathWorkspace::new();
        for individual in &case.rows {
            for (source, dest) in (0..n).flat_map(|s| (0..n).map(move |d| (s, d))) {
                for sharing in SHARING {
                    for max_new_nodes in [case.len, 64 + case.len] {
                        let q = PathQuery {
                            graph: &case.graph,
                            individual,
                            combined: &case.combined,
                            in_subgraph: &case.in_h,
                            source: NodeId(source),
                            dest: NodeId(dest),
                            max_new_nodes,
                            sharing,
                        };
                        let expected = reference_path(&q);
                        prop_assert_eq!(discover_key_path_with(q, &mut ws), expected.clone());
                        prop_assert_eq!(
                            discover_key_path(q),
                            expected,
                            "{:?} -> {:?}, {:?}, len {}",
                            source, dest, sharing, max_new_nodes
                        );
                    }
                }
            }
        }
    }

    /// A whole EXTRACT run, whose per-source memos live across rounds,
    /// matches Table 4 driven by the unpruned DP: same destinations, key
    /// paths, orphans and output subgraph.
    #[test]
    fn extract_matches_the_unpruned_dp_round_for_round(
        case in arb_case(),
        picks in proptest::collection::vec(0usize..15, 1..4),
        knobs in (0usize..3, 1usize..12, 0usize..2, 0usize..2),
    ) {
        let n = case.graph.node_count();
        let mut queries: Vec<NodeId> = picks.iter().map(|&p| NodeId((p % n) as u32)).collect();
        queries.sort_unstable();
        queries.dedup();
        let (k_pick, budget, sharing, dense) = knobs;
        let rows = case.rows[..queries.len()].to_vec();
        let scores = ScoreMatrix::new(queries.clone(), rows).unwrap();
        let params = ExtractParams {
            graph: &case.graph,
            scores: &scores,
            combined: &case.combined,
            k: k_pick % queries.len() + 1,
            budget,
            max_path_len: case.len.max(1) + 64 * dense,
            sharing: SHARING[sharing],
        };
        let out = extract(params);
        let (dests, paths, orphans) = reference_extract(&params);
        prop_assert_eq!(&out.destinations, &dests);
        prop_assert_eq!(&out.paths, &paths);
        prop_assert_eq!(&out.orphan_destinations, &orphans);
        let mut expected: Vec<NodeId> = queries.clone();
        expected.extend(paths.iter().flat_map(|p| p.nodes.iter().copied()));
        expected.extend(orphans.iter().copied());
        expected.sort_unstable();
        expected.dedup();
        let mut got: Vec<NodeId> = out.subgraph.nodes().collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
