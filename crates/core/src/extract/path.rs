//! Single key path discovery — the dynamic program of Table 3.
//!
//! Given a source query `q_i` and a destination `pd`, find the *downhill*
//! path (monotonically decreasing individual score `r(i, ·)`) from `q_i` to
//! `pd` that maximizes **captured combined goodness per new node**:
//! `C_s(i, pd) / s`, where `s` counts only nodes not already in the output
//! subgraph `H`. Sharing nodes with `H` is free, which is how EXTRACT
//! encourages its paths to overlap and stay within budget (Sec. 5).
//!
//! Mechanics, following the paper:
//!
//! * Only nodes with `r(i, u) ≥ r(i, pd)` participate ("all nodes with
//!   smaller `r(i, j)` than `r(i, pd)` are ignored").
//! * Nodes are processed in descending `r(i, ·)` order; an edge `u → v` is
//!   *downhill* when `u` precedes `v` in that order. We break score ties by
//!   ascending node id so the order is a strict total order — without this,
//!   tied nodes would be mutually unreachable and the DP could miss paths
//!   the paper's prose intends to allow.
//! * `C_s(i, v) = max_{u →ᵢ v} C_{s'}(i, u) + r(Q, v)` with `s' = s` when
//!   `v ∈ H` (it consumes no budget) and `s' = s − 1` otherwise.
//!
//! Pruning: instead of the whole `[key(pd), key(q_i)]` band, the DP runs
//! over the nodes an *uphill* sweep from `pd` reaches inside the band. The
//! sweep reads an `UphillMemo`, which lists each node's uphill in-band
//! neighbours and is filled on first touch, so one EXTRACT call scans each
//! adjacency list at most once per source. The path is identical to the
//! unpruned DP's: mass flows downhill from `q_i`, so only nodes
//! downhill-reachable from `q_i` carry it, and reversing an uphill walk
//! from `pd` to such a node gives a downhill walk from `q_i` through every
//! node on it. Every node that carries mass therefore sees all of its
//! in-band uphill neighbours, in adjacency order, with the same strict `>`
//! updates; swept nodes outside that cone carry none and change nothing.

use ceps_graph::{CsrGraph, NodeId};

/// How the path-length DP counts nodes that are already in the output
/// subgraph `H` — an ablation switch for the paper's node-sharing design.
///
/// The paper's rule ([`SharingRule::FreeSharedNodes`]) is that a node
/// already in `H` consumes no budget (`s' = s` in Table 3), which makes
/// paths *prefer* to overlap and is the mechanism keeping the subgraph
/// connected within budget. [`SharingRule::CountAllNodes`] disables that
/// (every node on the path costs one unit), so the ablation benchmark can
/// quantify what sharing buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingRule {
    /// Nodes already in `H` are free (the paper's Table 3 rule).
    #[default]
    FreeSharedNodes,
    /// Every path node costs one length unit, shared or not.
    CountAllNodes,
}

/// Inputs to one path discovery.
#[derive(Debug, Clone, Copy)]
pub struct PathQuery<'a> {
    /// The big graph `W`.
    pub graph: &'a CsrGraph,
    /// Individual scores `r(i, ·)` of the source being connected.
    pub individual: &'a [f64],
    /// Combined scores `r(Q, ·)` — the goodness being captured.
    pub combined: &'a [f64],
    /// Membership mask of the partially built output subgraph `H`.
    pub in_subgraph: &'a [bool],
    /// The source query node `q_i`.
    pub source: NodeId,
    /// The destination node `pd`.
    pub dest: NodeId,
    /// Maximum allowable path length `len` (new-node count).
    pub max_new_nodes: usize,
    /// Node-sharing ablation switch (the paper's rule by default).
    pub sharing: SharingRule,
}

/// Strict total "downhill" order key: higher score first, ties by id.
#[inline]
fn key(individual: &[f64], v: u32) -> (f64, std::cmp::Reverse<u32>) {
    (individual[v as usize], std::cmp::Reverse(v))
}

/// Order-preserving image of a score for sorting: ascending
/// `(downhill_rank(r(i, v)), v)` is exactly [`key`]'s descending order,
/// with `-0.0` and `0.0` tied as they are under `f64` comparison.
#[inline]
fn downhill_rank(score: f64) -> u64 {
    // `+ 0.0` folds -0.0 into 0.0. Flipping negatives whole and setting the
    // sign bit of the rest makes the bits ascend with the score; the final
    // `!` makes them descend.
    let bits = (score + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// Reusable scratch buffers for [`discover_key_path_with`].
///
/// Path discovery runs once per (destination, active source) pair — dozens
/// of times per EXTRACT call — and its working set is proportional to the
/// local neighbourhood actually explored, not the graph. The two `n`-sized
/// maps here (`reach` stamps, candidate positions) are the only full-graph
/// state, and this struct amortizes them across calls: stamps are
/// invalidated by bumping `epoch`, positions are only read for the current
/// call's candidates, so no per-call `O(n)` clearing happens either.
#[derive(Debug, Default)]
pub struct PathWorkspace {
    /// Candidate stamps: a node is a candidate of the current call iff its
    /// stamp equals the call's epoch.
    reach: Vec<u32>,
    /// Position of candidate `v` in downhill order. Only ever read for
    /// nodes stamped as candidates of the current call, so entries from
    /// earlier calls need no clearing.
    pos_of: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    /// Candidates as `(downhill_rank, id)`: ids in sweep order, then ranked
    /// and sorted into downhill order.
    order: Vec<(u64, u32)>,
    dp: Vec<f64>,
    parent: Vec<(u32, u32)>,
    /// Bit `s` set ⇔ `dp[p * width + s]` holds finite mass; lets the DP
    /// inner loop touch only live `(candidate, s)` slots.
    occupied: Vec<u64>,
}

impl PathWorkspace {
    /// A workspace usable with graphs of any size (buffers grow on demand).
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n: usize) {
        if self.reach.len() < n {
            self.reach.resize(n, 0);
            self.pos_of.resize(n, 0);
        }
        // One stamp value per call; on wrap-around, re-zero once.
        if self.epoch == u32::MAX {
            self.reach.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.order.clear();
    }
}

/// Memo of one source's uphill neighbours, filled on first touch.
///
/// For a node `v`, it lists in adjacency order every neighbour `u` with
/// `key(v) < key(u) ≤ key(q_i)`. That depends only on the source's score
/// row, not on the destination or the growing subgraph, so EXTRACT keeps
/// one memo per active source for the whole call (and drops it on return).
#[derive(Debug)]
pub(super) struct UphillMemo {
    source: NodeId,
    /// `v`'s list is stored at `arcs[start[v]]` as its length followed by
    /// its entries; `0` while unfilled (`arcs[0]` is a placeholder, so no
    /// list starts there). Zero-initialised, so the pages of nodes a call
    /// never touches are never written.
    start: Vec<u32>,
    arcs: Vec<u32>,
    /// Adjacency entries read while filling.
    pub(super) scanned: u64,
}

impl UphillMemo {
    /// An empty memo for `source` over a graph of `n` nodes.
    pub(super) fn new(n: usize, source: NodeId) -> Self {
        UphillMemo {
            source,
            start: vec![0; n],
            arcs: vec![0],
            scanned: 0,
        }
    }

    /// `v`'s uphill list, filled on the first call for `v`.
    fn uphill(&mut self, graph: &CsrGraph, individual: &[f64], v: u32) -> &[u32] {
        if self.start[v as usize] == 0 {
            let (vk, top) = (key(individual, v), key(individual, self.source.0));
            let ids = graph.neighbor_ids(NodeId(v));
            let s = self.arcs.len();
            self.arcs.push(0);
            self.arcs.extend(ids.iter().filter(|&&u| {
                let uk = key(individual, u);
                vk < uk && uk <= top
            }));
            // A list is no longer than `v`'s CSR row, so its length fits
            // `u32`. Starts also count one length word per filled node, so
            // on a graph near `u32::MAX` arcs they might not.
            self.arcs[s] = (self.arcs.len() - s - 1) as u32;
            self.scanned += ids.len() as u64;
            self.start[v as usize] = u32::try_from(s).expect("uphill memo exceeds u32 offsets");
        }
        self.filled(v)
    }

    /// `v`'s uphill list; panics unless [`Self::uphill`] filled it.
    fn filled(&self, v: u32) -> &[u32] {
        let s = self.start[v as usize] as usize;
        assert_ne!(s, 0, "memo list read before it was filled");
        let len = self.arcs[s] as usize;
        &self.arcs[s + 1..s + 1 + len]
    }
}

/// Discovers the key path, returning its nodes `source..=dest`, or `None`
/// when no downhill path within the length bound exists (including the
/// degenerate case `source == dest`).
///
/// Convenience wrapper over [`discover_key_path_with`] that allocates a
/// fresh [`PathWorkspace`]; loops should reuse one instead.
pub fn discover_key_path(q: PathQuery<'_>) -> Option<Vec<NodeId>> {
    discover_key_path_with(q, &mut PathWorkspace::new())
}

/// [`discover_key_path`] with caller-provided scratch space and a
/// throwaway `UphillMemo`. EXTRACT instead keeps one memo per source
/// across all of that source's destinations.
pub fn discover_key_path_with(q: PathQuery<'_>, ws: &mut PathWorkspace) -> Option<Vec<NodeId>> {
    let mut memo = UphillMemo::new(q.graph.node_count(), q.source);
    discover_key_path_in_memo(q, &mut memo, ws)
}

/// [`discover_key_path`] against `memo`, which must belong to `q.source`
/// and to this graph and score row.
///
/// The candidates are the band nodes an uphill sweep from `pd` reaches;
/// the sweep reaching `q_i` is what makes `pd` downhill-reachable. Each
/// candidate's in-edges are its memo list, and every node on that list is
/// itself a candidate, so the DP reads them directly (module docs explain
/// why the path equals the unpruned DP's).
pub(super) fn discover_key_path_in_memo(
    q: PathQuery<'_>,
    memo: &mut UphillMemo,
    ws: &mut PathWorkspace,
) -> Option<Vec<NodeId>> {
    if q.source == q.dest {
        return None;
    }
    let n = q.graph.node_count();
    debug_assert_eq!(q.individual.len(), n);
    debug_assert_eq!(q.combined.len(), n);
    debug_assert_eq!(q.in_subgraph.len(), n);
    debug_assert_eq!(memo.source, q.source);
    debug_assert_eq!(memo.start.len(), n);

    if key(q.individual, q.source.0) < key(q.individual, q.dest.0) {
        return None; // the source itself is "below" pd: no downhill path
    }

    ws.begin(n);
    let mark = ws.epoch;
    ws.reach[q.dest.index()] = mark;
    ws.stack.push(q.dest.0);
    ws.order.push((0, q.dest.0));
    while let Some(v) = ws.stack.pop() {
        for &u in memo.uphill(q.graph, q.individual, v) {
            if ws.reach[u as usize] != mark {
                ws.reach[u as usize] = mark;
                ws.stack.push(u);
                ws.order.push((0, u));
            }
        }
    }
    if ws.reach[q.source.index()] != mark {
        return None; // pd is not downhill-reachable from the source
    }

    for c in &mut ws.order {
        c.0 = downhill_rank(q.individual[c.1 as usize]);
    }
    ws.order.sort_unstable();
    let order = &ws.order;
    // Positions: order[0] is the source, the last one is the destination.
    debug_assert_eq!(order.first().map(|c| c.1), Some(q.source.0));
    debug_assert_eq!(order.last().map(|c| c.1), Some(q.dest.0));
    let m = order.len();
    for (p, &(_, v)) in order.iter().enumerate() {
        ws.pos_of[v as usize] = p as u32;
    }
    if ceps_obs::enabled() {
        // Candidate-prune effectiveness: sweep size vs. the whole graph.
        ceps_obs::record("extract.candidates", m as f64);
    }

    let len = q.max_new_nodes;
    let width = len + 1;
    const NEG: f64 = f64::NEG_INFINITY;
    // dp[p * width + s] = best captured goodness of a prefix path ending at
    // candidate p using exactly s new nodes; parent stores (prev_pos, prev_s).
    ws.dp.clear();
    ws.dp.resize(m * width, NEG);
    ws.parent.clear();
    ws.parent.resize(m * width, (u32::MAX, u32::MAX));
    let dp = &mut ws.dp;
    let parent = &mut ws.parent;

    let share_free = q.sharing == SharingRule::FreeSharedNodes;
    let s0 = usize::from(!(share_free && q.in_subgraph[q.source.index()]));
    if s0 > len {
        return None;
    }
    dp[s0] = q.combined[q.source.index()]; // position 0 is the source

    // Occupancy masks make the relaxation sparse: a predecessor with no
    // finite slot is skipped in one load, and only live source slots are
    // visited (in the same ascending-`s` order and with the same strict
    // `>` updates as the dense loop, so the chosen path is unchanged).
    // Widths beyond 64 (budget > 63·k) fall back to dense relaxation.
    let occ = &mut ws.occupied;
    occ.clear();
    occ.resize(m, 0);
    let masked = width <= 64;
    if masked {
        occ[0] = 1u64 << s0;
    }

    for p in 1..m {
        let v = order[p].1;
        let v_free = share_free && q.in_subgraph[v as usize];
        let gain = q.combined[v as usize];
        let s_min = usize::from(!v_free);
        let pb = p * width;
        let mut pocc = 0u64;
        for &u in memo.filled(v) {
            let up = ws.pos_of[u as usize] as usize;
            debug_assert!(up < p, "memo arcs must be uphill");
            let ub = up * width;
            if masked {
                // Transfer: slot s_prev feeds s = s_prev (free node) or
                // s_prev + 1 (new node); drop anything past the bound.
                let mut bits = if v_free { occ[up] } else { occ[up] << 1 };
                if width < 64 {
                    bits &= (1u64 << width) - 1;
                }
                while bits != 0 {
                    let s = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let s_prev = if v_free { s } else { s - 1 };
                    let val = dp[ub + s_prev] + gain;
                    if val > dp[pb + s] {
                        dp[pb + s] = val;
                        parent[pb + s] = (up as u32, s_prev as u32);
                        pocc |= 1u64 << s;
                    }
                }
            } else {
                for s in s_min..width {
                    let s_prev = if v_free { s } else { s - 1 };
                    let cand = dp[ub + s_prev];
                    if cand == NEG {
                        continue;
                    }
                    let val = cand + gain;
                    if val > dp[pb + s] {
                        dp[pb + s] = val;
                        parent[pb + s] = (up as u32, s_prev as u32);
                    }
                }
            }
        }
        if masked {
            occ[p] = pocc;
        }
    }

    if ceps_obs::enabled() {
        // Live DP slots after relaxation — the sparse-relaxation win over
        // the dense m × width table.
        let slots: u64 = if masked {
            occ.iter().map(|&bits| u64::from(bits.count_ones())).sum()
        } else {
            dp.iter().filter(|&&v| v != NEG).count() as u64
        };
        ceps_obs::counter("extract.dp_slots", slots);
        ceps_obs::counter("extract.dp_calls", 1);
    }

    // Best s >= 1 by goodness-per-new-node at the destination.
    let dest_pos = m - 1;
    let mut best: Option<(usize, f64)> = None;
    for s in 1..width {
        let v = dp[dest_pos * width + s];
        if v == NEG {
            continue;
        }
        let ratio = v / s as f64;
        match best {
            Some((_, br)) if br >= ratio => {}
            _ => best = Some((s, ratio)),
        }
    }
    let (mut s, _) = best?;

    // Backtrack.
    let mut path = Vec::new();
    let mut p = dest_pos;
    loop {
        path.push(NodeId(order[p].1));
        if p == 0 {
            break;
        }
        let (pp, ps) = parent[p * width + s];
        debug_assert_ne!(pp, u32::MAX, "broken parent chain");
        p = pp as usize;
        s = ps as usize;
    }
    path.reverse();
    debug_assert_eq!(path.first(), Some(&q.source));
    debug_assert_eq!(path.last(), Some(&q.dest));
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceps_graph::GraphBuilder;

    /// Diamond: 0 − {1, 2} − 3 where node 1 outranks node 2 in combined
    /// goodness; individual scores strictly decrease 0 > 1 > 2 > 3.
    fn diamond() -> (CsrGraph, Vec<f64>, Vec<f64>) {
        let mut b = GraphBuilder::new();
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let individual = vec![0.9, 0.5, 0.4, 0.2];
        let combined = vec![0.8, 0.6, 0.1, 0.3];
        (g, individual, combined)
    }

    #[test]
    fn picks_the_higher_goodness_branch() {
        let (g, ind, comb) = diamond();
        let in_h = vec![false; 4];
        let path = discover_key_path(PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 4,
            sharing: SharingRule::default(),
        })
        .unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn shared_nodes_are_free_and_attract_the_path() {
        // Make the low-goodness branch node 2 already part of H: the path
        // through it captures 0.8 + 0.1 + 0.3 over s = 2 new nodes
        // (0 and 3) = 0.6 per node, beating branch 1's
        // (0.8 + 0.6 + 0.3) / 3 ≈ 0.567.
        let (g, ind, comb) = diamond();
        let mut in_h = vec![false; 4];
        in_h[2] = true;
        let path = discover_key_path(PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 4,
            sharing: SharingRule::default(),
        })
        .unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn counting_shared_nodes_removes_the_sharing_incentive() {
        // Same setup as above, but under the ablation rule the path through
        // the already-present node 2 costs a full 3 new nodes, so the
        // higher-goodness branch via node 1 wins again.
        let (g, ind, comb) = diamond();
        let mut in_h = vec![false; 4];
        in_h[2] = true;
        let path = discover_key_path(PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 4,
            sharing: SharingRule::CountAllNodes,
        })
        .unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn respects_length_bound() {
        // Path graph 0-1-2-3 requires 4 new nodes; bound of 3 forbids it.
        let mut b = GraphBuilder::new();
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let ind = vec![0.9, 0.6, 0.4, 0.2];
        let comb = vec![0.5; 4];
        let in_h = vec![false; 4];
        let q = PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 3,
            sharing: SharingRule::default(),
        };
        assert!(discover_key_path(q).is_none());
        let q4 = PathQuery {
            max_new_nodes: 4,
            ..q
        };
        assert_eq!(
            discover_key_path(q4).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn uphill_destination_is_unreachable() {
        let (g, mut ind, comb) = diamond();
        ind[3] = 0.95; // pd now outranks the source
        let in_h = vec![false; 4];
        let q = PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 4,
            sharing: SharingRule::default(),
        };
        assert!(discover_key_path(q).is_none());
    }

    #[test]
    fn disconnected_destination_is_none() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build().unwrap();
        let ind = vec![0.9, 0.5, 0.3, 0.1];
        let comb = vec![0.5; 4];
        let in_h = vec![false; 4];
        let q = PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(3),
            max_new_nodes: 4,
            sharing: SharingRule::default(),
        };
        assert!(discover_key_path(q).is_none());
    }

    #[test]
    fn source_equals_dest_is_none() {
        let (g, ind, comb) = diamond();
        let in_h = vec![false; 4];
        let q = PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(0),
            max_new_nodes: 4,
            sharing: SharingRule::default(),
        };
        assert!(discover_key_path(q).is_none());
    }

    #[test]
    fn tied_scores_still_reachable_via_id_tiebreak() {
        // 0-1-2 path with a tie between nodes 1 and 2: the id tie-break
        // orders 1 before 2, so 0 → 1 → 2 stays downhill.
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let ind = vec![0.9, 0.4, 0.4];
        let comb = vec![0.5; 3];
        let in_h = vec![false; 3];
        let q = PathQuery {
            graph: &g,
            individual: &ind,
            combined: &comb,
            in_subgraph: &in_h,
            source: NodeId(0),
            dest: NodeId(2),
            max_new_nodes: 3,
            sharing: SharingRule::default(),
        };
        assert_eq!(
            discover_key_path(q).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }
}
