//! The end-to-end CePS pipeline (Table 1).

use std::fmt;
use std::sync::Arc;

use ceps_graph::{
    normalize::Normalization, CsrGraph, GraphError, IntoSharedGraph, NodeId, Subgraph, Transition,
};
use ceps_pool::PoolHandle;
use ceps_rwr::{combine, ScoreBackend, ScoreMatrix};

use crate::config::CombineMethod;
use crate::extract::{extract, ExtractOutcome, ExtractParams, KeyPath, SharingRule};
use crate::{CepsConfig, CepsError, Result};

/// A ready-to-query CePS engine over one graph.
///
/// Construction performs the normalization (Eqs. 5/10) and score-backend
/// setup once; every [`run`](CepsEngine::run) reuses them. This mirrors how
/// the paper's system is "operational": the graph is loaded and normalized
/// up front, queries arrive online.
///
/// The engine **owns** its graph and operator through `Arc`s, so it is
/// `Send + Sync + 'static`: clone it (cheap — three `Arc` bumps and a
/// `Copy` config) into worker threads, or wrap it in a
/// [`crate::serve::CepsService`] for cached concurrent serving.
/// Construction accepts anything [`IntoSharedGraph`] accepts: an
/// `Arc<CsrGraph>`, `&Arc<CsrGraph>`, an owned `CsrGraph`, or (cloning)
/// a `&CsrGraph`.
#[derive(Clone)]
pub struct CepsEngine {
    graph: Arc<CsrGraph>,
    transition: Arc<Transition>,
    backend: Arc<dyn ScoreBackend>,
    config: CepsConfig,
    pool: PoolHandle,
}

impl fmt::Debug for CepsEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CepsEngine")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("backend", &self.backend.method_name())
            .field("config", &self.config)
            .finish()
    }
}

/// Everything a CePS run produces.
#[derive(Debug, Clone)]
pub struct CepsResult {
    /// The center-piece subgraph `H` (query nodes always included).
    pub subgraph: Subgraph,
    /// Individual scores `R` (one row per query) — kept because the
    /// evaluation metrics and the `K_softAND` case studies re-read them.
    pub scores: ScoreMatrix,
    /// Combined scores `r(Q, ·)` under the configured query type.
    pub combined: Vec<f64>,
    /// The resolved number of active sources `k`.
    pub k: usize,
    /// Destination-node trace (Eq. 11 argmax order).
    pub destinations: Vec<NodeId>,
    /// The key paths that built `H`.
    pub paths: Vec<KeyPath>,
    /// Destinations added without a connecting path (see
    /// [`crate::ExtractOutcome::orphan_destinations`]).
    pub orphan_destinations: Vec<NodeId>,
}

/// Wall-clock breakdown of one pipeline run across the Table 1 stages.
///
/// Produced by [`CepsEngine::run_timed`] and [`crate::serve::CepsService::run`]
/// (inside its [`crate::serve::RequestMetrics`]); always measured (the numbers
/// do not require an installed `ceps-obs` recorder) so serving harnesses
/// can report stage-level latency without turning profiling on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Step 1 — individual RWR scores (cache assembly included when the
    /// run came through a [`crate::serve::CepsService`]).
    pub scores_ms: f64,
    /// Step 2 — score combination (Eqs. 6–9 / Eq. 21).
    pub combine_ms: f64,
    /// Step 3 — EXTRACT (Tables 3–4).
    pub extract_ms: f64,
}

impl StageTimes {
    /// Sum of the stage times, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.scores_ms + self.combine_ms + self.extract_ms
    }

    /// Element-wise accumulation (used when summing over a stream).
    pub fn accumulate(&mut self, other: &StageTimes) {
        self.scores_ms += other.scores_ms;
        self.combine_ms += other.combine_ms;
        self.extract_ms += other.extract_ms;
    }

    /// Element-wise mean over `n` requests (zero requests → all zeros).
    pub fn mean_over(&self, n: usize) -> StageTimes {
        if n == 0 {
            return StageTimes::default();
        }
        let d = n as f64;
        StageTimes {
            scores_ms: self.scores_ms / d,
            combine_ms: self.combine_ms / d,
            extract_ms: self.extract_ms / d,
        }
    }
}

impl CepsResult {
    /// Total extracted goodness `CF(H) = Σ_{j ∈ H} r(Q, j)` (Sec. 5,
    /// "EXTRACTED GOODNESS").
    pub fn extracted_goodness(&self) -> f64 {
        self.subgraph
            .nodes()
            .map(|v| self.combined[v.index()])
            .sum()
    }

    /// The `b` highest combined-score nodes **ignoring** connectivity — the
    /// unconstrained maximizer of Eq. 2 the paper contrasts EXTRACT with
    /// ("the resulting subgraph H might be a collection of isolated
    /// nodes").
    pub fn top_scoring_nodes(&self, b: usize) -> Vec<NodeId> {
        let mut order: Vec<u32> = (0..self.combined.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| {
            self.combined[y as usize]
                .total_cmp(&self.combined[x as usize])
                .then(x.cmp(&y))
        });
        order.into_iter().take(b).map(NodeId).collect()
    }
}

impl CepsEngine {
    /// Builds an engine: validates the config shape, normalizes the
    /// adjacency matrix and constructs the configured score backend.
    ///
    /// # Errors
    /// [`CepsError::BadAlpha`], RWR validation errors, or backend
    /// construction errors (dense-size refusals, partitioner failures).
    /// (Query-dependent checks happen in [`run`](CepsEngine::run).)
    pub fn new<G: IntoSharedGraph>(graph: G, config: CepsConfig) -> Result<Self> {
        let graph = graph.into_shared_graph();
        if graph.node_count() == 0 {
            return Err(CepsError::Graph(GraphError::EmptyGraph));
        }
        if !(config.alpha.is_finite() && config.alpha >= 0.0) {
            return Err(CepsError::BadAlpha {
                alpha: config.alpha,
            });
        }
        config.rwr.validate()?;
        let normalization = if config.manifold_ranking {
            Normalization::Symmetric
        } else {
            Normalization::DegreePenalized {
                alpha: config.alpha,
            }
        };
        let transition = Arc::new(Transition::with_precision(
            &graph,
            normalization,
            config.precision,
        ));
        // One lazy pool handle per engine: clones (and the services built
        // on them) share the same workers, which only spawn on the first
        // solve large enough to parallelize.
        let pool = PoolHandle::new(config.rwr.threads);
        let backend =
            config
                .score_method
                .build_backend(&graph, &transition, config.rwr, pool.clone())?;
        Ok(CepsEngine {
            graph,
            transition,
            backend,
            config,
            pool,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CepsConfig {
        &self.config
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The shared graph handle (clone to co-own).
    pub fn shared_graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The normalized operator (needed by edge-score evaluation).
    pub fn transition(&self) -> &Transition {
        &self.transition
    }

    /// The shared operator handle (clone to co-own).
    pub fn shared_transition(&self) -> &Arc<Transition> {
        &self.transition
    }

    /// The Step 1 score backend the engine dispatches to.
    pub fn backend(&self) -> &Arc<dyn ScoreBackend> {
        &self.backend
    }

    /// The engine-wide worker-pool handle (shared with the backend; lazy —
    /// no threads until a solve clears the parallel-work threshold).
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Runs the full pipeline (Table 1) for one query set.
    ///
    /// # Errors
    /// Validation errors for the query set ([`CepsError::NoQueries`],
    /// [`CepsError::DuplicateQuery`], [`CepsError::BadSoftAndK`], bad node
    /// ids) and propagated solver errors.
    pub fn run(&self, queries: &[NodeId]) -> Result<CepsResult> {
        Ok(self.run_timed(queries)?.0)
    }

    /// Like [`run`](CepsEngine::run), also returning the per-stage wall
    /// times. Each stage runs under a `ceps-obs` span
    /// (`stage.individual_scores` / `stage.combine` / `stage.extract`), so
    /// an installed recorder sees the same breakdown hierarchically.
    ///
    /// # Errors
    /// As in [`run`](CepsEngine::run).
    pub fn run_timed(&self, queries: &[NodeId]) -> Result<(CepsResult, StageTimes)> {
        self.validate_queries(queries)?;
        self.config.validate(queries.len())?;

        // Step 1: individual score calculation (Eq. 4).
        let (scores, t_scores) =
            ceps_obs::timed("stage.individual_scores", || self.solve_scores(queries));
        let (result, mut times) = self.run_with_scores_timed(queries, scores?)?;
        times.scores_ms = t_scores.as_secs_f64() * 1e3;
        Ok((result, times))
    }

    /// Steps 2–3 over an already-solved score matrix `R`.
    ///
    /// This is the entry point for callers that obtained `R` outside the
    /// engine — notably [`crate::serve::CepsService`], which assembles it
    /// from its row cache. The matrix must have one row per query, in query
    /// order, over this engine's graph.
    ///
    /// # Errors
    /// Query/config validation errors as in [`run`](CepsEngine::run), and
    /// [`CepsError::ScoreShapeMismatch`] when `scores` does not match
    /// `queries` and the graph.
    pub fn run_with_scores(&self, queries: &[NodeId], scores: ScoreMatrix) -> Result<CepsResult> {
        Ok(self.run_with_scores_timed(queries, scores)?.0)
    }

    /// Like [`run_with_scores`](CepsEngine::run_with_scores), also
    /// returning the per-stage wall times (`scores_ms` stays 0 — Step 1
    /// happened outside this call).
    ///
    /// # Errors
    /// As in [`run_with_scores`](CepsEngine::run_with_scores).
    pub fn run_with_scores_timed(
        &self,
        queries: &[NodeId],
        scores: ScoreMatrix,
    ) -> Result<(CepsResult, StageTimes)> {
        self.validate_queries(queries)?;
        self.config.validate(queries.len())?;
        if scores.query_count() != queries.len() || scores.node_count() != self.graph.node_count() {
            return Err(CepsError::ScoreShapeMismatch {
                rows: scores.query_count(),
                cols: scores.node_count(),
                queries: queries.len(),
                nodes: self.graph.node_count(),
            });
        }

        // Step 2: combining individual scores (Eqs. 6-9 or Eq. 21).
        let k = self.config.query.soft_and_k(queries.len())?;
        let (combined, t_combine) = ceps_obs::timed("stage.combine", || self.combine(&scores, k));
        let combined = combined?;

        // Step 3: EXTRACT (Tables 3-4).
        let len = self.config.effective_path_len(k);
        let (outcome, t_extract) = ceps_obs::timed("stage.extract", || {
            extract(ExtractParams {
                graph: &self.graph,
                scores: &scores,
                combined: &combined,
                k,
                budget: self.config.budget,
                max_path_len: len,
                sharing: SharingRule::FreeSharedNodes,
            })
        });
        let ExtractOutcome {
            subgraph,
            destinations,
            paths,
            orphan_destinations,
        } = outcome;

        let times = StageTimes {
            scores_ms: 0.0,
            combine_ms: t_combine.as_secs_f64() * 1e3,
            extract_ms: t_extract.as_secs_f64() * 1e3,
        };
        Ok((
            CepsResult {
                subgraph,
                scores,
                combined,
                k,
                destinations,
                paths,
                orphan_destinations,
            },
            times,
        ))
    }

    /// Step 1 only: the individual score matrix `R` for a query set,
    /// without combination or extraction. Used by the automatic-`k`
    /// inference, which tries many combinations over one solve.
    ///
    /// # Errors
    /// Query validation and solver errors as in [`run`](CepsEngine::run).
    pub fn individual_scores(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        self.validate_queries(queries)?;
        self.solve_scores(queries)
    }

    /// Dispatches Step 1 to the configured backend.
    fn solve_scores(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        Ok(self.backend.scores(queries)?)
    }

    /// Steps 1–2 only: the combined score vector without extraction.
    /// The evaluation metrics (Eq. 13) and Fast CePS's `RelRatio`
    /// comparison need scores computed on the *whole* graph even when the
    /// subgraph came from a partition.
    ///
    /// # Errors
    /// As for [`run`](CepsEngine::run).
    pub fn combined_scores(&self, queries: &[NodeId]) -> Result<(ScoreMatrix, Vec<f64>)> {
        self.validate_queries(queries)?;
        self.config.validate(queries.len())?;
        let scores = self.solve_scores(queries)?;
        let k = self.config.query.soft_and_k(queries.len())?;
        let combined = self.combine(&scores, k)?;
        Ok((scores, combined))
    }

    /// Dispatches Step 2 to the configured combinator.
    fn combine(&self, scores: &ScoreMatrix, k: usize) -> Result<Vec<f64>> {
        match self.config.combine_method {
            CombineMethod::MeetingProbability => Ok(combine::combine_scores(scores, k)?),
            CombineMethod::OrderStatistic => {
                Ok(ceps_rwr::variants::combine_order_statistic(scores, k)?)
            }
        }
    }

    pub(crate) fn validate_queries(&self, queries: &[NodeId]) -> Result<()> {
        if queries.is_empty() {
            return Err(CepsError::NoQueries);
        }
        for (i, &q) in queries.iter().enumerate() {
            self.graph.check_node(q)?;
            if queries[..i].contains(&q) {
                return Err(CepsError::DuplicateQuery { node: q });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryType;
    use ceps_graph::GraphBuilder;

    /// Two 4-cliques bridged through node 8 (the planted center-piece).
    fn bridged_cliques() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(NodeId(base + i), NodeId(base + j), 2.0).unwrap();
                }
            }
        }
        b.add_edge(NodeId(0), NodeId(8), 3.0).unwrap();
        b.add_edge(NodeId(4), NodeId(8), 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_the_planted_center_piece() {
        let g = bridged_cliques();
        let cfg = CepsConfig::default().budget(3);
        let engine = CepsEngine::new(&g, cfg).unwrap();
        let res = engine.run(&[NodeId(1), NodeId(5)]).unwrap();
        assert!(
            res.subgraph.contains(NodeId(8)),
            "center-piece missed: {:?}",
            res.subgraph
        );
        assert!(res.subgraph.is_connected(&g));
        assert!(res.extracted_goodness() > 0.0);
    }

    #[test]
    fn or_query_spreads_and_query_concentrates() {
        let g = bridged_cliques();
        let and_cfg = CepsConfig::default().budget(4).query_type(QueryType::And);
        let or_cfg = CepsConfig::default().budget(4).query_type(QueryType::Or);
        let queries = [NodeId(1), NodeId(5)];
        let and_res = CepsEngine::new(&g, and_cfg).unwrap().run(&queries).unwrap();
        let or_res = CepsEngine::new(&g, or_cfg).unwrap().run(&queries).unwrap();
        assert_eq!(and_res.k, 2);
        assert_eq!(or_res.k, 1);
        // AND must include the unique bridge; OR is free to stay inside the
        // cliques where single-query scores are highest.
        assert!(and_res.subgraph.contains(NodeId(8)));
        // OR scores dominate AND scores pointwise.
        for j in 0..g.node_count() {
            assert!(or_res.combined[j] >= and_res.combined[j] - 1e-12);
        }
    }

    #[test]
    fn f32_precision_tracks_f64_and_finds_the_same_subgraph() {
        let g = bridged_cliques();
        let queries = [NodeId(1), NodeId(5)];
        let f64_res = CepsEngine::new(&g, CepsConfig::default().budget(3))
            .unwrap()
            .run(&queries)
            .unwrap();
        let cfg = CepsConfig::default()
            .budget(3)
            .precision(ceps_graph::Precision::F32);
        let engine = CepsEngine::new(&g, cfg).unwrap();
        assert_eq!(engine.transition().precision(), ceps_graph::Precision::F32);
        let f32_res = engine.run(&queries).unwrap();
        // Coefficient rounding is ~1e-7 relative; after 50 damped
        // iterations the combined scores stay well inside 1e-5.
        for j in 0..g.node_count() {
            assert!(
                (f64_res.combined[j] - f32_res.combined[j]).abs() < 1e-5,
                "node {j}: {} vs {}",
                f64_res.combined[j],
                f32_res.combined[j]
            );
        }
        let sorted = |s: &Subgraph| {
            let mut v: Vec<_> = s.nodes().collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&f64_res.subgraph), sorted(&f32_res.subgraph));
    }

    #[test]
    fn validates_query_sets() {
        let g = bridged_cliques();
        let engine = CepsEngine::new(&g, CepsConfig::default()).unwrap();
        assert!(matches!(engine.run(&[]), Err(CepsError::NoQueries)));
        assert!(matches!(
            engine.run(&[NodeId(0), NodeId(0)]),
            Err(CepsError::DuplicateQuery { .. })
        ));
        assert!(engine.run(&[NodeId(99)]).is_err());
    }

    #[test]
    fn single_query_works_like_personalized_ranking() {
        let g = bridged_cliques();
        let engine = CepsEngine::new(&g, CepsConfig::default().budget(3)).unwrap();
        let res = engine.run(&[NodeId(0)]).unwrap();
        assert!(res.subgraph.contains(NodeId(0)));
        assert!(res.subgraph.len() <= 1 + 3 + 20); // queries + budget + slack
        assert!(res.subgraph.is_connected(&g));
    }

    #[test]
    fn top_scoring_nodes_ranks_by_combined() {
        let g = bridged_cliques();
        let engine = CepsEngine::new(&g, CepsConfig::default().budget(2)).unwrap();
        let res = engine.run(&[NodeId(1), NodeId(5)]).unwrap();
        let top = res.top_scoring_nodes(3);
        assert_eq!(top.len(), 3);
        for w in top.windows(2) {
            assert!(res.combined[w[0].index()] >= res.combined[w[1].index()]);
        }
    }

    #[test]
    fn top_scoring_nodes_breaks_ties_by_ascending_id() {
        // Hand-built result with deliberate score ties: equal scores must
        // order by ascending node id, regardless of b's cut point.
        let res = CepsResult {
            subgraph: Subgraph::new(),
            scores: ScoreMatrix::zeros(vec![NodeId(0)], 6).unwrap(),
            combined: vec![0.5, 0.9, 0.5, 0.9, 0.1, 0.5],
            k: 1,
            destinations: vec![],
            paths: vec![],
            orphan_destinations: vec![],
        };
        let ids = |b| {
            res.top_scoring_nodes(b)
                .iter()
                .map(|v| v.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(6), vec![1, 3, 0, 2, 5, 4]);
        // A cut mid-tie keeps the lowest ids of the tied band.
        assert_eq!(ids(3), vec![1, 3, 0]);
        assert_eq!(ids(4), vec![1, 3, 0, 2]);
    }

    #[test]
    fn combined_scores_match_run() {
        let g = bridged_cliques();
        let engine = CepsEngine::new(&g, CepsConfig::default()).unwrap();
        let queries = [NodeId(1), NodeId(5)];
        let (_, stand_alone) = engine.combined_scores(&queries).unwrap();
        let res = engine.run(&queries).unwrap();
        assert_eq!(stand_alone, res.combined);
    }

    #[test]
    fn soft_and_interpolates_between_or_and_and() {
        let g = bridged_cliques();
        let queries = [NodeId(1), NodeId(5), NodeId(2)];
        let mk = |qt| {
            CepsEngine::new(&g, CepsConfig::default().budget(3).query_type(qt))
                .unwrap()
                .run(&queries)
                .unwrap()
        };
        let or = mk(QueryType::Or);
        let soft = mk(QueryType::SoftAnd(2));
        let and = mk(QueryType::And);
        for j in 0..g.node_count() {
            assert!(soft.combined[j] <= or.combined[j] + 1e-12);
            assert!(soft.combined[j] + 1e-12 >= and.combined[j]);
        }
    }
}
