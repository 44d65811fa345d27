//! Pipeline configuration.

use std::sync::Arc;

use ceps_graph::{CsrGraph, Transition};
use ceps_partition::{partition_graph, PartitionConfig};
use ceps_pool::PoolHandle;
use ceps_rwr::blockwise::BlockwiseRwr;
use ceps_rwr::precomputed::PrecomputedRwr;
use ceps_rwr::{IterativeScores, PushScores, RwrConfig, ScoreBackend};

use crate::{CepsError, QueryType, Result};

/// How Step 1 (individual score calculation, Eq. 4) is solved.
///
/// Every variant maps to one [`ScoreBackend`] implementation via
/// [`ScoreMethod::build_backend`]; the pipeline holds the trait object and
/// never dispatches on this enum again after construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScoreMethod {
    /// Fixed-iteration power iteration — the paper's method (`m = 50`).
    #[default]
    Iterative,
    /// Forward push with the given residual threshold: visits only the
    /// region of the graph the walk's mass actually reaches, exploiting
    /// the score skew Sec. 6 observes. The reported residual bounds the
    /// L1 error per query.
    Push {
        /// Push threshold; smaller = more accurate and more expensive.
        epsilon: f64,
    },
    /// Dense offline inversion `(1 − c)(I − c W̃)⁻¹` (Eq. 12): `O(N³)`
    /// once, then every query is a column copy. Only viable for small
    /// graphs — construction refuses more than `max_nodes` nodes.
    Precomputed {
        /// Hard ceiling on the node count (`N²` dense memory).
        max_nodes: usize,
    },
    /// The paper's Sec. 6 blockwise approximation: partition the graph,
    /// invert each diagonal block, drop cross-block mass.
    Blockwise {
        /// Number of partition blocks `p`.
        parts: usize,
        /// Partitioner seed (randomized matching and seed placement).
        seed: u64,
        /// Refuse blocks larger than this (dense per-block cost).
        max_block: usize,
    },
}

impl ScoreMethod {
    /// Builds the [`ScoreBackend`] this method names, over a shared
    /// normalized operator. `graph` is only consulted by
    /// [`ScoreMethod::Blockwise`] (its partitioner runs on the raw
    /// adjacency, not the operator). `pool` is the engine-wide worker-pool
    /// handle; the iterative backend dispatches its batched products
    /// through it (the other backends solve without it).
    ///
    /// # Errors
    /// Backend construction errors: solver validation, dense-size refusals
    /// ([`ceps_rwr::RwrError::GraphTooLarge`]) or partitioner failures.
    pub fn build_backend(
        &self,
        graph: &CsrGraph,
        transition: &Arc<Transition>,
        rwr: RwrConfig,
        pool: PoolHandle,
    ) -> Result<Arc<dyn ScoreBackend>> {
        Ok(match *self {
            ScoreMethod::Iterative => Arc::new(IterativeScores::with_pool(
                Arc::clone(transition),
                rwr,
                pool,
            )?),
            ScoreMethod::Push { epsilon } => {
                if !(epsilon.is_finite() && epsilon > 0.0) {
                    return Err(CepsError::BadPushEpsilon { epsilon });
                }
                Arc::new(PushScores::new(Arc::clone(transition), rwr.c, epsilon)?)
            }
            ScoreMethod::Precomputed { max_nodes } => {
                Arc::new(PrecomputedRwr::new(transition, rwr.c, max_nodes)?)
            }
            ScoreMethod::Blockwise {
                parts,
                seed,
                max_block,
            } => {
                let pcfg = PartitionConfig {
                    seed,
                    ..PartitionConfig::with_parts(parts)
                };
                let partitioning = partition_graph(graph, &pcfg)?;
                Arc::new(BlockwiseRwr::new(
                    transition,
                    partitioning.assignment(),
                    rwr.c,
                    max_block,
                )?)
            }
        })
    }
}

/// How Step 2 (combining individual scores) is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineMethod {
    /// Meeting probabilities (Eqs. 6–9) — the paper's main definition.
    #[default]
    MeetingProbability,
    /// Order statistics (appendix Variant 2, Eq. 21): the `k`-th largest
    /// individual score — `min` for `AND`, `max` for `OR`.
    OrderStatistic,
}

/// Configuration for a [`crate::CepsEngine`].
///
/// Defaults mirror the paper's experimental setup (Sec. 7, "Parameter
/// Setting"): `c = 0.5`, `m = 50` iterations, degree-penalization
/// `α = 0.5`, `AND` query, budget `b = 20`. The maximum allowable path
/// length defaults to `⌈b / k⌉` where `k` is the number of active sources
/// ("The maximum allowable path length len is decided by the budget b and
/// the number of active sources k as [b/k]").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CepsConfig {
    /// Random-walk-with-restart parameters (Eq. 4).
    pub rwr: RwrConfig,
    /// Degree-penalization exponent `α` (Eq. 10). `0.0` disables the
    /// normalization step (plain Eq. 5).
    pub alpha: f64,
    /// The query type (Sec. 4.2).
    pub query: QueryType,
    /// Budget `b`: target number of non-query nodes in the output.
    pub budget: usize,
    /// Override for the maximum allowable path length `len`; `None` uses
    /// the paper's `⌈b / k⌉`.
    pub max_path_len: Option<usize>,
    /// Individual-score solver (Step 1 of Table 1).
    pub score_method: ScoreMethod,
    /// Score combinator (Step 2 of Table 1).
    pub combine_method: CombineMethod,
    /// Appendix Variant 1: use the symmetric manifold-ranking operator
    /// `S = D^{-1/2} W D^{-1/2}` (Eq. 20) instead of the (penalized)
    /// column-stochastic `W̃`. Makes `r(i, j) = r(j, i)`; `alpha` is
    /// ignored when set.
    pub manifold_ranking: bool,
}

impl Default for CepsConfig {
    fn default() -> Self {
        CepsConfig {
            rwr: RwrConfig::default(),
            alpha: 0.5,
            query: QueryType::And,
            budget: 20,
            max_path_len: None,
            score_method: ScoreMethod::Iterative,
            combine_method: CombineMethod::MeetingProbability,
            manifold_ranking: false,
        }
    }
}

impl CepsConfig {
    /// Sets the budget `b`.
    pub fn budget(mut self, b: usize) -> Self {
        self.budget = b;
        self
    }

    /// Sets the query type.
    pub fn query_type(mut self, q: QueryType) -> Self {
        self.query = q;
        self
    }

    /// Sets the degree-penalization exponent `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the RWR restart coefficient `c`.
    pub fn restart(mut self, c: f64) -> Self {
        self.rwr.c = c;
        self
    }

    /// Sets the RWR iteration count `m`.
    pub fn iterations(mut self, m: usize) -> Self {
        self.rwr.max_iterations = m;
        self
    }

    /// Sets the number of RWR worker threads. `0` = auto (the machine's
    /// available parallelism); `1` = always sequential. Small solves fall
    /// back to the sequential kernel regardless (see
    /// [`ceps_pool::DEFAULT_MIN_WORK`]), so auto is safe everywhere.
    pub fn threads(mut self, threads: usize) -> Self {
        self.rwr.threads = threads;
        self
    }

    /// Overrides the maximum allowable path length.
    pub fn max_path_len(mut self, len: usize) -> Self {
        self.max_path_len = Some(len);
        self
    }

    /// Switches Step 1 to forward push with threshold `epsilon`.
    pub fn push_scores(mut self, epsilon: f64) -> Self {
        self.score_method = ScoreMethod::Push { epsilon };
        self
    }

    /// Switches Step 1 to the dense precomputed inverse (Eq. 12), refusing
    /// graphs above `max_nodes` nodes.
    pub fn precomputed_scores(mut self, max_nodes: usize) -> Self {
        self.score_method = ScoreMethod::Precomputed { max_nodes };
        self
    }

    /// Switches Step 1 to the Sec. 6 blockwise approximation with `parts`
    /// partition blocks (partitioner seed `seed`), refusing blocks above
    /// `max_block` nodes.
    pub fn blockwise_scores(mut self, parts: usize, seed: u64, max_block: usize) -> Self {
        self.score_method = ScoreMethod::Blockwise {
            parts,
            seed,
            max_block,
        };
        self
    }

    /// Switches Step 2 to the order-statistic combinator (appendix
    /// Variant 2, Eq. 21).
    pub fn order_statistic(mut self) -> Self {
        self.combine_method = CombineMethod::OrderStatistic;
        self
    }

    /// Switches Step 1's operator to manifold ranking (appendix Variant 1,
    /// Eq. 20).
    pub fn manifold(mut self) -> Self {
        self.manifold_ranking = true;
        self
    }

    /// The effective maximum path length for `k` active sources:
    /// the override if set, else `⌈b / k⌉`, never below 2 (a path needs at
    /// least room for one intermediate plus the destination).
    pub fn effective_path_len(&self, k: usize) -> usize {
        let len = self
            .max_path_len
            .unwrap_or_else(|| self.budget.div_ceil(k.max(1)));
        len.max(2)
    }

    /// Validates the configuration against a query count.
    ///
    /// # Errors
    /// [`CepsError::ZeroBudget`], [`CepsError::BadAlpha`], or the errors of
    /// [`QueryType::soft_and_k`] / [`RwrConfig::validate`].
    pub fn validate(&self, query_count: usize) -> Result<()> {
        if self.budget == 0 {
            return Err(CepsError::ZeroBudget);
        }
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return Err(CepsError::BadAlpha { alpha: self.alpha });
        }
        if let ScoreMethod::Push { epsilon } = self.score_method {
            if !(epsilon.is_finite() && epsilon > 0.0) {
                return Err(CepsError::BadPushEpsilon { epsilon });
            }
        }
        self.query.soft_and_k(query_count)?;
        self.rwr.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CepsConfig::default();
        assert_eq!(c.rwr.c, 0.5);
        assert_eq!(c.rwr.max_iterations, 50);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.query, QueryType::And);
        assert_eq!(c.budget, 20);
    }

    #[test]
    fn effective_path_len_is_budget_over_k() {
        let c = CepsConfig::default().budget(20);
        assert_eq!(c.effective_path_len(4), 5);
        assert_eq!(c.effective_path_len(3), 7); // ceil(20/3)
        assert_eq!(c.effective_path_len(1), 20);
        // Floors at 2 even for absurd k.
        assert_eq!(c.effective_path_len(100), 2);
        // Override wins.
        assert_eq!(c.max_path_len(9).effective_path_len(4), 9);
    }

    #[test]
    fn push_method_validates_epsilon() {
        let ok = CepsConfig::default().push_scores(1e-6);
        assert!(ok.validate(2).is_ok());
        assert!(matches!(ok.score_method, ScoreMethod::Push { .. }));
        for bad in [0.0, -1.0, f64::NAN] {
            let cfg = CepsConfig::default().push_scores(bad);
            assert!(matches!(
                cfg.validate(2),
                Err(CepsError::BadPushEpsilon { .. })
            ));
        }
    }

    #[test]
    fn validation_rejects_bad_settings() {
        assert!(matches!(
            CepsConfig::default().budget(0).validate(2),
            Err(CepsError::ZeroBudget)
        ));
        assert!(matches!(
            CepsConfig::default().alpha(f64::NAN).validate(2),
            Err(CepsError::BadAlpha { .. })
        ));
        assert!(CepsConfig::default().restart(1.5).validate(2).is_err());
        assert!(CepsConfig::default()
            .query_type(QueryType::SoftAnd(3))
            .validate(2)
            .is_err());
        assert!(CepsConfig::default().validate(2).is_ok());
    }
}
