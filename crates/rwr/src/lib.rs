//! # ceps-rwr
//!
//! The random-walk-with-restart (RWR) machinery of the CePS paper
//! (Sec. 4): individual closeness scores, their combination into query-set
//! scores for `AND` / `OR` / `K_softAND` queries, the analogous edge scores,
//! and the appendix variants.
//!
//! ## The model
//!
//! A particle starts at query node `q_i`, repeatedly steps to a neighbor with
//! probability proportional to (normalized) edge weight, and at every step
//! flies back to `q_i` with probability `1 − c`. Its stationary distribution
//! `r(i, ·)` solves
//!
//! ```text
//! r = c · W̃ r + (1 − c) · e_i                     (Eq. 4)
//! r = (1 − c) (I − c W̃)⁻¹ e_i                    (Eq. 12, closed form)
//! ```
//!
//! [`RwrEngine`] computes `r(i, ·)` for many sources at once by power
//! iteration (the paper iterates `m = 50` times; we also support a
//! convergence tolerance), optionally in parallel across sources.
//! [`exact`] solves Eq. 12 densely and is the oracle our property tests
//! compare against.
//!
//! ## Combining scores
//!
//! With `Q` independent particles, the probability that **at least k** of
//! them are simultaneously at node `j` in the steady state is the paper's
//! *meeting probability* `r(Q, j, k)` (Eqs. 6–9) — logic `AND` for `k = Q`,
//! `OR` for `k = 1`, `K_softAND` in between. [`combine`] computes it with a
//! Poisson-binomial tail DP that is mathematically identical to the paper's
//! recursion (Eq. 9) but runs in `O(Q²)` per node with no recursion.
//! [`edge_scores`] does the same for edges (Eqs. 15–18), which the `ERatio`
//! evaluation metric needs. [`variants`] holds the appendix's
//! manifold-ranking and order-statistic alternatives (Eqs. 20–21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod blockwise;
pub mod cache;
pub mod coalesce;
pub mod combine;
pub mod edge_scores;
mod error;
pub mod exact;
pub mod precomputed;
pub mod push;
mod scores;
pub mod scratch;
mod solver;
pub mod variants;

pub use backend::{IterativeScores, PushScores, ScoreBackend};
pub use cache::{row_cost_bytes, scores_with_cache, CacheLookups, CacheStats, RwrRowCache};
pub use coalesce::CoalesceStats;
pub use error::RwrError;
pub use scores::ScoreMatrix;
pub use scratch::ScratchPool;
pub use solver::{RwrConfig, RwrEngine, SolveStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RwrError>;
