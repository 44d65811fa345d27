//! # ceps-graph
//!
//! Edge-weighted **undirected** graph substrate for the CePS (center-piece
//! subgraph) reproduction.
//!
//! The paper operates on a single large sparse co-authorship graph `W`
//! (Sec. 7: ~315K nodes, ~1.8M non-zero edges), repeatedly:
//!
//! * normalizing it into a column-stochastic transition matrix `W̃ = W D⁻¹`
//!   (Eq. 5), optionally after the degree-penalization step
//!   `w(j,l) ← w(j,l) / d_j^α` (Eq. 10), or into the symmetric form
//!   `S = D^{-1/2} W D^{-1/2}` (Eq. 20, appendix variant);
//! * walking it (random walks with restart, implemented in `ceps-rwr`);
//! * extracting small subgraphs from it (the EXTRACT algorithm in
//!   `ceps-core`).
//!
//! This crate provides the pieces all of those share:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row graph with `f64` edge
//!   weights, built via [`GraphBuilder`];
//! * [`normalize`] — the three normalizations above, with the
//!   column-stochastic invariant captured in the [`normalize::Transition`]
//!   type;
//! * [`subgraph`] — induced subgraphs and the node-set "views" EXTRACT
//!   produces;
//! * [`algo`] — BFS, connected components and Dijkstra (used by the
//!   baselines and by tests);
//! * [`io`] — a plain-text edge-list format plus (feature-gated) serde
//!   support;
//! * [`labels`] — optional string names for nodes, so case-study output
//!   reads like the paper's figures ("Jiawei Han", …).
//!
//! Node identifiers are the [`NodeId`] newtype over `u32`: the graphs we
//! target comfortably fit in 32 bits and the narrower id keeps the hot CSR
//! arrays half the size of a `usize` layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
mod builder;
mod csr;
mod error;
mod id;
pub mod io;
pub mod labels;
pub mod normalize;
pub mod stats;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, IntoSharedGraph, NeighborIter};
pub use error::GraphError;
pub use id::NodeId;
pub use labels::NodeLabels;
pub use normalize::{CoeffsView, Precision, Transition};
pub use subgraph::Subgraph;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
