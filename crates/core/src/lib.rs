//! # ceps-core
//!
//! **Center-piece subgraph discovery** — a faithful implementation of
//!
//! > Hanghang Tong and Christos Faloutsos.
//! > *Center-Piece Subgraphs: Problem Definition and Fast Solutions.*
//!
//! Given an edge-weighted undirected graph, `Q` query nodes, a query type
//! (`AND`, `OR`, or `K_softAND`) and a budget `b`, CePS finds a small
//! connected subgraph containing all query nodes plus at most ~`b` other
//! nodes that maximizes the total *closeness* of its nodes to the query set
//! (Problem 1 of the paper).
//!
//! ## Pipeline (Table 1)
//!
//! 1. **Individual score calculation** — random walk with restart from each
//!    query node ([`ceps_rwr::RwrEngine`], Eq. 4), over a normalized
//!    adjacency operator (Eqs. 5/10).
//! 2. **Combining individual scores** — the meeting probability
//!    `r(Q, j, k)` that at least `k` of the `Q` particles sit at node `j`
//!    simultaneously ([`ceps_rwr::combine`], Eqs. 6–9).
//! 3. **EXTRACT** — incremental key-path extraction connecting the best
//!    remaining destination node to its active sources ([`extract`],
//!    Tables 3–4).
//!
//! [`CepsEngine`] runs the pipeline; [`fast::FastCeps`] adds the paper's
//! Sec. 6 speedup (pre-partition, run on the query partitions only);
//! [`eval`] implements the paper's evaluation metrics (`NRatio`, `ERatio`,
//! `RelRatio`, Eqs. 13/14/19).
//!
//! ## Quick example
//!
//! ```
//! use ceps_core::{CepsConfig, CepsEngine, QueryType};
//! use ceps_graph::{GraphBuilder, NodeId};
//!
//! // A small collaboration graph: two triangles sharing a bridge node 2.
//! let mut b = GraphBuilder::new();
//! for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
//!     b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
//! }
//! let graph = b.build().unwrap();
//!
//! let config = CepsConfig::default().budget(2).query_type(QueryType::And);
//! let engine = CepsEngine::new(&graph, config).unwrap();
//! let result = engine.run(&[NodeId(0), NodeId(4)]).unwrap();
//!
//! // The bridge node 2 is the center-piece between the two queries.
//! assert!(result.subgraph.contains(NodeId(2)));
//! assert!(result.subgraph.is_connected(&graph));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto_k;
mod config;
mod error;
pub mod eval;
pub mod explain;
pub mod extract;
pub mod fast;
mod pipeline;
mod query;
pub mod serve;
pub mod telemetry;

pub use auto_k::{infer_soft_and_k, KInference};
pub use ceps_rwr::{CoalesceConfig, CoalesceStats};
pub use config::{CepsConfig, CombineMethod, ScoreMethod};
pub use error::CepsError;
pub use extract::{ExtractOutcome, KeyPath, SharingRule};
pub use fast::{FastCeps, FastCepsResult};
pub use pipeline::{CepsEngine, CepsResult, StageTimes};
pub use query::QueryType;
pub use serve::{
    CepsService, CepsServiceBuilder, ReplyMember, ReplyPath, RequestMetrics, RequestOrigin,
    ServeHealth, ServeOutcome, ServeReply, ServeRequest,
};
pub use telemetry::{RequestTrace, RequestTracer, SampleKind};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CepsError>;
