//! Concurrent query serving with a shared RWR row cache.
//!
//! The paper's system is "operational": the graph is normalized once and
//! query sets arrive online, with the per-query RWR solve as the dominant
//! cost (Sec. 6 exists only to attack it). Real workloads repeat query
//! nodes constantly — repository queries are community hubs — and an RWR
//! row `r(i, ·)` depends only on the operator and solver settings, never on
//! the co-queries. [`CepsService`] exploits that: it wraps an owned
//! [`CepsEngine`] plus a shared [`RwrRowCache`], assembles Step 1's score
//! matrix from cache hits plus **one batched backend solve over only the
//! missing rows** ([`ceps_rwr::scores_with_cache`]), and hands the matrix
//! to [`CepsEngine::run_with_scores`] for Steps 2–3.
//!
//! There is one code path per job:
//!
//! * [`CepsService::run`] — the whole pipeline for one query set, returning
//!   the result with this request's [`RequestMetrics`] (stage times and
//!   cache hits/misses). [`CepsService::individual_scores`] and
//!   [`CepsService::warm`] share its Step 1.
//! * [`CepsService::handle`] — one served request: times `run`, feeds the
//!   `serve.*` metrics and writes the request's single `ceps-trace/v1`
//!   line. Stream replay and the `ceps-net` wire server both call it, so
//!   their trace lines cannot drift apart.
//! * [`CepsService::serve_stream`] — replays a stream over
//!   `crossbeam::thread::scope` workers (cloning a service is three `Arc`
//!   bumps), returning throughput, latency percentiles and cache
//!   statistics in a [`ServeOutcome`].
//!
//! ## Cache keying and invalidation
//!
//! Rows are keyed by query [`ceps_graph::NodeId`] **alone**; every other
//! key component — transition operator, restart `c`, iteration budget,
//! tolerance, score variant — is pinned by the engine the service wraps.
//! The cache is created inside the service and never outlives its engine,
//! so there is nothing to invalidate: rebuild the engine (new graph, new
//! config) → you get a new, empty cache. Correctness rests on the
//! batch-independence contract of [`ceps_rwr::ScoreBackend`]: a cached row
//! is bitwise-identical to the same row solved cold in any batch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ceps_graph::{IntoSharedGraph, NodeId, Precision};
use ceps_obs::TraceContext;
use ceps_rwr::{
    row_cost_bytes, scores_with_cache, CacheLookups, CacheStats, CoalesceConfig, CoalesceStats,
    Coalescer, RwrRowCache, ScoreMatrix,
};

use crate::pipeline::{CepsEngine, CepsResult, StageTimes};
use crate::telemetry::{RequestTrace, RequestTracer};
use crate::{CepsConfig, Result};

/// Default row-cache byte budget used by [`CepsServiceBuilder`] (64 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Rows per batched solve when [`CepsService::warm`] fills the cache —
/// wide enough to feed the batched SpMM kernel, small enough to bound the
/// memory held by one in-flight warm chunk.
const WARM_CHUNK: usize = 32;

/// One CePS query as every serving surface sees it — the in-process
/// [`CepsService::serve`] call, the `ceps-wire/v1` `Query` frame in
/// `ceps-net`, and stream replay all share this exact struct (serde on the
/// same fields), so the wire layer adds no second request vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeRequest {
    /// The query nodes `Q` (Problem 1 of the paper).
    pub queries: Vec<NodeId>,
}

impl ServeRequest {
    /// Builds a request from any query-node collection.
    pub fn new(queries: impl Into<Vec<NodeId>>) -> Self {
        ServeRequest {
            queries: queries.into(),
        }
    }
}

/// One subgraph member of a [`ServeReply`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplyMember {
    /// The node.
    pub id: NodeId,
    /// Its combined score `r(Q, id)`.
    pub score: f64,
    /// Whether the node was part of the query set.
    pub is_query: bool,
}

/// One key path of a [`ServeReply`], mirroring [`crate::KeyPath`] in
/// serializable form.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReplyPath {
    /// Index (into the query set) of the source this path serves.
    pub source_index: usize,
    /// The full node sequence, source first, destination last.
    pub nodes: Vec<NodeId>,
}

/// The answer to one [`ServeRequest`] — the serializable projection of a
/// [`CepsResult`] that both the in-process path and the wire protocol
/// return. Construction is deterministic (members sorted by descending
/// score, ties by ascending id), so two services over the same engine
/// produce byte-identical replies for the same request.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeReply {
    /// The resolved number of active sources `k`.
    pub k: usize,
    /// Subgraph members with combined scores, descending-score order.
    pub members: Vec<ReplyMember>,
    /// The key paths that built the subgraph, extraction order.
    pub paths: Vec<ReplyPath>,
}

impl ServeReply {
    /// Projects a pipeline result onto the reply vocabulary.
    pub fn from_result(result: &CepsResult, queries: &[NodeId]) -> Self {
        let mut members: Vec<ReplyMember> = result
            .subgraph
            .nodes()
            .map(|v| ReplyMember {
                id: v,
                score: result.combined[v.index()],
                is_query: queries.contains(&v),
            })
            .collect();
        members.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.0.cmp(&b.id.0)));
        let paths = result
            .paths
            .iter()
            .map(|p| ReplyPath {
                source_index: p.source_index,
                nodes: p.nodes.clone(),
            })
            .collect();
        ServeReply {
            k: result.k,
            members,
            paths,
        }
    }
}

/// Configures and builds a [`CepsService`] — the one construction surface.
///
/// ```
/// use ceps_core::{CepsConfig, CepsEngine, CepsServiceBuilder};
/// use ceps_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
/// let engine = CepsEngine::new(b.build().unwrap(), CepsConfig::default()).unwrap();
/// let service = CepsServiceBuilder::new()
///     .cache_bytes(16 << 20)
///     .shards(4)
///     .workers(2)
///     .build(engine);
/// assert_eq!(service.workers(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CepsServiceBuilder {
    cache_bytes: usize,
    shards: Option<usize>,
    workers: usize,
    precision: Option<Precision>,
    coalesce: CoalesceConfig,
}

impl Default for CepsServiceBuilder {
    fn default() -> Self {
        CepsServiceBuilder {
            cache_bytes: DEFAULT_CACHE_BYTES,
            shards: None,
            workers: 1,
            precision: None,
            coalesce: CoalesceConfig::default(),
        }
    }
}

impl CepsServiceBuilder {
    /// Starts from the defaults: a [`DEFAULT_CACHE_BYTES`] cache with the
    /// default shard count, one worker, the engine's own precision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the row-cache byte budget. `0` disables the cache entirely
    /// (every query solves cold).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Disables the row cache (sugar for `cache_bytes(0)`).
    pub fn uncached(self) -> Self {
        self.cache_bytes(0)
    }

    /// Sets an explicit cache shard count (default:
    /// [`ceps_rwr::cache::DEFAULT_SHARDS`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Sets the service's default worker count, used by serving harnesses
    /// (`ceps-net`'s server, stream replay) when not told otherwise.
    /// Clamped to at least 1 at build time.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the miss-coalescing window (see [`CoalesceConfig`]): concurrent
    /// requests pool their cache misses for up to `window_us` and solve
    /// them through one wide batched backend call. The default config is
    /// **off** (`window_us == 0`); coalescing also requires a cache
    /// (ignored under [`uncached`](CepsServiceBuilder::uncached)).
    pub fn coalesce(mut self, cfg: CoalesceConfig) -> Self {
        self.coalesce = cfg;
        self
    }

    /// Overrides the operator storage precision when the builder also
    /// builds the engine ([`CepsServiceBuilder::build_from_graph`]); a
    /// pre-built engine passed to [`CepsServiceBuilder::build`] keeps its
    /// own.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Wraps a pre-built engine.
    pub fn build(self, engine: CepsEngine) -> CepsService {
        let cache = if self.cache_bytes == 0 {
            None
        } else {
            Some(Arc::new(match self.shards {
                Some(s) => RwrRowCache::with_shards(self.cache_bytes, s),
                None => RwrRowCache::new(self.cache_bytes),
            }))
        };
        let coalesce = (cache.is_some() && self.coalesce.enabled())
            .then(|| Arc::new(Coalescer::new(self.coalesce)));
        CepsService {
            engine,
            cache,
            coalesce,
            warm_rows: Arc::new(AtomicU64::new(0)),
            workers: self.workers.max(1),
        }
    }

    /// Builds the engine too (applying any
    /// [`precision`](CepsServiceBuilder::precision) override to `config`),
    /// then wraps it.
    ///
    /// # Errors
    /// As in [`CepsEngine::new`].
    pub fn build_from_graph(
        self,
        graph: impl IntoSharedGraph,
        mut config: CepsConfig,
    ) -> Result<CepsService> {
        if let Some(p) = self.precision {
            config = config.precision(p);
        }
        let engine = CepsEngine::new(graph, config)?;
        Ok(self.build(engine))
    }
}

/// A cloneable, thread-safe CePS query server: an engine plus a shared
/// row cache.
#[derive(Debug, Clone)]
pub struct CepsService {
    engine: CepsEngine,
    cache: Option<Arc<RwrRowCache>>,
    /// Shared miss-coalescing window; `Some` only when a cache exists and
    /// the builder enabled a window. Clones share it, so every worker of a
    /// fanned-out service pools misses into the same window.
    coalesce: Option<Arc<Coalescer>>,
    /// Rows pre-solved by [`CepsService::warm`], shared across clones.
    warm_rows: Arc<AtomicU64>,
    workers: usize,
}

impl CepsService {
    /// The default worker count serving harnesses should fan this service
    /// over (set via [`CepsServiceBuilder::workers`], at least 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The unified request/response entry point: answers one
    /// [`ServeRequest`] with a [`ServeReply`]. This is exactly the path
    /// the `ceps-net` wire protocol drives — byte-identical replies
    /// in-process and over a socket.
    ///
    /// # Errors
    /// As in [`CepsEngine::run`].
    pub fn serve(&self, request: &ServeRequest) -> Result<ServeReply> {
        let (result, _) = self.run(&request.queries)?;
        Ok(ServeReply::from_result(&result, &request.queries))
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &CepsEngine {
        &self.engine
    }

    /// Snapshot of the cache counters (`None` when running uncached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Snapshot of the coalescing-window counters (zeros when the window
    /// is off — coalescing disabled, or the service runs uncached).
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.coalesce
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Operator-facing serving health: cache occupancy against its budget,
    /// warm-row count, and the coalesce/single-flight counters. All zeros
    /// when running uncached.
    pub fn serve_health(&self) -> ServeHealth {
        let (cache_rows, cache_bytes, cache_budget_bytes, singleflight_waits) = self
            .cache
            .as_ref()
            .map(|c| {
                (
                    c.len(),
                    c.bytes(),
                    c.byte_budget(),
                    c.stats().singleflight_waits,
                )
            })
            .unwrap_or_default();
        let co = self.coalesce_stats();
        ServeHealth {
            cache_rows,
            cache_bytes,
            cache_budget_bytes,
            warm_rows: self.warm_rows.load(Ordering::Relaxed),
            singleflight_waits,
            coalesce_batches: co.batches,
            coalesce_rows: co.batch_rows,
            coalesced: co.coalesced,
        }
    }

    /// Pre-solves the highest-degree rows into the cache until `budget_bytes`
    /// (clamped to the cache's own byte budget) is spent, returning how many
    /// rows were warmed. Hubs carry most RWR mass *and* most repeat traffic
    /// (the paper's Sec. 6 skew argument), so degree order maximizes the
    /// expected hit value per warmed byte. Chunked through the normal cached
    /// assembly path, so warmed rows are bitwise-identical to demand-solved
    /// ones; warming shows up in [`cache_stats`](CepsService::cache_stats)
    /// as ordinary misses/insertions. A no-op (`Ok(0)`) when uncached.
    ///
    /// # Errors
    /// Backend solve errors as in
    /// [`individual_scores`](CepsService::individual_scores).
    pub fn warm(&self, budget_bytes: usize) -> Result<usize> {
        let Some(cache) = &self.cache else {
            return Ok(0);
        };
        let graph = self.engine.graph();
        let n = graph.node_count();
        if n == 0 {
            return Ok(0);
        }
        let budget = budget_bytes.min(cache.byte_budget());
        let max_rows = (budget / row_cost_bytes(n).max(1)).min(n);
        if max_rows == 0 {
            return Ok(0);
        }
        let _span = ceps_obs::span("serve.warm");
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.sort_by(|a, b| {
            graph
                .degree(*b)
                .total_cmp(&graph.degree(*a))
                .then(a.0.cmp(&b.0))
        });
        nodes.truncate(max_rows);
        let mut warmed = 0usize;
        for chunk in nodes.chunks(WARM_CHUNK) {
            scores_with_cache(self.engine.backend().as_ref(), cache, chunk, None)?;
            warmed += chunk.len();
        }
        self.warm_rows.fetch_add(warmed as u64, Ordering::Relaxed);
        ceps_obs::counter("serve.warm.rows", warmed as u64);
        ceps_obs::counter("serve.warm.bytes", (warmed * row_cost_bytes(n)) as u64);
        Ok(warmed)
    }

    /// Step 1 with cache assembly: hits are served from the store, misses
    /// are batched through one backend solve and inserted.
    ///
    /// # Errors
    /// Query validation and solver errors as in
    /// [`CepsEngine::individual_scores`].
    pub fn individual_scores(&self, queries: &[NodeId]) -> Result<ScoreMatrix> {
        self.engine.validate_queries(queries)?;
        Ok(self.step1(queries)?.0)
    }

    /// Step 1 for already-validated queries: through the row cache (and the
    /// coalescing window, when one is configured) or, uncached, straight to
    /// the engine with 0/0 lookups.
    fn step1(&self, queries: &[NodeId]) -> Result<(ScoreMatrix, CacheLookups)> {
        match &self.cache {
            Some(cache) => Ok(scores_with_cache(
                self.engine.backend().as_ref(),
                cache,
                queries,
                self.coalesce.as_deref(),
            )?),
            None => Ok((
                self.engine.individual_scores(queries)?,
                CacheLookups::default(),
            )),
        }
    }

    /// The full pipeline (Table 1) with cached Step 1, plus this request's
    /// own measurements: per-stage wall times (`scores_ms` covers the whole
    /// Step 1 assembly — cache probes plus the batched solve over misses)
    /// and how many of its distinct query rows were warm vs solved cold
    /// (always 0/0 when running uncached). The global
    /// [`cache_stats`](CepsService::cache_stats) counters cannot attribute
    /// warmth to a single request in a concurrent stream; these can. The
    /// request runs under a `serve.request` span with the stage spans
    /// nested inside it.
    ///
    /// # Errors
    /// As in [`CepsEngine::run`].
    pub fn run(&self, queries: &[NodeId]) -> Result<(CepsResult, RequestMetrics)> {
        let _span = ceps_obs::span("serve.request");
        self.engine.validate_queries(queries)?;
        self.engine.config().validate(queries.len())?;
        let (step1, t_scores) = ceps_obs::timed("stage.individual_scores", || self.step1(queries));
        let (scores, lookups) = step1?;
        let (result, mut stages) = self.engine.run_with_scores_timed(queries, scores)?;
        stages.scores_ms = t_scores.as_secs_f64() * 1e3;
        Ok((
            result,
            RequestMetrics {
                stages,
                cache_hits: lookups.hits,
                cache_misses: lookups.misses,
            },
        ))
    }

    /// Serves one request: runs it under `origin`'s trace context, times
    /// it, feeds the live registry (`serve.requests` and the
    /// `serve.latency_ms` histogram on success, `serve.errors` on failure)
    /// and hands the outcome to `tracer`, which writes at most one
    /// `ceps-trace/v1` line for it — errored requests included, with
    /// zeroed stages and `outcome: "error"`.
    ///
    /// This is the single request handler behind both
    /// [`serve_stream`](CepsService::serve_stream) and the `ceps-net`
    /// server's `Query` frames; admission, queueing and wire metrics stay
    /// with the caller. Returns the run's outcome and its latency in
    /// milliseconds.
    pub fn handle(
        &self,
        queries: &[NodeId],
        origin: RequestOrigin,
        tracer: Option<&RequestTracer>,
    ) -> (Result<(CepsResult, RequestMetrics)>, f64) {
        let _trace_guard = origin.trace.map(ceps_obs::with_trace);
        let t0 = Instant::now();
        let outcome = self.run(queries);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        match &outcome {
            Ok(_) => {
                ceps_obs::counter("serve.requests", 1);
                ceps_obs::record("serve.latency_ms", latency_ms);
            }
            Err(_) => ceps_obs::counter("serve.errors", 1),
        }
        if let Some(tracer) = tracer {
            let (metrics, paths) = match &outcome {
                Ok((result, metrics)) => (*metrics, result.paths.len()),
                Err(_) => (RequestMetrics::default(), 0),
            };
            tracer.record(&RequestTrace {
                request_id: origin.request_id,
                worker: origin.worker,
                queries: queries.len(),
                latency_ms,
                queue_ms: origin.queue_ms,
                stages: metrics.stages,
                cache_hits: metrics.cache_hits,
                cache_misses: metrics.cache_misses,
                budget: self.engine.config().budget,
                paths,
                error: outcome.as_ref().err().map(ToString::to_string),
                trace_id: origin.trace.map(|c| c.trace_id),
            });
        }
        (outcome, latency_ms)
    }

    /// Serves every query set in `stream` across `workers` scoped threads
    /// sharing this service's cache, and reports throughput, latency
    /// percentiles and cache-counter deltas.
    ///
    /// Query sets are claimed from a shared atomic cursor, so the
    /// assignment (and therefore which worker warms which rows) is
    /// scheduling-dependent — but results are not: every worker reads
    /// through the same cache and the backend is deterministic.
    ///
    /// Every request goes through [`handle`](CepsService::handle) with its
    /// stream index as the request id. With a `tracer`, each request may
    /// emit one `ceps-trace/v1` line; whenever a tracer or a recorder is
    /// live, each request also runs under a fresh root trace context so
    /// spans, histogram exemplars and the trace line share one id.
    ///
    /// # Errors
    /// The first query-set error a worker hits (remaining sets still
    /// drain; their results are discarded).
    pub fn serve_stream(
        &self,
        stream: &[Vec<NodeId>],
        workers: usize,
        tracer: Option<&RequestTracer>,
    ) -> Result<ServeOutcome> {
        let workers = workers.max(1).min(stream.len().max(1));
        let before = self.cache_stats().unwrap_or_default();
        let cursor = AtomicUsize::new(0);
        let started = Instant::now();

        let per_worker = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    s.spawn(move |_| {
                        let mut latencies = Vec::new();
                        let mut stages = StageTimes::default();
                        let mut first_err = None;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(queries) = stream.get(i) else {
                                break;
                            };
                            // The untraced path skips the context entirely;
                            // scores are identical either way.
                            let origin = RequestOrigin {
                                request_id: i as u64,
                                worker: w,
                                queue_ms: 0.0,
                                trace: (tracer.is_some() || ceps_obs::enabled())
                                    .then(TraceContext::new_root),
                            };
                            match self.handle(queries, origin, tracer) {
                                (Ok((_, metrics)), latency_ms) => {
                                    latencies.push(latency_ms);
                                    stages.accumulate(&metrics.stages);
                                }
                                (Err(e), _) => {
                                    if first_err.is_none() {
                                        first_err = Some(e);
                                    }
                                }
                            }
                        }
                        (latencies, stages, first_err)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("serve scope panicked");

        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut latencies_ms = Vec::with_capacity(stream.len());
        let mut stages = StageTimes::default();
        for (lats, worker_stages, err) in per_worker {
            if let Some(e) = err {
                return Err(e);
            }
            latencies_ms.extend(lats);
            stages.accumulate(&worker_stages);
        }

        let after = self.cache_stats().unwrap_or_default();
        let cache = self.cache.as_ref().map(|_| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            insertions: after.insertions - before.insertions,
            rejected: after.rejected - before.rejected,
            singleflight_waits: after.singleflight_waits - before.singleflight_waits,
        });

        Ok(ServeOutcome::new(
            workers,
            wall_ms,
            latencies_ms,
            stages,
            cache,
        ))
    }
}

/// The caller-side facts about one request that
/// [`CepsService::handle`] cannot know itself: who sent it, which
/// thread serves it, how long it queued, and which trace it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct RequestOrigin {
    /// Request id: the stream index in replay, the frame id on the wire.
    pub request_id: u64,
    /// Index of the serving thread.
    pub worker: usize,
    /// Time between frame decode and the start of execution, in
    /// milliseconds (0 for in-process serving).
    pub queue_ms: f64,
    /// Trace context the request runs under and its trace line carries;
    /// `None` runs it outside any trace.
    pub trace: Option<TraceContext>,
}

/// One request's own measurements, as returned by [`CepsService::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestMetrics {
    /// Per-stage wall times for this request.
    pub stages: StageTimes,
    /// Distinct query rows this request found warm in the shared cache.
    pub cache_hits: u64,
    /// Distinct query rows this request solved cold.
    pub cache_misses: u64,
}

/// Operator-facing serving health snapshot, as returned by
/// [`CepsService::serve_health`] — the numbers a `Stats` reply and the
/// drain summary surface so operators can see whether warming actually
/// populated the cache and whether coalescing is doing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeHealth {
    /// Rows currently resident in the cache.
    pub cache_rows: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: usize,
    /// The cache's total byte budget (0 when uncached).
    pub cache_budget_bytes: usize,
    /// Rows pre-solved by [`CepsService::warm`] since service construction
    /// (cumulative — evictions do not decrement it).
    pub warm_rows: u64,
    /// Misses that blocked on another request's in-flight solve instead of
    /// duplicating it.
    pub singleflight_waits: u64,
    /// Coalescing windows drained (one batched solve each); 0 when the
    /// window is off.
    pub coalesce_batches: u64,
    /// Rows solved through drained coalescing windows, own and foreign.
    pub coalesce_rows: u64,
    /// Rows that rode a coalescing batch issued by *another* request — the
    /// redundant solves coalescing eliminated.
    pub coalesced: u64,
}

impl ServeHealth {
    /// Fraction of the cache byte budget currently occupied, in `[0, 1]`
    /// (0 when uncached).
    pub fn fill_ratio(&self) -> f64 {
        if self.cache_budget_bytes == 0 {
            0.0
        } else {
            self.cache_bytes as f64 / self.cache_budget_bytes as f64
        }
    }
}

/// What one [`CepsService::serve_stream`] run measured.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Query sets answered successfully.
    pub completed: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time for the whole stream, milliseconds.
    pub wall_ms: f64,
    /// Per-query latencies in milliseconds, **sorted ascending**.
    ///
    /// Invariant: [`ServeOutcome::latency_percentile_ms`] indexes this
    /// vector by nearest rank and is only correct when it is sorted.
    /// [`ServeOutcome::new`] establishes the order (worker completion
    /// order is nondeterministic under concurrency); construct outcomes
    /// through it rather than with a struct literal.
    pub latencies_ms: Vec<f64>,
    /// Summed per-stage wall times across all completed requests — the
    /// stage-level latency breakdown (CPU-time sum, not wall-clock: with
    /// multiple workers it exceeds `wall_ms`).
    pub stages: StageTimes,
    /// Cache-counter deltas over the run (`None` when uncached).
    pub cache: Option<CacheStats>,
}

impl ServeOutcome {
    /// Builds an outcome from raw per-request measurements, sorting
    /// `latencies_ms` to establish the invariant
    /// [`latency_percentile_ms`](ServeOutcome::latency_percentile_ms)
    /// depends on. `completed` is derived from the latency count.
    pub fn new(
        workers: usize,
        wall_ms: f64,
        mut latencies_ms: Vec<f64>,
        stages: StageTimes,
        cache: Option<CacheStats>,
    ) -> Self {
        latencies_ms.sort_by(f64::total_cmp);
        ServeOutcome {
            completed: latencies_ms.len(),
            workers,
            wall_ms,
            latencies_ms,
            stages,
            cache,
        }
    }

    /// Queries per second over the wall clock.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.wall_ms / 1e3)
        }
    }

    /// The `p`-th latency percentile (nearest-rank), or 0 when nothing
    /// completed. `p` is clamped into `[0, 100]` — `p <= 0` returns the
    /// minimum, `p >= 100` (and non-finite `p`) the maximum — so the
    /// result is never `NaN` and never indexes out of bounds.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        ceps_obs::nearest_rank(&self.latencies_ms, p)
    }

    /// Mean per-request stage times — [`ServeOutcome::stages`] divided by
    /// [`ServeOutcome::completed`] (all zeros when nothing completed).
    pub fn mean_stage_ms(&self) -> StageTimes {
        self.stages.mean_over(self.completed)
    }

    /// Cache hit rate over the run, or `None` when there is nothing to
    /// measure — the service ran uncached, or no row was ever probed
    /// (0 hits / 0 misses is *unmeasured*, not a 0% rate).
    pub fn hit_rate(&self) -> Option<f64> {
        let c = self.cache?;
        if c.hits + c.misses == 0 {
            None
        } else {
            Some(c.hit_rate())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CepsConfig, CepsError};
    use ceps_graph::{CsrGraph, GraphBuilder};

    /// Three 5-cliques in a ring with weak bridges — enough structure for
    /// multi-query runs to cross clique boundaries.
    fn ring(cliques: u32, size: u32) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for k in 0..cliques {
            let base = k * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    b.add_edge(NodeId(base + i), NodeId(base + j), 2.0).unwrap();
                }
            }
            let next = ((k + 1) % cliques) * size;
            b.add_edge(NodeId(base), NodeId(next + 1), 0.3).unwrap();
        }
        b.build().unwrap()
    }

    fn engine() -> CepsEngine {
        let cfg = CepsConfig::default().budget(4).threads(1);
        CepsEngine::new(ring(3, 5), cfg).unwrap()
    }

    #[test]
    fn cached_run_matches_engine_run() {
        let e = engine();
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(e.clone());
        let queries = [NodeId(1), NodeId(6)];
        // Twice: cold then fully warm.
        for _ in 0..2 {
            let (served, _) = service.run(&queries).unwrap();
            let direct = e.run(&queries).unwrap();
            assert_eq!(served.scores, direct.scores);
            assert_eq!(served.combined, direct.combined);
            let s: Vec<_> = served.subgraph.nodes().collect();
            let d: Vec<_> = direct.subgraph.nodes().collect();
            assert_eq!(s, d);
        }
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
    }

    #[test]
    fn uncached_service_is_plain_engine() {
        let e = engine();
        let service = CepsServiceBuilder::new().uncached().build(e.clone());
        assert!(service.cache_stats().is_none());
        // A zero byte budget means "no cache", exactly like `uncached`.
        assert!(CepsServiceBuilder::new()
            .cache_bytes(0)
            .build(engine())
            .cache_stats()
            .is_none());
        let queries = [NodeId(0), NodeId(11)];
        assert_eq!(
            service.individual_scores(&queries).unwrap(),
            e.individual_scores(&queries).unwrap()
        );
    }

    #[test]
    fn service_validates_before_touching_the_cache() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        assert!(matches!(service.run(&[]), Err(CepsError::NoQueries)));
        assert!(matches!(
            service.run(&[NodeId(2), NodeId(2)]),
            Err(CepsError::DuplicateQuery { .. })
        ));
        assert!(service.run(&[NodeId(999)]).is_err());
        assert_eq!(service.cache_stats().unwrap(), CacheStats::default());
    }

    #[test]
    fn serve_stream_completes_and_measures() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let stream: Vec<Vec<NodeId>> = (0..12)
            .map(|i| vec![NodeId(i % 15), NodeId((i + 5) % 15)])
            .collect();
        let out = service.serve_stream(&stream, 3, None).unwrap();
        assert_eq!(out.completed, 12);
        assert_eq!(out.workers, 3);
        assert_eq!(out.latencies_ms.len(), 12);
        assert!(out.throughput_qps() > 0.0);
        assert!(out.latency_percentile_ms(50.0) <= out.latency_percentile_ms(99.0));
        let cache = out.cache.unwrap();
        assert_eq!(cache.hits + cache.misses, 24, "every query row probed");
        assert!(out.hit_rate().unwrap() > 0.0, "repeated nodes must hit");
    }

    #[test]
    fn serve_stream_reports_stage_breakdown() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let stream: Vec<Vec<NodeId>> = (0..6).map(|i| vec![NodeId(i), NodeId(i + 7)]).collect();
        let out = service.serve_stream(&stream, 2, None).unwrap();
        assert!(out.stages.scores_ms > 0.0, "Step 1 took measurable time");
        assert!(out.stages.combine_ms >= 0.0 && out.stages.extract_ms >= 0.0);
        let mean = out.mean_stage_ms();
        assert!((mean.total_ms() - out.stages.total_ms() / 6.0).abs() < 1e-9);
        // The per-stage sum accounts for most of each request's latency.
        let latency_sum: f64 = out.latencies_ms.iter().sum();
        assert!(out.stages.total_ms() <= latency_sum);
    }

    #[test]
    fn empty_outcome_is_nan_free() {
        let out = ServeOutcome {
            completed: 0,
            workers: 1,
            wall_ms: 0.0,
            latencies_ms: vec![],
            stages: StageTimes::default(),
            cache: None,
        };
        for p in [-1.0, 0.0, 50.0, 100.0, 1e9, f64::NAN] {
            let v = out.latency_percentile_ms(p);
            assert_eq!(v, 0.0, "zero requests → 0, got {v} at p={p}");
        }
        assert_eq!(out.throughput_qps(), 0.0);
        assert_eq!(out.mean_stage_ms(), StageTimes::default());
        assert_eq!(out.hit_rate(), None, "0/0 probes is unmeasured");
    }

    #[test]
    fn outcome_constructor_sorts_unsorted_latencies() {
        // Multi-worker completion order is nondeterministic; feed the
        // constructor a deliberately unsorted vector and check percentiles
        // come out as if it had been sorted.
        let out = ServeOutcome::new(
            2,
            10.0,
            vec![4.0, 1.0, 3.0, 2.0],
            StageTimes::default(),
            None,
        );
        assert_eq!(out.completed, 4);
        assert_eq!(out.latencies_ms, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(out.latency_percentile_ms(0.0), 1.0);
        assert_eq!(out.latency_percentile_ms(50.0), 2.0);
        assert_eq!(out.latency_percentile_ms(100.0), 4.0);
    }

    #[test]
    fn traced_stream_emits_one_line_per_request_at_full_rate() {
        use crate::telemetry::RequestTracer;

        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let stream: Vec<Vec<NodeId>> = (0..8)
            .map(|i| vec![NodeId(i % 15), NodeId((i + 4) % 15)])
            .collect();
        let buf = crate::telemetry::tests::SharedBuf::default();
        let tracer = RequestTracer::new(Box::new(buf.clone()), 1.0);
        let out = service.serve_stream(&stream, 2, Some(&tracer)).unwrap();
        assert_eq!(out.completed, 8);
        assert_eq!(tracer.written(), 8, "rate 1.0 keeps every request");
        let lines = buf.lines();
        assert_eq!(lines.len(), 8);
        // Every stream index appears exactly once, whatever the worker
        // interleaving was.
        for i in 0..8 {
            assert_eq!(
                lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"request_id\": {i},")))
                    .count(),
                1,
                "request {i} traced once"
            );
        }
        for line in &lines {
            assert!(line.starts_with("{\"schema\": \"ceps-trace/v1\""));
            assert!(line.contains("\"outcome\": \"ok\""));
            assert!(line.contains("\"queries\": 2"));
            assert!(line.contains("\"budget\": 4"));
        }
    }

    #[test]
    fn traced_stream_records_errors_and_cache_warmth() {
        use crate::telemetry::RequestTracer;

        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        // Same queries twice: second request is fully warm. Then a bad one.
        let stream = vec![
            vec![NodeId(1), NodeId(6)],
            vec![NodeId(1), NodeId(6)],
            vec![NodeId(999)],
        ];
        let buf = crate::telemetry::tests::SharedBuf::default();
        let tracer = RequestTracer::new(Box::new(buf.clone()), 1.0);
        let err = service.serve_stream(&stream, 1, Some(&tracer));
        assert!(err.is_err(), "bad node surfaces as stream error");
        let lines = buf.lines();
        assert_eq!(lines.len(), 3, "errored requests are traced too");
        assert!(lines[0].contains("\"cache_hits\": 0, \"cache_misses\": 2"));
        assert!(lines[1].contains("\"cache_hits\": 2, \"cache_misses\": 0"));
        assert!(lines[2].contains("\"outcome\": \"error\""));
        assert!(lines[2].contains("\"error\": "));
    }

    #[test]
    fn run_counts_this_requests_cache_lookups() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let queries = [NodeId(2), NodeId(9)];
        let (cold, m_cold) = service.run(&queries).unwrap();
        assert_eq!((m_cold.cache_hits, m_cold.cache_misses), (0, 2));
        let (warm, m_warm) = service.run(&queries).unwrap();
        assert_eq!((m_warm.cache_hits, m_warm.cache_misses), (2, 0));
        assert_eq!(cold.scores, warm.scores);
        assert!(m_warm.stages.scores_ms >= 0.0);
        // Uncached service reports 0/0, not a phantom miss count.
        let uncached = CepsServiceBuilder::new().uncached().build(engine());
        let (_, m) = uncached.run(&queries).unwrap();
        assert_eq!((m.cache_hits, m.cache_misses), (0, 0));
    }

    #[test]
    fn serve_stream_surfaces_worker_errors() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let stream = vec![vec![NodeId(0)], vec![NodeId(999)], vec![NodeId(1)]];
        assert!(service.serve_stream(&stream, 2, None).is_err());
    }

    #[test]
    fn concurrent_workers_agree_with_serial_engine() {
        // Smoke test: many workers hammer one small cache; results must
        // match the serial, uncached engine bitwise.
        let e = engine();
        let service = CepsServiceBuilder::new()
            .cache_bytes(4096)
            .shards(2)
            .build(e.clone());
        let stream: Vec<Vec<NodeId>> = (0..20).map(|i| vec![NodeId(i % 15)]).collect();
        let out = service.serve_stream(&stream, 4, None).unwrap();
        assert_eq!(out.completed, 20);
        for queries in &stream {
            assert_eq!(
                service.individual_scores(queries).unwrap(),
                e.individual_scores(queries).unwrap()
            );
        }
    }

    #[test]
    fn warm_fills_highest_degree_rows_first() {
        let e = engine();
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(e.clone());
        let n = e.graph().node_count();
        // Budget for exactly 3 rows.
        let warmed = service.warm(3 * row_cost_bytes(n)).unwrap();
        assert_eq!(warmed, 3);
        let health = service.serve_health();
        assert_eq!(health.warm_rows, 3);
        assert_eq!(health.cache_rows, 3);
        assert!(health.fill_ratio() > 0.0 && health.fill_ratio() <= 1.0);
        // The warmed rows are the top-3 by weighted degree (ties by id).
        let g = e.graph();
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_by(|a, b| g.degree(*b).total_cmp(&g.degree(*a)).then(a.0.cmp(&b.0)));
        let before = service.cache_stats().unwrap();
        for &hub in &by_degree[..3] {
            service.individual_scores(&[hub]).unwrap();
        }
        let after = service.cache_stats().unwrap();
        assert_eq!(
            after.hits - before.hits,
            3,
            "warmed hub rows must be resident"
        );
        assert_eq!(after.misses, before.misses, "no cold solves after warming");
        // Warmed rows are bitwise-identical to demand-solved ones.
        assert_eq!(
            service.individual_scores(&by_degree[..3]).unwrap(),
            e.individual_scores(&by_degree[..3]).unwrap()
        );
    }

    #[test]
    fn warm_clamps_to_cache_budget_and_noops_uncached() {
        let service = CepsServiceBuilder::new().uncached().build(engine());
        assert_eq!(service.warm(usize::MAX).unwrap(), 0);
        assert_eq!(service.serve_health(), ServeHealth::default());

        // A huge warm budget clamps to the cache's own budget, and the
        // cache can never warm more rows than the graph has nodes.
        let service = CepsServiceBuilder::new()
            .cache_bytes(64 << 20)
            .build(engine());
        let warmed = service.warm(usize::MAX).unwrap();
        assert_eq!(warmed, 15, "all 15 ring nodes fit, none warmed twice");
        let health = service.serve_health();
        assert_eq!(health.cache_rows, 15);
        assert!(health.cache_bytes <= health.cache_budget_bytes);
        // Zero budget warms nothing.
        assert_eq!(service.warm(0).unwrap(), 0);
        assert_eq!(service.serve_health().warm_rows, 15);
    }

    #[test]
    fn coalesced_service_serves_bitwise_identical_replies() {
        let e = engine();
        let plain = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(e.clone());
        let coalesced = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .coalesce(CoalesceConfig {
                window_us: 300,
                max_batch: 8,
            })
            .build(e);
        let stream: Vec<Vec<NodeId>> = (0..10)
            .map(|i| vec![NodeId(i % 15), NodeId((i + 6) % 15)])
            .collect();
        coalesced.serve_stream(&stream, 3, None).unwrap();
        for queries in &stream {
            assert_eq!(
                coalesced
                    .serve(&ServeRequest::new(queries.clone()))
                    .unwrap(),
                plain.serve(&ServeRequest::new(queries.clone())).unwrap()
            );
        }
        let health = coalesced.serve_health();
        assert!(
            health.coalesce_batches > 0,
            "enabled window must have drained batches"
        );
        assert!(health.coalesce_rows >= health.coalesced);
        // The plain service's window is off: zero coalesce activity.
        assert_eq!(plain.serve_health().coalesce_batches, 0);
        assert_eq!(plain.coalesce_stats(), CoalesceStats::default());
    }

    #[test]
    fn serve_projects_run_deterministically() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let request = ServeRequest::new(vec![NodeId(1), NodeId(6)]);
        let reply = service.serve(&request).unwrap();
        let (direct, _) = service.run(&request.queries).unwrap();
        assert_eq!(reply, ServeReply::from_result(&direct, &request.queries));
        assert!(reply.members.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(
            reply.members.iter().filter(|m| m.is_query).count(),
            2,
            "query nodes are flagged"
        );
        // Warm cache, same request: byte-identical reply.
        let again = service.serve(&request).unwrap();
        assert_eq!(reply, again);
    }

    #[test]
    fn serve_vocabulary_round_trips_through_serde() {
        let service = CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build(engine());
        let request = ServeRequest::new(vec![NodeId(2), NodeId(9)]);
        let req_json = serde_json::to_string(&request).unwrap();
        let request2: ServeRequest = serde_json::from_str(&req_json).unwrap();
        assert_eq!(request, request2);

        let reply = service.serve(&request).unwrap();
        let json = serde_json::to_string(&reply).unwrap();
        let reply2: ServeReply = serde_json::from_str(&json).unwrap();
        // PartialEq on f64 fields: bitwise equality of every score must
        // survive the text round-trip (shortest-round-trip formatting).
        assert_eq!(reply, reply2);
    }

    #[test]
    fn builder_workers_and_precision_pass_through() {
        use ceps_graph::Precision;

        assert_eq!(CepsServiceBuilder::new().build(engine()).workers(), 1);
        assert_eq!(
            CepsServiceBuilder::new()
                .workers(0)
                .build(engine())
                .workers(),
            1
        );
        assert_eq!(
            CepsServiceBuilder::new()
                .workers(7)
                .build(engine())
                .workers(),
            7
        );

        let cfg = CepsConfig::default().budget(4).threads(1);
        let service = CepsServiceBuilder::new()
            .precision(Precision::F32)
            .build_from_graph(ring(3, 5), cfg)
            .unwrap();
        assert_eq!(service.engine().config().precision, Precision::F32);
    }
}
