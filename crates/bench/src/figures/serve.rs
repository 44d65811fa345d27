//! Serving-throughput benchmark — the proof artifact for the shared RWR
//! row cache ([`ceps_core::CepsService`]).
//!
//! Replays a repository-drawn query stream (each request's nodes come from
//! the hub repository with probability `repeat`, and uniformly from the
//! whole graph otherwise) through three arms sharing one engine build:
//!
//! * **no-cache** — built `.uncached()` via
//!   [`ceps_core::CepsServiceBuilder`], every request solves all its RWR
//!   rows cold;
//! * **cached** — a fresh bytes-budgeted row cache per repeat-rate row;
//! * **coalesced** — the same cache plus the micro-batching coalescer
//!   ([`ceps_core::CoalesceConfig`]) and a degree-weighted
//!   [`warm`](ceps_core::CepsService::warm) pass before the stream starts
//!   (warming is a startup cost by design and is excluded from the timed
//!   window, like the equivalence probe that warms the cached arm).
//!
//! One table row per repeat rate: wall-clock for all arms, the cached/cold
//! and coalesced/cold throughput ratios, hit rate and cached-arm latency
//! percentiles. The steady-state hit rate converges to the repeat rate
//! (first touches of the 48 hubs are misses), so streams are long enough
//! for warmup to amortize. The regression gate watches `speedup` plus the
//! hard-floored `coalesced_speedup` at repeat ≥ 0.9: the warmed, coalesced
//! service must never lose to cold per-request solves on hub-heavy
//! traffic. The runner asserts all arms return identical subgraphs on a
//! sampled request, so no speedup is ever bought with wrong answers.

use ceps_core::{CepsConfig, CepsEngine, CepsServiceBuilder, CoalesceConfig};
use ceps_graph::NodeId;
use rand::{Rng, SeedableRng};

use crate::report::Table;
use crate::workload::Workload;

/// Parameters for the serving benchmark.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Repeat rates to sweep (probability a request draws hub nodes).
    pub repeats: Vec<f64>,
    /// Query sets per stream.
    pub requests: usize,
    /// Query nodes per request.
    pub queries_per: usize,
    /// Worker threads serving each stream.
    pub workers: usize,
    /// Row-cache budget in bytes for the cached arm.
    pub cache_bytes: usize,
    /// Budget `b` per query.
    pub budget: usize,
    /// Normalization exponent.
    pub alpha: f64,
    /// Stream-sampling seed.
    pub seed: u64,
    /// Coalescing window (µs) for the coalesced arm.
    pub coalesce_us: u64,
    /// Max rows per coalesced solve.
    pub coalesce_batch: usize,
    /// Fraction of the cache byte budget pre-filled by degree-weighted
    /// warming in the coalesced arm.
    pub warm_frac: f64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            repeats: vec![0.0, 0.5, 0.9, 0.95],
            requests: 256,
            queries_per: 3,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache_bytes: 256 << 20,
            budget: 20,
            alpha: 0.5,
            seed: 42,
            coalesce_us: 200,
            coalesce_batch: 32,
            warm_frac: 0.05,
        }
    }
}

/// Draws the query stream: per node, hub-repository with probability
/// `repeat`, else uniform over the graph; nodes within a request are
/// distinct.
pub fn sample_stream(
    workload: &Workload,
    requests: usize,
    queries_per: usize,
    repeat: f64,
    seed: u64,
) -> Vec<Vec<NodeId>> {
    let n = workload.node_count() as u32;
    let hubs = workload.repository.all();
    let queries_per = queries_per.min(workload.node_count());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|_| {
            let mut set: Vec<NodeId> = Vec::with_capacity(queries_per);
            while set.len() < queries_per {
                let v = if rng.gen_bool(repeat) {
                    hubs[rng.gen_range(0..hubs.len())]
                } else {
                    NodeId(rng.gen_range(0..n))
                };
                if !set.contains(&v) {
                    set.push(v);
                }
            }
            set
        })
        .collect()
}

/// Runs the benchmark over `workload`'s graph.
///
/// Returns two tables. The first has one row per repeat rate with the
/// throughput comparison: no-cache, cached and coalesced+warmed
/// wall-clock (ms), the speedups `nocache_ms / cached_ms` and
/// `nocache_ms / coalesced_ms`, cached-arm hit rate, and cached-arm
/// latency percentiles (ms). The second breaks each arm's mean
/// per-request latency into pipeline stages (scores / combine / extract,
/// ms) — the cached-vs-cold columns show which stage the row cache
/// actually removes.
///
/// # Panics
/// Panics if the arms disagree on a sampled request's subgraph, or if
/// a stream fails to serve.
pub fn run(workload: &Workload, params: &ServeParams) -> (Table, Table) {
    let cfg = CepsConfig::default()
        .budget(params.budget)
        .alpha(params.alpha)
        .threads(1);
    let engine = CepsEngine::new(&workload.data.graph, cfg).unwrap();

    let mut table = Table::new(
        "BENCH serve: cached service vs cold per-request solves",
        vec![
            "repeat".into(),
            "nocache_ms".into(),
            "cached_ms".into(),
            "speedup".into(),
            "hit_rate".into(),
            "p50_ms".into(),
            "p95_ms".into(),
            "p99_ms".into(),
            "coalesced_ms".into(),
            "coalesced_speedup".into(),
        ],
    );
    let mut stages = Table::new(
        "BENCH serve stages: mean per-request stage time, cold vs cached (ms)",
        vec![
            "repeat".into(),
            "cold_scores_ms".into(),
            "cold_combine_ms".into(),
            "cold_extract_ms".into(),
            "cached_scores_ms".into(),
            "cached_combine_ms".into(),
            "cached_extract_ms".into(),
        ],
    );

    for (i, &repeat) in params.repeats.iter().enumerate() {
        let stream = sample_stream(
            workload,
            params.requests,
            params.queries_per,
            repeat,
            params.seed ^ (i as u64) << 8,
        );

        let cold = CepsServiceBuilder::new().uncached().build(engine.clone());
        let warm = CepsServiceBuilder::new()
            .cache_bytes(params.cache_bytes)
            .build(engine.clone());
        let coalesced = CepsServiceBuilder::new()
            .cache_bytes(params.cache_bytes)
            .coalesce(CoalesceConfig {
                window_us: params.coalesce_us,
                max_batch: params.coalesce_batch,
            })
            .build(engine.clone());
        // Startup warming (degree-weighted, budget-clamped) happens before
        // the timed window — like cache warmup via the equivalence probe.
        let warm_budget = (params.cache_bytes as f64 * params.warm_frac) as usize;
        coalesced.warm(warm_budget).unwrap();

        // Equivalence before timing: same subgraph with and without cache
        // (the cache is also warmed-and-checked by this, so time below
        // reflects steady-state serving).
        let probe = &stream[0];
        let (a, _) = cold.run(probe).unwrap();
        let (b, _) = warm.run(probe).unwrap();
        let (c, _) = coalesced.run(probe).unwrap();
        assert_eq!(a.scores, b.scores, "cache must be bitwise-transparent");
        assert_eq!(
            a.scores, c.scores,
            "coalesced+warmed path must be bitwise-transparent"
        );
        assert_eq!(
            a.subgraph.nodes().collect::<Vec<_>>(),
            b.subgraph.nodes().collect::<Vec<_>>()
        );
        assert_eq!(
            a.subgraph.nodes().collect::<Vec<_>>(),
            c.subgraph.nodes().collect::<Vec<_>>()
        );

        let cold_out = cold.serve_stream(&stream, params.workers, None).unwrap();
        let warm_out = warm.serve_stream(&stream, params.workers, None).unwrap();
        let co_out = coalesced
            .serve_stream(&stream, params.workers, None)
            .unwrap();
        assert_eq!(cold_out.completed, stream.len());
        assert_eq!(warm_out.completed, stream.len());
        assert_eq!(co_out.completed, stream.len());

        table.push_row(vec![
            repeat,
            cold_out.wall_ms,
            warm_out.wall_ms,
            cold_out.wall_ms / warm_out.wall_ms,
            warm_out
                .hit_rate()
                .expect("cached arm always serves at least one request"),
            warm_out.latency_percentile_ms(50.0),
            warm_out.latency_percentile_ms(95.0),
            warm_out.latency_percentile_ms(99.0),
            co_out.wall_ms,
            cold_out.wall_ms / co_out.wall_ms,
        ]);
        let cold_stages = cold_out.mean_stage_ms();
        let warm_stages = warm_out.mean_stage_ms();
        stages.push_row(vec![
            repeat,
            cold_stages.scores_ms,
            cold_stages.combine_ms,
            cold_stages.extract_ms,
            warm_stages.scores_ms,
            warm_stages.combine_ms,
            warm_stages.extract_ms,
        ]);
    }
    (table, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn stream_respects_shape_and_determinism() {
        let w = Workload::build(Scale::Tiny, 3);
        let s1 = sample_stream(&w, 5, 3, 0.7, 11);
        let s2 = sample_stream(&w, 5, 3, 0.7, 11);
        assert_eq!(s1, s2, "same seed, same stream");
        assert_eq!(s1.len(), 5);
        for req in &s1 {
            assert_eq!(req.len(), 3);
            let mut dedup = req.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "query nodes must be distinct");
        }
        // Pure-hub stream only contains repository nodes.
        let hubs = w.repository.all();
        for req in sample_stream(&w, 4, 2, 1.0, 5) {
            assert!(req.iter().all(|v| hubs.contains(v)));
        }
    }

    #[test]
    fn produces_one_row_per_repeat_rate() {
        let w = Workload::build(Scale::Tiny, 7);
        let params = ServeParams {
            repeats: vec![0.0, 0.8],
            requests: 8,
            queries_per: 2,
            workers: 2,
            budget: 5,
            ..Default::default()
        };
        let (t, stages) = run(&w, &params);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.columns[8], "coalesced_ms");
        assert_eq!(t.columns[9], "coalesced_speedup");
        for row in &t.rows {
            assert!(row[1] > 0.0 && row[2] > 0.0, "wall clocks positive");
            assert!(row[3].is_finite() && row[3] > 0.0, "speedup finite");
            assert!((0.0..=1.0).contains(&row[4]), "hit rate in [0,1]");
            assert!(row[5] <= row[7], "p50 <= p99");
            assert!(row[8] > 0.0, "coalesced wall clock positive");
            assert!(
                row[9].is_finite() && row[9] > 0.0,
                "coalesced speedup finite"
            );
        }
        // The warmed high-repeat row must actually hit.
        assert!(t.rows[1][4] > 0.0);
        // Stage breakdown: one row per repeat rate, scores dominates the
        // cold arm and every stage time is non-negative.
        assert_eq!(stages.rows.len(), 2);
        for row in &stages.rows {
            assert!(row[1] > 0.0, "cold scores stage measured");
            assert!(row[1..].iter().all(|&v| v >= 0.0));
        }
    }
}
