//! Serving-layer integration tests: the row cache must be *bitwise
//! transparent* — a [`CepsService`] answers every query with exactly the
//! scores a cold engine would produce, whatever mix of hits, misses,
//! evictions and concurrent workers produced them.

use ceps_repro::prelude::*;
use proptest::prelude::*;

fn workload(seed: u64) -> (CsrGraph, QueryRepository) {
    let data = CoauthorConfig::tiny().seed(seed).generate();
    let repo = QueryRepository::from_graph(&data);
    (data.graph, repo)
}

fn engine(graph: &CsrGraph) -> CepsEngine {
    let cfg = CepsConfig::default().budget(6).threads(1);
    CepsEngine::new(graph, cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: cached scores are bitwise-equal to a cold `solve_block`
    /// over the same query set, across arbitrary overlapping batches.
    #[test]
    fn cached_scores_bitwise_equal_cold_blocks(
        seed in 0u64..200,
        batches in proptest::collection::vec((1usize..=4, 0u64..1000), 1..6),
    ) {
        let (graph, repo) = workload(seed);
        let e = engine(&graph);
        let service = CepsServiceBuilder::new().cache_bytes(32 << 20).build(e.clone());
        for (q, qseed) in batches {
            prop_assume!(repo.all().len() >= q);
            let queries = repo.sample(q, qseed);
            // Cold reference: one batched block solve, no cache involved.
            let cold = e.individual_scores(&queries).unwrap();
            let cached = service.individual_scores(&queries).unwrap();
            // ScoreMatrix equality is bitwise on the f64 payload.
            prop_assert_eq!(cold, cached);
        }
    }

    /// Property: a pathologically small byte budget (constant eviction
    /// thrash) never changes results, only the hit rate.
    #[test]
    fn eviction_thrash_is_correctness_neutral(
        seed in 0u64..200,
        rounds in 2usize..6,
        budget_rows in 1usize..3,
    ) {
        let (graph, repo) = workload(seed);
        let e = engine(&graph);
        // Budget of one or two rows in a single shard: almost every insert
        // evicts something.
        let row_bytes = graph.node_count() * std::mem::size_of::<f64>() + 64;
        let service = CepsServiceBuilder::new()
            .cache_bytes(budget_rows * row_bytes)
            .shards(1)
            .build(e.clone());
        for r in 0..rounds as u64 {
            let queries = repo.sample(3.min(repo.all().len()), seed ^ (r << 16));
            let cold = e.individual_scores(&queries).unwrap();
            let cached = service.individual_scores(&queries).unwrap();
            prop_assert_eq!(cold, cached);
        }
        let stats = service.cache_stats().unwrap();
        prop_assert!(
            stats.evictions > 0 || stats.insertions <= budget_rows as u64,
            "budget was supposed to thrash: {stats:?}"
        );
    }
}

/// Concurrent workers hammering one shared cache agree with the serial,
/// uncached engine — the smoke test ISSUE asks to run under `cargo test -q`.
#[test]
fn concurrent_serving_matches_serial_engine() {
    let (graph, repo) = workload(7);
    let e = engine(&graph);
    let service = CepsServiceBuilder::new()
        .cache_bytes(4 << 20)
        .shards(4)
        .build(e.clone());

    let stream: Vec<Vec<NodeId>> = (0..24)
        .map(|i| repo.sample(1 + (i as usize % 3), 1000 + i))
        .collect();
    let outcome = service.serve_stream(&stream, 4, None).unwrap();
    assert_eq!(outcome.completed, stream.len());
    assert!(
        outcome.hit_rate().expect("cache enabled and exercised") > 0.0,
        "hub-drawn stream must repeat rows"
    );

    for queries in &stream {
        assert_eq!(
            service.run(queries).unwrap().0.scores,
            e.run(queries).unwrap().scores
        );
    }
}

/// The facade end-to-end: build, serve and inspect through the prelude
/// only, with `?` over the unified error.
#[test]
fn prelude_covers_the_serving_workflow() -> Result<(), CepsError> {
    let mut b = GraphBuilder::new();
    for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
        b.add_edge(NodeId(x), NodeId(y), 1.0)?;
    }
    let engine = CepsEngine::new(b.build()?, CepsConfig::default().budget(2))?;
    assert!(matches!(
        engine.config().score_method,
        ScoreMethod::Iterative
    ));
    let service = CepsServiceBuilder::new().cache_bytes(1 << 20).build(engine);
    let (result, _) = service.run(&[NodeId(0), NodeId(4)])?;
    assert!(result.subgraph.contains(NodeId(2)));
    let stats: CacheStats = service.cache_stats().expect("cache enabled");
    assert_eq!(stats.insertions, 2);
    Ok(())
}
