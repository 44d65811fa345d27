//! Microbenchmark: the EXTRACT algorithm (Tables 3–4) in isolation —
//! scores precomputed, extraction cost as a function of budget, plus one
//! medium-preset case shaped like a `wire_hubs` request.

use ceps_bench::{workload::Workload, Scale};
use ceps_core::extract::{extract, ExtractOutcome, ExtractParams, SharingRule};
use ceps_graph::{normalize::Normalization, CsrGraph, NodeId, Transition};
use ceps_load::{MixKind, QueryMix};
use ceps_rwr::{combine, RwrConfig, RwrEngine, ScoreMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_extract(c: &mut Criterion) {
    let w = Workload::build(Scale::Small, 3);
    let graph = &w.data.graph;
    let t = Transition::new(graph, Normalization::DegreePenalized { alpha: 0.5 });
    let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
    let queries = w.repository.sample(3, 7);
    let scores = engine.solve_many(&queries).unwrap();
    let combined = combine::combine_scores(&scores, 3).unwrap();

    let mut group = c.benchmark_group("extract");
    for budget in [10usize, 20, 40, 80] {
        group.bench_with_input(BenchmarkId::new("and_q3", budget), &budget, |b, &budget| {
            b.iter(|| {
                black_box(extract(ExtractParams {
                    graph,
                    scores: &scores,
                    combined: &combined,
                    k: 3,
                    budget,
                    max_path_len: budget.div_ceil(3).max(2),
                    sharing: SharingRule::FreeSharedNodes,
                }))
            });
        });
    }
    group.finish();
}

/// One `wire_hubs`-shaped request: perfbench's medium graph (10K nodes),
/// Q = 3 nodes from its first 16-node hot pool, AND, budget 20. A query
/// set whose AND scores are zero everywhere stops before the first key
/// path, so the first set that extracts a path is used.
fn bench_extract_medium_hubs(c: &mut Criterion) {
    let w = Workload::build(Scale::Medium, 0);
    let graph = &w.data.graph;
    let t = Transition::new(graph, Normalization::DegreePenalized { alpha: 0.5 });
    let engine = RwrEngine::new(&t, RwrConfig::default()).unwrap();
    let mut mix = QueryMix::with_mix(graph.node_count(), 3, 0.0, 0x5eed, MixKind::Hubs, 16);
    let (scores, combined) = loop {
        let queries: Vec<NodeId> = mix
            .next_query()
            .into_iter()
            .map(|v| NodeId(v as u32))
            .collect();
        let scores = engine.solve_many(&queries).unwrap();
        let combined = combine::combine_scores(&scores, 3).unwrap();
        if !hub_request(graph, &scores, &combined).paths.is_empty() {
            break (scores, combined);
        }
    };

    c.bench_function("extract/medium_hubs_and_q3_b20", |b| {
        b.iter(|| black_box(hub_request(graph, &scores, &combined)));
    });
}

/// EXTRACT as a `wire_hubs` request runs it: k = 3 (AND over Q = 3),
/// budget 20, `len = ⌈20/3⌉`.
fn hub_request(graph: &CsrGraph, scores: &ScoreMatrix, combined: &[f64]) -> ExtractOutcome {
    extract(ExtractParams {
        graph,
        scores,
        combined,
        k: 3,
        budget: 20,
        max_path_len: 20usize.div_ceil(3),
        sharing: SharingRule::FreeSharedNodes,
    })
}

criterion_group!(benches, bench_extract, bench_extract_medium_hubs);
criterion_main!(benches);
