//! Observability guarantees: the `ceps-obs` recorder must be a pure
//! observer. With it installed the pipeline's numeric output has to be
//! bitwise-identical to the uninstrumented run, the snapshot must contain
//! the documented stage spans and counters, and the exported JSON must
//! parse under the `ceps-obs/v1` schema.

use ceps_core::{CepsConfig, CepsEngine, CepsResult, QueryType};
use ceps_datagen::{CoauthorConfig, CoauthorGraph, QueryRepository};
use ceps_graph::NodeId;
use std::sync::{Mutex, OnceLock};

/// Serializes tests in this binary: the recorder is process-global.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload() -> (CoauthorGraph, QueryRepository) {
    let data = CoauthorConfig::tiny().seed(21).generate();
    let repo = QueryRepository::from_graph(&data);
    (data, repo)
}

fn run_pipeline(data: &CoauthorGraph, queries: &[NodeId]) -> CepsResult {
    let cfg = CepsConfig::default()
        .budget(8)
        .query_type(QueryType::SoftAnd(2))
        .alpha(0.5);
    CepsEngine::new(&data.graph, cfg)
        .unwrap()
        .run(queries)
        .unwrap()
}

fn assert_bitwise_equal(a: &CepsResult, b: &CepsResult) {
    // Float vectors compared exactly: instrumentation must not perturb a
    // single bit of the math.
    assert_eq!(a.scores, b.scores, "per-query score matrix differs");
    assert_eq!(a.combined, b.combined, "combined scores differ");
    assert_eq!(a.k, b.k);
    assert_eq!(
        a.subgraph.nodes().collect::<Vec<_>>(),
        b.subgraph.nodes().collect::<Vec<_>>()
    );
    assert_eq!(a.destinations, b.destinations);
    assert_eq!(a.paths.len(), b.paths.len());
    for (pa, pb) in a.paths.iter().zip(&b.paths) {
        assert_eq!(pa.source_index, pb.source_index);
        assert_eq!(pa.nodes, pb.nodes);
    }
}

#[test]
fn recorder_is_bitwise_transparent() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    for seed in 0..5u64 {
        let queries = repo.sample(3, seed);

        ceps_obs::uninstall_recorder();
        let plain = run_pipeline(&data, &queries);

        ceps_obs::install_recorder();
        ceps_obs::reset();
        let observed = run_pipeline(&data, &queries);
        ceps_obs::uninstall_recorder();

        assert_bitwise_equal(&plain, &observed);
    }
}

#[test]
fn snapshot_contains_stage_spans_and_pipeline_counters() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    let queries = repo.sample(3, 7);

    ceps_obs::install_recorder();
    ceps_obs::reset();
    let _ = run_pipeline(&data, &queries);
    let snap = ceps_obs::snapshot();
    ceps_obs::uninstall_recorder();

    for path in ["stage.individual_scores", "stage.combine", "stage.extract"] {
        let stat = snap
            .span(path)
            .unwrap_or_else(|| panic!("span {path:?} missing from snapshot"));
        assert_eq!(stat.count, 1, "{path} should run once per query");
        assert!(stat.total_ms() >= 0.0);
        assert!(stat.self_ms() <= stat.total_ms() + 1e-9);
    }
    // RWR spans nest under the scores stage.
    assert!(
        snap.spans.iter().any(|s| s.path.contains("rwr.solve")),
        "no rwr solve span recorded"
    );
    assert!(snap.counter("rwr.solves").unwrap_or(0) >= 1);
    assert!(snap.counter("rwr.columns").unwrap_or(0) >= queries.len() as u64);
    assert!(snap.counter("extract.paths").unwrap_or(0) >= 1);
    assert!(snap.counter("extract.dp_calls").unwrap_or(0) >= 1);
}

#[test]
fn exported_json_parses_under_the_v1_schema() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    let queries = repo.sample(2, 3);

    ceps_obs::install_recorder();
    ceps_obs::reset();
    let _ = run_pipeline(&data, &queries);
    let snap = ceps_obs::snapshot();
    ceps_obs::uninstall_recorder();

    let meta = ceps_obs::RunMeta::collect("tiny", "test");
    let text = snap.to_json(&meta);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("snapshot JSON must parse");

    assert_eq!(doc["schema"], "ceps-obs/v1");
    assert_eq!(doc["meta"]["preset"], "tiny");
    assert_eq!(doc["meta"]["label"], "test");
    assert!(doc["meta"]["timestamp"].as_str().unwrap().ends_with('Z'));
    let spans = doc["spans"].as_array().expect("spans is an array");
    assert!(!spans.is_empty());
    for span in spans {
        assert!(span["path"].as_str().is_some());
        assert!(span["count"].as_u64().unwrap() >= 1);
        assert!(span["total_ms"].as_f64().unwrap() >= 0.0);
    }
    assert!(doc["counters"]["rwr.solves"].as_u64().unwrap() >= 1);
    let hists = doc["histograms"]
        .as_array()
        .expect("histograms is an array");
    assert!(
        hists.iter().any(|h| h["name"] == "rwr.iterations"),
        "rwr.iterations histogram missing"
    );
}

#[test]
fn disabled_recorder_produces_an_empty_snapshot() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    ceps_obs::install_recorder();
    ceps_obs::reset();
    ceps_obs::uninstall_recorder();
    let _ = run_pipeline(&data, &repo.sample(2, 1));
    let snap = ceps_obs::snapshot();
    assert!(snap.spans.is_empty(), "disabled recorder must not record");
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

/// The L1 residual pass of a block solve runs only where its result is
/// read: once per solve at the default fixed iteration count (for the
/// final delta), and on every iteration when a tolerance decides freezing.
#[test]
fn residual_passes_run_only_where_the_delta_is_read() {
    use ceps_graph::{normalize::Normalization, Transition};
    use ceps_rwr::{RwrConfig, RwrEngine};

    let _guard = obs_lock();
    let (data, repo) = workload();
    let queries = repo.sample(3, 7);
    let t = Transition::new(&data.graph, Normalization::ColumnStochastic);
    let passes = |cfg: RwrConfig| {
        ceps_obs::install_recorder();
        ceps_obs::reset();
        let (_, stats) = RwrEngine::new(&t, cfg)
            .unwrap()
            .solve_block(&queries)
            .unwrap();
        let snap = ceps_obs::snapshot();
        ceps_obs::uninstall_recorder();
        let iterations = stats.iter().map(|s| s.iterations).max().unwrap();
        (snap.counter("rwr.delta_passes").unwrap_or(0), iterations)
    };
    assert_eq!(passes(RwrConfig::default()), (1, 50));
    let tolerant = RwrConfig {
        tolerance: Some(1e-6),
        ..RwrConfig::default()
    };
    let (count, iterations) = passes(tolerant);
    assert_eq!(
        count, iterations as u64,
        "one pass per iteration under a tolerance"
    );
}
