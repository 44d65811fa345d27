//! The in-process workload: the paper's offline "response time" use on
//! the large preset. One caller runs a fixed list of repository query
//! sets back to back (closed loop) through the engine, no cache and no
//! wire, with the 2-thread worker pool.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ceps_core::{CepsConfig, CepsEngine, CepsResult, QueryType};
use ceps_datagen::{CoauthorConfig, QueryRepository};
use ceps_graph::NodeId;
use ceps_load::splitmix64;

use crate::host;
use crate::report::Report;
use crate::stats;
use crate::wire::{put_roofline, put_tail, spmm_bytes};

/// Seed of the large preset graph and of the query list: both are fixed,
/// so the expected outputs can be recorded once. `--seed` orders the
/// queries within each pass.
const GRAPH_SEED: u64 = 0;
/// RWR worker threads: the graph is above the pool's work threshold, so
/// the banded operator and the 2-thread pool both engage.
const THREADS: usize = 2;
/// Budget `b`.
const BUDGET: usize = 20;
/// The softAND coefficient of the softAND query sets.
const SOFT_K: usize = 2;
/// Graph builds per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Query sets in the fixed list.
const LIST_LEN: usize = 16;
/// Relative tolerance on the extracted goodness.
const GOODNESS_TOL: f64 = 1e-9;

/// One entry of the fixed query list.
#[derive(Debug, Clone)]
struct QuerySet {
    soft: bool,
    nodes: Vec<NodeId>,
}

/// The fixed list: Q = 2..=5 under AND, Q = 3..=5 under 2_softAND.
fn query_list(repo: &QueryRepository) -> Vec<QuerySet> {
    (0..LIST_LEN)
        .map(|i| {
            let soft = i >= LIST_LEN / 2;
            let q = if soft { 3 + i % 3 } else { 2 + i % 4 };
            QuerySet {
                soft,
                nodes: repo.sample(q, 1000 + i as u64),
            }
        })
        .collect()
}

/// The engines and query list a run measures.
struct Setup {
    and: CepsEngine,
    soft: CepsEngine,
    list: Vec<QuerySet>,
}

/// Generates the large preset graph and builds both engines on it.
fn build() -> Result<Setup, String> {
    let data = CoauthorConfig::large().seed(GRAPH_SEED).generate();
    let repo = QueryRepository::from_graph(&data);
    let graph = Arc::new(data.graph);
    let cfg = CepsConfig::default().budget(BUDGET).threads(THREADS);
    let and = CepsEngine::new(Arc::clone(&graph), cfg.query_type(QueryType::And))
        .map_err(|e| e.to_string())?;
    let soft = CepsEngine::new(graph, cfg.query_type(QueryType::SoftAnd(SOFT_K)))
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        and,
        soft,
        list: query_list(&repo),
    })
}

/// What a query's output is checked against: the subgraph's node set,
/// the edges of its key paths, and its extracted goodness.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    goodness: f64,
}

impl Expected {
    fn of(result: &CepsResult) -> Expected {
        let mut nodes: Vec<u32> = result.subgraph.nodes().map(|v| v.0).collect();
        nodes.sort_unstable();
        let mut edges: Vec<(u32, u32)> = result
            .paths
            .iter()
            .flat_map(|p| {
                p.nodes
                    .windows(2)
                    .map(|w| (w[0].0.min(w[1].0), w[0].0.max(w[1].0)))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Expected {
            nodes,
            edges,
            goodness: result.extracted_goodness(),
        }
    }

    fn matches(&self, other: &Expected) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && (self.goodness - other.goodness).abs() <= GOODNESS_TOL * self.goodness.abs().max(1.0)
    }

    fn to_json(&self, q: &QuerySet) -> serde_json::Value {
        let edges: Vec<Vec<u32>> = self.edges.iter().map(|&(a, b)| vec![a, b]).collect();
        let queries: Vec<u32> = q.nodes.iter().map(|v| v.0).collect();
        serde_json::json!({
            "type": if q.soft { "softand2" } else { "and" },
            "queries": queries,
            "nodes": self.nodes,
            "edges": edges,
            "goodness": self.goodness,
        })
    }

    fn from_json(v: &serde_json::Value) -> Option<(Vec<u32>, Expected)> {
        let ids = |k: &str| -> Option<Vec<u32>> {
            v[k].as_array()?
                .iter()
                .map(|x| x.as_u64().map(|n| n as u32))
                .collect()
        };
        let edges = v["edges"]
            .as_array()?
            .iter()
            .map(|e| Some((e[0].as_u64()? as u32, e[1].as_u64()? as u32)))
            .collect::<Option<Vec<_>>>()?;
        Some((
            ids("queries")?,
            Expected {
                nodes: ids("nodes")?,
                edges,
                goodness: v["goodness"].as_f64()?,
            },
        ))
    }
}

/// Reads the recorded outputs and checks they belong to this query list.
fn load_expected(path: &Path, list: &[QuerySet]) -> Result<Vec<Expected>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc["queries"]
        .as_array()
        .ok_or("expected outputs: no \"queries\" array")?;
    if entries.len() != list.len() {
        return Err(format!(
            "expected outputs hold {} query sets, the list has {}",
            entries.len(),
            list.len()
        ));
    }
    entries
        .iter()
        .zip(list)
        .map(|(v, q)| {
            let (queries, e) = Expected::from_json(v).ok_or("malformed expected entry")?;
            let want: Vec<u32> = q.nodes.iter().map(|v| v.0).collect();
            if queries != want {
                return Err("expected outputs were recorded for another query list".to_string());
            }
            Ok(e)
        })
        .collect()
}

/// One query, timed in its two halves: the RWR solve
/// (`CepsEngine::individual_scores`) and combine + EXTRACT
/// (`CepsEngine::run_with_scores_timed`). Together they are
/// `CepsEngine::run`.
struct Timed {
    total_ms: f64,
    solve_ms: f64,
    combine_ms: f64,
    extract_ms: f64,
    /// What the check compares; the full result (score matrices
    /// included) is dropped at once so it does not count in the peak
    /// memory.
    output: Expected,
}

fn run_query(s: &Setup, q: &QuerySet) -> Result<Timed, String> {
    let engine = if q.soft { &s.soft } else { &s.and };
    let t0 = Instant::now();
    let scores = s
        .and
        .individual_scores(&q.nodes)
        .map_err(|e| e.to_string())?;
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (result, st) = engine
        .run_with_scores_timed(&q.nodes, scores)
        .map_err(|e| e.to_string())?;
    Ok(Timed {
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        solve_ms,
        combine_ms: st.combine_ms,
        extract_ms: st.extract_ms,
        output: Expected::of(&result),
    })
}

/// Seeded order of the list for pass `pass`.
fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Queries measured by one loop, and their checks.
struct Loop {
    timed: Vec<Timed>,
    wrong: usize,
    wall_s: f64,
    cpu_ms: f64,
}

/// Runs whole passes over the list until `seconds` have elapsed, so
/// every query set weighs the same in every run.
fn run_loop(s: &Setup, expected: &[Expected], seed: u64, seconds: f64) -> Result<Loop, String> {
    let pid = std::process::id();
    let cpu0 = host::cpu_ms(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    let mut timed = Vec::new();
    let mut wrong = 0;
    let mut pass = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        for i in pass_order(seed, pass, s.list.len()) {
            let t = run_query(s, &s.list[i])?;
            if !t.output.matches(&expected[i]) {
                wrong += 1;
            }
            timed.push(t);
        }
        pass += 1;
    }
    Ok(Loop {
        timed,
        wrong,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_ms: host::cpu_ms(pid).unwrap_or(0.0) - cpu0,
    })
}

fn expected_path(dir: &Path) -> std::path::PathBuf {
    dir.join("expected").join("batch_large.json")
}

/// Writes the expected outputs of the fixed list (run once, when the
/// list or the preset changes; the file is committed).
pub fn record(bench_dir: &Path) -> Result<String, String> {
    let s = build()?;
    let entries: Vec<serde_json::Value> = s
        .list
        .iter()
        .map(|q| Ok(run_query(&s, q)?.output.to_json(q)))
        .collect::<Result<_, String>>()?;
    // One query set per line keeps the file short and its diffs readable.
    let lines = entries
        .iter()
        .map(serde_json::to_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let text = format!(
        "{{\"preset\": \"large\", \"graph_seed\": {GRAPH_SEED}, \"budget\": {BUDGET}, \"queries\": [\n{}\n]}}\n",
        lines.join(",\n")
    );
    let path = expected_path(bench_dir);
    fs::create_dir_all(path.parent().expect("file has a parent")).map_err(|e| e.to_string())?;
    fs::write(&path, text).map_err(|e| e.to_string())?;
    Ok(format!("wrote {}", path.display()))
}

/// The timed run: end-to-end metrics with tracing off.
pub fn timed(bench_dir: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first so the peak memory stays that of
        // one set-up.
        drop(setup.take());
        let t0 = Instant::now();
        let s = build()?;
        setups.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");
    let expected = load_expected(&expected_path(bench_dir), &s.list)?;
    let l = run_loop(&s, &expected, seed, seconds)?;
    let lat = stats::sorted(l.timed.iter().map(|t| t.total_ms));
    let n = lat.len();
    let qps = n as f64 / l.wall_s;
    let mut report = Report {
        correct: l.wrong == 0,
        attempted: n as u64,
        failed: l.wrong as u64,
        ..Report::default()
    };
    let (cpus, count) = host::affinity(std::process::id());
    report.note(format!(
        "{n} queries in {:.2} s; p90 {:.1} ms ({} samples beyond), p99 {:.1} ms ({} beyond); \
         cpus {cpus} ({count}); setup runs {setups:.3?} s",
        l.wall_s,
        stats::percentile(&lat, 90.0),
        stats::samples_beyond(n, 90.0),
        stats::percentile(&lat, 99.0),
        stats::samples_beyond(n, 99.0),
    ));
    report.put("setup_s", stats::median(&setups), "s");
    report.put("p50_ms", stats::percentile(&lat, 50.0), "ms");
    report.put("qps", qps, "1/s");
    // Closed loop: every reply that checked out is goodput.
    report.put("goodput_rps", (n - l.wrong) as f64 / l.wall_s, "1/s");
    report.put("cpu_ms_per_req", l.cpu_ms / n.max(1) as f64, "ms");
    report.put(
        "peak_rss_mb",
        host::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
    Ok(report)
}

/// The traced run: half the time untraced (the overhead reference), half
/// with the `ceps-obs` recorder on for the per-layer counts.
pub fn traced(bench_dir: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let s = build()?;
    let expected = load_expected(&expected_path(bench_dir), &s.list)?;
    let plain = run_loop(&s, &expected, seed, seconds / 2.0)?;
    ceps_obs::install_recorder();
    ceps_obs::reset();
    let l = run_loop(&s, &expected, seed, seconds / 2.0)?;
    let snap = ceps_obs::snapshot();
    ceps_obs::uninstall_recorder();

    let n = l.timed.len();
    let per_q = |v: f64| v / n.max(1) as f64;
    let col = |f: &dyn Fn(&Timed) -> f64| stats::sorted(l.timed.iter().map(f));
    let total = col(&|t| t.total_ms);
    let solve = col(&|t| t.solve_ms);
    let combine = col(&|t| t.combine_ms);
    let extract = col(&|t| t.extract_ms);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let wrong = plain.wrong + l.wrong;
    let attempted = plain.timed.len() + n;
    let mut report = Report {
        correct: wrong == 0,
        attempted: attempted as u64,
        failed: wrong as u64,
        ..Report::default()
    };
    report.note("no generator, wire, server or cache on this workload: their metrics read 0");
    report.note("serve.* stage times come from the benchmark's own calls into the pipeline");
    let plain_ms = stats::sorted(plain.timed.iter().map(|t| t.total_ms));
    put_tail(&mut report, &plain_ms);
    let cpus = host::affinity(std::process::id()).1 as f64;
    report.put("load.send_lag_p99_ms", 0.0, "ms");
    report.put("load.backlog_max", 0.0, "count");
    // Closed loop with one caller: its throughput is its capacity.
    report.put(
        "load.capacity_rps",
        plain.timed.len() as f64 / plain.wall_s,
        "1/s",
    );
    report.put("load.generator_cpus", cpus, "count");
    for name in [
        "net.rtt_overhead_p50_ms",
        "net.queue_p99_ms",
        "net.bytes_per_reply",
        "net.sheds",
        "net.errors",
    ] {
        report.put(name, 0.0, unit_of(name));
    }
    report.put(
        "serve.latency_p50_ms",
        stats::percentile(&total, 50.0),
        "ms",
    );
    report.put(
        "serve.latency_p99_ms",
        stats::percentile(&total, 99.0),
        "ms",
    );
    report.put("serve.scores_p50_ms", stats::percentile(&solve, 50.0), "ms");
    report.put("serve.scores_p99_ms", stats::percentile(&solve, 99.0), "ms");
    report.put(
        "serve.combine_p50_ms",
        stats::percentile(&combine, 50.0),
        "ms",
    );
    report.put(
        "serve.extract_p50_ms",
        stats::percentile(&extract, 50.0),
        "ms",
    );
    report.put(
        "serve.extract_p99_ms",
        stats::percentile(&extract, 99.0),
        "ms",
    );
    let lat_sum = sum(&total).max(1e-12);
    report.put(
        "serve.coverage",
        (sum(&solve) + sum(&combine) + sum(&extract)) / lat_sum,
        "ratio",
    );
    report.put("serve.scores_share", sum(&solve) / lat_sum, "ratio");
    report.put("serve.extract_share", sum(&extract) / lat_sum, "ratio");
    report.put("serve.server_cpus", cpus, "count");
    for name in [
        "cache.hit_rate",
        "cache.evictions",
        "cache.singleflight_waits",
        "cache.warm_rows",
        "coalesce.rows_per_batch",
    ] {
        report.put(name, 0.0, unit_of(name));
    }

    let counter = |k: &str| snap.counter(k).unwrap_or(0) as f64;
    let col_iters = snap
        .histograms
        .iter()
        .find(|h| h.name == "rwr.iterations")
        .map_or(0.0, |h| h.sum);
    let cands = snap
        .histograms
        .iter()
        .find(|h| h.name == "extract.candidates")
        .map_or(0.0, |h| h.sum);
    let (columns, solves) = (counter("rwr.columns"), counter("rwr.solves"));
    let nnz = s.and.transition().nnz() as f64;
    let nodes = s.and.graph().node_count() as f64;
    let matrix_bytes = s.and.transition().memory_bytes() as f64;
    report.put("rwr.solves_per_query", per_q(solves), "count");
    report.put("rwr.columns_per_query", per_q(columns), "count");
    report.put(
        "rwr.iterations_per_column",
        col_iters / columns.max(1.0),
        "count",
    );
    report.put(
        "rwr.frozen_columns_per_query",
        per_q(counter("rwr.frozen_columns")),
        "count",
    );
    report.put("rwr.solve_ms", stats::percentile(&solve, 50.0), "ms");
    report.put(
        "graph.spmm_madds_per_query",
        per_q(nnz * col_iters),
        "count",
    );
    report.put(
        "graph.spmm_bytes_per_query",
        per_q(spmm_bytes(col_iters, columns, solves, matrix_bytes, nodes)),
        "B",
    );
    let solve_all: Vec<f64> = l.timed.iter().map(|t| t.solve_ms).collect();
    put_roofline(&mut report, &snap, &solve_all, matrix_bytes, nodes);
    report.put("pool.wakes_per_query", per_q(counter("pool.wake")), "count");
    report.put(
        "pool.chunks_stolen_per_query",
        per_q(counter("pool.chunks_stolen")),
        "count",
    );
    report.put("extract.ms", stats::percentile(&extract, 50.0), "ms");
    report.put(
        "extract.dp_slots_per_query",
        per_q(counter("extract.dp_slots")),
        "count",
    );
    report.put("extract.candidates_per_query", per_q(cands), "count");
    let untraced = stats::percentile(&plain_ms, 50.0);
    report.put(
        "obs.trace_overhead",
        stats::percentile(&total, 50.0) / untraced.max(1e-12) - 1.0,
        "ratio",
    );
    report.put("fail_rate", wrong as f64 / attempted.max(1) as f64, "ratio");
    Ok(report)
}

/// The unit a per-layer metric is listed with in `BENCHMARK.json`.
fn unit_of(name: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| *u)
}
