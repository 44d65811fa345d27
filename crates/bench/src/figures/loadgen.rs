//! Open-loop load benchmark: SLO capacity of a self-hosted wire server.
//!
//! Boots a [`ceps_net::CepsServer`] over the in-process transport on the
//! benchmark workload and runs the `ceps-load` capacity search against
//! it **twice** — once against a plain cached service, once against the
//! same service with request coalescing enabled and a degree-weighted
//! warm pass at boot — doubling the offered rate until the SLO (p99
//! bound + max shed/error rate) breaks, then bisecting the bracket.
//! Three tables come out:
//!
//! * a one-row **headline** (first in the artifact — the regression gate
//!   resolves its columns from the first table that has them): clean-run
//!   quality at the base probe rate (`ok_rate`, `achieved_ratio`, both
//!   gated) plus the detected knees of both arms (`knee_rps`,
//!   `knee_p99_ms`, `knee_rps_coalesced`, `knee_p99_coalesced_ms`,
//!   ungated — absolute capacity is machine-dependent — the committed
//!   baseline is reseeded only when `knee_rps_coalesced >= knee_rps`);
//! * the full plain-arm **throughput-latency curve**, one row per probe;
//! * the coalesced-arm curve, same schema.

use ceps_core::{CepsConfig, CepsEngine, CepsServiceBuilder};
use ceps_load::{
    capacity_search, ArrivalKind, CapacityCurve, LoadConfig, MixKind, SearchConfig, SloSpec,
    DEFAULT_HOT_POOL,
};
use ceps_net::{in_proc, CepsClient, CepsServer, ServerConfig};

use crate::report::Table;
use crate::workload::Workload;

/// Tunables of the loadgen benchmark.
#[derive(Debug, Clone)]
pub struct LoadgenParams {
    /// Schedule/query-mix seed.
    pub seed: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Budget `b` for the pipeline.
    pub budget: usize,
    /// Normalization exponent `α`.
    pub alpha: f64,
    /// Row-cache byte budget for the served service.
    pub cache_bytes: usize,
    /// Query nodes per request.
    pub queries_per: usize,
    /// Repeat rate of the query mix (cache exercise).
    pub repeat: f64,
    /// Node sampling of the query mix (uniform vs hub-skewed).
    pub mix: MixKind,
    /// Hot-pool width for the hub-skewed mix.
    pub pool_size: usize,
    /// Coalescing window (µs) for the coalesced arm.
    pub coalesce_us: u64,
    /// Fraction of the cache byte budget pre-filled by degree-weighted
    /// warming in the coalesced arm.
    pub warm_frac: f64,
    /// Per-probe run length (seconds), warmup included.
    pub duration_s: f64,
    /// Per-probe warmup (seconds).
    pub warmup_s: f64,
    /// Concurrent load connections.
    pub connections: usize,
    /// First probe rate of the capacity search.
    pub start_rps: f64,
    /// Rate cap of the capacity search.
    pub max_rps: f64,
    /// Binary-refinement probes after the bracket is found.
    pub refine_steps: usize,
    /// The SLO the search holds the server to.
    pub slo: SloSpec,
}

impl Default for LoadgenParams {
    fn default() -> Self {
        LoadgenParams {
            seed: 42,
            workers: 4,
            budget: 20,
            alpha: 0.5,
            cache_bytes: 256 << 20,
            queries_per: 3,
            repeat: 0.9,
            mix: MixKind::Hubs,
            pool_size: DEFAULT_HOT_POOL,
            coalesce_us: 200,
            warm_frac: 0.05,
            duration_s: 3.0,
            warmup_s: 0.5,
            connections: 4,
            start_rps: 10.0,
            max_rps: 20_000.0,
            refine_steps: 2,
            slo: SloSpec {
                p99_ms: 500.0,
                max_error_rate: 0.01,
            },
        }
    }
}

/// Everything the loadgen benchmark emits: the gated headline, one
/// throughput-latency curve table per arm, and both raw curves.
pub struct LoadgenOutput {
    /// One-row headline table (goes first in the artifact).
    pub headline: Table,
    /// Plain-arm curve table.
    pub curve_table: Table,
    /// Coalesced-arm curve table.
    pub coalesced_curve_table: Table,
    /// Plain-arm raw curve.
    pub curve: CapacityCurve,
    /// Coalesced-arm raw curve.
    pub coalesced_curve: CapacityCurve,
}

/// Boots one in-process wire server (coalesced+warmed or plain) and runs
/// the capacity search against it.
fn search_arm(
    workload: &Workload,
    params: &LoadgenParams,
    load_cfg: &LoadConfig,
    coalesced: bool,
) -> CapacityCurve {
    let cfg = CepsConfig::default()
        .budget(params.budget)
        .alpha(params.alpha)
        .threads(1);
    let engine = CepsEngine::new(&workload.data.graph, cfg).unwrap();
    let mut builder = CepsServiceBuilder::new().cache_bytes(params.cache_bytes);
    if coalesced {
        builder = builder.coalesce_us(params.coalesce_us);
    }
    let service = builder.build(engine);
    if coalesced {
        // Boot-time warming is part of the coalesced arm's startup, not
        // of any probe's measurement window.
        let warm_budget = (params.cache_bytes as f64 * params.warm_frac) as usize;
        service.warm(warm_budget).unwrap();
    }
    let search = SearchConfig {
        start_rps: params.start_rps,
        max_rps: params.max_rps,
        refine_steps: params.refine_steps,
    };

    let server = CepsServer::new(
        service,
        ServerConfig {
            workers: params.workers,
            ..ServerConfig::default()
        },
    );
    let (mut transport, connector) = in_proc();
    std::thread::scope(|s| {
        let server = &server;
        let serve = s.spawn(move || server.serve(&mut transport).unwrap());
        let connect = || Ok(CepsClient::from_conn(Box::new(connector.connect()?)));
        let arm = if coalesced { "coalesced" } else { "plain" };
        let curve = capacity_search(load_cfg, &params.slo, &search, &connect, |p| {
            ceps_obs::info!(
                "loadgen probe ({arm}): {:.1} rps -> p99 {:.2} ms ({})",
                p.offered_rps,
                p.report.measure.p99_ms,
                if p.slo_met { "slo met" } else { "slo violated" },
            );
        })
        .unwrap();
        let mut c = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        c.shutdown().unwrap();
        serve.join().unwrap();
        curve
    })
}

fn curve_table(title: &str, curve: &CapacityCurve) -> Table {
    let mut table = Table::new(
        title,
        vec![
            "offered_rps".into(),
            "achieved_rps".into(),
            "p50_ms".into(),
            "p99_ms".into(),
            "error_rate".into(),
            "slo_met".into(),
        ],
    );
    for p in curve.sorted_points() {
        table.push_row(vec![
            p.offered_rps,
            p.report.achieved_rps,
            p.report.measure.p50_ms,
            p.report.measure.p99_ms,
            p.report.measure.error_rate(),
            if p.slo_met { 1.0 } else { 0.0 },
        ]);
    }
    table
}

/// Runs the capacity search against both arms (plain cached service and
/// coalesced + warmed service), each on a freshly booted in-process wire
/// server fed the identical seeded schedule, and renders the headline +
/// curve tables.
///
/// # Panics
/// Panics if a server fails to boot or a probe run fails to connect —
/// both impossible over the in-process transport short of a bug.
pub fn run(workload: &Workload, params: &LoadgenParams) -> LoadgenOutput {
    // The wire server parks whole connections on workers (250ms read
    // slices); driving more connections than workers would measure that
    // parking quantum, not the service. Cap the fan-in accordingly.
    let connections = params.connections.min(params.workers).max(1);
    let load_cfg = LoadConfig {
        rps: params.start_rps,
        duration_s: params.duration_s,
        warmup_s: params.warmup_s,
        arrival: ArrivalKind::Poisson,
        connections,
        queries_per: params.queries_per,
        node_space: workload.node_count(),
        repeat: params.repeat,
        mix: params.mix,
        pool_size: params.pool_size,
        seed: params.seed,
    };

    let curve = search_arm(workload, params, &load_cfg, false);
    let coalesced_curve = search_arm(workload, params, &load_cfg, true);

    // The base probe is always the first point: the lowest rate the
    // search tried, where a healthy server completes essentially every
    // request. Its quality ratios are machine-independent — that is what
    // the regression gate watches.
    let base = &curve.points[0];
    let base_ok_rate = if base.report.measure.count == 0 {
        0.0
    } else {
        base.report.measure.ok as f64 / base.report.measure.count as f64
    };
    let base_ratio = if base.offered_rps > 0.0 {
        base.report.achieved_rps / base.offered_rps
    } else {
        0.0
    };
    let knee_of = |c: &CapacityCurve| match c.knee() {
        Some(p) => (p.offered_rps, p.report.measure.p99_ms),
        None => (0.0, 0.0),
    };
    let (knee_rps, knee_p99) = knee_of(&curve);
    let (knee_rps_co, knee_p99_co) = knee_of(&coalesced_curve);
    let mut headline = Table::new(
        "BENCH loadgen: SLO capacity (open-loop, coordinated-omission-free)",
        vec![
            "base_rps".into(),
            "ok_rate".into(),
            "achieved_ratio".into(),
            "knee_rps".into(),
            "knee_p99_ms".into(),
            "knee_rps_coalesced".into(),
            "knee_p99_coalesced_ms".into(),
        ],
    );
    headline.push_row(vec![
        base.offered_rps,
        base_ok_rate,
        base_ratio,
        knee_rps,
        knee_p99,
        knee_rps_co,
        knee_p99_co,
    ]);

    LoadgenOutput {
        headline,
        curve_table: curve_table(
            "BENCH loadgen curve: offered rate vs intended-time latency",
            &curve,
        ),
        coalesced_curve_table: curve_table(
            "BENCH loadgen curve (coalesced + warmed arm): offered rate vs intended-time latency",
            &coalesced_curve,
        ),
        curve,
        coalesced_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn loadgen_bench_finds_a_knee_on_the_tiny_preset() {
        let workload = Workload::build(Scale::Tiny, 7);
        let params = LoadgenParams {
            workers: 2,
            duration_s: 0.6,
            warmup_s: 0.1,
            connections: 2,
            start_rps: 20.0,
            max_rps: 160.0,
            refine_steps: 1,
            // Generous SLO so the search passes at least the base rate
            // even on a loaded CI host.
            slo: SloSpec {
                p99_ms: 10_000.0,
                max_error_rate: 0.05,
            },
            ..LoadgenParams::default()
        };
        let out = run(&workload, &params);
        let (headline, curve_table, curve) = (out.headline, out.curve_table, out.curve);

        assert_eq!(headline.columns[0], "base_rps");
        assert_eq!(headline.columns[1], "ok_rate");
        assert_eq!(headline.columns[5], "knee_rps_coalesced");
        assert_eq!(headline.rows.len(), 1);
        let ok_rate = headline.rows[0][1];
        assert!(ok_rate > 0.9, "base probe ok_rate {ok_rate} should be ~1");
        assert!(!curve.points.is_empty());
        assert_eq!(curve_table.rows.len(), curve.points.len());
        // Hitting max_rps with the SLO still met counts as a knee too, so
        // one must exist under this generous SLO — for both arms.
        assert!(curve.knee_rps.is_some());
        assert!(out.coalesced_curve.knee_rps.is_some());
        assert_eq!(
            out.coalesced_curve_table.rows.len(),
            out.coalesced_curve.points.len()
        );
        assert!(
            headline.rows[0][5] > 0.0,
            "coalesced knee recorded in the headline"
        );

        // Schema round-trip: the emitted BENCH_loadgen.json parses and
        // the regression gate resolves its columns (headline table first)
        // — an artifact identical to its own baseline must pass.
        let dir = std::env::temp_dir().join(format!("ceps_loadgen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = serde_json::json!({"seed": 7u64});
        let tables = [headline, curve_table, out.coalesced_curve_table];
        let path = crate::report::write_json(&dir, "BENCH_loadgen", &meta, &tables).unwrap();
        assert!(path.ends_with("BENCH_loadgen.json"));
        let gates: Vec<_> = crate::regression::default_gates()
            .into_iter()
            .filter(|g| g.artifact == "BENCH_loadgen.json")
            .collect();
        assert_eq!(gates.len(), 1, "loadgen artifact is gated");
        let report = crate::regression::check(&dir, &dir, &gates, 1.0);
        assert!(report.passed(), "{}", report.render());
        assert!(report.rows.iter().any(|r| r.metric == "ok_rate"));
        assert!(report.rows.iter().any(|r| r.metric == "achieved_ratio"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
