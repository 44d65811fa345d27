//! Command implementations. Each returns the text it would print, so tests
//! exercise the full path without capturing stdout.

use std::fs;
use std::io::BufReader;
use std::path::Path;

use ceps_core::{eval, CepsConfig, CepsEngine, CepsServiceBuilder, QueryType, ServeRequest};
use ceps_graph::{io as gio, CsrGraph, NodeId, NodeLabels};
use ceps_load::splitmix64;
use ceps_partition::{partition_graph, PartitionConfig};

use crate::args::ClientAction;
use crate::{CliError, Command};

/// Executes a parsed command, returning its stdout text.
///
/// # Errors
/// Any I/O, parse or pipeline error, rendered as a [`CliError`].
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Generate {
            scale,
            seed,
            out,
            labels_out,
        } => generate(&scale, seed, &out, labels_out.as_deref()),
        Command::Stats { graph } => stats(&graph),
        Command::Query {
            graph,
            labels,
            queries,
            query_type,
            budget,
            alpha,
            dot,
            json,
            push,
            threads,
            precision,
            profile,
            profile_out,
        } => query(
            &graph,
            labels.as_deref(),
            &queries,
            QueryOptions {
                query_type,
                budget,
                alpha,
                dot,
                json,
                push,
                threads,
                precision,
                profile,
                profile_out,
            },
        ),
        Command::Partition {
            graph,
            parts,
            seed,
            out,
        } => partition(&graph, parts, seed, &out),
        Command::AutoK {
            graph,
            labels,
            queries,
            alpha,
            threads,
        } => autok(&graph, labels.as_deref(), &queries, alpha, threads),
        Command::Serve {
            graph,
            requests,
            queries_per,
            workers,
            repeat,
            budget,
            alpha,
            cache_mb,
            coalesce_us,
            coalesce_batch,
            warm_frac,
            seed,
            threads,
            precision,
            json,
            profile,
            profile_out,
            metrics_out,
            metrics_interval_ms,
            trace_out,
            trace_sample,
            listen,
            flight_out,
        } => serve(
            &graph,
            ServeOptions {
                requests,
                queries_per,
                workers,
                repeat,
                budget,
                alpha,
                cache_mb,
                coalesce_us,
                coalesce_batch,
                warm_frac,
                seed,
                threads,
                precision,
                json,
                profile,
                profile_out,
                metrics_out,
                metrics_interval_ms,
                trace_out,
                trace_sample,
                listen,
                flight_out,
            },
        ),
        Command::Client {
            connect,
            action,
            json,
            timeout_ms,
            trace_out,
        } => client(&connect, action, json, timeout_ms, trace_out.as_deref()),
        Command::Loadgen {
            connect,
            rps,
            duration_s,
            warmup_s,
            arrival,
            connections,
            queries_per,
            node_space,
            repeat,
            mix,
            pool_size,
            seed,
            slo_p99_ms,
            max_error_rate,
            search,
            json,
            out,
        } => loadgen(
            &connect,
            LoadgenOptions {
                cfg: ceps_load::LoadConfig {
                    rps,
                    duration_s,
                    warmup_s,
                    arrival,
                    connections,
                    queries_per,
                    node_space,
                    repeat,
                    mix,
                    pool_size,
                    seed,
                },
                slo: ceps_load::SloSpec {
                    p99_ms: slo_p99_ms,
                    max_error_rate,
                },
                search,
                json,
                out,
            },
        ),
        Command::Import {
            pairs,
            out,
            labels_out,
        } => import(&pairs, &out, &labels_out),
    }
}

fn load_graph(path: &Path) -> Result<CsrGraph, CliError> {
    let file = fs::File::open(path)
        .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    Ok(gio::read_edge_list(BufReader::new(file))?)
}

fn load_labels(path: &Path) -> Result<NodeLabels, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    Ok(NodeLabels::from_names(text.lines().map(str::to_string)))
}

fn generate(
    scale: &str,
    seed: u64,
    out: &Path,
    labels_out: Option<&Path>,
) -> Result<String, CliError> {
    let cfg = match scale {
        "tiny" => ceps_datagen::CoauthorConfig::tiny(),
        "small" => ceps_datagen::CoauthorConfig::small(),
        "medium" => ceps_datagen::CoauthorConfig::medium(),
        "large" => ceps_datagen::CoauthorConfig::large(),
        other => return Err(CliError(format!("unknown scale {other:?}"))),
    };
    let data = cfg.seed(seed).generate();
    let mut buf = Vec::new();
    gio::write_edge_list(&data.graph, &mut buf)?;
    fs::write(out, buf)?;
    let mut msg = format!(
        "wrote {} ({} nodes, {} edges, seed {seed})\n",
        out.display(),
        data.graph.node_count(),
        data.graph.edge_count()
    );
    if let Some(lpath) = labels_out {
        let names: Vec<String> = (0..data.graph.node_count())
            .map(|i| data.labels.name(NodeId::from_index(i)))
            .collect();
        fs::write(lpath, names.join("\n") + "\n")?;
        msg.push_str(&format!("wrote {}\n", lpath.display()));
    }
    Ok(msg)
}

fn stats(path: &Path) -> Result<String, CliError> {
    let g = load_graph(path)?;
    let comp = ceps_graph::algo::connected_components(&g);
    let giant = comp.sizes().into_iter().max().unwrap_or(0);
    let s = ceps_graph::stats::graph_stats(&g);
    let mut out = format!(
        "nodes: {}\nedges: {}\ntotal weight: {}\nmean degree: {:.2} (max {})\n\
         mean weighted degree: {:.2} (max {})\ndegree gini: {:.3}\nclustering: {:.3}\n\
         components: {} (largest {})\ndegree histogram (log buckets):\n",
        s.nodes,
        s.edges,
        s.total_weight,
        s.mean_degree,
        s.max_degree,
        s.mean_weighted_degree,
        s.max_weighted_degree,
        s.degree_gini,
        s.clustering,
        comp.count,
        giant,
    );
    for (bucket, count) in ceps_graph::stats::log_degree_histogram(&g) {
        out.push_str(&format!("  deg >= {bucket:>5}: {count}\n"));
    }
    Ok(out)
}

fn resolve_queries(
    spec: &str,
    labels: Option<&NodeLabels>,
    graph: &CsrGraph,
) -> Result<Vec<NodeId>, CliError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let id = if let Some(labels) = labels {
            labels
                .id(part)
                .or_else(|| part.parse::<u32>().ok().map(NodeId))
                .ok_or_else(|| CliError(format!("unknown author {part:?}")))?
        } else {
            NodeId(part.parse::<u32>().map_err(|_| {
                CliError(format!(
                    "query {part:?} is not a node id (supply --labels for names)"
                ))
            })?)
        };
        graph.check_node(id)?;
        out.push(id);
    }
    if out.is_empty() {
        return Err(CliError("no query nodes supplied".into()));
    }
    Ok(out)
}

/// Options of the `query` subcommand, bundled to keep the signature sane.
struct QueryOptions {
    query_type: QueryType,
    budget: usize,
    alpha: f64,
    dot: Option<std::path::PathBuf>,
    json: bool,
    push: Option<f64>,
    threads: usize,
    precision: ceps_graph::Precision,
    profile: bool,
    profile_out: Option<std::path::PathBuf>,
}

/// Default snapshot path for `--profile` without `--profile-out`.
const DEFAULT_PROFILE_OUT: &str = "results/OBS_profile.json";

/// Serializes the current `ceps-obs` snapshot (schema `ceps-obs/v1`) to
/// `path` (or [`DEFAULT_PROFILE_OUT`]), creating parent directories.
fn write_profile(path: Option<&Path>, label: &str) -> Result<std::path::PathBuf, CliError> {
    let path = path.map_or_else(
        || std::path::PathBuf::from(DEFAULT_PROFILE_OUT),
        Path::to_path_buf,
    );
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let meta = ceps_obs::RunMeta::collect("cli", label);
    fs::write(&path, ceps_obs::snapshot().to_json(&meta))?;
    Ok(path)
}

fn query(
    graph_path: &Path,
    labels_path: Option<&Path>,
    queries: &str,
    opts: QueryOptions,
) -> Result<String, CliError> {
    let QueryOptions {
        query_type,
        budget,
        alpha,
        dot,
        json,
        push,
        threads,
        precision,
        profile,
        profile_out,
    } = opts;
    let dot = dot.as_deref();
    let graph = load_graph(graph_path)?;
    let labels = labels_path.map(load_labels).transpose()?;
    let query_nodes = resolve_queries(queries, labels.as_ref(), &graph)?;

    let mut cfg = CepsConfig::default()
        .budget(budget)
        .query_type(query_type)
        .alpha(alpha)
        .threads(threads)
        .precision(precision);
    if let Some(epsilon) = push {
        cfg = cfg.push_scores(epsilon);
    }
    let engine = CepsEngine::new(&graph, cfg)?;
    if profile {
        ceps_obs::install_recorder();
        ceps_obs::reset();
    }
    let started = std::time::Instant::now();
    let run_out = {
        let _root = ceps_obs::span("query");
        engine.run_timed(&query_nodes)
    };
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let (result, stages) = run_out?;
    let nratio = eval::node_ratio(&result.combined, &result.subgraph);

    if let Some(dot_path) = dot {
        let dot_text = ceps_viz::result_to_dot(
            &graph,
            &result,
            &query_nodes,
            labels.as_ref(),
            &ceps_viz::DotStyle::default(),
        );
        fs::write(dot_path, dot_text)?;
    }

    let name = |v: NodeId| {
        labels
            .as_ref()
            .map(|l| l.name(v))
            .unwrap_or_else(|| v.to_string())
    };

    if json {
        let members: Vec<_> = result
            .subgraph
            .nodes()
            .map(|v| {
                serde_json::json!({
                    "id": v.0,
                    "name": name(v),
                    "score": result.combined[v.index()],
                    "is_query": query_nodes.contains(&v),
                })
            })
            .collect();
        let paths: Vec<_> = result
            .paths
            .iter()
            .map(|p| {
                serde_json::json!({
                    "source_index": p.source_index,
                    "nodes": p.nodes.iter().map(|v| v.0).collect::<Vec<_>>(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "query_type": query_type.to_string(),
            "budget": budget,
            "alpha": alpha,
            "k": result.k,
            "nratio": nratio,
            "total_ms": total_ms,
            "stage_ms": serde_json::json!({
                "scores": stages.scores_ms,
                "combine": stages.combine_ms,
                "extract": stages.extract_ms,
            }),
            "subgraph": members,
            "paths": paths,
        });
        if profile {
            // Stdout stays pure JSON; the snapshot goes to the file only.
            write_profile(profile_out.as_deref(), "query")?;
        }
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).map_err(|e| CliError(format!("json error: {e}")))?
        ));
    }

    let mut out = format!(
        "{} query over {} nodes, budget {budget}, alpha {alpha}\n\
         subgraph: {} nodes, NRatio {:.4}\n",
        query_type,
        graph.node_count(),
        result.subgraph.len(),
        nratio,
    );
    let mut members: Vec<NodeId> = result.subgraph.nodes().collect();
    members.sort_by(|a, b| result.combined[b.index()].total_cmp(&result.combined[a.index()]));
    for v in members {
        let marker = if query_nodes.contains(&v) {
            " (query)"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<24} {:.4e}{marker}\n",
            name(v),
            result.combined[v.index()]
        ));
    }
    out.push_str("\nwhy (discovery order):\n");
    out.push_str(&ceps_core::explain::render(&result, labels.as_ref()));
    if profile {
        out.push_str(&format!(
            "\nprofile: end-to-end {total_ms:.3} ms \
             (scores {:.3} + combine {:.3} + extract {:.3} = {:.3} ms)\n",
            stages.scores_ms,
            stages.combine_ms,
            stages.extract_ms,
            stages.total_ms(),
        ));
        out.push_str(&ceps_obs::snapshot().render_tree());
        let written = write_profile(profile_out.as_deref(), "query")?;
        out.push_str(&format!("profile written to {}\n", written.display()));
    }
    Ok(out)
}

fn autok(
    graph_path: &Path,
    labels_path: Option<&Path>,
    queries: &str,
    alpha: f64,
    threads: usize,
) -> Result<String, CliError> {
    let graph = load_graph(graph_path)?;
    let labels = labels_path.map(load_labels).transpose()?;
    let query_nodes = resolve_queries(queries, labels.as_ref(), &graph)?;

    let cfg = CepsConfig::default().alpha(alpha).threads(threads);
    let engine = CepsEngine::new(&graph, cfg)?;
    let inference = ceps_core::infer_soft_and_k(&engine, &query_nodes)?;

    let mut out = format!(
        "inferred K_softAND coefficient: k = {} (of Q = {})\n",
        inference.k,
        query_nodes.len()
    );
    if !inference.mean_ranks.is_empty() {
        out.push_str("mean held-out retrieval rank per candidate k' (lower = better):\n");
        for (i, r) in inference.mean_ranks.iter().enumerate() {
            out.push_str(&format!("  k' = {}: {r:.2}\n", i + 1));
        }
    }
    out.push_str(&format!(
        "suggested invocation: ceps query ... --type softand:{}\n",
        inference.k
    ));
    Ok(out)
}

/// Options of the `serve` subcommand.
struct ServeOptions {
    requests: usize,
    queries_per: usize,
    workers: usize,
    repeat: f64,
    budget: usize,
    alpha: f64,
    cache_mb: usize,
    coalesce_us: u64,
    coalesce_batch: usize,
    warm_frac: f64,
    seed: u64,
    threads: usize,
    precision: ceps_graph::Precision,
    json: bool,
    profile: bool,
    profile_out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    metrics_interval_ms: u64,
    trace_out: Option<std::path::PathBuf>,
    trace_sample: f64,
    listen: Option<String>,
    flight_out: Option<std::path::PathBuf>,
}

/// The `ceps-metrics/v1` event stream lives next to the Prometheus file:
/// same stem, `.jsonl` extension (`.events.jsonl` if the metrics path
/// itself ends in `.jsonl`, so the two sinks never collide).
fn metrics_events_path(prom: &Path) -> std::path::PathBuf {
    if prom.extension().is_some_and(|e| e == "jsonl") {
        prom.with_extension("events.jsonl")
    } else {
        prom.with_extension("jsonl")
    }
}

/// Builds a repository-style query stream: each query node comes from a
/// small pool of hub (highest-degree) nodes with probability `repeat`, and
/// uniformly from the whole graph otherwise. Nodes within a request are
/// distinct.
fn synthetic_stream(
    graph: &CsrGraph,
    requests: usize,
    queries_per: usize,
    repeat: f64,
    seed: u64,
) -> Vec<Vec<NodeId>> {
    let n = graph.node_count() as u64;
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by(|&a, &b| {
        graph
            .degree(b)
            .total_cmp(&graph.degree(a))
            .then(a.0.cmp(&b.0))
    });
    let pool: Vec<NodeId> = by_degree
        .into_iter()
        .take(32.min(graph.node_count()))
        .collect();

    let mut state = seed ^ 0xceb5_0000;
    let mut stream = Vec::with_capacity(requests);
    for _ in 0..requests {
        let mut set: Vec<NodeId> = Vec::with_capacity(queries_per);
        while set.len() < queries_per.min(graph.node_count()) {
            let roll = splitmix64(&mut state) as f64 / u64::MAX as f64;
            let candidate = if roll < repeat {
                pool[(splitmix64(&mut state) % pool.len() as u64) as usize]
            } else {
                NodeId((splitmix64(&mut state) % n) as u32)
            };
            if !set.contains(&candidate) {
                set.push(candidate);
            }
        }
        stream.push(set);
    }
    stream
}

fn serve(graph_path: &Path, opts: ServeOptions) -> Result<String, CliError> {
    let graph = load_graph(graph_path)?;
    let cfg = CepsConfig::default()
        .budget(opts.budget)
        .alpha(opts.alpha)
        .threads(opts.threads)
        .precision(opts.precision);
    let engine = CepsEngine::new(graph, cfg)?;
    let mut builder = CepsServiceBuilder::new()
        .cache_bytes(opts.cache_mb << 20)
        .workers(opts.workers);
    if opts.coalesce_us > 0 {
        builder = builder.coalesce(ceps_core::CoalesceConfig {
            window_us: opts.coalesce_us,
            max_batch: opts.coalesce_batch,
        });
    }
    let service = builder.build(engine);
    // --profile and --metrics-out need the registry live, and --flight-out
    // feeds on span events under --listen. Install (and reset) before
    // warming so the startup `serve.warm.*` counters land in the export
    // instead of being wiped by a later reset.
    if opts.profile || opts.metrics_out.is_some() || opts.flight_out.is_some() {
        ceps_obs::install_recorder();
        ceps_obs::reset();
    }
    if opts.warm_frac > 0.0 {
        // Startup warming: pre-solve the top-degree rows into the cache,
        // up to --warm-frac of the cache byte budget.
        let budget = ((opts.cache_mb << 20) as f64 * opts.warm_frac) as usize;
        let rows = service.warm(budget)?;
        eprintln!("ceps: warmed {rows} cache rows (degree-weighted, budget {budget} bytes)");
    }

    if let Some(addr) = &opts.listen {
        return serve_listen(service, addr, &opts);
    }

    let stream = synthetic_stream(
        service.engine().graph(),
        opts.requests,
        opts.queries_per,
        opts.repeat,
        opts.seed,
    );
    let exporter = opts
        .metrics_out
        .as_ref()
        .map(|prom| {
            let cfg = ceps_obs::ExporterConfig::new(opts.metrics_interval_ms)
                .prom(prom.clone())
                .events(metrics_events_path(prom));
            ceps_obs::MetricsExporter::start(cfg)
                .map_err(|e| CliError(format!("cannot start metrics exporter: {e}")))
        })
        .transpose()?;
    let tracer = opts
        .trace_out
        .as_ref()
        .map(|path| {
            ceps_core::RequestTracer::to_file(path, opts.trace_sample)
                .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))
        })
        .transpose()?;

    let served = service.serve_stream(&stream, opts.workers, tracer.as_ref());
    // Stop the exporter before reporting (even on error): the drop performs
    // one final flush, so the .prom file matches the final registry state.
    drop(exporter);
    let outcome = served?;
    let mean_stages = outcome.mean_stage_ms();
    let health = service.serve_health();

    if opts.json {
        let latency = serde_json::json!({
            "p50": outcome.latency_percentile_ms(50.0),
            "p95": outcome.latency_percentile_ms(95.0),
            "p99": outcome.latency_percentile_ms(99.0),
        });
        let doc = serde_json::json!({
            "requests": outcome.completed,
            "workers": outcome.workers,
            "repeat_rate": opts.repeat,
            "cache_mb": opts.cache_mb,
            "wall_ms": outcome.wall_ms,
            "throughput_qps": outcome.throughput_qps(),
            "hit_rate": outcome.hit_rate(),
            "cache_fill": health.fill_ratio(),
            "warm_rows": health.warm_rows,
            "singleflight_waits": health.singleflight_waits,
            "coalesce": serde_json::json!({
                "batches": health.coalesce_batches,
                "rows": health.coalesce_rows,
                "coalesced": health.coalesced,
            }),
            "latency_ms": latency,
            "mean_stage_ms": serde_json::json!({
                "scores": mean_stages.scores_ms,
                "combine": mean_stages.combine_ms,
                "extract": mean_stages.extract_ms,
            }),
        });
        if opts.profile {
            write_profile(opts.profile_out.as_deref(), "serve")?;
        }
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).map_err(|e| CliError(format!("json error: {e}")))?
        ));
    }

    let mut out = format!(
        "served {} requests on {} workers in {:.1} ms ({:.1} q/s)\n\
         latency p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms\n",
        outcome.completed,
        outcome.workers,
        outcome.wall_ms,
        outcome.throughput_qps(),
        outcome.latency_percentile_ms(50.0),
        outcome.latency_percentile_ms(95.0),
        outcome.latency_percentile_ms(99.0),
    );
    match outcome.cache {
        Some(stats) => {
            // hit_rate is None until the cache saw at least one lookup.
            let rate = outcome
                .hit_rate()
                .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", 100.0 * r));
            out.push_str(&format!(
                "cache: {rate} hits ({} hits / {} misses, {} evictions, budget {} MiB)\n",
                stats.hits, stats.misses, stats.evictions, opts.cache_mb,
            ));
            out.push_str(&format!(
                "cache fill {:.1}% ({} rows, {} warmed); single-flight waits {}; \
                 coalesced {} of {} rows in {} batches\n",
                100.0 * health.fill_ratio(),
                health.cache_rows,
                health.warm_rows,
                health.singleflight_waits,
                health.coalesced,
                health.coalesce_rows,
                health.coalesce_batches,
            ));
        }
        None => out.push_str("cache: disabled\n"),
    }
    out.push_str(&format!(
        "mean stage time per request: scores {:.3} ms, combine {:.3} ms, extract {:.3} ms\n",
        mean_stages.scores_ms, mean_stages.combine_ms, mean_stages.extract_ms,
    ));
    if let Some(prom) = &opts.metrics_out {
        out.push_str(&format!(
            "metrics written to {} (events: {})\n",
            prom.display(),
            metrics_events_path(prom).display(),
        ));
    }
    if let (Some(path), Some(tracer)) = (&opts.trace_out, &tracer) {
        out.push_str(&format!(
            "traces written to {} ({} lines, head rate {})\n",
            path.display(),
            tracer.written(),
            tracer.sample_rate(),
        ));
    }
    if opts.profile {
        out.push('\n');
        out.push_str(&ceps_obs::snapshot().render_tree());
        let written = write_profile(opts.profile_out.as_deref(), "serve")?;
        out.push_str(&format!("profile written to {}\n", written.display()));
    }
    Ok(out)
}

/// `serve --listen`: run a long-lived `ceps-wire/v1` server over the
/// built service instead of replaying a synthetic stream. Blocks until a
/// wire `Shutdown` frame drains the server, then reports final counters.
fn serve_listen(
    service: ceps_core::CepsService,
    addr: &str,
    opts: &ServeOptions,
) -> Result<String, CliError> {
    // The flight recorder feeds on span enter/exit events, which only
    // fire while the registry recorder is installed — `serve()` already
    // turned it on (before warming) when --flight-out asked for it.
    if let Some(path) = &opts.flight_out {
        // The ring must survive a crash: the panic hook writes it to the
        // same path even when the drain path below is never reached.
        ceps_obs::flight_enable(ceps_obs::DEFAULT_FLIGHT_CAPACITY);
        ceps_obs::install_flight_panic_hook(path.clone());
    }
    let exporter = opts
        .metrics_out
        .as_ref()
        .map(|prom| {
            let cfg = ceps_obs::ExporterConfig::new(opts.metrics_interval_ms)
                .prom(prom.clone())
                .events(metrics_events_path(prom));
            ceps_obs::MetricsExporter::start(cfg)
                .map_err(|e| CliError(format!("cannot start metrics exporter: {e}")))
        })
        .transpose()?;
    let tracer = opts
        .trace_out
        .as_ref()
        .map(|path| {
            ceps_core::RequestTracer::to_file(path, opts.trace_sample)
                .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))
        })
        .transpose()?;

    let listen = ceps_net::ListenAddr::parse(addr);
    let mut transport = listen
        .bind()
        .map_err(|e| CliError(format!("cannot bind {listen}: {e}")))?;
    let mut server = ceps_net::CepsServer::new(
        service,
        ceps_net::ServerConfig {
            workers: opts.workers,
            ..ceps_net::ServerConfig::default()
        },
    );
    if let Some(tracer) = tracer {
        server = server.with_tracer(tracer);
    }
    // Readiness goes to stderr eagerly (execute() output prints only on
    // exit, and with --json stdout must stay pure JSON).
    eprintln!(
        "ceps: serving {} on {} ({} workers; stop with `ceps client --connect {addr} --shutdown`)",
        ceps_net::WIRE_VERSION,
        transport.addr(),
        opts.workers,
    );
    let stats = server
        .serve(transport.as_mut())
        .map_err(|e| CliError(format!("server failed: {e}")))?;
    // Final exporter flush happens on drop, after the last frame counted.
    drop(exporter);
    if let Some(path) = &opts.flight_out {
        ceps_obs::flight_dump_to(path)
            .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
    }

    let cache = server.service().cache_stats();
    if opts.json {
        let doc = serde_json::json!({
            "listen": transport.addr(),
            "server": stats,
            "cache": cache.map(|c| {
                serde_json::json!({
                    "hits": c.hits,
                    "misses": c.misses,
                    "evictions": c.evictions,
                })
            }),
            "traces_written": server.tracer().map(ceps_core::RequestTracer::written),
            "flight_out": opts.flight_out.as_ref().map(|p| p.display().to_string()),
        });
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).map_err(|e| CliError(format!("json error: {e}")))?
        ));
    }
    let mut out = format!(
        "server drained after {:.1} s on {}\n{}",
        stats.uptime_ms as f64 / 1e3,
        transport.addr(),
        render_server_health(&stats),
    );
    if let Some(prom) = &opts.metrics_out {
        out.push_str(&format!(
            "metrics written to {} (events: {})\n",
            prom.display(),
            metrics_events_path(prom).display(),
        ));
    }
    if let (Some(path), Some(tracer)) = (&opts.trace_out, server.tracer()) {
        out.push_str(&format!(
            "traces written to {} ({} lines, head rate {})\n",
            path.display(),
            tracer.written(),
            tracer.sample_rate(),
        ));
    }
    if let Some(path) = &opts.flight_out {
        out.push_str(&format!("flight ring written to {}\n", path.display()));
    }
    Ok(out)
}

/// Renders the health core of a [`ceps_net::ServerStats`] — counters,
/// windowed latency and queue-delay percentiles, cache — one helper for
/// both the `serve --listen` drain summary and `client --stats`, so the
/// two text surfaces cannot drift. (Server-side, both snapshots already
/// come out of the single `CepsServer::stats` path; a test there pins
/// the equality.)
fn render_server_health(stats: &ceps_net::ServerStats) -> String {
    format!(
        "{} connections, {} frames, {} queries ({} in flight), {} sheds, {} errors\n\
         windowed latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms \
         (queue p50 {:.2} ms, p99 {:.2} ms)\n{}",
        stats.connections,
        stats.frames,
        stats.queries,
        stats.in_flight,
        stats.sheds,
        stats.errors,
        stats.p50_ms,
        stats.p90_ms,
        stats.p99_ms,
        stats.queue_p50_ms,
        stats.queue_p99_ms,
        stats.cache.as_ref().map_or(String::new(), |c| format!(
            "cache: {} hits / {} misses, {} evictions; fill {:.1}% ({} rows, {} warmed)\n\
             single-flight waits {}; coalesced {} rows in {} batches\n",
            c.hits,
            c.misses,
            c.evictions,
            100.0 * stats.cache_fill,
            stats.cache_rows,
            stats.warm_rows,
            stats.singleflight_waits,
            stats.coalesced,
            stats.coalesce_batches,
        )),
    )
}

/// Parses the client's comma-separated node ids (names need labels,
/// which live server-side; the wire speaks ids only).
fn parse_wire_queries(spec: &str) -> Result<Vec<NodeId>, CliError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(NodeId(part.parse::<u32>().map_err(|_| {
            CliError(format!("query {part:?} is not a node id"))
        })?));
    }
    if out.is_empty() {
        return Err(CliError("no query nodes supplied".into()));
    }
    Ok(out)
}

/// Renders a wire `Scores` reply for humans.
fn render_serve_reply(reply: &ceps_core::ServeReply) -> String {
    let mut out = format!(
        "k = {}, subgraph of {} nodes\n",
        reply.k,
        reply.members.len()
    );
    for m in &reply.members {
        let marker = if m.is_query { " (query)" } else { "" };
        out.push_str(&format!("  {:<8} {:.4e}{marker}\n", m.id.0, m.score));
    }
    if !reply.paths.is_empty() {
        out.push_str(&format!("{} extraction paths\n", reply.paths.len()));
    }
    out
}

/// How many stdin-batch requests may be in flight on the stream at once.
const CLIENT_PIPELINE_WINDOW: usize = 4;

/// `ceps client` — one-shot or stdin-batch requests against a running
/// `serve --listen` server.
fn client(
    connect: &str,
    action: ClientAction,
    json: bool,
    timeout_ms: u64,
    trace_out: Option<&Path>,
) -> Result<String, CliError> {
    let mut c = ceps_net::CepsClient::connect(connect)
        .map_err(|e| CliError(format!("cannot connect to {connect}: {e}")))?;
    if timeout_ms > 0 {
        c.set_timeout(Some(std::time::Duration::from_millis(timeout_ms)))?;
    }
    if let Some(path) = trace_out {
        let file = fs::File::create(path)
            .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
        c = c.with_trace_sink(Box::new(file));
    }
    match action {
        ClientAction::Ping => {
            let proto = c.ping()?;
            Ok(if json {
                format!(
                    "{}\n",
                    serde_json::json!({ "proto": proto }).to_json_string()
                )
            } else {
                format!("server alive ({proto})\n")
            })
        }
        ClientAction::Stats => {
            let stats = c.stats()?;
            Ok(if json {
                format!(
                    "{}\n",
                    serde_json::to_string_pretty(&stats)
                        .map_err(|e| CliError(format!("json error: {e}")))?
                )
            } else {
                format!(
                    "{} up {:.1} s\n{}",
                    stats.proto,
                    stats.uptime_ms as f64 / 1e3,
                    render_server_health(&stats),
                )
            })
        }
        ClientAction::DumpFlight => {
            let dump = c.dump_flight()?;
            // The dump is already machine-readable ceps-flight/v1 JSONL;
            // --json returns it verbatim, text mode adds a summary line.
            Ok(if json {
                dump
            } else if dump.is_empty() {
                "flight ring empty (recorder off, or no events yet)\n".to_string()
            } else {
                let events = dump.lines().count();
                format!("{dump}flight ring: {events} events\n")
            })
        }
        ClientAction::Shutdown => {
            c.shutdown()?;
            Ok(if json {
                format!(
                    "{}\n",
                    serde_json::json!({ "shutdown": true }).to_json_string()
                )
            } else {
                "server drained\n".to_string()
            })
        }
        ClientAction::AutoK(spec) => {
            let queries = parse_wire_queries(&spec)?;
            let q = queries.len();
            let inference = c.autok(queries)?;
            Ok(if json {
                format!(
                    "{}\n",
                    serde_json::json!({
                        "k": inference.k,
                        "mean_ranks": inference.mean_ranks,
                    })
                    .to_json_string_pretty()
                )
            } else {
                format!(
                    "inferred K_softAND coefficient: k = {} (of Q = {q})\n",
                    inference.k
                )
            })
        }
        ClientAction::Query(spec) => {
            let reply = c.request(&ServeRequest::new(parse_wire_queries(&spec)?))?;
            Ok(if json {
                format!(
                    "{}\n",
                    serde_json::to_string_pretty(&reply)
                        .map_err(|e| CliError(format!("json error: {e}")))?
                )
            } else {
                let mut out = render_serve_reply(&reply);
                if let Some(path) = trace_out {
                    out.push_str(&format!(
                        "client traces written to {} ({} lines)\n",
                        path.display(),
                        c.traces_written(),
                    ));
                }
                out
            })
        }
        ClientAction::Stdin => {
            use std::io::BufRead;
            let mut sets = Vec::new();
            for line in std::io::stdin().lock().lines() {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                sets.push(parse_wire_queries(trimmed)?);
            }
            let mut out = client_batch(&mut c, &sets, json)?;
            if let (Some(path), false) = (trace_out, json) {
                out.push_str(&format!(
                    "client traces written to {} ({} lines)\n",
                    path.display(),
                    c.traces_written(),
                ));
            }
            Ok(out)
        }
    }
}

/// Pipelines `sets` through one connection, a bounded window of requests
/// in flight, and renders one line per reply (JSONL with `--json`).
fn client_batch(
    c: &mut ceps_net::CepsClient,
    sets: &[Vec<NodeId>],
    json: bool,
) -> Result<String, CliError> {
    let mut out = String::new();
    let mut pending = std::collections::VecDeque::new();
    let (mut sent, mut done, mut ok, mut failed) = (0usize, 0usize, 0usize, 0usize);
    while done < sets.len() {
        while sent < sets.len() && pending.len() < CLIENT_PIPELINE_WINDOW {
            pending.push_back(c.send_request(&ServeRequest::new(sets[sent].clone()))?);
            sent += 1;
        }
        let expect = pending.pop_front().expect("done < sent implies pending");
        match c.recv_reply()? {
            ceps_net::Reply::Scores { id, reply } if id == expect => {
                ok += 1;
                if json {
                    out.push_str(
                        &serde_json::to_string(&reply)
                            .map_err(|e| CliError(format!("json error: {e}")))?,
                    );
                    out.push('\n');
                } else {
                    let top = reply
                        .members
                        .iter()
                        .find(|m| !m.is_query)
                        .or_else(|| reply.members.first());
                    let top = top.map_or_else(
                        || "none".to_string(),
                        |m| format!("{} ({:.4e})", m.id.0, m.score),
                    );
                    out.push_str(&format!(
                        "[{done}] k={} members={} center={top}\n",
                        reply.k,
                        reply.members.len(),
                    ));
                }
            }
            ceps_net::Reply::Error { error, .. } => {
                failed += 1;
                out.push_str(&format!(
                    "[{done}] error ({:?}): {}\n",
                    error.kind, error.message
                ));
            }
            other => {
                return Err(CliError(format!(
                    "unexpected reply {other:?} for request id {expect}"
                )))
            }
        }
        done += 1;
    }
    if !json {
        out.push_str(&format!(
            "{ok} ok, {failed} failed of {} query sets\n",
            sets.len()
        ));
    }
    Ok(out)
}

fn import(pairs: &Path, out: &Path, labels_out: &Path) -> Result<String, CliError> {
    let file = fs::File::open(pairs)
        .map_err(|e| CliError(format!("cannot open {}: {e}", pairs.display())))?;
    let data = ceps_datagen::read_coauthor_pairs(BufReader::new(file))?;
    let mut buf = Vec::new();
    gio::write_edge_list(&data.graph, &mut buf)?;
    fs::write(out, buf)?;
    let names: Vec<String> = (0..data.graph.node_count())
        .map(|i| data.labels.name(NodeId::from_index(i)))
        .collect();
    fs::write(labels_out, names.join("\n") + "\n")?;
    Ok(format!(
        "imported {} authors, {} edges -> {} + {}\n",
        data.graph.node_count(),
        data.graph.edge_count(),
        out.display(),
        labels_out.display(),
    ))
}

fn partition(graph_path: &Path, parts: usize, seed: u64, out: &Path) -> Result<String, CliError> {
    let graph = load_graph(graph_path)?;
    let cfg = PartitionConfig {
        seed,
        ..PartitionConfig::with_parts(parts)
    };
    let p = partition_graph(&graph, &cfg)?;
    let mut text = String::new();
    for v in graph.nodes() {
        text.push_str(&format!("{} {}\n", v.0, p.part_of(v)));
    }
    fs::write(out, text)?;
    Ok(format!(
        "wrote {} ({} parts, edge cut {:.1}, balance {:.3})\n",
        out.display(),
        parts,
        p.edge_cut(&graph),
        p.balance(),
    ))
}

/// Everything `ceps loadgen` needs beyond the server address.
struct LoadgenOptions {
    cfg: ceps_load::LoadConfig,
    slo: ceps_load::SloSpec,
    search: bool,
    json: bool,
    out: Option<std::path::PathBuf>,
}

/// Hand-rolled JSON for a capacity curve (`ceps-load-curve/v1`): the
/// probes sorted by offered rate, each with its full `ceps-load/v1`
/// report, plus the SLO and the detected knee.
fn curve_json(curve: &ceps_load::CapacityCurve, slo: &ceps_load::SloSpec) -> String {
    let points: Vec<String> = curve
        .sorted_points()
        .iter()
        .map(|p| {
            format!(
                "{{\"offered_rps\": {}, \"slo_met\": {}, \"report\": {}}}",
                p.offered_rps,
                p.slo_met,
                p.report.to_json()
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"ceps-load-curve/v1\", \
         \"slo\": {{\"p99_ms\": {}, \"max_error_rate\": {}}}, \
         \"knee_rps\": {}, \"points\": [{}]}}",
        slo.p99_ms,
        slo.max_error_rate,
        curve.knee_rps.map_or("null".to_string(), |k| k.to_string()),
        points.join(", "),
    )
}

/// `ceps loadgen` — a single fixed-rate open-loop run, or (with
/// `--search`) a capacity search for the highest offered rate meeting
/// the SLO.
fn loadgen(connect: &str, opts: LoadgenOptions) -> Result<String, CliError> {
    let connect_err = |e: std::io::Error| CliError(format!("cannot connect to {connect}: {e}"));
    if opts.search {
        let factory = || ceps_net::CepsClient::connect(connect);
        let curve = ceps_load::capacity_search(
            &opts.cfg,
            &opts.slo,
            &ceps_load::SearchConfig {
                start_rps: opts.cfg.rps,
                ..ceps_load::SearchConfig::default()
            },
            &factory,
            // Progress goes to stderr eagerly; stdout stays reserved for
            // the final report (pure JSON under --json).
            |p| {
                eprintln!(
                    "ceps loadgen: probed {:.1} rps -> p99 {:.2} ms, {} ({})",
                    p.offered_rps,
                    p.report.measure.p99_ms,
                    if p.slo_met { "slo met" } else { "slo violated" },
                    p.report.measure.count,
                )
            },
        )
        .map_err(connect_err)?;
        let json = curve_json(&curve, &opts.slo);
        if let Some(path) = &opts.out {
            fs::write(path, format!("{json}\n"))
                .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        }
        if opts.json {
            return Ok(format!("{json}\n"));
        }
        let mut out = format!(
            "capacity search: {} probes against {connect}, SLO p99 <= {} ms, \
             shed/error rate <= {}\n",
            curve.points.len(),
            opts.slo.p99_ms,
            opts.slo.max_error_rate,
        );
        out.push_str(&format!(
            "  {:>10}  {:>10}  {:>9}  {:>7}  slo\n",
            "offered", "achieved", "p99(ms)", "err%"
        ));
        for p in curve.sorted_points() {
            out.push_str(&format!(
                "  {:>10.1}  {:>10.1}  {:>9.2}  {:>7.2}  {}\n",
                p.offered_rps,
                p.report.achieved_rps,
                p.report.measure.p99_ms,
                100.0 * p.report.measure.error_rate(),
                if p.slo_met { "met" } else { "VIOLATED" },
            ));
        }
        out.push_str(&match curve.knee_rps {
            Some(knee) => format!("knee: {knee:.1} rps (max sustainable load meeting the SLO)\n"),
            None => "knee: none — even the starting rate violated the SLO\n".to_string(),
        });
        if let Some(path) = &opts.out {
            out.push_str(&format!("curve written to {}\n", path.display()));
        }
        Ok(out)
    } else {
        let report = ceps_load::run(&opts.cfg, connect).map_err(connect_err)?;
        let met = opts.slo.met_by(&report);
        if let Some(path) = &opts.out {
            fs::write(path, format!("{}\n", report.to_json()))
                .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        }
        if opts.json {
            return Ok(format!("{}\n", report.to_json()));
        }
        let mut out = report.render();
        out.push_str(&format!(
            "slo (p99 <= {} ms, shed/error rate <= {}): {}\n",
            opts.slo.p99_ms,
            opts.slo.max_error_rate,
            if met { "met" } else { "VIOLATED" },
        ));
        if let Some(path) = &opts.out {
            out.push_str(&format!("report written to {}\n", path.display()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory of the test's own (`tag` names it), so tests
    /// running in parallel never rewrite a file another one is reading.
    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ceps_cli_tests")
            .join(format!("{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Serializes tests that install/uninstall the global `ceps-obs`
    /// recorder or serve requests (every served request feeds the
    /// `serve.*` counters), so no test resets or inflates another's.
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn generated(dir: &Path) -> (PathBuf, PathBuf) {
        let g = dir.join("g.txt");
        let l = dir.join("l.txt");
        let msg = execute(Command::Generate {
            scale: "tiny".into(),
            seed: 3,
            out: g.clone(),
            labels_out: Some(l.clone()),
        })
        .unwrap();
        assert!(msg.contains("100 nodes"));
        (g, l)
    }

    #[test]
    fn generate_then_stats() {
        let dir = test_dir("stats");
        let (g, _) = generated(&dir);
        let out = execute(Command::Stats { graph: g }).unwrap();
        assert!(out.contains("nodes: 100"));
        assert!(out.contains("components:"));
    }

    #[test]
    fn query_by_name_and_by_id() {
        let dir = test_dir("query");
        let (g, l) = generated(&dir);
        let labels = load_labels(&l).unwrap();
        let name0 = labels.name(NodeId(0));
        let name1 = labels.name(NodeId(30));
        let out = execute(Command::Query {
            graph: g.clone(),
            labels: Some(l.clone()),
            queries: format!("{name0},{name1}"),
            query_type: QueryType::And,
            budget: 5,
            alpha: 0.5,
            dot: None,
            json: false,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: false,
            profile_out: None,
        })
        .unwrap();
        assert!(out.contains("AND query"));
        assert!(out.contains("(query)"));

        let out = execute(Command::Query {
            graph: g,
            labels: None,
            queries: "0,30".into(),
            query_type: QueryType::Or,
            budget: 5,
            alpha: 0.5,
            dot: None,
            json: false,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: false,
            profile_out: None,
        })
        .unwrap();
        assert!(out.contains("OR query"));
    }

    #[test]
    fn query_json_and_dot_outputs() {
        let dir = test_dir("json");
        let (g, l) = generated(&dir);
        let dot_path = dir.join("out.dot");
        let out = execute(Command::Query {
            graph: g,
            labels: Some(l),
            queries: "0,30".into(),
            query_type: QueryType::SoftAnd(1),
            budget: 4,
            alpha: 0.5,
            dot: Some(dot_path.clone()),
            json: true,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: false,
            profile_out: None,
        })
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(doc["query_type"], "1_softAND");
        assert!(doc["subgraph"].as_array().unwrap().len() >= 2);
        let dot = fs::read_to_string(dot_path).unwrap();
        assert!(dot.starts_with("graph"));
    }

    #[test]
    fn query_profile_prints_tree_and_writes_snapshot() {
        let _guard = recorder_lock();
        let dir = test_dir("profile");
        let (g, l) = generated(&dir);
        let profile_path = dir.join("obs_profile.json");
        let out = execute(Command::Query {
            graph: g,
            labels: Some(l),
            queries: "0,30".into(),
            query_type: QueryType::And,
            budget: 5,
            alpha: 0.5,
            dot: None,
            json: false,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: true,
            profile_out: Some(profile_path.clone()),
        })
        .unwrap();
        assert!(out.contains("profile: end-to-end"));
        assert!(out.contains("stage.individual_scores"));
        assert!(out.contains("stage.combine"));
        assert!(out.contains("stage.extract"));
        assert!(out.contains("profile written to"));
        let json = fs::read_to_string(profile_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc["schema"], "ceps-obs/v1");
        assert!(!doc["spans"].as_array().unwrap().is_empty());
        ceps_obs::uninstall_recorder();
    }

    #[test]
    fn partition_writes_assignments() {
        let dir = test_dir("partition");
        let (g, _) = generated(&dir);
        let out_path = dir.join("parts.txt");
        let msg = execute(Command::Partition {
            graph: g,
            parts: 4,
            seed: 1,
            out: out_path.clone(),
        })
        .unwrap();
        assert!(msg.contains("4 parts"));
        let text = fs::read_to_string(out_path).unwrap();
        assert_eq!(text.lines().count(), 100);
    }

    #[test]
    fn unknown_author_is_a_clean_error() {
        let dir = test_dir("unknown");
        let (g, l) = generated(&dir);
        let err = execute(Command::Query {
            graph: g,
            labels: Some(l),
            queries: "Nobody Atall".into(),
            query_type: QueryType::And,
            budget: 5,
            alpha: 0.5,
            dot: None,
            json: false,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: false,
            profile_out: None,
        })
        .unwrap_err();
        assert!(err.0.contains("unknown author"));
    }

    #[test]
    fn autok_reports_k_and_ranks() {
        let dir = test_dir("autok");
        let (g, l) = generated(&dir);
        let out = execute(Command::AutoK {
            graph: g,
            labels: Some(l),
            queries: "0,1,2".into(),
            alpha: 0.5,
            threads: 1,
        })
        .unwrap();
        assert!(out.contains("inferred K_softAND"));
        assert!(out.contains("k' = 1"));
        assert!(out.contains("softand:"));
    }

    #[test]
    fn import_round_trips_through_query() {
        let dir = test_dir("import");
        let pairs = dir.join("pairs.tsv");
        fs::write(
            &pairs,
            "Ada Lovelace\tCharles Babbage\t3\nAda Lovelace\tLuigi Menabrea\n",
        )
        .unwrap();
        let g = dir.join("imported.txt");
        let l = dir.join("imported_labels.txt");
        let msg = execute(Command::Import {
            pairs,
            out: g.clone(),
            labels_out: l.clone(),
        })
        .unwrap();
        assert!(msg.contains("3 authors"));
        let out = execute(Command::Query {
            graph: g,
            labels: Some(l),
            queries: "Charles Babbage,Luigi Menabrea".into(),
            query_type: QueryType::And,
            budget: 2,
            alpha: 0.5,
            dot: None,
            json: false,
            push: None,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            profile: false,
            profile_out: None,
        })
        .unwrap();
        assert!(out.contains("Ada Lovelace"), "center-piece missing: {out}");
    }

    #[test]
    fn serve_reports_throughput_and_cache() {
        let _guard = recorder_lock();
        let dir = test_dir("serve");
        let (g, _) = generated(&dir);
        let out = execute(Command::Serve {
            graph: g.clone(),
            requests: 10,
            queries_per: 2,
            workers: 2,
            repeat: 0.8,
            budget: 4,
            alpha: 0.5,
            cache_mb: 16,
            coalesce_us: 0,
            coalesce_batch: 32,
            warm_frac: 0.0,
            seed: 1,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            json: false,
            profile: false,
            profile_out: None,
            metrics_out: None,
            metrics_interval_ms: 500,
            trace_out: None,
            trace_sample: 1.0,
            listen: None,
            flight_out: None,
        })
        .unwrap();
        assert!(out.contains("served 10 requests"));
        assert!(out.contains("cache:"), "missing cache line: {out}");

        let out = execute(Command::Serve {
            graph: g,
            requests: 6,
            queries_per: 2,
            workers: 1,
            repeat: 0.0,
            budget: 4,
            alpha: 0.5,
            cache_mb: 0,
            coalesce_us: 0,
            coalesce_batch: 32,
            warm_frac: 0.0,
            seed: 1,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            json: true,
            profile: false,
            profile_out: None,
            metrics_out: None,
            metrics_interval_ms: 500,
            trace_out: None,
            trace_sample: 1.0,
            listen: None,
            flight_out: None,
        })
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(doc["requests"], 6);
        // Cache disabled: no hit rate exists, reported as null (not 0.0).
        assert!(doc["hit_rate"].is_null(), "{doc:?}");
        assert!(doc["latency_ms"]["p50"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn serve_listen_and_client_round_trip_over_unix_socket() {
        let _guard = recorder_lock();
        let dir = test_dir("listen");
        let (g, _) = generated(&dir);
        let sock = dir.join("cli.sock");
        let _ = fs::remove_file(&sock);
        let addr = sock.display().to_string();

        let server = std::thread::spawn({
            let g = g.clone();
            let addr = addr.clone();
            move || {
                execute(Command::Serve {
                    graph: g,
                    requests: 0,
                    queries_per: 2,
                    workers: 2,
                    repeat: 0.5,
                    budget: 4,
                    alpha: 0.5,
                    cache_mb: 16,
                    coalesce_us: 0,
                    coalesce_batch: 32,
                    warm_frac: 0.0,
                    seed: 1,
                    threads: 1,
                    precision: ceps_graph::Precision::F64,
                    json: false,
                    profile: false,
                    profile_out: None,
                    metrics_out: None,
                    metrics_interval_ms: 500,
                    trace_out: None,
                    trace_sample: 1.0,
                    listen: Some(addr),
                    flight_out: None,
                })
                .unwrap()
            }
        });
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out = execute(Command::Client {
            connect: addr.clone(),
            action: ClientAction::Ping,
            json: false,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(out.contains("ceps-wire/v1"), "{out}");

        let out = execute(Command::Client {
            connect: addr.clone(),
            action: ClientAction::Query("0,30".into()),
            json: true,
            timeout_ms: 10_000,
            trace_out: None,
        })
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(!doc["members"].as_array().unwrap().is_empty());

        let out = execute(Command::Client {
            connect: addr.clone(),
            action: ClientAction::Stats,
            json: false,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(out.contains("1 queries"), "{out}");

        let out = execute(Command::Client {
            connect: addr,
            action: ClientAction::Shutdown,
            json: false,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(out.contains("server drained"));

        let summary = server.join().unwrap();
        assert!(summary.contains("server drained after"), "{summary}");
        assert!(summary.contains("1 queries"), "{summary}");
    }

    #[test]
    fn loadgen_drives_a_unix_socket_server_and_checks_the_slo() {
        let _guard = recorder_lock();
        let dir = test_dir("loadgen");
        let (g, _) = generated(&dir);
        let sock = dir.join("cli.sock");
        let _ = fs::remove_file(&sock);
        let addr = sock.display().to_string();

        let server = std::thread::spawn({
            let g = g.clone();
            let addr = addr.clone();
            move || {
                execute(Command::Serve {
                    graph: g,
                    requests: 0,
                    queries_per: 2,
                    workers: 2,
                    repeat: 0.5,
                    budget: 4,
                    alpha: 0.5,
                    cache_mb: 16,
                    coalesce_us: 0,
                    coalesce_batch: 32,
                    warm_frac: 0.0,
                    seed: 1,
                    threads: 1,
                    precision: ceps_graph::Precision::F64,
                    json: false,
                    profile: false,
                    profile_out: None,
                    metrics_out: None,
                    metrics_interval_ms: 500,
                    trace_out: None,
                    trace_sample: 1.0,
                    listen: Some(addr),
                    flight_out: None,
                })
                .unwrap()
            }
        });
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out_path = dir.join("loadgen-report.json");
        let out = execute(Command::Loadgen {
            connect: addr.clone(),
            rps: 40.0,
            duration_s: 1.0,
            warmup_s: 0.2,
            arrival: ceps_load::ArrivalKind::Constant,
            connections: 2,
            queries_per: 2,
            node_space: 100,
            repeat: 0.5,
            mix: ceps_load::MixKind::Uniform,
            pool_size: ceps_load::DEFAULT_HOT_POOL,
            seed: 7,
            slo_p99_ms: 60_000.0,
            max_error_rate: 0.0,
            search: false,
            json: false,
            out: Some(out_path.clone()),
        })
        .unwrap();
        assert!(out.contains("achieved"), "{out}");
        assert!(out.contains("slo (p99 <= 60000 ms"), "{out}");
        assert!(out.contains("met"), "{out}");

        // The JSON artifact parses and shows a clean run.
        let json = fs::read_to_string(&out_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(json.trim()).unwrap();
        assert_eq!(doc["schema"], "ceps-load/v1");
        assert_eq!(doc["measure"]["errors"], 0);
        assert_eq!(doc["measure"]["sheds"], 0);
        assert!(doc["achieved_rps"].as_f64().unwrap() > 0.0);

        let out = execute(Command::Client {
            connect: addr,
            action: ClientAction::Shutdown,
            json: false,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(out.contains("server drained"));
        let summary = server.join().unwrap();
        assert!(summary.contains("queue p50"), "{summary}");
    }

    #[test]
    fn traced_wire_round_trip_shares_trace_ids_and_dumps_the_flight_ring() {
        let _guard = recorder_lock();
        let dir = test_dir("traced");
        let (g, _) = generated(&dir);
        let sock = dir.join("cli.sock");
        let server_traces = dir.join("server-traces.jsonl");
        let client_traces = dir.join("client-traces.jsonl");
        let flight = dir.join("flight.jsonl");
        for p in [&sock, &server_traces, &client_traces, &flight] {
            let _ = fs::remove_file(p);
        }
        let addr = sock.display().to_string();

        let server = std::thread::spawn({
            let g = g.clone();
            let addr = addr.clone();
            let server_traces = server_traces.clone();
            let flight = flight.clone();
            move || {
                execute(Command::Serve {
                    graph: g,
                    requests: 0,
                    queries_per: 2,
                    workers: 2,
                    repeat: 0.5,
                    budget: 4,
                    alpha: 0.5,
                    cache_mb: 16,
                    coalesce_us: 0,
                    coalesce_batch: 32,
                    warm_frac: 0.0,
                    seed: 1,
                    threads: 1,
                    precision: ceps_graph::Precision::F64,
                    json: false,
                    profile: false,
                    profile_out: None,
                    metrics_out: None,
                    metrics_interval_ms: 500,
                    trace_out: Some(server_traces),
                    trace_sample: 1.0,
                    listen: Some(addr),
                    flight_out: Some(flight),
                })
                .unwrap()
            }
        });
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let out = execute(Command::Client {
            connect: addr.clone(),
            action: ClientAction::Query("0,30".into()),
            json: false,
            timeout_ms: 10_000,
            trace_out: Some(client_traces.clone()),
        })
        .unwrap();
        assert!(out.contains("client traces written to"), "{out}");

        let dump = execute(Command::Client {
            connect: addr.clone(),
            action: ClientAction::DumpFlight,
            json: true,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(
            dump.contains("\"schema\": \"ceps-flight/v1\""),
            "--flight-out must have enabled the recorder: {dump}"
        );

        let out = execute(Command::Client {
            connect: addr,
            action: ClientAction::Shutdown,
            json: false,
            timeout_ms: 5_000,
            trace_out: None,
        })
        .unwrap();
        assert!(out.contains("server drained"));
        let summary = server.join().unwrap();
        assert!(summary.contains("windowed latency p50"), "{summary}");
        assert!(summary.contains("traces written to"), "{summary}");
        assert!(summary.contains("flight ring written to"), "{summary}");

        // One query → one line on each side, sharing one trace_id; the
        // server line carries the stage-level breakdown.
        let client_line = fs::read_to_string(&client_traces).unwrap();
        let server_line = fs::read_to_string(&server_traces).unwrap();
        assert_eq!(client_line.lines().count(), 1, "{client_line}");
        assert_eq!(server_line.lines().count(), 1, "{server_line}");
        let cdoc: serde_json::Value = serde_json::from_str(client_line.trim()).unwrap();
        let sdoc: serde_json::Value = serde_json::from_str(server_line.trim()).unwrap();
        assert_eq!(cdoc["schema"], "ceps-trace/v1");
        assert_eq!(cdoc["side"], "client");
        assert_eq!(sdoc["schema"], "ceps-trace/v1");
        let tid = cdoc["trace_id"].as_str().unwrap();
        assert_eq!(tid.len(), 16);
        assert_eq!(sdoc["trace_id"].as_str().unwrap(), tid);
        assert!(sdoc["scores_ms"].as_f64().unwrap() >= 0.0);
        assert!(
            cdoc["latency_ms"].as_f64().unwrap() >= sdoc["latency_ms"].as_f64().unwrap(),
            "client-observed latency includes the wire: {cdoc:?} vs {sdoc:?}"
        );

        // The drain wrote the ring; every line is valid ceps-flight/v1.
        let flight_text = fs::read_to_string(&flight).unwrap();
        assert!(!flight_text.is_empty());
        for line in flight_text.lines() {
            let doc: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(doc["schema"], "ceps-flight/v1");
        }
        ceps_obs::flight_disable();
    }

    #[test]
    fn serve_writes_metrics_and_traces() {
        let _guard = recorder_lock();
        let dir = test_dir("metrics");
        let (g, _) = generated(&dir);
        let prom = dir.join("serve_metrics.prom");
        let events = dir.join("serve_metrics.jsonl");
        let traces = dir.join("serve_traces.jsonl");
        let _ = fs::remove_file(&events);
        let out = execute(Command::Serve {
            graph: g,
            requests: 8,
            queries_per: 2,
            workers: 2,
            repeat: 0.8,
            budget: 4,
            alpha: 0.5,
            cache_mb: 16,
            coalesce_us: 0,
            coalesce_batch: 32,
            warm_frac: 0.0,
            seed: 1,
            threads: 1,
            precision: ceps_graph::Precision::F64,
            json: false,
            profile: false,
            profile_out: None,
            metrics_out: Some(prom.clone()),
            metrics_interval_ms: 20,
            trace_out: Some(traces.clone()),
            trace_sample: 1.0,
            listen: None,
            flight_out: None,
        })
        .unwrap();
        assert!(out.contains("metrics written to"));
        assert!(out.contains("traces written to"));

        // Final flush on exporter drop: the .prom reflects the full run.
        let text = fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE ceps_serve_requests counter"));
        assert!(text.contains("ceps_serve_requests 8"), "{text}");
        assert!(text.contains("# TYPE ceps_serve_latency_ms histogram"));
        assert!(text.contains("ceps_serve_latency_ms_count 8"));

        let events_text = fs::read_to_string(&events).unwrap();
        assert!(!events_text.is_empty());
        for line in events_text.lines() {
            assert!(line.starts_with("{\"schema\": \"ceps-metrics/v1\""));
        }

        let trace_text = fs::read_to_string(&traces).unwrap();
        assert_eq!(trace_text.lines().count(), 8, "rate 1.0 → one per request");
        for line in trace_text.lines() {
            let doc: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(doc["schema"], "ceps-trace/v1");
            assert_eq!(doc["outcome"], "ok");
        }
        ceps_obs::uninstall_recorder();
    }

    #[test]
    fn metrics_events_path_never_collides() {
        assert_eq!(
            metrics_events_path(Path::new("m.prom")),
            PathBuf::from("m.jsonl")
        );
        assert_eq!(
            metrics_events_path(Path::new("dir/metrics")),
            PathBuf::from("dir/metrics.jsonl")
        );
        assert_eq!(
            metrics_events_path(Path::new("m.jsonl")),
            PathBuf::from("m.events.jsonl")
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }
}
