//! Live-telemetry integration: the Prometheus exposition must round-trip
//! through a parser (typed families, escaped labels, cumulative buckets,
//! monotone counters), every JSONL metrics/trace line must parse as
//! standalone JSON carrying its schema version, traced serving must emit
//! one line per sampled request with stage times that account for the
//! measured latency, stream replay and the wire server must write the same
//! facts on those lines, and the exporter's final `.prom` file must match
//! the final registry snapshot.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock};

use ceps_core::telemetry::{trace_json, RequestTrace, SampleKind};
use ceps_core::{
    CepsConfig, CepsEngine, CepsServiceBuilder, RequestTracer, ServeRequest, StageTimes,
};
use ceps_datagen::{CoauthorConfig, CoauthorGraph, QueryRepository};
use ceps_graph::NodeId;
use ceps_net::{in_proc, CepsClient, CepsServer, ServerConfig};
use ceps_obs::{HistogramStat, MetricsSnapshot, SpanStat, WindowedMetrics};
use proptest::prelude::*;

/// Serializes tests touching the process-global recorder.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload() -> (CoauthorGraph, QueryRepository) {
    let data = CoauthorConfig::tiny().seed(33).generate();
    let repo = QueryRepository::from_graph(&data);
    (data, repo)
}

fn tmp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ceps_telemetry_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// A minimal Prometheus text-exposition parser, used to round-trip the
// exporter's output instead of matching substrings.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    /// OpenMetrics exemplar suffix, if the bucket carried one:
    /// `(trace_id, observed_value)`.
    exemplar: Option<(String, f64)>,
}

/// Parses `# TYPE` headers and samples (including OpenMetrics exemplar
/// suffixes on bucket lines); panics on any malformed line.
fn parse_prom(text: &str) -> (HashMap<String, String>, Vec<PromSample>) {
    let mut types = HashMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a name").to_string();
            let kind = it.next().expect("TYPE line has a kind").to_string();
            assert!(it.next().is_none(), "junk after TYPE: {line:?}");
            types.insert(name, kind);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line:?}");
        // `..._bucket{le="8"} 3 # {trace_id="00ab..."} 5.2` — split the
        // exemplar suffix off before parsing the sample proper.
        let (line, exemplar) = match line.split_once(" # ") {
            None => (line, None),
            Some((sample, ex)) => {
                let (labels, value) = ex.rsplit_once(' ').expect("exemplar has a value");
                let body = labels
                    .strip_prefix('{')
                    .and_then(|l| l.strip_suffix('}'))
                    .expect("exemplar labels are braced");
                let labels = parse_labels(body);
                let trace_id = labels
                    .iter()
                    .find(|(k, _)| k == "trace_id")
                    .map(|(_, v)| v.clone())
                    .expect("exemplar carries a trace_id label");
                let value: f64 = value.parse().expect("exemplar value parses");
                (sample, Some((trace_id, value)))
            }
        };
        let (head, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            assert_eq!(value, "+Inf", "unparsable sample value {value:?}");
            f64::INFINITY
        });
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("labels close with }");
                (name.to_string(), parse_labels(body))
            }
        };
        if exemplar.is_some() {
            assert!(
                name.ends_with("_bucket"),
                "exemplars only belong on bucket lines: {name}"
            );
        }
        samples.push(PromSample {
            name,
            labels,
            value,
            exemplar,
        });
    }
    (types, samples)
}

/// Parses `k="v",k="v"` with `\\`, `\"` and `\n` escapes in values.
fn parse_labels(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert_eq!(chars.next(), Some('"'), "label value must be quoted");
        let mut value = String::new();
        loop {
            match chars.next().expect("unterminated label value") {
                '\\' => match chars.next().expect("dangling escape") {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        if chars.peek() == Some(&',') {
            chars.next();
        }
        out.push((key, value));
    }
    out
}

fn sample_value(samples: &[PromSample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

// ---------------------------------------------------------------------------
// Prometheus round-trip.
// ---------------------------------------------------------------------------

#[test]
fn prometheus_exposition_round_trips_with_types_buckets_and_monotone_counters() {
    let _guard = obs_lock();
    ceps_obs::install_recorder();
    ceps_obs::reset();

    ceps_obs::counter("serve.requests", 3);
    for v in [0.5, 1.5, 2.5, 40.0] {
        ceps_obs::record("serve.latency_ms", v);
    }
    // A span whose path needs every escape class in its label.
    let (_, _) = ceps_obs::timed("weird \"path\"\\with\nnewline", || 1 + 1);
    let snap1 = ceps_obs::snapshot();
    let text1 = ceps_obs::to_prometheus(&snap1);

    let (types, samples) = parse_prom(&text1);
    // Every sample family is declared: strip the well-known suffixes to
    // recover the family name.
    for s in &samples {
        let family = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|f| types.contains_key(*f))
            .unwrap_or(&s.name);
        assert!(
            types.contains_key(family),
            "sample {} has no # TYPE header",
            s.name
        );
        assert!(s.name.starts_with("ceps_"), "unprefixed name {}", s.name);
    }

    assert_eq!(sample_value(&samples, "ceps_serve_requests"), Some(3.0));
    assert_eq!(types["ceps_serve_requests"], "counter");
    assert_eq!(types["ceps_serve_latency_ms"], "histogram");

    // Buckets are cumulative in `le`, ending at +Inf == _count.
    let buckets: Vec<&PromSample> = samples
        .iter()
        .filter(|s| s.name == "ceps_serve_latency_ms_bucket")
        .collect();
    assert!(buckets.len() >= 2, "histogram exposes buckets");
    let mut last_le = f64::NEG_INFINITY;
    let mut last_count = 0.0;
    for b in &buckets {
        let le: f64 = match b.labels.iter().find(|(k, _)| k == "le") {
            Some((_, v)) if v == "+Inf" => f64::INFINITY,
            Some((_, v)) => v.parse().unwrap(),
            None => panic!("bucket without le label"),
        };
        assert!(le > last_le, "le values must ascend");
        assert!(b.value >= last_count, "bucket counts must be cumulative");
        last_le = le;
        last_count = b.value;
    }
    assert!(last_le.is_infinite(), "bucket list must end at +Inf");
    assert_eq!(
        last_count,
        sample_value(&samples, "ceps_serve_latency_ms_count").unwrap(),
        "+Inf bucket must equal _count"
    );
    assert!(
        (sample_value(&samples, "ceps_serve_latency_ms_sum").unwrap() - 44.5).abs() < 1e-9,
        "_sum must match recorded values"
    );

    // The hostile span path survives label escaping intact.
    let span = samples
        .iter()
        .find(|s| s.name == "ceps_span_calls")
        .expect("span sample present");
    assert_eq!(
        span.labels.iter().find(|(k, _)| k == "path").unwrap().1,
        "weird \"path\"\\with\nnewline"
    );

    // Monotonicity: more traffic can only grow counter samples.
    ceps_obs::counter("serve.requests", 2);
    ceps_obs::record("serve.latency_ms", 1.0);
    let text2 = ceps_obs::to_prometheus(&ceps_obs::snapshot());
    let (_, samples2) = parse_prom(&text2);
    for s in &samples {
        if types.get(s.name.as_str()).map(String::as_str) == Some("counter")
            || s.name.ends_with("_count")
        {
            let after = sample_value(&samples2, &s.name)
                .unwrap_or_else(|| panic!("{} vanished from the exposition", s.name));
            assert!(after >= s.value, "{} went backwards", s.name);
        }
    }

    ceps_obs::uninstall_recorder();
}

// ---------------------------------------------------------------------------
// JSONL schema properties.
// ---------------------------------------------------------------------------

/// Hostile strings exercised through label/error escaping.
const NASTY: [&str; 6] = [
    "plain",
    "with \"quotes\"",
    "back\\slash",
    "multi\nline",
    "tabs\tand unicode ✓",
    "",
];

fn hist_stat(name: &str, values: &[f64]) -> HistogramStat {
    // Rebuild the snapshot form by hand: (le, count) pairs on the same
    // log2 grid the registry uses (bucket i covers [2^(i-32), 2^(i-31))).
    let mut counts = std::collections::BTreeMap::new();
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        let idx = (v.log2().floor() as i32 + 32).clamp(0, 63);
        *counts.entry(idx).or_insert(0u64) += 1;
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    HistogramStat {
        name: name.to_string(),
        count: values.len() as u64,
        sum,
        min: if values.is_empty() { 0.0 } else { min },
        max: if values.is_empty() { 0.0 } else { max },
        buckets: counts
            .into_iter()
            .map(|(i, c)| (2f64.powi(i - 31), c))
            .collect(),
        exemplars: Vec::new(),
    }
}

fn snapshot_from(counters: &[(usize, u64)], hist: &[f64], span_idx: usize) -> MetricsSnapshot {
    MetricsSnapshot {
        spans: vec![SpanStat {
            path: NASTY[span_idx % NASTY.len()].to_string(),
            count: 1 + span_idx as u64,
            total_ns: 1_000_000,
            self_ns: 900_000,
            min_ns: 1_000,
            max_ns: 500_000,
        }],
        counters: counters
            .iter()
            .map(|&(i, v)| (format!("ctr.{}", NASTY[i % NASTY.len()]), v))
            .collect(),
        gauges: counters
            .iter()
            .map(|&(i, v)| (format!("lvl.{}", NASTY[i % NASTY.len()]), v as i64))
            .collect(),
        histograms: vec![hist_stat("serve.latency_ms", hist)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: every metrics event line is standalone JSON — one line,
    /// parses on its own, and declares `ceps-metrics/v1` — whatever the
    /// snapshot contents, with or without a delta window.
    #[test]
    fn metrics_event_lines_parse_as_standalone_json(
        counters in proptest::collection::vec((0usize..6, 0u64..1_000_000), 0..5),
        hist in proptest::collection::vec(0.001f64..1e6, 0..40),
        growth in proptest::collection::vec(0.001f64..1e6, 1..10),
        span_idx in 0usize..6,
        seq in 0u64..1000,
    ) {
        let snap1 = snapshot_from(&counters, &hist, span_idx);
        let mut later = hist.clone();
        later.extend_from_slice(&growth);
        let grown: Vec<(usize, u64)> =
            counters.iter().map(|&(i, v)| (i, v + 7)).collect();
        let snap2 = snapshot_from(&grown, &later, span_idx);

        let mut window = WindowedMetrics::new(4);
        window.push_at(0.0, snap1.clone());
        window.push_at(2.0, snap2.clone());
        let delta = window.delta().expect("two snapshots give a delta");

        for line in [
            ceps_obs::metrics_event_json(&snap1, None, seq, 1_700_000_000_000, 250),
            ceps_obs::metrics_event_json(&snap2, Some(&delta), seq + 1, 1_700_000_000_250, 250),
        ] {
            prop_assert!(!line.contains('\n'), "event must be one line");
            let doc: serde_json::Value =
                serde_json::from_str(&line).expect("event line must parse standalone");
            prop_assert!(doc["schema"] == "ceps-metrics/v1");
            prop_assert!(doc["seq"].as_u64().is_some());
            prop_assert!(matches!(doc["counters"], serde_json::Value::Object(_)));
            prop_assert!(doc["histograms"].as_array().is_some());
        }
    }

    /// Property: every trace line is standalone JSON declaring
    /// `ceps-trace/v1`, with hostile error strings surviving the escape.
    #[test]
    fn trace_lines_parse_as_standalone_json(
        request_id in 0u64..10_000,
        mix in 0usize..100_000,
        latency_ms in 0.0f64..1e4,
        split in 0.0f64..1.0,
        err_idx in 0usize..7,
        kind in 0usize..2,
    ) {
        let scores = latency_ms * split;
        let combine = (latency_ms - scores) * 0.5;
        let error = (err_idx < NASTY.len()).then(|| NASTY[err_idx].to_string());
        // Half the requests carry a distributed-trace id; the line must
        // render it as fixed-width hex (u64 ids don't survive JSON f64).
        let trace_id = (mix % 2 == 0).then(|| 0x1000_0000_0000_0000u64 | mix as u64);
        let trace = RequestTrace {
            request_id,
            worker: mix % 8,
            queries: 1 + mix % 5,
            latency_ms,
            stages: StageTimes {
                scores_ms: scores,
                combine_ms: combine,
                extract_ms: (latency_ms - scores - combine).max(0.0),
            },
            queue_ms: latency_ms * (1.0 - split) * 0.25,
            cache_hits: mix as u64 % 10,
            cache_misses: (mix as u64 / 10) % 10,
            budget: 20,
            paths: mix % 40,
            error: error.clone(),
            trace_id,
        };
        let kind = if kind == 0 { SampleKind::Head } else { SampleKind::Tail };
        let line = trace_json(&trace, kind);
        prop_assert!(!line.contains('\n'), "trace must be one line");
        let doc: serde_json::Value =
            serde_json::from_str(&line).expect("trace line must parse standalone");
        prop_assert!(doc["schema"] == "ceps-trace/v1");
        prop_assert_eq!(doc["request_id"].as_u64(), Some(request_id));
        prop_assert!(doc["queue_ms"].as_f64().is_some_and(|q| q >= 0.0));
        prop_assert_eq!(
            doc["sampled"].as_str(),
            Some(if kind == SampleKind::Head { "head" } else { "tail" })
        );
        match &error {
            None => {
                prop_assert_eq!(doc["outcome"].as_str(), Some("ok"));
                prop_assert!(doc.get("error").is_none());
            }
            Some(e) => {
                prop_assert_eq!(doc["outcome"].as_str(), Some("error"));
                prop_assert_eq!(doc["error"].as_str(), Some(e.as_str()));
            }
        }
        match trace_id {
            None => prop_assert!(doc.get("trace_id").is_none()),
            Some(id) => {
                let hex = doc["trace_id"].as_str().expect("trace_id is a string");
                prop_assert_eq!(hex.len(), 16, "fixed-width hex");
                prop_assert_eq!(u64::from_str_radix(hex, 16).unwrap(), id);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Traced serving end-to-end.
// ---------------------------------------------------------------------------

#[test]
fn traced_serving_emits_a_line_per_request_with_consistent_stage_times() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    let cfg = CepsConfig::default().budget(8).threads(1);
    let engine = CepsEngine::new(&data.graph, cfg).unwrap();
    let service = CepsServiceBuilder::new()
        .cache_bytes(32 << 20)
        .build(engine);

    let dir = tmp_dir("traced_serve");
    let path = dir.join("traces.jsonl");
    let tracer = RequestTracer::to_file(&path, 1.0).unwrap();

    let stream: Vec<Vec<NodeId>> = (0..16)
        .map(|i| repo.sample(1 + (i as usize % 3), 500 + i))
        .collect();
    let outcome = service.serve_stream(&stream, 2, Some(&tracer)).unwrap();
    assert_eq!(outcome.completed, stream.len());

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        stream.len(),
        "full head-sampling keeps every request"
    );

    let mut seen = vec![false; stream.len()];
    let (mut stage_total, mut latency_total) = (0.0, 0.0);
    for line in &lines {
        let doc: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(doc["schema"], "ceps-trace/v1");
        assert_eq!(doc["outcome"], "ok");
        let id = doc["request_id"].as_u64().unwrap() as usize;
        assert!(!seen[id], "request {id} traced twice");
        seen[id] = true;
        let latency = doc["latency_ms"].as_f64().unwrap();
        let stages = doc["scores_ms"].as_f64().unwrap()
            + doc["combine_ms"].as_f64().unwrap()
            + doc["extract_ms"].as_f64().unwrap();
        assert!(
            stages <= latency * 1.001 + 1e-6,
            "stages {stages} exceed latency {latency}"
        );
        stage_total += stages;
        latency_total += latency;
    }
    assert!(seen.iter().all(|&s| s), "every request id must appear");
    // The three pipeline stages are where serving time goes: in aggregate
    // they must account for the measured latency to within 10%.
    assert!(
        stage_total >= 0.9 * latency_total,
        "stage times {stage_total:.3}ms only cover {:.0}% of latency {latency_total:.3}ms",
        100.0 * stage_total / latency_total
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Exporter end-to-end.
// ---------------------------------------------------------------------------

/// Stream replay and the wire server answer through one request handler,
/// so a request's `ceps-trace/v1` line states the same facts whichever
/// path served it — for a good query set and for one naming a bad node.
#[test]
fn stream_and_wire_trace_lines_agree_for_good_and_bad_requests() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    let engine = CepsEngine::new(&data.graph, CepsConfig::default().budget(8).threads(1)).unwrap();
    let service = CepsServiceBuilder::new()
        .cache_bytes(32 << 20)
        .build(engine);
    let good = repo.sample(3, 77);
    let bad = vec![good[0], NodeId(u32::MAX - 1)];
    // Prime the shared cache so both paths see the same warmth.
    service.run(&good).unwrap();

    let dir = tmp_dir("stream_vs_wire");
    let stream_path = dir.join("stream.jsonl");
    let tracer = RequestTracer::to_file(&stream_path, 1.0).unwrap();
    service
        .serve_stream(std::slice::from_ref(&good), 1, Some(&tracer))
        .unwrap();
    assert!(service
        .serve_stream(std::slice::from_ref(&bad), 1, Some(&tracer))
        .is_err());

    let wire_path = dir.join("wire.jsonl");
    let server = CepsServer::new(service.clone(), ServerConfig::default())
        .with_tracer(RequestTracer::to_file(&wire_path, 1.0).unwrap());
    let (mut transport, connector) = in_proc();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());
        let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        client.request(&ServeRequest::new(good.clone())).unwrap();
        assert!(client.request(&ServeRequest::new(bad.clone())).is_err());
        client.shutdown().unwrap();
    });

    let lines = |path: &std::path::Path| -> Vec<serde_json::Value> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    };
    let keys = |doc: &serde_json::Value| -> BTreeSet<String> {
        match doc {
            serde_json::Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("trace line is not an object: {other:?}"),
        }
    };
    let (streamed, wired) = (lines(&stream_path), lines(&wire_path));
    assert_eq!(streamed.len(), 2, "one line per streamed request");
    assert_eq!(wired.len(), 2, "one line per wire request");
    for (st, wi) in streamed.iter().zip(&wired) {
        assert_eq!(keys(st), keys(wi));
        for field in [
            "schema",
            "queries",
            "cache_hits",
            "cache_misses",
            "budget",
            "paths",
            "outcome",
            "error",
        ] {
            assert_eq!(st.get(field), wi.get(field), "{field} differs");
        }
    }
    assert_eq!(streamed[0]["outcome"], "ok");
    assert_eq!(streamed[0]["cache_hits"].as_u64(), Some(good.len() as u64));
    assert_eq!(streamed[1]["outcome"], "error");
    assert!(streamed[1]["error"].as_str().is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exporter_final_prom_file_matches_the_final_registry_snapshot() {
    let _guard = obs_lock();
    let (data, repo) = workload();
    let cfg = CepsConfig::default().budget(6).threads(1);
    let engine = CepsEngine::new(&data.graph, cfg).unwrap();
    let service = CepsServiceBuilder::new()
        .cache_bytes(32 << 20)
        .build(engine);

    let dir = tmp_dir("exporter");
    let prom_path = dir.join("metrics.prom");
    let events_path = dir.join("metrics.jsonl");

    ceps_obs::install_recorder();
    ceps_obs::reset();
    let exporter = ceps_obs::MetricsExporter::start(
        ceps_obs::ExporterConfig::new(25)
            .prom(&prom_path)
            .events(&events_path),
    )
    .unwrap();

    let stream: Vec<Vec<NodeId>> = (0..10).map(|i| repo.sample(2, 900 + i)).collect();
    service.serve_stream(&stream, 2, None).unwrap();

    drop(exporter); // final flush: the .prom must now equal the registry
    let snap = ceps_obs::snapshot();
    ceps_obs::uninstall_recorder();

    let (_, samples) = parse_prom(&std::fs::read_to_string(&prom_path).unwrap());
    assert_eq!(
        sample_value(&samples, "ceps_serve_requests"),
        Some(snap.counter("serve.requests").unwrap() as f64),
    );
    let latency = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.latency_ms")
        .expect("latency histogram recorded");
    assert_eq!(
        sample_value(&samples, "ceps_serve_latency_ms_count"),
        Some(latency.count as f64),
    );
    assert_eq!(latency.count, stream.len() as u64);

    // With the recorder installed, serving mints a sampled root trace
    // context per request, so the exported buckets must carry at least
    // one exemplar pointing at a real (nonzero, 16-hex-digit) trace id.
    let exemplars: Vec<&(String, f64)> = samples
        .iter()
        .filter(|s| s.name == "ceps_serve_latency_ms_bucket")
        .filter_map(|s| s.exemplar.as_ref())
        .collect();
    assert!(
        !exemplars.is_empty(),
        "traced serving must leave bucket exemplars in the .prom file"
    );
    for (trace_id, value) in &exemplars {
        assert_eq!(trace_id.len(), 16, "exemplar ids are fixed-width hex");
        assert_ne!(
            u64::from_str_radix(trace_id, 16).expect("exemplar id parses as hex"),
            0,
            "exemplar must reference a real trace"
        );
        assert!(*value > 0.0, "exemplar records the observed latency");
    }

    let events = std::fs::read_to_string(&events_path).unwrap();
    assert!(!events.is_empty(), "exporter must append events");
    for line in events.lines() {
        let doc: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(doc["schema"], "ceps-metrics/v1");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
