//! Aggregated metrics: snapshot structs, the `--profile` tree renderer and
//! the hand-rolled JSON emitter (schema `ceps-obs/v1`).
//!
//! # JSON schema (`ceps-obs/v1`)
//!
//! ```json
//! {
//!   "schema": "ceps-obs/v1",
//!   "meta": {
//!     "git_sha": "abc123def456",
//!     "threads": 8,
//!     "preset": "medium",
//!     "timestamp": "2026-01-01T00:00:00Z",
//!     "label": "query"
//!   },
//!   "spans": [
//!     {"path": "query/stage.combine", "count": 1, "total_ms": 1.5,
//!      "self_ms": 1.5, "min_ms": 1.5, "max_ms": 1.5}
//!   ],
//!   "counters": {"rwr.solves": 1},
//!   "gauges": {"net.in_flight": 2},
//!   "histograms": [
//!     {"name": "rwr.iterations", "count": 3, "sum": 150.0, "min": 50.0,
//!      "max": 50.0, "buckets": [{"le": 51.0, "count": 3}],
//!      "exemplars": [{"le": 51.0, "trace_id": "00f1e2d3c4b5a697", "value": 50.0}]}
//!   ]
//! }
//! ```
//!
//! `spans` is sorted by path, `counters` and `gauges` by name (`gauges`
//! are point-in-time levels such as queue depth, not monotonic totals);
//! `buckets` lists only
//! non-empty [`Histogram`](crate::Histogram) buckets, by upper bound `le`. The file
//! is written next to `BENCH_*.json` under `results/` so per-stage cost
//! trajectories stay diffable across PRs. `exemplars` lists, per bucket
//! that ever saw a traced observation, the last contributing `trace_id`
//! (16-char hex — JSON numbers are f64 and cannot carry a full `u64`)
//! and the recorded value; it is empty unless requests ran with a
//! sampled [`TraceContext`](crate::TraceContext) active.
//!
//! ## Serving-cache counter inventory
//!
//! The coalescing/single-flight/warming layer in `ceps-rwr` and
//! `ceps-core::serve` emits, through these generic primitives (Prometheus
//! names are the dotted names under the `ceps_` prefix with `.` → `_`):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `serve.singleflight_total` | counter | misses that joined another request's in-flight solve instead of solving |
//! | `serve.singleflight_wait_ms` | histogram | wall time a joiner spent blocked on the flight lead |
//! | `serve.coalesced_total` | counter | rows solved inside another request's coalesced batch (foreign rows only) |
//! | `serve.coalesce.batches` | counter | coalescing windows drained (one wide solve each) |
//! | `serve.coalesce.rows` | counter | total rows across all drained windows (own + foreign) |
//! | `serve.warm.rows` | counter | rows pre-solved by `CepsService::warm` |
//! | `serve.warm.bytes` | counter | cache bytes filled by warming |
//!
//! The CI coalescing smoke asserts `ceps_serve_coalesced_total > 0` and
//! `ceps_serve_warm_rows > 0` in the exported `.prom` under concurrent
//! hub-skewed traffic.
//!
//! # JSONL schema (`ceps-metrics/v1`)
//!
//! One object per line, appended by
//! [`MetricsExporter`](crate::MetricsExporter) on every flush:
//!
//! ```json
//! {"schema": "ceps-metrics/v1", "seq": 3, "unix_ms": 1767225600000,
//!  "interval_ms": 250, "window_s": 2.0,
//!  "counters": {"serve.requests": 128},
//!  "gauges": {"net.in_flight": 2},
//!  "rates": {"serve.requests": 64.0},
//!  "histograms": [
//!    {"name": "serve.latency_ms", "total_count": 128, "count": 16,
//!     "per_s": 8.0, "mean": 1.9, "p50": 1.7, "p90": 2.9, "p99": 3.6,
//!     "exemplars": [{"le": 3.625, "trace_id": "00f1e2d3c4b5a697",
//!                    "value": 3.6}]}
//!  ],
//!  "spans": [{"path": "serve.request", "count": 128, "total_ms": 240.0}]}
//! ```
//!
//! `counters` and `total_count` are cumulative since recorder install;
//! `rates`, `count`, `per_s` and the percentiles cover only the exporter's
//! snapshot window (`window_s` seconds). Until two snapshots exist,
//! `rates` is empty and histogram stats fall back to cumulative values.
//!
//! # JSONL schema (`ceps-trace/v1`)
//!
//! One object per sampled served request — stream replay and wire
//! `Query` frames alike, both through `ceps_core::CepsService::handle` —
//! appended by `ceps_core::RequestTracer` (`ceps serve --trace-out`):
//!
//! ```json
//! {"schema": "ceps-trace/v1", "request_id": 42, "worker": 1,
//!  "queries": 3, "latency_ms": 2.4, "queue_ms": 0.1,
//!  "scores_ms": 1.5, "combine_ms": 0.2,
//!  "extract_ms": 0.6, "cache_hits": 2, "cache_misses": 1, "budget": 20,
//!  "paths": 17, "sampled": "head", "outcome": "ok"}
//! ```
//!
//! `sampled` is `"head"` (request id hashed under the `--trace-sample`
//! rate) or `"tail"` (latency above the p99 of every request the tracer
//! has seen — slow requests are always kept). `outcome` is `"ok"` or
//! `"error"`.
//! `queue_ms` is the gap between frame decode and execution start
//! (admission/queue wait, charged to the server), `latency_ms` the
//! service time proper; 0 for in-process serving with no wire.
//! When a [`TraceContext`](crate::TraceContext) is active for the request
//! the line additionally carries `"trace_id": "<16-char hex>"`, letting
//! client- and server-side trace streams be joined on one id.
//!
//! # JSONL schema (`ceps-flight/v1`)
//!
//! One object per flight-recorder event, produced by
//! [`flight_dump`](crate::flight_dump) (`ceps serve --flight-out`, the
//! `DumpFlight` wire request, or the installed panic hook) — see
//! [`crate::flight`] for the ring-buffer semantics:
//!
//! ```json
//! {"schema": "ceps-flight/v1", "t_us": 12345, "thread": 1, "seq": 7,
//!  "kind": "span_exit", "name": "serve.request",
//!  "trace_id": "00f1e2d3c4b5a697", "value": 2400000}
//! ```

use std::fmt::Write as _;

use crate::histogram::estimate;
use crate::meta::RunMeta;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Full `/`-joined path, e.g. `"query/stage.extract"`.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall time across all closures, in nanoseconds.
    pub total_ns: u64,
    /// Total time minus time spent in child spans, in nanoseconds.
    pub self_ns: u64,
    /// Fastest single closure, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single closure, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// The last traced observation that landed in one histogram bucket: a
/// concrete `trace_id` to chase when that bucket's count looks wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketExemplar {
    /// Exclusive upper bound of the bucket the observation fell into.
    pub le: f64,
    /// `trace_id` of the request that recorded the observation (never 0).
    pub trace_id: u64,
    /// The recorded value itself.
    pub value: f64,
}

/// Aggregated statistics for one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStat {
    /// Histogram name.
    pub name: String,
    /// Number of recorded observations (including non-finite ones).
    pub count: u64,
    /// Sum of all finite observations.
    pub sum: f64,
    /// Smallest finite observation (0 if none).
    pub min: f64,
    /// Largest finite observation (0 if none).
    pub max: f64,
    /// Non-empty buckets as `(exclusive upper bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Last traced observation per bucket that saw one, ascending by `le`.
    /// Empty unless observations were recorded under a sampled
    /// [`TraceContext`](crate::TraceContext).
    pub exemplars: Vec<BucketExemplar>,
}

impl HistogramStat {
    /// Mean of the finite observations (0 if the histogram is empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `p`-th percentile from the bucket counts with the
    /// [`Histogram`](crate::Histogram) estimator: within 1/32 of the true
    /// sample at that rank. Returns 0 when empty.
    pub fn percentile_from_buckets(&self, p: f64) -> f64 {
        estimate(
            self.buckets.iter().copied(),
            self.count,
            (self.min, self.max),
            p,
        )
    }
}

/// A consistent copy of everything the registry has aggregated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanStat>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges (point-in-time levels), sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram statistics, sorted by name.
    pub histograms: Vec<HistogramStat>,
}

impl MetricsSnapshot {
    /// Looks up a span stat by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the human-readable profile: an indented span tree with
    /// total/self times and call counts, followed by counters and
    /// histograms. This is what `--profile` prints.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>11} {:>11}",
            "span", "count", "total ms", "self ms"
        );
        // Children attach to the longest strict prefix (up to the last '/')
        // that exists as a recorded span; everything else is a root.
        let mut order: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut depth: Vec<usize> = Vec::with_capacity(self.spans.len());
        let parent_of = |path: &str| -> Option<usize> {
            let cut = path.rfind('/')?;
            self.spans.iter().position(|s| s.path == path[..cut])
        };
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match parent_of(&s.path) {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let by_time = |ids: &mut Vec<usize>| {
            ids.sort_by(|&a, &b| self.spans[b].total_ns.cmp(&self.spans[a].total_ns))
        };
        by_time(&mut roots);
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((i, d)) = stack.pop() {
            order.push(i);
            depth.push(d);
            let mut kids = children[i].clone();
            by_time(&mut kids);
            for &k in kids.iter().rev() {
                stack.push((k, d + 1));
            }
        }
        for (&i, &d) in order.iter().zip(&depth) {
            let s = &self.spans[i];
            let name = if d == 0 {
                s.path.clone()
            } else {
                s.path.rsplit('/').next().unwrap_or(&s.path).to_string()
            };
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>11.3} {:>11.3}",
                format!("{}{}", "  ".repeat(d), name),
                s.count,
                s.total_ms(),
                s.self_ms(),
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {:<42} {:>20}", name, value);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {:<42} {:>20}", name, value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>11} {:>11}",
                "histograms", "count", "mean", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<42} {:>7} {:>11.3} {:>11.3}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.max,
                );
            }
        }
        out
    }

    /// Serializes the snapshot with its run metadata to the `ceps-obs/v1`
    /// JSON document described in the module docs.
    pub fn to_json(&self, meta: &RunMeta) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"ceps-obs/v1\",\n  \"meta\": {");
        let _ = write!(
            out,
            "\"git_sha\": {}, \"threads\": {}, \"preset\": {}, \"timestamp\": {}, \"label\": {}}},\n",
            json_str(&meta.git_sha),
            meta.threads,
            json_str(&meta.preset),
            json_str(&meta.timestamp),
            json_str(&meta.label),
        );
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"count\": {}, \"total_ms\": {}, \"self_ms\": {}, \"min_ms\": {}, \"max_ms\": {}}}",
                json_str(&s.path),
                s.count,
                json_f64(s.total_ms()),
                json_f64(s.self_ms()),
                json_f64(s.min_ns as f64 / 1e6),
                json_f64(s.max_ns as f64 / 1e6),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(name), value);
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(name), value);
        }
        out.push_str("},\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json_str(&h.name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
            );
            for (j, &(le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le\": {}, \"count\": {}}}", json_f64(le), c);
            }
            out.push_str("], \"exemplars\": [");
            for (j, e) in h.exemplars.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"trace_id\": {}, \"value\": {}}}",
                    json_f64(e.le),
                    json_str(&crate::context::id_hex(e.trace_id)),
                    json_f64(e.value),
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.histograms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included). Every
/// hand-rolled JSON emitter in the workspace uses this one escaper.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` so it is always a valid JSON number: non-finite values
/// collapse to 0. The one rule every JSON and Prometheus emitter in the
/// workspace follows for NaN and infinities.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            spans: vec![
                SpanStat {
                    path: "query".into(),
                    count: 1,
                    total_ns: 3_000_000,
                    self_ns: 500_000,
                    min_ns: 3_000_000,
                    max_ns: 3_000_000,
                },
                SpanStat {
                    path: "query/stage.combine".into(),
                    count: 1,
                    total_ns: 2_500_000,
                    self_ns: 2_500_000,
                    min_ns: 2_500_000,
                    max_ns: 2_500_000,
                },
            ],
            counters: vec![("rwr.solves".into(), 2)],
            gauges: vec![("net.in_flight".into(), 3)],
            histograms: vec![HistogramStat {
                name: "rwr.iterations".into(),
                count: 2,
                sum: 100.0,
                min: 50.0,
                max: 50.0,
                buckets: vec![(64.0, 2)],
                exemplars: vec![BucketExemplar {
                    le: 64.0,
                    trace_id: 0xdead_beef,
                    value: 50.0,
                }],
            }],
        }
    }

    #[test]
    fn tree_indents_children_under_parents() {
        let text = sample().render_tree();
        assert!(text.contains("query"));
        assert!(
            text.contains("\n  stage.combine"),
            "child indented by two spaces:\n{text}"
        );
        assert!(text.contains("rwr.solves"));
        assert!(text.contains("net.in_flight"));
        assert!(text.contains("rwr.iterations"));
    }

    #[test]
    fn json_has_schema_meta_and_balanced_braces() {
        let meta = RunMeta {
            git_sha: "deadbeef".into(),
            threads: 4,
            preset: "tiny".into(),
            timestamp: "2026-01-01T00:00:00Z".into(),
            label: "test \"quoted\"".into(),
        };
        let json = sample().to_json(&meta);
        assert!(json.contains("\"schema\": \"ceps-obs/v1\""));
        assert!(json.contains("\"git_sha\": \"deadbeef\""));
        assert!(json.contains("\"gauges\": {\"net.in_flight\": 3}"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(
            json.contains("\"trace_id\": \"00000000deadbeef\""),
            "exemplar trace id rendered as fixed-width hex:\n{json}"
        );
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced brackets:\n{json}");
    }

    #[test]
    fn accessors_find_by_name() {
        let snap = sample();
        assert_eq!(snap.counter("rwr.solves"), Some(2));
        assert!(snap.span("query/stage.combine").is_some());
        assert!(snap.span("missing").is_none());
        assert_eq!(snap.histograms[0].mean(), 50.0);
    }
}
