//! Windowed metrics and the continuous exporter.
//!
//! [`MetricsSnapshot`](crate::MetricsSnapshot) is a *cumulative* view: every
//! counter and histogram has grown since the recorder was installed. A live
//! serving process needs the other view — "what happened in the last few
//! seconds" — so this module adds:
//!
//! * [`WindowedMetrics`] — a bounded ring of timestamped registry
//!   snapshots with [`WindowedMetrics::delta`] computing counter deltas,
//!   per-second rates, and percentiles over only the observations that
//!   arrived inside the window (estimated on the
//!   [`Histogram`](crate::Histogram) grid).
//! * [`MetricsExporter`] — a background thread that snapshots the registry
//!   every N ms and flushes to two sinks: a Prometheus text-exposition file
//!   ([`to_prometheus`]) rewritten on every flush, and a JSONL event
//!   stream, started empty and appended to on every flush ([`metrics_event_json`], schema `ceps-metrics/v1` — see
//!   [`crate::snapshot`] for the schema catalogue). Dropping the exporter
//!   performs one final flush, so the `.prom` file always matches the final
//!   registry state. The window is seeded with a baseline snapshot when the
//!   exporter starts, so even a process that exits inside its first flush
//!   interval reports rates for the work it did — the final window delta is
//!   never lost.
//!
//! Histogram buckets that saw an observation under a sampled
//! [`TraceContext`](crate::TraceContext) carry *exemplars* — the last
//! contributing `trace_id` — exported in OpenMetrics exemplar syntax on
//! `_bucket` lines (`... # {trace_id="<hex>"} <value>`) and as an
//! `exemplars` array per histogram in the JSONL events, so a p99 spike
//! names a concrete trace to chase in the `ceps-trace/v1` /
//! `ceps-flight/v1` streams.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::context::id_hex;
use crate::histogram::estimate;
use crate::snapshot::{json_f64, json_str, BucketExemplar, MetricsSnapshot};

/// One timestamped snapshot inside a [`WindowedMetrics`] ring.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// Monotonic seconds since the window was created.
    t_s: f64,
    snap: MetricsSnapshot,
}

/// A bounded ring of timestamped registry snapshots with delta/rate
/// computation between the oldest and newest retained snapshot.
#[derive(Debug)]
pub struct WindowedMetrics {
    capacity: usize,
    epoch: Instant,
    ring: VecDeque<WindowEntry>,
}

impl WindowedMetrics {
    /// A window retaining the last `capacity` snapshots (clamped to ≥ 2 so
    /// a delta is eventually computable).
    pub fn new(capacity: usize) -> Self {
        WindowedMetrics {
            capacity: capacity.max(2),
            epoch: Instant::now(),
            ring: VecDeque::new(),
        }
    }

    /// Pushes a snapshot stamped with the current monotonic clock.
    pub fn push(&mut self, snap: MetricsSnapshot) {
        let t_s = self.epoch.elapsed().as_secs_f64();
        self.push_at(t_s, snap);
    }

    /// Pushes a snapshot with an explicit timestamp (seconds on any
    /// monotone clock). Exposed so tests can pin window durations.
    pub fn push_at(&mut self, t_s: f64, snap: MetricsSnapshot) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(WindowEntry { t_s, snap });
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no snapshot has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The most recently pushed snapshot.
    pub fn latest(&self) -> Option<&MetricsSnapshot> {
        self.ring.back().map(|e| &e.snap)
    }

    /// Deltas and rates between the oldest and newest retained snapshots,
    /// or `None` until two snapshots exist.
    pub fn delta(&self) -> Option<WindowDelta> {
        let (old, new) = match (self.ring.front(), self.ring.back()) {
            (Some(a), Some(b)) if self.ring.len() >= 2 => (a, b),
            _ => return None,
        };
        let span_s = (new.t_s - old.t_s).max(0.0);
        let rate = |delta: u64| {
            if span_s > 0.0 {
                delta as f64 / span_s
            } else {
                0.0
            }
        };

        let counters = new
            .snap
            .counters
            .iter()
            .map(|(name, value)| {
                let base = old.snap.counter(name).unwrap_or(0);
                let delta = value.saturating_sub(base);
                CounterRate {
                    name: name.clone(),
                    delta,
                    per_s: rate(delta),
                }
            })
            .collect();

        let histograms = new
            .snap
            .histograms
            .iter()
            .map(|h| {
                let base = old.snap.histograms.iter().find(|o| o.name == h.name);
                let base_count = base.map_or(0, |o| o.count);
                let base_sum = base.map_or(0.0, |o| o.sum);
                let count = h.count.saturating_sub(base_count);
                // Bounds come from the cumulative snapshot (the window does
                // not retrack min/max, so percentile clamping is slightly
                // loose, never wrong-bucket).
                let buckets = bucket_growth(&h.buckets, base.map_or(&[], |o| &o.buckets));
                let pct = |p: f64| estimate(buckets.iter().copied(), count, (h.min, h.max), p);
                // Tail exemplar: the highest bucket that grew inside the
                // window and remembers a trace — the request to chase when
                // the windowed p99 looks wrong. Falls back to the highest
                // cumulative exemplar so an id survives quiet windows.
                let exemplar = h
                    .exemplars
                    .iter()
                    .rev()
                    .find(|e| buckets.binary_search_by(|b| b.0.total_cmp(&e.le)).is_ok())
                    .or(h.exemplars.last())
                    .copied();
                HistogramWindow {
                    name: h.name.clone(),
                    count,
                    per_s: rate(count),
                    mean: if count == 0 {
                        0.0
                    } else {
                        (h.sum - base_sum) / count as f64
                    },
                    p50: pct(50.0),
                    p90: pct(90.0),
                    p99: pct(99.0),
                    buckets,
                    exemplar,
                }
            })
            .collect();

        Some(WindowDelta {
            span_s,
            counters,
            histograms,
        })
    }
}

/// Per-bucket growth from `old` to `new` (sparse `(le, count)` lists
/// ascending by `le`) in one merge-walk, dropping buckets that did not grow.
fn bucket_growth(new: &[(f64, u64)], old: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let mut old = old.iter().peekable();
    new.iter()
        .filter_map(|&(le, c)| {
            while old.next_if(|&&(l, _)| l < le).is_some() {}
            let base = old.next_if(|&&(l, _)| l == le).map_or(0, |&(_, c0)| c0);
            (c > base).then_some((le, c - base))
        })
        .collect()
}

/// What changed between the two ends of a [`WindowedMetrics`] ring.
#[derive(Debug, Clone)]
pub struct WindowDelta {
    /// Window duration in seconds.
    pub span_s: f64,
    /// Per-counter delta and per-second rate over the window.
    pub counters: Vec<CounterRate>,
    /// Per-histogram windowed count, rate, mean and percentiles.
    pub histograms: Vec<HistogramWindow>,
}

impl WindowDelta {
    /// Looks up a counter's windowed rate by name.
    pub fn counter(&self, name: &str) -> Option<&CounterRate> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Looks up a histogram's windowed stats by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramWindow> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Windowed view of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRate {
    /// Counter name.
    pub name: String,
    /// Increase over the window.
    pub delta: u64,
    /// Increase per second over the window.
    pub per_s: f64,
}

/// Windowed view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramWindow {
    /// Histogram name.
    pub name: String,
    /// Observations recorded inside the window.
    pub count: u64,
    /// Observations per second over the window.
    pub per_s: f64,
    /// Mean of the window's observations (0 when none).
    pub mean: f64,
    /// Estimated 50th percentile of the window's observations.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// The window's non-empty `(le, count)` buckets, ascending: those of
    /// a histogram that recorded only the window's observations.
    pub buckets: Vec<(f64, u64)>,
    /// Exemplar from the highest bucket that grew inside the window (the
    /// tail request to chase), falling back to the highest cumulative
    /// exemplar; `None` when no traced observation was ever recorded.
    pub exemplar: Option<BucketExemplar>,
}

/// Sanitizes a metric name into the Prometheus charset with the `ceps_`
/// prefix: every character outside `[a-zA-Z0-9_]` becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("ceps_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in Prometheus text-exposition format.
///
/// Counters export as `counter`, gauges as `gauge`, histograms as cumulative-bucket
/// `histogram` (`_bucket{le=...}` / `_sum` / `_count`), and span
/// aggregates as two labelled counters, `ceps_span_calls{path=...}` and
/// `ceps_span_seconds{path=...}`. All metric names carry the `ceps_`
/// prefix and are sanitized to the Prometheus charset. Buckets with a
/// recorded exemplar append it in OpenMetrics syntax:
/// `..._bucket{le="5.25"} 3 # {trace_id="00f1e2d3c4b5a697"} 5.2`.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for h in &snap.histograms {
        let n = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        // Buckets and exemplars both ascend by `le`: one forward walk.
        let mut exemplars = h.exemplars.iter().peekable();
        let mut cum = 0u64;
        for &(le, c) in &h.buckets {
            cum += c;
            let _ = write!(out, "{n}_bucket{{le=\"{}\"}} {cum}", json_f64(le));
            while exemplars.next_if(|e| e.le < le).is_some() {}
            if let Some(e) = exemplars.next_if(|e| e.le == le) {
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\"}} {}",
                    id_hex(e.trace_id),
                    json_f64(e.value)
                );
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", json_f64(h.sum));
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    if !snap.spans.is_empty() {
        out.push_str("# TYPE ceps_span_calls counter\n");
        for s in &snap.spans {
            let _ = writeln!(
                out,
                "ceps_span_calls{{path=\"{}\"}} {}",
                prom_label(&s.path),
                s.count
            );
        }
        out.push_str("# TYPE ceps_span_seconds counter\n");
        for s in &snap.spans {
            let _ = writeln!(
                out,
                "ceps_span_seconds{{path=\"{}\"}} {}",
                prom_label(&s.path),
                json_f64(s.total_ns as f64 / 1e9)
            );
        }
    }
    out
}

/// Serializes one exporter flush as a single-line `ceps-metrics/v1` JSON
/// event (see [`crate::snapshot`] for the schema catalogue).
///
/// `counters` carries the cumulative values from `snap`; `rates` and the
/// histogram percentiles come from `delta` when a window is available
/// (before two snapshots exist, `rates` is empty and histograms fall back
/// to cumulative percentiles).
pub fn metrics_event_json(
    snap: &MetricsSnapshot,
    delta: Option<&WindowDelta>,
    seq: u64,
    unix_ms: u64,
    interval_ms: u64,
) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\": \"ceps-metrics/v1\", \"seq\": {seq}, \"unix_ms\": {unix_ms}, \
         \"interval_ms\": {interval_ms}, \"window_s\": {}, \"counters\": {{",
        json_f64(delta.map_or(0.0, |d| d.span_s)),
    );
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(name), value);
    }
    out.push_str("}, \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(name), value);
    }
    out.push_str("}, \"rates\": {");
    if let Some(delta) = delta {
        for (i, c) in delta.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(&c.name), json_f64(c.per_s));
        }
    }
    out.push_str("}, \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let windowed = delta.and_then(|d| d.histogram(&h.name));
        let (count, per_s, mean, p50, p90, p99) = match windowed {
            Some(w) => (w.count, w.per_s, w.mean, w.p50, w.p90, w.p99),
            None => (
                h.count,
                0.0,
                h.mean(),
                h.percentile_from_buckets(50.0),
                h.percentile_from_buckets(90.0),
                h.percentile_from_buckets(99.0),
            ),
        };
        let _ = write!(
            out,
            "{{\"name\": {}, \"total_count\": {}, \"count\": {count}, \"per_s\": {}, \
             \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"exemplars\": [",
            json_str(&h.name),
            h.count,
            json_f64(per_s),
            json_f64(mean),
            json_f64(p50),
            json_f64(p90),
            json_f64(p99),
        );
        for (j, e) in h.exemplars.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"le\": {}, \"trace_id\": {}, \"value\": {}}}",
                json_f64(e.le),
                json_str(&id_hex(e.trace_id)),
                json_f64(e.value),
            );
        }
        out.push_str("]}");
    }
    out.push_str("], \"spans\": [");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"path\": {}, \"count\": {}, \"total_ms\": {}}}",
            json_str(&s.path),
            s.count,
            json_f64(s.total_ms()),
        );
    }
    out.push_str("]}");
    out
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Configuration for a [`MetricsExporter`].
#[derive(Debug, Clone)]
pub struct ExporterConfig {
    /// Flush period.
    pub interval: Duration,
    /// Prometheus text-exposition file, rewritten atomically-enough (full
    /// truncate + write) on every flush. `None` disables the sink.
    pub prom_path: Option<PathBuf>,
    /// `ceps-metrics/v1` JSONL event stream: truncated when the exporter
    /// starts, then one line appended per flush. `None` disables the sink.
    pub events_path: Option<PathBuf>,
}

/// Snapshots a [`MetricsExporter`] retains for windowed rates: the window
/// spans roughly `8 × interval`.
const EXPORTER_WINDOW: usize = 8;

impl ExporterConfig {
    /// A config flushing every `interval_ms` milliseconds with no sinks
    /// yet; add them with [`ExporterConfig::prom`] /
    /// [`ExporterConfig::events`].
    pub fn new(interval_ms: u64) -> Self {
        ExporterConfig {
            interval: Duration::from_millis(interval_ms.max(1)),
            prom_path: None,
            events_path: None,
        }
    }

    /// Sets the Prometheus sink.
    #[must_use]
    pub fn prom(mut self, path: impl Into<PathBuf>) -> Self {
        self.prom_path = Some(path.into());
        self
    }

    /// Sets the JSONL event-stream sink.
    #[must_use]
    pub fn events(mut self, path: impl Into<PathBuf>) -> Self {
        self.events_path = Some(path.into());
        self
    }
}

/// Background thread flushing periodic registry snapshots to the
/// configured sinks. Stops — after one final flush — when dropped, so the
/// sinks always reflect the final registry state.
///
/// The exporter only *reads* the global registry; install the recorder
/// ([`crate::install_recorder`]) before starting it or every flush will be
/// empty. No thread exists unless one of these is constructed.
#[derive(Debug)]
pub struct MetricsExporter {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// Creates the sink files (truncating an existing `.prom` or event
    /// stream, so a rerun never appends to an earlier run's events) and
    /// starts the flush thread.
    ///
    /// # Errors
    /// I/O errors creating parent directories or opening either sink.
    pub fn start(config: ExporterConfig) -> io::Result<MetricsExporter> {
        for path in [&config.prom_path, &config.events_path]
            .into_iter()
            .flatten()
        {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
        }
        if let Some(p) = &config.prom_path {
            fs::write(p, "")?;
        }
        let events = config
            .events_path
            .as_deref()
            .map(|p: &Path| fs::File::create(p))
            .transpose()?;

        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("ceps-metrics-exporter".into())
            .spawn(move || run_exporter(&config, events, &thread_stop))?;
        Ok(MetricsExporter {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the flush thread after one final flush (same as dropping).
    pub fn stop(self) {}
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The exporter thread body: flush every `config.interval`, polling the
/// stop flag at fine granularity so shutdown is prompt, then flush once
/// more on the way out.
///
/// The window is seeded with a baseline snapshot *before* the first wait,
/// not at the end of the first interval. Without the seed, a server that
/// receives `Shutdown` inside its first interval would reach the final
/// flush with a single-snapshot window — no delta, so the JSONL event for
/// the whole (short) life of the process would report empty `rates` and
/// cumulative-only percentiles. Seeding makes the final window delta span
/// start→exit in the worst case instead of vanishing.
fn run_exporter(config: &ExporterConfig, mut events: Option<fs::File>, stop: &AtomicBool) {
    let mut window = WindowedMetrics::new(EXPORTER_WINDOW);
    window.push(crate::snapshot());
    let mut seq = 0u64;
    let poll = Duration::from_millis(10).min(config.interval);
    loop {
        let mut waited = Duration::ZERO;
        while waited < config.interval && !stop.load(Ordering::Relaxed) {
            thread::sleep(poll);
            waited += poll;
        }
        let stopping = stop.load(Ordering::Relaxed);
        flush_once(config, &mut events, &mut window, seq);
        seq += 1;
        if stopping {
            return;
        }
    }
}

/// One flush: snapshot the registry, update the window, rewrite the
/// Prometheus file and append one JSONL event. Sink I/O errors are logged
/// (once per flush) rather than crashing the serving process.
fn flush_once(
    config: &ExporterConfig,
    events: &mut Option<fs::File>,
    window: &mut WindowedMetrics,
    seq: u64,
) {
    let snap = crate::snapshot();
    window.push(snap.clone());
    let delta = window.delta();
    if let Some(path) = &config.prom_path {
        if let Err(e) = fs::write(path, to_prometheus(&snap)) {
            crate::warn!("metrics exporter: cannot write {}: {e}", path.display());
        }
    }
    if let Some(file) = events {
        let line = metrics_event_json(
            &snap,
            delta.as_ref(),
            seq,
            unix_ms_now(),
            config.interval.as_millis() as u64,
        );
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            crate::warn!("metrics exporter: cannot append event: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanStat;
    use crate::{splitmix64, Histogram};

    fn uniform_hist(values: impl IntoIterator<Item = f64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentiles_on_uniform_distribution_land_in_bucket_bounds() {
        // 1..=1024 uniformly: exact percentiles are p/100 * 1024.
        let h = uniform_hist((1..=1024).map(f64::from));
        for p in [10.0f64, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let exact = (p / 100.0 * 1024.0).ceil();
            let est = h.percentile_from_buckets(p);
            // The estimate must land inside the log₂ bucket holding the
            // exact nearest-rank value: [2^floor(log2 v), 2^(floor+1)).
            let lb = 2f64.powi(exact.log2().floor() as i32);
            assert!(
                est >= lb && est <= lb * 2.0,
                "p{p}: estimate {est} outside bucket [{lb}, {}] of exact {exact}",
                lb * 2.0
            );
        }
        assert_eq!(h.percentile_from_buckets(0.0), 1.0, "p0 is the minimum");
        assert_eq!(h.percentile_from_buckets(-3.0), 1.0);
        assert_eq!(h.percentile_from_buckets(100.0), 1024.0, "p100 is the max");
        assert_eq!(h.percentile_from_buckets(f64::NAN), 1024.0);
    }

    #[test]
    fn percentiles_on_bimodal_distribution_pick_the_right_mode() {
        // 90 observations near 1.5, 10 near 1000: p50 must sit in the low
        // mode's bucket, p99 in the high mode's.
        let h = uniform_hist(
            std::iter::repeat(1.5)
                .take(90)
                .chain(std::iter::repeat(1000.0).take(10)),
        );
        let p50 = h.percentile_from_buckets(50.0);
        assert!((1.0..2.0).contains(&p50), "p50 {p50} not in low bucket");
        let p99 = h.percentile_from_buckets(99.0);
        assert!(
            (512.0..1024.0).contains(&p99),
            "p99 {p99} not in high bucket"
        );
        // The crossover boundary: p90's rank is the low mode's last
        // observation, so interpolation tops out at the bucket edge.
        assert!(h.percentile_from_buckets(90.0) <= 2.0);
        assert!(h.percentile_from_buckets(91.0) > 512.0);
    }

    #[test]
    fn percentiles_on_single_bucket_stay_within_observed_range() {
        let h = uniform_hist([4.0, 4.5, 5.0, 7.9]);
        for p in [1.0, 50.0, 99.0] {
            let est = h.percentile_from_buckets(p);
            assert!(
                (4.0..=7.9).contains(&est),
                "p{p}: {est} outside observed [4, 7.9]"
            );
        }
        assert_eq!(h.percentile_from_buckets(0.0), 4.0);
        assert_eq!(h.percentile_from_buckets(100.0), 7.9);
    }

    #[test]
    fn empty_histogram_is_zero_everywhere() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for p in [0.0, 50.0, 100.0, f64::NAN] {
            assert_eq!(h.percentile_from_buckets(p), 0.0);
        }
    }

    fn snap(counter: u64, hist_values: &[f64]) -> MetricsSnapshot {
        let h = uniform_hist(hist_values.iter().copied());
        MetricsSnapshot {
            spans: vec![SpanStat {
                path: "serve.request".into(),
                count: counter,
                total_ns: counter * 1_000_000,
                self_ns: counter * 1_000_000,
                min_ns: 1_000_000,
                max_ns: 1_000_000,
            }],
            counters: vec![("serve.requests".into(), counter)],
            gauges: Vec::new(),
            histograms: vec![h.to_stat("serve.latency_ms")],
        }
    }

    #[test]
    fn window_deltas_compute_rates_and_windowed_percentiles() {
        let mut w = WindowedMetrics::new(4);
        assert!(w.delta().is_none(), "no delta before two snapshots");
        w.push_at(0.0, snap(10, &[1.0, 1.0, 1.0]));
        assert!(w.delta().is_none());
        w.push_at(2.0, snap(30, &[1.0, 1.0, 1.0, 64.0, 64.0, 80.0]));
        let d = w.delta().expect("two snapshots give a delta");
        assert_eq!(d.span_s, 2.0);
        let c = d.counter("serve.requests").unwrap();
        assert_eq!(c.delta, 20);
        assert_eq!(c.per_s, 10.0);
        let h = d.histogram("serve.latency_ms").unwrap();
        assert_eq!(h.count, 3, "only the window's observations count");
        assert_eq!(h.per_s, 1.5);
        // All three windowed observations sit in the [64, 128) bucket, so
        // every percentile must land there — the cumulative p50 would not.
        for p in [h.p50, h.p90, h.p99] {
            assert!((64.0..=128.0).contains(&p), "windowed percentile {p}");
        }
        assert!((h.mean - (64.0 + 64.0 + 80.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn window_delta_has_exactly_the_buckets_of_the_window_alone() {
        let mut state = 0xde17a_u64;
        for case in 0..50 {
            let draw = |state: &mut u64| {
                let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
                (8.0 * u - 2.0).exp2()
            };
            let before: Vec<f64> = (0..splitmix64(&mut state) % 2_000)
                .map(|_| draw(&mut state))
                .collect();
            let inside: Vec<f64> = (0..splitmix64(&mut state) % 2_000)
                .map(|_| draw(&mut state))
                .collect();
            let all: Vec<f64> = before.iter().chain(&inside).copied().collect();
            let mut w = WindowedMetrics::new(2);
            w.push_at(0.0, snap(0, &before));
            w.push_at(1.0, snap(0, &all));
            let d = w.delta().unwrap();
            let h = d.histogram("serve.latency_ms").unwrap();
            let alone = uniform_hist(inside.iter().copied()).to_stat("serve.latency_ms");
            assert_eq!(h.count, alone.count, "case {case}");
            assert_eq!(h.buckets, alone.buckets, "case {case}");
        }
    }

    #[test]
    fn window_ring_is_bounded_and_drops_the_oldest() {
        let mut w = WindowedMetrics::new(2);
        for i in 0..5u64 {
            w.push_at(i as f64, snap(i * 10, &[]));
        }
        assert_eq!(w.len(), 2);
        let d = w.delta().unwrap();
        assert_eq!(d.span_s, 1.0, "window spans only the retained pair");
        assert_eq!(d.counter("serve.requests").unwrap().delta, 10);
        assert_eq!(w.latest().unwrap().counter("serve.requests"), Some(40));
    }

    #[test]
    fn prometheus_rendering_has_types_escapes_and_cumulative_buckets() {
        let mut s = snap(3, &[1.0, 1.0, 70.0]);
        s.spans[0].path = "a\"b\\c\nd".into();
        let text = to_prometheus(&s);
        assert!(text.contains("# TYPE ceps_serve_requests counter"));
        assert!(text.contains("ceps_serve_requests 3"));
        assert!(text.contains("# TYPE ceps_serve_latency_ms histogram"));
        assert!(text.contains("ceps_serve_latency_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ceps_serve_latency_ms_count 3"));
        assert!(text.contains("ceps_serve_latency_ms_sum 72"));
        assert!(
            text.contains("{path=\"a\\\"b\\\\c\\nd\"}"),
            "label escaping:\n{text}"
        );
        // Buckets are cumulative: the last `le` bound carries the total.
        let cum: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .collect();
        assert_eq!(cum.len(), 2);
        assert!(cum[0].ends_with(" 2") && cum[1].ends_with(" 3"), "{cum:?}");
    }

    #[test]
    fn prometheus_and_event_json_render_gauges() {
        let mut s = snap(1, &[]);
        s.gauges = vec![("net.in_flight".into(), 2), ("net.queue_depth".into(), 0)];
        let text = to_prometheus(&s);
        assert!(text.contains("# TYPE ceps_net_in_flight gauge"));
        assert!(text.contains("ceps_net_in_flight 2"));
        assert!(text.contains("ceps_net_queue_depth 0"));
        let line = metrics_event_json(&s, None, 0, 0, 250);
        assert!(
            line.contains("\"gauges\": {\"net.in_flight\": 2, \"net.queue_depth\": 0}"),
            "gauges in the metrics event:\n{line}"
        );
        let opens = line.matches(['{', '[']).count();
        let closes = line.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced:\n{line}");
    }

    #[test]
    fn prometheus_bucket_lines_carry_exemplars() {
        // 1.0 lands in [1, 1.03125), 70.0 in [70, 72).
        let mut s = snap(3, &[1.0, 1.0, 70.0]);
        s.histograms[0].exemplars = vec![BucketExemplar {
            le: 72.0,
            trace_id: 0xabc,
            value: 70.0,
        }];
        let text = to_prometheus(&s);
        assert!(
            text.contains(
                "ceps_serve_latency_ms_bucket{le=\"72\"} 3 # {trace_id=\"0000000000000abc\"} 70"
            ),
            "exemplar on the tail bucket line:\n{text}"
        );
        // The low bucket has no exemplar — its line ends with the count.
        assert!(text.contains("ceps_serve_latency_ms_bucket{le=\"1.03125\"} 2\n"));
        // +Inf never carries one.
        assert!(text.contains("_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn windowed_exemplar_points_at_tail_bucket_of_the_window() {
        let mut w = WindowedMetrics::new(4);
        let mut a = snap(10, &[1.0, 1.0]);
        a.histograms[0].exemplars = vec![BucketExemplar {
            le: 2.0,
            trace_id: 0x111,
            value: 1.0,
        }];
        w.push_at(0.0, a);
        let mut b = snap(30, &[1.0, 1.0, 70.0]);
        b.histograms[0].exemplars = vec![
            BucketExemplar {
                le: 2.0,
                trace_id: 0x111,
                value: 1.0,
            },
            BucketExemplar {
                le: 128.0,
                trace_id: 0x999,
                value: 70.0,
            },
        ];
        w.push_at(1.0, b);
        let d = w.delta().unwrap();
        let h = d.histogram("serve.latency_ms").unwrap();
        // Only the 70.0 observation arrived in the window; the windowed
        // exemplar must name its trace, not the stale low-bucket one.
        assert_eq!(h.count, 1);
        assert_eq!(h.exemplar.map(|e| e.trace_id), Some(0x999));
    }

    #[test]
    fn metrics_event_is_single_line_json_with_schema() {
        let mut w = WindowedMetrics::new(4);
        w.push_at(0.0, snap(0, &[]));
        w.push_at(1.0, snap(5, &[2.0]));
        let line = metrics_event_json(w.latest().unwrap(), w.delta().as_ref(), 7, 123, 250);
        assert!(!line.contains('\n'), "must be one JSONL line");
        assert!(line.starts_with("{\"schema\": \"ceps-metrics/v1\""));
        assert!(line.contains("\"seq\": 7"));
        assert!(line.contains("\"interval_ms\": 250"));
        assert!(line.contains("\"serve.requests\": 5"));
        let opens = line.matches(['{', '[']).count();
        let closes = line.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced:\n{line}");
    }

    #[test]
    fn exporter_flushes_on_drop_and_appends_events() {
        let dir = std::env::temp_dir().join("ceps_obs_exporter_test");
        let _ = fs::remove_dir_all(&dir);
        let prom = dir.join("m.prom");
        let events = dir.join("m.jsonl");
        {
            let _exporter =
                MetricsExporter::start(ExporterConfig::new(5).prom(&prom).events(&events)).unwrap();
            thread::sleep(Duration::from_millis(30));
        } // drop → final flush
        let text = fs::read_to_string(&prom).unwrap();
        // Registry may be empty (no recorder in this test) — the file still
        // exists and is valid (possibly zero metrics).
        assert!(text.is_empty() || text.contains("# TYPE"));
        let events_text = fs::read_to_string(&events).unwrap();
        assert!(
            events_text.lines().count() >= 2,
            "periodic + final flush: {events_text:?}"
        );
        for line in events_text.lines() {
            assert!(line.starts_with("{\"schema\": \"ceps-metrics/v1\""));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exporter_replaces_an_existing_events_file() {
        let dir = std::env::temp_dir().join("ceps_obs_exporter_truncate_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let events = dir.join("m.jsonl");
        fs::write(&events, "stale line from an earlier run\n").unwrap();
        MetricsExporter::start(ExporterConfig::new(5).events(&events))
            .unwrap()
            .stop();
        let text = fs::read_to_string(&events).unwrap();
        assert!(!text.contains("stale"), "events file appended to: {text:?}");
        assert!(text.lines().count() >= 1, "final flush wrote an event");
        for line in text.lines() {
            assert!(line.starts_with("{\"schema\": \"ceps-metrics/v1\""));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_event_histograms_carry_exemplars() {
        let mut s = snap(3, &[1.0, 1.0, 70.0]);
        s.histograms[0].exemplars = vec![BucketExemplar {
            le: 128.0,
            trace_id: 0xfeed,
            value: 70.0,
        }];
        let line = metrics_event_json(&s, None, 0, 0, 250);
        assert!(
            line.contains(
                "\"exemplars\": [{\"le\": 128, \"trace_id\": \"000000000000feed\", \"value\": 70}]"
            ),
            "exemplar array in histogram event:\n{line}"
        );
        assert!(!line.contains('\n'));
        let opens = line.matches(['{', '[']).count();
        let closes = line.matches(['}', ']']).count();
        assert_eq!(opens, closes, "balanced:\n{line}");
    }

    #[test]
    fn final_flush_on_fast_shutdown_keeps_window_delta_and_matches_registry() {
        // A server that takes a `Shutdown` inside the exporter's first
        // interval must still report rates for the work it did: the window
        // is seeded at start, so the final delta spans start→exit instead
        // of not existing. Interval is set far beyond the test's lifetime
        // so the *only* sink writes are the final flush on drop.
        let _guard = crate::registry::test_lock();
        let dir = std::env::temp_dir().join("ceps_obs_fast_shutdown_test");
        let _ = fs::remove_dir_all(&dir);
        let prom = dir.join("m.prom");
        let events = dir.join("m.jsonl");
        crate::install_recorder();
        crate::reset();
        {
            let exporter =
                MetricsExporter::start(ExporterConfig::new(60_000).prom(&prom).events(&events))
                    .unwrap();
            // Work arrives after the exporter started (baseline seeded).
            crate::counter("serve.requests", 7);
            crate::record("serve.latency_ms", 3.5);
            drop(exporter); // "Shutdown" long before the first interval.
        }
        let final_prom = fs::read_to_string(&prom).unwrap();
        let registry_prom = to_prometheus(&crate::snapshot());
        crate::uninstall_recorder();
        assert_eq!(
            final_prom, registry_prom,
            "final .prom must match the registry snapshot exactly"
        );
        assert!(final_prom.contains("ceps_serve_requests 7"));
        let events_text = fs::read_to_string(&events).unwrap();
        let last = events_text.lines().last().expect("final event written");
        assert!(
            !last.contains("\"rates\": {}"),
            "final event must carry the last window delta:\n{last}"
        );
        assert!(last.contains("\"serve.requests\": 7"));
        let _ = fs::remove_dir_all(&dir);
    }
}
