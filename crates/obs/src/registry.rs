//! Span stack, lock-sharded aggregation registry, counters and histograms.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::context::current_trace;
use crate::flight::{flight_event, FlightKind};
use crate::histogram::{bucket_index, upper_edge, Histogram};
use crate::snapshot::{BucketExemplar, MetricsSnapshot, SpanStat};

/// Global on/off gate. The only cost instrumented code pays when
/// observability is off is one relaxed load of this flag plus a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` once a recorder is installed. Use this to gate telemetry
/// whose *computation* is non-trivial (e.g. popcounts over DP occupancy
/// masks) so the disabled path stays a single branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts collecting spans, counters and histograms into the global
/// registry. Previously accumulated data is kept; call [`reset`] to clear.
pub fn install_recorder() {
    registry();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops collecting. Already-open spans still close cleanly (the
/// thread-local stack stays balanced) and their timings are recorded.
pub fn uninstall_recorder() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all aggregated spans, counters and histograms.
pub fn reset() {
    registry().clear();
}

/// Drains a consistent copy of everything aggregated so far.
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

const SHARDS: usize = 8;

/// FNV-1a over the key bytes, used only to pick a shard.
fn shard_of(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) % SHARDS
}

#[derive(Debug, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// A named registry histogram: the public [`Histogram`] plus its exemplars.
#[derive(Debug, Clone, Default)]
struct TracedHistogram {
    hist: Histogram,
    /// Last traced observation per bucket that saw one, ascending by
    /// `le`. A p99 spike in a high bucket thus names a concrete, dumpable
    /// request.
    exemplars: Vec<BucketExemplar>,
}

#[derive(Default)]
struct Shard {
    spans: HashMap<String, SpanAgg>,
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, i64>,
    histograms: HashMap<&'static str, TracedHistogram>,
}

struct Registry {
    shards: [Mutex<Shard>; SHARDS],
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
    })
}

impl Registry {
    fn shard(&self, key: &[u8]) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn record_span(&self, path: String, total_ns: u64, self_ns: u64) {
        let mut shard = self.shard(path.as_bytes());
        let agg = shard.spans.entry(path).or_default();
        agg.count += 1;
        agg.total_ns += total_ns;
        agg.self_ns += self_ns;
        agg.min_ns = agg.min_ns.min(total_ns);
        agg.max_ns = agg.max_ns.max(total_ns);
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        let mut shard = self.shard(name.as_bytes());
        *shard.counters.entry(name).or_insert(0) += delta;
    }

    fn set_gauge(&self, name: &'static str, value: i64) {
        let mut shard = self.shard(name.as_bytes());
        shard.gauges.insert(name, value);
    }

    fn add_gauge(&self, name: &'static str, delta: i64) {
        let mut shard = self.shard(name.as_bytes());
        *shard.gauges.entry(name).or_insert(0) += delta;
    }

    fn record_value(&self, name: &'static str, value: f64) {
        // The trace context is thread-local: read it before taking the
        // shard lock.
        let trace_id = current_trace()
            .filter(|c| c.sampled)
            .map_or(0, |c| c.trace_id);
        let mut shard = self.shard(name.as_bytes());
        let traced = shard.histograms.entry(name).or_default();
        traced.hist.record(value);
        if trace_id != 0 {
            let le = upper_edge(bucket_index(value));
            let e = BucketExemplar {
                le,
                trace_id,
                value,
            };
            match traced.exemplars.binary_search_by(|x| x.le.total_cmp(&le)) {
                Ok(k) => traced.exemplars[k] = e,
                Err(k) => traced.exemplars.insert(k, e),
            }
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            shard.spans.clear();
            shard.counters.clear();
            shard.gauges.clear();
            shard.histograms.clear();
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (path, agg) in &shard.spans {
                spans.push(SpanStat {
                    path: path.clone(),
                    count: agg.count,
                    total_ns: agg.total_ns,
                    self_ns: agg.self_ns,
                    min_ns: if agg.count == 0 { 0 } else { agg.min_ns },
                    max_ns: agg.max_ns,
                });
            }
            for (&name, &value) in &shard.counters {
                counters.push((name.to_string(), value));
            }
            for (&name, &value) in &shard.gauges {
                gauges.push((name.to_string(), value));
            }
            for (&name, traced) in &shard.histograms {
                let mut stat = traced.hist.to_stat(name);
                stat.exemplars.clone_from(&traced.exemplars);
                histograms.push(stat);
            }
        }
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        counters.sort();
        gauges.sort();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            spans,
            counters,
            gauges,
            histograms,
        }
    }
}

struct Frame {
    path: String,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a timed region. Created by [`span`]; records on drop.
#[must_use = "a span measures the region it is alive for — bind it to a guard variable"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under the innermost span already open
/// on this thread (paths join with `/`). No-op unless a recorder is
/// installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        if crate::flight::flight_enabled() {
            let trace_id = current_trace().map_or(0, |c| c.trace_id);
            flight_event(FlightKind::SpanEnter, &path, trace_id, 0);
        }
        stack.push(Frame { path, child_ns: 0 });
    });
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total_ns = start.elapsed().as_nanos() as u64;
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop();
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total_ns;
            }
            frame
        });
        if let Some(frame) = frame {
            if crate::flight::flight_enabled() {
                let trace_id = current_trace().map_or(0, |c| c.trace_id);
                flight_event(FlightKind::SpanExit, &frame.path, trace_id, total_ns);
            }
            registry().record_span(
                frame.path,
                total_ns,
                total_ns.saturating_sub(frame.child_ns),
            );
        }
    }
}

/// Adds `delta` to the monotonic counter `name`. No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    registry().add_counter(name, delta);
}

/// Records one observation of `value` into the histogram `name`. No-op when
/// disabled. Non-finite values count toward `count` but are excluded from
/// `sum`/`min`/`max` and land in the underflow bucket.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    registry().record_value(name, value);
}

/// Sets the gauge `name` to `value` (last write wins). Gauges are
/// point-in-time levels — queue depth, in-flight requests — unlike the
/// monotonic [`counter`]. No-op when disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    registry().set_gauge(name, value);
}

/// Adds `delta` (possibly negative) to the gauge `name`, creating it at 0
/// first. No-op when disabled.
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if !enabled() {
        return;
    }
    registry().add_gauge(name, delta);
}

/// Runs `f` under a span named `name` and returns its result together with
/// the measured wall time. The duration is measured even when the recorder
/// is off, so callers can use it for always-on reporting (e.g. stage
/// latency breakdowns) without double-timing.
#[inline]
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = {
        let _guard = span(name);
        f()
    };
    (out, start.elapsed())
}

/// The registry, enabled flags and flight rings are process-global;
/// tests that touch them serialize on this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_primitives_record_nothing() {
        let _guard = test_lock();
        uninstall_recorder();
        reset();
        {
            let _s = span("never");
            counter("never.count", 3);
            record("never.hist", 1.0);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn gauges_set_add_and_snapshot_sorted() {
        let _guard = test_lock();
        install_recorder();
        reset();
        gauge_set("g.depth", 4);
        gauge_set("g.depth", 7);
        gauge_add("g.in_flight", 3);
        gauge_add("g.in_flight", -1);
        gauge_add("g.a", -2);
        uninstall_recorder();
        let snap = snapshot();
        assert_eq!(
            snap.gauges,
            vec![
                ("g.a".to_string(), -2),
                ("g.depth".to_string(), 7),
                ("g.in_flight".to_string(), 2),
            ]
        );
        assert_eq!(snap.gauge("g.depth"), Some(7));
        assert_eq!(snap.gauge("missing"), None);
        // Disabled gauges record nothing.
        gauge_set("g.off", 1);
        assert_eq!(snapshot().gauge("g.off"), None);
    }

    #[test]
    fn nested_spans_build_paths_and_split_self_time() {
        let _guard = test_lock();
        install_recorder();
        reset();
        {
            let _outer = span("outer");
            std::hint::black_box(busy(200));
            {
                let _inner = span("inner");
                std::hint::black_box(busy(200));
            }
        }
        uninstall_recorder();
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns, "parent covers child");
        assert!(
            outer.self_ns <= outer.total_ns,
            "self time excludes child time"
        );
        assert!(outer.min_ns <= outer.max_ns);
    }

    #[test]
    fn counters_accumulate_and_histograms_bucket() {
        let _guard = test_lock();
        install_recorder();
        reset();
        counter("c.a", 2);
        counter("c.a", 3);
        counter("c.b", 1);
        record("h", 0.5);
        record("h", 4.0);
        record("h", 4.5);
        record("h", f64::NAN);
        uninstall_recorder();
        let snap = snapshot();
        assert_eq!(
            snap.counters,
            vec![("c.a".to_string(), 5), ("c.b".to_string(), 1)]
        );
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!(h.count, 4);
        assert!((h.sum - 9.0).abs() < 1e-12);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 4.5);
        // NaN lands in the first bucket; 0.5, 4.0 and 4.5 each get their
        // own, whose upper edge lies within 1/32 above the value.
        let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        assert_eq!(h.buckets.len(), 4);
        for v in [0.5, 4.0, 4.5] {
            assert!(
                h.buckets
                    .iter()
                    .any(|&(le, c)| c == 1 && le > v && le <= v * (1.0 + 1.0 / 32.0)),
                "{v} in its own bucket: {:?}",
                h.buckets
            );
        }
    }

    #[test]
    fn timed_returns_duration_even_when_disabled() {
        let _guard = test_lock();
        uninstall_recorder();
        let (out, dur) = timed("t", || busy(100));
        assert!(out > 0);
        assert!(dur.as_nanos() > 0 || dur.is_zero()); // just types/flow; no panic
        assert!(snapshot().spans.iter().all(|s| s.path != "t"));
    }

    fn busy(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc | 1
    }
}
