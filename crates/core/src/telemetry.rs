//! Per-request trace emission for [`CepsService::handle`], the one request
//! handler behind stream replay and the `ceps-net` wire server
//! (`ceps-trace/v1` JSONL — the schema is documented with the other
//! schemas in `ceps_obs::snapshot`).
//!
//! A [`RequestTracer`] decides per request whether to keep a trace line,
//! combining two policies:
//!
//! * **Head sampling** — a deterministic hash of the request id against
//!   the configured rate, so a 1% rate keeps a reproducible 1% of traffic
//!   regardless of worker scheduling.
//! * **Tail sampling** — the tracer feeds every latency into one
//!   cumulative [`ceps_obs::Histogram`] (never reset) and *always* keeps
//!   requests slower than its p99 estimate (once [`TAIL_WARMUP`]
//!   observations exist): about 1% of a stationary stream, so outliers
//!   survive even aggressive head rates.
//!
//! Emission is a single locked write per sampled request; unsampled
//! requests cost one hash and one histogram update. The tracer never
//! changes computation — serving output is identical with or without one
//! attached.
//!
//! [`CepsService::handle`]: crate::CepsService::handle

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ceps_obs::{json_f64, json_str};

use crate::pipeline::StageTimes;

/// Observations the tail-sampler's histogram needs before its p99 estimate
/// is trusted; below this every request is head-sampled only.
pub const TAIL_WARMUP: u64 = 32;

/// Everything recorded about one served request — the payload of a
/// `ceps-trace/v1` line.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Request id: the stream index in replay (deterministic across
    /// runs), the frame id on the wire.
    pub request_id: u64,
    /// Worker thread that served it.
    pub worker: usize,
    /// Number of query nodes in the request.
    pub queries: usize,
    /// End-to-end request latency in milliseconds.
    pub latency_ms: f64,
    /// Queue delay in milliseconds: time between frame decode and the
    /// start of execution (admission wait etc.). 0 for in-process
    /// serving, where requests never queue behind a wire.
    pub queue_ms: f64,
    /// Per-stage wall times (zeroed when the request errored).
    pub stages: StageTimes,
    /// Distinct query rows served from the shared cache.
    pub cache_hits: u64,
    /// Distinct query rows solved cold.
    pub cache_misses: u64,
    /// Budget `b` the request ran under.
    pub budget: usize,
    /// Key paths extracted into the subgraph.
    pub paths: usize,
    /// `None` on success, the error message otherwise.
    pub error: Option<String>,
    /// `trace_id` of the [`ceps_obs::TraceContext`] active while the
    /// request was served (rendered as 16-char hex in the JSON line);
    /// `None` outside a traced scope.
    pub trace_id: Option<u64>,
}

/// Why a trace line was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Request id hashed under the head-sampling rate.
    Head,
    /// Latency above the p99 of every earlier request — kept regardless
    /// of the rate.
    Tail,
}

impl SampleKind {
    fn as_str(self) -> &'static str {
        match self {
            SampleKind::Head => "head",
            SampleKind::Tail => "tail",
        }
    }
}

struct TracerInner {
    out: Box<dyn Write + Send>,
    latency: ceps_obs::Histogram,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerInner")
            .field("latency_count", &self.latency.count())
            .finish_non_exhaustive()
    }
}

/// Head+tail-sampled JSONL trace sink shared by all serve workers.
#[derive(Debug)]
pub struct RequestTracer {
    sample_rate: f64,
    inner: Mutex<TracerInner>,
    written: AtomicU64,
}

impl RequestTracer {
    /// Wraps any writer. `sample_rate` is the head-sampling fraction,
    /// clamped into `[0, 1]` (`0` keeps only tail-sampled outliers, `1`
    /// keeps everything).
    pub fn new(out: Box<dyn Write + Send>, sample_rate: f64) -> Self {
        let sample_rate = if sample_rate.is_finite() {
            sample_rate.clamp(0.0, 1.0)
        } else {
            1.0
        };
        RequestTracer {
            sample_rate,
            inner: Mutex::new(TracerInner {
                out,
                latency: ceps_obs::Histogram::new(),
            }),
            written: AtomicU64::new(0),
        }
    }

    /// Opens (truncating) `path` as the trace sink.
    ///
    /// # Errors
    /// I/O errors creating the parent directory or the file.
    pub fn to_file(path: &Path, sample_rate: f64) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::File::create(path)?;
        Ok(Self::new(Box::new(file), sample_rate))
    }

    /// The head-sampling rate in effect.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Trace lines written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Deterministic head-sampling decision for a request id (one
    /// [`ceps_obs::splitmix64`] step from the id, mapped to `[0, 1)`
    /// against the rate).
    fn head_sampled(&self, request_id: u64) -> bool {
        if self.sample_rate >= 1.0 {
            return true;
        }
        if self.sample_rate <= 0.0 {
            return false;
        }
        let mut state = request_id;
        let z = ceps_obs::splitmix64(&mut state);
        ((z >> 11) as f64 / (1u64 << 53) as f64) < self.sample_rate
    }

    /// Feeds one finished request through the sampling policy, writing a
    /// `ceps-trace/v1` line when it is kept. Returns how the request was
    /// sampled, `None` when it was dropped.
    pub fn record(&self, trace: &RequestTrace) -> Option<SampleKind> {
        let head = self.head_sampled(trace.request_id);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Tail decision against the p99 of everything seen *before* this
        // request, once enough observations exist to trust the estimate.
        let tail = !head
            && inner.latency.count() >= TAIL_WARMUP
            && trace.latency_ms > inner.latency.percentile_from_buckets(99.0);
        inner.latency.record(trace.latency_ms);
        let kind = if head {
            SampleKind::Head
        } else if tail {
            SampleKind::Tail
        } else {
            return None;
        };
        let line = trace_json(trace, kind);
        if let Err(e) = writeln!(inner.out, "{line}").and_then(|()| inner.out.flush()) {
            ceps_obs::warn!("request tracer: cannot write trace line: {e}");
        } else {
            self.written.fetch_add(1, Ordering::Relaxed);
        }
        Some(kind)
    }
}

/// Serializes one kept request as a single-line `ceps-trace/v1` object.
pub fn trace_json(trace: &RequestTrace, kind: SampleKind) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"schema\": \"ceps-trace/v1\", \"request_id\": {}, \"worker\": {}, \
         \"queries\": {}, \"latency_ms\": {}, \"queue_ms\": {}, \"scores_ms\": {}, \"combine_ms\": {}, \
         \"extract_ms\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"budget\": {}, \
         \"paths\": {}, \"sampled\": \"{}\", \"outcome\": \"{}\"",
        trace.request_id,
        trace.worker,
        trace.queries,
        json_f64(trace.latency_ms),
        json_f64(trace.queue_ms),
        json_f64(trace.stages.scores_ms),
        json_f64(trace.stages.combine_ms),
        json_f64(trace.stages.extract_ms),
        trace.cache_hits,
        trace.cache_misses,
        trace.budget,
        trace.paths,
        kind.as_str(),
        if trace.error.is_none() { "ok" } else { "error" },
    );
    if let Some(msg) = &trace.error {
        let _ = write!(out, ", \"error\": {}", json_str(msg));
    }
    if let Some(id) = trace.trace_id {
        let _ = write!(out, ", \"trace_id\": \"{}\"", ceps_obs::id_hex(id));
    }
    out.push('}');
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handing its bytes to a shared buffer the test can read.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        pub(crate) fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    fn trace(id: u64, latency: f64) -> RequestTrace {
        RequestTrace {
            request_id: id,
            worker: 0,
            queries: 2,
            latency_ms: latency,
            queue_ms: 0.0,
            stages: StageTimes {
                scores_ms: latency * 0.7,
                combine_ms: latency * 0.1,
                extract_ms: latency * 0.2,
            },
            cache_hits: 1,
            cache_misses: 1,
            budget: 20,
            paths: 3,
            error: None,
            trace_id: None,
        }
    }

    #[test]
    fn rate_one_keeps_everything_rate_zero_keeps_nothing_cold() {
        let buf = SharedBuf::default();
        let all = RequestTracer::new(Box::new(buf.clone()), 1.0);
        for i in 0..10 {
            assert_eq!(all.record(&trace(i, 1.0)), Some(SampleKind::Head));
        }
        assert_eq!(all.written(), 10);
        assert_eq!(buf.lines().len(), 10);

        let none = RequestTracer::new(Box::new(SharedBuf::default()), 0.0);
        for i in 0..(TAIL_WARMUP - 1) {
            assert_eq!(none.record(&trace(i, 1.0)), None, "cold tracer drops");
        }
    }

    #[test]
    fn head_sampling_is_deterministic_and_near_rate() {
        let t = RequestTracer::new(Box::new(SharedBuf::default()), 0.25);
        let picks: Vec<bool> = (0..4000).map(|i| t.head_sampled(i)).collect();
        let again: Vec<bool> = (0..4000).map(|i| t.head_sampled(i)).collect();
        assert_eq!(picks, again, "same ids, same decisions");
        let kept = picks.iter().filter(|&&b| b).count();
        assert!(
            (800..=1200).contains(&kept),
            "~25% of 4000 expected, got {kept}"
        );
    }

    #[test]
    fn head_sampling_decisions_are_pinned_at_rate_one_half() {
        // Golden values: a change of mixer would change which requests a
        // `--trace-sample` run keeps.
        let t = RequestTracer::new(Box::new(SharedBuf::default()), 0.5);
        let ids = [0, 1, 2, 3, 4, 5, 6, 7, 42, 1000, 0xdead_beef, u64::MAX];
        let picks: Vec<bool> = ids.iter().map(|&i| t.head_sampled(i)).collect();
        assert_eq!(
            picks,
            [false, false, false, true, true, true, false, true, false, true, true, false]
        );
    }

    #[test]
    fn tail_sampling_keeps_slow_outliers_after_warmup() {
        let buf = SharedBuf::default();
        let t = RequestTracer::new(Box::new(buf.clone()), 0.0);
        for i in 0..TAIL_WARMUP {
            assert_eq!(t.record(&trace(i, 1.0)), None);
        }
        // Far above the p99 of the 1ms baseline: always kept.
        let kind = t.record(&trace(999, 50.0));
        assert_eq!(kind, Some(SampleKind::Tail));
        let lines = buf.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"sampled\": \"tail\""));
        // Normal latency right after is still dropped.
        assert_eq!(t.record(&trace(1000, 1.0)), None);
    }

    #[test]
    fn tail_sampling_keeps_about_one_percent_of_a_stationary_stream() {
        // Uniform [10, 20) ms: a p99 estimate clamped to the running max
        // would keep only new maxima (a few hundredths of a percent).
        let t = RequestTracer::new(Box::new(SharedBuf::default()), 0.0);
        let mut state = 0x7a11_u64;
        let draws = 20_000u64;
        let kept = (0..draws)
            .filter(|&i| {
                let u = (ceps_obs::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                t.record(&trace(i, 10.0 + 10.0 * u)) == Some(SampleKind::Tail)
            })
            .count();
        let share = kept as f64 / (draws - TAIL_WARMUP) as f64;
        assert!(
            (0.005..=0.02).contains(&share),
            "tail-kept share {share} (kept {kept} of {draws})"
        );
    }

    #[test]
    fn trace_json_is_one_line_with_schema_and_outcome() {
        let line = trace_json(&trace(7, 2.5), SampleKind::Head);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"schema\": \"ceps-trace/v1\""));
        assert!(line.contains("\"request_id\": 7"));
        assert!(line.contains("\"queue_ms\": 0"));
        assert!(line.contains("\"outcome\": \"ok\""));
        assert!(!line.contains("\"error\""));

        let mut failed = trace(8, 0.1);
        failed.error = Some("node 999 \"missing\"".into());
        let line = trace_json(&failed, SampleKind::Tail);
        assert!(line.contains("\"outcome\": \"error\""));
        assert!(line.contains("\"error\": \"node 999 \\\"missing\\\"\""));
        assert!(line.contains("\"sampled\": \"tail\""));
        let opens = line.matches(['{', '[']).count();
        assert_eq!(opens, line.matches(['}', ']']).count());
    }

    #[test]
    fn trace_json_renders_trace_id_as_fixed_width_hex() {
        let mut t = trace(9, 1.0);
        assert!(
            !trace_json(&t, SampleKind::Head).contains("trace_id"),
            "untraced requests omit the field"
        );
        t.trace_id = Some(0xabc);
        let line = trace_json(&t, SampleKind::Head);
        assert!(
            line.contains("\"trace_id\": \"0000000000000abc\""),
            "{line}"
        );
    }
}
