//! [`CepsServer`]: the long-lived serving loop behind the wire boundary.
//!
//! One server owns one [`CepsService`] (engine + row cache) and fans
//! inbound connections over a bounded worker set. Each worker speaks
//! `ceps-wire/v1` on its connection: requests are answered in order, one
//! at a time per connection; concurrency comes from many connections.
//!
//! Three guard rails keep a misbehaving or overeager client from taking
//! the service down:
//!
//! * a **max-frame guard** — oversized frames are rejected from the
//!   header alone, before any payload is buffered;
//! * **admission control** — at most `max_in_flight` queries execute at
//!   once; excess queries get a structured `Overloaded` reply. Each worker
//!   runs one query at a time, so at the default cap (the worker count)
//!   nothing is ever refused: excess connections wait in the connection
//!   queue instead, and only a cap below the worker count sheds;
//! * **timeouts** — reads poll in short slices (so shutdown is observed
//!   between frames), idle connections are reaped, and writes carry a
//!   deadline.
//!
//! A `Shutdown` frame (or [`CepsServer::request_stop`]) drains the
//! server: in-progress requests finish, every worker closes its
//! connection at the next frame boundary, and `serve` returns the final
//! [`ServerStats`].
//!
//! ## End-to-end tracing
//!
//! When a `Query` frame carries a [`WireTrace`],
//! the worker adopts that context for the request: server spans,
//! histogram exemplars, flight-recorder events, and the per-request
//! `ceps-trace/v1` line (when a tracer is attached via
//! [`CepsServer::with_tracer`]) all share the client's `trace_id`. The
//! query itself, its `serve.*` metrics and its trace line go through
//! [`CepsService::handle`] — the same handler stream replay uses.
//! Untraced queries get a fresh root context so server-side telemetry is
//! attributable either way. Sheds and error replies are noted in the
//! flight recorder (when enabled), and a `DumpFlight` frame returns the
//! ring as `ceps-flight/v1` JSONL. `Stats` replies to a full health
//! snapshot: counters, in-flight, cache stats, and latency percentiles
//! over the last 512–1,023 queries ([`LATENCY_WINDOW`]).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ceps_core::{infer_soft_and_k, CepsService, RequestOrigin, RequestTracer, ServeReply};
use ceps_obs::{counter, flight_note, record, FlightKind, Histogram, TraceContext};

use crate::transport::{Conn, Transport};
use crate::wire::{
    Framed, Reply, Request, WireError, WireErrorKind, WireTrace, DEFAULT_MAX_FRAME_BYTES,
    WIRE_VERSION,
};

/// Tuning knobs for [`CepsServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handling worker threads (at least 1).
    pub workers: usize,
    /// Maximum queries executing at once before `Overloaded` sheds kick
    /// in; `0` means "match the worker count".
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            max_in_flight: 0,
        }
    }
}

/// A connection is closed after this long without a frame.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Write deadline per reply frame.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long each accept poll waits before re-checking for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(250);

/// Admission control: a counting gate over concurrently executing
/// queries. Public so tests can saturate it deterministically and assert
/// the server sheds.
#[derive(Debug)]
pub struct Admission {
    cap: usize,
    in_flight: AtomicUsize,
}

impl Admission {
    /// A gate admitting at most `cap` concurrent holders.
    pub fn new(cap: usize) -> Self {
        Admission {
            cap: cap.max(1),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// The concurrency cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Queries executing right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Tries to admit one query; `None` when the cap is reached. The
    /// returned permit releases its slot on drop.
    pub fn try_acquire(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let mut cur = self.in_flight.load(Ordering::Acquire);
        loop {
            if cur >= self.cap {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    ceps_obs::gauge_set("net.in_flight", (cur + 1) as i64);
                    return Some(AdmissionPermit(Arc::clone(self)));
                }
                Err(now) => cur = now,
            }
        }
    }
}

/// RAII admission slot; dropping it re-opens the gate for one query.
#[derive(Debug)]
pub struct AdmissionPermit(Arc<Admission>);

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let prev = self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
        ceps_obs::gauge_set("net.in_flight", prev.saturating_sub(1) as i64);
    }
}

/// Observations per half of the [`ServerStats`] percentile window: a
/// current and a previous histogram rotate every `LATENCY_WINDOW` queries,
/// so the window holds the last 512–1,023 (all, before the first rotation).
pub const LATENCY_WINDOW: usize = 512;

/// One series of the `Stats` window: the histogram being filled and the
/// full one it last replaced.
#[derive(Default)]
struct RecentHistogram {
    current: Histogram,
    previous: Histogram,
}

impl RecentHistogram {
    fn record(&mut self, value: f64) {
        self.current.record(value);
        if self.current.count() == LATENCY_WINDOW as u64 {
            self.previous = std::mem::take(&mut self.current);
        }
    }

    /// Both halves as one histogram.
    fn merged(&self) -> Histogram {
        let mut both = self.previous.clone();
        both.merge(&self.current);
        both
    }
}

/// Row-cache counters in wire form (mirrors `ceps_core::CacheStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct WireCacheStats {
    /// Query rows served warm.
    pub hits: u64,
    /// Query rows solved cold.
    pub misses: u64,
    /// Rows evicted under the byte budget.
    pub evictions: u64,
    /// Rows refused because each alone exceeds the byte budget (absent
    /// from older v1 servers' snapshots, which decode it as 0).
    #[serde(default)]
    pub rejected: u64,
}

/// Health snapshot a `Stats` frame returns (and `serve` on exit).
///
/// The windowed percentile and cache fields are `#[serde(default)]` so
/// snapshots from older v1 servers (which omit them) still decode.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerStats {
    /// Protocol version ([`WIRE_VERSION`]).
    pub proto: String,
    /// Connections accepted since start.
    pub connections: u64,
    /// Frames decoded since start (all request kinds).
    pub frames: u64,
    /// `Query` + `AutoK` frames admitted and executed.
    pub queries: u64,
    /// Requests shed with `Overloaded`.
    pub sheds: u64,
    /// Error replies sent (sheds included) plus undecodable frames.
    pub errors: u64,
    /// Queries executing at snapshot time.
    pub in_flight: usize,
    /// Milliseconds since the server was created.
    pub uptime_ms: u64,
    /// Median query latency over the last 512–1,023 queries (see
    /// [`LATENCY_WINDOW`]), within 1/32; 0 until a query completed.
    #[serde(default)]
    pub p50_ms: f64,
    /// 90th-percentile windowed query latency.
    #[serde(default)]
    pub p90_ms: f64,
    /// 99th-percentile windowed query latency.
    #[serde(default)]
    pub p99_ms: f64,
    /// Median queue delay (frame decode → execution start) over the same
    /// window — the share of latency charged to waiting, not serving.
    #[serde(default)]
    pub queue_p50_ms: f64,
    /// 99th-percentile windowed queue delay.
    #[serde(default)]
    pub queue_p99_ms: f64,
    /// Row-cache counters (`None` when the service runs uncached).
    #[serde(default)]
    pub cache: Option<WireCacheStats>,
    /// Fraction of the row-cache byte budget currently occupied, in
    /// `[0, 1]` (0 when uncached) — whether warming actually populated
    /// the cache.
    #[serde(default)]
    pub cache_fill: f64,
    /// Rows currently resident in the row cache.
    #[serde(default)]
    pub cache_rows: u64,
    /// Rows pre-solved by cache warming since the service was built.
    #[serde(default)]
    pub warm_rows: u64,
    /// Misses that blocked on another request's in-flight solve instead
    /// of duplicating it (single-flight).
    #[serde(default)]
    pub singleflight_waits: u64,
    /// Coalescing windows drained (one batched solve each).
    #[serde(default)]
    pub coalesce_batches: u64,
    /// Rows that rode a coalescing batch issued by another request.
    #[serde(default)]
    pub coalesced: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
    sheds: AtomicU64,
    errors: AtomicU64,
}

/// Work queue between the accept loop and the connection workers.
struct ConnQueue {
    queue: Mutex<VecDeque<Box<dyn Conn>>>,
    ready: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Blocks until the bounded queue has room, then enqueues.
    fn push(&self, conn: Box<dyn Conn>) {
        let mut q = self.queue.lock().expect("queue poisoned");
        while q.len() >= self.cap {
            q = self.ready.wait(q).expect("queue poisoned");
        }
        q.push_back(conn);
        ceps_obs::gauge_set("net.conn_queue_depth", q.len() as i64);
        self.ready.notify_all();
    }

    /// Dequeues the next connection, or `None` once draining and empty.
    fn pop(&self, stop: &AtomicBool) -> Option<Box<dyn Conn>> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = q.pop_front() {
                ceps_obs::gauge_set("net.conn_queue_depth", q.len() as i64);
                self.ready.notify_all();
                return Some(conn);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(100))
                .expect("queue poisoned");
            q = guard;
        }
    }
}

/// A long-lived wire server wrapping one [`CepsService`].
pub struct CepsServer {
    service: CepsService,
    config: ServerConfig,
    admission: Arc<Admission>,
    stop: AtomicBool,
    counters: Counters,
    started: Instant,
    tracer: Option<RequestTracer>,
    latencies: Mutex<RecentHistogram>,
    queue_delays: Mutex<RecentHistogram>,
}

impl CepsServer {
    /// Wraps `service` with the given tuning.
    pub fn new(service: CepsService, config: ServerConfig) -> Self {
        let cap = if config.max_in_flight == 0 {
            config.workers
        } else {
            config.max_in_flight
        };
        CepsServer {
            service,
            config,
            admission: Arc::new(Admission::new(cap)),
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            started: Instant::now(),
            tracer: None,
            latencies: Mutex::default(),
            queue_delays: Mutex::default(),
        }
    }

    /// Attaches a per-request trace sink: every admitted `Query` feeds the
    /// tracer's head/tail sampling and, when kept, emits one
    /// `ceps-trace/v1` line carrying the request's `trace_id`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: RequestTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any (for end-of-run reporting).
    pub fn tracer(&self) -> Option<&RequestTracer> {
        self.tracer.as_ref()
    }

    /// The wrapped service.
    pub fn service(&self) -> &CepsService {
        &self.service
    }

    /// Feeds one completed query latency into the window behind the
    /// `Stats` percentiles. Returns the window's p99 *before* this query
    /// so callers can mark slow requests — computed only when the flight
    /// recorder (its sole consumer) is enabled and the window holds 32
    /// queries; 0 otherwise.
    fn note_latency(&self, latency_ms: f64) -> f64 {
        let mut window = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        let recent = ceps_obs::flight_enabled().then(|| window.merged());
        let p99 = recent
            .filter(|h| h.count() >= 32)
            .map_or(0.0, |h| h.percentile_from_buckets(99.0));
        window.record(latency_ms);
        p99
    }

    /// Feeds one request's queue delay (frame decode → execution start)
    /// into its window and the `net.queue_ms` histogram.
    fn note_queue_delay(&self, queue_ms: f64) {
        record("net.queue_ms", queue_ms);
        let mut window = self.queue_delays.lock().unwrap_or_else(|e| e.into_inner());
        window.record(queue_ms);
    }

    /// The admission gate (tests hold permits to force `Overloaded`).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Asks the accept loop and all workers to drain and exit — the
    /// out-of-band equivalent of a wire `Shutdown` frame.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// True once a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// A point-in-time health snapshot: counters, in-flight, windowed
    /// latency and queue-delay percentiles, and row-cache counters.
    ///
    /// This is the **single** snapshot assembly path: the `Stats` wire
    /// reply, the drain summary [`serve`](Self::serve) returns, and any
    /// CLI rendering all go through here, so the surfaces cannot drift.
    pub fn stats(&self) -> ServerStats {
        let merged =
            |w: &Mutex<RecentHistogram>| w.lock().unwrap_or_else(|e| e.into_inner()).merged();
        let (latency, queue) = (merged(&self.latencies), merged(&self.queue_delays));
        let health = self.service.serve_health();
        ServerStats {
            proto: WIRE_VERSION.to_string(),
            connections: self.counters.connections.load(Ordering::Relaxed),
            frames: self.counters.frames.load(Ordering::Relaxed),
            queries: self.counters.queries.load(Ordering::Relaxed),
            sheds: self.counters.sheds.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            in_flight: self.admission.in_flight(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            p50_ms: latency.percentile_from_buckets(50.0),
            p90_ms: latency.percentile_from_buckets(90.0),
            p99_ms: latency.percentile_from_buckets(99.0),
            queue_p50_ms: queue.percentile_from_buckets(50.0),
            queue_p99_ms: queue.percentile_from_buckets(99.0),
            cache: self.service.cache_stats().map(|c| WireCacheStats {
                hits: c.hits,
                misses: c.misses,
                evictions: c.evictions,
                rejected: c.rejected,
            }),
            cache_fill: health.fill_ratio(),
            cache_rows: health.cache_rows as u64,
            warm_rows: health.warm_rows,
            singleflight_waits: health.singleflight_waits,
            coalesce_batches: health.coalesce_batches,
            coalesced: health.coalesced,
        }
    }

    /// Runs the accept loop over `transport` until a `Shutdown` frame or
    /// [`request_stop`](Self::request_stop) drains it; returns the final
    /// counter snapshot.
    ///
    /// # Errors
    /// Fatal listener errors from the transport. Per-connection errors
    /// are counted and logged, never fatal.
    pub fn serve(&self, transport: &mut dyn Transport) -> io::Result<ServerStats> {
        let workers = self.config.workers.max(1);
        let queue = ConnQueue::new(workers * 2);
        ceps_obs::info!(
            "ceps-net: serving on {} ({} workers, cap {})",
            transport.addr(),
            workers,
            self.admission.cap()
        );

        let mut accept_err = None;
        std::thread::scope(|s| {
            let queue = &queue;
            for worker in 0..workers {
                s.spawn(move || {
                    while let Some(conn) = queue.pop(&self.stop) {
                        self.handle_conn(conn, worker);
                    }
                });
            }
            while !self.stop.load(Ordering::Acquire) {
                match transport.accept_timeout(ACCEPT_POLL) {
                    Ok(Some(conn)) => {
                        self.counters.connections.fetch_add(1, Ordering::Relaxed);
                        counter("net.connections_total", 1);
                        queue.push(conn);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        accept_err = Some(e);
                        self.stop.store(true, Ordering::Release);
                    }
                }
            }
            // Workers observe the stop flag via pop()'s timeout and via
            // their per-read slices, then drain and join at scope end.
        });
        match accept_err {
            Some(e) => Err(e),
            None => Ok(self.stats()),
        }
    }

    /// Speaks the protocol on one connection until EOF, error, idle
    /// timeout, or drain. `worker` is the serving thread's index,
    /// reported in per-request trace lines.
    fn handle_conn(&self, conn: Box<dyn Conn>, worker: usize) {
        let read_slice = Duration::from_millis(250);
        let _ = conn.set_read_timeout(Some(read_slice));
        let _ = conn.set_write_timeout(Some(WRITE_TIMEOUT));
        let peer = conn.peer();

        let mut framed = Framed::new(conn, DEFAULT_MAX_FRAME_BYTES);
        let mut last_activity = Instant::now();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return; // drain: between frames, nothing in flight here
            }
            let request = match framed.recv::<Request>() {
                Ok(Some(req)) => req,
                Ok(None) => return, // clean EOF
                Err(e) if e.is_timeout() => {
                    if last_activity.elapsed() > IDLE_TIMEOUT {
                        ceps_obs::debug!("ceps-net: reaping idle connection from {peer}");
                        return;
                    }
                    continue;
                }
                Err(e) => {
                    // Grammar violations get a structured goodbye (id 0:
                    // the offending frame never decoded); the stream is
                    // beyond resync either way.
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    counter("net.errors_total", 1);
                    let kind = match e {
                        crate::NetError::TooLarge { .. } => WireErrorKind::TooLarge,
                        _ => WireErrorKind::Malformed,
                    };
                    let _ = framed.send(&Reply::Error {
                        id: 0,
                        error: WireError::new(kind, e.to_string()),
                    });
                    return;
                }
            };
            // Decode completion stamp: everything between here and the
            // moment the query actually starts executing is queue delay,
            // attributed separately from service time. `net.frame_ms`
            // runs from here until the reply is written, so the client's
            // idle gap before the frame never counts.
            let decoded = Instant::now();
            last_activity = decoded;
            self.counters.frames.fetch_add(1, Ordering::Relaxed);
            counter("net.frames_total", 1);

            let (reply, done) = self.dispatch(request, worker, decoded);
            if matches!(reply, Reply::Error { .. }) {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                counter("net.errors_total", 1);
                flight_note(FlightKind::Error, "net.error_reply", 1);
            }
            let sent = framed.send(&reply);
            record("net.frame_ms", decoded.elapsed().as_secs_f64() * 1e3);
            if sent.is_err() || done {
                return;
            }
        }
    }

    /// Answers one decoded request; the bool asks the caller to close
    /// the connection after sending the reply. `decoded` is the instant
    /// the request's frame finished decoding — the anchor for queue-delay
    /// attribution on query execution.
    fn dispatch(&self, request: Request, worker: usize, decoded: Instant) -> (Reply, bool) {
        match request {
            Request::Ping { id } => (
                Reply::Pong {
                    id,
                    proto: WIRE_VERSION.to_string(),
                },
                false,
            ),
            Request::Stats { id } => (
                Reply::Stats {
                    id,
                    stats: self.stats(),
                },
                false,
            ),
            Request::Shutdown { id } => {
                ceps_obs::info!("ceps-net: shutdown requested over the wire");
                self.stop.store(true, Ordering::Release);
                (Reply::Bye { id }, true)
            }
            Request::Query { id, req, trace } => {
                let Some(_permit) = self.admission.try_acquire() else {
                    return (self.shed(id), false);
                };
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                counter("net.queries_total", 1);
                // Adopt the client's context (shared trace_id across both
                // sides of the wire) or mint a fresh root for untraced
                // frames, so spans, exemplars and flight events recorded
                // while serving this request are attributable either way.
                let ctx = trace
                    .as_ref()
                    .and_then(WireTrace::to_context)
                    .unwrap_or_else(TraceContext::new_root);
                let _trace_guard = ceps_obs::with_trace(ctx);
                let queue_ms = decoded.elapsed().as_secs_f64() * 1e3;
                self.note_queue_delay(queue_ms);
                let origin = RequestOrigin {
                    request_id: id,
                    worker,
                    queue_ms,
                    trace: Some(ctx),
                };
                let (outcome, latency_ms) =
                    self.service
                        .handle(&req.queries, origin, self.tracer.as_ref());
                record("net.query_ms", latency_ms);
                // Every completed query leaves a mark in the ring (value:
                // latency in µs), so a flight dump shows the recent
                // request history even when nothing went wrong.
                ceps_obs::flight_event(
                    FlightKind::Mark,
                    "net.query",
                    ctx.trace_id,
                    (latency_ms * 1e3) as u64,
                );
                let prior_p99 = self.note_latency(latency_ms);
                if prior_p99 > 0.0 && latency_ms > prior_p99 {
                    ceps_obs::flight_event(
                        FlightKind::SlowRequest,
                        "net.slow_request",
                        ctx.trace_id,
                        (latency_ms * 1e3) as u64,
                    );
                }
                let reply = match outcome {
                    Ok((result, _)) => Reply::Scores {
                        id,
                        reply: ServeReply::from_result(&result, &req.queries),
                    },
                    Err(e) => Reply::Error {
                        id,
                        error: WireError::new(WireErrorKind::BadRequest, e.to_string()),
                    },
                };
                (reply, false)
            }
            Request::AutoK { id, queries } => {
                let Some(_permit) = self.admission.try_acquire() else {
                    return (self.shed(id), false);
                };
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                counter("net.queries_total", 1);
                let _trace_guard = ceps_obs::with_trace(TraceContext::new_root());
                let start = Instant::now();
                self.note_queue_delay(start.duration_since(decoded).as_secs_f64() * 1e3);
                let reply = match infer_soft_and_k(self.service.engine(), &queries) {
                    Ok(inf) => Reply::AutoK {
                        id,
                        k: inf.k,
                        mean_ranks: inf.mean_ranks,
                    },
                    Err(e) => Reply::Error {
                        id,
                        error: WireError::new(WireErrorKind::BadRequest, e.to_string()),
                    },
                };
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                record("net.query_ms", latency_ms);
                self.note_latency(latency_ms);
                (reply, false)
            }
            Request::DumpFlight { id } => (
                // Deliberately not gated on admission: the ring must be
                // dumpable while the server is overloaded — that is when
                // it matters.
                Reply::Flight {
                    id,
                    dump: ceps_obs::flight_dump(),
                },
                false,
            ),
        }
    }

    fn shed(&self, id: u64) -> Reply {
        self.counters.sheds.fetch_add(1, Ordering::Relaxed);
        counter("net.sheds_total", 1);
        flight_note(FlightKind::Shed, "net.shed", self.admission.cap() as u64);
        Reply::Error {
            id,
            error: WireError::new(
                WireErrorKind::Overloaded,
                format!("in-flight cap {} reached", self.admission.cap()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceps_core::{CepsConfig, CepsServiceBuilder, ServeRequest};
    use ceps_graph::{GraphBuilder, NodeId};

    use crate::client::CepsClient;
    use crate::transport::in_proc;

    fn test_service() -> CepsService {
        let mut b = GraphBuilder::new();
        for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
            b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
        }
        CepsServiceBuilder::new()
            .cache_bytes(1 << 20)
            .build_from_graph(b.build().unwrap(), CepsConfig::default().budget(3))
            .unwrap()
    }

    /// Two connection workers, admission capped at `max_in_flight`
    /// (`0` = the worker count).
    fn config(max_in_flight: usize) -> ServerConfig {
        ServerConfig {
            workers: 2,
            max_in_flight,
        }
    }

    #[test]
    fn admission_gate_counts_and_releases() {
        let gate = Arc::new(Admission::new(2));
        let p1 = gate.try_acquire().unwrap();
        let p2 = gate.try_acquire().unwrap();
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire().is_none());
        drop(p1);
        assert_eq!(gate.in_flight(), 1);
        let p3 = gate.try_acquire().unwrap();
        drop((p2, p3));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn server_answers_ping_stats_query_and_drains_on_shutdown() {
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, connector) = in_proc();
        let stats = std::thread::scope(|s| {
            let server = &server;
            let handle = s.spawn(move || server.serve(&mut transport).unwrap());

            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            let proto = client.ping().unwrap();
            assert_eq!(proto, WIRE_VERSION);

            let reply = client
                .request(&ServeRequest::new(vec![NodeId(0), NodeId(5)]))
                .unwrap();
            assert!(reply.k >= 1);
            assert!(!reply.members.is_empty());

            let stats = client.stats().unwrap();
            assert_eq!(stats.queries, 1);
            assert!(stats.frames >= 3);

            client.shutdown().unwrap();
            handle.join().unwrap()
        });
        assert!(stats.frames >= 4);
        assert_eq!(stats.sheds, 0);
    }

    #[test]
    fn saturated_admission_sheds_with_overloaded() {
        let server = CepsServer::new(test_service(), config(1));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());

            // Hold the only slot so the next query must shed.
            let permit = server.admission().try_acquire().unwrap();
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            let err = client
                .request(&ServeRequest::new(vec![NodeId(0)]))
                .unwrap_err();
            match err {
                crate::NetError::Remote(e) => {
                    assert_eq!(e.kind, WireErrorKind::Overloaded)
                }
                other => panic!("expected Overloaded shed, got {other}"),
            }
            drop(permit);
            // Slot free again: the same connection now succeeds.
            client.request(&ServeRequest::new(vec![NodeId(0)])).unwrap();
            assert_eq!(server.stats().sheds, 1);
            client.shutdown().unwrap();
        });
    }

    #[test]
    fn bad_queries_get_structured_bad_request() {
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            let err = client
                .request(&ServeRequest::new(vec![NodeId(999)]))
                .unwrap_err();
            match err {
                crate::NetError::Remote(e) => assert_eq!(e.kind, WireErrorKind::BadRequest),
                other => panic!("expected BadRequest, got {other}"),
            }
            // The connection survives a rejected query.
            client.ping().unwrap();
            client.shutdown().unwrap();
        });
    }

    /// A `Write` handing its bytes to a shared buffer the test can read.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn stats_snapshot_carries_percentiles_and_cache_counters() {
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            for _ in 0..3 {
                client
                    .request(&ServeRequest::new(vec![NodeId(0), NodeId(5)]))
                    .unwrap();
            }
            let stats = client.stats().unwrap();
            assert!(stats.p50_ms > 0.0, "3 queries must leave a median");
            assert!(stats.p99_ms >= stats.p90_ms && stats.p90_ms >= stats.p50_ms);
            let cache = stats.cache.expect("service is cached");
            assert_eq!(cache.hits + cache.misses, 6, "2 rows x 3 requests");
            assert!(cache.misses >= 2, "first request solves cold");
            client.shutdown().unwrap();
        });
    }

    #[test]
    fn queue_delay_is_attributed_in_stats_and_trace_lines() {
        let sink = SharedBuf::default();
        let server = CepsServer::new(test_service(), config(0))
            .with_tracer(RequestTracer::new(Box::new(sink.clone()), 1.0));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            for _ in 0..3 {
                client
                    .request(&ServeRequest::new(vec![NodeId(0), NodeId(5)]))
                    .unwrap();
            }
            let stats = client.stats().unwrap();
            // Queue delay on an idle in-proc pipe is tiny but non-negative
            // and strictly below the service time.
            assert!(stats.queue_p50_ms >= 0.0);
            assert!(stats.queue_p99_ms >= stats.queue_p50_ms);
            assert!(stats.queue_p99_ms < stats.p99_ms.max(1.0));
            client.shutdown().unwrap();
        });
        for line in sink.text().lines() {
            assert!(
                line.contains("\"queue_ms\": "),
                "trace line lacks queue_ms: {line}"
            );
        }
    }

    #[test]
    fn drain_summary_and_stats_reply_share_one_snapshot_path() {
        // Satellite fix: the `Stats` wire reply and the final stats that
        // `serve` returns on drain must be assembled by the same helper.
        // Pin that: a Stats fetched right before shutdown equals the
        // drain-returned snapshot on every field that cannot legitimately
        // advance between the two calls (uptime ticks on, and the
        // shutdown itself adds frames).
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, connector) = in_proc();
        let (wire_stats, drained) = std::thread::scope(|s| {
            let server = &server;
            let handle = s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            for _ in 0..2 {
                client
                    .request(&ServeRequest::new(vec![NodeId(0), NodeId(5)]))
                    .unwrap();
            }
            let wire_stats = client.stats().unwrap();
            client.shutdown().unwrap();
            (wire_stats, handle.join().unwrap())
        });
        assert_eq!(wire_stats.proto, drained.proto);
        assert_eq!(wire_stats.connections, drained.connections);
        assert_eq!(wire_stats.queries, drained.queries);
        assert_eq!(wire_stats.sheds, drained.sheds);
        assert_eq!(wire_stats.errors, drained.errors);
        assert_eq!(wire_stats.p50_ms, drained.p50_ms);
        assert_eq!(wire_stats.p90_ms, drained.p90_ms);
        assert_eq!(wire_stats.p99_ms, drained.p99_ms);
        assert_eq!(wire_stats.queue_p50_ms, drained.queue_p50_ms);
        assert_eq!(wire_stats.queue_p99_ms, drained.queue_p99_ms);
        assert_eq!(wire_stats.cache, drained.cache);
        // The shutdown round-trip adds exactly its own frame.
        assert_eq!(wire_stats.frames + 1, drained.frames);
    }

    #[test]
    fn traced_queries_share_one_trace_id_across_client_and_server_lines() {
        let server_sink = SharedBuf::default();
        let server = CepsServer::new(test_service(), config(0))
            .with_tracer(RequestTracer::new(Box::new(server_sink.clone()), 1.0));
        let client_sink = SharedBuf::default();
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()))
                .with_trace_sink(Box::new(client_sink.clone()));
            client
                .request(&ServeRequest::new(vec![NodeId(0), NodeId(5)]))
                .unwrap();
            assert_eq!(client.traces_written(), 1);
            client.shutdown().unwrap();
        });
        assert_eq!(server.tracer().unwrap().written(), 1);

        let extract_id = |line: &str| -> String {
            let (_, rest) = line.split_once("\"trace_id\": \"").expect("trace_id field");
            rest[..16].to_string()
        };
        let client_line = client_sink.text();
        let server_line = server_sink.text();
        assert!(client_line.contains("\"side\": \"client\""));
        assert!(server_line.contains("\"schema\": \"ceps-trace/v1\""));
        assert_eq!(
            extract_id(&client_line),
            extract_id(&server_line),
            "server must adopt the client's context"
        );
    }

    #[test]
    fn dump_flight_returns_the_ring_over_the_wire() {
        ceps_obs::flight_enable(64);
        let server = CepsServer::new(test_service(), config(1));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client =
                CepsClient::from_conn(Box::new(connector.connect().unwrap())).with_tracing();

            // Saturate admission so the shed lands in the ring.
            let permit = server.admission().try_acquire().unwrap();
            let err = client
                .request(&ServeRequest::new(vec![NodeId(0)]))
                .unwrap_err();
            assert!(matches!(err, crate::NetError::Remote(_)));
            drop(permit);

            let dump = client.dump_flight().unwrap();
            assert!(dump.contains("\"schema\": \"ceps-flight/v1\""));
            assert!(
                dump.contains("\"kind\": \"shed\""),
                "shed event recorded: {dump}"
            );
            client.shutdown().unwrap();
        });
        ceps_obs::flight_disable();
    }

    #[test]
    fn coalesced_warmed_server_matches_plain_and_reports_health() {
        let build = |coalesce: bool| {
            let mut b = GraphBuilder::new();
            for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
                b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
            }
            CepsServiceBuilder::new()
                .cache_bytes(1 << 20)
                .coalesce_us(if coalesce { 2_000 } else { 0 })
                .build_from_graph(b.build().unwrap(), CepsConfig::default().budget(3))
                .unwrap()
        };
        let plain = build(false);
        let service = build(true);
        service.warm(usize::MAX).unwrap();
        let warm_rows = service.serve_health().warm_rows;
        assert!(warm_rows > 0, "warming must pre-solve rows");

        let server = CepsServer::new(
            service,
            ServerConfig {
                workers: 3,
                max_in_flight: 0,
            },
        );
        let (mut transport, connector) = in_proc();
        let requests: Vec<ServeRequest> = (0..6)
            .map(|i| ServeRequest::new(vec![NodeId(i % 6), NodeId((i + 2) % 6)]))
            .collect();
        let drained = std::thread::scope(|s| {
            let server = &server;
            let handle = s.spawn(move || server.serve(&mut transport).unwrap());
            // Three concurrent connections hammer overlapping queries so
            // single-flight and the coalescing window see real contention.
            let conns: Vec<_> = (0..3)
                .map(|_| {
                    let connector = connector.clone();
                    let requests = requests.clone();
                    s.spawn(move || {
                        let mut client =
                            CepsClient::from_conn(Box::new(connector.connect().unwrap()));
                        requests
                            .iter()
                            .map(|r| client.request(r).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let replies: Vec<Vec<ServeReply>> =
                conns.into_iter().map(|h| h.join().unwrap()).collect();
            for per_conn in &replies {
                for (req, reply) in requests.iter().zip(per_conn) {
                    assert_eq!(
                        reply,
                        &plain.serve(req).unwrap(),
                        "coalesced reply diverged"
                    );
                }
            }
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            client.shutdown().unwrap();
            handle.join().unwrap()
        });
        assert_eq!(drained.warm_rows, warm_rows);
        assert!(drained.cache_fill > 0.0 && drained.cache_fill <= 1.0);
        assert!(drained.cache_rows > 0);
        // Warmed cache: every wire query hits; no misses, so the window
        // never even needs to drain for correctness to hold. The health
        // fields still surface the (possibly zero) coalesce counters.
        let cache = drained.cache.expect("cached service");
        assert_eq!(cache.misses, 6, "only the warm pre-solves missed");
        assert!(drained.coalesce_batches <= drained.queries);
    }

    #[test]
    fn frame_time_excludes_the_clients_idle_gap() {
        // A connection idles longer than one 250 ms read slice between two
        // pings; `net.frame_ms` must cover dispatch and write only, not the
        // wait for the frame to arrive.
        let gap = Duration::from_millis(450);
        ceps_obs::install_recorder();
        ceps_obs::reset();
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || server.serve(&mut transport).unwrap());
            let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
            client.ping().unwrap();
            std::thread::sleep(gap);
            client.ping().unwrap();
            client.shutdown().unwrap();
        });
        let snap = ceps_obs::snapshot();
        ceps_obs::uninstall_recorder();
        let frames = snap
            .histograms
            .iter()
            .find(|h| h.name == "net.frame_ms")
            .expect("net.frame_ms recorded");
        assert!(frames.count >= 3, "two pings and a shutdown");
        assert!(
            frames.max < gap.as_secs_f64() * 1e3 / 4.0,
            "net.frame_ms max {:.1} ms includes the {gap:?} idle gap",
            frames.max
        );
    }

    #[test]
    fn request_stop_drains_without_a_wire_frame() {
        let server = CepsServer::new(test_service(), config(0));
        let (mut transport, _connector) = in_proc();
        std::thread::scope(|s| {
            let server = &server;
            let handle = s.spawn(move || server.serve(&mut transport).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            server.request_stop();
            let stats = handle.join().unwrap();
            assert_eq!(stats.connections, 0);
        });
    }
}
