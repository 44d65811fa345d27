//! The open-loop runner: fires a pre-built arrival schedule at a CePS
//! server over N concurrent connections and reports latency charged to
//! the *intended* send time.
//!
//! ## Why intended time
//!
//! A naive driver timestamps each request when it actually leaves the
//! socket. But when the server slows down, the driver's serial
//! connections stall behind unanswered requests, so later requests leave
//! late — and their measured latency silently excludes the time they
//! spent waiting in the driver. That is *coordinated omission*: the load
//! generator cooperates with the server to hide the worst latencies.
//! Here every request has an intended send time fixed by the schedule
//! before the run starts, and latency is `completion − intended`. A
//! stalled server is charged for the backlog it caused, exactly as a
//! real open-world client population would experience it.

use std::io;
use std::time::{Duration, Instant};

use ceps_core::ServeRequest;
use ceps_net::{CepsClient, Reply, WireErrorKind};

use crate::schedule::{arrival_schedule, ArrivalKind, MixKind, QueryMix, DEFAULT_HOT_POOL};

/// Everything a load run needs, fully deterministic given `seed`.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered request rate (requests per second across all connections).
    pub rps: f64,
    /// Total run length in seconds, warmup included.
    pub duration_s: f64,
    /// Leading portion of the run excluded from the measurement phase
    /// (cache fill, connection ramp). Must be smaller than `duration_s`.
    pub warmup_s: f64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Concurrent client connections; arrivals round-robin across them.
    pub connections: usize,
    /// Query nodes per request (the paper's `Q`).
    pub queries_per: usize,
    /// Node ids are drawn from `0..node_space` (the preset's node count).
    pub node_space: usize,
    /// Probability a request repeats an earlier query verbatim, to
    /// exercise the server's reply cache.
    pub repeat: f64,
    /// How fresh queries pick nodes: uniform over the space, or
    /// hub-skewed over a seeded hot pool (the traffic shape miss
    /// coalescing and cache warming target).
    pub mix: MixKind,
    /// Hot-pool width for [`MixKind::Hubs`]; ignored under uniform.
    pub pool_size: usize,
    /// Seed for the arrival schedule and the query mix.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            rps: 100.0,
            duration_s: 5.0,
            warmup_s: 1.0,
            arrival: ArrivalKind::Poisson,
            connections: 4,
            queries_per: 5,
            node_space: 1000,
            repeat: 0.3,
            mix: MixKind::Uniform,
            pool_size: DEFAULT_HOT_POOL,
            seed: 42,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A `Scores` reply.
    Ok,
    /// The server shed it under admission control (`Overloaded`).
    Shed,
    /// Any other reply or a transport failure.
    Error,
}

/// One completed (or failed) request: intended offset, intended-time
/// latency, and classification.
#[derive(Debug, Clone, Copy)]
struct Sample {
    offset_s: f64,
    latency_ms: f64,
    outcome: Outcome,
}

/// Latency/outcome summary of one phase (warmup or measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Requests fired in this phase.
    pub count: u64,
    /// `Scores` replies.
    pub ok: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Protocol or transport failures.
    pub errors: u64,
    /// Intended-time latency percentiles (milliseconds).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
    /// Mean latency (sum over count, in arrival order).
    pub mean_ms: f64,
}

impl PhaseReport {
    fn from_samples(samples: &[Sample]) -> PhaseReport {
        let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        let pct = |p: f64| ceps_obs::nearest_rank(&lat, p);
        let mean_ms = if lat.is_empty() {
            0.0
        } else {
            samples.iter().fold(0.0, |sum, s| sum + s.latency_ms) / lat.len() as f64
        };
        PhaseReport {
            count: samples.len() as u64,
            ok: samples.iter().filter(|s| s.outcome == Outcome::Ok).count() as u64,
            sheds: samples
                .iter()
                .filter(|s| s.outcome == Outcome::Shed)
                .count() as u64,
            errors: samples
                .iter()
                .filter(|s| s.outcome == Outcome::Error)
                .count() as u64,
            p50_ms: pct(50.0),
            p90_ms: pct(90.0),
            p99_ms: pct(99.0),
            p999_ms: pct(99.9),
            max_ms: lat.last().copied().unwrap_or(0.0),
            mean_ms,
        }
    }

    /// Sheds + errors as a fraction of requests fired; 0 for an empty
    /// phase.
    pub fn error_rate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sheds + self.errors) as f64 / self.count as f64
    }
}

/// The full per-run report `run`/`run_with` return.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Arrival process name (`"constant"` / `"poisson"`).
    pub arrival: String,
    /// Offered rate from the config.
    pub offered_rps: f64,
    /// Ok replies per second over the measurement window.
    pub achieved_rps: f64,
    /// Total run length (seconds).
    pub duration_s: f64,
    /// Warmup length (seconds).
    pub warmup_s: f64,
    /// Connection count.
    pub connections: usize,
    /// Arrivals the schedule contained.
    pub scheduled: u64,
    /// Warmup-phase summary (intended offset `< warmup_s`).
    pub warmup: PhaseReport,
    /// Measurement-phase summary.
    pub measure: PhaseReport,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn phase_json(p: &PhaseReport) -> String {
    format!(
        "{{\"count\": {}, \"ok\": {}, \"sheds\": {}, \"errors\": {}, \
         \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \
         \"max_ms\": {}, \"mean_ms\": {}}}",
        p.count,
        p.ok,
        p.sheds,
        p.errors,
        num(p.p50_ms),
        num(p.p90_ms),
        num(p.p99_ms),
        num(p.p999_ms),
        num(p.max_ms),
        num(p.mean_ms),
    )
}

impl LoadReport {
    /// One-line-per-field `ceps-load/v1` JSON (hand-rolled like the rest
    /// of the observability surfaces; no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"ceps-load/v1\", \"arrival\": \"{}\", \
             \"offered_rps\": {}, \"achieved_rps\": {}, \"duration_s\": {}, \
             \"warmup_s\": {}, \"connections\": {}, \"scheduled\": {}, \
             \"warmup\": {}, \"measure\": {}}}",
            self.arrival,
            num(self.offered_rps),
            num(self.achieved_rps),
            num(self.duration_s),
            num(self.warmup_s),
            self.connections,
            self.scheduled,
            phase_json(&self.warmup),
            phase_json(&self.measure),
        )
    }

    /// Human-readable report for the CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "load: {} arrivals, offered {:.1} rps over {:.1}s ({} connections, {:.1}s warmup)",
            self.arrival, self.offered_rps, self.duration_s, self.connections, self.warmup_s
        );
        let _ = writeln!(
            out,
            "  achieved {:.1} rps ({:.1}% of offered)",
            self.achieved_rps,
            if self.offered_rps > 0.0 {
                100.0 * self.achieved_rps / self.offered_rps
            } else {
                0.0
            }
        );
        for (name, p) in [("warmup", &self.warmup), ("measure", &self.measure)] {
            let _ = writeln!(
                out,
                "  {name:<8} n={:<6} ok={:<6} shed={:<4} err={:<4} \
                 p50={:.2}ms p90={:.2}ms p99={:.2}ms p999={:.2}ms max={:.2}ms",
                p.count, p.ok, p.sheds, p.errors, p.p50_ms, p.p90_ms, p.p99_ms, p.p999_ms, p.max_ms
            );
        }
        out
    }
}

/// Runs the configured load against a server address
/// (`tcp://…`/`unix://…`, anything [`CepsClient::connect`] accepts).
///
/// # Errors
/// Connection establishment failures; failures mid-run are counted as
/// request errors, not surfaced here.
pub fn run(cfg: &LoadConfig, addr: &str) -> io::Result<LoadReport> {
    run_with(cfg, &|| CepsClient::connect(addr))
}

/// Like [`run`], but with an arbitrary connection factory — tests and
/// the self-hosted benchmark drive an in-process transport through this.
///
/// # Errors
/// Factory failures while establishing the initial connections.
pub fn run_with(
    cfg: &LoadConfig,
    connect: &(dyn Fn() -> io::Result<CepsClient> + Sync),
) -> io::Result<LoadReport> {
    assert!(cfg.connections >= 1, "need at least one connection");
    assert!(
        cfg.warmup_s < cfg.duration_s,
        "warmup must leave a measurement window"
    );
    let schedule = arrival_schedule(cfg.arrival, cfg.rps, cfg.duration_s, cfg.seed);
    let mut mix = QueryMix::with_mix(
        cfg.node_space,
        cfg.queries_per,
        cfg.repeat,
        cfg.seed ^ 0x9e2d,
        cfg.mix,
        cfg.pool_size,
    );
    // Assign (intended offset, query) pairs round-robin across the
    // connections; each connection fires its share in schedule order.
    let mut work: Vec<Vec<(f64, Vec<usize>)>> = vec![Vec::new(); cfg.connections];
    for (i, &offset) in schedule.iter().enumerate() {
        work[i % cfg.connections].push((offset, mix.next_query()));
    }
    let mut clients = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        clients.push(connect()?);
    }

    let base = Instant::now();
    let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(work.into_iter())
            .map(|(mut client, lane)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(lane.len());
                    for (offset, nodes) in lane {
                        let intended = base + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if intended > now {
                            std::thread::sleep(intended - now);
                        }
                        let req = ServeRequest::new(
                            nodes
                                .iter()
                                .map(|&n| ceps_graph::NodeId(n as u32))
                                .collect::<Vec<_>>(),
                        );
                        let (outcome, dead) = match client.send_request(&req) {
                            Ok(_id) => match client.recv_reply() {
                                Ok(Reply::Scores { .. }) => (Outcome::Ok, false),
                                Ok(Reply::Error { error, .. })
                                    if error.kind == WireErrorKind::Overloaded =>
                                {
                                    (Outcome::Shed, false)
                                }
                                Ok(_) => (Outcome::Error, false),
                                Err(_) => (Outcome::Error, true),
                            },
                            Err(_) => (Outcome::Error, true),
                        };
                        out.push(Sample {
                            offset_s: offset,
                            latency_ms: intended.elapsed().as_secs_f64() * 1e3,
                            outcome,
                        });
                        if dead {
                            // The connection is gone; remaining arrivals
                            // in this lane count as errors at zero
                            // service — the schedule still charges them.
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("load worker panicked"));
        }
    });

    // A stalled server drains its backlog past `duration_s`; achieved
    // throughput must divide by the wall time actually spent, or a
    // saturated run would report the offered rate as achieved.
    let wall_s = base.elapsed().as_secs_f64();
    let (warm, meas): (Vec<Sample>, Vec<Sample>) =
        samples.into_iter().partition(|s| s.offset_s < cfg.warmup_s);
    let measure = PhaseReport::from_samples(&meas);
    let measure_window = (cfg.duration_s - cfg.warmup_s).max(wall_s - cfg.warmup_s);
    Ok(LoadReport {
        arrival: cfg.arrival.name().to_string(),
        offered_rps: cfg.rps,
        achieved_rps: measure.ok as f64 / measure_window,
        duration_s: cfg.duration_s,
        warmup_s: cfg.warmup_s,
        connections: cfg.connections,
        scheduled: schedule.len() as u64,
        warmup: PhaseReport::from_samples(&warm),
        measure,
    })
}
