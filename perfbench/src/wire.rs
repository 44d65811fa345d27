//! The two out-of-process workloads: a fresh `ceps serve --listen`
//! child per run, driven open loop from this process over two
//! connections, with latency charged to each arrival's intended send
//! time.
//!
//! A run has four phases, all on one server and one pair of
//! connections: a warmup at the nominal rate (excluded from every
//! metric), the nominal phase (latency, CPU per request), an ascending
//! ladder of fixed rates (`load.capacity_rps`) that stops after two
//! failing steps in a row, and one overload step (`goodput_rps`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ceps_core::{CepsConfig, CepsEngine, ServeReply, ServeRequest};
use ceps_graph::NodeId;
use ceps_load::{arrival_schedule, splitmix64, ArrivalKind, MixKind, QueryMix};
use ceps_net::{CepsClient, Reply, ServerStats, WireErrorKind};

use crate::host;
use crate::report::Report;
use crate::stats::{self, Step};

/// What distinguishes the two wire workloads. Rates are sized for a
/// 2-core host whose speed swings by up to 2x with its neighbours' load:
/// the nominal rate is under half of saturation on the slow side (about
/// a fifth on the fast side), the ladder spans both sides' knees in
/// steps of 25-30%, and the overload rate is about 1.5 times the fast
/// side's saturation.
#[derive(Debug, Clone, Copy)]
pub struct WireSpec {
    /// How fresh query nodes are drawn.
    pub mix: MixKind,
    /// Probability a query repeats one of the last 64 verbatim.
    pub repeat: f64,
    /// The fixed rate latency and CPU are measured at.
    pub nominal_rps: f64,
    /// Ascending capacity-ladder rates.
    pub ladder: &'static [f64],
    /// The overload step's rate.
    pub overload_rps: f64,
    /// p99 limit of the capacity search, milliseconds.
    pub slo_ms: f64,
    /// Share of the run spent at the nominal rate.
    pub nominal_frac: f64,
    /// Share of the run each ladder step, and the overload step, takes.
    /// A slow workload needs longer steps for the same number of samples.
    pub step_frac: f64,
}

/// Hub-skewed traffic: Zipf draws over four fixed 16-node hot pools (64
/// hot nodes in all, which fit the row cache), half the queries repeated,
/// so most rows are cache hits and EXTRACT carries the server time.
pub const WIRE_HUBS: WireSpec = WireSpec {
    mix: MixKind::Hubs,
    repeat: 0.5,
    nominal_rps: 70.0,
    ladder: &[100.0, 125.0, 155.0, 195.0, 245.0, 305.0],
    overload_rps: 450.0,
    slo_ms: 100.0,
    nominal_frac: 0.5,
    step_frac: 0.08,
};

/// Uniform traffic over every node with no repeats: the working set
/// dwarfs the row cache, so every request pays for its RWR solves.
pub const WIRE_COLD: WireSpec = WireSpec {
    mix: MixKind::Uniform,
    repeat: 0.0,
    nominal_rps: 15.0,
    ladder: &[30.0, 40.0, 52.0, 68.0, 88.0],
    overload_rps: 120.0,
    slo_ms: 250.0,
    nominal_frac: 0.4,
    step_frac: 0.12,
};

/// Query nodes per request (the paper's `Q`).
const QUERIES_PER: usize = 3;
/// Query mixes the requests rotate through. Each hub mix draws its own
/// hot pool, so a run's cost averages over several pools instead of
/// hanging on the few nodes one pool ranks highest.
const MIXES: u64 = 4;
/// Hot-pool width of each hub mix (ignored by uniform mixes).
const HOT_POOL_SIZE: usize = 16;
/// Seed of the hub mixes' hot pools. The pools are part of the workload,
/// like the graph: which nodes are popular is fixed, and `--seed` picks
/// the arrival times and where each mix's query stream starts. With
/// seeded pools the workload's cost swung with the seed, since one
/// pool's queries can cost a hundred times another's.
const HOT_POOL_SEED: u64 = 0x5eed;
/// Most queries a hub mix skips to reach its seeded starting point.
const MAX_SKIP: u64 = 4096;
/// Client connections; equal to the server's workers, so no connection
/// waits for a worker to free up.
const CONNECTIONS: usize = 2;
/// Budget `b`, passed to the server and to the reference engine.
const BUDGET: usize = 20;
/// The server's flags: the full serving stack (row cache, single-flight,
/// coalescing window, degree warming) on 2 workers, 1 solver thread.
const SERVER_FLAGS: &[&str] = &[
    "--workers",
    "2",
    "--cache-mb",
    "8",
    "--coalesce-us",
    "200",
    "--warm-frac",
    "0.5",
    "--threads",
    "1",
    "--budget",
    "20",
];
/// Seed of the medium preset graph (fixed: the graph is the system under
/// test, the seed varies the traffic).
const GRAPH_SEED: u64 = 0;
/// Seconds of warmup traffic before the nominal phase.
const WARMUP_S: f64 = 2.0;
/// Server start-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Every `SAMPLE_STRIDE`-th arrival's reply is kept for the correctness
/// check, at most `SAMPLE_CAP` of them. The stride is prime, so the kept
/// replies rotate through all the query mixes.
const SAMPLE_STRIDE: usize = 17;
const SAMPLE_CAP: usize = 48;
/// A run whose generator sent later than this (p99 over arrivals whose
/// connection was idle) is invalid: its latencies would be the
/// generator's, not the server's.
const LAG_LIMIT_MS: f64 = 50.0;
/// How long the server may take to become ready or to drain.
const START_TIMEOUT: Duration = Duration::from_secs(120);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Files and addresses of one run, all under the run's work directory.
struct Paths {
    ceps: PathBuf,
    graph: PathBuf,
    sock: PathBuf,
    work: PathBuf,
}

impl Paths {
    fn addr(&self) -> String {
        format!("unix://{}", self.sock.display())
    }
}

/// A `ceps serve --listen` child. Dropping it kills and reaps the
/// process if it is still running.
struct Server {
    child: Child,
}

impl Server {
    /// Starts a server and waits until it answers a ping; returns it with
    /// the seconds from spawn to ready.
    fn start(paths: &Paths, extra: &[String]) -> Result<(Server, f64), String> {
        let _ = fs::remove_file(&paths.sock);
        let log = paths.work.join("server.log");
        let stderr = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let child = Command::new(&paths.ceps)
            .arg("serve")
            .arg("--graph")
            .arg(&paths.graph)
            .arg("--listen")
            .arg(paths.addr())
            .args(SERVER_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", paths.ceps.display()))?;
        let mut server = Server { child };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited during start-up ({status}); log: {}",
                    fs::read_to_string(&log).unwrap_or_default()
                ));
            }
            if paths.sock.exists() {
                if let Ok(mut c) = CepsClient::connect(&paths.addr()) {
                    if c.ping().is_ok() {
                        return Ok((server, t0.elapsed().as_secs_f64()));
                    }
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("server did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain over `client` and waits for it to exit.
    fn shutdown(&mut self, client: &mut CepsClient) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < DRAIN_TIMEOUT {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Shed,
    Error,
    /// Still unsent when its phase was cut off: not attempted, and its
    /// latency is censored at the cut-off.
    Unsent,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Arrival {
    /// Intended send time, seconds from the phase start.
    due: f64,
    nodes: Vec<NodeId>,
    /// Whether its reply is kept for the correctness check.
    keep: bool,
}

/// What happened to one arrival. Times are seconds from the phase start.
#[derive(Debug, Clone, Copy)]
struct Record {
    due: f64,
    sent: f64,
    done: f64,
    outcome: Outcome,
    /// The connection had finished its previous request by `due`, so any
    /// gap between `due` and `sent` is the generator's own lateness.
    idle_lane: bool,
    /// Client-side `trace_id` (0 when tracing is off).
    trace_id: u64,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// One phase of a run: a fixed rate for a fixed time.
#[derive(Debug, Clone)]
struct Phase {
    rps: f64,
    duration_s: f64,
    /// Arrivals still unsent this long after the phase start are cut.
    cutoff_s: f64,
    arrivals: Vec<Arrival>,
}

/// A finished phase.
#[derive(Debug)]
struct PhaseRun {
    rps: f64,
    duration_s: f64,
    records: Vec<Record>,
    kept: Vec<(Vec<NodeId>, ServeReply)>,
    /// Phase start to last completion, seconds.
    wall_s: f64,
}

impl PhaseRun {
    fn count(&self, o: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == o).count()
    }

    fn sent(&self) -> usize {
        self.records.len() - self.count(Outcome::Unsent)
    }

    fn failed(&self) -> usize {
        self.count(Outcome::Shed) + self.count(Outcome::Error)
    }

    /// Intended-time latencies of every arrival, unsent ones censored at
    /// the cut-off; sorted.
    fn latencies(&self) -> Vec<f64> {
        stats::sorted(self.records.iter().map(Record::latency_ms))
    }

    /// Ok replies per second over the phase, or over a longer window
    /// when the backlog took more than `grace_s` past its end to drain.
    fn achieved_rps(&self, grace_s: f64) -> f64 {
        self.count(Outcome::Ok) as f64 / self.duration_s.max(self.wall_s - grace_s)
    }

    /// The rate the schedule actually offered.
    fn offered_rps(&self) -> f64 {
        self.records.len() as f64 / self.duration_s
    }

    /// The phase as a ladder step. Replies landing within the SLO after
    /// the step's end do not count as falling behind.
    fn step(&self, slo_ms: f64) -> Step {
        let n = self.records.len().max(1) as f64;
        Step {
            offered_rps: self.rps,
            p99_ms: stats::percentile(&self.latencies(), 99.0),
            kept_up: self.achieved_rps(slo_ms / 1e3) >= 0.95 * self.offered_rps()
                && self.failed() as f64 <= 0.01 * n,
        }
    }

    /// p99 of `sent − due` over arrivals whose connection was idle.
    fn send_lag_p99_ms(&self) -> f64 {
        let lags = stats::sorted(
            self.records
                .iter()
                .filter(|r| r.idle_lane && r.outcome != Outcome::Unsent)
                .map(|r| (r.sent - r.due) * 1e3),
        );
        stats::percentile(&lags, 99.0)
    }
}

/// Fires `phase` over the connections (arrival `i` on connection
/// `i % n`); each connection sends its share in order, one request at a
/// time, as soon as it is due and the previous reply is in.
fn run_phase(clients: &mut [CepsClient], phase: &Phase) -> PhaseRun {
    let lanes = clients.len();
    let base = Instant::now();
    let mut records = Vec::with_capacity(phase.arrivals.len());
    let mut kept = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let mine: Vec<&Arrival> = phase.arrivals.iter().skip(lane).step_by(lanes).collect();
                scope.spawn(move || drive_lane(client, &mine, base, phase.cutoff_s))
            })
            .collect();
        for h in handles {
            let (r, k) = h.join().expect("load lane panicked");
            records.extend(r);
            kept.extend(k);
        }
    });
    records.sort_by(|a: &Record, b: &Record| a.due.total_cmp(&b.due));
    let wall_s = records
        .iter()
        .filter(|r| r.outcome != Outcome::Unsent)
        .map(|r| r.done)
        .fold(0.0, f64::max);
    PhaseRun {
        rps: phase.rps,
        duration_s: phase.duration_s,
        records,
        kept,
        wall_s,
    }
}

fn drive_lane(
    client: &mut CepsClient,
    arrivals: &[&Arrival],
    base: Instant,
    cutoff_s: f64,
) -> (Vec<Record>, Vec<(Vec<NodeId>, ServeReply)>) {
    let mut records = Vec::with_capacity(arrivals.len());
    let mut kept = Vec::new();
    let mut free_at = 0.0f64;
    let mut dead = false;
    for a in arrivals {
        let now = base.elapsed().as_secs_f64();
        if dead || now > cutoff_s {
            let at = if dead { now } else { cutoff_s };
            records.push(Record {
                due: a.due,
                sent: at,
                done: at.max(a.due),
                outcome: if dead {
                    Outcome::Error
                } else {
                    Outcome::Unsent
                },
                idle_lane: false,
                trace_id: 0,
            });
            continue;
        }
        if a.due > now {
            std::thread::sleep(Duration::from_secs_f64(a.due - now));
        }
        let sent = base.elapsed().as_secs_f64();
        let idle_lane = free_at <= a.due;
        let req = ServeRequest::new(a.nodes.clone());
        let (outcome, trace_id) = match client.send_request(&req) {
            Ok(id) => {
                let trace_id = client.trace_id_of(id).unwrap_or(0);
                let outcome = match client.recv_reply() {
                    Ok(Reply::Scores { id: rid, reply }) if rid == id => {
                        if a.keep {
                            kept.push((a.nodes.clone(), reply));
                        }
                        Outcome::Ok
                    }
                    Ok(Reply::Error { error, .. }) if error.kind == WireErrorKind::Overloaded => {
                        Outcome::Shed
                    }
                    Ok(_) => Outcome::Error,
                    Err(_) => {
                        dead = true;
                        Outcome::Error
                    }
                };
                (outcome, trace_id)
            }
            Err(_) => {
                dead = true;
                (Outcome::Error, 0)
            }
        };
        let done = base.elapsed().as_secs_f64();
        free_at = done;
        records.push(Record {
            due: a.due,
            sent,
            done,
            outcome,
            idle_lane,
            trace_id,
        });
    }
    (records, kept)
}

/// Every phase of a run, generated up front from the seed so the same
/// seed always sends the same requests at the same offsets.
struct Plan {
    warmup: Phase,
    nominal: Phase,
    ladder: Vec<Phase>,
    overload: Phase,
}

impl Plan {
    fn new(spec: &WireSpec, node_space: usize, seed: u64, seconds: f64) -> Plan {
        let nominal_s = spec.nominal_frac * seconds;
        let step_s = spec.step_frac * seconds;
        let mut skips = seed ^ 0x51c1_95ee_d5ee_d000;
        let mut mixes: Vec<QueryMix> = (0..MIXES)
            .map(|k| {
                let base = match spec.mix {
                    MixKind::Hubs => HOT_POOL_SEED,
                    MixKind::Uniform => seed,
                };
                let mut mix = QueryMix::with_mix(
                    node_space,
                    QUERIES_PER,
                    spec.repeat,
                    base.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    spec.mix,
                    HOT_POOL_SIZE,
                );
                if spec.mix == MixKind::Hubs {
                    for _ in 0..splitmix64(&mut skips) % MAX_SKIP {
                        mix.next_query();
                    }
                }
                mix
            })
            .collect();
        let mut counter = 0usize;
        let mut tag = seed;
        let mut phase = |rps: f64, duration_s: f64, cutoff_s: f64| {
            let times =
                arrival_schedule(ArrivalKind::Poisson, rps, duration_s, splitmix64(&mut tag));
            let arrivals = times
                .into_iter()
                .map(|due| {
                    counter += 1;
                    let mix = &mut mixes[counter % MIXES as usize];
                    Arrival {
                        due,
                        nodes: mix
                            .next_query()
                            .into_iter()
                            .map(|n| NodeId(n as u32))
                            .collect(),
                        keep: counter.is_multiple_of(SAMPLE_STRIDE)
                            && counter / SAMPLE_STRIDE <= SAMPLE_CAP,
                    }
                })
                .collect();
            Phase {
                rps,
                duration_s,
                cutoff_s,
                arrivals,
            }
        };
        // Warmup and nominal let a backlog drain; ladder steps end on
        // time and count what they could not send.
        let warmup = phase(spec.nominal_rps, WARMUP_S, WARMUP_S + 10.0);
        let nominal = phase(spec.nominal_rps, nominal_s, nominal_s + 10.0);
        let ladder = spec
            .ladder
            .iter()
            .map(|&r| phase(r, step_s, step_s))
            .collect();
        let overload = phase(spec.overload_rps, step_s, step_s);
        Plan {
            warmup,
            nominal,
            ladder,
            overload,
        }
    }
}

/// Everything one drive of the plan measured.
struct Drive {
    warmup: PhaseRun,
    nominal: PhaseRun,
    ladder: Vec<PhaseRun>,
    overload: Option<PhaseRun>,
    /// Server `Stats` before and after the nominal phase, and at the end.
    stats_before: ServerStats,
    stats_after: ServerStats,
    stats_end: ServerStats,
    /// Server CPU over the nominal phase, milliseconds.
    nominal_cpu_ms: f64,
}

impl Drive {
    /// Every phase, warmup included: all count in `attempted` and
    /// `failed`, and all keep replies for the correctness check.
    fn phases(&self) -> impl Iterator<Item = &PhaseRun> {
        [&self.warmup, &self.nominal]
            .into_iter()
            .chain(&self.ladder)
            .chain(&self.overload)
    }

    fn kept(&self) -> Vec<&(Vec<NodeId>, ServeReply)> {
        self.phases().flat_map(|p| &p.kept).collect()
    }

    /// Sets the report's outcome: requests sent, and those that failed or
    /// (`wrong` of them) came back with a wrong reply.
    fn tally(&self, report: &mut Report, wrong: usize) {
        let failed: usize = self.phases().map(PhaseRun::failed).sum();
        report.correct = wrong == 0;
        report.attempted = self.phases().map(PhaseRun::sent).sum::<usize>() as u64;
        report.failed = (failed + wrong) as u64;
    }
}

/// Pause between phases so one phase's backlog never leaks into the next.
const PHASE_GAP: Duration = Duration::from_millis(200);

fn drive(
    server: &Server,
    clients: &mut [CepsClient],
    plan: &Plan,
    slo_ms: f64,
    nominal_only: bool,
) -> Result<Drive, String> {
    let stats = |c: &mut CepsClient| c.stats().map_err(|e| format!("stats failed: {e}"));
    let warmup = run_phase(clients, &plan.warmup);
    std::thread::sleep(PHASE_GAP);
    let stats_before = stats(&mut clients[0])?;
    let cpu0 = host::cpu_ms(server.pid()).unwrap_or(0.0);
    let nominal = run_phase(clients, &plan.nominal);
    let cpu1 = host::cpu_ms(server.pid()).unwrap_or(0.0);
    let stats_after = stats(&mut clients[0])?;
    let mut ladder: Vec<PhaseRun> = Vec::new();
    let mut overload = None;
    if !nominal_only {
        // Two failing steps in a row end the ladder: one alone may be a
        // burst, and the capacity is read at the last crossing anyway.
        for step in &plan.ladder {
            std::thread::sleep(PHASE_GAP);
            ladder.push(run_phase(clients, step));
            let fails = |p: &PhaseRun| !p.step(slo_ms).passes(slo_ms);
            if ladder.len() >= 2 && ladder.iter().rev().take(2).all(fails) {
                break;
            }
        }
        std::thread::sleep(PHASE_GAP);
        overload = Some(run_phase(clients, &plan.overload));
    }
    Ok(Drive {
        warmup,
        nominal,
        ladder,
        overload,
        stats_before,
        stats_after,
        stats_end: stats(&mut clients[0])?,
        nominal_cpu_ms: cpu1 - cpu0,
    })
}

/// Rebuilds each kept reply with an uncached engine in this process and
/// compares the two byte for byte. Returns the mismatch count and the
/// reference run's stage times `(scores_ms, extract_ms)` per reply.
fn check_replies(
    engine: &CepsEngine,
    kept: &[&(Vec<NodeId>, ServeReply)],
) -> Result<(usize, Vec<(f64, f64)>), String> {
    let mut wrong = 0;
    let mut times = Vec::with_capacity(kept.len());
    for (nodes, got) in kept {
        let (result, st) = engine
            .run_timed(nodes)
            .map_err(|e| format!("reference run failed: {e}"))?;
        let want = ServeReply::from_result(&result, nodes);
        let (want, got) = (
            serde_json::to_string(&want).map_err(|e| e.to_string())?,
            serde_json::to_string(got).map_err(|e| e.to_string())?,
        );
        if want != got {
            wrong += 1;
        }
        times.push((st.scores_ms, st.extract_ms));
    }
    Ok((wrong, times))
}

/// The fixed inputs of a wire run: the graph file the server loads and
/// the reference engine built from the same file.
struct Fixture {
    paths: Paths,
    engine: CepsEngine,
}

impl Fixture {
    fn new(ceps: &Path, work: &Path) -> Result<Fixture, String> {
        let graph = work.join("medium.txt");
        let data = ceps_datagen::CoauthorConfig::medium()
            .seed(GRAPH_SEED)
            .generate();
        let mut buf = Vec::new();
        ceps_graph::io::write_edge_list(&data.graph, &mut buf).map_err(|e| e.to_string())?;
        fs::write(&graph, &buf).map_err(|e| format!("{}: {e}", graph.display()))?;
        let loaded =
            ceps_graph::io::read_edge_list(&buf[..]).map_err(|e| format!("edge list: {e}"))?;
        let engine = CepsEngine::new(loaded, CepsConfig::default().budget(BUDGET).threads(1))
            .map_err(|e| format!("engine: {e}"))?;
        Ok(Fixture {
            paths: Paths {
                ceps: ceps.to_path_buf(),
                graph,
                // Relative to the checkout, which keeps the socket path
                // under the 108-byte limit wherever the checkout lives.
                sock: work
                    .strip_prefix(std::env::current_dir().map_err(|e| e.to_string())?)
                    .unwrap_or(work)
                    .join("s.sock"),
                work: work.to_path_buf(),
            },
            engine,
        })
    }

    fn connect(&self, traced: bool) -> Result<Vec<CepsClient>, String> {
        (0..CONNECTIONS)
            .map(|_| {
                let c = CepsClient::connect(&self.paths.addr())
                    .map_err(|e| format!("connect failed: {e}"))?;
                Ok(if traced { c.with_tracing() } else { c })
            })
            .collect()
    }
}

fn affinity_note(report: &mut Report, server_pid: u32) {
    let (srv, srv_n) = host::affinity(server_pid);
    let (gen, gen_n) = host::affinity(std::process::id());
    report.note(format!(
        "affinity: server cpus {srv} ({srv_n}), generator cpus {gen} ({gen_n}), host cores {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
}

/// Rejects a run whose generator sent late.
fn check_generator(nominal: &PhaseRun) -> Result<f64, String> {
    let lag = nominal.send_lag_p99_ms();
    if lag > LAG_LIMIT_MS {
        return Err(format!(
            "invalid run: the generator sent {lag:.1} ms late at p99 on idle connections \
             (limit {LAG_LIMIT_MS} ms); its latencies would measure the generator"
        ));
    }
    Ok(lag)
}

/// The timed run: end-to-end metrics with tracing off.
pub fn timed(
    spec: &WireSpec,
    ceps: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let fx = Fixture::new(ceps, work)?;
    let plan = Plan::new(spec, fx.engine.graph().node_count(), seed, seconds);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let (mut s, secs) = Server::start(&fx.paths, &[])?;
        setups.push(secs);
        if i + 1 < SETUP_REPEATS {
            let mut c = CepsClient::connect(&fx.paths.addr()).map_err(|e| e.to_string())?;
            s.shutdown(&mut c)?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one start-up");
    let mut clients = fx.connect(false)?;
    let d = drive(&server, &mut clients, &plan, spec.slo_ms, false)?;
    let rss = host::peak_rss_mb(server.pid()).unwrap_or(0.0);
    let mut report = Report::default();
    affinity_note(&mut report, server.pid());
    server.shutdown(&mut clients[0])?;
    drop(clients);
    let lag = check_generator(&d.nominal)?;
    let kept = d.kept();
    let (wrong, _) = check_replies(&fx.engine, &kept)?;

    let lat = d.nominal.latencies();
    let steps: Vec<Step> = d.ladder.iter().map(|p| p.step(spec.slo_ms)).collect();
    let overload = d
        .overload
        .as_ref()
        .expect("a full drive has an overload step");
    let good = overload
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && r.done <= overload.duration_s)
        .count();
    let nominal_ok = d.nominal.count(Outcome::Ok).max(1);
    d.tally(&mut report, wrong);
    report.note(format!(
        "nominal {} rps: n={}, p90 {:.2} ms, p99 {:.2} ms (p99 has {} samples beyond; ten \
         or more: {}), send lag p99 {lag:.3} ms",
        spec.nominal_rps,
        lat.len(),
        stats::percentile(&lat, 90.0),
        stats::percentile(&lat, 99.0),
        stats::samples_beyond(lat.len(), 99.0),
        stats::supports(lat.len(), 99.0),
    ));
    for s in &steps {
        report.note(format!(
            "ladder {:>5.0} rps: p99 {:>9.2} ms, kept up {} -> {}",
            s.offered_rps,
            s.p99_ms,
            s.kept_up,
            if s.passes(spec.slo_ms) {
                "pass"
            } else {
                "fail"
            }
        ));
    }
    report.note(format!(
        "capacity {:.2} rps (not gated; the traced run reports it as load.capacity_rps)",
        stats::ladder_capacity(&steps, spec.slo_ms)
    ));
    report.note(format!(
        "setup runs {setups:.3?} s; correctness: {} replies checked, {wrong} wrong",
        kept.len()
    ));
    report.put("setup_s", stats::median(&setups), "s");
    report.put("p50_ms", stats::percentile(&lat, 50.0), "ms");
    report.put("qps", d.nominal.achieved_rps(0.0), "1/s");
    report.put("goodput_rps", good as f64 / overload.duration_s, "1/s");
    report.put("cpu_ms_per_req", d.nominal_cpu_ms / nominal_ok as f64, "ms");
    report.put("peak_rss_mb", rss, "MiB");
    Ok(report)
}

/// Counters and histogram sums of a `.prom` export (unlabelled lines).
fn read_prom(path: &Path) -> std::collections::HashMap<String, f64> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.parse().ok()?))
        })
        .collect()
}

/// One server `ceps-trace/v1` line, as the join needs it.
#[derive(Debug, Clone, Copy)]
struct ServerLine {
    latency_ms: f64,
    queue_ms: f64,
    scores_ms: f64,
    combine_ms: f64,
    extract_ms: f64,
}

fn read_server_traces(path: &Path) -> Vec<(u64, ServerLine)> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let v: serde_json::Value = serde_json::from_str(l).ok()?;
            let id = ceps_obs::parse_id_hex(v["trace_id"].as_str()?)?;
            let f = |k: &str| v[k].as_f64().unwrap_or(0.0);
            Some((
                id,
                ServerLine {
                    latency_ms: f("latency_ms"),
                    queue_ms: f("queue_ms"),
                    scores_ms: f("scores_ms"),
                    combine_ms: f("combine_ms"),
                    extract_ms: f("extract_ms"),
                },
            ))
        })
        .collect()
}

/// The traced run: per-layer metrics. An untraced server runs the warmup
/// and nominal phases first, for the tracing-overhead reference; then a
/// traced server runs the whole plan with client tracing on.
pub fn traced(
    spec: &WireSpec,
    ceps: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let fx = Fixture::new(ceps, work)?;
    let plan = Plan::new(spec, fx.engine.graph().node_count(), seed, seconds);

    let (mut plain, _) = Server::start(&fx.paths, &[])?;
    let mut clients = fx.connect(false)?;
    let reference = drive(&plain, &mut clients, &plan, spec.slo_ms, true)?;
    plain.shutdown(&mut clients[0])?;
    drop((clients, plain));
    let untraced = reference.nominal.latencies();
    let untraced_p50 = stats::percentile(&untraced, 50.0);

    let srv_traces = work.join("server_traces.jsonl");
    let prom = work.join("server.prom");
    let flags: Vec<String> = [
        "--trace-out",
        &srv_traces.display().to_string(),
        "--trace-sample",
        "1",
        "--metrics-out",
        &prom.display().to_string(),
        "--metrics-interval",
        "100",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (mut server, _) = Server::start(&fx.paths, &flags)?;
    // The exporter's first flush carries the start-up (warming) counts;
    // everything after it is request work.
    let t0 = Instant::now();
    while !read_prom(&prom).contains_key("ceps_serve_warm_rows") && t0.elapsed() < START_TIMEOUT {
        std::thread::sleep(Duration::from_millis(20));
    }
    let prom0 = read_prom(&prom);
    let mut clients = fx.connect(true)?;
    let d = drive(&server, &mut clients, &plan, spec.slo_ms, false)?;
    let mut report = Report::default();
    affinity_note(&mut report, server.pid());
    let srv_cpus = host::affinity(server.pid()).1;
    server.shutdown(&mut clients[0])?;
    drop(clients);
    let prom1 = read_prom(&prom);
    let lag = check_generator(&d.nominal)?;

    ceps_obs::install_recorder();
    ceps_obs::reset();
    let kept = d.kept();
    let (wrong, times) = check_replies(&fx.engine, &kept)?;
    let ref_snap = ceps_obs::snapshot();
    ceps_obs::uninstall_recorder();

    d.tally(&mut report, wrong);

    put_tail(&mut report, &untraced);

    // load
    report.put("load.send_lag_p99_ms", lag, "ms");
    let passing: Vec<&PhaseRun> = std::iter::once(&d.nominal)
        .chain(
            d.ladder
                .iter()
                .filter(|p| p.step(spec.slo_ms).passes(spec.slo_ms)),
        )
        .collect();
    let backlog = passing
        .iter()
        .map(|p| {
            let pairs: Vec<(f64, f64)> = p.records.iter().map(|r| (r.due, r.sent)).collect();
            stats::backlog_max(&pairs)
        })
        .max()
        .unwrap_or(0);
    report.put("load.backlog_max", backlog as f64, "count");
    let steps: Vec<Step> = d.ladder.iter().map(|p| p.step(spec.slo_ms)).collect();
    report.put(
        "load.capacity_rps",
        stats::ladder_capacity(&steps, spec.slo_ms),
        "1/s",
    );
    report.put(
        "load.generator_cpus",
        host::affinity(std::process::id()).1 as f64,
        "count",
    );

    // net: join the nominal phase's client records to the server lines.
    let server_lines = read_server_traces(&srv_traces);
    let client: Vec<(u64, Record)> = d
        .nominal
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && r.trace_id != 0)
        .map(|r| (r.trace_id, *r))
        .collect();
    let joined = stats::join_on_trace_id(&client, &server_lines);
    report.note(format!(
        "trace join: {} of {} nominal replies matched a server line",
        joined.len(),
        client.len()
    ));
    let col = |f: &dyn Fn(&Record, &ServerLine) -> f64| -> Vec<f64> {
        stats::sorted(joined.iter().map(|(_, c, s)| f(c, s)))
    };
    let overhead = col(&|c, s| (c.done - c.sent) * 1e3 - s.latency_ms);
    let queue = col(&|_, s| s.queue_ms);
    report.put(
        "net.rtt_overhead_p50_ms",
        stats::percentile(&overhead, 50.0),
        "ms",
    );
    report.put("net.queue_p99_ms", stats::percentile(&queue, 99.0), "ms");
    let bytes: Vec<f64> = kept
        .iter()
        .map(|(_, reply)| {
            ceps_net::wire::encode_frame(&Reply::Scores {
                id: 1,
                reply: reply.clone(),
            })
            .len() as f64
        })
        .collect();
    report.put(
        "net.bytes_per_reply",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "B",
    );
    report.put(
        "net.sheds",
        (d.stats_end.sheds - d.stats_before.sheds) as f64,
        "count",
    );
    report.put(
        "net.errors",
        (d.stats_end.errors - d.stats_before.errors) as f64,
        "count",
    );

    // serve: stage times from the server's own trace lines.
    let lat = col(&|_, s| s.latency_ms);
    let scores = col(&|_, s| s.scores_ms);
    let combine = col(&|_, s| s.combine_ms);
    let extract = col(&|_, s| s.extract_ms);
    report.put("serve.latency_p50_ms", stats::percentile(&lat, 50.0), "ms");
    report.put("serve.latency_p99_ms", stats::percentile(&lat, 99.0), "ms");
    report.put(
        "serve.scores_p50_ms",
        stats::percentile(&scores, 50.0),
        "ms",
    );
    report.put(
        "serve.scores_p99_ms",
        stats::percentile(&scores, 99.0),
        "ms",
    );
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
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let coverage = (sum(&scores) + sum(&combine) + sum(&extract)) / sum(&lat).max(1e-12);
    report.put("serve.coverage", coverage, "ratio");
    let scores_share = sum(&scores) / sum(&lat).max(1e-12);
    let extract_share = sum(&extract) / sum(&lat).max(1e-12);
    report.put("serve.scores_share", scores_share, "ratio");
    report.put("serve.extract_share", extract_share, "ratio");
    if coverage < 0.9 {
        report.note(format!(
            "finding: serve.coverage {coverage:.3} < 0.9 — the stage spans miss part of the \
             server's latency"
        ));
    }
    report.put("serve.server_cpus", srv_cpus as f64, "count");

    // cache / coalesce over the nominal phase (Stats) and the run (.prom).
    let (c0, c1) = (
        d.stats_before.cache.unwrap_or_default(),
        d.stats_after.cache.unwrap_or_default(),
    );
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    report.put(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.put(
        "cache.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
    );
    report.put(
        "cache.singleflight_waits",
        (d.stats_end.singleflight_waits - d.stats_before.singleflight_waits) as f64,
        "count",
    );
    report.put("cache.warm_rows", d.stats_end.warm_rows as f64, "count");
    let delta =
        |k: &str| prom1.get(k).copied().unwrap_or(0.0) - prom0.get(k).copied().unwrap_or(0.0);
    report.put(
        "coalesce.rows_per_batch",
        delta("ceps_serve_coalesce_rows") / delta("ceps_serve_coalesce_batches").max(1.0),
        "count",
    );

    // rwr / graph / pool / extract, per request served by the traced
    // server (warming excluded).
    let served = delta("ceps_net_queries_total").max(1.0);
    let nnz = fx.engine.transition().nnz() as f64;
    let n = fx.engine.graph().node_count() as f64;
    let col_iters = delta("ceps_rwr_iterations_sum");
    let columns = delta("ceps_rwr_columns");
    let solves = delta("ceps_rwr_solves");
    let matrix_bytes = fx.engine.transition().memory_bytes() as f64;
    let per_q_bytes = spmm_bytes(col_iters, columns, solves, matrix_bytes, n);
    report.put("rwr.solves_per_query", solves / served, "count");
    report.put("rwr.columns_per_query", columns / served, "count");
    report.put(
        "rwr.iterations_per_column",
        col_iters / columns.max(1.0),
        "count",
    );
    report.put(
        "rwr.frozen_columns_per_query",
        delta("ceps_rwr_frozen_columns") / served,
        "count",
    );
    let solve_ms: Vec<f64> = times.iter().map(|t| t.0).collect();
    let extract_ms: Vec<f64> = times.iter().map(|t| t.1).collect();
    report.put("rwr.solve_ms", stats::median(&solve_ms), "ms");
    report.put(
        "graph.spmm_madds_per_query",
        nnz * col_iters / served,
        "count",
    );
    report.put("graph.spmm_bytes_per_query", per_q_bytes / served, "B");
    put_roofline(&mut report, &ref_snap, &solve_ms, matrix_bytes, n);
    report.put(
        "pool.wakes_per_query",
        delta("ceps_pool_wake") / served,
        "count",
    );
    report.put(
        "pool.chunks_stolen_per_query",
        delta("ceps_pool_chunks_stolen") / served,
        "count",
    );
    report.put("extract.ms", stats::median(&extract_ms), "ms");
    report.put(
        "extract.dp_slots_per_query",
        delta("ceps_extract_dp_slots") / served,
        "count",
    );
    report.put(
        "extract.candidates_per_query",
        delta("ceps_extract_candidates_sum") / served,
        "count",
    );
    let traced_p50 = stats::percentile(&d.nominal.latencies(), 50.0);
    report.put(
        "obs.trace_overhead",
        traced_p50 / untraced_p50.max(1e-12) - 1.0,
        "ratio",
    );
    report.put(
        "fail_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}

/// The untraced tail (`tail.*`): the nominal phase's p90 and p99, or the
/// batch's, from the untraced part of a traced run.
pub fn put_tail(report: &mut Report, sorted_ms: &[f64]) {
    report.put("tail.p90_ms", stats::percentile(sorted_ms, 90.0), "ms");
    report.put("tail.p99_ms", stats::percentile(sorted_ms, 99.0), "ms");
}

/// Computed bytes an SpMM power iteration moves: each block iteration
/// reads the operator once for all of its columns, and each column
/// iteration reads its input vector and writes its output vector
/// (16 bytes per node). `col_iters` column-iterations over `solves`
/// blocks of `columns` columns in total.
pub fn spmm_bytes(col_iters: f64, columns: f64, solves: f64, matrix_bytes: f64, n: f64) -> f64 {
    let cols_per_block = if solves > 0.0 { columns / solves } else { 1.0 };
    col_iters / cols_per_block.max(1.0) * matrix_bytes + col_iters * 16.0 * n
}

/// `graph.spmm_gbps` (computed bytes of the reference solves over their
/// measured time) next to `host.stream_gbps` and the probe's sizes.
pub fn put_roofline(
    report: &mut Report,
    snap: &ceps_obs::MetricsSnapshot,
    solve_ms: &[f64],
    matrix_bytes: f64,
    n: f64,
) {
    let hist = snap.histograms.iter().find(|h| h.name == "rwr.iterations");
    let col_iters = hist.map_or(0.0, |h| h.sum);
    let columns = snap.counter("rwr.columns").unwrap_or(0) as f64;
    let solves = snap.counter("rwr.solves").unwrap_or(0) as f64;
    let bytes = spmm_bytes(col_iters, columns, solves, matrix_bytes, n);
    let secs: f64 = solve_ms.iter().sum::<f64>() / 1e3;
    report.put("graph.spmm_gbps", bytes / secs.max(1e-12) / 1e9, "GB/s");
    let probe = host::stream_probe(5);
    report.put("host.stream_gbps", probe.gbps, "GB/s");
    report.put("host.stream_footprint_mb", probe.footprint_mb, "MiB");
    report.put("host.llc_mb", probe.llc_mb, "MiB");
    report.note(format!(
        "roofline: SpMM bytes are computed from Transition::memory_bytes and iteration counts \
         (16 B/node/column-iteration for the vectors), not measured; stream probe copies \
         {:.0} MiB total against a {:.0} MiB last-level cache",
        probe.footprint_mb, probe.llc_mb
    ));
}
