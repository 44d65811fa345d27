//! Argument parsing — hand-rolled to stay within the workspace's
//! dependency policy (no clap).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use ceps_core::QueryType;
use ceps_load::{ArrivalKind, LoadConfig, MixKind, SloSpec, DEFAULT_HOT_POOL};

use crate::CliError;

/// A parsed CLI invocation: one variant per subcommand, each wrapping the
/// options its command function takes.
#[derive(Debug, Clone)]
pub enum Command {
    /// `ceps generate` — write a synthetic co-authorship graph.
    Generate(GenerateArgs),
    /// `ceps stats` — print basic graph statistics.
    Stats(StatsArgs),
    /// `ceps query` — run a center-piece query.
    Query(QueryArgs),
    /// `ceps partition` — k-way partition a graph.
    Partition(PartitionArgs),
    /// `ceps serve` — replay a synthetic query stream through a
    /// [`ceps_core::CepsService`] and report throughput + cache behaviour.
    Serve(ServeArgs),
    /// `ceps client` — talk `ceps-wire/v1` to a running `serve --listen`.
    Client(ClientArgs),
    /// `ceps loadgen` — open-loop load generation against a running
    /// `serve --listen`, with coordinated-omission-free latency and an
    /// optional SLO capacity search.
    Loadgen(LoadgenArgs),
    /// `ceps autok` — infer the softAND coefficient for a query set.
    AutoK(AutoKArgs),
    /// `ceps import` — convert tab-separated co-author pairs to the
    /// edge-list + labels formats.
    Import(ImportArgs),
    /// `ceps help` / no args.
    Help,
}

/// Options of `ceps generate`.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    /// Scale preset name.
    pub scale: String,
    /// Generator seed.
    pub seed: u64,
    /// Edge-list output path.
    pub out: PathBuf,
    /// Optional labels output path.
    pub labels_out: Option<PathBuf>,
}

/// Options of `ceps stats`.
#[derive(Debug, Clone)]
pub struct StatsArgs {
    /// Edge-list input path.
    pub graph: PathBuf,
}

/// Options of `ceps query`.
#[derive(Debug, Clone)]
pub struct QueryArgs {
    /// Edge-list input path.
    pub graph: PathBuf,
    /// Optional labels file (one name per line, line i = node i).
    pub labels: Option<PathBuf>,
    /// Comma-separated query nodes (names if labels given, else ids).
    pub queries: String,
    /// Query type.
    pub query_type: QueryType,
    /// Budget `b`.
    pub budget: usize,
    /// Normalization exponent `α`.
    pub alpha: f64,
    /// Optional DOT output path.
    pub dot: Option<PathBuf>,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Forward-push threshold (None = power iteration).
    pub push: Option<f64>,
    /// RWR worker threads (`0` = auto: all available cores).
    pub threads: usize,
    /// Record per-stage spans/counters and print the profile tree.
    pub profile: bool,
    /// Where to write the `ceps-obs/v1` snapshot (default
    /// `results/OBS_profile.json`); only used with `--profile`.
    pub profile_out: Option<PathBuf>,
}

/// Options of `ceps partition`.
#[derive(Debug, Clone)]
pub struct PartitionArgs {
    /// Edge-list input path.
    pub graph: PathBuf,
    /// Number of parts.
    pub parts: usize,
    /// Seed.
    pub seed: u64,
    /// Output path for `node part` lines.
    pub out: PathBuf,
}

/// Options of `ceps serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Edge-list input path.
    pub graph: PathBuf,
    /// Number of query sets to serve.
    pub requests: usize,
    /// Query nodes per request.
    pub queries_per: usize,
    /// Worker threads serving the stream or the wire connections.
    pub workers: usize,
    /// Probability a query node is drawn from the hot (hub) pool.
    pub repeat: f64,
    /// Budget `b`.
    pub budget: usize,
    /// Normalization exponent `α`.
    pub alpha: f64,
    /// Row-cache budget in MiB (0 disables the cache).
    pub cache_mb: usize,
    /// Micro-batching coalescing window in microseconds (0 = off).
    pub coalesce_us: u64,
    /// Fraction of the cache byte budget pre-filled at startup by
    /// degree-weighted warming (0 = no warming).
    pub warm_frac: f64,
    /// Stream seed.
    pub seed: u64,
    /// RWR worker threads per solve (`0` = auto).
    pub threads: usize,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Record per-stage spans/counters and print the profile tree.
    pub profile: bool,
    /// Where to write the `ceps-obs/v1` snapshot (default
    /// `results/OBS_profile.json`); only used with `--profile`.
    pub profile_out: Option<PathBuf>,
    /// Where to write the live Prometheus exposition file; enables the
    /// background metrics exporter (a `.jsonl` event stream is written
    /// next to it).
    pub metrics_out: Option<PathBuf>,
    /// Exporter flush interval in milliseconds.
    pub metrics_interval_ms: u64,
    /// Where to write sampled `ceps-trace/v1` request traces; enables
    /// per-request tracing.
    pub trace_out: Option<PathBuf>,
    /// Head-sampling rate for traces, in `[0, 1]`.
    pub trace_sample: f64,
    /// Listen address (`tcp://host:port`, `unix:///path`, `host:port`
    /// or a socket path). When set, `serve` runs a long-lived
    /// `ceps-wire/v1` server instead of replaying a synthetic stream.
    pub listen: Option<String>,
    /// Where to write the flight-recorder ring (`ceps-flight/v1`
    /// JSONL) when the server drains or panics; enables the recorder.
    pub flight_out: Option<PathBuf>,
}

/// Options of `ceps client`.
#[derive(Debug, Clone)]
pub struct ClientArgs {
    /// Server address (same grammar as `--listen`).
    pub connect: String,
    /// What to ask the server.
    pub action: ClientAction,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Reply deadline in milliseconds (`0` waits forever).
    pub timeout_ms: u64,
    /// Where to write client-side `ceps-trace/v1` lines (one per
    /// query reply); enables end-to-end trace propagation.
    pub trace_out: Option<PathBuf>,
}

/// Options of `ceps loadgen`.
#[derive(Debug, Clone)]
pub struct LoadgenArgs {
    /// Server address (same grammar as `--listen`).
    pub connect: String,
    /// The open-loop run: rate, duration, arrivals, connections and
    /// query mix.
    pub load: LoadConfig,
    /// The SLO a run is judged against.
    pub slo: SloSpec,
    /// Run the capacity search instead of a single fixed-rate run.
    pub search: bool,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Also write the JSON report/curve to this path.
    pub out: Option<PathBuf>,
}

/// Options of `ceps autok`.
#[derive(Debug, Clone)]
pub struct AutoKArgs {
    /// Edge-list input path.
    pub graph: PathBuf,
    /// Optional labels file.
    pub labels: Option<PathBuf>,
    /// Comma-separated query nodes.
    pub queries: String,
    /// Normalization exponent.
    pub alpha: f64,
    /// Worker threads for the RWR solves (`0` = auto).
    pub threads: usize,
}

/// Options of `ceps import`.
#[derive(Debug, Clone)]
pub struct ImportArgs {
    /// Co-author pairs input path.
    pub pairs: PathBuf,
    /// Edge-list output path.
    pub out: PathBuf,
    /// Labels output path.
    pub labels_out: PathBuf,
}

/// What a `ceps client` invocation asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// One-shot query: comma-separated node ids.
    Query(String),
    /// Batch mode: one comma-separated query set per stdin line.
    Stdin,
    /// Server-side `K_softAND` inference for comma-separated node ids.
    AutoK(String),
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Fetch the server's flight-recorder ring as `ceps-flight/v1` JSONL.
    DumpFlight,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Usage text shown by `ceps help` and on argument errors.
pub const USAGE: &str = "\
ceps — center-piece subgraph discovery (Tong & Faloutsos)

USAGE:
  ceps generate --scale <tiny|small|medium|large> [--seed N] --out FILE [--labels-out FILE]
  ceps stats    --graph FILE
  ceps query    --graph FILE [--labels FILE] --queries \"a,b,...\"
                [--type and|or|softand:K] [--budget N] [--alpha A]
                [--dot FILE] [--json] [--push EPS] [--threads N]
                [--profile] [--profile-out FILE]
  ceps serve    --graph FILE [--requests N] [--queries-per Q] [--workers W]
                [--repeat R] [--budget N] [--alpha A] [--cache-mb M]
                [--coalesce-us U] [--warm-frac F]
                [--seed N] [--threads N] [--json]
                [--profile] [--profile-out FILE]
                [--metrics-out FILE.prom] [--metrics-interval MS]
                [--trace-out FILE.jsonl] [--trace-sample RATE]
                [--listen ADDR] [--flight-out FILE.jsonl]
  ceps client   --connect ADDR (--queries \"a,b,...\" | --stdin |
                --autok \"a,b,...\" | --ping | --stats | --dump-flight |
                --shutdown)
                [--json] [--timeout MS] [--trace-out FILE.jsonl]
  ceps loadgen  --connect ADDR [--rps R] [--duration S] [--warmup S]
                [--arrival poisson|constant] [--connections N]
                [--queries-per Q] [--nodes N] [--repeat R]
                [--mix uniform|hubs] [--pool-size N] [--seed N]
                [--slo-p99-ms X] [--max-error-rate F] [--search]
                [--json] [--out FILE]
  ceps partition --graph FILE --parts K [--seed N] --out FILE
  ceps autok    --graph FILE [--labels FILE] --queries \"a,b,...\" [--alpha A]
                [--threads N]
  ceps import   --pairs FILE --out FILE --labels-out FILE
  ceps help

  --threads N uses a persistent worker pool for the RWR solves; 0 = auto
  (all available cores, default 1). Small solves fall back to the
  sequential kernel automatically, so 0 is safe on any graph.

  Every subcommand rejects flags it does not take.

  serve --listen ADDR turns serve into a long-lived ceps-wire/v1 server
  (ADDR: tcp://host:port, unix:///path, host:port, or a socket path);
  client talks to it over the same address grammar. Wire replies are
  byte-identical to the in-process API's results.

  serve --coalesce-us U holds cache misses in a bounded micro-batching
  window (U microseconds, drained early at 32 pooled rows) so concurrent
  requests missing overlapping RWR rows share one wide solve; 0 (the
  default) disables coalescing. --warm-frac F pre-solves the top-degree
  rows into the cache at startup, up to F of the cache byte budget.
  Both preserve bitwise-identical replies.

  loadgen drives a running serve --listen open-loop: arrivals fire on a
  pre-built deterministic schedule and every latency is charged to the
  intended send time, so a stalled server cannot hide its backlog
  (coordinated-omission correction). --search steps/bisects the offered
  rate to find the max load meeting the SLO and prints the
  throughput-latency curve with the knee marked. --mix hubs draws fresh
  query nodes rank-weighted from a seeded hot pool (--pool-size ids) —
  hub-shaped traffic that exercises the server's row cache.

  client --trace-out attaches a trace context to every query; the server
  adopts it, so client and server ceps-trace/v1 lines share one trace_id
  per request. serve --flight-out enables the in-memory flight recorder
  and writes its ring (ceps-flight/v1 JSONL) when the server drains or
  panics; client --dump-flight fetches the same ring over the wire.
";

/// One subcommand's `--key value` flags. Every lookup records its key, so
/// after a subcommand's parser has read what it takes,
/// [`Flags::reject_unread`] names any flag it never looked at.
struct Flags {
    values: HashMap<String, String>,
    read: RefCell<HashSet<String>>,
}

impl Flags {
    fn new(args: &[String]) -> Result<Flags, CliError> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            if !key.starts_with("--") {
                return Err(CliError(format!("unexpected argument {key:?}")));
            }
            if matches!(
                key.as_str(),
                "--json"
                    | "--profile"
                    | "--stdin"
                    | "--ping"
                    | "--stats"
                    | "--dump-flight"
                    | "--shutdown"
                    | "--search"
            ) {
                values.insert(key[2..].to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| CliError(format!("flag {key} needs a value")))?;
            values.insert(key[2..].to_string(), value.clone());
            i += 2;
        }
        Ok(Flags {
            values,
            read: RefCell::new(HashSet::new()),
        })
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key)
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.get(key).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("bad value for --{key}: {v:?}"))),
        }
    }

    fn required(&self, key: &str) -> Result<String, CliError> {
        self.get(key)
            .cloned()
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// Fails on the first (alphabetically) flag `command`'s parser never
    /// read.
    fn reject_unread(&self, command: &str) -> Result<(), CliError> {
        let read = self.read.borrow();
        match self.values.keys().filter(|k| !read.contains(*k)).min() {
            None => Ok(()),
            Some(k) => Err(CliError(format!("unknown flag --{k} for `ceps {command}`"))),
        }
    }
}

fn parse_query_type(s: &str) -> Result<QueryType, CliError> {
    match s {
        "and" => Ok(QueryType::And),
        "or" => Ok(QueryType::Or),
        _ => {
            if let Some(k) = s.strip_prefix("softand:") {
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError(format!("bad softand coefficient {k:?}")))?;
                Ok(QueryType::SoftAnd(k))
            } else {
                Err(CliError(format!(
                    "unknown query type {s:?} (and|or|softand:K)"
                )))
            }
        }
    }
}

/// Parses a full argument vector (without the program name).
///
/// Each subcommand fails on any flag its parser did not read, naming the
/// flag and the subcommand.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let build: fn(&Flags) -> Result<Command, CliError> = match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "generate" => |flags| {
            Ok(Command::Generate(GenerateArgs {
                scale: flags
                    .get("scale")
                    .cloned()
                    .unwrap_or_else(|| "small".into()),
                seed: flags.num("seed", 0u64)?,
                out: PathBuf::from(flags.required("out")?),
                labels_out: flags.path("labels-out"),
            }))
        },
        "stats" => |flags| {
            Ok(Command::Stats(StatsArgs {
                graph: PathBuf::from(flags.required("graph")?),
            }))
        },
        "query" => |flags| {
            Ok(Command::Query(QueryArgs {
                graph: PathBuf::from(flags.required("graph")?),
                labels: flags.path("labels"),
                queries: flags.required("queries")?,
                query_type: parse_query_type(
                    flags.get("type").map(String::as_str).unwrap_or("and"),
                )?,
                budget: flags.num("budget", 20usize)?,
                alpha: flags.num("alpha", 0.5f64)?,
                dot: flags.path("dot"),
                json: flags.has("json"),
                push: flags
                    .get("push")
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| CliError(format!("bad push threshold {v:?}")))
                    })
                    .transpose()?,
                threads: flags.num("threads", 1usize)?,
                profile: flags.has("profile"),
                profile_out: flags.path("profile-out"),
            }))
        },
        "serve" => |flags| {
            let repeat: f64 = flags.num("repeat", 0.5f64)?;
            if !(0.0..=1.0).contains(&repeat) {
                return Err(CliError(format!("--repeat {repeat} must lie in [0, 1]")));
            }
            let trace_sample: f64 = flags.num("trace-sample", 1.0f64)?;
            if !(0.0..=1.0).contains(&trace_sample) {
                return Err(CliError(format!(
                    "--trace-sample {trace_sample} must lie in [0, 1]"
                )));
            }
            let metrics_interval_ms: u64 = flags.num("metrics-interval", 500u64)?;
            if metrics_interval_ms == 0 {
                return Err(CliError("--metrics-interval must be at least 1 ms".into()));
            }
            let warm_frac: f64 = flags.num("warm-frac", 0.0f64)?;
            if !(0.0..=1.0).contains(&warm_frac) {
                return Err(CliError(format!(
                    "--warm-frac {warm_frac} must lie in [0, 1]"
                )));
            }
            Ok(Command::Serve(ServeArgs {
                graph: PathBuf::from(flags.required("graph")?),
                requests: flags.num("requests", 64usize)?,
                queries_per: flags.num("queries-per", 3usize)?,
                workers: flags.num("workers", 4usize)?,
                repeat,
                budget: flags.num("budget", 20usize)?,
                alpha: flags.num("alpha", 0.5f64)?,
                cache_mb: flags.num("cache-mb", 64usize)?,
                coalesce_us: flags.num("coalesce-us", 0u64)?,
                warm_frac,
                seed: flags.num("seed", 0u64)?,
                threads: flags.num("threads", 1usize)?,
                json: flags.has("json"),
                profile: flags.has("profile"),
                profile_out: flags.path("profile-out"),
                metrics_out: flags.path("metrics-out"),
                metrics_interval_ms,
                trace_out: flags.path("trace-out"),
                trace_sample,
                listen: flags.get("listen").cloned(),
                flight_out: flags.path("flight-out"),
            }))
        },
        "client" => |flags| {
            let mut actions = Vec::new();
            if let Some(q) = flags.get("queries") {
                actions.push(ClientAction::Query(q.clone()));
            }
            if let Some(q) = flags.get("autok") {
                actions.push(ClientAction::AutoK(q.clone()));
            }
            if flags.has("stdin") {
                actions.push(ClientAction::Stdin);
            }
            if flags.has("ping") {
                actions.push(ClientAction::Ping);
            }
            if flags.has("stats") {
                actions.push(ClientAction::Stats);
            }
            if flags.has("dump-flight") {
                actions.push(ClientAction::DumpFlight);
            }
            if flags.has("shutdown") {
                actions.push(ClientAction::Shutdown);
            }
            let action = match actions.len() {
                0 => {
                    return Err(CliError(
                        "client needs exactly one action: --queries, --stdin, --autok, \
                         --ping, --stats, --dump-flight or --shutdown"
                            .into(),
                    ))
                }
                1 => actions.pop().expect("len checked"),
                _ => {
                    return Err(CliError(
                        "client takes one action at a time (got several of --queries/\
                         --stdin/--autok/--ping/--stats/--dump-flight/--shutdown)"
                            .into(),
                    ))
                }
            };
            Ok(Command::Client(ClientArgs {
                connect: flags.required("connect")?,
                action,
                json: flags.has("json"),
                timeout_ms: flags.num("timeout", 30_000u64)?,
                trace_out: flags.path("trace-out"),
            }))
        },
        "loadgen" => |flags| {
            let arrival_str = flags
                .get("arrival")
                .map(String::as_str)
                .unwrap_or("poisson");
            let arrival = ArrivalKind::parse(arrival_str).ok_or_else(|| {
                CliError(format!(
                    "bad value for --arrival: {arrival_str:?} (poisson|constant)"
                ))
            })?;
            let rps: f64 = flags.num("rps", 100.0f64)?;
            if rps <= 0.0 {
                return Err(CliError(format!("--rps {rps} must be positive")));
            }
            let duration_s: f64 = flags.num("duration", 10.0f64)?;
            let warmup_s: f64 = flags.num("warmup", (duration_s / 5.0).min(2.0))?;
            if !(0.0..duration_s).contains(&warmup_s) {
                return Err(CliError(format!(
                    "--warmup {warmup_s} must leave a measurement window inside \
                     --duration {duration_s}"
                )));
            }
            let repeat: f64 = flags.num("repeat", 0.3f64)?;
            if !(0.0..=1.0).contains(&repeat) {
                return Err(CliError(format!("--repeat {repeat} must lie in [0, 1]")));
            }
            let mix_str = flags.get("mix").map(String::as_str).unwrap_or("uniform");
            let mix = MixKind::parse(mix_str).ok_or_else(|| {
                CliError(format!("bad value for --mix: {mix_str:?} (uniform|hubs)"))
            })?;
            let pool_size: usize = flags.num("pool-size", DEFAULT_HOT_POOL)?;
            if pool_size == 0 {
                return Err(CliError("--pool-size must be at least 1".into()));
            }
            Ok(Command::Loadgen(LoadgenArgs {
                connect: flags.required("connect")?,
                load: LoadConfig {
                    rps,
                    duration_s,
                    warmup_s,
                    arrival,
                    connections: flags.num("connections", 4usize)?,
                    queries_per: flags.num("queries-per", 3usize)?,
                    node_space: flags.num("nodes", 1000usize)?,
                    repeat,
                    mix,
                    pool_size,
                    seed: flags.num("seed", 42u64)?,
                },
                slo: SloSpec {
                    p99_ms: flags.num("slo-p99-ms", 100.0f64)?,
                    max_error_rate: flags.num("max-error-rate", 0.01f64)?,
                },
                search: flags.has("search"),
                json: flags.has("json"),
                out: flags.path("out"),
            }))
        },
        "autok" => |flags| {
            Ok(Command::AutoK(AutoKArgs {
                graph: PathBuf::from(flags.required("graph")?),
                labels: flags.path("labels"),
                queries: flags.required("queries")?,
                alpha: flags.num("alpha", 0.5f64)?,
                threads: flags.num("threads", 1usize)?,
            }))
        },
        "import" => |flags| {
            Ok(Command::Import(ImportArgs {
                pairs: PathBuf::from(flags.required("pairs")?),
                out: PathBuf::from(flags.required("out")?),
                labels_out: PathBuf::from(flags.required("labels-out")?),
            }))
        },
        "partition" => |flags| {
            Ok(Command::Partition(PartitionArgs {
                graph: PathBuf::from(flags.required("graph")?),
                parts: flags.num("parts", 0usize).and_then(|p| {
                    if p == 0 {
                        Err(CliError("missing or zero --parts".into()))
                    } else {
                        Ok(p)
                    }
                })?,
                seed: flags.num("seed", 0u64)?,
                out: PathBuf::from(flags.required("out")?),
            }))
        },
        other => return Err(CliError(format!("unknown command {other:?}\n{USAGE}"))),
    };
    let flags = Flags::new(&args[1..])?;
    let command = build(&flags)?;
    flags.reject_unread(cmd)?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse_ok(args: &[&str]) -> Command {
        parse(&v(args)).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        parse(&v(args)).unwrap_err().0
    }

    fn serve(args: &[&str]) -> ServeArgs {
        let mut full = vec!["serve", "--graph", "g"];
        full.extend_from_slice(args);
        match parse_ok(&full) {
            Command::Serve(a) => a,
            other => panic!("{other:?}"),
        }
    }

    fn query(args: &[&str]) -> QueryArgs {
        let mut full = vec!["query", "--graph", "g", "--queries", "0,1"];
        full.extend_from_slice(args);
        match parse_ok(&full) {
            Command::Query(a) => a,
            other => panic!("{other:?}"),
        }
    }

    fn client(args: &[&str]) -> ClientArgs {
        let mut full = vec!["client", "--connect", "a"];
        full.extend_from_slice(args);
        match parse_ok(&full) {
            Command::Client(a) => a,
            other => panic!("{other:?}"),
        }
    }

    fn loadgen(args: &[&str]) -> LoadgenArgs {
        let mut full = vec!["loadgen", "--connect", "a"];
        full.extend_from_slice(args);
        match parse_ok(&full) {
            Command::Loadgen(a) => a,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_and_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse_ok(&["help"]), Command::Help));
        assert!(matches!(parse_ok(&["--help"]), Command::Help));
    }

    #[test]
    fn generate_defaults_and_overrides() {
        match parse_ok(&["generate", "--out", "g.txt"]) {
            Command::Generate(a) => {
                assert_eq!(a.scale, "small");
                assert_eq!(a.seed, 0);
                assert_eq!(a.out, PathBuf::from("g.txt"));
                assert!(a.labels_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let c = parse_ok(&[
            "generate",
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--out",
            "g",
            "--labels-out",
            "l",
        ]);
        assert!(matches!(c, Command::Generate(GenerateArgs { seed: 9, .. })));
    }

    #[test]
    fn query_parses_types() {
        let a = query(&[]);
        assert_eq!(a.query_type, QueryType::And);
        assert_eq!(a.budget, 20);

        let a = query(&["--type", "softand:2", "--budget", "5", "--json"]);
        assert_eq!(a.query_type, QueryType::SoftAnd(2));
        assert_eq!(a.budget, 5);
        assert!(a.json);
    }

    #[test]
    fn profile_flags_parse_on_query_and_serve() {
        let a = query(&[]);
        assert!(!a.profile && a.profile_out.is_none());
        assert!(query(&["--profile"]).profile);
        let a = serve(&["--profile", "--profile-out", "/tmp/p.json"]);
        assert!(a.profile);
        assert_eq!(a.profile_out, Some(PathBuf::from("/tmp/p.json")));
    }

    #[test]
    fn serve_defaults_and_bounds() {
        let a = serve(&[]);
        assert_eq!(a.requests, 64);
        assert_eq!(a.queries_per, 3);
        assert_eq!(a.workers, 4);
        assert_eq!(a.repeat, 0.5);
        assert_eq!(a.cache_mb, 64);
        assert!(!a.json);
        let a = serve(&["--repeat", "0.9", "--cache-mb", "0", "--json"]);
        assert_eq!(a.cache_mb, 0);
        assert!(a.json);
        assert!(parse_err(&["serve", "--graph", "g", "--repeat", "1.5"]).contains("--repeat"));
        assert!(parse_err(&["serve"]).contains("--graph"));
    }

    #[test]
    fn serve_coalescing_and_warming_flags_parse_with_bounds() {
        let a = serve(&[]);
        assert_eq!(a.coalesce_us, 0, "coalescing defaults to off");
        assert_eq!(a.warm_frac, 0.0, "warming defaults to off");
        let a = serve(&["--coalesce-us", "500", "--warm-frac", "0.25"]);
        assert_eq!(a.coalesce_us, 500);
        assert_eq!(a.warm_frac, 0.25);
        assert!(parse_err(&["serve", "--graph", "g", "--warm-frac", "1.5"]).contains("--warm-frac"));
    }

    #[test]
    fn serve_telemetry_flags_parse_with_defaults_and_bounds() {
        let a = serve(&[]);
        assert!(a.metrics_out.is_none());
        assert_eq!(a.metrics_interval_ms, 500);
        assert!(a.trace_out.is_none());
        assert_eq!(a.trace_sample, 1.0);
        let a = serve(&[
            "--metrics-out",
            "m.prom",
            "--metrics-interval",
            "250",
            "--trace-out",
            "t.jsonl",
            "--trace-sample",
            "0.1",
        ]);
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.prom")));
        assert_eq!(a.metrics_interval_ms, 250);
        assert_eq!(a.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(a.trace_sample, 0.1);
        assert!(
            parse_err(&["serve", "--graph", "g", "--trace-sample", "1.5"])
                .contains("--trace-sample")
        );
        assert!(
            parse_err(&["serve", "--graph", "g", "--metrics-interval", "0"])
                .contains("--metrics-interval")
        );
    }

    #[test]
    fn unknown_flags_fail_naming_the_flag_and_subcommand() {
        for (args, flag, command) in [
            (
                &[
                    "query",
                    "--graph",
                    "g",
                    "--queries",
                    "0,7",
                    "--budgett",
                    "3",
                ][..],
                "--budgett",
                "ceps query",
            ),
            (
                &["serve", "--graph", "g", "--precision", "f32"][..],
                "--precision",
                "ceps serve",
            ),
            // The coalescing batch cap is a constant, not a flag.
            (
                &["serve", "--graph", "g", "--coalesce-batch", "32"][..],
                "--coalesce-batch",
                "ceps serve",
            ),
            // A boolean flag another subcommand takes is still unknown here.
            (
                &["stats", "--graph", "g", "--json"][..],
                "--json",
                "ceps stats",
            ),
        ] {
            let err = parse_err(args);
            assert!(err.contains(flag) && err.contains(command), "{err}");
        }
        // The full flag set a benchmark passes to a wire server parses.
        let c = parse(&v(&[
            "serve",
            "--graph",
            "g",
            "--listen",
            "unix:///tmp/c.sock",
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
            "--trace-out",
            "t.jsonl",
            "--trace-sample",
            "1",
            "--metrics-out",
            "m.prom",
            "--metrics-interval",
            "100",
        ]));
        assert!(matches!(c, Ok(Command::Serve(_))), "{c:?}");
    }

    #[test]
    fn autok_and_import_parse() {
        let c = parse_ok(&["autok", "--graph", "g", "--queries", "a,b"]);
        assert!(matches!(c, Command::AutoK(_)));
        let c = parse_ok(&[
            "import",
            "--pairs",
            "p.tsv",
            "--out",
            "g.txt",
            "--labels-out",
            "l.txt",
        ]);
        assert!(matches!(c, Command::Import(_)));
        assert!(parse(&v(&["import", "--pairs", "p"])).is_err());
    }

    #[test]
    fn serve_listen_and_client_parse() {
        assert!(serve(&[]).listen.is_none());
        let a = serve(&["--listen", "unix:///tmp/c.sock"]);
        assert_eq!(a.listen.as_deref(), Some("unix:///tmp/c.sock"));

        match parse_ok(&["client", "--connect", "/tmp/c.sock", "--queries", "0,4"]) {
            Command::Client(a) => {
                assert_eq!(a.connect, "/tmp/c.sock");
                assert_eq!(a.action, ClientAction::Query("0,4".into()));
                assert!(!a.json);
                assert_eq!(a.timeout_ms, 30_000);
                assert!(a.trace_out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let a = client(&["--ping", "--json", "--timeout", "500"]);
        assert_eq!(a.action, ClientAction::Ping);
        assert!(a.json);
        assert_eq!(a.timeout_ms, 500);
        for flag in ["--stdin", "--stats", "--dump-flight", "--shutdown"] {
            client(&[flag]);
        }
        assert_eq!(
            client(&["--autok", "1,2,3"]).action,
            ClientAction::AutoK("1,2,3".into())
        );

        // Exactly one action.
        assert!(parse_err(&["client", "--connect", "a"]).contains("exactly one action"));
        assert!(
            parse_err(&["client", "--connect", "a", "--ping", "--stats"])
                .contains("one action at a time")
        );
        assert!(parse_err(&["client", "--ping"]).contains("--connect"));
    }

    #[test]
    fn tracing_and_flight_flags_parse() {
        assert!(serve(&[]).flight_out.is_none());
        let a = serve(&[
            "--listen",
            "unix:///tmp/c.sock",
            "--flight-out",
            "flight.jsonl",
        ]);
        assert_eq!(a.flight_out, Some(PathBuf::from("flight.jsonl")));

        assert_eq!(client(&["--dump-flight"]).action, ClientAction::DumpFlight);
        let a = client(&["--queries", "0,4", "--trace-out", "client-trace.jsonl"]);
        assert_eq!(a.trace_out, Some(PathBuf::from("client-trace.jsonl")));
    }

    #[test]
    fn loadgen_defaults_overrides_and_bounds() {
        match parse_ok(&["loadgen", "--connect", "unix:///tmp/c.sock"]) {
            Command::Loadgen(a) => {
                assert_eq!(a.connect, "unix:///tmp/c.sock");
                assert_eq!(a.load.rps, 100.0);
                assert_eq!(a.load.duration_s, 10.0);
                assert_eq!(a.load.warmup_s, 2.0);
                assert_eq!(a.load.arrival, ArrivalKind::Poisson);
                assert_eq!(a.load.connections, 4);
                assert!(!a.search && !a.json);
                assert!(a.out.is_none());
            }
            other => panic!("{other:?}"),
        }
        let a = loadgen(&[
            "--rps",
            "500",
            "--duration",
            "4",
            "--warmup",
            "1",
            "--arrival",
            "constant",
            "--connections",
            "8",
            "--slo-p99-ms",
            "25",
            "--search",
            "--json",
            "--out",
            "curve.json",
        ]);
        assert_eq!(a.load.rps, 500.0);
        assert_eq!(a.load.duration_s, 4.0);
        assert_eq!(a.load.warmup_s, 1.0);
        assert_eq!(a.load.arrival, ArrivalKind::Constant);
        assert_eq!(a.load.connections, 8);
        assert_eq!(a.slo.p99_ms, 25.0);
        assert!(a.search && a.json);
        assert_eq!(a.out, Some(PathBuf::from("curve.json")));

        // Query-mix flags: uniform with the default pool unless asked.
        let a = loadgen(&[]);
        assert_eq!(a.load.mix, MixKind::Uniform);
        assert_eq!(a.load.pool_size, DEFAULT_HOT_POOL);
        let a = loadgen(&["--mix", "hubs", "--pool-size", "48"]);
        assert_eq!(a.load.mix, MixKind::Hubs);
        assert_eq!(a.load.pool_size, 48);
        assert!(parse_err(&["loadgen", "--connect", "a", "--mix", "zipf"]).contains("--mix"));
        assert!(
            parse_err(&["loadgen", "--connect", "a", "--pool-size", "0"]).contains("--pool-size")
        );

        assert!(parse_err(&["loadgen"]).contains("--connect"));
        assert!(
            parse_err(&["loadgen", "--connect", "a", "--arrival", "uniform"]).contains("--arrival")
        );
        assert!(parse_err(&["loadgen", "--connect", "a", "--rps", "0"]).contains("--rps"));
        assert!(parse_err(&[
            "loadgen",
            "--connect",
            "a",
            "--duration",
            "2",
            "--warmup",
            "2"
        ])
        .contains("--warmup"));
    }

    #[test]
    fn errors_are_descriptive() {
        for (args, needle) in [
            (&["bogus"][..], "unknown command"),
            (&["stats"][..], "--graph"),
            (
                &["query", "--graph", "g", "--queries", "a", "--type", "nand"][..],
                "unknown query type",
            ),
            (&["partition", "--graph", "g", "--out", "o"][..], "--parts"),
            (&["stats", "--graph"][..], "needs a value"),
            // A value flag followed by another flag has no value; the next
            // flag is never taken as one.
            (
                &[
                    "query",
                    "--graph",
                    "g",
                    "--queries",
                    "0,1",
                    "--dot",
                    "--json",
                ][..],
                "flag --dot needs a value",
            ),
        ] {
            let err = parse_err(args);
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
