//! `perfbench` — the end-to-end and per-layer benchmark of the CePS
//! server and engine. See `README.md` in this directory for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --ceps PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --record-expected
//! ```
//!
//! The last line of standard output is the run's JSON result. Progress
//! and the human-readable table go to standard error.

mod batch;
mod host;
mod report;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("qps", "1/s"),
    ("goodput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail.p90_ms", "ms"),
    ("tail.p99_ms", "ms"),
    ("load.send_lag_p99_ms", "ms"),
    ("load.backlog_max", "count"),
    ("load.capacity_rps", "1/s"),
    ("load.generator_cpus", "count"),
    ("net.rtt_overhead_p50_ms", "ms"),
    ("net.queue_p99_ms", "ms"),
    ("net.bytes_per_reply", "B"),
    ("net.sheds", "count"),
    ("net.errors", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.scores_p50_ms", "ms"),
    ("serve.scores_p99_ms", "ms"),
    ("serve.combine_p50_ms", "ms"),
    ("serve.extract_p50_ms", "ms"),
    ("serve.extract_p99_ms", "ms"),
    ("serve.coverage", "ratio"),
    ("serve.scores_share", "ratio"),
    ("serve.extract_share", "ratio"),
    ("serve.server_cpus", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.singleflight_waits", "count"),
    ("cache.warm_rows", "count"),
    ("coalesce.rows_per_batch", "count"),
    ("rwr.solves_per_query", "count"),
    ("rwr.columns_per_query", "count"),
    ("rwr.iterations_per_column", "count"),
    ("rwr.frozen_columns_per_query", "count"),
    ("rwr.solve_ms", "ms"),
    ("graph.spmm_madds_per_query", "count"),
    ("graph.spmm_bytes_per_query", "B"),
    ("graph.spmm_gbps", "GB/s"),
    ("host.stream_gbps", "GB/s"),
    ("host.stream_footprint_mb", "MiB"),
    ("host.llc_mb", "MiB"),
    ("pool.wakes_per_query", "count"),
    ("pool.chunks_stolen_per_query", "count"),
    ("extract.ms", "ms"),
    ("extract.dp_slots_per_query", "count"),
    ("extract.candidates_per_query", "count"),
    ("obs.trace_overhead", "ratio"),
    ("fail_rate", "ratio"),
];

const WORKLOADS: &[&str] = &["wire_hubs", "wire_cold", "batch_large"];

#[derive(Debug)]
struct Args {
    ceps: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut ceps = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--ceps" => ceps = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(5.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} must lie in [5, 600]"));
    }
    Ok(Args {
        ceps: ceps.ok_or("--ceps is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// This benchmark's own directory (where `expected/` lives).
fn bench_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn run(args: &Args, work: &Path) -> Result<report::Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("wire_hubs", false) => {
            wire::timed(&wire::WIRE_HUBS, &args.ceps, work, args.seed, args.seconds)
        }
        ("wire_hubs", true) => {
            wire::traced(&wire::WIRE_HUBS, &args.ceps, work, args.seed, args.seconds)
        }
        ("wire_cold", false) => {
            wire::timed(&wire::WIRE_COLD, &args.ceps, work, args.seed, args.seconds)
        }
        ("wire_cold", true) => {
            wire::traced(&wire::WIRE_COLD, &args.ceps, work, args.seed, args.seconds)
        }
        ("batch_large", false) => batch::timed(&bench_dir(), args.seed, args.seconds),
        ("batch_large", true) => batch::traced(&bench_dir(), args.seed, args.seconds),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// Checks that a run printed exactly the listed metrics, with their units.
fn check_names(report: &report::Report, want: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != want {
        return Err(format!("metric list mismatch: got {got:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-expected") {
        return match batch::record(&bench_dir()) {
            Ok(msg) => {
                eprintln!("{msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files of this run (graph file, socket, server logs and
    // traces) live in the checkout and are removed afterwards.
    let work = std::env::current_dir()
        .map(|d| {
            d.join(".bench_work")
                .join(format!("{}-{}", args.workload, std::process::id()))
        })
        .and_then(|w| std::fs::create_dir_all(&w).map(|()| w));
    let work = match work {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal0 = host::steal_ticks();
    let outcome = run(&args, &work).and_then(|mut r| {
        check_names(&r, if args.trace { PER_LAYER } else { END_TO_END })?;
        if let (Some((s0, t0)), Some((s1, t1))) = (steal0, host::steal_ticks()) {
            r.note(format!(
                "host steal time during the run: {:.2}% of CPU time",
                100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
            ));
        }
        Ok(r)
    });
    let _ = std::fs::remove_dir_all(&work);
    // Removes `.bench_work` too once no other run is using it.
    let _ = work.parent().map(std::fs::remove_dir);
    match outcome {
        Ok(report) => {
            eprint!("{}", report.table(&args.workload));
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
