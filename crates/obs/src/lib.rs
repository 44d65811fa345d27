//! # ceps-obs — observability core for the CePS workspace
//!
//! A zero-dependency instrumentation layer shared by every crate in the
//! workspace. It provides four primitives plus a leveled logger:
//!
//! * **Spans** — hierarchical timed regions. [`span`] returns an RAII guard
//!   that pushes a frame onto a thread-local stack; on drop the elapsed time
//!   is aggregated into a lock-sharded global registry keyed by the full
//!   span path (e.g. `"query/stage.combine"`). Each path accumulates call
//!   count, total time, and *self* time (total minus time spent in child
//!   spans).
//! * **Counters** — monotonic `u64` accumulators ([`counter`]).
//! * **Gauges** — point-in-time `i64` levels ([`gauge_set`]/[`gauge_add`]),
//!   e.g. queue depth or in-flight requests; exported to Prometheus as
//!   `# TYPE gauge`.
//! * **Histograms** — log-linear [`Histogram`]s over `f64` values
//!   ([`record`]): 32 buckets per octave over `[2⁻³², 2³²)`, every
//!   percentile estimate within 1/32 of the true sample at its rank.
//!
//! All four are **compiled-in no-ops until a recorder is installed**: the
//! hot path pays exactly one relaxed atomic load and a branch when
//! observability is off (see `benches/obs_overhead.rs` in `ceps-bench` for
//! the pinned cost). Call [`install_recorder`] to start collecting,
//! [`snapshot`] to drain an aggregated [`MetricsSnapshot`], and [`reset`]
//! to clear between runs. Instrumentation never alters computation:
//! pipeline output is bitwise-identical with the recorder on or off.
//!
//! Two cross-cutting facilities ride on the same primitives:
//!
//! * **Trace contexts** ([`TraceContext`], [`with_trace`]) — a thread-local
//!   request identity (splitmix64 `trace_id`, parent span id, sampled flag)
//!   that spans, histograms (as bucket exemplars), trace lines, and flight
//!   events pick up automatically; it crosses the wire via `ceps-wire/v1`.
//! * **Flight recorder** ([`flight_enable`], [`flight_dump`]) — a lock-free
//!   per-thread ring of recent events (span enter/exit, errors, sheds, slow
//!   requests) dumpable as `ceps-flight/v1` JSONL on demand, on panic, or
//!   on overload. Disabled it costs one relaxed load and a branch.
//!
//! The logger ([`error!`]/[`warn!`]/[`info!`]/[`debug!`]) writes to stderr
//! so stdout stays reserved for command output; verbosity comes from the
//! `CEPS_LOG` environment variable (`warn` by default).
//!
//! Like the `shims/` crates, this is implemented in-repo with no external
//! dependencies so the workspace stays hermetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
pub mod flight;
mod histogram;
mod logger;
mod meta;
mod registry;
mod snapshot;
mod window;

pub use context::{
    current_trace, fresh_id, id_hex, parse_id_hex, set_current_trace, splitmix64, with_trace,
    TraceContext, TraceGuard,
};
pub use flight::{
    flight_disable, flight_dump, flight_dump_to, flight_enable, flight_enabled, flight_event,
    flight_note, flight_reset, install_flight_panic_hook, FlightKind, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_SCHEMA,
};
pub use histogram::Histogram;
pub use logger::{init_log_default, log, log_enabled, set_log_level, set_log_off, Level};
pub use meta::{git_sha, now_iso8601, RunMeta};
pub use registry::{
    counter, enabled, gauge_add, gauge_set, install_recorder, record, reset, snapshot, span, timed,
    uninstall_recorder, Span,
};
pub use snapshot::{json_f64, json_str, BucketExemplar, HistogramStat, MetricsSnapshot, SpanStat};
pub use window::{
    metrics_event_json, to_prometheus, CounterRate, ExporterConfig, HistogramWindow,
    MetricsExporter, WindowDelta, WindowedMetrics,
};
