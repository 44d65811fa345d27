//! Performance-regression gate over committed benchmark baselines.
//!
//! CI (and developers, via `experiments -- check`) compare the headline
//! numbers of a fresh `BENCH_rwr.json` / `BENCH_serve.json` /
//! `BENCH_loadgen.json` run against
//! the baselines committed under `results/`. The gate is **one-sided**:
//! only a drop below `baseline - tolerance` fails; improvements always
//! pass (and are the signal to reseed the baseline).
//!
//! Benchmarks on shared CI runners are noisy, so the default bands are
//! deliberately wide (60% relative on the RWR speedups, 40% on serving
//! throughput — see [`default_gates`]). The `--tolerance` flag
//! scales every band uniformly for machines noisier (or quieter) than the
//! default assumption. Metrics can additionally pin an absolute floor
//! (never pass below it, whatever the baseline) and a minimum x — the
//! `par_speedup` gate uses both: with the pool's sequential fallback the
//! parallel path must never lose to the batched kernel at `Q ≥ 5`, on any
//! core count, so it is gated with a hard `1.0` floor there.

use std::fmt::Write as _;
use std::path::Path;

use serde_json::Value;

/// How far below the baseline a metric may drift before failing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Relative band: pass while `current >= baseline * (1 - f)`.
    Rel(f64),
    /// Absolute band: pass while `current >= baseline - d`.
    Abs(f64),
}

impl Tolerance {
    /// The lowest passing value for `baseline`, with every band scaled
    /// by `scale` (the `--tolerance` multiplier).
    fn floor(self, baseline: f64, scale: f64) -> f64 {
        match self {
            Tolerance::Rel(f) => baseline * (1.0 - f * scale),
            Tolerance::Abs(d) => baseline - d * scale,
        }
    }
}

/// One gated metric: a column of a benchmark table plus its band.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Column name in the benchmark table (e.g. `"block_speedup"`).
    pub column: String,
    /// Allowed drop below baseline.
    pub tolerance: Tolerance,
    /// Only gate rows whose x (first column) is at least this; `None`
    /// gates every row. Lets a metric skip sweep points where it is not
    /// meaningful (e.g. `par_speedup` at tiny `Q`).
    pub min_x: Option<f64>,
    /// Only gate rows whose x is at most this; `None` gates every row.
    /// Lets a sweep report points it does not gate (e.g. the widest
    /// `sliced_speedup` width).
    pub max_x: Option<f64>,
    /// Absolute floor the current value must clear regardless of how low
    /// the baseline (and its tolerance band) sit. The effective floor is
    /// the max of this and the tolerance floor; `--tolerance` scaling
    /// never relaxes it.
    pub floor: Option<f64>,
}

impl MetricSpec {
    /// A spec gating every row of `column` with `tolerance` alone.
    pub fn new(column: impl Into<String>, tolerance: Tolerance) -> Self {
        MetricSpec {
            column: column.into(),
            tolerance,
            min_x: None,
            max_x: None,
            floor: None,
        }
    }

    /// Restricts the gate to rows with x ≥ `min_x`.
    pub fn min_x(mut self, min_x: f64) -> Self {
        self.min_x = Some(min_x);
        self
    }

    /// Restricts the gate to rows with x ≤ `max_x`.
    pub fn max_x(mut self, max_x: f64) -> Self {
        self.max_x = Some(max_x);
        self
    }

    /// Adds an absolute floor under the tolerance band.
    pub fn floor(mut self, floor: f64) -> Self {
        self.floor = Some(floor);
        self
    }
}

/// One gated artifact: a JSON file and the metrics checked inside it.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Artifact file name, identical under both directories
    /// (e.g. `"BENCH_rwr.json"`).
    pub artifact: String,
    /// Metrics to compare, looked up by column name.
    pub metrics: Vec<MetricSpec>,
}

/// The default gate set: RWR kernel, serving-throughput and open-loop
/// load-quality headlines.
///
/// The RWR speedup bands are wider (60%) than the serving ones (40%):
/// the baseline is measured at the large preset, where back-to-back runs
/// on a shared host were observed to swing the speedup ratios by 2-3×
/// whenever a noisy neighbour compressed the cache (the scalar loop and
/// the batched kernel degrade at different rates). `par_speedup` is
/// additionally core-count sensitive; what actually protects it is the
/// absolute `1.0` floor at `Q ≥ 5` — with the pool's sequential fallback,
/// the parallel path must never lose to the batched kernel there, on any
/// machine — plus CI's own absolute `≥ 1.5` assertion on the large preset.
/// `sliced_speedup` (one row-interleaved product against the plain CSR
/// sweep, same operator, alternating samples) gets a 40% band and a hard
/// `1.0` floor at widths up to 5: the interleaved layout must never lose
/// to the layout it replaced there. Width 8 is reported, not gated — on
/// the large preset the two kernels are about even at that width.
///
/// The serving gate additionally pins `coalesced_speedup` — the warmed,
/// coalescing service against cold per-request solves — at repeat rates
/// ≥ 0.9 with a hard `1.0` floor: on hub-heavy traffic the coalesced
/// path must never lose to solving every request cold, on any machine.
///
/// The loadgen gate deliberately avoids the knee rate (absolute capacity
/// is machine-dependent) and watches the base probe's quality ratios
/// instead: a healthy server completes essentially every request at the
/// search's lowest rate (`ok_rate`, hard-floored at 0.80) and keeps up
/// with the offered schedule (`achieved_ratio`).
pub fn default_gates() -> Vec<GateSpec> {
    vec![
        GateSpec {
            artifact: "BENCH_rwr.json".into(),
            metrics: vec![
                MetricSpec::new("block_speedup", Tolerance::Rel(0.60)),
                MetricSpec::new("par_speedup", Tolerance::Rel(0.60))
                    .min_x(5.0)
                    .floor(1.0),
                MetricSpec::new("sliced_speedup", Tolerance::Rel(0.40))
                    .max_x(5.0)
                    .floor(1.0),
            ],
        },
        GateSpec {
            artifact: "BENCH_serve.json".into(),
            metrics: vec![
                MetricSpec::new("speedup", Tolerance::Rel(0.40)),
                MetricSpec::new("hit_rate", Tolerance::Abs(0.10)),
                MetricSpec::new("coalesced_speedup", Tolerance::Rel(0.40))
                    .min_x(0.9)
                    .floor(1.0),
            ],
        },
        GateSpec {
            artifact: "BENCH_loadgen.json".into(),
            metrics: vec![
                MetricSpec::new("ok_rate", Tolerance::Abs(0.10)).floor(0.80),
                MetricSpec::new("achieved_ratio", Tolerance::Abs(0.25)),
            ],
        },
    ]
}

/// One comparison line of the gate report.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Artifact file name.
    pub artifact: String,
    /// Metric column name.
    pub metric: String,
    /// First-column value of the row (the sweep's x-axis).
    pub x: f64,
    /// Baseline value.
    pub baseline: f64,
    /// Current value, if the current artifact has a matching row.
    pub current: Option<f64>,
    /// Lowest passing value under the (scaled) tolerance band.
    pub floor: f64,
    /// Whether this line passes.
    pub pass: bool,
}

/// Outcome of a full gate run: per-metric rows plus structural failures
/// (missing artifacts, tables, or columns).
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// One line per compared (artifact, metric, row).
    pub rows: Vec<CheckRow>,
    /// Failures that prevented a comparison (missing file/column/row).
    pub errors: Vec<String>,
}

impl GateReport {
    /// True when every row passed and nothing was missing.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && !self.rows.is_empty() && self.rows.iter().all(|r| r.pass)
    }

    /// Renders the pass/fail table plus any structural errors.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Regression gate");
        let header = format!(
            "  {:<16}  {:<13}  {:>6}  {:>10}  {:>10}  {:>10}  {}",
            "artifact", "metric", "x", "baseline", "current", "floor", "status"
        );
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "  {}", "-".repeat(header.len() - 2));
        for r in &self.rows {
            let current = r
                .current
                .map_or_else(|| "missing".into(), |v| format!("{v:.4}"));
            let _ = writeln!(
                out,
                "  {:<16}  {:<13}  {:>6}  {:>10.4}  {:>10}  {:>10.4}  {}",
                r.artifact,
                r.metric,
                r.x,
                r.baseline,
                current,
                r.floor,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "  FAIL: {e}");
        }
        let _ = writeln!(
            out,
            "  => {}",
            if self.passed() {
                "pass"
            } else {
                "REGRESSION DETECTED"
            }
        );
        out
    }
}

/// A benchmark table pulled out of a `{meta, tables}` JSON artifact.
struct LoadedTable {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

fn load_tables(path: &Path) -> Result<Vec<LoadedTable>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let tables = doc
        .get("tables")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no \"tables\" array", path.display()))?;
    let mut out = Vec::new();
    for t in tables {
        let columns: Vec<String> = t
            .get("columns")
            .and_then(Value::as_array)
            .map(|cs| {
                cs.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let rows: Vec<Vec<f64>> = t
            .get("rows")
            .and_then(Value::as_array)
            .map(|rs| {
                rs.iter()
                    .filter_map(Value::as_array)
                    .map(|r| r.iter().filter_map(Value::as_f64).collect())
                    .collect()
            })
            .unwrap_or_default();
        out.push(LoadedTable { columns, rows });
    }
    Ok(out)
}

/// Finds the first table containing `column`, returning the column index.
fn find_column<'t>(tables: &'t [LoadedTable], column: &str) -> Option<(&'t LoadedTable, usize)> {
    tables.iter().find_map(|t| {
        t.columns
            .iter()
            .position(|c| c == column)
            .map(|idx| (t, idx))
    })
}

/// X values are sweep knobs (budgets, repeat rates) serialized through
/// f64; exact equality is too brittle across serialize round-trips.
fn same_x(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compares the artifacts under `current_dir` against `baseline_dir`.
///
/// Every baseline row must have a matching current row (matched on the
/// first column) whose gated metrics sit above the tolerance floor.
/// Missing artifacts, columns, or rows count as failures — a gate that
/// silently skips an absent benchmark would pass on a broken build.
pub fn check(
    baseline_dir: &Path,
    current_dir: &Path,
    gates: &[GateSpec],
    tolerance_scale: f64,
) -> GateReport {
    let mut report = GateReport::default();
    for gate in gates {
        let baseline = match load_tables(&baseline_dir.join(&gate.artifact)) {
            Ok(t) => t,
            Err(e) => {
                report.errors.push(format!("baseline {e}"));
                continue;
            }
        };
        let current = match load_tables(&current_dir.join(&gate.artifact)) {
            Ok(t) => t,
            Err(e) => {
                report.errors.push(format!("current {e}"));
                continue;
            }
        };
        for metric in &gate.metrics {
            let Some((base_table, base_idx)) = find_column(&baseline, &metric.column) else {
                report.errors.push(format!(
                    "baseline {}: no column {:?}",
                    gate.artifact, metric.column
                ));
                continue;
            };
            let Some((cur_table, cur_idx)) = find_column(&current, &metric.column) else {
                report.errors.push(format!(
                    "current {}: no column {:?}",
                    gate.artifact, metric.column
                ));
                continue;
            };
            for base_row in &base_table.rows {
                let (Some(&x), Some(&base_val)) = (base_row.first(), base_row.get(base_idx)) else {
                    continue;
                };
                if metric.min_x.is_some_and(|m| x < m) || metric.max_x.is_some_and(|m| x > m) {
                    continue;
                }
                let current_val = cur_table
                    .rows
                    .iter()
                    .find(|r| r.first().is_some_and(|&cx| same_x(cx, x)))
                    .and_then(|r| r.get(cur_idx))
                    .copied();
                let band = metric.tolerance.floor(base_val, tolerance_scale);
                let floor = metric.floor.map_or(band, |f| band.max(f));
                let pass = current_val.is_some_and(|v| v >= floor);
                report.rows.push(CheckRow {
                    artifact: gate.artifact.clone(),
                    metric: metric.column.clone(),
                    x,
                    baseline: base_val,
                    current: current_val,
                    floor,
                    pass,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_artifact(dir: &Path, name: &str, speedup_by_q: &[(f64, f64)]) {
        std::fs::create_dir_all(dir).unwrap();
        let rows: Vec<Vec<f64>> = speedup_by_q
            .iter()
            .map(|&(q, s)| vec![q, 10.0 / s, 10.0, s])
            .collect();
        let table = serde_json::json!({
            "title": "BENCH rwr: batched block kernel vs scalar loop",
            "columns": vec!["Q", "block_ms", "unbatched_ms", "block_speedup"],
            "rows": rows,
        });
        let doc = serde_json::json!({
            "meta": serde_json::json!({"seed": 42u64}),
            "tables": vec![table],
        });
        std::fs::write(dir.join(name), serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    }

    fn rwr_gate() -> Vec<GateSpec> {
        vec![GateSpec {
            artifact: "BENCH_rwr.json".into(),
            metrics: vec![MetricSpec::new("block_speedup", Tolerance::Rel(0.40))],
        }]
    }

    fn tmp(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ceps_gate_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn identical_artifacts_pass() {
        let base = tmp("id_base");
        let cur = tmp("id_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 1.2), (5.0, 2.5)]);
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 1.2), (5.0, 2.5)]);
        let report = check(&base, &cur, &rwr_gate(), 1.0);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.rows.len(), 2);
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn improvement_and_in_band_drift_pass() {
        let base = tmp("drift_base");
        let cur = tmp("drift_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 2.0)]);
        // 2.0 with a 40% relative band: floor = 1.2; 1.3 drifts but passes,
        // and improvements are always fine.
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 1.3)]);
        assert!(check(&base, &cur, &rwr_gate(), 1.0).passed());
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 9.0)]);
        assert!(check(&base, &cur, &rwr_gate(), 1.0).passed());
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn perturbation_beyond_tolerance_fails() {
        let base = tmp("perturb_base");
        let cur = tmp("perturb_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 2.0), (5.0, 2.5)]);
        // floor for baseline 2.0 at 40% rel is 1.2 — 1.1 regresses.
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 1.1), (5.0, 2.5)]);
        let report = check(&base, &cur, &rwr_gate(), 1.0);
        assert!(!report.passed());
        let failing: Vec<&CheckRow> = report.rows.iter().filter(|r| !r.pass).collect();
        assert_eq!(failing.len(), 1);
        assert!(same_x(failing[0].x, 2.0));
        assert!(report.render().contains("FAIL"));
        assert!(report.render().contains("REGRESSION DETECTED"));
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn tolerance_scale_widens_the_band() {
        let base = tmp("scale_base");
        let cur = tmp("scale_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 2.0)]);
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 1.1)]);
        assert!(!check(&base, &cur, &rwr_gate(), 1.0).passed());
        // Doubling the band (80% rel) lowers the floor to 0.4.
        assert!(check(&base, &cur, &rwr_gate(), 2.0).passed());
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn missing_artifact_row_or_column_fail() {
        let base = tmp("miss_base");
        let cur = tmp("miss_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 2.0), (5.0, 2.5)]);

        // Missing current artifact.
        std::fs::create_dir_all(&cur).unwrap();
        let report = check(&base, &cur, &rwr_gate(), 1.0);
        assert!(!report.passed());
        assert!(report.errors[0].contains("current"));

        // Missing row (current lost the Q=5 sweep point).
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 2.0)]);
        let report = check(&base, &cur, &rwr_gate(), 1.0);
        assert!(!report.passed());
        assert!(report
            .rows
            .iter()
            .any(|r| same_x(r.x, 5.0) && r.current.is_none() && !r.pass));

        // Missing column.
        let mut gates = rwr_gate();
        gates[0].metrics[0].column = "no_such_metric".into();
        let report = check(&base, &cur, &gates, 1.0);
        assert!(!report.passed());
        assert!(report.errors.iter().any(|e| e.contains("no_such_metric")));

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn empty_report_does_not_pass() {
        assert!(!GateReport::default().passed());
    }

    #[test]
    fn min_x_restricts_gated_rows() {
        let base = tmp("minx_base");
        let cur = tmp("minx_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(2.0, 2.0), (5.0, 2.5)]);
        // Q=2 collapses but the gate only watches Q >= 5.
        write_artifact(&cur, "BENCH_rwr.json", &[(2.0, 0.1), (5.0, 2.5)]);
        let mut gates = rwr_gate();
        gates[0].metrics[0] = gates[0].metrics[0].clone().min_x(5.0);
        let report = check(&base, &cur, &gates, 1.0);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.rows.len(), 1, "Q=2 row skipped");
        assert!(same_x(report.rows[0].x, 5.0));
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn max_x_restricts_gated_rows() {
        let base = tmp("maxx_base");
        let cur = tmp("maxx_cur");
        write_artifact(&base, "BENCH_rwr.json", &[(5.0, 2.0), (8.0, 1.0)]);
        // Width 8 collapses but the gate only watches x <= 5.
        write_artifact(&cur, "BENCH_rwr.json", &[(5.0, 2.0), (8.0, 0.1)]);
        let mut gates = rwr_gate();
        gates[0].metrics[0] = gates[0].metrics[0].clone().max_x(5.0);
        let report = check(&base, &cur, &gates, 1.0);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.rows.len(), 1, "x=8 row skipped");
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn absolute_floor_binds_below_the_tolerance_band() {
        let base = tmp("floor_base");
        let cur = tmp("floor_cur");
        // Baseline 1.3 with a 40% band puts the relative floor at 0.78 —
        // but the absolute floor 1.0 still rejects 0.9.
        write_artifact(&base, "BENCH_rwr.json", &[(5.0, 1.3)]);
        write_artifact(&cur, "BENCH_rwr.json", &[(5.0, 0.9)]);
        let mut gates = rwr_gate();
        gates[0].metrics[0] = gates[0].metrics[0].clone().floor(1.0);
        let report = check(&base, &cur, &gates, 1.0);
        assert!(!report.passed(), "{}", report.render());
        assert_eq!(report.rows[0].floor, 1.0);
        // Scaling the tolerance cannot relax the absolute floor.
        assert!(!check(&base, &cur, &gates, 10.0).passed());
        // 1.05 clears it.
        write_artifact(&cur, "BENCH_rwr.json", &[(5.0, 1.05)]);
        assert!(check(&base, &cur, &gates, 1.0).passed());
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&cur);
    }

    #[test]
    fn default_gates_cover_headlines_including_par_speedup() {
        let gates = default_gates();
        let all: Vec<&MetricSpec> = gates.iter().flat_map(|g| g.metrics.iter()).collect();
        let names: Vec<&str> = all.iter().map(|m| m.column.as_str()).collect();
        assert!(names.contains(&"block_speedup"));
        assert!(names.contains(&"speedup"));
        assert!(names.contains(&"hit_rate"));
        assert!(names.contains(&"ok_rate"));
        assert!(names.contains(&"achieved_ratio"));
        let ok = all
            .iter()
            .find(|m| m.column == "ok_rate")
            .expect("ok_rate is gated");
        assert_eq!(ok.floor, Some(0.80), "clean-run floor never relaxes");
        let par = all
            .iter()
            .find(|m| m.column == "par_speedup")
            .expect("par_speedup is gated");
        assert_eq!(par.min_x, Some(5.0), "only gated at Q >= 5");
        assert_eq!(par.floor, Some(1.0), "parallel must never lose to block");
        let sliced = all
            .iter()
            .find(|m| m.column == "sliced_speedup")
            .expect("sliced_speedup is gated");
        assert_eq!(sliced.max_x, Some(5.0), "width 8 is reported, not gated");
        assert_eq!(
            sliced.floor,
            Some(1.0),
            "interleaved must never lose to CSR"
        );
        let co = all
            .iter()
            .find(|m| m.column == "coalesced_speedup")
            .expect("coalesced_speedup is gated");
        assert_eq!(co.min_x, Some(0.9), "only gated at repeat >= 0.9");
        assert_eq!(co.floor, Some(1.0), "coalesced must never lose to cold");
    }
}
