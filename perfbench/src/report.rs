//! Collects named metrics with units and prints them: a table on stderr
//! for people, and the one-line JSON result as the last line of stdout.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every checked output matched its reference.
    pub correct: bool,
    /// Requests or queries attempted.
    pub attempted: u64,
    /// Errors + sheds + wrong replies.
    pub failed: u64,
    /// The metrics this run prints.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the stderr table (sizes, affinities, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a note for the stderr table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "perfbench {workload}: correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        );
        for line in &self.notes {
            let _ = writeln!(out, "  # {line}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The single-line JSON result. A non-finite value prints as 0 so the
    /// line stays valid JSON; the table shows it as measured.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.put("p50_ms", 1.25, "ms");
        r.put("setup_s", 2.0, "s");
        let v: serde_json::Value = serde_json::from_str(&r.json()).unwrap();
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 3u64);
        assert_eq!(v["metrics"]["p50_ms"]["value"], 1.25);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
    }
}
