//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! "ten samples beyond" rule, ladder interpolation for `capacity_rps`,
//! and the client/server trace join. Kept free of I/O so it is unit
//! tested on its own.

use std::collections::HashMap;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`, by position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether a sample of `n` supports percentile `p`: at least ten samples
/// lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Collects `values` sorted ascending (NaNs last).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.iter().copied()), 50.0)
}

/// One fixed step of the capacity ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate of the step's schedule (requests per second).
    pub offered_rps: f64,
    /// Intended-time p99 of the step (milliseconds).
    pub p99_ms: f64,
    /// Whether the step kept up and stayed within the error budget
    /// (achieved ≥ 0.95 × offered, failures ≤ 1%).
    pub kept_up: bool,
}

impl Step {
    /// A step passes when it kept up and its p99 is within the limit.
    pub fn passes(&self, slo_ms: f64) -> bool {
        self.kept_up && self.p99_ms <= slo_ms
    }
}

/// The offered rate at which p99 crosses `slo_ms` on an ascending
/// ladder, interpolated between the last step that passes and the step
/// above it, from which every step fails. Taking the last crossing
/// rather than the first keeps one unlucky low step from deciding the
/// result. The interpolation is linear in `ln p99`, which follows the
/// steep rise of latency near saturation more closely than a straight
/// line. When the failing step fell behind with a p99 inside the limit,
/// the crossing is put at the passing step.
///
/// Edge cases: when no step passes, the lowest step's rate is scaled
/// down by `slo / p99`; when the top step passes, its rate is returned —
/// the true capacity lies above it.
pub fn ladder_capacity(steps: &[Step], slo_ms: f64) -> f64 {
    assert!(!steps.is_empty(), "the ladder has at least one step");
    let last_pass = steps.iter().rposition(|s| s.passes(slo_ms));
    match last_pass {
        Some(i) if i + 1 == steps.len() => steps[i].offered_rps,
        None => {
            let s = steps[0];
            if s.p99_ms > 0.0 {
                s.offered_rps * (slo_ms / s.p99_ms).min(1.0)
            } else {
                0.0
            }
        }
        Some(i) => {
            let (lo, hi) = (steps[i], steps[i + 1]);
            if hi.p99_ms <= slo_ms {
                return lo.offered_rps;
            }
            let (a, b) = (lo.p99_ms.max(1e-9).ln(), hi.p99_ms.ln());
            let frac = ((slo_ms.ln() - a) / (b - a)).clamp(0.0, 1.0);
            lo.offered_rps + frac * (hi.offered_rps - lo.offered_rps)
        }
    }
}

/// Joins client records to server trace lines on `trace_id`: returns,
/// for each client key that has a server line, the pair of values.
/// Server ids that appear more than once are ambiguous and dropped.
pub fn join_on_trace_id<C: Copy, S: Copy>(
    client: &[(u64, C)],
    server: &[(u64, S)],
) -> Vec<(u64, C, S)> {
    let mut by_id: HashMap<u64, Option<S>> = HashMap::with_capacity(server.len());
    for &(id, s) in server {
        by_id
            .entry(id)
            .and_modify(|slot| *slot = None)
            .or_insert(Some(s));
    }
    client
        .iter()
        .filter_map(|&(id, c)| match by_id.get(&id) {
            Some(Some(s)) => Some((id, c, *s)),
            _ => None,
        })
        .collect()
}

/// Largest number of arrivals that were due but not yet sent at any
/// instant, from `(intended, sent)` pairs in seconds.
pub fn backlog_max(pairs: &[(f64, f64)]) -> usize {
    // +1 when an arrival falls due, -1 when it is sent; at equal times
    // the send is processed first so a punctual send adds no backlog.
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(pairs.len() * 2);
    for &(due, sent) in pairs {
        if sent > due {
            events.push((due, 1));
            events.push((sent, -1));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += i64::from(d);
        max = max.max(cur);
    }
    max as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Ten samples: p90 is the 9th, p95 rounds up to the 10th.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 90.0), 9.0);
        assert_eq!(percentile(&t, 95.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples for ten beyond it; 999 leaves nine.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        // p90 needs 100.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    fn step(offered_rps: f64, p99_ms: f64, kept_up: bool) -> Step {
        Step {
            offered_rps,
            p99_ms,
            kept_up,
        }
    }

    #[test]
    fn ladder_interpolates_in_log_p99() {
        let slo = 100.0;
        let steps = [
            step(100.0, 20.0, true),
            step(120.0, 50.0, true),
            step(140.0, 200.0, true),
        ];
        // ln 100 sits halfway between ln 50 and ln 200.
        let cap = ladder_capacity(&steps, slo);
        assert!((cap - 130.0).abs() < 1e-9, "{cap}");
        // A crossing exactly at a step's p99 lands on that step.
        let at = [step(100.0, 100.0, true), step(120.0, 400.0, true)];
        assert!((ladder_capacity(&at, slo) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_edge_cases() {
        let slo = 100.0;
        // Every step passes: the highest rate is a lower bound.
        let all = [step(10.0, 5.0, true), step(20.0, 9.0, true)];
        assert_eq!(ladder_capacity(&all, slo), 20.0);
        // The first step already fails on p99: scale it down.
        let none = [step(10.0, 400.0, true), step(20.0, 900.0, true)];
        assert_eq!(ladder_capacity(&none, slo), 2.5);
        // A step that fell behind with a passing p99 caps at the last
        // passing rate.
        let behind = [step(10.0, 5.0, true), step(20.0, 50.0, false)];
        assert_eq!(ladder_capacity(&behind, slo), 10.0);
        // A failure below a passing step does not decide the crossing:
        // the last passing step does.
        let noisy = [
            step(10.0, 50.0, true),
            step(20.0, 200.0, true),
            step(30.0, 60.0, true),
            step(40.0, 240.0, true),
        ];
        let cap = ladder_capacity(&noisy, slo);
        assert!(cap > 30.0 && cap < 40.0, "{cap}");
    }

    #[test]
    fn trace_join_matches_ids_and_drops_ambiguous_ones() {
        let client = [(1u64, 10.0f64), (2, 20.0), (3, 30.0), (4, 40.0)];
        let server = [(2u64, 2.0f64), (1, 1.0), (4, 4.0), (4, 4.5), (9, 9.0)];
        let joined = join_on_trace_id(&client, &server);
        assert_eq!(joined, vec![(1, 10.0, 1.0), (2, 20.0, 2.0)]);
    }

    #[test]
    fn backlog_counts_due_but_unsent_arrivals() {
        // Punctual sends leave no backlog.
        assert_eq!(backlog_max(&[(0.0, 0.0), (1.0, 1.0)]), 0);
        // Three arrivals due at 0, 0.1, 0.2 all wait until 0.5.
        let pairs = [(0.0, 0.5), (0.1, 0.5), (0.2, 0.5), (1.0, 1.0)];
        assert_eq!(backlog_max(&pairs), 3);
        // Disjoint waits never overlap.
        assert_eq!(backlog_max(&[(0.0, 0.1), (0.2, 0.3)]), 1);
    }
}
