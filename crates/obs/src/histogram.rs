//! The one histogram behind every percentile in the workspace, and the
//! only code that knows its grid.
//!
//! [`Histogram`] is log-linear, in the style of HdrHistogram (Tene,
//! <http://hdrhistogram.org/>): 64 octaves over `[2⁻³², 2³²)`, each split
//! into 32 equal-width sub-buckets; a value's bucket is its exponent plus
//! the top five mantissa bits of `f64::to_bits`. **Error bound:** a bucket
//! `[lo, hi)` is `lo / 32` wide and an estimate lies in the closed bucket
//! of the true sample at its rank, so it is within 1/32 (3.125%) of that
//! sample, for samples in range. Zero, negative and non-finite values land
//! in the first bucket, values from 2³² up in the last.

use crate::snapshot::HistogramStat;

/// Linear sub-buckets per octave: `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
/// Buckets in the grid: 64 octaves.
const BUCKETS: usize = 64 << SUB_BITS;
/// `f64` bits `>> SHIFT` keep the exponent and top `SUB_BITS` mantissa bits.
const SHIFT: u32 = 52 - SUB_BITS;
/// The shifted bits of the grid's lower end, 2⁻³².
const FIRST: u64 = (1023 - 32) << SUB_BITS;

/// Grid position of a positive finite `v`: its bucket, unclamped above.
fn position(v: f64) -> usize {
    (v.to_bits() >> SHIFT).saturating_sub(FIRST) as usize
}

/// The bucket `v` lands in.
pub(crate) fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    position(v).min(BUCKETS - 1)
}

/// Lower edge of bucket `i` (2³² for `i == BUCKETS`).
fn lower_edge(i: usize) -> f64 {
    f64::from_bits((i as u64 + FIRST) << SHIFT)
}

/// Exclusive upper edge of bucket `i`: the `le` it is exported under.
pub(crate) fn upper_edge(i: usize) -> f64 {
    lower_edge(i + 1)
}

/// The percentile estimator, over sparse `(le, count)` buckets ascending
/// by `le`: the bucket holding observation `⌈p/100 · total⌉`, linear
/// interpolation by rank inside it, clamped to `[min, max]`. 0 when
/// `total` is 0, `min` for `p <= 0`, `max` for `p >= 100` or non-finite `p`.
pub(crate) fn estimate(
    buckets: impl IntoIterator<Item = (f64, u64)>,
    total: u64,
    (min, max): (f64, f64),
    p: f64,
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    if !p.is_finite() || p >= 100.0 {
        return max;
    }
    if p <= 0.0 {
        return min;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut below = 0u64;
    for (le, c) in buckets {
        if below + c >= rank {
            let lo = lower_edge(position(le).clamp(1, BUCKETS) - 1);
            let est = lo + (le - lo) * ((rank - below) as f64 / c as f64);
            return est.max(min).min(max);
        }
        below += c;
    }
    max
}

/// A log-linear histogram over positive `f64` values (see the module
/// docs): every percentile it reports is within 1/32 of the true sample.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    /// Smallest and largest finite observation, once there is one.
    range: Option<(f64, f64)>,
    /// Per-bucket counts: empty until the first observation, so an unused
    /// histogram allocates nothing.
    counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Non-finite values count toward `count` but
    /// are excluded from `sum`/`min`/`max` and land in the first bucket.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            let (lo, hi) = self.range.unwrap_or((value, value));
            self.range = Some((lo.min(value), hi.max(value)));
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_index(value)] += 1;
    }

    /// Adds every observation of `other` to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some((lo, hi)) = other.range {
            let (min, max) = self.range.unwrap_or((lo, hi));
            self.range = Some((min.min(lo), max.max(hi)));
        }
        if self.counts.len() < other.counts.len() {
            self.counts = vec![0; BUCKETS];
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Non-empty buckets as ascending `(le, count)` pairs.
    fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let nonempty = self.counts.iter().enumerate().filter(|&(_, &c)| c > 0);
        nonempty.map(|(i, &c)| (upper_edge(i), c))
    }

    /// Estimates the `p`-th percentile, within 1/32 of the true sample at
    /// rank `⌈p/100 · count⌉`. Returns 0 when empty; `p <= 0` returns the
    /// minimum, `p >= 100` (and non-finite `p`) the maximum.
    pub fn percentile_from_buckets(&self, p: f64) -> f64 {
        estimate(
            self.buckets(),
            self.count,
            self.range.unwrap_or_default(),
            p,
        )
    }

    /// The snapshot form of this histogram under `name`, without
    /// exemplars (an empty histogram reports `min`/`max` as 0).
    pub fn to_stat(&self, name: impl Into<String>) -> HistogramStat {
        let (min, max) = self.range.unwrap_or_default();
        HistogramStat {
            name: name.into(),
            count: self.count,
            sum: self.sum,
            min,
            max,
            buckets: self.buckets().collect(),
            exemplars: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        let mut prev = 0;
        for e in -40..40 {
            let idx = bucket_index(2f64.powi(e) * 1.5);
            assert!(idx >= prev, "bucket index must be monotone in the value");
            assert!(idx < BUCKETS);
            prev = idx;
        }
        // A value sits inside its bucket's edges.
        for v in [2f64.powi(-32), 1e-6, 1.0, 1.03, 100.0, 4e9] {
            let i = bucket_index(v);
            assert!(
                lower_edge(i) <= v && v < upper_edge(i),
                "{v} outside bucket {i}"
            );
        }
    }

    #[test]
    fn every_bucket_is_at_most_a_thirty_second_of_its_lower_edge() {
        assert_eq!(lower_edge(0), 2f64.powi(-32));
        assert_eq!(upper_edge(BUCKETS - 1), 2f64.powi(32));
        for i in 0..BUCKETS {
            let (lo, hi) = (lower_edge(i), upper_edge(i));
            assert!(hi > lo && hi - lo <= lo / 32.0, "bucket {i}: [{lo}, {hi})");
            assert_eq!(bucket_index(lo), i, "lower edge {lo} belongs to bucket {i}");
            assert_eq!(position(hi) - 1, i, "upper edge maps back to bucket {i}");
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p_and_empty_returns_zero() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.percentile_from_buckets(0.0), 1.0, "p=0 is the minimum");
        assert_eq!(h.percentile_from_buckets(-5.0), 1.0);
        assert_eq!(h.percentile_from_buckets(f64::NEG_INFINITY), 4.0);
        assert_eq!(h.percentile_from_buckets(100.0), 4.0);
        assert_eq!(h.percentile_from_buckets(250.0), 4.0, "p>100 clamps");
        assert_eq!(h.percentile_from_buckets(f64::NAN), 4.0);
        assert_eq!(h.percentile_from_buckets(f64::INFINITY), 4.0);
        assert!(!h.percentile_from_buckets(33.3).is_nan());
        let empty = Histogram::new();
        for p in [-1.0, 0.0, 50.0, 100.0, 1e9, f64::NAN] {
            assert_eq!(empty.percentile_from_buckets(p), 0.0, "empty → 0 at p={p}");
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_the_observed_range() {
        let mut zeros = Histogram::new();
        let mut huge = Histogram::new();
        for _ in 0..10 {
            zeros.record(0.0);
            huge.record(1e12);
        }
        for p in [1.0, 50.0, 99.0] {
            assert_eq!(zeros.percentile_from_buckets(p), 0.0);
            assert_eq!(huge.percentile_from_buckets(p), 1e12);
        }
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 1..=300 {
            let v = f64::from(i) * 0.37;
            let part = if i % 3 == 0 { &mut a } else { &mut b };
            part.record(v);
            both.record(v);
        }
        a.merge(&b);
        let (merged, both) = (a.to_stat("h"), both.to_stat("h"));
        assert_eq!(merged.count, both.count);
        assert_eq!(merged.buckets, both.buckets);
        assert_eq!((merged.min, merged.max), (both.min, both.max));
        assert!((merged.sum - both.sum).abs() < 1e-9);
    }

    /// Exact order statistic at nearest rank `⌈p/100 · n⌉` of an
    /// ascending slice: the reference the estimates are checked against.
    fn order_statistic(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// A uniform draw in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One draw from distribution `kind`: uniform, log-normal,
    /// exponential, Pareto or a narrow band, all inside the grid.
    fn draw(kind: u64, state: &mut u64) -> f64 {
        match kind {
            0 => 10.0 + 10.0 * unit(state),
            1 => {
                let (u1, u2) = (unit(state).max(1e-300), unit(state));
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (1.5 * normal).exp()
            }
            2 => -(1.0 - unit(state)).ln() * 3.0 + 1e-6,
            3 => (1.0 - unit(state)).powf(-1.0 / 1.2),
            _ => 5.0 + unit(state),
        }
    }

    #[test]
    fn estimates_lie_within_a_thirty_second_of_the_exact_order_statistic() {
        let mut state = 0x5eed_u64;
        for case in 0..200u64 {
            let n = 1 + (splitmix64(&mut state) % 5_000) as usize;
            let kind = case % 5;
            let mut h = Histogram::new();
            let mut samples: Vec<f64> = (0..n).map(|_| draw(kind, &mut state)).collect();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_by(f64::total_cmp);
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let exact = order_statistic(&samples, p);
                let est = h.percentile_from_buckets(p);
                assert!(
                    (est - exact).abs() <= exact / 32.0,
                    "case {case} (kind {kind}, n {n}) p{p}: estimate {est} vs exact {exact}"
                );
            }
        }
    }
}
