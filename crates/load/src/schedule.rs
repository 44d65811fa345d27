//! Deterministic arrival schedules and query-mix sampling.
//!
//! An **open-loop** load generator decides *when* every request fires
//! before the run starts: the schedule is a pure function of (arrival
//! process, offered rate, duration, seed), independent of how the server
//! responds. That independence is the whole point — a closed-loop driver
//! that waits for each reply before sending the next one throttles itself
//! exactly when the server slows down, hiding the backlog the real world
//! would have piled up (coordinated omission). Everything here is seeded
//! splitmix64, so the same seed reproduces the same schedule and the same
//! query stream bit-for-bit.

pub use ceps_obs::splitmix64;

/// Maps a u64 to a uniform f64 in `[0, 1)` using the top 53 bits.
#[inline]
fn u01(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The arrival process generating intended send times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Evenly spaced arrivals: request `i` is intended at `i / rps`.
    Constant,
    /// Poisson process: exponential inter-arrival gaps with mean `1/rps`.
    /// Bursty by construction — the realistic choice for capacity tests,
    /// since real traffic does not politely space itself out.
    Poisson,
}

impl ArrivalKind {
    /// Parses the CLI spelling (`"constant"` / `"poisson"`).
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        match s {
            "constant" => Some(ArrivalKind::Constant),
            "poisson" => Some(ArrivalKind::Poisson),
            _ => None,
        }
    }

    /// The CLI spelling, for reports.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Constant => "constant",
            ArrivalKind::Poisson => "poisson",
        }
    }
}

/// Builds the full schedule of intended send offsets (seconds from run
/// start), strictly increasing, covering `[0, duration_s)`.
///
/// The schedule is materialised up front rather than generated on the
/// fly so that latency can be charged against the *intended* time even
/// when the sender falls behind — the correction that makes the reported
/// percentiles coordinated-omission-free.
pub fn arrival_schedule(kind: ArrivalKind, rps: f64, duration_s: f64, seed: u64) -> Vec<f64> {
    assert!(rps > 0.0, "offered rate must be positive");
    assert!(duration_s > 0.0, "duration must be positive");
    let expect = (rps * duration_s).ceil() as usize + 16;
    let mut out = Vec::with_capacity(expect.min(1 << 22));
    match kind {
        ArrivalKind::Constant => {
            let gap = 1.0 / rps;
            let mut i = 0u64;
            loop {
                let t = i as f64 * gap;
                if t >= duration_s {
                    break;
                }
                out.push(t);
                i += 1;
            }
        }
        ArrivalKind::Poisson => {
            let mut state = seed ^ 0x6c07_9768_7c97_0de5;
            let mut t = 0.0f64;
            loop {
                // Inverse-CDF exponential; (1 - u) keeps ln's argument in
                // (0, 1] so the gap is finite and positive.
                let u = u01(splitmix64(&mut state));
                t += -(1.0 - u).ln() / rps;
                if t >= duration_s {
                    break;
                }
                out.push(t);
            }
        }
    }
    out
}

/// How fresh queries pick their nodes.
///
/// The generator has no access to the server's graph, so "hubs" cannot
/// mean literal top-degree nodes; it means **hub-shaped traffic**: a
/// seeded hot pool of `pool_size` ids sampled with Zipf-like rank weights
/// (`1/(1+rank)`), concentrating most node draws on a handful of ids the
/// way real repository queries concentrate on community hubs. That is
/// exactly the shape cache warming and miss coalescing target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Every fresh node id uniform over `0..node_space`.
    Uniform,
    /// Fresh node ids drawn rank-weighted from a seeded hot pool.
    Hubs,
}

impl MixKind {
    /// Parses the CLI spelling (`"uniform"` / `"hubs"`).
    pub fn parse(s: &str) -> Option<MixKind> {
        match s {
            "uniform" => Some(MixKind::Uniform),
            "hubs" => Some(MixKind::Hubs),
            _ => None,
        }
    }

    /// The CLI spelling, for reports.
    pub fn name(self) -> &'static str {
        match self {
            MixKind::Uniform => "uniform",
            MixKind::Hubs => "hubs",
        }
    }
}

/// Default hot-pool size for [`MixKind::Hubs`] — matches the hub-pool
/// width the serving benchmark's stream sampler uses.
pub const DEFAULT_HOT_POOL: usize = 32;

/// Seeded sampler producing the node list for each query, over a preset's
/// node id space, with a configurable repeat rate to exercise the serving
/// cache.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// Node ids are drawn from `0..node_space`.
    node_space: usize,
    /// Team-member count per query (the paper's `Q`).
    queries_per: usize,
    /// Probability in `[0, 1]` that a query repeats an earlier one
    /// verbatim (a cache hit on the server, once warm).
    repeat: f64,
    state: u64,
    /// Recently issued query sets eligible for repetition.
    pool: Vec<Vec<usize>>,
    /// Hot ids for [`MixKind::Hubs`], hottest first; empty under
    /// [`MixKind::Uniform`].
    hot: Vec<usize>,
    /// Prefix sums of the rank weights `1/(1+rank)` over `hot`.
    hot_cum: Vec<f64>,
}

/// Cap on the repetition pool: repeats draw from the most recent 64
/// distinct queries, mirroring the locality of a working set rather than
/// the full history.
const POOL_CAP: usize = 64;

impl QueryMix {
    /// Creates a uniform sampler. `node_space` must exceed `queries_per`
    /// so a query can always hold distinct nodes.
    pub fn new(node_space: usize, queries_per: usize, repeat: f64, seed: u64) -> QueryMix {
        Self::with_mix(
            node_space,
            queries_per,
            repeat,
            seed,
            MixKind::Uniform,
            DEFAULT_HOT_POOL,
        )
    }

    /// Creates a sampler with an explicit fresh-node mix. For
    /// [`MixKind::Hubs`], `pool_size` is the hot-pool width (clamped so
    /// a query can still hold `queries_per` distinct nodes and the pool
    /// fits the node space); the pool's membership and ranking are a pure
    /// function of `seed`.
    pub fn with_mix(
        node_space: usize,
        queries_per: usize,
        repeat: f64,
        seed: u64,
        mix: MixKind,
        pool_size: usize,
    ) -> QueryMix {
        assert!(queries_per >= 1, "queries_per must be at least 1");
        assert!(
            node_space > queries_per,
            "node space must exceed the query size"
        );
        assert!((0.0..=1.0).contains(&repeat), "repeat must be in [0, 1]");
        let mut state = seed ^ 0x51_7cc1_b727_220a_95;
        let hot = match mix {
            MixKind::Uniform => Vec::new(),
            MixKind::Hubs => {
                let want = pool_size.max(queries_per + 1).min(node_space);
                let mut hot = Vec::with_capacity(want);
                let mut seen = std::collections::HashSet::with_capacity(want);
                // Dense pools (pool ≈ space) would spin on rejection;
                // degrade to the full space in id order instead.
                if want * 2 >= node_space {
                    hot.extend(0..node_space);
                } else {
                    while hot.len() < want {
                        let n = (splitmix64(&mut state) % node_space as u64) as usize;
                        if seen.insert(n) {
                            hot.push(n);
                        }
                    }
                }
                hot
            }
        };
        let mut hot_cum = Vec::with_capacity(hot.len());
        let mut acc = 0.0;
        for rank in 0..hot.len() {
            acc += 1.0 / (1.0 + rank as f64);
            hot_cum.push(acc);
        }
        QueryMix {
            node_space,
            queries_per,
            repeat,
            state,
            pool: Vec::new(),
            hot,
            hot_cum,
        }
    }

    /// One fresh node id draw under the configured mix.
    fn next_node(&mut self) -> usize {
        if self.hot.is_empty() {
            return (splitmix64(&mut self.state) % self.node_space as u64) as usize;
        }
        let total = *self.hot_cum.last().expect("non-empty hot pool");
        let u = u01(splitmix64(&mut self.state)) * total;
        let idx = self.hot_cum.partition_point(|&c| c <= u);
        self.hot[idx.min(self.hot.len() - 1)]
    }

    /// Draws the next query: either a verbatim repeat of a pooled query
    /// (probability `repeat`, once the pool is non-empty) or a fresh set
    /// of distinct node ids under the configured [`MixKind`].
    pub fn next_query(&mut self) -> Vec<usize> {
        if !self.pool.is_empty() && u01(splitmix64(&mut self.state)) < self.repeat {
            let idx = (splitmix64(&mut self.state) % self.pool.len() as u64) as usize;
            return self.pool[idx].clone();
        }
        let mut nodes = Vec::with_capacity(self.queries_per);
        let mut rejects = 0usize;
        while nodes.len() < self.queries_per {
            // Skewed draws collide often by design; after a burst of
            // rejects fall back to a uniform draw so the query always
            // fills with distinct nodes.
            let n = if rejects < 16 {
                self.next_node()
            } else {
                (splitmix64(&mut self.state) % self.node_space as u64) as usize
            };
            if nodes.contains(&n) {
                rejects += 1;
            } else {
                nodes.push(n);
            }
        }
        if self.pool.len() == POOL_CAP {
            self.pool.remove(0);
        }
        self.pool.push(nodes.clone());
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_evenly_spaced_and_covers_duration() {
        let s = arrival_schedule(ArrivalKind::Constant, 100.0, 1.0, 7);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0.0);
        for w in s.windows(2) {
            assert!((w[1] - w[0] - 0.01).abs() < 1e-12);
        }
        assert!(*s.last().unwrap() < 1.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = arrival_schedule(ArrivalKind::Poisson, 500.0, 2.0, 42);
        let b = arrival_schedule(ArrivalKind::Poisson, 500.0, 2.0, 42);
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        let c = arrival_schedule(ArrivalKind::Poisson, 500.0, 2.0, 43);
        assert_ne!(a, c, "a different seed must change the schedule");
    }

    #[test]
    fn poisson_schedule_hits_the_offered_rate_on_average() {
        let s = arrival_schedule(ArrivalKind::Poisson, 1000.0, 4.0, 9);
        // 4000 expected arrivals; 5 sigma is ~316.
        let n = s.len() as f64;
        assert!((n - 4000.0).abs() < 350.0, "got {n} arrivals");
        // Strictly increasing, inside the window.
        for w in s.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(s.iter().all(|&t| (0.0..4.0).contains(&t)));
    }

    #[test]
    fn query_mix_is_deterministic_and_draws_distinct_nodes() {
        let mut a = QueryMix::new(1000, 5, 0.3, 11);
        let mut b = QueryMix::new(1000, 5, 0.3, 11);
        for _ in 0..200 {
            let qa = a.next_query();
            let qb = b.next_query();
            assert_eq!(qa, qb);
            assert_eq!(qa.len(), 5);
            let mut sorted = qa.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "nodes within a query are distinct");
            assert!(qa.iter().all(|&n| n < 1000));
        }
    }

    #[test]
    fn hub_mix_is_deterministic_and_concentrates_traffic() {
        let mut a = QueryMix::with_mix(10_000, 4, 0.0, 5, MixKind::Hubs, 32);
        let mut b = QueryMix::with_mix(10_000, 4, 0.0, 5, MixKind::Hubs, 32);
        let mut freq = std::collections::HashMap::new();
        for _ in 0..300 {
            let qa = a.next_query();
            assert_eq!(qa, b.next_query(), "same seed, same stream");
            let mut sorted = qa.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "nodes within a query stay distinct");
            for &n in &qa {
                *freq.entry(n).or_insert(0usize) += 1;
            }
        }
        // 1200 node draws over a 10k space: uniform traffic would touch
        // ~1100 distinct ids; a 32-wide Zipf pool touches ≈ 32.
        assert!(
            freq.len() <= 40,
            "hub mix must concentrate on the hot pool, touched {}",
            freq.len()
        );
        // The hottest id carries far more than a uniform share.
        let max = *freq.values().max().unwrap();
        assert!(
            max >= 100,
            "rank-weighted sampling must favour the top hub, max count {max}"
        );
    }

    #[test]
    fn hub_pool_clamps_to_small_node_spaces() {
        // pool_size larger than the space: degrade to the whole space and
        // still produce valid distinct queries.
        let mut mix = QueryMix::with_mix(8, 3, 0.0, 1, MixKind::Hubs, 1000);
        for _ in 0..50 {
            let q = mix.next_query();
            let mut sorted = q.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            assert!(q.iter().all(|&n| n < 8));
        }
        // MixKind parsing round-trips the CLI spellings.
        assert_eq!(MixKind::parse("uniform"), Some(MixKind::Uniform));
        assert_eq!(MixKind::parse("hubs"), Some(MixKind::Hubs));
        assert_eq!(MixKind::parse("zipf"), None);
        assert_eq!(MixKind::Hubs.name(), "hubs");
    }

    #[test]
    fn uniform_with_mix_matches_plain_new() {
        let mut a = QueryMix::new(1000, 5, 0.3, 11);
        let mut b = QueryMix::with_mix(1000, 5, 0.3, 11, MixKind::Uniform, 999);
        for _ in 0..100 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn repeat_rate_reuses_pooled_queries() {
        let mut mix = QueryMix::new(10_000, 4, 0.5, 3);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let mut repeats = 0usize;
        for _ in 0..400 {
            let q = mix.next_query();
            if seen.contains(&q) {
                repeats += 1;
            } else {
                seen.push(q);
            }
        }
        // With repeat=0.5 over a 10k node space, fresh collisions are
        // essentially impossible; observed repeats ≈ 200 ± 5 sigma.
        assert!((140..=260).contains(&repeats), "got {repeats} repeats");

        let mut none = QueryMix::new(10_000, 4, 0.0, 3);
        let mut seen = Vec::new();
        for _ in 0..200 {
            let q = none.next_query();
            assert!(!seen.contains(&q), "repeat=0 must never reuse a query");
            seen.push(q);
        }
    }
}
