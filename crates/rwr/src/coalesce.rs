//! Micro-batching window for cache-miss solves.
//!
//! `solve_block` amortizes beautifully over wide batches, but a serving
//! worker answering one request at a time only ever hands it that request's
//! own misses. Under concurrent traffic that is a waste twice over: N
//! requests missing N *different* rows issue N narrow solves where one wide
//! one would do, and the batched SpMM kernel never sees production-shaped
//! batches. (N requests missing the *same* row are already collapsed by the
//! single-flight table in [`crate::cache`] — the [`Coalescer`] composes on
//! top of it.)
//!
//! A [`Coalescer`] holds a bounded **coalescing window**: the first request
//! to arrive with led misses becomes the *window leader*, waits up to
//! `window_us` (or until `max_batch` misses pool up) while concurrent
//! requests append theirs, then drains the pool and issues **one** backend
//! solve for every pooled node. Followers block on their own single-flight
//! slots and receive the shared `Arc`'d rows when the leader publishes.
//! Correctness rides entirely on the backend's batch-independence contract:
//! a row is the same in any batch, so widening the batch can never change a
//! reply.
//!
//! A lone request pays at most `window_us` of added latency (the starvation
//! bound — its own leader drains the pool when the window times out), which
//! is why the window defaults to **off** (`window_us == 0`) and is an
//! explicit opt-in for repeat-heavy deployments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ceps_graph::NodeId;

use crate::backend::ScoreBackend;
use crate::cache::{FlightLead, RwrRowCache};

/// Tunables of the coalescing window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// How long the window leader holds the window open for concurrent
    /// misses, in microseconds. `0` disables coalescing entirely (every
    /// request solves its own misses immediately; single-flight still
    /// applies).
    pub window_us: u64,
    /// Drain the window early once this many misses have pooled up
    /// (clamped to ≥ 1). The drained batch may exceed this bound when many
    /// requests append in the same scheduling quantum — the batched solver
    /// handles any width, so the cap is a latency knob, not a hard limit.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            window_us: 0,
            max_batch: 64,
        }
    }
}

impl CoalesceConfig {
    /// A window of `window_us` microseconds with the default batch cap.
    pub fn with_window_us(window_us: u64) -> Self {
        CoalesceConfig {
            window_us,
            ..Self::default()
        }
    }

    /// Whether this configuration coalesces at all.
    pub fn enabled(&self) -> bool {
        self.window_us > 0
    }
}

/// Counters describing coalescer behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Windows drained (one batched solve each).
    pub batches: u64,
    /// Rows solved through drained windows, own and foreign.
    pub batch_rows: u64,
    /// Rows that rode a batch issued by *another* request — the redundant
    /// solves coalescing actually eliminated.
    pub coalesced: u64,
}

#[derive(Debug, Default)]
struct Pool {
    pending: Vec<FlightLead>,
    /// Whether a window leader currently holds the window open.
    leader_active: bool,
}

/// The shared miss-coalescing window (see the module docs). Cheap to share:
/// wrap in `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Coalescer {
    cfg: CoalesceConfig,
    pool: Mutex<Pool>,
    /// Wakes the window leader when followers append (for the `max_batch`
    /// early drain).
    cv: Condvar,
    batches: AtomicU64,
    batch_rows: AtomicU64,
    coalesced: AtomicU64,
}

impl Coalescer {
    /// Creates a coalescer; `cfg.max_batch` is clamped to ≥ 1.
    pub fn new(cfg: CoalesceConfig) -> Self {
        Coalescer {
            cfg: CoalesceConfig {
                max_batch: cfg.max_batch.max(1),
                ..cfg
            },
            pool: Mutex::new(Pool::default()),
            cv: Condvar::new(),
            batches: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The configuration this coalescer runs.
    pub fn config(&self) -> CoalesceConfig {
        self.cfg
    }

    /// Whether coalescing is actually on (`window_us > 0`).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            batches: self.batches.load(Ordering::Relaxed),
            batch_rows: self.batch_rows.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Submits one request's led misses to the window and guarantees every
    /// one of them gets published (or failed) — by this thread if it becomes
    /// the window leader, by a concurrent leader otherwise. Callers keep
    /// slot handles (via [`FlightLead::slot`]) *before* submitting and block
    /// on those to collect their rows; this method itself returns as soon as
    /// the caller's responsibility is discharged.
    ///
    /// A failed batched solve fails every pooled flight; each participating
    /// request then falls back to a direct solve of its own nodes, so errors
    /// are reported per-request and never lost.
    pub(crate) fn resolve(
        &self,
        backend: &dyn ScoreBackend,
        cache: &RwrRowCache,
        leads: Vec<FlightLead>,
    ) {
        let my_count = leads.len();
        let mut pool = self.pool.lock().unwrap();
        pool.pending.extend(leads);
        if pool.leader_active {
            // A concurrent window leader will drain (it holds the window
            // open under this mutex's condvar, so our append is visible to
            // it); wake it in case the pool just crossed `max_batch`.
            self.cv.notify_all();
            return;
        }

        // Become the window leader: hold the window open for `window_us`
        // or until `max_batch` misses pool up, then drain and solve once.
        pool.leader_active = true;
        let deadline = Instant::now() + Duration::from_micros(self.cfg.window_us);
        while pool.pending.len() < self.cfg.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (p, timeout) = self.cv.wait_timeout(pool, deadline - now).unwrap();
            pool = p;
            if timeout.timed_out() {
                break;
            }
        }
        let batch: Vec<FlightLead> = pool.pending.drain(..).collect();
        pool.leader_active = false;
        drop(pool);

        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_rows
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let foreign = (batch.len() - my_count.min(batch.len())) as u64;
        if foreign > 0 {
            self.coalesced.fetch_add(foreign, Ordering::Relaxed);
            ceps_obs::counter("serve.coalesced_total", foreign);
        }
        ceps_obs::counter("serve.coalesce.batches", 1);
        ceps_obs::counter("serve.coalesce.rows", batch.len() as u64);

        let nodes: Vec<NodeId> = batch.iter().map(FlightLead::node).collect();
        match backend.scores(&nodes) {
            Ok(solved) => {
                for (i, lead) in batch.into_iter().enumerate() {
                    lead.publish(cache, std::sync::Arc::new(solved.row(i).to_vec()));
                }
            }
            // Dropping the leads fails every pooled flight; participants
            // fall back to direct solves and surface the error themselves.
            Err(_) => drop(batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IterativeScores;
    use crate::cache::{scores_with_cache, RwrRowCache};
    use crate::RwrConfig;
    use ceps_graph::{normalize::Normalization, GraphBuilder, Transition};
    use std::sync::Arc;

    fn backend(n: u32) -> IterativeScores {
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.add_edge(NodeId(v), NodeId((v + 1) % n), 1.0 + f64::from(v))
                .unwrap();
            b.add_edge(NodeId(v), NodeId((v + 3) % n), 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let t = Arc::new(Transition::new(&g, Normalization::ColumnStochastic));
        IterativeScores::new(
            t,
            RwrConfig {
                threads: 1,
                tolerance: Some(1e-10),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn disabled_window_is_default_and_config_clamps() {
        assert!(!CoalesceConfig::default().enabled());
        assert!(CoalesceConfig::with_window_us(200).enabled());
        let co = Coalescer::new(CoalesceConfig {
            window_us: 100,
            max_batch: 0,
        });
        assert_eq!(co.config().max_batch, 1, "max_batch clamps to >= 1");
        assert_eq!(co.stats(), CoalesceStats::default());
    }

    #[test]
    fn coalesced_path_matches_cold_solves_bitwise() {
        let be = backend(16);
        let cache = RwrRowCache::new(1 << 20);
        let co = Coalescer::new(CoalesceConfig::with_window_us(200));
        for round in 0..4u32 {
            let queries = [NodeId(round), NodeId((round + 7) % 16)];
            let (m, _) = scores_with_cache(&be, &cache, &queries, Some(&co)).unwrap();
            assert_eq!(m, be.scores(&queries).unwrap());
        }
        let s = co.stats();
        assert!(s.batches >= 1, "sequential misses still drain windows");
        assert_eq!(s.coalesced, 0, "no concurrency, nothing foreign");
    }

    #[test]
    fn concurrent_misses_coalesce_into_shared_batches() {
        // Many threads, all missing disjoint rows, with a wide-open window:
        // at least some rows must ride another thread's batch, and every
        // result must stay bitwise-identical to a cold solve.
        let be = backend(32);
        let cache = RwrRowCache::new(1 << 20);
        let co = Coalescer::new(CoalesceConfig {
            window_us: 50_000,
            max_batch: 64,
        });
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (be, cache, co) = (&be, &cache, &co);
                s.spawn(move || {
                    let queries = [NodeId(t * 4), NodeId(t * 4 + 1)];
                    let (m, _) = scores_with_cache(be, cache, &queries, Some(co)).unwrap();
                    assert_eq!(m, be.scores(&queries).unwrap());
                });
            }
        });
        let s = co.stats();
        assert_eq!(s.batch_rows, 16, "every distinct miss solved exactly once");
        assert!(
            s.batches < 16,
            "16 rows across {} batches — windows never merged",
            s.batches
        );
        assert!(s.coalesced > 0, "open window must have caught foreign rows");
    }

    #[test]
    fn lone_request_is_not_starved_by_an_open_window() {
        // The starvation bound: a lone request under an open window
        // completes within window_us + solve time (here: comfortably
        // under a second for a 20ms window), because its own leader drains
        // the pool on timeout.
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let co = Coalescer::new(CoalesceConfig {
            window_us: 20_000,
            max_batch: 64,
        });
        let t0 = Instant::now();
        let (m, _) = scores_with_cache(&be, &cache, &[NodeId(3)], Some(&co)).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(m, be.scores(&[NodeId(3)]).unwrap());
        assert!(
            elapsed >= Duration::from_millis(15),
            "lone leader should hold the window open (took {elapsed:?})"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "window must time out, not hang (took {elapsed:?})"
        );
        assert_eq!(co.stats().batches, 1);
    }

    #[test]
    fn max_batch_drains_the_window_early() {
        let be = backend(16);
        let cache = RwrRowCache::new(1 << 20);
        // Window long enough that only the max_batch early-drain can
        // explain a fast finish.
        let co = Coalescer::new(CoalesceConfig {
            window_us: 60_000_00, // 6s
            max_batch: 2,
        });
        let t0 = Instant::now();
        let (m, _) = scores_with_cache(&be, &cache, &[NodeId(0), NodeId(5)], Some(&co)).unwrap();
        assert_eq!(m, be.scores(&[NodeId(0), NodeId(5)]).unwrap());
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "2 pooled misses at max_batch 2 must drain immediately"
        );
    }
}
