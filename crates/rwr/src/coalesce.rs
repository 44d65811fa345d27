//! Micro-batching window for cache-miss solves.
//!
//! `solve_block` amortizes beautifully over wide batches, but a serving
//! worker answering one request at a time only ever hands it that request's
//! own misses. Under concurrent traffic that is a waste twice over: N
//! requests missing N *different* rows issue N narrow solves where one wide
//! one would do, and the batched SpMM kernel never sees production-shaped
//! batches. (N requests missing the *same* row are already collapsed by the
//! in-flight entries of [`crate::cache`]; the window composes on top.)
//!
//! Every [`RwrRowCache`](crate::cache::RwrRowCache) owns one window,
//! set when the cache is built
//! ([`with_coalesce_us`](crate::cache::RwrRowCache::with_coalesce_us)),
//! and every led miss passes through it. With the window open
//! (`window_us > 0`) the first request to arrive becomes the *window
//! leader*, waits up to `window_us` (or until [`MAX_BATCH`] misses pool up)
//! while concurrent requests append theirs, then takes the whole pool as
//! **one** batch to solve. Followers block on their own in-flight slots and
//! receive the shared `Arc`'d rows when the leader publishes. Correctness
//! rides entirely on the backend's batch-independence contract: a row is
//! the same in any batch, so widening the batch can never change a reply.
//!
//! A lone request pays at most `window_us` of added latency (the starvation
//! bound — its own leader drains the pool when the window times out), which
//! is why the window defaults to **off** (`window_us == 0`): each request's
//! misses are then its batch at once, with no pooling, no foreign rows and
//! no window counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::FlightLead;

/// The window drains early once this many misses have pooled up. The
/// drained batch may exceed it when many requests append in the same
/// scheduling quantum — the batched solver handles any width, so the cap
/// bounds latency, not the batch.
pub const MAX_BATCH: usize = 32;

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

/// A cache's miss-coalescing window (see the module docs).
#[derive(Debug)]
pub(crate) struct Window {
    /// How long the window leader holds the window open, in microseconds;
    /// `0` turns the window off.
    window_us: u64,
    /// Early-drain threshold: [`MAX_BATCH`] outside this module's tests.
    max_batch: usize,
    pool: Mutex<Pool>,
    /// Wakes the window leader when followers append (for the early
    /// drain).
    cv: Condvar,
    batches: AtomicU64,
    batch_rows: AtomicU64,
    coalesced: AtomicU64,
}

impl Window {
    pub(crate) fn new(window_us: u64, max_batch: usize) -> Self {
        Window {
            window_us,
            max_batch,
            pool: Mutex::new(Pool::default()),
            cv: Condvar::new(),
            batches: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Snapshot of the behaviour counters.
    pub(crate) fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            batches: self.batches.load(Ordering::Relaxed),
            batch_rows: self.batch_rows.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Hands one request's led misses to the window and returns the batch
    /// the calling thread must now solve and publish: its own `leads` at
    /// once when the window is off; as window leader, every lead pooled
    /// before the window closed; `None` when a concurrent window leader
    /// took them over.
    pub(crate) fn gather(&self, leads: Vec<FlightLead>) -> Option<Vec<FlightLead>> {
        if self.window_us == 0 {
            return Some(leads);
        }
        let my_count = leads.len();
        let mut pool = self.pool.lock().unwrap();
        pool.pending.extend(leads);
        if pool.leader_active {
            // A concurrent window leader will drain (it holds the window
            // open under this mutex's condvar, so our append is visible to
            // it); wake it in case the pool just crossed `max_batch`.
            self.cv.notify_all();
            return None;
        }

        // Become the window leader: hold the window open for `window_us`
        // or until `max_batch` misses pool up, then drain.
        pool.leader_active = true;
        let deadline = Instant::now() + Duration::from_micros(self.window_us);
        while pool.pending.len() < self.max_batch {
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
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{IterativeScores, ScoreBackend};
    use crate::cache::{scores_with_cache, RwrRowCache};
    use crate::RwrConfig;
    use ceps_graph::{normalize::Normalization, GraphBuilder, NodeId, Transition};
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
    fn zero_window_drains_at_once_and_counts_nothing() {
        // Window 0: every request's misses are its own batch, solved at
        // once, with no window counters — concurrent requests included.
        let be = backend(32);
        let cache = RwrRowCache::new(1 << 20);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (be, cache) = (&be, &cache);
                s.spawn(move || {
                    let queries = [NodeId(t * 4), NodeId(t * 4 + 1)];
                    let (m, _) = scores_with_cache(be, cache, &queries).unwrap();
                    assert_eq!(m, be.scores(&queries).unwrap());
                });
            }
        });
        assert_eq!(cache.stats().insertions, 8);
        assert_eq!(cache.coalesce_stats(), CoalesceStats::default());
        let open = RwrRowCache::new(1 << 20).with_coalesce_us(100);
        assert_eq!(open.coalesce_stats(), CoalesceStats::default());
    }

    #[test]
    fn coalesced_path_matches_cold_solves_bitwise() {
        let be = backend(16);
        let cache = RwrRowCache::new(1 << 20).with_coalesce_us(200);
        for round in 0..4u32 {
            let queries = [NodeId(round), NodeId((round + 7) % 16)];
            let (m, _) = scores_with_cache(&be, &cache, &queries).unwrap();
            assert_eq!(m, be.scores(&queries).unwrap());
        }
        let s = cache.coalesce_stats();
        assert!(s.batches >= 1, "sequential misses still drain windows");
        assert_eq!(s.coalesced, 0, "no concurrency, nothing foreign");
    }

    #[test]
    fn concurrent_misses_coalesce_into_shared_batches() {
        // Many threads, all missing disjoint rows, with a wide-open window:
        // at least some rows must ride another thread's batch, and every
        // result must stay bitwise-identical to a cold solve.
        let be = backend(32);
        let cache = RwrRowCache::new(1 << 20).with_coalesce_us(50_000);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (be, cache) = (&be, &cache);
                s.spawn(move || {
                    let queries = [NodeId(t * 4), NodeId(t * 4 + 1)];
                    let (m, _) = scores_with_cache(be, cache, &queries).unwrap();
                    assert_eq!(m, be.scores(&queries).unwrap());
                });
            }
        });
        let s = cache.coalesce_stats();
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
        let cache = RwrRowCache::new(1 << 20).with_coalesce_us(20_000);
        let t0 = Instant::now();
        let (m, _) = scores_with_cache(&be, &cache, &[NodeId(3)]).unwrap();
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
        assert_eq!(cache.coalesce_stats().batches, 1);
    }

    #[test]
    fn max_batch_drains_the_window_early() {
        let be = backend(16);
        let mut cache = RwrRowCache::new(1 << 20);
        // Window long enough that only the max_batch early-drain can
        // explain a fast finish.
        cache.window = Window::new(6_000_000, 2); // 6s window
        let t0 = Instant::now();
        let (m, _) = scores_with_cache(&be, &cache, &[NodeId(0), NodeId(5)]).unwrap();
        assert_eq!(m, be.scores(&[NodeId(0), NodeId(5)]).unwrap());
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "2 pooled misses at max_batch 2 must drain immediately"
        );
    }
}
