//! Shared per-query-node RWR row cache.
//!
//! An RWR row `r(i, ·)` is a pure function of the backend — the transition
//! operator, restart `c`, iteration budget and tolerance — and of the single
//! query node `i`; it does **not** depend on the other queries batched
//! alongside it (the batch-independence contract of
//! [`crate::backend::ScoreBackend`]). That makes completed rows safe to reuse
//! across queries, which is where serving workloads win: repository queries
//! are community hubs, so real query streams repeat nodes constantly.
//!
//! [`RwrRowCache`] is the store: sharded (`NodeId % shards` → one mutex per
//! shard, so concurrent workers rarely contend), bytes-budgeted (each shard
//! owns `budget / shards` bytes and LRU-evicts by a global logical clock when
//! full) and keyed by `NodeId` alone — the cache must therefore live no wider
//! than one backend. **Invalidation rule: one cache per
//! `(transition, RwrConfig, score variant)`; rebuild the graph or retune the
//! solver → drop the cache.** As defense in depth, lookups whose stored row
//! length disagrees with the caller's expected node count miss instead of
//! returning a stale-shaped row.
//!
//! [`scores_with_cache`] is the one assembly loop every cached caller uses
//! (serving Step 1 and cache warming alike): probe the cache for every
//! query, claim a single-flight slot per distinct miss, batch **only the
//! missing nodes** through one backend solve (optionally widened by a
//! [`Coalescer`] window), insert the fresh rows, and stitch the
//! [`ScoreMatrix`] together in the caller's query order. Rows are `Arc`-shared between the
//! cache and in-flight results, so eviction never copies or invalidates a
//! row a reader still holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ceps_graph::NodeId;

use crate::backend::ScoreBackend;
use crate::coalesce::Coalescer;
use crate::{Result, RwrError, ScoreMatrix};

/// Fixed per-row bookkeeping charge (map entry, `Arc` header, tick) added to
/// the `8 × len` payload when budgeting.
const ROW_OVERHEAD_BYTES: usize = 64;

/// Default shard count — enough to keep a handful of workers from
/// serialising on one mutex without fragmenting small budgets.
pub const DEFAULT_SHARDS: usize = 16;

#[derive(Debug)]
struct CachedRow {
    row: Arc<Vec<f64>>,
    /// Last-touch tick from the cache-wide logical clock; smallest = LRU.
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    rows: HashMap<u32, CachedRow>,
    bytes: usize,
}

impl Shard {
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .rows
            .iter()
            .min_by_key(|(_, r)| r.tick)
            .map(|(&k, _)| k);
        match victim {
            Some(k) => {
                if let Some(dead) = self.rows.remove(&k) {
                    self.bytes -= row_bytes(dead.row.len());
                }
                true
            }
            None => false,
        }
    }
}

fn row_bytes(len: usize) -> usize {
    len * std::mem::size_of::<f64>() + ROW_OVERHEAD_BYTES
}

/// Bytes one cached row of `len` scores is charged against the budget —
/// payload plus fixed bookkeeping overhead. Public so warming policies can
/// convert a byte budget into a row count without guessing.
pub fn row_cost_bytes(len: usize) -> usize {
    row_bytes(len)
}

/// One in-flight solve: the slot concurrent requests rendezvous on when
/// they miss the same [`NodeId`]. The **leader** (the request that created
/// the slot) runs the backend solve and publishes the `Arc`'d row; every
/// waiter blocks on the condvar and receives that same row without solving.
#[derive(Debug)]
pub(crate) struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState {
    /// The leader is still solving.
    Pending,
    /// The leader published the shared row.
    Done(Arc<Vec<f64>>),
    /// The leader gave up (solve error or panic unwound its guard);
    /// waiters must fall back to solving the node themselves.
    Failed,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, row: Arc<Vec<f64>>) {
        *self.state.lock().unwrap() = FlightState::Done(row);
        self.cv.notify_all();
    }

    fn fail(&self) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Failed;
        }
        drop(state);
        self.cv.notify_all();
    }

    fn is_failed(&self) -> bool {
        matches!(*self.state.lock().unwrap(), FlightState::Failed)
    }

    /// Non-blocking probe: `Some(Some(row))` when published, `Some(None)`
    /// when failed, `None` while still pending.
    fn try_get(&self) -> Option<Option<Arc<Vec<f64>>>> {
        match &*self.state.lock().unwrap() {
            FlightState::Pending => None,
            FlightState::Done(row) => Some(Some(Arc::clone(row))),
            FlightState::Failed => Some(None),
        }
    }

    /// Blocks until the leader publishes or fails.
    fn wait(&self) -> Option<Arc<Vec<f64>>> {
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Pending => state = self.cv.wait(state).unwrap(),
                FlightState::Done(row) => return Some(Arc::clone(row)),
                FlightState::Failed => return None,
            }
        }
    }
}

/// Leadership of one in-flight solve, handed out by
/// [`RwrRowCache::join_or_lead`]. The holder **must** eventually call
/// [`FlightLead::publish`]; dropping it unpublished marks the flight failed
/// so waiters fall back to their own solve instead of hanging (the
/// panic-safety path).
#[derive(Debug)]
pub(crate) struct FlightLead {
    node: NodeId,
    slot: Arc<FlightSlot>,
    published: bool,
}

impl FlightLead {
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// A waitable handle on this flight (what the lead's own request blocks
    /// on when the solve is delegated to a coalescing window leader).
    pub(crate) fn slot(&self) -> Arc<FlightSlot> {
        Arc::clone(&self.slot)
    }

    /// Inserts the row into `cache`, wakes every waiter with the shared
    /// `Arc`, and retires the in-flight entry.
    pub(crate) fn publish(mut self, cache: &RwrRowCache, row: Arc<Vec<f64>>) {
        cache.insert(self.node, Arc::clone(&row));
        self.slot.publish(row);
        cache.remove_flight(self.node, &self.slot);
        self.published = true;
    }
}

impl Drop for FlightLead {
    fn drop(&mut self) {
        if !self.published {
            // No cache handle here, so the dead map entry stays behind;
            // `join_or_lead` replaces failed entries lazily on next touch.
            self.slot.fail();
        }
    }
}

/// Outcome of [`RwrRowCache::join_or_lead`].
#[derive(Debug)]
pub(crate) enum Flight {
    /// This request owns the solve for the node.
    Lead(FlightLead),
    /// Another request is already solving it; block on the slot.
    Wait(Arc<FlightSlot>),
}

/// Counters describing cache behaviour since construction (or [`RwrRowCache::clear`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to fall through to the backend.
    pub misses: u64,
    /// Rows removed to make room for newer ones.
    pub evictions: u64,
    /// Rows accepted into the store.
    pub insertions: u64,
    /// Rows refused because they exceed a whole shard's budget on their own.
    pub rejected: u64,
    /// Misses that blocked on another request's in-flight solve instead of
    /// duplicating it (single-flight). A subset of `misses`: the probe that
    /// preceded the wait already counted there.
    pub singleflight_waits: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when the cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, bytes-budgeted, LRU-evicting store of RWR rows keyed by query
/// [`NodeId`].
///
/// Cheap to share: wrap in `Arc` and clone the handle across workers. All
/// methods take `&self`; internal mutation is per-shard `Mutex` plus atomics.
#[derive(Debug)]
pub struct RwrRowCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard in-flight maps (same index as `shards`): the single-flight
    /// rendezvous for misses that are currently being solved.
    flights: Vec<Mutex<HashMap<u32, Arc<FlightSlot>>>>,
    /// Per-shard byte ceiling (total budget / shard count).
    shard_budget: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    rejected: AtomicU64,
    singleflight_waits: AtomicU64,
}

impl RwrRowCache {
    /// Creates a cache with `byte_budget` total capacity across
    /// [`DEFAULT_SHARDS`] shards. A zero budget is legal and caches nothing.
    pub fn new(byte_budget: usize) -> Self {
        Self::with_shards(byte_budget, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (clamped to ≥ 1). The
    /// budget splits evenly: each shard may hold `byte_budget / shards` bytes.
    pub fn with_shards(byte_budget: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        RwrRowCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            flights: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_budget: byte_budget / shards,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
        }
    }

    fn shard(&self, node: NodeId) -> &Mutex<Shard> {
        &self.shards[node.index() % self.shards.len()]
    }

    fn flight_shard(&self, node: NodeId) -> &Mutex<HashMap<u32, Arc<FlightSlot>>> {
        &self.flights[node.index() % self.flights.len()]
    }

    /// Claims or joins the in-flight solve for `node`: the first request to
    /// miss becomes the [`Flight::Lead`] and must publish (or drop, =fail)
    /// the slot; later requests get [`Flight::Wait`]. Entries left behind by
    /// failed leads are replaced here rather than waited on.
    pub(crate) fn join_or_lead(&self, node: NodeId) -> Flight {
        let mut flights = self.flight_shard(node).lock().unwrap();
        if let Some(slot) = flights.get(&node.0) {
            if !slot.is_failed() {
                return Flight::Wait(Arc::clone(slot));
            }
        }
        let slot = Arc::new(FlightSlot::new());
        flights.insert(node.0, Arc::clone(&slot));
        Flight::Lead(FlightLead {
            node,
            slot,
            published: false,
        })
    }

    /// Retires the in-flight entry for `node`, but only if it is still the
    /// same slot — a failed lead's entry may already have been replaced by
    /// a successor.
    fn remove_flight(&self, node: NodeId, slot: &Arc<FlightSlot>) {
        let mut flights = self.flight_shard(node).lock().unwrap();
        if flights.get(&node.0).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            flights.remove(&node.0);
        }
    }

    /// Blocks on another request's in-flight solve and returns its row
    /// (`None` when the leader failed and the caller must solve itself).
    /// Counts a single-flight wait — and charges the blocked time to the
    /// serving-layer `serve.singleflight_wait_ms` histogram — only when the
    /// slot was genuinely still pending on arrival.
    pub(crate) fn wait_flight(&self, slot: &FlightSlot) -> Option<Arc<Vec<f64>>> {
        if let Some(resolved) = slot.try_get() {
            return resolved;
        }
        let t0 = Instant::now();
        let out = slot.wait();
        self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
        ceps_obs::counter("serve.singleflight_total", 1);
        ceps_obs::record(
            "serve.singleflight_wait_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        out
    }

    /// Looks up the row for `node` without touching the hit/miss counters
    /// or the LRU clock — bookkeeping-free re-checks on the single-flight
    /// path, where the probe already counted.
    pub(crate) fn peek(&self, node: NodeId, expected_len: usize) -> Option<Arc<Vec<f64>>> {
        let shard = self.shard(node).lock().unwrap();
        shard
            .rows
            .get(&node.0)
            .filter(|entry| entry.row.len() == expected_len)
            .map(|entry| Arc::clone(&entry.row))
    }

    /// Looks up the row for `node`, refreshing its LRU tick on hit.
    ///
    /// A stored row whose length differs from `expected_len` (a cache handle
    /// that outlived its graph) is treated as a miss, not returned.
    pub fn get(&self, node: NodeId, expected_len: usize) -> Option<Arc<Vec<f64>>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(node).lock().unwrap();
        let hit = shard.rows.get_mut(&node.0).and_then(|entry| {
            if entry.row.len() == expected_len {
                entry.tick = tick;
                Some(Arc::clone(&entry.row))
            } else {
                None
            }
        });
        drop(shard);
        match hit {
            Some(row) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ceps_obs::counter("rwr.cache.hits", 1);
                Some(row)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ceps_obs::counter("rwr.cache.misses", 1);
                None
            }
        }
    }

    /// Inserts (or refreshes) the row for `node`, evicting least-recently
    /// used rows in its shard until the shard fits its budget.
    ///
    /// Rows that alone exceed the per-shard budget are rejected outright —
    /// admitting one would evict the whole shard and still not fit.
    pub fn insert(&self, node: NodeId, row: Arc<Vec<f64>>) {
        let incoming = row_bytes(row.len());
        if incoming > self.shard_budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            ceps_obs::counter("rwr.cache.rejected", 1);
            return;
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(node).lock().unwrap();
            if let Some(old) = shard.rows.remove(&node.0) {
                shard.bytes -= row_bytes(old.row.len());
            }
            while shard.bytes + incoming > self.shard_budget {
                if shard.evict_lru() {
                    evicted += 1;
                } else {
                    break;
                }
            }
            shard.bytes += incoming;
            shard.rows.insert(node.0, CachedRow { row, tick });
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        ceps_obs::counter("rwr.cache.insertions", 1);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            ceps_obs::counter("rwr.cache.evictions", evicted);
        }
    }

    /// Number of rows currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().rows.len())
            .sum()
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// Total byte budget (per-shard budget × shard count).
    pub fn byte_budget(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    /// Drops every resident row and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            shard.rows.clear();
            shard.bytes = 0;
        }
        for counter in [
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.insertions,
            &self.rejected,
            &self.singleflight_waits,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
        }
    }
}

/// Per-call cache outcome from [`scores_with_cache`]: how many of one
/// request's **distinct** query nodes were served from the cache and how
/// many had to be solved. Duplicated query nodes count once.
///
/// The cache's global [`CacheStats`] aggregate across all callers, which
/// makes them useless for attributing warmth to a single request in a
/// concurrent stream; per-request tracing wants this local tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLookups {
    /// Distinct query nodes served from the cache.
    pub hits: u64,
    /// Distinct query nodes batched through the backend solve.
    pub misses: u64,
}

/// Solves `queries` against `backend`, serving rows from `cache` where
/// possible, and reports this call's own [`CacheLookups`].
///
/// The one miss-resolution path behind every cached caller: cache probe →
/// single-flight claim per distinct miss → one batched backend solve over
/// this request's led misses (widened, when a [`Coalescer`] is passed, by a
/// window gathering leads from concurrent requests) → block on foreign
/// flights → direct-solve fallback for failed flights.
///
/// The returned matrix is row-for-row bitwise identical to
/// `backend.scores(queries)` run cold: hits, single-flight handoffs and
/// coalesced rows are all produced by the same batch-independent backend,
/// and the fallback path is the plain solve. Duplicate query nodes are
/// solved once and the row is reused. Hit/miss accounting is probe-based
/// and therefore unchanged by single-flight and coalescing — a miss that
/// ends up waiting on another request's solve still counts as this
/// request's miss.
///
/// # Errors
/// [`RwrError::NoQueries`] on an empty slice, plus whatever the backend
/// solve over the missing nodes returns; when a shared solve fails, each
/// participating request re-solves its own nodes and reports that error.
pub fn scores_with_cache(
    backend: &dyn ScoreBackend,
    cache: &RwrRowCache,
    queries: &[NodeId],
    coalescer: Option<&Coalescer>,
) -> Result<(ScoreMatrix, CacheLookups)> {
    if queries.is_empty() {
        return Err(RwrError::NoQueries);
    }
    let _span = ceps_obs::span("rwr.scores_with_cache");
    let n = backend.node_count();

    // Probe every query once; collect the distinct misses in first-seen order.
    let mut resolved: HashMap<u32, Arc<Vec<f64>>> = HashMap::with_capacity(queries.len());
    let mut missing: Vec<NodeId> = Vec::new();
    for &q in queries {
        if resolved.contains_key(&q.0) || missing.contains(&q) {
            continue;
        }
        match cache.get(q, n) {
            Some(row) => {
                resolved.insert(q.0, row);
            }
            None => missing.push(q),
        }
    }

    let lookups = CacheLookups {
        hits: resolved.len() as u64,
        misses: missing.len() as u64,
    };

    if !missing.is_empty() {
        // Claim a flight per miss: leads are ours to solve, waits belong to
        // concurrent requests already solving the same node.
        let mut leads: Vec<FlightLead> = Vec::new();
        let mut waits: Vec<(NodeId, Arc<FlightSlot>)> = Vec::new();
        for &q in &missing {
            match cache.join_or_lead(q) {
                Flight::Lead(lead) => {
                    // The row may have landed between the probe and the
                    // claim (a leader published just now); don't re-solve.
                    if let Some(row) = cache.peek(q, n) {
                        lead.publish(cache, Arc::clone(&row));
                        resolved.insert(q.0, row);
                    } else {
                        leads.push(lead);
                    }
                }
                Flight::Wait(slot) => waits.push((q, slot)),
            }
        }

        if !leads.is_empty() {
            match coalescer.filter(|c| c.enabled()) {
                Some(co) => {
                    // The window leader (this thread or a concurrent one)
                    // publishes every pooled lead; collect ours via the
                    // slots like any other wait.
                    for lead in &leads {
                        waits.push((lead.node(), lead.slot()));
                    }
                    co.resolve(backend, cache, leads);
                }
                None => {
                    // Publish before blocking on foreign flights — waiting
                    // first could deadlock two requests leading each
                    // other's nodes.
                    let nodes: Vec<NodeId> = leads.iter().map(FlightLead::node).collect();
                    let solved = backend.scores(&nodes)?;
                    for (i, lead) in leads.into_iter().enumerate() {
                        let row = Arc::new(solved.row(i).to_vec());
                        resolved.insert(nodes[i].0, Arc::clone(&row));
                        lead.publish(cache, row);
                    }
                }
            }
        }

        // Collect foreign (and coalesced) flights; failed ones fall back to
        // one direct solve below.
        let mut failed: Vec<NodeId> = Vec::new();
        for (q, slot) in waits {
            match cache.wait_flight(&slot) {
                Some(row) => {
                    resolved.insert(q.0, row);
                }
                None => failed.push(q),
            }
        }
        if !failed.is_empty() {
            let solved = backend.scores(&failed)?;
            for (i, &q) in failed.iter().enumerate() {
                let row = Arc::new(solved.row(i).to_vec());
                cache.insert(q, Arc::clone(&row));
                resolved.insert(q.0, row);
            }
        }
    }

    let rows: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| resolved[&q.0].as_ref().clone())
        .collect();
    ScoreMatrix::new(queries.to_vec(), rows).map(|m| (m, lookups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IterativeScores;
    use crate::RwrConfig;
    use ceps_graph::{normalize::Normalization, GraphBuilder, Transition};

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
    fn hit_returns_the_inserted_row() {
        let cache = RwrRowCache::new(1 << 20);
        let row = Arc::new(vec![1.0, 2.0, 3.0]);
        cache.insert(NodeId(7), Arc::clone(&row));
        let got = cache.get(NodeId(7), 3).unwrap();
        assert!(Arc::ptr_eq(&got, &row));
        // Wrong expected length is a defended miss, not a stale hit.
        assert!(cache.get(NodeId(7), 4).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_row_within_budget() {
        // One shard; room for exactly two 4-element rows.
        let cache = RwrRowCache::with_shards(2 * row_bytes(4), 1);
        let mk = |v: f64| Arc::new(vec![v; 4]);
        cache.insert(NodeId(1), mk(1.0));
        cache.insert(NodeId(2), mk(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(NodeId(1), 4).is_some());
        cache.insert(NodeId(3), mk(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(NodeId(2), 4).is_none(), "LRU row evicted");
        assert!(cache.get(NodeId(1), 4).is_some());
        assert!(cache.get(NodeId(3), 4).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.bytes() <= cache.byte_budget());
    }

    #[test]
    fn oversized_rows_are_rejected_not_thrashed() {
        let cache = RwrRowCache::with_shards(row_bytes(4), 1);
        cache.insert(NodeId(0), Arc::new(vec![0.0; 64]));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected, 1);
        // A zero-budget cache degrades to pass-through the same way.
        let none = RwrRowCache::new(0);
        none.insert(NodeId(0), Arc::new(vec![0.0; 1]));
        assert!(none.is_empty());
    }

    #[test]
    fn cached_scores_are_bitwise_equal_to_cold() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let warm = [NodeId(0), NodeId(4), NodeId(8)];
        let (first, _) = scores_with_cache(&be, &cache, &warm, None).unwrap();
        assert_eq!(first, be.scores(&warm).unwrap());

        // Overlapping second batch: 0 and 8 hit, 2 misses cold.
        let mixed = [NodeId(8), NodeId(2), NodeId(0)];
        let (second, _) = scores_with_cache(&be, &cache, &mixed, None).unwrap();
        assert_eq!(second, be.scores(&mixed).unwrap());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 4);
    }

    #[test]
    fn duplicate_queries_solve_once_and_repeat_rows() {
        let be = backend(8);
        let cache = RwrRowCache::new(1 << 20);
        let queries = [NodeId(3), NodeId(3), NodeId(5), NodeId(3)];
        let (m, _) = scores_with_cache(&be, &cache, &queries, None).unwrap();
        assert_eq!(m.query_count(), 4);
        assert_eq!(m.row(0), m.row(1));
        assert_eq!(m.row(0), m.row(3));
        assert_eq!(m, be.scores(&queries).unwrap());
        // Only the two distinct nodes were solved and inserted.
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn thrashing_budget_still_matches_cold() {
        let be = backend(16);
        // Budget fits a single 16-node row: every batch evicts the last.
        let cache = RwrRowCache::with_shards(row_bytes(16), 1);
        for round in 0..4u32 {
            let queries = [NodeId(round), NodeId((round + 5) % 16)];
            let (m, _) = scores_with_cache(&be, &cache, &queries, None).unwrap();
            assert_eq!(m, be.scores(&queries).unwrap());
        }
        assert!(cache.stats().evictions > 0, "budget was supposed to thrash");
        assert!(cache.bytes() <= cache.byte_budget());
    }

    #[test]
    fn lookups_report_this_calls_probes_only() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let (_, first) = scores_with_cache(&be, &cache, &[NodeId(0), NodeId(4)], None).unwrap();
        assert_eq!(first, CacheLookups { hits: 0, misses: 2 });
        // Second request: one warm node, one cold, one duplicate (counted
        // once) — the local tally ignores the first call's traffic.
        let (m, second) =
            scores_with_cache(&be, &cache, &[NodeId(4), NodeId(7), NodeId(4)], None).unwrap();
        assert_eq!(second, CacheLookups { hits: 1, misses: 1 });
        assert_eq!(m.query_count(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 3), "global stats keep aggregating");
    }

    #[test]
    fn empty_query_slice_is_rejected() {
        let be = backend(4);
        let cache = RwrRowCache::new(1 << 16);
        assert!(matches!(
            scores_with_cache(&be, &cache, &[], None),
            Err(RwrError::NoQueries)
        ));
    }

    #[test]
    fn concurrent_requests_for_one_node_solve_it_once() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let expect = be.scores(&[NodeId(5)]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (be, cache, expect) = (&be, &cache, &expect);
                s.spawn(move || {
                    let (m, _) = scores_with_cache(be, cache, &[NodeId(5)], None).unwrap();
                    assert_eq!(&m, expect);
                });
            }
        });
        let st = cache.stats();
        assert_eq!(st.hits + st.misses, 8, "every request probed once");
        assert_eq!(
            st.insertions, 1,
            "single-flight: one solve, one insert, whatever the interleaving"
        );
    }

    #[test]
    fn waiter_keeps_its_row_when_the_cache_evicts_or_rejects_it() {
        // The eviction-vs-in-flight race: a waiter blocks on a slot while
        // the published row is immediately lost from the cache (here the
        // hard case — a zero-budget cache rejects every insert). The row
        // travels through the slot's `Arc`, not the store, so the waiter
        // must still receive it.
        let be = backend(16);
        let cache = RwrRowCache::with_shards(0, 1);
        let expect = be.scores(&[NodeId(3)]).unwrap();
        let Flight::Lead(lead) = cache.join_or_lead(NodeId(3)) else {
            panic!("first claim must lead");
        };
        std::thread::scope(|s| {
            let (be, cache, expect) = (&be, &cache, &expect);
            let waiter = s.spawn(move || {
                let (m, l) = scores_with_cache(be, cache, &[NodeId(3)], None).unwrap();
                assert_eq!(&m, expect);
                assert_eq!(l, CacheLookups { hits: 0, misses: 1 });
            });
            // Let the waiter reach the slot, then publish the true row —
            // the insert inside publish is rejected (budget 0) before the
            // waiter ever wakes.
            std::thread::sleep(std::time::Duration::from_millis(30));
            lead.publish(cache, Arc::new(expect.row(0).to_vec()));
            waiter.join().unwrap();
        });
        assert!(cache.is_empty(), "zero budget keeps nothing");
        let st = cache.stats();
        assert_eq!(st.rejected, 1, "publish's insert was rejected");
        assert_eq!(st.singleflight_waits, 1, "the waiter genuinely blocked");
        assert_eq!(st.insertions, 0);
    }

    #[test]
    fn dropped_leader_fails_waiters_over_to_their_own_solve() {
        let be = backend(8);
        let cache = RwrRowCache::new(1 << 20);
        let expect = be.scores(&[NodeId(2)]).unwrap();
        let Flight::Lead(lead) = cache.join_or_lead(NodeId(2)) else {
            panic!("first claim must lead");
        };
        std::thread::scope(|s| {
            let (be, cache, expect) = (&be, &cache, &expect);
            let waiter = s.spawn(move || {
                let (m, _) = scores_with_cache(be, cache, &[NodeId(2)], None).unwrap();
                assert_eq!(&m, expect, "fallback solve matches");
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            drop(lead); // unpublished → flight fails → waiter self-solves
            waiter.join().unwrap();
        });
        assert_eq!(cache.stats().insertions, 1, "fallback inserted the row");
        // The dead flight entry is replaced, not waited on, by later claims.
        assert!(matches!(cache.join_or_lead(NodeId(2)), Flight::Lead(_)));
    }
}
