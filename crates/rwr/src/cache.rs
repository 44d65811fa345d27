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
//! [`RwrRowCache`] is the store: **one table** behind one mutex,
//! bytes-budgeted (one budget for the whole table, LRU-evicting by a
//! logical clock when full) and keyed by `NodeId` alone — the cache must
//! therefore live no wider than one backend. **Invalidation rule: one cache
//! per `(transition, RwrConfig, score variant)`; rebuild the graph or retune
//! the solver → drop the cache.** As defense in depth, lookups whose stored
//! row length disagrees with the caller's expected node count miss instead
//! of returning a stale-shaped row.
//!
//! One budget and one LRU order matter for skewed traffic: a hot set that
//! fits the budget stays resident whichever nodes it holds, and a row is
//! refused only when it alone exceeds the whole budget. The lock is held
//! for a map probe or an insert, never for a solve, and evicted rows are
//! freed after it is released.
//!
//! The table's entries are either a resident row or an in-flight solve
//! (single-flight): probing a node and, on a miss, claiming or joining its
//! solve is one lock acquisition, and publishing the solved row is one
//! more. Eviction, [`RwrRowCache::len`] and [`RwrRowCache::bytes`] see
//! resident rows only.
//!
//! [`scores_with_cache`] is the one assembly loop every cached caller uses
//! (serving Step 1 and cache warming alike): claim every query, hand this
//! request's led misses to the cache's one drain routine (through the
//! [coalescing window](crate::coalesce) the cache was built with), collect
//! every miss through its in-flight slot, and stitch the
//! [`ScoreMatrix`] together in the caller's query order. Rows are
//! `Arc`-shared between the cache and in-flight results, so eviction never
//! copies or invalidates a row a reader still holds.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use ceps_graph::NodeId;

use crate::backend::ScoreBackend;
use crate::coalesce::{CoalesceStats, Window, MAX_BATCH};
use crate::{Result, RwrError, ScoreMatrix};

/// Fixed per-row bookkeeping charge (map entry, `Arc` header, tick) added to
/// the `8 × len` payload when budgeting.
const ROW_OVERHEAD_BYTES: usize = 64;

#[derive(Debug)]
struct CachedRow {
    row: Arc<Vec<f64>>,
    /// Last-touch tick from the table's logical clock; smallest = LRU.
    tick: u64,
}

/// One table entry.
#[derive(Debug)]
enum Entry {
    /// A row charged against the budget.
    Resident(CachedRow),
    /// A solve in flight (or left behind by a failed lead, which the next
    /// claim replaces). Never evicted, never charged.
    Pending(Arc<FlightSlot>),
}

#[derive(Debug, Default)]
struct Table {
    entries: HashMap<u32, Entry>,
    /// Bytes charged by the resident rows.
    bytes: usize,
    /// Logical clock: advanced by every probe and insert.
    clock: u64,
    stats: CacheStats,
}

impl Table {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The resident row for `key`, with its LRU tick refreshed, when its
    /// length is `expected_len`; counts the probe as a hit or a miss.
    fn hit(&mut self, key: u32, expected_len: usize) -> Option<Arc<Vec<f64>>> {
        let tick = self.tick();
        let row = match self.entries.get_mut(&key) {
            Some(Entry::Resident(entry)) if entry.row.len() == expected_len => {
                entry.tick = tick;
                Some(Arc::clone(&entry.row))
            }
            _ => None,
        };
        match row {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        row
    }

    /// Removes `key`'s entry, uncharging it when it was a resident row.
    fn take(&mut self, key: u32) -> Option<Entry> {
        let old = self.entries.remove(&key);
        if let Some(Entry::Resident(dead)) = &old {
            self.bytes -= row_cost_bytes(dead.row.len());
        }
        old
    }

    /// Removes the least recently touched resident row, if any.
    fn evict_lru(&mut self) -> Option<Entry> {
        let victim = self
            .entries
            .iter()
            .filter_map(|(&k, e)| match e {
                Entry::Resident(r) => Some((k, r.tick)),
                Entry::Pending(_) => None,
            })
            .min_by_key(|&(_, tick)| tick)
            .map(|(k, _)| k)?;
        self.take(victim)
    }
}

/// Mirrors one probe's outcome into the metrics registry.
fn record_probe(hit: bool) {
    let name = if hit {
        "rwr.cache.hits"
    } else {
        "rwr.cache.misses"
    };
    ceps_obs::counter(name, 1);
}

/// Bytes one cached row of `len` scores is charged against the budget —
/// payload plus fixed bookkeeping overhead. Public so warming policies can
/// convert a byte budget into a row count without guessing.
pub fn row_cost_bytes(len: usize) -> usize {
    len * std::mem::size_of::<f64>() + ROW_OVERHEAD_BYTES
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

    /// Moves a pending slot to `to` (`Done` or `Failed`) and wakes its
    /// waiters; a no-op once the slot is resolved.
    fn resolve(&self, to: FlightState) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, FlightState::Pending) {
            *state = to;
            self.cv.notify_all();
        }
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
/// [`RwrRowCache::claim`]. The holder **must** eventually call
/// [`FlightLead::publish`]; dropping it unpublished marks the flight failed
/// so waiters fall back to their own solve instead of hanging (the
/// panic-safety path).
#[derive(Debug)]
pub(crate) struct FlightLead {
    node: NodeId,
    slot: Arc<FlightSlot>,
}

impl FlightLead {
    /// Wakes every waiter with the shared `Arc` and stores the row in
    /// `cache`, which retires the in-flight entry.
    pub(crate) fn publish(self, cache: &RwrRowCache, row: Arc<Vec<f64>>) {
        self.slot.resolve(FlightState::Done(Arc::clone(&row)));
        cache.insert(self.node, row);
    }
}

impl Drop for FlightLead {
    fn drop(&mut self) {
        // A no-op after `publish`. Unpublished, the flight fails; with no
        // cache handle here the dead entry stays behind until the next
        // claim or insert for the node replaces it.
        self.slot.resolve(FlightState::Failed);
    }
}

/// Outcome of [`RwrRowCache::claim`].
#[derive(Debug)]
pub(crate) enum Claim {
    /// The row was resident.
    Hit(Arc<Vec<f64>>),
    /// This request owns the solve for the node.
    Lead(FlightLead),
    /// Another request is already solving it; block on the slot.
    Wait(Arc<FlightSlot>),
}

/// Counters describing cache behaviour since construction.
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
    /// Rows refused because they exceed the whole byte budget on their own
    /// (every row, under a zero budget). A refused row is still returned to
    /// the request that solved it; it just never becomes resident.
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

/// Bytes-budgeted, LRU-evicting store of RWR rows keyed by query
/// [`NodeId`], with single-flight and a miss-coalescing window.
///
/// Cheap to share: wrap in `Arc` and clone the handle across workers. All
/// methods take `&self`; one `Mutex` guards the table and its counters.
#[derive(Debug)]
pub struct RwrRowCache {
    table: Mutex<Table>,
    /// Byte ceiling for the resident rows.
    budget: usize,
    /// The coalescing window every led miss drains through.
    pub(crate) window: Window,
}

impl RwrRowCache {
    /// Creates a cache with `byte_budget` total capacity and the coalescing
    /// window off. A zero budget is legal and caches nothing.
    pub fn new(byte_budget: usize) -> Self {
        RwrRowCache {
            table: Mutex::new(Table::default()),
            budget: byte_budget,
            window: Window::new(0, MAX_BATCH),
        }
    }

    /// Sets the miss-coalescing window (see [`crate::coalesce`]): the
    /// first request with misses holds the window open for up to
    /// `window_us` microseconds so concurrent requests' misses join one
    /// batched solve. `0` turns the window off: every request solves its
    /// own misses at once (single-flight still applies).
    pub fn with_coalesce_us(mut self, window_us: u64) -> Self {
        self.window = Window::new(window_us, MAX_BATCH);
        self
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("row-cache table poisoned by a panicking holder")
    }

    /// Probes `node` and, on a miss, claims or joins its solve under one
    /// lock acquisition: a resident row of length `expected_len` is a
    /// [`Claim::Hit`]; a live in-flight entry is a [`Claim::Wait`];
    /// anything else (absent, stale-shaped, or left by a failed lead) is
    /// replaced by a fresh in-flight entry this request leads.
    pub(crate) fn claim(&self, node: NodeId, expected_len: usize) -> Claim {
        let mut guard = self.table();
        let table = &mut *guard;
        let mut stale = None;
        let claim = if let Some(row) = table.hit(node.0, expected_len) {
            Claim::Hit(row)
        } else {
            match table.entries.get(&node.0) {
                Some(Entry::Pending(slot)) if !slot.is_failed() => Claim::Wait(Arc::clone(slot)),
                _ => {
                    stale = table.take(node.0);
                    let slot = Arc::new(FlightSlot::new());
                    table
                        .entries
                        .insert(node.0, Entry::Pending(Arc::clone(&slot)));
                    Claim::Lead(FlightLead { node, slot })
                }
            }
        };
        drop(guard);
        drop(stale);
        record_probe(matches!(claim, Claim::Hit(_)));
        claim
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
        self.table().stats.singleflight_waits += 1;
        ceps_obs::counter("serve.singleflight_total", 1);
        ceps_obs::record(
            "serve.singleflight_wait_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        out
    }

    /// The one drain routine behind every led miss: hands `leads` to the
    /// coalescing window and, when that leaves this thread holding a batch,
    /// solves it once and publishes every row. A failed solve drops the
    /// batch, which fails each flight in it; every request waiting on one
    /// then solves its own nodes and reports the error itself.
    fn drain(&self, backend: &dyn ScoreBackend, leads: Vec<FlightLead>) {
        let Some(batch) = self.window.gather(leads) else {
            return;
        };
        let nodes: Vec<NodeId> = batch.iter().map(|lead| lead.node).collect();
        if let Ok(solved) = backend.scores(&nodes) {
            for (i, lead) in batch.into_iter().enumerate() {
                lead.publish(self, Arc::new(solved.row(i).to_vec()));
            }
        }
    }

    /// Looks up the row for `node`, refreshing its LRU tick on hit.
    ///
    /// A stored row whose length differs from `expected_len` (a cache handle
    /// that outlived its graph) is treated as a miss, not returned; so is a
    /// solve still in flight.
    pub fn get(&self, node: NodeId, expected_len: usize) -> Option<Arc<Vec<f64>>> {
        let hit = self.table().hit(node.0, expected_len);
        record_probe(hit.is_some());
        hit
    }

    /// Inserts (or refreshes) the row for `node`, evicting least-recently
    /// used rows until the table fits its budget. A solve in flight for
    /// `node` is resolved with this row, so its waiters receive it whatever
    /// the store does with it.
    ///
    /// A row that alone exceeds the whole budget is rejected outright —
    /// admitting it would evict every row and still not fit — and leaves
    /// no entry for `node` behind.
    pub fn insert(&self, node: NodeId, row: Arc<Vec<f64>>) {
        let incoming = row_cost_bytes(row.len());
        let fits = incoming <= self.budget;
        let mut guard = self.table();
        let table = &mut *guard;
        let old = table.take(node.0);
        if let Some(Entry::Pending(slot)) = &old {
            slot.resolve(FlightState::Done(Arc::clone(&row)));
        }
        let mut evicted = Vec::new();
        if fits {
            while table.bytes + incoming > self.budget {
                let Some(victim) = table.evict_lru() else {
                    break;
                };
                evicted.push(victim);
            }
            let tick = table.tick();
            table.bytes += incoming;
            table
                .entries
                .insert(node.0, Entry::Resident(CachedRow { row, tick }));
            table.stats.insertions += 1;
            table.stats.evictions += evicted.len() as u64;
        } else {
            table.stats.rejected += 1;
        }
        drop(guard);
        // The replaced and evicted rows are freed outside the lock.
        let evicted_rows = evicted.len() as u64;
        drop((old, evicted));
        if !fits {
            ceps_obs::counter("rwr.cache.rejected", 1);
            return;
        }
        ceps_obs::counter("rwr.cache.insertions", 1);
        if evicted_rows > 0 {
            ceps_obs::counter("rwr.cache.evictions", evicted_rows);
        }
    }

    /// Number of rows currently resident.
    pub fn len(&self) -> usize {
        self.table()
            .entries
            .values()
            .filter(|e| matches!(e, Entry::Resident(_)))
            .count()
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged by the resident rows.
    pub fn bytes(&self) -> usize {
        self.table().bytes
    }

    /// Total byte budget.
    pub fn byte_budget(&self) -> usize {
        self.budget
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.table().stats
    }

    /// Snapshot of the coalescing-window counters (zeros while the window
    /// is off).
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.window.stats()
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
/// The one miss-resolution path behind every cached caller: one claim per
/// distinct query (hit, lead or join) → the cache's drain routine solves
/// this request's led misses in one batched backend call (widened, when the
/// cache's coalescing window is open, by leads from concurrent requests) →
/// collect every miss through its in-flight slot → direct-solve fallback
/// for failed flights.
///
/// The returned matrix is row-for-row bitwise identical to
/// `backend.scores(queries)` run cold: hits, single-flight handoffs and
/// coalesced rows are all produced by the same batch-independent backend,
/// and the fallback path is the plain solve. Duplicate query nodes are
/// solved once and the row is reused. Hit/miss accounting is claim-based
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
) -> Result<(ScoreMatrix, CacheLookups)> {
    if queries.is_empty() {
        return Err(RwrError::NoQueries);
    }
    let _span = ceps_obs::span("rwr.scores_with_cache");
    let n = backend.node_count();

    // Claim every distinct query once, in first-seen order. Leads are ours
    // to solve; every miss, led or joined, is collected through its slot.
    let mut resolved: HashMap<u32, Arc<Vec<f64>>> = HashMap::with_capacity(queries.len());
    let mut leads: Vec<FlightLead> = Vec::new();
    let mut waits: Vec<(NodeId, Arc<FlightSlot>)> = Vec::new();
    for &q in queries {
        if resolved.contains_key(&q.0) || waits.iter().any(|(w, _)| *w == q) {
            continue;
        }
        match cache.claim(q, n) {
            Claim::Hit(row) => {
                resolved.insert(q.0, row);
            }
            Claim::Lead(lead) => {
                waits.push((q, Arc::clone(&lead.slot)));
                leads.push(lead);
            }
            Claim::Wait(slot) => waits.push((q, slot)),
        }
    }

    let lookups = CacheLookups {
        hits: resolved.len() as u64,
        misses: waits.len() as u64,
    };

    // Publish before blocking: every lead of this request goes to the drain
    // routine (solved here, or pooled for a window leader that solves it)
    // before the request waits on any flight — waiting first could
    // deadlock two requests leading each other's nodes.
    if !leads.is_empty() {
        cache.drain(backend, leads);
    }

    // Failed flights fall back to one direct solve.
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
        // Room for exactly two 4-element rows.
        let cache = RwrRowCache::new(2 * row_cost_bytes(4));
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
        let cache = RwrRowCache::new(row_cost_bytes(4));
        cache.insert(NodeId(0), Arc::new(vec![0.0; 64]));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected, 1);
        // A zero-budget cache degrades to pass-through the same way.
        let none = RwrRowCache::new(0);
        none.insert(NodeId(0), Arc::new(vec![0.0; 1]));
        assert!(none.is_empty());
    }

    #[test]
    fn hot_nodes_sharing_a_residue_stay_resident_under_one_budget() {
        // Eight nodes that agree mod 16, in a budget that pays for 32 rows:
        // the whole set stays resident and the second pass is all hits.
        let be = backend(128);
        let cache = RwrRowCache::new(32 * row_cost_bytes(128));
        let hot: Vec<NodeId> = (0..8).map(|i| NodeId(16 * i)).collect();
        let (_, first) = scores_with_cache(&be, &cache, &hot).unwrap();
        assert_eq!(first, CacheLookups { hits: 0, misses: 8 });
        let (m, second) = scores_with_cache(&be, &cache, &hot).unwrap();
        assert_eq!(m, be.scores(&hot).unwrap());
        assert_eq!(second, CacheLookups { hits: 8, misses: 0 });
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn a_row_within_the_whole_budget_is_kept() {
        // One row that uses most of the budget: refused only when it
        // exceeds the whole budget, not a fraction of it.
        let cache = RwrRowCache::new(row_cost_bytes(64));
        cache.insert(NodeId(5), Arc::new(vec![0.5; 64]));
        assert_eq!(cache.stats().rejected, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), cache.byte_budget());
        assert!(cache.get(NodeId(5), 64).is_some());
    }

    #[test]
    fn cached_scores_are_bitwise_equal_to_cold() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let warm = [NodeId(0), NodeId(4), NodeId(8)];
        let (first, _) = scores_with_cache(&be, &cache, &warm).unwrap();
        assert_eq!(first, be.scores(&warm).unwrap());

        // Overlapping second batch: 0 and 8 hit, 2 misses cold.
        let mixed = [NodeId(8), NodeId(2), NodeId(0)];
        let (second, _) = scores_with_cache(&be, &cache, &mixed).unwrap();
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
        let (m, _) = scores_with_cache(&be, &cache, &queries).unwrap();
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
        let cache = RwrRowCache::new(row_cost_bytes(16));
        for round in 0..4u32 {
            let queries = [NodeId(round), NodeId((round + 5) % 16)];
            let (m, _) = scores_with_cache(&be, &cache, &queries).unwrap();
            assert_eq!(m, be.scores(&queries).unwrap());
        }
        assert!(cache.stats().evictions > 0, "budget was supposed to thrash");
        assert!(cache.bytes() <= cache.byte_budget());
    }

    #[test]
    fn lookups_report_this_calls_probes_only() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let (_, first) = scores_with_cache(&be, &cache, &[NodeId(0), NodeId(4)]).unwrap();
        assert_eq!(first, CacheLookups { hits: 0, misses: 2 });
        // Second request: one warm node, one cold, one duplicate (counted
        // once) — the local tally ignores the first call's traffic.
        let (m, second) =
            scores_with_cache(&be, &cache, &[NodeId(4), NodeId(7), NodeId(4)]).unwrap();
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
            scores_with_cache(&be, &cache, &[]),
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
                    let (m, _) = scores_with_cache(be, cache, &[NodeId(5)]).unwrap();
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
        let cache = RwrRowCache::new(0);
        let expect = be.scores(&[NodeId(3)]).unwrap();
        let Claim::Lead(lead) = cache.claim(NodeId(3), 16) else {
            panic!("first claim must lead");
        };
        std::thread::scope(|s| {
            let (be, cache, expect) = (&be, &cache, &expect);
            let waiter = s.spawn(move || {
                let (m, l) = scores_with_cache(be, cache, &[NodeId(3)]).unwrap();
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
        let Claim::Lead(lead) = cache.claim(NodeId(2), 8) else {
            panic!("first claim must lead");
        };
        std::thread::scope(|s| {
            let (be, cache, expect) = (&be, &cache, &expect);
            let waiter = s.spawn(move || {
                let (m, _) = scores_with_cache(be, cache, &[NodeId(2)]).unwrap();
                assert_eq!(&m, expect, "fallback solve matches");
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            drop(lead); // unpublished → flight fails → waiter self-solves
            waiter.join().unwrap();
        });
        assert_eq!(cache.stats().insertions, 1, "fallback inserted the row");
        // The dead flight entry is replaced (here by the fallback's insert),
        // not waited on, by later claims.
        assert!(matches!(cache.claim(NodeId(2), 8), Claim::Hit(_)));
    }

    #[test]
    fn stale_row_replaced_through_a_claim_keeps_bytes_exact() {
        let be = backend(8);
        let cache = RwrRowCache::new(1 << 20);
        cache.insert(NodeId(1), Arc::new(vec![0.0; 3])); // stale shape
        cache.insert(NodeId(6), Arc::new(vec![0.0; 8]));
        let Claim::Lead(lead) = cache.claim(NodeId(1), 8) else {
            panic!("a stale-shaped row must not hit");
        };
        // The stale row is gone and the pending entry charges nothing.
        assert_eq!((cache.len(), cache.bytes()), (1, row_cost_bytes(8)));
        lead.publish(
            &cache,
            Arc::new(be.scores(&[NodeId(1)]).unwrap().row(0).to_vec()),
        );
        assert_eq!((cache.len(), cache.bytes()), (2, 2 * row_cost_bytes(8)));
        let (m, l) = scores_with_cache(&be, &cache, &[NodeId(1)]).unwrap();
        assert_eq!(m, be.scores(&[NodeId(1)]).unwrap());
        assert_eq!(l, CacheLookups { hits: 1, misses: 0 });
    }

    #[test]
    fn pending_and_failed_entries_are_never_evicted_or_counted() {
        // Room for exactly one 4-element row.
        let cache = RwrRowCache::new(row_cost_bytes(4));
        let Claim::Lead(pending) = cache.claim(NodeId(1), 4) else {
            panic!("first claim must lead");
        };
        let Claim::Lead(failed) = cache.claim(NodeId(2), 4) else {
            panic!("first claim must lead");
        };
        drop(failed);
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
        // Overfilling the budget evicts resident rows only.
        cache.insert(NodeId(3), Arc::new(vec![3.0; 4]));
        cache.insert(NodeId(4), Arc::new(vec![4.0; 4]));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!((cache.len(), cache.bytes()), (1, row_cost_bytes(4)));
        // Both in-flight entries survived: the live one still makes
        // claims wait, the failed one is replaced by a new lead.
        assert!(matches!(cache.claim(NodeId(1), 4), Claim::Wait(_)));
        assert!(matches!(cache.claim(NodeId(2), 4), Claim::Lead(_)));
        pending.publish(&cache, Arc::new(vec![1.0; 4]));
        assert_eq!((cache.len(), cache.bytes()), (1, row_cost_bytes(4)));
        assert!(cache.get(NodeId(1), 4).is_some());
    }

    #[test]
    fn insert_over_a_pending_entry_delivers_to_its_waiters() {
        let be = backend(12);
        let cache = RwrRowCache::new(1 << 20);
        let expect = be.scores(&[NodeId(4)]).unwrap();
        let Claim::Lead(lead) = cache.claim(NodeId(4), 12) else {
            panic!("first claim must lead");
        };
        std::thread::scope(|s| {
            let (be, cache, expect) = (&be, &cache, &expect);
            let waiter = s.spawn(move || {
                let (m, l) = scores_with_cache(be, cache, &[NodeId(4)]).unwrap();
                assert_eq!(&m, expect);
                assert_eq!(l, CacheLookups { hits: 0, misses: 1 });
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            // Not the lead's publish: a plain insert of the same row. The
            // lead then drops unpublished, which would fail the waiter over
            // to its own solve had the insert not resolved the flight.
            cache.insert(NodeId(4), Arc::new(expect.row(0).to_vec()));
            drop(lead);
            waiter.join().unwrap();
        });
        let st = cache.stats();
        assert_eq!(st.insertions, 1, "the waiter did not re-solve");
        assert_eq!(st.singleflight_waits, 1, "the waiter genuinely blocked");
        assert!(matches!(cache.claim(NodeId(4), 12), Claim::Hit(_)));
        assert_eq!((cache.len(), cache.bytes()), (1, row_cost_bytes(12)));
    }
}
