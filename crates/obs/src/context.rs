//! Trace context propagation: the identity a request carries across
//! threads and process boundaries.
//!
//! A [`TraceContext`] is three fields — a 64-bit `trace_id`, the span id
//! of the caller (`parent_span`), and a `sampled` flag — mirroring the
//! W3C trace-context model at the scale this workspace needs. Ids are
//! generated with splitmix64 over a process-global counter seeded from
//! the wall clock, rendered as fixed-width lowercase hex (16 chars) in
//! every JSON artifact: `Value` numbers are f64, so a raw `u64` would
//! silently lose precision past 2^53.
//!
//! The *current* context is a thread-local `Cell<Option<TraceContext>>`;
//! reading it is one TLS access and a copy. Scope a context with
//! [`with_trace`] (RAII guard restoring the previous value) so nested
//! adoption — server worker adopting an inbound wire context around a
//! service call — composes without leaks. The existing RAII spans and
//! the `ceps-trace/v1` tracer read [`current_trace`] automatically; no
//! signatures changed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The identity one request carries end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Shared by every span/line/event of one request, across processes.
    pub trace_id: u64,
    /// Span id of the caller (0 at the root).
    pub parent_span: u64,
    /// Whether downstream stages should emit detailed telemetry.
    pub sampled: bool,
}

/// splitmix64 step: advances `state` and returns the next u64 — the
/// workspace's one cheap seeded mixer (trace ids, head sampling, load
/// schedules, synthetic query streams). Small, fast, and passes BigCrush
/// when used as a stream.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-global id source. Seeded lazily from the wall clock xor the
/// process id so two processes sharing a JSONL stream do not collide.
static ID_STATE: AtomicU64 = AtomicU64::new(0);

/// Draws a fresh non-zero 64-bit id (0 is reserved for "absent").
pub fn fresh_id() -> u64 {
    let mut cur = ID_STATE.load(Ordering::Relaxed);
    if cur == 0 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5eed, |d| d.as_nanos() as u64);
        let seed = nanos ^ (u64::from(std::process::id()) << 32) | 1;
        // First writer wins; losers adopt the winner's stream.
        let _ = ID_STATE.compare_exchange(0, seed, Ordering::Relaxed, Ordering::Relaxed);
        cur = ID_STATE.load(Ordering::Relaxed);
    }
    loop {
        let mut next = cur;
        let id = splitmix64(&mut next);
        match ID_STATE.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) if id != 0 => return id,
            Ok(_) => cur = next,
            Err(now) => cur = now,
        }
    }
}

impl TraceContext {
    /// Starts a new trace (fresh `trace_id`, no parent).
    pub fn new_root() -> TraceContext {
        TraceContext {
            trace_id: fresh_id(),
            parent_span: 0,
            sampled: true,
        }
    }

    /// A child context: same trace, this context's fresh span id becomes
    /// the parent of downstream work.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: fresh_id(),
            sampled: self.sampled,
        }
    }

    /// The `trace_id` as fixed-width lowercase hex.
    pub fn trace_id_hex(&self) -> String {
        id_hex(self.trace_id)
    }
}

/// Fixed-width (16-char) lowercase hex for a 64-bit id.
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a hex id as produced by [`id_hex`] (leading zeros optional).
pub fn parse_id_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context active on this thread, if any.
#[inline]
pub fn current_trace() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Replaces the thread's current context, returning the previous one.
/// Prefer [`with_trace`] unless the scope genuinely outlives a guard.
pub fn set_current_trace(ctx: Option<TraceContext>) -> Option<TraceContext> {
    CURRENT.with(|cur| cur.replace(ctx))
}

/// RAII scope for a trace context: restores the previous context on drop.
#[must_use = "the context is active only while the guard is alive"]
pub struct TraceGuard {
    prev: Option<TraceContext>,
}

/// Makes `ctx` the thread's current context for the guard's lifetime.
pub fn with_trace(ctx: TraceContext) -> TraceGuard {
    TraceGuard {
        prev: set_current_trace(Some(ctx)),
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        set_current_trace(self.prev.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn hex_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX, fresh_id()] {
            let hex = id_hex(id);
            assert_eq!(hex.len(), 16);
            assert_eq!(parse_id_hex(&hex), Some(id));
        }
        assert_eq!(parse_id_hex("dead"), Some(0xdead));
        assert_eq!(parse_id_hex(""), None);
        assert_eq!(parse_id_hex("not hex!"), None);
        assert_eq!(parse_id_hex("00112233445566778899"), None);
    }

    #[test]
    fn guard_scopes_nest_and_restore() {
        assert_eq!(current_trace(), None);
        let outer = TraceContext::new_root();
        {
            let _g = with_trace(outer);
            assert_eq!(current_trace(), Some(outer));
            let inner = outer.child();
            assert_eq!(inner.trace_id, outer.trace_id);
            assert_ne!(inner.parent_span, outer.parent_span);
            {
                let _g2 = with_trace(inner);
                assert_eq!(current_trace(), Some(inner));
            }
            assert_eq!(current_trace(), Some(outer));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn contexts_survive_manual_handoff() {
        let ctx = TraceContext::new_root();
        let prev = set_current_trace(Some(ctx));
        assert_eq!(current_trace(), Some(ctx));
        set_current_trace(prev);
        assert_eq!(current_trace(), None);
    }
}
