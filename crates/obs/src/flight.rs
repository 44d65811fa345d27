//! The flight recorder: a black-box ring of recent events, dumpable
//! after the fact (`ceps-flight/v1` JSONL) — on demand over the wire, on
//! panic, or when a server drains.
//!
//! ## Design
//!
//! Each thread owns a fixed-size ring (`ThreadRing`) of atomic slots;
//! the write cursor is a relaxed atomic bumped only by the owning
//! thread, so the hot path takes **no lock**: one enabled-flag load,
//! one thread-local access, a handful of relaxed stores. Readers
//! (dumpers) run concurrently on other threads; each slot carries a
//! seqlock-style generation counter (odd while mid-write, bumped with
//! `Release`) so a dump skips slots it raced with instead of emitting
//! torn events. Everything is `core::sync::atomic` — the crate forbids
//! `unsafe`.
//!
//! Event names (span paths, marker labels) are interned into a global
//! table once per distinct name per thread (a thread-local cache makes
//! the steady state lock-free too); slots store the 32-bit name index.
//!
//! Like the metrics recorder, the recorder is off by default and the
//! disabled path is one relaxed load plus a branch. Span enter/exit
//! events additionally require the metrics recorder to be installed
//! (spans never construct their paths otherwise).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::context::{current_trace, id_hex};
use crate::snapshot::json_str;

/// Schema identifier stamped on every dumped line.
pub const FLIGHT_SCHEMA: &str = "ceps-flight/v1";

/// Default events retained per thread.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Global on/off gate; the only cost when off is one relaxed load.
static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);

/// What a recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (`name` is its full `/`-joined path).
    SpanEnter,
    /// A span closed; `value` is its wall time in nanoseconds.
    SpanExit,
    /// A request or connection failed; `name` labels the site.
    Error,
    /// Admission control shed a request (overload).
    Shed,
    /// A request exceeded the slow-mark threshold; `value` is ns.
    SlowRequest,
    /// A free-form marker.
    Mark,
}

impl FlightKind {
    /// Stable lowercase tag used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanEnter => "span_enter",
            FlightKind::SpanExit => "span_exit",
            FlightKind::Error => "error",
            FlightKind::Shed => "shed",
            FlightKind::SlowRequest => "slow_request",
            FlightKind::Mark => "mark",
        }
    }

    fn from_code(code: u64) -> FlightKind {
        match code {
            0 => FlightKind::SpanEnter,
            1 => FlightKind::SpanExit,
            2 => FlightKind::Error,
            3 => FlightKind::Shed,
            4 => FlightKind::SlowRequest,
            _ => FlightKind::Mark,
        }
    }

    fn code(self) -> u64 {
        match self {
            FlightKind::SpanEnter => 0,
            FlightKind::SpanExit => 1,
            FlightKind::Error => 2,
            FlightKind::Shed => 3,
            FlightKind::SlowRequest => 4,
            FlightKind::Mark => 5,
        }
    }
}

/// One ring slot. A seqlock generation (`seq`) guards the payload: the
/// writer makes it odd, stores the fields, then makes it even with
/// `Release`; a reader that sees the generation change mid-read drops
/// the slot.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    t_us: AtomicU64,
    kind: AtomicU64,
    name: AtomicU32,
    trace_id: AtomicU64,
    value: AtomicU64,
}

/// One thread's ring. Only the owning thread writes; any thread reads.
struct ThreadRing {
    /// Small ordinal for dump labelling (not the OS thread id).
    thread: u64,
    /// Total events ever written; `cursor % slots.len()` is the next slot.
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new(thread: u64, capacity: usize) -> ThreadRing {
        ThreadRing {
            thread,
            cursor: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
        }
    }

    /// Records one event. Single-writer: called only by the owner.
    fn push(&self, kind: FlightKind, name: u32, trace_id: u64, value: u64) {
        let n = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let gen = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(gen | 1, Ordering::Relaxed);
        slot.t_us.store(now_us(), Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.name.store(name, Ordering::Relaxed);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store((gen | 1).wrapping_add(1), Ordering::Release);
        self.cursor.store(n + 1, Ordering::Relaxed);
    }

    /// Reads every consistent slot, oldest first.
    fn read(&self, out: &mut Vec<RawEvent>) {
        let end = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = end.saturating_sub(cap);
        for n in start..end {
            let slot = &self.slots[(n % cap) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                continue; // mid-write
            }
            let ev = RawEvent {
                thread: self.thread,
                seq: n,
                t_us: slot.t_us.load(Ordering::Relaxed),
                kind: FlightKind::from_code(slot.kind.load(Ordering::Relaxed)),
                name: slot.name.load(Ordering::Relaxed),
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                value: slot.value.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) == before {
                out.push(ev);
            }
        }
    }
}

/// A consistent copy of one slot.
struct RawEvent {
    thread: u64,
    seq: u64,
    t_us: u64,
    kind: FlightKind,
    name: u32,
    trace_id: u64,
    value: u64,
}

/// Process-wide recorder state: every thread ring plus the name table.
struct FlightState {
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    names: Mutex<NameTable>,
    capacity: AtomicUsize,
    next_thread: AtomicU64,
}

#[derive(Default)]
struct NameTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

fn state() -> &'static FlightState {
    static STATE: OnceLock<FlightState> = OnceLock::new();
    STATE.get_or_init(|| FlightState {
        rings: Mutex::new(Vec::new()),
        names: Mutex::new(NameTable::default()),
        capacity: AtomicUsize::new(DEFAULT_FLIGHT_CAPACITY),
        next_thread: AtomicU64::new(0),
    })
}

thread_local! {
    /// This thread's ring plus its private name-id cache.
    static LOCAL: RefCell<Option<(Arc<ThreadRing>, HashMap<String, u32>)>> =
        const { RefCell::new(None) };
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// True once the flight recorder is on (one relaxed load).
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on, retaining `capacity` recent events per thread
/// (0 keeps the current capacity). Rings already allocated keep their
/// size; new threads get the new capacity.
pub fn flight_enable(capacity: usize) {
    let st = state();
    if capacity > 0 {
        st.capacity.store(capacity, Ordering::Relaxed);
    }
    FLIGHT_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Already-recorded events stay dumpable.
pub fn flight_disable() {
    FLIGHT_ENABLED.store(false, Ordering::Relaxed);
}

/// Discards every recorded event (rings stay allocated). Test helper;
/// racing writers may land events after the reset returns.
pub fn flight_reset() {
    let rings = state().rings.lock().unwrap_or_else(PoisonError::into_inner);
    for ring in rings.iter() {
        for slot in &ring.slots {
            let gen = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(gen | 1, Ordering::Relaxed);
        }
        ring.cursor.store(0, Ordering::Relaxed);
        for slot in &ring.slots {
            let gen = slot.seq.load(Ordering::Relaxed);
            slot.seq.store((gen | 1).wrapping_add(1), Ordering::Release);
        }
    }
}

/// Records one event with an explicit trace id. No-op when disabled.
#[inline]
pub fn flight_event(kind: FlightKind, name: &str, trace_id: u64, value: u64) {
    if !flight_enabled() {
        return;
    }
    flight_event_slow(kind, name, trace_id, value);
}

/// Records one event, attributing it to the thread's current trace
/// context (if any). No-op when disabled.
#[inline]
pub fn flight_note(kind: FlightKind, name: &str, value: u64) {
    if !flight_enabled() {
        return;
    }
    let trace_id = current_trace().map_or(0, |c| c.trace_id);
    flight_event_slow(kind, name, trace_id, value);
}

#[cold]
fn flight_event_slow(kind: FlightKind, name: &str, trace_id: u64, value: u64) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (ring, cache) = local.get_or_insert_with(|| {
            let st = state();
            let ring = Arc::new(ThreadRing::new(
                st.next_thread.fetch_add(1, Ordering::Relaxed),
                st.capacity.load(Ordering::Relaxed),
            ));
            st.rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&ring));
            (ring, HashMap::new())
        });
        let id = match cache.get(name) {
            Some(&id) => id,
            None => {
                let mut table = state().names.lock().unwrap_or_else(PoisonError::into_inner);
                let id = match table.by_name.get(name) {
                    Some(&id) => id,
                    None => {
                        let id = table.names.len() as u32;
                        table.names.push(name.to_string());
                        table.by_name.insert(name.to_string(), id);
                        id
                    }
                };
                drop(table);
                cache.insert(name.to_string(), id);
                id
            }
        };
        ring.push(kind, id, trace_id, value);
    });
}

/// Dumps every retained event as `ceps-flight/v1` JSONL, oldest first
/// (ordered by timestamp across threads). Returns an empty string when
/// nothing was recorded.
pub fn flight_dump() -> String {
    let st = state();
    let rings: Vec<Arc<ThreadRing>> = st
        .rings
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let names: Vec<String> = {
        let table = st.names.lock().unwrap_or_else(PoisonError::into_inner);
        table.names.clone()
    };
    let mut events = Vec::new();
    for ring in &rings {
        ring.read(&mut events);
    }
    events.sort_by_key(|e| (e.t_us, e.thread, e.seq));
    let mut out = String::new();
    for e in &events {
        let name = names.get(e.name as usize).map_or("?", String::as_str);
        out.push_str(&format!(
            "{{\"schema\": \"{FLIGHT_SCHEMA}\", \"t_us\": {}, \"thread\": {}, \
             \"seq\": {}, \"kind\": \"{}\", \"name\": {}, \"trace_id\": {}, \
             \"value\": {}}}\n",
            e.t_us,
            e.thread,
            e.seq,
            e.kind.as_str(),
            json_str(name),
            if e.trace_id == 0 {
                "null".to_string()
            } else {
                format!("\"{}\"", id_hex(e.trace_id))
            },
            e.value,
        ));
    }
    out
}

/// Writes [`flight_dump`] to `path` (parent directories created).
///
/// # Errors
/// Filesystem errors.
pub fn flight_dump_to(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(flight_dump().as_bytes())?;
    file.flush()
}

/// Installs a panic hook that writes the flight dump to `path` before
/// delegating to the previous hook. Install once per process.
pub fn install_flight_panic_hook(path: std::path::PathBuf) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = flight_dump_to(&path);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{with_trace, TraceContext};

    /// Flight state is process-global; tests serialize on the same lock
    /// the registry tests use (flight events also come from spans).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::registry::test_lock()
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = lock();
        flight_disable();
        flight_reset();
        flight_note(FlightKind::Mark, "never", 1);
        assert_eq!(flight_dump(), "");
    }

    #[test]
    fn events_round_trip_with_trace_ids() {
        let _guard = lock();
        flight_enable(16);
        flight_reset();
        let ctx = TraceContext::new_root();
        {
            let _g = with_trace(ctx);
            flight_note(FlightKind::Shed, "net.shed", 0);
        }
        flight_note(FlightKind::Mark, "untraced", 7);
        flight_disable();
        let dump = flight_dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "{dump}");
        assert!(lines[0].contains("\"kind\": \"shed\""));
        assert!(lines[0].contains(&format!("\"trace_id\": \"{}\"", ctx.trace_id_hex())));
        assert!(lines[1].contains("\"trace_id\": null"));
        assert!(lines[1].contains("\"value\": 7"));
        flight_reset();
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let _guard = lock();
        flight_enable(0);
        flight_reset();
        // One small private ring, driven directly.
        let ring = ThreadRing::new(99, 4);
        for i in 0..10u64 {
            ring.push(FlightKind::Mark, 0, 0, i);
        }
        let mut events = Vec::new();
        ring.read(&mut events);
        flight_disable();
        assert_eq!(events.len(), 4);
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9], "oldest evicted first");
    }

    /// Decodes the JSON string literal at the start of `s` (opening quote
    /// included) — enough of a parser to read a dumped name back.
    fn decode_json_str(s: &str) -> String {
        let mut chars = s.strip_prefix('"').expect("a string literal").chars();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => return out,
                '\\' => match chars.next().expect("escape") {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).unwrap();
                        out.push(char::from_u32(code).unwrap());
                    }
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        panic!("unterminated string literal: {s}");
    }

    #[test]
    fn dump_lines_stay_single_line_json_even_with_hostile_names() {
        let _guard = lock();
        flight_enable(16);
        flight_reset();
        let hostile = "weird \"name\"\nwith\\breaks\tand \u{1} control";
        flight_event(FlightKind::Error, hostile, 42, 3);
        flight_disable();
        let dump = flight_dump();
        // Names are escaped as JSON strings, so every line is one
        // self-contained JSON object (the root test suite and CI parse
        // dumps with a real JSON parser) and the name survives intact.
        assert_eq!(dump.lines().count(), 1, "{dump}");
        let line = dump.lines().next().unwrap();
        assert!(line.starts_with(&format!("{{\"schema\": \"{FLIGHT_SCHEMA}\"")));
        assert!(line.ends_with('}'));
        assert!(line.contains("\"kind\": \"error\""));
        let name_at = line.find("\"name\": ").unwrap() + "\"name\": ".len();
        assert_eq!(decode_json_str(&line[name_at..]), hostile);
        flight_reset();
    }
}
