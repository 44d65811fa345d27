//! The `ceps-wire/v1` protocol: frame grammar and the request/reply
//! vocabulary.
//!
//! ## Frame grammar
//!
//! Every frame — in both directions — is *length-prefixed JSONL*:
//!
//! ```text
//! frame   := header payload "\n"
//! header  := 1*10DIGIT "\n"          ; decimal byte length of payload
//! payload := <one single-line JSON object, exactly `header` bytes>
//! ```
//!
//! The header lets a receiver enforce its maximum frame size *before*
//! buffering or parsing the payload; the trailing newline keeps the
//! stream greppable and makes desynchronization detectable. Payloads are
//! the externally-tagged [`Request`] / [`Reply`] enums, e.g.:
//!
//! ```text
//! 39
//! {"Query":{"id":7,"req":{"queries":[0,4]}}}
//! ```
//!
//! ## Trace propagation
//!
//! `Query` frames may carry an optional [`WireTrace`] — the client's
//! [`TraceContext`](ceps_obs::TraceContext) with ids rendered as 16-char
//! hex strings (frame JSON numbers are f64; a raw `u64` id would lose
//! precision past 2^53). A server adopts the inbound context for the
//! duration of the request, so server spans, histogram exemplars, and
//! `ceps-trace/v1` lines share the client's `trace_id`. The field is
//! `#[serde(default)]`: v1 peers that omit it interoperate unchanged.
//!
//! ## Error taxonomy
//!
//! Server-side failures travel as structured [`Reply::Error`] frames
//! carrying a [`WireError`] (`kind` + human message). The kinds:
//!
//! | kind           | meaning                                              |
//! |----------------|------------------------------------------------------|
//! | `BadRequest`   | the query failed validation (unknown node, dup, …)   |
//! | `TooLarge`     | the frame announced a payload past the server's cap  |
//! | `Overloaded`   | admission control shed the request (in-flight cap)   |
//! | `ShuttingDown` | the server is draining; retry against another server |
//! | `Malformed`    | the byte stream violated the frame grammar           |
//! | `Internal`     | anything else; the message has details               |
//!
//! `Malformed` and `TooLarge` leave the stream unsynchronizable, so the
//! server closes the connection after sending them (with request id 0 —
//! the id of a frame that never decoded is unknowable).

use std::io::{self, Read, Write};

use ceps_core::{ServeReply, ServeRequest};
use ceps_graph::NodeId;

use crate::error::NetError;
use crate::server::ServerStats;

/// Protocol identifier, reported by `Pong` and `Stats` replies.
pub const WIRE_VERSION: &str = "ceps-wire/v1";

/// Default maximum payload size (1 MiB) — generous for replies on
/// paper-scale graphs, small enough to bound per-connection memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Most digits a frame header may carry (10 digits ≤ 9.9 GB covers any
/// sane cap; longer headers are malformed, not merely large).
const MAX_HEADER_DIGITS: usize = 10;

/// Read chunk size when filling the frame buffer.
const READ_CHUNK: usize = 64 << 10;

/// A [`TraceContext`](ceps_obs::TraceContext) in wire form: ids travel
/// as 16-char lowercase hex strings so they survive the f64 JSON number
/// representation intact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireTrace {
    /// Hex-encoded `trace_id` shared by every hop of the request.
    #[serde(default)]
    pub trace_id: String,
    /// Hex-encoded span id of the sender (`""`/`"0"` at the root).
    #[serde(default)]
    pub parent_span: String,
    /// Whether downstream stages should emit detailed telemetry.
    #[serde(default)]
    pub sampled: bool,
}

impl WireTrace {
    /// Wire form of an in-process context.
    pub fn from_context(ctx: &ceps_obs::TraceContext) -> Self {
        WireTrace {
            trace_id: ceps_obs::id_hex(ctx.trace_id),
            parent_span: ceps_obs::id_hex(ctx.parent_span),
            sampled: ctx.sampled,
        }
    }

    /// Parses back into an in-process context; `None` when `trace_id` is
    /// absent, unparsable, or zero (0 is reserved for "no trace").
    pub fn to_context(&self) -> Option<ceps_obs::TraceContext> {
        let trace_id = ceps_obs::parse_id_hex(&self.trace_id).filter(|&id| id != 0)?;
        Some(ceps_obs::TraceContext {
            trace_id,
            parent_span: ceps_obs::parse_id_hex(&self.parent_span).unwrap_or(0),
            sampled: self.sampled,
        })
    }
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Run the CePS pipeline for one query set.
    Query {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// The shared in-process/wire request payload.
        req: ServeRequest,
        /// The caller's trace context, if it is propagating one.
        #[serde(default)]
        trace: Option<WireTrace>,
    },
    /// Infer the `K_softAND` coefficient for a query set.
    AutoK {
        /// Request id.
        id: u64,
        /// The query nodes.
        queries: Vec<NodeId>,
    },
    /// Liveness/version probe.
    Ping {
        /// Request id.
        id: u64,
    },
    /// Server counters snapshot.
    Stats {
        /// Request id.
        id: u64,
    },
    /// Ask the server to drain and exit its accept loop.
    Shutdown {
        /// Request id.
        id: u64,
    },
    /// Dump the server's flight-recorder ring as `ceps-flight/v1` JSONL
    /// (empty when the recorder is disabled).
    DumpFlight {
        /// Request id.
        id: u64,
    },
}

impl Request {
    /// The request id carried by any frame kind.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Query { id, .. }
            | Request::AutoK { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::DumpFlight { id } => id,
        }
    }
}

/// Server → client frames. Every reply echoes the request id it answers
/// (`Error` frames answering an undecodable frame use id 0).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Reply {
    /// The answer to a `Query` frame.
    Scores {
        /// Echoed request id.
        id: u64,
        /// The shared in-process/wire reply payload.
        reply: ServeReply,
    },
    /// The answer to an `AutoK` frame.
    AutoK {
        /// Echoed request id.
        id: u64,
        /// The inferred coefficient.
        k: usize,
        /// Mean held-out retrieval rank per candidate `k'`.
        mean_ranks: Vec<f64>,
    },
    /// The answer to a `Ping` frame.
    Pong {
        /// Echoed request id.
        id: u64,
        /// The protocol version ([`WIRE_VERSION`]).
        proto: String,
    },
    /// The answer to a `Stats` frame.
    Stats {
        /// Echoed request id.
        id: u64,
        /// Counter snapshot.
        stats: ServerStats,
    },
    /// Acknowledges a `Shutdown` frame; the connection closes after it.
    Bye {
        /// Echoed request id.
        id: u64,
    },
    /// The answer to a `DumpFlight` frame.
    Flight {
        /// Echoed request id.
        id: u64,
        /// `ceps-flight/v1` JSONL dump of the server's event ring (empty
        /// when the flight recorder is disabled).
        dump: String,
    },
    /// A structured failure reply.
    Error {
        /// Echoed request id (0 when the offending frame never decoded).
        id: u64,
        /// What went wrong.
        error: WireError,
    },
}

impl Reply {
    /// The request id this reply answers.
    pub fn id(&self) -> u64 {
        match *self {
            Reply::Scores { id, .. }
            | Reply::AutoK { id, .. }
            | Reply::Pong { id, .. }
            | Reply::Stats { id, .. }
            | Reply::Bye { id }
            | Reply::Flight { id, .. }
            | Reply::Error { id, .. } => id,
        }
    }
}

/// The error taxonomy of structured [`Reply::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WireErrorKind {
    /// The request failed validation (unknown node, duplicate query, …).
    BadRequest,
    /// The frame announced a payload past the receiver's size cap.
    TooLarge,
    /// Admission control shed the request (in-flight cap reached).
    Overloaded,
    /// The server is draining after a `Shutdown` frame.
    ShuttingDown,
    /// The byte stream violated the frame grammar.
    Malformed,
    /// Any other server-side failure.
    Internal,
}

/// A structured error reply payload.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// Machine-readable category.
    pub kind: WireErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error payload.
    pub fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

/// Encodes one value as a complete frame (header + payload + newline).
pub fn encode_frame<T: serde::Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let json = serde_json::to_string(value).expect("frame serialization is infallible");
    let mut out = Vec::with_capacity(json.len() + 16);
    out.extend_from_slice(json.len().to_string().as_bytes());
    out.push(b'\n');
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    out
}

/// Incremental frame decoder: feed arbitrary byte chunks in, take whole
/// payloads out. Tolerates frames split at any byte boundary.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameBuffer {
    /// An empty buffer enforcing `max_frame` payload bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Appends raw bytes received from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete payload, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    /// [`NetError::TooLarge`] when the header announces a payload past the
    /// cap; [`NetError::Malformed`] on any grammar violation. Both leave
    /// the stream beyond recovery — the caller should close it.
    pub fn next_frame(&mut self) -> Result<Option<String>, NetError> {
        let Some(nl) = self
            .buf
            .iter()
            .take(MAX_HEADER_DIGITS + 1)
            .position(|&b| b == b'\n')
        else {
            if self.buf.len() > MAX_HEADER_DIGITS {
                return Err(NetError::Malformed(format!(
                    "frame header exceeds {MAX_HEADER_DIGITS} digits"
                )));
            }
            return Ok(None);
        };
        let header = &self.buf[..nl];
        if header.is_empty() || !header.iter().all(u8::is_ascii_digit) {
            return Err(NetError::Malformed(format!(
                "frame header {:?} is not a decimal length",
                String::from_utf8_lossy(header)
            )));
        }
        let len: usize = std::str::from_utf8(header)
            .expect("ascii digits")
            .parse()
            .map_err(|_| NetError::Malformed("frame header overflows usize".into()))?;
        if len > self.max_frame {
            return Err(NetError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        // header + '\n' + payload + '\n'
        let total = nl + 1 + len + 1;
        if self.buf.len() < total {
            return Ok(None);
        }
        if self.buf[total - 1] != b'\n' {
            return Err(NetError::Malformed(
                "payload not terminated by a newline at the announced length".into(),
            ));
        }
        let payload = String::from_utf8(self.buf[nl + 1..total - 1].to_vec())
            .map_err(|e| NetError::Malformed(format!("payload is not UTF-8: {e}")))?;
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

/// A framed connection: a [`Read`]`+`[`Write`] stream plus an incremental
/// [`FrameBuffer`], giving typed `send`/`recv` over any transport.
#[derive(Debug)]
pub struct Framed<C> {
    conn: C,
    buf: FrameBuffer,
}

impl<C: Read + Write> Framed<C> {
    /// Wraps a connection, enforcing `max_frame` payload bytes on reads.
    pub fn new(conn: C, max_frame: usize) -> Self {
        Framed {
            conn,
            buf: FrameBuffer::new(max_frame),
        }
    }

    /// The wrapped connection.
    pub fn conn(&self) -> &C {
        &self.conn
    }

    /// Mutable access to the wrapped connection (timeout tuning).
    pub fn conn_mut(&mut self) -> &mut C {
        &mut self.conn
    }

    /// Serializes and writes one frame, flushing the stream.
    ///
    /// # Errors
    /// Transport write errors.
    pub fn send<T: serde::Serialize + ?Sized>(&mut self, value: &T) -> io::Result<()> {
        self.conn.write_all(&encode_frame(value))?;
        self.conn.flush()
    }

    /// Reads the next frame and deserializes it; `Ok(None)` on a clean
    /// end-of-stream at a frame boundary.
    ///
    /// # Errors
    /// [`NetError::Io`] on transport errors (including read timeouts —
    /// check [`NetError::is_timeout`]; buffered partial frames survive a
    /// timeout, so the caller can simply retry), [`NetError::TooLarge`] /
    /// [`NetError::Malformed`] on grammar violations,
    /// [`NetError::Protocol`] when the stream ends mid-frame or the JSON
    /// does not match `T`.
    pub fn recv<T: serde::Deserialize>(&mut self) -> Result<Option<T>, NetError> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if let Some(payload) = self.buf.next_frame()? {
                let value = serde_json::from_str(&payload).map_err(|e| {
                    NetError::Malformed(format!("payload does not parse: {e} in {payload:?}"))
                })?;
                return Ok(Some(value));
            }
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.pending() == 0 {
                        Ok(None)
                    } else {
                        Err(NetError::Protocol(format!(
                            "stream ended inside a frame ({} bytes pending)",
                            self.buf.pending()
                        )))
                    };
                }
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(json: &str) -> Vec<u8> {
        let mut out = json.len().to_string().into_bytes();
        out.push(b'\n');
        out.extend_from_slice(json.as_bytes());
        out.push(b'\n');
        out
    }

    #[test]
    fn request_and_reply_round_trip_every_variant() {
        let reqs = vec![
            Request::Query {
                id: 7,
                req: ServeRequest::new(vec![NodeId(0), NodeId(4)]),
                trace: None,
            },
            Request::Query {
                id: 12,
                req: ServeRequest::new(vec![NodeId(2)]),
                trace: Some(WireTrace {
                    trace_id: "00f1e2d3c4b5a697".into(),
                    parent_span: "0000000000000001".into(),
                    sampled: true,
                }),
            },
            Request::AutoK {
                id: 8,
                queries: vec![NodeId(1)],
            },
            Request::Ping { id: 9 },
            Request::Stats { id: 10 },
            Request::Shutdown { id: 11 },
            Request::DumpFlight { id: 13 },
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back);
            assert_eq!(req.id(), back.id());
        }

        let replies = vec![
            Reply::Pong {
                id: 1,
                proto: WIRE_VERSION.into(),
            },
            Reply::Bye { id: 2 },
            Reply::AutoK {
                id: 3,
                k: 2,
                mean_ranks: vec![1.5, 2.25],
            },
            Reply::Error {
                id: 4,
                error: WireError::new(WireErrorKind::Overloaded, "cap 4 reached"),
            },
            Reply::Flight {
                id: 5,
                dump: "{\"schema\": \"ceps-flight/v1\"}\n".into(),
            },
        ];
        for reply in replies {
            let json = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&json).unwrap();
            assert_eq!(reply, back);
        }
    }

    #[test]
    fn legacy_query_frames_without_trace_still_decode() {
        // A v1 peer that predates the trace field omits it entirely.
        let json = r#"{"Query":{"id":7,"req":{"queries":[0,4]}}}"#;
        let back: Request = serde_json::from_str(json).unwrap();
        match back {
            Request::Query { id, ref trace, .. } => {
                assert_eq!(id, 7);
                assert_eq!(*trace, None);
            }
            other => panic!("expected Query, got {other:?}"),
        }
    }

    #[test]
    fn legacy_stats_replies_without_rejected_still_decode() {
        // A v1 server that predates the rejection counter omits it.
        let json = r#"{"Stats":{"id":3,"stats":{"proto":"ceps-wire/v1",
            "connections":1,"frames":4,"queries":2,"sheds":0,"errors":0,
            "in_flight":0,"uptime_ms":10,
            "cache":{"hits":3,"misses":3,"evictions":0}}}}"#;
        let Reply::Stats { stats, .. } = serde_json::from_str(json).unwrap() else {
            panic!("expected Stats");
        };
        let cache = stats.cache.expect("cache counters present");
        assert_eq!((cache.hits, cache.misses, cache.rejected), (3, 3, 0));
        let rejected = crate::WireCacheStats {
            rejected: 2,
            ..cache
        };
        let back: crate::WireCacheStats =
            serde_json::from_str(&serde_json::to_string(&rejected).unwrap()).unwrap();
        assert_eq!(back, rejected);
    }

    #[test]
    fn wire_trace_round_trips_and_rejects_garbage() {
        let ctx = ceps_obs::TraceContext {
            trace_id: 0xdead_beef_0000_0001,
            parent_span: 0x42,
            sampled: true,
        };
        let wire = WireTrace::from_context(&ctx);
        assert_eq!(wire.trace_id.len(), 16);
        assert_eq!(wire.to_context(), Some(ctx));

        for bad in ["", "zzzz", "00000000000000000"] {
            let w = WireTrace {
                trace_id: bad.into(),
                parent_span: String::new(),
                sampled: false,
            };
            assert_eq!(w.to_context(), None, "{bad:?} must not parse");
        }
        // A zero id means "no trace", not a trace with id 0.
        let zero = WireTrace {
            trace_id: "0000000000000000".into(),
            parent_span: String::new(),
            sampled: true,
        };
        assert_eq!(zero.to_context(), None);
    }

    #[test]
    fn encode_frame_matches_grammar() {
        let req = Request::Ping { id: 3 };
        let bytes = encode_frame(&req);
        let text = String::from_utf8(bytes.clone()).unwrap();
        let (header, rest) = text.split_once('\n').unwrap();
        let payload = rest.strip_suffix('\n').unwrap();
        assert_eq!(header.parse::<usize>().unwrap(), payload.len());
        assert_eq!(payload, serde_json::to_string(&req).unwrap());
        assert!(!payload.contains('\n'), "payload is single-line JSON");
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let json = r#"{"Ping":{"id":42}}"#;
        let bytes = frame_bytes(json);
        let mut buf = FrameBuffer::new(1024);
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(buf.next_frame().unwrap(), None, "incomplete at byte {i}");
            buf.extend(std::slice::from_ref(b));
        }
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some(json));
        assert_eq!(buf.next_frame().unwrap(), None);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn frame_buffer_handles_back_to_back_frames() {
        let mut bytes = frame_bytes(r#"{"Ping":{"id":1}}"#);
        bytes.extend_from_slice(&frame_bytes(r#"{"Stats":{"id":2}}"#));
        let mut buf = FrameBuffer::new(1024);
        buf.extend(&bytes);
        assert!(buf.next_frame().unwrap().unwrap().contains("Ping"));
        assert!(buf.next_frame().unwrap().unwrap().contains("Stats"));
        assert_eq!(buf.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_and_malformed_headers_are_rejected() {
        let mut buf = FrameBuffer::new(16);
        buf.extend(&frame_bytes(&"x".repeat(64)));
        assert!(matches!(
            buf.next_frame(),
            Err(NetError::TooLarge { len: 64, max: 16 })
        ));

        let mut buf = FrameBuffer::new(16);
        buf.extend(b"abc\n{}\n");
        assert!(matches!(buf.next_frame(), Err(NetError::Malformed(_))));

        // A stream that never produces a newline within the header budget.
        let mut buf = FrameBuffer::new(16);
        buf.extend(b"123456789012345");
        assert!(matches!(buf.next_frame(), Err(NetError::Malformed(_))));

        // Payload shorter than announced (newline lands elsewhere).
        let mut buf = FrameBuffer::new(64);
        buf.extend(b"10\n{}\nextra....");
        assert!(matches!(buf.next_frame(), Err(NetError::Malformed(_))));
    }
}
