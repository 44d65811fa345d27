//! [`CepsClient`]: a thin synchronous `ceps-wire/v1` client.
//!
//! One client owns one connection. The simple path is the round-trip
//! API (`request`, `ping`, `stats`, `autok`, `shutdown`): send a frame,
//! block for its reply, check the echoed request id. For batch
//! workloads, [`send_request`](CepsClient::send_request) /
//! [`recv_reply`](CepsClient::recv_reply) expose the raw halves so
//! several requests can be pipelined onto the stream before the first
//! reply is read.
//!
//! ## Client-side tracing
//!
//! With [`with_tracing`](CepsClient::with_tracing) on, every `Query`
//! frame carries a fresh [`WireTrace`] context; the server adopts it, so
//! its spans, exemplars and trace lines share the client's `trace_id`.
//! The client remembers each in-flight request's id → (`trace_id`, send
//! time) and, when the matching reply lands, records the
//! client-observed round-trip. With a sink attached
//! ([`with_trace_sink`](CepsClient::with_trace_sink)) it also writes one
//! `ceps-trace/v1` line per reply tagged `"side": "client"` — merge it
//! with the server's trace JSONL and sort by `trace_id` to read the
//! full client→wire→stage breakdown per request.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use ceps_core::{ServeReply, ServeRequest};
use ceps_graph::NodeId;
use ceps_obs::{id_hex, json_f64, TraceContext};

use crate::error::NetError;
use crate::server::ServerStats;
use crate::transport::{Conn, ListenAddr};
use crate::wire::{Framed, Reply, Request, WireTrace, DEFAULT_MAX_FRAME_BYTES};
use crate::Result;

/// The reply to an `AutoK` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoKReply {
    /// The inferred `K_softAND` coefficient.
    pub k: usize,
    /// Mean held-out retrieval rank per candidate `k'`.
    pub mean_ranks: Vec<f64>,
}

/// A synchronous client for one `ceps-wire/v1` connection.
pub struct CepsClient {
    framed: Framed<Box<dyn Conn>>,
    next_id: u64,
    tracing: bool,
    /// In-flight request id → (trace_id, send time); only populated when
    /// tracing is on, so untraced clients pay nothing.
    pending: HashMap<u64, (u64, Instant)>,
    trace_out: Option<Box<dyn Write + Send>>,
    traces_written: u64,
}

impl CepsClient {
    /// Wraps an already-connected stream.
    pub fn from_conn(conn: Box<dyn Conn>) -> Self {
        CepsClient {
            framed: Framed::new(conn, DEFAULT_MAX_FRAME_BYTES),
            next_id: 1,
            tracing: false,
            pending: HashMap::new(),
            trace_out: None,
            traces_written: 0,
        }
    }

    /// Attaches a fresh trace context to every subsequent `Query` frame
    /// and tracks client-observed round-trip latency per request id.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Like [`with_tracing`](Self::with_tracing), additionally writing
    /// one `ceps-trace/v1` JSONL line (tagged `"side": "client"`) per
    /// completed request to `out`.
    #[must_use]
    pub fn with_trace_sink(mut self, out: Box<dyn Write + Send>) -> Self {
        self.tracing = true;
        self.trace_out = Some(out);
        self
    }

    /// Client trace lines successfully written so far.
    pub fn traces_written(&self) -> u64 {
        self.traces_written
    }

    /// The `trace_id` attached to in-flight request `id`, if tracing.
    pub fn trace_id_of(&self, id: u64) -> Option<u64> {
        self.pending.get(&id).map(|(tid, _)| *tid)
    }

    /// Connects to a parsed/parseable address (`tcp://…`, `unix://…`,
    /// `host:port`, or a socket path).
    ///
    /// # Errors
    /// Connect failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(Self::from_conn(ListenAddr::parse(addr).connect()?))
    }

    /// Connects over TCP.
    ///
    /// # Errors
    /// Connect failures.
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        Ok(Self::from_conn(
            ListenAddr::Tcp(addr.to_string()).connect()?,
        ))
    }

    /// Connects over a Unix domain socket.
    ///
    /// # Errors
    /// Connect failures.
    pub fn connect_unix(path: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        Ok(Self::from_conn(ListenAddr::Unix(path.into()).connect()?))
    }

    /// Sets (or clears) the read deadline for replies.
    ///
    /// # Errors
    /// Transport errors.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.framed.conn().set_read_timeout(timeout)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request without waiting for its reply (pipelining);
    /// returns the request id to match against
    /// [`recv_reply`](Self::recv_reply).
    ///
    /// # Errors
    /// Transport write errors.
    pub fn send_request(&mut self, req: &ServeRequest) -> io::Result<u64> {
        let id = self.fresh_id();
        let trace = self.tracing.then(|| {
            let ctx = TraceContext::new_root();
            self.pending.insert(id, (ctx.trace_id, Instant::now()));
            WireTrace::from_context(&ctx)
        });
        self.framed.send(&Request::Query {
            id,
            req: req.clone(),
            trace,
        })?;
        Ok(id)
    }

    /// Receives the next reply frame, whatever request it answers.
    ///
    /// # Errors
    /// Transport/decode errors; [`NetError::Protocol`] when the server
    /// closed the stream instead of replying.
    pub fn recv_reply(&mut self) -> Result<Reply> {
        match self.framed.recv::<Reply>()? {
            Some(reply) => {
                self.note_reply(&reply);
                Ok(reply)
            }
            None => Err(NetError::Protocol(
                "server closed the connection before replying".into(),
            )),
        }
    }

    /// Settles client-side bookkeeping for a reply to a traced request:
    /// records the round-trip in the `client.query_ms` histogram (under
    /// the request's own trace context, so exemplars point at it) and
    /// writes the client trace line when a sink is attached.
    fn note_reply(&mut self, reply: &Reply) {
        if self.pending.is_empty() {
            return;
        }
        let Some((trace_id, sent)) = self.pending.remove(&reply.id()) else {
            return;
        };
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        {
            let _guard = ceps_obs::with_trace(TraceContext {
                trace_id,
                parent_span: 0,
                sampled: true,
            });
            ceps_obs::record("client.query_ms", latency_ms);
        }
        if let Some(out) = &mut self.trace_out {
            let outcome = if matches!(reply, Reply::Error { .. }) {
                "error"
            } else {
                "ok"
            };
            let line = format!(
                "{{\"schema\": \"ceps-trace/v1\", \"side\": \"client\", \"request_id\": {}, \
                 \"latency_ms\": {}, \"outcome\": \"{}\", \"trace_id\": \"{}\"}}",
                reply.id(),
                json_f64(latency_ms),
                outcome,
                id_hex(trace_id),
            );
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_ok() {
                self.traces_written += 1;
            }
        }
    }

    /// Receives one reply and checks it answers `id`; unwraps remote
    /// errors into [`NetError::Remote`].
    fn expect_reply(&mut self, id: u64) -> Result<Reply> {
        let reply = self.recv_reply()?;
        // Grammar-violation errors are sent with id 0 before the server
        // hangs up — surface them as remote errors, not id mismatches.
        if let Reply::Error { error, .. } = reply {
            return Err(NetError::Remote(error));
        }
        if reply.id() != id {
            return Err(NetError::Protocol(format!(
                "reply id {} does not answer request id {id}",
                reply.id()
            )));
        }
        Ok(reply)
    }

    /// Runs one query set round-trip; the reply is byte-identical (same
    /// struct, same serialization) to the in-process
    /// [`CepsService::serve`](ceps_core::CepsService::serve) result.
    ///
    /// # Errors
    /// Transport failures, or [`NetError::Remote`] with the server's
    /// structured error (`BadRequest`, `Overloaded`, …).
    pub fn request(&mut self, req: &ServeRequest) -> Result<ServeReply> {
        let id = self.send_request(req)?;
        match self.expect_reply(id)? {
            Reply::Scores { reply, .. } => Ok(reply),
            other => Err(NetError::Protocol(format!(
                "expected Scores, got {other:?}"
            ))),
        }
    }

    /// Convenience wrapper over [`request`](Self::request) for a bare
    /// node list.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn query(&mut self, queries: impl Into<Vec<NodeId>>) -> Result<ServeReply> {
        self.request(&ServeRequest::new(queries))
    }

    /// Infers the `K_softAND` coefficient for a query set server-side.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn autok(&mut self, queries: impl Into<Vec<NodeId>>) -> Result<AutoKReply> {
        let id = self.fresh_id();
        self.framed.send(&Request::AutoK {
            id,
            queries: queries.into(),
        })?;
        match self.expect_reply(id)? {
            Reply::AutoK { k, mean_ranks, .. } => Ok(AutoKReply { k, mean_ranks }),
            other => Err(NetError::Protocol(format!("expected AutoK, got {other:?}"))),
        }
    }

    /// Liveness probe; returns the server's protocol version string.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn ping(&mut self) -> Result<String> {
        let id = self.fresh_id();
        self.framed.send(&Request::Ping { id })?;
        match self.expect_reply(id)? {
            Reply::Pong { proto, .. } => Ok(proto),
            other => Err(NetError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn stats(&mut self) -> Result<ServerStats> {
        let id = self.fresh_id();
        self.framed.send(&Request::Stats { id })?;
        match self.expect_reply(id)? {
            Reply::Stats { stats, .. } => Ok(stats),
            other => Err(NetError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Asks the server to dump its flight-recorder ring; returns the
    /// `ceps-flight/v1` JSONL dump (empty when the recorder is off).
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn dump_flight(&mut self) -> Result<String> {
        let id = self.fresh_id();
        self.framed.send(&Request::DumpFlight { id })?;
        match self.expect_reply(id)? {
            Reply::Flight { dump, .. } => Ok(dump),
            other => Err(NetError::Protocol(format!(
                "expected Flight, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit; waits for its `Bye`.
    ///
    /// # Errors
    /// As [`request`](Self::request).
    pub fn shutdown(&mut self) -> Result<()> {
        let id = self.fresh_id();
        self.framed.send(&Request::Shutdown { id })?;
        match self.expect_reply(id)? {
            Reply::Bye { .. } => Ok(()),
            other => Err(NetError::Protocol(format!("expected Bye, got {other:?}"))),
        }
    }
}
