//! Microbenchmark: the `ceps-wire/v1` service boundary's own cost.
//!
//! The wire must stay negligible next to a query's RWR solve (tens of
//! milliseconds on paper-scale graphs), so the pinned quantities are the
//! per-frame codec cost — encode + chunked decode of a realistic `Scores`
//! reply — and the full in-process round trip through the live server
//! (accept loop, worker dispatch, admission gate, obs counters), measured
//! on `Ping` so the pipeline itself stays out of the number.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ceps_core::{CepsConfig, CepsServiceBuilder, ReplyMember, ServeReply, ServeRequest};
use ceps_graph::{GraphBuilder, NodeId};
use ceps_net::wire::encode_frame;
use ceps_net::{in_proc, CepsClient, CepsServer, Framed, Reply, Request, ServerConfig};

/// A reply shaped like a budget-20 extraction on a labeled graph.
fn typical_reply() -> Reply {
    Reply::Scores {
        id: 42,
        reply: ServeReply {
            k: 3,
            members: (0..20)
                .map(|i| ReplyMember {
                    id: NodeId(i * 37),
                    score: 1.0 / f64::from(i + 1),
                    is_query: i < 3,
                })
                .collect(),
            paths: Vec::new(),
        },
    }
}

struct Replayer {
    bytes: Vec<u8>,
    pos: usize,
}

impl std::io::Read for Replayer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // 1 KiB slices: realistic socket-read granularity for small frames.
        let n = 1024.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos = (self.pos + n) % self.bytes.len();
        Ok(n)
    }
}

impl std::io::Write for Replayer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn bench_net_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_wire");

    let request = Request::Query {
        id: 7,
        req: ServeRequest::new(vec![NodeId(11), NodeId(1234), NodeId(9876)]),
        trace: None,
    };
    let reply = typical_reply();
    group.bench_function("encode_query_frame", |b| {
        b.iter(|| black_box(encode_frame(black_box(&request))))
    });
    group.bench_function("encode_scores_frame", |b| {
        b.iter(|| black_box(encode_frame(black_box(&reply))))
    });

    // Decode: one pre-rendered Scores frame replayed through the chunked
    // reader, so the cost includes buffer reassembly and JSON parsing.
    let frame = encode_frame(&reply);
    group.bench_function("decode_scores_frame", |b| {
        let mut framed = Framed::new(
            Replayer {
                bytes: frame.clone(),
                pos: 0,
            },
            1 << 20,
        );
        b.iter(|| {
            let r: Reply = framed.recv().unwrap().expect("frame");
            black_box(r);
        })
    });

    // Full server round trip on the in-process transport.
    let mut b = GraphBuilder::new();
    for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
        b.add_edge(NodeId(x), NodeId(y), 1.0).unwrap();
    }
    let service = CepsServiceBuilder::new()
        .cache_bytes(1 << 20)
        .build_from_graph(b.build().unwrap(), CepsConfig::default().budget(2))
        .unwrap();
    let server = CepsServer::new(service, ServerConfig::default());
    let (mut transport, connector) = in_proc();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());
        let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));

        group.bench_function("ping_round_trip", |b| {
            b.iter(|| black_box(client.ping().unwrap()))
        });
        group.bench_function("query_round_trip_cached", |b| {
            let req = ServeRequest::new(vec![NodeId(0), NodeId(4)]);
            b.iter(|| black_box(client.request(black_box(&req)).unwrap()))
        });

        client.shutdown().unwrap();
        group.finish();
    });
}

criterion_group!(benches, bench_net_wire);
criterion_main!(benches);
