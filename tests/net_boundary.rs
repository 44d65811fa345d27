//! Service-boundary equivalence: a query answered over the `ceps-wire/v1`
//! protocol must be *byte-identical* to the same query answered by the
//! in-process [`CepsService`] API — same struct, same serialization, same
//! f64 bits — pinned here on the medium datagen preset (the scale the CI
//! experiments run). The Unix-socket path of the same guarantee is
//! exercised by the CI smoke (`ceps serve --listen` + `ceps client`).

use ceps_repro::prelude::*;

/// One engine, two services (reference + served) built identically.
fn build_services() -> (CepsEngine, CepsService, CepsService, Vec<Vec<NodeId>>) {
    let data = CoauthorConfig::medium().seed(42).generate();
    let repo = QueryRepository::from_graph(&data);
    let engine = CepsEngine::new(data.graph, CepsConfig::default().budget(6).threads(2)).unwrap();
    let reference = CepsServiceBuilder::new()
        .cache_bytes(32 << 20)
        .build(engine.clone());
    let served = CepsServiceBuilder::new()
        .cache_bytes(32 << 20)
        .build(engine.clone());
    let mut sets: Vec<Vec<NodeId>> = (0u64..4)
        .map(|i| repo.sample(2 + (i as usize % 2), 500 + i))
        .collect();
    // Repeat the first set so the wire path also crosses the row cache's
    // hit path — cached and cold replies must not differ.
    sets.push(sets[0].clone());
    (engine, reference, served, sets)
}

#[test]
fn wire_replies_are_byte_identical_to_in_process_serve() {
    let (_engine, reference, served, sets) = build_services();

    // In-process ground truth, serialized exactly as the wire would.
    let expected: Vec<(ServeReply, String)> = sets
        .iter()
        .map(|queries| {
            let reply = reference
                .serve(&ServeRequest::new(queries.clone()))
                .unwrap();
            let json = serde_json::to_string(&reply).unwrap();
            (reply, json)
        })
        .collect();

    let (mut transport, connector) = ceps_repro::ceps_net::in_proc();
    let server = CepsServer::new(
        served,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());

        let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        for (queries, (reply, json)) in sets.iter().zip(&expected) {
            let wire = client.request(&ServeRequest::new(queries.clone())).unwrap();
            // Struct equality covers exact f64 score bits and ordering…
            assert_eq!(&wire, reply, "wire reply diverged for {queries:?}");
            // …and the serialized frames are byte-identical too.
            assert_eq!(&serde_json::to_string(&wire).unwrap(), json);
        }

        // The shared-vocabulary claim, end to end: subteam membership and
        // scores agree with a direct engine run.
        let (direct, _) = reference.run(&sets[0]).unwrap();
        let wire = client.request(&ServeRequest::new(sets[0].clone())).unwrap();
        assert_eq!(wire.members.len(), direct.subgraph.len());
        for m in &wire.members {
            assert!(direct.subgraph.contains(m.id));
            assert_eq!(m.score, direct.combined[m.id.index()], "score bits differ");
        }

        client.shutdown().unwrap();
    });
}

#[test]
fn wire_autok_matches_in_process_inference() {
    let (engine, _reference, served, sets) = build_services();
    let queries = sets[0].clone();
    let expected = ceps_repro::ceps_core::infer_soft_and_k(&engine, &queries).unwrap();

    let (mut transport, connector) = ceps_repro::ceps_net::in_proc();
    let server = CepsServer::new(
        served,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || server.serve(&mut transport).unwrap());
        let mut client = CepsClient::from_conn(Box::new(connector.connect().unwrap()));
        let wire = client.autok(queries).unwrap();
        assert_eq!(wire.k, expected.k);
        assert_eq!(wire.mean_ranks, expected.mean_ranks, "rank bits differ");
        client.shutdown().unwrap();
    });
}
