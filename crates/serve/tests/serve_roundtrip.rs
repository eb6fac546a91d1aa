//! End-to-end acceptance: a `serve` + `query` round-trip over real TCP
//! must produce a PSM table **byte-identical** to the local
//! `search --index` path, on both the tiny and iPRG2012(0.01) presets.

use hdoms_engine::Engine;
use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::psm::{render_table, render_table_rows};
use hdoms_oms::window::PrecursorWindow;
use hdoms_serve::net::{serve_listener, Client};
use hdoms_serve::protocol::{
    QueryRequest, QuerySpectrum, Request, Response, WindowKind, PROTOCOL_VERSION,
};
use hdoms_serve::server::Server;
use std::net::TcpListener;
use std::sync::Arc;

const THREADS: usize = 4;
const DIM: usize = 2048;

fn build_index(library: &hdoms_ms::library::SpectralLibrary) -> LibraryIndex {
    let mut config = IndexConfig {
        entries_per_shard: 512,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    LibraryIndex::build(library, config)
}

/// The CLI `search --index` path, in process: one engine over the
/// index, open window, 1 % FDR.
fn local_search_table(index: &LibraryIndex, workload: &SyntheticWorkload) -> String {
    let engine = Engine::from_index(index.clone(), THREADS).expect("exact kind");
    let window = PrecursorWindow::open_default();
    let (outcome, _) = Arc::new(engine).search(&workload.queries, window, 0.01);
    render_table(index.catalog().peptides(), &outcome)
}

/// Serve `index` on an ephemeral port and run one query batch through a
/// real TCP client; return the rendered table and the reported stats.
fn served_table(
    index: LibraryIndex,
    workload: &SyntheticWorkload,
) -> (String, hdoms_serve::protocol::BatchStats) {
    let server = Server::new(THREADS);
    server.add_index("w", index).expect("index is servable");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound");
    std::thread::spawn(move || {
        let _ = serve_listener(Arc::new(server), listener);
    });

    let mut client = Client::connect(addr).expect("connect");
    // The server is up (we connected); exercise ping and listing too.
    assert_eq!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong {
            protocol: PROTOCOL_VERSION
        }
    );
    let Response::Indexes(list) = client.request(&Request::ListIndexes).expect("list") else {
        panic!("expected an index listing");
    };
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].name, "w");

    let response = client
        .request(&Request::Query(QueryRequest {
            index: "w".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Default::default(),
            prefilter: None,
            spectra: workload
                .queries
                .iter()
                .map(QuerySpectrum::from_spectrum)
                .collect(),
        }))
        .expect("query round-trip");
    let Response::Result(result) = response else {
        panic!("expected a result, got {response:?}");
    };
    (render_table_rows(&result.rows), result.stats)
}

fn roundtrip_is_byte_identical(spec: &WorkloadSpec, seed: u64) {
    let workload = SyntheticWorkload::generate(spec, seed);
    let index = build_index(&workload.library);
    let local = local_search_table(&index, &workload);
    let (served, stats) = served_table(index, &workload);
    assert_eq!(
        local, served,
        "served PSM table differs from local search --index on {}",
        spec.name
    );
    // The batch stats must describe real work.
    assert_eq!(stats.queries, workload.queries.len());
    assert!(
        stats.identifications > 0,
        "no identifications on {}",
        spec.name
    );
    assert!(stats.candidates_scored > 0);
    assert!(stats.shards_touched > 0);
    assert!(stats.backend.starts_with("sharded("));
}

#[test]
fn tiny_preset_roundtrips_byte_identical() {
    roundtrip_is_byte_identical(&WorkloadSpec::tiny(), 4321);
}

#[test]
fn iprg2012_preset_roundtrips_byte_identical() {
    roundtrip_is_byte_identical(&WorkloadSpec::iprg2012(0.01), 4322);
}

#[test]
fn one_connection_serves_many_batches() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 4323);
    let server = Server::new(THREADS);
    server
        .add_index("w", build_index(&workload.library))
        .expect("servable");
    let listener = TcpListener::bind("127.0.0.1:0").expect("port");
    let addr = listener.local_addr().expect("bound");
    std::thread::spawn(move || {
        let _ = serve_listener(Arc::new(server), listener);
    });
    let mut client = Client::connect(addr).expect("connect");
    let request = Request::Query(QueryRequest {
        index: "w".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier: Default::default(),
        prefilter: None,
        spectra: workload
            .queries
            .iter()
            .map(QuerySpectrum::from_spectrum)
            .collect(),
    });
    let mut tables = Vec::new();
    for _ in 0..3 {
        let Response::Result(result) = client.request(&request).expect("query") else {
            panic!("expected result");
        };
        tables.push(render_table_rows(&result.rows));
    }
    assert_eq!(tables[0], tables[1]);
    assert_eq!(tables[1], tables[2]);
}

/// Cross-batch FDR over the wire: a client submitting K small batches
/// through a session and finalizing gets the same accepted PSM set — the
/// same bytes — as a single local run over the union.
#[test]
fn streamed_session_over_tcp_matches_local_single_run() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 4324);
    let index = build_index(&workload.library);
    let local = local_search_table(&index, &workload);

    let server = Server::new(THREADS);
    server.add_index("w", index).expect("servable");
    let listener = TcpListener::bind("127.0.0.1:0").expect("port");
    let addr = listener.local_addr().expect("bound");
    std::thread::spawn(move || {
        let _ = serve_listener(Arc::new(server), listener);
    });

    let mut client = Client::connect(addr).expect("connect");
    let Response::SessionOpened { session, index } = client
        .request(&Request::SessionOpen {
            index: "w".to_owned(),
            window: WindowKind::Open,
            tier: Default::default(),
            prefilter: None,
        })
        .expect("open")
    else {
        panic!("expected a session id");
    };
    assert_eq!(index, "w");

    let spectra: Vec<QuerySpectrum> = workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect();
    let chunk = spectra.len().div_ceil(4);
    let mut batches = 0usize;
    for batch in spectra.chunks(chunk) {
        let Response::Receipt(receipt) = client
            .request(&Request::SessionSubmit {
                session,
                spectra: batch.to_vec(),
            })
            .expect("submit")
        else {
            panic!("expected a receipt");
        };
        batches += 1;
        assert_eq!(receipt.batch, batches);
        assert_eq!(receipt.queries, batch.len());
    }
    assert_eq!(batches, 4);

    let Response::Result(result) = client
        .request(&Request::SessionFinalize { session, fdr: 0.01 })
        .expect("finalize")
    else {
        panic!("expected the pooled result");
    };
    assert_eq!(
        render_table_rows(&result.rows),
        local,
        "4-batch session table differs from the local single run"
    );
    assert_eq!(result.stats.queries, workload.queries.len());

    // The session is closed: submitting again errors, the connection
    // stays open.
    let Response::Error { message, .. } = client
        .request(&Request::SessionSubmit {
            session,
            spectra: Vec::new(),
        })
        .expect("post-finalize submit answered")
    else {
        panic!("expected an error for a finalized session");
    };
    assert!(message.contains("unknown session"));
}

/// Runtime index lifecycle over the wire: load a second index, query
/// it, unload it, and verify querying it now errors cleanly.
#[test]
fn index_load_and_unload_round_trip_on_a_live_server() {
    let first = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 4325);
    let second = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 4326);
    let second_path =
        std::env::temp_dir().join(format!("hdoms-live-load-{}.hdx", std::process::id()));
    build_index(&second.library)
        .write(&second_path)
        .expect("persist second index");

    let server = Server::new(THREADS);
    server
        .add_index("first", build_index(&first.library))
        .expect("servable");
    let listener = TcpListener::bind("127.0.0.1:0").expect("port");
    let addr = listener.local_addr().expect("bound");
    std::thread::spawn(move || {
        let _ = serve_listener(Arc::new(server), listener);
    });
    let mut client = Client::connect(addr).expect("connect");

    // Load the second index at runtime.
    let Response::Loaded(summary) = client
        .request(&Request::IndexLoad {
            name: "second".to_owned(),
            path: second_path.to_str().expect("utf-8 temp path").to_owned(),
        })
        .expect("load")
    else {
        panic!("expected a loaded summary");
    };
    assert_eq!(summary.name, "second");
    assert_eq!(summary.entries, second.library.len());
    std::fs::remove_file(&second_path).ok();

    // Both indexes are listed; the loaded one answers queries.
    let Response::Indexes(list) = client.request(&Request::ListIndexes).expect("list") else {
        panic!("expected listing");
    };
    assert_eq!(list.len(), 2);
    let query = |spectra: Vec<QuerySpectrum>| {
        Request::Query(QueryRequest {
            index: "second".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Default::default(),
            prefilter: None,
            spectra,
        })
    };
    let spectra: Vec<QuerySpectrum> = second
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect();
    let Response::Result(result) = client.request(&query(spectra.clone())).expect("query") else {
        panic!("expected a result from the loaded index");
    };
    assert!(result.stats.identifications > 0);

    // Unload and verify the name now errors cleanly.
    let Response::Unloaded { name } = client
        .request(&Request::IndexUnload {
            name: "second".to_owned(),
        })
        .expect("unload")
    else {
        panic!("expected unloaded");
    };
    assert_eq!(name, "second");
    let Response::Error { message, .. } = client.request(&query(spectra)).expect("answered") else {
        panic!("expected an error after unload");
    };
    assert!(message.contains("unknown index"));

    // Loading a bogus path errors without killing the server.
    let Response::Error { .. } = client
        .request(&Request::IndexLoad {
            name: "ghost".to_owned(),
            path: "/nonexistent/ghost.hdx".to_owned(),
        })
        .expect("answered")
    else {
        panic!("expected a load error");
    };
    let Response::Pong { .. } = client.request(&Request::Ping).expect("ping") else {
        panic!("server should still be alive");
    };
}
