//! Contention acceptance for the batch scheduler: fairness between
//! greedy clients, bounded in-flight work under a 16-client storm,
//! structured `busy`/`deadline` rejections, and — the load-bearing
//! invariant — scheduled output **byte-identical** to unscheduled
//! single-client runs, over real TCP.
//! This is CI's multi-client contention gate; the release test pass is
//! the run whose storm is fast enough to contend.

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::psm::{render_table, render_table_rows};
use hdoms_oms::window::PrecursorWindow;
use hdoms_serve::net::{serve_listener, Client};
use hdoms_serve::protocol::{
    ErrorCode, QueryRequest, QuerySpectrum, Request, Response, WindowKind,
};
use hdoms_serve::scheduler::{SchedulerConfig, Tier};
use hdoms_serve::server::{Server, LOCAL_CLIENT};
use std::net::TcpListener;
use std::sync::Arc;

const DIM: usize = 2048;

fn build_index(library: &hdoms_ms::library::SpectralLibrary) -> LibraryIndex {
    let mut config = IndexConfig {
        entries_per_shard: 256,
        threads: 4,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    LibraryIndex::build(library, config)
}

fn server_with(workload: &SyntheticWorkload, config: SchedulerConfig) -> Server {
    let server = Server::with_scheduler(4, config);
    server
        .add_index("w", build_index(&workload.library))
        .expect("servable index");
    server
}

fn batch_of(workload: &SyntheticWorkload) -> Vec<QuerySpectrum> {
    workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect()
}

fn request_for(spectra: Vec<QuerySpectrum>) -> QueryRequest {
    QueryRequest {
        index: "w".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier: Default::default(),
        prefilter: None,
        spectra,
    }
}

/// Two greedy clients hammer batches concurrently; both make progress
/// and both end with the full-batch answer a lone client gets.
#[test]
fn two_greedy_clients_each_make_progress() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9001);
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 2,
            queue_depth: 64,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    let spectra = batch_of(&workload);
    let reference = server
        .query_batch(LOCAL_CLIENT, &request_for(spectra.clone()))
        .expect("reference run");

    const ROUNDS: usize = 6;
    let completed: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = &server;
                let spectra = &spectra;
                let reference = &reference;
                scope.spawn(move || {
                    let client = server.next_client_id();
                    let mut done = 0usize;
                    for _ in 0..ROUNDS {
                        let result = server
                            .query_batch(client, &request_for(spectra.clone()))
                            .expect("no shedding with a deep queue");
                        assert_eq!(
                            result.rows, reference.rows,
                            "contended run changed the PSMs"
                        );
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Fairness: with round-robin grants neither greedy client is
    // starved — both finish every round.
    assert_eq!(completed, vec![ROUNDS, ROUNDS]);
    let stats = server.stats();
    assert_eq!(stats.completed, 1 + 2 * ROUNDS as u64);
    assert_eq!(stats.rejected_busy, 0);
    assert!(stats.peak_workers_busy <= 2);
}

/// A 16-client storm against a 3-worker budget: the scheduler's
/// in-flight token accounting never exceeds the budget, every batch
/// still completes (deep queue, no deadline), and each answer is
/// identical to the uncontended one. (The token-sum invariant itself is
/// measured *inside* concurrently running jobs, with an external
/// atomic, by the scheduler unit test
/// `contended_budgets_split_down_to_one_token`; this test asserts the
/// server-level wiring and reporting.)
#[test]
fn sixteen_client_storm_stays_within_the_worker_budget() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9002);
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 3,
            queue_depth: 64,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    let spectra = batch_of(&workload);
    let reference = server
        .query_batch(LOCAL_CLIENT, &request_for(spectra.clone()))
        .expect("reference run");

    std::thread::scope(|scope| {
        for _ in 0..16 {
            let server = &server;
            let spectra = &spectra;
            let reference = &reference;
            scope.spawn(move || {
                let client = server.next_client_id();
                let result = server
                    .query_batch(client, &request_for(spectra.clone()))
                    .expect("deep queue, no deadline: nothing sheds");
                assert!(result.stats.workers >= 1);
                assert!(result.stats.workers <= 3, "budget grant exceeded workers");
                assert_eq!(result.rows, reference.rows);
                // Live in-flight usage, sampled mid-storm, respects the
                // budget too.
                assert!(server.stats().workers_busy <= 3);
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.completed, 17);
    assert!(
        stats.peak_workers_busy <= 3,
        "peak in-flight {} exceeded the 3-worker budget",
        stats.peak_workers_busy
    );
    assert_eq!(stats.workers_busy, 0, "all tokens returned");
    assert_eq!(stats.queued, 0);
}

/// A full queue answers with the structured `busy` error; a batch that
/// waits past the soft deadline answers with the structured `deadline`
/// error. Both leave the server healthy.
#[test]
fn busy_and_deadline_are_structured_errors() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9003);
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 1,
            queue_depth: 0,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    let spectra = batch_of(&workload);

    // Hold the only worker token: with queue depth 0, the next batch is
    // rejected outright.
    let permit = server
        .scheduler()
        .admit(500, Tier::Batch)
        .expect("token is free");
    let err = server
        .query_batch(501, &request_for(spectra.clone()))
        .expect_err("queue depth 0 + busy worker must reject");
    assert_eq!(err.code, ErrorCode::Busy);
    assert!(err.message.contains("busy"), "message: {}", err.message);
    // The wire shape carries the machine-readable code.
    let response = server.handle_as(LOCAL_CLIENT, &Request::Query(request_for(spectra.clone())));
    match response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected a busy error, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_busy, 2);
    drop(permit);

    // Deadline: same single-token server, but now batches may queue and
    // the deadline is tiny.
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            deadline_ms: 20,
            ..SchedulerConfig::default()
        },
    );
    let permit = server
        .scheduler()
        .admit(500, Tier::Batch)
        .expect("token is free");
    let err = server
        .query_batch(501, &request_for(spectra.clone()))
        .expect_err("the held token forces a queue wait past the deadline");
    assert_eq!(err.code, ErrorCode::Deadline);
    assert!(err.message.contains("deadline"), "message: {}", err.message);
    let stats = server.stats();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.queued, 0, "the shed batch left the queue");
    drop(permit);

    // The server is healthy afterwards: the same batch now runs.
    let result = server
        .query_batch(LOCAL_CLIENT, &request_for(spectra))
        .expect("recovered");
    assert!(result.stats.identifications > 0);
    assert_eq!(result.stats.workers, 1);
}

/// `server.stats` over the in-process API reflects scheduled work.
#[test]
fn server_stats_verb_reports_the_scheduler() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9004);
    let server = server_with(&workload, SchedulerConfig::default());
    let spectra = batch_of(&workload);
    server
        .query_batch(LOCAL_CLIENT, &request_for(spectra))
        .expect("batch");
    let Response::Stats(stats) = server.handle_as(LOCAL_CLIENT, &Request::ServerStats) else {
        panic!("expected a stats response");
    };
    assert_eq!(
        stats.queue_depth,
        hdoms_serve::scheduler::DEFAULT_QUEUE_DEPTH
    );
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.resident_indexes, 1);
    assert_eq!(stats.open_sessions, 0);
    assert!(stats.peak_workers_busy >= 1);
}

/// The acceptance bar: 4 clients concurrently stream sessions over real
/// TCP against a deliberately tight scheduler (2 workers), and every
/// client's finalized table is byte-identical to the unscheduled local
/// single-run table. Scheduling changes *when* batches run, never what
/// they produce.
#[test]
fn scheduled_sessions_over_tcp_match_the_unscheduled_run() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9005);
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 2,
            queue_depth: 64,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );

    // The unscheduled truth: a local engine run over everything at the
    // engine's full configured parallelism.
    let engine = server.engine("w").expect("resident");
    let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    let local = render_table(engine.peptides(), &outcome);

    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound");
    std::thread::spawn(move || {
        let _ = serve_listener(Arc::new(server), listener);
    });

    let spectra = batch_of(&workload);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let spectra = spectra.clone();
            let local = &local;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let Response::SessionOpened { session, .. } = client
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
                let chunk = spectra.len().div_ceil(4);
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
                    // Every scheduled submit ran within the budget.
                    assert!(receipt.workers >= 1 && receipt.workers <= 2);
                    assert!(receipt.wait_ms >= 0.0);
                }
                let Response::Result(result) = client
                    .request(&Request::SessionFinalize { session, fdr: 0.01 })
                    .expect("finalize")
                else {
                    panic!("expected the pooled result");
                };
                assert_eq!(
                    render_table_rows(&result.rows),
                    *local,
                    "scheduled session table differs from the unscheduled run"
                );
            });
        }
    });
}
