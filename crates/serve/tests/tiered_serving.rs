//! Tiered serving acceptance: priority classes, cross-request
//! coalescing, and shard-LRU eviction under a memory budget.
//!
//! The load-bearing claims:
//! 1. interactive queries that queue behind held worker tokens merge
//!    into fewer engine batches and return **byte-identical** rows to
//!    solo execution (with and without a prefilter, and whether a
//!    request spells out the server's default prefilter or omits it);
//!    a lone query with a free worker is a one-member group, and
//!    followers take no interactive queue slot;
//! 2. a shed coalesced batch fails EVERY member with the structured
//!    `deadline` error — no member is silently dropped;
//! 3. the per-tier `server.stats` slices partition the aggregate
//!    counters exactly (one atomic snapshot);
//! 4. under a memory budget cold shards are evicted, searches fault
//!    them back in on demand, and results never change.
//!
//! This is CI's tiered-serving gate: a mixed-tier storm for (3),
//! interactive volleys behind held tokens for (1), in both test passes.

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::protocol::{ErrorCode, QueryRequest, QueryResult, QuerySpectrum, WindowKind};
use hdoms_serve::scheduler::{SchedulerConfig, Tier};
use hdoms_serve::server::{ServeError, Server, LOCAL_CLIENT};
use std::time::Duration;

fn tiny_index(workload: &SyntheticWorkload) -> LibraryIndex {
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 4,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 2048;
    }
    LibraryIndex::build(&workload.library, config)
}

fn server_with(workload: &SyntheticWorkload, config: SchedulerConfig) -> Server {
    let server = Server::with_scheduler(4, config);
    server.add_index("w", tiny_index(workload)).unwrap();
    server
}

fn spectra_of(workload: &SyntheticWorkload) -> Vec<QuerySpectrum> {
    workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect()
}

fn request(
    spectra: Vec<QuerySpectrum>,
    tier: Tier,
    prefilter: Option<PrefilterConfig>,
) -> QueryRequest {
    QueryRequest {
        index: "w".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier,
        prefilter,
        spectra,
    }
}

/// Fire `requests` from clients 1, 2, … while every worker token is
/// held: the first queues and leads, the rest are given time to join
/// its group, then the tokens return. Each request's outcome, in order.
fn behind_held_tokens(
    server: &Server,
    requests: &[QueryRequest],
) -> Vec<Result<QueryResult, ServeError>> {
    let held = server
        .scheduler()
        .admit(0, Tier::Batch)
        .expect("idle server");
    std::thread::scope(|scope| {
        let mut clients = vec![scope.spawn(|| server.query_batch(1, &requests[0]))];
        while server.stats().interactive.queued == 0 {
            std::thread::yield_now();
        }
        for (i, request) in requests.iter().enumerate().skip(1) {
            clients.push(scope.spawn(move || server.query_batch(i as u64 + 1, request)));
        }
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .collect()
    })
}

/// [`behind_held_tokens`] until the volley runs as fewer engine batches
/// than requests (a stalled thread can join after the group closed, so
/// retry): the outcomes of the merged volley.
fn merged_volley(server: &Server, requests: &[QueryRequest]) -> Vec<QueryResult> {
    for _ in 0..5 {
        let before = server.stats();
        let outcomes = behind_held_tokens(server, requests);
        let after = server.stats();
        let served = after.coalesced_requests - before.coalesced_requests;
        assert_eq!(served, requests.len() as u64, "every request answered");
        let results: Vec<QueryResult> = outcomes
            .into_iter()
            .map(|outcome| outcome.expect("coalesced query"))
            .collect();
        if after.coalesced_batches - before.coalesced_batches < served {
            return results;
        }
    }
    panic!(
        "{} queued interactive queries never coalesced",
        requests.len()
    );
}

/// Three interactive queries behind held worker tokens merge into fewer
/// engine batches, yet every client's rows are byte-identical to a solo
/// query of its own spectra — with the cascade off and with a
/// per-request prefilter.
#[test]
fn coalesced_interactive_queries_are_byte_identical_to_uncoalesced() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 91);
    let spectra = spectra_of(&workload);
    let third = spectra.len() / 3;
    let chunks = [
        &spectra[..third],
        &spectra[third..2 * third],
        &spectra[2 * third..],
    ];
    let server = server_with(&workload, SchedulerConfig::default());

    for prefilter in [None, Some(PrefilterConfig::TopK(64))] {
        let requests: Vec<QueryRequest> = chunks
            .iter()
            .map(|chunk| request(chunk.to_vec(), Tier::Interactive, prefilter))
            .collect();
        let merged = merged_volley(&server, &requests);
        for (i, chunk) in chunks.iter().enumerate() {
            let alone = server
                .query_batch(
                    LOCAL_CLIENT,
                    &request(chunk.to_vec(), Tier::Batch, prefilter),
                )
                .expect("solo query");
            assert_eq!(
                merged[i].rows, alone.rows,
                "member {i} rows differ from solo (prefilter {prefilter:?})"
            );
            assert_eq!(merged[i].stats.queries, alone.stats.queries);
            assert_eq!(merged[i].stats.identifications, alone.stats.identifications);
            assert_eq!(
                merged[i].stats.candidates_scored,
                alone.stats.candidates_scored
            );
        }
    }
}

/// With a free worker an interactive query never waits for company: it
/// is a one-member group, counted as one executed group of one request.
#[test]
fn a_lone_interactive_query_is_a_one_member_group() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 97);
    let spectra = spectra_of(&workload);
    let server = server_with(&workload, SchedulerConfig::default());
    let lone = request(spectra[..8].to_vec(), Tier::Interactive, None);
    for round in 1..=2u64 {
        let result = server.query_batch(1, &lone).expect("lone query");
        assert_eq!(result.stats.queries, 8);
        assert_eq!(result.stats.queued, 0, "a free worker never queues");
        let stats = server.stats();
        assert_eq!(stats.coalesced_batches, round);
        assert_eq!(stats.coalesced_requests, round);
        assert_eq!(stats.interactive.admitted, round);
    }
}

/// Followers ride their leader's one admission and take no queue slot:
/// with an interactive queue bound of 1 and every token held, N
/// identical interactive queries get no `busy`.
#[test]
fn followers_take_no_interactive_queue_slot() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 98);
    let spectra = spectra_of(&workload);
    let server = server_with(
        &workload,
        SchedulerConfig {
            interactive_queue_depth: 1,
            ..SchedulerConfig::default()
        },
    );
    let requests: Vec<QueryRequest> = spectra
        .chunks(spectra.len().div_ceil(4))
        .map(|chunk| request(chunk.to_vec(), Tier::Interactive, None))
        .collect();
    assert_eq!(requests.len(), 4);
    for outcome in behind_held_tokens(&server, &requests) {
        outcome.expect("no member is refused busy");
    }
    let stats = server.stats();
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.coalesced_requests, requests.len() as u64);
}

/// A request that spells out the server's default prefilter and one
/// that omits it resolve to the same configuration: they join one group
/// and render the rows a solo query renders.
#[test]
fn an_explicit_default_prefilter_joins_an_omitted_one() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 99);
    let spectra = spectra_of(&workload);
    let half = spectra.len() / 2;
    let mut server = Server::with_scheduler(4, SchedulerConfig::default());
    server.set_prefilter(PrefilterConfig::TopK(16));
    server.add_index("w", tiny_index(&workload)).unwrap();
    let requests = [
        request(
            spectra[..half].to_vec(),
            Tier::Interactive,
            Some(PrefilterConfig::TopK(16)),
        ),
        request(spectra[half..].to_vec(), Tier::Interactive, None),
    ];
    let merged = merged_volley(&server, &requests);
    for (member, request) in merged.iter().zip(&requests) {
        let alone = server
            .query_batch(
                LOCAL_CLIENT,
                &QueryRequest {
                    tier: Tier::Batch,
                    ..request.clone()
                },
            )
            .expect("solo query");
        assert_eq!(member.rows, alone.rows);
    }
    assert!(server.stats().prefilter_candidates_pre > 0, "k=16 ran");
}

/// A group whose leader waits past `deadline_ms` fails ALL members with
/// the structured `deadline` error — none is silently dropped — and the
/// server keeps serving afterwards.
#[test]
fn a_shed_coalesced_batch_fails_every_member_with_deadline() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 92);
    let spectra = spectra_of(&workload);
    let server = server_with(
        &workload,
        SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            deadline_ms: 25,
            ..SchedulerConfig::default()
        },
    );

    // Occupy the only worker until every member is back: the leader
    // queues past its deadline, and so would any late arrival founding
    // a group of its own.
    let running = server.scheduler().admit(999, Tier::Batch).unwrap();
    const MEMBERS: usize = 3;
    let chunk = &spectra[..4.min(spectra.len())];
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let members: Vec<_> = (0..MEMBERS)
            .map(|i| {
                let server = &server;
                scope.spawn(move || {
                    server.query_batch(
                        i as u64 + 1,
                        &request(chunk.to_vec(), Tier::Interactive, None),
                    )
                })
            })
            .collect();
        members
            .into_iter()
            .map(|member| member.join().expect("member thread"))
            .collect()
    });
    drop(running);

    assert_eq!(outcomes.len(), MEMBERS, "every member came back");
    for outcome in &outcomes {
        let error = outcome.as_ref().expect_err("shed batch must fail");
        assert_eq!(
            error.code,
            ErrorCode::Deadline,
            "structured deadline, got {error:?}"
        );
    }
    let stats = server.stats();
    // The coalescing counters track groups that actually executed, so
    // `coalesce_ratio` never counts shed work as served.
    assert_eq!(stats.coalesced_batches, 0);
    assert_eq!(stats.coalesced_requests, 0);
    assert!(stats.interactive.shed_deadline >= 1);

    // The shed group is gone; the next interactive query founds a fresh
    // group and succeeds.
    let result = server
        .query_batch(7, &request(spectra[..4].to_vec(), Tier::Interactive, None))
        .expect("server intact after shed");
    assert_eq!(result.stats.queries, 4.min(spectra.len()));
    let served = server.stats();
    assert_eq!(served.coalesced_batches, 1);
    assert_eq!(served.coalesced_requests, 1);
}

/// The per-tier slices in `server.stats` partition the aggregates:
/// interactive + batch equals the totals, field by field.
#[test]
fn per_tier_stats_partition_the_aggregates() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 93);
    let spectra = spectra_of(&workload);
    let server = server_with(&workload, SchedulerConfig::default());

    for client in 1..=2u64 {
        server
            .query_batch(
                client,
                &request(spectra[..8].to_vec(), Tier::Interactive, None),
            )
            .unwrap();
    }
    for client in 3..=5u64 {
        server
            .query_batch(client, &request(spectra[..8].to_vec(), Tier::Batch, None))
            .unwrap();
    }

    let stats = server.stats();
    assert_eq!(stats.interactive.admitted, 2);
    assert_eq!(stats.batch.admitted, 3);
    assert_eq!(
        stats.interactive.admitted + stats.batch.admitted,
        stats.admitted
    );
    assert_eq!(
        stats.interactive.completed + stats.batch.completed,
        stats.completed
    );
    assert_eq!(
        stats.interactive.rejected_busy + stats.batch.rejected_busy,
        stats.rejected_busy
    );
    assert_eq!(
        stats.interactive.shed_deadline + stats.batch.shed_deadline,
        stats.shed_deadline
    );
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.interactive.queued + stats.batch.queued, 0);
}

/// Under a memory budget, cold mapped shards are evicted (pages
/// released) and later searches fault them back in — reload counters
/// move and the PSM rows stay byte-identical throughout.
#[test]
fn eviction_under_budget_reloads_on_demand_without_changing_results() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 94);
    let spectra = spectra_of(&workload);
    let path = std::env::temp_dir().join(format!("hdoms-tiered-evict-{}.hdx", std::process::id()));
    tiny_index(&workload).write(&path).unwrap();

    let mut server = Server::with_scheduler(4, SchedulerConfig::default());
    server.load_index("w", path.to_str().unwrap()).unwrap();
    std::fs::remove_file(&path).ok();

    let baseline = server
        .query_batch(LOCAL_CLIENT, &request(spectra.clone(), Tier::Batch, None))
        .unwrap();

    let full = server.stats();
    assert!(full.resident_bytes > 0, "mapped index is tracked");
    assert!(full.resident_shards > 0);
    assert_eq!(full.evictions, 0);
    assert_eq!(full.memory_budget, 0, "unlimited by default");

    // Halve the footprint: the coldest shards must leave.
    let budget = full.resident_bytes / 2;
    server.set_memory_budget(budget);
    let squeezed = server.stats();
    assert_eq!(squeezed.memory_budget, budget);
    assert!(squeezed.evictions > 0, "over-budget shards evicted");
    assert!(
        squeezed.resident_bytes <= budget,
        "resident {} over budget {budget}",
        squeezed.resident_bytes
    );
    assert!(squeezed.resident_shards < full.resident_shards);

    // Search everything again: evicted shards refault from the file.
    let after = server
        .query_batch(LOCAL_CLIENT, &request(spectra.clone(), Tier::Batch, None))
        .unwrap();
    assert_eq!(
        after.rows, baseline.rows,
        "eviction must never change results"
    );
    let reloaded = server.stats();
    assert!(reloaded.reloads > 0, "the search faulted shards back in");
    assert!(
        reloaded.resident_bytes <= budget,
        "the budget holds after the batch"
    );

    // Lifting the budget stops eviction; reloads keep the index whole.
    server.set_memory_budget(0);
    let final_run = server
        .query_batch(LOCAL_CLIENT, &request(spectra, Tier::Batch, None))
        .unwrap();
    assert_eq!(final_run.rows, baseline.rows);
    let relaxed = server.stats();
    assert_eq!(
        relaxed.evictions, reloaded.evictions,
        "no further evictions"
    );
}

/// Shard residency is accounted per *engine*, not per name: a session
/// that outlives `index.unload` keeps searching its own engine, and its
/// batches must not flip a namesake's evicted shards back to resident
/// (phantom reloads a real budget would then pay for with hot shards).
#[test]
fn a_stale_session_never_touches_a_namesakes_residency() {
    let (a, b) = (
        SyntheticWorkload::generate(&WorkloadSpec::tiny(), 95),
        SyntheticWorkload::generate(&WorkloadSpec::tiny(), 96),
    );
    let image = |tag: &str, workload: &SyntheticWorkload| {
        let path = std::env::temp_dir().join(format!(
            "hdoms-tiered-namesake-{tag}-{}.hdx",
            std::process::id()
        ));
        tiny_index(workload).write(&path).unwrap();
        path
    };
    let (path_a, path_b) = (image("a", &a), image("b", &b));

    let mut server = Server::with_scheduler(4, SchedulerConfig::default());
    server.load_index("w", path_a.to_str().unwrap()).unwrap();
    let stale = server
        .open_session("w", WindowKind::Open.window(), Tier::Batch, None)
        .unwrap();
    server.unload_index("w").unwrap();
    server.load_index("w", path_b.to_str().unwrap()).unwrap();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    // Evict every shard of B, then lift the budget so nothing below
    // re-evicts: whatever becomes resident again was touched.
    server.set_memory_budget(1);
    let evicted = server.stats();
    assert_eq!((evicted.resident_shards, evicted.resident_bytes), (0, 0));
    server.set_memory_budget(0);

    // The stale session searches only A's (unloaded, untracked) engine.
    let receipt = server
        .submit_session(LOCAL_CLIENT, stale, &spectra_of(&a))
        .unwrap();
    assert!(
        !receipt.shard_timings.is_empty(),
        "the batch visited shards"
    );
    let after = server.stats();
    assert_eq!(after.reloads, 0, "nothing searched B");
    assert_eq!((after.resident_shards, after.resident_bytes), (0, 0));
}
