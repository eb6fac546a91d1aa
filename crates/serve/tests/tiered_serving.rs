//! Tiered serving acceptance: priority classes, cross-request
//! coalescing, and shard-LRU eviction under a memory budget.
//!
//! The load-bearing claims:
//! 1. coalesced interactive queries return **byte-identical** rows to
//!    uncoalesced execution (with and without a prefilter);
//! 2. a shed coalesced batch fails EVERY member with the structured
//!    `deadline` error — no member is silently dropped;
//! 3. the per-tier `server.stats` slices partition the aggregate
//!    counters exactly (one atomic snapshot);
//! 4. under a memory budget cold shards are evicted, searches fault
//!    them back in on demand, and results never change.
//!
//! This is CI's tiered-serving gate: a mixed-tier storm for (3),
//! lockstep interactive volleys for (1), in both test passes.

use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::protocol::{ErrorCode, QueryRequest, QuerySpectrum, WindowKind};
use hdoms_serve::scheduler::{SchedulerConfig, Tier};
use hdoms_serve::server::Server;
use std::sync::{Barrier, Mutex};

fn tiny_index(workload: &SyntheticWorkload) -> LibraryIndex {
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 4,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 2048;
    }
    IndexBuilder::new(config).from_library(&workload.library)
}

fn server_with(workload: &SyntheticWorkload, config: SchedulerConfig) -> Server {
    let server = Server::with_scheduler(4, config);
    server.add_index("w", tiny_index(workload)).unwrap();
    server
}

fn batch_of(spectra: &[QuerySpectrum]) -> Vec<QuerySpectrum> {
    spectra.to_vec()
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

/// Three clients fire interactive queries together; the coalescer
/// merges them into fewer engine batches, yet every client's rows are
/// byte-identical to what an uncoalesced server returns for its own
/// spectra — with the cascade off and with a per-request prefilter.
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

    let mut coalescing = server_with(&workload, SchedulerConfig::default());
    coalescing.set_coalesce_window_ms(200);
    let plain = server_with(&workload, SchedulerConfig::default());

    for prefilter in [None, Some(PrefilterConfig::TopK(64))] {
        let barrier = Barrier::new(chunks.len());
        let results = Mutex::new(vec![None; chunks.len()]);
        std::thread::scope(|scope| {
            for (i, chunk) in chunks.iter().enumerate() {
                let (coalescing, barrier, results) = (&coalescing, &barrier, &results);
                scope.spawn(move || {
                    barrier.wait();
                    let result = coalescing
                        .query_batch_as(
                            i as u64 + 1,
                            &request(batch_of(chunk), Tier::Interactive, prefilter),
                        )
                        .expect("coalesced query");
                    results.lock().unwrap()[i] = Some(result);
                });
            }
        });
        let results = results.into_inner().unwrap();
        for (i, chunk) in chunks.iter().enumerate() {
            let merged = results[i].as_ref().expect("every member answered");
            let alone = plain
                .query_batch(&request(batch_of(chunk), Tier::Interactive, prefilter))
                .expect("uncoalesced query");
            assert_eq!(
                merged.rows, alone.rows,
                "member {i} rows differ from uncoalesced (prefilter {prefilter:?})"
            );
            assert_eq!(merged.stats.queries, alone.stats.queries);
            assert_eq!(merged.stats.identifications, alone.stats.identifications);
        }
    }

    let stats = coalescing.stats();
    assert_eq!(
        stats.coalesced_requests, 6,
        "every interactive request routed through the coalescer"
    );
    assert!(
        stats.coalesced_batches < stats.coalesced_requests,
        "at least one merge happened ({} batches for {} requests)",
        stats.coalesced_batches,
        stats.coalesced_requests
    );
    // The plain server never coalesces.
    assert_eq!(plain.stats().coalesced_requests, 0);
}

/// Satellite: a coalesced batch shed by the scheduler fails ALL member
/// requests with the structured `deadline` error — none is silently
/// dropped, and the server keeps serving afterwards.
#[test]
fn a_shed_coalesced_batch_fails_every_member_with_deadline() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 92);
    let spectra = spectra_of(&workload);
    let mut server = server_with(
        &workload,
        SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            deadline_ms: 25,
            ..SchedulerConfig::default()
        },
    );
    server.set_coalesce_window_ms(40);

    // Occupy the only worker so the merged batch queues past its
    // deadline.
    let running = server.scheduler().admit(999).unwrap();

    const MEMBERS: usize = 3;
    let barrier = Barrier::new(MEMBERS);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for i in 0..MEMBERS {
            let (server, barrier, errors, chunk) =
                (&server, &barrier, &errors, &spectra[..4.min(spectra.len())]);
            scope.spawn(move || {
                barrier.wait();
                let outcome = server.query_batch_as(
                    i as u64 + 1,
                    &request(chunk.to_vec(), Tier::Interactive, None),
                );
                errors.lock().unwrap().push(outcome);
            });
        }
    });
    drop(running);

    let outcomes = errors.into_inner().unwrap();
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
    // The coalescing counters track batches that actually executed, so
    // `coalesce_ratio` never counts shed work as served.
    assert_eq!(stats.coalesced_batches, 0);
    assert_eq!(stats.coalesced_requests, 0);
    assert!(stats.interactive.shed_deadline >= 1);

    // The shed group is gone; the next interactive query founds a fresh
    // group and succeeds.
    let result = server
        .query_batch_as(7, &request(spectra[..4].to_vec(), Tier::Interactive, None))
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
            .query_batch_as(
                client,
                &request(spectra[..8].to_vec(), Tier::Interactive, None),
            )
            .unwrap();
    }
    for client in 3..=5u64 {
        server
            .query_batch_as(client, &request(spectra[..8].to_vec(), Tier::Batch, None))
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
        .query_batch(&request(spectra.clone(), Tier::Batch, None))
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
        .query_batch(&request(spectra.clone(), Tier::Batch, None))
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
        .query_batch(&request(spectra, Tier::Batch, None))
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
    let stale = server.open_session("w", WindowKind::Open.window()).unwrap();
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
    let receipt = server.submit_session(stale, &spectra_of(&a)).unwrap();
    assert!(
        !receipt.shard_timings.is_empty(),
        "the batch visited shards"
    );
    let after = server.stats();
    assert_eq!(after.reloads, 0, "nothing searched B");
    assert_eq!((after.resident_shards, after.resident_bytes), (0, 0));
}
