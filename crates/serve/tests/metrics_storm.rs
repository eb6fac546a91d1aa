//! Metrics acceptance under contention: a 16-client scheduler storm
//! against an instrumented server, with three invariants —
//!
//! 1. **Exact reconciliation**: after the storm, every registry counter
//!    equals the sum of the per-client receipts. No batch, query, or
//!    PSM is double-counted or dropped.
//! 2. **Histogram completeness**: the latency and queue-wait histograms
//!    saw exactly one observation per served batch, and the per-stage
//!    pipeline histograms saw one per engine batch.
//! 3. **Torn-read freedom**: a reader thread snapshots the registry
//!    continuously *during* the storm; counters are monotonic across
//!    snapshots, derived values are internally consistent, and gauges
//!    stay within their physical bounds.
//!
//! Beside the storm: the prefilter series against receipts and
//! `server.stats`; one `query` and one session over the wire verbs with
//! the cascade on and shards evicting, where receipt, registry and
//! `server.stats` must tell one story; the catalog in
//! `docs/OBSERVABILITY.md` against what a server registers; and the
//! scheduler's two constructors against each other. (CI's release test
//! pass runs this file as its "Metrics smoke", with
//! `crates/cli/tests/metrics_smoke.rs` scraping the live exposition.)

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_obs::metrics::{HistogramSnapshot, Registry, Snapshot, OVERFLOW_BUCKET};
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::protocol::{QueryRequest, QuerySpectrum, Request, Response, WindowKind};
use hdoms_serve::scheduler::{ScheduleError, Scheduler, SchedulerConfig, Tier};
use hdoms_serve::server::{Server, LOCAL_CLIENT};
use std::sync::atomic::{AtomicBool, Ordering};

const DIM: usize = 2048;
const CLIENTS: usize = 16;
const ROUNDS: usize = 2;

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

fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} registered"))
        .1
}

fn gauge(snapshot: &Snapshot, name: &str) -> i64 {
    snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} registered"))
        .1
}

fn histogram<'a>(snapshot: &'a Snapshot, name: &str) -> &'a HistogramSnapshot {
    &snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("histogram {name} registered"))
        .1
}

/// What a histogram promises mid-flight (`Histogram`'s doc): the sum
/// never outruns the counts — it is at most every counted observation's
/// bucket bound (bucket `k` holds samples ≤ 2^k µs) added up.
fn sum_within_counts(h: &HistogramSnapshot) -> bool {
    let bound_ns = |(k, &n): (usize, &u64)| n * (1u64 << k) * 1000;
    h.buckets[OVERFLOW_BUCKET] > 0 || h.sum_ns <= h.buckets.iter().enumerate().map(bound_ns).sum()
}

#[test]
fn sixteen_client_storm_reconciles_exactly_with_receipts() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9006);
    let server = Server::with_scheduler(
        4,
        SchedulerConfig {
            workers: 3,
            queue_depth: 64,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    server
        .add_index("w", build_index(&workload.library))
        .expect("servable index");
    let spectra = batch_of(&workload);
    let per_batch_queries = spectra.len() as u64;

    let storming = AtomicBool::new(true);
    let (outcomes, snapshots_checked) = std::thread::scope(|scope| {
        // The torn-read probe: hammer `snapshot()` while the storm runs
        // and assert every observable invariant on every sample.
        let reader = {
            let server = &server;
            let storming = &storming;
            scope.spawn(move || {
                let mut checked = 0usize;
                let mut last_batches = 0u64;
                let mut last_queries = 0u64;
                while storming.load(Ordering::SeqCst) {
                    let snap = server.registry().snapshot();
                    let batches = counter(&snap, "hdoms_query_batches_total");
                    let queries = counter(&snap, "hdoms_queries_total");
                    // Counters only move forward.
                    assert!(batches >= last_batches, "batch counter went backwards");
                    assert!(queries >= last_queries, "query counter went backwards");
                    // Queries are added one whole batch at a time, so a
                    // torn or partial observation would break divisibility.
                    assert_eq!(
                        queries % per_batch_queries,
                        0,
                        "query counter caught mid-update"
                    );
                    // Mid-flight a histogram may count an observation
                    // whose time its sum does not hold yet, never the
                    // reverse (recorded time is checked after the storm).
                    let latency = histogram(&snap, "hdoms_batch_latency_ms");
                    assert!(sum_within_counts(latency), "sum outran the counts");
                    // Physical bounds hold mid-flight.
                    let busy = gauge(&snap, "hdoms_workers_busy");
                    assert!((0..=3).contains(&busy), "workers_busy {busy} out of bounds");
                    let sessions = gauge(&snap, "hdoms_open_sessions");
                    assert_eq!(sessions, 0, "no sessions opened by this test");
                    last_batches = batches;
                    last_queries = queries;
                    checked += 1;
                }
                checked
            })
        };

        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let server = &server;
                let spectra = &spectra;
                scope.spawn(move || {
                    let client = server.next_client_id();
                    let mut batches = 0u64;
                    let mut queries = 0u64;
                    let mut psms = 0u64;
                    let mut identifications = 0u64;
                    for _ in 0..ROUNDS {
                        let result = server
                            .query_batch(client, &request_for(spectra.clone()))
                            .expect("deep queue, no deadline: nothing sheds");
                        batches += 1;
                        queries += result.stats.queries as u64;
                        psms += result.stats.psms as u64;
                        identifications += result.stats.identifications as u64;
                    }
                    (batches, queries, psms, identifications)
                })
            })
            .collect();
        let outcomes: Vec<(u64, u64, u64, u64)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        storming.store(false, Ordering::SeqCst);
        (outcomes, reader.join().unwrap())
    });
    assert!(snapshots_checked > 0, "the reader thread sampled the storm");

    // Sum the ground truth out of the receipts each client held.
    let batches: u64 = outcomes.iter().map(|o| o.0).sum();
    let queries: u64 = outcomes.iter().map(|o| o.1).sum();
    let psms: u64 = outcomes.iter().map(|o| o.2).sum();
    let identifications: u64 = outcomes.iter().map(|o| o.3).sum();
    assert_eq!(batches, (CLIENTS * ROUNDS) as u64);
    assert_eq!(queries, batches * per_batch_queries);

    // 1. Exact reconciliation: registry totals == receipt sums.
    let snap = server.registry().snapshot();
    assert_eq!(counter(&snap, "hdoms_query_batches_total"), batches);
    assert_eq!(counter(&snap, "hdoms_queries_total"), queries);
    assert_eq!(counter(&snap, "hdoms_psms_total"), psms);
    assert_eq!(
        counter(&snap, "hdoms_identifications_total"),
        identifications
    );
    // The one resident engine saw exactly the served batches.
    assert_eq!(counter(&snap, "hdoms_engine_batches_total"), batches);
    assert_eq!(counter(&snap, "hdoms_engine_queries_total"), queries);
    assert_eq!(counter(&snap, "hdoms_engine_psms_total"), psms);
    // So did the scheduler: every admission completed, none shed.
    assert_eq!(counter(&snap, "hdoms_sched_admitted_total"), batches);
    assert_eq!(counter(&snap, "hdoms_sched_completed_total"), batches);
    assert_eq!(counter(&snap, "hdoms_sched_rejected_busy_total"), 0);
    assert_eq!(counter(&snap, "hdoms_sched_shed_deadline_total"), 0);

    // 2. Histogram completeness: one observation per batch, everywhere,
    // and, quiescent, every observation's time is in the sum.
    let latency = histogram(&snap, "hdoms_batch_latency_ms");
    assert_eq!(latency.count(), batches);
    assert!(latency.sum_ms() > 0.0, "observations without recorded time");
    assert_eq!(histogram(&snap, "hdoms_queue_wait_ms").count(), batches);
    for stage in ["encode", "candidates", "score", "finalize"] {
        let h = histogram(&snap, &format!("hdoms_stage_{stage}_ms"));
        assert_eq!(h.count(), batches, "stage {stage} missed a batch");
    }

    // Quiescent gauges.
    assert_eq!(gauge(&snap, "hdoms_workers_busy"), 0);
    assert_eq!(gauge(&snap, "hdoms_open_sessions"), 0);
    assert_eq!(gauge(&snap, "hdoms_resident_indexes"), 1);

    // The storm ran with the cascade off (no per-request `prefilter`,
    // server default `off`): the prefilter series must not have moved,
    // and `server.stats` must agree with the registry about that.
    assert_eq!(counter(&snap, "hdoms_prefilter_candidates_pre_total"), 0);
    assert_eq!(counter(&snap, "hdoms_prefilter_candidates_post_total"), 0);
    assert_eq!(histogram(&snap, "hdoms_prefilter_sketch_ms").count(), 0);
    let stats = server.stats();
    assert_eq!(stats.prefilter_candidates_pre, 0);
    assert_eq!(stats.prefilter_candidates_post, 0);
    assert_eq!(stats.prefilter_sketch_ms, 0.0);
}

#[test]
fn prefiltered_batches_reconcile_registry_receipts_and_server_stats() {
    // The cascade's observability contract: the `hdoms_prefilter_*`
    // series move only for prefiltered batches, their totals equal the
    // sums of the per-batch receipt stats, and the `server.stats`
    // surface reads the same registry handles the engines record into.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9008);
    let server = Server::new(4);
    server
        .add_index("w", build_index(&workload.library))
        .expect("servable index");
    let spectra = batch_of(&workload);
    let client = server.next_client_id();

    // Two off batches (explicit and defaulted), three prefiltered ones.
    let mut request = request_for(spectra.clone());
    let off_result = server.query_batch(client, &request).expect("served");
    request.prefilter = Some(hdoms_prefilter::PrefilterConfig::Off);
    server.query_batch(client, &request).expect("served");
    assert_eq!(off_result.stats.sketch_ms, 0.0);
    assert_eq!(
        off_result.stats.candidates_pre,
        off_result.stats.candidates_scored
    );

    request.prefilter = Some(hdoms_prefilter::PrefilterConfig::TopK(16));
    let (mut pre_sum, mut post_sum, mut sketch_sum, mut prefiltered) = (0u64, 0u64, 0.0f64, 0u64);
    for _ in 0..3 {
        let result = server.query_batch(client, &request).expect("served");
        assert!(result.stats.candidates_scored <= result.stats.candidates_pre);
        pre_sum += result.stats.candidates_pre as u64;
        post_sum += result.stats.candidates_scored as u64;
        sketch_sum += result.stats.sketch_ms;
        prefiltered += 1;
    }
    assert!(pre_sum > 0, "tiny windows still generate candidates");

    // Registry ↔ receipt reconciliation: only the prefiltered batches
    // recorded, and they recorded exactly what their stats reported.
    let snap = server.registry().snapshot();
    assert_eq!(
        counter(&snap, "hdoms_prefilter_candidates_pre_total"),
        pre_sum
    );
    assert_eq!(
        counter(&snap, "hdoms_prefilter_candidates_post_total"),
        post_sum
    );
    let sketch = histogram(&snap, "hdoms_prefilter_sketch_ms");
    assert_eq!(sketch.count(), prefiltered);
    assert!(
        (sketch.sum_ms() - sketch_sum).abs() < 1.0,
        "sketch histogram sum {} ms disagrees with receipt sum {} ms",
        sketch.sum_ms(),
        sketch_sum
    );

    // `server.stats` ↔ registry: the same numbers through the wire
    // surface (the server reads the identical metric handles).
    let stats = server.stats();
    assert_eq!(stats.prefilter_candidates_pre, pre_sum);
    assert_eq!(stats.prefilter_candidates_post, post_sum);
    assert!((stats.prefilter_sketch_ms - sketch.sum_ms()).abs() < 1e-9);
}

/// ROADMAP 4(d), the part that exists today: one `query` and one
/// `session.open → submit → finalize` through [`Server::handle_as`], the
/// cascade on, over a mapped index squeezed until it evicts. The wire
/// `stats`/`receipt`, the registry and `server.stats` are three views of
/// the same numbers: counts agree exactly, clocks to the histogram's
/// half-nanosecond rounding per sample, and what `server.stats` and
/// `/metrics` both report is read off one handle, so it is *equal*.
#[test]
fn wire_receipts_registry_and_server_stats_tell_one_story() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9012);
    let path = std::env::temp_dir().join(format!("hdoms-one-story-{}.hdx", std::process::id()));
    build_index(&workload.library).write(&path).unwrap();
    let mut server = Server::new(2);
    server.set_prefilter(PrefilterConfig::TopK(16));
    server.load_index("w", path.to_str().unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let resident = server.stats().resident_bytes;
    assert!(resident > 0, "a mapped index is tracked");
    server.set_memory_budget(resident / 2);

    let stats_of = |server: &Server| match server.handle_as(LOCAL_CLIENT, &Request::ServerStats) {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let (before, stats_before) = (server.registry().snapshot(), stats_of(&server));
    assert!(stats_before.evictions > 0, "the squeeze evicted");

    let spectra = batch_of(&workload);
    let half = spectra.len() / 2;
    let Response::Result(queried) = server.handle_as(
        LOCAL_CLIENT,
        &Request::Query(request_for(spectra[..half].to_vec())),
    ) else {
        panic!("query answered");
    };
    let Response::SessionOpened { session, .. } = server.handle_as(
        LOCAL_CLIENT,
        &Request::SessionOpen {
            index: "w".to_owned(),
            window: WindowKind::Open,
            tier: Tier::Batch,
            prefilter: None,
        },
    ) else {
        panic!("session opened");
    };
    let Response::Receipt(receipt) = server.handle_as(
        LOCAL_CLIENT,
        &Request::SessionSubmit {
            session,
            spectra: spectra[half..].to_vec(),
        },
    ) else {
        panic!("submit answered");
    };
    let Response::Result(finalized) = server.handle_as(
        LOCAL_CLIENT,
        &Request::SessionFinalize { session, fdr: 0.01 },
    ) else {
        panic!("finalize answered");
    };
    let (after, stats_after) = (server.registry().snapshot(), stats_of(&server));

    // Wire ↔ registry, counts: exact.
    let moved = |name: &str| counter(&after, name) - counter(&before, name);
    let queries = (queried.stats.queries + receipt.queries) as u64;
    assert_eq!(queries, spectra.len() as u64);
    assert_eq!(moved("hdoms_query_batches_total"), 2);
    assert_eq!(moved("hdoms_queries_total"), queries);
    assert_eq!(moved("hdoms_engine_queries_total"), queries);
    assert_eq!(
        moved("hdoms_identifications_total"),
        (queried.stats.identifications + finalized.stats.identifications) as u64
    );
    assert_eq!(
        moved("hdoms_prefilter_candidates_pre_total"),
        (queried.stats.candidates_pre + receipt.candidates_pre) as u64
    );
    assert_eq!(
        moved("hdoms_prefilter_candidates_post_total"),
        (queried.stats.candidates_scored + receipt.candidates_scored) as u64
    );
    let visits: u64 = receipt.shard_timings.iter().map(|t| t.visits).sum();
    assert_eq!(visits, receipt.shards_touched as u64);
    assert_eq!(
        moved("hdoms_shard_visits_total"),
        queried.stats.shards_touched as u64 + visits
    );

    // Wire ↔ registry, clocks: each histogram saw the very figure the
    // wire reported, rounded to whole nanoseconds once per sample.
    let spent = |name: &str| histogram(&after, name).since(histogram(&before, name));
    for (name, wire_ms) in [
        (
            "hdoms_stage_encode_ms",
            queried.stats.encode_ms + receipt.encode_ms,
        ),
        (
            "hdoms_stage_candidates_ms",
            queried.stats.candidates_ms + receipt.candidates_ms,
        ),
        (
            "hdoms_stage_score_ms",
            queried.stats.score_ms + receipt.score_ms,
        ),
        (
            "hdoms_stage_finalize_ms",
            queried.stats.finalize_ms + finalized.stats.finalize_ms,
        ),
        (
            "hdoms_prefilter_sketch_ms",
            queried.stats.sketch_ms + receipt.sketch_ms,
        ),
        (
            "hdoms_batch_latency_ms",
            queried.stats.latency_ms + receipt.latency_ms,
        ),
    ] {
        let recorded = spent(name);
        assert_eq!(recorded.count(), 2, "{name}: one sample per batch");
        assert!(
            (recorded.sum_ms() - wire_ms).abs() <= 1e-6 + 1e-9,
            "{name}: registry {} ms, wire {wire_ms} ms",
            recorded.sum_ms()
        );
    }
    // The finalize reports the session's own submit clocks, to the float.
    assert_eq!(finalized.stats.encode_ms, receipt.encode_ms);
    assert_eq!(finalized.stats.score_ms, receipt.score_ms);
    assert_eq!(finalized.stats.sketch_ms, receipt.sketch_ms);

    // `server.stats` ↔ registry: one handle behind both, so equal — the
    // residency totals included, now that they have no second copy.
    for (stats, snap) in [(&stats_before, &before), (&stats_after, &after)] {
        assert_eq!(
            stats.prefilter_candidates_pre,
            counter(snap, "hdoms_prefilter_candidates_pre_total")
        );
        assert_eq!(
            stats.prefilter_candidates_post,
            counter(snap, "hdoms_prefilter_candidates_post_total")
        );
        assert_eq!(
            stats.prefilter_sketch_ms,
            histogram(snap, "hdoms_prefilter_sketch_ms").sum_ms()
        );
        assert_eq!(
            stats.evictions,
            counter(snap, "hdoms_shard_evictions_total")
        );
        assert_eq!(stats.reloads, counter(snap, "hdoms_shard_reloads_total"));
        assert_eq!(
            stats.resident_bytes as i64,
            gauge(snap, "hdoms_resident_bytes")
        );
        assert_eq!(
            stats.resident_shards as i64,
            gauge(snap, "hdoms_resident_shards")
        );
        assert!(stats.resident_bytes <= stats.memory_budget);
    }
    assert!(
        stats_after.reloads > stats_before.reloads,
        "searching the evicted half faulted shards back in"
    );
    assert_eq!(stats_after.completed - stats_before.completed, 2);
}

/// `docs/OBSERVABILITY.md` is checked documentation: the `(name, type)`
/// of every series a server with one resident index registers — each
/// declared once, in a `series!` table — is a row of a catalog table,
/// and every `hdoms_*` row the catalog lists is registered.
#[test]
fn the_catalog_lists_exactly_what_a_server_registers() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9013);
    let server = Server::new(2);
    server
        .add_index("w", build_index(&workload.library))
        .expect("servable index");
    let snap = server.registry().snapshot();
    let mut registered: Vec<(String, String)> = Vec::new();
    let mut list = |kind: &str, names: Vec<&String>| {
        registered.extend(names.into_iter().map(|n| (n.clone(), kind.to_owned())));
    };
    list("counter", snap.counters.iter().map(|(n, _)| n).collect());
    list("gauge", snap.gauges.iter().map(|(n, _)| n).collect());
    list(
        "histogram",
        snap.histograms.iter().map(|(n, _)| n).collect(),
    );
    registered.sort();

    let mut documented: Vec<(String, String)> = include_str!("../../../docs/OBSERVABILITY.md")
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let name = cells.next()?.strip_prefix("`hdoms_")?.strip_suffix('`')?;
            Some((format!("hdoms_{name}"), cells.next()?.to_owned()))
        })
        .collect();
    documented.sort();
    assert_eq!(
        documented, registered,
        "docs/OBSERVABILITY.md's catalog (left) and the registry (right) disagree"
    );
}

/// `Scheduler::new` is `with_metrics` on a registry nobody reads: one
/// scripted sequence — a grant, a `busy` rejection, a deadline shed, a
/// release, a second grant — leaves both with the same snapshot (the
/// two waits aside, which are clocks), and the shared registry carries
/// the aggregates of the per-tier store.
#[test]
fn both_scheduler_constructors_grant_shed_and_count_alike() {
    let config = SchedulerConfig {
        workers: 1,
        queue_depth: 1,
        deadline_ms: 20,
        interactive_weight: 2,
        interactive_queue_depth: 0,
    };
    let registry = Registry::new();
    let script = |scheduler: Scheduler| {
        let running = scheduler.admit(1, Tier::Batch).expect("free token");
        assert_eq!(running.workers(), 1);
        // Interactive may not queue at all; batch queues, then sheds.
        let busy = scheduler.admit(2, Tier::Interactive).err();
        assert!(matches!(busy, Some(ScheduleError::Busy { .. })), "{busy:?}");
        let shed = scheduler.admit(3, Tier::Batch).err();
        assert!(
            matches!(shed, Some(ScheduleError::Deadline { .. })),
            "{shed:?}"
        );
        drop(running);
        drop(scheduler.admit(2, Tier::Interactive).expect("token back"));
        let mut stats = scheduler.stats();
        let waited = stats.total_wait_ms;
        stats.total_wait_ms = 0.0;
        stats.tiers.iter_mut().for_each(|t| t.total_wait_ms = 0.0);
        (stats, waited)
    };
    let (plain, plain_waited) = script(Scheduler::new(config));
    let (shared, shared_waited) = script(Scheduler::with_metrics(config, &registry));
    assert_eq!(plain, shared);
    assert!(
        plain_waited >= 20.0 && shared_waited >= 20.0,
        "the shed waited"
    );
    assert_eq!(
        (
            shared.admitted,
            shared.completed,
            shared.rejected_busy,
            shared.shed_deadline
        ),
        (2, 2, 1, 1)
    );

    let snap = registry.snapshot();
    assert_eq!(
        counter(&snap, "hdoms_sched_admitted_total"),
        shared.admitted
    );
    assert_eq!(
        counter(&snap, "hdoms_sched_completed_total"),
        shared.completed
    );
    assert_eq!(
        counter(&snap, "hdoms_sched_rejected_busy_total"),
        shared.rejected_busy
    );
    assert_eq!(
        counter(&snap, "hdoms_sched_shed_deadline_total"),
        shared.shed_deadline
    );
    let wait = histogram(&snap, "hdoms_queue_wait_ms");
    assert_eq!(wait.count(), shared.admitted + shared.shed_deadline);
    assert!((wait.sum_ms() - shared_waited).abs() < 1e-3);
    assert_eq!(gauge(&snap, "hdoms_workers_busy"), 0);
}
