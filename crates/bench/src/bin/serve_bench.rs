//! Serve-path throughput benchmark with a machine-readable JSON summary.
//!
//! Measures, on an iPRG2012-shaped workload, what the serving layer
//! actually buys:
//!
//! * `residency_s` — one-time cost of making an index resident
//!   (load-from-bytes + warm backend reconstruction), paid per *process*
//!   instead of per *search*,
//! * `qps_batch_full` / `qps_batch_16` / `qps_batch_1` — served queries
//!   per second with the whole query set as one batch, 16-query batches,
//!   and single-query (interactive) batches, all against the same warm
//!   resident index,
//! * `mean_latency_ms_batch_1` — mean per-request latency in the
//!   interactive regime,
//! * `qps_session_16` — streaming-session throughput: 16-query batches
//!   submitted through one session and FDR-finalized once at the end
//!   (the cross-batch FDR mode),
//! * `qps_clients_{1,4,16}` / `wait_p50_ms_clients_{1,4,16}` /
//!   `wait_p99_ms_clients_{1,4,16}` / `shed_rate_clients_{1,4,16}` —
//!   contention scenarios: N concurrent clients hammer 16-query batches
//!   through the shared scheduler (bounded queue, fair round-robin,
//!   admission control); reported per scenario are aggregate served
//!   queries per second, the p50/p99 scheduler queue wait, and the
//!   fraction of batches shed with the structured `busy`/`deadline`
//!   errors,
//! * `hist_wait_p50_ms_clients_{1,4,16}` /
//!   `hist_wait_p99_ms_clients_{1,4,16}` — the same wait percentiles
//!   read back from the server registry's `hdoms_queue_wait_ms`
//!   log₂-bucket histogram (reported as bucket upper bounds); the
//!   bench asserts these land within one bucket of the exact
//!   Vec-of-samples percentiles, so the cheap always-on readout is
//!   continuously validated against ground truth,
//! * `p99_interactive_under_batch_ms` / `p99_interactive_flat_ms` —
//!   the mixed-tier storm: batch clients saturate a deliberately small
//!   worker pool while an interactive probe fires single-spectrum
//!   queries; p99 probe latency is measured once with the probe on the
//!   `interactive` tier (weighted priority) and once on the `batch`
//!   tier (flat fairness). The bench asserts the tiered p99 is
//!   strictly lower while the batch side keeps every worker busy,
//! * `coalesce_ratio` — interactive requests per engine batch when
//!   four clients fire while every worker token is held, so the first
//!   queues and the rest join its admission (requests ÷ batches; > 1
//!   means cross-request coalescing merged work),
//! * `evictions_total` / `reloads_total` — shard-LRU eviction against
//!   a mapped index squeezed to half its resident footprint; the bench
//!   asserts the budget holds and the post-eviction rows are
//!   byte-identical to the pre-eviction rows,
//! * `shards_touched` / `candidates_scored` — the per-batch stats the
//!   server reports, summed over the full-batch run,
//! * `psms_identical` — whether the served full-batch rows render to the
//!   exact table a local `search --index` produces,
//! * `session_identical` — whether the 16-batch streamed session's
//!   finalized rows render to that same single-run table (they must:
//!   that is the session contract).
//!
//! The JSON object is printed as the **last line** of stdout so the perf
//! trajectory can be tracked with `... | tail -1 | <tool>`.
//!
//! Usage: `serve_bench [--scale <f64>] [--seed <u64>] [--dim <usize>]`

use hdoms_bench::FigureOptions;
use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_obs::metrics::bucket_of;
use hdoms_oms::psm::{render_table, render_table_rows};
use hdoms_oms::search::ExactBackendConfig;
use hdoms_oms::window::PrecursorWindow;
use hdoms_serve::protocol::{QueryRequest, QuerySpectrum, WindowKind};
use hdoms_serve::scheduler::{SchedulerConfig, Tier};
use hdoms_serve::server::{Server, LOCAL_CLIENT};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const THREADS: usize = 8;

/// Queue bound for the contention scenarios: small enough that a
/// 16-client storm actually exercises admission control.
const CONTENTION_QUEUE_DEPTH: usize = 8;

/// One contention scenario's outcome.
struct Contention {
    qps: f64,
    wait_p50_ms: f64,
    wait_p99_ms: f64,
    /// The same percentiles as read from the registry's
    /// `hdoms_queue_wait_ms` histogram (bucket upper bounds), delta'd
    /// to this scenario — cross-checked below against the exact
    /// Vec-of-samples percentiles.
    hist_wait_p50_ms: f64,
    hist_wait_p99_ms: f64,
    shed_rate: f64,
}

/// `clients` concurrent connections each stream their share of the
/// query set as 16-query batches through `server`'s scheduler; batches
/// rejected with `busy`/`deadline` count as shed.
fn run_contention(server: &Server, spectra: &[QuerySpectrum], clients: usize) -> Contention {
    // Read, not registered: the scheduler's series table declares it.
    let wait_hist = || {
        let snapshot = server.registry().snapshot();
        let found = snapshot
            .histograms
            .into_iter()
            .find(|(name, _)| name == "hdoms_queue_wait_ms");
        found.expect("the scheduler registers its wait histogram").1
    };
    let hist_baseline = wait_hist();
    let per_client: Vec<Vec<&[QuerySpectrum]>> = (0..clients)
        .map(|c| {
            spectra
                .chunks(16)
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(_, chunk)| chunk)
                .collect()
        })
        .collect();
    let start = Instant::now();
    let outcomes: Vec<(Vec<f64>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|batches| {
                scope.spawn(move || {
                    let client = server.next_client_id();
                    let mut waits = Vec::new();
                    let mut served = 0usize;
                    let mut shed = 0usize;
                    for batch in batches {
                        let request = QueryRequest {
                            index: "bench".to_owned(),
                            window: WindowKind::Open,
                            fdr: 0.01,
                            tier: Tier::Batch,
                            prefilter: None,
                            spectra: batch.to_vec(),
                        };
                        match server.query_batch(client, &request) {
                            Ok(result) => {
                                waits.push(result.stats.wait_ms);
                                served += result.stats.queries;
                            }
                            Err(_) => shed += 1,
                        }
                    }
                    (waits, served, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut waits: Vec<f64> = outcomes.iter().flat_map(|(w, _, _)| w.clone()).collect();
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let served: usize = outcomes.iter().map(|(_, s, _)| s).sum();
    let shed: usize = outcomes.iter().map(|(_, _, s)| s).sum();
    let batches = waits.len() + shed;
    let percentile = |p: f64| -> f64 {
        if waits.is_empty() {
            return 0.0;
        }
        let idx = ((waits.len() as f64 - 1.0) * p).round() as usize;
        waits[idx]
    };
    let wait_p50_ms = percentile(0.50);
    let wait_p99_ms = percentile(0.99);

    // Read the same percentiles back from the registry histogram and
    // cross-check: the log₂-bucket readout must land within one bucket
    // of the exact sample percentiles (the two use slightly different
    // rank conventions, so adjacency — not equality — is the contract).
    let delta = wait_hist().since(&hist_baseline);
    assert_eq!(
        delta.count(),
        waits.len() as u64,
        "registry histogram saw every admitted batch of this scenario"
    );
    let hist_wait_p50_ms = delta.p50_ms();
    let hist_wait_p99_ms = delta.p99_ms();
    if !waits.is_empty() {
        for (p, exact, hist) in [
            (50, wait_p50_ms, hist_wait_p50_ms),
            (99, wait_p99_ms, hist_wait_p99_ms),
        ] {
            let exact_bucket = bucket_of(exact) as i64;
            let hist_bucket = bucket_of(hist) as i64;
            assert!(
                (exact_bucket - hist_bucket).abs() <= 1,
                "p{p} disagrees beyond one bucket: exact {exact:.4} ms \
                 (bucket {exact_bucket}) vs histogram {hist:.4} ms \
                 (bucket {hist_bucket})"
            );
        }
    }
    Contention {
        qps: served as f64 / wall_s.max(1e-9),
        wait_p50_ms,
        wait_p99_ms,
        hist_wait_p50_ms,
        hist_wait_p99_ms,
        shed_rate: if batches == 0 {
            0.0
        } else {
            shed as f64 / batches as f64
        },
    }
}

/// Exact percentile over a sorted sample vector (nearest-rank).
fn percentile_of(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The mixed-tier storm's outcome for one probe tier.
struct Storm {
    p99_probe_ms: f64,
    probes: usize,
    batch_qps: f64,
}

/// Worker pool for the mixed-tier storm: small enough that the batch
/// clients keep every worker busy for the whole run.
const STORM_WORKERS: usize = 2;
const STORM_BATCH_CLIENTS: usize = 8;
const STORM_ROUNDS: usize = 6;
const STORM_BATCH_SIZE: usize = 64;

/// `STORM_BATCH_CLIENTS` batch-tier clients hammer `server` with
/// `STORM_BATCH_SIZE`-query batches while one probe client fires
/// single-spectrum queries on `probe_tier`, measuring the wall latency
/// each probe experiences under saturation.
fn run_tiered_storm(server: &Server, spectra: &[QuerySpectrum], probe_tier: Tier) -> Storm {
    let storm_batch: Vec<QuerySpectrum> = spectra
        .iter()
        .cycle()
        .take(STORM_BATCH_SIZE)
        .cloned()
        .collect();
    let request_as = |tier: Tier, spectra: Vec<QuerySpectrum>| QueryRequest {
        index: "bench".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier,
        prefilter: None,
        spectra,
    };
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (batch_served, probe_latencies) = std::thread::scope(|scope| {
        let batch_handles: Vec<_> = (0..STORM_BATCH_CLIENTS)
            .map(|_| {
                let (done, storm_batch) = (&done, &storm_batch);
                scope.spawn(move || {
                    let client = server.next_client_id();
                    let mut served = 0usize;
                    for _ in 0..STORM_ROUNDS {
                        let request = request_as(Tier::Batch, storm_batch.clone());
                        served += server
                            .query_batch(client, &request)
                            .expect("storm batch")
                            .stats
                            .queries;
                    }
                    done.store(true, Ordering::Release);
                    served
                })
            })
            .collect();
        let probe = scope.spawn(|| {
            let client = server.next_client_id();
            let mut latencies = Vec::new();
            while !done.load(Ordering::Acquire) {
                let request = request_as(probe_tier, spectra[..1].to_vec());
                let sent = Instant::now();
                server.query_batch(client, &request).expect("storm probe");
                latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            }
            latencies
        });
        let served: usize = batch_handles.into_iter().map(|h| h.join().unwrap()).sum();
        (served, probe.join().unwrap())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut latencies = probe_latencies;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Storm {
        p99_probe_ms: percentile_of(&latencies, 0.99),
        probes: latencies.len(),
        batch_qps: batch_served as f64 / wall_s.max(1e-9),
    }
}

fn main() {
    let options = FigureOptions::parse(0.01, 2048);
    let workload =
        SyntheticWorkload::generate(&WorkloadSpec::iprg2012(options.scale), options.seed);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = options.dim;
    let index = LibraryIndex::build(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            entries_per_shard: 512,
            threads: THREADS,
        },
    );
    let bytes = index.to_bytes();

    // Residency: what one process start costs before the first answer.
    let start = Instant::now();
    let loaded = LibraryIndex::from_bytes(&bytes, THREADS).expect("index bytes are valid");
    let server = Server::new(THREADS);
    server.add_index("bench", loaded).expect("servable index");
    let residency_s = start.elapsed().as_secs_f64();

    let spectra: Vec<QuerySpectrum> = workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect();
    let request_for = |batch: &[QuerySpectrum]| QueryRequest {
        index: "bench".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier: Tier::Batch,
        prefilter: None,
        spectra: batch.to_vec(),
    };

    // One warm-up pass, then timed passes per batching regime.
    let _ = server
        .query_batch(LOCAL_CLIENT, &request_for(&spectra))
        .expect("warm-up");
    let timed = |batch_size: usize| {
        let batches: Vec<&[QuerySpectrum]> = if batch_size == 0 {
            vec![&spectra[..]]
        } else {
            spectra.chunks(batch_size).collect()
        };
        let start = Instant::now();
        let mut latency_ms = 0.0;
        let mut shards = 0usize;
        let mut candidates = 0usize;
        let mut rows = Vec::new();
        for batch in &batches {
            let result = server
                .query_batch(LOCAL_CLIENT, &request_for(batch))
                .expect("batch");
            latency_ms += result.stats.latency_ms;
            shards += result.stats.shards_touched;
            candidates += result.stats.candidates_scored;
            rows.extend(result.rows);
        }
        let wall_s = start.elapsed().as_secs_f64();
        (
            spectra.len() as f64 / wall_s.max(1e-9),
            latency_ms / batches.len() as f64,
            shards,
            candidates,
            rows,
        )
    };
    let (qps_full, _, shards_touched, candidates_scored, served_rows) = timed(0);
    let (qps_16, _, _, _, _) = timed(16);
    let (qps_1, latency_1, _, _, _) = timed(1);

    // Streaming session: 16-query batches through one session, FDR
    // finalized once over everything (the cross-batch FDR mode).
    let session_start = Instant::now();
    let session = server
        .open_session("bench", WindowKind::Open.window(), Tier::Batch, None)
        .expect("session opens");
    for batch in spectra.chunks(16) {
        server
            .submit_session(LOCAL_CLIENT, session, batch)
            .expect("session batch");
    }
    let session_result = server
        .finalize_session(session, 0.01)
        .expect("session finalize");
    let qps_session_16 = spectra.len() as f64 / session_start.elapsed().as_secs_f64().max(1e-9);

    // Contention: N concurrent clients against a scheduler with a
    // deliberately small queue, so 16 clients exercise admission
    // control. A separate resident server keeps the counters clean.
    let contention_server = Server::with_scheduler(
        THREADS,
        SchedulerConfig {
            workers: THREADS,
            queue_depth: CONTENTION_QUEUE_DEPTH,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    contention_server
        .add_index(
            "bench",
            LibraryIndex::from_bytes(&bytes, THREADS).expect("index bytes are valid"),
        )
        .expect("servable index");
    let contention_1 = run_contention(&contention_server, &spectra, 1);
    let contention_4 = run_contention(&contention_server, &spectra, 4);
    let contention_16 = run_contention(&contention_server, &spectra, 16);
    let sched = contention_server.stats();
    // Sanity on the reported accounting (the real in-flight bound is
    // asserted by the scheduler's own tests with external measurement).
    assert!(
        sched.peak_workers_busy <= THREADS,
        "scheduler accounting exceeded its worker budget"
    );

    // Mixed-tier storm: the same saturating batch load, probed once
    // with flat fairness (probe on the batch tier) and once with the
    // interactive tier's weighted priority. The priority probe must see
    // a strictly lower p99 while the batch side keeps the (small)
    // worker pool fully busy.
    let storm_server = Server::with_scheduler(
        THREADS,
        SchedulerConfig {
            workers: STORM_WORKERS,
            queue_depth: 64,
            deadline_ms: 0,
            ..SchedulerConfig::default()
        },
    );
    storm_server
        .add_index(
            "bench",
            LibraryIndex::from_bytes(&bytes, THREADS).expect("index bytes are valid"),
        )
        .expect("servable index");
    let storm_flat = run_tiered_storm(&storm_server, &spectra, Tier::Batch);
    let storm_tiered = run_tiered_storm(&storm_server, &spectra, Tier::Interactive);
    let storm_stats = storm_server.stats();
    assert_eq!(
        storm_stats.peak_workers_busy, STORM_WORKERS,
        "the batch storm must saturate the worker pool"
    );
    assert!(
        storm_tiered.p99_probe_ms < storm_flat.p99_probe_ms,
        "tiering must cut interactive p99 under batch load: \
         tiered {:.2} ms vs flat {:.2} ms",
        storm_tiered.p99_probe_ms,
        storm_flat.p99_probe_ms
    );

    // Coalescing: each round holds every worker token while four
    // interactive clients fire 4-spectrum queries; the first queues and
    // leads, the rest join its group, and the release runs the volley
    // as fewer engine batches.
    let coalesce_server = Server::with_scheduler(THREADS, SchedulerConfig::default());
    coalesce_server
        .add_index(
            "bench",
            LibraryIndex::from_bytes(&bytes, THREADS).expect("index bytes are valid"),
        )
        .expect("servable index");
    const COALESCE_CLIENTS: usize = 4;
    const COALESCE_ROUNDS: usize = 25;
    let request = QueryRequest {
        index: "bench".to_owned(),
        window: WindowKind::Open,
        fdr: 0.01,
        tier: Tier::Interactive,
        prefilter: None,
        spectra: spectra[..4.min(spectra.len())].to_vec(),
    };
    for _ in 0..COALESCE_ROUNDS {
        let scheduler = coalesce_server.scheduler();
        let held = scheduler.admit(0, Tier::Batch).expect("idle server");
        std::thread::scope(|scope| {
            for _ in 0..COALESCE_CLIENTS {
                let (coalesce_server, request) = (&coalesce_server, &request);
                scope.spawn(move || {
                    let client = coalesce_server.next_client_id();
                    coalesce_server
                        .query_batch(client, request)
                        .expect("coalesced volley");
                });
            }
            while scheduler.stats().tier(Tier::Interactive).queued == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(held);
        });
    }
    let coalesce_stats = coalesce_server.stats();
    let coalesce_ratio =
        coalesce_stats.coalesced_requests as f64 / coalesce_stats.coalesced_batches.max(1) as f64;
    assert!(
        coalesce_ratio > 1.0,
        "lockstep volleys must coalesce: {} requests in {} batches",
        coalesce_stats.coalesced_requests,
        coalesce_stats.coalesced_batches
    );

    // Eviction: a mapped copy of the same index squeezed to half its
    // resident footprint. Cold shards leave, searches fault them back
    // in, and the rows never change.
    let evict_path =
        std::env::temp_dir().join(format!("hdoms-serve-bench-{}.hdx", std::process::id()));
    index.write(&evict_path).expect("index file");
    let mut evict_server = Server::new(THREADS);
    evict_server
        .load_index("bench", evict_path.to_str().expect("utf-8 temp path"))
        .expect("mapped index");
    std::fs::remove_file(&evict_path).ok();
    let evict_baseline = evict_server
        .query_batch(LOCAL_CLIENT, &request_for(&spectra))
        .expect("pre-eviction batch");
    let resident_full = evict_server.stats().resident_bytes;
    evict_server.set_memory_budget(resident_full / 2);
    let evict_after = evict_server
        .query_batch(LOCAL_CLIENT, &request_for(&spectra))
        .expect("post-eviction batch");
    assert_eq!(
        evict_baseline.rows, evict_after.rows,
        "eviction must never change served rows"
    );
    let evict_stats = evict_server.stats();
    assert!(evict_stats.evictions > 0, "the squeeze evicted shards");
    assert!(evict_stats.reloads > 0, "the re-query faulted shards back");
    assert!(
        evict_stats.resident_bytes <= resident_full / 2,
        "the memory budget holds after the batch"
    );

    // Fidelity: the served full batch and the streamed session must
    // both render the local engine's table.
    let engine = server.engine("bench").expect("resident engine");
    let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    let local_table = render_table(engine.peptides(), &outcome);
    let psms_identical = render_table_rows(&served_rows) == local_table;
    let session_identical = render_table_rows(&session_result.rows) == local_table;
    let resident = engine.index().expect("index-backed engine");

    println!(
        "== serve bench ({}, dim {}) ==",
        workload.spec.name, options.dim
    );
    println!("references          {:>10}", resident.entry_count());
    println!("shards              {:>10}", resident.shards().len());
    println!("queries             {:>10}", spectra.len());
    println!("residency           {residency_s:>10.3} s (load + warm backend, once per process)");
    println!("served, one batch   {qps_full:>10.1} queries/s");
    println!("served, batch=16    {qps_16:>10.1} queries/s");
    println!("served, batch=1     {qps_1:>10.1} queries/s   ({latency_1:.2} ms/request)");
    println!("session, batch=16   {qps_session_16:>10.1} queries/s (cross-batch FDR)");
    for (clients, c) in [(1, &contention_1), (4, &contention_4), (16, &contention_16)] {
        println!(
            "contended, {clients:>2} client{} {:>8.1} queries/s   (wait p50 {:.2} / p99 {:.2} ms, \
             histogram {:.2} / {:.2} ms, shed {:.1}%)",
            if clients == 1 { " " } else { "s" },
            c.qps,
            c.wait_p50_ms,
            c.wait_p99_ms,
            c.hist_wait_p50_ms,
            c.hist_wait_p99_ms,
            c.shed_rate * 100.0,
        );
    }
    println!(
        "scheduler           {:>10} peak busy of {} workers, {} busy-rejected, {} shed",
        sched.peak_workers_busy, sched.workers, sched.rejected_busy, sched.shed_deadline
    );
    println!(
        "tiered storm        p99 {:>7.2} ms interactive vs {:.2} ms flat \
         ({} / {} probes, batch {:.1} queries/s, {} workers saturated)",
        storm_tiered.p99_probe_ms,
        storm_flat.p99_probe_ms,
        storm_tiered.probes,
        storm_flat.probes,
        storm_tiered.batch_qps,
        STORM_WORKERS,
    );
    println!(
        "coalescing          {:>10.2} requests/batch ({} requests in {} engine batches)",
        coalesce_ratio, coalesce_stats.coalesced_requests, coalesce_stats.coalesced_batches,
    );
    println!(
        "eviction            {:>10} evictions, {} reloads, resident {} of {} bytes",
        evict_stats.evictions, evict_stats.reloads, evict_stats.resident_bytes, resident_full,
    );
    println!("shards touched      {shards_touched:>10}");
    println!("candidates scored   {candidates_scored:>10}");
    println!("identical PSMs      {psms_identical:>10}");
    println!("session identical   {session_identical:>10}");

    // Machine-readable trailer (hand-rolled: no JSON crate resolves
    // offline).
    println!(
        "{{\"bench\":\"serve\",\"workload\":\"{}\",\"dim\":{},\"scale\":{},\"seed\":{},\
         \"references\":{},\"shards\":{},\"queries\":{},\"residency_s\":{:.6},\
         \"qps_batch_full\":{:.3},\"qps_batch_16\":{:.3},\"qps_batch_1\":{:.3},\
         \"mean_latency_ms_batch_1\":{:.4},\"qps_session_16\":{:.3},\
         \"qps_clients_1\":{:.3},\"wait_p50_ms_clients_1\":{:.4},\
         \"wait_p99_ms_clients_1\":{:.4},\"hist_wait_p50_ms_clients_1\":{:.4},\
         \"hist_wait_p99_ms_clients_1\":{:.4},\"shed_rate_clients_1\":{:.4},\
         \"qps_clients_4\":{:.3},\"wait_p50_ms_clients_4\":{:.4},\
         \"wait_p99_ms_clients_4\":{:.4},\"hist_wait_p50_ms_clients_4\":{:.4},\
         \"hist_wait_p99_ms_clients_4\":{:.4},\"shed_rate_clients_4\":{:.4},\
         \"qps_clients_16\":{:.3},\"wait_p50_ms_clients_16\":{:.4},\
         \"wait_p99_ms_clients_16\":{:.4},\"hist_wait_p50_ms_clients_16\":{:.4},\
         \"hist_wait_p99_ms_clients_16\":{:.4},\"shed_rate_clients_16\":{:.4},\
         \"sched_workers\":{},\"sched_queue_depth\":{},\"sched_peak_workers_busy\":{},\
         \"sched_rejected_busy\":{},\"sched_shed_deadline\":{},\
         \"p99_interactive_under_batch_ms\":{:.4},\"p99_interactive_flat_ms\":{:.4},\
         \"storm_batch_qps\":{:.3},\"coalesce_ratio\":{:.4},\
         \"coalesced_requests\":{},\"coalesced_batches\":{},\
         \"evictions_total\":{},\"reloads_total\":{},\
         \"shards_touched\":{},\
         \"candidates_scored\":{},\"psms_identical\":{},\"session_identical\":{}}}",
        workload.spec.name,
        options.dim,
        options.scale,
        options.seed,
        resident.entry_count(),
        resident.shards().len(),
        spectra.len(),
        residency_s,
        qps_full,
        qps_16,
        qps_1,
        latency_1,
        qps_session_16,
        contention_1.qps,
        contention_1.wait_p50_ms,
        contention_1.wait_p99_ms,
        contention_1.hist_wait_p50_ms,
        contention_1.hist_wait_p99_ms,
        contention_1.shed_rate,
        contention_4.qps,
        contention_4.wait_p50_ms,
        contention_4.wait_p99_ms,
        contention_4.hist_wait_p50_ms,
        contention_4.hist_wait_p99_ms,
        contention_4.shed_rate,
        contention_16.qps,
        contention_16.wait_p50_ms,
        contention_16.wait_p99_ms,
        contention_16.hist_wait_p50_ms,
        contention_16.hist_wait_p99_ms,
        contention_16.shed_rate,
        sched.workers,
        sched.queue_depth,
        sched.peak_workers_busy,
        sched.rejected_busy,
        sched.shed_deadline,
        storm_tiered.p99_probe_ms,
        storm_flat.p99_probe_ms,
        storm_tiered.batch_qps,
        coalesce_ratio,
        coalesce_stats.coalesced_requests,
        coalesce_stats.coalesced_batches,
        evict_stats.evictions,
        evict_stats.reloads,
        shards_touched,
        candidates_scored,
        psms_identical,
        session_identical,
    );
}
