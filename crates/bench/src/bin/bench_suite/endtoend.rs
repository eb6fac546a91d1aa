//! The untraced section: what a user of the system sees. Every workload
//! reports the same seven metrics from the same phases — the query set
//! as the workload's users send it (A) and the same with the sketch
//! prefilter at its default K (B), taking turns — so a change shows on
//! the workload that exercises it and stays flat on the one that
//! bypasses it.

use crate::report::Report;
use crate::setup::{self, peak_rss_mb, Prepared, Scratch};
use crate::spec::{WorkloadDef, BATCH_SPECTRA, FDR, INTERACTIVE_RATE};
use crate::stats::{self, Sample, QUIET_STEAL_SHARE};
use crate::wire::{self, Connection, Lines, Verifier};
use hdoms_engine::Engine;
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::psm::Psm;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, DEFAULT_TOP_K};
use hdoms_serve::scheduler::Tier;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of one slice of the served mix. Slices without and with the
/// cascade take turns for the whole of `--seconds`, so each samples the
/// same stretch of the box's time.
const MIX_SLICE: Duration = Duration::from_millis(500);
/// `setup_s` is the median of this many set-ups where they fit in
/// `SETUP_WINDOW`, else the one: a 14 s build of 48 k references
/// averages over as much of the box's time as three 5 s builds do.
const SETUP_REPEATS: usize = 3;
const SETUP_WINDOW: Duration = Duration::from_secs(30);

/// Identification gates, set clear of what a correct program does
/// across seeds (a run that fails on an unlucky draw is worse than a
/// loose gate; regressions are the bounds' job). Over some fifty seeds
/// the simulated accelerator kept 0.85-1.01 of the exact backend's
/// identifications (the issue's 0.85 failed seed 12345 by a hair), and
/// the cascade at K = 256 moved identifications by up to 3.9 % on the
/// mass-dense library (fifty times fewer exact scans, and one decoy more
/// or less above the 1 % FDR threshold moves a dozen PSMs).
const MIN_IDS_VS_EXACT: f64 = 0.75;
const MAX_CASCADE_DRIFT: f64 = 0.10;

/// The prefilter setting of phase B.
pub fn cascade() -> Option<PrefilterConfig> {
    Some(PrefilterConfig::TopK(DEFAULT_TOP_K))
}

/// Set the workload up as an end-to-end run does (`repeated`) or once,
/// keeping the last. Returns it with each set-up's guest seconds;
/// `setup_s` is their median.
pub fn prepare_repeated(
    def: WorkloadDef,
    seed: u64,
    smoke: bool,
    scratch: &Scratch,
    repeated: bool,
) -> (Prepared, Vec<f64>) {
    let mut totals: Vec<f64> = Vec::new();
    let mut prepared = None;
    loop {
        // Release the previous set-up first, as a fresh process would.
        drop(prepared.take());
        let (p, guest_s, _) =
            stats::timed(|| setup::prepare(def, seed, smoke, scratch, totals.len()));
        prepared = Some(p);
        totals.push(guest_s);
        let fits = totals[0] * SETUP_REPEATS as f64 <= SETUP_WINDOW.as_secs_f64();
        if !repeated || !fits || totals.len() == SETUP_REPEATS {
            return (prepared.expect("a set-up was just made"), totals);
        }
    }
}

/// One whole-set search through the engine's public entry point.
pub fn search(
    engine: &Arc<Engine>,
    queries: &[Spectrum],
    window: PrecursorWindow,
    prefilter: Option<PrefilterConfig>,
) -> PipelineOutcome {
    engine
        .search_with_workers_opts(queries, window, FDR, setup::threads(), prefilter)
        .expect("an index-backed sharded engine accepts any prefilter")
        .0
}

/// Median over the samples taken while the guest had its CPUs, and how
/// many those were.
fn quiet_median(samples: &[Sample<f64>]) -> (f64, usize) {
    let kept = stats::quiet(samples);
    (stats::median(&kept), kept.len())
}

/// Latencies of the quiet samples' requests, sorted, in guest ms.
fn quiet_latencies(what: &str, samples: &[Sample<Vec<f64>>], report: &mut Report) -> Vec<f64> {
    let kept = stats::quiet(samples);
    report.fact(
        &format!("{what} samples kept"),
        format!(
            "{} of {} (steal <= {QUIET_STEAL_SHARE})",
            kept.len(),
            samples.len()
        ),
    );
    stats::sorted(kept.into_iter().flatten().collect())
}

/// `qps` or `cascade_qps` of a closed loop: spectra per request over the
/// median quiet request time.
fn put_rate(name: &str, spectra: usize, request_s: f64, samples: usize, report: &mut Report) {
    report.put(
        name,
        spectra as f64 / request_s,
        samples,
        "measured: request spectra / median quiet request time",
    );
}

/// In process, one caller, closed loop, taking turns: a batch of the set
/// without the cascade, the same batch with it, and on to the next
/// batch.
fn offline(p: &Prepared, seconds: f64, report: &mut Report) {
    let queries = &p.workload.queries;
    let window = p.def.window.window();

    // Whole-set passes: warm-up, `ids`, and the reference answers (a
    // query's best hit does not depend on what it is batched with).
    let primary = search(&p.engine, queries, window, None);
    let narrowed = search(&p.engine, queries, window, cascade());
    let best_of = |outcome: &PipelineOutcome| -> HashMap<u32, Psm> {
        outcome
            .psms
            .iter()
            .map(|psm| (psm.query_id, *psm))
            .collect()
    };
    let (best, best_narrowed) = (best_of(&primary), best_of(&narrowed));
    let agrees = |outcome: &PipelineOutcome, batch: &[Spectrum], best: &HashMap<u32, Psm>| {
        outcome
            .psms
            .iter()
            .all(|psm| best.get(&psm.query_id) == Some(psm))
            && outcome.psms.len() == batch.iter().filter(|q| best.contains_key(&q.id)).count()
    };

    // Equal batches only: a short last one would be a different request.
    let batches: Vec<&[Spectrum]> = queries
        .chunks_exact(p.def.timed_batch.min(queries.len()))
        .collect();
    let (mut batch_s, mut cascade_batch_s) = (Vec::new(), Vec::new());
    let (mut searched, mut wrong) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while batch_s.len() < 3 || Instant::now() < deadline {
        let batch = batches[batch_s.len() % batches.len()];
        for (prefilter, best, samples) in [
            (None, &best, &mut batch_s),
            (cascade(), &best_narrowed, &mut cascade_batch_s),
        ] {
            let (outcome, guest_s, steal_share) =
                stats::timed(|| search(&p.engine, batch, window, prefilter));
            searched += batch.len() as u64;
            wrong += batch.len() as u64 * u64::from(!agrees(&outcome, batch, best));
            samples.push(Sample {
                value: guest_s,
                steal_share,
            });
        }
    }
    report.put(
        "peak_rss_mb",
        peak_rss_mb(),
        1,
        "VmHWM after the timed phases",
    );
    report.count(2 * queries.len() as u64 + searched, 0);
    report.gate(wrong == 0, wrong, || {
        format!("{wrong} timed searches disagreed with the whole-set pass of the same seed")
    });

    let (request_s, kept) = quiet_median(&batch_s);
    report.fact(
        "timed batch samples kept",
        format!("{kept} of {} (steal <= {QUIET_STEAL_SHARE})", batch_s.len()),
    );
    put_rate("qps", batches[0].len(), request_s, kept, report);
    let (request_s, kept) = quiet_median(&cascade_batch_s);
    put_rate("cascade_qps", batches[0].len(), request_s, kept, report);
    report.put("ids", primary.identifications() as f64, 1, "count");
    report.put("cascade_ids", narrowed.identifications() as f64, 1, "count");

    let exact_ids = if Arc::ptr_eq(&p.engine, &p.exact) {
        primary.identifications()
    } else {
        search(&p.exact, queries, window, None).identifications()
    };
    quality_gates(
        primary.identifications(),
        narrowed.identifications(),
        exact_ids,
        report,
    );
}

/// `ids_vs_exact`, and the two identification gates.
fn quality_gates(ids: usize, cascade_ids: usize, exact_ids: usize, report: &mut Report) {
    let ratio = ids as f64 / exact_ids.max(1) as f64;
    report.put("ids_vs_exact", ratio, 1, "derived: ids / exact-backend ids");
    report.gate(ratio >= MIN_IDS_VS_EXACT, 1, || {
        format!("ids_vs_exact {ratio:.3} below {MIN_IDS_VS_EXACT} ({ids} against {exact_ids})")
    });
    let drift = (cascade_ids as f64 - ids as f64).abs() / ids.max(1) as f64;
    report.gate(drift <= MAX_CASCADE_DRIFT, 1, || {
        format!(
            "cascade_ids {cascade_ids} is {:.1}% off ids {ids}",
            drift * 100.0
        )
    });
}

/// One slice's exchanges as a sample: their latencies in guest
/// milliseconds of that slice.
fn slice_sample(exchanges: &[wire::Exchange], steal_share: f64) -> Sample<Vec<f64>> {
    Sample {
        value: exchanges
            .iter()
            .map(|e| e.latency_ms() * (1.0 - steal_share))
            .collect(),
        steal_share,
    }
}

/// The same through a resident server over loopback TCP: the tiered mix
/// on two connections, in slices whose batch lines take turns between no
/// cascade and the cascade.
fn served(p: &Prepared, seed: u64, seconds: f64, report: &mut Report) {
    let server = Arc::clone(p.server.as_ref().expect("a served workload has a server"));
    let addr = wire::listen(server);
    let queries = &p.workload.queries;
    let window = p.def.window;
    let singles = Lines::singles(queries, window);
    let batches = [
        Lines::batches(queries, window, None),
        Lines::batches(queries, window, cascade()),
    ];
    let whole = Lines::encode(queries, queries.len(), window, Tier::Batch, None);
    let whole_narrowed = Lines::encode(queries, queries.len(), window, Tier::Batch, cascade());
    let mut verifier = Verifier::new(&p.engine, queries, setup::threads());

    // Before the clock: the whole set as one request must render the
    // local engine's table byte for byte, with and without the cascade.
    let mut b = Connection::open(addr);
    let mut identifications = Vec::new();
    for lines in [&whole, &whole_narrowed] {
        let exchange = b.closed_loop(lines, Instant::now(), 1);
        let checked = verifier.check(lines, &exchange);
        report.count(checked.spectra_sent as u64, 0);
        report.gate(
            checked.spectra_failed == 0,
            checked.spectra_failed as u64,
            || format!("whole-set request over TCP: {}", checked.notes.join("; ")),
        );
        identifications.push(
            checked
                .results
                .first()
                .map_or(0, |r| r.stats.identifications),
        );
    }
    report.put("ids", identifications[0] as f64, 1, "count");
    report.put("cascade_ids", identifications[1] as f64, 1, "count");

    // The two connections stay open across the slices. A sample is one
    // exchange; `[0]` holds the mix without the cascade, `[1]` with.
    let mut a = Connection::open(addr);
    let (mut single_slices, mut interactive) = (Vec::new(), Vec::new());
    let mut batch_slices = [Vec::new(), Vec::new()];
    let mut batch = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while single_slices.len() < 6 || Instant::now() < deadline {
        for (turn, lines) in batches.iter().enumerate() {
            let slice_seed = seed.wrapping_add(single_slices.len() as u64);
            let (mut mixed, _, steal_share) = stats::timed(|| {
                wire::mixed_run(
                    &mut a,
                    &mut b,
                    &singles,
                    lines,
                    INTERACTIVE_RATE,
                    slice_seed,
                    MIX_SLICE,
                )
            });
            single_slices.push(slice_sample(&mixed.interactive, steal_share));
            batch_slices[turn].push(slice_sample(&mixed.batch, steal_share));
            interactive.append(&mut mixed.interactive);
            batch[turn].append(&mut mixed.batch);
        }
    }
    report.put(
        "peak_rss_mb",
        peak_rss_mb(),
        1,
        "VmHWM after the timed phases",
    );
    drop((a, b));

    // The clock has stopped: decode and check every response. A refused
    // or wrong answer fails the run, so rates may count every exchange.
    for (lines, exchanges) in [
        (&singles, &interactive),
        (&batches[0], &batch[0]),
        (&batches[1], &batch[1]),
    ] {
        let checked = verifier.check(lines, exchanges);
        report.count(checked.spectra_sent as u64, 0);
        report.gate(
            checked.spectra_failed == 0,
            checked.spectra_failed as u64,
            || format!("{} tier over TCP: {}", lines.tier, checked.notes.join("; ")),
        );
    }
    // The interactive tier's latency is a fact here and a per-layer
    // metric of the traced run, not a bounded one. With both generators,
    // both connection threads and both workers on two vCPUs, over ten
    // seeds its median from the due time spread by 20-58 % and its tail
    // by more; even connection A's singles with B idle spread by up to
    // 30 % (any latency that crosses threads moves with the host's load
    // by twice what batch throughput does) — wider than the contract's
    // cap on a bound.
    let latencies = quiet_latencies("mix slice", &single_slices, report);
    let tail = stats::supported_tail(latencies.len());
    report.fact(
        "interactive tier (unbounded)",
        format!(
            "p50 {:.3} ms, p{tail} {:.3} ms from the due time at {INTERACTIVE_RATE} req/s, {} samples",
            stats::percentile(&latencies, 50.0),
            stats::percentile(&latencies, tail),
            latencies.len()
        ),
    );
    // Closed loop: a connection's throughput is its batch size over its
    // round trip; the median round trip is the typical one.
    for (name, slices) in [("qps", &batch_slices[0]), ("cascade_qps", &batch_slices[1])] {
        let round_trips = quiet_latencies(name, slices, report);
        put_rate(
            name,
            BATCH_SPECTRA,
            stats::percentile(&round_trips, 50.0) / 1e3,
            round_trips.len(),
            report,
        );
    }
    // The local engine is the exact backend itself; the served table was
    // checked against it above.
    quality_gates(
        identifications[0],
        identifications[1],
        identifications[0],
        report,
    );
}

/// Run the untraced section of `p`'s workload for `seconds`.
pub fn run(p: &Prepared, seed: u64, seconds: f64, report: &mut Report) {
    if p.def.served {
        served(p, seed, seconds, report);
    } else {
        offline(p, seconds, report);
    }
}
