//! The traced section: one pass of the workload re-composed from the
//! layers' public functions with a span around every call, then each
//! layer timed on its own on the workload's inputs. Everything here is
//! measured from outside the program; spans inside it are a later
//! issue. Every workload runs every probe, so "predicted flat"
//! predictions have a number to be checked against.

use crate::endtoend::{cascade, search};
use crate::report::Report;
use crate::setup::{self, Prepared};
use crate::spans::Tracer;
use crate::spec::{Backend, FDR, INDEX_NAME, INTERACTIVE_RATE};
use crate::stats::{self, SplitMix};
use crate::wire::{self, Connection, Lines};
use hdoms_baselines::annsolo::{AnnSoloBackend, AnnSoloConfig};
use hdoms_core::accelerator::{AcceleratorConfig, OmsAccelerator};
use hdoms_core::perf::{RramModel, WorkloadShape};
use hdoms_engine::{Engine, ReferenceMeta, ShardTiming};
use hdoms_hdc::BinaryHypervector;
use hdoms_index::{LibraryIndex, ShardedBackend};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::fdr::filter_fdr;
use hdoms_oms::pipeline::{assemble_psms, PipelineOutcome, ReferenceCatalog};
use hdoms_oms::psm::render_table;
use hdoms_oms::search::candidate_lists;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterStats, SketchIndex, DEFAULT_TOP_K};
use hdoms_serve::protocol::{QueryResult, Request, Response};
use hdoms_serve::scheduler::SchedulerConfig;
use hdoms_serve::server::Server;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spectra the single-threaded probes (encode, sketch, accelerator) use
/// at most; enough for a steady median, small enough to stay cheap.
const PROBE_SPECTRA: usize = 256;
/// References of the stand-in accelerator on workloads whose own index
/// is exact (the simulated build costs ~3 ms per reference).
const STAND_IN_REFERENCES: usize = 64;
/// Spectra the accelerator probes and the ANN-SoLo pass use at most.
const SLOW_PROBE_SPECTRA: usize = 32;
const ANNSOLO_SPECTRA: usize = 128;
/// Rates of the ladder and the latency limit a rate must meet.
const LADDER_RATES: [f64; 3] = [30.0, 60.0, 120.0];
const LADDER_LIMIT_MS: f64 = 50.0;

/// The layers of one engine, taken apart through public constructors.
struct Layers<'a> {
    engine: &'a Arc<Engine>,
    pre: Preprocessor,
    candidates: CandidateIndex,
    backend: ShardedBackend,
    sketch: Arc<SketchIndex>,
    window: PrecursorWindow,
}

/// What one re-composed pass produced, beside its spans.
struct Pass {
    root: usize,
    /// Wall time of the pass by a clock of its own, outside the spans.
    wall_ms: f64,
    table: String,
    outcome: PipelineOutcome,
    binned: Vec<BinnedSpectrum>,
    cands: Vec<Vec<u32>>,
    timings: Vec<ShardTiming>,
    stats: PrefilterStats,
}

impl Pass {
    /// The counts that must repeat exactly for a fixed seed.
    fn counts(&self) -> [u64; 6] {
        [
            self.outcome.rejected_queries as u64,
            self.candidates(),
            self.timings.iter().map(|t| t.visits).sum(),
            self.stats.candidates_pre,
            self.stats.candidates_post,
            self.outcome.identifications() as u64,
        ]
    }

    /// Precursor-window candidates over the whole pass.
    fn candidates(&self) -> u64 {
        self.cands.iter().map(|c| c.len() as u64).sum()
    }

    /// Shard-scoring time summed over every visit, milliseconds (summed
    /// across workers, so divide by the worker count for wall time).
    fn shard_ms(&self) -> f64 {
        self.timings.iter().map(|t| t.ms).sum()
    }
}

impl Layers<'_> {
    /// `run_batch → candidate_lists → search_batch_prefiltered →
    /// assemble_psms → filter_fdr`, each inside its own span.
    fn pass(
        &self,
        tracer: &mut Tracer,
        request: u64,
        queries: &[Spectrum],
        k: Option<usize>,
    ) -> Pass {
        let threads = setup::threads();
        let start = Instant::now();
        let (root, mut pass) = tracer.scope("pass", request, |t| {
            let (_, (binned, rejected)) =
                t.scope("ms.preprocess", request, |_| self.pre.run_batch(queries));
            let (_, cands) = t.scope("oms.candidates", request, |_| {
                candidate_lists(&self.candidates, &self.window, &binned)
            });
            let (_, (hits, timings, stats)) = t.scope("index.score", request, |_| {
                self.backend.search_batch_prefiltered(
                    &binned,
                    &cands,
                    Some(threads),
                    k.map(|k| (self.sketch.as_ref(), k)),
                )
            });
            let (_, psms) = t.scope("oms.assemble", request, |_| {
                assemble_psms(&binned, &hits, self.engine.meta())
            });
            let (_, fdr) = t.scope("oms.fdr", request, |_| filter_fdr(&psms, FDR));
            let scored: u64 = match k {
                Some(_) => stats.candidates_post,
                None => cands.iter().map(|c| c.len() as u64).sum(),
            };
            let outcome = PipelineOutcome {
                backend_name: self.engine.backend_name(),
                psms,
                accepted: fdr.accepted,
                threshold_score: fdr.threshold_score,
                decoys_above: fdr.decoys_above,
                rejected_queries: rejected,
                total_queries: queries.len(),
                mean_candidates: scored as f64 / binned.len().max(1) as f64,
            };
            Pass {
                root: 0,
                wall_ms: 0.0,
                table: render_table(self.engine.peptides(), &outcome),
                outcome,
                binned,
                cands,
                timings,
                stats,
            }
        });
        pass.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        pass.root = root;
        pass
    }
}

/// The reference every layer probe works from: the traced pass of median
/// duration and the untraced engine time it is compared with.
struct Reference {
    pass: Pass,
    /// Wall time of `pass`, and of its children by span name, ms.
    pass_ms: f64,
    score_ms: f64,
    assemble_fdr_ms: f64,
    children_ms: f64,
    /// Median wall time of the engine's own entry point, ms.
    untraced_ms: f64,
}

/// Shared by the probes: the workload, its layers, the time budget.
struct Probes<'a> {
    p: &'a Prepared,
    layers: Layers<'a>,
    index: &'a LibraryIndex,
    seconds: f64,
}

impl Probes<'_> {
    fn share(&self, part: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * part)
    }

    fn queries(&self) -> &[Spectrum] {
        &self.p.workload.queries
    }

    /// Microseconds per query of `ms` spent on the whole set.
    fn per_query_us(&self, ms: f64) -> f64 {
        ms * 1e3 / self.queries().len() as f64
    }
}

/// Run the traced section of `p`'s workload, spending about `seconds`
/// on the probes. Returns the span log.
pub fn run(p: &Prepared, seed: u64, seconds: f64, report: &mut Report) -> Tracer {
    let threads = setup::threads();
    let index = p
        .engine
        .index()
        .expect("every workload's engine is index-backed");
    let probes = Probes {
        p,
        layers: Layers {
            engine: &p.engine,
            pre: Preprocessor::new(p.engine.preprocess()),
            candidates: index.candidate_index(),
            backend: index
                .sharded_backend(threads)
                .expect("an index wires its own kind"),
            sketch: index.sketch_index(),
            window: p.def.window.window(),
        },
        index,
        seconds,
    };
    let mut tracer = Tracer::new();
    let mut laps: Vec<String> = Vec::new();
    let mut lap_start = Instant::now();
    let mut lap = |name: &str| {
        laps.push(format!("{name} {:.2}", lap_start.elapsed().as_secs_f64()));
        lap_start = Instant::now();
    };

    let reference = passes(&probes, &mut tracer, report);
    lap("passes");
    ms_and_oms(&probes, &reference, report);
    lap("ms+oms");
    let query_hvs = hdc(&probes, &reference, report);
    lap("hdc");
    index_probes(&probes, &reference, report);
    lap("index");
    prefilter(&probes, &reference, &query_hvs, &mut tracer, report);
    lap("prefilter");
    baselines(&probes, &reference, report);
    lap("baselines");
    core_probes(p, &reference.pass, report);
    lap("core");
    serve_probes(p, seed, seconds, &mut tracer, report);
    lap("serve");
    report.fact("traced section split s", laps.join(", "));
    tracer
}

/// The engine's own entry point, timed whole, alternating with the
/// re-composed traced pass so drift of the box hits both alike; then
/// single spectra through the same entry point.
fn passes(probes: &Probes, tracer: &mut Tracer, report: &mut Report) -> Reference {
    let (p, queries, window) = (probes.p, probes.queries(), probes.layers.window);
    let n = queries.len();
    let mut engine_table = String::new();
    let (mut untraced, mut residuals, mut passes) = (Vec::new(), Vec::new(), Vec::<Pass>::new());
    let deadline = Instant::now() + probes.share(0.20);
    while passes.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        let (outcome, receipt) = p
            .engine
            .search_with_workers_opts(queries, window, FDR, setup::threads(), None)
            .expect("no prefilter override to validate");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        untraced.push(wall_ms);
        residuals.push((receipt.latency_ms - wall_ms).abs() / wall_ms);
        if passes.is_empty() {
            engine_table = render_table(p.engine.peptides(), &outcome);
        }
        passes.push(
            probes
                .layers
                .pass(tracer, passes.len() as u64 + 1, queries, None),
        );
    }
    report.count(2 * (n * passes.len()) as u64, 0);
    report.gate(
        passes.iter().all(|pass| pass.table == engine_table),
        n as u64,
        || "a re-composed pass does not render the engine's PSM table".to_owned(),
    );
    let counts: Vec<_> = passes.iter().map(Pass::counts).collect();
    report.gate(counts.iter().all(|c| *c == counts[0]), n as u64, || {
        format!("counts differ between passes of one seed: {counts:?}")
    });

    let traced: Vec<f64> = passes
        .iter()
        .map(|pass| tracer.duration_ms(pass.root))
        .collect();
    let paired: Vec<f64> = traced
        .iter()
        .zip(&untraced)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    report.put(
        "obs.trace_overhead_share",
        stats::median(&paired),
        paired.len(),
        "derived: median of traced / untraced - 1 over alternating pass pairs",
    );
    report.put(
        "engine.receipt_residual_share",
        stats::median(&residuals),
        residuals.len(),
        "derived: |receipt latency_ms - observed wall| / wall",
    );

    // Layer figures come from the traced pass of median duration.
    let traced_ms = stats::median(&traced);
    let median_pass = (0..passes.len())
        .min_by(|&a, &b| {
            (traced[a] - traced_ms)
                .abs()
                .total_cmp(&(traced[b] - traced_ms).abs())
        })
        .expect("at least three passes");
    let pass = passes.swap_remove(median_pass);
    let pass_ms = tracer.duration_ms(pass.root);
    // Against the pass's own clock: spans that were left open, fell
    // outside their parent or hung off the wrong one would not add up.
    let self_sum = tracer.tree_self_ms(pass.root);
    report.gate(
        (self_sum - pass.wall_ms).abs() <= 0.05 * pass.wall_ms,
        1,
        || {
            format!(
                "layer self times sum to {self_sum:.3} ms of a {:.3} ms pass",
                pass.wall_ms
            )
        },
    );
    let reference = Reference {
        pass_ms,
        score_ms: tracer.child_ms(pass.root, "index.score"),
        assemble_fdr_ms: tracer.child_ms(pass.root, "oms.assemble")
            + tracer.child_ms(pass.root, "oms.fdr"),
        children_ms: pass_ms - tracer.self_ms(pass.root),
        untraced_ms: stats::median(&untraced),
        pass,
    };
    report.put(
        "engine.self_us_per_query",
        probes.per_query_us(reference.untraced_ms - reference.children_ms),
        untraced.len(),
        "derived: untraced engine wall - traced children",
    );

    // One spectrum per call: the in-process interactive path (a 1-query
    // batch fans out over shards instead of over queries).
    let mut next = 0usize;
    let singles = stats::time_reps(probes.share(0.05), 20, || {
        let query = &queries[next % n];
        next += 1;
        std::hint::black_box(search(&p.engine, std::slice::from_ref(query), window, None));
    });
    report.count(singles.len() as u64, 0);
    report.put(
        "engine.single_query_ms_p50",
        stats::median(&singles) * 1e3,
        singles.len(),
        "measured around Engine::search_with_workers_opts, 1 spectrum",
    );
    reference
}

fn ms_and_oms(probes: &Probes, reference: &Reference, report: &mut Report) {
    let (layers, pass) = (&probes.layers, &reference.pass);
    report.put(
        "ms.generate_s",
        probes.p.times.generate_s,
        1,
        "measured at set-up",
    );
    let reps = stats::time_reps(probes.share(0.03), 3, || {
        std::hint::black_box(layers.pre.run_batch(probes.queries()));
    });
    report.put(
        "ms.preprocess_us_per_query",
        probes.per_query_us(stats::median(&reps) * 1e3),
        reps.len(),
        "measured around Preprocessor::run_batch",
    );
    report.put(
        "ms.rejected_queries",
        pass.outcome.rejected_queries as f64,
        1,
        "count",
    );
    let reps = stats::time_reps(probes.share(0.03), 3, || {
        std::hint::black_box(candidate_lists(
            &layers.candidates,
            &layers.window,
            &pass.binned,
        ));
    });
    report.put(
        "oms.candidates_us_per_query",
        probes.per_query_us(stats::median(&reps) * 1e3),
        reps.len(),
        "measured around candidate_lists",
    );
    report.put(
        "oms.candidates_per_query",
        pass.candidates() as f64 / pass.binned.len().max(1) as f64,
        1,
        "count",
    );
    report.put(
        "oms.assemble_fdr_ms",
        reference.assemble_fdr_ms,
        1,
        "measured around assemble_psms + filter_fdr",
    );
}

/// Encoder, kernel and bandwidth probes; returns the probe spectra's
/// hypervectors for the sketch probe.
fn hdc(probes: &Probes, reference: &Reference, report: &mut Report) -> Vec<BinaryHypervector> {
    let pass = &reference.pass;
    let exact_backend = probes
        .p
        .exact
        .index()
        .expect("the exact engine is index-backed")
        .to_exact_backend(1)
        .expect("an exact index");
    let probe = &pass.binned[..pass.binned.len().min(PROBE_SPECTRA)];
    let mut query_hvs: Vec<BinaryHypervector> = Vec::new();
    let reps = stats::time_reps(probes.share(0.06), 2, || {
        query_hvs = probe
            .iter()
            .map(|b| exact_backend.encode_query(b))
            .collect();
    });
    report.put(
        "hdc.encode_us_per_spectrum",
        stats::median(&reps) * 1e6 / probe.len().max(1) as f64,
        reps.len(),
        "measured around ExactBackend::encode_query, 1 thread",
    );
    let (membw, membw_bytes) = setup::copy_bandwidth_gb_per_s(probes.p.smoke);
    report.fact("membw array bytes", membw_bytes);
    report.put(
        "hdc.membw_gb_per_s",
        membw,
        5,
        "measured: copy, bytes read + written",
    );
    let dim = probes.index.dim();
    let (pair_scores, block_refs) = kernel_pair_scores_per_s(dim, membw_bytes, probes.share(0.06));
    report.fact("kernel block", format!("8 x {block_refs} references"));
    report.put(
        "hdc.kernel_pair_scores_per_s",
        pair_scores,
        1,
        "measured around KernelDispatch::score_block",
    );
    let scanned_bytes = pass.candidates() as f64 * dim.div_ceil(64) as f64 * 8.0;
    let scan_s = pass.shard_ms() / 1e3 / setup::threads() as f64;
    let scan_gb_per_s = scanned_bytes / scan_s.max(1e-9) / 1e9;
    report.put(
        "hdc.scan_gb_per_s",
        scan_gb_per_s,
        1,
        "computed: candidates x words x 8 B / derived scan time",
    );
    report.put(
        "hdc.scan_roofline_share",
        scan_gb_per_s / membw,
        1,
        "derived: scan / copy bandwidth",
    );
    query_hvs
}

fn index_probes(probes: &Probes, reference: &Reference, report: &mut Report) {
    let (p, pass, threads) = (probes.p, &reference.pass, setup::threads());
    let n = probes.queries().len();
    report.put(
        "index.build_refs_per_s",
        p.build.entry_count as f64 / p.times.build_s,
        1,
        "measured at set-up around build_from_iter",
    );
    report.put(
        "index.image_bytes_per_ref",
        p.build.index_bytes as f64 / p.build.entry_count as f64,
        1,
        "count",
    );
    let opens = stats::time_reps(Duration::ZERO, 3, || {
        std::hint::black_box(
            LibraryIndex::open_mapped(&p.index_path, threads).expect("mapped open"),
        );
    });
    report.put(
        "index.open_mapped_ms",
        stats::median(&opens) * 1e3,
        3,
        "measured around open_mapped",
    );
    let sweeps = stats::time_reps(Duration::ZERO, 3, || {
        std::hint::black_box(std::fs::read(&p.index_path).expect("the image is readable"));
    });
    report.put(
        "index.raw_sweep_ms",
        stats::median(&sweeps) * 1e3,
        3,
        "measured: sequential read of the same file",
    );
    report.put(
        "index.score_ms_per_query",
        reference.score_ms / n as f64,
        1,
        "measured around search_batch_prefiltered",
    );
    let scan_ms = pass.shard_ms() / threads as f64;
    report.put(
        "index.scan_ms_per_query",
        scan_ms / n as f64,
        1,
        "derived: returned ShardTimings summed / workers",
    );
    report.put(
        "index.scan_share",
        scan_ms / reference.pass_ms,
        1,
        "derived: scan time / traced pass wall",
    );
    let visits: u64 = pass.timings.iter().map(|t| t.visits).sum();
    report.put(
        "index.shards_touched_per_query",
        visits as f64 / pass.binned.len().max(1) as f64,
        1,
        "count",
    );
    let shard_max = pass.timings.iter().map(|t| t.ms).fold(0.0, f64::max);
    let shard_mean = pass.shard_ms() / pass.timings.len().max(1) as f64;
    report.put(
        "index.shard_ms_max_over_mean",
        shard_max / shard_mean.max(1e-9),
        pass.timings.len(),
        "derived from the returned ShardTimings",
    );
    // One worker, on a quarter of the set (rates are per query; a single
    // query's best hit does not depend on what it is batched with).
    let quarter = &probes.queries()[..n.div_ceil(4)];
    let start = Instant::now();
    let one_worker = p
        .engine
        .search_with_workers_opts(quarter, probes.layers.window, FDR, 1, None)
        .expect("no prefilter override to validate")
        .0;
    let one_worker_ms_per_query = start.elapsed().as_secs_f64() * 1e3 / quarter.len() as f64;
    report.count(quarter.len() as u64, 0);
    report.gate(
        pass.outcome.psms.starts_with(&one_worker.psms),
        quarter.len() as u64,
        || "the 1-worker pass found different best hits".to_owned(),
    );
    report.put(
        "index.parallel_efficiency",
        one_worker_ms_per_query / (threads as f64 * reference.untraced_ms / n as f64),
        1,
        "derived: qps(T) / (T x qps(1))",
    );
}

fn prefilter(
    probes: &Probes,
    reference: &Reference,
    query_hvs: &[BinaryHypervector],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let (p, layers, pass) = (probes.p, &probes.layers, &reference.pass);
    let queries = probes.queries();
    let narrowed_table = render_table(
        p.engine.peptides(),
        &search(&p.engine, queries, layers.window, cascade()),
    );
    let narrowed = layers.pass(tracer, 0, queries, Some(DEFAULT_TOP_K));
    report.count(2 * queries.len() as u64, 0);
    report.gate(
        narrowed.table == narrowed_table,
        queries.len() as u64,
        || "the re-composed cascade pass does not render the engine's PSM table".to_owned(),
    );
    report.put(
        "prefilter.reduction",
        narrowed.stats.candidates_pre as f64 / narrowed.stats.candidates_post.max(1) as f64,
        1,
        "count ratio: candidates before / after the sketch stage",
    );
    let accepted = &pass.outcome.accepted;
    let kept = accepted
        .iter()
        .filter(|a| {
            narrowed
                .outcome
                .psms
                .iter()
                .any(|b| b.query_id == a.query_id && b.reference_id == a.reference_id)
        })
        .count();
    report.put(
        "prefilter.recall_at_k",
        kept as f64 / accepted.len().max(1) as f64,
        accepted.len(),
        "count ratio: accepted PSMs reproduced by the cascade",
    );
    let reps = stats::time_reps(probes.share(0.04), 2, || {
        for (hv, cands) in query_hvs.iter().zip(&pass.cands) {
            let signature = layers.sketch.sketch_query(hv.words());
            std::hint::black_box(layers.sketch.narrow(&signature, cands, DEFAULT_TOP_K));
        }
    });
    report.put(
        "prefilter.sketch_us_per_query",
        stats::median(&reps) * 1e6 / query_hvs.len().max(1) as f64,
        reps.len(),
        "measured around sketch_query + narrow, 1 thread",
    );
}

/// One pass of the in-tree ANN-SoLo backend over the same library: the
/// comparator HyperOMS and RapidOMS report their speed-ups against.
fn baselines(probes: &Probes, reference: &Reference, report: &mut Report) {
    let (p, threads) = (probes.p, setup::threads());
    let queries = probes.queries();
    let subset = &queries[..queries.len().min(ANNSOLO_SPECTRA)];
    let annsolo = Arc::new(Engine::from_backend(
        Box::new(AnnSoloBackend::build(
            &p.workload.library,
            AnnSoloConfig {
                threads,
                ..AnnSoloConfig::default()
            },
        )),
        p.engine.preprocess(),
        ReferenceMeta::from_library(&p.workload.library),
        threads,
    ));
    let start = Instant::now();
    std::hint::black_box(annsolo.search(subset, probes.layers.window, FDR));
    let annsolo_qps = subset.len() as f64 / start.elapsed().as_secs_f64();
    report.count(subset.len() as u64, 0);
    report.put(
        "baselines.annsolo_qps",
        annsolo_qps,
        1,
        "measured: one pass of the in-tree ANN-SoLo backend",
    );
    report.put(
        "baselines.speedup_vs_annsolo",
        queries.len() as f64 / (reference.untraced_ms / 1e3) / annsolo_qps,
        1,
        "derived: engine qps / annsolo qps",
    );
}

/// `score_block` over an 8 × N block whose references take as many
/// bytes as the bandwidth probe's array: pair scores per second, and N.
fn kernel_pair_scores_per_s(dim: usize, bytes: usize, budget: Duration) -> (f64, usize) {
    let words = dim.div_ceil(64);
    let references = bytes / (words * 8);
    let mut rng = SplitMix(dim as u64);
    let table: Vec<u64> = (0..references * words).map(|_| rng.next_u64()).collect();
    let query_words: Vec<u64> = (0..8 * words).map(|_| rng.next_u64()).collect();
    let reference_rows: Vec<&[u64]> = table.chunks(words).collect();
    let query_rows: Vec<&[u64]> = query_words.chunks(words).collect();
    let mut out = vec![0i64; 8 * references];
    let kernel = hdoms_hdc::kernels::active();
    let reps = stats::time_reps(budget, 2, || {
        kernel.score_block(dim, &query_rows, &reference_rows, &mut out);
        std::hint::black_box(&mut out);
    });
    ((8 * references) as f64 / stats::median(&reps), references)
}

/// `core::{InMemoryEncoder, InMemorySearch}` on the workload's first
/// spectra: through the workload's own accelerator where its index is
/// the simulated one, otherwise through a stand-in built over the first
/// references of its library.
fn core_probes(p: &Prepared, pass: &Pass, report: &mut Report) {
    let threads = setup::threads();
    let index = p.engine.index().expect("index-backed");
    let probe = &pass.binned[..pass.binned.len().min(SLOW_PROBE_SPECTRA)];
    let (accelerator, probe_cands): (OmsAccelerator, Vec<Vec<u32>>) =
        if p.def.backend == Backend::Rram {
            report.put(
                "core.build_refs_per_s",
                p.build.entry_count as f64 / p.times.build_s,
                1,
                "measured at set-up around build_from_iter",
            );
            report.put(
                "core.mean_encode_ber",
                p.build.build_stats.mean_encode_ber,
                1,
                "program-reported BuildStats",
            );
            let accelerator = index.to_accelerator(threads).expect("an rram index");
            (accelerator, pass.cands[..probe.len()].to_vec())
        } else {
            let mut slice = SpectralLibrary::new();
            for entry in p.workload.library.entries().iter().take(if p.smoke {
                8
            } else {
                STAND_IN_REFERENCES
            }) {
                slice.push(entry.clone());
            }
            let stored = slice.len() as u32;
            let start = Instant::now();
            let accelerator = OmsAccelerator::build(
                &slice,
                AcceleratorConfig {
                    threads,
                    ..AcceleratorConfig::default()
                },
            );
            report.put(
                "core.build_refs_per_s",
                f64::from(stored) / start.elapsed().as_secs_f64(),
                1,
                "measured around OmsAccelerator::build, stand-in slice",
            );
            report.put(
                "core.mean_encode_ber",
                accelerator.build_stats().mean_encode_ber,
                1,
                "program-reported BuildStats, stand-in slice",
            );
            (accelerator, vec![(0..stored).collect(); probe.len()])
        };
    let mut encoded = Vec::new();
    let encode_ms: Vec<f64> = probe
        .iter()
        .map(|b| {
            let start = Instant::now();
            encoded.push(accelerator.encoder().encode(b));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.put(
        "core.encode_ms_per_query",
        stats::median(&encode_ms),
        encode_ms.len(),
        "measured around InMemoryEncoder::encode",
    );
    let search_ms: Vec<f64> = probe
        .iter()
        .zip(&encoded)
        .zip(&probe_cands)
        .map(|((b, hv), cands)| {
            let start = Instant::now();
            std::hint::black_box(accelerator.search_engine().search_best(hv, b.id, cands));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let scanned: usize = probe_cands.iter().map(Vec::len).sum();
    report.count(probe.len() as u64, 0);
    report.put(
        "core.search_ms_per_query",
        stats::median(&search_ms),
        search_ms.len(),
        "measured around InMemorySearch::search_best",
    );
    report.put(
        "core.cycles_per_query",
        accelerator.search_engine().cycles_per_query() as f64,
        1,
        "simulated count",
    );
    let mean_peaks =
        probe.iter().map(|b| b.peaks().len()).sum::<usize>() as f64 / probe.len().max(1) as f64;
    let shape = WorkloadShape {
        queries: probe.len() as f64,
        references: accelerator.search_engine().shared_references().len() as f64,
        mean_candidates: scanned as f64 / probe.len().max(1) as f64,
        mean_peaks,
        dim: index.dim() as f64,
        chunks: 128.0,
    };
    report.put(
        "core.sim_time_s",
        RramModel::default().time_s(&shape),
        1,
        "simulated: RramModel::time_s for the probed shape",
    );
}

/// Per-line costs of one class of request, in process and over TCP.
struct LineCosts {
    decode_us: f64,
    handle_ms: f64,
    encode_us: f64,
    tcp_ms: f64,
    request_bytes_per_query: f64,
    response_bytes_per_query: f64,
    samples: usize,
}

/// `Request::decode → Server::handle_as → Response::encode` on each of
/// `lines`, uncontended, beside the TCP round trip of the same line.
fn line_costs(
    server: &Server,
    conn: &mut Connection,
    lines: &Lines,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> LineCosts {
    let client = server.next_client_id();
    let (mut decode, mut handle, mut encode, mut tcp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut spectra, mut request_bytes, mut response_bytes, mut failed) =
        (0usize, 0usize, 0usize, 0u64);
    let deadline = Instant::now() + budget;
    let mut at = 0usize;
    while at < lines.len().min(3) || (at < lines.len() && Instant::now() < deadline) {
        let request_no = at as u64;
        let text = std::str::from_utf8(&lines.bytes[at])
            .expect("lines are JSON")
            .trim_end();
        let (_, (in_process, encoded_len)) = tracer.scope("serve.request", request_no, |t| {
            let (d, request) = t.scope("serve.protocol.decode", request_no, |_| {
                Request::decode(text).expect("the suite's own line decodes")
            });
            let (h, response) = t.scope("serve.server.handle", request_no, |_| {
                server.handle_as(client, &request)
            });
            let (e, encoded) = t.scope("serve.protocol.encode", request_no, |_| response.encode());
            decode.push(t.duration_ms(d) * 1e3);
            handle.push(t.duration_ms(h));
            encode.push(t.duration_ms(e) * 1e3);
            (response, encoded.len() + 1)
        });
        let start = Instant::now();
        let over_tcp = conn.round_trip(&lines.bytes[at]);
        let end = Instant::now();
        tracer.record("serve.tcp.round_trip", request_no, start, end);
        tcp.push(end.duration_since(start).as_secs_f64() * 1e3);
        // Both paths must answer with a result, and with the same rows.
        let over_tcp = std::str::from_utf8(&over_tcp)
            .map_err(|e| e.to_string())
            .and_then(|text| Response::decode(text.trim_end()));
        failed += match (&in_process, &over_tcp) {
            (Response::Result(a), Ok(Response::Result(b))) => u64::from(a.rows != b.rows),
            _ => 1,
        };
        spectra += lines.carries[at].len();
        request_bytes += lines.bytes[at].len();
        response_bytes += encoded_len;
        at += 1;
    }
    report.count(2 * spectra as u64, 0);
    report.gate(failed == 0, failed, || {
        format!(
            "{failed} {} requests of the serve probes were not answered with a result",
            lines.tier
        )
    });
    LineCosts {
        decode_us: stats::median(&decode),
        handle_ms: stats::median(&handle),
        encode_us: stats::median(&encode),
        tcp_ms: stats::median(&tcp),
        request_bytes_per_query: request_bytes as f64 / spectra.max(1) as f64,
        response_bytes_per_query: response_bytes as f64 / spectra.max(1) as f64,
        samples: at,
    }
}

/// Responses of a generator's exchanges, decoded; anything that is not
/// a result (refused, errored, undecodable) is counted into `failed`.
fn decode_results(exchanges: &[wire::Exchange], failed: &mut u64) -> Vec<QueryResult> {
    let results: Vec<QueryResult> = exchanges
        .iter()
        .filter_map(|e| {
            let text = std::str::from_utf8(&e.response).ok()?;
            match Response::decode(text.trim_end()) {
                Ok(Response::Result(result)) => Some(result),
                _ => None,
            }
        })
        .collect();
    *failed += (exchanges.len() - results.len()) as u64;
    results
}

/// The serve layers on this workload's index: protocol and handler in
/// process, the wire beside them, then the tiered mix under load and a
/// short rate ladder.
fn serve_probes(p: &Prepared, seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let threads = setup::threads();
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let server = match &p.server {
        Some(server) => Arc::clone(server),
        None => {
            let server = Server::with_scheduler(threads, SchedulerConfig::default());
            server
                .load_index(
                    INDEX_NAME,
                    p.index_path.to_str().expect("utf-8 scratch path"),
                )
                .expect("the server loads the workload's image");
            Arc::new(server)
        }
    };
    let addr = wire::listen(Arc::clone(&server));
    let queries = &p.workload.queries;
    let singles = Lines::singles(queries, p.def.window);
    let batches = Lines::batches(queries, p.def.window, None);
    let mut conn = Connection::open(addr);

    let single = line_costs(&server, &mut conn, &singles, share(0.08), tracer, report);
    let batch = line_costs(&server, &mut conn, &batches, share(0.08), tracer, report);
    drop(conn);
    report.put(
        "serve.decode_us_per_request",
        batch.decode_us,
        batch.samples,
        "measured around Request::decode, 16-spectrum lines",
    );
    report.put(
        "serve.encode_us_per_response",
        batch.encode_us,
        batch.samples,
        "measured around Response::encode, 16-spectrum lines",
    );
    report.put(
        "serve.request_bytes_per_query",
        batch.request_bytes_per_query,
        batch.samples,
        "count, 16-spectrum lines",
    );
    report.put(
        "serve.response_bytes_per_query",
        batch.response_bytes_per_query,
        batch.samples,
        "count, 16-spectrum lines",
    );
    report.put(
        "serve.handle_ms_p50_interactive",
        single.handle_ms,
        single.samples,
        "measured around Server::handle_as, uncontended",
    );
    report.put(
        "serve.handle_ms_p50_batch16",
        batch.handle_ms,
        batch.samples,
        "measured around Server::handle_as, uncontended",
    );
    for (name, costs) in [
        ("serve.wire_residual_ms_p50_interactive", &single),
        ("serve.wire_residual_ms_p50_batch16", &batch),
    ] {
        report.put(
            name,
            costs.tcp_ms - (costs.decode_us / 1e3 + costs.handle_ms + costs.encode_us / 1e3),
            costs.samples,
            "derived: TCP round trip - (decode + handle + encode)",
        );
    }

    // The tiered mix under load.
    let before = server.stats();
    let (mut a, mut b) = (Connection::open(addr), Connection::open(addr));
    let mixed = wire::mixed_run(
        &mut a,
        &mut b,
        &singles,
        &batches,
        INTERACTIVE_RATE,
        seed,
        share(0.15),
    );
    let after = server.stats();
    let mut failed = 0u64;
    let interactive = decode_results(&mixed.interactive, &mut failed);
    let batch_results = decode_results(&mixed.batch, &mut failed);
    report.count((mixed.interactive.len() + mixed.batch.len()) as u64, 0);
    report.gate(failed == 0, failed, || {
        format!("{failed} requests of the traced mix were refused or errored")
    });
    for e in &mixed.interactive {
        tracer.record("serve.tcp.interactive", e.line as u64, e.due, e.done);
    }
    for e in &mixed.batch {
        tracer.record("serve.tcp.batch16", e.line as u64, e.sent, e.done);
    }
    let waits = stats::sorted(
        interactive
            .iter()
            .chain(&batch_results)
            .map(|r| r.stats.wait_ms)
            .collect(),
    );
    report.put(
        "serve.queue_wait_ms_p50",
        stats::percentile(&waits, 50.0),
        waits.len(),
        "program-reported stats.wait_ms",
    );
    report.put(
        "serve.queue_wait_ms_p95",
        stats::percentile(&waits, 95.0),
        waits.len(),
        "program-reported stats.wait_ms",
    );
    report.put(
        "serve.rejected_busy",
        (after.rejected_busy - before.rejected_busy) as f64,
        1,
        "program-reported server.stats",
    );
    report.put(
        "serve.shed_deadline",
        (after.shed_deadline - before.shed_deadline) as f64,
        1,
        "program-reported server.stats",
    );
    let interactive_ms = stats::sorted(
        mixed
            .interactive
            .iter()
            .map(wire::Exchange::latency_ms)
            .collect(),
    );
    for (name, p) in [
        ("serve.interactive_ms_p50", 50.0),
        ("serve.interactive_ms_p95", 95.0),
    ] {
        report.put(
            name,
            stats::percentile(&interactive_ms, p),
            interactive_ms.len(),
            "measured on connection A under the mix, from the due time",
        );
    }
    let batch_ms = stats::sorted(mixed.batch.iter().map(wire::Exchange::latency_ms).collect());
    report.put(
        "serve.batch16_ms_p50",
        stats::percentile(&batch_ms, 50.0),
        batch_ms.len(),
        "measured on connection B",
    );
    let lags = stats::sorted(
        mixed
            .interactive
            .iter()
            .map(wire::Exchange::lag_ms)
            .collect(),
    );
    report.put(
        "serve.gen_lag_ms_p95",
        stats::percentile(&lags, 95.0),
        lags.len(),
        "measured: how late connection A sent",
    );

    // Rate ladder: the highest rate whose p95 from the due time meets
    // the limit with nothing failed and the generator not falling behind.
    let mut max_rate_ok = 0.0;
    for rate in LADDER_RATES {
        let step = wire::mixed_run(
            &mut a,
            &mut b,
            &singles,
            &batches,
            rate,
            seed ^ rate as u64,
            share(0.06),
        );
        let mut failed = 0u64;
        decode_results(&step.interactive, &mut failed);
        decode_results(&step.batch, &mut failed);
        report.count((step.interactive.len() + step.batch.len()) as u64, failed);
        if step.interactive.is_empty() {
            continue;
        }
        let latencies = stats::sorted(
            step.interactive
                .iter()
                .map(wire::Exchange::latency_ms)
                .collect(),
        );
        let tail_third = &step.interactive[step.interactive.len() * 2 / 3..];
        let backlog_ms = stats::median(
            &tail_third
                .iter()
                .map(wire::Exchange::lag_ms)
                .collect::<Vec<_>>(),
        );
        let p95 = stats::percentile(&latencies, 95.0);
        report.fact(
            &format!("ladder {rate} req/s"),
            format!(
                "p95 {p95:.2} ms, late by {backlog_ms:.2} ms at the end, n={}",
                latencies.len()
            ),
        );
        if failed == 0 && p95 <= LADDER_LIMIT_MS && backlog_ms <= LADDER_LIMIT_MS / 2.0 {
            max_rate_ok = rate;
        }
    }
    report.put(
        "serve.max_rate_ok",
        max_rate_ok,
        LADDER_RATES.len(),
        "informational: highest of 30/60/120 req/s with p95 <= 50 ms",
    );
}
