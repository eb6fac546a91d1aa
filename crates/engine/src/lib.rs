//! # hdoms-engine — unified query execution over one resident engine
//!
//! There is one way to construct and run a search, for the CLI, the
//! server, the benchmark, the figure binaries, the examples and the
//! tests alike. This crate is it, in two types:
//!
//! * [`Engine`] — **one builder for every construction path**, three
//!   constructors. Cold ([`Engine::from_library`]), warm from a loaded
//!   index ([`Engine::from_index`] — over `LibraryIndex::open_mapped`
//!   the `.hdx` file's bytes are searched in place), or bring-your-own
//!   scorer ([`Engine::from_backend`]). An engine owns everything a search
//!   needs — the scoring backend, the mass-sorted candidate index, and
//!   the per-reference metadata (mass, decoy flag, peptide) — so callers
//!   never wire those pieces by hand again. Every engine scores through
//!   the one shard loop ([`ShardedBackend`]); a bring-your-own scorer is
//!   its one shard.
//! * [`Session`] — a **stateful query stream** over an engine.
//!   [`Session::submit`] encodes and searches one batch and accumulates
//!   its raw PSMs; [`Session::finalize`] runs target–decoy FDR once over
//!   *everything submitted*, so a client streaming K small batches gets
//!   exactly the identifications a single run over the union would
//!   produce (accumulate-then-filter, the cross-batch FDR mode the
//!   per-batch serve protocol could not express).
//!
//! Every query — a one-shot [`Engine::search`], a [`Session::submit`],
//! or several coalesced requests through [`Engine::search_groups`] —
//! runs the same private body: a solo search is a group of one.
//!
//! Byte-for-byte equivalence with the flat oracle — the same stages
//! composed by hand over the flat per-query loop
//! ([`hdoms_oms::search::best_hits`]) — is structural, not accidental:
//! that body calls the same [`assemble_psms`] / [`filter_fdr`] stages, in
//! the same order (`crates/engine/tests/equivalence.rs` asserts the
//! rendered PSM tables are identical).
//!
//! ```
//! use hdoms_engine::{Engine, Session};
//! use hdoms_index::{IndexConfig, IndexedBackendKind};
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_oms::window::PrecursorWindow;
//! use std::sync::Arc;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 11);
//! let mut config = IndexConfig {
//!     entries_per_shard: 64,
//!     threads: 2,
//!     ..IndexConfig::default()
//! };
//! if let IndexedBackendKind::Exact(exact) = &mut config.kind {
//!     exact.encoder.dim = 512;
//! }
//! let engine = Arc::new(Engine::from_library(&workload.library, config));
//!
//! // Stream the queries in two batches, filter FDR once at the end.
//! let mut session = Session::new(Arc::clone(&engine), PrecursorWindow::open_default());
//! let half = workload.queries.len() / 2;
//! session.submit(&workload.queries[..half], engine.threads());
//! session.submit(&workload.queries[half..], engine.threads());
//! let (outcome, _receipt) = session.finalize(0.01);
//! assert_eq!(outcome.total_queries, workload.queries.len());
//! assert!(outcome.identifications() > 0);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

use hdoms_index::{IndexConfig, IndexError, LibraryIndex, QueryRecord, ShardedBackend};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_obs::metrics::Registry;
use hdoms_obs::trace::StageTimings;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::fdr::{filter_fdr, FdrOutcome};
use hdoms_oms::pipeline::{assemble_psms, PipelineOutcome, ReferenceCatalog};
use hdoms_oms::psm::Psm;
use hdoms_oms::search::RunScorer;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, SketchIndex};
use std::ops::Range;
use std::sync::Arc;

pub use hdoms_index::ShardTiming;
pub use hdoms_oms::pipeline::ReferenceMeta;

hdoms_obs::metrics::series! {
    /// The series every engine records into, always: unregistered
    /// handles from construction, a shared registry's once
    /// [`Engine::attach_metrics`] names it. Series are shared by name, so
    /// a server hosting many indexes reports one set of pipeline series —
    /// and reads the `prefilter_*` handles here for `server.stats`
    /// instead of keeping totals of its own.
    pub struct EngineSeries {
        batches: Counter = "hdoms_engine_batches_total", "Query batches executed by instrumented engines";
        queries: Counter = "hdoms_engine_queries_total", "Query spectra submitted to instrumented engines";
        psms: Counter = "hdoms_engine_psms_total", "Best-hit PSMs produced by instrumented engines";
        stage_encode_ms: Histogram = "hdoms_stage_encode_ms", "Per-batch wall-clock of the encode stage (preprocess + hypervector encoding)";
        stage_candidates_ms: Histogram = "hdoms_stage_candidates_ms", "Per-batch wall-clock of the precursor-window candidate-generation stage";
        stage_score_ms: Histogram = "hdoms_stage_score_ms", "Per-batch wall-clock of the shard-scoring stage (associative search)";
        stage_finalize_ms: Histogram = "hdoms_stage_finalize_ms", "Per-finalize wall-clock of the target-decoy FDR stage";
        prefilter_candidates_pre: Counter = "hdoms_prefilter_candidates_pre_total", "Precursor-window candidates entering the sketch prefilter";
        prefilter_candidates_post: Counter = "hdoms_prefilter_candidates_post_total", "Candidates surviving the sketch prefilter into the exact scan";
        prefilter_sketch_ms: Histogram = "hdoms_prefilter_sketch_ms", "Per-batch wall-clock of the sketch scoring + narrowing stage";
    }
}

impl EngineSeries {
    /// Record one scored batch from its finished receipt — the only
    /// place the per-batch series move, so they cannot disagree with
    /// the receipt the caller is handed. The prefilter trio moves only
    /// for a batch that ran the cascade (`prefiltered`).
    fn record_batch(&self, receipt: &BatchReceipt, prefiltered: bool) {
        self.batches.inc();
        self.queries.add(receipt.queries as u64);
        self.psms.add(receipt.psms as u64);
        self.stage_encode_ms.record_ms(receipt.stages.encode_ms);
        self.stage_candidates_ms
            .record_ms(receipt.stages.candidates_ms);
        self.stage_score_ms.record_ms(receipt.stages.score_ms);
        if prefiltered {
            self.prefilter_candidates_pre
                .add(receipt.candidates_pre as u64);
            self.prefilter_candidates_post
                .add(receipt.candidates_scored as u64);
            self.prefilter_sketch_ms.record_ms(receipt.sketch_ms);
        }
    }
}

/// A fully wired, resident query engine: scoring backend + candidate
/// index + reference metadata, constructed once and queried for the
/// lifetime of the process.
///
/// Construction subsumes every path that previously required hand
/// wiring:
///
/// | constructor | replaces |
/// |---|---|
/// | [`Engine::from_library`] | cold `ExactBackend::build` / `OmsAccelerator::build` + manual candidate index |
/// | [`Engine::from_index`] | `LibraryIndex::sharded_backend` + `catalog` + `candidate_index` over any loaded index (`LibraryIndex::open_mapped` searches the `mmap`ed file in place; `from_bytes` runs the same loader over bytes in hand) |
/// | [`Engine::from_backend`] | any [`RunScorer`] as one shard over all references: the baselines crate (ANN-SoLo), or an index's own `to_exact_backend` / `to_accelerator` |
///
/// Queries run through a [`Session`] (streaming, cross-batch FDR) or the
/// one-shot [`Engine::search`] convenience (per-batch FDR, the classic
/// behaviour).
pub struct Engine {
    backend: ShardedBackend,
    /// The reference catalog and candidate index: the index's own tables
    /// for index-backed engines (shared, not re-derived).
    meta: Arc<ReferenceMeta>,
    candidates: CandidateIndex,
    preprocess: PreprocessConfig,
    index: Option<LibraryIndex>,
    threads: usize,
    series: EngineSeries,
}

impl Engine {
    /// **Cold** construction: encode `library` with the configured
    /// backend kind, shard it by precursor mass, and wire the
    /// shard-parallel engine. The built [`LibraryIndex`] is kept (see
    /// [`Engine::index`]) so the one-time encoding can be persisted with
    /// `engine.index().unwrap().write(path)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty library or invalid configuration (same
    /// contracts as [`LibraryIndex::build`]).
    pub fn from_library(library: &SpectralLibrary, config: IndexConfig) -> Engine {
        let threads = config.threads;
        let index = LibraryIndex::build(library, config);
        Engine::from_index(index, threads)
            .expect("an index built here always reconstructs its own kind")
    }

    /// **Warm** construction from an already-loaded index, with the
    /// shard-parallel backend. The engine and the index share one copy
    /// of the encoded library (see [`LibraryIndex::shared_references`]).
    ///
    /// # Errors
    ///
    /// Fails when the index cannot reconstruct its backend kind.
    pub fn from_index(index: LibraryIndex, threads: usize) -> Result<Engine, IndexError> {
        Ok(Engine {
            backend: index.sharded_backend(threads)?,
            meta: index.catalog(),
            candidates: index.candidate_index(),
            preprocess: index.kind().preprocess(),
            index: Some(index),
            threads: threads.max(1),
            series: EngineSeries::default(),
        })
    }

    /// Construction over **any** scorer (the escape hatch for backends
    /// without an index kind, e.g. the ANN-SoLo baseline): `scorer` runs
    /// as one shard over all of `meta`'s references
    /// ([`ShardedBackend::one_shard`]), so its batches honour the worker
    /// budget and carry shard timings like every other engine's, and it
    /// reports under the scorer's own name. `preprocess` must match the
    /// configuration the scorer's references were preprocessed with.
    ///
    /// # Panics
    ///
    /// Panics on empty metadata.
    pub fn from_backend<S: RunScorer + Send + Sync + 'static>(
        scorer: Box<S>,
        preprocess: PreprocessConfig,
        meta: ReferenceMeta,
        threads: usize,
    ) -> Engine {
        assert!(
            meta.reference_count() > 0,
            "an engine needs at least one reference"
        );
        let candidates = meta.candidate_index();
        Engine {
            backend: ShardedBackend::one_shard(scorer, &candidates, threads),
            candidates,
            meta: Arc::new(meta),
            preprocess,
            index: None,
            threads: threads.max(1),
            series: EngineSeries::default(),
        }
    }

    /// The loaded/built persistent index, for engines that have one
    /// (cold and warm constructions; `None` for
    /// [`Engine::from_backend`]).
    pub fn index(&self) -> Option<&LibraryIndex> {
        self.index.as_ref()
    }

    /// Check that this engine can run the candidate prefilter `config`
    /// and, for `TopK`, derive the index's sketch from its references
    /// now (once per index; no image stores it) so the first query pays
    /// no derivation. `Off` scans every precursor-window candidate exactly
    /// (the byte-identity contract); `TopK(k)` scores folded-hypervector
    /// sketches first and forwards only the best `k` candidates per
    /// query to the exact scan. The engine holds no default: every
    /// search names its configuration.
    ///
    /// # Errors
    ///
    /// `TopK` requires K ≥ 1 ([`PrefilterConfig::checked`]) and an
    /// index-backed engine (the sketches are the index's); `Off` always
    /// succeeds.
    pub fn ready_prefilter(&self, config: PrefilterConfig) -> Result<(), String> {
        if config.checked()?.is_off() {
            return Ok(());
        }
        let Some(index) = &self.index else {
            return Err("the prefilter requires an index-backed engine".to_owned());
        };
        index.sketch_index();
        Ok(())
    }

    /// Resolve a prefilter configuration into the sketch handle the
    /// backend scores with. `Off` resolves to `None`; `TopK` fetches the
    /// index's cached sketch (built when the configuration was set).
    fn resolve_prefilter(&self, config: PrefilterConfig) -> Option<(Arc<SketchIndex>, usize)> {
        let k = config.top_k()?;
        let index = self
            .index
            .as_ref()
            .expect("TopK prefilter is validated before scoring");
        Some((index.sketch_index(), k))
    }

    /// The name of the distance kernel this process scores with
    /// (`"scalar"`, `"avx2"`, or `"avx512-vpopcntdq"` — resolved from
    /// the CPU and the `HDOMS_KERNEL` override). Kernel choice never
    /// changes output bytes, so this is a performance fact, not a
    /// correctness one; it is surfaced in the serve `serve.start` log
    /// event so operators can see which inner loop a box runs.
    pub fn kernel_name(&self) -> &'static str {
        hdoms_hdc::kernels::active().name()
    }

    /// The scoring backend's report name.
    pub fn backend_name(&self) -> String {
        self.backend.name().to_owned()
    }

    /// The preprocessing configuration queries are run through (always
    /// equal to what the references were encoded with).
    pub fn preprocess(&self) -> PreprocessConfig {
        self.preprocess
    }

    /// Peptide sequences by dense reference id (for PSM tables).
    pub fn peptides(&self) -> &[String] {
        self.meta.peptides()
    }

    /// The reference metadata (a [`ReferenceCatalog`]).
    pub fn meta(&self) -> &ReferenceMeta {
        &self.meta
    }

    /// Worker threads the engine was wired for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Point this engine's series ([`EngineSeries`] and the backend's
    /// per-shard-visit series) at `registry`, so they are exported with
    /// everything else registered there. Call
    /// before wrapping the engine in an `Arc` (the server does this for
    /// every resident engine). Series are shared by name, so many
    /// engines on one registry report together.
    ///
    /// Recording itself is unconditional — an engine nobody attached
    /// records into handles nobody reads — so attaching changes where the
    /// numbers land and nothing else: PSM tables are byte-identical
    /// either way (asserted in `crates/engine/tests/equivalence.rs`).
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.backend.attach_metrics(registry);
        self.series = EngineSeries::register(registry);
    }

    /// One-shot search with **per-batch** FDR — what keeps the serve
    /// protocol's `query` verb byte-identical to a local
    /// `search --index`. Equivalent to one [`Session::submit`] followed
    /// by [`Session::finalize`], at the engine's configured parallelism.
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search(
        self: &Arc<Self>,
        spectra: &[Spectrum],
        window: PrecursorWindow,
        alpha: f64,
    ) -> (PipelineOutcome, BatchReceipt) {
        self.search_with_workers_opts(spectra, window, alpha, self.threads, None)
            .expect("the prefilter is off")
    }

    /// [`Engine::search`] under an explicit worker budget — the batch
    /// uses at most `workers` threads instead of the engine's configured
    /// parallelism, and PSM tables are byte-identical across budgets
    /// (scoring is deterministic and order-preserving) — under the
    /// batch's prefilter: `Some(config)` runs it under `config`, `None`
    /// with the prefilter off. This is [`Engine::search_groups`] over
    /// one group.
    ///
    /// # Errors
    ///
    /// Fails when the prefilter is `TopK` on an engine that cannot
    /// prefilter (see [`Engine::ready_prefilter`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search_with_workers_opts(
        self: &Arc<Self>,
        spectra: &[Spectrum],
        window: PrecursorWindow,
        alpha: f64,
        workers: usize,
        prefilter: Option<PrefilterConfig>,
    ) -> Result<(PipelineOutcome, BatchReceipt), String> {
        let prefilter = prefilter.unwrap_or_default();
        let mut results = self.search_groups(&[spectra], window, alpha, workers, prefilter)?;
        Ok(results.pop().expect("one group in, one result out"))
    }

    /// Execute one or more independent requests as **one merged scoring
    /// batch** and split the results back out per request, FDR filtered
    /// per request — the seam every one-shot search goes through, and
    /// the one the serve layer's cross-request coalescing drives with
    /// several groups.
    ///
    /// Group `g` of the result is byte-identical (PSMs, threshold,
    /// identifications, candidate counts) to searching `groups[g]`
    /// alone: preprocessing and candidate generation run per group on
    /// the group's own spectra, per-query scoring is independent of
    /// batch composition, shard and prefilter accounting is summed from
    /// the group's own per-query records, and FDR is filtered per group
    /// over that group's own PSMs. Only wall-clock figures depend on the
    /// company a group keeps: the merged scoring stage's time is
    /// apportioned across groups by binned-query count.
    ///
    /// Each group counts as one engine batch in the attached metrics
    /// (one observation per group in every stage histogram), so
    /// registry reconciliation against per-request receipts holds
    /// whether or not requests were coalesced.
    ///
    /// # Errors
    ///
    /// Fails when `prefilter` is `TopK` on an engine that cannot
    /// prefilter (see [`Engine::ready_prefilter`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search_groups(
        self: &Arc<Self>,
        groups: &[&[Spectrum]],
        window: PrecursorWindow,
        alpha: f64,
        workers: usize,
        prefilter: PrefilterConfig,
    ) -> Result<Vec<(PipelineOutcome, BatchReceipt)>, String> {
        window.validate();
        assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
        self.ready_prefilter(prefilter)?;
        let scored = self.score_groups(groups, &window, workers, prefilter);
        Ok(scored
            .into_iter()
            .map(|group| {
                // A session of one batch: its totals are that batch's
                // receipt plus the finalize stage.
                let mut session = Session::new(Arc::clone(self), window);
                let mut receipt = session.absorb(group);
                let (outcome, totals) = session.finalize(alpha);
                receipt.stages = totals.stages;
                receipt.latency_ms = totals.latency_ms;
                (outcome, receipt)
            })
            .collect())
    }

    /// The one execute body under [`Session::submit`],
    /// [`Engine::search`] and [`Engine::search_groups`]: per group,
    /// preprocess and look up candidate windows (ranges of the candidate
    /// index's table); score the concatenation in one backend pass; per
    /// group again, assemble PSMs, sum the group's own per-query records
    /// and record the registry series. FDR is the caller's business (a
    /// session pools it across submits).
    ///
    /// `prefilter` must have passed [`Engine::ready_prefilter`].
    fn score_groups(
        &self,
        groups: &[&[Spectrum]],
        window: &PrecursorWindow,
        workers: usize,
        prefilter: PrefilterConfig,
    ) -> Vec<ScoredGroup> {
        let narrowing = self.resolve_prefilter(prefilter);

        // Per-group preprocess + window lookup: identical inputs to what
        // each request would produce alone, concatenated group by group
        // so the merged batch stays group-contiguous. Each stage is timed
        // where it runs, so the per-stage figures in receipts,
        // `BatchStats`, and the `hdoms_stage_*_ms` histograms all come
        // from one measurement.
        struct GroupPrep {
            start: usize,
            len: usize,
            rejected: usize,
            encode_ms: f64,
            candidates_ms: f64,
        }
        let pre = Preprocessor::new(self.preprocess);
        let mut merged_binned: Vec<BinnedSpectrum> = Vec::new();
        let mut merged_windows: Vec<Range<u32>> = Vec::new();
        let mut preps: Vec<GroupPrep> = Vec::with_capacity(groups.len());
        for spectra in groups {
            let ((binned, rejected), encode_ms) =
                hdoms_obs::trace::timed(|| pre.run_batch(spectra));
            let (windows, candidates_ms) = hdoms_obs::trace::timed(|| {
                (binned.iter())
                    .map(|q| self.candidates.window(window, q.neutral_mass))
                    .collect::<Vec<_>>()
            });
            preps.push(GroupPrep {
                start: merged_binned.len(),
                len: binned.len(),
                rejected,
                encode_ms,
                candidates_ms,
            });
            merged_binned.extend(binned);
            merged_windows.extend(windows);
        }
        let total_binned = merged_binned.len();

        // One scoring pass over the merged batch: one record per query,
        // so a group's accounting is the sum over its own range.
        let (records, score_ms) = hdoms_obs::trace::timed(|| {
            self.backend.search_batch_traced(
                &merged_binned,
                &merged_windows,
                Some(workers.max(1)),
                narrowing.as_ref().map(|(sketch, k)| (sketch.as_ref(), *k)),
            )
        });

        let mut scored = Vec::with_capacity(groups.len());
        for (spectra, prep) in groups.iter().zip(&preps) {
            let range = prep.start..prep.start + prep.len;
            let hits: Vec<_> = records[range.clone()].iter().map(|r| r.hit).collect();
            let psms = assemble_psms(&merged_binned[range.clone()], &hits, &*self.meta);
            // Counted accounting: every shard run the scan scored
            // recorded one visit, and with the prefilter on the exact
            // scan saw only the narrowed lists its records count.
            let (shard_timings, stats) = QueryRecord::sum(&records[range.clone()]);
            let shards_touched: u64 = shard_timings.iter().map(|t| t.visits).sum();
            let candidates_pre: usize = merged_windows[range].iter().map(|w| w.len()).sum();
            let candidates_scored = match narrowing {
                Some(_) => stats.candidates_post as usize,
                None => candidates_pre,
            };
            // The merged scoring pass's wall-clock, apportioned by how
            // much of the batch each group contributed (time is not
            // part of the identity contract; counts above are exact).
            let score_share = if total_binned == 0 {
                score_ms / groups.len() as f64
            } else {
                score_ms * prep.len as f64 / total_binned as f64
            };
            let stages = StageTimings {
                encode_ms: prep.encode_ms,
                candidates_ms: prep.candidates_ms,
                score_ms: score_share,
                finalize_ms: 0.0,
            };
            let receipt = BatchReceipt {
                batch: 1,
                queries: spectra.len(),
                rejected_queries: prep.rejected,
                psms: psms.len(),
                total_psms: psms.len(),
                candidates_scored,
                candidates_pre,
                sketch_ms: stats.sketch_ms,
                shards_touched: shards_touched as usize,
                latency_ms: stages.total_ms(),
                stages,
                shard_timings,
            };
            self.series.record_batch(&receipt, narrowing.is_some());
            scored.push(ScoredGroup {
                binned: prep.len,
                receipt,
                psms,
            });
        }
        scored
    }
}

/// One group out of [`Engine::score_groups`]: its raw PSMs, how many of
/// its spectra survived preprocessing, and its receipt as a batch of
/// its own (`batch` 1, `total_psms` its own PSMs, finalize not yet run)
/// — [`Session::absorb`] re-bases those onto the session's running
/// totals.
struct ScoredGroup {
    psms: Vec<Psm>,
    binned: usize,
    receipt: BatchReceipt,
}

/// What one [`Session::submit`] did: per-batch counts plus the session's
/// running totals, with the batch's span decomposition.
/// [`Session::finalize`] reports the whole session in the same shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchReceipt {
    /// 1-based ordinal of this batch within the session.
    pub batch: usize,
    /// Queries in this batch.
    pub queries: usize,
    /// Queries of this batch dropped by preprocessing (too few peaks).
    pub rejected_queries: usize,
    /// Best-hit PSMs this batch produced.
    pub psms: usize,
    /// Raw PSMs accumulated across the whole session so far.
    pub total_psms: usize,
    /// Candidate references scored in this batch.
    pub candidates_scored: usize,
    /// Precursor-window candidates this batch generated, before any
    /// prefilter narrowing. Equals `candidates_scored` when the
    /// prefilter is off; with it on, `candidates_scored` is what the
    /// narrowing forwarded to the exact scan.
    pub candidates_pre: usize,
    /// Wall-clock spent scoring sketches and narrowing, milliseconds
    /// (0 when the prefilter is off).
    pub sketch_ms: f64,
    /// Shard visits this batch cost.
    pub shards_touched: usize,
    /// Engine time attributed to this batch, milliseconds: by
    /// definition the sum of `stages` — its own encode and candidate
    /// stages, its binned-query share of the scoring pass it ran in
    /// (the whole pass when it ran alone), and the FDR filter once one
    /// has run. There is no second clock: whatever a caller observes
    /// beyond this (PSM assembly, bookkeeping, queueing) is residual.
    pub latency_ms: f64,
    /// The batch's wall-clock decomposed into pipeline stages
    /// (`finalize_ms` is 0 on a submit receipt; the one-shot
    /// [`Engine::search`] paths fill it in after finalizing).
    pub stages: StageTimings,
    /// Wall-clock per shard this batch's scoring visited, sorted by
    /// shard position.
    pub shard_timings: Vec<ShardTiming>,
}

/// A stateful query stream over an [`Engine`]: submit any number of
/// batches, then filter FDR **once** over everything submitted.
///
/// Submitting the same spectra in one batch or many and finalizing
/// yields identical outcomes — the receipt-by-receipt accumulation feeds
/// the exact inputs a single concatenated run would feed to
/// [`filter_fdr`]. Query ids should be unique across the session's
/// batches (duplicate ids make the `accepted` table flag ambiguous,
/// exactly as they would inside one batch).
pub struct Session {
    engine: Arc<Engine>,
    window: PrecursorWindow,
    prefilter: PrefilterConfig,
    psms: Vec<Psm>,
    binned_queries: usize,
    /// Every submitted batch's receipt summed into one (see
    /// [`Session::finalize`]).
    totals: BatchReceipt,
}

impl Session {
    /// Open a session searching under `window`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid window.
    pub fn new(engine: Arc<Engine>, window: PrecursorWindow) -> Session {
        window.validate();
        Session {
            engine,
            window,
            prefilter: PrefilterConfig::Off,
            psms: Vec::new(),
            binned_queries: 0,
            totals: BatchReceipt::default(),
        }
    }

    /// The prefilter configuration this session's submits run under
    /// (starts off).
    pub fn prefilter(&self) -> PrefilterConfig {
        self.prefilter
    }

    /// Override the prefilter for this session's *subsequent* submits
    /// (already-submitted batches keep their accounting). The serve
    /// layer routes the protocol's per-batch `prefilter` option here.
    ///
    /// # Errors
    ///
    /// Fails when `config` is `TopK` on an engine that cannot prefilter
    /// (see [`Engine::ready_prefilter`]).
    pub fn set_prefilter(&mut self, config: PrefilterConfig) -> Result<(), String> {
        self.engine.ready_prefilter(config)?;
        self.prefilter = config;
        Ok(())
    }

    /// The engine this session queries.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Encode, search, and accumulate one batch of query spectra over at
    /// most `workers` threads (`1` runs it entirely on the calling
    /// thread), whatever parallelism the engine was constructed with. No
    /// FDR filtering happens here — raw PSMs collect until
    /// [`Session::finalize`]. The serve layer's scheduler passes each
    /// admitted batch's granted budget; accumulated PSMs — and therefore
    /// the finalized table — are byte-identical across budgets.
    pub fn submit(&mut self, spectra: &[Spectrum], workers: usize) -> BatchReceipt {
        let mut scored =
            self.engine
                .score_groups(&[spectra], &self.window, workers, self.prefilter);
        self.absorb(scored.pop().expect("one group in, one group out"))
    }

    /// Fold one scored group into the session's running totals and
    /// re-base its receipt onto them.
    fn absorb(&mut self, group: ScoredGroup) -> BatchReceipt {
        let mut receipt = group.receipt;
        self.binned_queries += group.binned;
        self.psms.extend(group.psms);
        let totals = &mut self.totals;
        totals.batch += 1;
        totals.queries += receipt.queries;
        totals.rejected_queries += receipt.rejected_queries;
        totals.psms = self.psms.len();
        totals.total_psms = self.psms.len();
        totals.candidates_scored += receipt.candidates_scored;
        totals.candidates_pre += receipt.candidates_pre;
        totals.sketch_ms += receipt.sketch_ms;
        totals.shards_touched += receipt.shards_touched;
        totals.stages.accumulate(&receipt.stages);
        totals.latency_ms = totals.stages.total_ms();
        receipt.batch = totals.batch;
        receipt.total_psms = totals.total_psms;
        receipt
    }

    /// Filter FDR at `alpha` over **all** PSMs submitted so far and close
    /// the session. The outcome's totals cover the whole session; its
    /// PSM list is the concatenation of every batch's PSMs in submission
    /// order — identical to what one submit of the concatenated spectra
    /// would have produced.
    ///
    /// The receipt reports the session as one batch: `batch` counts the
    /// batches submitted, every count and stage figure sums across them,
    /// `stages.finalize_ms` is this FDR pass (the `finalize` span the
    /// serve layer surfaces in its stats and the
    /// `hdoms_stage_finalize_ms` histogram records), and `shard_timings`
    /// stays empty — per-shard clocks are reported batch by batch.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn finalize(self, alpha: f64) -> (PipelineOutcome, BatchReceipt) {
        assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
        let (
            FdrOutcome {
                accepted,
                threshold_score,
                decoys_above,
                ..
            },
            finalize_ms,
        ) = hdoms_obs::trace::timed(|| filter_fdr(&self.psms, alpha));
        self.engine.series.stage_finalize_ms.record_ms(finalize_ms);
        let mut totals = self.totals;
        totals.stages.finalize_ms = finalize_ms;
        totals.latency_ms = totals.stages.total_ms();
        let mean_candidates = if self.binned_queries == 0 {
            0.0
        } else {
            totals.candidates_scored as f64 / self.binned_queries as f64
        };
        (
            PipelineOutcome {
                backend_name: self.engine.backend_name(),
                psms: self.psms,
                accepted,
                threshold_score,
                decoys_above,
                rejected_queries: totals.rejected_queries,
                total_queries: totals.queries,
                mean_candidates,
            },
            totals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_index::IndexedBackendKind;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    fn tiny_engine(seed: u64) -> (SyntheticWorkload, Arc<Engine>) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let mut config = IndexConfig {
            entries_per_shard: 64,
            threads: 4,
            ..IndexConfig::default()
        };
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 2048;
        }
        let engine = Arc::new(Engine::from_library(&workload.library, config));
        (workload, engine)
    }

    #[test]
    fn engine_keeps_its_index_and_metadata() {
        let (workload, engine) = tiny_engine(21);
        assert_eq!(engine.meta.reference_count(), workload.library.len());
        assert_eq!(engine.peptides().len(), workload.library.len());
        let index = engine.index().expect("cold build keeps the index");
        assert_eq!(index.entry_count(), workload.library.len());
        assert!(engine.backend_name().starts_with("sharded("));
    }

    #[test]
    fn receipts_account_for_every_batch() {
        let (workload, engine) = tiny_engine(22);
        let mut session = Session::new(Arc::clone(&engine), PrecursorWindow::open_default());
        let half = workload.queries.len() / 2;
        let first = session.submit(&workload.queries[..half], engine.threads());
        let second = session.submit(&workload.queries[half..], engine.threads());
        assert_eq!(first.batch, 1);
        assert_eq!(second.batch, 2);
        assert_eq!(first.queries + second.queries, workload.queries.len());
        assert_eq!(second.total_psms, first.psms + second.psms);
        assert!(first.candidates_scored > 0);
        assert!(first.shards_touched > 0);
        assert_eq!(session.totals.batch, 2);
        let (outcome, _) = session.finalize(0.01);
        assert_eq!(outcome.total_queries, workload.queries.len());
        assert_eq!(outcome.psms.len(), first.psms + second.psms);
    }

    #[test]
    fn empty_session_finalizes_cleanly() {
        let (_, engine) = tiny_engine(23);
        let session = Session::new(engine, PrecursorWindow::open_default());
        let (outcome, _) = session.finalize(0.01);
        assert_eq!(outcome.total_queries, 0);
        assert_eq!(outcome.identifications(), 0);
        assert_eq!(outcome.threshold_score, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "FDR level")]
    fn finalize_rejects_bad_alpha() {
        let (_, engine) = tiny_engine(24);
        let session = Session::new(engine, PrecursorWindow::open_default());
        let _ = session.finalize(1.0);
    }

    #[test]
    fn budgeted_search_is_byte_identical_across_worker_counts() {
        let (workload, engine) = tiny_engine(26);
        let (full, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
        for workers in [1, 2, 3, 7] {
            let (budgeted, receipt) = engine
                .search_with_workers_opts(
                    &workload.queries,
                    PrecursorWindow::open_default(),
                    0.01,
                    workers,
                    None,
                )
                .expect("no override to validate");
            assert_eq!(
                budgeted.psms, full.psms,
                "worker budget {workers} changed the PSMs"
            );
            assert_eq!(budgeted.threshold_score, full.threshold_score);
            assert_eq!(receipt.queries, workload.queries.len());
        }
    }

    #[test]
    fn grouped_search_matches_individual_searches_exactly() {
        // The coalescing contract: merging requests into one scoring
        // batch must not change any request's output or deterministic
        // accounting — with the prefilter off and on.
        let (workload, engine) = tiny_engine(27);
        let n = workload.queries.len();
        let groups: Vec<&[Spectrum]> = vec![
            &workload.queries[..n / 3],
            &workload.queries[n / 3..2 * n / 3],
            &workload.queries[2 * n / 3..],
        ];
        for prefilter in [PrefilterConfig::Off, PrefilterConfig::TopK(16)] {
            let merged = engine
                .search_groups(&groups, PrecursorWindow::open_default(), 0.01, 2, prefilter)
                .expect("groups searched");
            assert_eq!(merged.len(), groups.len());
            for (g, (outcome, receipt)) in merged.iter().enumerate() {
                let (solo, solo_receipt) = engine
                    .search_with_workers_opts(
                        groups[g],
                        PrecursorWindow::open_default(),
                        0.01,
                        2,
                        Some(prefilter),
                    )
                    .expect("solo search");
                assert_eq!(outcome.psms, solo.psms, "group {g} PSMs diverged");
                assert_eq!(outcome.accepted, solo.accepted);
                assert_eq!(outcome.threshold_score, solo.threshold_score);
                assert_eq!(outcome.decoys_above, solo.decoys_above);
                assert_eq!(outcome.total_queries, solo.total_queries);
                assert_eq!(outcome.mean_candidates, solo.mean_candidates);
                assert_eq!(receipt.queries, solo_receipt.queries);
                assert_eq!(receipt.psms, solo_receipt.psms);
                assert_eq!(receipt.candidates_pre, solo_receipt.candidates_pre);
                assert_eq!(receipt.candidates_scored, solo_receipt.candidates_scored);
                assert_eq!(receipt.shards_touched, solo_receipt.shards_touched);
            }
        }
    }
}
