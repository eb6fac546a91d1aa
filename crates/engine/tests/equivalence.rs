//! The acceptance contract of the session layer: submitting a query set
//! in K batches and finalizing yields **byte-identical** PSM tables to a
//! single run over the concatenated workload — and the one-shot
//! per-batch path (the old `query` behaviour) stays reachable and stays
//! equal to the flat oracle: the same stages composed by hand here over
//! the flat per-query loop (`candidate_lists` → `best_hits` →
//! `assemble_psms` → `filter_fdr`, [`flat_outcome`]).
//!
//! The `mapped_*` tests are the one-loader regression gate. There is no
//! copying load to compare against any more — every open runs
//! `LibraryIndex::from_buffer` over one buffer holding the image — so
//! they pin mapped ≡ heap-buffer ≡ cold build: `Engine::from_index` over
//! `LibraryIndex::open_mapped` (mmap) must render PSM tables
//! byte-identical to `Engine::from_index` over `LibraryIndex::from_bytes`
//! (the image's bytes in a heap buffer) and to `Engine::from_library`. A
//! failure there means the in-place search path silently diverged.
//! `kernel_variants_*` is the engine-level half of CI's kernel gate:
//! byte-identical tables across distance kernels over a mapped
//! iprg2012 index. `every_construction_derives_the_one_catalog` holds an
//! index's per-id tables — built in one walk over its shards — to the
//! library they describe and to the engine that reads them. A
//! `from_backend` engine is a sharded engine of one shard:
//! `warm_engine_over_persisted_index_matches_cold` and
//! `custom_backend_engines_match_the_pipeline` hold it to the index's
//! shard walk and to the flat loop, at any worker budget.

use hdoms_baselines::annsolo::{AnnSoloBackend, AnnSoloConfig};
use hdoms_engine::{BatchReceipt, Engine, ReferenceMeta, Session};
use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::fdr::{filter_fdr, FdrOutcome};
use hdoms_oms::pipeline::{assemble_psms, PipelineOutcome, ReferenceCatalog};
use hdoms_oms::psm::render_table;
use hdoms_oms::search::{best_hits, candidate_lists, RunScorer};
use hdoms_oms::window::PrecursorWindow;
use std::sync::Arc;

const THREADS: usize = 4;
const DIM: usize = 2048;

fn tiny_engine(seed: u64) -> (SyntheticWorkload, Arc<Engine>) {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    let engine = Arc::new(Engine::from_library(&workload.library, config));
    (workload, engine)
}

/// The heap load: the image's bytes read into memory, the one loader
/// run over a heap copy of them (`LibraryIndex::from_bytes`), then the
/// same wiring [`open_mapped`] does over the `mmap`ed file.
fn open_heap_read(path: &std::path::Path) -> Arc<Engine> {
    let bytes = std::fs::read(path).expect("image readable");
    let index = LibraryIndex::from_bytes(&bytes, THREADS).expect("heap load");
    Arc::new(Engine::from_index(index, THREADS).expect("an index wires its own kind"))
}

/// The file door every product path opens an image through, wired into
/// an engine as the CLI and the server wire it.
fn open_mapped(path: &std::path::Path) -> Arc<Engine> {
    let index = LibraryIndex::open_mapped(path, THREADS).expect("mapped load");
    Arc::new(Engine::from_index(index, THREADS).expect("an index wires its own kind"))
}

/// The flat oracle: an engine's stages composed by hand over the flat
/// per-query loop — preprocess under `preprocess`, copy each query's
/// open-window candidates out of `catalog`, score each list in one run
/// ([`best_hits`]), assemble, filter at 1 % — with no shard walk, no
/// session and no receipt. It has no shard layout to name, so it reports
/// `backend_name`.
fn flat_outcome<S: RunScorer, C: ReferenceCatalog + ?Sized>(
    scorer: &S,
    catalog: &C,
    preprocess: PreprocessConfig,
    queries: &[Spectrum],
    backend_name: String,
) -> PipelineOutcome {
    let (binned, rejected_queries) = Preprocessor::new(preprocess).run_batch(queries);
    let window = PrecursorWindow::open_default();
    let lists = candidate_lists(&catalog.candidate_index(), &window, &binned);
    let mean_candidates = if binned.is_empty() {
        0.0
    } else {
        lists.iter().map(Vec::len).sum::<usize>() as f64 / binned.len() as f64
    };
    let psms = assemble_psms(
        &binned,
        &best_hits(scorer, &binned, &lists, THREADS),
        catalog,
    );
    let FdrOutcome {
        accepted,
        threshold_score,
        decoys_above,
        ..
    } = filter_fdr(&psms, 0.01);
    PipelineOutcome {
        backend_name,
        psms,
        accepted,
        threshold_score,
        decoys_above,
        rejected_queries,
        total_queries: queries.len(),
        mean_candidates,
    }
}

/// The flat oracle over an index-backed engine's index with the index's
/// flat exact backend, under the engine's name.
fn classic_outcome(engine: &Engine, queries: &[Spectrum]) -> PipelineOutcome {
    let index = engine.index().expect("index-backed engine");
    let backend = index.to_exact_backend(THREADS).expect("same kind");
    let preprocess = index.kind().preprocess();
    flat_outcome(&backend, index, preprocess, queries, engine.backend_name())
}

/// A `from_backend` engine's receipt: exactly one [`ShardTiming`]
/// (shard 0), visited once per binned query with a non-empty candidate
/// list.
///
/// [`ShardTiming`]: hdoms_engine::ShardTiming
fn assert_one_shard(engine: &Engine, queries: &[Spectrum], receipt: &BatchReceipt) {
    let (binned, _) = Preprocessor::new(engine.preprocess()).run_batch(queries);
    let window = PrecursorWindow::open_default();
    let lists = candidate_lists(&engine.meta().candidate_index(), &window, &binned);
    let reached = lists.iter().filter(|list| !list.is_empty()).count();
    let shards: Vec<(u32, u64)> = (receipt.shard_timings.iter())
        .map(|t| (t.shard, t.visits))
        .collect();
    assert_eq!(
        shards,
        [(0, reached as u64)],
        "one shard, one visit per query"
    );
    assert_eq!(receipt.shards_touched, reached);
}

#[test]
fn streamed_batches_finalize_byte_identical_to_one_run() {
    let (workload, engine) = tiny_engine(9001);

    // One run over the whole workload.
    let (single, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);

    // The same workload in 5 uneven batches through one session.
    for batch_count in [2usize, 5] {
        let mut session = Session::new(Arc::clone(&engine), PrecursorWindow::open_default());
        let chunk = workload.queries.len().div_ceil(batch_count);
        for batch in workload.queries.chunks(chunk) {
            session.submit(batch, engine.threads());
        }
        let (streamed, _) = session.finalize(0.01);

        // Full structural equality (PSMs, accepted set, thresholds,
        // totals) — and the rendered tables are byte-identical.
        assert_eq!(streamed, single, "{batch_count}-batch session diverged");
        assert_eq!(
            render_table(engine.peptides(), &streamed),
            render_table(engine.peptides(), &single),
        );
    }
}

#[test]
fn session_matches_the_classic_pipeline_path() {
    let (workload, engine) = tiny_engine(9002);
    let classic = classic_outcome(&engine, &workload.queries);
    let (engine_outcome, receipt) =
        engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    assert_eq!(engine_outcome, classic);
    assert_eq!(receipt.queries, workload.queries.len());
    assert!(receipt.shards_touched > 0);
}

#[test]
fn per_batch_filtering_stays_reachable() {
    // The old `query` behaviour: each batch filtered alone. One-shot
    // searches per batch must equal a per-batch classic run — and the
    // union of per-batch acceptances generally differs from the pooled
    // session acceptance (that difference is the whole point of
    // cross-batch FDR; on a workload this small the thresholds can
    // coincide, so assert equality of the per-batch paths, not
    // divergence of the pooled one).
    let (workload, engine) = tiny_engine(9003);
    let chunk = workload.queries.len().div_ceil(3);
    for (i, batch) in workload.queries.chunks(chunk).enumerate() {
        let (one_shot, _) = engine.search(batch, PrecursorWindow::open_default(), 0.01);
        let classic = classic_outcome(&engine, batch);
        assert_eq!(
            one_shot, classic,
            "batch {i} diverged from the classic path"
        );
    }
}

#[test]
fn custom_backend_engines_match_the_pipeline() {
    // The escape hatch: a baseline backend without an index kind routed
    // through the engine — one shard of the engine's loop — must score
    // exactly like the flat loop, name included, and under any worker
    // budget.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9004);
    let config = AnnSoloConfig {
        threads: THREADS,
        ..AnnSoloConfig::default()
    };
    let backend = AnnSoloBackend::build(&workload.library, config);
    let classic = flat_outcome(
        &backend,
        &workload.library,
        config.preprocess,
        &workload.queries,
        backend.report_name(),
    );

    let engine = Arc::new(Engine::from_backend(
        Box::new(backend),
        config.preprocess,
        ReferenceMeta::from_library(&workload.library),
        THREADS,
    ));
    let window = PrecursorWindow::open_default();
    let (outcome, receipt) = engine.search(&workload.queries, window, 0.01);
    assert_eq!(outcome, classic);
    assert_eq!(outcome.backend_name, "ann-solo");
    assert_one_shard(&engine, &workload.queries, &receipt);
    let (solo, solo_receipt) = engine
        .search_with_workers_opts(&workload.queries, window, 0.01, 1, None)
        .expect("no override to validate");
    assert_eq!(solo, classic, "a 1-worker budget changed the rows");
    assert_one_shard(&engine, &workload.queries, &solo_receipt);
}

#[test]
fn mapped_engine_matches_open_and_cold_byte_for_byte() {
    // The zero-copy acceptance contract: an engine over `open_mapped`
    // (searching the `.hdx` bytes in place) renders PSM tables byte-identical to
    // a heap-read load (the same image in a heap buffer) and to the cold
    // `Engine::from_library` build that produced the index.
    let (workload, cold) = tiny_engine(9006);
    let path = std::env::temp_dir().join(format!(
        "hdoms-engine-mapped-equiv-{}.hdx",
        std::process::id()
    ));
    cold.index()
        .expect("cold keeps index")
        .write(&path)
        .unwrap();
    let warm = open_heap_read(&path);
    let mapped = open_mapped(&path);
    std::fs::remove_file(&path).ok();

    assert!(
        mapped
            .index()
            .expect("mapped keeps index")
            .shared_references()
            .is_mapped(),
        "open_mapped must search the file buffer in place"
    );
    assert!(!warm
        .index()
        .expect("warm keeps index")
        .shared_references()
        .is_mapped());

    let window = PrecursorWindow::open_default();
    let (cold_outcome, _) = cold.search(&workload.queries, window, 0.01);
    let (warm_outcome, _) = warm.search(&workload.queries, window, 0.01);
    let (mapped_outcome, _) = mapped.search(&workload.queries, window, 0.01);
    assert_eq!(mapped_outcome, warm_outcome);
    assert_eq!(mapped_outcome, cold_outcome);
    let cold_table = render_table(cold.peptides(), &cold_outcome);
    assert_eq!(render_table(warm.peptides(), &warm_outcome), cold_table);
    assert_eq!(render_table(mapped.peptides(), &mapped_outcome), cold_table);

    // Streaming sessions behave identically over the mapped engine too.
    let mut session = Session::new(Arc::clone(&mapped), window);
    let chunk = workload.queries.len().div_ceil(3);
    for batch in workload.queries.chunks(chunk) {
        session.submit(batch, mapped.threads());
    }
    assert_eq!(session.finalize(0.01).0, cold_outcome);
}

#[test]
fn instrumented_engine_is_byte_identical_and_stage_sums_reconcile() {
    // The observability contract: attaching a metrics registry changes
    // *nothing* about what the engine produces — the rendered PSM table
    // is byte-identical to an uninstrumented run — and the per-stage
    // histograms account for exactly the wall-clock the receipts
    // reported, batch for batch.
    let (workload, plain) = tiny_engine(9007);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    let registry = hdoms_obs::metrics::Registry::new();
    let mut instrumented = Engine::from_library(&workload.library, config);
    instrumented.attach_metrics(&registry);
    let instrumented = Arc::new(instrumented);

    let window = PrecursorWindow::open_default();
    let (plain_outcome, _) = plain.search(&workload.queries, window, 0.01);
    let plain_table = render_table(plain.peptides(), &plain_outcome);

    // Several one-shot batches, summing the stage timings out of each
    // receipt as ground truth for the histogram reconciliation.
    let chunk = workload.queries.len().div_ceil(3);
    let mut receipt_sums = hdoms_obs::trace::StageTimings::default();
    let mut batches = 0u64;
    for batch in workload.queries.chunks(chunk) {
        let (_, receipt) = instrumented.search(batch, window, 0.01);
        receipt_sums.accumulate(&receipt.stages);
        batches += 1;
    }

    // Byte-identity: the full-workload instrumented run renders the
    // exact table the uninstrumented engine rendered.
    let (outcome, receipt) = instrumented.search(&workload.queries, window, 0.01);
    assert_eq!(outcome, plain_outcome, "instrumentation changed the PSMs");
    assert_eq!(
        render_table(instrumented.peptides(), &outcome),
        plain_table,
        "instrumentation changed the rendered table"
    );
    receipt_sums.accumulate(&receipt.stages);
    batches += 1;

    // Reconciliation: each stage histogram saw one observation per
    // batch, and its recorded total matches the receipt sums within
    // 1 ms (both sides come from the same measurement; the slack covers
    // the histogram's integer-nanosecond accumulation).
    let snapshot = registry.snapshot();
    for (stage, receipt_ms) in [
        ("encode", receipt_sums.encode_ms),
        ("candidates", receipt_sums.candidates_ms),
        ("score", receipt_sums.score_ms),
        ("finalize", receipt_sums.finalize_ms),
    ] {
        let name = format!("hdoms_stage_{stage}_ms");
        let (_, hist) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == &name)
            .unwrap_or_else(|| panic!("{name} registered"));
        assert_eq!(hist.count(), batches, "{name} missed a batch");
        assert!(
            (hist.sum_ms() - receipt_ms).abs() < 1.0,
            "{name} sum {} ms disagrees with receipt sum {} ms",
            hist.sum_ms(),
            receipt_ms
        );
    }
}

#[test]
fn kernel_variants_render_byte_identical_psm_tables() {
    // The kernel-dispatch acceptance contract: whichever distance kernel
    // the process runs — the scalar fallback or the best SIMD path the
    // CPU offers (`HDOMS_KERNEL=scalar|auto`; `set_active` is the same
    // knob in API form) — cold, warm, and mapped engines render
    // byte-identical PSM tables, over a mapped iprg2012(0.01) index and
    // across the engine's internal block shapes (sharded scans, session
    // batching).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 9010);
    let mut config = IndexConfig {
        entries_per_shard: 256,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    let cold = Arc::new(Engine::from_library(&workload.library, config));
    let path = std::env::temp_dir().join(format!(
        "hdoms-engine-kernel-equiv-{}.hdx",
        std::process::id()
    ));
    cold.index()
        .expect("cold keeps index")
        .write(&path)
        .unwrap();
    let warm = open_heap_read(&path);
    let mapped = open_mapped(&path);
    std::fs::remove_file(&path).ok();
    assert!(mapped
        .index()
        .expect("mapped keeps index")
        .shared_references()
        .is_mapped());

    let window = PrecursorWindow::open_default();
    let run_all = |kind: hdoms_hdc::KernelKind| -> Vec<String> {
        let dispatch = hdoms_hdc::kernels::set_active(kind);
        let mut tables = Vec::new();
        for engine in [&cold, &warm, &mapped] {
            assert_eq!(engine.kernel_name(), dispatch.name());
            let (outcome, _) = engine.search(&workload.queries, window, 0.01);
            tables.push(render_table(engine.peptides(), &outcome));
        }
        // A streamed session over the mapped engine exercises a second
        // batch shape under the same kernel.
        let mut session = Session::new(Arc::clone(&mapped), window);
        let chunk = workload.queries.len().div_ceil(4);
        for batch in workload.queries.chunks(chunk) {
            session.submit(batch, mapped.threads());
        }
        tables.push(render_table(mapped.peptides(), &session.finalize(0.01).0));
        tables
    };

    let scalar_tables = run_all(hdoms_hdc::KernelKind::Scalar);
    let auto_tables = run_all(hdoms_hdc::KernelKind::Auto);
    // Restore the default selection for the rest of the test process.
    hdoms_hdc::kernels::set_active(hdoms_hdc::KernelKind::Auto);

    // Within one kernel: cold ≡ warm ≡ mapped ≡ streamed (the one-shot
    // tables include per-batch receipts of a single batch, so compare
    // the three engine-construction tables to each other and the
    // streamed table to the mapped one-shot).
    for tables in [&scalar_tables, &auto_tables] {
        assert_eq!(tables[0], tables[1], "cold vs warm diverged");
        assert_eq!(tables[0], tables[2], "cold vs mapped diverged");
        assert_eq!(tables[2], tables[3], "one-shot vs streamed diverged");
    }
    // Across kernels: byte-identical tables, whatever the variant.
    assert_eq!(
        scalar_tables, auto_tables,
        "kernel selection changed output bytes"
    );
    assert!(
        scalar_tables[0].lines().count() > 1,
        "equivalence must be asserted over a non-trivial PSM table"
    );
}

#[test]
fn warm_engine_over_persisted_index_matches_cold() {
    let (workload, cold) = tiny_engine(9005);
    let path = std::env::temp_dir().join(format!("hdoms-engine-equiv-{}.hdx", std::process::id()));
    cold.index()
        .expect("cold keeps index")
        .write(&path)
        .unwrap();
    let warm = open_heap_read(&path);
    std::fs::remove_file(&path).ok();

    let (cold_outcome, _) = cold.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    let (warm_outcome, _) = warm.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    assert_eq!(cold_outcome, warm_outcome);

    // The index's own scorer through `from_backend` is a sharded engine
    // of one shard: the index's rows and counts at every worker budget,
    // under the scorer's own name.
    let index = warm.index().expect("warm keeps index");
    let one_shard = Arc::new(Engine::from_backend(
        Box::new(index.to_exact_backend(THREADS).expect("same kind")),
        index.kind().preprocess(),
        ReferenceMeta::clone(&index.catalog()),
        THREADS,
    ));
    assert_eq!(one_shard.backend_name(), "exact-hd");
    let window = PrecursorWindow::open_default();
    for workers in [1, 2, 3, 7] {
        let run = |engine: &Arc<Engine>| {
            let searched =
                engine.search_with_workers_opts(&workload.queries, window, 0.01, workers, None);
            searched.expect("no override to validate")
        };
        let ((sharded, sharded_receipt), (single, single_receipt)) = (run(&warm), run(&one_shard));
        assert_eq!(single.psms, sharded.psms, "{workers} workers: PSM rows");
        assert_eq!(single.threshold_score, sharded.threshold_score);
        assert_eq!(single.identifications(), sharded.identifications());
        let candidates = |r: &BatchReceipt| (r.candidates_scored, r.candidates_pre);
        assert_eq!(candidates(&single_receipt), candidates(&sharded_receipt));
        assert_one_shard(&one_shard, &workload.queries, &single_receipt);
    }
}

#[test]
fn every_construction_derives_the_one_catalog() {
    // However an index comes to be — cold build, heap load, mapped
    // load, append — its catalog is the library's, its engine reads
    // that very table, and its id → shard table describes its shards.
    let library = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9008).library;
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 512;
    }
    let cold = LibraryIndex::build(&library, config.clone());
    let path = std::env::temp_dir().join(format!("hdoms-catalog-{}.hdx", std::process::id()));
    cold.write(&path).expect("write index");
    let (head, tail) = library.entries().split_at(library.len() / 3);
    let head: SpectralLibrary = head.iter().cloned().collect();
    let mut appended = LibraryIndex::build(&head, config);
    let held = Arc::as_ptr(&appended.catalog());
    appended.append_entries(tail, THREADS);
    assert_eq!(
        Arc::as_ptr(&appended.catalog()),
        held,
        "an append grows the catalog the index holds: no old row is copied"
    );
    let constructions = [
        ("cold", cold),
        (
            "heap",
            LibraryIndex::from_bytes(&std::fs::read(&path).expect("image"), THREADS)
                .expect("heap load"),
        ),
        (
            "mapped",
            LibraryIndex::open_mapped(&path, THREADS).expect("mapped load"),
        ),
        ("appended", appended),
    ];
    std::fs::remove_file(&path).ok();

    let expected = ReferenceMeta::from_library(&library);
    for (name, index) in constructions {
        let catalog = index.catalog();
        assert_eq!(*catalog, expected, "{name}: catalog");
        assert!(
            Arc::ptr_eq(&catalog, &index.catalog()),
            "{name}: re-derived"
        );
        // The shards are runs of one table holding every id once, whose
        // id column every handle shares.
        let table = index.candidate_index();
        assert!(
            index.shards().flatten().eq(table.pairs()),
            "{name}: shard runs"
        );
        let mut ids = table.ids().to_vec();
        ids.sort_unstable();
        assert!(
            ids.into_iter().eq(0..library.len() as u32),
            "{name}: dense ids"
        );
        let again = index.candidate_index();
        assert!(Arc::ptr_eq(table.ids(), again.ids()), "{name}: id column");
        let engine = Engine::from_index(index, THREADS).expect("an index wires its own kind");
        assert!(std::ptr::eq(engine.meta(), &*catalog), "{name}: engine");
    }
}

#[test]
fn an_engine_scores_each_shard_its_index_reaches_in_one_run() {
    // One mass on both sides of a shard boundary, a third entry of that
    // mass in the earlier shard, out of id order: the image an append of
    // an earlier release wrote (the index crate's fixture, pinned by its
    // `a_mass_shared_across_a_shard_boundary_costs_one_visit_per_shard`).
    // The engine's candidate index is the index's own shard walk, so a
    // receipt counts one visit per shard a query reaches — counted here
    // as the distinct shards among each query's candidates.
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::candidate_lists;
    use std::collections::BTreeSet;

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../index/tests/fixtures/v3-append.hdx"
    );
    let index = LibraryIndex::open_mapped(std::path::Path::new(fixture), THREADS).expect("fixture");
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 37);
    let mut shard_of = vec![u32::MAX; index.entry_count()];
    for (s, shard) in (0u32..).zip(index.shards()) {
        shard.iter().for_each(|&(_, id)| shard_of[id as usize] = s);
    }
    assert_eq!(shard_of[25], 0, "the third twin sits in shard 0");
    let shard = |s: usize| index.shards().nth(s).expect("two shards");
    assert_eq!(
        shard(0).last().map(|e| e.0),
        Some(shard(1)[0].0),
        "the cut must fall between the twins"
    );

    let window = PrecursorWindow::open_default();
    let (binned, _) = Preprocessor::new(index.kind().preprocess()).run_batch(&workload.queries);
    let reached: usize = candidate_lists(&index.candidate_index(), &window, &binned)
        .iter()
        .map(|list| {
            let shards: BTreeSet<u32> = list.iter().map(|&id| shard_of[id as usize]).collect();
            shards.len()
        })
        .sum();
    let engine = Arc::new(Engine::from_index(index, THREADS).expect("own kind"));
    let (_, receipt) = engine.search(&workload.queries, window, 0.01);
    assert_eq!(receipt.shards_touched, reached);
}
