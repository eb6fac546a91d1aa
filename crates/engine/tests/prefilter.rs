//! Acceptance contract of the two-stage candidate cascade: `Off` is
//! byte-identical to the pre-cascade engine, `TopK(K ≥ window)` is
//! exactly equivalent to `Off` (PSMs **and** receipts), a lossy K
//! keeps recall@K ≥ 0.99 at a ≥ 3× smaller scan and preserves the 1% FDR
//! identification count on the evaluation workload, and the knob is
//! rejected on engines that cannot run it.
//! A session's prefilter must match the per-call option. The recall
//! and reduction assertions are the retired `prefilter_bench`'s, run in
//! process; they want the release test pass (seconds there, a minute in
//! debug). `crates/serve/tests/metrics_storm.rs` reconciles the
//! prefilter series against receipts and `server.stats`.

use hdoms_engine::{BatchReceipt, Engine, ReferenceMeta, Session};
use hdoms_index::{IndexConfig, IndexedBackendKind};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::psm::render_table;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, DEFAULT_TOP_K};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const THREADS: usize = 4;
const DIM: usize = 2048;

fn engine_for(workload: &SyntheticWorkload, dim: usize, entries_per_shard: usize) -> Engine {
    let mut config = IndexConfig {
        entries_per_shard,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = dim;
    }
    Engine::from_library(&workload.library, config)
}

/// The receipt fields the cascade contract covers: everything the
/// engine *counts* (timings legitimately differ run to run).
fn counted(receipt: &BatchReceipt) -> (usize, usize, usize, usize, usize) {
    (
        receipt.queries,
        receipt.psms,
        receipt.candidates_scored,
        receipt.candidates_pre,
        receipt.shards_touched,
    )
}

/// One search of `workload`'s queries at `THREADS` under `prefilter`.
fn search_under(
    engine: &Arc<Engine>,
    workload: &SyntheticWorkload,
    window: PrecursorWindow,
    prefilter: PrefilterConfig,
) -> (PipelineOutcome, BatchReceipt) {
    engine
        .search_with_workers_opts(&workload.queries, window, 0.01, THREADS, Some(prefilter))
        .expect("sharded index-backed engine accepts TopK")
}

#[test]
fn topk_at_window_size_is_byte_identical_to_off() {
    // K at the library size bounds every precursor window, so the
    // narrowing stage must pass every candidate list through untouched:
    // identical PSM bytes, identical accounting.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7001);
    let window = PrecursorWindow::open_default();

    let engine = Arc::new(engine_for(&workload, DIM, 64));
    let covering = PrefilterConfig::TopK(workload.library.len());
    let (off_outcome, off_receipt) = engine.search(&workload.queries, window, 0.01);
    let (topk_outcome, topk_receipt) = search_under(&engine, &workload, window, covering);

    assert_eq!(topk_outcome, off_outcome);
    assert_eq!(
        render_table(engine.peptides(), &topk_outcome),
        render_table(engine.peptides(), &off_outcome),
    );
    assert_eq!(counted(&topk_receipt), counted(&off_receipt));
    assert_eq!(
        topk_receipt.candidates_pre, topk_receipt.candidates_scored,
        "a window-covering K must not drop a candidate"
    );
    assert_eq!(off_receipt.sketch_ms, 0.0, "off pays no sketch cost");
}

#[test]
fn off_engine_is_byte_identical_whether_set_explicitly_or_not() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7002);
    let window = PrecursorWindow::open_default();

    let engine = Arc::new(engine_for(&workload, DIM, 64));
    let (base_outcome, base_receipt) = engine.search(&workload.queries, window, 0.01);
    let (expl_outcome, expl_receipt) =
        search_under(&engine, &workload, window, PrefilterConfig::Off);
    assert_eq!(expl_outcome, base_outcome);
    assert_eq!(
        render_table(engine.peptides(), &expl_outcome),
        render_table(engine.peptides(), &base_outcome),
    );
    assert_eq!(counted(&expl_receipt), counted(&base_receipt));
    assert_eq!(expl_receipt.sketch_ms, 0.0);
}

#[test]
fn lossy_k_preserves_fdr_identifications_on_iprg() {
    // The recall contract at the default K on the evaluation workload
    // (the scale the retired `prefilter_bench` asserted it at): precursor
    // windows (~1300 candidates) are narrowed at least 3x (~5x measured),
    // yet at least 99% of the unfiltered run's identifications survive
    // and the 1% FDR identification count moves by at most 2%.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.02), 7003);
    let window = PrecursorWindow::open_default();

    let engine = Arc::new(engine_for(&workload, DIM, 256));
    let (off_outcome, _) = engine.search(&workload.queries, window, 0.01);
    let (topk_outcome, topk_receipt) = search_under(
        &engine,
        &workload,
        window,
        PrefilterConfig::TopK(DEFAULT_TOP_K),
    );

    assert!(
        topk_receipt.candidates_scored < topk_receipt.candidates_pre,
        "the evaluation windows must actually be narrowed \
         ({} -> {})",
        topk_receipt.candidates_pre,
        topk_receipt.candidates_scored,
    );
    let ids_off = off_outcome.identifications();
    let ids_k = topk_outcome.identifications();
    let tolerance = ((ids_off as f64) * 0.02).ceil().max(1.0) as usize;
    assert!(
        ids_k.abs_diff(ids_off) <= tolerance,
        "1% FDR ids moved {ids_off} -> {ids_k} (tolerance {tolerance})"
    );

    // recall@K over identifications: of the unfiltered run's accepted
    // (1% FDR) PSMs, the share the cascade reproduces exactly (same
    // query → same reference).
    let best_of = |outcome: &hdoms_oms::pipeline::PipelineOutcome| -> HashMap<u32, u32> {
        let psms = outcome.psms.iter();
        psms.map(|p| (p.query_id, p.reference_id)).collect()
    };
    let (reference, cascaded) = (best_of(&off_outcome), best_of(&topk_outcome));
    let accepted = off_outcome.accepted_query_ids();
    let preserved = accepted
        .iter()
        .filter(|q| cascaded.get(q) == reference.get(q))
        .count();
    let recall = preserved as f64 / accepted.len().max(1) as f64;
    let reduction = topk_receipt.candidates_pre as f64 / topk_receipt.candidates_scored as f64;
    assert!(recall >= 0.99, "recall@{DEFAULT_TOP_K} is {recall:.4}");
    assert!(
        reduction >= 3.0,
        "candidate-scan reduction is {reduction:.2}x"
    );
}

#[test]
fn a_session_prefilter_matches_the_per_call_option() {
    // A session set to `config` must search exactly like
    // `search_with_workers_opts(.., Some(config))` — up to TopK and back
    // down to Off.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7004);
    let window = PrecursorWindow::open_default();
    let k = 8; // deliberately lossy so Off and TopK are distinguishable

    let engine = Arc::new(engine_for(&workload, DIM, 64));
    let (off_outcome, off_receipt) = engine.search(&workload.queries, window, 0.01);
    let (topk_outcome, topk_receipt) =
        search_under(&engine, &workload, window, PrefilterConfig::TopK(k));
    assert_ne!(topk_outcome, off_outcome, "K = {k} must be lossy here");
    assert!(topk_receipt.candidates_scored < topk_receipt.candidates_pre);
    assert_eq!(off_receipt.sketch_ms, 0.0);
    assert_eq!(off_receipt.candidates_pre, off_receipt.candidates_scored);

    for (config, expected) in [
        (PrefilterConfig::TopK(k), &topk_outcome),
        (PrefilterConfig::Off, &off_outcome),
    ] {
        let mut session = Session::new(Arc::clone(&engine), window);
        session.set_prefilter(config).expect("accepted");
        session.submit(&workload.queries, engine.threads());
        assert_eq!(&session.finalize(0.01).0, expected, "session at {config:?}");
    }
}

#[test]
fn topk_is_rejected_off_the_sharded_index_path() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7005);

    // Custom-backend engine: no index to sketch.
    let config = hdoms_baselines::annsolo::AnnSoloConfig {
        threads: THREADS,
        ..hdoms_baselines::annsolo::AnnSoloConfig::default()
    };
    let backend = hdoms_baselines::annsolo::AnnSoloBackend::build(&workload.library, config);
    let custom = Arc::new(Engine::from_backend(
        Box::new(backend),
        config.preprocess,
        ReferenceMeta::from_library(&workload.library),
        THREADS,
    ));
    assert!(custom.ready_prefilter(PrefilterConfig::TopK(16)).is_err());
    assert!(custom.ready_prefilter(PrefilterConfig::Off).is_ok());
    let mut session = Session::new(Arc::clone(&custom), PrecursorWindow::open_default());
    assert!(session.set_prefilter(PrefilterConfig::TopK(16)).is_err());
    assert!(session.set_prefilter(PrefilterConfig::Off).is_ok());

    // The per-call option enforces the same contract.
    assert!(custom
        .search_with_workers_opts(
            &workload.queries,
            PrecursorWindow::open_default(),
            0.01,
            THREADS,
            Some(PrefilterConfig::TopK(16)),
        )
        .is_err());
}

#[test]
fn a_zero_k_is_an_error_at_every_door() {
    // K = 0 used to pass `ready_prefilter` and then panic inside the
    // sketch stage on an open window; every door now refuses it with
    // the text `PrefilterConfig::parse("k=0")` gives.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 5);
    let engine = Arc::new(engine_for(&workload, DIM, 64));
    let zero = PrefilterConfig::TopK(0);
    let text = PrefilterConfig::parse("k=0").expect_err("k=0 does not parse");
    assert!(text.contains("prefilter K must be ≥ 1"), "{text}");
    assert_eq!(engine.ready_prefilter(zero), Err(text.clone()));
    let searched = engine.search_with_workers_opts(
        &workload.queries,
        PrecursorWindow::open_default(),
        0.01,
        THREADS,
        Some(zero),
    );
    assert_eq!(searched.err(), Some(text.clone()));
    let mut session = Session::new(Arc::clone(&engine), PrecursorWindow::open_default());
    assert_eq!(session.set_prefilter(zero), Err(text));
    assert_eq!(session.prefilter(), PrefilterConfig::Off);
    assert!(engine.ready_prefilter(PrefilterConfig::TopK(1)).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 3: for arbitrary dimensions, shard sizes, and window
    /// shapes, `TopK(K ≥ every window)` renders byte-identical PSM
    /// tables to `Off` — K at the library size bounds any window.
    #[test]
    fn covering_k_equals_off_for_arbitrary_shapes(
        seed in 0u64..1000,
        dim_pow in 8u32..12,          // dim 256..2048
        shard_pow in 4u32..8,         // 16..128 entries/shard
        standard_window in any::<bool>(),
    ) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let dim = 1usize << dim_pow;
        let shard = 1usize << shard_pow;
        let window = if standard_window {
            PrecursorWindow::standard_default()
        } else {
            PrecursorWindow::open_default()
        };

        let engine = Arc::new(engine_for(&workload, dim, shard));
        let covering = PrefilterConfig::TopK(workload.library.len());
        let (off_outcome, off_receipt) = engine.search(&workload.queries, window, 0.01);
        let (topk_outcome, topk_receipt) = search_under(&engine, &workload, window, covering);
        prop_assert_eq!(&topk_outcome, &off_outcome);
        prop_assert_eq!(
            render_table(engine.peptides(), &topk_outcome),
            render_table(engine.peptides(), &off_outcome)
        );
        prop_assert_eq!(counted(&topk_receipt), counted(&off_receipt));
    }
}
