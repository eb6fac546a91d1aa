//! Two-stage cascade benchmark: recall@K and candidate-scan reduction
//! of the sketch prefilter against the exhaustive exact scan.
//!
//! Runs the same query batch through one warm engine twice per preset —
//! `--prefilter off` (the reference) and `--prefilter k=N` (the
//! cascade) — and reports, for `tiny` and `iprg2012`:
//!
//! * `recall_at_k` — fraction of the reference run's **accepted** PSMs
//!   (query → reference assignments passing 1% FDR) the cascade
//!   reproduces identically; this is the identification-preservation
//!   recall the ANN-SoLo cascade literature reports,
//! * `best_hit_agreement` — the stricter all-PSM agreement (every
//!   best hit, accepted or not, including the near-threshold ones the
//!   FDR filter discards),
//! * `reduction` — precursor-window candidates generated divided by
//!   candidates forwarded to the exact scan (`candidates_pre /
//!   candidates_post` from the batch receipt),
//! * `speedup` — reference batch wall-clock over cascade wall-clock
//!   (best of three each; includes the sketch stage's own cost),
//! * `score_speedup` — the same ratio over the **scoring stage** only
//!   (the stage the cascade targets; query encoding and candidate
//!   generation are identical either way and dilute the batch ratio),
//! * `ids_off` / `ids_k` — identifications at 1% FDR with the cascade
//!   off and on (the cascade must not move the FDR-level id count by
//!   more than 2%),
//! * `psms_identical` — whether the two PSM tables are byte-identical
//!   (guaranteed on `tiny`, where every precursor window fits inside K
//!   and the narrowing stage passes candidates through untouched).
//!
//! Acceptance (asserted, exit code 101 on failure): on the iPRG2012
//! preset at the default K the cascade keeps `recall_at_k ≥ 0.99`,
//! reduces the exact-scan volume by ≥ 3×, and preserves the 1% FDR id
//! count within 2%; on `tiny` the tables are identical.
//!
//! The JSON object is printed as the **last line** of stdout so future
//! PRs can track the trajectory with `... | tail -1 | <tool>`.
//!
//! Usage: `prefilter_bench [--scale <f64>] [--seed <u64>] [--dim <usize>]`

use hdoms_bench::FigureOptions;
use hdoms_engine::{BatchReceipt, Engine};
use hdoms_index::{IndexConfig, IndexedBackendKind};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::search::ExactBackendConfig;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, DEFAULT_TOP_K};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 8;
const REPEATS: usize = 3;
const FDR: f64 = 0.01;

/// One preset's measurements, reference vs cascade.
struct PresetReport {
    name: String,
    queries: usize,
    references: usize,
    recall_at_k: f64,
    best_hit_agreement: f64,
    reduction: f64,
    speedup: f64,
    score_speedup: f64,
    sketch_ms: f64,
    candidates_pre: usize,
    candidates_post: usize,
    ids_off: usize,
    ids_k: usize,
    psms_identical: bool,
}

/// Best-of-`REPEATS` run of one batch under one prefilter config.
fn run(
    engine: &Arc<Engine>,
    queries: &[hdoms_ms::spectrum::Spectrum],
    config: PrefilterConfig,
) -> (PipelineOutcome, BatchReceipt, f64) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let (outcome, receipt) = engine
            .search_with_workers_opts(
                queries,
                PrecursorWindow::open_default(),
                FDR,
                THREADS,
                Some(config),
            )
            .expect("sharded index-backed engine accepts any prefilter");
        let seconds = start.elapsed().as_secs_f64();
        if seconds < best {
            best = seconds;
        }
        kept = Some((outcome, receipt));
    }
    let (outcome, receipt) = kept.expect("REPEATS >= 1");
    (outcome, receipt, best)
}

fn measure(spec: &WorkloadSpec, seed: u64, dim: usize, k: usize) -> PresetReport {
    let workload = SyntheticWorkload::generate(spec, seed);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = dim;
    let engine = Arc::new(Engine::from_library(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            threads: THREADS,
            ..IndexConfig::default()
        },
    ));

    let (off, off_receipt, off_s) = run(&engine, &workload.queries, PrefilterConfig::Off);
    let (topk, topk_receipt, topk_s) = run(&engine, &workload.queries, PrefilterConfig::TopK(k));

    // The receipts' accounting invariant: off scans the full windows.
    assert_eq!(off_receipt.candidates_pre, off_receipt.candidates_post);

    // recall@K over identifications: of the reference run's accepted
    // (1% FDR) PSMs, how many does the cascade reproduce exactly (same
    // query → same reference)? Near-threshold best hits the FDR filter
    // discards are tracked separately as `best_hit_agreement`.
    let accepted = off.accepted_query_ids();
    let reference: HashMap<u32, u32> = off
        .psms
        .iter()
        .map(|p| (p.query_id, p.reference_id))
        .collect();
    let topk_by_query: HashMap<u32, u32> = topk
        .psms
        .iter()
        .map(|p| (p.query_id, p.reference_id))
        .collect();
    let preserved = accepted
        .iter()
        .filter(|q| topk_by_query.get(q) == reference.get(q))
        .count();
    let recall_at_k = if accepted.is_empty() {
        1.0
    } else {
        preserved as f64 / accepted.len() as f64
    };
    let agreed = topk
        .psms
        .iter()
        .filter(|p| reference.get(&p.query_id) == Some(&p.reference_id))
        .count();
    let best_hit_agreement = if reference.is_empty() {
        1.0
    } else {
        agreed as f64 / reference.len() as f64
    };

    let reduction =
        topk_receipt.candidates_pre as f64 / (topk_receipt.candidates_post as f64).max(1.0);

    PresetReport {
        name: spec.name.clone(),
        queries: workload.queries.len(),
        references: workload.library.len(),
        recall_at_k,
        best_hit_agreement,
        reduction,
        speedup: off_s / topk_s.max(1e-9),
        // The sharded backend runs the sketch stage inside scoring, so
        // the cascade's score_ms already pays for its own narrowing.
        score_speedup: off_receipt.stages.score_ms / topk_receipt.stages.score_ms.max(1e-9),
        sketch_ms: topk_receipt.sketch_ms,
        candidates_pre: topk_receipt.candidates_pre,
        candidates_post: topk_receipt.candidates_post,
        ids_off: off.identifications(),
        ids_k: topk.identifications(),
        psms_identical: off.psms == topk.psms,
    }
}

fn print_report(r: &PresetReport, k: usize) {
    println!(
        "-- {} ({} queries, {} references) --",
        r.name, r.queries, r.references
    );
    println!("recall@{k}         {:>10.4}", r.recall_at_k);
    println!("best-hit agree    {:>10.4}", r.best_hit_agreement);
    println!(
        "scan reduction    {:>10.2}x  ({} -> {} candidates)",
        r.reduction, r.candidates_pre, r.candidates_post,
    );
    println!(
        "batch speedup     {:>10.2}x  (sketch stage {:.2} ms)",
        r.speedup, r.sketch_ms
    );
    println!("score speedup     {:>10.2}x", r.score_speedup);
    println!(
        "ids @1% FDR       {:>6} off / {:<6} k={k}",
        r.ids_off, r.ids_k
    );
    println!("identical PSMs    {:>10}", r.psms_identical);
}

fn main() {
    let options = FigureOptions::parse(0.02, 8192);
    let k = DEFAULT_TOP_K;
    println!(
        "== prefilter bench (dim {}, K {k}, scale {}) ==",
        options.dim, options.scale
    );

    let tiny = measure(&WorkloadSpec::tiny(), options.seed, options.dim, k);
    print_report(&tiny, k);
    let iprg = measure(
        &WorkloadSpec::iprg2012(options.scale),
        options.seed,
        options.dim,
        k,
    );
    print_report(&iprg, k);

    // Acceptance bars (ISSUE 8): the cascade is only worth shipping if
    // it is near-lossless while skipping most of the exact scan.
    assert!(
        tiny.psms_identical,
        "tiny windows fit inside K={k}; the cascade must pass them through untouched"
    );
    assert!(
        iprg.recall_at_k >= 0.99,
        "recall@{k} {:.4} below the 0.99 acceptance bar",
        iprg.recall_at_k
    );
    assert!(
        iprg.reduction >= 3.0,
        "candidate-scan reduction {:.2}x below the 3x acceptance bar",
        iprg.reduction
    );
    let fdr_tolerance = ((iprg.ids_off as f64) * 0.02).ceil().max(1.0) as usize;
    assert!(
        iprg.ids_k.abs_diff(iprg.ids_off) <= fdr_tolerance,
        "1% FDR ids moved {} -> {} (tolerance {})",
        iprg.ids_off,
        iprg.ids_k,
        fdr_tolerance
    );

    // Machine-readable trailer (hand-rolled: no JSON crate resolves
    // offline).
    println!(
        "{{\"bench\":\"prefilter\",\"dim\":{},\"scale\":{},\"seed\":{},\"k\":{k},\
         \"tiny_psms_identical\":{},\
         \"recall_at_k\":{:.4},\"best_hit_agreement\":{:.4},\
         \"reduction\":{:.3},\"speedup\":{:.3},\"score_speedup\":{:.3},\
         \"sketch_ms\":{:.3},\"candidates_pre\":{},\"candidates_post\":{},\
         \"ids_off\":{},\"ids_k\":{}}}",
        options.dim,
        options.scale,
        options.seed,
        tiny.psms_identical,
        iprg.recall_at_k,
        iprg.best_hit_agreement,
        iprg.reduction,
        iprg.speedup,
        iprg.score_speedup,
        iprg.sketch_ms,
        iprg.candidates_pre,
        iprg.candidates_post,
        iprg.ids_off,
        iprg.ids_k,
    );
}
