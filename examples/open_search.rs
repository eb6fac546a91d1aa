//! Full open modification search on an iPRG2012-shaped workload.
//!
//! Generates a synthetic workload (modified + unmodified queries against a
//! target/decoy library), encodes the library once into an exact HD
//! engine, searches it under both a standard and an open precursor
//! window, and reports identifications, FDR behaviour and the modified
//! peptides only the open search can find — the motivation of the whole
//! paper.
//!
//! Run: `cargo run --release --example open_search`

use hdoms::engine::Engine;
use hdoms::index::IndexConfig;
use hdoms::ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms::oms::window::PrecursorWindow;
use std::sync::Arc;

fn main() {
    let spec = WorkloadSpec::iprg2012(0.005);
    println!(
        "workload: {} — {} queries vs {} library spectra",
        spec.name,
        spec.queries,
        spec.library_spectra()
    );
    let workload = SyntheticWorkload::generate(&spec, 2024);
    let engine = Arc::new(Engine::from_library(
        &workload.library,
        IndexConfig::default(),
    ));

    // Standard search: tight precursor window.
    let (standard, _) = engine.search(&workload.queries, PrecursorWindow::standard_default(), 0.01);

    // Open search: wide window reaching modified peptides.
    let (open, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);

    for (label, outcome) in [("standard", &standard), ("open", &open)] {
        let eval = outcome.evaluate(&workload);
        println!(
            "\n{label} search ({}): {} identifications at 1% FDR \
             (correct {}, recall {:.2}, mean candidates/query {:.0})",
            outcome.backend_name,
            outcome.identifications(),
            eval.correct,
            eval.recall,
            outcome.mean_candidates,
        );
    }

    // The delta is exactly the modified queries.
    let std_ids = standard.accepted_query_ids();
    let open_ids = open.accepted_query_ids();
    let mut gained: Vec<u32> = open_ids.difference(&std_ids).copied().collect();
    gained.sort_unstable();
    let gained_modified = gained
        .iter()
        .filter(|&&q| workload.truth[q as usize].is_modified())
        .count();
    println!(
        "\nopen search gained {} queries over standard search; {} of them \
         carry a post-translational modification.",
        gained.len(),
        gained_modified
    );
    // Show a few example discoveries with their mass shifts.
    let mut shown = 0;
    for &q in &gained {
        if let hdoms::ms::dataset::QueryTruth::Modified {
            library_id,
            modification,
            ..
        } = &workload.truth[q as usize]
        {
            let peptide = &workload.library.get(*library_id).unwrap().peptide;
            println!("  query {q}: {peptide} + {modification}");
            shown += 1;
            if shown == 5 {
                break;
            }
        }
    }
}
