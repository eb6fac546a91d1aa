//! Table 1 — OMS workload settings.
//!
//! Prints the paper's dataset sizes next to the synthetic stand-ins this
//! reproduction evaluates on, including the open-window candidate blow-up
//! that motivates the accelerator.
//!
//! Run: `cargo run --release -p hdoms-bench --bin table1_workloads`

use hdoms_bench::{fmt, print_table, FigureOptions};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::preprocess::Preprocessor;
use hdoms_oms::pipeline::ReferenceCatalog;
use hdoms_oms::window::PrecursorWindow;

fn main() {
    let options = FigureOptions::parse(0.01, 8192);

    print_table(
        "Table 1: OMS workload settings (paper)",
        &["dataset", "query spectra", "reference spectra"],
        &[
            vec!["iPRG2012".into(), "16k".into(), "1M".into()],
            vec!["HEK293".into(), "47k".into(), "3M".into()],
        ],
    );

    let mut rows = Vec::new();
    for spec in [
        WorkloadSpec::iprg2012(options.scale),
        WorkloadSpec::hek293(options.scale),
    ] {
        let workload = SyntheticWorkload::generate(&spec, options.seed);
        let pre = Preprocessor::default();
        let (queries, rejected) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let open = PrecursorWindow::open_default();
        let standard = PrecursorWindow::standard_default();
        let open_mean = hdoms_bench::mean(
            &queries
                .iter()
                .map(|q| index.window(&open, q.neutral_mass).len() as f64)
                .collect::<Vec<_>>(),
        );
        let std_mean = hdoms_bench::mean(
            &queries
                .iter()
                .map(|q| index.window(&standard, q.neutral_mass).len() as f64)
                .collect::<Vec<_>>(),
        );
        rows.push(vec![
            spec.name.clone(),
            workload.queries.len().to_string(),
            workload.library.len().to_string(),
            rejected.to_string(),
            fmt(std_mean, 1),
            fmt(open_mean, 1),
            fmt(open_mean / std_mean.max(1.0), 1),
        ]);
    }
    print_table(
        &format!("Synthetic stand-ins at scale {}", options.scale),
        &[
            "workload",
            "queries",
            "library (incl. decoys)",
            "rejected queries",
            "std-window cands",
            "open-window cands",
            "blow-up",
        ],
        &rows,
    );
    println!(
        "\nThe open window multiplies per-query candidates by the blow-up \
         factor — the search-volume problem the MLC RRAM accelerator targets."
    );
}
