//! Figure 11 — HD robustness: identifications vs injected bit error rate.
//!
//! Sweeps bit error rates of 0.15 %–20 % injected into both the encoding
//! outputs (queries) and the stored reference hypervectors, for 1/2/3-bit
//! ID precision, on both workloads. The paper's findings: identifications
//! hold up to ~10 % BER, and multi-bit ID hypervectors beat binary ones
//! at every error level.
//!
//! Run: `cargo run --release -p hdoms-bench --bin fig11_robustness`

use hdoms_bench::{print_table, FigureOptions};
use hdoms_engine::{Engine, ReferenceMeta};
use hdoms_hdc::multibit::IdPrecision;
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::search::{ExactBackend, ExactBackendConfig};
use hdoms_oms::window::PrecursorWindow;
use std::sync::Arc;

fn main() {
    let options = FigureOptions::parse(0.04, 8192);
    let bers = [0.0015f64, 0.01, 0.05, 0.10, 0.20];

    for spec in [
        WorkloadSpec::iprg2012(options.scale),
        WorkloadSpec::hek293(options.scale / 2.0),
    ] {
        let workload = SyntheticWorkload::generate(&spec, options.seed);
        let meta = ReferenceMeta::from_library(&workload.library);
        let mut rows = Vec::new();
        for precision in IdPrecision::ALL {
            eprintln!(
                "[{}] encoding library at {} dims, {:?}…",
                spec.name, options.dim, precision
            );
            let mut config = ExactBackendConfig::default();
            config.encoder.dim = options.dim;
            config.encoder.id_precision = precision;
            let clean = ExactBackend::build(&workload.library, config);
            let mut row = vec![format!("ID precision {} bit", precision.bits())];
            for &ber in &bers {
                // Average over independent error draws — a single draw's
                // identification count moves by a few percent because the
                // FDR threshold reacts to individual near-boundary decoys.
                let trials = 3u64;
                let total: usize = (0..trials)
                    .map(|t| {
                        let noisy = clean.with_error_rates(ber, ber, options.seed ^ (0xbe4 + t));
                        let engine = Arc::new(Engine::from_backend(
                            Box::new(noisy),
                            config.preprocess,
                            meta.clone(),
                            config.threads,
                        ));
                        let window = PrecursorWindow::open_default();
                        engine
                            .search(&workload.queries, window, 0.01)
                            .0
                            .identifications()
                    })
                    .sum();
                row.push((total as f64 / trials as f64).round().to_string());
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("config".to_owned())
            .chain(bers.iter().map(|b| format!("{}% BER", b * 100.0)))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!(
                "Figure 11 ({}): identifications vs bit error rate (D={})",
                spec.name, options.dim
            ),
            &header_refs,
            &rows,
        );
    }
    println!(
        "\nShape checks vs the paper: identifications are nearly flat out to \
         ~10% BER (the abstract's error-tolerance claim) and fall off \
         sharply at 20%. The paper additionally reports multi-bit ID \
         hypervectors (§4.2.2) identifying noticeably more peptides than \
         binary ones; on this synthetic workload the multi-bit advantage is \
         within a few percent."
    );
}
