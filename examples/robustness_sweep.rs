//! HD robustness sweep: identifications vs injected bit error rate.
//!
//! A compact version of the Fig. 11 experiment: inject memory errors into
//! the encoding and storage paths and watch the identification count —
//! the HD representation tolerates roughly 10 % corrupted bits before
//! quality collapses, and multi-bit ID hypervectors (§4.2.2) consistently
//! beat binary ones.
//!
//! Run: `cargo run --release --example robustness_sweep`

use hdoms::engine::{Engine, ReferenceMeta};
use hdoms::hdc::multibit::IdPrecision;
use hdoms::ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms::oms::search::{ExactBackend, ExactBackendConfig};
use hdoms::oms::window::PrecursorWindow;
use std::sync::Arc;

fn main() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.005), 31);
    let meta = ReferenceMeta::from_library(&workload.library);
    let bers = [0.0f64, 0.01, 0.05, 0.10, 0.20];

    println!(
        "workload: {} queries vs {} library spectra; sweeping encode+storage BER\n",
        workload.queries.len(),
        workload.library.len()
    );
    print!("{:>22}", "ID precision \\ BER");
    for ber in bers {
        print!("{:>8}", format!("{}%", ber * 100.0));
    }
    println!();
    for precision in IdPrecision::ALL {
        let mut config = ExactBackendConfig::default();
        config.encoder.id_precision = precision;
        let clean = ExactBackend::build(&workload.library, config);
        print!("{:>22}", format!("{} bit(s)", precision.bits()));
        for ber in bers {
            // A backend with injected errors has no index kind: it runs
            // as the one shard of an engine over the same references.
            let engine = Arc::new(Engine::from_backend(
                Box::new(clean.with_error_rates(ber, ber, 0x5eed)),
                config.preprocess,
                meta.clone(),
                config.threads,
            ));
            let window = PrecursorWindow::open_default();
            let (outcome, _) = engine.search(&workload.queries, window, 0.01);
            print!("{:>8}", outcome.identifications());
        }
        println!();
    }
    println!(
        "\nidentifications stay near-flat to ~10% BER and drop at 20% — the \
         robustness that lets the accelerator run on error-prone MLC RRAM."
    );
}
