//! Integration tests pinning the paper's headline claims, each tagged
//! with the section or figure it reproduces.

use hdoms::core::perf::{paper, PerfReport, WorkloadShape};
use hdoms::engine::{Engine, ReferenceMeta};
use hdoms::hdc::multibit::IdPrecision;
use hdoms::hdc::BinaryHypervector;
use hdoms::ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms::oms::search::{ExactBackend, ExactBackendConfig};
use hdoms::oms::window::PrecursorWindow;
use hdoms::rram::chip::ChipSpec;
use hdoms::rram::config::MlcConfig;
use hdoms::rram::storage::HypervectorStore;
use hdoms::rram::times;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The 2048-dim, 4-thread exact configuration the tiny-workload claims
/// run at, under `precision`.
fn exact_config(precision: IdPrecision) -> ExactBackendConfig {
    let mut config = ExactBackendConfig {
        threads: 4,
        ..ExactBackendConfig::default()
    };
    config.encoder.dim = 2048;
    config.encoder.id_precision = precision;
    config
}

/// Identifications of `backend`, built with `config`, over `workload`:
/// open window, 1 % FDR, the backend as the one shard of an engine.
fn identifications(
    workload: &SyntheticWorkload,
    config: ExactBackendConfig,
    backend: ExactBackend,
) -> usize {
    let engine = Arc::new(Engine::from_backend(
        Box::new(backend),
        config.preprocess,
        ReferenceMeta::from_library(&workload.library),
        config.threads,
    ));
    let window = PrecursorWindow::open_default();
    engine
        .search(&workload.queries, window, 0.01)
        .0
        .identifications()
}

/// §5.2.1 / abstract: "3x better storage capacity per area".
#[test]
fn claim_three_x_storage_capacity() {
    let slc = ChipSpec::paper_chip(MlcConfig::with_bits(1));
    let mlc = ChipSpec::paper_chip(MlcConfig::with_bits(3));
    assert_eq!(mlc.storage_bits(), 3 * slc.storage_bits());
}

/// Fig. 7: storage BER ordering and ballpark at one day.
#[test]
fn claim_storage_error_rates() {
    let mut rng = StdRng::seed_from_u64(2);
    let hvs: Vec<BinaryHypervector> = (0..8)
        .map(|_| BinaryHypervector::random(&mut rng, 8192))
        .collect();
    let mut day_rates = Vec::new();
    for bits in 1..=3u8 {
        let store = HypervectorStore::program(MlcConfig::with_bits(bits), &hvs);
        let mut read_rng = StdRng::seed_from_u64(3);
        let (_, stats) = store.read_all(times::AFTER_1DAY, &mut read_rng);
        day_rates.push(stats.bit_error_rate());
    }
    assert!(day_rates[0] < 0.01, "1 bit/cell at 1 day: {}", day_rates[0]);
    assert!(
        (0.005..0.08).contains(&day_rates[1]),
        "2 bits/cell at 1 day: {}",
        day_rates[1]
    );
    assert!(
        (0.05..0.2).contains(&day_rates[2]),
        "3 bits/cell at 1 day: {}",
        day_rates[2]
    );
}

/// Abstract / Fig. 11: "tolerate up to 10% memory errors".
#[test]
fn claim_ten_percent_error_tolerance() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 4);
    let config = exact_config(IdPrecision::Bits3);
    let clean_backend = ExactBackend::build(&workload.library, config);
    let noisy_backend = clean_backend.with_error_rates(0.10, 0.10, 0xabc);
    let clean = identifications(&workload, config, clean_backend);
    let noisy = identifications(&workload, config, noisy_backend);
    assert!(
        noisy as f64 >= 0.8 * clean as f64,
        "10% BER ids {noisy} vs clean {clean}"
    );
}

/// Fig. 11: multi-bit ID hypervectors beat binary ones under error.
#[test]
fn claim_multibit_ids_beat_binary() {
    // Pool over several seeds; tiny workloads are noisy.
    let mut bits3 = 0usize;
    let mut bits1 = 0usize;
    for seed in 5..9u64 {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        for (precision, tally) in [
            (IdPrecision::Bits3, &mut bits3),
            (IdPrecision::Bits1, &mut bits1),
        ] {
            let config = exact_config(precision);
            let backend =
                ExactBackend::build(&workload.library, config).with_error_rates(0.05, 0.05, seed);
            *tally += identifications(&workload, config, backend);
        }
    }
    assert!(
        bits3 >= bits1,
        "3-bit IDs ({bits3}) should not trail 1-bit IDs ({bits1}) under 5% BER"
    );
}

/// §5.3.3 / Fig. 12: speedup and energy-efficiency ordering.
#[test]
fn claim_speedup_and_energy_ordering() {
    let report = PerfReport::generate(WorkloadShape::iprg2012_paper());
    let speedups = report.speedups();
    // ANN CPU > ANN GPU > HyperOMS > 1.
    assert!(speedups[0].1 > speedups[1].1 && speedups[1].1 > speedups[2].1);
    assert!(speedups[2].1 > 1.0);
    // Within 35 % of the paper's factors.
    assert!((speedups[0].1 / paper::SPEEDUP_VS_ANNSOLO_CPU - 1.0).abs() < 0.35);
    assert!((speedups[1].1 / paper::SPEEDUP_VS_ANNSOLO_GPU - 1.0).abs() < 0.35);
    assert!((speedups[2].1 / paper::SPEEDUP_VS_HYPEROMS_GPU - 1.0).abs() < 0.35);
    // Energy: two to three orders of magnitude vs ANN-SoLo CPU.
    let eff = report.energy_efficiency();
    assert!((500.0..10_000.0).contains(&eff[3].1), "ours {}", eff[3].1);
}

/// §5.2.2: 16x throughput over the 4-row MLC CIM macro.
#[test]
fn claim_sixteen_x_throughput() {
    let model = hdoms::core::perf::RramModel::default();
    assert_eq!(model.throughput_vs(4.0), paper::THROUGHPUT_VS_LI2022);
}
