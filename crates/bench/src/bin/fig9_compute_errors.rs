//! Figure 9 — computation errors vs number of activated rows.
//!
//! (a) **Encoding errors**: fraction of output bits of the in-memory
//!     ID-Level encoding that differ from the software ground truth, for
//!     1/2/3 bits per cell across 20–120 activated rows.
//! (b) **Search errors**: normalised RMSE of in-array MVM outputs against
//!     the ideal MAC, using random multi-bit weight patterns (the chip
//!     characterisation protocol), same sweep.
//!
//! Paper reference: encoding errors rise from a few percent at 20 rows to
//! ~15/25/38 % at 120 rows for 1/2/3 bits per cell; search RMSE spans
//! ~0.02–0.12 with the same ordering.
//!
//! Run: `cargo run --release -p hdoms-bench --bin fig9_compute_errors`

use hdoms_bench::{fmt, mean, print_table, FigureOptions};
use hdoms_core::encode::InMemoryEncoder;
use hdoms_hdc::encoder::EncoderConfig;
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::multibit::IdPrecision;
use hdoms_hdc::parallel::default_threads;
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::preprocess::Preprocessor;
use hdoms_rram::array::{CrossbarArray, CrossbarConfig};
use hdoms_rram::config::MlcConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn precision_for(bits: u8) -> IdPrecision {
    match bits {
        1 => IdPrecision::Bits1,
        2 => IdPrecision::Bits2,
        _ => IdPrecision::Bits3,
    }
}

fn main() {
    let options = FigureOptions::parse(1.0, 2048);
    let activated_rows = [20usize, 40, 60, 80, 100, 120];

    // Spectra to encode for panel (a).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), options.seed);
    let pre = Preprocessor::default();
    let (binned, _) = pre.run_batch(&workload.queries[..24.min(workload.queries.len())]);

    // Panel (a): encoding bit error rate.
    let mut rows_a = Vec::new();
    for bits in 1..=3u8 {
        let mut row = vec![format!("{bits} bit(s)/cell")];
        for &act in &activated_rows {
            let encoder_cfg = EncoderConfig {
                dim: options.dim,
                q_levels: 16,
                id_precision: precision_for(bits),
                level_style: LevelStyle::Chunked { num_chunks: 64 },
                ..EncoderConfig::default()
            };
            let crossbar = CrossbarConfig {
                mlc: MlcConfig::with_bits(bits),
                activated_rows: act,
                ..CrossbarConfig::default()
            };
            let encoder = InMemoryEncoder::new(
                encoder_cfg,
                crossbar,
                options.seed ^ act as u64,
                default_threads(),
            );
            let rates: Vec<f64> = binned
                .iter()
                .map(|b| encoder.encode_with_stats(b).1.bit_error_rate())
                .collect();
            row.push(format!("{}%", fmt(mean(&rates) * 100.0, 1)));
        }
        rows_a.push(row);
    }
    let header: Vec<String> = std::iter::once("cell config".to_owned())
        .chain(activated_rows.iter().map(|a| format!("{a} rows")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        &format!(
            "Figure 9a: in-memory encoding bit errors vs activated rows (D={}, {} spectra)",
            options.dim,
            binned.len()
        ),
        &header_refs,
        &rows_a,
    );

    // Panel (b): search (MVM) normalised RMSE on random multi-bit weights.
    let mut rows_b = Vec::new();
    let cols = 32usize;
    let pairs = 128usize;
    let trials = 24usize;
    for bits in 1..=3u8 {
        let mut row = vec![format!("{bits} bit(s)/cell")];
        for &act in &activated_rows {
            let config = CrossbarConfig {
                mlc: MlcConfig::with_bits(bits),
                rows: 256,
                cols,
                activated_rows: act,
                ..CrossbarConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(options.seed ^ (u64::from(bits) << 8) ^ act as u64);
            let weights: Vec<Vec<f64>> = (0..cols)
                .map(|_| (0..pairs).map(|_| rng.gen_range(-1.0..=1.0)).collect())
                .collect();
            let array = CrossbarArray::program(config, &weights, &mut rng);
            let mut se = 0.0f64;
            let mut n = 0usize;
            for _ in 0..trials {
                let inputs: Vec<f64> = (0..pairs)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect();
                let got = array.mvm(&inputs, &mut rng);
                let want = array.ideal_mvm(&inputs);
                for (g, w) in got.iter().zip(&want) {
                    // Normalise by the full-scale output (± pairs).
                    se += ((g - w) / pairs as f64).powi(2);
                    n += 1;
                }
            }
            row.push(fmt((se / n as f64).sqrt(), 4));
        }
        rows_b.push(row);
    }
    print_table(
        &format!(
            "Figure 9b: in-memory search normalised RMSE vs activated rows ({pairs}-pair columns)"
        ),
        &header_refs,
        &rows_b,
    );

    println!(
        "\nShape checks vs the paper: both panels grow with activated rows \
         (coarser ADC quantisation per MAC unit) and order 3 > 2 > 1 bits \
         per cell (intermediate conductance levels are the least stable). \
         The paper operates at 64 rows with 8-level cells — 16x the 4-row \
         drive of the prior MLC CIM macro [Li et al. 2022] (see \
         ablation_rows)."
    );
}
