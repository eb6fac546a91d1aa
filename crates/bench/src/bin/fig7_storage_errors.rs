//! Figure 7 — bit error rate from hypervector storage over time.
//!
//! Packs random hypervectors into MLC cells (§4.3), lets the simulated
//! cells relax for 1 s / 30 min / 60 min / 1 day, reads them back and
//! reports the bit error rate for 1/2/3 bits per cell.
//!
//! The paper's values, read off Fig. 7, are the second table this
//! binary prints and are written down there only. PAPER.md holds only
//! the abstract, so that read-off cannot be checked inside this
//! repository.
//!
//! Run: `cargo run --release -p hdoms-bench --bin fig7_storage_errors`

use hdoms_bench::{fmt, print_table, FigureOptions};
use hdoms_hdc::BinaryHypervector;
use hdoms_rram::config::MlcConfig;
use hdoms_rram::storage::HypervectorStore;
use hdoms_rram::times;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let options = FigureOptions::parse(1.0, 8192);
    let hv_count = 32;
    let mut rng = StdRng::seed_from_u64(options.seed);
    let hvs: Vec<BinaryHypervector> = (0..hv_count)
        .map(|_| BinaryHypervector::random(&mut rng, options.dim))
        .collect();

    let time_points = [
        ("after 1s", times::AFTER_1S),
        ("30 min", times::AFTER_30MIN),
        ("60 min", times::AFTER_60MIN),
        ("1 day", times::AFTER_1DAY),
    ];

    let mut rows = Vec::new();
    for bits in 1..=3u8 {
        let store = HypervectorStore::program(MlcConfig::with_bits(bits), &hvs);
        let mut row = vec![format!("{bits} bit(s)/cell")];
        for (_, age) in time_points {
            let mut read_rng = StdRng::seed_from_u64(options.seed ^ (age as u64));
            let (_, stats) = store.read_all(age, &mut read_rng);
            row.push(format!("{}%", fmt(stats.bit_error_rate() * 100.0, 2)));
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Figure 7: storage bit error rate over time ({hv_count} hypervectors, D={})",
            options.dim
        ),
        &["cell config", "after 1s", "30 min", "60 min", "1 day"],
        &rows,
    );
    print_table(
        "Paper (Fig. 7, approximate read-off)",
        &["cell config", "after 1s", "30 min", "60 min", "1 day"],
        &[
            vec![
                "1 bit(s)/cell".into(),
                "~0%".into(),
                "~0.2%".into(),
                "~0.3%".into(),
                "~0.5%".into(),
            ],
            vec![
                "2 bit(s)/cell".into(),
                "~1%".into(),
                "~2.5%".into(),
                "~3%".into(),
                "~4%".into(),
            ],
            vec![
                "3 bit(s)/cell".into(),
                "~5%".into(),
                "~9%".into(),
                "~10%".into(),
                "~12.5%".into(),
            ],
        ],
    );
    println!(
        "\nShape checks: error grows with bits/cell at every time point, most \
         relaxation happens before the 60-minute mark, and the 3-bit curve \
         lands near the ~10% tolerance budget of the HD algorithm (Fig. 11)."
    );
}
