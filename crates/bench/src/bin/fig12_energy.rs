//! Figure 12 / §5.3.3 — speedup and energy-efficiency comparison.
//!
//! Evaluates the calibrated latency/energy model on the paper's two
//! workload shapes and prints modelled times, energies, speedups and
//! energy-efficiency factors next to the paper's reported values.
//!
//! Run: `cargo run --release -p hdoms-bench --bin fig12_energy`

use hdoms_bench::{fmt, print_table, FigureOptions};
use hdoms_core::perf::{paper, PerfReport, WorkloadShape};

fn main() {
    let _ = FigureOptions::parse(1.0, 8192);

    for (name, shape) in [
        ("iPRG2012", WorkloadShape::iprg2012_paper()),
        ("HEK293", WorkloadShape::hek293_paper()),
    ] {
        let report = PerfReport::generate(shape);
        let speedups = report.speedups();
        let eff = report.energy_efficiency();
        let rows: Vec<Vec<String>> = report
            .rows
            .iter()
            .zip(speedups.iter().zip(&eff))
            .map(|(row, ((_, s), (_, e)))| {
                vec![
                    row.tool.clone(),
                    fmt(row.time_s, 1),
                    fmt(row.energy_j, 1),
                    format!("{}x", fmt(*s, 2)),
                    format!("{}x", fmt(*e, 2)),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 12 model ({name})"),
            &[
                "tool",
                "time (s)",
                "energy (J)",
                "our speedup over it",
                "energy eff. vs ANN-SoLo CPU",
            ],
            &rows,
        );
    }

    print_table(
        "Paper-reported factors (iPRG2012, §5.3.3 + Fig. 12)",
        &["quantity", "paper", "model (iPRG2012)"],
        &{
            let report = PerfReport::generate(WorkloadShape::iprg2012_paper());
            let speedups = report.speedups();
            let eff = report.energy_efficiency();
            vec![
                vec![
                    "speedup vs HyperOMS (GPU)".into(),
                    format!("{}x", paper::SPEEDUP_VS_HYPEROMS_GPU),
                    format!("{}x", fmt(speedups[2].1, 2)),
                ],
                vec![
                    "speedup vs ANN-SoLo (GPU)".into(),
                    format!("{}x", paper::SPEEDUP_VS_ANNSOLO_GPU),
                    format!("{}x", fmt(speedups[1].1, 2)),
                ],
                vec![
                    "speedup vs ANN-SoLo (CPU)".into(),
                    format!("{}x", paper::SPEEDUP_VS_ANNSOLO_CPU),
                    format!("{}x", fmt(speedups[0].1, 2)),
                ],
                vec![
                    "energy eff.: ANN-SoLo GPU".into(),
                    format!("{}x", paper::ENERGY_ANNSOLO_GPU),
                    format!("{}x", fmt(eff[1].1, 2)),
                ],
                vec![
                    "energy eff.: HyperOMS GPU".into(),
                    format!("{}x", paper::ENERGY_HYPEROMS_GPU),
                    format!("{}x", fmt(eff[2].1, 2)),
                ],
                vec![
                    "energy eff.: this work".into(),
                    format!("{}x", paper::ENERGY_THIS_WORK),
                    format!("{}x", fmt(eff[3].1, 2)),
                ],
            ]
        },
    );
    println!(
        "\nShape checks: the ordering (this work > HyperOMS-GPU > ANN-SoLo-GPU \
         > ANN-SoLo-CPU in speed; 2-3 orders of magnitude energy advantage) \
         holds. The HyperOMS energy factor deviates from the paper's 5.44x \
         because power x time cannot jointly reproduce the paper's speedup \
         and energy numbers under any single-device power."
    );
}
