//! Figure 10 — Venn diagram of identified peptides across tools.
//!
//! Runs the three search tools (this work on simulated MLC RRAM,
//! ANN-SoLo, HyperOMS) over both workloads and prints the Venn region
//! sizes of their identified-peptide sets. The paper's point: the
//! majority of identifications agree across tools, validating the
//! accelerator's results.
//!
//! Run: `cargo run --release -p hdoms-bench --bin fig10_venn`
//! (add `--scale 0.02` for a bigger workload)

use hdoms_baselines::annsolo::{AnnSoloBackend, AnnSoloConfig};
use hdoms_bench::{fmt, print_table, FigureOptions};
use hdoms_core::accelerator::AcceleratorConfig;
use hdoms_engine::{Engine, ReferenceMeta};
use hdoms_index::{IndexConfig, IndexedBackendKind};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::search::HyperOmsConfig;
use hdoms_oms::window::PrecursorWindow;
use std::collections::BTreeSet;
use std::sync::Arc;

fn main() {
    let options = FigureOptions::parse(0.01, 8192);

    for spec in [
        WorkloadSpec::iprg2012(options.scale),
        WorkloadSpec::hek293(options.scale / 2.0),
    ] {
        let workload = SyntheticWorkload::generate(&spec, options.seed);
        let indexed = |kind: IndexedBackendKind| {
            let config = IndexConfig {
                kind,
                ..IndexConfig::default()
            };
            Arc::new(Engine::from_library(&workload.library, config))
        };

        eprintln!("[{}] building this-work accelerator…", spec.name);
        let mut accel_cfg = AcceleratorConfig::default();
        accel_cfg.encoder.dim = options.dim;
        let ours = indexed(IndexedBackendKind::Rram(accel_cfg));

        eprintln!("[{}] building ANN-SoLo…", spec.name);
        let annsolo_cfg = AnnSoloConfig::default();
        let annsolo = Arc::new(Engine::from_backend(
            Box::new(AnnSoloBackend::build(&workload.library, annsolo_cfg)),
            annsolo_cfg.preprocess,
            ReferenceMeta::from_library(&workload.library),
            annsolo_cfg.threads,
        ));

        eprintln!("[{}] building HyperOMS…", spec.name);
        let hyperoms = indexed(IndexedBackendKind::HyperOms(HyperOmsConfig {
            dim: options.dim,
            ..HyperOmsConfig::default()
        }));

        eprintln!("[{}] searching…", spec.name);
        let search = |engine: &Arc<Engine>| {
            let window = PrecursorWindow::open_default();
            engine.search(&workload.queries, window, 0.01).0
        };
        let (ours_out, ann_out, hyp_out) = (search(&ours), search(&annsolo), search(&hyperoms));

        let a = ours_out.identified_peptides(&workload.library);
        let b = ann_out.identified_peptides(&workload.library);
        let c = hyp_out.identified_peptides(&workload.library);

        let abc: BTreeSet<_> = a
            .intersection(&b)
            .filter(|p| c.contains(*p))
            .cloned()
            .collect();
        let ab = a.intersection(&b).filter(|p| !c.contains(*p)).count();
        let ac = a.intersection(&c).filter(|p| !b.contains(*p)).count();
        let bc = b.intersection(&c).filter(|p| !a.contains(*p)).count();
        let only_a = a
            .iter()
            .filter(|p| !b.contains(*p) && !c.contains(*p))
            .count();
        let only_b = b
            .iter()
            .filter(|p| !a.contains(*p) && !c.contains(*p))
            .count();
        let only_c = c
            .iter()
            .filter(|p| !a.contains(*p) && !b.contains(*p))
            .count();

        print_table(
            &format!("Figure 10 ({}): identified peptides per tool", spec.name),
            &["tool", "identifications", "peptides"],
            &[
                vec![
                    "This work (RRAM)".into(),
                    ours_out.identifications().to_string(),
                    a.len().to_string(),
                ],
                vec![
                    "ANN-SoLo".into(),
                    ann_out.identifications().to_string(),
                    b.len().to_string(),
                ],
                vec![
                    "HyperOMS".into(),
                    hyp_out.identifications().to_string(),
                    c.len().to_string(),
                ],
            ],
        );
        print_table(
            &format!("Figure 10 ({}): Venn regions", spec.name),
            &["region", "peptides"],
            &[
                vec!["all three".into(), abc.len().to_string()],
                vec!["ours ∩ ANN-SoLo only".into(), ab.to_string()],
                vec!["ours ∩ HyperOMS only".into(), ac.to_string()],
                vec!["ANN-SoLo ∩ HyperOMS only".into(), bc.to_string()],
                vec!["ours only".into(), only_a.to_string()],
                vec!["ANN-SoLo only".into(), only_b.to_string()],
                vec!["HyperOMS only".into(), only_c.to_string()],
            ],
        );
        let union = a
            .union(&b)
            .cloned()
            .collect::<BTreeSet<_>>()
            .union(&c)
            .count();
        println!(
            "core agreement: {} of {} peptides ({}%) identified by all three — \
             the paper's validity argument (\"the majority of the identified \
             peptides from our work align with those identified by other tools\").",
            abc.len(),
            union,
            fmt(abc.len() as f64 / union.max(1) as f64 * 100.0, 1),
        );
    }
}
