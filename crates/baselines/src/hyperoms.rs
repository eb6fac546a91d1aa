//! HyperOMS-style open search: binary HD encoding with exact Hamming
//! scoring.
//!
//! HyperOMS (Kang et al., PACT 2022) is the GPU accelerator the paper
//! measures itself against: it encodes spectra with binary ID-Level
//! hypervectors and replaces the floating-point similarity with massively
//! parallel integer Hamming operations. Its algorithmic content is the
//! exact HD backend with *binary* (1-bit) ID hypervectors and
//! conventional bit-granular level vectors. So HyperOMS is a
//! configuration and a name, not a type: `ExactBackend` over the library
//! encoded with binary IDs ([`HyperOmsConfig::exact_config`]), reporting
//! as `"hyperoms"` — built warm as the `HyperOms` index kind, cold as
//! `ExactBackend::build(library, config.exact_config(threads))
//! .named("hyperoms")`. The GPU itself only changes throughput, which the
//! performance model in `hdoms-core` accounts for separately.

pub use hdoms_oms::search::HyperOmsConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_hdc::encoder::EncoderConfig;
    use hdoms_hdc::multibit::IdPrecision;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::library::SpectralLibrary;
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{
        best_hits, candidate_lists, ExactBackend, ExactBackendConfig, RunScorer,
    };
    use hdoms_oms::window::PrecursorWindow;

    /// The HyperOMS backend as every caller builds it cold.
    fn build(library: &SpectralLibrary) -> ExactBackend {
        let config = HyperOmsConfig {
            dim: 2048,
            threads: 4,
            ..HyperOmsConfig::default()
        };
        ExactBackend::build(library, config.exact_config(config.threads)).named("hyperoms")
    }

    #[test]
    fn finds_true_references() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 123);
        let backend = build(&workload.library);
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let hits = best_hits(&backend, &queries, &cands, 4);
        let mut correct = 0usize;
        let mut matchable = 0usize;
        for (binned, hit) in queries.iter().zip(&hits) {
            if let Some(true_id) = workload.truth[binned.id as usize].library_id() {
                matchable += 1;
                if hit.map(|h| h.reference) == Some(true_id) {
                    correct += 1;
                }
            }
        }
        let rate = correct as f64 / matchable as f64;
        assert!(rate > 0.65, "hit rate {rate} too low for binary HD");
    }

    #[test]
    fn uses_binary_ids() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 124);
        let backend = build(&workload.library);
        assert_eq!(backend.encoder().config().id_precision, IdPrecision::Bits1);
        assert_eq!(backend.report_name(), "hyperoms");
    }

    #[test]
    fn differs_from_multibit_accelerator_encoding() {
        // The Venn-diagram premise: independently seeded tools agree on
        // most but not all identifications.
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 125);
        let hyperoms = build(&workload.library);
        let exact = ExactBackend::build(
            &workload.library,
            ExactBackendConfig {
                encoder: EncoderConfig {
                    dim: 2048,
                    ..EncoderConfig::default()
                },
                threads: 4,
                ..ExactBackendConfig::default()
            },
        );
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let a = best_hits(&hyperoms, &queries, &cands, 4);
        let b = best_hits(&exact, &queries, &cands, 4);
        let agree = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.map(|h| h.reference) == y.map(|h| h.reference))
            .count();
        let rate = agree as f64 / a.len() as f64;
        assert!(rate > 0.6, "tools should mostly agree ({rate})");
        // Scores differ (different encoders), so they are genuinely
        // independent implementations.
        let score_identical = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| match (x, y) {
                (Some(h1), Some(h2)) => (h1.score - h2.score).abs() < 1e-12,
                _ => false,
            })
            .count();
        assert!(score_identical < a.len() / 2);
    }
}
