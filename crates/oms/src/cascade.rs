//! Two-pass cascade open search (the ANN-SoLo strategy).
//!
//! ANN-SoLo's key systems trick: run a cheap *standard* (narrow-window)
//! pass first, accept its confident identifications, and only send the
//! remaining queries through the expensive *open* pass. Because the
//! standard pass faces a candidate set hundreds of times smaller, the
//! cascade cuts total scoring work while separately controlling FDR per
//! pass — modified peptides can only be found in pass two, so competing
//! them against unmodified matches in one pool would bias the filter.
//!
//! The cascade is backend-agnostic: it runs any [`RunScorer`] through
//! the flat loop ([`best_hits`]), including the RRAM accelerator.

use crate::fdr::filter_fdr;
use crate::pipeline::ReferenceCatalog;
use crate::pipeline::{assemble_psms, OmsPipeline, PipelineOutcome};
use crate::psm::Psm;
use crate::search::{best_hits, candidate_lists, RunScorer};
use crate::window::PrecursorWindow;
use hdoms_ms::dataset::SyntheticWorkload;
use hdoms_ms::preprocess::Preprocessor;

/// Result of a cascade run.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeOutcome {
    /// Accepted PSMs from the standard (first) pass.
    pub standard_accepted: Vec<Psm>,
    /// Accepted PSMs from the open (second) pass.
    pub open_accepted: Vec<Psm>,
    /// Queries sent into the second pass.
    pub second_pass_queries: usize,
    /// Candidate pairs scored in pass one / pass two — the work saving
    /// the cascade exists for.
    pub standard_pairs: u64,
    /// Candidate pairs scored in the open pass.
    pub open_pairs: u64,
}

impl CascadeOutcome {
    /// Total identifications across both passes.
    pub fn identifications(&self) -> usize {
        self.standard_accepted.len() + self.open_accepted.len()
    }

    /// All accepted PSMs (standard pass first).
    pub fn all_accepted(&self) -> Vec<Psm> {
        let mut out = self.standard_accepted.clone();
        out.extend(self.open_accepted.iter().copied());
        out
    }

    /// Scored-pair reduction factor versus a single open-window pass over
    /// every query (`>1` means the cascade saved work).
    pub fn work_saving(&self, single_pass_pairs: u64) -> f64 {
        single_pass_pairs as f64 / (self.standard_pairs + self.open_pairs).max(1) as f64
    }
}

/// Cascade configuration: the two windows and per-pass FDR level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// First-pass (narrow) window.
    pub standard_window: PrecursorWindow,
    /// Second-pass (open) window.
    pub open_window: PrecursorWindow,
    /// FDR level applied independently to each pass.
    pub fdr_level: f64,
}

impl Default for CascadeConfig {
    fn default() -> CascadeConfig {
        CascadeConfig {
            standard_window: PrecursorWindow::standard_default(),
            open_window: PrecursorWindow::open_default(),
            fdr_level: 0.01,
        }
    }
}

/// Run the cascade over `workload` with `backend`, reusing the pipeline's
/// preprocessing configuration.
///
/// # Panics
///
/// Panics if either window is invalid or the FDR level is out of range.
pub fn run_cascade<B: RunScorer>(
    pipeline: &OmsPipeline,
    config: &CascadeConfig,
    workload: &SyntheticWorkload,
    backend: &B,
) -> CascadeOutcome {
    config.standard_window.validate();
    config.open_window.validate();
    assert!(
        config.fdr_level > 0.0 && config.fdr_level < 1.0,
        "FDR level must be in (0, 1)"
    );
    let pre = Preprocessor::new(pipeline.config().preprocess);
    let (queries, _) = pre.run_batch(&workload.queries);
    let index = workload.library.candidate_index();

    // Pass 1: standard window over everything.
    let std_cands = candidate_lists(&index, &config.standard_window, &queries);
    let standard_pairs: u64 = std_cands.iter().map(|c| c.len() as u64).sum();
    let hits = best_hits(backend, &queries, &std_cands);
    let psms = assemble_psms(&queries, &hits, &workload.library);
    let standard_accepted = filter_fdr(&psms, config.fdr_level).accepted;
    let identified: std::collections::HashSet<u32> =
        standard_accepted.iter().map(|p| p.query_id).collect();

    // Pass 2: open window over the remainder only.
    let remaining: Vec<hdoms_ms::preprocess::BinnedSpectrum> = queries
        .iter()
        .filter(|q| !identified.contains(&q.id))
        .cloned()
        .collect();
    let open_cands = candidate_lists(&index, &config.open_window, &remaining);
    let open_pairs: u64 = open_cands.iter().map(|c| c.len() as u64).sum();
    let hits = best_hits(backend, &remaining, &open_cands);
    let psms = assemble_psms(&remaining, &hits, &workload.library);
    let open_accepted = filter_fdr(&psms, config.fdr_level).accepted;

    CascadeOutcome {
        standard_accepted,
        open_accepted,
        second_pass_queries: remaining.len(),
        standard_pairs,
        open_pairs,
    }
}

/// Compare a cascade against the single-pass pipeline outcome: the pairs
/// a single open pass would have scored.
pub fn single_pass_pairs(outcome: &PipelineOutcome) -> u64 {
    (outcome.mean_candidates * (outcome.total_queries - outcome.rejected_queries) as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::search::{ExactBackend, ExactBackendConfig};
    use hdoms_hdc::encoder::EncoderConfig;
    use hdoms_ms::dataset::WorkloadSpec;

    fn setup() -> (SyntheticWorkload, OmsPipeline, ExactBackend) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 2024);
        let pipeline = OmsPipeline::new(PipelineConfig::fast_test());
        let backend = ExactBackend::build(
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
        (workload, pipeline, backend)
    }

    #[test]
    fn cascade_identifies_comparable_to_single_pass() {
        let (workload, pipeline, backend) = setup();
        let single = pipeline.run(&workload, &backend);
        let cascade = run_cascade(&pipeline, &CascadeConfig::default(), &workload, &backend);
        let a = cascade.identifications() as f64;
        let b = single.identifications() as f64;
        assert!(
            a >= 0.8 * b,
            "cascade ids {a} should be comparable to single-pass {b}"
        );
    }

    #[test]
    fn cascade_saves_scoring_work() {
        let (workload, pipeline, backend) = setup();
        let single = pipeline.run(&workload, &backend);
        let cascade = run_cascade(&pipeline, &CascadeConfig::default(), &workload, &backend);
        let saving = cascade.work_saving(single_pass_pairs(&single));
        assert!(
            saving > 1.2,
            "cascade should reduce scored pairs (saving factor {saving})"
        );
    }

    #[test]
    fn second_pass_receives_only_unidentified_queries() {
        let (workload, pipeline, backend) = setup();
        let cascade = run_cascade(&pipeline, &CascadeConfig::default(), &workload, &backend);
        assert_eq!(
            cascade.second_pass_queries + cascade.standard_accepted.len(),
            workload.queries.len(),
            "every query is either identified in pass one or forwarded"
        );
        // No query may be accepted twice.
        let mut seen = std::collections::HashSet::new();
        for psm in cascade.all_accepted() {
            assert!(
                seen.insert(psm.query_id),
                "query {} accepted twice",
                psm.query_id
            );
        }
    }

    #[test]
    fn open_pass_finds_the_modified_peptides() {
        let (workload, pipeline, backend) = setup();
        let cascade = run_cascade(&pipeline, &CascadeConfig::default(), &workload, &backend);
        let modified_in_open = cascade
            .open_accepted
            .iter()
            .filter(|p| workload.truth[p.query_id as usize].is_modified())
            .count();
        // The narrow window cannot contain a modified query's *true*
        // reference (it may still mis-assign the query to a same-mass
        // impostor, which the FDR filter treats like any other PSM).
        let true_modified_in_standard = cascade
            .standard_accepted
            .iter()
            .filter(|p| {
                let truth = &workload.truth[p.query_id as usize];
                truth.is_modified() && truth.library_id() == Some(p.reference_id)
            })
            .count();
        assert!(
            modified_in_open > 0,
            "open pass must find modified peptides"
        );
        assert_eq!(
            true_modified_in_standard, 0,
            "standard pass cannot reach a modified query's true reference"
        );
    }
}
