//! Full-precision plain-cosine oracle.
//!
//! Scores queries against candidates with the ordinary (unshifted) cosine
//! similarity of the sparse binned vectors. It has no awareness of
//! modifications, so it serves two purposes:
//!
//! * a sanity oracle: on *unmodified* queries every reasonable backend
//!   should agree with it;
//! * the negative control that demonstrates why open search needs either
//!   a shifted dot product (ANN-SoLo) or an encoding robust to partial
//!   fragment loss (HD): plain cosine degrades on modified queries.

use hdoms_hdc::parallel::par_map;
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_oms::search::{RunScorer, SearchHit};

/// The plain-cosine backend.
#[derive(Debug, Clone)]
pub struct BruteForceBackend {
    references: Vec<Option<BinnedSpectrum>>,
    norms: Vec<f64>,
    threads: usize,
}

impl BruteForceBackend {
    /// Preprocess `library` into sparse vectors.
    pub fn build(
        library: &SpectralLibrary,
        preprocess: PreprocessConfig,
        threads: usize,
    ) -> BruteForceBackend {
        let pre = Preprocessor::new(preprocess);
        let entries: Vec<_> = library.iter().collect();
        let references: Vec<Option<BinnedSpectrum>> =
            par_map(&entries, threads, |e| pre.run(&e.spectrum).ok());
        let norms = references
            .iter()
            .map(|r| r.as_ref().map(BinnedSpectrum::l2_norm).unwrap_or(0.0))
            .collect();
        BruteForceBackend {
            references,
            norms,
            threads,
        }
    }

    /// Plain sparse cosine similarity between two binned spectra.
    pub fn cosine(query: &BinnedSpectrum, reference: &BinnedSpectrum) -> f64 {
        let mut dot = 0.0f64;
        let (mut i, mut j) = (0usize, 0usize);
        let qp = query.peaks();
        let rp = reference.peaks();
        while i < qp.len() && j < rp.len() {
            match qp[i].bin.cmp(&rp[j].bin) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += f64::from(qp[i].intensity) * f64::from(rp[j].intensity);
                    i += 1;
                    j += 1;
                }
            }
        }
        let qn = query.l2_norm();
        let rn = reference.l2_norm();
        if qn == 0.0 || rn == 0.0 {
            0.0
        } else {
            dot / (qn * rn)
        }
    }
}

impl RunScorer for BruteForceBackend {
    /// Scores the binned query directly: nothing to encode.
    type Query = ();

    fn report_name(&self) -> String {
        "brute-cosine".to_owned()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn prepare(&self, _binned: &BinnedSpectrum) {}

    fn best_in(&self, query: &BinnedSpectrum, _: &(), run: &[u32]) -> Option<SearchHit> {
        SearchHit::best_of(run, |cand| {
            let reference = self.references[cand as usize].as_ref()?;
            (self.norms[cand as usize] != 0.0).then(|| Self::cosine(query, reference))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_ms::dataset::{QueryTruth, SyntheticWorkload, WorkloadSpec};
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{candidate_lists, SimilarityBackend};
    use hdoms_oms::window::PrecursorWindow;

    #[test]
    fn cosine_self_similarity_is_one() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 44);
        let pre = Preprocessor::default();
        let b = pre.run(&workload.library.entries()[0].spectrum).unwrap();
        assert!((BruteForceBackend::cosine(&b, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn good_on_unmodified_weak_on_modified() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 45);
        let backend = BruteForceBackend::build(&workload.library, PreprocessConfig::default(), 4);
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let hits = backend.search_batch(&queries, &cands);
        let (mut unmod_ok, mut unmod_n, mut mod_ok, mut mod_n) = (0usize, 0usize, 0usize, 0usize);
        for (binned, hit) in queries.iter().zip(&hits) {
            match &workload.truth[binned.id as usize] {
                QueryTruth::Unmodified { library_id } => {
                    unmod_n += 1;
                    if hit.map(|h| h.reference) == Some(*library_id) {
                        unmod_ok += 1;
                    }
                }
                QueryTruth::Modified { library_id, .. } => {
                    mod_n += 1;
                    if hit.map(|h| h.reference) == Some(*library_id) {
                        mod_ok += 1;
                    }
                }
                QueryTruth::Unmatchable => {}
            }
        }
        let unmod_rate = unmod_ok as f64 / unmod_n.max(1) as f64;
        let mod_rate = mod_ok as f64 / mod_n.max(1) as f64;
        assert!(unmod_rate > 0.8, "unmodified rate {unmod_rate}");
        // Plain cosine still finds many modified matches (half the
        // fragments are unshifted) but should clearly trail its unmodified
        // performance.
        assert!(
            mod_rate <= unmod_rate,
            "plain cosine should not beat itself on modified queries"
        );
    }

    #[test]
    fn cosine_orthogonal_spectra_score_zero() {
        use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            ..PreprocessConfig::default()
        });
        let a = pre
            .run(&Spectrum::new(
                0,
                500.0,
                2,
                vec![Peak::new(200.0, 10.0), Peak::new(300.0, 10.0)],
                SpectrumOrigin::Query,
            ))
            .unwrap();
        let b = pre
            .run(&Spectrum::new(
                1,
                500.0,
                2,
                vec![Peak::new(400.0, 10.0), Peak::new(600.0, 10.0)],
                SpectrumOrigin::Query,
            ))
            .unwrap();
        assert_eq!(BruteForceBackend::cosine(&a, &b), 0.0);
    }
}
