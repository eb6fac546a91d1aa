//! ANN-SoLo-style open search: sparse float vectors with a shifted dot
//! product.
//!
//! ANN-SoLo scores a query against a candidate with the *shifted dot
//! product*: a query fragment may match a reference fragment either at the
//! same m/z or displaced by the precursor mass difference (divided by the
//! fragment charge) — exactly the signature a single modification leaves
//! on a spectrum. This recovers the modified half of the fragments that a
//! plain cosine similarity loses, at the price of high-precision float
//! arithmetic, which is the reason the paper's Fig. 12 shows it trailing
//! the HD approaches in throughput ("limited data parallelism as it uses
//! complicated high-precision floating-point arithmetic").

use hdoms_hdc::parallel::par_map;
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_oms::search::{RunMember, RunScorer, SearchHit};

/// Configuration for [`AnnSoloBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnSoloConfig {
    /// Preprocessing applied to references and queries alike.
    pub preprocess: PreprocessConfig,
    /// Worker threads.
    pub threads: usize,
    /// Maximum fragment charge considered when translating the precursor
    /// mass delta into bin shifts (2 matches the default fragmentation
    /// model).
    pub max_fragment_charge: u8,
    /// Absolute fragment matching slack in bins on top of the computed
    /// shift. Zero by default: with 1.0005-Da bins a fragment rarely
    /// crosses a boundary, and every extra probe position mostly gives
    /// random pairs more chances to match chemical noise — widening the
    /// decoy score floor and costing identifications at fixed FDR.
    pub bin_slack: i64,
}

impl Default for AnnSoloConfig {
    fn default() -> AnnSoloConfig {
        AnnSoloConfig {
            preprocess: PreprocessConfig::default(),
            threads: hdoms_hdc::parallel::default_threads(),
            max_fragment_charge: 2,
            bin_slack: 0,
        }
    }
}

/// The ANN-SoLo-style scoring backend.
#[derive(Debug, Clone)]
pub struct AnnSoloBackend {
    config: AnnSoloConfig,
    /// Preprocessed reference vectors by library id (`None` when the entry
    /// failed preprocessing).
    references: Vec<Option<BinnedSpectrum>>,
    /// Cached L2 norms, parallel to `references`.
    norms: Vec<f64>,
    bin_width: f64,
}

impl AnnSoloBackend {
    /// Preprocess `library` into sparse vectors and cache their norms.
    pub fn build(library: &SpectralLibrary, config: AnnSoloConfig) -> AnnSoloBackend {
        let pre = Preprocessor::new(config.preprocess);
        let references = par_map(library.entries(), config.threads, |_, e| {
            pre.run(&e.spectrum).ok()
        });
        let norms = references
            .iter()
            .map(|r| r.as_ref().map(BinnedSpectrum::l2_norm).unwrap_or(0.0))
            .collect();
        AnnSoloBackend {
            config,
            references,
            norms,
            bin_width: config.preprocess.bin_width,
        }
    }

    /// The shifted cosine similarity between a query and one reference.
    ///
    /// Every query peak may pair with a reference peak at its own bin or
    /// at the bin displaced by the precursor delta over the fragment
    /// charge; each peak contributes its best pairing (no double
    /// counting). The result is normalised by the vector norms, yielding a
    /// score in roughly `[0, 1]`.
    pub(crate) fn shifted_cosine(
        &self,
        query: &BinnedSpectrum,
        reference: &BinnedSpectrum,
        reference_norm: f64,
    ) -> f64 {
        let delta = query.neutral_mass - reference.neutral_mass;
        // Candidate bin displacements: 0 (unmodified fragments) and
        // delta / (z · bin_width) for each fragment charge z.
        let mut shifts: Vec<i64> = vec![0];
        if delta.abs() > self.bin_width {
            for z in 1..=self.config.max_fragment_charge {
                let s = (delta / (f64::from(z) * self.bin_width)).round() as i64;
                if s != 0 && !shifts.contains(&s) {
                    shifts.push(s);
                }
            }
        }
        let slack = self.config.bin_slack;
        let ref_peaks = reference.peaks();
        let mut dot = 0.0f64;
        for qp in query.peaks() {
            let qbin = i64::from(qp.bin);
            let mut best = 0.0f64;
            for &shift in &shifts {
                // A query peak at bin b matches a reference peak at b - shift
                // (the reference is the unmodified form, so its fragments sit
                // *below* the query's by the modification mass).
                let target = qbin - shift;
                for t in (target - slack)..=(target + slack) {
                    if t < 0 {
                        continue;
                    }
                    if let Ok(idx) = ref_peaks.binary_search_by(|p| i64::from(p.bin).cmp(&t)) {
                        best = best.max(f64::from(ref_peaks[idx].intensity));
                    }
                }
            }
            dot += f64::from(qp.intensity) * best;
        }
        let qn = query.l2_norm();
        if qn == 0.0 || reference_norm == 0.0 {
            0.0
        } else {
            dot / (qn * reference_norm)
        }
    }
}

impl RunScorer for AnnSoloBackend {
    /// Scores the binned query directly: nothing to encode.
    type Query = ();

    fn report_name(&self) -> String {
        "ann-solo".to_owned()
    }

    fn prepare(&self, _binned: &BinnedSpectrum) {}

    /// One shifted-cosine scan of each member's range of `run`.
    fn best_in_ranges(&self, members: &[RunMember<'_, ()>], run: &[u32]) -> Vec<Option<SearchHit>> {
        let scan = |(query, (), range): &RunMember<'_, ()>| {
            SearchHit::best_of(&run[range.clone()], |cand| {
                let reference = self.references[cand as usize].as_ref()?;
                Some(self.shifted_cosine(query, reference, self.norms[cand as usize]))
            })
        };
        members.iter().map(scan).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_ms::dataset::{QueryTruth, SyntheticWorkload, WorkloadSpec};
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{best_hits, candidate_lists};
    use hdoms_oms::window::PrecursorWindow;

    fn setup() -> (
        SyntheticWorkload,
        AnnSoloBackend,
        Vec<BinnedSpectrum>,
        Vec<Vec<u32>>,
    ) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 99);
        let backend = AnnSoloBackend::build(&workload.library, AnnSoloConfig::default());
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        (workload, backend, queries, cands)
    }

    #[test]
    fn self_similarity_is_high() {
        let (workload, backend, _, _) = setup();
        let pre = Preprocessor::default();
        let r = pre.run(&workload.library.entries()[0].spectrum).unwrap();
        let score = backend.shifted_cosine(&r, &r, r.l2_norm());
        // The bin slack allows a peak to pair with a stronger neighbour,
        // so the max-pairing score can nudge past 1.
        assert!((0.95..=1.1).contains(&score), "self-cosine {score}");
    }

    #[test]
    fn finds_mostly_true_references() {
        let (workload, backend, queries, cands) = setup();
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
        assert!(rate > 0.7, "true-reference hit rate {rate} too low");
    }

    #[test]
    fn shifted_scoring_beats_plain_on_modified_queries() {
        let (workload, backend, queries, _) = setup();
        // For modified queries, compare the shifted cosine against the
        // true reference with the score a zero-shift backend would give.
        let pre = Preprocessor::default();
        let mut shifted_better = 0usize;
        let mut total = 0usize;
        for binned in &queries {
            if let QueryTruth::Modified { library_id, .. } = &workload.truth[binned.id as usize] {
                let reference = pre
                    .run(&workload.library.get(*library_id).unwrap().spectrum)
                    .unwrap();
                let norm = reference.l2_norm();
                let with_shift = backend.shifted_cosine(binned, &reference, norm);
                // Plain cosine = shifted cosine of a backend with the shift
                // disabled; emulate by zeroing the precursor delta.
                let mut no_delta = binned.clone();
                no_delta.neutral_mass = reference.neutral_mass;
                let plain = backend.shifted_cosine(&no_delta, &reference, norm);
                total += 1;
                if with_shift > plain + 1e-9 {
                    shifted_better += 1;
                }
            }
        }
        assert!(total > 10);
        assert!(
            shifted_better as f64 / total as f64 > 0.8,
            "shifted dot should help on modified queries ({shifted_better}/{total})"
        );
    }

    #[test]
    fn batch_is_deterministic_across_threads() {
        let (workload, _, queries, cands) = setup();
        let run = |threads: usize| {
            let backend = AnnSoloBackend::build(
                &workload.library,
                AnnSoloConfig {
                    threads,
                    ..AnnSoloConfig::default()
                },
            );
            best_hits(&backend, &queries, &cands, threads)
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn empty_candidates_give_none() {
        let (_, backend, queries, _) = setup();
        let empty: Vec<Vec<u32>> = queries.iter().map(|_| Vec::new()).collect();
        assert!(best_hits(&backend, &queries, &empty, 4)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn name_is_stable() {
        let (_, backend, _, _) = setup();
        assert_eq!(backend.report_name(), "ann-solo");
    }
}
