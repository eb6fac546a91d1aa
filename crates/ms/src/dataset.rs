//! Deterministic synthetic open-modification-search workloads.
//!
//! The paper evaluates on two real datasets (Table 1): iPRG2012 queries
//! against a 1 M-spectrum human-yeast library, and HEK293 queries against a
//! 3 M-spectrum human library. Neither dataset is redistributable here, so
//! this module generates *structurally equivalent* workloads: tryptic
//! peptide libraries with decoys, and query spectra that are noisy
//! re-measurements of library peptides — a configurable fraction carrying a
//! post-translational modification (which shifts the precursor mass and a
//! subset of fragments, exactly the situation open search exists for) and a
//! small fraction matching nothing (driving the false-discovery statistics).
//!
//! The presets [`WorkloadSpec::iprg2012`] and [`WorkloadSpec::hek293`] keep
//! the paper's query:reference ratios at an adjustable scale.

use crate::fragment::{theoretical_spectrum, FragmentConfig};
use crate::library::{LibraryEntry, SpectralLibrary};
use crate::modification::Modification;
use crate::noise::NoiseModel;
use crate::peptide::Peptide;
use crate::spectrum::{Spectrum, SpectrumOrigin};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Ground truth for one query spectrum.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTruth {
    /// The query is an unmodified re-measurement of library target entry
    /// `library_id`.
    Unmodified {
        /// Library entry id of the true peptide.
        library_id: u32,
    },
    /// The query is a modified form of library target entry `library_id`.
    Modified {
        /// Library entry id of the true (unmodified) peptide.
        library_id: u32,
        /// The applied modification.
        modification: Modification,
        /// Zero-based residue position of the modification.
        position: usize,
    },
    /// The query comes from a peptide absent from the library; any match is
    /// a false positive.
    Unmatchable,
}

impl QueryTruth {
    /// The true library id, if the query is matchable.
    pub fn library_id(&self) -> Option<u32> {
        match self {
            QueryTruth::Unmodified { library_id } => Some(*library_id),
            QueryTruth::Modified { library_id, .. } => Some(*library_id),
            QueryTruth::Unmatchable => None,
        }
    }

    /// Whether the query carries a modification.
    pub fn is_modified(&self) -> bool {
        matches!(self, QueryTruth::Modified { .. })
    }
}

/// Specification of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name, e.g. `"iPRG2012(x0.01)"`.
    pub name: String,
    /// Number of *target* reference peptides; the library additionally
    /// contains one decoy per target.
    pub reference_peptides: usize,
    /// Number of query spectra.
    pub queries: usize,
    /// Fraction of matchable queries that carry a modification (0..=1).
    pub modified_fraction: f64,
    /// Fraction of queries generated from peptides absent from the library.
    pub unmatchable_fraction: f64,
    /// Peptide length range (inclusive).
    pub peptide_len: (usize, usize),
    /// Reference spectra are generated at this precursor charge.
    pub library_charge: u8,
    /// Instrument noise applied to query spectra.
    pub noise: NoiseModel,
    /// Fragmentation settings shared by library and queries.
    pub fragment: FragmentConfig,
}

impl WorkloadSpec {
    /// iPRG2012-shaped workload (paper: 16 k queries vs 1 M reference
    /// spectra), scaled by `scale`. `scale = 1.0` reproduces the paper's
    /// sizes; the figure binaries default to a laptop-friendly scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < scale <= 1.0`.
    pub fn iprg2012(scale: f64) -> WorkloadSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        WorkloadSpec {
            name: format!("iPRG2012(x{scale})"),
            // The paper counts 1 M *spectra*; with one decoy per target the
            // library holds 2× reference_peptides entries, so halve here.
            reference_peptides: ((1_000_000.0 * scale) as usize / 2).max(10),
            queries: ((16_000.0 * scale) as usize).max(10),
            modified_fraction: 0.6,
            unmatchable_fraction: 0.15,
            peptide_len: (7, 25),
            library_charge: 2,
            noise: NoiseModel::evaluation(),
            fragment: FragmentConfig::default(),
        }
    }

    /// HEK293-shaped workload (paper: 47 k queries vs 3 M reference
    /// spectra), scaled by `scale`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < scale <= 1.0`.
    pub fn hek293(scale: f64) -> WorkloadSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        WorkloadSpec {
            name: format!("HEK293(x{scale})"),
            reference_peptides: ((3_000_000.0 * scale) as usize / 2).max(10),
            queries: ((47_000.0 * scale) as usize).max(10),
            modified_fraction: 0.65,
            unmatchable_fraction: 0.2,
            peptide_len: (7, 30),
            library_charge: 2,
            noise: NoiseModel::evaluation(),
            fragment: FragmentConfig::default(),
        }
    }

    /// A tiny workload for unit tests (50 queries, 200 target peptides).
    pub fn tiny() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".to_owned(),
            reference_peptides: 200,
            queries: 50,
            modified_fraction: 0.5,
            unmatchable_fraction: 0.1,
            peptide_len: (7, 20),
            library_charge: 2,
            noise: NoiseModel::default(),
            fragment: FragmentConfig::default(),
        }
    }

    /// Total number of library spectra (targets + decoys).
    pub fn library_spectra(&self) -> usize {
        self.reference_peptides * 2
    }
}

/// A fully generated workload: library, queries and per-query ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// The specification this workload was generated from.
    pub spec: WorkloadSpec,
    /// Reference library (targets then decoys).
    pub library: SpectralLibrary,
    /// Query spectra; `queries[i].id == i`.
    pub queries: Vec<Spectrum>,
    /// Ground truth, parallel to `queries`.
    pub truth: Vec<QueryTruth>,
}

impl SyntheticWorkload {
    /// Generate a workload from `spec`, deterministically in `seed`.
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> SyntheticWorkload {
        let mut rng = StdRng::seed_from_u64(seed);

        let peptides = sample_target_peptides(&mut rng, spec);
        let seen: HashSet<String> = peptides.iter().map(Peptide::to_string).collect();

        let library = SpectralLibrary::with_decoys(
            &peptides,
            spec.library_charge,
            &spec.fragment,
            seed ^ 0x5eed_dec0,
        );

        // Assign query roles: first decide which are unmatchable, then which
        // of the matchable are modified, then shuffle the role order.
        let n_unmatch = (spec.queries as f64 * spec.unmatchable_fraction).round() as usize;
        let n_match = spec.queries - n_unmatch;
        let n_modified = (n_match as f64 * spec.modified_fraction).round() as usize;
        #[derive(Clone, Copy, PartialEq)]
        enum Role {
            Unmod,
            Modified,
            Unmatch,
        }
        let mut roles = Vec::with_capacity(spec.queries);
        roles.extend(std::iter::repeat_n(Role::Modified, n_modified));
        roles.extend(std::iter::repeat_n(Role::Unmod, n_match - n_modified));
        roles.extend(std::iter::repeat_n(Role::Unmatch, n_unmatch));
        roles.shuffle(&mut rng);

        let mut queries = Vec::with_capacity(spec.queries);
        let mut truth = Vec::with_capacity(spec.queries);
        for (qi, role) in roles.iter().enumerate() {
            let charge: u8 = if rng.gen_bool(0.7) { 2 } else { 3 };
            match role {
                Role::Unmod => {
                    let target = rng.gen_range(0..peptides.len());
                    let clean = theoretical_spectrum(
                        qi as u32,
                        &peptides[target],
                        charge,
                        &spec.fragment,
                        SpectrumOrigin::Query,
                    );
                    queries.push(spec.noise.apply(&mut rng, &clean));
                    truth.push(QueryTruth::Unmodified {
                        library_id: target as u32,
                    });
                }
                Role::Modified => {
                    // Rejection-sample a (peptide, modification) pair with an
                    // eligible site; the common catalogue covers enough
                    // residues that this terminates fast.
                    let (target, modification, position) = loop {
                        let target = rng.gen_range(0..peptides.len());
                        let m = *Modification::COMMON
                            .as_slice()
                            .choose(&mut rng)
                            .expect("catalogue non-empty");
                        let sites = peptides[target].eligible_positions(m);
                        if let Some(&p) = sites.as_slice().choose(&mut rng) {
                            break (target, m, p);
                        }
                    };
                    let modified = peptides[target].with_modification(modification, position);
                    let clean = theoretical_spectrum(
                        qi as u32,
                        &modified,
                        charge,
                        &spec.fragment,
                        SpectrumOrigin::Query,
                    );
                    queries.push(spec.noise.apply(&mut rng, &clean));
                    truth.push(QueryTruth::Modified {
                        library_id: target as u32,
                        modification,
                        position,
                    });
                }
                Role::Unmatch => {
                    // A fresh peptide not in the library.
                    let p = loop {
                        let p = Peptide::random_tryptic(
                            &mut rng,
                            spec.peptide_len.0,
                            spec.peptide_len.1,
                        );
                        if !seen.contains(&p.to_string()) {
                            break p;
                        }
                    };
                    let clean = theoretical_spectrum(
                        qi as u32,
                        &p,
                        charge,
                        &spec.fragment,
                        SpectrumOrigin::Query,
                    );
                    queries.push(spec.noise.apply(&mut rng, &clean));
                    truth.push(QueryTruth::Unmatchable);
                }
            }
        }

        SyntheticWorkload {
            spec: spec.clone(),
            library,
            queries,
            truth,
        }
    }

    /// Number of queries whose true peptide is in the library.
    pub fn matchable_queries(&self) -> usize {
        self.truth
            .iter()
            .filter(|t| t.library_id().is_some())
            .count()
    }
}

/// Sample `spec.reference_peptides` distinct target peptides — exactly
/// the draws [`SyntheticWorkload::generate`] spends on its target set,
/// so a caller that only needs the library (e.g. [`ScaledLibrary`])
/// reproduces the same peptides the full workload generator would.
///
/// Sequence collisions are rare but real at small lengths; duplicates
/// are rejected so ground truth stays unambiguous.
pub(crate) fn sample_target_peptides(rng: &mut StdRng, spec: &WorkloadSpec) -> Vec<Peptide> {
    let mut seen = HashSet::with_capacity(spec.reference_peptides);
    let mut peptides = Vec::with_capacity(spec.reference_peptides);
    while peptides.len() < spec.reference_peptides {
        let p = Peptide::random_tryptic(rng, spec.peptide_len.0, spec.peptide_len.1);
        if seen.insert(p.to_string()) {
            peptides.push(p);
        }
    }
    peptides
}

/// Specification of a [`ScaledLibrary`]: a base preset multiplied by an
/// augmentation factor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledLibrarySpec {
    /// The base workload whose library is scaled (only its library
    /// fields — peptides, charge, fragmentation — are used).
    pub base: WorkloadSpec,
    /// Library entries per base entry: `1` reproduces the base library
    /// exactly; `N` yields `N × base.library_spectra()` entries.
    pub factor: usize,
    /// Master seed: drives the base peptide sample (matching
    /// [`SyntheticWorkload::generate`] with the same seed) and every
    /// per-entry augmentation stream.
    pub seed: u64,
}

/// A deterministic synthetic library scaled far past its base preset —
/// the 10⁶–10⁸-reference workloads the streaming index build and the
/// scale benchmarks run on, generated without new input data.
///
/// Each base library entry (targets then decoys, exactly as
/// `SpectralLibrary::with_decoys` lays them out) expands into `factor`
/// consecutive entries:
///
/// * **variant 0** is the base entry verbatim (so `factor = 1`
///   reproduces [`SyntheticWorkload::generate`]'s library exactly);
/// * **variants ≥ 1** are augmented re-predictions: a decoy-style
///   residue permutation of the peptide (mass-preserving, so the
///   precursor-mass bucket shape of the base library is preserved) with
///   predicted-spectrum-style intensity rescaling and bounded peak
///   dropout — same precursor, different fragment pattern.
///
/// Every entry is generated by **per-entry random access**
/// (`ScaledLibrary::entry`): the augmentation RNG is seeded from
/// `(seed, id)` alone, so generation is byte-identical across thread
/// counts, chunk sizes, and streaming vs materialised consumption.
///
/// ```
/// use hdoms_ms::dataset::{ScaledLibrary, ScaledLibrarySpec, WorkloadSpec};
///
/// let scaled = ScaledLibrary::new(ScaledLibrarySpec {
///     base: WorkloadSpec::tiny(),
///     factor: 3,
///     seed: 42,
/// });
/// assert_eq!(scaled.len(), 3 * WorkloadSpec::tiny().library_spectra());
/// let library = scaled.materialize();
/// assert_eq!(library.len(), scaled.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledLibrary {
    spec: ScaledLibrarySpec,
    peptides: Vec<Peptide>,
}

impl ScaledLibrary {
    /// Intensity rescale half-range: variant intensities are multiplied
    /// by `exp(u)` with `u` uniform in ±this.
    const INTENSITY_LOG_RANGE: f64 = 0.35;
    /// Per-peak dropout probability for augmented variants.
    const DROPOUT: f64 = 0.1;
    /// Dropout never shrinks a variant below this many peaks.
    const KEEP_MIN: usize = 6;

    /// Prepare the generator: samples the base target peptides (the
    /// expensive part — everything else is per-entry on demand).
    ///
    /// # Panics
    ///
    /// Panics if `spec.factor` is zero or the scaled entry count
    /// overflows the `u32` id space.
    pub fn new(spec: ScaledLibrarySpec) -> ScaledLibrary {
        assert!(spec.factor >= 1, "scale factor must be at least 1");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let peptides = sample_target_peptides(&mut rng, &spec.base);
        assert!(
            2 * peptides.len() * spec.factor <= u32::MAX as usize,
            "scaled library exceeds the u32 id space"
        );
        ScaledLibrary { spec, peptides }
    }

    /// Total scaled entries (`factor × base.library_spectra()`).
    pub fn len(&self) -> usize {
        2 * self.peptides.len() * self.spec.factor
    }

    /// Whether the library has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate entry `id` from scratch — pure random access,
    /// deterministic in `(spec.seed, id)` only.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub(crate) fn entry(&self, id: u32) -> LibraryEntry {
        assert!((id as usize) < self.len(), "entry id out of range");
        let factor = self.spec.factor as u32;
        let base_id = id / factor;
        let variant = id % factor;
        let base = &self.spec.base;
        let mut entry = SpectralLibrary::decoys_entry(
            &self.peptides,
            base_id,
            base.library_charge,
            &base.fragment,
            self.spec.seed ^ 0x5eed_dec0,
        );
        entry.spectrum.id = id;
        if variant == 0 {
            return entry;
        }

        // Augmented variant: keyed on the global id alone so any thread
        // generating any chunk produces identical bytes.
        let mut rng = StdRng::seed_from_u64(
            self.spec
                .seed
                .wrapping_add(u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        // Decoy-style residue permutation: same residue multiset, so the
        // peptide (and precursor) mass is unchanged and the library's
        // precursor-mass bucket shape survives scaling.
        let permuted = entry.peptide.decoy(rng.gen());
        let origin = entry.spectrum.origin;
        let clean =
            theoretical_spectrum(id, &permuted, base.library_charge, &base.fragment, origin);
        // Predicted-spectrum-style augmentation: intensity-only rescale
        // plus bounded peak dropout; m/z positions and precursor stay.
        let peaks = clean.peaks();
        let mut kept = Vec::with_capacity(peaks.len());
        for (i, peak) in peaks.iter().enumerate() {
            // Both draws happen for every peak so the stream layout never
            // depends on earlier outcomes.
            let drop = rng.gen_bool(Self::DROPOUT);
            let log_scale = (rng.gen::<f64>() - 0.5) * 2.0 * Self::INTENSITY_LOG_RANGE;
            let remaining = peaks.len() - i - 1;
            if drop && kept.len() + remaining >= Self::KEEP_MIN {
                continue;
            }
            kept.push(crate::spectrum::Peak::new(
                peak.mz,
                peak.intensity * log_scale.exp(),
            ));
        }
        entry.spectrum =
            Spectrum::new(id, clean.precursor_mz, clean.precursor_charge, kept, origin);
        entry.peptide = permuted;
        entry
    }

    /// Iterate all entries in id order, generating on demand — the
    /// streaming consumption path (nothing is retained between entries).
    pub fn iter(&self) -> impl Iterator<Item = LibraryEntry> + '_ {
        (0..self.len() as u32).map(|id| self.entry(id))
    }

    /// Materialise the whole scaled library in memory (small factors /
    /// tests; the streaming index build consumes [`ScaledLibrary::iter`]
    /// instead).
    pub fn materialize(&self) -> SpectralLibrary {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_respects_counts() {
        let spec = WorkloadSpec::tiny();
        let w = SyntheticWorkload::generate(&spec, 3);
        assert_eq!(w.queries.len(), spec.queries);
        assert_eq!(w.truth.len(), spec.queries);
        assert_eq!(w.library.len(), spec.library_spectra());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::tiny();
        let a = SyntheticWorkload::generate(&spec, 11);
        let b = SyntheticWorkload::generate(&spec, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = WorkloadSpec::tiny();
        let a = SyntheticWorkload::generate(&spec, 1);
        let b = SyntheticWorkload::generate(&spec, 2);
        assert_ne!(a.queries, b.queries);
    }

    #[test]
    fn role_fractions_roughly_match_spec() {
        let mut spec = WorkloadSpec::tiny();
        spec.queries = 400;
        let w = SyntheticWorkload::generate(&spec, 5);
        let unmatch = w
            .truth
            .iter()
            .filter(|t| matches!(t, QueryTruth::Unmatchable))
            .count();
        let modified = w.truth.iter().filter(|t| t.is_modified()).count();
        let expected_unmatch = (400.0 * spec.unmatchable_fraction).round() as usize;
        assert_eq!(unmatch, expected_unmatch);
        let matchable = 400 - unmatch;
        let expected_mod = (matchable as f64 * spec.modified_fraction).round() as usize;
        assert_eq!(modified, expected_mod);
    }

    #[test]
    fn modified_queries_have_shifted_precursor() {
        let spec = WorkloadSpec::tiny();
        let w = SyntheticWorkload::generate(&spec, 9);
        for (q, t) in w.queries.iter().zip(&w.truth) {
            if let QueryTruth::Modified {
                library_id,
                modification,
                ..
            } = t
            {
                let reference = &w.library.get(*library_id).unwrap().spectrum;
                let delta = q.neutral_mass() - reference.neutral_mass();
                // Precursor noise is small (< 0.05 Da even at charge 3);
                // the modification shift dominates.
                assert!(
                    (delta - modification.mass_shift()).abs() < 0.2,
                    "precursor delta {delta} vs shift {}",
                    modification.mass_shift()
                );
            }
        }
    }

    #[test]
    fn unmodified_queries_match_reference_precursor() {
        let spec = WorkloadSpec::tiny();
        let w = SyntheticWorkload::generate(&spec, 13);
        for (q, t) in w.queries.iter().zip(&w.truth) {
            if let QueryTruth::Unmodified { library_id } = t {
                let reference = &w.library.get(*library_id).unwrap().spectrum;
                let delta = (q.neutral_mass() - reference.neutral_mass()).abs();
                assert!(delta < 0.2, "unmodified precursor delta {delta}");
            }
        }
    }

    #[test]
    fn preset_ratios() {
        let spec = WorkloadSpec::iprg2012(0.01);
        assert_eq!(spec.queries, 160);
        assert_eq!(spec.library_spectra(), 10_000);
        let spec = WorkloadSpec::hek293(0.01);
        assert_eq!(spec.queries, 470);
        assert_eq!(spec.library_spectra(), 30_000);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn preset_rejects_bad_scale() {
        let _ = WorkloadSpec::iprg2012(0.0);
    }

    #[test]
    fn query_ids_are_dense() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 21);
        for (i, q) in w.queries.iter().enumerate() {
            assert_eq!(q.id as usize, i);
        }
    }

    fn small_scaled(factor: usize, seed: u64) -> ScaledLibrary {
        let mut base = WorkloadSpec::tiny();
        base.reference_peptides = 40;
        ScaledLibrary::new(ScaledLibrarySpec { base, factor, seed })
    }

    #[test]
    fn scaled_factor_one_reproduces_base_library() {
        let mut base = WorkloadSpec::tiny();
        base.reference_peptides = 40;
        let workload = SyntheticWorkload::generate(&base, 17);
        let scaled = ScaledLibrary::new(ScaledLibrarySpec {
            base,
            factor: 1,
            seed: 17,
        });
        assert_eq!(scaled.materialize(), workload.library);
    }

    #[test]
    fn scaled_generation_matches_across_thread_counts() {
        let scaled = small_scaled(3, 23);
        let sequential: Vec<LibraryEntry> = scaled.iter().collect();

        // Four threads each generating a quarter by random access must
        // produce byte-identical entries: nothing about an entry depends
        // on which thread (or in which order) it was generated.
        let n = scaled.len() as u32;
        let chunk = n.div_ceil(4);
        let threaded: Vec<LibraryEntry> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let scaled = &scaled;
                    scope.spawn(move || {
                        (t * chunk..((t + 1) * chunk).min(n))
                            .map(|id| scaled.entry(id))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread"))
                .collect()
        });
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn scaled_streaming_matches_materialized() {
        let scaled = small_scaled(2, 31);
        let streamed: Vec<LibraryEntry> = scaled.iter().collect();
        let materialized = scaled.materialize();
        assert_eq!(streamed.as_slice(), materialized.entries());
        // Same seed twice ⇒ identical library.
        assert_eq!(small_scaled(2, 31).materialize(), materialized);
        // Different seed ⇒ different library.
        assert_ne!(small_scaled(2, 32).materialize(), materialized);
    }

    #[test]
    fn scaled_library_preserves_precursor_bucket_shape() {
        let factor = 4;
        let scaled = small_scaled(factor, 29);
        let base = small_scaled(1, 29);

        // 10 Da precursor-mass buckets: augmentation permutes residues
        // (mass-preserving), so every base bucket count scales by
        // exactly `factor`.
        let histogram = |entries: &[LibraryEntry]| {
            let mut h = std::collections::HashMap::new();
            for e in entries {
                *h.entry((e.spectrum.neutral_mass() / 10.0).floor() as i64)
                    .or_insert(0usize) += 1;
            }
            h
        };
        let base_h = histogram(base.materialize().entries());
        let scaled_h = histogram(scaled.materialize().entries());
        assert_eq!(base_h.len(), scaled_h.len(), "bucket sets must match");
        for (bucket, count) in &base_h {
            assert_eq!(
                scaled_h.get(bucket),
                Some(&(count * factor)),
                "bucket {bucket} not scaled by {factor}"
            );
        }
    }

    #[test]
    fn scaled_variants_share_precursor_but_differ_in_peaks() {
        let scaled = small_scaled(3, 41);
        let base_entry = scaled.entry(0);
        let variant = scaled.entry(1);
        assert_eq!(
            variant.spectrum.precursor_mz, base_entry.spectrum.precursor_mz,
            "augmentation must not move the precursor"
        );
        assert_ne!(
            variant.spectrum.peaks(),
            base_entry.spectrum.peaks(),
            "augmented variant should re-predict the fragment pattern"
        );
        assert!(
            variant.spectrum.peak_count() >= 6,
            "dropout must keep a searchable peak floor"
        );
    }
}
