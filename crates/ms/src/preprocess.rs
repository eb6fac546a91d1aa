//! Spectrum preprocessing (§3.1 of the paper): peak filtering and m/z
//! binning into sparse spectrum vectors.
//!
//! The pipeline retains peaks above an intensity threshold (default 1 % of
//! the base peak), keeps at most the top-N most intense peaks (the paper
//! works with 50–150 peaks per spectrum), square-root-scales intensities
//! (standard variance stabilisation for ion counts), bins m/z values into
//! fixed-width bins, sums intensities within a bin and normalises the
//! result so the strongest bin has value 1.

use crate::spectrum::{Spectrum, SpectrumOrigin};
use std::fmt;

/// How raw intensities are scaled before binning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntensityScaling {
    /// Use raw intensities.
    None,
    /// Square-root scaling (default; de-emphasises dominant peaks).
    Sqrt,
    /// Replace intensities by their rank (most robust, least information).
    Rank,
}

/// Preprocessing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Discard peaks below this fraction of the base-peak intensity.
    pub intensity_threshold: f64,
    /// Keep at most this many peaks (most intense first).
    pub max_peaks: usize,
    /// Spectra with fewer surviving peaks than this are rejected.
    pub min_peaks: usize,
    /// Peaks below this m/z are discarded.
    pub min_mz: f64,
    /// Peaks above this m/z are discarded.
    pub max_mz: f64,
    /// Width of one m/z bin in daltons. The conventional value 1.0005 is
    /// the average spacing between peptide isotope clusters.
    pub bin_width: f64,
    /// Intensity scaling applied before binning.
    pub scaling: IntensityScaling,
}

impl Default for PreprocessConfig {
    fn default() -> PreprocessConfig {
        PreprocessConfig {
            intensity_threshold: 0.01,
            max_peaks: 150,
            min_peaks: 5,
            min_mz: 100.0,
            max_mz: 1500.0,
            bin_width: 1.0005,
            scaling: IntensityScaling::Sqrt,
        }
    }
}

impl PreprocessConfig {
    /// Number of m/z bins implied by the m/z range and bin width. This is
    /// the dimensionality of the sparse spectrum vector and the size of the
    /// HD position-ID item memory.
    pub fn num_bins(&self) -> usize {
        ((self.max_mz - self.min_mz) / self.bin_width).ceil() as usize + 1
    }

    /// Whether spectra can be binned under this configuration, naming
    /// the first rule violated — the non-panicking form, for
    /// configurations decoded from outside the program (an index
    /// header).
    ///
    /// # Errors
    ///
    /// A non-finite or empty m/z range, a non-positive `bin_width`, or
    /// a range holding more bins than the `u32` bin index can address.
    pub fn check(&self) -> Result<(), &'static str> {
        let bins = ((self.max_mz - self.min_mz) / self.bin_width).ceil();
        let rules = [
            (
                self.min_mz.is_finite() && self.min_mz < self.max_mz && self.bin_width > 0.0,
                "preprocess m/z range must be finite and non-empty, bin_width positive",
            ),
            (
                bins < f64::from(u32::MAX),
                "preprocess m/z range over bin_width must fit the u32 bin index",
            ),
        ];
        rules
            .iter()
            .try_for_each(|&(ok, why)| ok.then_some(()).ok_or(why))
    }
}

/// A binned peak: bin index plus scaled, max-normalised intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinnedPeak {
    /// Bin index in `0..num_bins`.
    pub bin: u32,
    /// Intensity in `(0, 1]` after scaling and max-normalisation.
    pub intensity: f32,
}

/// A preprocessed spectrum: sparse vector of (bin, intensity) pairs sorted
/// by bin index, plus the precursor metadata the search needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSpectrum {
    /// Original spectrum id.
    pub id: u32,
    /// Precursor m/z carried over from the raw spectrum.
    pub precursor_mz: f64,
    /// Precursor charge carried over from the raw spectrum.
    pub precursor_charge: u8,
    /// Neutral precursor mass (daltons) — the quantity precursor windows
    /// are defined on.
    pub neutral_mass: f64,
    /// Provenance carried over from the raw spectrum.
    pub origin: SpectrumOrigin,
    peaks: Vec<BinnedPeak>,
}

impl BinnedSpectrum {
    /// The sparse (bin, intensity) pairs, sorted by ascending bin index.
    pub fn peaks(&self) -> &[BinnedPeak] {
        &self.peaks
    }

    /// Euclidean norm of the sparse vector (used by cosine similarity).
    pub fn l2_norm(&self) -> f64 {
        self.peaks
            .iter()
            .map(|p| f64::from(p.intensity) * f64::from(p.intensity))
            .sum::<f64>()
            .sqrt()
    }
}

/// Why preprocessing rejected a spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreprocessError {
    /// Fewer than `required` peaks survived filtering.
    TooFewPeaks {
        /// Peaks that survived.
        found: usize,
        /// Minimum required by the configuration.
        required: usize,
    },
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::TooFewPeaks { found, required } => write!(
                f,
                "spectrum has {found} peaks after filtering, {required} required"
            ),
        }
    }
}

impl std::error::Error for PreprocessError {}

/// Applies [`PreprocessConfig`] to raw spectra.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Preprocessor {
    config: PreprocessConfig,
}

impl Preprocessor {
    /// Create a preprocessor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with the rule [`PreprocessConfig::check`] names.
    pub fn new(config: PreprocessConfig) -> Preprocessor {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        Preprocessor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PreprocessConfig {
        &self.config
    }

    /// Preprocess one spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`PreprocessError::TooFewPeaks`] when fewer than
    /// `config.min_peaks` peaks survive filtering — such spectra carry too
    /// little signal to search.
    pub fn run(&self, spectrum: &Spectrum) -> Result<BinnedSpectrum, PreprocessError> {
        let cfg = &self.config;
        let base = spectrum.base_peak_intensity();
        let threshold = base * cfg.intensity_threshold;

        // Range + intensity filter.
        let mut kept: Vec<(f64, f64)> = spectrum
            .peaks()
            .iter()
            .filter(|p| p.mz >= cfg.min_mz && p.mz <= cfg.max_mz && p.intensity >= threshold)
            .map(|p| (p.mz, p.intensity))
            .collect();

        // Top-N by intensity.
        if kept.len() > cfg.max_peaks {
            kept.sort_by(|a, b| b.1.total_cmp(&a.1));
            kept.truncate(cfg.max_peaks);
        }
        if kept.len() < cfg.min_peaks {
            return Err(PreprocessError::TooFewPeaks {
                found: kept.len(),
                required: cfg.min_peaks,
            });
        }

        // Scale, bin (summing within bins), normalise.
        let mut binned: Vec<(u32, f64)> = kept
            .iter()
            .map(|&(mz, intensity)| {
                let bin = ((mz - cfg.min_mz) / cfg.bin_width).floor() as u32;
                let scaled = match cfg.scaling {
                    IntensityScaling::None => intensity,
                    IntensityScaling::Sqrt => intensity.sqrt(),
                    IntensityScaling::Rank => 0.0, // filled below
                };
                (bin, scaled)
            })
            .collect();
        if cfg.scaling == IntensityScaling::Rank {
            // Rank transform: weakest surviving peak gets 1, strongest gets n.
            let mut order: Vec<usize> = (0..kept.len()).collect();
            order.sort_by(|&a, &b| kept[a].1.total_cmp(&kept[b].1));
            for (rank, &idx) in order.iter().enumerate() {
                binned[idx].1 = (rank + 1) as f64;
            }
        }
        binned.sort_by_key(|&(bin, _)| bin);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(binned.len());
        for (bin, v) in binned {
            match merged.last_mut() {
                Some((last_bin, acc)) if *last_bin == bin => *acc += v,
                _ => merged.push((bin, v)),
            }
        }
        let max = merged.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        let peaks: Vec<BinnedPeak> = merged
            .into_iter()
            .map(|(bin, v)| BinnedPeak {
                bin,
                intensity: (v / max) as f32,
            })
            .collect();

        Ok(BinnedSpectrum {
            id: spectrum.id,
            precursor_mz: spectrum.precursor_mz,
            precursor_charge: spectrum.precursor_charge,
            neutral_mass: spectrum.neutral_mass(),
            origin: spectrum.origin,
            peaks,
        })
    }

    /// Preprocess a batch, dropping rejected spectra and reporting how many
    /// survived. The returned vector preserves input order.
    pub fn run_batch(&self, spectra: &[Spectrum]) -> (Vec<BinnedSpectrum>, usize) {
        let out: Vec<BinnedSpectrum> = spectra.iter().filter_map(|s| self.run(s).ok()).collect();
        let rejected = spectra.len() - out.len();
        (out, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Peak;

    fn spectrum(peaks: Vec<Peak>) -> Spectrum {
        Spectrum::new(3, 500.25, 2, peaks, SpectrumOrigin::Query)
    }

    fn default_pre() -> Preprocessor {
        Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            ..PreprocessConfig::default()
        })
    }

    #[test]
    fn threshold_removes_weak_peaks() {
        let s = spectrum(vec![
            Peak::new(200.0, 1000.0),
            Peak::new(300.0, 5.0), // 0.5 % of base — below 1 % threshold
            Peak::new(400.0, 50.0),
        ]);
        let b = default_pre().run(&s).unwrap();
        assert_eq!(b.peaks().len(), 2);
    }

    #[test]
    fn top_n_keeps_most_intense() {
        let peaks: Vec<Peak> = (0..300)
            .map(|i| Peak::new(150.0 + i as f64, 100.0 + i as f64))
            .collect();
        let pre = Preprocessor::new(PreprocessConfig {
            max_peaks: 150,
            intensity_threshold: 0.0,
            ..PreprocessConfig::default()
        });
        let b = pre.run(&spectrum(peaks)).unwrap();
        assert_eq!(b.peaks().len(), 150);
        // The strongest peak (m/z 449, intensity 399) must be present with
        // normalised intensity 1.
        let max = b.peaks().iter().map(|p| p.intensity).fold(0.0, f32::max);
        assert!((max - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mz_range_respected() {
        let s = spectrum(vec![
            Peak::new(50.0, 500.0), // below min_mz
            Peak::new(200.0, 400.0),
            Peak::new(1600.0, 900.0), // above max_mz
        ]);
        let b = default_pre().run(&s).unwrap();
        assert_eq!(b.peaks().len(), 1);
        assert_eq!(b.peaks()[0].bin, ((200.0 - 100.0) / 1.0005) as u32);
    }

    #[test]
    fn same_bin_intensities_sum() {
        let s = spectrum(vec![
            Peak::new(200.1, 100.0),
            Peak::new(200.2, 100.0), // same 1.0005-Da bin
            Peak::new(300.0, 100.0),
        ]);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            scaling: IntensityScaling::None,
            ..PreprocessConfig::default()
        });
        let b = pre.run(&s).unwrap();
        assert_eq!(b.peaks().len(), 2);
        // merged bin has 200 units, lone bin 100 → normalised 1.0 and 0.5
        assert!((b.peaks()[0].intensity - 1.0).abs() < 1e-6);
        assert!((b.peaks()[1].intensity - 0.5).abs() < 1e-6);
    }

    #[test]
    fn min_peaks_rejection() {
        let s = spectrum(vec![Peak::new(200.0, 10.0)]);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 5,
            ..PreprocessConfig::default()
        });
        let err = pre.run(&s).unwrap_err();
        assert_eq!(
            err,
            PreprocessError::TooFewPeaks {
                found: 1,
                required: 5
            }
        );
        assert!(err.to_string().contains("1 peaks"));
    }

    #[test]
    fn bins_sorted_and_unique() {
        let peaks: Vec<Peak> = (0..100)
            .map(|i| Peak::new(100.0 + (i * 13 % 97) as f64 * 10.0, 100.0))
            .collect();
        let pre = Preprocessor::new(PreprocessConfig {
            max_mz: 2000.0,
            min_peaks: 1,
            ..PreprocessConfig::default()
        });
        let b = pre.run(&spectrum(peaks)).unwrap();
        for w in b.peaks().windows(2) {
            assert!(w[0].bin < w[1].bin);
        }
    }

    #[test]
    fn rank_scaling_orders_by_intensity() {
        let s = spectrum(vec![
            Peak::new(200.0, 10.0),
            Peak::new(300.0, 30.0),
            Peak::new(400.0, 20.0),
        ]);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            scaling: IntensityScaling::Rank,
            ..PreprocessConfig::default()
        });
        let b = pre.run(&s).unwrap();
        let by_bin: Vec<f32> = b.peaks().iter().map(|p| p.intensity).collect();
        // ranks 1,3,2 normalised by 3
        assert!((by_bin[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((by_bin[1] - 1.0).abs() < 1e-6);
        assert!((by_bin[2] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn num_bins_covers_range() {
        let cfg = PreprocessConfig::default();
        let bins = cfg.num_bins();
        // bins must cover max_mz
        let top_bin = ((cfg.max_mz - cfg.min_mz) / cfg.bin_width).floor() as usize;
        assert!(bins > top_bin);
    }

    #[test]
    fn neutral_mass_carried_over() {
        let s = spectrum(vec![Peak::new(200.0, 10.0), Peak::new(250.0, 10.0)]);
        let b = default_pre().run(&s).unwrap();
        assert!((b.neutral_mass - s.neutral_mass()).abs() < 1e-12);
    }

    #[test]
    fn batch_reports_rejections() {
        let good = spectrum(vec![
            Peak::new(200.0, 10.0),
            Peak::new(250.0, 10.0),
            Peak::new(300.0, 10.0),
            Peak::new(350.0, 10.0),
            Peak::new(420.0, 10.0),
        ]);
        let bad = spectrum(vec![Peak::new(200.0, 10.0)]);
        let pre = Preprocessor::default();
        let (out, rejected) = pre.run_batch(&[good, bad]);
        assert_eq!(out.len(), 1);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn l2_norm_matches_manual() {
        let s = spectrum(vec![Peak::new(200.0, 4.0), Peak::new(300.0, 4.0)]);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            scaling: IntensityScaling::None,
            ..PreprocessConfig::default()
        });
        let b = pre.run(&s).unwrap();
        // two equal bins, both normalised to 1.0 → norm = sqrt(2)
        assert!((b.l2_norm() - 2f64.sqrt()).abs() < 1e-6);
    }
}
