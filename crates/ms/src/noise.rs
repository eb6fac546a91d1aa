//! Instrument noise model for synthetic query spectra.
//!
//! Real query spectra differ from library spectra through measurement
//! effects. The model here applies, in order:
//!
//! 1. **peak dropout** — each true fragment survives with probability
//!    `peak_survival`,
//! 2. **m/z jitter** — surviving peaks move by a zero-mean Gaussian with
//!    standard deviation `mz_sigma` (fragment mass error),
//! 3. **intensity scaling** — intensities are multiplied by a log-normal
//!    factor with scale `intensity_sigma`,
//! 4. **chemical noise** — `noise_peaks` junk peaks are added uniformly over
//!    the acquisition m/z range with low intensities.
//!
//! These four effects are what the preprocessing of §3.1 (intensity
//! thresholding, top-N selection) and the HD encoding's level quantisation
//! are designed to survive, so the noise model exercises exactly the code
//! paths the paper's robustness claims depend on.

use crate::spectrum::{Peak, Spectrum};
use rand::Rng;
use rand_distr_shim::{sample_lognormal, sample_normal};

/// Minimal Box–Muller sampling helpers so we do not need `rand_distr`.
mod rand_distr_shim {
    use rand::Rng;

    /// Sample N(mean, sigma²) via Box–Muller.
    pub(crate) fn sample_normal<R: Rng>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
        // Avoid u == 0 which would make ln(u) infinite.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let v: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        mean + sigma * (-2.0 * u.ln()).sqrt() * v.cos()
    }

    /// Sample exp(N(0, sigma²)): a log-normal multiplier with median 1.
    pub(crate) fn sample_lognormal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
        sample_normal(rng, 0.0, sigma).exp()
    }
}

/// Parameters of the instrument noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability that a true fragment peak is observed (0..=1).
    pub peak_survival: f64,
    /// Standard deviation of fragment m/z error in daltons.
    pub mz_sigma: f64,
    /// Log-scale standard deviation of the intensity multiplier.
    pub intensity_sigma: f64,
    /// Number of chemical-noise peaks to add.
    pub noise_peaks: usize,
    /// Noise peaks are drawn uniformly in `[min_mz, max_mz]`.
    pub min_mz: f64,
    /// Upper bound of the noise peak m/z range.
    pub max_mz: f64,
    /// Noise peak intensity as a fraction of the base peak (upper bound;
    /// actual intensities are uniform in `(0, noise_intensity_frac]`).
    pub noise_intensity_frac: f64,
}

impl Default for NoiseModel {
    fn default() -> NoiseModel {
        NoiseModel {
            peak_survival: 0.85,
            mz_sigma: 0.01,
            intensity_sigma: 0.35,
            noise_peaks: 20,
            min_mz: 100.0,
            max_mz: 1500.0,
            noise_intensity_frac: 0.08,
        }
    }
}

impl NoiseModel {
    /// The instrument model used by the paper-shaped evaluation workloads:
    /// harsher than [`NoiseModel::default`] so identification rates sit in
    /// the paper's regime (a minority of queries identified) rather than
    /// saturating — saturation would mask the BER and dimension effects
    /// Figures 11 and 13 measure.
    pub(crate) fn evaluation() -> NoiseModel {
        NoiseModel {
            peak_survival: 0.68,
            mz_sigma: 0.015,
            intensity_sigma: 0.55,
            noise_peaks: 55,
            min_mz: 100.0,
            max_mz: 1500.0,
            noise_intensity_frac: 0.25,
        }
    }

    /// Apply the noise model to `spectrum`, producing the "measured" version.
    ///
    /// The precursor m/z receives a small error of its own
    /// (`mz_sigma / 3`, precursors are measured more precisely than
    /// fragments).
    pub fn apply<R: Rng>(&self, rng: &mut R, spectrum: &Spectrum) -> Spectrum {
        let base = spectrum.base_peak_intensity().max(1.0);
        let mut peaks = Vec::with_capacity(spectrum.peak_count() + self.noise_peaks);
        for p in spectrum.peaks() {
            if !rng.gen_bool(self.peak_survival.clamp(0.0, 1.0)) {
                continue;
            }
            let mz = if self.mz_sigma > 0.0 {
                (p.mz + sample_normal(rng, 0.0, self.mz_sigma)).max(1.0)
            } else {
                p.mz
            };
            let intensity = if self.intensity_sigma > 0.0 {
                p.intensity * sample_lognormal(rng, self.intensity_sigma)
            } else {
                p.intensity
            };
            peaks.push(Peak::new(mz, intensity));
        }
        for _ in 0..self.noise_peaks {
            let mz = rng.gen_range(self.min_mz..self.max_mz);
            let intensity =
                rng.gen_range(f64::EPSILON..=self.noise_intensity_frac.max(f64::EPSILON)) * base;
            peaks.push(Peak::new(mz, intensity));
        }
        let precursor_mz = if self.mz_sigma > 0.0 {
            spectrum.precursor_mz + sample_normal(rng, 0.0, self.mz_sigma / 3.0)
        } else {
            spectrum.precursor_mz
        };
        Spectrum::new(
            spectrum.id,
            precursor_mz,
            spectrum.precursor_charge,
            peaks,
            spectrum.origin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{theoretical_spectrum, FragmentConfig};
    use crate::peptide::Peptide;
    use crate::spectrum::SpectrumOrigin;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_spectrum() -> Spectrum {
        let p = Peptide::parse("ACDEFGHILMNPQSTVWYRK").unwrap();
        theoretical_spectrum(0, &p, 2, &FragmentConfig::default(), SpectrumOrigin::Target)
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let s = sample_spectrum();
        let a = NoiseModel::default().apply(&mut StdRng::seed_from_u64(5), &s);
        let b = NoiseModel::default().apply(&mut StdRng::seed_from_u64(5), &s);
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_reduces_true_peaks_and_junk_adds() {
        let s = sample_spectrum();
        let model = NoiseModel {
            peak_survival: 0.5,
            noise_peaks: 10,
            ..NoiseModel::default()
        };
        let mut survived = 0usize;
        let trials = 50;
        for seed in 0..trials {
            let noisy = model.apply(&mut StdRng::seed_from_u64(seed), &s);
            // every output has exactly 10 junk peaks plus survivors
            survived += noisy.peak_count() - 10;
        }
        let mean_survived = survived as f64 / trials as f64;
        let expect = s.peak_count() as f64 * 0.5;
        assert!(
            (mean_survived - expect).abs() < expect * 0.25,
            "mean {mean_survived} vs expected {expect}"
        );
    }

    #[test]
    fn jitter_moves_peaks_slightly() {
        let s = sample_spectrum();
        let model = NoiseModel {
            peak_survival: 1.0,
            noise_peaks: 0,
            intensity_sigma: 0.0,
            mz_sigma: 0.01,
            ..NoiseModel::default()
        };
        let noisy = model.apply(&mut StdRng::seed_from_u64(3), &s);
        assert_eq!(noisy.peak_count(), s.peak_count());
        // Peaks should have moved, but not far (< 5 sigma ≈ 0.05 Da).
        let mut moved = 0;
        for (a, b) in s.peaks().iter().zip(noisy.peaks().iter()) {
            let d = (a.mz - b.mz).abs();
            assert!(d < 0.08, "jitter {d} too large");
            if d > 0.0 {
                moved += 1;
            }
        }
        assert!(moved > s.peak_count() / 2);
    }

    #[test]
    fn noise_peaks_within_range() {
        let s = sample_spectrum();
        let model = NoiseModel {
            peak_survival: 0.0,
            noise_peaks: 30,
            min_mz: 200.0,
            max_mz: 300.0,
            ..NoiseModel::default()
        };
        let noisy = model.apply(&mut StdRng::seed_from_u64(11), &s);
        assert_eq!(noisy.peak_count(), 30);
        for p in noisy.peaks() {
            assert!(p.mz >= 200.0 && p.mz <= 300.0);
        }
    }
}
