//! Mass spectra: peaks, precursor information and basic spectrum algebra.

use std::fmt;

/// A single fragment peak: a mass-to-charge position and an intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Mass-to-charge ratio (Thomson).
    pub mz: f64,
    /// Ion abundance in arbitrary units (non-negative).
    pub intensity: f64,
}

impl Peak {
    /// Create a peak.
    ///
    /// # Panics
    ///
    /// Panics if `mz` is not finite/positive or `intensity` is negative/NaN
    /// — malformed peaks would silently corrupt binning downstream.
    pub fn new(mz: f64, intensity: f64) -> Peak {
        assert!(
            mz.is_finite() && mz > 0.0,
            "peak m/z must be finite and positive"
        );
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "peak intensity must be finite and non-negative"
        );
        Peak { mz, intensity }
    }
}

/// Provenance of a spectrum, used to keep target/decoy bookkeeping and the
/// synthetic ground truth together with the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectrumOrigin {
    /// A reference spectrum generated from a real (target) peptide.
    Target,
    /// A decoy reference spectrum (shuffled peptide).
    Decoy,
    /// A measured query spectrum.
    Query,
}

/// An MS/MS spectrum: a precursor (m/z + charge) and a peak list sorted by
/// m/z.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Identifier unique within its collection (library index or query index).
    pub id: u32,
    /// Precursor mass-to-charge ratio.
    pub precursor_mz: f64,
    /// Precursor charge state (≥ 1).
    pub precursor_charge: u8,
    /// Fragment peaks, sorted by ascending m/z.
    peaks: Vec<Peak>,
    /// Where this spectrum came from.
    pub origin: SpectrumOrigin,
}

impl Spectrum {
    /// Create a spectrum; `peaks` are sorted by m/z internally.
    ///
    /// # Panics
    ///
    /// Panics if `precursor_charge` is zero or `precursor_mz` is not
    /// finite/positive.
    pub fn new(
        id: u32,
        precursor_mz: f64,
        precursor_charge: u8,
        mut peaks: Vec<Peak>,
        origin: SpectrumOrigin,
    ) -> Spectrum {
        assert!(precursor_charge >= 1, "precursor charge must be at least 1");
        assert!(
            precursor_mz.is_finite() && precursor_mz > 0.0,
            "precursor m/z must be finite and positive"
        );
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        Spectrum {
            id,
            precursor_mz,
            precursor_charge,
            peaks,
            origin,
        }
    }

    /// The peak list, sorted by ascending m/z.
    pub fn peaks(&self) -> &[Peak] {
        &self.peaks
    }

    /// Number of peaks.
    pub fn peak_count(&self) -> usize {
        self.peaks.len()
    }

    /// Neutral (uncharged) precursor mass implied by the precursor m/z and
    /// charge: `M = z * (m/z - proton)`.
    ///
    /// ```
    /// use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
    /// let s = Spectrum::new(0, 500.0, 2, vec![Peak::new(100.0, 1.0)], SpectrumOrigin::Query);
    /// assert!((s.neutral_mass() - 2.0 * (500.0 - 1.0072764666)).abs() < 1e-9);
    /// ```
    pub fn neutral_mass(&self) -> f64 {
        f64::from(self.precursor_charge) * (self.precursor_mz - crate::PROTON_MASS)
    }

    /// The largest peak intensity, or 0.0 for an empty spectrum.
    pub fn base_peak_intensity(&self) -> f64 {
        self.peaks.iter().map(|p| p.intensity).fold(0.0, f64::max)
    }

    /// Total ion current: the sum of all peak intensities.
    pub fn total_ion_current(&self) -> f64 {
        self.peaks.iter().map(|p| p.intensity).sum()
    }
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Spectrum#{} ({:?}, precursor {:.4} m/z, {}+, {} peaks)",
            self.id,
            self.origin,
            self.precursor_mz,
            self.precursor_charge,
            self.peaks.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(peaks: Vec<Peak>) -> Spectrum {
        Spectrum::new(1, 450.0, 2, peaks, SpectrumOrigin::Query)
    }

    #[test]
    fn peaks_sorted_on_construction() {
        let s = make(vec![
            Peak::new(300.0, 1.0),
            Peak::new(100.0, 2.0),
            Peak::new(200.0, 3.0),
        ]);
        let mzs: Vec<f64> = s.peaks().iter().map(|p| p.mz).collect();
        assert_eq!(mzs, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn base_peak_and_tic() {
        let s = make(vec![Peak::new(100.0, 2.0), Peak::new(200.0, 5.0)]);
        assert_eq!(s.base_peak_intensity(), 5.0);
        assert_eq!(s.total_ion_current(), 7.0);
    }

    #[test]
    fn empty_spectrum_statistics() {
        let s = make(vec![]);
        assert_eq!(s.base_peak_intensity(), 0.0);
        assert_eq!(s.total_ion_current(), 0.0);
        assert_eq!(s.peak_count(), 0);
    }

    #[test]
    #[should_panic(expected = "peak m/z must be finite and positive")]
    fn rejects_nonpositive_mz() {
        let _ = Peak::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "intensity must be finite")]
    fn rejects_negative_intensity() {
        let _ = Peak::new(100.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "precursor charge")]
    fn rejects_zero_charge() {
        let _ = Spectrum::new(0, 500.0, 0, vec![], SpectrumOrigin::Query);
    }

    #[test]
    fn neutral_mass_roundtrip_with_peptide() {
        use crate::peptide::Peptide;
        let p = Peptide::parse("PEPTIDEK").unwrap();
        for z in 1..=3u8 {
            let s = Spectrum::new(0, p.precursor_mz(z), z, vec![], SpectrumOrigin::Target);
            assert!(
                (s.neutral_mass() - p.monoisotopic_mass()).abs() < 1e-6,
                "charge {z}"
            );
        }
    }

    #[test]
    fn display_mentions_peak_count() {
        let s = make(vec![Peak::new(100.0, 1.0)]);
        assert!(s.to_string().contains("1 peaks"));
    }
}
