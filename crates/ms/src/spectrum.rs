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
    /// Create a peak; panics on a malformed one ([`SpectrumError::MalformedPeak`]).
    pub fn new(mz: f64, intensity: f64) -> Peak {
        let peak = Peak { mz, intensity };
        assert!(peak.is_well_formed(), "malformed peak [{mz}, {intensity}]");
        peak
    }

    fn is_well_formed(&self) -> bool {
        self.mz.is_finite() && self.mz > 0.0 && self.intensity.is_finite() && self.intensity >= 0.0
    }
}

/// Why [`Spectrum::try_new`] refuses a spectrum; `Display` is the reason on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectrumError {
    /// The precursor charge is zero.
    ZeroCharge,
    /// The precursor m/z is not finite and positive.
    PrecursorMz,
    /// A peak's m/z is not finite and positive, or its intensity not finite and non-negative.
    MalformedPeak {
        /// Position of the peak in the list as given (before sorting).
        index: usize,
        /// The peak as given.
        peak: Peak,
    },
    /// The neutral mass is infinite: every reference would sit in the query's window.
    NeutralMassOverflows,
}

impl fmt::Display for SpectrumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroCharge => write!(f, "precursor_charge must be ≥ 1"),
            Self::PrecursorMz => write!(f, "precursor_mz must be finite and positive"),
            Self::MalformedPeak { peak: p, .. } => {
                write!(f, "malformed peak [{}, {}]", p.mz, p.intensity)
            }
            Self::NeutralMassOverflows => write!(f, "neutral mass overflows"),
        }
    }
}

impl std::error::Error for SpectrumError {}

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
    /// Create a spectrum with `peaks` sorted by m/z: the one rule for which spectra exist.
    ///
    /// # Errors
    ///
    /// The first [`SpectrumError`] case that holds, in declaration order.
    pub fn try_new(
        id: u32,
        precursor_mz: f64,
        precursor_charge: u8,
        peaks: Vec<Peak>,
        origin: SpectrumOrigin,
    ) -> Result<Spectrum, SpectrumError> {
        if precursor_charge == 0 {
            return Err(SpectrumError::ZeroCharge);
        }
        if !(precursor_mz.is_finite() && precursor_mz > 0.0) {
            return Err(SpectrumError::PrecursorMz);
        }
        if let Some(index) = peaks.iter().position(|p| !p.is_well_formed()) {
            let peak = peaks[index];
            return Err(SpectrumError::MalformedPeak { index, peak });
        }
        let mut spectrum = Spectrum {
            id,
            precursor_mz,
            precursor_charge,
            peaks,
            origin,
        };
        if !spectrum.neutral_mass().is_finite() {
            return Err(SpectrumError::NeutralMassOverflows);
        }
        spectrum.peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        Ok(spectrum)
    }

    /// [`Spectrum::try_new`] for generators and tests, panicking where it refuses.
    pub fn new(
        id: u32,
        precursor_mz: f64,
        precursor_charge: u8,
        peaks: Vec<Peak>,
        origin: SpectrumOrigin,
    ) -> Spectrum {
        Spectrum::try_new(id, precursor_mz, precursor_charge, peaks, origin)
            .unwrap_or_else(|e| panic!("spectrum {id}: {e}"))
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
    pub(crate) fn base_peak_intensity(&self) -> f64 {
        self.peaks.iter().map(|p| p.intensity).fold(0.0, f64::max)
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
    fn base_peak_is_the_largest_intensity() {
        let s = make(vec![Peak::new(100.0, 2.0), Peak::new(200.0, 5.0)]);
        assert_eq!(s.base_peak_intensity(), 5.0);
    }

    #[test]
    fn empty_spectrum_statistics() {
        let s = make(vec![]);
        assert_eq!(s.base_peak_intensity(), 0.0);
        assert_eq!(s.peak_count(), 0);
    }

    #[test]
    #[should_panic(expected = "malformed peak [0, 1]")]
    fn rejects_nonpositive_mz() {
        let _ = Peak::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "malformed peak [100, -1]")]
    fn rejects_negative_intensity() {
        let _ = Peak::new(100.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "spectrum 0: precursor_charge must be ≥ 1")]
    fn rejects_zero_charge() {
        let _ = Spectrum::new(0, 500.0, 0, vec![], SpectrumOrigin::Query);
    }

    /// Each case has the wire's wording, and the first that holds wins;
    /// a peak built as a struct literal is checked too.
    #[test]
    fn try_new_names_the_first_fault() {
        let refuse = |mz, z, peaks: &[(f64, f64)]| {
            let peaks = peaks.iter().map(|&(mz, intensity)| Peak { mz, intensity });
            Spectrum::try_new(7, mz, z, peaks.collect(), SpectrumOrigin::Query).unwrap_err()
        };
        let reason = |mz, z, peaks: &[(f64, f64)]| refuse(mz, z, peaks).to_string();
        assert_eq!(reason(f64::NAN, 0, &[]), "precursor_charge must be ≥ 1");
        for mz in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert_eq!(
                reason(mz, 2, &[]),
                "precursor_mz must be finite and positive"
            );
        }
        let bad = [(300.0, 1.0), (f64::NAN, 1.0), (200.0, -2.0)];
        assert!(matches!(
            refuse(1e308, 2, &bad),
            SpectrumError::MalformedPeak { index: 1, .. }
        ));
        assert_eq!(reason(1e308, 2, &bad), "malformed peak [NaN, 1]");
        assert_eq!(reason(1e308, 2, &[(1.0, 0.0)]), "neutral mass overflows");
        // At charge 1 even `f64::MAX` is a finite mass, and accepted.
        let edge = Spectrum::try_new(0, f64::MAX, 1, vec![], SpectrumOrigin::Query);
        assert!(edge.unwrap().neutral_mass().is_finite());
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
