//! Precursor mass-delta profiling of open-search results.
//!
//! The signature analysis of every open-search study (e.g. Chick et al.
//! 2015, reference 7 of the paper): histogram the `query − reference`
//! precursor mass deltas of the accepted identifications. Unmodified
//! matches pile up at 0 Da; each modification type forms a peak at its
//! characteristic mass shift, so the histogram reads as a catalogue of
//! the modifications present in the sample — without any prior list.

use crate::psm::Psm;

/// One detected delta-mass peak.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPeak {
    /// Centroid of the delta-mass peak in daltons (intensity-weighted
    /// mean of the member deltas).
    pub delta_da: f64,
    /// Number of PSMs in the peak.
    pub count: usize,
}

/// Histogram of precursor mass deltas with peak detection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaMassProfile {
    bin_width: f64,
    /// (bin lower edge, count), only non-empty bins, ascending.
    bins: Vec<(f64, usize)>,
    total: usize,
}

impl DeltaMassProfile {
    /// Build the profile from accepted PSMs with the given histogram bin
    /// width (0.01 Da resolves all common PTMs; the paper's precursors
    /// are measured to ~0.005 Da).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not positive.
    pub fn from_psms(psms: &[Psm], bin_width: f64) -> DeltaMassProfile {
        assert!(bin_width > 0.0, "bin width must be positive");
        let mut map = std::collections::BTreeMap::new();
        for psm in psms {
            let bin = (psm.precursor_delta / bin_width).floor() as i64;
            *map.entry(bin).or_insert(0usize) += 1;
        }
        DeltaMassProfile {
            bin_width,
            bins: map
                .into_iter()
                .map(|(bin, count)| (bin as f64 * bin_width, count))
                .collect(),
            total: psms.len(),
        }
    }

    /// Total PSMs profiled.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Detect delta-mass peaks: maximal runs of adjacent non-empty bins
    /// whose total count is at least `min_count`, returned by descending
    /// count.
    pub(crate) fn peaks(&self, min_count: usize) -> Vec<DeltaPeak> {
        let mut peaks = Vec::new();
        let mut run: Vec<(f64, usize)> = Vec::new();
        let flush = |run: &mut Vec<(f64, usize)>, peaks: &mut Vec<DeltaPeak>| {
            let count: usize = run.iter().map(|&(_, c)| c).sum();
            if count >= min_count && !run.is_empty() {
                let centroid = run
                    .iter()
                    .map(|&(edge, c)| (edge + 0.5 * self.bin_width) * c as f64)
                    .sum::<f64>()
                    / count as f64;
                peaks.push(DeltaPeak {
                    delta_da: centroid,
                    count,
                });
            }
            run.clear();
        };
        for &(edge, count) in &self.bins {
            if let Some(&(last_edge, _)) = run.last() {
                if edge - last_edge > self.bin_width * 1.5 {
                    flush(&mut run, &mut peaks);
                }
            }
            run.push((edge, count));
        }
        flush(&mut run, &mut peaks);
        peaks.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.delta_da.total_cmp(&b.delta_da))
        });
        peaks
    }

    /// Match detected peaks against a catalogue of (name, mass shift)
    /// annotations within `tolerance_da`, returning
    /// `(peak, Some(name))` or `(peak, None)` for unexplained peaks.
    pub fn annotate<'a>(
        &self,
        min_count: usize,
        catalogue: &'a [(&'a str, f64)],
        tolerance_da: f64,
    ) -> Vec<(DeltaPeak, Option<&'a str>)> {
        self.peaks(min_count)
            .into_iter()
            .map(|peak| {
                let name = catalogue
                    .iter()
                    .filter(|(_, shift)| (shift - peak.delta_da).abs() <= tolerance_da)
                    .min_by(|a, b| {
                        (a.1 - peak.delta_da)
                            .abs()
                            .total_cmp(&(b.1 - peak.delta_da).abs())
                    })
                    .map(|&(name, _)| name);
                (peak, name)
            })
            .collect()
    }
}

/// The annotation catalogue built from the synthetic workload's
/// modification set ([`hdoms_ms::modification::Modification::COMMON`]),
/// plus the zero peak.
pub fn common_catalogue() -> Vec<(&'static str, f64)> {
    let mut out = vec![("unmodified", 0.0)];
    for m in hdoms_ms::modification::Modification::COMMON {
        out.push((m.name(), m.mass_shift()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psm(delta: f64) -> Psm {
        Psm {
            query_id: 0,
            reference_id: 0,
            score: 1.0,
            is_decoy: false,
            precursor_delta: delta,
        }
    }

    #[test]
    fn zero_and_oxidation_peaks_detected() {
        let mut psms = Vec::new();
        for i in 0..50 {
            psms.push(psm(0.001 * (i % 5) as f64)); // cluster at 0
        }
        for i in 0..30 {
            psms.push(psm(15.9949 + 0.002 * (i % 3) as f64)); // oxidation
        }
        psms.push(psm(200.0)); // stray
        let profile = DeltaMassProfile::from_psms(&psms, 0.01);
        let peaks = profile.peaks(5);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].count, 50);
        assert!(peaks[0].delta_da.abs() < 0.02);
        assert_eq!(peaks[1].count, 30);
        assert!((peaks[1].delta_da - 15.995).abs() < 0.02);
    }

    #[test]
    fn annotation_names_the_peaks() {
        let psms: Vec<Psm> = (0..20).map(|_| psm(79.9663)).collect();
        let profile = DeltaMassProfile::from_psms(&psms, 0.01);
        let catalogue = common_catalogue();
        let annotated = profile.annotate(5, &catalogue, 0.02);
        assert_eq!(annotated.len(), 1);
        assert_eq!(annotated[0].1, Some("Phospho"));
    }

    #[test]
    fn unexplained_peaks_stay_unannotated() {
        let psms: Vec<Psm> = (0..20).map(|_| psm(123.456)).collect();
        let profile = DeltaMassProfile::from_psms(&psms, 0.01);
        let catalogue = common_catalogue();
        let annotated = profile.annotate(5, &catalogue, 0.02);
        assert_eq!(annotated[0].1, None);
    }

    #[test]
    fn min_count_filters_noise() {
        let mut psms: Vec<Psm> = (0..10).map(|_| psm(0.0)).collect();
        psms.push(psm(50.0));
        let profile = DeltaMassProfile::from_psms(&psms, 0.01);
        assert_eq!(profile.peaks(5).len(), 1);
        assert_eq!(profile.peaks(1).len(), 2);
    }

    #[test]
    fn adjacent_bins_merge_into_one_peak() {
        // Deltas straddling a bin boundary must form a single peak.
        let psms: Vec<Psm> = (0..40).map(|i| psm(0.999 + 0.0005 * i as f64)).collect();
        let profile = DeltaMassProfile::from_psms(&psms, 0.01);
        assert_eq!(profile.peaks(10).len(), 1);
    }

    #[test]
    fn empty_profile_is_sane() {
        let profile = DeltaMassProfile::from_psms(&[], 0.01);
        assert_eq!(profile.total(), 0);
        assert!(profile.peaks(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        let _ = DeltaMassProfile::from_psms(&[], 0.0);
    }
}
