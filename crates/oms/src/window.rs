//! Precursor mass windows: the difference between standard and open search.
//!
//! A *standard* search only considers reference peptides whose neutral mass
//! matches the query's within instrument precision (tens of ppm). An *open*
//! search widens the accepted `query − reference` mass delta to hundreds of
//! daltons so a modified query can still reach its unmodified reference —
//! at the cost of a vastly larger candidate set, which is exactly the
//! scaling problem the paper's accelerator attacks.

/// The accepted range of `query − reference` neutral-mass deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecursorWindow {
    /// Standard search: `|Δm| ≤ ppm · 10⁻⁶ · query_mass`.
    StandardPpm(f64),
    /// Open search: `Δm ∈ [lower, upper]` daltons. Modifications add mass,
    /// so the window is conventionally asymmetric around zero.
    OpenDa {
        /// Lower bound of the accepted delta (negative allows the query to
        /// be lighter than the reference).
        lower: f64,
        /// Upper bound of the accepted delta.
        upper: f64,
    },
}

impl PrecursorWindow {
    /// The open window used by the paper-shaped experiments: enough to
    /// cover every modification in the synthetic catalogue (the heaviest,
    /// GlyGly, adds ≈114 Da) with margin, mirroring the ±hundreds-of-Da
    /// windows open-search tools run with.
    pub fn open_default() -> PrecursorWindow {
        PrecursorWindow::OpenDa {
            lower: -2.0,
            upper: 150.0,
        }
    }

    /// A typical standard-search window (20 ppm).
    pub fn standard_default() -> PrecursorWindow {
        PrecursorWindow::StandardPpm(20.0)
    }

    /// Whether a reference of neutral mass `reference_mass` is reachable
    /// from a query of neutral mass `query_mass`.
    ///
    /// ```
    /// use hdoms_oms::window::PrecursorWindow;
    /// let open = PrecursorWindow::open_default();
    /// assert!(open.contains(1000.0 + 79.97, 1000.0)); // phospho-shifted
    /// assert!(!PrecursorWindow::standard_default().contains(1000.0 + 79.97, 1000.0));
    /// ```
    pub fn contains(&self, query_mass: f64, reference_mass: f64) -> bool {
        let (lo, hi) = self.reference_mass_range(query_mass);
        (lo..=hi).contains(&reference_mass)
    }

    /// The reference-mass interval `[lo, hi]` reachable from a query of
    /// neutral mass `query_mass` — what the candidate index searches.
    pub fn reference_mass_range(&self, query_mass: f64) -> (f64, f64) {
        match *self {
            PrecursorWindow::StandardPpm(ppm) => {
                let tol = ppm * 1e-6 * query_mass;
                (query_mass - tol, query_mass + tol)
            }
            // delta = query - reference ∈ [lower, upper]
            // ⇒ reference ∈ [query - upper, query - lower]
            PrecursorWindow::OpenDa { lower, upper } => (query_mass - upper, query_mass - lower),
        }
    }

    /// Validate the window parameters.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive ppm tolerance or an empty open interval.
    pub fn validate(&self) {
        match *self {
            PrecursorWindow::StandardPpm(ppm) => {
                assert!(ppm > 0.0, "ppm tolerance must be positive");
            }
            PrecursorWindow::OpenDa { lower, upper } => {
                assert!(lower < upper, "open window must be a non-empty interval");
            }
        }
    }
}

impl Default for PrecursorWindow {
    /// Open search is the paper's subject, so it is the default.
    fn default() -> PrecursorWindow {
        PrecursorWindow::open_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_window_is_tight() {
        let w = PrecursorWindow::StandardPpm(20.0);
        assert!(w.contains(1000.0, 1000.0));
        assert!(w.contains(1000.0, 1000.019)); // 19 ppm
        assert!(!w.contains(1000.0, 1000.021)); // 21 ppm
        assert!(!w.contains(1000.0, 1015.99)); // oxidation shift
    }

    #[test]
    fn open_window_reaches_modified_queries() {
        let w = PrecursorWindow::open_default();
        // Query = modified peptide (heavier); reference = unmodified.
        for shift in [0.98, 15.99, 42.01, 79.97, 114.04] {
            assert!(
                w.contains(1200.0 + shift, 1200.0),
                "shift {shift} must be inside the open window"
            );
        }
        // A 200-Da delta is outside the default window.
        assert!(!w.contains(1200.0 + 200.0, 1200.0));
    }

    #[test]
    fn open_window_asymmetry() {
        let w = PrecursorWindow::open_default();
        // Query lighter than reference by 10 Da: outside (lower = -2).
        assert!(!w.contains(1190.0, 1200.0));
        // Lighter by 1 Da: inside.
        assert!(w.contains(1199.0, 1200.0));
    }

    #[test]
    fn mass_range_inverts_contains() {
        let w = PrecursorWindow::open_default();
        let q = 1500.0;
        let (lo, hi) = w.reference_mass_range(q);
        assert!(w.contains(q, lo + 1e-9));
        assert!(w.contains(q, hi - 1e-9));
        assert!(!w.contains(q, lo - 1e-6));
        assert!(!w.contains(q, hi + 1e-6));
    }

    #[test]
    fn standard_range_scales_with_mass() {
        let w = PrecursorWindow::StandardPpm(10.0);
        let (lo1, hi1) = w.reference_mass_range(500.0);
        let (lo2, hi2) = w.reference_mass_range(2000.0);
        assert!((hi1 - lo1) < (hi2 - lo2));
    }

    #[test]
    #[should_panic(expected = "non-empty interval")]
    fn validate_rejects_inverted_open_window() {
        PrecursorWindow::OpenDa {
            lower: 5.0,
            upper: -5.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "ppm tolerance must be positive")]
    fn validate_rejects_zero_ppm() {
        PrecursorWindow::StandardPpm(0.0).validate();
    }
}
