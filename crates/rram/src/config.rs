//! MLC RRAM device configuration.

/// Parameters of the multi-level-cell RRAM device model.
///
/// Conductances are in microsiemens (µS) to match Figure 8 of the paper
/// (0–50 µS axis). The noise model is calibrated so that the regenerated
/// Figure 7 (storage bit error rate over time for 1/2/3 bits per cell)
/// matches the paper's chip measurements in magnitude and ordering; see
/// `device.rs` for the model itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlcConfig {
    /// Bits stored per cell (1, 2 or 3 → 2/4/8 conductance levels).
    pub bits_per_cell: u8,
    /// Maximum (fully-SET) conductance in µS.
    pub g_max_us: f64,
    /// Laplace scale of the conductance deviation right after programming
    /// (µS). Program-verify loops leave this residual spread.
    pub lambda_program_us: f64,
    /// Growth of the Laplace scale per decade of elapsed time (µS) — the
    /// conductance-relaxation term dominating Figures 7/8.
    pub lambda_relax_us: f64,
    /// Relaxation time constant in seconds; deviations grow like
    /// `log10(1 + t/τ)`.
    pub relax_tau_s: f64,
    /// Mean downward drift per decade of time (µS), peaked at
    /// mid-conductance levels.
    pub drift_us: f64,
    /// Noise multiplier for the most stable (extreme) levels. Total
    /// level-stability multiplier is
    /// `stability_floor + stability_span * midness` where `midness ∈ [0,1]`
    /// peaks at `g_max/2`.
    pub stability_floor: f64,
    /// Additional noise multiplier applied at mid-conductance levels (the
    /// least stable states of a filamentary RRAM cell).
    pub stability_span: f64,
    /// Probability that a cell is defective and reads a uniformly random
    /// level regardless of programming (stuck-at / random-telegraph
    /// victims). Sets the error floor visible on the 1-bit curve of Fig. 7.
    pub defect_rate: f64,
}

impl MlcConfig {
    /// The calibrated model with `bits` bits per cell (1, 2 or 3).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 3` — the chip in the paper stores at
    /// most 3 bits per cell.
    pub fn with_bits(bits: u8) -> MlcConfig {
        assert!((1..=3).contains(&bits), "bits per cell must be 1, 2 or 3");
        MlcConfig {
            bits_per_cell: bits,
            g_max_us: 50.0,
            lambda_program_us: 1.5,
            lambda_relax_us: 0.30,
            relax_tau_s: 60.0,
            drift_us: 0.6,
            stability_floor: 0.6,
            stability_span: 0.8,
            defect_rate: 0.0015,
        }
    }

    /// An idealised device: no noise, no relaxation, no defects. Useful
    /// for separating algorithmic error from device error in tests and
    /// ablations.
    pub fn ideal(bits: u8) -> MlcConfig {
        MlcConfig {
            lambda_program_us: 0.0,
            lambda_relax_us: 0.0,
            drift_us: 0.0,
            defect_rate: 0.0,
            ..MlcConfig::with_bits(bits)
        }
    }

    /// Number of conductance levels (`2^bits_per_cell`).
    pub fn levels(&self) -> usize {
        1usize << self.bits_per_cell
    }

    /// Check the parameter ranges, naming the first one violated — the
    /// non-panicking form, for configurations decoded from outside the
    /// program (an index header).
    ///
    /// # Errors
    ///
    /// A parameter out of its physical range (non-positive `g_max`,
    /// negative noise scales, `defect_rate` outside `[0, 1]`, or
    /// unsupported `bits_per_cell`).
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let rules = [
            (
                (1..=3).contains(&self.bits_per_cell),
                "bits per cell must be 1, 2 or 3",
            ),
            (self.g_max_us > 0.0, "g_max must be positive"),
            (
                self.lambda_program_us >= 0.0
                    && self.lambda_relax_us >= 0.0
                    && self.drift_us >= 0.0,
                "noise scales must be non-negative",
            ),
            (self.relax_tau_s > 0.0, "relaxation tau must be positive"),
            (
                (0.0..=1.0).contains(&self.defect_rate),
                "defect rate must be in [0, 1]",
            ),
            (
                self.stability_floor >= 0.0 && self.stability_span >= 0.0,
                "stability multipliers must be non-negative",
            ),
        ];
        rules
            .iter()
            .try_for_each(|&(ok, why)| ok.then_some(()).ok_or(why))
    }

    /// Validate the parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics with the rule [`MlcConfig::check`] names.
    pub(crate) fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }
}

impl Default for MlcConfig {
    /// The paper's headline configuration: 3 bits per cell.
    fn default() -> MlcConfig {
        MlcConfig::with_bits(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_bits_levels() {
        assert_eq!(MlcConfig::with_bits(1).levels(), 2);
        assert_eq!(MlcConfig::with_bits(2).levels(), 4);
        assert_eq!(MlcConfig::with_bits(3).levels(), 8);
    }

    #[test]
    #[should_panic(expected = "bits per cell must be 1, 2 or 3")]
    fn rejects_zero_bits() {
        let _ = MlcConfig::with_bits(0);
    }

    #[test]
    #[should_panic(expected = "bits per cell must be 1, 2 or 3")]
    fn rejects_four_bits() {
        let _ = MlcConfig::with_bits(4);
    }

    #[test]
    fn ideal_is_noiseless() {
        let c = MlcConfig::ideal(2);
        assert_eq!(c.lambda_program_us, 0.0);
        assert_eq!(c.lambda_relax_us, 0.0);
        assert_eq!(c.defect_rate, 0.0);
        c.validate();
    }

    #[test]
    fn default_is_three_bits() {
        assert_eq!(MlcConfig::default().bits_per_cell, 3);
    }

    #[test]
    fn validate_accepts_calibrated_configs() {
        for bits in 1..=3 {
            MlcConfig::with_bits(bits).validate();
        }
    }

    #[test]
    #[should_panic(expected = "defect rate")]
    fn validate_rejects_bad_defect_rate() {
        let mut c = MlcConfig::with_bits(1);
        c.defect_rate = 1.5;
        c.validate();
    }
}
