//! Conductance level maps: targets, decoding and symbol/bit conversion.

use crate::config::MlcConfig;

/// The conductance level map of an n-bit cell: `2^n` evenly spaced targets
/// from 0 to `g_max`, decoded back by nearest-target matching (equivalent
/// to midpoint thresholds).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMap {
    bits: u8,
    targets: Vec<f64>,
}

impl LevelMap {
    /// Build the level map for `config`.
    pub fn new(config: &MlcConfig) -> LevelMap {
        config.validate();
        let n = config.levels();
        let targets = (0..n)
            .map(|k| k as f64 / (n - 1) as f64 * config.g_max_us)
            .collect();
        LevelMap {
            bits: config.bits_per_cell,
            targets,
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.targets.len()
    }

    /// Bits per symbol.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Target conductance (µS) of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn target(&self, level: usize) -> f64 {
        self.targets[level]
    }

    /// All target conductances in level order.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Decode an observed conductance to the nearest level.
    pub fn decode(&self, g_us: f64) -> usize {
        // Targets are evenly spaced; rounding is exact nearest-neighbour.
        let n = self.targets.len();
        let spacing = self.targets[1] - self.targets[0];
        let idx = (g_us / spacing).round();
        idx.clamp(0.0, (n - 1) as f64) as usize
    }

    /// Split a symbol into its natural-binary bits, most significant
    /// first. E.g. for 3 bits, symbol 5 → `[true, false, true]`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= levels`.
    pub fn symbol_to_bits(&self, symbol: usize) -> Vec<bool> {
        assert!(symbol < self.levels(), "symbol {symbol} out of range");
        (0..self.bits)
            .rev()
            .map(|b| (symbol >> b) & 1 == 1)
            .collect()
    }

    /// Assemble bits (most significant first) into a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != bits_per_cell`.
    pub fn bits_to_symbol(&self, bits: &[bool]) -> usize {
        assert_eq!(bits.len(), self.bits as usize, "wrong number of bits");
        bits.iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b))
    }

    /// Number of differing bits between two symbols' natural-binary codes
    /// (the unit Figure 7 reports errors in).
    pub fn bit_errors_between(&self, a: usize, b: usize) -> u32 {
        ((a ^ b) as u32).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_evenly_spaced_to_gmax() {
        let lm = LevelMap::new(&MlcConfig::with_bits(3));
        assert_eq!(lm.levels(), 8);
        assert_eq!(lm.target(0), 0.0);
        assert!((lm.target(7) - 50.0).abs() < 1e-12);
        let spacing = lm.target(1) - lm.target(0);
        for w in lm.targets().windows(2) {
            assert!((w[1] - w[0] - spacing).abs() < 1e-9);
        }
    }

    #[test]
    fn decode_roundtrip_on_targets() {
        for bits in 1..=3u8 {
            let lm = LevelMap::new(&MlcConfig::with_bits(bits));
            for level in 0..lm.levels() {
                assert_eq!(lm.decode(lm.target(level)), level);
            }
        }
    }

    #[test]
    fn decode_uses_midpoints() {
        let lm = LevelMap::new(&MlcConfig::with_bits(2));
        // spacing 50/3 ≈ 16.67; just below/above the 0-1 midpoint 8.33
        assert_eq!(lm.decode(8.0), 0);
        assert_eq!(lm.decode(8.7), 1);
    }

    #[test]
    fn decode_clamps_out_of_range() {
        let lm = LevelMap::new(&MlcConfig::with_bits(3));
        assert_eq!(lm.decode(-5.0), 0);
        assert_eq!(lm.decode(500.0), 7);
    }

    #[test]
    fn symbol_bits_roundtrip() {
        let lm = LevelMap::new(&MlcConfig::with_bits(3));
        for s in 0..8 {
            assert_eq!(lm.bits_to_symbol(&lm.symbol_to_bits(s)), s);
        }
    }

    #[test]
    fn symbol_to_bits_msb_first() {
        let lm = LevelMap::new(&MlcConfig::with_bits(3));
        assert_eq!(lm.symbol_to_bits(5), vec![true, false, true]);
        assert_eq!(lm.symbol_to_bits(1), vec![false, false, true]);
    }

    #[test]
    fn bit_errors_between_examples() {
        let lm = LevelMap::new(&MlcConfig::with_bits(3));
        assert_eq!(lm.bit_errors_between(3, 4), 3); // 011 vs 100
        assert_eq!(lm.bit_errors_between(6, 7), 1); // 110 vs 111
        assert_eq!(lm.bit_errors_between(2, 2), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn symbol_to_bits_bounds() {
        let lm = LevelMap::new(&MlcConfig::with_bits(2));
        let _ = lm.symbol_to_bits(4);
    }
}
