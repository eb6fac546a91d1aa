//! Conductance level maps: targets and decoding.

use crate::config::MlcConfig;

/// The conductance level map of an n-bit cell: `2^n` evenly spaced targets
/// from 0 to `g_max`, decoded back by nearest-target matching (equivalent
/// to midpoint thresholds).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMap {
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
        LevelMap { targets }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.targets.len()
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
    pub(crate) fn targets(&self) -> &[f64] {
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
}
