//! Dense (non-differential) hypervector storage in MLC cells — §4.3.
//!
//! To maximise capacity, hypervectors that are only *stored* (not used as
//! in-array compute weights) are packed `n` bits per cell: the `D`-bit
//! binary hypervector is reshaped into `D/n` symbols, each mapped to one of
//! the cell's `2^n` conductance levels (`g = h' / h'_max · g_max`).
//! Reading decodes each cell back to the nearest level. Storage density
//! scales with `n` — the paper's 3× capacity claim — at the price of the
//! relaxation-induced bit errors quantified in Figure 7.

use crate::config::MlcConfig;
use crate::device::{CellLevel, DeviceModel};
use crate::levels::LevelMap;
use hdoms_hdc::BinaryHypervector;
use rand::Rng;

/// Aggregate statistics from reading a store back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Total data bits stored.
    pub bits_total: u64,
    /// Bits that read back incorrectly.
    pub bit_errors: u64,
    /// Total cells used.
    pub cells_used: u64,
    /// Cells whose symbol decoded incorrectly.
    pub symbol_errors: u64,
}

impl StorageStats {
    /// Fraction of data bits that flipped (the y-axis of Figure 7).
    pub fn bit_error_rate(&self) -> f64 {
        if self.bits_total == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits_total as f64
        }
    }
}

/// A bank of MLC cells holding a batch of equally-sized hypervectors.
#[derive(Debug, Clone, PartialEq)]
pub struct HypervectorStore {
    config: MlcConfig,
    level_map: LevelMap,
    dim: usize,
    /// Programmed symbols, one `Vec<u8>` per hypervector (`dim/n` symbols,
    /// the last one zero-padded when `n` does not divide `dim`).
    symbols: Vec<Vec<u8>>,
}

impl HypervectorStore {
    /// Pack and program `hypervectors` into MLC cells.
    ///
    /// Bits are consumed most-significant-first per symbol; when
    /// `bits_per_cell` does not divide the dimension, the final symbol is
    /// padded with zero bits (extra capacity, no information).
    ///
    /// # Panics
    ///
    /// Panics if `hypervectors` is empty or their dimensions differ.
    pub fn program(config: MlcConfig, hypervectors: &[BinaryHypervector]) -> HypervectorStore {
        assert!(!hypervectors.is_empty(), "nothing to store");
        let dim = hypervectors[0].dim();
        assert!(
            hypervectors.iter().all(|h| h.dim() == dim),
            "all stored hypervectors must share a dimension"
        );
        let level_map = LevelMap::new(&config);
        let n = config.bits_per_cell as usize;
        let symbols = hypervectors
            .iter()
            .map(|hv| {
                let mut out = Vec::with_capacity(dim.div_ceil(n));
                let mut i = 0;
                while i < dim {
                    let mut sym = 0usize;
                    for b in 0..n {
                        let bit = if i + b < dim { hv.bit(i + b) } else { false };
                        sym = (sym << 1) | usize::from(bit);
                    }
                    out.push(sym as u8);
                    i += n;
                }
                out
            })
            .collect();
        HypervectorStore {
            config,
            level_map,
            dim,
            symbols,
        }
    }

    /// Cells used per hypervector (`ceil(dim / bits_per_cell)`).
    pub fn cells_per_hypervector(&self) -> usize {
        self.dim.div_ceil(self.config.bits_per_cell as usize)
    }

    /// Read every stored hypervector back `age_s` seconds after
    /// programming, returning the decoded vectors and aggregate error
    /// statistics against the originally programmed data.
    pub fn read_all<R: Rng>(
        &self,
        age_s: f64,
        rng: &mut R,
    ) -> (Vec<BinaryHypervector>, StorageStats) {
        let levels = self.levels_at(age_s);
        let mut stats = StorageStats::default();
        let mut out = Vec::with_capacity(self.symbols.len());
        for programmed in &self.symbols {
            let (hv, errs) = self.read_symbols(&levels, programmed, rng);
            stats.bits_total += self.dim as u64;
            stats.bit_errors += errs.0;
            stats.cells_used += programmed.len() as u64;
            stats.symbol_errors += errs.1;
            out.push(hv);
        }
        (out, stats)
    }

    /// Every symbol's [`CellLevel`] at `age_s`, indexed by symbol.
    fn levels_at(&self, age_s: f64) -> Vec<CellLevel> {
        let device = DeviceModel::new(self.config);
        (self.level_map.targets().iter())
            .map(|&target| device.level(target, age_s))
            .collect()
    }

    /// Read a symbol row back through the symbols' `levels`; returns the
    /// hypervector and (bit errors, symbol errors) vs the programmed
    /// symbols.
    fn read_symbols<R: Rng>(
        &self,
        levels: &[CellLevel],
        programmed: &[u8],
        rng: &mut R,
    ) -> (BinaryHypervector, (u64, u64)) {
        let n = self.config.bits_per_cell as usize;
        let mut hv = BinaryHypervector::zeros(self.dim);
        let mut bit_errors = 0u64;
        let mut symbol_errors = 0u64;
        for (cell, &sym) in programmed.iter().enumerate() {
            let observed = levels[sym as usize].sample(rng);
            let decoded = self.level_map.decode(observed);
            if decoded != sym as usize {
                symbol_errors += 1;
                // Count only bits inside the real dimension range (the
                // final symbol may contain padding).
                let base = cell * n;
                let diff = decoded ^ sym as usize;
                for b in 0..n {
                    let bit_idx = base + (n - 1 - b);
                    if bit_idx < self.dim && (diff >> b) & 1 == 1 {
                        bit_errors += 1;
                    }
                }
            }
            // Write decoded bits into the hypervector.
            let base = cell * n;
            for b in 0..n {
                let bit_idx = base + b;
                if bit_idx < self.dim {
                    let bit = (decoded >> (n - 1 - b)) & 1 == 1;
                    hv.set(bit_idx, bit);
                }
            }
        }
        (hv, (bit_errors, symbol_errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_hvs(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BinaryHypervector::random(&mut rng, dim))
            .collect()
    }

    #[test]
    fn ideal_device_roundtrips_exactly() {
        for bits in 1..=3u8 {
            let hvs = random_hvs(4, 1000, 7);
            let store = HypervectorStore::program(MlcConfig::ideal(bits), &hvs);
            let mut rng = StdRng::seed_from_u64(1);
            let (read, stats) = store.read_all(86_400.0, &mut rng);
            assert_eq!(read, hvs, "{bits} bits per cell");
            assert_eq!(stats.bit_errors, 0);
            assert_eq!(stats.bit_error_rate(), 0.0);
        }
    }

    #[test]
    fn cells_per_hypervector_scales_with_bits() {
        let hvs = random_hvs(1, 8192, 8);
        let s1 = HypervectorStore::program(MlcConfig::with_bits(1), &hvs);
        let s2 = HypervectorStore::program(MlcConfig::with_bits(2), &hvs);
        let s3 = HypervectorStore::program(MlcConfig::with_bits(3), &hvs);
        assert_eq!(s1.cells_per_hypervector(), 8192);
        assert_eq!(s2.cells_per_hypervector(), 4096);
        assert_eq!(s3.cells_per_hypervector(), 2731); // ceil(8192/3)
    }

    #[test]
    fn error_rate_orders_by_bits_per_cell() {
        // The heart of Fig. 7: more bits per cell → higher storage BER.
        let hvs = random_hvs(8, 4096, 9);
        let mut rates = Vec::new();
        for bits in 1..=3u8 {
            let store = HypervectorStore::program(MlcConfig::with_bits(bits), &hvs);
            let mut rng = StdRng::seed_from_u64(42);
            let (_, stats) = store.read_all(86_400.0, &mut rng);
            rates.push(stats.bit_error_rate());
        }
        assert!(
            rates[0] < rates[1] && rates[1] < rates[2],
            "rates {rates:?}"
        );
        // Magnitudes in the measured ballpark (the paper's read-off of
        // Fig. 7 is the table `fig7_storage_errors` prints).
        assert!(rates[0] < 0.01, "1 bit/cell rate {}", rates[0]);
        assert!(
            (0.005..0.08).contains(&rates[1]),
            "2 bits rate {}",
            rates[1]
        );
        assert!((0.05..0.20).contains(&rates[2]), "3 bits rate {}", rates[2]);
    }

    #[test]
    fn error_rate_grows_with_age() {
        let hvs = random_hvs(8, 4096, 10);
        let store = HypervectorStore::program(MlcConfig::with_bits(3), &hvs);
        let rate_at = |age: f64| {
            let mut rng = StdRng::seed_from_u64(5);
            store.read_all(age, &mut rng).1.bit_error_rate()
        };
        assert!(rate_at(1.0) < rate_at(86_400.0));
    }

    #[test]
    fn non_divisible_dimension_padded() {
        // dim 100 with 3 bits/cell → 34 cells, 2 padding bits.
        let hvs = random_hvs(2, 100, 11);
        let store = HypervectorStore::program(MlcConfig::ideal(3), &hvs);
        assert_eq!(store.cells_per_hypervector(), 34);
        let mut rng = StdRng::seed_from_u64(1);
        let (read, stats) = store.read_all(0.0, &mut rng);
        assert_eq!(read, hvs);
        assert_eq!(stats.bits_total, 200);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mixed_dimensions_rejected() {
        let mut rng = StdRng::seed_from_u64(13);
        let hvs = vec![
            BinaryHypervector::random(&mut rng, 64),
            BinaryHypervector::random(&mut rng, 128),
        ];
        let _ = HypervectorStore::program(MlcConfig::with_bits(1), &hvs);
    }

    #[test]
    #[should_panic(expected = "nothing to store")]
    fn empty_input_rejected() {
        let _ = HypervectorStore::program(MlcConfig::with_bits(1), &[]);
    }

    #[test]
    fn stats_rates_consistent() {
        let hvs = random_hvs(4, 2048, 14);
        let store = HypervectorStore::program(MlcConfig::with_bits(3), &hvs);
        let mut rng = StdRng::seed_from_u64(3);
        let (read, stats) = store.read_all(86_400.0, &mut rng);
        // Recount bit errors externally and compare.
        let mut recount = 0u64;
        for (orig, got) in hvs.iter().zip(&read) {
            recount += u64::from(hdoms_hdc::hamming_distance(orig, got));
        }
        assert_eq!(recount, stats.bit_errors);
        assert!(stats.symbol_errors <= stats.bit_errors);
    }
}
