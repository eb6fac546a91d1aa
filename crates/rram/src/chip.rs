//! Chip-level capacity and area accounting.
//!
//! The paper's density claim is that storing `n` bits per cell
//! multiplies capacity per area by `n` (its 3× claim for 3-bit cells,
//! §5.2.1). This module turns that into queryable bookkeeping for a chip
//! made of crossbar tiles, so the benches can print the capacity side of
//! the evaluation alongside the error rates.

use crate::config::MlcConfig;

/// A chip built from identical crossbar tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSpec {
    /// Device configuration (bits per cell).
    pub mlc: MlcConfig,
    /// Number of crossbar tiles.
    pub tiles: usize,
    /// Rows per tile.
    pub rows: usize,
    /// Columns per tile.
    pub cols: usize,
}

impl ChipSpec {
    /// The paper's test chip: 3 million cells (§5.1.1), modelled as
    /// 48 tiles of 256×256 cells.
    pub fn paper_chip(mlc: MlcConfig) -> ChipSpec {
        ChipSpec {
            mlc,
            tiles: 48,
            rows: 256,
            cols: 256,
        }
    }

    /// Total cell count.
    pub fn cells(&self) -> u64 {
        (self.tiles * self.rows * self.cols) as u64
    }

    /// Storage capacity in bits when used as a dense (non-differential)
    /// store (§4.3).
    pub fn storage_bits(&self) -> u64 {
        self.cells() * u64::from(self.mlc.bits_per_cell)
    }

    /// Density improvement over an SLC configuration of the same chip —
    /// the paper's "3× better storage capacity per area".
    pub fn density_vs_slc(&self) -> f64 {
        f64::from(self.mlc.bits_per_cell)
    }

    /// How many hypervectors of dimension `dim` fit in dense storage.
    pub fn hypervector_capacity(&self, dim: usize) -> u64 {
        assert!(dim > 0, "dimension must be positive");
        let cells_per_hv = dim.div_ceil(self.mlc.bits_per_cell as usize) as u64;
        self.cells() / cells_per_hv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_has_three_million_cells() {
        let chip = ChipSpec::paper_chip(MlcConfig::with_bits(3));
        assert_eq!(chip.cells(), 3_145_728); // 48 × 256 × 256 ≈ 3 M
    }

    #[test]
    fn storage_scales_with_bits_per_cell() {
        let slc = ChipSpec::paper_chip(MlcConfig::with_bits(1));
        let mlc = ChipSpec::paper_chip(MlcConfig::with_bits(3));
        assert_eq!(mlc.storage_bits(), 3 * slc.storage_bits());
        assert!((mlc.density_vs_slc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hypervector_capacity_example() {
        // 8192-dim HVs at 3 bits/cell need 2731 cells each.
        let chip = ChipSpec::paper_chip(MlcConfig::with_bits(3));
        assert_eq!(chip.hypervector_capacity(8192), 3_145_728 / 2731);
        // SLC stores 3× fewer.
        let slc = ChipSpec::paper_chip(MlcConfig::with_bits(1));
        assert!(chip.hypervector_capacity(8192) > 2 * slc.hypervector_capacity(8192));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn hypervector_capacity_validates() {
        let _ = ChipSpec::paper_chip(MlcConfig::with_bits(1)).hypervector_capacity(0);
    }
}
