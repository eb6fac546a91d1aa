//! Chip-level capacity and area accounting.
//!
//! The paper's density claims rest on two published numbers:
//!
//! * a 22 nm SLC RRAM macro is ~3× denser than high-density SRAM
//!   (Chou et al., VLSI 2020 — reference 8 of the paper), and
//! * storing `n` bits per cell multiplies capacity per area by `n`
//!   (the paper's own 3× claim for its 3-bit cells, §5.2.1).
//!
//! This module turns those into queryable bookkeeping for a chip made of
//! crossbar tiles, so the benches can print the capacity side of the
//! evaluation alongside the error rates.

use crate::config::MlcConfig;

/// Density of SLC RRAM relative to high-density SRAM in the same node
/// (reference 8 of the paper).
pub const SLC_RRAM_VS_SRAM_DENSITY: f64 = 3.0;

/// Area of one 1T1R RRAM cell in the paper's 130 nm test chip, µm².
/// (Order-of-magnitude literature value for 130 nm 1T1R; the *relative*
/// numbers below are what the evaluation uses.)
pub const CELL_AREA_130NM_UM2: f64 = 1.2;

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

    /// Storage capacity in bits when the cells hold differential compute
    /// weights (two cells per binary weight).
    pub fn compute_weight_bits(&self) -> u64 {
        self.cells() / 2
    }

    /// Total cell area in µm² (130 nm cell).
    pub fn area_um2(&self) -> f64 {
        self.cells() as f64 * CELL_AREA_130NM_UM2
    }

    /// Storage density in bits/µm².
    pub fn storage_density(&self) -> f64 {
        self.storage_bits() as f64 / self.area_um2()
    }

    /// Density improvement over an SLC configuration of the same chip —
    /// the paper's "3× better storage capacity per area".
    pub fn density_vs_slc(&self) -> f64 {
        f64::from(self.mlc.bits_per_cell)
    }

    /// Density improvement over SRAM of the same node class, combining the
    /// SLC-RRAM-vs-SRAM factor with the MLC multiplier.
    pub fn density_vs_sram(&self) -> f64 {
        SLC_RRAM_VS_SRAM_DENSITY * self.density_vs_slc()
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
        assert!((mlc.density_vs_sram() - 9.0).abs() < 1e-12);
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
    fn compute_storage_halves_for_differential() {
        let chip = ChipSpec::paper_chip(MlcConfig::with_bits(1));
        assert_eq!(chip.compute_weight_bits(), chip.cells() / 2);
    }

    #[test]
    fn densities_positive() {
        let chip = ChipSpec::paper_chip(MlcConfig::with_bits(2));
        assert!(chip.area_um2() > 0.0);
        assert!(chip.storage_density() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn hypervector_capacity_validates() {
        let _ = ChipSpec::paper_chip(MlcConfig::with_bits(1)).hypervector_capacity(0);
    }
}
