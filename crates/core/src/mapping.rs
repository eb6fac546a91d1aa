//! Mapping a spectral library onto crossbar tiles.
//!
//! In-memory search scales because the library *is* the compute fabric:
//! every reference hypervector occupies one column (differential, two
//! rows per dimension), and all tiles holding library columns evaluate a
//! query simultaneously. This module plans that placement — how many
//! tiles a library needs, how well they are utilised, and what one query
//! costs in sensing cycles — turning the Fig. 12 performance model's
//! `parallel_tiles` parameter into a quantity derived from data size.

use hdoms_rram::chip::ChipSpec;

/// A planned placement of a reference library on crossbar tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryMapping {
    /// References (columns) stored.
    pub references: u64,
    /// Hypervector dimension.
    pub dim: u64,
    /// Rows per tile.
    pub tile_rows: u64,
    /// Columns per tile.
    pub tile_cols: u64,
    /// Tiles stacked vertically to cover all `2·dim` rows of one column
    /// group.
    pub tiles_per_column_group: u64,
    /// Column groups (of `tile_cols` references each).
    pub column_groups: u64,
    /// Activated rows per sensing cycle.
    pub activated_rows: u64,
}

impl LibraryMapping {
    /// Plan the placement of `references` hypervectors of `dim` dimensions
    /// onto tiles of `tile_rows × tile_cols` cells with `activated_rows`
    /// driven per cycle.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or an odd/oversized activation count.
    pub(crate) fn plan(
        references: u64,
        dim: u64,
        tile_rows: u64,
        tile_cols: u64,
        activated_rows: u64,
    ) -> LibraryMapping {
        assert!(references > 0 && dim > 0, "need data to map");
        assert!(
            tile_rows >= 2 && tile_rows.is_multiple_of(2) && tile_cols > 0,
            "tile geometry must be positive with even rows"
        );
        assert!(
            activated_rows >= 2 && activated_rows.is_multiple_of(2) && activated_rows <= tile_rows,
            "activated rows must be even and within the tile"
        );
        let rows_needed = 2 * dim; // differential pairs
        LibraryMapping {
            references,
            dim,
            tile_rows,
            tile_cols,
            tiles_per_column_group: rows_needed.div_ceil(tile_rows),
            column_groups: references.div_ceil(tile_cols),
            activated_rows,
        }
    }

    /// Plan onto the tiles of a [`ChipSpec`].
    pub fn plan_on_chip(
        chip: &ChipSpec,
        references: u64,
        dim: u64,
        activated_rows: u64,
    ) -> LibraryMapping {
        LibraryMapping::plan(
            references,
            dim,
            chip.rows as u64,
            chip.cols as u64,
            activated_rows,
        )
    }

    /// Total tiles used.
    pub fn tiles(&self) -> u64 {
        self.tiles_per_column_group * self.column_groups
    }

    /// Total cells occupied by reference weights (two per dimension).
    pub(crate) fn cells_used(&self) -> u64 {
        self.references * self.dim * 2
    }

    /// Fraction of the allocated tiles' cells holding real weights —
    /// below 1 when the library or dimension does not divide the tile
    /// geometry.
    pub fn utilisation(&self) -> f64 {
        self.cells_used() as f64 / (self.tiles() * self.tile_rows * self.tile_cols) as f64
    }

    /// Sensing cycles to score one query against the *whole* resident
    /// library: row groups per column (`2·dim / activated_rows`), with
    /// every tile computing in parallel.
    pub fn cycles_per_query(&self) -> u64 {
        (2 * self.dim).div_ceil(self.activated_rows)
    }

    /// How many chips of `chip_tiles` tiles this mapping needs.
    pub fn chips_needed(&self, chip_tiles: u64) -> u64 {
        assert!(chip_tiles > 0, "a chip has at least one tile");
        self.tiles().div_ceil(chip_tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_rram::config::MlcConfig;

    #[test]
    fn paper_scale_mapping() {
        // 1 M references at D = 8192 on 256×256 tiles.
        let m = LibraryMapping::plan(1_000_000, 8192, 256, 256, 64);
        // 16384 rows / 256 = 64 vertical tiles; 1 M / 256 = 3907 groups.
        assert_eq!(m.tiles_per_column_group, 64);
        assert_eq!(m.column_groups, 3907);
        assert_eq!(m.tiles(), 64 * 3907);
        // One query costs 16384 / 64 = 256 cycles regardless of library size.
        assert_eq!(m.cycles_per_query(), 256);
    }

    #[test]
    fn utilisation_is_high_for_aligned_sizes() {
        let m = LibraryMapping::plan(256 * 10, 8192, 256, 256, 64);
        assert!((m.utilisation() - 1.0).abs() < 1e-12);
        // Misaligned reference count wastes part of the last group.
        let m = LibraryMapping::plan(256 * 10 + 1, 8192, 256, 256, 64);
        assert!(m.utilisation() < 1.0);
    }

    #[test]
    fn cycles_independent_of_library_size() {
        let small = LibraryMapping::plan(1_000, 8192, 256, 256, 64);
        let large = LibraryMapping::plan(3_000_000, 8192, 256, 256, 64);
        assert_eq!(small.cycles_per_query(), large.cycles_per_query());
        assert!(large.tiles() > small.tiles());
    }

    #[test]
    fn chip_plan_matches_manual() {
        let chip = ChipSpec::paper_chip(MlcConfig::with_bits(3));
        let m = LibraryMapping::plan_on_chip(&chip, 10_000, 8192, 64);
        assert_eq!(m.tile_rows, 256);
        assert_eq!(m.tile_cols, 256);
        // The 48-tile test chip cannot hold this library; count chips.
        assert!(m.chips_needed(chip.tiles as u64) > 1);
    }

    #[test]
    fn fewer_activated_rows_cost_more_cycles() {
        let fast = LibraryMapping::plan(1000, 8192, 256, 256, 64);
        let slow = LibraryMapping::plan(1000, 8192, 256, 256, 4);
        assert_eq!(slow.cycles_per_query(), 16 * fast.cycles_per_query());
    }

    #[test]
    #[should_panic(expected = "activated rows")]
    fn rejects_bad_activation() {
        let _ = LibraryMapping::plan(10, 128, 256, 256, 3);
    }
}
