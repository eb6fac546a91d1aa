//! Item memories for ID-Level encoding (§3.2, §4.2.1).
//!
//! * The **ID memory** maps each m/z bin position to a quasi-orthogonal
//!   *position hypervector* (`ID_i`). Following §4.2.2 these may carry
//!   multi-bit components.
//! * The **level memory** maps each of `Q` quantised intensity levels to a
//!   binary *level hypervector* (`l_j`). `l_0` is random and each
//!   subsequent level flips `D/(2Q)` previously-unflipped bits of its
//!   predecessor, so similarity between levels falls off linearly with
//!   their distance — nearby intensities stay similar in hyperspace.
//! * The **chunked** level memory style implements the paper's co-design
//!   (§4.2.1): the `D` dimensions are split into equal chunks and all bits
//!   in a chunk share one value, letting the in-memory encoder feed level
//!   inputs chunk-by-chunk (MVM-style) instead of bit-serially.

use crate::hv::BinaryHypervector;
use crate::kernels::{pack_id_row, packed_row_len, unpack_id_row};
use crate::multibit::IdPrecision;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How level hypervectors are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelStyle {
    /// Fully random base vector with bit-granular flips (the conventional
    /// scheme; requires bit-serial input feeding in hardware).
    Random,
    /// Chunked level hypervectors (§4.2.1): all bits within one of
    /// `num_chunks` equal chunks share a value, enabling chunk-parallel
    /// (MVM-style) in-memory encoding.
    Chunked {
        /// Number of chunks `D` is divided into. Must satisfy
        /// `num_chunks >= 2 * q_levels` so each level can flip at least one
        /// whole chunk.
        num_chunks: usize,
    },
}

impl LevelStyle {
    /// Whether `q` level hypervectors of this style fit `dim`
    /// dimensions: consecutive levels differ in `units / 2q` whole units
    /// (bits, or chunks), which must be at least one.
    pub(crate) fn check(self, dim: usize, q: usize) -> Result<(), &'static str> {
        let two_q = q.saturating_mul(2);
        let rules = [
            (dim >= 1, "encoder.dim must be positive"),
            (q >= 2, "encoder.q_levels must be at least 2"),
            (
                match self {
                    LevelStyle::Random => dim >= two_q,
                    LevelStyle::Chunked { num_chunks } => two_q <= num_chunks && num_chunks <= dim,
                },
                "level vectors need dim ≥ 2q (random) or 2q ≤ num_chunks ≤ dim (chunked)",
            ),
        ];
        rules
            .iter()
            .try_for_each(|&(ok, why)| ok.then_some(()).ok_or(why))
    }
}

/// The position-ID item memory: one multi-bit hypervector per m/z bin.
///
/// Stored flattened and nibble-packed (`num_positions` rows of
/// [`packed_row_len`]`(dim)` bytes, the layout of [`pack_id_row`]): half
/// a byte per component resident, and the rows the encode kernel
/// streams are the stored ones.
#[derive(Debug, Clone, PartialEq)]
pub struct IdMemory {
    num_positions: usize,
    dim: usize,
    precision: IdPrecision,
    data: Vec<u8>,
}

impl IdMemory {
    /// Generate deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an empty memory (no positions, or dimension 0).
    pub(crate) fn generate(
        seed: u64,
        num_positions: usize,
        dim: usize,
        precision: IdPrecision,
    ) -> IdMemory {
        assert!(
            num_positions > 0 && dim > 0,
            "an ID memory needs positions and a dimension"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(num_positions * packed_row_len(dim));
        let mut row = vec![0i8; dim];
        for _ in 0..num_positions {
            row.fill_with(|| precision.sample(&mut rng));
            data.extend(pack_id_row(&row));
        }
        IdMemory {
            num_positions,
            dim,
            precision,
            data,
        }
    }

    /// The packed ID row of `position` — what the encode kernel reads.
    ///
    /// # Panics
    ///
    /// Panics if `position >= num_positions`.
    #[inline]
    pub fn packed(&self, position: usize) -> &[u8] {
        assert!(
            position < self.num_positions,
            "position {position} out of bounds ({} positions)",
            self.num_positions
        );
        let len = packed_row_len(self.dim);
        &self.data[position * len..(position + 1) * len]
    }

    /// The ID hypervector components for `position`, unpacked.
    ///
    /// # Panics
    ///
    /// Panics if `position >= num_positions`.
    pub fn id(&self, position: usize) -> Vec<i8> {
        unpack_id_row(self.packed(position), self.dim)
    }
}

/// The level item memory: `q` binary hypervectors with linearly decaying
/// mutual similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMemory {
    dim: usize,
    q: usize,
    style: LevelStyle,
    levels: Vec<BinaryHypervector>,
}

impl LevelMemory {
    /// Generate deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`EncoderConfig::check`](crate::encoder::EncoderConfig::check)
    /// rejects: `q < 2`, `dim < 2q` for the random style, or
    /// `num_chunks` outside `2q..=dim` for the chunked style.
    pub fn generate(seed: u64, dim: usize, q: usize, style: LevelStyle) -> LevelMemory {
        if let Err(why) = style.check(dim, q) {
            panic!("{why}: dim {dim}, q {q}, {style:?}");
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x001e_7e11);
        let mut levels = Vec::with_capacity(q);
        match style {
            LevelStyle::Random => {
                let flips_per_level = dim / (2 * q);
                let mut perm: Vec<usize> = (0..dim).collect();
                perm.shuffle(&mut rng);
                let mut current = BinaryHypervector::random(&mut rng, dim);
                levels.push(current.clone());
                for j in 1..q {
                    for &d in &perm[(j - 1) * flips_per_level..j * flips_per_level] {
                        current.flip(d);
                    }
                    levels.push(current.clone());
                }
            }
            LevelStyle::Chunked { num_chunks } => {
                let chunk_flips = num_chunks / (2 * q);
                let mut perm: Vec<usize> = (0..num_chunks).collect();
                perm.shuffle(&mut rng);
                // One ±1 value per chunk — the form the in-memory
                // encoder feeds into the array.
                let mut current: Vec<i8> = (0..num_chunks)
                    .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
                    .collect();
                levels.push(expand_chunks(&current, dim));
                for j in 1..q {
                    for &c in &perm[(j - 1) * chunk_flips..j * chunk_flips] {
                        current[c] = -current[c];
                    }
                    levels.push(expand_chunks(&current, dim));
                }
            }
        }
        LevelMemory {
            dim,
            q,
            style,
            levels,
        }
    }

    /// The level hypervector for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= q`.
    #[inline]
    pub fn level(&self, level: usize) -> &BinaryHypervector {
        &self.levels[level]
    }

    /// Quantise a normalised intensity in `[0, 1]` to a level index in
    /// `0..q`.
    ///
    /// Values outside `[0, 1]` are clamped — preprocessing normalises to
    /// that range, but defensive clamping keeps corrupt inputs from
    /// panicking deep inside encoding.
    #[inline]
    pub fn quantize(&self, intensity: f32) -> usize {
        let clamped = intensity.clamp(0.0, 1.0);
        ((f64::from(clamped) * (self.q as f64 - 1.0)).round()) as usize
    }
}

/// Expand per-chunk values into a full binary hypervector. Chunks are the
/// contiguous ranges `[c*ceil(dim/n), (c+1)*ceil(dim/n))` clipped to `dim`.
fn expand_chunks(chunk_values: &[i8], dim: usize) -> BinaryHypervector {
    let chunk_size = dim.div_ceil(chunk_values.len());
    let bipolar: Vec<i8> = (0..dim).map(|d| chunk_values[d / chunk_size]).collect();
    BinaryHypervector::from_bipolar(&bipolar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::hamming_distance;

    #[test]
    fn id_memory_deterministic_and_distinct() {
        let a = IdMemory::generate(5, 100, 256, IdPrecision::Bits3);
        let b = IdMemory::generate(5, 100, 256, IdPrecision::Bits3);
        assert_eq!(a, b);
        assert_ne!(a.id(0), a.id(1));
    }

    #[test]
    fn id_memory_respects_precision() {
        for p in IdPrecision::ALL {
            let m = IdMemory::generate(1, 10, 128, p);
            for pos in 0..10 {
                for c in m.id(pos) {
                    assert!(c != 0 && c.abs() <= p.max_abs());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn id_memory_bounds() {
        let m = IdMemory::generate(1, 4, 64, IdPrecision::Bits1);
        let _ = m.id(4);
    }

    #[test]
    fn level_memory_linear_similarity_decay() {
        let q = 16;
        let dim = 2048;
        let lm = LevelMemory::generate(3, dim, q, LevelStyle::Random);
        let f = dim / (2 * q);
        for i in 0..q {
            for j in i..q {
                let hd = hamming_distance(lm.level(i), lm.level(j)) as usize;
                assert_eq!(hd, (j - i) * f, "levels {i},{j}");
            }
        }
    }

    #[test]
    fn extreme_levels_not_too_similar() {
        let lm = LevelMemory::generate(3, 4096, 32, LevelStyle::Random);
        let hd = hamming_distance(lm.level(0), lm.level(31));
        // 31 * 4096/64 = 1984 ≈ half the dimensions
        assert!(hd as usize >= 4096 / 2 - 4096 / 16);
    }

    #[test]
    fn quantize_boundaries() {
        let lm = LevelMemory::generate(1, 512, 16, LevelStyle::Random);
        assert_eq!(lm.quantize(0.0), 0);
        assert_eq!(lm.quantize(1.0), 15);
        assert_eq!(lm.quantize(0.5), 8); // round(7.5) = 8 (ties away from zero)
        assert_eq!(lm.quantize(-3.0), 0);
        assert_eq!(lm.quantize(7.0), 15);
    }

    #[test]
    fn chunked_levels_have_constant_chunks() {
        let dim = 1024;
        let n = 128;
        let lm = LevelMemory::generate(9, dim, 16, LevelStyle::Chunked { num_chunks: n });
        let chunk_size = dim.div_ceil(n);
        for level in 0..16 {
            let hv = lm.level(level);
            for c in 0..n {
                let expect = hv.bit(c * chunk_size);
                for d in c * chunk_size..((c + 1) * chunk_size).min(dim) {
                    assert_eq!(hv.bit(d), expect, "level {level} chunk {c} dim {d}");
                }
            }
        }
    }

    #[test]
    fn chunked_similarity_still_decays() {
        let lm = LevelMemory::generate(9, 2048, 16, LevelStyle::Chunked { num_chunks: 256 });
        let d01 = hamming_distance(lm.level(0), lm.level(1));
        let d07 = hamming_distance(lm.level(0), lm.level(7));
        let d015 = hamming_distance(lm.level(0), lm.level(15));
        assert!(d01 < d07 && d07 < d015);
    }

    #[test]
    #[should_panic(expected = "2q ≤ num_chunks ≤ dim")]
    fn chunked_rejects_too_few_chunks() {
        let _ = LevelMemory::generate(1, 1024, 32, LevelStyle::Chunked { num_chunks: 32 });
    }

    #[test]
    #[should_panic(expected = "dim ≥ 2q")]
    fn random_rejects_tiny_dim() {
        let _ = LevelMemory::generate(1, 16, 32, LevelStyle::Random);
    }
}
