//! The ID-Level encoder (Eq. (1) of the paper).
//!
//! A preprocessed spectrum — a sparse set of (m/z bin, intensity) pairs —
//! is encoded into a binary hypervector:
//!
//! ```text
//! h = Sign( Σ_{i ∈ S} ID_i ⊗ LV_i )
//! ```
//!
//! where `ID_i` is the position hypervector of the peak's m/z bin and
//! `LV_i` the level hypervector of its quantised intensity.
//!
//! The encoder owns the item memories and resolves each peak to an
//! [`EncodeRow`] (its nibble-packed ID row and bipolar level row); the
//! arithmetic is the blocked kernel [`KernelDispatch::encode_blocks`]
//! on the process-wide [`kernels::active`] selection, and `Sign` is the
//! word-wise [`sign_pack`]. [`IdLevelEncoder::encode`] fuses the two —
//! each 64-dimension block of sums is packed into its output word while
//! still in registers, so no `D`-long accumulator exists on that path —
//! while [`IdLevelEncoder::accumulate`] and
//! [`IdLevelEncoder::quantize_accumulator`] expose the same two pieces
//! apart, for studies that want the raw sums.
//!
//! [`KernelDispatch::encode_blocks`]: crate::kernels::KernelDispatch::encode_blocks

use crate::hv::BinaryHypervector;
use crate::item_memory::{IdMemory, LevelMemory, LevelStyle};
use crate::kernels::{self, sign_word, EncodeRow, ENCODE_BLOCK};
use crate::multibit::IdPrecision;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Hypervector dimension `D`. The paper uses 8192 for its quality
    /// results and sweeps 1024–8192 in Fig. 13.
    pub dim: usize,
    /// Number of intensity quantisation levels `Q` (16–32 in the paper;
    /// the choice "does not significantly impact the results").
    pub q_levels: usize,
    /// ID component precision (§4.2.2); the paper's headline setting is
    /// 3-bit.
    pub id_precision: IdPrecision,
    /// Level hypervector style; `Chunked` enables the MVM-style in-memory
    /// encoding of §4.2.1.
    pub level_style: LevelStyle,
    /// Number of m/z bins (the ID memory size). Must cover every bin the
    /// preprocessor can emit.
    pub num_bins: usize,
    /// Seed for the item memories and the sign tie-break vector.
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> EncoderConfig {
        EncoderConfig {
            dim: 8192,
            q_levels: 32,
            id_precision: IdPrecision::Bits3,
            level_style: LevelStyle::Chunked { num_chunks: 128 },
            num_bins: PreprocessConfig::default().num_bins(),
            seed: 0x0d5e_ed00,
        }
    }
}

impl EncoderConfig {
    /// Whether an encoder can be built from this configuration, naming
    /// the first rule violated — the non-panicking form, for
    /// configurations decoded from outside the program (an index
    /// header).
    ///
    /// # Errors
    ///
    /// A zero `dim`, fewer than two levels, level vectors that do not
    /// fit `dim` (random: `dim ≥ 2q`; chunked: `2q ≤ num_chunks ≤ dim`),
    /// or an ID memory that is empty or whose `num_bins × dim` weights
    /// are not representable.
    pub fn check(&self) -> Result<(), &'static str> {
        self.level_style.check(self.dim, self.q_levels)?;
        match self.num_bins.checked_mul(self.dim) {
            Some(weights) if weights > 0 => Ok(()),
            _ => Err("encoder.num_bins must be positive, num_bins × dim representable"),
        }
    }
}

/// ID-Level encoder: owns the item memories and turns binned spectra into
/// binary hypervectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IdLevelEncoder {
    config: EncoderConfig,
    id_memory: IdMemory,
    level_memory: LevelMemory,
    /// Bipolar (±1 as i8) expansion of the level hypervectors, one flat
    /// `q_levels × dim` table, precomputed so the kernel's inner loop is
    /// branch-free.
    level_bipolar: Vec<i8>,
    /// Resolves `Sign(0)` deterministically: a random but fixed ±1 per
    /// dimension.
    tie_break: BinaryHypervector,
}

impl IdLevelEncoder {
    /// Build an encoder (generates both item memories deterministically
    /// from `config.seed`).
    ///
    /// # Panics
    ///
    /// Panics with the rule [`EncoderConfig::check`] names.
    pub fn new(config: EncoderConfig) -> IdLevelEncoder {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        let id_memory = IdMemory::generate(
            config.seed ^ 0x1d,
            config.num_bins,
            config.dim,
            config.id_precision,
        );
        let level_memory = LevelMemory::generate(
            config.seed ^ 0x7e,
            config.dim,
            config.q_levels,
            config.level_style,
        );
        let level_bipolar = (0..config.q_levels)
            .flat_map(|q| level_memory.level(q).to_bipolar())
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x71e);
        let tie_break = BinaryHypervector::random(&mut rng, config.dim);
        IdLevelEncoder {
            config,
            id_memory,
            level_memory,
            level_bipolar,
            tie_break,
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The position-ID item memory.
    pub fn id_memory(&self) -> &IdMemory {
        &self.id_memory
    }

    /// The level item memory.
    pub fn level_memory(&self) -> &LevelMemory {
        &self.level_memory
    }

    /// The fixed per-dimension resolution of `Sign(0)` — what
    /// [`IdLevelEncoder::quantize_accumulator`] emits wherever the
    /// accumulator is zero. The in-memory encoder applies the same
    /// tie-break to its analog accumulator.
    pub fn tie_break(&self) -> &BinaryHypervector {
        &self.tie_break
    }

    /// Resolve each peak to its kernel row: the packed ID row of its bin
    /// and the bipolar level row of its quantised intensity.
    fn rows(&self, spectrum: &BinnedSpectrum) -> Vec<EncodeRow<'_>> {
        let dim = self.config.dim;
        spectrum
            .peaks()
            .iter()
            .map(|peak| {
                let bin = peak.bin as usize;
                assert!(
                    bin < self.config.num_bins,
                    "bin {bin} outside ID memory ({} bins) — preprocessor/encoder mismatch",
                    self.config.num_bins
                );
                let level = self.level_memory.quantize(peak.intensity);
                (
                    self.id_memory.packed(bin),
                    &self.level_bipolar[level * dim..(level + 1) * dim],
                )
            })
            .collect()
    }

    /// Run the blocked kernel over `spectrum`'s rows on the active
    /// dispatch, handing each block of sums to `sink`.
    fn for_each_block(
        &self,
        spectrum: &BinnedSpectrum,
        sink: impl FnMut(usize, &[i32; ENCODE_BLOCK]),
    ) {
        kernels::active().encode_blocks(
            &self.rows(spectrum),
            self.config.id_precision.max_abs(),
            self.config.dim,
            sink,
        );
    }

    /// The raw encoding accumulator `Σ ID_i ⊗ LV_i` (before `Sign`): the
    /// kernel's blocked sums written out. Public for studies of the sums
    /// themselves (C-INTERMEDIATE); [`IdLevelEncoder::encode`] never
    /// materialises it.
    ///
    /// # Panics
    ///
    /// Panics if a peak's bin index is outside `0..num_bins` — that means
    /// the preprocessor and encoder configurations disagree.
    pub fn accumulate(&self, spectrum: &BinnedSpectrum) -> Vec<i32> {
        let mut acc = vec![0i32; self.config.dim];
        self.for_each_block(spectrum, |block, sums| {
            let out = &mut acc[block * ENCODE_BLOCK..];
            let width = out.len().min(ENCODE_BLOCK);
            out[..width].copy_from_slice(&sums[..width]);
        });
        acc
    }

    /// Quantise an accumulator to a binary hypervector with `Sign`,
    /// breaking `0` ties with the encoder's fixed tie-break vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the configured dimension.
    pub fn quantize_accumulator(&self, acc: &[i32]) -> BinaryHypervector {
        sign_pack(acc, 0, &self.tie_break)
    }

    /// Encode one spectrum — [`IdLevelEncoder::accumulate`] then
    /// [`IdLevelEncoder::quantize_accumulator`], fused: each block of
    /// sums becomes its output word directly.
    ///
    /// # Panics
    ///
    /// Panics if a peak's bin index is outside `0..num_bins`.
    pub fn encode(&self, spectrum: &BinnedSpectrum) -> BinaryHypervector {
        let tie = self.tie_break.words();
        let mut words = vec![0u64; tie.len()];
        self.for_each_block(spectrum, |block, sums| {
            words[block] = sign_word(sums, 0, tie[block]);
        });
        // Lanes beyond `dim` sum to zero and so take the tie-break's
        // tail bits, which are zero: `from_words` checks exactly that.
        BinaryHypervector::from_words(self.config.dim, words)
    }
}

/// `Sign` over a whole accumulator, word-wise (`sign_word` per 64
/// lanes): `+1` above `dead_band`, `-1` below `-dead_band`, the `tie`
/// vector's bit inside it. The integer encoder quantises with a zero
/// dead band; the in-memory encoder's analog accumulator with `½`.
///
/// # Panics
///
/// Panics if `acc` and `tie` differ in dimension.
pub fn sign_pack<T>(acc: &[T], dead_band: T, tie: &BinaryHypervector) -> BinaryHypervector
where
    T: Copy + PartialOrd + std::ops::Neg<Output = T>,
{
    assert_eq!(acc.len(), tie.dim(), "accumulator length mismatch");
    let words = acc
        .chunks(ENCODE_BLOCK)
        .zip(tie.words())
        .map(|(lanes, &tie)| sign_word(lanes, dead_band, tie))
        .collect();
    BinaryHypervector::from_words(acc.len(), words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::normalized_similarity;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::noise::NoiseModel;
    use hdoms_ms::preprocess::Preprocessor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> EncoderConfig {
        EncoderConfig {
            dim: 2048,
            q_levels: 16,
            id_precision: IdPrecision::Bits3,
            level_style: LevelStyle::Random,
            ..EncoderConfig::default()
        }
    }

    fn encoded_pair(style: LevelStyle) -> (f64, f64) {
        // Returns (similarity of noisy re-measurement, similarity of
        // unrelated spectra) under the given level style.
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 77);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(EncoderConfig {
            level_style: style,
            ..small_config()
        });
        let clean = &w.library.entries()[0].spectrum;
        let noisy = NoiseModel::default().apply(&mut StdRng::seed_from_u64(1), clean);
        let other = &w.library.entries()[1].spectrum;
        let h_clean = enc.encode(&pre.run(clean).unwrap());
        let h_noisy = enc.encode(&pre.run(&noisy).unwrap());
        let h_other = enc.encode(&pre.run(other).unwrap());
        (
            normalized_similarity(&h_clean, &h_noisy),
            normalized_similarity(&h_clean, &h_other),
        )
    }

    #[test]
    fn encoding_is_deterministic() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 5);
        let pre = Preprocessor::default();
        let b = pre.run(&w.queries[0]).unwrap();
        let enc1 = IdLevelEncoder::new(small_config());
        let enc2 = IdLevelEncoder::new(small_config());
        assert_eq!(enc1.encode(&b), enc2.encode(&b));
    }

    #[test]
    fn noisy_remeasurement_stays_similar() {
        let (sim_noisy, sim_other) = encoded_pair(LevelStyle::Random);
        assert!(
            sim_noisy > 0.25,
            "noisy re-measurement similarity too low: {sim_noisy}"
        );
        assert!(
            sim_other < sim_noisy / 2.0,
            "unrelated spectrum too similar: {sim_other} vs {sim_noisy}"
        );
    }

    #[test]
    fn chunked_levels_preserve_quality() {
        let (sim_noisy, sim_other) = encoded_pair(LevelStyle::Chunked { num_chunks: 128 });
        assert!(
            sim_noisy > 0.25,
            "chunked: noisy similarity too low: {sim_noisy}"
        );
        assert!(sim_other < sim_noisy / 2.0);
    }

    #[test]
    fn accumulator_bounds() {
        // |acc[d]| can never exceed peaks * max_abs(ID).
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 6);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(small_config());
        let b = pre.run(&w.queries[0]).unwrap();
        let acc = enc.accumulate(&b);
        let bound = (b.peaks().len() as i32) * 4;
        assert!(acc.iter().all(|&v| v.abs() <= bound));
        // And the accumulator is not trivially zero.
        assert!(acc.iter().any(|&v| v != 0));
    }

    #[test]
    fn quantize_ties_use_tie_break() {
        let enc = IdLevelEncoder::new(small_config());
        let zeros = vec![0i32; 2048];
        let hv = enc.quantize_accumulator(&zeros);
        // Sign(0) must equal the tie-break vector — check determinism and
        // rough balance.
        assert_eq!(hv, enc.quantize_accumulator(&zeros));
        let ones = hv.count_ones() as f64;
        assert!((ones - 1024.0).abs() < 200.0);
    }

    #[test]
    #[should_panic(expected = "accumulator length mismatch")]
    fn quantize_checks_length() {
        let enc = IdLevelEncoder::new(small_config());
        let _ = enc.quantize_accumulator(&[0i32; 7]);
    }

    #[test]
    fn binary_ids_also_work() {
        let enc = IdLevelEncoder::new(EncoderConfig {
            id_precision: IdPrecision::Bits1,
            ..small_config()
        });
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9);
        let pre = Preprocessor::default();
        let b = pre.run(&w.queries[0]).unwrap();
        let hv = enc.encode(&b);
        assert_eq!(hv.dim(), 2048);
    }

    #[test]
    fn encodings_use_full_dimensionality() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 10);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(small_config());
        let hv = enc.encode(&pre.run(&w.queries[0]).unwrap());
        let ones = hv.count_ones() as f64;
        // A healthy encoding is near-balanced.
        assert!((ones - 1024.0).abs() < 250.0, "ones = {ones}");
    }
}
