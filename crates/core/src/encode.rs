//! Encoding in memory (§4.2 of the paper).
//!
//! The position-ID item memory is programmed *once* into RRAM: row `b`
//! holds the multi-bit ID hypervector of m/z bin `b` as differential
//! pairs. Encoding a spectrum then activates the rows of its peak bins and
//! streams the level-hypervector values in as bit-line inputs. Thanks to
//! the chunked level vectors of §4.2.1, all dimensions within one chunk
//! share their input value, so a whole chunk's element-wise MACs complete
//! in a single MVM-style cycle instead of bit-serially.
//!
//! The multi-bit ID components (§4.2.2) map one-to-one onto the `2^n`
//! differential values an n-bit cell pair can represent: the alphabet
//! `{-4,…,-1,+1,…,+4}` lands on `{-1, -5/7, …, +5/7, +1}` in normalised
//! conductance terms. The mapping is monotone, so sign information is
//! exact and magnitude information only mildly warped — the final
//! `Sign()` quantisation (§4.2.3) is what makes the scheme robust.
//!
//! Programming and readout are the chip model's own: each ID component
//! is written through its grid point's differential pair
//! ([`CrossbarConfig::pair_levels`]) and each
//! activated row group is read out through [`CrossbarConfig::sense`], all
//! its dimensions as one block —
//! the same sensing cycles `CrossbarArray::mvm` (Fig. 9b) and the
//! in-memory search run, so Fig. 9a measures the one Eq. 5 chain through
//! this caller.
//!
//! The simulator uses the chunk sharing too: a row group's MAC resolves
//! each peak's input once per chunk, then sums the group's rows into a
//! strip of 16 dimensions held in registers, in peak order from 0.0. The
//! strip only interleaves dimensions, so each dimension performs the
//! naive per-dimension loop's additions in that loop's order, and its f64
//! sum has the same bits. [`InMemoryEncoder`] is the accelerator's
//! [`ReferenceEncoder`] (library side, with the bit-error rate the build
//! statistics fold) and, through [`InMemoryEncoder::encode`], its query
//! encoder.

use hdoms_hdc::encoder::{sign_pack, EncoderConfig, IdLevelEncoder};
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::similarity::hamming_distance;
use hdoms_hdc::BinaryHypervector;
use hdoms_ms::preprocess::BinnedSpectrum;
use hdoms_oms::search::ReferenceEncoder;
use hdoms_rram::array::CrossbarConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// The row group's MAC buffer of [`InMemoryEncoder::encode_on`]: one
    /// per thread, reused by every in-memory encode the thread runs
    /// instead of allocated beside the accumulator each time.
    static GROUP_MAC: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Error statistics for one in-memory encoding, measured against the
/// noise-free software encoding of the same spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeStats {
    /// Output bits that differ from the software ground truth.
    pub bit_errors: u32,
    /// Hypervector dimension.
    pub dim: u32,
    /// Sensing cycles the encoding consumed.
    pub cycles: u32,
}

impl EncodeStats {
    /// Fraction of output bits in error — the y-axis of Fig. 9a.
    pub fn bit_error_rate(&self) -> f64 {
        f64::from(self.bit_errors) / f64::from(self.dim)
    }
}

/// The in-memory ID-Level encoder. A clone is a second handle, not a
/// second chip: the item memories and the programmed weights are shared.
#[derive(Debug, Clone)]
pub struct InMemoryEncoder {
    software: Arc<IdLevelEncoder>,
    crossbar: CrossbarConfig,
    /// Effective differential weights `(g⁺−g⁻)/g_max` of the programmed ID
    /// memory after relaxation, flattened `[bin][dim]`.
    w_eff: Arc<[f32]>,
    /// RMS normalised per-pair conductance deviation of the programmed ID
    /// memory — scales the IR-drop error term.
    sigma_delta: f64,
    /// σ of every sensing cycle's one draw.
    cycle_sigma: f64,
    dim: usize,
    num_bins: usize,
    seed: u64,
}

/// Which stream an encode draws its analog noise from: a query and the
/// library entry with the same id are different spectra on different
/// encode passes, so their noise must not coincide.
#[derive(Clone, Copy)]
enum Side {
    Query = 0,
    Library = 1,
}

impl InMemoryEncoder {
    /// Program the ID item memory into (simulated) RRAM.
    ///
    /// The ID component precision must equal the cell precision — that is
    /// the paper's point in §4.2.2: the multi-bit scheme is free *because*
    /// the MLC cell already stores that many bits.
    ///
    /// The whole memory draws from one stream seeded by `seed`, in
    /// (row, column, `g⁺` then `g⁻`) order. `threads` workers program
    /// contiguous row blocks in place; each fast-forwards its own copy of
    /// the stream to its first row by drawing, without evaluating, every
    /// earlier cell. So every weight is the same at any thread count, and
    /// so is σ_δ: per-row sums of δ², folded in row order.
    ///
    /// # Panics
    ///
    /// Panics if `encoder.id_precision.bits() != crossbar.mlc.bits_per_cell`
    /// or either configuration is invalid.
    pub fn new(
        encoder: EncoderConfig,
        crossbar: CrossbarConfig,
        seed: u64,
        threads: usize,
    ) -> InMemoryEncoder {
        crossbar.validate();
        assert_eq!(
            encoder.id_precision.bits(),
            crossbar.mlc.bits_per_cell,
            "ID precision ({} bits) must match the cell precision ({} bits); \
             the multi-bit ID scheme is defined by the MLC cell",
            encoder.id_precision.bits(),
            crossbar.mlc.bits_per_cell
        );
        let software = Arc::new(IdLevelEncoder::new(encoder));
        let g_max = crossbar.mlc.g_max_us;
        // Monotone map: the alphabet's rank is the differential grid
        // point, so symbol `s` programs `by_symbol[s + max_abs]`.
        let max_abs = encoder.id_precision.max_abs();
        let mut by_symbol = vec![None; 2 * max_abs as usize + 1];
        let alphabet = encoder.id_precision.alphabet().into_iter();
        for (symbol, pair) in alphabet.zip(crossbar.pair_levels()) {
            by_symbol[(symbol + max_abs) as usize] = Some(pair);
        }
        let pair_of = |symbol: i8| by_symbol[(symbol + max_abs) as usize].expect("an ID symbol");
        let stream = StdRng::seed_from_u64(seed ^ 0x1dc0de);
        let (dim, num_bins) = (encoder.dim, encoder.num_bins);
        let memory = software.id_memory();

        // Rows `first..` into `cells`, their Σδ² into `row_sq`.
        let program_rows = |first: usize, cells: &mut [f32], row_sq: &mut [f64]| {
            let mut rng = stream.clone();
            for bin in 0..first {
                for symbol in memory.id(bin) {
                    let _ = pair_of(symbol).draw(&mut rng);
                }
            }
            for ((bin, row), sq) in (first..).zip(cells.chunks_exact_mut(dim)).zip(row_sq) {
                for (cell, symbol) in row.iter_mut().zip(memory.id(bin)) {
                    let pair = pair_of(symbol);
                    let (gp, gm, delta) = pair.program(pair.draw(&mut rng));
                    *sq += delta * delta;
                    *cell = ((gp - gm) / g_max) as f32;
                }
            }
        };
        // Programmed in place, in the one allocation every handle shares.
        let mut w_eff: Arc<[f32]> = std::iter::repeat_n(0.0, num_bins * dim).collect();
        let cells = Arc::get_mut(&mut w_eff).expect("no second handle yet");
        let mut row_sq = vec![0.0f64; num_bins];
        let block = num_bins.div_ceil(threads.clamp(1, num_bins));
        std::thread::scope(|scope| {
            let program_rows = &program_rows;
            let blocks = cells.chunks_mut(block * dim).zip(row_sq.chunks_mut(block));
            for (b, (cells, row_sq)) in blocks.enumerate() {
                scope.spawn(move || program_rows(b * block, cells, row_sq));
            }
        });
        let sigma_delta = (row_sq.iter().sum::<f64>() / (num_bins * dim) as f64).sqrt();
        InMemoryEncoder {
            software,
            crossbar,
            w_eff,
            sigma_delta,
            cycle_sigma: crossbar.cycle_sigma(sigma_delta, 0.0),
            dim,
            num_bins,
            seed,
        }
    }

    /// Reconstruct an encoder from previously-programmed MLC state (the
    /// warm-load path used by `hdoms-index`): the differential weight
    /// pairs `w_eff` and their RMS deviation are restored verbatim instead
    /// of re-sampling the device model, so the rebuilt encoder produces
    /// bit-identical encodings to the one persisted (sharing `w_eff`).
    ///
    /// # Panics
    ///
    /// Panics if the configurations are invalid, mismatched, or `w_eff`
    /// does not hold exactly `num_bins × dim` weights.
    pub fn from_programmed(
        encoder: EncoderConfig,
        crossbar: CrossbarConfig,
        w_eff: Arc<[f32]>,
        sigma_delta: f64,
        seed: u64,
    ) -> InMemoryEncoder {
        crossbar.validate();
        assert_eq!(
            encoder.id_precision.bits(),
            crossbar.mlc.bits_per_cell,
            "ID precision must match the cell precision"
        );
        assert_eq!(
            w_eff.len(),
            encoder.num_bins * encoder.dim,
            "programmed weight count must equal num_bins × dim"
        );
        assert!(
            sigma_delta.is_finite() && sigma_delta >= 0.0,
            "sigma_delta must be finite and non-negative"
        );
        InMemoryEncoder {
            software: Arc::new(IdLevelEncoder::new(encoder)),
            crossbar,
            w_eff,
            sigma_delta,
            cycle_sigma: crossbar.cycle_sigma(sigma_delta, 0.0),
            dim: encoder.dim,
            num_bins: encoder.num_bins,
            seed,
        }
    }

    /// The effective differential weights `(g⁺−g⁻)/g_max` of the
    /// programmed ID memory, flattened `[bin][dim]` — the MLC programming
    /// state a persistent index stores (this handle) for warm reloads.
    pub fn programmed_weights(&self) -> &Arc<[f32]> {
        &self.w_eff
    }

    /// RMS normalised per-pair conductance deviation of the programmed ID
    /// memory.
    pub fn sigma_delta(&self) -> f64 {
        self.sigma_delta
    }

    /// Sensing cycles to encode a spectrum with `peaks` peaks:
    /// `chunks × ceil(peaks / pairs_per_cycle)`.
    pub fn cycles_for(&self, peaks: usize) -> usize {
        let chunks = self
            .dim
            .div_ceil(chunk_size(self.dim, self.software.config().level_style));
        chunks * peaks.div_ceil(self.crossbar.pairs_per_cycle())
    }

    /// Encode `spectrum` in memory as a library entry, returning the
    /// hypervector and the error statistics vs the software ground truth
    /// (which costs a full software encode on top — the library side pays
    /// it for the build statistics, queries go through
    /// [`InMemoryEncoder::encode`]).
    ///
    /// Deterministic per `(construction seed, spectrum id)`, on the
    /// library's noise stream.
    ///
    /// # Panics
    ///
    /// Panics if a peak bin exceeds the programmed ID memory.
    pub fn encode_with_stats(&self, spectrum: &BinnedSpectrum) -> (BinaryHypervector, EncodeStats) {
        let hv = self.encode_on(spectrum, Side::Library);
        let truth = self.software.encode(spectrum);
        let stats = EncodeStats {
            bit_errors: hamming_distance(&hv, &truth),
            dim: self.dim as u32,
            cycles: self.cycles_for(spectrum.peaks().len()) as u32,
        };
        (hv, stats)
    }

    /// Encode `spectrum` in memory as a query, without the software
    /// ground-truth encode the statistics need.
    ///
    /// Deterministic per `(construction seed, spectrum id)`, on the query
    /// noise stream: a query and the library entry with the same id are
    /// two readouts of the chip, so on a noisy device this is not
    /// [`InMemoryEncoder::encode_with_stats`]'s hypervector (on an ideal
    /// one it is).
    ///
    /// # Panics
    ///
    /// Panics if a peak bin exceeds the programmed ID memory.
    pub fn encode(&self, spectrum: &BinnedSpectrum) -> BinaryHypervector {
        self.encode_on(spectrum, Side::Query)
    }

    /// The in-memory encode, drawing from the noise stream keyed
    /// `(seed, side, spectrum id)`. Row group by row group, [`group_mac`]
    /// sums the group's peak rows for every dimension — chunk by chunk, a
    /// strip of [`STRIP`] dimensions at a time in registers, each strip
    /// adding the rows in peak order from 0.0 — then the group's cycles
    /// are sensed as one block in dimension order (so the stream's order
    /// is (row group, dimension)), and digital logic adds the readouts
    /// across groups. A strip interleaves dimensions but never reorders a
    /// dimension's own additions, so every f64 sum is the naive
    /// dimension-by-dimension MAC's to the bit, and on a noise-free device
    /// so is the result.
    fn encode_on(&self, spectrum: &BinnedSpectrum, side: Side) -> BinaryHypervector {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xa076_1d64_78bd_642f)
                .wrapping_add((side as u64) << 32 | u64::from(spectrum.id)),
        );
        let chunk_size = chunk_size(self.dim, self.software.config().level_style);
        let lm = self.software.level_memory();

        // Peak rows: (programmed ID row, level hypervector).
        let peaks: Vec<(&[f32], &BinaryHypervector)> = spectrum
            .peaks()
            .iter()
            .map(|p| {
                let bin = p.bin as usize;
                assert!(
                    bin < self.num_bins,
                    "bin {bin} outside the programmed ID memory ({} bins)",
                    self.num_bins
                );
                let row = &self.w_eff[bin * self.dim..(bin + 1) * self.dim];
                (row, lm.level(lm.quantize(p.intensity)))
            })
            .collect();

        let mut acc = vec![0.0f64; self.dim];
        GROUP_MAC.with_borrow_mut(|mac| {
            // `group_mac` writes every dimension, so the buffer needs no
            // clearing between encodes.
            mac.resize(self.dim, 0.0);
            for group in peaks.chunks(self.crossbar.pairs_per_cycle()) {
                group_mac(group, chunk_size, mac);
                // The group's cycles, one per dimension, sensed as a block.
                self.crossbar
                    .sense(mac, group.len() as f64, self.cycle_sigma, &mut rng);
                for (a, &m) in acc.iter_mut().zip(mac.iter()) {
                    *a += m;
                }
            }
        });

        // Sign quantisation with the software tie-break (§4.2.3). The
        // accumulation across row groups happens in digital logic after
        // the ADC, and the true MAC is integer-valued, so the digital
        // comparator treats |acc| < ½ as the zero tie rather than trusting
        // the sign of a sub-LSB analog residue.
        sign_pack(&acc, 0.5, self.software.tie_break())
    }
}

/// Chunk boundaries implied by the level style: `Chunked` streams one
/// input per chunk, `Random` degrades to bit-serial (one dimension per
/// "chunk" — the §4.2.1 comparison case).
fn chunk_size(dim: usize, style: LevelStyle) -> usize {
    match style {
        LevelStyle::Chunked { num_chunks } => dim.div_ceil(num_chunks),
        LevelStyle::Random => 1,
    }
}

/// Dimensions per register-blocked strip of [`group_mac`]: the strip's
/// f64 partial sums stay in registers while the group's rows stream
/// past (8 SSE2 registers in the portable build, where strips of 8 and
/// 16 measured alike and 32 slower).
const STRIP: usize = 16;

/// One row group's MAC over every dimension, normalised by the group's
/// size `n`: `out[d] = (Σ_p input_p(d) · w_p[d]) / n`, where peak `p`'s
/// input is its level value at the first dimension of `d`'s chunk
/// (bit-serial mode has one dimension per chunk).
///
/// Chunk by chunk, each peak's input is resolved once; then each strip of
/// [`STRIP`] dimensions sums the group's rows in registers, starting from
/// 0.0 and adding the rows in peak order, and is divided by `n` on its
/// way out. A chunk's last `< STRIP` dimensions (all of a chunk narrower
/// than a strip) take a per-dimension loop with the same order. Every
/// dimension therefore performs exactly the additions of the naive
/// per-dimension loop, in its order — the strip only interleaves
/// independent dimensions — so the sums are that loop's to the bit.
fn group_mac(group: &[(&[f32], &BinaryHypervector)], chunk_size: usize, out: &mut [f64]) {
    let n = group.len() as f64;
    let mut inputs = Vec::with_capacity(group.len());
    for (start, out) in (0..).step_by(chunk_size).zip(out.chunks_mut(chunk_size)) {
        inputs.clear();
        inputs.extend(
            group
                .iter()
                .map(|(_, level)| f64::from(level.component(start))),
        );
        let tail_start = start + out.len() / STRIP * STRIP;
        let mut strips = out.chunks_exact_mut(STRIP);
        for (d, strip) in (start..).step_by(STRIP).zip(strips.by_ref()) {
            let mut sum = [0.0f64; STRIP];
            for (&(row, _), &input) in group.iter().zip(&inputs) {
                let w: &[f32; STRIP] = row[d..d + STRIP].try_into().expect("a whole strip");
                for (s, &w) in sum.iter_mut().zip(w) {
                    *s += input * f64::from(w);
                }
            }
            for (o, s) in strip.iter_mut().zip(sum) {
                *o = s / n;
            }
        }
        for (d, o) in (tail_start..).zip(strips.into_remainder()) {
            let mut sum = 0.0f64;
            for (&(row, _), &input) in group.iter().zip(&inputs) {
                sum += input * f64::from(row[d]);
            }
            *o = sum / n;
        }
    }
}

impl ReferenceEncoder for InMemoryEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn encode_reference(&self, binned: &BinnedSpectrum) -> (BinaryHypervector, f64) {
        let (hv, stats) = self.encode_with_stats(binned);
        (hv, stats.bit_error_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_hdc::multibit::IdPrecision;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_rram::config::MlcConfig;

    fn small_encoder(bits: u8) -> EncoderConfig {
        EncoderConfig {
            dim: 1024,
            q_levels: 16,
            id_precision: match bits {
                1 => IdPrecision::Bits1,
                2 => IdPrecision::Bits2,
                _ => IdPrecision::Bits3,
            },
            level_style: LevelStyle::Chunked { num_chunks: 64 },
            ..EncoderConfig::default()
        }
    }

    fn crossbar(bits: u8) -> CrossbarConfig {
        CrossbarConfig {
            mlc: MlcConfig::with_bits(bits),
            ..CrossbarConfig::default()
        }
    }

    fn ideal_crossbar(bits: u8) -> CrossbarConfig {
        CrossbarConfig {
            mlc: MlcConfig::ideal(bits),
            adc_bits: 12,
            sense_sigma: 0.0,
            age_s: 0.0,
            ..CrossbarConfig::default()
        }
    }

    fn binned_query() -> BinnedSpectrum {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
        Preprocessor::default().run(&w.queries[0]).unwrap()
    }

    #[test]
    fn ideal_hardware_matches_software_closely() {
        // With a noiseless device the only divergence is the monotone
        // magnitude warp of the ID alphabet plus ADC rounding — a few
        // bits near sign boundaries at most.
        let enc = InMemoryEncoder::new(small_encoder(3), ideal_crossbar(3), 1, 2);
        let (_, stats) = enc.encode_with_stats(&binned_query());
        assert!(
            stats.bit_error_rate() < 0.05,
            "ideal-hardware error {} too high",
            stats.bit_error_rate()
        );
    }

    #[test]
    fn one_bit_ideal_hardware_is_exact() {
        // Binary IDs map to extreme conductances with no warp at all.
        let enc = InMemoryEncoder::new(small_encoder(1), ideal_crossbar(1), 1, 2);
        let (hv, stats) = enc.encode_with_stats(&binned_query());
        assert_eq!(stats.bit_errors, 0, "ideal binary encoding must be exact");
        assert_eq!(hv, enc.software.encode(&binned_query()));
    }

    #[test]
    fn noisy_hardware_error_in_measured_range() {
        // Fig. 9a at 64 activated rows: errors in the few-to-tens percent
        // range, ordered by bits per cell.
        let q = binned_query();
        let mut rates = Vec::new();
        for bits in 1..=3u8 {
            let enc = InMemoryEncoder::new(small_encoder(bits), crossbar(bits), 2, 2);
            let (_, stats) = enc.encode_with_stats(&q);
            rates.push(stats.bit_error_rate());
        }
        assert!(
            rates[0] < rates[2],
            "3-bit cells should err more than 1-bit: {rates:?}"
        );
        assert!(rates[2] < 0.45, "error should stay below random: {rates:?}");
    }

    #[test]
    fn errors_grow_with_activated_rows() {
        let q = binned_query();
        let rate_at = |activated: usize| {
            let cb = CrossbarConfig {
                activated_rows: activated,
                ..crossbar(3)
            };
            let enc = InMemoryEncoder::new(small_encoder(3), cb, 3, 2);
            enc.encode_with_stats(&q).1.bit_error_rate()
        };
        // Average direction over the Fig. 9 sweep range.
        assert!(
            rate_at(120) > rate_at(20) * 0.8,
            "row trend violated: {} vs {}",
            rate_at(20),
            rate_at(120)
        );
    }

    #[test]
    fn chunked_encoding_cheaper_than_bit_serial() {
        let chunked = InMemoryEncoder::new(small_encoder(3), crossbar(3), 4, 2);
        let serial_cfg = EncoderConfig {
            level_style: LevelStyle::Random,
            ..small_encoder(3)
        };
        let serial = InMemoryEncoder::new(serial_cfg, crossbar(3), 4, 2);
        // 64 chunks vs 1024 bit-serial steps: 16× fewer cycles.
        assert_eq!(serial.cycles_for(100), 16 * chunked.cycles_for(100));
        let q = binned_query();
        let (_, s1) = chunked.encode_with_stats(&q);
        let (_, s2) = serial.encode_with_stats(&q);
        assert!(s1.cycles < s2.cycles);
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = InMemoryEncoder::new(small_encoder(3), crossbar(3), 5, 2);
        let q = binned_query();
        assert_eq!(enc.encode(&q), enc.encode(&q));
    }

    #[test]
    fn different_spectra_get_independent_noise() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 43);
        let pre = Preprocessor::default();
        let a = pre.run(&w.queries[0]).unwrap();
        let b = pre.run(&w.queries[1]).unwrap();
        let enc = InMemoryEncoder::new(small_encoder(3), crossbar(3), 6, 2);
        assert_ne!(enc.encode(&a), enc.encode(&b));
    }

    #[test]
    fn a_query_and_the_library_entry_with_its_id_draw_apart() {
        // Both encodes below see spectrum id 0: as a query and as a
        // library entry they must still read out through independent
        // noise, so the bits each gets wrong mostly differ.
        let enc = InMemoryEncoder::new(small_encoder(3), crossbar(3), 9, 2);
        let q = binned_query();
        let truth = enc.software.encode(&q);
        let query = enc.encode(&q);
        let (library, _) = enc.encode_with_stats(&q);
        assert_ne!(query, library);
        let wrong = |hv: &BinaryHypervector| -> Vec<usize> {
            (0..hv.dim())
                .filter(|&d| hv.bit(d) != truth.bit(d))
                .collect()
        };
        let (query_wrong, library_wrong) = (wrong(&query), wrong(&library));
        let shared = query_wrong
            .iter()
            .filter(|d| library_wrong.binary_search(d).is_ok())
            .count();
        let overlap = shared as f64 / query_wrong.len().min(library_wrong.len()) as f64;
        assert!(
            overlap < 0.5,
            "{shared} of {} / {} wrong bits shared ({overlap:.3})",
            query_wrong.len(),
            library_wrong.len()
        );
    }

    #[test]
    #[should_panic(expected = "must match the cell precision")]
    fn precision_mismatch_rejected() {
        let _ = InMemoryEncoder::new(small_encoder(3), crossbar(1), 7, 2);
    }

    /// `group_mac` against the naive per-dimension MAC, compared with
    /// `f64::to_bits`: from 0.0, in peak order, each peak's input its
    /// level value at the first dimension of the chunk. The dimensions
    /// straddle the strip width; the chunk counts give chunks narrower
    /// than, equal to, multiples of and not multiples of a strip, short
    /// last chunks (1 000 dims in 64 chunks: 62 × 16 + 8) and bit-serial
    /// `Random` levels; the groups hold 1/31/32/33 peaks, and a 79-peak
    /// spectrum's row groups at 2 and 64 activated rows. The weights'
    /// magnitudes span 60 octaves, so their f64 sums round and any
    /// reordering shows (f32 weights within a few octaves of each other
    /// would sum exactly in any order); ±0.0 weights tell a sum started
    /// from 0.0 from one started at the first row.
    #[test]
    fn group_mac_is_the_naive_mac_bit_for_bit() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x0057_121b);
        for dim in [1, 15, 16, 17, 100, 1_000, 8_192] {
            let rows: Vec<Vec<f32>> = (0..40)
                .map(|_| {
                    (0..dim)
                        .map(|_| match rng.gen_range(0..16u32) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-60..1)),
                        })
                        .collect()
                })
                .collect();
            let levels: Vec<BinaryHypervector> = (0..8)
                .map(|_| BinaryHypervector::random(&mut rng, dim))
                .collect();
            let peaks: Vec<(&[f32], &BinaryHypervector)> = (0..79)
                .map(|_| {
                    let row = &rows[rng.gen_range(0..rows.len())];
                    (row.as_slice(), &levels[rng.gen_range(0..levels.len())])
                })
                .collect();
            let mut groups: Vec<&[(&[f32], &BinaryHypervector)]> =
                [1, 31, 32, 33].iter().map(|&k| &peaks[..k]).collect();
            for activated_rows in [2, 64] {
                let pairs = CrossbarConfig {
                    activated_rows,
                    ..CrossbarConfig::default()
                }
                .pairs_per_cycle();
                groups.extend(peaks.chunks(pairs));
            }
            let styles = [1, 3, 7, 64, 512, dim]
                .into_iter()
                .filter(|&num_chunks| num_chunks <= dim)
                .map(|num_chunks| LevelStyle::Chunked { num_chunks })
                .chain([LevelStyle::Random]);
            for style in styles {
                let chunk = chunk_size(dim, style);
                for group in &groups {
                    let mut out = vec![f64::NAN; dim];
                    group_mac(group, chunk, &mut out);
                    for (d, got) in out.iter().enumerate() {
                        let first = d / chunk * chunk;
                        let mut sum = 0.0f64;
                        for (row, level) in group.iter() {
                            sum += f64::from(level.component(first)) * f64::from(row[d]);
                        }
                        let want = sum / group.len() as f64;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "dim {dim}, {style:?}, {} peaks: dimension {d} sums to {got:e}, \
                             not {want:e}",
                            group.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycles_formula() {
        let enc = InMemoryEncoder::new(small_encoder(3), crossbar(3), 8, 2);
        // 64 chunks × ceil(100 / 32) = 64 × 4 = 256.
        assert_eq!(enc.cycles_for(100), 256);
        let q = binned_query();
        let (_, stats) = enc.encode_with_stats(&q);
        assert_eq!(stats.cycles as usize, enc.cycles_for(q.peaks().len()));
    }
}
