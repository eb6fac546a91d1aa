//! Crossbar in-memory MVM with differential weights and voltage sensing.
//!
//! Weights are stored as *differential pairs* (two cells in adjacent rows
//! of one column, Eq. 2/3 of the paper):
//!
//! ```text
//! g⁺ = ½ (1 + W/W_max) g_max        g⁻ = ½ (1 − W/W_max) g_max
//! ```
//!
//! Inputs arrive as differential bit-line voltages `V_ref ± V_pulse·Xᵢ` and
//! the source-line settles to (Eq. 5):
//!
//! ```text
//! V_SL = V_ref + Σᵢ Xᵢ (g⁺ᵢ − g⁻ᵢ) / (N g_max) · V_pulse
//! ```
//!
//! which is linear in the MAC value. The simulator reproduces the error
//! sources the paper measures in Fig. 9:
//!
//! * conductance deviations from programming noise + relaxation
//!   ([`crate::device`]), whose impact grows with the number of levels the
//!   cells use (1/2/3-bit curves);
//! * ADC quantisation: each sensing cycle digitises the *normalised* MAC of
//!   one activated-row group, so driving more rows per cycle widens the
//!   per-LSB span and loses low-order MAC bits (error grows with activated
//!   rows — the x-axis of Fig. 9);
//! * a fixed sensing noise on `V_SL` (kT/C and comparator offset).
//!
//! Every Gaussian term of one sensing cycle is independent and zero-mean,
//! so the cycle draws their sum once, at the summed variance
//! ([`CrossbarConfig::cycle_sigma`]), through one exact sampler
//! ([`sample_normal`]).

use crate::config::MlcConfig;
use crate::device::{CellDraw, CellLevel, DeviceModel};
use rand::Rng;
use std::sync::OnceLock;

/// Crossbar geometry and analog front-end parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Device model for the cells.
    pub mlc: MlcConfig,
    /// Physical rows (two rows form one differential weight pair).
    pub rows: usize,
    /// Columns (one independent MAC output per column per cycle).
    pub cols: usize,
    /// Physical rows driven concurrently per sensing cycle (the paper's
    /// chip sustains up to 64 with 8-level cells, §5.2.2). Must be even.
    pub activated_rows: usize,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// Std-dev of the sensing noise on the normalised source-line voltage
    /// (in units where the full MAC range is `[-1, 1]`).
    pub sense_sigma: f64,
    /// IR-drop / settling error coefficient. Driving more rows pushes more
    /// current through the shared source line, so conductance deviations
    /// aggregate *coherently* across the activated rows instead of
    /// averaging out: the per-cycle error contributes
    /// `ir_drop_factor × σ_δ` to the normalised voltage (σ_δ being the
    /// array's per-pair conductance deviation), i.e. linearly in the
    /// activated-row count once de-normalised — the dominant
    /// error-vs-rows slope of Fig. 9.
    pub ir_drop_factor: f64,
    /// Cell age at compute time, seconds after programming. The paper
    /// waits at least two hours (§5.2.1).
    pub age_s: f64,
}

impl Default for CrossbarConfig {
    fn default() -> CrossbarConfig {
        CrossbarConfig {
            mlc: MlcConfig::default(),
            rows: 256,
            cols: 256,
            activated_rows: 64,
            adc_bits: 6,
            sense_sigma: 0.006,
            ir_drop_factor: 0.9,
            age_s: crate::times::COMPUTE_AGE,
        }
    }
}

impl CrossbarConfig {
    /// Weight pairs addressable per column (`rows / 2`).
    pub fn pair_capacity(&self) -> usize {
        self.rows / 2
    }

    /// Weight pairs driven per sensing cycle (`activated_rows / 2`).
    pub fn pairs_per_cycle(&self) -> usize {
        self.activated_rows / 2
    }

    /// Check the configuration, naming the first rule violated — the
    /// non-panicking form, for configurations decoded from outside the
    /// program (an index header).
    ///
    /// # Errors
    ///
    /// An odd/zero row count, `activated_rows` not in `2..=rows` or odd,
    /// zero columns, an ADC outside 1–12 bits, negative noise terms, or
    /// anything `MlcConfig::check` rejects.
    pub fn check(&self) -> Result<(), &'static str> {
        self.mlc.check()?;
        let rules = [
            (
                self.rows >= 2 && self.rows.is_multiple_of(2),
                "rows must be even and ≥ 2",
            ),
            (self.cols >= 1, "need at least one column"),
            (
                self.activated_rows >= 2
                    && self.activated_rows.is_multiple_of(2)
                    && self.activated_rows <= self.rows,
                "activated_rows must be even and in 2..=rows",
            ),
            (
                (1..=12).contains(&self.adc_bits),
                "ADC resolution must be 1..=12 bits",
            ),
            (self.sense_sigma >= 0.0, "sense noise must be non-negative"),
            (
                self.ir_drop_factor >= 0.0,
                "IR-drop factor must be non-negative",
            ),
            (self.age_s >= 0.0, "age must be non-negative"),
        ];
        rules
            .iter()
            .try_for_each(|&(ok, why)| ok.then_some(()).ok_or(why))
    }

    /// Validate the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the rule [`CrossbarConfig::check`] names.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// The σ of the one Gaussian a sensing cycle adds to its normalised
    /// source-line voltage: the sensing noise, the IR-drop error
    /// `ir_drop_factor × sigma_delta` (σ_δ being the per-pair conductance
    /// deviation of the array driven) and a caller's `extra` term (the
    /// in-memory search's weight deviation) are independent zero-mean
    /// Gaussians, so their sum is one Gaussian whose variance is the sum
    /// of theirs. Computed once per array, encoder or search, not per
    /// cycle.
    pub fn cycle_sigma(&self, sigma_delta: f64, extra: f64) -> f64 {
        let ir_sigma = self.ir_drop_factor * sigma_delta;
        (self.sense_sigma * self.sense_sigma + ir_sigma * ir_sigma + extra * extra).sqrt()
    }

    /// A block of sensing cycles — the readout half of Eq. 5, written
    /// once for every MVM the chip performs ([`CrossbarArray::mvm`], the
    /// in-memory encoder and the in-memory search of `hdoms-core`). Each
    /// lane of `v` is the normalised source-line voltage of one cycle's
    /// activated group of `n` weight pairs. It picks up its noise — one
    /// draw at `sigma`, the [`CrossbarConfig::cycle_sigma`] of the array
    /// driven, taken in lane order — is clamped to the full-scale range
    /// and digitised by the ADC. Each lane is left holding the
    /// de-normalised partial MAC `v̂ · n` the digital accumulator adds.
    ///
    /// A block is any run of cycles that share `n` and `sigma`: sensing
    /// them one lane at a time gives the same bits and leaves `rng` in
    /// the same state. A zero `sigma` draws nothing, so an ideal device
    /// leaves `rng` untouched and the cycles are plain arithmetic.
    pub fn sense<R: Rng>(&self, v: &mut [f64], n: f64, sigma: f64, rng: &mut R) {
        if sigma > 0.0 {
            let zig = ziggurat();
            for v in v.iter_mut() {
                *v += ziggurat_normal(zig, rng, sigma);
            }
        }
        // ADC over the full-scale normalised range [-1, 1].
        let top = ((1usize << self.adc_bits) - 1) as f64;
        for v in v.iter_mut() {
            let code = adc_round((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * top);
            *v = (code / top * 2.0 - 1.0) * n;
        }
    }

    /// The differential pair of each weight an n-bit pair holds exactly,
    /// by grid code `k` — the weight `w = k / (2ⁿ − 1) · 2 − 1` that
    /// [`CrossbarArray::quantize_weight`] rounds to. Eq. 2/3 map `w` to
    /// the targets `g⁺ = ½(1 + w)·g_max` and `g⁻ = ½(1 − w)·g_max`, each
    /// a `DeviceModel::level` at `age_s`: computed once per array,
    /// not once per cell.
    pub fn pair_levels(&self) -> Vec<PairLevels> {
        let device = DeviceModel::new(self.mlc);
        let g_max = self.mlc.g_max_us;
        (0..self.mlc.levels())
            .map(|code| {
                let w = grid_weight(&self.mlc, code);
                PairLevels {
                    plus: device.level(0.5 * (1.0 + w) * g_max, self.age_s),
                    minus: device.level(0.5 * (1.0 - w) * g_max, self.age_s),
                    g_max_us: g_max,
                }
            })
            .collect()
    }
}

/// `x.round()` for the ADC's `x ∈ [0, 4095]`, in a form the lane loop
/// vectorises (`round` is a libm call on baseline x86-64). Adding the
/// largest double below ½ and truncating rounds half away from zero, as
/// `round` does, for every finite `0 ≤ x < 2⁵²`: the one addition never
/// carries a value below `k + ½` up to `k + 1`, and carries `k − ½` to
/// at least `k` (at `k = 1` through a tie it breaks to even, `1.0`).
#[inline(always)]
fn adc_round(x: f64) -> f64 {
    debug_assert!((0.0..4096.0).contains(&x));
    (x + 0.499_999_999_999_999_94) as i32 as f64
}

/// The weight of grid code `code` among the `2ⁿ` a differential pair of
/// n-bit cells represents.
fn grid_weight(mlc: &MlcConfig, code: usize) -> f64 {
    code as f64 / (mlc.levels() - 1) as f64 * 2.0 - 1.0
}

/// One differential weight pair (Eq. 2/3) at its grid point: the levels
/// of its two cells. Programming the pair is [`PairLevels::draw`] (`g⁺`'s
/// words, then `g⁻`'s) followed by [`PairLevels::program`]; a caller that
/// only needs to advance the stream past a pair draws and stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairLevels {
    plus: CellLevel,
    minus: CellLevel,
    g_max_us: f64,
}

impl PairLevels {
    /// Take the pair's words off `rng`, `g⁺` first, then `g⁻`.
    #[inline]
    pub fn draw<R: Rng>(&self, rng: &mut R) -> (CellDraw, CellDraw) {
        let plus = self.plus.draw(rng);
        (plus, self.minus.draw(rng))
    }

    /// Evaluate a draw: `(g⁺, g⁻, δ)` with `δ` the pair's normalised
    /// conductance deviation `((g⁺ − target⁺) − (g⁻ − target⁻)) / g_max`,
    /// whose RMS over an array is the σ_δ that
    /// [`CrossbarConfig::cycle_sigma`] takes.
    #[inline]
    pub fn program(&self, (plus, minus): (CellDraw, CellDraw)) -> (f64, f64, f64) {
        let gp = self.plus.conductance(plus);
        let gm = self.minus.conductance(minus);
        let delta = ((gp - self.plus.target_us()) - (gm - self.minus.target_us())) / self.g_max_us;
        (gp, gm, delta)
    }
}

/// A programmed crossbar tile: `pairs × cols` differential weights with
/// their relaxed (observed) conductances frozen at programming+settling.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarArray {
    config: CrossbarConfig,
    pairs: usize,
    cols: usize,
    /// Quantised ideal weights in `[-1, 1]`, flattened `[col][pair]`.
    quantized: Vec<f64>,
    /// Observed conductances after relaxation, flattened `[col][pair]`.
    g_plus: Vec<f64>,
    g_minus: Vec<f64>,
    /// RMS normalised per-pair conductance deviation of this array — the
    /// σ_δ that scales the IR-drop error term.
    sigma_delta: f64,
    /// σ of every sensing cycle's one draw.
    cycle_sigma: f64,
}

impl CrossbarArray {
    /// Quantise a normalised weight `w ∈ [-1, 1]` to the `2^n` values a
    /// differential pair of n-bit cells can represent exactly.
    ///
    /// With 1-bit cells this is the sign function — binary reference
    /// hypervectors are stored losslessly at any precision.
    pub fn quantize_weight(mlc: &MlcConfig, w: f64) -> f64 {
        grid_weight(mlc, Self::quantize_code(mlc, w))
    }

    /// The grid code ([`CrossbarConfig::pair_levels`]) `w` rounds to.
    fn quantize_code(mlc: &MlcConfig, w: f64) -> usize {
        let last = (mlc.levels() - 1) as f64;
        ((w.clamp(-1.0, 1.0) + 1.0) / 2.0 * last).round() as usize
    }

    /// Program `weights[col][pair]` (normalised to `[-1, 1]`) into the
    /// array: quantise to a grid code, and draw and evaluate that code's
    /// [`PairLevels`] at `config.age_s` through `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, `weights` is empty or ragged, has
    /// more columns than the array, or more pairs than `rows / 2`.
    pub fn program<R: Rng>(
        config: CrossbarConfig,
        weights: &[Vec<f64>],
        rng: &mut R,
    ) -> CrossbarArray {
        config.validate();
        assert!(!weights.is_empty(), "no weights to program");
        assert!(
            weights.len() <= config.cols,
            "{} weight columns exceed array width {}",
            weights.len(),
            config.cols
        );
        let pairs = weights[0].len();
        assert!(pairs >= 1, "weight columns must be non-empty");
        assert!(
            weights.iter().all(|c| c.len() == pairs),
            "all weight columns must have equal length"
        );
        assert!(
            pairs <= config.pair_capacity(),
            "{} weight pairs exceed row capacity {}",
            pairs,
            config.pair_capacity()
        );

        let grid = config.pair_levels();
        let cols = weights.len();
        let mut quantized = Vec::with_capacity(cols * pairs);
        let mut g_plus = Vec::with_capacity(cols * pairs);
        let mut g_minus = Vec::with_capacity(cols * pairs);
        let mut dev_sq = 0.0f64;
        for col in weights {
            for &w in col {
                assert!(
                    (-1.0..=1.0).contains(&w),
                    "weight {w} outside the normalised range [-1, 1]"
                );
                let code = Self::quantize_code(&config.mlc, w);
                quantized.push(grid_weight(&config.mlc, code));
                let pair = &grid[code];
                let (gp, gm, delta) = pair.program(pair.draw(rng));
                dev_sq += delta * delta;
                g_plus.push(gp);
                g_minus.push(gm);
            }
        }
        let sigma_delta = (dev_sq / (cols * pairs) as f64).sqrt();
        CrossbarArray {
            config,
            pairs,
            cols,
            quantized,
            g_plus,
            g_minus,
            sigma_delta,
            cycle_sigma: config.cycle_sigma(sigma_delta, 0.0),
        }
    }

    /// RMS normalised per-pair conductance deviation of the programmed
    /// array (0 on an ideal device).
    pub fn sigma_delta(&self) -> f64 {
        self.sigma_delta
    }

    /// Sensing cycles needed for one full MVM
    /// (`ceil(pairs / pairs_per_cycle)`).
    pub fn cycles_per_mvm(&self) -> usize {
        self.pairs.div_ceil(self.config.pairs_per_cycle())
    }

    /// Analog MVM: `inputs` (one value in `[-1, 1]` per weight pair, ±1
    /// for binary hypervectors) against every programmed column.
    ///
    /// Returns per-column MAC estimates in normalised weight units — the
    /// ideal output would be `Σᵢ xᵢ·wᵢ` with `wᵢ ∈ [-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != pairs` or any input is outside
    /// `[-1, 1]`.
    pub fn mvm<R: Rng>(&self, inputs: &[f64], rng: &mut R) -> Vec<f64> {
        assert_eq!(
            self.pairs,
            inputs.len(),
            "input length must equal pair count"
        );
        assert!(
            inputs.iter().all(|x| (-1.0..=1.0).contains(x)),
            "inputs must be normalised to [-1, 1]"
        );
        let group = self.config.pairs_per_cycle();
        let g_max = self.config.mlc.g_max_us;
        let full = self.pairs / group;
        let mut volts = vec![0.0f64; self.cycles_per_mvm()];
        let mut out = vec![0.0f64; self.cols];
        for (col, acc) in out.iter_mut().enumerate() {
            let base = col * self.pairs;
            for (start, v) in (0..self.pairs).step_by(group).zip(volts.iter_mut()) {
                let end = (start + group).min(self.pairs);
                // Eq. 5: normalised source-line voltage for this group.
                let mut sum = 0.0;
                for (input, idx) in inputs[start..end].iter().zip(base + start..base + end) {
                    sum += input * (self.g_plus[idx] - self.g_minus[idx]);
                }
                *v = sum / ((end - start) as f64 * g_max);
            }
            // The full groups as one block, then the partial one, if any.
            let (whole, tail) = volts.split_at_mut(full);
            self.config
                .sense(whole, group as f64, self.cycle_sigma, rng);
            let tail_n = (self.pairs - full * group) as f64;
            self.config.sense(tail, tail_n, self.cycle_sigma, rng);
            for &v in &volts {
                *acc += v;
            }
        }
        out
    }

    /// The MVM the hardware is approximating, computed on the *quantised*
    /// weights with no analog noise. Comparing `mvm` against this isolates
    /// analog error from weight-quantisation error.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != pairs`.
    pub fn ideal_mvm(&self, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.pairs,
            inputs.len(),
            "input length must equal pair count"
        );
        (0..self.cols)
            .map(|col| {
                let base = col * self.pairs;
                inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x * self.quantized[base + i])
                    .sum()
            })
            .collect()
    }
}

/// Layers of the ziggurat behind [`sample_normal`].
const ZIGGURAT_LAYERS: usize = 256;
/// Where the base layer's tail begins (Marsaglia & Tsang 2000, 256 layers).
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// The area of every layer, the base layer with its tail included.
const ZIGGURAT_V: f64 = 4.928_673_233_99e-3;

/// Layer `i` spans `[0, x[i]]` horizontally and `[f[i], f[i + 1]]`
/// vertically; `x[0] = V / f(R)` makes the base layer's rectangle hold
/// its tail's area, and `x[256] = 0` closes the top.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    f: [f64; ZIGGURAT_LAYERS + 1],
}

/// The unnormalised standard normal density `exp(-x²/2)`.
fn normal_density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / normal_density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + normal_density(x[i - 1])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(normal_density),
        }
    })
}

/// A uniform in the open interval `(0, 1)`.
fn open_unit<R: Rng>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// A normal variate scaled by `sigma` — the one Gaussian every analog
/// noise term of the chip model is drawn through. Marsaglia & Tsang's
/// 256-layer ziggurat (2000), tail branch included, so the variate is
/// exactly normal: one `u64` per draw on ~99 % of draws, `exp` on the
/// wedges and `ln` in the tail beyond `R = 3.654`.
pub fn sample_normal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    ziggurat_normal(ziggurat(), rng, sigma)
}

/// The ziggurat body behind [`sample_normal`], written once, over tables
/// a caller drawing a block of variates looks up once.
#[inline]
fn ziggurat_normal<R: Rng>(zig: &Ziggurat, rng: &mut R, sigma: f64) -> f64 {
    loop {
        // The low 8 bits pick the layer, the high 53 a uniform in [-1, 1).
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return sigma * x;
        }
        if i == 0 {
            // The tail beyond R (Marsaglia 1964).
            loop {
                let t = -open_unit(rng).ln() / ZIGGURAT_R;
                let y = -open_unit(rng).ln();
                if 2.0 * y >= t * t {
                    return sigma * (ZIGGURAT_R + t).copysign(u);
                }
            }
        }
        // The wedge between the layer's rectangle and the density.
        if zig.f[i] + (zig.f[i + 1] - zig.f[i]) * open_unit(rng) < normal_density(x) {
            return sigma * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal_config(activated_rows: usize) -> CrossbarConfig {
        CrossbarConfig {
            mlc: MlcConfig::ideal(1),
            rows: 256,
            cols: 16,
            activated_rows,
            adc_bits: 12,
            sense_sigma: 0.0,
            ir_drop_factor: 0.0,
            age_s: 0.0,
        }
    }

    fn random_binary_weights(cols: usize, pairs: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cols)
            .map(|_| {
                (0..pairs)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ideal_array_recovers_exact_binary_mac() {
        let weights = random_binary_weights(8, 128, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let array = CrossbarArray::program(ideal_config(64), &weights, &mut rng);
        let inputs: Vec<f64> = random_binary_weights(1, 128, 3).remove(0);
        let got = array.mvm(&inputs, &mut rng);
        let want = array.ideal_mvm(&inputs);
        for (g, w) in got.iter().zip(&want) {
            // With a 12-bit ADC over 32-pair groups the residual is far
            // below 1 MAC unit, so rounding recovers the exact integer.
            assert_eq!(g.round(), w.round(), "got {g}, want {w}");
        }
    }

    #[test]
    fn quantize_weight_binary_is_sign() {
        let mlc = MlcConfig::with_bits(1);
        assert_eq!(CrossbarArray::quantize_weight(&mlc, 0.7), 1.0);
        assert_eq!(CrossbarArray::quantize_weight(&mlc, -0.2), -1.0);
        assert_eq!(CrossbarArray::quantize_weight(&mlc, 1.0), 1.0);
    }

    #[test]
    fn quantize_weight_3bit_grid() {
        let mlc = MlcConfig::with_bits(3);
        // Representable values are k/7*2-1 for k = 0..7.
        let q = CrossbarArray::quantize_weight(&mlc, 0.0);
        assert!((q - 1.0 / 7.0).abs() < 1e-12 || (q + 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(CrossbarArray::quantize_weight(&mlc, 1.0), 1.0);
        assert_eq!(CrossbarArray::quantize_weight(&mlc, -1.0), -1.0);
    }

    #[test]
    fn cycles_per_mvm_counts_groups() {
        let weights = random_binary_weights(4, 100, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let array = CrossbarArray::program(ideal_config(64), &weights, &mut rng);
        // 100 pairs, 32 pairs per cycle → 4 cycles.
        assert_eq!(array.cycles_per_mvm(), 4);
    }

    #[test]
    fn error_grows_with_activated_rows() {
        // Fig. 9 trend: more activated rows per sensing cycle → coarser
        // ADC resolution per MAC unit → larger error.
        let weights = random_binary_weights(16, 128, 6);
        let inputs: Vec<f64> = random_binary_weights(1, 128, 7).remove(0);
        let rmse_at = |activated: usize| {
            let config = CrossbarConfig {
                mlc: MlcConfig::with_bits(3),
                rows: 256,
                cols: 16,
                activated_rows: activated,
                adc_bits: 6,
                sense_sigma: 0.006,
                ir_drop_factor: 0.9,
                age_s: crate::times::COMPUTE_AGE,
            };
            let mut rng = StdRng::seed_from_u64(8);
            let array = CrossbarArray::program(config, &weights, &mut rng);
            let got = array.mvm(&inputs, &mut rng);
            let want = array.ideal_mvm(&inputs);
            let mse: f64 = got
                .iter()
                .zip(&want)
                .map(|(g, w)| (g - w).powi(2))
                .sum::<f64>()
                / got.len() as f64;
            mse.sqrt()
        };
        let low = rmse_at(20);
        let high = rmse_at(120);
        assert!(
            high > low,
            "RMSE must grow with activated rows: {low} vs {high}"
        );
    }

    #[test]
    fn noisier_cells_with_more_levels() {
        // Fig. 9 trend: at the same geometry, 3-bit cells err more than
        // 1-bit cells when the weights exercise intermediate levels.
        let mut rng_w = StdRng::seed_from_u64(9);
        let weights: Vec<Vec<f64>> = (0..16)
            .map(|_| (0..128).map(|_| rng_w.gen_range(-1.0..=1.0)).collect())
            .collect();
        let inputs: Vec<f64> = random_binary_weights(1, 128, 10).remove(0);
        let rmse_for = |bits: u8| {
            let config = CrossbarConfig {
                mlc: MlcConfig::with_bits(bits),
                rows: 256,
                cols: 16,
                activated_rows: 64,
                adc_bits: 6,
                sense_sigma: 0.006,
                ir_drop_factor: 0.9,
                age_s: crate::times::COMPUTE_AGE,
            };
            let mut rng = StdRng::seed_from_u64(11);
            let array = CrossbarArray::program(config, &weights, &mut rng);
            let got = array.mvm(&inputs, &mut rng);
            let want = array.ideal_mvm(&inputs);
            (got.iter()
                .zip(&want)
                .map(|(g, w)| (g - w).powi(2))
                .sum::<f64>()
                / got.len() as f64)
                .sqrt()
        };
        assert!(rmse_for(3) > rmse_for(1), "3-bit cells should be noisier");
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn mvm_checks_input_length() {
        let weights = random_binary_weights(2, 16, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let array = CrossbarArray::program(ideal_config(32), &weights, &mut rng);
        let _ = array.mvm(&[1.0; 8], &mut rng);
    }

    #[test]
    #[should_panic(expected = "exceed row capacity")]
    fn program_checks_capacity() {
        let weights = random_binary_weights(1, 200, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let _ = CrossbarArray::program(ideal_config(64), &weights, &mut rng);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn program_rejects_ragged_weights() {
        let weights = vec![vec![1.0; 8], vec![1.0; 9]];
        let mut rng = StdRng::seed_from_u64(16);
        let _ = CrossbarArray::program(ideal_config(8), &weights, &mut rng);
    }

    #[test]
    #[should_panic(expected = "activated_rows")]
    fn config_rejects_odd_activation() {
        let config = CrossbarConfig {
            activated_rows: 63,
            ..CrossbarConfig::default()
        };
        config.validate();
    }

    #[test]
    fn mvm_deterministic_per_seed() {
        let weights = random_binary_weights(4, 64, 17);
        let config = CrossbarConfig::default();
        let inputs: Vec<f64> = random_binary_weights(1, 64, 18).remove(0);
        let run = || {
            let mut rng = StdRng::seed_from_u64(19);
            let array = CrossbarArray::program(config, &weights, &mut rng);
            array.mvm(&inputs, &mut rng)
        };
        assert_eq!(run(), run());
    }
}
