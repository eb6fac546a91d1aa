//! Property-based tests for the MLC RRAM simulator, the distribution of
//! its one Gaussian and its one sensing cycle, and the block form of that
//! cycle against the one-lane form it replaced.

use hdoms_hdc::BinaryHypervector;
use hdoms_rram::array::{sample_normal, CrossbarArray, CrossbarConfig};
use hdoms_rram::config::MlcConfig;
use hdoms_rram::device::DeviceModel;
use hdoms_rram::levels::LevelMap;
use hdoms_rram::storage::HypervectorStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 10⁶ draws of the ziggurat match the standard normal's moments and
/// tails, and some land in the tail only its tail branch produces
/// (beyond R = 3.654, the base layer's edge).
#[test]
fn sample_normal_is_standard_normal() {
    let n = 1_000_000;
    let mut rng = StdRng::seed_from_u64(26);
    let draws: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 1.0)).collect();
    let mean = draws.iter().sum::<f64>() / n as f64;
    let var = draws.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
    let share_beyond = |t: f64| draws.iter().filter(|z| z.abs() > t).count() as f64 / n as f64;
    assert!(mean.abs() < 0.005, "mean {mean}");
    assert!((var - 1.0).abs() < 0.01, "variance {var}");
    let (p3, p4) = (share_beyond(3.0), share_beyond(4.0));
    assert!((p3 / 0.0027 - 1.0).abs() < 0.1, "P(|z| > 3) = {p3}");
    assert!((p4 / 6.3e-5 - 1.0).abs() < 0.3, "P(|z| > 4) = {p4}");
    assert!(share_beyond(3.654) > 0.0, "the tail branch never ran");
}

/// The ADC code a sensing cycle's readout `v̂` (at `n = 1`) came from.
fn adc_code(config: &CrossbarConfig, v_hat: f64) -> usize {
    let top = ((1usize << config.adc_bits) - 1) as f64;
    ((v_hat + 1.0) / 2.0 * top).round() as usize
}

/// One sensing cycle: the block [`CrossbarConfig::sense`] on a one-lane
/// block.
fn sense_one(config: &CrossbarConfig, v: f64, n: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    let mut lane = [v];
    config.sense(&mut lane, n, sigma, rng);
    lane[0]
}

/// The sensing cycle as it was before it drew once: a Box–Muller draw
/// for the caller's `extra` term, then one for the sensing noise, then
/// one for the IR drop, then clamp and ADC (`sense` at σ = 0 draws
/// nothing, so it is the ADC alone).
fn chained_code(
    config: &CrossbarConfig,
    v: f64,
    sigma_delta: f64,
    extra: f64,
    rng: &mut StdRng,
) -> usize {
    let mut v = v;
    for sigma in [
        extra,
        config.sense_sigma,
        config.ir_drop_factor * sigma_delta,
    ] {
        if sigma > 0.0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            v += sigma * (-2.0 * u.ln()).sqrt() * angle.cos();
        }
    }
    adc_code(config, sense_one(config, v, 1.0, 0.0, rng))
}

/// One draw at the summed variance reads out the same ADC-code
/// distribution as three separate draws: total-variation distance under
/// 0.005 over 10⁶ cycles (the sampling floor is ≈0.002; leaving the
/// search's weight term out of the sum, 2 % of σ, reads 0.009), at each
/// `(sigma_delta, extra)` the chip's callers use and across the voltage
/// range, clamped ends included.
#[test]
fn one_draw_per_cycle_keeps_the_code_distribution() {
    let config = CrossbarConfig::default();
    let mut rng = StdRng::seed_from_u64(27);
    // The encoder's σ_δ: the RMS deviation of cells programmed across
    // the 3-bit grid (the in-memory encoder programs its ID memory the
    // same way).
    let levels = config.mlc.levels() - 1;
    let grid: Vec<Vec<f64>> = (0..32)
        .map(|_| {
            (0..config.pair_capacity())
                .map(|_| rng.gen_range(0..=levels) as f64 / levels as f64 * 2.0 - 1.0)
                .collect()
        })
        .collect();
    let encoder_sigma_delta = CrossbarArray::program(config, &grid, &mut rng).sigma_delta();
    // The search's: two extreme-level cells per pair, and the weight
    // deviation of one full row group on top of the cycle.
    let lambda = DeviceModel::new(config.mlc).lambda(0.0, config.age_s);
    let search_sigma_delta = 2.0 * lambda / config.mlc.g_max_us;
    let group = config.pairs_per_cycle() as f64;
    let callers = [
        (encoder_sigma_delta, 0.0),
        (search_sigma_delta, search_sigma_delta / group.sqrt()),
    ];
    let cycles = 1_000_000;
    let codes = 1usize << config.adc_bits;
    for (sigma_delta, extra) in callers {
        let sigma = config.cycle_sigma(sigma_delta, extra);
        for v in [-1.0, -0.43, 0.0, 0.27, 0.96] {
            let (mut chained, mut single) = (vec![0u32; codes], vec![0u32; codes]);
            for _ in 0..cycles {
                chained[chained_code(&config, v, sigma_delta, extra, &mut rng)] += 1;
                single[adc_code(&config, sense_one(&config, v, 1.0, sigma, &mut rng))] += 1;
            }
            let tv = chained
                .iter()
                .zip(&single)
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
                .sum::<f64>()
                / (2.0 * cycles as f64);
            assert!(
                tv < 0.005,
                "σ_δ {sigma_delta}, extra {extra}, v {v}: total variation {tv}"
            );
        }
    }
}

/// The sensing cycle as it stood before it took a block of lanes — one
/// draw through [`sample_normal`], the clamp, and an ADC rounding with
/// libm's `round` — frozen here as the oracle of the block form.
fn frozen_sense(config: &CrossbarConfig, mut v: f64, n: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    if sigma > 0.0 {
        v += sample_normal(rng, sigma);
    }
    let adc_levels = (1usize << config.adc_bits) as f64;
    let clamped = v.clamp(-1.0, 1.0);
    let code = ((clamped + 1.0) / 2.0 * (adc_levels - 1.0)).round();
    let v_hat = code / (adc_levels - 1.0) * 2.0 - 1.0;
    v_hat * n
}

/// Voltages whose ADC input `(v + 1) / 2 · (L − 1)` lies on or next to
/// the half-step `k + ½`, where a rounding that is not libm's would
/// differ: the voltages aimed at `k + ½` and at the largest double below
/// it (where `floor(x + ½)` reads `k + 1` at `k = 0`), each with its
/// neighbours an ulp either side.
fn half_step_volts(adc_bits: u8, k: usize) -> impl Iterator<Item = f64> {
    let top = ((1usize << adc_bits) - 1) as f64;
    let half = k as f64 + 0.5;
    [half, half.next_down()].into_iter().flat_map(move |x| {
        let v = x / top * 2.0 - 1.0;
        [v.next_down(), v, v.next_up()]
    })
}

/// The block and the frozen one-lane cycle, over `volts`: the same bits
/// in every lane, and the stream left in the same state.
fn check_block(config: &CrossbarConfig, volts: &[f64], n: f64, sigma: f64, seed: u64) {
    let (mut oracle, mut block) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let want: Vec<f64> = (volts.iter())
        .map(|&v| frozen_sense(config, v, n, sigma, &mut oracle))
        .collect();
    let mut got = volts.to_vec();
    config.sense(&mut got, n, sigma, &mut block);
    for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{} ADC bits, σ {sigma}, n {n}: lane {lane} of {} (v {})",
            config.adc_bits,
            volts.len(),
            volts[lane]
        );
    }
    assert_eq!(block, oracle, "the block took other words than its lanes");
    if sigma == 0.0 {
        assert_eq!(block, StdRng::seed_from_u64(seed), "σ = 0 drew");
    }
}

/// Every half-step of every ADC resolution, at σ = 0 (noise would carry
/// the voltage off it): the block's rounding is libm's to the bit. At
/// least one voltage lands exactly on each half-step, and at one bit one
/// lands on the largest input below ½.
#[test]
fn every_adc_half_step_reads_like_the_frozen_cycle() {
    for adc_bits in 1..=12u8 {
        let config = CrossbarConfig {
            adc_bits,
            ..CrossbarConfig::default()
        };
        let top = ((1usize << adc_bits) - 1) as f64;
        let volts: Vec<f64> = (0..top as usize)
            .flat_map(|k| half_step_volts(adc_bits, k))
            .collect();
        let inputs: Vec<f64> = volts.iter().map(|v| (v + 1.0) / 2.0 * top).collect();
        let exact = inputs.iter().filter(|x| x.fract() == 0.5).count();
        assert!(
            exact >= top as usize,
            "{adc_bits} bits: {exact} exact half-steps"
        );
        if adc_bits == 1 {
            assert!(inputs.contains(&0.5f64.next_down()), "never just below ½");
        }
        check_block(&config, &volts, 32.0, 0.0, u64::from(adc_bits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The block form of the sensing cycle is the frozen one-lane cycle,
    /// lane by lane, for any block length (the empty block included),
    /// ADC resolution, group size and σ — σ = 0 drawing nothing — over
    /// voltages inside the full scale, on its clamp edges ±1, beyond
    /// them, and on and next to the ADC's half-steps.
    #[test]
    fn block_sense_is_the_frozen_cycle(
        len in 0usize..=300,
        adc_bits in 1u8..=12,
        n in 1u32..=64,
        sigma_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let config = CrossbarConfig { adc_bits, ..CrossbarConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e45e);
        let steps = (1usize << adc_bits) - 1;
        let volts: Vec<f64> = (0..len)
            .map(|i| match i % 4 {
                0 => rng.gen_range(-1.5..=1.5),
                1 => [-1.0, 1.0, -1.0 - 1e-9, 1.0 + 1e-9, -3.0, 3.0][rng.gen_range(0..6usize)],
                _ => {
                    let k = rng.gen_range(0..steps);
                    half_step_volts(adc_bits, k).nth(rng.gen_range(0..6usize)).unwrap()
                }
            })
            .collect();
        let sigma = [0.0, 1e-4, 0.05, 2.0][sigma_pick];
        check_block(&config, &volts, f64::from(n), sigma, seed);
    }

    /// Weight quantisation is idempotent, sign-preserving, range-bounded
    /// and monotone.
    #[test]
    fn quantize_weight_properties(w1 in -1.0f64..=1.0, w2 in -1.0f64..=1.0, bits in 1u8..=3) {
        let mlc = MlcConfig::with_bits(bits);
        let q1 = CrossbarArray::quantize_weight(&mlc, w1);
        prop_assert!((-1.0..=1.0).contains(&q1));
        prop_assert_eq!(CrossbarArray::quantize_weight(&mlc, q1), q1, "idempotent");
        // Monotone: order of quantised values follows order of inputs.
        let q2 = CrossbarArray::quantize_weight(&mlc, w2);
        if w1 < w2 {
            prop_assert!(q1 <= q2);
        }
    }

    /// Level decode inverts encode under any deviation smaller than half
    /// a level spacing.
    #[test]
    fn decode_tolerates_half_spacing(bits in 1u8..=3, level_seed in any::<u64>(), frac in -0.49f64..0.49) {
        let config = MlcConfig::with_bits(bits);
        let map = LevelMap::new(&config);
        let level = (level_seed % map.levels() as u64) as usize;
        let spacing = map.target(1) - map.target(0);
        let g = map.target(level) + frac * spacing;
        prop_assert_eq!(map.decode(g), level);
    }

    /// Ideal storage round-trips arbitrary hypervector dimensions,
    /// including ones not divisible by the symbol width.
    #[test]
    fn ideal_storage_roundtrip(dim in 1usize..300, bits in 1u8..=3, seed in any::<u64>()) {
        let hv = BinaryHypervector::random(&mut StdRng::seed_from_u64(seed), dim);
        let store = HypervectorStore::program(MlcConfig::ideal(bits), std::slice::from_ref(&hv));
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let (read, stats) = store.read_all(86_400.0, &mut rng);
        prop_assert_eq!(&read[0], &hv);
        prop_assert_eq!(stats.bit_errors, 0);
        prop_assert_eq!(stats.bits_total, dim as u64);
    }

    /// An ideal crossbar recovers the exact integer MAC for arbitrary
    /// binary weights and inputs at any legal activation count.
    #[test]
    fn ideal_crossbar_exact(
        seed in any::<u64>(),
        pairs_pow in 3u32..7, // 8..64 pairs
        activated_pairs_pow in 1u32..6,
    ) {
        let pairs = 1usize << pairs_pow;
        let activated = 2 * (1usize << activated_pairs_pow.min(pairs_pow));
        let config = CrossbarConfig {
            mlc: MlcConfig::ideal(1),
            rows: 2 * pairs.max(64),
            cols: 4,
            activated_rows: activated,
            adc_bits: 12,
            sense_sigma: 0.0,
            ir_drop_factor: 0.0,
            age_s: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..pairs).map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 }).collect())
            .collect();
        let inputs: Vec<f64> = (0..pairs)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let array = CrossbarArray::program(config, &weights, &mut rng);
        prop_assert_eq!(array.sigma_delta(), 0.0);
        let got = array.mvm(&inputs, &mut rng);
        let want = array.ideal_mvm(&inputs);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.round() as i64, w.round() as i64);
        }
    }

    /// Storage error statistics are internally consistent for noisy
    /// devices: bit errors bounded by bits stored, symbol errors by cells.
    #[test]
    fn storage_stats_consistent(seed in any::<u64>(), bits in 1u8..=3) {
        let hv = BinaryHypervector::random(&mut StdRng::seed_from_u64(seed), 512);
        let store = HypervectorStore::program(MlcConfig::with_bits(bits), &[hv]);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let (_, stats) = store.read_all(86_400.0, &mut rng);
        prop_assert!(stats.bit_errors <= stats.bits_total);
        prop_assert!(stats.symbol_errors <= stats.cells_used);
        prop_assert!(stats.bit_errors <= stats.symbol_errors * u64::from(bits));
        prop_assert!(stats.symbol_errors <= stats.bit_errors, "a symbol error flips ≥1 bit");
    }
}
