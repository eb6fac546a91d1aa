//! Closed-form error analysis of the device model.
//!
//! The storage error rates of Fig. 7 follow from the Laplace relaxation
//! model analytically: a cell programmed to level `k` mis-decodes when
//! its deviation crosses the half-spacing to a neighbouring level, which
//! for a Laplace distribution has probability `½·exp(-Δ/λ)` per side.
//! This module evaluates that prediction — drift, defects and clamping
//! included to first order — so the Monte-Carlo simulator can be checked
//! against theory. It is compiled for tests only: it is the reference
//! that `prediction_matches_simulation` holds the simulator to.

use crate::config::MlcConfig;
use crate::device::DeviceModel;
use crate::levels::LevelMap;

/// Number of differing bits between two symbols' natural-binary codes
/// (the unit Figure 7 reports errors in).
fn bit_errors_between(a: usize, b: usize) -> u32 {
    ((a ^ b) as u32).count_ones()
}

/// Analytical storage-error prediction for one configuration and age.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StorageErrorPrediction {
    /// Probability that a random symbol decodes to the wrong level.
    symbol_error_rate: f64,
    /// Probability that a random data bit flips (natural-binary mapping,
    /// first-order: symbol errors land on adjacent levels).
    bit_error_rate: f64,
}

/// Predict the storage error of `config` at `age_s` seconds after
/// programming, assuming uniformly distributed stored symbols.
///
/// Assumptions (all first-order, see the module docs): errors land on the
/// *adjacent* level (true for `Δ/λ ≳ 2`, the design regime), drift shifts
/// the mean toward the lower neighbour, defective cells decode uniformly.
fn predict_storage_error(config: &MlcConfig, age_s: f64) -> StorageErrorPrediction {
    config.validate();
    let device = DeviceModel::new(*config);
    let map = LevelMap::new(config);
    let n = map.levels();
    let spacing = if n > 1 {
        map.target(1) - map.target(0)
    } else {
        config.g_max_us
    };
    let half = spacing / 2.0;

    let mut symbol_error = 0.0f64;
    let mut bit_error_bits = 0.0f64;
    let bits = f64::from(config.bits_per_cell);
    for level in 0..n {
        let g = map.target(level);
        let lambda = device.lambda(g, age_s);
        let drift = device.drift(g, age_s);
        // Laplace tail: P(X > t) = ½ exp(-t/λ) for t ≥ 0. Drift moves the
        // distribution down by `drift`, helping downward crossings and
        // hindering upward ones.
        let tail = |t: f64| {
            if lambda <= 0.0 {
                if t <= 0.0 {
                    1.0
                } else {
                    0.0
                }
            } else if t >= 0.0 {
                0.5 * (-t / lambda).exp()
            } else {
                1.0 - 0.5 * (t / lambda).exp()
            }
        };
        let p_down = if level > 0 { tail(half - drift) } else { 0.0 };
        let p_up = if level + 1 < n {
            tail(half + drift)
        } else {
            0.0
        };
        let p_sym = (p_down + p_up).min(1.0);
        symbol_error += p_sym / n as f64;
        // Adjacent-level errors flip the bits where the two codes differ.
        let down_bits = if level > 0 {
            f64::from(bit_errors_between(level, level - 1))
        } else {
            0.0
        };
        let up_bits = if level + 1 < n {
            f64::from(bit_errors_between(level, level + 1))
        } else {
            0.0
        };
        bit_error_bits += (p_down * down_bits + p_up * up_bits) / n as f64;
    }

    // Defects decode a uniformly random level: the wrong symbol with
    // probability (n-1)/n, and each code bit is then uniform, flipping
    // with probability ½.
    let defect = config.defect_rate;
    let symbol_error_rate = (1.0 - defect) * symbol_error + defect * (n as f64 - 1.0) / n as f64;
    let bit_error_rate = ((1.0 - defect) * bit_error_bits / bits + defect * 0.5).min(1.0);

    StorageErrorPrediction {
        symbol_error_rate: symbol_error_rate.min(1.0),
        bit_error_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HypervectorStore;
    use hdoms_hdc::BinaryHypervector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prediction_matches_simulation() {
        // The headline validation: theory vs Monte-Carlo within a relative
        // tolerance across all precisions and ages.
        let mut rng = StdRng::seed_from_u64(71);
        let hvs: Vec<BinaryHypervector> = (0..24)
            .map(|_| BinaryHypervector::random(&mut rng, 8192))
            .collect();
        for bits in 1..=3u8 {
            let config = MlcConfig::with_bits(bits);
            let store = HypervectorStore::program(config, &hvs);
            for &age in &[1.0, 3_600.0, 86_400.0] {
                let mut read_rng = StdRng::seed_from_u64(72 ^ age as u64);
                let (_, stats) = store.read_all(age, &mut read_rng);
                let simulated = stats.bit_error_rate();
                let predicted = predict_storage_error(&config, age).bit_error_rate;
                let tolerance = (predicted * 0.35).max(0.002);
                assert!(
                    (simulated - predicted).abs() < tolerance,
                    "{bits} bits @ {age}s: simulated {simulated:.4} vs predicted {predicted:.4}"
                );
            }
        }
    }

    #[test]
    fn prediction_monotone_in_age_and_bits() {
        let p = |bits: u8, age: f64| {
            predict_storage_error(&MlcConfig::with_bits(bits), age).bit_error_rate
        };
        assert!(p(3, 86_400.0) > p(3, 1.0));
        assert!(p(3, 3_600.0) > p(2, 3_600.0));
        assert!(p(2, 3_600.0) > p(1, 3_600.0));
    }

    #[test]
    fn ideal_device_predicts_zero() {
        let p = predict_storage_error(&MlcConfig::ideal(3), 86_400.0);
        assert_eq!(p.symbol_error_rate, 0.0);
        assert_eq!(p.bit_error_rate, 0.0);
    }

    #[test]
    fn defects_set_the_floor() {
        let mut config = MlcConfig::ideal(1);
        config.defect_rate = 0.01;
        let p = predict_storage_error(&config, 0.0);
        // Half of defective 1-bit cells land on the wrong level, and a
        // defective cell's bit is uniform.
        assert!((p.symbol_error_rate - 0.005).abs() < 1e-9);
        assert!((p.bit_error_rate - 0.005).abs() < 1e-9);
    }

    #[test]
    fn bit_errors_between_examples() {
        assert_eq!(bit_errors_between(3, 4), 3); // 011 vs 100
        assert_eq!(bit_errors_between(6, 7), 1); // 110 vs 111
        assert_eq!(bit_errors_between(2, 2), 0);
    }

    #[test]
    fn bit_errors_bounded_by_symbol_errors() {
        for bits in 1..=3u8 {
            let config = MlcConfig::with_bits(bits);
            let p = predict_storage_error(&config, 86_400.0);
            // Each mis-decoded symbol flips between 1 and `bits` bits.
            assert!(p.bit_error_rate * f64::from(bits) >= p.symbol_error_rate * 0.9);
            assert!(p.bit_error_rate <= p.symbol_error_rate * 1.1);
        }
    }
}
