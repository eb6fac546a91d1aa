//! Property-based tests for the HDC substrate.

use hdoms_hdc::encoder::{EncoderConfig, IdLevelEncoder};
use hdoms_hdc::hv::BinaryHypervector;
use hdoms_hdc::item_memory::{LevelMemory, LevelStyle};
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::similarity::{dot, hamming_distance, normalized_similarity};
use hdoms_ms::preprocess::{PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_hv(dim: usize) -> impl Strategy<Value = BinaryHypervector> {
    any::<u64>()
        .prop_map(move |seed| BinaryHypervector::random(&mut StdRng::seed_from_u64(seed), dim))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packing invariant: tail bits beyond `dim` stay zero through any
    /// sequence of set/flip operations.
    #[test]
    fn tail_bits_stay_masked(
        dim in 1usize..200,
        ops in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..64),
    ) {
        let mut hv = BinaryHypervector::zeros(dim);
        for (i, value) in ops {
            let idx = i % dim;
            if value {
                hv.flip(idx);
            } else {
                hv.set(idx, true);
            }
        }
        let rem = dim % 64;
        if rem != 0 {
            let last = *hv.words().last().unwrap();
            prop_assert_eq!(last & !((1u64 << rem) - 1), 0, "tail bits leaked");
        }
        // count_ones never exceeds dim.
        prop_assert!(hv.count_ones() as usize <= dim);
    }

    /// Similarity bounds and the dot/Hamming identity hold for any pair.
    #[test]
    fn similarity_bounds(a in arb_hv(257), b in arb_hv(257)) {
        let s = normalized_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
        prop_assert_eq!(dot(&a, &b), 257 - 2 * i64::from(hamming_distance(&a, &b)));
    }

    /// Level-memory similarity decays monotonically with level distance
    /// for arbitrary (dim, Q) combinations.
    #[test]
    fn level_similarity_monotone(
        seed in any::<u64>(),
        q in 2usize..16,
        dim_factor in 4usize..32,
    ) {
        let dim = 2 * q * dim_factor; // guarantees dim/(2q) >= 1
        let lm = LevelMemory::generate(seed, dim, q, LevelStyle::Random);
        for base in 0..q {
            let mut last = -1i64;
            for other in base..q {
                let d = i64::from(hamming_distance(lm.level(base), lm.level(other)));
                prop_assert!(d >= last, "distance must not shrink with level gap");
                last = d;
            }
        }
    }

    /// The encoder never panics on arbitrary valid spectra and always
    /// produces a vector of the configured dimension; encoding is a pure
    /// function of its input.
    #[test]
    fn encoder_total_and_deterministic(
        mzs in proptest::collection::vec(101.0f64..1499.0, 3..40),
        seed in any::<u64>(),
    ) {
        let peaks: Vec<Peak> = mzs.iter().map(|&mz| Peak::new(mz, 10.0)).collect();
        let spectrum = Spectrum::new(0, 700.0, 2, peaks, SpectrumOrigin::Query);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            ..PreprocessConfig::default()
        });
        let binned = pre.run(&spectrum).unwrap();
        let encoder = IdLevelEncoder::new(EncoderConfig {
            dim: 512,
            q_levels: 8,
            level_style: LevelStyle::Random,
            seed,
            ..EncoderConfig::default()
        });
        let a = encoder.encode(&binned);
        let b = encoder.encode(&binned);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.dim(), 512);
    }

    /// par_map equals sequential map for any input and thread count.
    #[test]
    fn par_map_equals_map(
        items in proptest::collection::vec(any::<i32>(), 0..100),
        threads in 1usize..9,
    ) {
        let expected: Vec<i64> = items.iter().map(|&x| i64::from(x) * 3 - 1).collect();
        let got = par_map(&items, threads, |_, &x| i64::from(x) * 3 - 1);
        prop_assert_eq!(got, expected);
    }
}
