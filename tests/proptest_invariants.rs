//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use hdoms::hdc::corrupt::flip_bits;
use hdoms::hdc::similarity::{dot, hamming_distance};
use hdoms::hdc::BinaryHypervector;
use hdoms::ms::peptide::Peptide;
use hdoms::ms::preprocess::{PreprocessConfig, Preprocessor};
use hdoms::ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use hdoms::oms::fdr::filter_fdr;
use hdoms::oms::psm::Psm;
use hdoms::oms::window::PrecursorWindow;
use hdoms::rram::config::MlcConfig;
use hdoms::rram::levels::LevelMap;
use hdoms::rram::storage::HypervectorStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_hv(dim: usize) -> impl Strategy<Value = BinaryHypervector> {
    any::<u64>()
        .prop_map(move |seed| BinaryHypervector::random(&mut StdRng::seed_from_u64(seed), dim))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hamming distance is a metric: symmetric, zero iff equal, triangle.
    #[test]
    fn hamming_is_a_metric(a in arb_hv(256), b in arb_hv(256), c in arb_hv(256)) {
        prop_assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
        prop_assert_eq!(hamming_distance(&a, &a), 0);
        prop_assert!(
            hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c)
        );
    }

    /// dot = D - 2·hamming for all pairs.
    #[test]
    fn dot_hamming_identity(a in arb_hv(320), b in arb_hv(320)) {
        prop_assert_eq!(dot(&a, &b), 320 - 2 * i64::from(hamming_distance(&a, &b)));
    }

    /// Corruption at rate 0 is identity; at rate 1 it is complement.
    #[test]
    fn corruption_edge_rates(a in arb_hv(192), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(flip_bits(&mut rng, &a, 0.0), a.clone());
        let flipped = flip_bits(&mut rng, &a, 1.0);
        prop_assert_eq!(hamming_distance(&a, &flipped), 192);
    }

    /// Ideal MLC storage round-trips any hypervector at any precision.
    #[test]
    fn ideal_storage_roundtrip(a in arb_hv(500), bits in 1u8..=3) {
        let store = HypervectorStore::program(MlcConfig::ideal(bits), std::slice::from_ref(&a));
        let mut rng = StdRng::seed_from_u64(1);
        let (read, stats) = store.read_all(86_400.0, &mut rng);
        prop_assert_eq!(&read[0], &a);
        prop_assert_eq!(stats.bit_errors, 0);
    }

    /// Level decode inverts encode for every level at every precision.
    #[test]
    fn level_map_roundtrip(bits in 1u8..=3) {
        let map = LevelMap::new(&MlcConfig::with_bits(bits));
        for level in 0..map.levels() {
            prop_assert_eq!(map.decode(map.target(level)), level);
        }
    }

    /// Peptide parse/display round-trips for unmodified peptides.
    #[test]
    fn peptide_roundtrip(s in "[ACDEFGHIKLMNPQRSTVWY]{1,30}") {
        let p = Peptide::parse(&s).unwrap();
        prop_assert_eq!(p.to_string(), s);
        prop_assert!(p.monoisotopic_mass() > 18.0);
    }

    /// Decoys always preserve the precursor mass and length.
    #[test]
    fn decoy_mass_invariant(s in "[ACDEFGHILMNPQSTVWY]{4,25}[KR]", seed in any::<u64>()) {
        let p = Peptide::parse(&s).unwrap();
        let d = p.decoy(seed);
        prop_assert!((d.monoisotopic_mass() - p.monoisotopic_mass()).abs() < 1e-9);
        prop_assert_eq!(d.len(), p.len());
    }

    /// Preprocessing output is always sorted, deduplicated, max-normalised
    /// and within the configured bin range.
    #[test]
    fn preprocess_invariants(
        mzs in proptest::collection::vec(100.0f64..1500.0, 5..60),
        intensities in proptest::collection::vec(1.0f64..1000.0, 5..60),
    ) {
        let n = mzs.len().min(intensities.len());
        let peaks: Vec<Peak> = mzs[..n]
            .iter()
            .zip(&intensities[..n])
            .map(|(&mz, &i)| Peak::new(mz, i))
            .collect();
        let spectrum = Spectrum::new(0, 600.0, 2, peaks, SpectrumOrigin::Query);
        let pre = Preprocessor::new(PreprocessConfig {
            min_peaks: 1,
            intensity_threshold: 0.0,
            ..PreprocessConfig::default()
        });
        let binned = pre.run(&spectrum).unwrap();
        let num_bins = pre.config().num_bins() as u32;
        let mut max = 0.0f32;
        for w in binned.peaks().windows(2) {
            prop_assert!(w[0].bin < w[1].bin, "bins must be strictly increasing");
        }
        for p in binned.peaks() {
            prop_assert!(p.bin < num_bins);
            prop_assert!(p.intensity > 0.0 && p.intensity <= 1.0);
            max = max.max(p.intensity);
        }
        prop_assert!((max - 1.0).abs() < 1e-6, "strongest bin must be 1.0");
    }

    /// FDR filter: acceptance count is monotone in alpha and accepted PSMs
    /// are always targets.
    #[test]
    fn fdr_monotone_in_alpha(scores in proptest::collection::vec((0.0f64..1.0, any::<bool>()), 1..200)) {
        let psms: Vec<Psm> = scores
            .iter()
            .enumerate()
            .map(|(i, &(score, is_decoy))| Psm {
                query_id: i as u32,
                reference_id: i as u32,
                score,
                is_decoy,
                precursor_delta: 0.0,
            })
            .collect();
        let tight = filter_fdr(&psms, 0.01);
        let loose = filter_fdr(&psms, 0.3);
        prop_assert!(tight.accepted.len() <= loose.accepted.len());
        prop_assert!(tight.accepted.iter().all(|p| p.is_target()));
        prop_assert!(loose.accepted.iter().all(|p| p.is_target()));
    }

    /// Precursor windows: contains() agrees with reference_mass_range().
    #[test]
    fn window_contains_matches_range(
        query_mass in 400.0f64..4000.0,
        reference_mass in 400.0f64..4000.0,
        open in any::<bool>(),
    ) {
        let window = if open {
            PrecursorWindow::open_default()
        } else {
            PrecursorWindow::standard_default()
        };
        let (lo, hi) = window.reference_mass_range(query_mass);
        prop_assert_eq!(
            window.contains(query_mass, reference_mass),
            (lo..=hi).contains(&reference_mass)
        );
    }
}
