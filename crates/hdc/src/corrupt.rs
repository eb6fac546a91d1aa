//! Bit-error injection for robustness experiments (Fig. 11).
//!
//! The paper sweeps bit error rates from 0.15 % to 20 % on both encoding
//! outputs and stored reference hypervectors and measures how many
//! identifications survive. This module provides the corruption primitive:
//! flip each bit independently with probability `ber`.

use crate::hv::BinaryHypervector;
use rand::Rng;

/// Flip each bit of `hv` independently with probability `ber`, in place.
///
/// Uses per-word sampling when `ber` is large enough that bit-by-bit
/// sampling dominates, but the straightforward per-bit Bernoulli is kept
/// for exactness: the experiments depend on the *rate* being faithful.
///
/// # Panics
///
/// Panics unless `0.0 <= ber <= 1.0`.
pub fn flip_bits_in_place<R: Rng>(rng: &mut R, hv: &mut BinaryHypervector, ber: f64) {
    assert!(
        (0.0..=1.0).contains(&ber),
        "bit error rate must be in [0, 1]"
    );
    if ber == 0.0 {
        return;
    }
    let dim = hv.dim();
    for i in 0..dim {
        if rng.gen_bool(ber) {
            hv.flip(i);
        }
    }
}

/// Return a corrupted copy of `hv` (see [`flip_bits_in_place`]).
///
/// # Panics
///
/// Panics unless `0.0 <= ber <= 1.0`.
pub fn flip_bits<R: Rng>(rng: &mut R, hv: &BinaryHypervector, ber: f64) -> BinaryHypervector {
    let mut out = hv.clone();
    flip_bits_in_place(rng, &mut out, ber);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::hamming_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_ber_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let hv = BinaryHypervector::random(&mut rng, 1024);
        assert_eq!(flip_bits(&mut rng, &hv, 0.0), hv);
    }

    #[test]
    fn one_ber_flips_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let hv = BinaryHypervector::random(&mut rng, 512);
        let flipped = flip_bits(&mut rng, &hv, 1.0);
        assert_eq!(hamming_distance(&hv, &flipped), 512);
    }

    #[test]
    fn flip_rate_matches_requested_ber() {
        let mut rng = StdRng::seed_from_u64(3);
        let hv = BinaryHypervector::random(&mut rng, 65_536);
        for &ber in &[0.01, 0.05, 0.10, 0.20] {
            let corrupted = flip_bits(&mut rng, &hv, ber);
            let rate = f64::from(hamming_distance(&hv, &corrupted)) / 65_536.0;
            assert!(
                (rate - ber).abs() < ber * 0.25 + 0.002,
                "requested {ber}, observed {rate}"
            );
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let hv = BinaryHypervector::random(&mut StdRng::seed_from_u64(4), 256);
        let a = flip_bits(&mut StdRng::seed_from_u64(9), &hv, 0.1);
        let b = flip_bits(&mut StdRng::seed_from_u64(9), &hv, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "bit error rate must be in [0, 1]")]
    fn rejects_bad_rate() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut hv = BinaryHypervector::zeros(8);
        flip_bits_in_place(&mut rng, &mut hv, 1.5);
    }
}
