//! The multi-bit ID precision scheme of §4.2.2.
//!
//! The paper observes that MLC hardware can store several bits per cell at
//! no extra area cost, so the position (`ID`) hypervectors need not be
//! binary: with a 3-bit alphabet `{-4,…,-1, +1,…,+4}` the encoding MAC
//! carries more information into the final `Sign`, improving identification
//! counts (Fig. 11) with zero additional cycles.

use rand::Rng;

/// Bit width of ID hypervector components (§4.2.2).
///
/// `Bits1` is the conventional binary scheme; `Bits3` is the paper's
/// best-performing setting (`ID ∈ {-4,…,4} \ {0}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdPrecision {
    /// Components in `{-1, +1}`.
    Bits1,
    /// Components in `{-2, -1, +1, +2}`.
    Bits2,
    /// Components in `{-4, …, -1, +1, …, +4}`.
    Bits3,
}

impl IdPrecision {
    /// All precisions, for sweeps.
    pub const ALL: [IdPrecision; 3] = [IdPrecision::Bits1, IdPrecision::Bits2, IdPrecision::Bits3];

    /// Largest magnitude in the alphabet (1, 2 or 4).
    pub fn max_abs(self) -> i8 {
        match self {
            IdPrecision::Bits1 => 1,
            IdPrecision::Bits2 => 2,
            IdPrecision::Bits3 => 4,
        }
    }

    /// Number of bits per component (1, 2 or 3).
    pub fn bits(self) -> u8 {
        match self {
            IdPrecision::Bits1 => 1,
            IdPrecision::Bits2 => 2,
            IdPrecision::Bits3 => 3,
        }
    }

    /// The signed alphabet (zero excluded — a zero weight would waste a
    /// differential pair and encode no information).
    pub fn alphabet(self) -> Vec<i8> {
        let m = self.max_abs();
        (-m..=m).filter(|&v| v != 0).collect()
    }

    /// Sample one component uniformly from the alphabet.
    pub fn sample<R: Rng>(self, rng: &mut R) -> i8 {
        let m = i16::from(self.max_abs());
        // Uniform over 2m values: {-m..-1, 1..m}.
        let v = rng.gen_range(0..2 * m);
        let signed = if v < m { v - m } else { v - m + 1 };
        signed as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alphabets() {
        assert_eq!(IdPrecision::Bits1.alphabet(), vec![-1, 1]);
        assert_eq!(IdPrecision::Bits2.alphabet(), vec![-2, -1, 1, 2]);
        assert_eq!(
            IdPrecision::Bits3.alphabet(),
            vec![-4, -3, -2, -1, 1, 2, 3, 4]
        );
    }

    #[test]
    fn sample_stays_in_alphabet_and_covers_it() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in IdPrecision::ALL {
            let alphabet = p.alphabet();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2000 {
                let v = p.sample(&mut rng);
                assert!(alphabet.contains(&v), "{v} not in alphabet of {p:?}");
                seen.insert(v);
            }
            assert_eq!(seen.len(), alphabet.len(), "all symbols reachable");
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 16_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts
                .entry(IdPrecision::Bits3.sample(&mut rng))
                .or_insert(0usize) += 1;
        }
        let expect = n as f64 / 8.0;
        for (v, c) in counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "symbol {v} count {c} far from {expect}"
            );
        }
    }
}
