//! Multi-bit hypervectors and the ID precision scheme of §4.2.2.
//!
//! The paper observes that MLC hardware can store several bits per cell at
//! no extra area cost, so the position (`ID`) hypervectors need not be
//! binary: with a 3-bit alphabet `{-4,…,-1, +1,…,+4}` the encoding MAC
//! carries more information into the final `Sign`, improving identification
//! counts (Fig. 11) with zero additional cycles.

use crate::hv::BinaryHypervector;
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

/// A hypervector with small signed integer components, used for position
/// (`ID`) hypervectors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiBitHypervector {
    precision: IdPrecision,
    components: Vec<i8>,
}

impl MultiBitHypervector {
    /// A uniformly random multi-bit hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn random<R: Rng>(rng: &mut R, dim: usize, precision: IdPrecision) -> MultiBitHypervector {
        assert!(dim > 0, "hypervector dimension must be positive");
        MultiBitHypervector {
            precision,
            components: (0..dim).map(|_| precision.sample(rng)).collect(),
        }
    }

    /// Build from raw components.
    ///
    /// # Panics
    ///
    /// Panics if any component is zero or exceeds the precision's range, or
    /// if `components` is empty.
    pub fn from_components(components: Vec<i8>, precision: IdPrecision) -> MultiBitHypervector {
        assert!(
            !components.is_empty(),
            "hypervector dimension must be positive"
        );
        let m = precision.max_abs();
        for &c in &components {
            assert!(
                c != 0 && c.abs() <= m,
                "component {c} outside alphabet ±1..±{m}"
            );
        }
        MultiBitHypervector {
            precision,
            components,
        }
    }

    /// The component precision.
    pub fn precision(&self) -> IdPrecision {
        self.precision
    }

    /// The components.
    #[inline]
    pub fn components(&self) -> &[i8] {
        &self.components
    }

    /// Dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Dot product with a binary hypervector (`±1` per dimension) — the
    /// element-wise multiply inside the encoding MAC of Eq. (1).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn dot_binary(&self, other: &BinaryHypervector) -> i64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let mut acc = 0i64;
        for (i, &c) in self.components.iter().enumerate() {
            if other.bit(i) {
                acc += i64::from(c);
            } else {
                acc -= i64::from(c);
            }
        }
        acc
    }

    /// Collapse to a binary hypervector by sign (positive → `+1`).
    pub fn to_binary(&self) -> BinaryHypervector {
        let mut hv = BinaryHypervector::zeros(self.dim());
        for (i, &c) in self.components.iter().enumerate() {
            hv.set(i, c > 0);
        }
        hv
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

    #[test]
    fn dot_binary_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        let mb = MultiBitHypervector::random(&mut rng, 500, IdPrecision::Bits3);
        let b = BinaryHypervector::random(&mut rng, 500);
        let naive: i64 = mb
            .components()
            .iter()
            .enumerate()
            .map(|(i, &c)| i64::from(c) * i64::from(b.component(i)))
            .sum();
        assert_eq!(mb.dot_binary(&b), naive);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_binary_checks_dims() {
        let mut rng = StdRng::seed_from_u64(4);
        let mb = MultiBitHypervector::random(&mut rng, 10, IdPrecision::Bits1);
        let b = BinaryHypervector::zeros(11);
        let _ = mb.dot_binary(&b);
    }

    #[test]
    fn to_binary_signs() {
        let mb = MultiBitHypervector::from_components(vec![3, -2, 1, -4], IdPrecision::Bits3);
        let b = mb.to_binary();
        assert_eq!(b.to_bipolar(), vec![1, -1, 1, -1]);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn from_components_validates() {
        let _ = MultiBitHypervector::from_components(vec![3], IdPrecision::Bits1);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn from_components_rejects_zero() {
        let _ = MultiBitHypervector::from_components(vec![0], IdPrecision::Bits3);
    }
}
