//! Bit-packed binary hypervectors.
//!
//! A binary hypervector is a vector in `{-1, +1}^D` stored one bit per
//! dimension (`1 ↔ +1`, `0 ↔ -1`) in `u64` words, so Hamming distance is a
//! handful of XOR + popcount instructions per 64 dimensions.

use rand::Rng;
use std::fmt;

/// A binary (bipolar) hypervector of fixed dimension, bit-packed into
/// `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryHypervector {
    dim: usize,
    words: Vec<u64>,
}

impl BinaryHypervector {
    /// Number of `u64` words needed for `dim` bits.
    #[inline]
    pub(crate) fn word_count(dim: usize) -> usize {
        dim.div_ceil(64)
    }

    /// The all `-1` hypervector (all bits zero).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn zeros(dim: usize) -> BinaryHypervector {
        assert!(dim > 0, "hypervector dimension must be positive");
        BinaryHypervector {
            dim,
            words: vec![0; Self::word_count(dim)],
        }
    }

    /// A uniformly random hypervector drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn random<R: Rng>(rng: &mut R, dim: usize) -> BinaryHypervector {
        let mut hv = BinaryHypervector::zeros(dim);
        for w in &mut hv.words {
            *w = rng.gen();
        }
        hv.mask_tail();
        hv
    }

    /// Build from bipolar components (`+1`/`-1`).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or contains values other than ±1.
    pub(crate) fn from_bipolar(components: &[i8]) -> BinaryHypervector {
        let mut hv = BinaryHypervector::zeros(components.len());
        for (i, &c) in components.iter().enumerate() {
            match c {
                1 => hv.set(i, true),
                -1 => {}
                other => panic!("bipolar component must be ±1, got {other}"),
            }
        }
        hv
    }

    /// Expand to a bipolar `i8` vector (`+1`/`-1` per dimension).
    pub fn to_bipolar(&self) -> Vec<i8> {
        (0..self.dim).map(|i| self.component(i)).collect()
    }

    /// Dimension of the hypervector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words. The final word's unused high bits are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zero any bits beyond `dim` in the last word.
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.dim % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    /// The bit at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.dim, "index {i} out of bounds for dim {}", self.dim);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The bipolar component at dimension `i` (`+1` or `-1`).
    #[inline]
    pub fn component(&self, i: usize) -> i8 {
        if self.bit(i) {
            1
        } else {
            -1
        }
    }

    /// Set the bit at dimension `i` (`true ↔ +1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.dim, "index {i} out of bounds for dim {}", self.dim);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flip the bit at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.dim, "index {i} out of bounds for dim {}", self.dim);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of `+1` components.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Reassemble a hypervector from packed words (the inverse of
    /// [`BinaryHypervector::words`]).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, the word count is not `ceil(dim / 64)`,
    /// or unused tail bits of the last word are set.
    pub(crate) fn from_words(dim: usize, words: Vec<u64>) -> BinaryHypervector {
        assert!(dim > 0, "hypervector dimension must be positive");
        assert_eq!(
            words.len(),
            Self::word_count(dim),
            "word count must match the dimension"
        );
        let hv = BinaryHypervector { dim, words };
        assert!(hv.tail_is_masked(), "unused tail bits must be zero");
        hv
    }

    /// Whether every bit beyond `dim` in the last word is zero.
    pub fn tail_is_masked(&self) -> bool {
        let rem = self.dim % 64;
        rem == 0 || self.words[self.words.len() - 1] & !((1u64 << rem) - 1) == 0
    }
}

/// A borrowed, bit-packed hypervector view: a dimension plus a `&[u64]`
/// word slice that lives somewhere else — inside an owned
/// [`BinaryHypervector`], or directly inside a loaded index file's
/// backing buffer (the zero-copy search path).
///
/// Every read-only operation the distance kernels need is available
/// through [`HvView`], which both this type and [`BinaryHypervector`]
/// implement, so kernels are written once and scan either representation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HvRef<'a> {
    dim: usize,
    words: &'a [u64],
}

impl<'a> HvRef<'a> {
    /// A view over `words` interpreted as a `dim`-bit hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, the word count is not `ceil(dim / 64)`,
    /// or unused tail bits of the last word are set (the tail invariant
    /// every [`BinaryHypervector`] maintains — distance kernels rely on
    /// it, so views must too).
    pub fn new(dim: usize, words: &'a [u64]) -> HvRef<'a> {
        assert!(dim > 0, "hypervector dimension must be positive");
        assert_eq!(
            words.len(),
            BinaryHypervector::word_count(dim),
            "word count must match the dimension"
        );
        let rem = dim % 64;
        assert!(
            rem == 0 || words[words.len() - 1] & !((1u64 << rem) - 1) == 0,
            "unused tail bits must be zero"
        );
        HvRef { dim, words }
    }

    /// Like [`HvRef::new`] without the validation — for hot paths whose
    /// caller already validated the slice once (e.g. a mapped reference
    /// table checks every offset at load time). Violating the
    /// invariants gives wrong distances, never memory unsafety; debug
    /// builds still assert them.
    #[inline]
    pub fn new_unchecked(dim: usize, words: &'a [u64]) -> HvRef<'a> {
        debug_assert_eq!(words.len(), BinaryHypervector::word_count(dim));
        debug_assert!({
            let rem = dim % 64;
            rem == 0 || words[words.len() - 1] & !((1u64 << rem) - 1) == 0
        });
        HvRef { dim, words }
    }

    /// The packed words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Copy the view into an owned [`BinaryHypervector`].
    pub fn to_hypervector(&self) -> BinaryHypervector {
        BinaryHypervector {
            dim: self.dim,
            words: self.words.to_vec(),
        }
    }
}

impl fmt::Debug for HvRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HvRef(dim={}, ones={})",
            self.dim,
            self.words.iter().map(|w| w.count_ones()).sum::<u32>()
        )
    }
}

/// Read-only access to a bit-packed hypervector — implemented by the
/// owned [`BinaryHypervector`] and the borrowed [`HvRef`], so similarity
/// kernels accept either without copying.
pub trait HvView {
    /// Dimension in bits.
    fn dim(&self) -> usize;

    /// The packed words; unused tail bits of the last word are zero.
    fn words(&self) -> &[u64];
}

impl HvView for BinaryHypervector {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }
}

impl HvView for HvRef<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self.words
    }
}

impl fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full bit dumps are unreadable; show dimension, population count
        // and the first few bits.
        let prefix: String = (0..self.dim.min(16))
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect();
        write!(
            f,
            "BinaryHypervector(dim={}, ones={}, bits={}…)",
            self.dim,
            self.count_ones(),
            prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_all_minus_one() {
        let hv = BinaryHypervector::zeros(100);
        assert_eq!(hv.count_ones(), 0);
        assert!(hv.to_bipolar().iter().all(|&c| c == -1));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut hv = BinaryHypervector::zeros(130);
        hv.set(0, true);
        hv.set(64, true);
        hv.set(129, true);
        assert!(hv.bit(0) && hv.bit(64) && hv.bit(129));
        assert!(!hv.bit(1) && !hv.bit(63) && !hv.bit(128));
        assert_eq!(hv.count_ones(), 3);
        hv.set(64, false);
        assert!(!hv.bit(64));
    }

    #[test]
    fn flip_toggles() {
        let mut hv = BinaryHypervector::zeros(70);
        hv.flip(69);
        assert!(hv.bit(69));
        hv.flip(69);
        assert!(!hv.bit(69));
    }

    #[test]
    fn bipolar_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let hv = BinaryHypervector::random(&mut rng, 257);
        let bipolar = hv.to_bipolar();
        assert_eq!(BinaryHypervector::from_bipolar(&bipolar), hv);
    }

    #[test]
    #[should_panic(expected = "bipolar component must be ±1")]
    fn from_bipolar_rejects_zero() {
        let _ = BinaryHypervector::from_bipolar(&[1, 0, -1]);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let hv = BinaryHypervector::random(&mut rng, 8192);
        let ones = hv.count_ones() as f64;
        assert!((ones - 4096.0).abs() < 300.0, "ones = {ones}");
    }

    #[test]
    fn random_masks_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let hv = BinaryHypervector::random(&mut rng, 65);
        // Only bits 0..65 may be set; the last word has exactly 1 usable bit.
        assert_eq!(hv.words()[1] & !1, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_bounds_checked() {
        let hv = BinaryHypervector::zeros(10);
        let _ = hv.bit(10);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = BinaryHypervector::zeros(0);
    }

    #[test]
    fn debug_is_compact() {
        let hv = BinaryHypervector::zeros(8192);
        let s = format!("{hv:?}");
        assert!(s.len() < 100);
        assert!(s.contains("dim=8192"));
    }

    #[test]
    fn view_roundtrips_through_words() {
        let mut rng = StdRng::seed_from_u64(21);
        let hv = BinaryHypervector::random(&mut rng, 130);
        let view = HvRef::new(130, hv.words());
        assert_eq!(view.dim(), 130);
        assert_eq!(view.words(), hv.words());
        assert_eq!(view.to_hypervector(), hv);
        let rebuilt = BinaryHypervector::from_words(130, hv.words().to_vec());
        assert_eq!(rebuilt, hv);
    }

    #[test]
    #[should_panic(expected = "tail bits")]
    fn view_rejects_dirty_tail() {
        let _ = HvRef::new(65, &[0, 0b100]);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_wrong_count() {
        let _ = BinaryHypervector::from_words(130, vec![0; 2]);
    }
}
