//! Hamming similarity between binary hypervectors (§3.3).
//!
//! Because hypervectors are binary, the cosine similarity of the underlying
//! bipolar vectors reduces to a Hamming computation: for `a, b ∈ {-1,+1}^D`
//! the dot product is `D - 2·hamming(a, b)`, computable with XOR +
//! popcount over the packed words.
//!
//! The XOR + popcount itself is the 1×1 case of the blocked sweep the
//! exact scan and the sketch pass run
//! ([`KernelDispatch::hamming_words`](crate::kernels::KernelDispatch::hamming_words)),
//! on the process-wide active kernel ([`crate::kernels::active`]) —
//! scalar, AVX2, or AVX-512 depending on the CPU and the `HDOMS_KERNEL`
//! override. Kernel choice never changes a result, only how fast it
//! arrives.

use crate::hv::HvView;
use crate::kernels;

/// Hamming distance: the number of dimensions where `a` and `b` differ.
///
/// Generic over [`HvView`], so it scans owned
/// [`BinaryHypervector`](crate::hv::BinaryHypervector)s and borrowed
/// [`HvRef`](crate::hv::HvRef) views (e.g. words living inside a mapped
/// index buffer) with the same code.
///
/// # Panics
///
/// Panics on dimension mismatch.
///
/// ```
/// use hdoms_hdc::hv::{BinaryHypervector, HvRef};
/// use hdoms_hdc::similarity::hamming_distance;
/// let mut a = BinaryHypervector::zeros(128);
/// let b = BinaryHypervector::zeros(128);
/// a.flip(3);
/// a.flip(90);
/// assert_eq!(hamming_distance(&a, &b), 2);
/// assert_eq!(hamming_distance(&HvRef::new(128, a.words()), &b), 2);
/// ```
#[inline]
pub fn hamming_distance<A, B>(a: &A, b: &B) -> u32
where
    A: HvView + ?Sized,
    B: HvView + ?Sized,
{
    assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    kernels::active().hamming_words(a.dim(), a.words(), b.words())
}

/// Bipolar dot product `⟨a, b⟩ = D - 2·hamming(a, b)`.
///
/// This is the integer score the in-memory search approximates with analog
/// MACs; exact backends use it directly.
///
/// # Panics
///
/// Panics on dimension mismatch.
#[inline]
pub fn dot<A, B>(a: &A, b: &B) -> i64
where
    A: HvView + ?Sized,
    B: HvView + ?Sized,
{
    let d = a.dim() as i64;
    d - 2 * i64::from(hamming_distance(a, b))
}

/// Normalised similarity in `[-1, 1]`: `dot / D`. `1` means identical,
/// `0` orthogonal (expected for unrelated random hypervectors), `-1`
/// antipodal.
///
/// # Panics
///
/// Panics on dimension mismatch.
#[inline]
pub fn normalized_similarity<A, B>(a: &A, b: &B) -> f64
where
    A: HvView + ?Sized,
    B: HvView + ?Sized,
{
    dot(a, b) as f64 / a.dim() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hv::BinaryHypervector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_vectors() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BinaryHypervector::random(&mut rng, 1000);
        assert_eq!(hamming_distance(&a, &a), 0);
        assert_eq!(dot(&a, &a), 1000);
        assert!((normalized_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn antipodal_vectors() {
        let mut a = BinaryHypervector::zeros(100);
        let mut b = BinaryHypervector::zeros(100);
        for i in 0..100 {
            a.set(i, true);
            b.set(i, false);
        }
        assert_eq!(hamming_distance(&a, &b), 100);
        assert_eq!(dot(&a, &b), -100);
    }

    #[test]
    fn random_vectors_near_orthogonal() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BinaryHypervector::random(&mut rng, 8192);
        let b = BinaryHypervector::random(&mut rng, 8192);
        let s = normalized_similarity(&a, &b);
        // Standard deviation is 1/sqrt(D) ≈ 0.011; 6 sigma bound.
        assert!(s.abs() < 0.07, "similarity {s}");
    }

    #[test]
    fn symmetry() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BinaryHypervector::random(&mut rng, 333);
        let b = BinaryHypervector::random(&mut rng, 333);
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = BinaryHypervector::random(&mut rng, 200);
            let b = BinaryHypervector::random(&mut rng, 200);
            let c = BinaryHypervector::random(&mut rng, 200);
            assert!(
                hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c)
            );
        }
    }

    #[test]
    fn dot_consistent_with_naive_bipolar() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BinaryHypervector::random(&mut rng, 129);
        let b = BinaryHypervector::random(&mut rng, 129);
        let naive: i64 = a
            .to_bipolar()
            .iter()
            .zip(b.to_bipolar().iter())
            .map(|(&x, &y)| i64::from(x) * i64::from(y))
            .sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = BinaryHypervector::zeros(10);
        let b = BinaryHypervector::zeros(11);
        let _ = hamming_distance(&a, &b);
    }
}
