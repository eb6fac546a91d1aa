//! Hamming similarity search in memory (§4.1 of the paper).
//!
//! Encoded reference hypervectors stand **vertically** in the crossbar:
//! each reference occupies one column, each dimension one differential
//! row pair (Fig. 4a). A query hypervector drives the bit lines as
//! differential voltages (`V_ref ± V_pulse`), `activated_rows` rows fire
//! per cycle, and the source-line voltage of every column digitises one
//! partial MAC (Eq. 5). Partial sums accumulate digitally across row
//! groups; libraries wider than one array tile simply occupy more tiles,
//! all computing in parallel — the property that lets in-memory search
//! scale with data volume.
//!
//! ## Noise model
//!
//! Binary weights use only the two extreme conductance states, the most
//! stable ones, with a static per-cell deviation after relaxation. Within
//! one sensing cycle the deviations of the `activated_rows/2` pairs sum;
//! with ≥ 8 pairs per cycle the sum is well-approximated as Gaussian with
//! variance `n · σ_δ²` (central limit theorem over the independent Laplace
//! per-cell terms; docs/ARCHITECTURE.md, "The MLC error model"), which is
//! `σ_δ² / n` on the normalised voltage. That term is independent of the
//! sensing noise and the IR drop, so it joins them in the cycle's one
//! draw ([`CrossbarConfig::cycle_sigma`]'s `extra`) inside the chip
//! model's own sensing cycle ([`CrossbarConfig::sense`]) — the cycle
//! `CrossbarArray::mvm` and the in-memory encoder run, so the `rram_sim`,
//! Fig. 10 and Fig. 13 identifications are read out through the same
//! Eq. 5 chain Fig. 9 measures.

use hdoms_hdc::BinaryHypervector;
use hdoms_oms::search::{SearchHit, SharedReferences};
use hdoms_rram::array::CrossbarConfig;
use hdoms_rram::device::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Statistics of one in-memory similarity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// The analog MAC estimate (bipolar dot product units).
    pub estimated_dot: f64,
    /// The exact bipolar dot product.
    pub exact_dot: i64,
    /// Sensing cycles consumed.
    pub cycles: u32,
}

/// In-memory Hamming search over a stored reference set.
#[derive(Debug, Clone)]
pub struct InMemorySearch {
    crossbar: CrossbarConfig,
    /// Stored reference hypervectors by library id (binary weights are
    /// representable exactly at any cell precision, so the stored bits
    /// equal the encoded bits; analog error enters at evaluation time).
    /// Shared, so a warm load from a persistent index keeps one copy.
    references: SharedReferences,
    /// σ of a full row group's one draw per sensing cycle, and of the
    /// trailing partial group's when `pairs_per_cycle` does not divide
    /// `dim` (the weight term shrinks as `1/√n`).
    cycle_sigma: f64,
    tail_sigma: f64,
    dim: usize,
    seed: u64,
}

impl InMemorySearch {
    /// Store `references` — `dim`-dimensional hypervectors, one slot per
    /// library id (`None` marks entries that failed preprocessing, and
    /// every slot may be one) — in the simulated crossbars.
    ///
    /// Accepts either an owned `Vec` (cold build) or an existing
    /// [`SharedReferences`] handle (warm load from `hdoms-index`) — the
    /// latter shares the caller's hypervector words instead of copying.
    ///
    /// # Panics
    ///
    /// Panics if `crossbar` is invalid or a stored reference's dimension
    /// is not `dim`.
    pub fn new(
        crossbar: CrossbarConfig,
        dim: usize,
        references: impl Into<SharedReferences>,
        seed: u64,
    ) -> InMemorySearch {
        let references = references.into();
        crossbar.validate();
        references.assert_dim(dim);
        // σ of one Laplace(λ) is λ√2; the differential pair subtracts two
        // independent extreme-level cells.
        let device = DeviceModel::new(crossbar.mlc);
        let lambda = device.lambda(0.0, crossbar.age_s);
        let sigma_cell = lambda * std::f64::consts::SQRT_2;
        let sigma_delta = (2.0 * sigma_cell * sigma_cell).sqrt() / crossbar.mlc.g_max_us;
        let group_sigma =
            |n: usize| crossbar.cycle_sigma(sigma_delta, sigma_delta / (n as f64).sqrt());
        let group = crossbar.pairs_per_cycle();
        InMemorySearch {
            crossbar,
            references,
            cycle_sigma: group_sigma(group),
            tail_sigma: group_sigma(match dim % group {
                0 => group,
                tail => tail,
            }),
            dim,
            seed,
        }
    }

    /// The shared handle to the stored reference table.
    pub fn shared_references(&self) -> &SharedReferences {
        &self.references
    }

    /// Sensing cycles per query-column evaluation
    /// (`ceil(dim / pairs_per_cycle)` — all columns digitise in parallel).
    pub fn cycles_per_query(&self) -> usize {
        self.dim.div_ceil(self.crossbar.pairs_per_cycle())
    }

    /// Evaluate the analog similarity between `query` and stored reference
    /// `reference_id`, deterministic in `(seed, query id, reference id)`.
    ///
    /// Returns `None` if the reference slot is empty.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or an out-of-range id.
    pub fn evaluate(
        &self,
        query: &BinaryHypervector,
        query_id: u32,
        reference_id: u32,
    ) -> Option<SearchStats> {
        assert!(
            (reference_id as usize) < self.references.len(),
            "reference id {reference_id} out of range"
        );
        let reference = self.references.hv(reference_id as usize)?;
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (u64::from(query_id) << 32 | u64::from(reference_id))
                    .wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        let group = self.crossbar.pairs_per_cycle();
        let tail = self.dim % group;
        let mut counts = group_matches(query.words(), reference.words(), self.dim, group);
        let mut acc = 0.0f64;
        let mut exact = 0i64;
        let mut lanes = [0.0f64; SENSE_CHUNK];
        // The full groups a stack chunk of cycles at a time, then the
        // partial tail group, if any, at its own σ.
        let runs = [
            (self.dim / group, group, self.cycle_sigma),
            (usize::from(tail > 0), tail, self.tail_sigma),
        ];
        for (count, size, sigma) in runs {
            let n = size as f64;
            for first in (0..count).step_by(SENSE_CHUNK) {
                let chunk = &mut lanes[..(count - first).min(SENSE_CHUNK)];
                for (v, same) in chunk.iter_mut().zip(&mut counts) {
                    let mac = 2.0 * f64::from(same) - n; // matches − mismatches
                    exact += mac as i64;
                    *v = mac / n;
                }
                // Analog path: the normalised voltages through the sensing
                // cycles, whose one draw each carries the weight deviation.
                self.crossbar.sense(chunk, n, sigma, &mut rng);
                for &v in chunk.iter() {
                    acc += v;
                }
            }
        }
        Some(SearchStats {
            estimated_dot: acc,
            exact_dot: exact,
            cycles: self.cycles_per_query() as u32,
        })
    }

    /// Find the best reference for `query` among `candidates` using the
    /// analog scores.
    pub fn search_best(
        &self,
        query: &BinaryHypervector,
        query_id: u32,
        candidates: &[u32],
    ) -> Option<SearchHit> {
        SearchHit::best_of(candidates, |reference| {
            let stats = self.evaluate(query, query_id, reference)?;
            Some(stats.estimated_dot / self.dim as f64)
        })
    }
}

/// Sensing cycles [`InMemorySearch::evaluate`] draws and digitises per
/// stack block: a 256-cycle evaluation at D = 8192 is four blocks.
const SENSE_CHUNK: usize = 64;

/// The equal bits of `a` and `b` in each `group`-dimension row group of
/// their first `dim` dimensions, in group order — the last group holds
/// the `dim % group` remainder, if any.
fn group_matches<'a>(
    a: &'a [u64],
    b: &'a [u64],
    dim: usize,
    group: usize,
) -> impl Iterator<Item = u32> + 'a {
    (0..dim)
        .step_by(group)
        .map(move |start| range_matches(a, b, start, (start + group).min(dim)))
}

/// The equal bits of `a` and `b` in dimensions `start..end`, read
/// straight off the XOR of the words the range spans, the edge words
/// masked to it — so no bit outside the range, padding included, reaches
/// the count.
#[inline]
fn range_matches(a: &[u64], b: &[u64], start: usize, end: usize) -> u32 {
    debug_assert!(start < end && end <= a.len() * 64 && end <= b.len() * 64);
    let (first, last) = (start / 64, (end - 1) / 64);
    let low = u64::MAX << (start % 64);
    let high = u64::MAX >> (63 - (end - 1) % 64);
    let mismatches = if first == last {
        ((a[first] ^ b[first]) & low & high).count_ones()
    } else {
        let inner: u32 = (a[first + 1..last].iter().zip(&b[first + 1..last]))
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        ((a[first] ^ b[first]) & low).count_ones()
            + inner
            + ((a[last] ^ b[last]) & high).count_ones()
    };
    (end - start) as u32 - mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_hdc::similarity::dot;
    use hdoms_rram::config::MlcConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_refs(n: usize, dim: usize, seed: u64) -> Vec<Option<BinaryHypervector>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Some(BinaryHypervector::random(&mut rng, dim)))
            .collect()
    }

    fn ideal_crossbar() -> CrossbarConfig {
        CrossbarConfig {
            mlc: MlcConfig::ideal(1),
            adc_bits: 12,
            sense_sigma: 0.0,
            age_s: 0.0,
            ..CrossbarConfig::default()
        }
    }

    /// The counts of every group of `group_matches`, one bit at a time.
    fn naive_group_matches(a: &[u64], b: &[u64], dim: usize, group: usize) -> Vec<u32> {
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
        (0..dim)
            .step_by(group)
            .map(|start| {
                let end = (start + group).min(dim);
                (start..end).filter(|&i| bit(a, i) == bit(b, i)).count() as u32
            })
            .collect()
    }

    /// `dim`-bit word pairs: random, all-equal and all-different, and
    /// every padding bit beyond `dim` set — poison no count may read.
    fn poisoned_pairs(rng: &mut StdRng, dim: usize) -> Vec<(Vec<u64>, Vec<u64>)> {
        let words = dim.div_ceil(64);
        let poison = |mut w: Vec<u64>| {
            if !dim.is_multiple_of(64) {
                w[words - 1] |= u64::MAX << (dim % 64);
            }
            w
        };
        let random = |rng: &mut StdRng| (0..words).map(|_| rng.gen()).collect::<Vec<u64>>();
        let (a, b) = (random(rng), random(rng));
        vec![
            (poison(a.clone()), b.clone()),
            (a.clone(), poison(b)),
            (poison(a.clone()), poison(a.clone())),
            (poison(a.clone()), a.iter().map(|w| !w).collect()),
        ]
    }

    #[test]
    fn group_matches_agrees_with_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let dims = (1..=300).chain([511, 512, 513, 1000, 8192]);
        for dim in dims {
            for (a, b) in poisoned_pairs(&mut rng, dim) {
                for group in [1usize, 7, 32, 48, 64, 100] {
                    let got: Vec<u32> = group_matches(&a, &b, dim, group).collect();
                    let want = naive_group_matches(&a, &b, dim, group);
                    assert_eq!(got, want, "dim {dim}, group {group}");
                }
            }
        }
    }

    /// Ranges that start and end inside words, straddle a word boundary
    /// or cover one bit, then random ranges of poisoned pairs (a range
    /// ending inside the final word must not read its padding).
    #[test]
    fn range_matches_agrees_with_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BinaryHypervector::random(&mut rng, 300);
        let b = BinaryHypervector::random(&mut rng, 300);
        for &(s, e) in &[
            (0usize, 300usize),
            (0, 64),
            (63, 65),
            (100, 131),
            (250, 300),
            (5, 6),
        ] {
            let naive = (s..e).filter(|&i| a.bit(i) == b.bit(i)).count() as u32;
            assert_eq!(
                range_matches(a.words(), b.words(), s, e),
                naive,
                "range {s}..{e}"
            );
        }
        for _ in 0..200 {
            let dim = rng.gen_range(2..700usize);
            for (a, b) in poisoned_pairs(&mut rng, dim) {
                let start = rng.gen_range(0..dim - 1);
                let end = rng.gen_range(start + 1..=dim);
                let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
                let naive = (start..end).filter(|&i| bit(&a, i) == bit(&b, i)).count() as u32;
                assert_eq!(
                    range_matches(&a, &b, start, end),
                    naive,
                    "{start}..{end} of {dim}"
                );
            }
        }
    }

    #[test]
    fn ideal_hardware_recovers_exact_dot() {
        let refs = random_refs(10, 1024, 2);
        let search = InMemorySearch::new(ideal_crossbar(), 1024, refs.clone(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let q = BinaryHypervector::random(&mut rng, 1024);
        for id in 0..10u32 {
            let stats = search.evaluate(&q, 0, id).unwrap();
            let exact = dot(&q, refs[id as usize].as_ref().unwrap());
            assert_eq!(stats.exact_dot, exact);
            assert!(
                (stats.estimated_dot - exact as f64).abs() <= 16.0,
                "ideal estimate {} vs exact {exact}",
                stats.estimated_dot
            );
        }
    }

    #[test]
    fn noisy_hardware_rmse_small_relative_to_match_gap() {
        let refs = random_refs(50, 2048, 5);
        let search = InMemorySearch::new(CrossbarConfig::default(), 2048, refs.clone(), 6);
        let mut rng = StdRng::seed_from_u64(7);
        let q = BinaryHypervector::random(&mut rng, 2048);
        let mut se = 0.0f64;
        for id in 0..50u32 {
            let stats = search.evaluate(&q, 0, id).unwrap();
            se += (stats.estimated_dot - stats.exact_dot as f64).powi(2);
        }
        let rmse = (se / 50.0).sqrt();
        // Matched pairs differ from random ones by thousands of dot units
        // at D = 2048; hardware noise must stay well below that.
        assert!(rmse < 150.0, "search RMSE {rmse} too high");
        assert!(rmse > 0.0, "noisy hardware should not be exact");
    }

    #[test]
    fn best_match_survives_hardware_noise() {
        let dim = 2048;
        let mut refs = random_refs(100, dim, 8);
        // Plant a near-duplicate of the query at id 37.
        let mut rng = StdRng::seed_from_u64(9);
        let q = BinaryHypervector::random(&mut rng, dim);
        let mut near = q.clone();
        for i in 0..dim / 10 {
            near.flip(i * 10); // 10 % corrupted copy
        }
        refs[37] = Some(near);
        let search = InMemorySearch::new(CrossbarConfig::default(), dim, refs, 10);
        let candidates: Vec<u32> = (0..100).collect();
        let best = search.search_best(&q, 0, &candidates).unwrap();
        assert_eq!(
            best.reference, 37,
            "true match must win despite analog noise"
        );
        assert!(best.score > 0.5);
    }

    #[test]
    fn empty_slots_are_skipped() {
        let mut refs = random_refs(5, 512, 11);
        refs[2] = None;
        let search = InMemorySearch::new(CrossbarConfig::default(), 512, refs, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let q = BinaryHypervector::random(&mut rng, 512);
        assert!(search.evaluate(&q, 0, 2).is_none());
        let best = search.search_best(&q, 0, &[2]);
        assert!(best.is_none());
    }

    #[test]
    fn deterministic_per_ids() {
        let refs = random_refs(5, 512, 14);
        let search = InMemorySearch::new(CrossbarConfig::default(), 512, refs, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let q = BinaryHypervector::random(&mut rng, 512);
        let a = search.evaluate(&q, 3, 1).unwrap();
        let b = search.evaluate(&q, 3, 1).unwrap();
        assert_eq!(a, b);
        // Different query id → different noise draw.
        let c = search.evaluate(&q, 4, 1).unwrap();
        assert_ne!(a.estimated_dot, c.estimated_dot);
        assert_eq!(a.exact_dot, c.exact_dot);
    }

    #[test]
    fn cycles_per_query_formula() {
        let refs = random_refs(2, 8192, 20);
        let search = InMemorySearch::new(CrossbarConfig::default(), 8192, refs, 21);
        // 8192 dims / 32 pairs per cycle = 256.
        assert_eq!(search.cycles_per_query(), 256);
    }
}
