//! The kernel-equivalence contract: every distance the dispatch layer
//! can compute — scalar, AVX2, AVX-512; one pair, a slab or a block, all
//! three the same sweep body per instruction set — is the integer a
//! naive bit-by-bit count gives, for any dimension (tail words
//! included), any word pattern (all-zeros and all-ones edges included),
//! and any block shape (ragged Q/R remainders included). The oracle is
//! this file's own, never a kernel, so no variant is checked against
//! itself. Output bytes never depend on which kernel ran; only
//! wall-clock does.
//!
//! The blocked ID-Level encode kernel is under the same contract: both
//! instantiations produce the sums — and the encoder the hypervector —
//! of the naive per-peak, full-width `Sign(Σ id·lv)` loop, which
//! survives only here as the oracle. CI runs this file in a debug build,
//! so overflow checks patrol the kernel's i8 lanes on the same inputs.
//!
//! A separate regression section poisons the padding bits beyond `dim`
//! in the final word — bits the [`hdoms_hdc::hv::HvRef::new_unchecked`]
//! release path never validates — and asserts no kernel lets them reach
//! a distance.

use hdoms_hdc::encoder::{sign_pack, EncoderConfig, IdLevelEncoder};
use hdoms_hdc::hv::BinaryHypervector;
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::kernels::{
    encode_run_len, pack_id_row, set_active, unpack_id_row, EncodeRow, KernelDispatch, KernelKind,
    ENCODE_BLOCK, QUERY_TILE, REFERENCE_TILE,
};
use hdoms_hdc::multibit::IdPrecision;
use hdoms_hdc::similarity::{dot, hamming_distance};
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The reference implementation everything is checked against: the
/// first `dim` bits compared one at a time, so padding bits beyond `dim`
/// never count.
fn naive_hamming(dim: usize, a: &[u64], b: &[u64]) -> u32 {
    let mut total = 0u32;
    for i in 0..dim {
        let bit_a = (a[i / 64] >> (i % 64)) & 1;
        let bit_b = (b[i / 64] >> (i % 64)) & 1;
        total += u32::from(bit_a != bit_b);
    }
    total
}

/// `count` packed `dim`-bit word blocks from a seeded generator:
/// random patterns plus the all-zeros / all-ones edges, tails kept
/// clean (the invariant the owned types maintain).
fn words_from_seed(seed: u64, dim: usize, count: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = dim.div_ceil(64);
    let rem = dim % 64;
    let tail_mask = if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    };
    (0..count)
        .map(|i| {
            let mut words: Vec<u64> = match i % 4 {
                0 => vec![0u64; n],
                1 => vec![u64::MAX; n],
                _ => (0..n).map(|_| rng.gen()).collect(),
            };
            if let Some(last) = words.last_mut() {
                *last &= tail_mask;
            }
            words
        })
        .collect()
}

/// Every kernel variant the box can run — scalar, and AVX2 and AVX-512
/// where the CPU has them, so an AVX-512 box still checks the AVX2
/// bodies (on a no-SIMD machine the suite degenerates to scalar alone —
/// still a valid run, just a vacuous one).
fn variants() -> Vec<KernelDispatch> {
    KernelDispatch::available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pairwise: `hamming_words` — the 1×1 block — agrees with the naive
    /// reference for every variant, across dims with and without tail
    /// words, including dims smaller than one 256/512-bit vector.
    #[test]
    fn pairwise_kernels_match_naive(
        dim in 1usize..700,
        seed in any::<u64>(),
    ) {
        let blocks = words_from_seed(seed, dim, 8);
        for pair in blocks.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let expected = naive_hamming(dim, a, b);
            for kernel in variants() {
                prop_assert_eq!(
                    kernel.hamming_words(dim, a, b),
                    expected,
                    "{} hamming at dim {}", kernel.name(), dim
                );
            }
        }
    }

    /// Blocked ≡ pairwise: score_block produces, for every (q, r) cell,
    /// exactly the naive single-pair result — over ragged
    /// Q (not a multiple of the query tile) and ragged R (not a
    /// multiple of the reference tile), with Q and R both above and
    /// below one tile.
    #[test]
    fn blocked_kernels_match_pairwise(
        dim in 1usize..400,
        q_count in 1usize..(2 * QUERY_TILE + 3),
        r_count in 1usize..(REFERENCE_TILE + 5),
        seed in any::<u64>(),
    ) {
        let q_blocks = words_from_seed(seed, dim, q_count);
        let r_blocks = words_from_seed(seed ^ 0xabcd_ef01, dim, r_count);
        let queries: Vec<&[u64]> = q_blocks.iter().map(Vec::as_slice).collect();
        let references: Vec<&[u64]> = r_blocks.iter().map(Vec::as_slice).collect();
        for kernel in variants() {
            let mut dots = vec![0i64; q_count * r_count];
            kernel.score_block(dim, &queries, &references, &mut dots);
            for (qi, query) in queries.iter().enumerate() {
                for (ri, reference) in references.iter().enumerate() {
                    let expected = naive_hamming(dim, query, reference);
                    prop_assert_eq!(
                        dots[qi * r_count + ri],
                        dim as i64 - 2 * i64::from(expected),
                        "{} score_block cell ({}, {})", kernel.name(), qi, ri
                    );
                }
            }
        }
    }

    /// The slab kernel ≡ the naive per-pair count, every variant: every
    /// width from 1 to 40 words (4, 16 and 18 among them) plus two past
    /// the AVX2 body's 31-vector byte flush, 1..=8 queries, 0..=70 rows,
    /// and a slab cut out of a larger table at an unaligned word offset.
    #[test]
    fn slab_kernel_matches_pairwise(
        q_count in 1usize..=QUERY_TILE,
        rows in 0usize..=70,
        lead in 0usize..8,
        seed in any::<u64>(),
    ) {
        for width in (1usize..=40).chain([125, 130]) {
            let dim = 64 * width;
            let table = words_from_seed(seed, dim, lead + rows + 1).concat();
            let slab = &table[lead..lead + rows * width];
            let q_blocks = words_from_seed(seed ^ 0x5eed, dim, q_count + 2);
            let queries: Vec<&[u64]> = q_blocks[2..].iter().map(Vec::as_slice).collect();
            let mut expected = Vec::with_capacity(q_count * rows);
            for query in &queries {
                for row in slab.chunks_exact(width) {
                    expected.push(naive_hamming(dim, query, row));
                }
            }
            for kernel in variants() {
                let mut out = vec![u32::MAX; q_count * rows];
                kernel.hamming_slab(width, &queries, slab, &mut out);
                prop_assert_eq!(
                    &out, &expected,
                    "{} slab of {} rows × {} words, {} queries", kernel.name(), rows, width, q_count
                );
            }
        }
    }

    /// `score_block` on every variant ≡ the naive count, cell for cell:
    /// 1..=17 queries (across two query tiles and a ragged third),
    /// reference tiles of rows picked anywhere from a small table
    /// — non-adjacent, repeated — at dims 1, 63, 64, 65, 130, 8191 and
    /// 8192, with the padding bits beyond `dim` poisoned in every other
    /// row and query.
    #[test]
    fn score_block_matches_scalar_hamming(
        q_count in 1usize..=17,
        r_count in 0usize..=(REFERENCE_TILE + 3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dim in [1usize, 63, 64, 65, 130, 8191, 8192] {
            let poison = |mut words: Vec<u64>| {
                if dim % 64 != 0 {
                    *words.last_mut().expect("a word") |= u64::MAX << (dim % 64);
                }
                words
            };
            let table = words_from_seed(rng.gen(), dim, 12);
            let dirty: Vec<Vec<u64>> = table.iter().cloned().map(poison).collect();
            let picks: Vec<usize> = (0..r_count).map(|_| rng.gen_range(0..table.len())).collect();
            let references: Vec<&[u64]> = (picks.iter().enumerate())
                .map(|(r, &p)| if r % 2 == 0 { &table[p][..] } else { &dirty[p][..] })
                .collect();
            let clean_queries = words_from_seed(rng.gen(), dim, q_count);
            let dirty_queries: Vec<Vec<u64>> = clean_queries.iter().cloned().map(poison).collect();
            let queries: Vec<&[u64]> = (0..q_count)
                .map(|q| if q % 2 == 1 { &clean_queries[q][..] } else { &dirty_queries[q][..] })
                .collect();
            let mut expected = Vec::with_capacity(q_count * r_count);
            for query in &clean_queries {
                for &p in &picks {
                    let hamming = naive_hamming(dim, query, &table[p]);
                    expected.push(dim as i64 - 2 * i64::from(hamming));
                }
            }
            for kernel in variants() {
                let mut out = vec![i64::MIN; q_count * r_count];
                kernel.score_block(dim, &queries, &references, &mut out);
                prop_assert_eq!(
                    &out, &expected,
                    "{} score_block, {} queries × {} rows at dim {}",
                    kernel.name(), q_count, r_count, dim
                );
            }
        }
    }

    /// The public similarity API gives the same integers whichever
    /// kernel the process-wide selection points at — the contract that
    /// makes `HDOMS_KERNEL` purely a performance knob.
    #[test]
    fn global_swap_is_invisible(dim in 1usize..500, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BinaryHypervector::random(&mut rng, dim);
        let b = BinaryHypervector::random(&mut rng, dim);
        set_active(KernelKind::Scalar);
        let scalar_hamming = hamming_distance(&a, &b);
        let scalar_dot = dot(&a, &b);
        set_active(KernelKind::Auto);
        prop_assert_eq!(hamming_distance(&a, &b), scalar_hamming);
        prop_assert_eq!(dot(&a, &b), scalar_dot);
    }
}

/// The slab kernel's checks run before any SIMD body: a malformed call
/// panics on every variant instead of reading past a slice.
#[test]
fn malformed_slabs_are_refused() {
    let row = [0u64; 4];
    // (what, width, query count, query width, slab words, out length)
    let cases = [
        ("zero width", 0, 1, 0, 0, 0),
        ("no query", 4, 0, 4, 8, 0),
        ("nine queries", 4, 9, 4, 8, 18),
        ("short query", 4, 1, 3, 8, 2),
        ("ragged slab", 4, 1, 4, 7, 1),
        ("short out", 4, 1, 4, 8, 1),
    ];
    for kernel in variants() {
        for &(what, width, count, query_width, words, outs) in &cases {
            let queries = vec![&row[..query_width]; count];
            let slab = vec![0u64; words];
            let mut out = vec![0u32; outs];
            let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kernel.hamming_slab(width, &queries, &slab, &mut out)
            }));
            assert!(call.is_err(), "{}: {what} was accepted", kernel.name());
        }
    }
}

/// `score_block` checks every row, every query and `out` once, at the
/// safe entry: a short row, a short query or a wrong `out` length panics
/// there on every variant, before any SIMD body runs.
#[test]
fn malformed_blocks_are_refused_at_the_entry() {
    let dim = 130;
    let (row, short, long): (&[u64], &[u64], &[u64]) = (&[0; 3], &[0; 2], &[0; 4]);
    // The short query sits in the second query tile.
    let mut late_short = vec![row; 9];
    late_short.push(short);
    // (what, queries, references, out length, the entry's message)
    let cases = [
        ("short row", vec![row], vec![row, short], 2, "word count"),
        ("short query", late_short, vec![row], 10, "word count"),
        ("long row", vec![row], vec![long], 1, "word count"),
        ("short out", vec![row; 2], vec![row; 2], 3, "one score per"),
        ("long out", vec![row], vec![row], 2, "one score per"),
    ];
    for kernel in variants() {
        for (what, queries, references, outs, message) in &cases {
            let mut out = vec![0i64; *outs];
            let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kernel.score_block(dim, queries, references, &mut out)
            }));
            let payload = call.expect_err(&format!("{}: {what} was accepted", kernel.name()));
            let text = (payload.downcast_ref::<String>().map(String::as_str))
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                text.contains(message),
                "{}: {what} panicked with {text:?}",
                kernel.name()
            );
            assert!(
                out.iter().all(|&v| v == 0),
                "{}: {what} wrote a score",
                kernel.name()
            );
        }
    }
}

/// The tail-word hazard regression: views built through the release
/// (`new_unchecked`) path can carry garbage in the padding bits of the
/// final word. The kernels take raw word slices here — the owned types
/// would rightly reject these — and must mask the padding themselves in
/// every entry point, single-pair and blocked, on every variant.
#[test]
fn poisoned_padding_bits_never_reach_a_distance() {
    let mut rng = StdRng::seed_from_u64(0xbad_7a11);
    for dim in [1usize, 63, 65, 100, 127, 129, 300, 511, 700] {
        let rem = dim % 64;
        if rem == 0 {
            continue; // no padding to poison
        }
        let clean = words_from_seed(rng.gen(), dim, 4);
        let poison = |words: &[u64]| {
            let mut dirty = words.to_vec();
            *dirty.last_mut().unwrap() |= u64::MAX << rem;
            dirty
        };
        let (a, b) = (&clean[2], &clean[3]);
        let dirty_a = poison(a);
        let dirty_b = poison(b);
        let expected = naive_hamming(dim, a, b);
        for kernel in variants() {
            for (x, y) in [
                (a.as_slice(), dirty_b.as_slice()),
                (dirty_a.as_slice(), b.as_slice()),
                (dirty_a.as_slice(), dirty_b.as_slice()),
            ] {
                assert_eq!(
                    kernel.hamming_words(dim, x, y),
                    expected,
                    "{} hamming read padding bits at dim {dim}",
                    kernel.name()
                );
            }
            // The blocked kernel masks the same way.
            let queries = [dirty_a.as_slice(), a.as_slice()];
            let references = [dirty_b.as_slice(), b.as_slice()];
            let mut out = [0i64; 4];
            kernel.score_block(dim, &queries, &references, &mut out);
            assert_eq!(
                out,
                [dim as i64 - 2 * i64::from(expected); 4],
                "{} score_block read padding bits at dim {dim}",
                kernel.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The encode kernel.
// ---------------------------------------------------------------------

/// Bins the encode tests draw peaks from — enough for 400 distinct ones.
const ENCODE_BINS: usize = 420;

/// A preprocessor that keeps every peak it is given (no threshold, no
/// top-N below 400, empty spectra allowed) over [`ENCODE_BINS`] bins.
fn keep_all_preprocessor() -> Preprocessor {
    let base = PreprocessConfig::default();
    Preprocessor::new(PreprocessConfig {
        intensity_threshold: 0.0,
        max_peaks: 400,
        min_peaks: 0,
        max_mz: base.min_mz + ENCODE_BINS as f64 * base.bin_width,
        ..base
    })
}

/// A binned spectrum with exactly `peaks` peaks in distinct random bins.
fn binned_with_peaks(
    pre: &Preprocessor,
    rng: &mut StdRng,
    id: u32,
    peaks: usize,
) -> BinnedSpectrum {
    let cfg = pre.config();
    let mut bins: Vec<usize> = (0..ENCODE_BINS).collect();
    bins.shuffle(rng);
    let raw = bins[..peaks]
        .iter()
        .map(|&bin| {
            let mz = cfg.min_mz + (bin as f64 + 0.5) * cfg.bin_width;
            Peak::new(mz, rng.gen_range(0.01..1.0))
        })
        .collect();
    let binned = pre
        .run(&Spectrum::new(id, 500.0, 2, raw, SpectrumOrigin::Query))
        .expect("min_peaks is zero");
    assert_eq!(binned.peaks().len(), peaks);
    binned
}

fn encoder_for(
    pre: &Preprocessor,
    dim: usize,
    id_precision: IdPrecision,
    chunked: bool,
    seed: u64,
) -> IdLevelEncoder {
    IdLevelEncoder::new(EncoderConfig {
        dim,
        q_levels: 2,
        id_precision,
        level_style: if chunked {
            LevelStyle::Chunked { num_chunks: 4 }
        } else {
            LevelStyle::Random
        },
        num_bins: pre.config().num_bins(),
        seed,
    })
}

/// The oracle: the naive per-peak, full-width `Σ id·lv`, read from the
/// item memories one component at a time.
fn naive_accumulate(enc: &IdLevelEncoder, spectrum: &BinnedSpectrum) -> Vec<i32> {
    let mut acc = vec![0i32; enc.config().dim];
    for peak in spectrum.peaks() {
        let id = enc.id_memory().id(peak.bin as usize);
        let lv = enc
            .level_memory()
            .level(enc.level_memory().quantize(peak.intensity));
        for (d, slot) in acc.iter_mut().enumerate() {
            *slot += i32::from(id[d]) * i32::from(lv.component(d));
        }
    }
    acc
}

/// The oracle's `Sign`, one bit at a time.
fn naive_sign(acc: &[i32], tie: &BinaryHypervector) -> BinaryHypervector {
    let mut hv = BinaryHypervector::zeros(acc.len());
    for (d, &v) in acc.iter().enumerate() {
        hv.set(d, v > 0 || (v == 0 && tie.bit(d)));
    }
    hv
}

/// `kernel`'s blocked sums over `rows`, written out `dim` long; lanes a
/// ragged final block carries beyond `dim` must be zero.
fn kernel_sums(
    kernel: KernelDispatch,
    rows: &[EncodeRow<'_>],
    max_abs: i8,
    dim: usize,
) -> Vec<i32> {
    let mut acc = vec![0i32; dim];
    let mut blocks = 0usize;
    kernel.encode_blocks(rows, max_abs, dim, |block, sums| {
        assert_eq!(block, blocks, "{} blocks out of order", kernel.name());
        blocks += 1;
        let start = block * ENCODE_BLOCK;
        let width = (dim - start).min(ENCODE_BLOCK);
        acc[start..start + width].copy_from_slice(&sums[..width]);
        assert!(
            sums[width..].iter().all(|&v| v == 0),
            "{} left sums beyond dim {dim}",
            kernel.name()
        );
    });
    assert_eq!(blocks, dim.div_ceil(ENCODE_BLOCK));
    acc
}

/// One encode-equivalence case: both kernel instantiations, the
/// encoder's split and fused forms (on whichever kernel `HDOMS_KERNEL`
/// selected — CI runs this file under both) and the oracle all agree,
/// and no bit beyond `dim` is set.
fn check_encode(dim: usize, id_precision: IdPrecision, chunked: bool, peaks: usize, seed: u64) {
    let case = format!("dim {dim}, {id_precision:?}, chunked {chunked}, {peaks} peaks");
    let pre = keep_all_preprocessor();
    let enc = encoder_for(&pre, dim, id_precision, chunked, seed);
    let spectrum = binned_with_peaks(&pre, &mut StdRng::seed_from_u64(seed), 7, peaks);
    let expected_acc = naive_accumulate(&enc, &spectrum);
    let expected = naive_sign(&expected_acc, enc.tie_break());

    let levels: Vec<Vec<i8>> = (0..enc.config().q_levels)
        .map(|q| enc.level_memory().level(q).to_bipolar())
        .collect();
    let rows: Vec<EncodeRow<'_>> = spectrum
        .peaks()
        .iter()
        .map(|p| {
            let level = enc.level_memory().quantize(p.intensity);
            (
                enc.id_memory().packed(p.bin as usize),
                levels[level].as_slice(),
            )
        })
        .collect();
    for kernel in variants() {
        let acc = kernel_sums(kernel, &rows, id_precision.max_abs(), dim);
        assert_eq!(acc, expected_acc, "{} sums, {case}", kernel.name());
        assert_eq!(sign_pack(&acc, 0, enc.tie_break()), expected);
    }
    assert_eq!(enc.accumulate(&spectrum), expected_acc, "{case}");
    let hv = enc.encode(&spectrum);
    assert_eq!(hv, expected, "fused encode, {case}");
    assert_eq!(hv, enc.quantize_accumulator(&expected_acc));
    assert!(hv.tail_is_masked(), "bits set beyond dim, {case}");
    if peaks == 0 {
        assert_eq!(&expected, enc.tie_break(), "empty spectrum, {case}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Encode: scalar ≡ SIMD ≡ the naive oracle over arbitrary dims
    /// (below one block, whole blocks, ragged tails — 4 is the smallest
    /// a two-level memory can be built at), every ID precision, both
    /// level styles, and peak counts from the empty spectrum to far
    /// beyond `max_peaks`.
    #[test]
    fn encode_kernels_match_naive(
        dim in 4usize..=1100,
        peaks in 0usize..=400,
        seed in any::<u64>(),
    ) {
        for id_precision in IdPrecision::ALL {
            for chunked in [false, true] {
                check_encode(dim, id_precision, chunked, peaks, seed);
            }
        }
    }

    /// The raw kernel on rows no item memory would produce — any dim
    /// from 1, random alphabet components, random level signs: both
    /// instantiations equal the naive sums.
    #[test]
    fn encode_blocks_match_naive_sums(
        dim in 1usize..=1100,
        count in 0usize..=400,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for id_precision in IdPrecision::ALL {
            let ids: Vec<Vec<i8>> = (0..count)
                .map(|_| (0..dim).map(|_| id_precision.sample(&mut rng)).collect())
                .collect();
            let lvs: Vec<Vec<i8>> = (0..count)
                .map(|_| (0..dim).map(|_| if rng.gen_bool(0.5) { 1 } else { -1 }).collect())
                .collect();
            let packed: Vec<Vec<u8>> = ids.iter().map(|id| pack_id_row(id)).collect();
            let rows: Vec<EncodeRow<'_>> = packed
                .iter()
                .zip(&lvs)
                .map(|(id, lv)| (id.as_slice(), lv.as_slice()))
                .collect();
            let mut expected = vec![0i32; dim];
            for ((id, row), lv) in ids.iter().zip(&packed).zip(&lvs) {
                prop_assert_eq!(&unpack_id_row(row, dim), id, "pack round trip at dim {}", dim);
                for d in 0..dim {
                    expected[d] += i32::from(id[d]) * i32::from(lv[d]);
                }
            }
            for kernel in variants() {
                prop_assert_eq!(
                    kernel_sums(kernel, &rows, id_precision.max_abs(), dim),
                    expected.clone(),
                    "{} at dim {}, {} rows", kernel.name(), dim, count
                );
            }
        }
    }
}

/// Peak counts on and around every i8 flush boundary — runs of 31, 63
/// and 127 rows at the 3-, 2- and 1-bit alphabets — at a sub-block, a
/// whole-block and a ragged dimension.
#[test]
fn encode_is_exact_across_every_flush_boundary() {
    for dim in [40usize, 128, 1000] {
        for id_precision in IdPrecision::ALL {
            let run = encode_run_len(id_precision.max_abs());
            for peaks in [0, 1, run - 1, run, run + 1, 2 * run, 2 * run + 1, 400] {
                for chunked in [false, true] {
                    check_encode(dim, id_precision, chunked, peaks, 0x5eed ^ peaks as u64);
                }
            }
        }
    }
}

/// The worst case the i8 lanes can see: every product `+max_abs` (and
/// its negation), for row counts on, just past and far past one run.
/// The sums must be exactly `±n·max_abs` — one wrapped lane would show.
#[test]
fn encode_lanes_never_wrap_at_the_alphabet_extremes() {
    for dim in [64usize, 100] {
        for id_precision in IdPrecision::ALL {
            let max_abs = id_precision.max_abs();
            let run = encode_run_len(max_abs);
            assert!(run * max_abs as usize <= i8::MAX as usize);
            assert!((run + 1) * max_abs as usize > i8::MAX as usize);
            let id = pack_id_row(&vec![max_abs; dim]);
            for sign in [1i8, -1] {
                let lv = vec![sign; dim];
                for n in [run, run + 1, 4 * run, 400] {
                    let rows: Vec<EncodeRow<'_>> = vec![(id.as_slice(), lv.as_slice()); n];
                    let expected = vec![i32::from(sign) * i32::from(max_abs) * n as i32; dim];
                    for kernel in variants() {
                        assert_eq!(
                            kernel_sums(kernel, &rows, max_abs, dim),
                            expected,
                            "{} wrapped at {n} rows of {sign}·{max_abs}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}
