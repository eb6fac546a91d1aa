//! Integration tests for the persistent index: serialise→deserialise
//! identity, corruption rejection, warm-load search equivalence,
//! append-vs-cold-rebuild equivalence, and the per-query search account
//! (a batch's or a request group's accounting is a sum over records).

use hdoms_core::accelerator::{AcceleratorConfig, OmsAccelerator};
use hdoms_engine::Engine;
use hdoms_index::{IndexConfig, IndexError, IndexedBackendKind, LibraryIndex, QueryRecord};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::fdr::filter_fdr;
use hdoms_oms::pipeline::{assemble_psms, PipelineOutcome, ReferenceCatalog};
use hdoms_oms::psm::Psm;
use hdoms_oms::search::{
    best_hits, candidate_lists, ExactBackend, ExactBackendConfig, HyperOmsConfig, RunScorer,
};
use hdoms_oms::window::PrecursorWindow;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

mod common;

use common::{header_offset_of, patch_header};

const TEST_DIM: usize = 512;
const THREADS: usize = 4;

fn exact_kind() -> IndexedBackendKind {
    let mut config = ExactBackendConfig::default();
    config.encoder.dim = TEST_DIM;
    IndexedBackendKind::Exact(config)
}

fn rram_kind() -> IndexedBackendKind {
    let mut config = AcceleratorConfig::default();
    config.encoder.dim = TEST_DIM;
    IndexedBackendKind::Rram(config)
}

fn build_index(kind: IndexedBackendKind, library: &SpectralLibrary, shard: usize) -> LibraryIndex {
    LibraryIndex::build(
        library,
        IndexConfig {
            kind,
            entries_per_shard: shard,
            threads: THREADS,
        },
    )
}

fn tiny_workload(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed)
}

/// The flat oracle: `queries` preprocessed under `preprocess`, each
/// one's open-window candidates copied out of `catalog` and scored by
/// `scorer` in one run ([`best_hits`]), the hits joined into PSMs — no
/// engine, no shard loop.
fn flat_psms<S: RunScorer, C: ReferenceCatalog + ?Sized>(
    scorer: &S,
    catalog: &C,
    preprocess: PreprocessConfig,
    queries: &[Spectrum],
) -> Vec<Psm> {
    let (binned, _) = Preprocessor::new(preprocess).run_batch(queries);
    let window = PrecursorWindow::open_default();
    let lists = candidate_lists(&catalog.candidate_index(), &window, &binned);
    assemble_psms(
        &binned,
        &best_hits(scorer, &binned, &lists, THREADS),
        catalog,
    )
}

/// Search `index` the way every product path does — one engine over it
/// (its shard loop), open window, 1 % FDR — on `threads` workers.
fn engine_outcome(index: &LibraryIndex, queries: &[Spectrum], threads: usize) -> PipelineOutcome {
    let engine = Engine::from_index(index.clone(), threads).expect("an index wires its own kind");
    let window = PrecursorWindow::open_default();
    Arc::new(engine).search(queries, window, 0.01).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Serialise→deserialise is the identity, for both backend kinds and
    /// across shard sizes.
    #[test]
    fn roundtrip_identity(seed in 0u64..1000, shard_pow in 4u32..9, rram in any::<bool>()) {
        let workload = tiny_workload(seed);
        let kind = if rram { rram_kind() } else { exact_kind() };
        let index = build_index(kind, &workload.library, 1usize << shard_pow);
        let bytes = index.to_bytes();
        let restored = LibraryIndex::from_bytes(&bytes, THREADS).expect("valid bytes");
        prop_assert_eq!(&index, &restored);
        // And the byte encoding itself is deterministic.
        prop_assert_eq!(bytes, restored.to_bytes());
    }
}

/// What every door must do with a damaged image: fail with a structured
/// [`IndexError`], or — for damage the format cannot see — open an index
/// that answers an open-window search without panicking (a panic fails
/// the test) and without naming a reference outside the library.
fn fails_or_searches(bytes: &[u8], what: &str) {
    let path = std::env::temp_dir().join(format!(
        "hdoms-mutated-{}-{:?}.hdx",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).expect("damaged image written");
    let doors = [
        LibraryIndex::from_bytes(bytes, 2),
        LibraryIndex::open_mapped(&path, 2),
    ];
    std::fs::remove_file(&path).ok();
    for index in doors.into_iter().flatten() {
        let outcome = engine_outcome(&index, &tiny_workload(7).queries, 2);
        for psm in &outcome.psms {
            assert!(
                (psm.reference_id as usize) < index.entry_count(),
                "{what}: reference {} of {}",
                psm.reference_id,
                index.entry_count()
            );
        }
    }
}

fn golden_v3() -> Vec<u8> {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3.hdx");
    std::fs::read(golden).expect("v3 fixture")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any single-byte mutation of the golden v3 image, at any position,
    /// fails every open or leaves a searchable index (ROADMAP 3a).
    #[test]
    fn any_single_byte_mutation_fails_or_searches(at in 0usize..2480, mask in 1u8..=255) {
        let mut bytes = golden_v3();
        prop_assert_eq!(bytes.len(), 2480);
        bytes[at] ^= mask;
        fails_or_searches(&bytes, &format!("byte {at} ^ {mask:#04x}"));
    }

    /// So does any truncation, to any length.
    #[test]
    fn any_truncation_fails_or_searches(len in 0usize..2480) {
        fails_or_searches(&golden_v3()[..len], &format!("cut to {len} bytes"));
    }
}

#[test]
fn truncated_files_rejected_at_every_sampled_cut() {
    let workload = tiny_workload(11);
    let index = build_index(exact_kind(), &workload.library, 64);
    let bytes = index.to_bytes();
    // Every prefix must fail to load: sample cuts densely at the head
    // (preamble/header land there) and sparsely through the shards.
    let cuts: Vec<usize> = (0..64)
        .chain((64..bytes.len()).step_by(977))
        .chain([bytes.len() - 1])
        .collect();
    for cut in cuts {
        assert!(
            LibraryIndex::from_bytes(&bytes[..cut], THREADS).is_err(),
            "truncation at {cut}/{} bytes was accepted",
            bytes.len()
        );
    }
}

#[test]
fn flipped_bits_rejected_everywhere() {
    let workload = tiny_workload(12);
    let index = build_index(exact_kind(), &workload.library, 64);
    let bytes = index.to_bytes();
    // A single flipped bit anywhere must never load as a *different*
    // index: either the load errors (checksum, structure) or — never —
    // succeeds. Sample offsets across preamble, header, and shards.
    for offset in (0..bytes.len()).step_by(797) {
        for bit in [0u8, 7] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 1 << bit;
            match LibraryIndex::from_bytes(&corrupt, THREADS) {
                Err(_) => {}
                Ok(loaded) => panic!(
                    "bit {bit} at byte {offset} flipped silently: loaded {} entries",
                    loaded.entry_count()
                ),
            }
        }
    }
}

#[test]
fn checksum_failures_name_their_section() {
    let workload = tiny_workload(13);
    let index = build_index(exact_kind(), &workload.library, 64);
    let mut bytes = index.to_bytes();
    // Flip a byte near the end: that lands in the last shard's payload.
    let n = bytes.len();
    bytes[n - 16] ^= 0xff;
    match LibraryIndex::from_bytes(&bytes, THREADS) {
        Err(IndexError::ChecksumMismatch { section }) => {
            assert!(section.starts_with("shard"), "section was {section:?}")
        }
        other => panic!("expected a shard checksum mismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_future_version_rejected() {
    let workload = tiny_workload(14);
    let index = build_index(exact_kind(), &workload.library, 64);
    let bytes = index.to_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        LibraryIndex::from_bytes(&wrong_magic, THREADS),
        Err(IndexError::BadMagic)
    ));

    let mut future = bytes;
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        LibraryIndex::from_bytes(&future, THREADS),
        Err(IndexError::UnsupportedVersion { found: 99 })
    ));
}

/// `index` searched by its own kind's flat scorer (PSMs) and by an
/// engine over it (the whole outcome).
fn outcomes_for(index: &LibraryIndex, workload: &SyntheticWorkload) -> (Vec<Psm>, PipelineOutcome) {
    let sharded_outcome = engine_outcome(index, &workload.queries, THREADS);
    let (preprocess, queries) = (index.kind().preprocess(), &workload.queries);
    let flat = match index.kind() {
        IndexedBackendKind::Rram(_) => {
            let accel = index.to_accelerator(THREADS).expect("rram kind");
            flat_psms(&accel, index, preprocess, queries)
        }
        IndexedBackendKind::HyperOms(config) => {
            // The flat HyperOMS backend is composed above the index: the
            // exact scan under the binary-ID configuration, sharing the
            // index's table.
            let hyperoms = ExactBackend::from_shared(
                config.exact_config(THREADS),
                index.shared_references().clone(),
            )
            .named("hyperoms");
            flat_psms(&hyperoms, index, preprocess, queries)
        }
        IndexedBackendKind::Exact(_) => {
            let exact = index.to_exact_backend(THREADS).expect("exact kind");
            flat_psms(&exact, index, preprocess, queries)
        }
    };
    (flat, sharded_outcome)
}

#[test]
fn warm_load_searches_like_cold_build_exact() {
    let workload = tiny_workload(21);

    // Cold: build the backend straight from the library.
    let mut cold_config = ExactBackendConfig::default();
    cold_config.encoder.dim = TEST_DIM;
    cold_config.threads = THREADS;
    let cold_backend = ExactBackend::build(&workload.library, cold_config);
    let cold = flat_psms(
        &cold_backend,
        &workload.library,
        cold_config.preprocess,
        &workload.queries,
    );

    // Warm: persist, reload, reconstruct — flat and sharded.
    let built = build_index(exact_kind(), &workload.library, 48);
    let restored = LibraryIndex::from_bytes(&built.to_bytes(), THREADS).expect("roundtrip");
    let (flat, sharded) = outcomes_for(&restored, &workload);

    assert_eq!(cold, flat, "warm flat PSMs differ from cold");
    assert_eq!(cold, sharded.psms, "warm sharded PSMs differ from cold");
    assert_eq!(filter_fdr(&cold, 0.01).accepted, sharded.accepted);
}

#[test]
fn warm_load_searches_like_cold_build_rram() {
    let workload = tiny_workload(22);

    let mut cold_config = AcceleratorConfig::default();
    cold_config.encoder.dim = TEST_DIM;
    cold_config.threads = THREADS;
    let cold_backend = OmsAccelerator::build(&workload.library, cold_config);
    let cold = flat_psms(
        &cold_backend,
        &workload.library,
        cold_config.preprocess,
        &workload.queries,
    );

    let built = build_index(IndexedBackendKind::Rram(cold_config), &workload.library, 48);
    let restored = LibraryIndex::from_bytes(&built.to_bytes(), THREADS).expect("roundtrip");

    let (flat, sharded) = outcomes_for(&restored, &workload);
    assert_eq!(cold, flat, "warm accelerator PSMs differ from cold");
    assert_eq!(cold, sharded.psms);
}

#[test]
fn warm_load_searches_like_cold_build_hyperoms() {
    // The HyperOMS → exact configuration mapping lives once
    // (`HyperOmsConfig::exact_config`): a warm index reconstruction and
    // a cold `ExactBackend` under it, named "hyperoms", must agree hit
    // for hit.
    let workload = tiny_workload(23);

    let config = HyperOmsConfig {
        dim: TEST_DIM,
        threads: THREADS,
        ..HyperOmsConfig::default()
    };
    let cold_backend = ExactBackend::build(&workload.library, config.exact_config(config.threads))
        .named("hyperoms");
    let cold = flat_psms(
        &cold_backend,
        &workload.library,
        config.preprocess,
        &workload.queries,
    );
    assert!(!cold.is_empty());

    let built = build_index(IndexedBackendKind::HyperOms(config), &workload.library, 48);
    let restored = LibraryIndex::from_bytes(&built.to_bytes(), THREADS).expect("roundtrip");
    let (flat, sharded) = outcomes_for(&restored, &workload);
    assert_eq!(cold, flat, "warm flat PSMs differ from cold");
    assert_eq!(cold, sharded.psms, "warm sharded PSMs differ from cold");
    assert_eq!(filter_fdr(&cold, 0.01).accepted, sharded.accepted);
    assert!(sharded.backend_name.starts_with("sharded(hyperoms, "));
}

/// Pins the encoders' bits across commits. Every other identity in the
/// suite (cold ≡ streamed ≡ appended ≡ warm) is symmetric in the encoder,
/// and the golden `fixtures/v{1,2,3}.hdx` are only ever decoded and
/// re-serialised, never re-encoded — so a change that flipped one bit of
/// every hypervector would pass them all. The constants were recorded
/// from the build of the commit *before* the one that added this test.
///
/// The `rram` kind gets no constant here: its noise runs through
/// `f64::ln`/`exp`, which libm does not promise bit for bit across
/// platforms. Its noise-free chain is pinned by
/// `ideal_rram_chain_is_pinned`.
#[test]
fn library_encoding_is_pinned() {
    use hdoms_index::xxhash::xxh64;
    use hdoms_oms::psm::render_table;

    let workload = tiny_workload(7);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = TEST_DIM;
    let hyperoms = HyperOmsConfig {
        dim: TEST_DIM,
        ..HyperOmsConfig::default()
    };
    // (kind, digest of the image, digest of the rendered PSM rows): the
    // 3-bit chunked default, and binary IDs under random level vectors.
    let pinned = [
        (
            IndexedBackendKind::Exact(exact),
            0xed5f_7dde_cf7d_4560_u64,
            0xe369_2e16_a9f6_30b6_u64,
        ),
        (
            IndexedBackendKind::HyperOms(hyperoms),
            0xb3cc_22ec_a8c0_a56a,
            0x5a50_e6b5_a492_0329,
        ),
    ];
    for (kind, image_digest, rows_digest) in pinned {
        let index = build_index(kind, &workload.library, 64);
        let name = index.kind().name();
        // The digests were recorded when builders still wrote their
        // worker count (`THREADS`) into the configs' `threads` slot, and
        // a sketch section after the header; the slot is reserved and
        // written as 1 now, and no image stores a sketch. Put both back:
        // nothing else in the image may have moved.
        let image = index.to_bytes();
        let mut image = common::with_sketch(&image, &common::legacy_sketch_section(&index));
        patch_header(&mut image, &format!("{name}.threads"), THREADS as u64);
        assert_eq!(
            xxh64(&image, 0),
            image_digest,
            "{name}: the encoded library changed"
        );
        let outcome = engine_outcome(&index, &workload.queries, THREADS);
        assert!(!outcome.psms.is_empty());
        let rows = render_table(index.catalog().peptides(), &outcome);
        assert_eq!(
            xxh64(rows.as_bytes(), 0),
            rows_digest,
            "{name}: the PSM rows changed"
        );
    }
}

/// Pins the RRAM chain where it has no noise. On an ideal device every
/// σ is zero, so a sensing cycle draws nothing and the in-memory encode
/// and `CrossbarArray::mvm` are plain arithmetic — partial MACs, the
/// ADC, the digital accumulation and the sign — the same on every
/// platform. The constants were recorded from the build of the commit
/// *before* the one that added this test; never regenerate them.
#[test]
fn ideal_rram_chain_is_pinned() {
    use hdoms_core::encode::InMemoryEncoder;
    use hdoms_hdc::item_memory::LevelStyle;
    use hdoms_index::xxhash::xxh64;
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_rram::array::{CrossbarArray, CrossbarConfig};
    use hdoms_rram::config::MlcConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let workload = tiny_workload(7);
    let crossbar = CrossbarConfig {
        mlc: MlcConfig::ideal(3),
        sense_sigma: 0.0,
        ir_drop_factor: 0.0,
        age_s: 0.0,
        ..CrossbarConfig::default()
    };
    let chunked = AcceleratorConfig::default().encoder;
    // (level style, digest of every encode over the tiny workload): the
    // chunked default, and the bit-serial comparison case.
    let pinned = [
        (chunked.level_style, 0xb724_4a8b_6e01_715b_u64),
        (LevelStyle::Random, 0x7c0d_1cd8_9680_cb42),
    ];
    let preprocess = Preprocessor::default();
    let spectra = workload
        .queries
        .iter()
        .chain(workload.library.iter().map(|entry| &entry.spectrum));
    let binned: Vec<_> = spectra.filter_map(|s| preprocess.run(s).ok()).collect();
    for (level_style, digest) in pinned {
        let encoder = hdoms_hdc::encoder::EncoderConfig {
            dim: TEST_DIM,
            level_style,
            ..chunked
        };
        let enc = InMemoryEncoder::new(encoder, crossbar, 7, THREADS);
        let mut bytes = Vec::new();
        for spectrum in &binned {
            let (hv, stats) = enc.encode_with_stats(spectrum);
            assert_eq!(enc.encode(spectrum), hv, "no noise, one hypervector");
            bytes.extend(hv.words().iter().flat_map(|w| w.to_le_bytes()));
            bytes.extend(stats.bit_errors.to_le_bytes());
            bytes.extend(stats.cycles.to_le_bytes());
        }
        assert_eq!(
            xxh64(&bytes, 0),
            digest,
            "{level_style:?}: the noise-free in-memory encode changed"
        );
    }

    let mut rng = StdRng::seed_from_u64(7);
    let mut sign = |_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let weights: Vec<Vec<f64>> = (0..16).map(|_| (0..100).map(&mut sign).collect()).collect();
    let inputs: Vec<f64> = (0..100).map(&mut sign).collect();
    let array = CrossbarArray::program(crossbar, &weights, &mut rng);
    let out: Vec<u8> = array
        .mvm(&inputs, &mut rng)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert_eq!(
        xxh64(&out, 0),
        0xe976_69e3_47da_7a17,
        "the noise-free MVM changed"
    );
}

/// Pins the RRAM query path of the calibrated (noisy) device: every
/// sensing cycle draws, so these digests cover the noise stream's order
/// as well as the arithmetic. At each dimension — `TEST_DIM`, and one
/// the 32-pair row group does not divide, so the search's partial tail
/// group runs too — one digest covers the query-side in-memory encode,
/// the library-side encode with its statistics, and the in-memory search
/// `(estimate bits, exact dot, cycles)` of every query against every
/// reference its open window reaches; one more covers a noisy
/// `CrossbarArray::mvm` (Fig. 9b's path). The constants were recorded
/// from the build of the commit *before* the one that added this test;
/// never regenerate them. Like `noisy_programming_is_pinned`, they go
/// through libm's `ln` and `exp`.
#[test]
fn noisy_rram_query_path_is_pinned() {
    use hdoms_core::encode::InMemoryEncoder;
    use hdoms_core::search::InMemorySearch;
    use hdoms_index::xxhash::xxh64;
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_rram::array::{CrossbarArray, CrossbarConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let workload = tiny_workload(7);
    let crossbar = CrossbarConfig::default();
    let preprocess = Preprocessor::default();
    let queries: Vec<_> = (workload.queries.iter())
        .filter_map(|s| preprocess.run(s).ok())
        .collect();
    let library: Vec<_> = (workload.library.iter())
        .map(|entry| preprocess.run(&entry.spectrum).ok())
        .collect();
    let candidates = workload.library.candidate_index();
    let window = PrecursorWindow::open_default();
    // (dimension, digest of the encodes and search scores).
    let pinned = [
        (TEST_DIM, 0x930f_c988_6273_b6f3_u64),
        (1000, 0x04d7_059a_e007_9830),
    ];
    for (dim, digest) in pinned {
        let encoder = hdoms_hdc::encoder::EncoderConfig {
            dim,
            ..AcceleratorConfig::default().encoder
        };
        let enc = InMemoryEncoder::new(encoder, crossbar, 7, THREADS);
        let mut bytes = Vec::new();
        let mut references = Vec::new();
        for spectrum in &library {
            let encoded = spectrum.as_ref().map(|s| enc.encode_with_stats(s));
            if let Some((hv, stats)) = &encoded {
                bytes.extend(hv.words().iter().flat_map(|w| w.to_le_bytes()));
                bytes.extend(stats.bit_errors.to_le_bytes());
                bytes.extend(stats.dim.to_le_bytes());
                bytes.extend(stats.cycles.to_le_bytes());
            }
            references.push(encoded.map(|(hv, _)| hv));
        }
        let search = InMemorySearch::new(crossbar, dim, references, 11);
        for spectrum in &queries {
            let hv = enc.encode(spectrum);
            bytes.extend(hv.words().iter().flat_map(|w| w.to_le_bytes()));
            let reach = candidates.window(&window, spectrum.neutral_mass);
            for &reference in &candidates.ids()[reach.start as usize..reach.end as usize] {
                let Some(stats) = search.evaluate(&hv, spectrum.id, reference) else {
                    bytes.push(0xff);
                    continue;
                };
                bytes.extend(stats.estimated_dot.to_bits().to_le_bytes());
                bytes.extend(stats.exact_dot.to_le_bytes());
                bytes.extend(stats.cycles.to_le_bytes());
            }
        }
        assert_eq!(
            xxh64(&bytes, 0),
            digest,
            "dim {dim}: the noisy in-memory encode or search changed"
        );
    }

    let mut rng = StdRng::seed_from_u64(7);
    let weights: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..100).map(|_| rng.gen_range(-1.0..=1.0)).collect())
        .collect();
    let inputs: Vec<f64> = (0..100)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let array = CrossbarArray::program(crossbar, &weights, &mut rng);
    let out: Vec<u8> = array
        .mvm(&inputs, &mut rng)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert_eq!(
        xxh64(&out, 0),
        0x1172_20fd_26c4_ae7d,
        "the noisy MVM changed"
    );
}

/// Pins the programmed ID memory of the calibrated (noisy) device: one
/// stream, drawn in (row, column, `g⁺` then `g⁻`) order, however many
/// workers program the rows. The weight digests and σ_δ values were
/// recorded from the single-threaded programming loop that preceded
/// row-parallel programming; never regenerate them. σ_δ is a per-row sum
/// folded in row order, so it need only match that loop's running sum to
/// rounding — but to the bit at every thread count. Unlike
/// `ideal_rram_chain_is_pinned`, these digests go through libm's `ln`.
#[test]
fn noisy_programming_is_pinned() {
    use hdoms_core::encode::InMemoryEncoder;
    use hdoms_hdc::encoder::EncoderConfig;
    use hdoms_hdc::multibit::IdPrecision;
    use hdoms_index::xxhash::xxh64;
    use hdoms_rram::array::CrossbarConfig;
    use hdoms_rram::config::MlcConfig;

    // (bits, digest of the weights' bytes, σ_δ).
    let pinned = [
        (
            IdPrecision::Bits1,
            0x697c_6a1c_08bd_ee04_u64,
            5.409_101_183_274_435_4e-2,
        ),
        (
            IdPrecision::Bits2,
            0xeca6_6d69_1c65_c289,
            8.841_563_239_800_397e-2,
        ),
        (
            IdPrecision::Bits3,
            0x8320_da21_9b89_9e2f,
            9.494_647_686_298_092e-2,
        ),
    ];
    for (id_precision, digest, sigma_delta) in pinned {
        let bits = id_precision.bits();
        let encoder = EncoderConfig {
            dim: 1024,
            id_precision,
            ..EncoderConfig::default()
        };
        let crossbar = CrossbarConfig {
            mlc: MlcConfig::with_bits(bits),
            ..CrossbarConfig::default()
        };
        let program = |threads| InMemoryEncoder::new(encoder, crossbar, 7, threads);
        let one = program(1);
        let drift = (one.sigma_delta() - sigma_delta).abs() / sigma_delta;
        assert!(drift < 1e-12, "{bits} bits: σ_δ moved by {drift:e}");
        for threads in [1, 2, 3, 8] {
            let enc = program(threads);
            let bytes: Vec<u8> = (enc.programmed_weights().iter())
                .flat_map(|w| w.to_le_bytes())
                .collect();
            let what = format!("{bits} bits on {threads} threads");
            assert_eq!(xxh64(&bytes, 0), digest, "{what}: the weights moved");
            assert_eq!(
                enc.sigma_delta().to_bits(),
                one.sigma_delta().to_bits(),
                "{what}"
            );
        }
    }
}

/// A library whose every reference preprocessing rejects (too few
/// peaks) builds, serialises and loads — and must then also wire up and
/// search to nothing, for every kind. The `rram` kind used to panic in
/// `sharded_backend` (so in `Engine::from_index` and the wire's
/// `index.load`): the in-memory search took its dimension from the
/// stored references and insisted on having one.
#[test]
fn an_all_rejected_library_wires_up_and_finds_nothing() {
    let workload = tiny_workload(24);
    let starved: SpectralLibrary = workload
        .library
        .iter()
        .take(6)
        .map(|entry| {
            let mut entry = entry.clone();
            let peaks = entry.spectrum.peaks()[..2].to_vec();
            entry.spectrum = hdoms_ms::spectrum::Spectrum::new(
                entry.spectrum.id,
                entry.spectrum.precursor_mz,
                entry.spectrum.precursor_charge,
                peaks,
                entry.spectrum.origin,
            );
            entry
        })
        .collect();
    let hyperoms = IndexedBackendKind::HyperOms(HyperOmsConfig {
        dim: TEST_DIM,
        ..HyperOmsConfig::default()
    });
    for kind in [exact_kind(), hyperoms, rram_kind()] {
        let built = build_index(kind, &starved, 64);
        let name = built.kind().name();
        assert_eq!(built.build_stats().references_stored, 0, "{name}");
        assert_eq!(built.build_stats().references_rejected, 6, "{name}");
        let reloaded = LibraryIndex::from_bytes(&built.to_bytes(), THREADS).expect("roundtrip");
        for index in [built, reloaded] {
            let outcome = engine_outcome(&index, &workload.queries, THREADS);
            assert!(outcome.psms.is_empty(), "{name}: {:?}", outcome.psms);
        }
    }
}

/// `library` followed by `more`, ids in that order (the order an append
/// assigns them).
fn concatenated(library: &SpectralLibrary, more: &SpectralLibrary) -> SpectralLibrary {
    library.iter().chain(more.iter()).cloned().collect()
}

/// An append re-cuts the table as a build does: for the software kinds
/// the appended index is the cold build over the concatenated library,
/// byte for byte, and so searches like it.
#[test]
fn append_then_search_equals_cold_rebuild() {
    let first = tiny_workload(31);
    let second = tiny_workload(32);
    let hyperoms = IndexedBackendKind::HyperOms(HyperOmsConfig {
        dim: TEST_DIM,
        ..HyperOmsConfig::default()
    });
    for kind in [exact_kind(), hyperoms] {
        let name = kind.name();
        let mut appended = build_index(kind.clone(), &first.library, 40);
        appended.append_entries(second.library.entries(), THREADS);
        let rebuilt = build_index(kind, &concatenated(&first.library, &second.library), 40);
        assert_eq!(appended, rebuilt, "{name}");
        assert_eq!(appended.to_bytes(), rebuilt.to_bytes(), "{name}: the image");
        let (_, appended_outcome) = outcomes_for(&appended, &first);
        let (_, rebuilt_outcome) = outcomes_for(&rebuilt, &first);
        assert_eq!(appended_outcome.psms, rebuilt_outcome.psms, "{name}");

        // The appended index round-trips through disk.
        let bytes = appended.to_bytes();
        let restored = LibraryIndex::from_bytes(&bytes, THREADS).expect("appended roundtrip");
        assert_eq!(appended, restored, "{name}");
    }
}

#[test]
fn append_is_incremental_for_rram_too() {
    use hdoms_oms::pipeline::ReferenceCatalog;

    let first = tiny_workload(33);
    let second = tiny_workload(34);

    let mut appended = build_index(rram_kind(), &first.library, 64);
    appended.append_entries(second.library.entries(), THREADS);
    let rebuilt = build_index(
        rram_kind(),
        &concatenated(&first.library, &second.library),
        64,
    );

    assert_eq!(appended.candidate_index(), rebuilt.candidate_index());
    assert!(appended.shards().eq(rebuilt.shards()), "shard bounds");
    assert_eq!(appended.shared_references(), rebuilt.shared_references());
    let stats_a = appended.build_stats();
    let stats_b = rebuilt.build_stats();
    assert_eq!(stats_a.references_stored, stats_b.references_stored);
    assert!(
        (stats_a.mean_encode_ber - stats_b.mean_encode_ber).abs() < 1e-12,
        "append must fold encode-BER statistics exactly"
    );
    let (_, appended_outcome) = outcomes_for(&appended, &first);
    let (_, rebuilt_outcome) = outcomes_for(&rebuilt, &first);
    assert_eq!(appended_outcome.psms, rebuilt_outcome.psms);
}

/// Appended entries that straddle shard boundaries — including masses
/// exactly equal to an existing shard's edges, where only the
/// `(mass, id)` tie-break decides placement — land where a cold build
/// over the concatenated library puts them: the table stays in
/// `(mass, id)` order and the image is the cold build's.
#[test]
fn append_straddling_shard_boundaries_keeps_order() {
    let first = tiny_workload(35);
    // Small shards so the appended batch spans many bucket boundaries.
    let mut appended = build_index(exact_kind(), &first.library, 16);
    let boundary_count = appended.shards().len();
    assert!(boundary_count > 10, "need many shards to straddle");

    // The straddling batch: one entry cloned from the edge of every
    // existing shard (its mass *equals* a shard boundary exactly), plus
    // a fresh workload whose masses scatter across the whole range.
    let second = tiny_workload(36);
    let edges: Vec<u32> = appended
        .shards()
        .flat_map(|s| [s.first(), s.last()])
        .flatten()
        .map(|&(_, id)| id)
        .collect();
    let straddle: SpectralLibrary = edges
        .iter()
        .map(|&id| first.library.get(id).expect("edge id in library").clone())
        .chain(second.library.iter().cloned())
        .collect();
    appended.append_entries(straddle.entries(), THREADS);

    // The table is in (mass, id) order — the contract the shard walk,
    // candidate windows, and the sketch's row order all assume.
    let order: Vec<(f64, u32)> = appended.shards().flatten().copied().collect();
    for pair in order.windows(2) {
        assert!(
            pair[0] < pair[1],
            "entries out of (mass, id) order after boundary-straddling append: \
             {:?} before {:?}",
            pair[0],
            pair[1]
        );
    }
    // Duplicate masses really exist at shard boundaries (the cloned
    // edge entries), so the tie-break above was exercised.
    assert!(
        order
            .windows(2)
            .any(|p| p[0].0 == p[1].0 && p[0].1 < p[1].1),
        "test lost its equal-mass boundary entries"
    );

    // The round-trip re-runs structural validation: sorted shards,
    // monotone shard ranges, dense unique ids.
    let restored =
        LibraryIndex::from_bytes(&appended.to_bytes(), THREADS).expect("straddled roundtrip");
    assert_eq!(appended, restored);

    // And the image and the search results are a cold rebuild's over
    // the concatenated library.
    let rebuilt = build_index(exact_kind(), &concatenated(&first.library, &straddle), 16);
    assert_eq!(appended.to_bytes(), rebuilt.to_bytes());
    let (_, appended_outcome) = outcomes_for(&appended, &first);
    let (_, rebuilt_outcome) = outcomes_for(&rebuilt, &first);
    assert_eq!(appended_outcome.psms, rebuilt_outcome.psms);
}

/// The image an append of an earlier release wrote
/// (`fixtures/v3-append.hdx`: 24 tiny-workload entries of seed 37 at
/// dim 512, cut into shards of 8, the eighth-lightest entry added twice
/// more — once by a cold build, which cut between the twins, then by an
/// append, which put the third twin, the highest id, into the *earlier*
/// shard). That release's loader accepted it, and so does this one: its
/// table follows the shard walk, not `(mass, id)`, and a query reaching
/// that mass still scores every shard in one run. Re-written, it is the
/// same image less its sketch section; appended to, it is re-cut like a
/// build.
#[test]
fn a_mass_shared_across_a_shard_boundary_costs_one_visit_per_shard() {
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::window::PrecursorWindow;

    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-append.hdx");
    let image = std::fs::read(&fixture).expect("the legacy append fixture");
    let index = LibraryIndex::from_bytes(&image, THREADS).expect("a legacy append image loads");
    let mapped = LibraryIndex::open_mapped(&fixture, THREADS).expect("and maps");
    assert_eq!(mapped, index);
    let third = 25;
    let shard = |s: usize| index.shards().nth(s).expect("two shards");
    let mass = shard(0).last().expect("a full shard").0;
    assert_eq!(
        shard(0).last(),
        Some(&(mass, third)),
        "the third twin ends shard 0"
    );
    assert_eq!(shard(1)[0].0, mass, "shard 1 opens with its twin");
    assert!(shard(1)[0].1 < third, "out of id order across the boundary");
    assert_eq!(
        index.to_bytes(),
        common::without_sketch(&image),
        "re-written as it was read, less its legacy sketch section"
    );

    let workload = tiny_workload(37);
    let (binned, _) = Preprocessor::new(index.kind().preprocess()).run_batch(&workload.queries);
    let window = PrecursorWindow::open_default();
    let table = index.candidate_index();
    let windows: Vec<_> = (binned.iter())
        .map(|q| table.window(&window, q.neutral_mass))
        .collect();
    let at = table
        .ids()
        .iter()
        .position(|&id| id == third)
        .expect("indexed") as u32;
    assert!(
        windows.iter().any(|reach| reach.contains(&at)),
        "no query reaches the shared mass: nothing was tested"
    );
    let backend = index.sharded_backend(2).expect("kind matches");
    for prefilter in [None, Some((&*index.sketch_index(), 4))] {
        for record in backend.search_batch_traced(&binned, &windows, Some(2), prefilter) {
            let shards: Vec<u32> = record.visits.iter().map(|&(shard, _)| shard).collect();
            assert!(
                shards.windows(2).all(|pair| pair[0] < pair[1]),
                "a shard was visited in two runs: {shards:?}"
            );
        }
    }

    // An append re-cuts it: the cold build's table over the same entries.
    let mut appended = index.clone();
    let one_more = workload.library.get(0).expect("an entry").clone();
    appended.append_entries(std::slice::from_ref(&one_more), THREADS);
    let mut pairs: Vec<(f64, u32)> = index.candidate_index().pairs().to_vec();
    pairs.push((one_more.spectrum.neutral_mass(), 26));
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    assert_eq!(appended.candidate_index().pairs(), &pairs[..]);
    assert_eq!(appended.shards().len(), 4);
}

#[test]
fn kind_mismatch_is_an_error() {
    let workload = tiny_workload(41);
    let index = build_index(exact_kind(), &workload.library, 64);
    assert!(index.to_accelerator(THREADS).is_err());
    assert!(index.to_exact_backend(THREADS).is_ok());
    let workload = tiny_workload(41);
    let hyperoms = IndexedBackendKind::HyperOms(HyperOmsConfig {
        dim: TEST_DIM,
        ..HyperOmsConfig::default()
    });
    let index = build_index(hyperoms, &workload.library, 64);
    assert!(index.to_exact_backend(THREADS).is_err());
    assert!(index.to_accelerator(THREADS).is_err());
    assert!(index.sharded_backend(THREADS).is_ok());
}

#[test]
fn file_roundtrip_through_reader() {
    let workload = tiny_workload(42);
    let index = build_index(exact_kind(), &workload.library, 64);
    let path = std::env::temp_dir().join("hdoms-test-roundtrip.hdx");
    index.write(&path).expect("write");
    let loaded = LibraryIndex::open_mapped(&path, THREADS).expect("open");
    std::fs::remove_file(&path).ok();
    assert_eq!(index, loaded);
}

#[test]
fn checksum_valid_but_absurd_entry_count_rejected() {
    use hdoms_index::format::CHECKSUM_SEED;
    use hdoms_index::xxhash::xxh64;

    let workload = tiny_workload(15);
    let index = build_index(exact_kind(), &workload.library, 64);
    let mut bytes = index.to_bytes();

    // Locate the header (magic 8 + version 4 + header_len 8) and the
    // entry_count field inside it: kind tag is parsed first, then build
    // stats; rather than hand-computing that offset, scan the header for
    // the little-endian encoding of the true entry count and overwrite it
    // with an absurd value, then re-seal the header checksum so only the
    // new bound check can reject the file.
    let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let header_range = 20..20 + header_len;
    let needle = (index.entry_count() as u64).to_le_bytes();
    // build_stats.references_stored encodes the same value earlier in
    // the header, so take the LAST occurrence — that is entry_count.
    let pos = bytes[header_range.clone()]
        .windows(8)
        .rposition(|w| w == needle)
        .expect("entry_count encoding present in header");
    let absurd = (1u64 << 62).to_le_bytes();
    bytes[header_range.start + pos..header_range.start + pos + 8].copy_from_slice(&absurd);
    let new_hash = xxh64(&bytes[header_range.clone()], CHECKSUM_SEED);
    let hash_at = header_range.end;
    bytes[hash_at..hash_at + 8].copy_from_slice(&new_hash.to_le_bytes());

    match LibraryIndex::from_bytes(&bytes, THREADS) {
        Err(IndexError::Invalid(message)) => {
            assert!(message.contains("entry count"), "message was {message:?}")
        }
        other => panic!("expected a clean rejection, got {other:?}"),
    }
}

/// A NaN mass compares false under every order check, so an image whose
/// shard checksum is re-sealed around one used to load — and then broke
/// the binary search of every candidate window. Every door refuses it.
#[test]
fn a_resealed_nan_mass_fails_every_door() {
    use hdoms_index::format::CHECKSUM_SEED;
    use hdoms_index::xxhash::xxh64;

    let mut image = golden_v3();
    let golden = LibraryIndex::from_bytes(&image, THREADS).expect("golden image");
    // The first shard's payload opens with its entry count, then the
    // first record: `u32 id · f64 neutral_mass · …`.
    let (mass, id) = golden.shards().next().expect("a shard")[0];
    let record = [&id.to_le_bytes()[..], &mass.to_le_bytes()].concat();
    let at = (image.windows(12))
        .position(|w| w == record)
        .expect("first record");
    let start = at - 8;
    let lens = 20 + header_offset_of(&image, "header.shard_lens") + 8;
    let len = u64::from_le_bytes(image[lens..lens + 8].try_into().unwrap()) as usize;
    image[at + 4..at + 12].copy_from_slice(&f64::NAN.to_le_bytes());
    let sealed = xxh64(&image[start..start + len], CHECKSUM_SEED);
    image[start + len..start + len + 8].copy_from_slice(&sealed.to_le_bytes());

    let path = std::env::temp_dir().join(format!("hdoms-nan-mass-{}.hdx", std::process::id()));
    std::fs::write(&path, &image).unwrap();
    let opens = [
        LibraryIndex::from_bytes(&image, THREADS),
        LibraryIndex::open_mapped(&path, THREADS),
    ];
    std::fs::remove_file(&path).ok();
    for opened in opens {
        match opened {
            Err(IndexError::Invalid(message)) => {
                assert!(
                    message.contains("non-finite mass"),
                    "message was {message:?}"
                )
            }
            other => panic!("expected a clean rejection, got {other:?}"),
        }
    }
}

/// An rram image whose (checksum-valid) header declares no MLC section
/// fails open with the message it always had.
#[test]
fn rram_image_without_its_mlc_section_fails_open() {
    let workload = tiny_workload(5);
    let mut image = build_index(rram_kind(), &workload.library, 64).to_bytes();
    patch_header(&mut image, "header.mlc_len", 0);
    match LibraryIndex::from_bytes(&image, THREADS) {
        Err(IndexError::Invalid(message)) => {
            assert_eq!(message, "rram index is missing its MLC section");
        }
        other => panic!("expected a clean rejection, got {other:?}"),
    }
}

/// A header is input from outside the program: a checksum-valid image
/// whose encoder configuration no encoder can be built from must fail
/// *open* with a structured error on every entry point — it used to load
/// and then panic inside `IdLevelEncoder::new` on the first
/// `sharded_backend` (so on `index.load` over the wire).
#[test]
fn checksum_valid_but_unusable_encoder_config_fails_open() {
    let bytes = golden_v3();
    // The exact kind's encoder fields (the golden image is chunked), by
    // the labels of the encoder record's field list.
    // The last row is the abort the re-sealing sweep found: billions of
    // bins pass every per-record rule, and the first `sharded_backend`
    // then asked the allocator for the ID memory (terabytes here) —
    // `MAX_ITEM_MEMORY_BYTES` refuses it at open, before any allocation.
    let patches: [(&str, u64, &str); 5] = [
        ("encoder.q_levels", 0, "q_levels"),
        ("encoder.q_levels", 1, "q_levels"),
        ("level_style.num_chunks", 0, "num_chunks"),
        ("encoder.num_bins", 0, "num_bins"),
        ("encoder.num_bins", 1 << 32, "MAX_ITEM_MEMORY_BYTES"),
    ];
    for (label, value, needle) in patches {
        let mut patched = bytes.clone();
        patch_header(&mut patched, label, value);

        let path = std::env::temp_dir().join(format!(
            "hdoms-bad-config-{}-{label}-{value}.hdx",
            std::process::id()
        ));
        std::fs::write(&path, &patched).unwrap();
        let opens = [
            LibraryIndex::from_bytes(&patched, THREADS),
            LibraryIndex::from_buffer(hdoms_hdc::WordBuffer::from_bytes(&patched), THREADS),
            LibraryIndex::open_mapped(&path, THREADS),
        ];
        std::fs::remove_file(&path).ok();
        for opened in opens {
            match opened {
                Err(IndexError::Invalid(message)) => assert!(
                    message.contains(needle),
                    "{needle} = {value}: message was {message:?}"
                ),
                other => panic!("{needle} = {value}: expected a clean rejection, got {other:?}"),
            }
        }
    }
}

/// `library` with every tenth entry starved below the preprocessing
/// floor, so it has no hypervector.
fn starved(library: &SpectralLibrary) -> SpectralLibrary {
    (library.iter().enumerate())
        .map(|(id, entry)| {
            let mut entry = entry.clone();
            if id % 10 == 3 {
                let peaks = entry.spectrum.peaks()[..2].to_vec();
                entry.spectrum = Spectrum::new(
                    entry.spectrum.id,
                    entry.spectrum.precursor_mz,
                    entry.spectrum.precursor_charge,
                    peaks,
                    entry.spectrum.origin,
                );
            }
            entry
        })
        .collect()
}

/// A sketch has one source, the index's own references: an image stores
/// none, and the index loaded from it derives the sketch the cold build
/// derived — its rows following the `(mass, id)` table (here not in id
/// order, with absent slots) row for row, sharing the table's id column.
#[test]
fn a_loaded_sketch_is_the_derived_one_row_for_row() {
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_prefilter::SketchIndex;

    let library = starved(&tiny_workload(46).library);
    for kind in [exact_kind(), rram_kind()] {
        let name = kind.name();
        let index = build_index(kind, &library, 16);
        let image = index.to_bytes();
        assert_eq!(common::header_u64(&image, "header.sketch_len"), 0);
        let loaded = LibraryIndex::from_bytes(&image, THREADS).expect("own image");
        let (sketch, table) = (loaded.sketch_index(), loaded.candidate_index());
        let ids = table.ids();
        assert!(
            !ids.iter().copied().eq(0..ids.len() as u32),
            "the table is in id order"
        );
        assert!(
            Arc::ptr_eq(sketch.ids(), ids),
            "{name}: the id column is shared"
        );
        assert!(sketch.rows_follow(ids), "{name}");
        let refs = loaded.shared_references();
        for &id in ids.iter() {
            let hv = refs.hv(id as usize);
            let row: Option<Vec<u64>> =
                hv.map(|hv| SketchIndex::sample(sketch.selected(), hv.words()).collect());
            assert_eq!(sketch.is_present(id), row.is_some(), "{name}: {id}");
            let zeros = vec![0; sketch.words()];
            assert_eq!(sketch.signature(id), row.as_deref().unwrap_or(&zeros));
        }
        let absent = (0..library.len() as u32).filter(|&id| !sketch.is_present(id));
        assert_eq!(
            absent.count(),
            index.build_stats().references_rejected,
            "{name}"
        );
        assert!(
            index.build_stats().references_rejected > 0,
            "{name}: nothing starved"
        );
        assert_eq!(*sketch, *index.sketch_index(), "{name}");
    }
}

/// `image` opened at every door an image comes in through.
fn open_at_every_door(image: &[u8], tag: &str) -> Vec<Result<LibraryIndex, IndexError>> {
    let path = std::env::temp_dir().join(format!("hdoms-{tag}-{}.hdx", std::process::id()));
    std::fs::write(&path, image).unwrap();
    let opens = vec![
        LibraryIndex::from_bytes(image, THREADS),
        LibraryIndex::from_buffer(hdoms_hdc::WordBuffer::from_bytes(image), THREADS),
        LibraryIndex::open_mapped(&path, THREADS),
    ];
    std::fs::remove_file(&path).ok();
    opens
}

/// A legacy image's sketch section is still checksum-verified before it
/// is dropped: a flipped payload byte, not re-sealed, fails every door
/// naming the section.
#[test]
fn a_damaged_legacy_sketch_section_fails_every_door() {
    let mut image = golden_v3();
    let payload = common::sketch_payload(&image);
    image[payload.start + payload.len() / 2] ^= 0x10;
    for opened in open_at_every_door(&image, "sketch-flipped") {
        match opened {
            Err(IndexError::ChecksumMismatch { section }) => assert_eq!(section, "sketch"),
            other => panic!("expected the sketch checksum to fail, got {other:?}"),
        }
    }
}

/// Nothing reads a legacy sketch section past its checksum: re-sealed
/// garbage there opens at every door, and a K = 1 prefiltered search —
/// its sketch derived from the shards — renders the untouched fixture's
/// rows. (No window of the twelve-entry fixture holds more than four
/// candidates, so K = 1 is what makes the sketch decide anything.)
#[test]
fn a_resealed_garbage_sketch_section_is_never_read() {
    use hdoms_oms::psm::render_table;
    use hdoms_prefilter::PrefilterConfig;

    let golden = golden_v3();
    let mut image = golden.clone();
    let payload = common::sketch_payload(&image);
    for (at, byte) in image[payload.clone()].iter_mut().enumerate() {
        *byte = (at * 151 % 251) as u8;
    }
    common::reseal_sketch(&mut image, payload);
    assert_ne!(image, golden);

    let queries = tiny_workload(7).queries;
    let rows = |index: LibraryIndex| {
        let peptides = index.catalog();
        let engine = Arc::new(Engine::from_index(index, 2).expect("kind matches"));
        let window = PrecursorWindow::open_default();
        let prefilter = Some(PrefilterConfig::TopK(1));
        let searched = engine.search_with_workers_opts(&queries, window, 0.01, 2, prefilter);
        let (outcome, receipt) = searched.expect("an index-backed engine prefilters");
        assert!(
            receipt.candidates_scored < receipt.candidates_pre,
            "K = 1 narrows"
        );
        render_table(peptides.peptides(), &outcome)
    };
    let untouched = rows(LibraryIndex::from_bytes(&golden, THREADS).expect("the fixture"));
    assert!(untouched.lines().count() > 1, "the fixture matches nothing");
    for opened in open_at_every_door(&image, "sketch-garbage") {
        assert_eq!(rows(opened.expect("the section is not read")), untouched);
    }
}

/// Pins the sketch stage's survivors: every query's `narrow` output over
/// its open precursor window at K = 1, 16 and 256, through the sketch a
/// cold build derives and the one its loaded image derives — and the
/// same survivors from `narrow_batch` fed the whole batch and sub-batches
/// of 1, 7, 8 and 9 queries (either side of the 8-query block). The
/// library holds absent slots (every tenth entry starved below the
/// preprocessing floor) and a tie-heavy block (its first 60 entries four
/// times over, so equal sketch distances crowd the threshold). The
/// constants were recorded from the build of the commit *before* the one
/// that added this test; never regenerate them.
#[test]
fn narrowed_lists_are_pinned() {
    use hdoms_index::xxhash::xxh64;
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::candidate_lists;

    let spec = WorkloadSpec {
        reference_peptides: 1000,
        peptide_len: (13, 15),
        ..WorkloadSpec::tiny()
    };
    let workload = SyntheticWorkload::generate(&spec, 47);
    let library: SpectralLibrary = (workload.library.iter().enumerate())
        .map(|(id, entry)| {
            let mut entry = entry.clone();
            if id % 10 == 3 {
                let peaks = entry.spectrum.peaks()[..2].to_vec();
                entry.spectrum = Spectrum::new(
                    entry.spectrum.id,
                    entry.spectrum.precursor_mz,
                    entry.spectrum.precursor_charge,
                    peaks,
                    entry.spectrum.origin,
                );
            }
            entry
        })
        .chain((0..3).flat_map(|_| workload.library.iter().take(60).cloned()))
        .collect();
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 2048;
    let index = build_index(IndexedBackendKind::Exact(exact), &library, 32);
    let loaded = LibraryIndex::from_bytes(&index.to_bytes(), THREADS).expect("own image");
    let (binned, _) = Preprocessor::new(index.kind().preprocess()).run_batch(&workload.queries);
    let window = PrecursorWindow::open_default();
    let lists = candidate_lists(&index.candidate_index(), &window, &binned);
    assert!(lists.iter().filter(|list| list.len() > 256).count() > 10);
    let encoder = index.to_exact_backend(1).expect("an exact index");
    let query_hvs: Vec<_> = binned.iter().map(|b| encoder.encode_query(b)).collect();

    // (K, digest of every query's survivors: length, then ids, LE).
    let pinned = [
        (1, 0x047f_8d00_f7d2_a2fc_u64),
        (16, 0x637f_ea5f_c827_6264),
        (256, 0xb9eb_e8eb_d917_c5b0),
    ];
    let digest_of = |survivors: &[Vec<u32>]| {
        let mut bytes = Vec::new();
        for survivors in survivors {
            bytes.extend((survivors.len() as u32).to_le_bytes());
            bytes.extend(survivors.iter().flat_map(|id| id.to_le_bytes()));
        }
        xxh64(&bytes, 0)
    };
    for (k, digest) in pinned {
        for (route, from) in [("derived", &index), ("loaded", &loaded)] {
            let sketch = from.sketch_index();
            let signatures: Vec<Vec<u64>> = (query_hvs.iter())
                .map(|hv| sketch.sketch_query(hv.words()))
                .collect();
            let mut one_by_one = Vec::new();
            for (signature, list) in signatures.iter().zip(&lists) {
                let survivors = sketch.narrow(signature, list, k);
                let present = list.iter().filter(|&&id| sketch.is_present(id)).count();
                let expected = if list.len() <= k {
                    list.len()
                } else {
                    k.min(present)
                };
                assert_eq!(survivors.len(), expected, "K = {k}, {route}");
                one_by_one.push(survivors);
            }
            assert_eq!(
                digest_of(&one_by_one),
                digest,
                "K = {k}, {route}: the survivors moved"
            );
            // The engine's form: each query's window as a range of rows,
            // the survivors rows of the table the sketch follows.
            let table = from.candidate_index();
            assert!(
                sketch.rows_follow(table.ids()),
                "{route}: rows follow the table"
            );
            let batch: Vec<(&[u64], Range<u32>)> = (signatures.iter().zip(&binned))
                .map(|(signature, q)| (&signature[..], table.window(&window, q.neutral_mass)))
                .collect();
            for size in [batch.len(), 1, 7, 8, 9] {
                let batched: Vec<Vec<u32>> = (batch.chunks(size))
                    .flat_map(|sub| sketch.narrow_batch(sub, k, THREADS))
                    .map(|narrowed| {
                        let rows = narrowed.survivors.iter();
                        rows.map(|&row| table.ids()[row as usize]).collect()
                    })
                    .collect();
                assert_eq!(
                    digest_of(&batched),
                    digest,
                    "K = {k}, {route}, sub-batches of {size}: the survivors moved"
                );
            }
        }
    }
}

#[test]
fn group_accounting_is_a_sum_over_per_query_records() {
    // One merged batch of three request groups, prefilter on: summing
    // each group's own range of records gives exactly the counts three
    // separate searches report — visits per shard, candidates in and
    // out of the sketch stage — and nanoseconds add up as integers.
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::candidate_lists;
    use hdoms_oms::window::PrecursorWindow;

    let workload = tiny_workload(41);
    let index = build_index(exact_kind(), &workload.library, 32);
    let backend = index.sharded_backend(2).expect("kind matches");
    let sketch = index.sketch_index();
    let prefilter = Some((&*sketch, 8));
    let (binned, _) = Preprocessor::new(index.kind().preprocess()).run_batch(&workload.queries);
    let window = PrecursorWindow::open_default();
    let table = index.candidate_index();
    let windows: Vec<Range<u32>> = (binned.iter())
        .map(|q| table.window(&window, q.neutral_mass))
        .collect();
    let candidates = candidate_lists(&table, &window, &binned);

    // The windows, and the same windows copied out as id lists through
    // the compatibility form: the same records.
    let records = backend.search_batch_traced(&binned, &windows, Some(2), prefilter);
    assert_eq!(records.len(), binned.len());
    let n = binned.len();
    let mut narrowed = false;
    for range in [0..n / 3, n / 3..2 * n / 3, 2 * n / 3..n] {
        let (timings, stats) = QueryRecord::sum(&records[range.clone()]);
        let (hits, solo_timings, solo_stats) = backend.search_batch_prefiltered(
            &binned[range.clone()],
            &candidates[range.clone()],
            Some(2),
            prefilter,
        );
        let group = &records[range];
        assert!(group.iter().map(|r| r.hit).eq(hits));
        let counts = |t: &[hdoms_index::ShardTiming]| -> Vec<(u32, u64)> {
            t.iter().map(|t| (t.shard, t.visits)).collect()
        };
        assert_eq!(counts(&timings), counts(&solo_timings));
        assert_eq!(stats.candidates_pre, solo_stats.candidates_pre);
        assert_eq!(stats.candidates_post, solo_stats.candidates_post);
        narrowed |= stats.candidates_post < stats.candidates_pre;

        // Integer nanoseconds in, one conversion out.
        let visit_ns: u64 = group.iter().flat_map(|r| &r.visits).map(|v| v.1).sum();
        let sketch_ns: u64 = group.iter().map(|r| r.sketch_ns).sum();
        let by_shard = |shard: u32| -> u64 {
            let visits = group.iter().flat_map(|r| &r.visits);
            visits.filter(|v| v.0 == shard).map(|v| v.1).sum()
        };
        for t in &timings {
            assert_eq!(t.ms, by_shard(t.shard) as f64 / 1e6);
        }
        assert_eq!(
            timings.iter().map(|t| by_shard(t.shard)).sum::<u64>(),
            visit_ns
        );
        assert_eq!(stats.sketch_ms, sketch_ns as f64 / 1e6);
    }
    assert!(narrowed, "k = 8 narrows no open window: nothing was tested");
    // A query no shard was visited for carries no allocation.
    let none =
        backend.search_batch_traced(&binned[..1], std::slice::from_ref(&(0..0)), None, prefilter);
    assert_eq!(none, vec![QueryRecord::default()]);
    assert_eq!(none[0].visits.capacity(), 0);
}

/// Hand-built batches of windows through the shard loop's split, its
/// per-shard unions and their row blocks: `search_batch_traced` must
/// equal the flat oracle (`best_hits` over each window's ids, copied
/// out) hit for hit, and every visit must be what the per-id rule pays —
/// the copied list cut into runs of one shard (`chunk_by` over an id →
/// shard table the test builds itself).
mod fan_out {
    use super::*;
    use hdoms_baselines::annsolo::{AnnSoloBackend, AnnSoloConfig};
    use hdoms_index::ShardedBackend;
    use hdoms_ms::preprocess::{BinnedSpectrum, Preprocessor};
    use hdoms_oms::candidates::CandidateIndex;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{best_hits, PreparedQuery, RunScorer};
    use hdoms_prefilter::SketchIndex;

    /// The tiny library with every tenth entry starved below the
    /// preprocessing floor, so shard runs hold absent references.
    fn starved_library(seed: u64) -> (SyntheticWorkload, SpectralLibrary) {
        let workload = tiny_workload(seed);
        let library = starved(&workload.library);
        (workload, library)
    }

    /// The index's shard bounds as table positions (shard `s` is
    /// `bounds[s]..bounds[s + 1]`).
    fn shard_bounds(index: &LibraryIndex) -> Vec<u32> {
        let ends = index.shards().scan(0, |end, shard| {
            *end += shard.len() as u32;
            Some(*end)
        });
        let bounds: Vec<u32> = std::iter::once(0).chain(ends).collect();
        assert!(bounds.len() > 9, "too few shards to build the batches");
        bounds
    }

    /// The id → shard table of the index's shards.
    fn shard_of(index: &LibraryIndex) -> Vec<u32> {
        let mut shard_of = vec![u32::MAX; index.entry_count()];
        for (s, shard) in (0u32..).zip(index.shards()) {
            for &(_, id) in shard {
                shard_of[id as usize] = s;
            }
        }
        shard_of
    }

    /// The shard loop's longest row block (`sharded.rs`).
    const ROW_BLOCK: u32 = 256;

    /// The batches: `(name, queries, windows)` over a table cut at
    /// `bounds`.
    fn batches(
        bounds: &[u32],
        binned: &[BinnedSpectrum],
    ) -> Vec<(String, Vec<BinnedSpectrum>, Vec<Range<u32>>)> {
        let len = |s: usize| bounds[s + 1] - bounds[s];
        let whole = bounds[3]..bounds[7];
        let mut batches: Vec<(String, Vec<Range<u32>>)> = [1, 7, 8, 9, 17, 64]
            .into_iter()
            .map(|n| (format!("{n} queries, one window"), vec![whole.clone(); n]))
            .collect();
        // Windows that differ only at their edge shards: the interior
        // ones are one run shared by every query.
        let edges = (0..24u32)
            .map(|q| bounds[2] + q % len(2)..bounds[7] + (3 * q) % len(7) + 1)
            .collect();
        batches.push(("edge-only differences".to_owned(), edges));
        // Ends exactly on a bound, beside ends one position off it.
        let on_bounds = vec![
            bounds[4]..bounds[6],
            bounds[4]..bounds[6] + 3,
            bounds[4] - 2..bounds[6],
            bounds[4] + 1..bounds[6] - 1,
            bounds[5]..bounds[6],
            bounds[5]..bounds[5] + 1,
            bounds[6] - 1..bounds[6],
        ];
        batches.push(("ends on shard bounds".to_owned(), on_bounds));
        // Empty windows — at a bound, inside a shard, at either end of
        // the table — between runs that other queries share.
        let last = *bounds.last().expect("bounds");
        let empty = vec![
            bounds[4]..bounds[6],
            bounds[5]..bounds[5],
            bounds[5] + 1..bounds[5] + 1,
            0..0,
            bounds[4]..bounds[6],
            last..last,
        ];
        batches.push(("empty windows".to_owned(), empty));
        // The whole table, and the whole table but its first entry.
        let every = vec![0..last, 1..last, 0..last];
        batches.push(("every shard".to_owned(), every));
        // Windows that overlap only inside one shard, and two that leave
        // a gap inside one: a shard's union of runs can be two pieces.
        let one_shard_overlap = vec![
            bounds[2]..bounds[4] - 5,
            bounds[4] - 8..bounds[6],
            bounds[5] + 1..bounds[5] + len(5) / 3,
            bounds[5] + len(5) / 2..bounds[5] + len(5) - 1,
        ];
        batches.push(("overlaps inside one shard".to_owned(), one_shard_overlap));
        // Ends on and one row off the row-block bounds the shard loop
        // cuts a batch's union at — multiples of 256 rows, or of
        // ceil(rows / workers) when that is shorter — for the whole-table
        // union at 1, 2 and 8 workers.
        let mut on_blocks = Vec::new();
        on_blocks.push(0..last);
        for workers in [1, 2, 8] {
            let block = ROW_BLOCK.min(last.div_ceil(workers));
            on_blocks.extend([
                block / 2..block,
                block / 2..block + 1,
                block / 2..block - 1,
                block..block + block / 2,
                block + 1..last,
                block - 1..block + 3,
            ]);
        }
        batches.push(("ends on row-block bounds".to_owned(), on_blocks));
        // Nested windows: their first rows shared by 17 queries, then by
        // 9, by 8, and the last by 1.
        let nested = [(8, 5), (1, 20), (7, 40), (1, 70)]
            .into_iter()
            .flat_map(|(n, end)| vec![bounds[2]..bounds[2] + end; n])
            .collect();
        batches.push(("blocks shared by 17, 9, 8 and 1".to_owned(), nested));
        // One-shard batches with fewer rows than 2 and 8 workers, between
        // the two, and more than both.
        let one_row = std::iter::once(bounds[5] + 2..bounds[5] + 3).collect();
        batches.push(("one row".to_owned(), one_row));
        let few_rows = vec![bounds[5]..bounds[5] + 5; 3];
        batches.push(("five rows of one shard".to_owned(), few_rows));
        let one_shard = vec![bounds[5]..bounds[6]; 9];
        batches.push(("one whole shard".to_owned(), one_shard));
        (batches.into_iter())
            .map(|(name, windows)| {
                let cycled = (0..windows.len()).map(|i| binned[i % binned.len()].clone());
                (name, cycled.collect(), windows)
            })
            .collect()
    }

    /// The shard positions a walk of `list` pays, one per run of one
    /// shard, in list order.
    fn runs(list: &[u32], shard_of: &[u32]) -> Vec<u32> {
        let runs = list.chunk_by(|a, b| shard_of[*a as usize] == shard_of[*b as usize]);
        runs.map(|run| shard_of[run[0] as usize]).collect()
    }

    /// Check `backend`, whose table is `table`, against `flat` over every
    /// batch of windows cut at `bounds`, at workers 1, 2 and 8; with
    /// `sketch`, the prefilter at a covering K and at K = 4 as well (the
    /// oracle then scans each window's `narrow` survivors).
    #[allow(clippy::too_many_arguments)]
    fn check<S: RunScorer>(
        name: &str,
        backend: &ShardedBackend,
        flat: &S,
        table: &CandidateIndex,
        shard_of: &[u32],
        bounds: &[u32],
        binned: &[BinnedSpectrum],
        sketch: Option<&SketchIndex>,
    ) {
        let ids = table.ids();
        for (batch, queries, windows) in batches(bounds, binned) {
            let lists: Vec<Vec<u32>> = (windows.iter())
                .map(|w| ids[w.start as usize..w.end as usize].to_vec())
                .collect();
            let oracle = best_hits(flat, &queries, &lists, THREADS);
            assert!(
                oracle.iter().any(Option::is_some),
                "{name}/{batch}: no hits"
            );
            let walks: Vec<Vec<u32>> = lists.iter().map(|list| runs(list, shard_of)).collect();
            let mut expected_visits = std::collections::BTreeMap::<u32, u64>::new();
            for &shard in walks.iter().flatten() {
                *expected_visits.entry(shard).or_default() += 1;
            }
            let expected_visits: Vec<(u32, u64)> = expected_visits.into_iter().collect();
            let covering = lists.iter().map(Vec::len).max().unwrap_or(0);
            // The narrowed lists the oracle scans at K = 4.
            let narrowed: Option<Vec<Vec<u32>>> = sketch.map(|sketch| {
                (queries.iter().zip(&lists))
                    .map(|(query, list)| {
                        let prepared = flat.prepare(query);
                        let words = prepared.hv_words().expect("a hypervector query");
                        sketch.narrow(&sketch.sketch_query(words), list, 4)
                    })
                    .collect()
            });
            for workers in [1, 2, 8] {
                let at = format!("{name}/{batch}/workers {workers}");
                let records = backend.search_batch_traced(&queries, &windows, Some(workers), None);
                assert!(
                    records.iter().map(|r| r.hit).eq(oracle.iter().copied()),
                    "{at}"
                );
                for (record, walk) in records.iter().zip(&walks) {
                    let visited: Vec<u32> = record.visits.iter().map(|v| v.0).collect();
                    assert_eq!(&visited, walk, "{at}");
                    assert!(visited.windows(2).all(|w| w[0] < w[1]), "{at}: {visited:?}");
                    assert_eq!(record.visits.capacity(), walk.len(), "{at}");
                    assert_eq!((record.candidates_pre, record.candidates_post), (0, 0));
                }
                let (timings, _) = QueryRecord::sum(&records);
                let counts: Vec<(u32, u64)> = timings.iter().map(|t| (t.shard, t.visits)).collect();
                assert_eq!(counts, expected_visits, "{at}");

                let (Some(sketch), Some(narrowed)) = (sketch, &narrowed) else {
                    continue;
                };
                let filtered = backend.search_batch_traced(
                    &queries,
                    &windows,
                    Some(workers),
                    Some((sketch, covering)),
                );
                for ((on, off), list) in filtered.iter().zip(&records).zip(&lists) {
                    assert_eq!(on.hit, off.hit, "{at}: covering K");
                    let shards = |r: &QueryRecord| r.visits.iter().map(|v| v.0).collect::<Vec<_>>();
                    assert_eq!(shards(on), shards(off), "{at}: covering K");
                    let n = list.len() as u64;
                    assert_eq!((on.candidates_pre, on.candidates_post), (n, n), "{at}");
                }
                let oracle = best_hits(flat, &queries, narrowed, THREADS);
                let filtered = backend.search_batch_traced(
                    &queries,
                    &windows,
                    Some(workers),
                    Some((sketch, 4)),
                );
                for ((record, hit), list) in filtered.iter().zip(oracle).zip(narrowed) {
                    assert_eq!(record.hit, hit, "{at}: K = 4");
                    let visited: Vec<u32> = record.visits.iter().map(|v| v.0).collect();
                    assert_eq!(visited, runs(list, shard_of), "{at}: K = 4");
                    assert_eq!(record.candidates_post, list.len() as u64, "{at}: K = 4");
                }
            }
        }
    }

    fn binned_queries(index: &LibraryIndex, workload: &SyntheticWorkload) -> Vec<BinnedSpectrum> {
        Preprocessor::new(index.kind().preprocess())
            .run_batch(&workload.queries)
            .0
    }

    #[test]
    fn exact_hyperoms_and_rram_shard_loops_equal_the_flat_oracle() {
        let (workload, library) = starved_library(43);
        let hyperoms = IndexedBackendKind::HyperOms(HyperOmsConfig {
            dim: TEST_DIM,
            ..HyperOmsConfig::default()
        });
        for kind in [exact_kind(), hyperoms, rram_kind()] {
            let index = build_index(kind, &library, 16);
            let name = index.kind().name();
            let (bounds, table) = (shard_bounds(&index), index.candidate_index());
            let refs = index.shared_references();
            assert!(
                table.ids()[bounds[3] as usize..bounds[7] as usize]
                    .iter()
                    .any(|&id| refs.hv(id as usize).is_none()),
                "{name}: no shared run holds a rejected reference"
            );
            let backend = index.sharded_backend(THREADS).expect("kind matches");
            let (shard_of, sketch) = (shard_of(&index), index.sketch_index());
            let binned = binned_queries(&index, &workload);
            let sketch = Some(&*sketch);
            let (table, shard_of, bounds) = (&table, &shard_of[..], &bounds[..]);
            match index.kind() {
                IndexedBackendKind::Exact(_) => {
                    let flat = index.to_exact_backend(THREADS).expect("exact kind");
                    check(
                        name, &backend, &flat, table, shard_of, bounds, &binned, sketch,
                    );
                }
                IndexedBackendKind::HyperOms(config) => {
                    let flat =
                        ExactBackend::from_shared(config.exact_config(THREADS), refs.clone());
                    check(
                        name, &backend, &flat, table, shard_of, bounds, &binned, sketch,
                    );
                }
                IndexedBackendKind::Rram(_) => {
                    let flat = index.to_accelerator(THREADS).expect("rram kind");
                    check(
                        name, &backend, &flat, table, shard_of, bounds, &binned, sketch,
                    );
                }
            }
        }
    }

    /// The one-shard backend an ANN-SoLo engine runs: every window of
    /// its table is one run, whatever shard bounds the windows were cut
    /// from.
    #[test]
    fn an_ann_solo_one_shard_loop_equals_the_flat_oracle() {
        let (workload, library) = starved_library(44);
        let index = build_index(exact_kind(), &library, 16);
        let config = AnnSoloConfig {
            threads: THREADS,
            ..AnnSoloConfig::default()
        };
        let flat = AnnSoloBackend::build(&library, config);
        let table = index.candidate_index();
        let backend = ShardedBackend::one_shard(Box::new(flat.clone()), &table, THREADS);
        assert_eq!(backend.shard_count(), 1);
        let binned = Preprocessor::new(config.preprocess)
            .run_batch(&workload.queries)
            .0;
        let one_shard = vec![0; library.len()];
        let bounds = shard_bounds(&index);
        check(
            "ann-solo", &backend, &flat, &table, &one_shard, &bounds, &binned, None,
        );
    }

    /// The sketch's rows are the backend's positions only when they
    /// follow its table; a sketch left in id order is refused at the
    /// door, not scored against the wrong rows.
    #[test]
    #[should_panic(expected = "do not follow the backend's (mass, id) table")]
    fn a_sketch_in_id_order_is_refused_by_a_mass_ordered_backend() {
        let workload = tiny_workload(45);
        let index = build_index(exact_kind(), &workload.library, 16);
        let table = index.candidate_index();
        let in_id_order = (0..table.ids().len() as u32).eq(table.ids().iter().copied());
        assert!(!in_id_order, "the table is in id order: nothing to refuse");
        let derived = index.sketch_index();
        let refs = index.shared_references();
        let row = |id: u32| {
            let hv = refs.hv(id as usize);
            hv.map(|hv| SketchIndex::sample(derived.selected(), hv.words()))
        };
        let ids: Arc<[u32]> = (0..table.ids().len() as u32).collect();
        let (full_words, selected) = (derived.full_words(), derived.selected().to_vec());
        let by_id = SketchIndex::from_rows(full_words, selected, ids, row);
        let backend = index.sharded_backend(THREADS).expect("kind matches");
        let binned = binned_queries(&index, &workload);
        let _ = backend.search_batch_traced(
            &binned[..1],
            std::slice::from_ref(&(0..8)),
            None,
            Some((&by_id, 4)),
        );
    }
}
