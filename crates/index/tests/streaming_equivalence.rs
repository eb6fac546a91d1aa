//! Differential build-equivalence suite for the streaming index
//! builder: [`StreamingIndexBuilder`] must emit the same `.hdx` v3 image
//! as `IndexBuilder::from_library(...).to_bytes()`, **byte for byte**,
//! over arbitrary entry counts, shard distributions, spill thresholds,
//! thread counts, and backend kinds — including single-entry libraries
//! and shards with no stored hypervectors. On top of equivalence:
//!
//! * corruption — a truncated or deleted spill file is rejected with a
//!   structured [`IndexError`], never a panic, and the builder cleans
//!   its temporary files up on the way out;
//! * memory — a live-bytes peak-tracking global allocator asserts the
//!   streaming build's peak heap stays below the encoded payload (and is
//!   governed by the spill threshold), while the in-memory build's peak
//!   exceeds it. The allocator is process-global, so every test in the
//!   file serialises on a mutex like `memory_sharing.rs` does.
//!
//! CI's "Streaming-build scale smoke" (`scale_bench --smoke --verify`)
//! is the other half of the streaming-build gate: the same byte-compare
//! and bounded-heap assertion at 2×10⁴ and 10⁵ references.

use hdoms_core::accelerator::AcceleratorConfig;
use hdoms_engine::Engine;
use hdoms_index::streaming::{StreamingConfig, StreamingIndexBuilder};
use hdoms_index::{IndexConfig, IndexError, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{ScaledLibrary, ScaledLibrarySpec, SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_obs::alloc::CountingAllocator;
use hdoms_oms::search::{ExactBackendConfig, HyperOmsConfig};
use hdoms_oms::window::PrecursorWindow;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The shared counting allocator; this suite reads its live bytes and
/// their high-water mark. Unlike the gross traffic `memory_sharing.rs`
/// reads, frees are subtracted: streaming deliberately allocates every
/// hypervector *transiently*, so only the peak of live bytes
/// distinguishes it from the in-memory path.
#[global_allocator]
static PEAK_COUNTER: CountingAllocator = CountingAllocator;

/// Serialises every test in this binary: the high-water mark above is
/// process-wide, so a sibling allocating on another thread inside the
/// heap test's window would inflate its peaks.
static ALLOCATOR_WINDOWS: Mutex<()> = Mutex::new(());

/// Take the serialising lock. The mutex guards no data, so a sibling
/// that panicked while holding it leaves nothing to distrust.
fn serial() -> MutexGuard<'static, ()> {
    ALLOCATOR_WINDOWS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

const TEST_DIM: usize = 512;

fn exact_kind(dim: usize) -> IndexedBackendKind {
    let mut config = ExactBackendConfig::default();
    config.encoder.dim = dim;
    IndexedBackendKind::Exact(config)
}

fn rram_kind(dim: usize) -> IndexedBackendKind {
    let mut config = AcceleratorConfig::default();
    config.encoder.dim = dim;
    IndexedBackendKind::Rram(config)
}

fn hyperoms_kind(dim: usize) -> IndexedBackendKind {
    IndexedBackendKind::HyperOms(HyperOmsConfig {
        dim,
        ..HyperOmsConfig::default()
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdoms-streq-{}-{tag}.hdx", std::process::id()))
}

/// A scaled synthetic library materialised for the in-memory reference
/// build — the same entries the streaming path consumes.
fn scaled_library(peptides: usize, factor: usize, seed: u64) -> SpectralLibrary {
    let spec = ScaledLibrarySpec {
        base: WorkloadSpec {
            reference_peptides: peptides,
            ..WorkloadSpec::tiny()
        },
        factor,
        seed,
    };
    ScaledLibrary::new(spec).materialize()
}

/// Streaming-build `library` into a fresh temp file and return the
/// image bytes (the file is removed).
fn stream_bytes(config: StreamingConfig, library: &SpectralLibrary, tag: &str) -> Vec<u8> {
    let path = temp_path(tag);
    let report =
        StreamingIndexBuilder::build_from_library(config, &path, library).expect("streaming build");
    assert_eq!(report.entry_count, library.len());
    let bytes = fs::read(&path).expect("read streamed image");
    assert_eq!(bytes.len() as u64, report.index_bytes);
    fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core differential: over arbitrary library sizes, augmentation
    /// factors, shard sizes, spill thresholds (1, mid, and larger than
    /// the library), and thread counts, the streamed image equals the
    /// in-memory image byte for byte.
    #[test]
    fn streaming_matches_in_memory_build(
        seed in 0u64..1000,
        peptides in 1usize..25,
        factor in 1usize..4,
        shard_pow in 2u32..8,
        // `1` forces per-entry chunks; values above the library size
        // (small libraries × large draws) exercise the single-chunk path.
        spill in 1usize..70,
        threads in 1usize..5,
    ) {
        let _serial = serial();
        let library = scaled_library(peptides, factor, seed);
        let config = IndexConfig {
            kind: exact_kind(TEST_DIM),
            entries_per_shard: 1usize << shard_pow,
            threads,
        };
        let in_memory = LibraryIndex::build(&library, config.clone()).to_bytes();
        let streamed = stream_bytes(
            StreamingConfig { index: config, spill_threshold: spill },
            &library,
            &format!("prop-{seed}-{peptides}-{factor}-{shard_pow}-{spill}-{threads}"),
        );
        prop_assert_eq!(&streamed, &in_memory);
    }
}

/// An image does not depend on the machine that built it: the configs'
/// `threads` (which defaults to the core count) is a reserved slot,
/// written as 1 by both builders whatever the kind carries.
#[test]
fn the_kinds_thread_count_does_not_reach_the_image() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 19);
    let with_threads = |kind: &IndexedBackendKind, threads: usize| {
        let mut kind = kind.clone();
        match &mut kind {
            IndexedBackendKind::Exact(c) => c.threads = threads,
            IndexedBackendKind::HyperOms(c) => c.threads = threads,
            IndexedBackendKind::Rram(c) => c.threads = threads,
        }
        IndexConfig {
            kind,
            entries_per_shard: 64,
            threads: 2,
        }
    };
    for kind in [
        exact_kind(TEST_DIM),
        hyperoms_kind(TEST_DIM),
        rram_kind(256),
    ] {
        let name = kind.name();
        let images: Vec<Vec<u8>> = [1, 7]
            .into_iter()
            .flat_map(|threads| {
                let config = with_threads(&kind, threads);
                let in_memory = LibraryIndex::build(&workload.library, config.clone());
                let streamed = stream_bytes(
                    StreamingConfig {
                        index: config,
                        spill_threshold: 100,
                    },
                    &workload.library,
                    &format!("threads-{name}-{threads}"),
                );
                [in_memory.to_bytes(), streamed]
            })
            .collect();
        assert!(
            images.windows(2).all(|pair| pair[0] == pair[1]),
            "{name}: the image depends on the kind's thread count"
        );
    }
}

/// A single-entry library streams to the same bytes and opens cleanly.
#[test]
fn single_entry_library_matches() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 3);
    let library: SpectralLibrary = workload.library.iter().take(1).cloned().collect();
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 64,
        threads: 2,
    };
    let in_memory = LibraryIndex::build(&library, config.clone());
    let path = temp_path("single");
    StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 8,
        },
        &path,
        &library,
    )
    .expect("streaming build");
    assert_eq!(fs::read(&path).unwrap(), in_memory.to_bytes());
    let loaded = LibraryIndex::open_mapped(&path, 2).expect("open streamed single-entry index");
    assert_eq!(loaded.entry_count(), 1);
    assert_eq!(loaded, in_memory);
    fs::remove_file(&path).ok();
}

/// Push-call granularity is invisible: one push, per-entry pushes, and
/// the buffered iterator path all produce identical bytes.
#[test]
fn push_granularity_is_invisible() {
    let _serial = serial();
    let library = scaled_library(15, 2, 21);
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 16,
        threads: 3,
    };
    let streaming = StreamingConfig {
        index: config,
        spill_threshold: 7,
    };

    let one_push = stream_bytes(streaming.clone(), &library, "gran-one");

    let path = temp_path("gran-many");
    let mut builder = StreamingIndexBuilder::create(streaming.clone(), &path).unwrap();
    for entry in library.iter() {
        builder.push_entries(std::slice::from_ref(entry)).unwrap();
    }
    builder.finish().unwrap();
    let per_entry = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();

    let path = temp_path("gran-iter");
    StreamingIndexBuilder::build_from_iter(streaming, &path, library.iter().cloned()).unwrap();
    let from_iter = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();

    assert_eq!(one_push, per_entry);
    assert_eq!(one_push, from_iter);
}

/// When preprocessing rejects every spectrum, the shards store metadata
/// but no hypervector words — the "empty shard" layout. Both builders
/// must agree on it, and the image must load with matching statistics.
#[test]
fn all_rejected_entries_still_match() {
    let _serial = serial();
    let library = scaled_library(10, 1, 5);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = TEST_DIM;
    // No synthetic spectrum carries this many peaks, so every entry is
    // rejected and every shard's word block is empty.
    exact.preprocess.min_peaks = 10_000;
    let config = IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 4,
        threads: 2,
    };
    let in_memory = LibraryIndex::build(&library, config.clone());
    let path = temp_path("rejected");
    let report = StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 3,
        },
        &path,
        &library,
    )
    .expect("streaming build of all-rejected library");
    assert_eq!(report.build_stats.references_stored, 0);
    assert_eq!(report.build_stats.references_rejected, library.len());
    assert_eq!(report.spilled_bytes, 0);
    assert_eq!(fs::read(&path).unwrap(), in_memory.to_bytes());
    let loaded = LibraryIndex::open_mapped(&path, 2).expect("open all-rejected index");
    assert_eq!(loaded.build_stats(), in_memory.build_stats());
    fs::remove_file(&path).ok();
}

/// The HyperOMS-kind image (distinct encoder seed and preprocessing)
/// streams byte-identically too.
#[test]
fn hyperoms_kind_matches() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 8);
    let config = IndexConfig {
        kind: hyperoms_kind(TEST_DIM),
        entries_per_shard: 32,
        threads: 4,
    };
    let in_memory = LibraryIndex::build(&workload.library, config.clone());
    let streamed = stream_bytes(
        StreamingConfig {
            index: config,
            spill_threshold: 16,
        },
        &workload.library,
        "hyperoms",
    );
    assert_eq!(streamed, in_memory.to_bytes());
}

/// The RRAM kind exercises the analog encode path and the MLC section,
/// plus a non-zero mean encode BER in the header — the streaming
/// left-fold must reproduce it bit for bit.
#[test]
fn rram_kind_matches() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9);
    let config = IndexConfig {
        kind: rram_kind(TEST_DIM),
        entries_per_shard: 32,
        threads: 4,
    };
    let in_memory = LibraryIndex::build(&workload.library, config.clone());
    assert!(
        in_memory.build_stats().mean_encode_ber > 0.0,
        "RRAM build should record a non-zero encode BER"
    );
    let streamed = stream_bytes(
        StreamingConfig {
            index: config,
            spill_threshold: 13,
        },
        &workload.library,
        "rram",
    );
    assert_eq!(streamed, in_memory.to_bytes());
}

/// A streamed image is a first-class index: it opens, shards, and
/// searches identically to the in-memory build it mirrors.
#[test]
fn streamed_image_opens_and_searches() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 14);
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 64,
        threads: 4,
    };
    let in_memory = LibraryIndex::build(&workload.library, config.clone());
    let path = temp_path("search");
    StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 50,
        },
        &path,
        &workload.library,
    )
    .unwrap();
    let loaded = LibraryIndex::open_mapped(&path, 2).expect("open streamed index");
    assert_eq!(loaded, in_memory);

    let engine = Arc::new(Engine::from_index(loaded, 4).expect("an index wires its own kind"));
    let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    assert!(
        !outcome.accepted.is_empty(),
        "streamed index produced no PSMs"
    );
    fs::remove_file(&path).ok();
}

/// Structured configuration errors, not panics.
#[test]
fn invalid_configurations_are_rejected() {
    let _serial = serial();
    let path = temp_path("invalid-config");
    let config = StreamingConfig {
        spill_threshold: 0,
        ..Default::default()
    };
    let err = StreamingIndexBuilder::create(config, &path).expect_err("zero spill threshold");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");

    let mut config = StreamingConfig::default();
    config.index.entries_per_shard = 0;
    let err = StreamingIndexBuilder::create(config, &path).expect_err("zero entries_per_shard");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");

    let builder = StreamingIndexBuilder::create(StreamingConfig::default(), &path).unwrap();
    let err = builder.finish().expect_err("empty build");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");
    assert!(!path.exists(), "no image may exist after a failed build");
}

/// A spill file truncated between push and finish is rejected with a
/// structured error naming the spill, and the builder cleans up both the
/// spill and the temporary image.
#[test]
fn truncated_spill_is_structured_error() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 31);
    let path = temp_path("truncated");
    let mut builder = StreamingIndexBuilder::create(
        StreamingConfig {
            index: IndexConfig {
                kind: exact_kind(TEST_DIM),
                entries_per_shard: 64,
                threads: 2,
            },
            spill_threshold: 32,
        },
        &path,
    )
    .unwrap();
    builder.push_entries(workload.library.entries()).unwrap();
    let spill = builder.spill_path().to_path_buf();
    let len = fs::metadata(&spill).expect("spill exists").len();
    assert!(len > 0, "push must have spilled word blocks");

    // Simulate truncation (partial write loss, external tampering).
    let file = fs::OpenOptions::new().write(true).open(&spill).unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let err = builder.finish().expect_err("truncated spill accepted");
    match &err {
        IndexError::Invalid(message) => {
            assert!(message.contains("spill"), "unhelpful message: {message}")
        }
        other => panic!("expected IndexError::Invalid, got {other}"),
    }
    assert!(!path.exists(), "no image may exist after a failed finish");
    assert!(!spill.exists(), "failed builder must remove its spill file");
}

/// A spill file deleted out from under the builder surfaces as a
/// structured I/O error, and abandoning a builder removes its spill.
#[test]
fn missing_spill_is_structured_error() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 32);
    let path = temp_path("missing-spill");
    let streaming = StreamingConfig {
        index: IndexConfig {
            kind: exact_kind(TEST_DIM),
            entries_per_shard: 64,
            threads: 2,
        },
        spill_threshold: 32,
    };
    let mut builder = StreamingIndexBuilder::create(streaming.clone(), &path).unwrap();
    builder
        .push_entries(&workload.library.entries()[..10])
        .unwrap();
    fs::remove_file(builder.spill_path()).unwrap();
    let err = builder.finish().expect_err("missing spill accepted");
    assert!(matches!(err, IndexError::Io(_)), "got {err}");
    assert!(!path.exists());

    // Dropping an unfinished builder cleans up after itself.
    let builder = StreamingIndexBuilder::create(streaming, &path).unwrap();
    let spill = builder.spill_path().to_path_buf();
    assert!(spill.exists());
    drop(builder);
    assert!(!spill.exists(), "dropped builder must remove its spill");
}

/// A rename that cannot land — the output path is a non-empty directory
/// — fails both writers with a structured I/O error and leaves nothing
/// behind: the shared atomic writer removes its `.hdx.tmp` on every
/// error path, and the failed builder its `.hdx.spill`.
#[test]
fn failed_rename_leaves_no_temp_or_spill_behind() {
    let _serial = serial();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 33);
    let dir = std::env::temp_dir().join(format!("hdoms-streq-{}-rename", std::process::id()));
    let target = dir.join("lib.hdx");
    fs::create_dir_all(&target).unwrap();
    fs::write(target.join("occupant"), b"x").unwrap();
    let leftovers = || -> Vec<PathBuf> {
        let mut names: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        names.sort();
        names
    };

    let index = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 64,
        threads: 2,
    };
    let built = LibraryIndex::build(&workload.library, index.clone());
    let err = built.write(&target).expect_err("renamed over a directory");
    assert!(matches!(err, IndexError::Io(_)), "got {err}");
    assert_eq!(
        leftovers(),
        std::slice::from_ref(&target),
        "write left files behind"
    );

    let streaming = StreamingConfig {
        index,
        spill_threshold: 32,
    };
    let err = StreamingIndexBuilder::build_from_library(streaming, &target, &workload.library)
        .expect_err("renamed over a directory");
    assert!(matches!(err, IndexError::Io(_)), "got {err}");
    assert_eq!(
        leftovers(),
        std::slice::from_ref(&target),
        "finish left files behind"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The memory claim itself, counted rather than eyeballed: with a small
/// spill threshold the streaming build's peak live heap stays *below*
/// the encoded payload, while (a) the in-memory build-and-write path
/// exceeds the payload (it holds the whole reference table, plus the
/// side tables on top), and (b) raising the spill threshold to the library size drags
/// the streaming peak above the payload too — the threshold is the knob
/// that bounds it.
#[test]
fn streaming_peak_heap_is_bounded_by_spill_threshold() {
    let _serial = serial();
    // ~6k entries at dim 8192 → ~6.1 MB payload, comfortably above the
    // streaming side tables (the catalog, the `(mass, id)` table and the
    // spill offsets: ~70 B per entry plus its peptide, well under 1 MB)
    // and the encoder item memory (~1.4 MB).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.006), 5);
    let library = workload.library;
    let dim = 8192;
    let config = IndexConfig {
        kind: exact_kind(dim),
        entries_per_shard: 512,
        threads: 8,
    };

    // Both builds construct the same query encoder, whose item memories
    // (`num_bins × dim` bipolar bytes) are a fixed cost unrelated to the
    // library size. Measure it once so the assertions below bound the
    // *marginal*, library-dependent peak — same idiom as
    // `memory_sharing.rs`'s encoder baseline.
    let IndexedBackendKind::Exact(exact_config) = &config.kind else {
        panic!("built as exact");
    };
    let encoder_live = {
        let before = CountingAllocator::live();
        let encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact_config.encoder);
        let live = CountingAllocator::live().saturating_sub(before);
        drop(encoder);
        live
    };

    let streamed_path = temp_path("peak-stream");
    let (report, stream_peak) = CountingAllocator::peak_during(|| {
        StreamingIndexBuilder::build_from_library(
            StreamingConfig {
                index: config.clone(),
                spill_threshold: 256,
            },
            &streamed_path,
            &library,
        )
        .expect("streaming build")
    });
    // The encoded payload: exactly the hypervector bytes that went
    // through the spill (what the in-memory path keeps resident).
    let payload = report.spilled_bytes as usize;
    assert_eq!(
        report.build_stats.references_stored * dim.div_ceil(64) * 8,
        payload
    );
    fs::remove_file(&streamed_path).ok();

    let in_memory_path = temp_path("peak-inmem");
    let ((), in_memory_peak) = CountingAllocator::peak_during(|| {
        let index = LibraryIndex::build(&library, config.clone());
        index.write(&in_memory_path).expect("write index");
    });
    fs::remove_file(&in_memory_path).ok();

    let full_path = temp_path("peak-full");
    let ((), full_threshold_peak) = CountingAllocator::peak_during(|| {
        StreamingIndexBuilder::build_from_library(
            StreamingConfig {
                index: config,
                spill_threshold: library.len(),
            },
            &full_path,
            &library,
        )
        .expect("full-threshold streaming build");
    });
    fs::remove_file(&full_path).ok();

    let stream_marginal = stream_peak.saturating_sub(encoder_live);
    let in_memory_marginal = in_memory_peak.saturating_sub(encoder_live);
    let full_threshold_marginal = full_threshold_peak.saturating_sub(encoder_live);

    assert!(
        payload > 5_000_000,
        "workload too small to be meaningful: payload {payload}"
    );
    assert!(
        stream_marginal < payload,
        "streaming marginal peak {stream_marginal} (raw {stream_peak}, encoder \
         {encoder_live}) not below the {payload}-byte payload"
    );
    assert!(
        in_memory_marginal > payload,
        "in-memory marginal peak {in_memory_marginal} (raw {in_memory_peak}, encoder \
         {encoder_live}) unexpectedly below the {payload}-byte payload"
    );
    assert!(
        in_memory_marginal > stream_marginal + payload / 2,
        "streaming saved too little: in-memory {in_memory_marginal}, streaming \
         {stream_marginal}, payload {payload}"
    );
    assert!(
        full_threshold_marginal > stream_marginal + payload / 2,
        "raising the spill threshold to the library size should raise the peak by the \
         payload: full {full_threshold_marginal}, bounded {stream_marginal}, payload {payload}"
    );
}
