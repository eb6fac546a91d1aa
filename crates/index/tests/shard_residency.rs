//! Shard residency: per-shard word footprints and page release.
//!
//! 1. accounting — `shard_word_bytes` sums to exactly the bytes the
//!    stored hypervectors occupy, shard by shard;
//! 2. heap no-op — an index whose table lives in a heap buffer (cold
//!    built, or read from a file without `mmap`) releases nothing and
//!    does not call itself mapped, so the serve layer never tracks it;
//! 3. release + reload — a file-mapped index releases whole pages for a
//!    cold shard and every hypervector read afterwards is byte-identical
//!    (the words refault from the backing file), so eviction can never
//!    change search results.

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

/// A small index whose shards each span several pages (dim 4096 → 512
/// bytes per hypervector, 64 entries per shard → 32 KiB spans; the runt
/// final shard still spans at least two pages).
fn build_index() -> LibraryIndex {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 11);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 2,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 4096;
    }
    LibraryIndex::build(&workload.library, config)
}

/// All stored hypervector words, densely by id, for byte-identity
/// comparison across a release.
#[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
fn words_by_id(index: &LibraryIndex) -> Vec<Option<Vec<u64>>> {
    (0..index.entry_count())
        .map(|id| {
            index
                .shared_references()
                .hv(id)
                .map(|hv| hv.words().to_vec())
        })
        .collect()
}

#[test]
fn shard_word_bytes_account_for_every_stored_hypervector() {
    let index = build_index();
    let per_shard = index.shard_word_bytes();
    assert_eq!(per_shard.len(), index.shards().len());
    let hv_bytes = (index.dim().div_ceil(64) * 8) as u64;
    let present = index.shared_references().present_count() as u64;
    assert_eq!(per_shard.iter().sum::<u64>(), present * hv_bytes);
    assert!(per_shard.iter().all(|&b| b > 0), "every shard holds words");
}

#[test]
fn owned_indexes_release_nothing() {
    let index = build_index();
    let heap_read = LibraryIndex::from_bytes(&index.to_bytes(), 2).unwrap();
    for index in [&index, &heap_read] {
        assert!(!index.shared_references().is_mapped());
        for shard in 0..index.shards().len() {
            assert_eq!(index.release_shard_words(shard), 0);
        }
        assert_eq!(index.release_shard_words(usize::MAX), 0, "unknown shard");
    }
}

// Without `mmap`, `open_mapped` reads the file onto the heap: a table
// the test above covers.
#[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
#[test]
fn released_shards_reload_byte_identically() {
    let index = build_index();
    let path =
        std::env::temp_dir().join(format!("hdoms-shard-residency-{}.hdx", std::process::id()));
    index.write(&path).unwrap();
    let mapped = LibraryIndex::open_mapped(&path, 2).unwrap();
    assert!(mapped.shared_references().is_mapped());

    let before = words_by_id(&mapped);
    let footprints = mapped.shard_word_bytes();
    for (shard, footprint) in footprints.iter().enumerate() {
        let released = mapped.release_shard_words(shard);
        // Release trims inward to whole pages, so a span at least two
        // pages long must give some pages back, and the page-aligned
        // interior can never exceed the span itself.
        if *footprint >= 2 * 4096 {
            assert!(released > 0, "shard {shard} spans pages but released 0");
        }
        assert!(released as u64 <= *footprint);
    }
    assert_eq!(mapped.release_shard_words(usize::MAX), 0, "unknown shard");

    // Every word refaults from the file: reads after the release are
    // byte-identical, so eviction is invisible to search results.
    assert_eq!(words_by_id(&mapped), before);
    std::fs::remove_file(&path).ok();
}
