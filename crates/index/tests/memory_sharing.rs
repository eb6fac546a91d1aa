//! Memory regression tests for reference-hypervector storage:
//!
//! 1. identity — a warm backend's reference table is the *same storage*
//!    as the index's (`SharedReferences::ptr_eq`), for every backend
//!    kind;
//! 2. accounting — a counting global allocator bounds the bytes
//!    allocated during warm construction to a small fraction of the
//!    hypervector payload (the old cloning path allocated at least one
//!    full payload);
//! 3. zero-copy — the loader (`LibraryIndex::from_buffer` over a v2+
//!    file image) performs **zero** per-reference hypervector
//!    allocations: its allocation traffic is the catalog once and a
//!    stated number of bytes per entry for the fixed-width tables (it
//!    builds no sketch), and an engine over it allocates no candidate
//!    table of its own; a cold build's table is one flat heap buffer,
//!    not one allocation per reference; and `write` streams shard by
//!    shard instead of assembling the image (or any second copy of the
//!    payload) in memory;
//! 4. versioning — golden v1, v2 and v3 file images
//!    (`tests/fixtures/`) open from bytes in hand and through `mmap`
//!    with identical entries, search storage, derived sketches and
//!    search results, and `to_bytes()` reproduces the v3 file byte for
//!    byte once its legacy sketch section is spliced out;
//! 5. a bounded intake — an append encodes `ENCODE_CHUNK` entries a
//!    step into a table sized once, so its peak live heap is the
//!    finished table plus one step, never the whole encoded input beside
//!    the table.
//!
//! The golden images are what keeps the codec honest: every persisted
//! record is one `record!` field list in `src/format.rs` (its encoder,
//! its validating decoder and its docs/FORMAT.md row all come from it —
//! the unit test `every_record_row_is_in_the_document` holds the
//! document to the lists), every section sits in the one
//! `format::Frame`, and v1 and v2+ shard payloads go through the one
//! `format::decode_shard`; a round trip is symmetric in writer and
//! reader and would not see a field list drift, these files do. A
//! failure here means something started materialising references
//! again, or the on-disk layout drifted.
//!
//! The allocator counter is process-global, so every test that measures
//! it (or allocates heavily while another measures) serialises on one
//! mutex.

use hdoms_engine::Engine;
use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_obs::alloc::CountingAllocator;
use hdoms_oms::pipeline::{ReferenceCatalog, ReferenceMeta};
use hdoms_oms::search::{ExactBackendConfig, SharedReferences, ENCODE_CHUNK};
use hdoms_oms::window::PrecursorWindow;
use std::path::Path;
use std::sync::Mutex;

mod common;

/// The shared counting allocator; the windows below read its gross
/// counter (frees are not subtracted — gross allocation traffic is what
/// a clone would add to).
#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Serialises the tests in this binary: the counter above is global, so
/// a test allocating concurrently would inflate another's windows.
static ALLOCATOR_WINDOWS: Mutex<()> = Mutex::new(());

/// Bytes of hypervector words an index stores (the payload a clone would
/// duplicate).
fn payload_bytes(index: &LibraryIndex) -> usize {
    index
        .shared_references()
        .iter()
        .flatten()
        .map(|hv| hv.words().len() * 8)
        .sum()
}

fn ptr_eq(a: &SharedReferences, b: &SharedReferences) -> bool {
    SharedReferences::ptr_eq(a, b)
}

#[test]
fn warm_backends_share_not_clone_the_reference_table() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    // Large enough that the hypervector payload (~2.5 MB at dim 2048 ×
    // 10k entries) dwarfs every fixed cost of backend construction (the
    // encoder item memories are ~0.4 MB).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 99);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 2048;
    let index = LibraryIndex::build(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            entries_per_shard: 512,
            threads: 8,
        },
    );
    let payload = payload_bytes(&index);
    assert!(payload > 2_000_000, "workload too small to be meaningful");

    // Baseline: every warm constructor must build its query encoder, and
    // the encoder's item memories cost real allocation traffic. Measure
    // that once so the assertions below bound the *marginal* cost of
    // backend construction.
    let IndexedBackendKind::Exact(exact_config) = index.kind() else {
        panic!("built as exact");
    };
    let before = CountingAllocator::gross();
    let baseline_encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact_config.encoder);
    let encoder_alloc = CountingAllocator::gross() - before;
    drop(baseline_encoder);

    // -- accounting: warm construction must not re-allocate the payload.
    let before = CountingAllocator::gross();
    let backend = index.to_exact_backend(1).expect("exact kind");
    let allocated = (CountingAllocator::gross() - before).saturating_sub(encoder_alloc);
    assert!(
        allocated < payload / 4,
        "to_exact_backend allocated {allocated} bytes beyond its encoder \
         against a {payload}-byte payload — the reference table is being \
         cloned again"
    );

    // -- identity: same storage, and the handle count adds up.
    assert!(
        ptr_eq(index.shared_references(), backend.shared_references()),
        "backend holds a different reference table than the index"
    );
    assert_eq!(index.shared_references().handle_count(), 2);

    // The sharded serving backend shares the same single copy (its extra
    // state is the id→shard assignment, 4 bytes per entry).
    let before = CountingAllocator::gross();
    let sharded = index.sharded_backend(1).expect("exact kind");
    let allocated = (CountingAllocator::gross() - before).saturating_sub(encoder_alloc);
    assert!(
        allocated < payload / 4,
        "sharded_backend allocated {allocated} bytes beyond its encoder \
         against a {payload}-byte payload"
    );
    assert_eq!(index.shared_references().handle_count(), 3);
    drop(sharded);
    drop(backend);
    assert_eq!(index.shared_references().handle_count(), 1);

    // A serialise→load round-trip still shares with its own backends.
    let restored = LibraryIndex::from_bytes(&index.to_bytes(), 4).expect("roundtrip");
    let warm = restored.to_exact_backend(1).expect("exact kind");
    assert!(ptr_eq(
        restored.shared_references(),
        warm.shared_references()
    ));

    // The RRAM accelerator path shares too (identity check on a small
    // workload).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 100);
    let mut config = hdoms_core::accelerator::AcceleratorConfig::default();
    config.encoder.dim = 2048;
    config.encoder.q_levels = 16;
    config.encoder.level_style = hdoms_hdc::item_memory::LevelStyle::Chunked { num_chunks: 64 };
    let index = LibraryIndex::build(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Rram(config),
            entries_per_shard: 64,
            threads: 4,
        },
    );
    let accel = index.to_accelerator(2).expect("rram kind");
    assert!(ptr_eq(
        index.shared_references(),
        accel.search_engine().shared_references()
    ));
}

#[test]
fn warm_backends_share_the_encoder_and_the_programmed_weights() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    // What a backend encodes queries with — the ID/level item memories
    // and, for the RRAM kind, the programmed weight table — exists once
    // per index: the first hand-out builds it, every later one is a
    // handle on it.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 103);
    let mut rram = hdoms_core::accelerator::AcceleratorConfig::default();
    rram.encoder.dim = 2048;
    rram.encoder.q_levels = 16;
    rram.encoder.level_style = hdoms_hdc::item_memory::LevelStyle::Chunked { num_chunks: 64 };
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 2048;
    let before = CountingAllocator::gross();
    drop(hdoms_hdc::encoder::IdLevelEncoder::new(exact.encoder));
    let item_memory_bytes = CountingAllocator::gross() - before;

    for kind in [
        IndexedBackendKind::Rram(rram),
        IndexedBackendKind::Exact(exact),
    ] {
        let name = kind.name();
        let path = std::env::temp_dir().join(format!(
            "hdoms-shared-encoder-{name}-{}.hdx",
            std::process::id()
        ));
        let config = IndexConfig {
            kind,
            entries_per_shard: 64,
            threads: 4,
        };
        let built = LibraryIndex::build(&workload.library, config);
        built.write(&path).expect("write");
        let index = LibraryIndex::open_mapped(&path, 2).expect("mapped load");
        std::fs::remove_file(&path).ok();

        let first = index.sharded_backend(2).expect("kind matches");
        let before = CountingAllocator::gross();
        let second = index.sharded_backend(2).expect("kind matches");
        // The flat backends after them, and what each must not copy.
        let shared_bytes = match index.mlc_state() {
            Some(mlc) => {
                let accel = index.to_accelerator(2).expect("rram kind");
                assert!(
                    std::sync::Arc::ptr_eq(&mlc.w_eff, accel.encoder().programmed_weights()),
                    "the accelerator encodes with a copy of the persisted weights"
                );
                mlc.w_eff.len() * 4
            }
            None => {
                let (a, b) = (index.to_exact_backend(1), index.to_exact_backend(2));
                let (a, b) = (a.expect("exact kind"), b.expect("exact kind"));
                assert!(
                    std::ptr::eq(a.encoder(), b.encoder()),
                    "two exact backends of one index generated two item memories"
                );
                item_memory_bytes
            }
        };
        let allocated = CountingAllocator::gross() - before;
        assert!(
            allocated < shared_bytes / 100,
            "{name}: the backends after the first allocated {allocated} bytes against \
             {shared_bytes} shared — the encoder is being regenerated or its weights cloned"
        );
        drop((first, second));
    }
}

#[test]
fn mapped_load_performs_zero_per_reference_hypervector_allocations() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 101);
    let mut exact = ExactBackendConfig::default();
    // A dimension high enough that the hypervector payload dwarfs the
    // per-entry metadata (peptides, shard vectors, the offset table) —
    // what separates "allocates the payload" from "allocates only
    // metadata" unambiguously.
    exact.encoder.dim = 4096;
    let index = LibraryIndex::build(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            entries_per_shard: 512,
            threads: 8,
        },
    );
    let payload = payload_bytes(&index);
    assert!(payload > 4_000_000, "workload too small to be meaningful");
    let bytes = index.to_bytes();

    // What a load may allocate, stated. The catalog once: its peptides
    // cost real traffic, measured here as a cold capture of the same
    // table. No sketch: a search derives it on first use.
    let before = CountingAllocator::gross();
    let baseline_catalog = ReferenceMeta::from_library(&workload.library);
    let catalog_alloc = CountingAllocator::gross() - before;
    assert_eq!(*index.catalog(), baseline_catalog);
    // Per entry, the fixed-width tables: the `(mass, id)` table (16 B),
    // the word offsets (8), id → shard (4), precursor m/z (8) and charge
    // (1) — the last two are the catalog's own column pair, so the
    // capture above already counts them. The rest is per shard and per
    // load, well inside 64 KiB. The loader used to decode a 48-byte
    // record and a second copy of the peptide per entry besides.
    const PER_ENTRY: usize = 16 + 8 + 4;
    let budget = catalog_alloc + PER_ENTRY * index.entry_count() + (64 << 10);

    // Build the backing buffer *outside* the measurement window: the one
    // whole-file allocation is the load's input.
    let buffer = hdoms_hdc::WordBuffer::from_bytes(&bytes);

    let before = CountingAllocator::gross();
    let mapped = LibraryIndex::from_buffer(buffer, 4).expect("mapped load");
    let mapped_alloc = CountingAllocator::gross() - before;

    // Zero per-reference hypervector allocations, and one home per entry
    // fact: the load's traffic stays inside the stated budget, far below
    // the payload it would have materialised.
    assert!(
        mapped_alloc <= budget && budget < payload / 2,
        "mapped load allocated {mapped_alloc} bytes against a budget of {budget} \
         ({catalog_alloc} catalog + {PER_ENTRY} B × {} entries \
         + 64 KiB) and a {payload}-byte hypervector payload",
        index.entry_count()
    );

    // An engine over the index searches the index's own candidate table:
    // a handle on it, no `(mass, id)` table of its own.
    let table_bytes = 16 * mapped.entry_count();
    // The kind's one backend (its item memories) is built on first use.
    drop(mapped.sharded_backend(1).expect("exact kind"));
    let engine_index = mapped.clone();
    let before = CountingAllocator::gross();
    let engine = Engine::from_index(engine_index, 1).expect("exact kind");
    let engine_alloc = CountingAllocator::gross() - before;
    assert!(
        engine_alloc < table_bytes / 10,
        "Engine::from_index allocated {engine_alloc} bytes against a \
         {table_bytes}-byte candidate table — it is building its own"
    );
    drop(engine);

    // The image and the cold build expose identical search storage and
    // metadata, whichever buffer the words live in.
    assert_eq!(mapped, index);
    assert_eq!(mapped.shared_references(), index.shared_references());
    assert_eq!(
        LibraryIndex::from_bytes(&bytes, 4).expect("heap load"),
        mapped
    );

    // Warm backends over the mapped index share the buffer, not copies.
    let backend = mapped.to_exact_backend(1).expect("exact kind");
    assert!(ptr_eq(
        mapped.shared_references(),
        backend.shared_references()
    ));
    assert_eq!(mapped.shared_references().handle_count(), 2);
}

#[test]
fn cold_table_is_one_buffer_and_write_streams_shard_by_shard() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 102);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 4096;
    let index = LibraryIndex::build(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            entries_per_shard: 512,
            threads: 8,
        },
    );
    let payload = payload_bytes(&index);
    assert!(payload > 4_000_000, "workload too small to be meaningful");

    // A cold build packs its encodings into one heap buffer holding the
    // payload and nothing else: the words of consecutive present ids are
    // adjacent, not one allocation each.
    let table = index.shared_references();
    assert!(!table.is_mapped());
    assert_eq!(table.buffer().len(), payload);
    let offsets: Vec<u64> = (0..table.len())
        .filter_map(|id| table.offset_of(id))
        .collect();
    assert!(offsets
        .windows(2)
        .all(|pair| pair[1] == pair[0] + table.hv_bytes() as u64));

    let path = std::env::temp_dir().join(format!("hdoms-write-alloc-{}.hdx", std::process::id()));
    let before = CountingAllocator::gross();
    index.write(&path).expect("write");
    let write_alloc = CountingAllocator::gross() - before;
    let written = std::fs::read(&path).expect("written image");
    std::fs::remove_file(&path).ok();
    // One shard's payload at a time through one reused buffer — the old
    // writer held every serialised shard plus the assembled image, two
    // payloads' worth.
    assert!(
        write_alloc < payload / 2,
        "write allocated {write_alloc} bytes against a {payload}-byte \
         hypervector payload — it is assembling the image in memory"
    );
    assert_eq!(written, index.to_bytes());
}

#[test]
fn golden_v1_v2_and_v3_images_decode_alike() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    // The writer emits v3 only, so v1/v2 decode is pinned by images
    // written once by the last commit that could write them (a dozen
    // tiny-workload entries, targets and decoys, dim 512, three shards).
    // A round-trip test cannot catch a layout drift — it is symmetric
    // in writer and reader — these files can.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let path = |version: u32| fixtures.join(format!("v{version}.hdx"));
    let copied: Vec<LibraryIndex> = (1..=3)
        .map(|v| {
            let image = std::fs::read(path(v)).expect("fixture readable");
            LibraryIndex::from_bytes(&image, 4).expect("heap load")
        })
        .collect();
    let mapped: Vec<LibraryIndex> = (1..=3)
        .map(|v| LibraryIndex::open_mapped(&path(v), 2).expect("mapped open"))
        .collect();

    let golden = &copied[0];
    assert_eq!(golden.entry_count(), 12);
    assert_eq!(golden.dim(), 512);
    assert_eq!(golden.shards().len(), 3);
    let catalog = golden.catalog();
    let decoys = (0..12).filter(|&id| catalog.reference_is_decoy(id) == Some(true));
    assert_eq!(decoys.count(), 6);
    let (_, lightest) = golden.candidate_index().pairs()[0];
    assert_eq!(catalog.peptides()[lightest as usize], "IVENNDSR");
    assert_eq!(golden.shared_references().present_count(), 12);
    for index in copied.iter().chain(&mapped) {
        assert_eq!(index.candidate_index(), golden.candidate_index());
        assert_eq!(index.shared_references(), golden.shared_references());
        assert_eq!(index, golden);
    }

    // A v1 image's unaligned words are repacked into a heap buffer even
    // when the file was mapped; v2 and v3 are searched in place, inside
    // the mapping when `open_mapped` really maps (the `mmap` feature).
    // Bytes in hand are never a mapping, whatever the version.
    let maps = cfg!(all(unix, target_pointer_width = "64", feature = "mmap"));
    assert!(!mapped[0].shared_references().is_mapped());
    assert_eq!(mapped[1].shared_references().is_mapped(), maps);
    assert_eq!(mapped[2].shared_references().is_mapped(), maps);
    assert!(copied.iter().all(|i| !i.shared_references().is_mapped()));

    // One loader under both opens: the same index, the same rows.
    let queries = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7).queries;
    let rows = |index: &LibraryIndex| {
        let engine = Engine::from_index(index.clone(), 2).expect("kind matches");
        let window = PrecursorWindow::open_default();
        std::sync::Arc::new(engine)
            .search(&queries, window, 0.01)
            .0
            .psms
    };
    let golden_rows = rows(golden);
    assert!(
        !golden_rows.is_empty(),
        "the golden library matches nothing"
    );
    for (heap, mapped) in copied.iter().zip(&mapped) {
        assert_eq!(heap, mapped);
        assert_eq!(rows(heap), golden_rows);
        assert_eq!(rows(mapped), golden_rows);
    }

    // Every version derives one sketch from its references — the v3
    // image's stored section is verified and dropped.
    assert_eq!(mapped[0].sketch_index(), mapped[2].sketch_index());
    assert_eq!(mapped[1].sketch_index(), mapped[2].sketch_index());

    // Today's writer reproduces the v3 file with its sketch frame spliced
    // out and `header.sketch_len` zeroed — from the opened v3 image, and
    // from the older images (the upgrade path): the section is the only
    // byte that moved. The same holds for the v3 image an append of an
    // earlier release wrote.
    let v3 = std::fs::read(path(3)).expect("v3 fixture");
    let written = common::without_sketch(&v3);
    for index in copied.iter().chain(&mapped) {
        assert_eq!(index.to_bytes(), written);
    }
    let append = fixtures.join("v3-append.hdx");
    let appended = LibraryIndex::open_mapped(&append, 2).expect("the append fixture opens");
    let image = std::fs::read(&append).expect("v3-append fixture");
    assert_eq!(appended.to_bytes(), common::without_sketch(&image));
}

#[test]
fn an_append_holds_the_table_and_one_step_of_hypervectors() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    // Three and a half steps of entries at a dimension whose words
    // outweigh an entry's bookkeeping: an append that encoded them all
    // before packing (it used to) holds 3.5 steps of transient
    // hypervectors beside the table, the bound below allows one.
    let library = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 104).library;
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 2048;
    let config = IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 4096,
        threads: 2,
    };
    let mut index = LibraryIndex::build(&library, config);
    let more: Vec<_> = (library.entries().iter().cycle())
        .take(3 * ENCODE_CHUNK + ENCODE_CHUNK / 2)
        .cloned()
        .collect();
    let ((), peak) = CountingAllocator::peak_during(|| index.append_entries(&more, 2));
    assert_eq!(index.entry_count(), library.len() + more.len());

    // The finished table's words, one step of transient hypervectors,
    // and the stated slack: 48 B per slot of a step (the map's one slot
    // vector, 40 B a slot, plus 8 B for the workers' transient buffers)
    // and 12 B per entry for the tables an append grows (word offsets,
    // the `(mass, id)` table merged in place and its id column). The
    // append peaks 0.70 MB above table and step, 42 kB under this slack;
    // one that concatenated the old and new pairs and re-sorted the copy
    // peaked 1.17 MB above, and a map that gathered each worker's results
    // and then reordered them 1.37 MB above.
    let words = payload_bytes(&index);
    let step = ENCODE_CHUNK * index.shared_references().hv_bytes();
    let slack = ENCODE_CHUNK * 48 + 12 * index.entry_count();
    assert!(
        peak <= words + step + slack,
        "the append peaked at {peak} live bytes against {words} B of table words, \
         a {step}-byte step and {slack} B of slack — it holds more than one step \
         of encoded entries beside the table"
    );
}
