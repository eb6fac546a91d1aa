//! Memory regression tests for reference-hypervector storage:
//!
//! 1. identity — a warm backend's reference table is the *same storage*
//!    as the index's (`SharedReferences::ptr_eq`), for every backend
//!    kind;
//! 2. accounting — a counting global allocator bounds the bytes
//!    allocated during warm construction to a small fraction of the
//!    hypervector payload (the old cloning path allocated at least one
//!    full payload);
//! 3. zero-copy — the mapped load path (`LibraryIndex::from_buffer`
//!    over a v2 file image) performs **zero** per-reference hypervector
//!    allocations: its allocation traffic is bounded by the metadata,
//!    and the copying path exceeds it by at least the full payload;
//! 4. versioning — golden v1, v2 and v3 file images
//!    (`tests/fixtures/`) open on both paths with identical entries and
//!    search storage, the v3 sketch section matches the on-the-fly
//!    derivation older images fall back to, and `to_bytes()` reproduces
//!    the v3 file byte for byte.
//!
//! The allocator counter is process-global, so every test that measures
//! it (or allocates heavily while another measures) serialises on one
//! mutex.

use hdoms_index::{IndexBuilder, IndexConfig, IndexReader, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::search::{ExactBackendConfig, SharedReferences};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts every byte ever requested from the allocator (frees are not
/// subtracted — the measurement below wants gross allocation traffic,
/// which is what a clone would add to).
struct CountingAllocator;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

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
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 512,
        threads: 8,
    })
    .from_library(&workload.library);
    let payload = payload_bytes(&index);
    assert!(payload > 2_000_000, "workload too small to be meaningful");

    // Baseline: every warm constructor must build its query encoder, and
    // the encoder's item memories cost real allocation traffic. Measure
    // that once so the assertions below bound the *marginal* cost of
    // backend construction.
    let IndexedBackendKind::Exact(exact_config) = index.kind() else {
        panic!("built as exact");
    };
    let before = ALLOCATED.load(Ordering::Relaxed);
    let baseline_encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact_config.encoder);
    let encoder_alloc = ALLOCATED.load(Ordering::Relaxed) - before;
    drop(baseline_encoder);

    // -- accounting: warm construction must not re-allocate the payload.
    let before = ALLOCATED.load(Ordering::Relaxed);
    let backend = index.to_exact_backend(1).expect("exact kind");
    let allocated = (ALLOCATED.load(Ordering::Relaxed) - before).saturating_sub(encoder_alloc);
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
    let before = ALLOCATED.load(Ordering::Relaxed);
    let sharded = index.sharded_backend(1).expect("exact kind");
    let allocated = (ALLOCATED.load(Ordering::Relaxed) - before).saturating_sub(encoder_alloc);
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
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Rram(config),
        entries_per_shard: 64,
        threads: 4,
    })
    .from_library(&workload.library);
    let accel = index.to_accelerator(2).expect("rram kind");
    assert!(ptr_eq(
        index.shared_references(),
        accel.search_engine().shared_references()
    ));
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
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 512,
        threads: 8,
    })
    .from_library(&workload.library);
    let payload = payload_bytes(&index);
    assert!(payload > 4_000_000, "workload too small to be meaningful");
    let bytes = index.to_bytes();

    // Build the backing buffer *outside* the measurement window: the one
    // whole-file allocation is the load's input, exactly as the bytes
    // slice is the copying path's input.
    let buffer = hdoms_hdc::WordBuffer::from_bytes(&bytes);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let mapped = LibraryIndex::from_buffer(buffer, 4).expect("mapped load");
    let mapped_alloc = ALLOCATED.load(Ordering::Relaxed) - before;

    let before = ALLOCATED.load(Ordering::Relaxed);
    let copied = LibraryIndex::from_bytes(&bytes, 4).expect("copying load");
    let copied_alloc = ALLOCATED.load(Ordering::Relaxed) - before;

    assert!(mapped.shared_references().is_mapped());
    assert!(!copied.shared_references().is_mapped());
    // Zero per-reference hypervector allocations: the mapped load's
    // traffic stays far below the payload it would have materialised…
    assert!(
        mapped_alloc < payload / 2,
        "mapped load allocated {mapped_alloc} bytes against a \
         {payload}-byte hypervector payload — it is materialising \
         references"
    );
    // …and the copying load pays at least the full payload on top of
    // the identical metadata work.
    assert!(
        copied_alloc >= mapped_alloc + payload,
        "copying load ({copied_alloc} B) should exceed the mapped load \
         ({mapped_alloc} B) by the payload ({payload} B)"
    );

    // Both representations expose identical search storage and
    // metadata.
    assert_eq!(mapped, copied);
    assert_eq!(mapped.shared_references(), index.shared_references());

    // Warm backends over the mapped index share the buffer, not copies.
    let backend = mapped.to_exact_backend(1).expect("exact kind");
    assert!(ptr_eq(
        mapped.shared_references(),
        backend.shared_references()
    ));
    assert_eq!(mapped.shared_references().handle_count(), 2);
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
        .map(|v| IndexReader::open(&path(v)).expect("copying open"))
        .collect();
    let mapped: Vec<LibraryIndex> = (1..=3)
        .map(|v| LibraryIndex::open_mapped(&path(v), 2).expect("mapped open"))
        .collect();

    let golden = &copied[0];
    assert_eq!(golden.entry_count(), 12);
    assert_eq!(golden.dim(), 512);
    assert_eq!(golden.shards().len(), 3);
    assert_eq!(golden.entries().filter(|e| e.is_decoy).count(), 6);
    assert_eq!(golden.entries().next().unwrap().peptide, "IVENNDSR");
    assert_eq!(golden.shared_references().present_count(), 12);
    for index in copied.iter().chain(&mapped) {
        assert!(index.entries().eq(golden.entries()));
        assert_eq!(index.shared_references(), golden.shared_references());
        assert_eq!(index, golden);
    }

    // The mapped loader accepts a v1 image via the documented copying
    // fallback; v2 and v3 are searchable in place.
    assert!(!mapped[0].shared_references().is_mapped());
    assert!(mapped[1].shared_references().is_mapped());
    assert!(mapped[2].shared_references().is_mapped());
    assert!(copied.iter().all(|i| !i.shared_references().is_mapped()));

    // A v1/v2 image carries no sketch section; deriving it on the fly
    // must produce exactly the table the v3 image persisted.
    assert_eq!(mapped[0].sketch_index(), mapped[2].sketch_index());
    assert_eq!(mapped[1].sketch_index(), mapped[2].sketch_index());

    // Today's writer reproduces the v3 file byte for byte — from the
    // opened v3 image, and from the older images (the upgrade path).
    let v3 = std::fs::read(path(3)).expect("v3 fixture");
    for index in copied.iter().chain(&mapped) {
        assert_eq!(index.to_bytes(), v3);
    }
}
