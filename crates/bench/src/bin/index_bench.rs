//! Index lifecycle benchmark with a machine-readable JSON summary.
//!
//! Measures, on an iPRG2012-shaped workload:
//!
//! * `cold_build_s` — one-time library encoding (what every search paid
//!   before the persistent index existed),
//! * `warm_load_s` — decoding + checksum-verifying the serialised index
//!   from bytes already in memory (one copy into an aligned buffer, then
//!   the one loader),
//! * `load_speedup` — cold build / warm load (the PR-1 acceptance bar
//!   was ≥ 5×),
//! * `load_ms_heap` — a real file open through `LibraryIndex::open`: read
//!   the file into one heap buffer, checksum, decode shard metadata,
//! * `load_ms_mapped` — the same loader over an `mmap` of the file
//!   (`LibraryIndex::open_mapped`): the words are searched in place
//!   either way, only where the buffer's bytes live differs,
//! * `mapped_speedup` — `load_ms_heap / load_ms_mapped` (the read the
//!   mapping saves; both sweep the image once for the checksums),
//! * `rss_ratio_heap` / `rss_ratio_mapped` — peak live heap during the
//!   load divided by the index image size (the heap read holds the image
//!   once, ≈ 1; the mapped open holds shard metadata only when `mmap` is
//!   enabled — the default — since the words stay in the page cache),
//! * `qps_unsharded` / `qps_sharded` / `qps_mapped` — open-search
//!   throughput through the flat, shard-parallel, and mapped
//!   shard-parallel backends,
//! * `psms_identical` — whether every path (cold, warm flat, warm
//!   sharded, mapped) produced byte-identical hits.
//!
//! The JSON object is printed as the **last line** of stdout so future
//! PRs can track the perf trajectory with `... | tail -1 | <tool>`.
//!
//! Usage: `index_bench [--scale <f64>] [--seed <u64>] [--dim <usize>]`

use hdoms_bench::FigureOptions;
use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::preprocess::Preprocessor;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::search::{candidate_lists, ExactBackendConfig, SimilarityBackend};
use hdoms_oms::window::PrecursorWindow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const THREADS: usize = 8;

/// Tracks live heap bytes and the high-water mark, so a load's peak
/// resident cost is measurable without OS introspection.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size.saturating_sub(layout.size()));
        if new_size < layout.size() {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static PEAK_ALLOC: PeakAllocator = PeakAllocator;

/// Run `load`, returning (result, seconds, peak live-heap delta).
fn measure<T>(load: impl FnOnce() -> T) -> (T, f64, usize) {
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let start = Instant::now();
    let value = load();
    let seconds = start.elapsed().as_secs_f64();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(live_before);
    (value, seconds, peak)
}

fn main() {
    let options = FigureOptions::parse(0.01, 2048);
    let workload =
        SyntheticWorkload::generate(&WorkloadSpec::iprg2012(options.scale), options.seed);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = options.dim;
    let builder = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 512,
        threads: THREADS,
    });

    // Cold build: the one-time library encoding.
    let start = Instant::now();
    let index = builder.from_library(&workload.library);
    let cold_build_s = start.elapsed().as_secs_f64();
    let bytes = index.to_bytes();

    // Warm load from bytes in memory: copy into place, decode + verify.
    let start = Instant::now();
    let loaded = LibraryIndex::from_bytes(&bytes, THREADS).expect("index bytes are valid");
    let warm_load_s = start.elapsed().as_secs_f64();
    let load_speedup = cold_build_s / warm_load_s.max(1e-9);

    // Heap read vs `mmap` under the one loader, as real file opens of
    // one image (the page cache is warm from the write), with peak-heap
    // accounting. Best of three: both are deterministic, so the minimum
    // is the measurement and the spread is scheduler noise. Both sweep
    // the image once for the checksums; the heap read additionally
    // copies it in, and holds it.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hdoms-index-bench-{}.hdx", std::process::id()));
    std::fs::write(&path, &bytes).expect("write image");
    let (mut heap_s, mut heap_peak) = (f64::INFINITY, usize::MAX);
    let (mut mapped_s, mut mapped_peak) = (f64::INFINITY, usize::MAX);
    let mut mapped = None;
    for _ in 0..3 {
        let (heap, s, peak) =
            measure(|| LibraryIndex::open(&path, THREADS).expect("heap-read open"));
        (heap_s, heap_peak) = (heap_s.min(s), heap_peak.min(peak));
        drop(heap);
        let (m, s, peak) =
            measure(|| LibraryIndex::open_mapped(&path, THREADS).expect("mapped open"));
        (mapped_s, mapped_peak) = (mapped_s.min(s), mapped_peak.min(peak));
        mapped = Some(m);
    }
    let mapped = mapped.expect("three rounds ran");
    assert!(mapped.shared_references().is_mapped());
    std::fs::remove_file(&path).ok();
    let load_ms_heap = heap_s * 1e3;
    let load_ms_mapped = mapped_s * 1e3;
    let mapped_speedup = heap_s / mapped_s.max(1e-9);
    let rss_ratio_heap = heap_peak as f64 / bytes.len() as f64;
    let rss_ratio_mapped = mapped_peak as f64 / bytes.len() as f64;

    // Search throughput, flat vs sharded vs mapped, over identical
    // candidates.
    let pre = Preprocessor::default();
    let (queries, _) = pre.run_batch(&workload.queries);
    let cand_index = CandidateIndex::from_masses(loaded.entries().map(|e| (e.neutral_mass, e.id)));
    let cands = candidate_lists(&cand_index, &PrecursorWindow::open_default(), &queries);

    let flat = loaded.to_exact_backend(THREADS).expect("exact kind");
    let sharded = loaded.sharded_backend(THREADS).expect("exact kind");
    let mapped_sharded = mapped.sharded_backend(THREADS).expect("exact kind");

    let time_search = |backend: &dyn SimilarityBackend| {
        // One warm-up pass, then the timed pass.
        let _ = backend.search_batch(&queries, &cands);
        let start = Instant::now();
        let hits = backend.search_batch(&queries, &cands);
        (start.elapsed().as_secs_f64(), hits)
    };
    let (flat_s, flat_hits) = time_search(&flat);
    let (sharded_s, sharded_hits) = time_search(&sharded);
    let (mapped_search_s, mapped_hits) = time_search(&mapped_sharded);
    let qps_unsharded = queries.len() as f64 / flat_s.max(1e-9);
    let qps_sharded = queries.len() as f64 / sharded_s.max(1e-9);
    let qps_mapped = queries.len() as f64 / mapped_search_s.max(1e-9);
    let psms_identical = flat_hits == sharded_hits && flat_hits == mapped_hits;

    println!(
        "== index bench ({}, dim {}) ==",
        workload.spec.name, options.dim
    );
    println!("references        {:>10}", loaded.entry_count());
    println!("shards            {:>10}", loaded.shards().len());
    println!("index size        {:>10} bytes", bytes.len());
    println!("cold build        {cold_build_s:>10.3} s");
    println!("warm load         {warm_load_s:>10.3} s   ({load_speedup:.1}x faster)");
    println!("heap-read load    {load_ms_heap:>10.3} ms  (peak heap {rss_ratio_heap:.2}x image)");
    println!(
        "mapped load       {load_ms_mapped:>10.3} ms  (peak heap {rss_ratio_mapped:.2}x image, \
         {mapped_speedup:.1}x faster than the heap read)"
    );
    println!("search unsharded  {:>10.1} queries/s", qps_unsharded);
    println!("search sharded    {:>10.1} queries/s", qps_sharded);
    println!("search mapped     {:>10.1} queries/s", qps_mapped);
    println!("identical PSMs    {psms_identical:>10}");
    if load_speedup < 5.0 {
        eprintln!("WARNING: warm load is below the 5x acceptance bar");
    }

    // Machine-readable trailer (hand-rolled: no JSON crate resolves
    // offline).
    println!(
        "{{\"bench\":\"index\",\"workload\":\"{}\",\"dim\":{},\"scale\":{},\"seed\":{},\
         \"references\":{},\"shards\":{},\"index_bytes\":{},\
         \"cold_build_s\":{:.6},\"warm_load_s\":{:.6},\"load_speedup\":{:.3},\
         \"load_ms_heap\":{:.3},\"load_ms_mapped\":{:.3},\"mapped_speedup\":{:.3},\
         \"rss_ratio_heap\":{:.3},\"rss_ratio_mapped\":{:.3},\
         \"qps_unsharded\":{:.3},\"qps_sharded\":{:.3},\"qps_mapped\":{:.3},\
         \"psms_identical\":{}}}",
        workload.spec.name,
        options.dim,
        options.scale,
        options.seed,
        loaded.entry_count(),
        loaded.shards().len(),
        bytes.len(),
        cold_build_s,
        warm_load_s,
        load_speedup,
        load_ms_heap,
        load_ms_mapped,
        mapped_speedup,
        rss_ratio_heap,
        rss_ratio_mapped,
        qps_unsharded,
        qps_sharded,
        qps_mapped,
        psms_identical,
    );
}
