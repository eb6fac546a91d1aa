//! Library-scale benchmark: streaming index builds over synthetic
//! scaled libraries, measured where the in-memory builder stops being an
//! option.
//!
//! For each requested library size the bench generates a
//! [`ScaledLibrary`] (deterministic peak-permutation + intensity
//! augmentation over the `tiny` preset), streams it straight into a
//! `.hdx` image via [`StreamingIndexBuilder::build_from_iter`] — the
//! library is never materialised — and reports:
//!
//! * `build_ms` — wall-clock of the streaming build (generate + encode
//!   + spill + assemble),
//! * `peak_heap_bytes` — live-heap high-water during the build, from
//!   the counting global allocator (the bound the spill threshold buys),
//! * `peak_rss_bytes` — the process `VmHWM` after the build (0 where
//!   `/proc/self/status` is unavailable; monotonic across scales, so
//!   read it per scale in ascending order),
//! * `index_bytes` — the finished image size,
//! * `mapped_open_ms` — zero-copy [`LibraryIndex::open_mapped`] time
//!   (best of three): opens must not scale with the payload,
//! * `qps` / `qps_prefilter` — open-search throughput through the
//!   mapped shard-parallel engine, without and with the sketch
//!   prefilter cascade — the first bench where the cascade runs over an
//!   index that can meaningfully exceed RAM.
//!
//! `--smoke true` turns the run into a CI gate: it asserts the
//! streaming build's peak heap — net of the fixed encoder item
//! memories, which both build paths hold identically — stays **below
//! the encoded payload** (counted, not eyeballed; the side tables are
//! ~100 bytes/reference, so use `--dim` ≥ 4096 for the payload to
//! dominate) and that the mapped open + search produce hits. `--verify true` additionally
//! rebuilds the **smallest** scale with the in-memory builder and
//! asserts the two images are byte-identical.
//!
//! The JSON object is printed as the **last line** of stdout.
//!
//! Usage: `scale_bench [--scales <n1,n2,..>] [--dim <usize>]
//!         [--seed <u64>] [--threads <usize>] [--spill-threshold <usize>]
//!         [--smoke true] [--verify true]`

use hdoms_engine::Engine;
use hdoms_index::{
    IndexConfig, IndexedBackendKind, LibraryIndex, StreamingConfig, StreamingIndexBuilder,
};
use hdoms_ms::dataset::{ScaledLibrary, ScaledLibrarySpec, SyntheticWorkload, WorkloadSpec};
use hdoms_obs::alloc::CountingAllocator;
use hdoms_oms::search::ExactBackendConfig;
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, DEFAULT_TOP_K};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// FDR threshold for the throughput searches.
const FDR: f64 = 0.01;

/// Live heap bytes and their high-water mark make the streaming build's
/// peak residency measurable without OS introspection.
#[global_allocator]
static PEAK_ALLOC: CountingAllocator = CountingAllocator;

/// Run `f`, returning (result, seconds, peak live-heap delta).
fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    let start = Instant::now();
    let (value, peak) = CountingAllocator::peak_during(f);
    (value, start.elapsed().as_secs_f64(), peak)
}

/// The process peak resident set (`VmHWM`) in bytes, or 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

struct Options {
    scales: Vec<usize>,
    dim: usize,
    seed: u64,
    threads: usize,
    spill_threshold: usize,
    smoke: bool,
    verify: bool,
}

const USAGE: &str = "usage: scale_bench [--scales <n1,n2,..>] [--dim <usize>] \
                     [--seed <u64>] [--threads <usize>] [--spill-threshold <usize>] \
                     [--smoke true|false] [--verify true|false]";

fn parse_or_die<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn parse_options() -> Options {
    let mut options = Options {
        scales: vec![2_000, 10_000],
        dim: 8192,
        seed: 0xF1605,
        threads: 8,
        spill_threshold: 4096,
        smoke: false,
        verify: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match (flag, value) {
            ("--scales", Some(v)) => {
                options.scales = v
                    .split(',')
                    .map(|part| parse_or_die(part.trim(), flag))
                    .collect();
            }
            ("--dim", Some(v)) => options.dim = parse_or_die(v, flag),
            ("--seed", Some(v)) => options.seed = parse_or_die(v, flag),
            ("--threads", Some(v)) => options.threads = parse_or_die(v, flag),
            ("--spill-threshold", Some(v)) => options.spill_threshold = parse_or_die(v, flag),
            ("--smoke", Some(v)) => options.smoke = parse_or_die(v, flag),
            ("--verify", Some(v)) => options.verify = parse_or_die(v, flag),
            ("--help", _) | ("-h", _) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            _ => {
                eprintln!("unknown or incomplete flag: {flag}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if options.scales.is_empty() || options.scales.contains(&0) {
        eprintln!("--scales needs positive library sizes\n{USAGE}");
        std::process::exit(2);
    }
    options.scales.sort_unstable();
    options
}

struct ScaleRow {
    references: usize,
    factor: usize,
    build_ms: f64,
    peak_heap_bytes: usize,
    peak_rss_bytes: u64,
    index_bytes: u64,
    mapped_open_ms: f64,
    qps: f64,
    qps_prefilter: f64,
}

fn main() {
    let options = parse_options();
    let base = WorkloadSpec::tiny();
    let base_entries = base.library_spectra();
    // Queries come from the base workload: every scaled library contains
    // the base entries verbatim (variant 0), so base queries stay
    // matchable at every factor.
    let queries = SyntheticWorkload::generate(&base, options.seed).queries;

    let index_config = |dim: usize| {
        let mut exact = ExactBackendConfig::default();
        exact.encoder.dim = dim;
        IndexConfig {
            kind: IndexedBackendKind::Exact(exact),
            entries_per_shard: 1024,
            threads: options.threads,
        }
    };

    println!(
        "== scale bench (dim {}, spill threshold {}, threads {}) ==",
        options.dim, options.spill_threshold, options.threads
    );

    // The query-side encoder (item memories ~ num_bins × dim bytes) is a
    // fixed cost every build path pays regardless of library size.
    // Measure its live footprint once so the smoke bound covers only the
    // marginal, library-dependent heap.
    let encoder_live = {
        let before = CountingAllocator::live();
        let IndexedBackendKind::Exact(exact) = index_config(options.dim).kind else {
            unreachable!("scale bench builds exact indexes");
        };
        let encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact.encoder);
        let live = CountingAllocator::live().saturating_sub(before);
        drop(encoder);
        live
    };

    let dir = std::env::temp_dir();
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut verified = None;
    for (i, &scale) in options.scales.iter().enumerate() {
        let factor = scale.div_ceil(base_entries);
        let library = ScaledLibrary::new(ScaledLibrarySpec {
            base: base.clone(),
            factor,
            seed: options.seed,
        });
        let references = library.len();
        let path: PathBuf = dir.join(format!(
            "hdoms-scale-bench-{}-{references}.hdx",
            std::process::id()
        ));

        // Streaming build straight from the generator.
        let (report, build_s, build_peak) = measure(|| {
            StreamingIndexBuilder::build_from_iter(
                StreamingConfig {
                    index: index_config(options.dim),
                    spill_threshold: options.spill_threshold,
                },
                &path,
                library.iter(),
            )
            .expect("streaming build")
        });
        let rss = peak_rss_bytes();
        let index_bytes = std::fs::metadata(&path).expect("streamed image").len();
        let payload = report.spilled_bytes as usize;

        // Mapped open, best of three.
        let mut mapped_s = f64::INFINITY;
        for _ in 0..3 {
            let (mapped, s, _) =
                measure(|| LibraryIndex::open_mapped(&path, options.threads).expect("mapped open"));
            mapped_s = mapped_s.min(s);
            drop(mapped);
        }

        // Throughput through the mapped shard-parallel engine, with and
        // without the sketch prefilter cascade.
        let mapped = LibraryIndex::open_mapped(&path, options.threads).expect("mapped open");
        let engine =
            Arc::new(Engine::from_index(mapped, options.threads).expect("engine from index"));
        let time_search = |config: PrefilterConfig| {
            let run = || {
                engine
                    .search_with_workers_opts(
                        &queries,
                        PrecursorWindow::open_default(),
                        FDR,
                        options.threads,
                        Some(config),
                    )
                    .expect("sharded index-backed engine accepts any prefilter")
            };
            let _ = run(); // warm-up
            let start = Instant::now();
            let (outcome, _) = run();
            (
                queries.len() as f64 / start.elapsed().as_secs_f64().max(1e-9),
                outcome,
            )
        };
        let (qps, outcome) = time_search(PrefilterConfig::Off);
        let (qps_prefilter, outcome_prefilter) = time_search(PrefilterConfig::TopK(DEFAULT_TOP_K));
        drop(engine);
        std::fs::remove_file(&path).ok();

        if options.smoke {
            let marginal = build_peak.saturating_sub(encoder_live);
            assert!(
                marginal < payload,
                "streaming build marginal peak heap {marginal} (raw {build_peak}, encoder \
                 {encoder_live}) not below the {payload}-byte encoded payload at \
                 {references} references (raise --dim so the payload dominates the \
                 ~100-byte/reference side tables)"
            );
            assert!(
                !outcome.accepted.is_empty(),
                "mapped search over {references} references produced no accepted PSMs"
            );
            assert!(
                !outcome_prefilter.accepted.is_empty(),
                "prefiltered search over {references} references produced no accepted PSMs"
            );
        }
        if options.verify && i == 0 {
            // Differential gate at the smallest scale: the streaming
            // image must be byte-identical to the in-memory build.
            let streamed = {
                let rebuilt_path = dir.join(format!(
                    "hdoms-scale-bench-verify-{}-{references}.hdx",
                    std::process::id()
                ));
                let rebuilt = StreamingIndexBuilder::build_from_iter(
                    StreamingConfig {
                        index: index_config(options.dim),
                        spill_threshold: options.spill_threshold,
                    },
                    &rebuilt_path,
                    library.iter(),
                )
                .map(|_| std::fs::read(&rebuilt_path).expect("read streamed image"));
                std::fs::remove_file(&rebuilt_path).ok();
                rebuilt.expect("streaming rebuild")
            };
            let in_memory =
                LibraryIndex::build(&library.materialize(), index_config(options.dim)).to_bytes();
            assert!(
                streamed == in_memory,
                "streaming and in-memory builds diverged at {references} references"
            );
            verified = Some(true);
        }

        println!(
            "scale {references:>9} (factor {factor:>5}): build {:>8.1} ms, peak heap \
             {:>6.1} MiB, rss {:>6.1} MiB, image {:>6.1} MiB, mapped open {:>6.2} ms, \
             {:>7.1} qps ({:>7.1} prefiltered)",
            build_s * 1e3,
            build_peak as f64 / (1 << 20) as f64,
            rss as f64 / (1 << 20) as f64,
            index_bytes as f64 / (1 << 20) as f64,
            mapped_s * 1e3,
            qps,
            qps_prefilter,
        );
        rows.push(ScaleRow {
            references,
            factor,
            build_ms: build_s * 1e3,
            peak_heap_bytes: build_peak,
            peak_rss_bytes: rss,
            index_bytes,
            mapped_open_ms: mapped_s * 1e3,
            qps,
            qps_prefilter,
        });
    }

    // Machine-readable trailer (hand-rolled: no JSON crate resolves
    // offline).
    let scales_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"references\":{},\"factor\":{},\"build_ms\":{:.3},\
                 \"peak_heap_bytes\":{},\"peak_rss_bytes\":{},\"index_bytes\":{},\
                 \"mapped_open_ms\":{:.3},\"qps\":{:.3},\"qps_prefilter\":{:.3}}}",
                r.references,
                r.factor,
                r.build_ms,
                r.peak_heap_bytes,
                r.peak_rss_bytes,
                r.index_bytes,
                r.mapped_open_ms,
                r.qps,
                r.qps_prefilter,
            )
        })
        .collect();
    println!(
        "{{\"bench\":\"scale\",\"dim\":{},\"seed\":{},\"threads\":{},\
         \"spill_threshold\":{},\"smoke\":{},\"verified\":{},\"scales\":[{}]}}",
        options.dim,
        options.seed,
        options.threads,
        options.spill_threshold,
        options.smoke,
        verified.unwrap_or(false),
        scales_json.join(","),
    );
}
