//! The subcommands.

use crate::library_io::{read_library, write_library};
use crate::opts::Flags;
use hdoms_baselines::annsolo::{AnnSoloBackend, AnnSoloConfig};
use hdoms_core::accelerator::AcceleratorConfig;
use hdoms_engine::{Engine, ReferenceMeta};
use hdoms_index::{
    IndexConfig, IndexedBackendKind, LibraryIndex, StreamingConfig, StreamingIndexBuilder,
};
use hdoms_ms::dataset::{ScaledLibrary, ScaledLibrarySpec, SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::mgf::{read_mgf, write_mgf};
use hdoms_ms::spectrum::Spectrum;
use hdoms_obs::log::{Level, Logger};
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::profile::{common_catalogue, DeltaMassProfile};
use hdoms_oms::psm::{parse_table, render_table, Psm};
use hdoms_oms::search::{ExactBackendConfig, HyperOmsConfig};
use hdoms_prefilter::PrefilterConfig;
use hdoms_rram::chip::ChipSpec;
use hdoms_rram::config::MlcConfig;
use hdoms_serve::net::{serve_listener, serve_stdio, Client};
use hdoms_serve::protocol::{QueryRequest, QuerySpectrum, Request, Response, WindowKind};
use hdoms_serve::scheduler::Tier;
use hdoms_serve::server::Server;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// `hdoms generate`: synthesise a workload, export query + library MGF.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["out-queries", "out-library", "preset", "scale", "seed"])?;
    let out_queries = flags.require("out-queries")?;
    let out_library = flags.require("out-library")?;
    let scale: f64 = flags.get_or("scale", 0.01)?;
    let seed: u64 = flags.get_or("seed", 0xF1605)?;
    let spec = match flags.get("preset").unwrap_or("iprg2012") {
        "iprg2012" => WorkloadSpec::iprg2012(scale),
        "hek293" => WorkloadSpec::hek293(scale),
        "tiny" => WorkloadSpec::tiny(),
        other => return Err(format!("unknown preset {other:?}")),
    };
    let workload = SyntheticWorkload::generate(&spec, seed);

    let mut queries_file = Vec::new();
    write_mgf(&mut queries_file, &workload.queries).map_err(|e| e.to_string())?;
    fs::write(out_queries, queries_file).map_err(|e| e.to_string())?;

    let mut library_file = Vec::new();
    write_library(&mut library_file, &workload.library).map_err(|e| e.to_string())?;
    fs::write(out_library, library_file).map_err(|e| e.to_string())?;

    println!(
        "wrote {} query spectra to {out_queries} and {} library spectra \
         ({} decoys) to {out_library}  [{}]",
        workload.queries.len(),
        workload.library.len(),
        workload.library.decoy_count(),
        spec.name,
    );
    Ok(())
}

/// Read query spectra from an MGF file.
fn read_queries(path: &str) -> Result<Vec<Spectrum>, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    let queries: Vec<Spectrum> = read_mgf(bytes.as_slice())
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|m| m.spectrum)
        .collect();
    if queries.is_empty() {
        return Err(format!("no query spectra in {path}"));
    }
    Ok(queries)
}

/// Read an annotated library MGF.
fn read_library_file(path: &str) -> Result<SpectralLibrary, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    let library = read_library(&bytes)?;
    if library.is_empty() {
        return Err(format!("no library spectra in {path}"));
    }
    Ok(library)
}

/// What `search`/`compare` run a query batch against.
#[allow(clippy::large_enum_variant)] // one instance per invocation
enum SearchTarget<'a> {
    /// A raw library: the engine is built cold before searching.
    Cold(&'a SpectralLibrary),
    /// A prebuilt index, moved into the engine (no metadata copy).
    Warm(LibraryIndex),
}

/// Wire the one engine every search path runs through: cold builds
/// (`exact`/`hyperoms`/`rram` encode the library and shard it;
/// `annsolo` plugs its backend in directly) and warm index loads.
fn engine_for(
    spec: &str,
    target: SearchTarget<'_>,
    dim: usize,
    threads: usize,
) -> Result<Engine, String> {
    Ok(match target {
        SearchTarget::Cold(library) if spec == "annsolo" => {
            let config = AnnSoloConfig {
                threads,
                ..AnnSoloConfig::default()
            };
            Engine::from_backend(
                Box::new(AnnSoloBackend::build(library, config)),
                config.preprocess,
                ReferenceMeta::from_library(library),
                threads,
            )
        }
        SearchTarget::Cold(library) => Engine::from_library(
            library,
            IndexConfig {
                kind: backend_kind(spec, dim)
                    .map_err(|e| format!("{e}; a cold search also takes annsolo"))?,
                threads,
                ..IndexConfig::default()
            },
        ),
        SearchTarget::Warm(index) => {
            Engine::from_index(index, threads).map_err(|e| e.to_string())?
        }
    })
}

/// `hdoms search`: MGF queries vs an annotated-MGF library (cold build)
/// or a prebuilt `.hdx` index (warm load) → PSM table.
pub fn search(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "queries",
        "library",
        "index",
        "out",
        "backend",
        "window",
        "fdr",
        "dim",
        "threads",
        "prefilter",
    ])?;
    let queries_path = flags.require("queries")?;
    let out_path = flags.require("out")?;
    let fdr: f64 = flags.get_or("fdr", 0.01)?;
    let dim: usize = flags.get_or("dim", 8192)?;
    let threads: usize = flags.get_or("threads", hdoms_hdc::parallel::default_threads())?;
    let window = WindowKind::parse(flags.get("window").unwrap_or("open"))?.window();
    let backend_name = flags.get("backend").unwrap_or("exact").to_owned();
    let prefilter = PrefilterConfig::parse(flags.get("prefilter").unwrap_or("off"))?;

    if flags.get("index").is_some() {
        let fixed = [("backend", "backend"), ("dim", "dimension")];
        if let Some((flag, what)) = fixed.iter().find(|(flag, _)| flags.get(flag).is_some()) {
            return Err(format!(
                "--{flag} applies to cold searches; a prebuilt --index already fixes its {what}"
            ));
        }
    }
    let queries = read_queries(queries_path)?;
    let loaded_library;
    let target = match (flags.get("index"), flags.get("library")) {
        (Some(index_path), _) => {
            // Mapped by default: the index file is searched in place
            // from one backing buffer (a v1 file's words are repacked).
            let loaded_index = LibraryIndex::open_mapped(Path::new(index_path), threads)
                .map_err(|e| e.to_string())?;
            SearchTarget::Warm(loaded_index)
        }
        (None, Some(library_path)) => {
            loaded_library = read_library_file(library_path)?;
            SearchTarget::Cold(&loaded_library)
        }
        (None, None) => return Err("search needs --library or --index".to_owned()),
    };

    let engine = Arc::new(engine_for(&backend_name, target, dim, threads)?);
    let (outcome, _) = engine
        .search_with_workers_opts(&queries, window, fdr, engine.threads(), Some(prefilter))
        .map_err(|e| format!("--prefilter {}: {e}", prefilter.render()))?;

    fs::write(out_path, render_table(engine.peptides(), &outcome)).map_err(|e| e.to_string())?;
    println!(
        "{}: {} of {} queries identified at {:.1}% FDR (threshold score {:.4}); \
         table written to {out_path}",
        outcome.backend_name,
        outcome.identifications(),
        outcome.total_queries,
        fdr * 100.0,
        outcome.threshold_score,
    );
    Ok(())
}

/// `hdoms index`: build / info / append on persistent library indexes.
pub fn index(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("index needs a subcommand: build | info | append".to_owned());
    };
    match sub.as_str() {
        "build" => index_build(rest),
        "info" => index_info(rest),
        "append" => index_append(rest),
        other => Err(format!(
            "unknown index subcommand {other:?} (build|info|append)"
        )),
    }
}

/// The indexable backend kinds (`annsolo` has no persistent encoding and
/// stays cold-build only).
fn backend_kind(spec: &str, dim: usize) -> Result<IndexedBackendKind, String> {
    match spec {
        "exact" => {
            let mut config = ExactBackendConfig::default();
            config.encoder.dim = dim;
            Ok(IndexedBackendKind::Exact(config))
        }
        "hyperoms" => Ok(IndexedBackendKind::HyperOms(HyperOmsConfig {
            dim,
            ..HyperOmsConfig::default()
        })),
        "rram" => {
            let mut config = AcceleratorConfig::default();
            config.encoder.dim = dim;
            Ok(IndexedBackendKind::Rram(config))
        }
        other => Err(format!("unknown backend {other:?} (exact|hyperoms|rram)")),
    }
}

/// The streaming-build configuration `index build` and `synth` share:
/// `--backend`, `--dim`, `--shard-size`, `--threads`, `--spill-threshold`.
fn streaming_config(flags: &Flags) -> Result<StreamingConfig, String> {
    let dim: usize = flags.get_or("dim", 8192)?;
    let shard_size: usize = flags.get_or("shard-size", 1024)?;
    let threads: usize = flags.get_or("threads", hdoms_hdc::parallel::default_threads())?;
    let spill_threshold: usize = flags.get_or("spill-threshold", 8192)?;
    if shard_size == 0 {
        return Err("--shard-size must be positive".to_owned());
    }
    if spill_threshold == 0 {
        return Err("--spill-threshold must be positive".to_owned());
    }
    Ok(StreamingConfig {
        index: IndexConfig {
            kind: backend_kind(flags.get("backend").unwrap_or("exact"), dim)?,
            entries_per_shard: shard_size,
            threads,
        },
        spill_threshold,
    })
}

fn index_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "library",
        "out",
        "backend",
        "dim",
        "shard-size",
        "threads",
        "spill-threshold",
    ])?;
    let library_path = flags.require("library")?;
    let out_path = flags.require("out")?;
    let config = streaming_config(&flags)?;
    let library = read_library_file(library_path)?;
    Logger::stderr(Level::Info, false)
        .info("index.build")
        .u64("entries", library.len() as u64)
        .u64("spill_threshold", config.spill_threshold as u64)
        .emit();

    // Always the spill-based builder: encoded words never sit in memory
    // beyond one spill-threshold chunk, whatever the library size.
    let start = std::time::Instant::now();
    let report = StreamingIndexBuilder::build_from_library(config, Path::new(out_path), &library)
        .map_err(|e| e.to_string())?;
    println!(
        "indexed {} references ({} rejected) into {} shards in {:.2} s → {out_path}",
        report.build_stats.references_stored,
        report.build_stats.references_rejected,
        report.shard_count,
        start.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// `hdoms synth`: scale a synthetic library preset by an augmentation
/// factor and stream it straight into a `.hdx` index — entries are
/// generated, encoded, and spilled on the fly, so the library is never
/// materialised and the scale is bounded by disk, not RAM.
pub fn synth(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "out",
        "preset",
        "scale",
        "factor",
        "seed",
        "backend",
        "dim",
        "shard-size",
        "threads",
        "spill-threshold",
    ])?;
    let out_path = flags.require("out")?;
    let scale: f64 = flags.get_or("scale", 0.01)?;
    let factor: usize = flags.get_or("factor", 1)?;
    let seed: u64 = flags.get_or("seed", 0xF1605)?;
    if factor == 0 {
        return Err("--factor must be positive".to_owned());
    }
    let config = streaming_config(&flags)?;
    let base = match flags.get("preset").unwrap_or("tiny") {
        "iprg2012" => WorkloadSpec::iprg2012(scale),
        "hek293" => WorkloadSpec::hek293(scale),
        "tiny" => WorkloadSpec::tiny(),
        other => return Err(format!("unknown preset {other:?}")),
    };
    let entries = 2usize
        .checked_mul(base.reference_peptides)
        .and_then(|n| n.checked_mul(factor))
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| {
            format!(
                "scaled library exceeds the u32 id space \
                 (2 × {} peptides × factor {factor})",
                base.reference_peptides
            )
        })?;

    Logger::stderr(Level::Info, false)
        .info("synth.build")
        .str("preset", &base.name)
        .u64("factor", factor as u64)
        .u64("entries", entries as u64)
        .u64("dim", config.index.kind.dim() as u64)
        .u64("spill_threshold", config.spill_threshold as u64)
        .emit();

    let scaled = ScaledLibrary::new(ScaledLibrarySpec { base, factor, seed });
    let start = std::time::Instant::now();
    let report = StreamingIndexBuilder::build_from_iter(config, Path::new(out_path), scaled.iter())
        .map_err(|e| e.to_string())?;
    println!(
        "synthesised {} references (factor {factor}, {} stored, {} rejected) \
         into {} shards in {:.2} s → {out_path}",
        report.entry_count,
        report.build_stats.references_stored,
        report.build_stats.references_rejected,
        report.shard_count,
        start.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn index_info(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["index"])?;
    let index_path = flags.require("index")?;
    let bytes = fs::metadata(index_path).map_err(|e| e.to_string())?.len();
    let index = LibraryIndex::open_mapped(
        Path::new(index_path),
        hdoms_hdc::parallel::default_threads(),
    )
    .map_err(|e| e.to_string())?;
    let stats = index.build_stats();
    println!("index {index_path} ({bytes} bytes)");
    println!(
        "  backend {}  dim {}  entries {}  shards {}",
        index.kind().name(),
        index.dim(),
        index.entry_count(),
        index.shards().len(),
    );
    println!(
        "  stored {}  rejected {}  mean encode BER {:.4}",
        stats.references_stored, stats.references_rejected, stats.mean_encode_ber,
    );
    if let Some(mlc) = index.mlc_state() {
        println!(
            "  MLC state: {} differential weight pairs, σ_δ {:.4}",
            mlc.w_eff.len(),
            mlc.sigma_delta,
        );
    }
    for (i, shard) in index.shards().enumerate() {
        let (lo, hi) = match (shard.first(), shard.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
            _ => (f64::NAN, f64::NAN),
        };
        println!(
            "  shard {i:>3}: {:>6} entries, {lo:>9.2} – {hi:>9.2} Da",
            shard.len(),
        );
    }
    Ok(())
}

fn index_append(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["index", "library", "out", "threads"])?;
    let index_path = flags.require("index")?;
    let library_path = flags.require("library")?;
    let out_path = flags.get("out").unwrap_or(index_path).to_owned();
    let threads: usize = flags.get_or("threads", hdoms_hdc::parallel::default_threads())?;

    // Mapped like every open: the append repacks the words onto the
    // heap, and the write renames a new file over the path, so an
    // in-place append never writes into the mapping it reads.
    let mut index =
        LibraryIndex::open_mapped(Path::new(index_path), threads).map_err(|e| e.to_string())?;
    let extra = read_library_file(library_path)?;
    let before = index.entry_count();
    index.append_entries(extra.entries(), threads);
    index
        .write(Path::new(&out_path))
        .map_err(|e| e.to_string())?;
    println!(
        "appended {} references ({} → {}) across {} shards → {out_path}",
        extra.len(),
        before,
        index.entry_count(),
        index.shards().len(),
    );
    Ok(())
}

/// What `hdoms compare` takes as a backend spec: a cold backend over
/// `--library`, or `index` for the `--index` image.
const COMPARE_SPECS: [&str; 5] = ["exact", "annsolo", "hyperoms", "rram", "index"];

/// `hdoms compare`: run two backends over the same queries and report
/// agreement — e.g. a cold `exact` build vs a warm `index` load.
pub fn compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "queries",
        "library",
        "index",
        "backend-a",
        "backend-b",
        "window",
        "fdr",
        "dim",
        "threads",
    ])?;
    let queries_path = flags.require("queries")?;
    let spec_a = flags.require("backend-a")?.to_owned();
    let spec_b = flags.require("backend-b")?.to_owned();
    for spec in [&spec_a, &spec_b] {
        if !COMPARE_SPECS.contains(&spec.as_str()) {
            return Err(format!(
                "unknown backend spec {spec:?} ({})",
                COMPARE_SPECS.join("|")
            ));
        }
    }
    let fdr: f64 = flags.get_or("fdr", 0.01)?;
    let dim: usize = flags.get_or("dim", 8192)?;
    let threads: usize = flags.get_or("threads", hdoms_hdc::parallel::default_threads())?;
    let window = WindowKind::parse(flags.get("window").unwrap_or("open"))?.window();

    let queries = read_queries(queries_path)?;
    let library = flags.get("library").map(read_library_file).transpose()?;
    let loaded_index = flags
        .get("index")
        .map(|p| LibraryIndex::open_mapped(Path::new(p), threads).map_err(|e| e.to_string()))
        .transpose()?;

    let run_spec = |spec: &str| -> Result<PipelineOutcome, String> {
        let (target, backend_name) = match spec {
            "index" => {
                let Some(index) = &loaded_index else {
                    return Err(format!("backend spec {spec:?} needs --index"));
                };
                // Clone here (not in engine_for): both compare specs may
                // target the same loaded index.
                (
                    SearchTarget::Warm(index.clone()),
                    index.kind().name().to_owned(),
                )
            }
            cold => {
                let Some(library) = &library else {
                    return Err(format!("backend spec {cold:?} needs --library"));
                };
                (SearchTarget::Cold(library), cold.to_owned())
            }
        };
        let engine = Arc::new(engine_for(&backend_name, target, dim, threads)?);
        let (outcome, _) = engine.search(&queries, window, fdr);
        Ok(outcome)
    };

    let a = run_spec(&spec_a)?;
    let b = run_spec(&spec_b)?;

    let accepted_a = a.accepted_query_ids();
    let accepted_b = b.accepted_query_ids();
    let both = accepted_a.intersection(&accepted_b).count();
    let union = accepted_a.union(&accepted_b).count();
    let identical_psms = a.psms == b.psms;
    println!(
        "A [{}] {} identifications",
        a.backend_name,
        a.identifications()
    );
    println!(
        "B [{}] {} identifications",
        b.backend_name,
        b.identifications()
    );
    println!(
        "agreement: {both} accepted by both, {} only A, {} only B (Jaccard {:.3})",
        accepted_a.len() - both,
        accepted_b.len() - both,
        if union == 0 {
            1.0
        } else {
            both as f64 / union as f64
        },
    );
    println!("psm tables identical: {identical_psms}");
    Ok(())
}

/// `hdoms profile`: delta-mass profile of an accepted-PSM table.
pub fn profile(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["psms", "bin-width", "min-count"])?;
    let path = flags.require("psms")?;
    let bin_width: f64 = flags.get_or("bin-width", 0.01)?;
    let min_count: usize = flags.get_or("min-count", 3)?;
    let table = fs::read_to_string(path).map_err(|e| e.to_string())?;
    let psms = parse_table(&table)?;
    let accepted: Vec<Psm> = psms
        .into_iter()
        .filter(|(_, acc)| *acc)
        .map(|(p, _)| p)
        .collect();
    if accepted.is_empty() {
        return Err("no accepted PSMs in the table".to_owned());
    }
    let profile = DeltaMassProfile::from_psms(&accepted, bin_width);
    let catalogue = common_catalogue();
    println!(
        "{} accepted PSMs; delta-mass peaks (≥{min_count}):",
        profile.total()
    );
    println!("{:>12}  {:>6}  annotation", "delta (Da)", "PSMs");
    for (peak, name) in profile.annotate(min_count, &catalogue, 3.0 * bin_width) {
        println!(
            "{:>12.4}  {:>6}  {}",
            peak.delta_da,
            peak.count,
            name.unwrap_or("(unexplained)")
        );
    }
    Ok(())
}

/// `hdoms serve`: load `.hdx` indexes once, keep their backends resident,
/// and answer query batches over TCP or stdio until killed.
///
/// Concurrent batches queue through the shared scheduler:
/// `--workers` bounds total in-flight search parallelism (default: the
/// machine), `--queue-depth` bounds waiting batches before submissions
/// are rejected with the structured `busy` error, and `--deadline-ms`
/// sheds batches that wait longer than the soft deadline (0 = never).
/// Tiered serving: `--interactive-weight` sets how many interactive
/// admissions each batch admission is worth under contention,
/// `--interactive-queue-depth` bounds the interactive queue separately,
/// and `--memory-budget` bounds the bytes of mapped shard hypervectors
/// kept resident (cold shards are evicted and refault on demand). An
/// interactive query that finds an identical one still queued rides its
/// admission and engine batch. See `docs/SCHEDULER.md` for tuning.
///
/// Observability: `--metrics <host:port>` binds a Prometheus-style text
/// exposition endpoint over the server's metrics registry;
/// `--log-level off|error|warn|info|debug` filters the structured log
/// on stderr (default `info`), and `--log-json true` switches it from
/// text lines to JSON lines. See `docs/OBSERVABILITY.md`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "index",
        "listen",
        "stdio",
        "threads",
        "workers",
        "queue-depth",
        "deadline-ms",
        "interactive-weight",
        "interactive-queue-depth",
        "memory-budget",
        "metrics",
        "log-level",
        "log-json",
        "prefilter",
    ])?;
    let threads: usize = flags.get_or("threads", hdoms_hdc::parallel::default_threads())?;
    let workers: usize = flags.get_or("workers", threads)?;
    let queue_depth: usize =
        flags.get_or("queue-depth", hdoms_serve::scheduler::DEFAULT_QUEUE_DEPTH)?;
    let deadline_ms: u64 = flags.get_or("deadline-ms", 0)?;
    let interactive_weight: usize = flags.get_or(
        "interactive-weight",
        hdoms_serve::scheduler::DEFAULT_INTERACTIVE_WEIGHT,
    )?;
    // The interactive queue matches the batch queue bound unless bounded
    // separately.
    let interactive_queue_depth: usize = flags.get_or("interactive-queue-depth", queue_depth)?;
    let memory_budget: u64 = flags.get_or("memory-budget", 0)?;
    let stdio: bool = flags.get_or("stdio", false)?;
    let listen = flags.get("listen");
    let metrics_addr = flags.get("metrics");
    let log_json: bool = flags.get_or("log-json", false)?;
    let prefilter = PrefilterConfig::parse(flags.get("prefilter").unwrap_or("off"))?;
    let log_level = {
        let spelling = flags.get("log-level").unwrap_or("info");
        Level::parse(spelling)
            .ok_or_else(|| format!("unknown log level {spelling:?} (off|error|warn|info|debug)"))?
    };
    let specs = flags.get_all("index");
    if specs.is_empty() {
        return Err("serve needs at least one --index <name>=<path.hdx>".to_owned());
    }
    match (listen, stdio) {
        (Some(_), true) => return Err("--listen and --stdio are exclusive".to_owned()),
        (None, false) => return Err("serve needs --listen <host:port> or --stdio true".to_owned()),
        _ => {}
    }

    let logger = Logger::stderr(log_level, log_json);
    let mut server = Server::with_scheduler(
        threads,
        hdoms_serve::scheduler::SchedulerConfig {
            workers,
            queue_depth,
            deadline_ms,
            interactive_weight,
            interactive_queue_depth,
        },
    );
    server.set_logger(logger.clone());
    server.set_prefilter(prefilter);
    server.set_memory_budget(memory_budget);
    logger
        .info("serve.scheduler")
        .u64("workers", workers as u64)
        .u64("queue_depth", queue_depth as u64)
        .u64("deadline_ms", deadline_ms)
        .u64("interactive_weight", interactive_weight as u64)
        .u64("interactive_queue_depth", interactive_queue_depth as u64)
        .u64("memory_budget", memory_budget)
        .emit();
    if !prefilter.is_off() {
        logger
            .info("serve.prefilter")
            .str("config", prefilter.render())
            .emit();
    }
    for spec in specs {
        let Some((name, path)) = spec.split_once('=') else {
            return Err(format!("--index takes <name>=<path.hdx>, got {spec:?}"));
        };
        // Resident indexes are mapped: one backing buffer per file,
        // searched in place for the lifetime of the server.
        let index = LibraryIndex::open_mapped(Path::new(path), threads)
            .map_err(|e| format!("loading {path}: {e}"))?;
        let resident = server.add_index(name, index).map_err(|e| e.to_string())?;
        logger
            .info("serve.resident")
            .str("name", name)
            .str("backend", resident.backend)
            .u64("entries", resident.entries as u64)
            .u64("shards", resident.shards as u64)
            .u64("dim", resident.dim as u64)
            .emit();
    }

    if let Some(addr) = metrics_addr {
        let bound = hdoms_obs::export::spawn_exposition(addr, Arc::clone(server.registry()))
            .map_err(|e| format!("bind metrics {addr}: {e}"))?;
        logger
            .info("serve.metrics")
            .str("addr", bound.to_string())
            .emit();
    }

    if stdio {
        logger
            .info("serve.start")
            .str("transport", "stdio")
            .str("kernel", hdoms_hdc::kernels::active().name())
            .u64("indexes", server.summaries().len() as u64)
            .emit();
        return serve_stdio(&server).map_err(|e| e.to_string());
    }
    let addr = listen.expect("checked above");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    logger
        .info("serve.start")
        .str("transport", "tcp")
        .str(
            "addr",
            listener
                .local_addr()
                .map_err(|e| e.to_string())?
                .to_string(),
        )
        .str("kernel", hdoms_hdc::kernels::active().name())
        .u64("indexes", server.summaries().len() as u64)
        .emit();
    serve_listener(Arc::new(server), listener).map_err(|e| e.to_string())
}

/// `hdoms query`: send MGF queries to a running `hdoms serve` and write
/// the returned PSM table (byte-identical to a local `search --index`).
///
/// With `--session true` the batches stream through one server-side
/// session and FDR is filtered **once over all of them** at finalize —
/// so any `--batch-size` reproduces the local single-run table. Without
/// it each batch is filtered alone (the per-batch compatibility mode).
/// `--tier interactive` requests the priority class (and, per batch,
/// server-side coalescing with identical queued requests); `--prefilter`
/// overrides the
/// server's default cascade per batch, or for the whole session when
/// combined with `--session true`.
pub fn query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&[
        "addr",
        "queries",
        "index",
        "out",
        "window",
        "fdr",
        "tier",
        "batch-size",
        "session",
        "prefilter",
    ])?;
    let addr = flags.require("addr")?;
    let queries_path = flags.require("queries")?;
    let index_name = flags.require("index")?;
    let out_path = flags.require("out")?;
    let fdr: f64 = flags.get_or("fdr", 0.01)?;
    let batch_size: usize = flags.get_or("batch-size", 0)?;
    let use_session: bool = flags.get_or("session", false)?;
    let tier = Tier::parse(flags.get("tier").unwrap_or("batch"))?;
    let prefilter = flags
        .get("prefilter")
        .map(PrefilterConfig::parse)
        .transpose()?;
    let window = WindowKind::parse(flags.get("window").unwrap_or("open"))?;

    let queries = read_queries(queries_path)?;
    let spectra: Vec<QuerySpectrum> = queries.iter().map(QuerySpectrum::from_spectrum).collect();
    let batches: Vec<&[QuerySpectrum]> = if batch_size == 0 {
        vec![&spectra[..]]
    } else {
        spectra.chunks(batch_size).collect()
    };

    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let fail = |response: Response| -> String {
        match response {
            Response::Error { code, message } => match code.name() {
                Some(code) => format!("server [{code}]: {message}"),
                None => format!("server: {message}"),
            },
            other => format!("unexpected response {other:?}"),
        }
    };

    let (rows, latency_ms, identifications, shards_touched, candidates_scored, backend);
    if use_session {
        // One server-side session: submit every batch, filter once.
        let session = match client.request(&Request::SessionOpen {
            index: index_name.to_owned(),
            window,
            tier,
            prefilter,
        })? {
            Response::SessionOpened { session, .. } => session,
            other => return Err(fail(other)),
        };
        // On any mid-stream failure, close the session (best effort) so
        // the server's session slot is not leaked before propagating.
        let abort = |client: &mut Client, message: String| {
            let _ = client.request(&Request::SessionClose { session });
            message
        };
        for batch in &batches {
            match client.request(&Request::SessionSubmit {
                session,
                spectra: batch.to_vec(),
            }) {
                Ok(Response::Receipt(_)) => {}
                Ok(other) => return Err(abort(&mut client, fail(other))),
                Err(message) => return Err(abort(&mut client, message)),
            }
        }
        let result = match client.request(&Request::SessionFinalize { session, fdr }) {
            Ok(Response::Result(result)) => result,
            Ok(other) => return Err(abort(&mut client, fail(other))),
            Err(message) => return Err(abort(&mut client, message)),
        };
        rows = result.rows;
        latency_ms = result.stats.latency_ms;
        identifications = result.stats.identifications;
        shards_touched = result.stats.shards_touched;
        candidates_scored = result.stats.candidates_scored;
        backend = result.stats.backend;
    } else {
        // Per-batch mode: each batch answered (and FDR-filtered) alone.
        let mut all_rows = Vec::new();
        let mut totals = (0.0f64, 0usize, 0usize, 0usize, String::new());
        for batch in &batches {
            let result = match client.request(&Request::Query(QueryRequest {
                index: index_name.to_owned(),
                window,
                fdr,
                tier,
                prefilter,
                spectra: batch.to_vec(),
            }))? {
                Response::Result(result) => result,
                other => return Err(fail(other)),
            };
            totals.0 += result.stats.latency_ms;
            totals.1 += result.stats.identifications;
            totals.2 += result.stats.shards_touched;
            totals.3 += result.stats.candidates_scored;
            totals.4 = result.stats.backend.clone();
            all_rows.extend(result.rows);
        }
        (
            rows,
            latency_ms,
            identifications,
            shards_touched,
            candidates_scored,
            backend,
        ) = (all_rows, totals.0, totals.1, totals.2, totals.3, totals.4);
    }

    fs::write(out_path, hdoms_oms::psm::render_table_rows(&rows)).map_err(|e| e.to_string())?;
    println!(
        "{backend} @ {addr} [{index_name}]: {identifications} of {} queries identified \
         at {:.1}% FDR in {} batch(es){}; {latency_ms:.1} ms server time, \
         {shards_touched} shard visits, {candidates_scored} candidates scored; \
         table written to {out_path}",
        queries.len(),
        fdr * 100.0,
        batches.len(),
        if use_session { " [one session]" } else { "" },
    );
    if batches.len() > 1 && !use_session {
        eprintln!(
            "note: FDR filtering is per batch; for a table identical to a local \
             `search --index`, send one batch (--batch-size 0) or stream them \
             through one session (--session true)"
        );
    }
    Ok(())
}

/// `hdoms chip`: capacity/latency planning for a library on MLC RRAM.
pub fn chip(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["bits", "dim", "refs", "activated-rows"])?;
    let bits: u8 = flags.get_or("bits", 3)?;
    let dim: u64 = flags.get_or("dim", 8192)?;
    let refs: u64 = flags.get_or("refs", 1_000_000)?;
    let activated: u64 = flags.get_or("activated-rows", 64)?;
    if !(1..=3).contains(&bits) {
        return Err("--bits must be 1, 2 or 3".to_owned());
    }

    let chip = ChipSpec::paper_chip(MlcConfig::with_bits(bits));
    let mapping = hdoms_core::mapping::LibraryMapping::plan_on_chip(&chip, refs, dim, activated);
    println!(
        "chip: {} tiles of {}x{} cells, {} bits/cell",
        chip.tiles, chip.rows, chip.cols, bits
    );
    println!(
        "dense storage: {} hypervectors of {dim} bits ({}x the 1-bit capacity)",
        chip.hypervector_capacity(dim as usize),
        chip.density_vs_slc(),
    );
    println!(
        "search fabric for {refs} references: {} tiles ({} chips), utilisation {:.1}%",
        mapping.tiles(),
        mapping.chips_needed(chip.tiles as u64),
        mapping.utilisation() * 100.0,
    );
    println!(
        "one query scores the whole resident library in {} sensing cycles \
         ({} activated rows/cycle) — independent of library size",
        mapping.cycles_per_query(),
        activated,
    );
    let model = hdoms_core::perf::RramModel {
        activated_rows: activated as f64,
        parallel_tiles: mapping.tiles() as f64,
        ..hdoms_core::perf::RramModel::default()
    };
    let shape = hdoms_core::perf::WorkloadShape {
        queries: 16_000.0,
        references: refs as f64,
        mean_candidates: refs as f64 * 0.1,
        mean_peaks: 100.0,
        dim: dim as f64,
        chunks: 128.0,
    };
    println!(
        "16k-query open search on this fabric: {:.3} ms, {:.2} J (model of §5.3.3)",
        model.time_s(&shape) * 1e3,
        model.energy_j(&shape),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_oms::window::PrecursorWindow;

    #[test]
    fn psm_table_roundtrip() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 8);
        let mut config = IndexConfig::default();
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 2048;
        }
        let engine = Arc::new(Engine::from_library(&workload.library, config));
        let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
        let peptides: Vec<String> = workload
            .library
            .iter()
            .map(|e| e.peptide.to_string())
            .collect();
        let table = render_table(&peptides, &outcome);
        let parsed = parse_table(&table).unwrap();
        assert_eq!(parsed.len(), outcome.psms.len());
        let accepted = parsed.iter().filter(|(_, a)| *a).count();
        assert_eq!(accepted, outcome.identifications());
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        let table = "header\n1\t2\t3\n";
        assert!(parse_table(table).is_err());
    }
}
