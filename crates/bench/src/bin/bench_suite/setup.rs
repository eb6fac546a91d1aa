//! Set-up: everything a workload pays before its first timed query —
//! generate the inputs from the seed, stream-build the index, open it
//! mapped, construct the engine or the server — through public
//! constructors with library defaults.

use crate::spec::{Backend, WorkloadDef, INDEX_NAME};
use hdoms_core::accelerator::AcceleratorConfig;
use hdoms_engine::Engine;
use hdoms_index::{
    IndexConfig, IndexedBackendKind, LibraryIndex, StreamingBuildReport, StreamingConfig,
    StreamingIndexBuilder,
};
use hdoms_ms::dataset::SyntheticWorkload;
use hdoms_oms::search::ExactBackendConfig;
use hdoms_serve::scheduler::SchedulerConfig;
use hdoms_serve::server::Server;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads everywhere: the box's cores, at most four.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// A directory for the run's index images, beside the executable (so
/// inside the build directory of whichever checkout runs the suite),
/// removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> Scratch {
        let exe = std::env::current_exe().expect("the running executable has a path");
        let dir = exe
            .parent()
            .expect("an executable lives in a directory")
            .join(format!("bench_suite_scratch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory beside the executable");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub build_s: f64,
    /// Mapped open plus engine (or server) construction.
    pub open_s: f64,
    /// `rram_sim` only: build and open of the exact reference index.
    pub reference_s: f64,
}

/// A workload ready to be measured.
pub struct Prepared {
    pub def: WorkloadDef,
    pub workload: SyntheticWorkload,
    pub index_path: PathBuf,
    pub build: StreamingBuildReport,
    /// The engine under measurement (the server's resident engine on a
    /// served workload).
    pub engine: Arc<Engine>,
    /// An exact engine over the same library: the engine itself unless
    /// the workload's backend is the simulated accelerator.
    pub exact: Arc<Engine>,
    pub server: Option<Arc<Server>>,
    pub times: StageTimes,
    /// Toy size (`--smoke`): probes shrink with the inputs.
    pub smoke: bool,
    /// Images this set-up wrote; removed with it.
    files: Vec<PathBuf>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
    }
}

fn build_and_open(
    kind: IndexedBackendKind,
    workload: &SyntheticWorkload,
    path: &Path,
) -> (StreamingBuildReport, f64, LibraryIndex, f64) {
    let config = StreamingConfig {
        index: IndexConfig {
            kind,
            threads: threads(),
            ..IndexConfig::default()
        },
        ..StreamingConfig::default()
    };
    let start = Instant::now();
    let report = StreamingIndexBuilder::build_from_iter(
        config,
        path,
        workload.library.entries().iter().cloned(),
    )
    .expect("streaming build of a generated library");
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let index = LibraryIndex::open_mapped(path, threads()).expect("mapped open of a fresh image");
    (report, build_s, index, start.elapsed().as_secs_f64())
}

/// Run the whole set-up once. `tag` keeps repeated set-ups of one run in
/// separate files (an earlier image may still be mapped).
pub fn prepare(
    def: WorkloadDef,
    seed: u64,
    smoke: bool,
    scratch: &Scratch,
    tag: usize,
) -> Prepared {
    let mut times = StageTimes::default();

    let start = Instant::now();
    let workload = SyntheticWorkload::generate(&def.spec(smoke), seed);
    times.generate_s = start.elapsed().as_secs_f64();

    let index_path = scratch.path().join(format!("{}_{tag}.hdx", def.name));
    let kind = match def.backend {
        Backend::Exact => IndexedBackendKind::Exact(ExactBackendConfig::default()),
        Backend::Rram => IndexedBackendKind::Rram(AcceleratorConfig {
            threads: threads(),
            ..AcceleratorConfig::default()
        }),
    };
    let (build, build_s, index, open_s) = build_and_open(kind, &workload, &index_path);
    times.build_s = build_s;

    let start = Instant::now();
    let (engine, server) = if def.served {
        // The server loads the image itself (its own mapped open), as
        // `hdoms serve --index` does.
        drop(index);
        let server = Server::with_scheduler(threads(), SchedulerConfig::default());
        server
            .load_index(INDEX_NAME, index_path.to_str().expect("utf-8 scratch path"))
            .expect("the server loads the image it was just given");
        let engine = server.engine(INDEX_NAME).expect("the index is resident");
        (engine, Some(Arc::new(server)))
    } else {
        let engine = Engine::from_index(index, threads()).expect("an index wires its own kind");
        (Arc::new(engine), None)
    };
    times.open_s = open_s + start.elapsed().as_secs_f64();

    let mut files = vec![index_path.clone()];
    let exact = if def.backend == Backend::Rram {
        let start = Instant::now();
        let path = scratch.path().join(format!("{}_{tag}_exact.hdx", def.name));
        files.push(path.clone());
        let (_, _, index, _) = build_and_open(
            IndexedBackendKind::Exact(ExactBackendConfig::default()),
            &workload,
            &path,
        );
        let exact = Engine::from_index(index, threads()).expect("exact reference engine");
        times.reference_s = start.elapsed().as_secs_f64();
        Arc::new(exact)
    } else {
        Arc::clone(&engine)
    };

    Prepared {
        def,
        workload,
        index_path,
        build,
        engine,
        exact,
        server,
        times,
        smoke,
        files,
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Last-level cache size in bytes, if sysfs says.
pub fn llc_bytes() -> Option<u64> {
    let cache = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u64, u64)> = None;
    for entry in std::fs::read_dir(cache).ok()?.flatten() {
        let read = |file: &str| std::fs::read_to_string(entry.path().join(file)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u64>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Sustained copy bandwidth, GB/s, counting bytes read plus bytes
/// written: the median of a few copies of an array several times the
/// per-core cache (4× LLC where sysfs tells, clamped to 16..=64 MiB: a
/// shared host's L3 is not the guest's to fill, and on Firecracker the
/// first touch of fresh memory costs tens of microseconds a page).
/// `smoke` uses 4 MiB. Returns the figure and the array size used.
pub fn copy_bandwidth_gb_per_s(smoke: bool) -> (f64, usize) {
    let bytes = if smoke {
        4 << 20
    } else {
        llc_bytes()
            .map_or(64 << 20, |llc| (llc as usize).saturating_mul(4))
            .clamp(16 << 20, 64 << 20)
    };
    let source = vec![0x5au8; bytes];
    let mut target = vec![0u8; bytes];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        target.copy_from_slice(std::hint::black_box(&source));
        std::hint::black_box(&mut target);
        rates.push(2.0 * bytes as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    (crate::stats::median(&rates), bytes)
}
