//! What the suite runs and what it reports: the four workloads and the
//! metric catalogue. `BENCHMARK.json` at the repo root repeats these
//! names; `--smoke` fails when a run leaves one of them out.

use hdoms_ms::dataset::WorkloadSpec;
use hdoms_serve::protocol::WindowKind;

/// FDR level of every search in the suite.
pub const FDR: f64 = 0.01;

/// Name every resident index is served under.
pub const INDEX_NAME: &str = "bench";

/// Open-loop rate of the interactive connection under the batch load,
/// requests per second. The issue's 60 is past the knee on 2 vCPUs with
/// the generators on the same box: over ten seeds the batch connection's
/// `qps` then ran from 640 to 2870 and the interactive median from 8 to
/// 42 ms; at 30 `qps` repeats within 6 %.
pub const INTERACTIVE_RATE: f64 = 30.0;

/// Spectra per batch-tier request line.
pub const BATCH_SPECTRA: usize = 16;

/// Which backend the workload's index is built for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    Exact,
    /// `IndexedBackendKind::Rram` with the default accelerator, plus an
    /// exact index of the same library as the reference.
    Rram,
}

/// One workload: its inputs and how the end-to-end section drives them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// `iprg2012` scale of the reference library.
    pub scale: f64,
    pub queries: usize,
    /// Queries per timed batch of phases A and B: about a tenth of a
    /// second of work, so a run yields dozens of samples and its median
    /// is not set by the box's one-second stalls.
    pub timed_batch: usize,
    /// Peptide lengths of the library (inclusive). The preset's 7..=25
    /// spreads masses so an open window reaches ~6.5 % of the library;
    /// 13..=15 is a mass slice in which it reaches ~27 %.
    pub peptide_len: (usize, usize),
    pub window: WindowKind,
    pub backend: Backend,
    /// Driven over loopback TCP through a resident `Server`.
    pub served: bool,
}

/// The four workloads. Sizes are what a 2-vCPU box affords inside the
/// driver's cap of roughly half a minute per run including its set-ups
/// (see README, "Time budget and the shrink rule"); `BENCHMARK.json`
/// says why each exists.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "offline_open",
        scale: 0.048,
        queries: 1600,
        timed_batch: 128,
        peptide_len: (13, 15),
        window: WindowKind::Open,
        backend: Backend::Exact,
        served: false,
    },
    WorkloadDef {
        name: "offline_standard",
        scale: 0.008,
        queries: 1600,
        timed_batch: 320,
        peptide_len: (7, 25),
        window: WindowKind::Standard,
        backend: Backend::Exact,
        served: false,
    },
    WorkloadDef {
        name: "serve_tiered",
        scale: 0.004,
        queries: 1600,
        timed_batch: 16,
        peptide_len: (7, 25),
        window: WindowKind::Open,
        backend: Backend::Exact,
        served: true,
    },
    WorkloadDef {
        name: "rram_sim",
        scale: 0.0008,
        queries: 800,
        timed_batch: 32,
        peptide_len: (7, 25),
        window: WindowKind::Open,
        backend: Backend::Rram,
        served: false,
    },
];

impl WorkloadDef {
    pub fn find(name: &str) -> Option<WorkloadDef> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The generator specification at full or toy (`--smoke`) size.
    pub fn spec(&self, smoke: bool) -> WorkloadSpec {
        if smoke {
            return WorkloadSpec::tiny();
        }
        WorkloadSpec {
            queries: self.queries,
            peptide_len: self.peptide_len,
            ..WorkloadSpec::iprg2012(self.scale)
        }
    }
}

/// A metric's catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    higher("qps", "spectra/s"),
    higher("ids", "count"),
    lower("peak_rss_mb", "MiB"),
    higher("cascade_qps", "spectra/s"),
    higher("cascade_ids", "count"),
    higher("ids_vs_exact", "ratio"),
];

/// Single layers, measured from outside in the traced section.
pub const PER_LAYER: [MetricDef; 53] = [
    lower("ms.generate_s", "s"),
    lower("ms.preprocess_us_per_query", "us"),
    lower("ms.rejected_queries", "count"),
    lower("hdc.encode_us_per_spectrum", "us"),
    higher("hdc.kernel_pair_scores_per_s", "1/s"),
    higher("hdc.scan_gb_per_s", "GB/s"),
    higher("hdc.membw_gb_per_s", "GB/s"),
    higher("hdc.scan_roofline_share", "ratio"),
    lower("oms.candidates_us_per_query", "us"),
    lower("oms.candidates_per_query", "count"),
    lower("oms.assemble_fdr_ms", "ms"),
    lower("prefilter.sketch_us_per_query", "us"),
    higher("prefilter.reduction", "ratio"),
    higher("prefilter.recall_at_k", "ratio"),
    higher("index.build_refs_per_s", "1/s"),
    lower("index.image_bytes_per_ref", "B"),
    lower("index.open_mapped_ms", "ms"),
    lower("index.raw_sweep_ms", "ms"),
    lower("index.score_ms_per_query", "ms"),
    lower("index.scan_ms_per_query", "ms"),
    lower("index.scan_share", "ratio"),
    lower("index.shards_touched_per_query", "count"),
    lower("index.shard_ms_max_over_mean", "ratio"),
    higher("index.parallel_efficiency", "ratio"),
    lower("engine.single_query_ms_p50", "ms"),
    lower("engine.self_us_per_query", "us"),
    lower("engine.receipt_residual_share", "ratio"),
    lower("serve.decode_us_per_request", "us"),
    lower("serve.encode_us_per_response", "us"),
    lower("serve.request_bytes_per_query", "B"),
    lower("serve.response_bytes_per_query", "B"),
    lower("serve.handle_ms_p50_interactive", "ms"),
    lower("serve.handle_ms_p50_batch16", "ms"),
    lower("serve.wire_residual_ms_p50_interactive", "ms"),
    lower("serve.wire_residual_ms_p50_batch16", "ms"),
    lower("serve.queue_wait_ms_p50", "ms"),
    lower("serve.queue_wait_ms_p95", "ms"),
    lower("serve.rejected_busy", "count"),
    lower("serve.shed_deadline", "count"),
    lower("serve.interactive_ms_p50", "ms"),
    lower("serve.interactive_ms_p95", "ms"),
    lower("serve.batch16_ms_p50", "ms"),
    lower("serve.gen_lag_ms_p95", "ms"),
    higher("serve.max_rate_ok", "1/s"),
    higher("core.build_refs_per_s", "1/s"),
    lower("core.mean_encode_ber", "ratio"),
    lower("core.encode_ms_per_query", "ms"),
    lower("core.search_ms_per_query", "ms"),
    lower("core.cycles_per_query", "count"),
    lower("core.sim_time_s", "sim_s"),
    higher("baselines.annsolo_qps", "spectra/s"),
    higher("baselines.speedup_vs_annsolo", "ratio"),
    lower("obs.trace_overhead_share", "ratio"),
];

/// Catalogue entry of `name`, from either table.
pub fn metric_def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .find(|m| m.name == name)
}
