//! Shard-parallel open-modification search over an indexed library.
//!
//! An open precursor window reaches only a contiguous band of reference
//! masses, so a query's candidates fall into a handful of consecutive
//! precursor-mass shards. [`ShardedBackend`] exploits that twice:
//!
//! * **fan-out** — each query's candidate list is partitioned into its
//!   shard runs (one linear pass: candidates arrive mass-sorted, shards
//!   are mass-contiguous, so shard ids form non-decreasing runs), and
//!   only shards overlapping the precursor window are ever touched;
//! * **parallelism** — with many queries in flight the batch parallelises
//!   over queries; with few queries each query parallelises over its
//!   shard runs, so even a single interactive query saturates the
//!   workers.
//!
//! This is the second loop over the backend seam
//! ([`hdoms_oms::search::RunScorer`]: encode a query once, score one
//! candidate run), beside the flat per-query loop in `hdoms-oms` — the
//! backend behind it is whichever the index kind names, boxed, and
//! nothing here knows which. Scores are bit-identical to the flat loop:
//! every per-(query, reference) evaluation is deterministic and
//! per-shard winners merge through the same
//! [`SearchHit::fold_into`] order the scans reduce through.

use hdoms_hdc::parallel::par_map;
use hdoms_hdc::BinaryHypervector;
use hdoms_ms::preprocess::BinnedSpectrum;
use hdoms_obs::metrics::Registry;
use hdoms_oms::search::{RunScorer, SearchHit, SimilarityBackend};
use hdoms_prefilter::{PrefilterStats, SketchIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The backend a [`ShardedBackend`] fans out over: any hypervector
/// scorer (the sketch prefilter reads the encoded query's words).
pub(crate) type BoxedScorer = Box<dyn RunScorer<Query = BinaryHypervector> + Send>;

/// Wall-clock spent scoring one shard during a batch search.
///
/// Produced by [`ShardedBackend::search_batch_grouped`], sorted by shard
/// position, covering only shards the batch actually visited. `ms` sums
/// every scoring visit the batch paid the shard (across queries and
/// worker threads — on a parallel batch the per-shard figures can sum
/// to more than the batch's wall-clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTiming {
    /// Shard position (as in [`crate::LibraryIndex::shards`]).
    pub shard: u32,
    /// Scoring visits the batch paid this shard.
    pub visits: u64,
    /// Wall-clock summed over those visits, in milliseconds.
    pub ms: f64,
}

/// Per-shard accumulators for one batch: plain atomics so the
/// scoring closures can record from any worker thread without locks.
struct ShardClock {
    ns: Vec<AtomicU64>,
    visits: Vec<AtomicU64>,
}

impl ShardClock {
    fn new(shard_count: usize) -> ShardClock {
        ShardClock {
            ns: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            visits: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, shard: usize, ns: u64) {
        self.ns[shard].fetch_add(ns, Ordering::Relaxed);
        self.visits[shard].fetch_add(1, Ordering::Relaxed);
    }

    fn timings(&self) -> Vec<ShardTiming> {
        (0..self.ns.len())
            .filter_map(|shard| {
                let visits = self.visits[shard].load(Ordering::Relaxed);
                (visits > 0).then(|| ShardTiming {
                    shard: shard as u32,
                    visits,
                    ms: self.ns[shard].load(Ordering::Relaxed) as f64 / 1e6,
                })
            })
            .collect()
    }
}

hdoms_obs::metrics::series! {
    /// What every shard-scoring visit records, always (into
    /// unregistered handles until [`ShardedBackend::attach_metrics`]
    /// names a registry).
    struct ShardSeries {
        score_ms: Histogram = "hdoms_shard_score_ms", "Wall-clock of one shard-scoring visit (one query x one shard run)";
        visits: Counter = "hdoms_shard_visits_total", "Shard-scoring visits performed by traced batch searches";
    }
}

/// Batch-wide cascade accumulators: plain atomics so the per-query
/// narrowing closures can record from any worker thread without locks
/// (sketch wall-clock is summed in integer nanoseconds and converted
/// once).
#[derive(Default)]
struct PrefilterClock {
    pre: AtomicU64,
    post: AtomicU64,
    ns: AtomicU64,
}

impl PrefilterClock {
    fn record(&self, pre: u64, post: u64, ns: u64) {
        self.pre.fetch_add(pre, Ordering::Relaxed);
        self.post.fetch_add(post, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn stats(&self) -> PrefilterStats {
        PrefilterStats {
            candidates_pre: self.pre.load(Ordering::Relaxed),
            candidates_post: self.post.load(Ordering::Relaxed),
            sketch_ms: self.ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Merge per-shard best hits in the flat scan's order.
fn merge_hits(hits: impl IntoIterator<Item = Option<SearchHit>>) -> Option<SearchHit> {
    let mut best: Option<SearchHit> = None;
    for hit in hits.into_iter().flatten() {
        hit.fold_into(&mut best);
    }
    best
}

/// Sharded, shard-parallel search backend over an indexed library.
///
/// Construct through
/// [`LibraryIndex::sharded_backend`](crate::LibraryIndex::sharded_backend);
/// the backend shares the index's reference-hypervector table rather
/// than cloning it, so index + backend hold one copy of the encoded
/// library.
///
/// ```
/// use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
/// use hdoms_oms::pipeline::{OmsPipeline, PipelineConfig};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 5);
/// let mut config = IndexConfig {
///     entries_per_shard: 64,
///     threads: 2,
///     ..IndexConfig::default()
/// };
/// if let IndexedBackendKind::Exact(exact) = &mut config.kind {
///     exact.encoder.dim = 512;
/// }
/// let index = IndexBuilder::new(config).from_library(&workload.library);
///
/// let backend = index.sharded_backend(2).unwrap();
/// assert_eq!(backend.shard_count(), index.shards().len());
///
/// let mut pipeline_config = PipelineConfig::fast_test();
/// pipeline_config.exact.encoder.dim = 512;
/// let outcome = OmsPipeline::new(pipeline_config)
///     .run_catalog(&workload.queries, &index, &backend);
/// assert!(!outcome.psms.is_empty());
/// ```
pub struct ShardedBackend {
    scorer: BoxedScorer,
    /// Dense id → shard position.
    shard_of: Vec<u32>,
    shard_count: usize,
    threads: usize,
    series: ShardSeries,
}

impl ShardedBackend {
    pub(crate) fn new(
        scorer: BoxedScorer,
        shard_of: Vec<u32>,
        shard_count: usize,
        threads: usize,
    ) -> ShardedBackend {
        ShardedBackend {
            scorer,
            shard_of,
            shard_count,
            threads: threads.max(1),
            series: ShardSeries::default(),
        }
    }

    /// Number of shards the library is split into.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Point this backend's series — `hdoms_shard_score_ms` (a histogram
    /// of per-shard-visit scoring wall-clock) and
    /// `hdoms_shard_visits_total` — at a shared metrics [`Registry`].
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.series = ShardSeries::register(registry);
    }

    /// Partition a mass-sorted candidate list into its shard runs.
    ///
    /// Candidates belonging to shards the precursor window does not reach
    /// simply do not occur in the list, so the returned runs are exactly
    /// the overlapping shards.
    fn shard_runs<'c>(&self, candidates: &'c [u32]) -> Vec<&'c [u32]> {
        let shard = |id: &u32| self.shard_of[*id as usize];
        candidates.chunk_by(|a, b| shard(a) == shard(b)).collect()
    }

    /// Evaluate one query: encode once, narrow the candidate list
    /// through the prefilter's sketch stage when one is passed, score
    /// each shard run (timed into `clock` and the backend's series),
    /// merge.
    ///
    /// `parallel_shards` (> 1) switches the per-shard scoring onto that
    /// many worker threads (used when the batch itself is too small to
    /// parallelise over queries).
    fn search_query(
        &self,
        binned: &BinnedSpectrum,
        candidates: &[u32],
        parallel_shards: usize,
        clock: &ShardClock,
        prefilter: Option<(&SketchIndex, usize, &PrefilterClock)>,
    ) -> Option<SearchHit> {
        if candidates.is_empty() {
            return None;
        }
        let query_hv = self.scorer.prepare(binned);
        // The sketch stage sits between encode and the shard walk: the
        // narrowed list keeps the original (ascending-mass) candidate
        // order, so the run partition below stays valid.
        let narrowed: Vec<u32>;
        let candidates = match prefilter {
            None => candidates,
            Some((sketch, k, pclock)) => {
                let start = Instant::now();
                let signature = sketch.sketch_query(query_hv.words());
                narrowed = sketch.narrow(&signature, candidates, k);
                pclock.record(
                    candidates.len() as u64,
                    narrowed.len() as u64,
                    start.elapsed().as_nanos() as u64,
                );
                &narrowed
            }
        };
        let runs = self.shard_runs(candidates);
        let score = |run: &[u32]| -> Option<SearchHit> {
            let start = Instant::now();
            let hit = self.scorer.best_in(binned, &query_hv, run);
            let ns = start.elapsed().as_nanos() as u64;
            clock.record(self.shard_of[run[0] as usize] as usize, ns);
            self.series.score_ms.record_ms(ns as f64 / 1e6);
            self.series.visits.inc();
            hit
        };
        if parallel_shards > 1 && runs.len() > 1 {
            let hits = par_map(&runs, parallel_shards, |run| score(run));
            merge_hits(hits)
        } else {
            merge_hits(runs.into_iter().map(score))
        }
    }

    /// [`ShardedBackend::search_batch_grouped`] over one group: the
    /// hits plus one [`ShardTiming`] per visited shard (sorted by shard
    /// position) and the prefilter stage's accounting.
    ///
    /// When `prefilter` is `Some((sketch, k))`, every query's candidate
    /// list is narrowed to its top-`k` sketch scorers
    /// ([`SketchIndex::narrow`]) between the one-time query encode and
    /// the shard walk, and the returned [`PrefilterStats`] account the
    /// pre/post candidate counts plus the sketch stage's summed
    /// wall-clock. With `prefilter` of `None` the stats come back
    /// zeroed (the caller reports the unfiltered candidate total for
    /// both stage counts). With `k` at or above every window size the
    /// narrowed lists equal the input lists, so hits, timings *and*
    /// per-stage counts match the unfiltered scan exactly.
    ///
    /// `workers` of `None` uses the backend's configured parallelism;
    /// `Some(n)` caps the batch at `n` worker threads (the serve
    /// scheduler's grants; `1` runs entirely inline on the calling
    /// thread). Scores are bit-identical across worker budgets — every
    /// evaluation is deterministic and order-preserving.
    ///
    /// # Panics
    ///
    /// Panics when `queries` and `candidates` do not pair up, or the
    /// sketch does not cover the backend's reference ids.
    pub fn search_batch_prefiltered(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> (Vec<Option<SearchHit>>, Vec<ShardTiming>, PrefilterStats) {
        let group_of = vec![0u32; queries.len()];
        let (hits, mut timings, mut stats) =
            self.search_batch_grouped(queries, candidates, workers, prefilter, &group_of, 1);
        (
            hits,
            timings.pop().expect("one group was requested"),
            stats.pop().expect("one group was requested"),
        )
    }

    /// The one search loop, over a **merged** batch of one or more
    /// request groups: query `i` belongs to group
    /// `group_of[i]` (`0..group_count`), and the per-shard timings and
    /// prefilter stats come back **per group**, exactly as if each
    /// group had been searched alone — the clocks are indexed by group,
    /// so the accounting is precise even when the prefilter narrows
    /// different groups by different amounts.
    ///
    /// The hits come back in input order. Scoring is per-query and
    /// independent of batch composition, so they are bit-identical to
    /// searching each group separately; only the accounting needs the
    /// group map. This is the cross-request coalescing seam: the serve
    /// layer merges concurrent interactive requests into one batch here
    /// and splits receipts back out per request.
    ///
    /// # Panics
    ///
    /// Panics when `queries`, `candidates` and `group_of` do not pair
    /// up, a group id is at or beyond `group_count`, or the sketch does
    /// not cover the backend's reference ids.
    pub fn search_batch_grouped(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
        group_of: &[u32],
        group_count: usize,
    ) -> (
        Vec<Option<SearchHit>>,
        Vec<Vec<ShardTiming>>,
        Vec<PrefilterStats>,
    ) {
        let workers = workers.unwrap_or(self.threads).max(1);
        assert_eq!(
            queries.len(),
            candidates.len(),
            "queries and candidate lists must pair up"
        );
        assert_eq!(
            queries.len(),
            group_of.len(),
            "queries and group ids must pair up"
        );
        assert!(
            group_of.iter().all(|&g| (g as usize) < group_count),
            "group id out of range"
        );
        let clocks: Vec<ShardClock> = (0..group_count)
            .map(|_| ShardClock::new(self.shard_count))
            .collect();
        let pclocks: Vec<PrefilterClock> = (0..group_count)
            .map(|_| PrefilterClock::default())
            .collect();
        let search = |i: usize, parallel_shards: usize| {
            let group = group_of[i] as usize;
            let narrowing = prefilter.map(|(sketch, k)| (sketch, k, &pclocks[group]));
            self.search_query(
                &queries[i],
                &candidates[i],
                parallel_shards,
                &clocks[group],
                narrowing,
            )
        };
        let hits = if queries.len() >= workers {
            // Enough queries to keep every worker busy: parallelise over
            // queries, keep each query's shard walk sequential (better
            // locality, no nested parallelism).
            let jobs: Vec<usize> = (0..queries.len()).collect();
            par_map(&jobs, workers, |&i| search(i, 1))
        } else {
            // Few queries (interactive / tail of a batch): go wide over
            // each query's shards instead.
            (0..queries.len()).map(|i| search(i, workers)).collect()
        };
        (
            hits,
            clocks.iter().map(ShardClock::timings).collect(),
            pclocks.iter().map(PrefilterClock::stats).collect(),
        )
    }
}

impl SimilarityBackend for ShardedBackend {
    fn name(&self) -> String {
        format!(
            "sharded({}, {} shards)",
            self.scorer.report_name(),
            self.shard_count
        )
    }

    fn search_batch(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
    ) -> Vec<Option<SearchHit>> {
        self.search_batch_prefiltered(queries, candidates, None, None)
            .0
    }
}
