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
//! It is the one loop every engine scores through, written once over
//! the backend seam ([`hdoms_oms::search::RunScorer`]: encode a query
//! once, score one candidate run) and compiled per scorer behind one
//! boxed seam, so nothing here knows which backend it drives: the one an
//! index's kind names, or a scorer without an index kind (ANN-SoLo) as
//! one shard over every reference ([`ShardedBackend::one_shard`]).
//! Scores are bit-identical to the flat per-query loop
//! ([`hdoms_oms::search::best_hits`], the oracle the fan-out is tested
//! against): every per-(query, reference) evaluation is deterministic
//! and per-shard winners merge through the same
//! [`SearchHit::fold_into`] order the scans reduce through.

use hdoms_hdc::parallel::par_map;
use hdoms_ms::preprocess::BinnedSpectrum;
use hdoms_obs::metrics::Registry;
use hdoms_oms::search::{PreparedQuery, RunScorer, SearchHit};
use hdoms_prefilter::{PrefilterStats, SketchIndex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock spent scoring one shard during a batch search.
///
/// Summed out of a batch's [`QueryRecord`]s by [`QueryRecord::sum`],
/// sorted by shard position, covering only shards the batch actually
/// visited. `ms` sums every scoring visit the batch paid the shard
/// (across queries and worker threads — on a parallel batch the
/// per-shard figures can sum to more than the batch's wall-clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTiming {
    /// Shard position (as in [`crate::LibraryIndex::shards`]).
    pub shard: u32,
    /// Scoring visits the batch paid this shard.
    pub visits: u64,
    /// Wall-clock summed over those visits, in milliseconds.
    pub ms: f64,
}

/// The account of one query of a batch
/// ([`ShardedBackend::search_batch_traced`]): what it found and what it
/// cost, in integer counts and integer nanoseconds (the prefilter's all
/// 0 when the batch ran unfiltered). Scoring is per query, so these are
/// the whole of a search's accounting — any grouping of a batch (a
/// request, a coalesced member, the batch itself) is a
/// [`QueryRecord::sum`] over its queries' records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRecord {
    /// The best hit (`None` when no candidate was stored).
    pub hit: Option<SearchHit>,
    /// One `(shard position, scoring nanoseconds)` per shard run scored,
    /// ascending in shard position; empty (and unallocated) for a query
    /// with no candidates.
    pub visits: Vec<(u32, u64)>,
    /// Precursor-window candidates entering the sketch stage.
    pub candidates_pre: u64,
    /// Candidates the sketch stage forwarded to the exact scan.
    pub candidates_post: u64,
    /// Nanoseconds spent scoring sketches and narrowing.
    pub sketch_ns: u64,
}

impl QueryRecord {
    /// Sum the accounts of `records`: one [`ShardTiming`] per shard any
    /// of them visited (sorted by shard position; nanoseconds are summed
    /// as integers and converted once) and the prefilter stage's totals.
    pub fn sum(records: &[QueryRecord]) -> (Vec<ShardTiming>, PrefilterStats) {
        let mut shards: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let (mut stats, mut sketch_ns) = (PrefilterStats::default(), 0);
        for record in records {
            for &(shard, ns) in &record.visits {
                let (visits, total) = shards.entry(shard).or_default();
                *visits += 1;
                *total += ns;
            }
            stats.candidates_pre += record.candidates_pre;
            stats.candidates_post += record.candidates_post;
            sketch_ns += record.sketch_ns;
        }
        stats.sketch_ms = sketch_ns as f64 / 1e6;
        let timings = shards.into_iter().map(|(shard, (visits, ns))| ShardTiming {
            shard,
            visits,
            ms: ns as f64 / 1e6,
        });
        (timings.collect(), stats)
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

/// Sharded, shard-parallel search backend: the scoring stage of every
/// engine.
///
/// Construct through
/// [`LibraryIndex::sharded_backend`](crate::LibraryIndex::sharded_backend)
/// — the backend shares the index's reference-hypervector table rather
/// than cloning it, so index + backend hold one copy of the encoded
/// library — or, for a scorer without an index kind, through
/// [`ShardedBackend::one_shard`].
///
/// ```
/// use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
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
/// assert_eq!(backend.name(), format!("sharded(exact-hd, {} shards)", index.shards().len()));
/// ```
pub struct ShardedBackend {
    scorer: Box<dyn QueryScorer>,
    /// The name reports carry.
    name: String,
    /// Dense id → shard position: the index's table, shared.
    shard_of: Arc<[u32]>,
    shard_count: usize,
    threads: usize,
    series: ShardSeries,
}

/// The one erased seam: a scorer's per-query walk, compiled once per
/// [`RunScorer`] (so the per-run calls stay static) and boxed, so a
/// [`ShardedBackend`] is one type whatever it scores with.
trait QueryScorer: Send + Sync {
    fn score_query(
        &self,
        backend: &ShardedBackend,
        binned: &BinnedSpectrum,
        candidates: &[u32],
        parallel_shards: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> QueryRecord;
}

impl<S: RunScorer + Send> QueryScorer for S {
    fn score_query(
        &self,
        backend: &ShardedBackend,
        binned: &BinnedSpectrum,
        candidates: &[u32],
        parallel_shards: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> QueryRecord {
        backend.search_query(self, binned, candidates, parallel_shards, prefilter)
    }
}

impl ShardedBackend {
    /// `scorer` fanned out over an index's shards (`shard_of` maps each
    /// dense id to its shard position), reporting as
    /// `sharded(<scorer>, <N> shards)`.
    pub(crate) fn new<S: RunScorer + Send + Sync + 'static>(
        scorer: Box<S>,
        shard_of: Arc<[u32]>,
        shard_count: usize,
        threads: usize,
    ) -> ShardedBackend {
        ShardedBackend {
            name: format!("sharded({}, {shard_count} shards)", scorer.report_name()),
            scorer,
            shard_of,
            shard_count,
            threads: threads.max(1),
            series: ShardSeries::default(),
        }
    }

    /// `scorer` over references `0..references` as one shard, reporting
    /// under the scorer's own name: how an engine runs a backend that
    /// has no index kind (ANN-SoLo), with the same records, worker
    /// budget and series as every other engine.
    pub fn one_shard<S: RunScorer + Send + Sync + 'static>(
        scorer: Box<S>,
        references: usize,
        threads: usize,
    ) -> ShardedBackend {
        let name = scorer.report_name();
        let shard_of = std::iter::repeat_n(0, references).collect();
        ShardedBackend {
            name,
            ..ShardedBackend::new(scorer, shard_of, 1, threads)
        }
    }

    /// The name reports carry: `sharded(<scorer>, <N> shards)` over an
    /// index, the scorer's own name for [`ShardedBackend::one_shard`].
    pub fn name(&self) -> &str {
        &self.name
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

    /// Evaluate one query: encode once, narrow the candidate list
    /// through the prefilter's sketch stage when one is passed, score
    /// each shard run (timed into the record and the backend's series),
    /// fold the per-shard winners in the flat scan's order.
    ///
    /// `parallel_shards` (> 1) switches the per-shard scoring onto that
    /// many worker threads (used when the batch itself is too small to
    /// parallelise over queries).
    fn search_query<S: RunScorer>(
        &self,
        scorer: &S,
        binned: &BinnedSpectrum,
        candidates: &[u32],
        parallel_shards: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> QueryRecord {
        let mut record = QueryRecord::default();
        if candidates.is_empty() {
            return record;
        }
        let query = scorer.prepare(binned);
        // The sketch stage sits between encode and the shard walk: the
        // narrowed list keeps the original (ascending-mass) candidate
        // order, so the run partition below stays valid.
        let narrowed: Vec<u32>;
        let candidates = match prefilter {
            None => candidates,
            Some((sketch, k)) => {
                let words = query
                    .hv_words()
                    .expect("the sketch stage needs a hypervector query");
                let start = Instant::now();
                let signature = sketch.sketch_query(words);
                narrowed = sketch.narrow(&signature, candidates, k);
                record.candidates_pre = candidates.len() as u64;
                record.candidates_post = narrowed.len() as u64;
                record.sketch_ns = start.elapsed().as_nanos() as u64;
                &narrowed
            }
        };
        // The shard runs: candidates arrive mass-sorted and shards are
        // mass-contiguous, so shard positions form non-decreasing runs —
        // exactly the shards the precursor window reaches.
        let shard = |id: &u32| self.shard_of[*id as usize];
        let runs: Vec<&[u32]> = candidates.chunk_by(|a, b| shard(a) == shard(b)).collect();
        let score = |run: &[u32]| {
            let start = Instant::now();
            let hit = scorer.best_in(binned, &query, run);
            let ns = start.elapsed().as_nanos() as u64;
            self.series.score_ms.record_ms(ns as f64 / 1e6);
            self.series.visits.inc();
            (hit, (shard(&run[0]), ns))
        };
        record.visits.reserve_exact(runs.len());
        let fold = |(hit, visit): (Option<SearchHit>, (u32, u64))| {
            if let Some(hit) = hit {
                hit.fold_into(&mut record.hit);
            }
            record.visits.push(visit);
        };
        if parallel_shards > 1 && runs.len() > 1 {
            let scored = par_map(&runs, parallel_shards, |run| score(run));
            scored.into_iter().for_each(fold);
        } else {
            runs.into_iter().map(score).for_each(fold);
        }
        record
    }

    /// [`ShardedBackend::search_batch_traced`] summed over the batch
    /// ([`QueryRecord::sum`]): the hits, one [`ShardTiming`] per visited
    /// shard and the prefilter stage's accounting. With `prefilter` of
    /// `None` the stats come back zeroed (the caller reports the
    /// unfiltered candidate total for both stage counts).
    ///
    /// # Panics
    ///
    /// As [`ShardedBackend::search_batch_traced`].
    pub fn search_batch_prefiltered(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> (Vec<Option<SearchHit>>, Vec<ShardTiming>, PrefilterStats) {
        let records = self.search_batch_traced(queries, candidates, workers, prefilter);
        let (timings, stats) = QueryRecord::sum(&records);
        (records.iter().map(|r| r.hit).collect(), timings, stats)
    }

    /// The one search loop: one [`QueryRecord`] per query, in input
    /// order. Scoring is per query and independent of batch composition,
    /// so a record is bit-identical (hit and counts; nanoseconds are
    /// wall-clock) whatever batch its query rides in — which is the
    /// cross-request coalescing seam: the serve layer merges concurrent
    /// requests into one batch here and the engine sums each request's
    /// own range of records back out.
    ///
    /// When `prefilter` is `Some((sketch, k))`, every query's candidate
    /// list is narrowed to its top-`k` sketch scorers
    /// ([`SketchIndex::narrow`]) between the one-time query encode and
    /// the shard walk. With `k` at or above every window size the
    /// narrowed lists equal the input lists, so hits and visits match
    /// the unfiltered scan exactly.
    ///
    /// `workers` of `None` uses the backend's configured parallelism;
    /// `Some(n)` caps the batch at `n` worker threads (the serve
    /// scheduler's grants; `1` runs entirely inline on the calling
    /// thread). Scores are bit-identical across worker budgets — every
    /// evaluation is deterministic and order-preserving.
    ///
    /// # Panics
    ///
    /// Panics when `queries` and `candidates` do not pair up, the
    /// sketch does not cover the backend's reference ids, or a sketch is
    /// passed to a scorer whose queries are not hypervectors.
    pub fn search_batch_traced(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        let workers = workers.unwrap_or(self.threads).max(1);
        assert_eq!(
            queries.len(),
            candidates.len(),
            "queries and candidate lists must pair up"
        );
        let search = |i: usize, parallel_shards: usize| {
            self.scorer.score_query(
                self,
                &queries[i],
                &candidates[i],
                parallel_shards,
                prefilter,
            )
        };
        if queries.len() >= workers {
            // Enough queries to keep every worker busy: parallelise over
            // queries, keep each query's shard walk sequential (better
            // locality, no nested parallelism).
            let jobs: Vec<usize> = (0..queries.len()).collect();
            par_map(&jobs, workers, |&i| search(i, 1))
        } else {
            // Few queries (interactive / tail of a batch): go wide over
            // each query's shards instead.
            (0..queries.len()).map(|i| search(i, workers)).collect()
        }
    }
}
