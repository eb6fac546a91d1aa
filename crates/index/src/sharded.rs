//! Shard-parallel open-modification search over an indexed library.
//!
//! An open precursor window reaches only a contiguous band of reference
//! masses, so a query's candidates fall into a handful of consecutive
//! precursor-mass shards. [`ShardedBackend`] exploits that three ways:
//!
//! * **fan-out** — each query's candidate list is partitioned into its
//!   shard runs (one linear pass: candidates arrive mass-sorted, shards
//!   are mass-contiguous, so shard ids form non-decreasing runs), and
//!   only shards overlapping the precursor window are ever touched;
//! * **sharing** — the open windows of a batch overlap, so a whole shard
//!   is usually the same run for dozens of its queries: runs that are
//!   the same slice form one group, scored once for all of its members
//!   (the exact scan reads each reference tile once per group, not once
//!   per query);
//! * **parallelism** — job lists handed to the next free worker: the
//!   queries' encodes, then (with a prefilter) the sketch pass's blocks
//!   of up to 8 windows, then the groups. A single interactive query's
//!   groups are its shard runs, so it still spreads over its shards.
//!
//! It is the one loop every engine scores through, written once over
//! the backend seam ([`hdoms_oms::search::RunScorer`]: encode a query
//! once, score one candidate run for a block of queries) and compiled
//! per scorer behind one boxed seam, so nothing here knows which
//! backend it drives: the one an
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
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock spent scoring one shard during a batch search.
///
/// Summed out of a batch's [`QueryRecord`]s by [`QueryRecord::sum`],
/// sorted by shard position, covering only shards the batch actually
/// visited. `ms` sums every scoring visit the batch paid the shard
/// (across queries and worker threads — on a parallel batch the
/// per-shard figures can sum to more than the batch's wall-clock); a
/// visit shared with other queries of the batch counts its share of the
/// group's time.
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
/// 0 when the batch ran unfiltered). Hits and counts are the query's
/// own, whatever batch it rides in; a run it shares with other queries
/// of the batch is scored once for all of them and its time split
/// evenly between them, so the records of a batch still add up to the
/// time measured. These are the whole of a search's accounting — any
/// grouping of a batch (a request, a coalesced member, the batch
/// itself) is a [`QueryRecord::sum`] over its queries' records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRecord {
    /// The best hit (`None` when no candidate was stored).
    pub hit: Option<SearchHit>,
    /// One `(shard position, scoring nanoseconds)` per shard run scored,
    /// in the list's run order (ascending in shard position for a
    /// mass-sorted list); empty (and unallocated) for a query with no
    /// candidates. A run shared with `m` queries of the batch carries
    /// `1/m` of the group's wall time (the remainder on the first).
    pub visits: Vec<(u32, u64)>,
    /// Precursor-window candidates entering the sketch stage.
    pub candidates_pre: u64,
    /// Candidates the sketch stage forwarded to the exact scan.
    pub candidates_post: u64,
    /// Nanoseconds spent scoring sketches and narrowing: the query's
    /// share of its sketch block ([`SketchIndex::narrow_batch`] sweeps up
    /// to `QUERY_TILE` queries' windows together), the block's wall time
    /// split evenly between its queries with the remainder to the
    /// first — the rule shared shard visits follow.
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
        score_ms: Histogram = "hdoms_shard_score_ms", "Wall-clock of one shard-scoring visit (one query x one shard run; a run shared by m queries of a batch counts 1/m of its time)";
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
    scorer: Box<dyn BatchScorer>,
    /// The name reports carry.
    name: String,
    /// Dense id → shard position: the index's table, shared.
    shard_of: Arc<[u32]>,
    shard_count: usize,
    threads: usize,
    series: ShardSeries,
}

/// The one erased seam: a scorer's batch loop, compiled once per
/// [`RunScorer`] (so the per-group calls stay static) and boxed, so a
/// [`ShardedBackend`] is one type whatever it scores with.
trait BatchScorer: Send + Sync {
    fn score_batch(
        &self,
        backend: &ShardedBackend,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord>;
}

impl<S: RunScorer + Send> BatchScorer for S {
    fn score_batch(
        &self,
        backend: &ShardedBackend,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        backend.search_with(self, queries, candidates, workers, prefilter)
    }
}

/// A shard run as a grouping key: equal as a slice, hashed by its ends
/// and length alone (cheap, and equal slices share them).
#[derive(PartialEq, Eq)]
struct RunKey<'a>(&'a [u32]);

impl Hash for RunKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0.first(), self.0.last(), self.0.len()).hash(state);
    }
}

/// One shard run scored once for every query of the batch whose list
/// holds that very slice.
struct Group<'a> {
    shard: u32,
    run: &'a [u32],
    /// The queries sharing the run, ascending.
    members: Vec<usize>,
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

    /// The batch loop: prepare each query once, narrow the whole batch's
    /// lists in one sketch pass when a prefilter is passed, group each
    /// shard's runs by slice equality, score every group once for all of
    /// its members, and fold each member's hit and visit into its record
    /// in its list's run order.
    fn search_with<S: RunScorer>(
        &self,
        scorer: &S,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        // 1. Encode once per query, then narrow the whole batch through
        //    the sketch stage in one pass. A narrowed list keeps the
        //    input's (ascending-mass) order, so the run partition stays
        //    valid.
        let jobs: Vec<usize> = (0..queries.len()).collect();
        let prepared = par_map(&jobs, workers, |&i| {
            (!candidates[i].is_empty()).then(|| scorer.prepare(&queries[i]))
        });
        let mut records = vec![QueryRecord::default(); queries.len()];
        let mut lists: Vec<Cow<[u32]>> = candidates.iter().map(|c| Cow::Borrowed(&c[..])).collect();
        if let Some((sketch, k)) = prefilter {
            // The queries with candidates, each with its folded signature.
            let entering: Vec<(usize, Vec<u64>)> = (0..queries.len())
                .filter_map(|i| {
                    let words = prepared[i].as_ref()?.hv_words();
                    let words = words.expect("the sketch stage needs a hypervector query");
                    Some((i, sketch.sketch_query(words)))
                })
                .collect();
            let batch: Vec<(&[u64], &[u32])> = (entering.iter())
                .map(|(i, signature)| (&signature[..], &candidates[*i][..]))
                .collect();
            let narrowed = sketch.narrow_batch(&batch, k, workers);
            for (&(i, _), narrowed) in entering.iter().zip(narrowed) {
                let record = &mut records[i];
                record.candidates_pre = candidates[i].len() as u64;
                record.candidates_post = narrowed.survivors.len() as u64;
                record.sketch_ns = narrowed.sketch_ns;
                lists[i] = Cow::Owned(narrowed.survivors);
            }
        }

        // 2. The shard runs: candidates arrive mass-sorted and shards are
        //    mass-contiguous, so shard positions form non-decreasing runs
        //    — exactly the shards the precursor window reaches. Runs that
        //    are the same slice share one group; `placed` keeps every
        //    (query, group, member) in query, then run, order.
        let shard = |id: &u32| self.shard_of[*id as usize];
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: HashMap<RunKey, usize> = HashMap::new();
        let mut placed: Vec<(usize, usize, usize)> = Vec::new();
        for (i, list) in lists.iter().enumerate() {
            let first = placed.len();
            for run in list.chunk_by(|a, b| shard(a) == shard(b)) {
                let g = *group_of.entry(RunKey(run)).or_insert_with(|| {
                    groups.push(Group {
                        shard: shard(&run[0]),
                        run,
                        members: Vec::new(),
                    });
                    groups.len() - 1
                });
                placed.push((i, g, groups[g].members.len()));
                groups[g].members.push(i);
            }
            records[i].visits.reserve_exact(placed.len() - first);
        }

        // 3. Score the groups in parallel, each one timed as a whole.
        let scored = par_map(&groups, workers, |group| {
            let members: Vec<_> = (group.members.iter())
                .map(|&i| {
                    let query = prepared[i].as_ref();
                    (&queries[i], query.expect("a query with runs is prepared"))
                })
                .collect();
            let start = Instant::now();
            let hits = scorer.best_in_each(&members, group.run);
            (hits, start.elapsed().as_nanos() as u64)
        });

        // 4. Fold. A member's visit costs an even share of its group's
        //    wall time (the remainder to the first member), so the
        //    records still sum to the time measured.
        for (i, g, member) in placed {
            let (hits, ns) = &scored[g];
            let sharers = hits.len() as u64;
            let share = ns / sharers + if member == 0 { ns % sharers } else { 0 };
            self.series.score_ms.record_ms(share as f64 / 1e6);
            self.series.visits.inc();
            if let Some(hit) = hits[member] {
                hit.fold_into(&mut records[i].hit);
            }
            records[i].visits.push((groups[g].shard, share));
        }
        records
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
    /// order. Every `(query, reference)` score is independent of batch
    /// composition, so a record is bit-identical (hit and counts;
    /// nanoseconds are wall-clock, shared runs split between their
    /// queries) whatever batch its query rides in — which is the
    /// cross-request coalescing seam: the serve layer merges concurrent
    /// requests into one batch here and the engine sums each request's
    /// own range of records back out.
    ///
    /// When `prefilter` is `Some((sketch, k))`, every query's candidate
    /// list is narrowed to its top-`k` sketch scorers
    /// ([`SketchIndex::narrow_batch`], one pass for the batch) between
    /// the one-time query encodes and the shard walk. With `k` at or above every window size the
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
        self.scorer
            .score_batch(self, queries, candidates, workers, prefilter)
    }
}
