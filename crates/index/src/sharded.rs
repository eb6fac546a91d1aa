//! Shard-parallel open-modification search over an indexed library.
//!
//! An open precursor window reaches only a contiguous band of reference
//! masses, so a query's candidates fall into a handful of consecutive
//! precursor-mass shards. [`ShardedBackend`] exploits that three ways:
//!
//! * **fan-out** — a query's candidates are a window (a range of
//!   positions) of the `(mass, id)` table whose runs the shards are, so
//!   its shard runs are the window split at the shard bounds;
//! * **sharing** — the open windows of a batch overlap, so a whole shard
//!   is usually the same run for dozens of its queries: runs over the
//!   same positions form one group, scored once for all of its members
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
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::search::{PreparedQuery, RunScorer, SearchHit};
use hdoms_prefilter::{PrefilterStats, SketchIndex};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
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
    /// ascending in shard position; empty (and unallocated) for a query
    /// with no candidates. A run shared with `m` queries of the batch
    /// carries `1/m` of the group's wall time (the remainder on the
    /// first).
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
    /// The `(mass, id)` table's id column, shared: a window of positions
    /// is a slice of it.
    ids: Arc<[u32]>,
    /// Shard `s` is positions `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
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
        windows: &[Range<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord>;
}

impl<S: RunScorer + Send> BatchScorer for S {
    fn score_batch(
        &self,
        backend: &ShardedBackend,
        queries: &[BinnedSpectrum],
        windows: &[Range<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        backend.search_with(self, queries, windows, workers, prefilter)
    }
}

/// One shard run scored once for every query of the batch that scans
/// it.
struct Group<'a> {
    shard: u32,
    run: &'a [u32],
    /// The queries sharing the run, ascending.
    members: Vec<usize>,
}

/// The shard runs of the positions `window` of a table cut at `bounds`:
/// `(shard, positions)`, ascending, empty shards skipped.
fn window_runs(bounds: &[u32], window: Range<u32>) -> impl Iterator<Item = (u32, Range<u32>)> + '_ {
    let first = bounds.partition_point(|&b| b <= window.start) - 1;
    (first as u32..)
        .zip(bounds[first..].windows(2))
        .map(move |(s, b)| (s, b[0].max(window.start)..b[1].min(window.end)))
        .take_while(move |(_, run)| run.start < window.end)
        .filter(|(_, run)| !run.is_empty())
}

impl ShardedBackend {
    /// `scorer` fanned out over an index's shards — runs of `table` cut
    /// at `bounds` (shard `s` is positions `bounds[s]..bounds[s + 1]`) —
    /// reporting as `sharded(<scorer>, <N> shards)`.
    pub(crate) fn new<S: RunScorer + Send + Sync + 'static>(
        scorer: Box<S>,
        table: &CandidateIndex,
        bounds: Vec<u32>,
        threads: usize,
    ) -> ShardedBackend {
        let shards = bounds.len() - 1;
        ShardedBackend {
            name: format!("sharded({}, {shards} shards)", scorer.report_name()),
            scorer,
            ids: Arc::clone(table.ids()),
            bounds,
            threads: threads.max(1),
            series: ShardSeries::default(),
        }
    }

    /// `scorer` over every reference of `table` as one shard, reporting
    /// under the scorer's own name: how an engine runs a backend that
    /// has no index kind (ANN-SoLo), with the same records, worker
    /// budget and series as every other engine.
    pub fn one_shard<S: RunScorer + Send + Sync + 'static>(
        scorer: Box<S>,
        table: &CandidateIndex,
        threads: usize,
    ) -> ShardedBackend {
        let name = scorer.report_name();
        let bounds = vec![0, table.ids().len() as u32];
        ShardedBackend {
            name,
            ..ShardedBackend::new(scorer, table, bounds, threads)
        }
    }

    /// The name reports carry: `sharded(<scorer>, <N> shards)` over an
    /// index, the scorer's own name for [`ShardedBackend::one_shard`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards the library is split into.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Point this backend's series — `hdoms_shard_score_ms` (a histogram
    /// of per-shard-visit scoring wall-clock) and
    /// `hdoms_shard_visits_total` — at a shared metrics [`Registry`].
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.series = ShardSeries::register(registry);
    }

    /// The batch loop: prepare each query once, narrow the whole batch's
    /// windows in one sketch pass when a prefilter is passed, split them
    /// at the shard bounds, score every run once for all of the queries
    /// that scan it, and fold each member's hit and visit into its record.
    fn search_with<S: RunScorer>(
        &self,
        scorer: &S,
        queries: &[BinnedSpectrum],
        windows: &[Range<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        // 1. Encode once per query, then narrow the whole batch through
        //    the sketch stage in one pass. A window it passes through whole
        //    stays a window.
        let jobs: Vec<usize> = (0..queries.len()).collect();
        let prepared = par_map(&jobs, workers, |&i| {
            (!windows[i].is_empty()).then(|| scorer.prepare(&queries[i]))
        });
        let mut records = vec![QueryRecord::default(); queries.len()];
        // Per narrowed query: its survivors' ids, then their positions.
        let mut narrowed: Vec<Option<(Vec<u32>, Vec<u32>)>> = vec![None; queries.len()];
        if let Some((sketch, k)) = prefilter {
            // The queries with candidates, each with its folded signature.
            let entering: Vec<(usize, Vec<u64>)> = (0..queries.len())
                .filter_map(|i| {
                    let words = prepared[i].as_ref()?.hv_words();
                    let words = words.expect("the sketch stage needs a hypervector query");
                    Some((i, sketch.sketch_query(words)))
                })
                .collect();
            let batch: Vec<(&[u64], Range<u32>)> = (entering.iter())
                .map(|(i, signature)| (&signature[..], windows[*i].clone()))
                .collect();
            let passes = sketch.narrow_batch(&batch, k, workers);
            for (&(i, _), pass) in entering.iter().zip(passes) {
                let record = &mut records[i];
                record.candidates_pre = windows[i].len() as u64;
                record.candidates_post = pass.survivors.len() as u64;
                record.sketch_ns = pass.sketch_ns;
                if pass.survivors.len() < windows[i].len() {
                    let ids = pass.survivors.iter().map(|&p| self.ids[p as usize]);
                    narrowed[i] = Some((ids.collect(), pass.survivors));
                }
            }
        }

        // 2. The shard runs: a window split at the shard bounds — exactly
        //    the shards the precursor window reaches. Window runs over the
        //    same positions share one group; a narrowed query's survivors
        //    in a run are a group of its own. `placed` keeps every (query,
        //    group, member) in query, then shard, order.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: HashMap<(u32, u32, u32), usize> = HashMap::new();
        let mut placed: Vec<(usize, usize, usize)> = Vec::new();
        for (i, window) in windows.iter().enumerate() {
            let (first, mut at) = (placed.len(), 0);
            for (shard, run) in window_runs(&self.bounds, window.clone()) {
                let g = match &narrowed[i] {
                    None => *group_of
                        .entry((shard, run.start, run.end))
                        .or_insert_with(|| {
                            let run = &self.ids[run.start as usize..run.end as usize];
                            groups.push(Group {
                                shard,
                                run,
                                members: Vec::new(),
                            });
                            groups.len() - 1
                        }),
                    Some((ids, positions)) => {
                        let from = at;
                        at += positions[at..].partition_point(|&p| p < run.end);
                        if from == at {
                            continue;
                        }
                        let run = &ids[from..at];
                        groups.push(Group {
                            shard,
                            run,
                            members: Vec::new(),
                        });
                        groups.len() - 1
                    }
                };
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

    /// [`ShardedBackend::search_batch_traced`] over copied candidate
    /// lists, summed over the batch ([`QueryRecord::sum`]): the hits, one
    /// [`ShardTiming`] per visited shard and the prefilter stage's
    /// accounting (zeroed with `prefilter` of `None`). Each list must be a
    /// window copied out of the backend's table, as
    /// `hdoms_oms::search::candidate_lists` copies them, and is searched
    /// as that window; the engine passes the windows themselves.
    ///
    /// # Panics
    ///
    /// As [`ShardedBackend::search_batch_traced`], and when a list is
    /// not a run of consecutive positions of the backend's table.
    pub fn search_batch_prefiltered(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> (Vec<Option<SearchHit>>, Vec<ShardTiming>, PrefilterStats) {
        // Each id's position: the inverse of the id column.
        let mut position = vec![0; self.ids.iter().max().map_or(0, |&id| id as usize + 1)];
        for (at, &id) in (0..).zip(self.ids.iter()) {
            position[id as usize] = at;
        }
        let windows: Vec<Range<u32>> = (candidates.iter())
            .map(|list| {
                let start = list.first().map_or(0, |&id| {
                    position.get(id as usize).copied().unwrap_or(u32::MAX)
                });
                let window = start..start.saturating_add(list.len() as u32);
                let ids = self.ids.get(window.start as usize..window.end as usize);
                assert!(
                    ids == Some(list),
                    "a candidate list is not a window of the table"
                );
                window
            })
            .collect();
        let records = self.search_batch_traced(queries, &windows, workers, prefilter);
        let (timings, stats) = QueryRecord::sum(&records);
        (records.iter().map(|r| r.hit).collect(), timings, stats)
    }

    /// The one search loop: one [`QueryRecord`] per query, in input
    /// order, query `i`'s candidates being `windows[i]`, a range of
    /// positions of the backend's table ([`CandidateIndex::window`]).
    /// Every `(query, reference)` score is independent of batch
    /// composition, so a record is bit-identical (hit and counts;
    /// nanoseconds are wall-clock, shared runs split between their
    /// queries) whatever batch its query rides in — which is the
    /// cross-request coalescing seam: the serve layer merges concurrent
    /// requests into one batch here and the engine sums each request's
    /// own range of records back out.
    ///
    /// When `prefilter` is `Some((sketch, k))`, every query's window is
    /// narrowed to its top-`k` sketch scorers
    /// ([`SketchIndex::narrow_batch`], one pass for the batch) between
    /// the one-time query encodes and the shard walk; the sketch's rows
    /// must follow the backend's table ([`SketchIndex::rows_follow`]).
    /// With `k` at or above every window size the windows pass through
    /// whole, so hits and visits match the unfiltered scan exactly.
    ///
    /// `workers` of `None` uses the backend's configured parallelism;
    /// `Some(n)` caps the batch at `n` worker threads (the serve
    /// scheduler's grants; `1` runs entirely inline on the calling
    /// thread). Scores are bit-identical across worker budgets — every
    /// evaluation is deterministic and order-preserving.
    ///
    /// # Panics
    ///
    /// Panics when `queries` and `windows` do not pair up, a window
    /// reaches beyond the table, the sketch's rows do not follow the
    /// backend's table, or a sketch is passed to a scorer whose queries
    /// are not hypervectors.
    pub fn search_batch_traced(
        &self,
        queries: &[BinnedSpectrum],
        windows: &[Range<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> Vec<QueryRecord> {
        let workers = workers.unwrap_or(self.threads).max(1);
        assert_eq!(
            queries.len(),
            windows.len(),
            "queries and candidate windows must pair up"
        );
        let table = self.ids.len();
        let inside = windows.iter().all(|w| w.end as usize <= table);
        assert!(inside, "a window reaches beyond the {table}-entry table");
        if let Some((sketch, _)) = prefilter {
            assert!(
                sketch.rows_follow(&self.ids),
                "the sketch's rows do not follow the backend's (mass, id) table"
            );
        }
        self.scorer
            .score_batch(self, queries, windows, workers, prefilter)
    }
}
