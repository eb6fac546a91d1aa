//! Shard-parallel open-modification search over an indexed library.
//!
//! An open precursor window reaches only a contiguous band of reference
//! masses, so a query's candidates fall into a handful of consecutive
//! precursor-mass shards. [`ShardedBackend`] exploits that three ways:
//!
//! * **fan-out** — a query's candidates are a window (a range of
//!   positions) of the `(mass, id)` table whose runs the shards are, so
//!   its shard runs are the window split at the shard bounds;
//! * **sharing** — the open windows of a batch overlap, so a shard's
//!   rows are wanted by dozens of its queries at once: per shard, the
//!   union of the batch's window runs is cut into row blocks, and each
//!   block is scored once for every query whose run reaches it, each
//!   query folding only the rows of its own run (the exact scan reads
//!   each reference row once per batch, not once per query — edge runs
//!   included);
//! * **parallelism** — job lists handed to the next free worker: the
//!   queries' encodes, then (with a prefilter) the sketch pass's blocks
//!   of up to 8 windows, then the row blocks (at least one per worker
//!   when the batch has the rows) and each narrowed query's shard runs.
//!   A single interactive query's blocks are its window's rows, so it
//!   still spreads over its budget.
//!
//! It is the one loop every engine scores through, written once over
//! the backend seam ([`hdoms_oms::search::RunScorer`]: encode a query
//! once, score one candidate run for a block of queries, each over its
//! own range of it) and compiled
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
use std::collections::BTreeMap;
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
/// visit counts its query's shares of the row blocks it shared with
/// other queries of the batch.
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
/// own, whatever batch it rides in; a row block it shares with other
/// queries of the batch is scored once for all of them and its time
/// split evenly between them, so the records of a batch still add up to
/// the time measured. These are the whole of a search's accounting — any
/// grouping of a batch (a request, a coalesced member, the batch
/// itself) is a [`QueryRecord::sum`] over its queries' records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRecord {
    /// The best hit (`None` when no candidate was stored).
    pub hit: Option<SearchHit>,
    /// One `(shard position, scoring nanoseconds)` per shard the query's
    /// window reaches (per shard its narrowed survivors reach, when the
    /// sketch stage narrowed it), ascending in shard position; empty (and
    /// unallocated) for a query with no candidates. The nanoseconds sum
    /// the query's shares of every job that scored its run in the shard:
    /// a row block scored for `m` queries gives each `1/m` of its wall
    /// time (the remainder to its first member).
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
        score_ms: Histogram = "hdoms_shard_score_ms", "Wall-clock of one shard-scoring visit (one query x one shard: its shares of the row blocks that scored its run there, a block scored for m queries of a batch counting 1/m of its time)";
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
/// use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
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
/// let index = LibraryIndex::build(&workload.library, config);
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

/// Rows per job of a shard's union of whole-window runs, at most: each
/// block is scored once against every query whose run reaches it, so the
/// exact scan reads a row once per batch. A batch with fewer than
/// `ROW_BLOCK × workers` such rows cuts shorter blocks, so every worker
/// gets one.
const ROW_BLOCK: u32 = 256;

/// One job of the shard walk: a run of references scored once for every
/// member whose range meets it.
struct Job<'a> {
    shard: u32,
    /// A row block of the table's id column, or one narrowed query's
    /// survivors in one shard.
    run: &'a [u32],
    /// The position `run[0]` stands at in the spans' coordinates: its
    /// table position for a row block, 0 for survivors (whose one span is
    /// `0..run.len()`).
    first: u32,
    /// The spans that may meet the run: the shard's whole-window runs,
    /// ascending in start, or the narrowed query's one.
    spans: Range<usize>,
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
    /// at the shard bounds, score each shard's union of whole-window runs
    /// once in row blocks (and each narrowed run as a group of its own),
    /// and fold each member's hits and time into its record.
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
        let prepared = par_map(queries, workers, |i, query| {
            (!windows[i].is_empty()).then(|| scorer.prepare(query))
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
        //    the shards the precursor window reaches, one visit each. A
        //    narrowed query's survivors in a shard are a job of their own;
        //    whole-window runs are gathered per shard for step 3.
        let mut spans: Vec<(usize, Range<u32>)> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        let mut whole: Vec<(u32, Range<u32>, usize)> = Vec::new();
        let mut walk: Vec<(u32, u64)> = Vec::new();
        for (i, window) in windows.iter().enumerate() {
            let mut at = 0;
            walk.clear();
            for (shard, run) in window_runs(&self.bounds, window.clone()) {
                match &narrowed[i] {
                    None => whole.push((shard, run, i)),
                    Some((ids, positions)) => {
                        let from = at;
                        at += positions[at..].partition_point(|&p| p < run.end);
                        if from == at {
                            continue;
                        }
                        spans.push((i, 0..(at - from) as u32));
                        jobs.push(Job {
                            shard,
                            run: &ids[from..at],
                            first: 0,
                            spans: spans.len() - 1..spans.len(),
                        });
                    }
                }
                walk.push((shard, 0));
            }
            records[i].visits = walk.to_vec();
        }

        // 3. Per shard, the union of its whole-window runs, cut into row
        //    blocks of at most `ROW_BLOCK` rows (fewer when that would
        //    leave a worker idle) at multiples of the block length: each
        //    block is one job, scored once against every query whose run
        //    reaches it. The jobs hold O(queries × shards) spans, however
        //    the windows' ends fall.
        whole.sort_unstable_by_key(|(shard, run, i)| (*shard, run.start, *i));
        let mut unions: Vec<(u32, Range<u32>, Range<usize>)> = Vec::new();
        for runs in whole.chunk_by(|a, b| a.0 == b.0) {
            let members = spans.len()..spans.len() + runs.len();
            spans.extend(runs.iter().map(|(_, run, i)| (*i, run.clone())));
            for (shard, run, _) in runs {
                match unions.last_mut() {
                    Some((s, union, _)) if s == shard && run.start <= union.end => {
                        union.end = union.end.max(run.end);
                    }
                    _ => unions.push((*shard, run.clone(), members.clone())),
                }
            }
        }
        let rows: u32 = unions.iter().map(|(_, union, _)| union.len() as u32).sum();
        let block = ROW_BLOCK.min(rows.div_ceil(workers as u32)).max(1);
        for (shard, union, members) in unions {
            let mut from = union.start;
            while from < union.end {
                let to = (from / block + 1).saturating_mul(block).min(union.end);
                jobs.push(Job {
                    shard,
                    run: &self.ids[from as usize..to as usize],
                    first: from,
                    spans: members.clone(),
                });
                from = to;
            }
        }

        // 4. Score the jobs in parallel, each one timed as a whole: a job's
        //    members are its spans that meet its rows, each ranging over
        //    the rows its own run holds.
        let scored = par_map(&jobs, workers, |_, job| {
            let rows = job.first..job.first + job.run.len() as u32;
            let meets = |&s: &usize| spans[s].1.start < rows.end && rows.start < spans[s].1.end;
            let meeting: Vec<usize> = job.spans.clone().filter(meets).collect();
            let members: Vec<_> = (meeting.iter())
                .map(|&s| {
                    let (i, run) = &spans[s];
                    let query = prepared[*i].as_ref();
                    let query = query.expect("a query with runs is prepared");
                    let from = run.start.max(rows.start) - rows.start;
                    let to = run.end.min(rows.end) - rows.start;
                    (&queries[*i], query, from as usize..to as usize)
                })
                .collect();
            let start = Instant::now();
            let hits = scorer.best_in_ranges(&members, job.run);
            (meeting, hits, start.elapsed().as_nanos() as u64)
        });

        // 5. Fold. A member's share of its job is an even share of the
        //    job's wall time (the remainder to the first member), summed
        //    into the query's one visit of the job's shard, so the records
        //    still sum to the time measured.
        for (job, (meeting, hits, ns)) in jobs.iter().zip(scored) {
            let sharers = meeting.len() as u64;
            for (member, (s, hit)) in meeting.into_iter().zip(hits).enumerate() {
                let share = ns / sharers + if member == 0 { ns % sharers } else { 0 };
                let record = &mut records[spans[s].0];
                if let Some(hit) = hit {
                    hit.fold_into(&mut record.hit);
                }
                let visit = record.visits.partition_point(|v| v.0 < job.shard);
                record.visits[visit].1 += share;
            }
        }
        for &(_, ns) in records.iter().flat_map(|r| &r.visits) {
            self.series.score_ms.record_ms(ns as f64 / 1e6);
            self.series.visits.inc();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, IndexedBackendKind, LibraryIndex};
    use hdoms_hdc::BinaryHypervector;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{best_hits, ExactBackend, RunMember};
    use std::sync::Mutex;

    /// One call a [`Counting`] scorer saw: the table position of the
    /// run's first id (`None` when the run is not a slice of the table's
    /// id column), the run's length, and each member's query id and
    /// range.
    type Call = (Option<usize>, usize, Vec<(u32, Range<usize>)>);

    /// The index's exact scorer, logging every run the shard loop hands
    /// it.
    struct Counting {
        exact: ExactBackend,
        ids: Arc<[u32]>,
        calls: Arc<Mutex<Vec<Call>>>,
    }

    impl RunScorer for Counting {
        type Query = BinaryHypervector;

        fn report_name(&self) -> String {
            "counting".to_owned()
        }

        fn prepare(&self, binned: &BinnedSpectrum) -> BinaryHypervector {
            self.exact.prepare(binned)
        }

        fn best_in_ranges(
            &self,
            members: &[RunMember<'_, BinaryHypervector>],
            run: &[u32],
        ) -> Vec<Option<SearchHit>> {
            let column = self.ids.as_ptr_range();
            let first = (column.contains(&run.as_ptr()))
                .then(|| (run.as_ptr() as usize - column.start as usize) / 4);
            let ranges = members.iter().map(|(q, _, range)| (q.id, range.clone()));
            let call = (first, run.len(), ranges.collect());
            self.calls.lock().expect("an unpoisoned log").push(call);
            self.exact.best_in_ranges(members, run)
        }
    }

    /// A 16-entry-shard exact index over the tiny library, its queries,
    /// and its shard bounds as table positions.
    fn fixture() -> (LibraryIndex, Vec<BinnedSpectrum>, Vec<u32>) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 46);
        let mut config = IndexConfig {
            entries_per_shard: 16,
            threads: 2,
            ..IndexConfig::default()
        };
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 512;
        }
        let index = LibraryIndex::build(&workload.library, config);
        let pre = Preprocessor::new(index.kind().preprocess());
        let binned = pre.run_batch(&workload.queries).0;
        let ends = index.shards().scan(0, |end, shard| {
            *end += shard.len() as u32;
            Some(*end)
        });
        let bounds = std::iter::once(0).chain(ends).collect();
        (index, binned, bounds)
    }

    /// The counting scorer over `index`'s shards, and its log.
    fn counting(index: &LibraryIndex, bounds: &[u32]) -> (ShardedBackend, Arc<Mutex<Vec<Call>>>) {
        let calls = Arc::default();
        let table = index.candidate_index();
        let scorer = Counting {
            exact: index.to_exact_backend(1).expect("an exact index"),
            ids: Arc::clone(table.ids()),
            calls: Arc::clone(&calls),
        };
        let backend = ShardedBackend::new(Box::new(scorer), &table, bounds.to_vec(), 2);
        (backend, calls)
    }

    /// Overlapping windows of every length, some repeated, one empty and
    /// one over the whole table, for the first `n` queries.
    fn windows(n: usize, last: u32) -> Vec<Range<u32>> {
        (0..n as u32)
            .map(|q| match q % 9 {
                0 => 0..last,
                1 => 40..40,
                2 | 3 => 100..260,
                _ => {
                    let start = (q * 53) % (last / 2);
                    start..(start + 1 + (q * 29) % (last / 2)).min(last)
                }
            })
            .collect()
    }

    /// Over a batch of whole windows every table position reaches the
    /// scorer exactly once, inside one shard and one job; each query's
    /// member ranges tile its window exactly; and the hits are the flat
    /// loop's.
    #[test]
    fn a_batch_of_whole_windows_reads_each_position_once() {
        let (index, binned, bounds) = fixture();
        let (backend, calls) = counting(&index, &bounds);
        let (table, last) = (index.candidate_index(), *bounds.last().expect("bounds"));
        let queries = &binned[..binned.len().min(40)];
        let windows = windows(queries.len(), last);
        let lists: Vec<Vec<u32>> = (windows.iter())
            .map(|w| table.ids()[w.start as usize..w.end as usize].to_vec())
            .collect();
        let oracle = best_hits(
            &index.to_exact_backend(1).expect("exact"),
            queries,
            &lists,
            1,
        );
        let query_of = |id: u32| queries.iter().position(|q| q.id == id).expect("a query");
        let shard_of = |p: usize| bounds.partition_point(|&b| b as usize <= p) - 1;
        for workers in [1, 2, 8] {
            calls.lock().expect("log").clear();
            let records = backend.search_batch_traced(queries, &windows, Some(workers), None);
            assert!(records.iter().map(|r| r.hit).eq(oracle.iter().copied()));
            let calls = calls.lock().expect("log");
            assert!(
                calls.len() >= workers,
                "{} jobs for {workers} workers",
                calls.len()
            );
            let mut reads = vec![0u32; last as usize];
            let mut scanned = vec![vec![0u32; last as usize]; queries.len()];
            for (first, len, members) in calls.iter() {
                let first = first.expect("a whole window's run is a slice of the table");
                assert_eq!(
                    shard_of(first),
                    shard_of(first + len - 1),
                    "a job crosses a shard"
                );
                reads[first..first + len].iter_mut().for_each(|r| *r += 1);
                for (id, range) in members {
                    assert!(!range.is_empty() && range.end <= *len);
                    let rows = first + range.start..first + range.end;
                    scanned[query_of(*id)][rows]
                        .iter_mut()
                        .for_each(|r| *r += 1);
                }
            }
            for (p, &read) in reads.iter().enumerate() {
                let wanted = windows.iter().any(|w| w.contains(&(p as u32)));
                assert_eq!(read, u32::from(wanted), "position {p}, {workers} workers");
            }
            for (q, window) in windows.iter().enumerate() {
                let expected = (0..last).map(|p| u32::from(window.contains(&p)));
                assert!(scanned[q].iter().copied().eq(expected), "query {q}");
                let shards: Vec<u32> = records[q].visits.iter().map(|v| v.0).collect();
                let reached = (window.start..window.end).map(|p| shard_of(p as usize) as u32);
                let mut reached: Vec<u32> = reached.collect();
                reached.dedup();
                assert_eq!(shards, reached, "query {q}: one visit per shard reached");
            }
        }
    }

    /// With the cascade narrowing, each narrowed query's survivors in
    /// each shard are one group of their own — one member scanning the
    /// whole run — while windows the sketch passes whole still share
    /// their rows.
    #[test]
    fn each_narrowed_run_is_its_own_group() {
        let (index, binned, bounds) = fixture();
        let (backend, calls) = counting(&index, &bounds);
        let (table, last) = (index.candidate_index(), *bounds.last().expect("bounds"));
        let (sketch, k) = (index.sketch_index(), 4);
        let queries = &binned[..binned.len().min(40)];
        let windows = windows(queries.len(), last);
        let exact = index.to_exact_backend(1).expect("exact");
        let shard_of = |id: &u32| {
            let p = table.ids().iter().position(|i| i == id).expect("an id");
            bounds.partition_point(|&b| b as usize <= p) - 1
        };
        // Per query: the shards its survivors reach, when it is narrowed.
        let expected: Vec<Option<Vec<usize>>> = (queries.iter().zip(&windows))
            .map(|(query, w)| {
                let list = &table.ids()[w.start as usize..w.end as usize];
                let signature = sketch.sketch_query(exact.prepare(query).words());
                let survivors = sketch.narrow(&signature, list, k);
                let mut shards: Vec<usize> = survivors.iter().map(shard_of).collect();
                shards.dedup();
                (survivors.len() < list.len()).then_some(shards)
            })
            .collect();
        assert!(expected.iter().any(Option::is_some), "nothing narrowed");
        assert!(
            (expected.iter().zip(&windows)).any(|(e, w)| e.is_none() && !w.is_empty()),
            "no window passed whole"
        );
        for workers in [1, 2, 8] {
            calls.lock().expect("log").clear();
            let records =
                backend.search_batch_traced(queries, &windows, Some(workers), Some((&sketch, k)));
            let calls = calls.lock().expect("log");
            let mut groups = vec![0usize; queries.len()];
            for (first, len, members) in calls.iter() {
                let q = |id: u32| queries.iter().position(|q| q.id == id).expect("a query");
                if first.is_none() {
                    assert_eq!(members.len(), 1, "a narrowed run is shared");
                    assert_eq!(members[0].1, 0..*len, "a narrowed run is scanned whole");
                    groups[q(members[0].0)] += 1;
                } else {
                    let whole = |(id, _): &(u32, Range<usize>)| expected[q(*id)].is_none();
                    assert!(members.iter().all(whole), "a narrowed query joined a block");
                }
            }
            for (q, shards) in expected.iter().enumerate() {
                let Some(shards) = shards else { continue };
                assert_eq!(groups[q], shards.len(), "query {q}, {workers} workers");
                let visited: Vec<usize> = records[q].visits.iter().map(|v| v.0 as usize).collect();
                assert_eq!(&visited, shards, "query {q}, {workers} workers");
            }
        }
    }
}
