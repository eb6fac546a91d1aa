//! Two-stage ANN candidate cascade: a folded-hypervector **sketch
//! index** plus the top-K prefilter that narrows precursor-window
//! candidate lists before the exact scan.
//!
//! Every query used to exact-scan its entire precursor window, so
//! per-query cost grew linearly with library size. The cascade splits
//! the scan in two:
//!
//! 1. **Sketch stage** — every reference hypervector is *folded* down
//!    to a fixed-width signature (a strided sample of its packed
//!    words, [`SketchIndex::word_selection`]). Query signatures are
//!    scored against every candidate signature through the dispatched
//!    slab kernel ([`hdoms_hdc::kernels::KernelDispatch::hamming_slab`])
//!    — a few words per pair instead of the full dimension, and one
//!    sweep of a window's rows for a whole block of a batch's queries
//!    ([`SketchIndex::narrow_batch`]).
//! 2. **Exact stage** — only the top-K sketch scorers survive and are
//!    re-scored at full dimension by the existing backends.
//!
//! Because a bit sampled from a binary hypervector preserves the
//! Hamming geometry in expectation (each word is an unbiased 64-bit
//! sample of the full distance), sketch ranking tracks exact ranking
//! closely; the knob trading recall for speed is K
//! ([`PrefilterConfig::TopK`]). `PrefilterConfig::Off` bypasses the
//! cascade entirely and is byte-identical to the pre-cascade pipeline.
//!
//! A query's candidates reach the sketch stage as a **window**, a range
//! of rows (an index lays the rows out in its `(mass, id)` table's
//! order, [`SketchIndex::from_rows`]),
//! and survivors come back as rows, ascending: the sharded backend walks
//! shard runs in mass order, and ties break by id as in the exact scan.

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

use hdoms_hdc::kernels::{self, KernelDispatch, QUERY_TILE};
use hdoms_hdc::parallel::par_map;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Default signature width in 64-bit words (1024 bits). Wide enough
/// that sketch ranking keeps recall@K ≥ 0.99 at the default K on the
/// evaluation workloads (see `docs/PREFILTER.md`), narrow enough that
/// the sketch stage reads 8× less than a dim-8192 exact scan.
pub const SKETCH_WORDS: usize = 16;

/// Default number of candidates forwarded to the exact stage per
/// query ([`PrefilterConfig::TopK`]).
pub const DEFAULT_TOP_K: usize = 256;

/// The prefilter knob: how many candidates the sketch stage forwards
/// to the exact scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterConfig {
    /// No prefilter: the exact scan sees every precursor-window
    /// candidate, byte-identical to the pre-cascade pipeline.
    #[default]
    Off,
    /// Keep only the K best sketch scorers per query (candidate lists
    /// already at or below K pass through untouched).
    TopK(usize),
}

impl PrefilterConfig {
    /// Parse the CLI / wire spelling: `"off"`, or `"k=N"` with `N ≥ 1`
    /// (`"k=default"` selects [`DEFAULT_TOP_K`]).
    ///
    /// # Errors
    ///
    /// Describes the unknown spelling or a zero K.
    pub fn parse(text: &str) -> Result<PrefilterConfig, String> {
        if text.eq_ignore_ascii_case("off") {
            return Ok(PrefilterConfig::Off);
        }
        if let Some(k) = text.strip_prefix("k=") {
            if k.eq_ignore_ascii_case("default") {
                return Ok(PrefilterConfig::TopK(DEFAULT_TOP_K));
            }
            let k: usize = k
                .parse()
                .map_err(|_| format!("invalid prefilter K {k:?} (a positive integer)"))?;
            return PrefilterConfig::TopK(k).checked();
        }
        Err(format!(
            "unknown prefilter {text:?} (expected \"off\" or \"k=N\")"
        ))
    }

    /// This configuration, if the cascade can run it: `Off`, or `TopK`
    /// with K ≥ 1.
    ///
    /// # Errors
    ///
    /// `TopK(0)`, with the text [`PrefilterConfig::parse`] gives `k=0`.
    pub fn checked(self) -> Result<PrefilterConfig, String> {
        match self {
            PrefilterConfig::TopK(0) => {
                Err("prefilter K must be ≥ 1 (use \"off\" to disable)".to_owned())
            }
            config => Ok(config),
        }
    }

    /// The canonical spelling [`PrefilterConfig::parse`] accepts back:
    /// `"off"` or `"k=N"`.
    pub fn render(self) -> String {
        match self {
            PrefilterConfig::Off => "off".to_owned(),
            PrefilterConfig::TopK(k) => format!("k={k}"),
        }
    }

    /// Whether the cascade is disabled.
    pub fn is_off(self) -> bool {
        self == PrefilterConfig::Off
    }

    /// The configured K, if the cascade is on.
    pub fn top_k(self) -> Option<usize> {
        match self {
            PrefilterConfig::Off => None,
            PrefilterConfig::TopK(k) => Some(k),
        }
    }
}

/// Per-batch cascade accounting: how many candidates the precursor
/// window produced, how many survived to the exact scan, and the
/// wall-clock the sketch stage cost. With the prefilter off the two
/// counts are equal and `sketch_ms` is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrefilterStats {
    /// Candidates entering the sketch stage (the precursor-window
    /// total).
    pub candidates_pre: u64,
    /// Candidates forwarded to the exact scan.
    pub candidates_post: u64,
    /// Wall-clock spent scoring sketches, milliseconds.
    pub sketch_ms: f64,
}

/// One query's outcome of [`SketchIndex::narrow_batch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Narrowed {
    /// The rows forwarded to the exact stage, ascending.
    pub survivors: Vec<u32>,
    /// The query's share of the wall-clock of the block it was narrowed
    /// in: a block's nanoseconds split evenly between its queries, the
    /// remainder to its first, so a batch's shares add up to the time
    /// measured.
    pub sketch_ns: u64,
}

/// A folded-hypervector sketch index: one fixed-width signature per
/// reference slot, in a dense row-major table laid out once, in the order
/// of an id column its owner hands over ([`SketchIndex::from_rows`]): row
/// `r` holds slot `ids[r]`. A library index hands over its `(mass, id)`
/// table's id column, so a precursor window *is* a range of rows, and it
/// streams through the slab kernel cache line by cache line. Equality
/// compares the rows in their stored order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchIndex {
    /// Words per full reference hypervector (`ceil(dim / 64)`), kept
    /// for validation of query word slices.
    full_words: usize,
    /// Strictly increasing word indices sampled from each full
    /// hypervector; `selected.len()` is the signature width.
    selected: Vec<u32>,
    /// `slots × selected.len()` signature words, row-major. Absent slots
    /// hold zero rows.
    table: Vec<u64>,
    /// `row_of[id]` is slot `id`'s row in `table`; one entry per slot.
    row_of: Vec<u32>,
    /// The inverse map, shared with the column's owner: `ids[row]` is the
    /// slot whose signature `row` holds.
    ids: Arc<[u32]>,
    /// Presence bitset over rows (bit `row % 64` of word `row / 64`):
    /// references preprocessing rejected carry no hypervector and must
    /// never be forwarded by the sketch stage.
    present: Vec<u64>,
}

/// The distance the sketch pass gives a candidate without a signature:
/// beyond every real one, and never counted.
const ABSENT: u32 = u32::MAX;

/// Rows per slab-kernel call of the sketch pass: a full block's
/// distances (`QUERY_TILE × ROW_TILE` words) stay in L1 beside the
/// queries' histograms until they are folded in.
const ROW_TILE: usize = 256;

/// One query's sketch distances over its window (`ABSENT` for a row
/// without a signature), and how many present rows sit at each
/// distance.
struct Scores {
    distance: Vec<u32>,
    histogram: Vec<u32>,
}

impl Scores {
    fn new(rows: usize, sketch_dim: usize) -> Scores {
        Scores {
            distance: vec![ABSENT; rows],
            histogram: vec![0; sketch_dim + 1],
        }
    }

    /// Take the kernel's distances of the rows from window offset `at`
    /// on; the ones at offsets `absent` have no signature and keep
    /// `ABSENT`.
    fn fold(&mut self, at: usize, scored: &[u32], absent: &[usize]) {
        self.distance[at..at + scored.len()].copy_from_slice(scored);
        for &d in scored {
            self.histogram[d as usize] += 1;
        }
        for &r in absent {
            self.histogram[scored[r] as usize] -= 1;
            self.distance[at + r] = ABSENT;
        }
    }
}

impl SketchIndex {
    /// The evenly strided word sample: `min(target, full_words)`
    /// strictly increasing indices into a `full_words`-word
    /// hypervector, spread across its whole span so the signature
    /// samples every region of the dimension.
    pub fn word_selection(full_words: usize, target: usize) -> Vec<u32> {
        let take = target.clamp(1, full_words.max(1));
        (0..take)
            .map(|i| ((i * full_words) / take) as u32)
            .collect()
    }

    /// The signature of a hypervector: its packed words at the
    /// `selected` indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if an index reaches beyond `hv_words`.
    pub fn sample<'a>(selected: &'a [u32], hv_words: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        selected.iter().map(|&w| hv_words[w as usize])
    }

    /// Lay a sketch out in the order of `ids`, an id column listing every
    /// slot once: row `r` holds slot `ids[r]`'s signature — the words
    /// `row(ids[r])` yields, or for `None` (a slot preprocessing rejected)
    /// a zero row marked absent — and `ids` (a handle on it) is kept as
    /// the row → slot column. `full_words` is the width of a full
    /// hypervector, `selected` the words a signature samples from it
    /// ([`SketchIndex::word_selection`], [`SketchIndex::sample`]). The
    /// rows come from the owner's own references, never from a file.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-increasing word selection, indices
    /// beyond `full_words`, an id column that does not list every slot
    /// exactly once, and a row that is not `selected.len()` words.
    pub fn from_rows<R: IntoIterator<Item = u64>>(
        full_words: usize,
        selected: Vec<u32>,
        ids: Arc<[u32]>,
        mut row: impl FnMut(u32) -> Option<R>,
    ) -> SketchIndex {
        assert!(!selected.is_empty(), "sketch word selection is empty");
        assert!(
            selected.windows(2).all(|w| w[0] < w[1]),
            "sketch word selection is not strictly increasing"
        );
        assert!(
            (*selected.last().expect("non-empty") as usize) < full_words,
            "sketch word selection exceeds the hypervector width ({full_words} words)"
        );
        let (slots, width) = (ids.len(), selected.len());
        let mut row_of = vec![u32::MAX; slots];
        let mut table = Vec::with_capacity(slots * width);
        let mut present = vec![0u64; slots.div_ceil(64)];
        for (r, &id) in ids.iter().enumerate() {
            match row_of.get_mut(id as usize) {
                Some(at) if *at == u32::MAX => *at = r as u32,
                _ => panic!("row order lists slot {id} twice or beyond {slots} slots"),
            }
            match row(id) {
                Some(words) => {
                    table.extend(words);
                    present[r / 64] |= 1u64 << (r % 64);
                }
                None => table.resize(table.len() + width, 0),
            }
            assert_eq!(
                table.len(),
                (r + 1) * width,
                "slot {id}'s signature is not {width} words"
            );
        }
        SketchIndex {
            full_words,
            selected,
            table,
            row_of,
            ids,
            present,
        }
    }

    /// Whether row `r` holds slot `order[r]` for every row, so a table
    /// whose id column `order` is has its positions as rows (at once
    /// when `order` is the column the sketch was laid out in).
    pub fn rows_follow(&self, order: &Arc<[u32]>) -> bool {
        Arc::ptr_eq(&self.ids, order) || self.ids == *order
    }

    /// The row → slot column the rows were laid out in.
    pub fn ids(&self) -> &Arc<[u32]> {
        &self.ids
    }

    /// Whether `row` carries a signature.
    fn row_present(&self, row: usize) -> bool {
        self.present[row / 64] >> (row % 64) & 1 == 1
    }

    /// Number of reference slots covered.
    pub fn len(&self) -> usize {
        self.row_of.len()
    }

    /// Whether the index covers no slots.
    pub fn is_empty(&self) -> bool {
        self.row_of.is_empty()
    }

    /// Signature width in 64-bit words.
    pub fn words(&self) -> usize {
        self.selected.len()
    }

    /// Words per full reference hypervector (`ceil(dim / 64)`).
    pub fn full_words(&self) -> usize {
        self.full_words
    }

    /// The sampled word indices, strictly increasing.
    pub fn selected(&self) -> &[u32] {
        &self.selected
    }

    /// Whether slot `id` carries a signature (its reference has a
    /// hypervector).
    pub fn is_present(&self, id: u32) -> bool {
        (self.row_of.get(id as usize)).is_some_and(|&row| self.row_present(row as usize))
    }

    /// Slot `id`'s signature row (zeros for an absent slot).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signature(&self, id: u32) -> &[u64] {
        let width = self.words();
        &self.table[self.row_of[id as usize] as usize * width..][..width]
    }

    /// Fold a full query hypervector's packed words down to this
    /// index's signature.
    ///
    /// # Panics
    ///
    /// Panics if `hv_words` is not `full_words` long.
    pub fn sketch_query(&self, hv_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            hv_words.len(),
            self.full_words,
            "query word count does not match the sketched dimension"
        );
        SketchIndex::sample(&self.selected, hv_words).collect()
    }

    /// The sketch stage for one query over a window copied out as ids:
    /// [`SketchIndex::narrow_batch`] over its rows on the calling thread,
    /// the survivors handed back as ids, in list order.
    ///
    /// # Panics
    ///
    /// Panics if `query_sketch` is not [`SketchIndex::words`] long, or
    /// if `candidates` is not the slots of consecutive rows, in row order.
    pub fn narrow(&self, query_sketch: &[u64], candidates: &[u32], k: usize) -> Vec<u32> {
        let first = candidates
            .first()
            .map_or(Some(&0), |&id| self.row_of.get(id as usize));
        let first = first.copied().unwrap_or(u32::MAX);
        let rows = first..first.saturating_add(candidates.len() as u32);
        let named = self.ids.get(rows.start as usize..rows.end as usize) == Some(candidates);
        assert!(named, "narrow takes a window of consecutive rows");
        let narrowed = self.narrow_batch(&[(query_sketch, rows)], k, 1);
        let survivors = narrowed[0].survivors.iter();
        survivors.map(|&row| self.ids[row as usize]).collect()
    }

    /// The sketch stage for a batch: each `(query sketch, window of
    /// rows)` keeps the `k` rows whose signatures score best against its
    /// query, ranked by `(dot desc, slot id asc)` — the exact scan's
    /// tie-break — as rows, ascending. A query's survivors do not depend
    /// on the rest of the batch, nor on `workers`.
    ///
    /// A window at or below `k` passes through whole (absent slots
    /// included), so `TopK(K ≥ window)` is *exactly* the unfiltered
    /// scan. A longer one drops absent slots (the exact stage would skip
    /// them anyway) and keeps the top `k` present scorers.
    ///
    /// The longer windows are sorted by first row and cut into blocks of
    /// at most [`QUERY_TILE`] (more, smaller blocks when that leaves a
    /// worker idle); a block scores each row of the union of its windows
    /// once, through [`KernelDispatch::hamming_slab`], against every
    /// query whose window covers it, on up to `workers` threads.
    ///
    /// Sketch distances are integers in `0..=words·64`, so one histogram
    /// of them per query finds the `k`-th distance `t`: the survivors
    /// are every row nearer than `t` and the smallest slot ids at `t`,
    /// emitted in one pass over the window.
    ///
    /// # Panics
    ///
    /// Panics if a query sketch is not [`SketchIndex::words`] long, or a
    /// window reaches beyond the last row.
    pub fn narrow_batch(
        &self,
        batch: &[(&[u64], Range<u32>)],
        k: usize,
        workers: usize,
    ) -> Vec<Narrowed> {
        let mut out = vec![Narrowed::default(); batch.len()];
        for ((query, rows), out) in batch.iter().zip(&mut out) {
            assert_eq!(query.len(), self.words(), "query sketch width");
            let inside = rows.end as usize <= self.len();
            assert!(inside, "a window reaches beyond the rows");
            if rows.len() <= k {
                out.survivors = rows.clone().collect();
            }
        }
        let mut runs: Vec<(u32, usize)> = (batch.iter().enumerate())
            .filter(|(_, (_, rows))| k > 0 && rows.len() > k)
            .map(|(i, (_, rows))| (rows.start, i))
            .collect();
        runs.sort_unstable();
        let blocks = runs.len().div_ceil(QUERY_TILE).max(runs.len().min(workers));
        let cut = |b: usize| b * runs.len() / blocks;
        let jobs: Vec<&[(u32, usize)]> = (0..blocks).map(|b| &runs[cut(b)..cut(b + 1)]).collect();

        let kernel = kernels::active();
        let done = par_map(&jobs, workers, |_, block| {
            let start = Instant::now();
            let scores = self.score_runs(kernel, batch, block);
            let narrowed: Vec<Vec<u32>> = (block.iter().zip(scores))
                .map(|(&(first, _), scores)| self.select(first, &scores, k))
                .collect();
            (narrowed, start.elapsed().as_nanos() as u64)
        });
        for (block, (narrowed, ns)) in jobs.iter().zip(done) {
            let sharers = block.len() as u64;
            for (member, (&(_, i), survivors)) in block.iter().zip(narrowed).enumerate() {
                let share = ns / sharers + if member == 0 { ns % sharers } else { 0 };
                out[i] = Narrowed {
                    survivors,
                    sketch_ns: share,
                };
            }
        }
        out
    }

    /// A block of windows (`(first row, query)`, at most
    /// [`QUERY_TILE`]): the union of their rows, cut at every window's
    /// ends, so each piece is swept once against exactly the queries
    /// whose window covers all of it.
    fn score_runs(
        &self,
        kernel: KernelDispatch,
        batch: &[(&[u64], Range<u32>)],
        block: &[(u32, usize)],
    ) -> Vec<Scores> {
        let sketch_dim = self.words() * 64;
        let span = |&(_, i): &(u32, usize)| batch[i].1.start as usize..batch[i].1.end as usize;
        let mut scores: Vec<Scores> = (block.iter())
            .map(|run| Scores::new(span(run).len(), sketch_dim))
            .collect();
        let mut cuts: Vec<usize> = block
            .iter()
            .map(span)
            .flat_map(|r| [r.start, r.end])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let (mut covering, mut queries) = (Vec::new(), Vec::new());
        let mut scratch = vec![0u32; QUERY_TILE * ROW_TILE];
        for piece in cuts.windows(2) {
            covering.clear();
            covering.extend((0..block.len()).filter(|&b| {
                let run = span(&block[b]);
                run.start <= piece[0] && piece[1] <= run.end
            }));
            if covering.is_empty() {
                continue;
            }
            queries.clear();
            queries.extend(covering.iter().map(|&b| batch[block[b].1].0));
            let rows = piece[0]..piece[1];
            self.sweep(
                kernel,
                &queries,
                rows,
                &mut scratch,
                |q, from, scored, absent| {
                    let first = block[covering[q]].0 as usize;
                    scores[covering[q]].fold(from - first, scored, absent);
                },
            );
        }
        scores
    }

    /// Score `rows` of the table against `queries` in slabs of at most
    /// [`ROW_TILE`] rows, handing each query's distances of each slab to
    /// `fold(query position, slab's first row, distances, offsets of the
    /// slab's absent rows)`. `scratch` holds `queries.len() × ROW_TILE`
    /// distances.
    fn sweep(
        &self,
        kernel: KernelDispatch,
        queries: &[&[u64]],
        rows: Range<usize>,
        scratch: &mut [u32],
        mut fold: impl FnMut(usize, usize, &[u32], &[usize]),
    ) {
        let width = self.words();
        let mut absent = Vec::new();
        for from in rows.clone().step_by(ROW_TILE) {
            let count = ROW_TILE.min(rows.end - from);
            absent.clear();
            absent.extend((0..count).filter(|&r| !self.row_present(from + r)));
            let slab = &self.table[from * width..(from + count) * width];
            let scored = &mut scratch[..queries.len() * count];
            kernel.hamming_slab(width, queries, slab, scored);
            for (q, distances) in scored.chunks_exact(count).enumerate() {
                fold(q, from, distances, &absent);
            }
        }
    }

    /// The selection over one window's scores, its first row `first`:
    /// the threshold `t` from the histogram, then every row nearer than
    /// `t` and the smallest slot ids at `t`, in row order.
    fn select(&self, first: u32, scores: &Scores, k: usize) -> Vec<u32> {
        /// Rows per step of the pre-scan for distances up to `t`.
        const STRIDE: usize = 16;
        let Scores {
            distance,
            histogram,
        } = scores;
        if histogram.iter().map(|&n| n as usize).sum::<usize>() <= k {
            let present = (first..).zip(distance);
            return (present.filter(|&(_, &d)| d != ABSENT))
                .map(|(row, _)| row)
                .collect();
        }
        // The threshold `t`: the nearest distance whose running count
        // reaches `k`; `need` of the rows at `t` survive.
        let (mut t, mut need) = (0, k);
        while need > histogram[t] as usize {
            need -= histogram[t] as usize;
            t += 1;
        }
        let t = t as u32;
        // The rows at `t` or nearer, in row order: a few hundred of a
        // long window, so a stretch whose nearest distance is beyond `t`
        // (one vector minimum) is skipped whole.
        let mut near: Vec<(u32, u32)> = Vec::with_capacity(2 * k);
        for (at, ds) in (first..).step_by(STRIDE).zip(distance.chunks(STRIDE)) {
            if ds.iter().fold(ABSENT, |nearest, &d| nearest.min(d)) <= t {
                let hits = (at..).zip(ds).filter(|&(_, &d)| d <= t);
                near.extend(hits.map(|(row, &d)| (row, d)));
            }
        }
        // The ties at `t` that survive: the `need` smallest slot ids
        // among them (a row holds one slot, so those are the ones up to
        // the `need`-th). When every tie survives, `cut` passes them all.
        let cut = if need == histogram[t as usize] as usize {
            u32::MAX
        } else {
            let tied = near.iter().filter(|&&(_, d)| d == t);
            let mut tied: Vec<u32> = tied.map(|&(row, _)| self.ids[row as usize]).collect();
            *tied.select_nth_unstable(need - 1).1
        };
        let keep = |&(row, d): &(u32, u32)| d < t || d == t && self.ids[row as usize] <= cut;
        near.into_iter().filter(keep).map(|(row, _)| row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_hdc::BinaryHypervector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_refs(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BinaryHypervector::random(&mut rng, dim))
            .collect()
    }

    /// The sketch of `slots` (`None`: absent) at `words` words of
    /// `dim`-dimensional hypervectors, its rows in `order`.
    fn laid_out(
        dim: usize,
        words: usize,
        slots: &[Option<&[u64]>],
        order: impl Into<Arc<[u32]>>,
    ) -> SketchIndex {
        let full_words = dim.div_ceil(64);
        let selected = SketchIndex::word_selection(full_words, words);
        let row = |id: u32| slots[id as usize].map(|hv| SketchIndex::sample(&selected, hv));
        SketchIndex::from_rows(full_words, selected.clone(), order.into(), row)
    }

    /// Every slot of `refs` present, in id order.
    fn sketch_of(refs: &[BinaryHypervector], dim: usize) -> SketchIndex {
        let slots: Vec<Option<&[u64]>> = refs.iter().map(|r| Some(r.words())).collect();
        laid_out(
            dim,
            SKETCH_WORDS,
            &slots,
            (0..refs.len() as u32).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn config_parses_and_renders() {
        assert_eq!(PrefilterConfig::parse("off").unwrap(), PrefilterConfig::Off);
        assert_eq!(PrefilterConfig::parse("OFF").unwrap(), PrefilterConfig::Off);
        assert_eq!(
            PrefilterConfig::parse("k=64").unwrap(),
            PrefilterConfig::TopK(64)
        );
        assert_eq!(
            PrefilterConfig::parse("k=default").unwrap(),
            PrefilterConfig::TopK(DEFAULT_TOP_K)
        );
        assert!(PrefilterConfig::parse("k=0").is_err());
        assert!(PrefilterConfig::parse("on").is_err());
        assert!(PrefilterConfig::parse("k=ten").is_err());
        for config in [PrefilterConfig::Off, PrefilterConfig::TopK(17)] {
            assert_eq!(PrefilterConfig::parse(&config.render()).unwrap(), config);
        }
    }

    #[test]
    fn selection_is_strided_and_increasing() {
        assert_eq!(SketchIndex::word_selection(32, 4), vec![0, 8, 16, 24]);
        assert_eq!(SketchIndex::word_selection(4, 8), vec![0, 1, 2, 3]);
        assert_eq!(SketchIndex::word_selection(1, 4), vec![0]);
        for (full, target) in [(5, 4), (7, 3), (128, 4), (9, 9)] {
            let sel = SketchIndex::word_selection(full, target);
            assert_eq!(sel.len(), target.min(full));
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "{full}/{target}");
            assert!((*sel.last().unwrap() as usize) < full);
        }
    }

    #[test]
    fn short_lists_pass_through_untouched() {
        let dim = 512;
        let refs = random_refs(8, dim, 1);
        let sketch = sketch_of(&refs, dim);
        let query = sketch.sketch_query(refs[0].words());
        let list: Vec<u32> = (0..8).collect();
        assert_eq!(sketch.narrow(&query, &list, 8), list);
        assert_eq!(sketch.narrow(&query, &list, 100), list);
    }

    #[test]
    fn absent_slots_never_survive() {
        let dim = 512;
        let refs = random_refs(16, dim, 2);
        let slots: Vec<Option<&[u64]>> = (refs.iter().enumerate())
            .map(|(i, r)| (i % 2 == 0).then(|| r.words()))
            .collect();
        let list: Vec<u32> = (0..16).collect();
        let sketch = laid_out(dim, SKETCH_WORDS, &slots, list.clone());
        let query = sketch.sketch_query(refs[0].words());
        let survivors = sketch.narrow(&query, &list, 4);
        assert_eq!(survivors.len(), 4);
        assert!(survivors.iter().all(|&id| id % 2 == 0), "{survivors:?}");
    }

    #[test]
    fn survivors_keep_candidate_list_order_and_contain_the_self_match() {
        let dim = 2048;
        let refs = random_refs(200, dim, 3);
        let sketch = sketch_of(&refs, dim);
        for probe in [0usize, 57, 199] {
            let query = sketch.sketch_query(refs[probe].words());
            let list: Vec<u32> = (0..200).collect();
            let survivors = sketch.narrow(&query, &list, 16);
            assert_eq!(survivors.len(), 16);
            assert!(survivors.windows(2).all(|w| w[0] < w[1]), "list order");
            // The query *is* reference `probe`: its sketch distance is
            // zero, the best possible, so it must survive.
            assert!(survivors.contains(&(probe as u32)), "{survivors:?}");
        }
    }

    /// The survivors `narrow` must return, computed the slow way: every
    /// present candidate's full-precision dot over its signature, ranked
    /// by `(dot desc, id asc)`, the best `k` put back in list order.
    fn reference_ranking(sketch: &SketchIndex, query: &[u64], list: &[u32], k: usize) -> Vec<u32> {
        if list.len() <= k {
            return list.to_vec();
        }
        let sketch_dim = sketch.words() * 64;
        let mut ranked: Vec<(i64, u32, usize)> = (list.iter().enumerate())
            .filter(|&(_, &id)| sketch.is_present(id))
            .map(|(at, &id)| {
                let sig = sketch.signature(id);
                let hamming: u32 = sig
                    .iter()
                    .zip(query)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                (sketch_dim as i64 - 2 * i64::from(hamming), id, at)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut kept: Vec<usize> = ranked.iter().take(k).map(|&(_, _, at)| at).collect();
        kept.sort_unstable();
        kept.into_iter().map(|at| list[at]).collect()
    }

    /// Every row of `sketch`, by id.
    fn rows_by_id(sketch: &SketchIndex) -> Vec<u64> {
        (0..sketch.len() as u32)
            .flat_map(|id| sketch.signature(id).to_vec())
            .collect()
    }

    /// A random row order over `slots` references drawn from a third as
    /// many distinct hypervectors (so equal sketch distances crowd the
    /// threshold), one in ten absent, under a 4- or 16-word signature:
    /// the index laid out in id order, the same slots laid out in the row
    /// order, and the order.
    fn shuffled_sketch(
        rng: &mut StdRng,
        seed: u64,
        slots: usize,
        narrow_sketch: bool,
    ) -> (SketchIndex, SketchIndex, Vec<u32>) {
        let dim = 1024;
        let distinct = random_refs(slots.div_ceil(3), dim, seed);
        let refs: Vec<Option<&[u64]>> = (0..slots)
            .map(|_| {
                let hv = distinct[rng.gen_range(0..distinct.len())].words();
                (!rng.gen_bool(0.1)).then_some(hv)
            })
            .collect();
        let words = if narrow_sketch { 4 } else { SKETCH_WORDS };
        let mut order: Vec<u32> = (0..slots as u32).collect();
        let by_id = laid_out(dim, words, &refs, order.clone());
        order.shuffle(rng);
        let sketch = laid_out(dim, words, &refs, order.clone());
        (by_id, sketch, order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any row order, any window of it — a range of rows, as a
        /// precursor window is of an index's `(mass, id)` order — and any
        /// K from 1 to one past the window, `narrow` keeps exactly the
        /// reference ranking's survivors, and `narrow_batch` the rows
        /// that hold them. Duplicated references and a 4-word signature
        /// crowd the threshold distance with ties; absent slots never
        /// survive a narrowed window.
        #[test]
        fn narrowing_matches_a_scalar_reference_ranking(
            seed in 0u64..u64::MAX,
            slots in 1usize..300,
            narrow_sketch in any::<bool>(),
            k_share in 0.0f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (by_id, sketch, order) = shuffled_sketch(&mut rng, seed, slots, narrow_sketch);
            prop_assert_eq!(rows_by_id(&sketch), rows_by_id(&by_id));

            let start = rng.gen_range(0..slots);
            let end = rng.gen_range(start..=slots);
            let list = &order[start..end];
            let query = sketch.sketch_query(random_refs(1, 1024, seed ^ 1)[0].words());
            let k = 1 + (k_share * (list.len() + 1) as f64) as usize;
            let survivors = sketch.narrow(&query, list, k);
            prop_assert_eq!(&survivors, &reference_ranking(&sketch, &query, list, k));
            let rows = start as u32..end as u32;
            let narrowed = sketch.narrow_batch(&[(&query[..], rows)], k, 1);
            let slots: Vec<u32> = narrowed[0].survivors.iter().map(|&r| order[r as usize]).collect();
            prop_assert_eq!(slots, survivors);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A batch narrows each query to exactly its reference ranking's
        /// survivors, whatever else rides in it: 1..=40 queries (across
        /// the 8-query block), overlapping windows of a shuffled row
        /// order, empty ones and ones at or below K among them, absent
        /// slots, 4- and 16-word signatures, K from 1 to one past the
        /// longest window, on 1..=3 workers.
        #[test]
        fn a_batch_narrows_each_query_as_the_reference_ranking_does(
            seed in 0u64..u64::MAX,
            slots in 1usize..300,
            queries in 1usize..=40,
            narrow_sketch in any::<bool>(),
            k_share in 0.0f64..1.0,
            workers in 1usize..=3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, sketch, order) = shuffled_sketch(&mut rng, seed, slots, narrow_sketch);
            let windows: Vec<Range<u32>> = (0..queries)
                .map(|_| {
                    let start = rng.gen_range(0..=slots as u32);
                    start..rng.gen_range(start..=slots as u32)
                })
                .collect();
            let signatures: Vec<Vec<u64>> = (0..queries as u64)
                .map(|q| sketch.sketch_query(random_refs(1, 1024, seed ^ (q + 1))[0].words()))
                .collect();
            let longest = windows.iter().map(|w| w.len()).max().unwrap_or(0);
            let k = 1 + (k_share * (longest + 1) as f64) as usize;
            let batch: Vec<(&[u64], Range<u32>)> = (signatures.iter().zip(&windows))
                .map(|(signature, window)| (&signature[..], window.clone()))
                .collect();
            let narrowed = sketch.narrow_batch(&batch, k, workers);
            prop_assert_eq!(narrowed.len(), queries);
            for ((signature, window), narrowed) in batch.iter().zip(&narrowed) {
                let list = &order[window.start as usize..window.end as usize];
                let expected = reference_ranking(&sketch, signature, list, k);
                let slots: Vec<u32> = narrowed.survivors.iter().map(|&r| order[r as usize]).collect();
                prop_assert_eq!(&slots, &expected);
                prop_assert!(narrowed.survivors.iter().all(|r| window.contains(r)));
                prop_assert_eq!(&sketch.narrow(signature, list, k), &expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "narrow takes a window")]
    fn narrow_refuses_a_list_that_is_not_a_window() {
        let refs = random_refs(8, 512, 10);
        let slots: Vec<Option<&[u64]>> = refs.iter().map(|r| Some(r.words())).collect();
        let sketch = laid_out(512, SKETCH_WORDS, &slots, [7, 6, 5, 4, 3, 2, 1, 0]);
        let query = sketch.sketch_query(refs[0].words());
        // Slots 0..3 sit in rows 7, 6, 5: consecutive, but not in row order.
        let _ = sketch.narrow(&query, &[0, 1, 2], 1);
    }

    #[test]
    fn rows_follow_the_order_they_were_laid_out_in() {
        let refs = random_refs(4, 512, 11);
        let slots: Vec<Option<&[u64]>> = refs.iter().map(|r| Some(r.words())).collect();
        let order: Arc<[u32]> = Arc::from([3, 1, 0, 2]);
        let sketch = laid_out(512, SKETCH_WORDS, &slots, Arc::clone(&order));
        assert!(Arc::ptr_eq(sketch.ids(), &order), "the column is shared");
        assert!(sketch.rows_follow(&order));
        assert!(
            sketch.rows_follow(&Arc::from([3, 1, 0, 2])),
            "an equal column"
        );
        assert!(!sketch.rows_follow(&Arc::from([0, 1, 2, 3])));
        let by_id = sketch_of(&refs, 512);
        assert!(by_id.rows_follow(&Arc::from([0, 1, 2, 3])));
        assert!(!by_id.rows_follow(&order));
        assert!(!by_id.rows_follow(&Arc::from([0, 1, 2])));
    }

    #[test]
    fn k_zero_keeps_nothing_of_a_longer_list() {
        let dim = 512;
        let refs = random_refs(8, dim, 8);
        let sketch = sketch_of(&refs, dim);
        let query = sketch.sketch_query(refs[0].words());
        let list: Vec<u32> = (0..8).collect();
        assert!(sketch.narrow(&query, &list, 0).is_empty());
        assert!(sketch.narrow(&query, &[], 0).is_empty());
    }

    /// Laid out in any order, a sketch holds each slot's sampled words
    /// (zeros for an absent one) in the row its id column names, and the
    /// presence of the slot in that row.
    #[test]
    fn a_layout_holds_each_slots_sampled_words_in_its_row() {
        let dim = 1100; // 18 words, the last one partial
        let refs = random_refs(70, dim, 7);
        let slots: Vec<Option<&[u64]>> = (refs.iter().enumerate())
            .map(|(i, r)| (i % 3 != 1).then(|| r.words()))
            .collect();
        let selected = SketchIndex::word_selection(18, SKETCH_WORDS);
        let mut order: Vec<u32> = (0..70).collect();
        order.shuffle(&mut StdRng::seed_from_u64(12));
        let sketch = laid_out(dim, SKETCH_WORDS, &slots, order.clone());
        let by_id = laid_out(dim, SKETCH_WORDS, &slots, (0..70).collect::<Vec<_>>());
        assert_eq!(rows_by_id(&sketch), rows_by_id(&by_id));
        assert_eq!(rows_by_id(&by_id), by_id.table);
        assert_eq!((sketch.len(), sketch.words()), (70, SKETCH_WORDS));
        for (row, &id) in order.iter().enumerate() {
            let slot = slots[id as usize];
            let sampled: Vec<u64> = (selected.iter())
                .map(|&w| slot.map_or(0, |hv| hv[w as usize]))
                .collect();
            assert_eq!(&sketch.table[row * SKETCH_WORDS..][..SKETCH_WORDS], sampled);
            assert_eq!(sketch.signature(id), sampled);
            assert_eq!(sketch.is_present(id), slot.is_some());
            assert_eq!(sketch.row_present(row), slot.is_some());
        }
        assert!(!sketch.is_present(70), "beyond the slots");
    }

    /// A two-word layout of eight-word hypervectors whose every row
    /// samples `row_words` of `[7; 8]`.
    fn lay(selected: Vec<u32>, ids: &[u32], row_words: &'static [u32]) -> SketchIndex {
        let hv = [7u64; 8];
        let row = |_| Some(SketchIndex::sample(row_words, &hv));
        SketchIndex::from_rows(8, selected, Arc::from(ids), row)
    }

    /// The constructor refuses what no layout can hold, each with its own
    /// panic: a bad word selection, an id column that names a slot twice
    /// or one beyond the slots, and a row of the wrong width.
    macro_rules! refused {
        ($($name:ident: $selected:expr, $ids:expr, $row:expr => $why:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $why)]
            fn $name() {
                lay($selected, $ids, $row);
            }
        )*};
    }

    refused! {
        an_empty_selection_is_refused: vec![], &[0], &[0, 4] => "selection is empty";
        a_repeated_word_is_refused: vec![3, 3], &[0], &[0, 4] => "not strictly increasing";
        a_decreasing_selection_is_refused: vec![4, 0], &[0], &[0, 4] => "not strictly increasing";
        a_word_beyond_the_width_is_refused: vec![3, 8], &[0], &[0, 4] => "exceeds the hypervector";
        a_slot_listed_twice_is_refused: vec![0, 4], &[0, 1, 2, 2], &[0, 4] => "slot 2 twice";
        a_slot_beyond_the_column_is_refused: vec![0, 4], &[0, 1, 2, 4], &[0, 4] => "beyond 4 slots";
        a_column_missing_slot_zero_is_refused: vec![0, 4], &[1, 2, 3], &[0, 4] => "beyond 3 slots";
        a_row_of_the_wrong_width_is_refused: vec![0, 4], &[0], &[0, 1, 2] => "is not 2 words";
    }

    #[test]
    fn a_well_formed_column_lays_out() {
        let sketch = lay(vec![0, 4], &[1, 0], &[0, 4]);
        assert_eq!((sketch.len(), sketch.signature(0)), (2, &[7, 7][..]));
    }
}
