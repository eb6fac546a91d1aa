//! Runtime-dispatched SIMD kernels: distance and encode.
//!
//! Every similarity the software backends compute — Hamming distance,
//! bipolar dot product — reduces to XOR + popcount over packed `u64`
//! words. This module owns that inner loop as one **sweep body** per
//! instruction set, behind one [`KernelDispatch`] handle:
//!
//! * **scalar** — portable `u64::count_ones` (compiles to `POPCNT` on
//!   x86), the safe fallback every box runs;
//! * **avx2** — 256-bit XOR + the Mula nibble-LUT popcount
//!   (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`), 4 words per vector;
//! * **avx512-vpopcntdq** — 512-bit XOR + the hardware
//!   `_mm512_popcnt_epi64`, 8 words per vector, where the CPU has it.
//!
//! A sweep scores rows against 1..=[`QUERY_TILE`] queries held in
//! registers: each row is loaded once and XOR-popcounted into one count
//! per query, with no call and no pointer per pair — the CPU analogue
//! of HyperOMS's massively parallel GPU formulation. Each query count
//! has its own instantiation, so a ragged block of 3 queries does the
//! work of 3, not of 8. Three entry points hand it rows:
//!
//! * [`KernelDispatch::hamming_slab`] — a borrowed row-major *slab* of
//!   equal-width rows, unmasked: the prefilter's sketch pass;
//! * [`KernelDispatch::score_block`] — Q queries × R references (any
//!   rows, not only adjacent ones), [`QUERY_TILE`] queries at a time,
//!   with the final word's padding masked: the exact shard scan;
//! * [`KernelDispatch::hamming_words`] — one pair, the 1×1 block:
//!   [`crate::similarity::hamming_distance`] and so the RRAM build's bit
//!   error counts.
//!
//! The other kernel beside the sweep is the **blocked ID-Level encode
//! kernel** [`KernelDispatch::encode_blocks`], the only loop in the
//! workspace that computes `Σ ID_i ⊗ LV_i` (Eq. (1)). It walks the
//! hypervector one [`ENCODE_BLOCK`]-dimension output word at a time with
//! the spectrum's peaks *inside* the block, so the partial sums of a
//! word never leave registers: `id[d] · lv[d]` — the ID rows arrive
//! nibble-packed ([`pack_id_row`]), half the bytes to keep resident and
//! to stream — is added into **i8** lanes for runs of
//! [`encode_run_len`]`(max_abs)` peaks — `127 / max_abs`, 31 at the
//! 3-bit alphabet, and 31 × 4 = 124 cannot wrap an i8 — each run is
//! widened once into i32 lanes, and the finished block is handed to the
//! caller's sink, which either writes the sums out or packs their signs
//! straight into a word with `sign_word`. Integer sums are exact in
//! any order, so the result is bit-identical to the naive per-peak
//! full-width loop by construction. The body is safe Rust over 64-lane
//! blocks, written once and instantiated twice — portably, and under
//! `#[target_feature(enable = "avx2")]` so the same loops vectorise
//! 32 lanes wide; the AVX-512 selection routes to the AVX2 instantiation
//! (wider lanes would buy nothing: the kernel waits on a spectrum's ID
//! rows streaming in, not on its arithmetic).
//!
//! # Selection
//!
//! The process-wide active kernel ([`active`]) resolves once from the
//! `HDOMS_KERNEL` environment variable (`scalar` | `auto`, default
//! `auto` = best SIMD the CPU reports, scalar otherwise) and can
//! be swapped at runtime with [`set_active`] — which is how the
//! equivalence suites run every variant inside one process (and
//! `bench_suite` reports `hdc.kernel_pair_scores_per_s` under whichever
//! the environment selects). Explicit [`KernelDispatch`] values (`KernelDispatch::scalar`,
//! `KernelDispatch::resolve`) bypass the global entirely.
//!
//! # The output contract
//!
//! Kernel selection must never change output bytes. All variants
//! compute the same integers over the same words, and every
//! tail-carrying entry point masks the final word's padding bits itself
//! (`hamming` of a 100-bit vector ignores bits 100..128 even if they
//! are dirty), so a view that slipped past the
//! [`HvRef::new_unchecked`](crate::hv::HvRef::new_unchecked) debug-only
//! validation still scores correctly. The property suite
//! (`crates/hdc/tests/kernel_equivalence.rs`) holds every variant the
//! CPU runs, pair and block alike, to a naive bit-by-bit oracle over
//! arbitrary dims, patterns, and ragged block shapes, and checks that
//! poisoned padding bits never reach a distance.

use crate::hv::BinaryHypervector;
use std::sync::atomic::{AtomicU8, Ordering};

/// How many references a [`KernelDispatch::score_block`] reference tile
/// holds: the exact scan gathers a run's present references this many
/// at a time, so a tile stays cache-hot while every query tile sweeps it.
pub const REFERENCE_TILE: usize = 32;

/// Queries per tile in the blocked kernels: each reference is scored
/// against this many queries while its cache lines are hot. Callers
/// grouping queries for [`KernelDispatch::score_block`] use this as the
/// natural block size, and [`KernelDispatch::hamming_slab`] takes at
/// most this many.
pub const QUERY_TILE: usize = 8;

/// Dimensions per block of the encode kernel: one output word.
pub const ENCODE_BLOCK: usize = 64;

/// One activated row of the encode kernel: a peak's nibble-packed ID row
/// ([`pack_id_row`], [`packed_row_len`]`(dim)` bytes) and the bipolar
/// level hypervector of its intensity — every component `+1` or `-1`,
/// `dim` long.
pub type EncodeRow<'a> = (&'a [u8], &'a [i8]);

/// How many rows the encode kernel adds into its i8 lanes before
/// widening: the longest run whose partial sum cannot wrap when every
/// product is bounded by `max_abs` (`127 / max_abs`).
///
/// # Panics
///
/// Panics if `max_abs` is not positive.
pub fn encode_run_len(max_abs: i8) -> usize {
    assert!(max_abs > 0, "the product bound must be positive");
    (i8::MAX / max_abs) as usize
}

/// What a packed ID nibble adds to its component: nibbles hold
/// `component + 8`.
const NIBBLE_BIAS: i8 = 8;

/// The packed byte of two padding components (`0`, stored as the bias).
const PADDING_BYTE: u8 = NIBBLE_BIAS as u8 * 0x11;

/// Bytes per packed block, and lanes per half of an unpacked one.
const HALF: usize = ENCODE_BLOCK / 2;

/// Bytes in one packed ID row of `dim` components: half a byte per
/// component, padded to whole [`ENCODE_BLOCK`]s.
pub fn packed_row_len(dim: usize) -> usize {
    dim.div_ceil(ENCODE_BLOCK) * HALF
}

/// Pack an ID row two components to the byte, the form the encode
/// kernel streams (half the bytes of an `i8` row, resident and per
/// spectrum). Block `b` of 64 components is 32 bytes; byte `j` of it
/// holds component `64·b + j` in its low nibble and `64·b + 32 + j` in
/// its high one, each biased by 8, so a block unpacks into two
/// contiguous 32-lane halves without a shuffle. Components beyond the
/// row's end are the padding `0`.
///
/// # Panics
///
/// Panics if a component is outside `-7..=7`.
pub fn pack_id_row(components: &[i8]) -> Vec<u8> {
    let mut packed = vec![PADDING_BYTE; packed_row_len(components.len())];
    for (d, &c) in components.iter().enumerate() {
        assert!(
            (-7..=7).contains(&c),
            "ID component {c} does not fit a nibble"
        );
        let (byte, shift) = nibble_of(d);
        packed[byte] = packed[byte] & !(0x0f << shift) | ((c + NIBBLE_BIAS) as u8) << shift;
    }
    packed
}

/// The inverse of [`pack_id_row`]: the first `dim` components of a
/// packed row.
///
/// # Panics
///
/// Panics if `packed` is not [`packed_row_len`]`(dim)` bytes.
pub fn unpack_id_row(packed: &[u8], dim: usize) -> Vec<i8> {
    assert_eq!(packed.len(), packed_row_len(dim), "packed row length");
    (0..dim)
        .map(|d| {
            let (byte, shift) = nibble_of(d);
            (packed[byte] >> shift & 0x0f) as i8 - NIBBLE_BIAS
        })
        .collect()
}

/// Where component `d` lives in a packed row: its byte, and its
/// nibble's shift within it (0 or 4).
fn nibble_of(d: usize) -> (usize, u32) {
    let (block, lane) = (d / ENCODE_BLOCK, d % ENCODE_BLOCK);
    (block * HALF + lane % HALF, if lane < HALF { 0 } else { 4 })
}

/// A kernel *request*: what the caller asked for, before resolving
/// against what the CPU supports (parsed from `HDOMS_KERNEL` or passed
/// to [`set_active`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The portable `u64::count_ones` path.
    Scalar,
    /// The best SIMD path the CPU supports (resolves to scalar on a
    /// machine with none — the request never fails).
    Auto,
}

impl KernelKind {
    /// Parse an override spelling (`scalar` | `auto`, case-insensitive).
    /// Returns `None` for anything else.
    pub(crate) fn parse(spelling: &str) -> Option<KernelKind> {
        match spelling.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "auto" => Some(KernelKind::Auto),
            _ => None,
        }
    }
}

/// A resolved implementation (what will actually run, as opposed to the
/// [`KernelKind`] request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Impl {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A resolved distance-kernel implementation. `Copy` and stateless —
/// methods take `&self` only for call-site ergonomics.
///
/// Obtain one from [`active`] (the process-wide selection),
/// `KernelDispatch::resolve` (explicit request), or the
/// `KernelDispatch::scalar` / `KernelDispatch::simd` shorthands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    imp: Impl,
}

impl KernelDispatch {
    /// The portable scalar kernel (always available).
    pub(crate) fn scalar() -> KernelDispatch {
        KernelDispatch { imp: Impl::Scalar }
    }

    /// The best SIMD kernel this CPU supports, or the scalar kernel on a
    /// machine with none (its [`KernelDispatch::name`] says which).
    pub(crate) fn simd() -> KernelDispatch {
        KernelDispatch { imp: best_simd() }
    }

    /// Every implementation this CPU can run: scalar, then each SIMD
    /// path it reports (AVX2, then AVX-512 where present). The
    /// equivalence suites hold all of them to one answer, so a box with
    /// AVX-512 still checks the AVX2 bodies `KernelDispatch::simd`
    /// would not select there.
    pub fn available() -> Vec<KernelDispatch> {
        let mut all = vec![KernelDispatch::scalar()];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            all.push(KernelDispatch { imp: Impl::Avx2 });
            if best_simd() == Impl::Avx512 {
                all.push(KernelDispatch { imp: Impl::Avx512 });
            }
        }
        all
    }

    /// Resolve a request against the running CPU.
    pub(crate) fn resolve(kind: KernelKind) -> KernelDispatch {
        match kind {
            KernelKind::Scalar => KernelDispatch::scalar(),
            KernelKind::Auto => KernelDispatch::simd(),
        }
    }

    /// The implementation's report name: `"scalar"`, `"avx2"`, or
    /// `"avx512-vpopcntdq"`.
    pub fn name(&self) -> &'static str {
        match self.imp {
            Impl::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Impl::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Impl::Avx512 => "avx512-vpopcntdq",
        }
    }

    /// Hamming distance between two `dim`-bit vectors stored in packed
    /// words: the 1×1 [`KernelDispatch::score_block`], so padding bits
    /// beyond `dim` in the final word are masked off and dirty tails can
    /// never change a distance.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length is not `ceil(dim / 64)`.
    pub fn hamming_words(&self, dim: usize, a: &[u64], b: &[u64]) -> u32 {
        let mut dot = [0i64];
        self.score_block(dim, &[a], &[b], &mut dot);
        ((dim as i64 - dot[0]) / 2) as u32
    }

    /// The query-blocked batch kernel: bipolar dot products of Q queries
    /// × R references, `out[q * R + r] = dim − 2·hamming(queries[q],
    /// references[r])` — the score every backend ranks by. The
    /// references are any rows (adjacent or not, repeated or not); the
    /// queries are swept over them [`QUERY_TILE`] at a time in
    /// [`KernelDispatch::hamming_slab`]'s register-blocked shape, so each
    /// reference vector is loaded once per query tile and XOR-popcounted
    /// into one accumulator per query of the tile. Padding bits beyond
    /// `dim` in the final word are masked off per pair. The exact scan
    /// feeds it one [`REFERENCE_TILE`] of a run against every query whose
    /// range meets the tile; [`KernelDispatch::hamming_words`] is its 1×1
    /// case.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != queries.len() * references.len()` or any
    /// slice's length is not `ceil(dim / 64)` — checked once here, before
    /// any SIMD body runs.
    pub fn score_block(
        &self,
        dim: usize,
        queries: &[&[u64]],
        references: &[&[u64]],
        out: &mut [i64],
    ) {
        assert_eq!(
            out.len(),
            queries.len() * references.len(),
            "out must hold one score per (query, reference) pair"
        );
        let width = BinaryHypervector::word_count(dim);
        assert!(
            queries.iter().chain(references).all(|v| v.len() == width),
            "word count must match the dimension"
        );
        if width == 0 {
            return out.fill(0);
        }
        // The final word's padding bits: counted by the sweep, taken off
        // again per pair.
        let padding = match dim % 64 {
            0 => 0,
            rem => u64::MAX << rem,
        };
        let (d, r_count) = (dim as i64, references.len());
        for (tile_idx, q_tile) in queries.chunks(QUERY_TILE).enumerate() {
            let q_base = tile_idx * QUERY_TILE;
            self.sweep(width, q_tile, references, |q, r, count| {
                let dirty = (q_tile[q][width - 1] ^ references[r][width - 1]) & padding;
                let hamming = count - dirty.count_ones();
                out[(q_base + q) * r_count + r] = d - 2 * i64::from(hamming);
            });
        }
    }

    /// The slab kernel: the Hamming distance of every row of a row-major
    /// `slab` of `width`-word rows against each of 1..=[`QUERY_TILE`]
    /// `queries`, `out[q * rows + r] = popcount(queries[q] ^ row r)` with
    /// `rows = slab.len() / width` — every bit of every word counts, so
    /// **no tail masking**. Each row is loaded once for all the queries
    /// and the queries stay in registers; each query count runs its own
    /// instantiation (no padding to a full tile). The slab is any borrowed run of a
    /// table's rows, cut at any word offset.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, `queries` holds none or more than
    /// [`QUERY_TILE`], a query is not `width` words, `slab.len()` is not
    /// `rows × width`, or `out.len()` is not `queries.len() × rows`.
    pub fn hamming_slab(&self, width: usize, queries: &[&[u64]], slab: &[u64], out: &mut [u32]) {
        assert!(width > 0, "slab rows must hold at least one word");
        assert!(
            (1..=QUERY_TILE).contains(&queries.len()),
            "a slab is scored against 1..={QUERY_TILE} queries"
        );
        assert!(
            queries.iter().all(|query| query.len() == width),
            "every query must be one {width}-word row"
        );
        assert_eq!(slab.len() % width, 0, "the slab must hold whole rows");
        let rows = slab.len() / width;
        assert_eq!(
            out.len(),
            queries.len() * rows,
            "out must hold one distance per (query, row) pair"
        );
        self.sweep(
            width,
            queries,
            Slab { words: slab, width },
            |q, r, count| {
                out[q * rows + r] = count;
            },
        );
    }

    /// The one sweep under [`KernelDispatch::score_block`] (and so
    /// [`KernelDispatch::hamming_words`]) and
    /// [`KernelDispatch::hamming_slab`]: `emit(q, r, popcount(queries[q]
    /// ^ row r))` for every (query, row) pair, unmasked, each row loaded
    /// once for the whole query tile. The callers' checks are its bounds:
    /// `width >= 1`, 1..=[`QUERY_TILE`] queries and every query and row
    /// exactly `width` words.
    fn sweep<'a>(
        &self,
        width: usize,
        queries: &[&[u64]],
        rows: impl Rows<'a>,
        emit: impl FnMut(usize, usize, u32),
    ) {
        debug_assert!(width > 0 && (1..=QUERY_TILE).contains(&queries.len()));
        match self.imp {
            Impl::Scalar => {
                per_query_count!(queries.len(), sweep_scalar(width, queries, rows, emit))
            }
            // SAFETY: `Impl::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2")` (`best_simd`,
            // `available`), and the callers' checks are the bodies' bounds.
            #[cfg(target_arch = "x86_64")]
            Impl::Avx2 => unsafe { x86::sweep_avx2(width, queries, rows, emit) },
            // SAFETY: `Impl::Avx512` is only constructed by `best_simd`
            // after `avx512f` and `avx512vpopcntdq` were detected, and the
            // callers' checks are the bodies' bounds.
            #[cfg(target_arch = "x86_64")]
            Impl::Avx512 => unsafe { x86::sweep_avx512(width, queries, rows, emit) },
        }
    }

    /// The blocked ID-Level encode kernel: the sums `Σ id[d] · lv[d]`
    /// over `rows`, one [`ENCODE_BLOCK`]-dimension block at a time.
    /// `sink(b, sums)` receives block `b` — dimensions `64·b ..` — as
    /// 64 i32 lanes; in a ragged final block the lanes beyond `dim` are
    /// zero. `max_abs` bounds every `|id[d]|` and sets the i8 run length
    /// ([`encode_run_len`]). An ID component beyond the bound or a level
    /// component other than ±1 is a panic in a debug build and a wrong
    /// (never unsafe) sum in release.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, `max_abs` is not positive, or a row is
    /// not a [`packed_row_len`]`(dim)`-byte ID row beside a `dim`-long
    /// level row.
    pub fn encode_blocks<F>(&self, rows: &[EncodeRow<'_>], max_abs: i8, dim: usize, sink: F)
    where
        F: FnMut(usize, &[i32; ENCODE_BLOCK]),
    {
        assert!(dim > 0, "hypervector dimension must be positive");
        assert!(
            rows.iter()
                .all(|(id, lv)| id.len() == packed_row_len(dim) && lv.len() == dim),
            "every encode row must hold dim = {dim} components"
        );
        let run = encode_run_len(max_abs);
        match self.imp {
            Impl::Scalar => encode_blocks_body(rows, run, dim, sink),
            // SAFETY: `Impl::Avx2` and `Impl::Avx512` are only constructed
            // by `best_simd`, after `is_x86_feature_detected!("avx2")` —
            // the wrapper's sole precondition; its body is safe code.
            #[cfg(target_arch = "x86_64")]
            Impl::Avx2 | Impl::Avx512 => unsafe { x86::encode_blocks_avx2(rows, run, dim, sink) },
        }
    }
}

/// `$body::<N>($args)` for `N` = `$count`, 1..=[`QUERY_TILE`]: one
/// instantiation per query count, so a body's per-query arrays are
/// exactly `N` long and its query loops unroll.
macro_rules! per_query_count {
    ($count:expr, $body:ident($($arg:expr),*)) => {
        match $count {
            1 => $body::<1>($($arg),*),
            2 => $body::<2>($($arg),*),
            3 => $body::<3>($($arg),*),
            4 => $body::<4>($($arg),*),
            5 => $body::<5>($($arg),*),
            6 => $body::<6>($($arg),*),
            7 => $body::<7>($($arg),*),
            8 => $body::<8>($($arg),*),
            _ => unreachable!("checked against QUERY_TILE"),
        }
    };
}
use per_query_count;

/// What the blocked bodies sweep: rows as wide as the queries — the
/// safe entries check every row once, so the bodies read a row's words
/// without a check per pair.
trait Rows<'a>: Copy {
    /// The rows, in order.
    fn rows(self) -> impl Iterator<Item = &'a [u64]>;

    /// The row to ask the memory system for while row `r` is scored, if
    /// any.
    fn ahead(self, r: usize) -> Option<&'a [u64]>;
}

/// A row-major run of a table's rows: the slab kernel's tile of adjacent
/// rows.
#[derive(Clone, Copy)]
struct Slab<'a> {
    words: &'a [u64],
    width: usize,
}

impl<'a> Rows<'a> for Slab<'a> {
    #[inline(always)]
    fn rows(self) -> impl Iterator<Item = &'a [u64]> {
        self.words.chunks_exact(self.width)
    }

    /// Adjacent rows, a few words each: the hardware streams them.
    #[inline(always)]
    fn ahead(self, _: usize) -> Option<&'a [u64]> {
        None
    }
}

/// Rows anywhere: the exact scan's reference tile.
impl<'a> Rows<'a> for &'a [&'a [u64]] {
    #[inline(always)]
    fn rows(self) -> impl Iterator<Item = &'a [u64]> {
        self.iter().copied()
    }

    /// Two rows ahead: rows anywhere, a kilobyte each at 8 192
    /// dimensions, arrive while the two before them are scored (a third
    /// less time a pair on rows streamed from memory; `BENCHMARKS.md`).
    #[inline(always)]
    fn ahead(self, r: usize) -> Option<&'a [u64]> {
        self.get(r + 2).copied()
    }
}

/// The portable sweep body: per row, each word XORed with the same word
/// of all `N` queries into `N` running counts.
#[inline(always)]
fn sweep_scalar<'a, const N: usize>(
    width: usize,
    queries: &[&[u64]],
    rows: impl Rows<'a>,
    mut emit: impl FnMut(usize, usize, u32),
) {
    let queries: [&[u64]; N] = std::array::from_fn(|q| &queries[q][..width]);
    for (r, row) in rows.rows().enumerate() {
        let row = &row[..width];
        let mut counts = [0u32; N];
        for (w, &word) in row.iter().enumerate() {
            for (count, query) in counts.iter_mut().zip(&queries) {
                *count += (word ^ query[w]).count_ones();
            }
        }
        for (q, count) in counts.into_iter().enumerate() {
            emit(q, r, count);
        }
    }
}

/// The encode kernel's body, written once: for each block, the rows in
/// runs of `run`, each run summed in i8 lanes and widened once. Inlined
/// into the portable call and into the `avx2` wrapper, which is what
/// gives the same loops two instruction sets.
#[inline(always)]
fn encode_blocks_body<F>(rows: &[EncodeRow<'_>], run: usize, dim: usize, mut sink: F)
where
    F: FnMut(usize, &[i32; ENCODE_BLOCK]),
{
    for (block, start) in (0..dim).step_by(ENCODE_BLOCK).enumerate() {
        let width = (dim - start).min(ENCODE_BLOCK);
        let mut sums = [0i32; ENCODE_BLOCK];
        for group in rows.chunks(run) {
            let mut lanes = [0i8; ENCODE_BLOCK];
            for (id, lv) in group {
                let id: [u8; HALF] = id[block * HALF..(block + 1) * HALF]
                    .try_into()
                    .expect("a slice of HALF bytes");
                let lv = load_block(lv, start, width);
                for j in 0..HALF {
                    let low = (id[j] & 0x0f) as i8 - NIBBLE_BIAS;
                    let high = (id[j] >> 4) as i8 - NIBBLE_BIAS;
                    lanes[j] += signed(low, lv[j]);
                    lanes[HALF + j] += signed(high, lv[HALF + j]);
                }
            }
            for d in 0..ENCODE_BLOCK {
                sums[d] += i32::from(lanes[d]);
            }
        }
        sink(block, &sums);
    }
}

/// `id · lv` for `lv = ±1` without a multiply (no vector ISA here has an
/// 8-bit one): `m` is 0 or −1, and `(id ^ m) − m` is `id` or `−id`.
/// Padding lanes are `0 · 0`.
#[inline(always)]
fn signed(id: i8, lv: i8) -> i8 {
    debug_assert!(lv.abs() == 1 || (id, lv) == (0, 0));
    let m = lv >> 7;
    (id ^ m) - m
}

/// `row[start..start + width]` as a full block, zero-padded when the
/// block is the ragged tail (`width < 64`).
#[inline(always)]
fn load_block(row: &[i8], start: usize, width: usize) -> [i8; ENCODE_BLOCK] {
    match row[start..start + width].try_into() {
        Ok(block) => block,
        Err(_) => {
            let mut block = [0i8; ENCODE_BLOCK];
            block[..width].copy_from_slice(&row[start..start + width]);
            block
        }
    }
}

/// The word-wise `Sign`: bit `d` of the result is `1` where
/// `lanes[d] > dead_band`, `0` where `lanes[d] < -dead_band`, and bit `d`
/// of `tie` inside the dead band (`Sign(0)` for an integer accumulator
/// with `dead_band = 0`; `|v| ≤ ½` for the analog one). A word's lanes
/// beyond `lanes.len()` count as zero: they take `tie`'s bits, which a
/// tail-masked tie-break vector keeps clear.
///
/// # Panics
///
/// Panics if `lanes` holds more than 64 values.
#[inline(always)]
pub(crate) fn sign_word<T>(lanes: &[T], dead_band: T, tie: u64) -> u64
where
    T: Copy + PartialOrd + std::ops::Neg<Output = T>,
{
    assert!(lanes.len() <= 64, "one word packs at most 64 lanes");
    let (mut pos, mut neg) = (0u64, 0u64);
    for (d, &v) in lanes.iter().enumerate() {
        pos |= u64::from(v > dead_band) << d;
        neg |= u64::from(v < -dead_band) << d;
    }
    pos | (tie & !neg)
}

/// The best SIMD implementation this CPU reports, or scalar. Both SIMD
/// selections require `avx2` (the encode kernel runs its AVX2
/// instantiation under either).
fn best_simd() -> Impl {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return Impl::Avx512;
        }
        return Impl::Avx2;
    }
    Impl::Scalar
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vectorised bodies: the AVX2 and AVX-512 sweeps, and the AVX2
    //! instantiation of the encode kernel. Each `#[target_feature]`
    //! function is only reachable through a safe `KernelDispatch` entry,
    //! and only for an `Impl::Avx2` or `Impl::Avx512`, which exist only
    //! after `is_x86_feature_detected!` confirmed the ISA
    //! ([`super::best_simd`], `KernelDispatch::available`). The functions
    //! take plain slices, perform unaligned loads, and read only words the
    //! safe entry's length checks put inside those slices; each one's
    //! `# Safety` section says which checks.

    use std::arch::x86_64::*;

    /// The encode kernel's body compiled with AVX2 enabled: no
    /// intrinsics and no pointers — `encode_blocks_body` is safe Rust
    /// and inlines here, so its 64-lane loops vectorise 32 lanes wide.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn encode_blocks_avx2<F>(
        rows: &[super::EncodeRow<'_>],
        run: usize,
        dim: usize,
        sink: F,
    ) where
        F: FnMut(usize, &[i32; super::ENCODE_BLOCK]),
    {
        super::encode_blocks_body(rows, run, dim, sink)
    }

    /// Ask for the cache lines of the row `rows` names ahead of row `r`
    /// — only when `N` queries give the row enough work to hide them
    /// behind (fewer queries leave the out-of-order window room to load
    /// the next rows itself).
    #[inline(always)]
    fn prefetch_ahead<'a, const N: usize>(width: usize, rows: impl super::Rows<'a>, r: usize) {
        if N < 4 {
            return;
        }
        if let Some(next) = rows.ahead(r) {
            for line in (0..width).step_by(8) {
                // SAFETY: `line < width`, the row's length, so the address
                // is inside the row; a prefetch never faults anyway.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(next.as_ptr().add(line).cast()) };
            }
        }
    }

    /// The AVX2 sweep body for any query count (see `sweep_body_avx2`).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`, and the arguments must pass the safe
    /// entries' checks (`KernelDispatch::hamming_slab`,
    /// `KernelDispatch::score_block`): `width >= 1`, 1..=8 queries and
    /// every query and every row of `rows` exactly `width` words. Its
    /// only caller, `KernelDispatch::sweep`, runs after those checks and
    /// reaches this through `Impl::Avx2`, which exists only after
    /// `is_x86_feature_detected!("avx2")`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_avx2<'a>(
        width: usize,
        queries: &[&[u64]],
        rows: impl super::Rows<'a>,
        emit: impl FnMut(usize, usize, u32),
    ) {
        super::per_query_count!(queries.len(), sweep_body_avx2(width, queries, rows, emit))
    }

    /// Per row: each 4-word vector of the row is loaded once, XORed with
    /// the same vector of all `N` queries, and popcounted by the nibble
    /// LUT into `N` byte accumulators; every 31 vectors (≤ 8 per byte
    /// each, so ≤ 248 < 256) they are widened by `_mm256_sad_epu8`. The
    /// row's last `width % 4` words are counted one by one.
    ///
    /// # Safety
    ///
    /// As [`sweep_avx2`]: `avx2`, and the safe entries' checks — the
    /// loads read words `4c..4c + 4` with `4c + 4 <= width` of a query
    /// and of a row, each exactly `width` words long.
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_body_avx2<'a, const N: usize>(
        width: usize,
        queries: &[&[u64]],
        rows: impl super::Rows<'a>,
        mut emit: impl FnMut(usize, usize, u32),
    ) {
        /// Vectors whose byte counts (≤ 8 each) fit one byte lane.
        const FLUSH: usize = 31;
        let vectors = width / 4;
        let query: [*const u64; N] = std::array::from_fn(|q| queries[q].as_ptr());
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        for (r, row) in rows.rows().enumerate() {
            prefetch_ahead::<N>(width, rows, r);
            debug_assert_eq!(row.len(), width);
            let mut counts = [0u64; N];
            let mut v = 0;
            while v < vectors {
                let end = (v + FLUSH).min(vectors);
                let mut bytes = [zero; N];
                for at in (4 * v..4 * end).step_by(4) {
                    let x = _mm256_loadu_si256(row.as_ptr().add(at).cast());
                    for q in 0..N {
                        let y = _mm256_loadu_si256(query[q].add(at).cast());
                        let z = _mm256_xor_si256(x, y);
                        let c = _mm256_add_epi8(
                            _mm256_shuffle_epi8(lut, _mm256_and_si256(z, low_mask)),
                            _mm256_shuffle_epi8(
                                lut,
                                _mm256_and_si256(_mm256_srli_epi32(z, 4), low_mask),
                            ),
                        );
                        bytes[q] = _mm256_add_epi8(bytes[q], c);
                    }
                }
                for q in 0..N {
                    let lanes = _mm256_sad_epu8(bytes[q], zero);
                    let pair = _mm_add_epi64(
                        _mm256_castsi256_si128(lanes),
                        _mm256_extracti128_si256(lanes, 1),
                    );
                    counts[q] += (_mm_cvtsi128_si64(pair) + _mm_extract_epi64(pair, 1)) as u64;
                }
                v = end;
            }
            for q in 0..N {
                for (&x, &y) in row[4 * vectors..].iter().zip(&queries[q][4 * vectors..]) {
                    counts[q] += u64::from((x ^ y).count_ones());
                }
                emit(q, r, counts[q] as u32);
            }
        }
    }

    /// The AVX-512 sweep body for any query count (see
    /// `sweep_body_avx512`).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vpopcntdq`, and the
    /// arguments must pass the safe entries' checks (as for
    /// [`sweep_avx2`]). Its only caller checks them, and reaches this
    /// through `Impl::Avx512`, which `best_simd` builds only after
    /// detecting both features.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn sweep_avx512<'a>(
        width: usize,
        queries: &[&[u64]],
        rows: impl super::Rows<'a>,
        emit: impl FnMut(usize, usize, u32),
    ) {
        super::per_query_count!(queries.len(), sweep_body_avx512(width, queries, rows, emit))
    }

    /// Per row: each 8-word vector of the row is loaded once, XORed with
    /// the same vector of all `N` queries and popcounted by `vpopcntq`
    /// into `N` accumulators; a row's last `width % 8` words are one
    /// masked load, the masked-off lanes reading zero in row and query
    /// alike. One horizontal add per (query, row).
    ///
    /// # Safety
    ///
    /// As [`sweep_avx512`]: `avx512f` + `avx512vpopcntdq`, and the safe
    /// entries' checks — the full loads read words `8c..8c + 8` with
    /// `8c + 8 <= width` of a query and of a row, each exactly `width`
    /// words long; the masked load enables only words below `width`, and
    /// masked-off lanes never fault.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn sweep_body_avx512<'a, const N: usize>(
        width: usize,
        queries: &[&[u64]],
        rows: impl super::Rows<'a>,
        mut emit: impl FnMut(usize, usize, u32),
    ) {
        let (vectors, tail) = (width / 8, width % 8);
        let tail_mask: __mmask8 = (1u8 << tail).wrapping_sub(1);
        let query: [*const i64; N] = std::array::from_fn(|q| queries[q].as_ptr().cast());
        for (r, row) in rows.rows().enumerate() {
            prefetch_ahead::<N>(width, rows, r);
            debug_assert_eq!(row.len(), width);
            let row: *const i64 = row.as_ptr().cast();
            let mut counts = [_mm512_setzero_si512(); N];
            for at in (0..8 * vectors).step_by(8) {
                let x = _mm512_loadu_si512(row.add(at).cast());
                for q in 0..N {
                    let z = _mm512_xor_si512(x, _mm512_loadu_si512(query[q].add(at).cast()));
                    counts[q] = _mm512_add_epi64(counts[q], _mm512_popcnt_epi64(z));
                }
            }
            if tail != 0 {
                let at = 8 * vectors;
                let x = _mm512_maskz_loadu_epi64(tail_mask, row.add(at));
                for q in 0..N {
                    let y = _mm512_maskz_loadu_epi64(tail_mask, query[q].add(at));
                    let z = _mm512_xor_si512(x, y);
                    counts[q] = _mm512_add_epi64(counts[q], _mm512_popcnt_epi64(z));
                }
            }
            for (q, &count) in counts.iter().enumerate() {
                emit(q, r, _mm512_reduce_add_epi64(count) as u32);
            }
        }
    }
}

/// Codes for the process-wide selection (0 = not yet resolved).
const ACTIVE_UNSET: u8 = 0;
const ACTIVE_SCALAR: u8 = 1;
const ACTIVE_AVX2: u8 = 2;
const ACTIVE_AVX512: u8 = 3;

static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn code_of(dispatch: KernelDispatch) -> u8 {
    match dispatch.imp {
        Impl::Scalar => ACTIVE_SCALAR,
        #[cfg(target_arch = "x86_64")]
        Impl::Avx2 => ACTIVE_AVX2,
        #[cfg(target_arch = "x86_64")]
        Impl::Avx512 => ACTIVE_AVX512,
    }
}

fn dispatch_of(code: u8) -> Option<KernelDispatch> {
    let imp = match code {
        ACTIVE_SCALAR => Impl::Scalar,
        #[cfg(target_arch = "x86_64")]
        ACTIVE_AVX2 => Impl::Avx2,
        #[cfg(target_arch = "x86_64")]
        ACTIVE_AVX512 => Impl::Avx512,
        _ => return None,
    };
    Some(KernelDispatch { imp })
}

/// The kernel requested by the `HDOMS_KERNEL` environment variable
/// (default [`KernelKind::Auto`]).
///
/// # Panics
///
/// Panics on an unrecognised spelling — a mistyped override silently
/// running the wrong kernel would defeat the point of setting it.
pub(crate) fn env_kind() -> KernelKind {
    match std::env::var("HDOMS_KERNEL") {
        Ok(value) => KernelKind::parse(&value)
            .unwrap_or_else(|| panic!("HDOMS_KERNEL={value:?} is not one of scalar|auto")),
        Err(_) => KernelKind::Auto,
    }
}

/// The process-wide active kernel: resolved from `HDOMS_KERNEL` on
/// first use, swappable with [`set_active`]. Every software similarity
/// in the workspace ([`crate::similarity`], the search backends) routes
/// through this selection; the RRAM model's per-group partial MACs count
/// their own bits, one row group at a time.
pub fn active() -> KernelDispatch {
    if let Some(dispatch) = dispatch_of(ACTIVE.load(Ordering::Relaxed)) {
        return dispatch;
    }
    let resolved = KernelDispatch::resolve(env_kind());
    ACTIVE.store(code_of(resolved), Ordering::Relaxed);
    resolved
}

/// Override the process-wide kernel, returning what the request
/// resolved to. Output bytes are identical across kernels (the
/// equivalence suites' contract), so swapping mid-run only changes
/// speed — the equivalence tests use exactly that to compare variants
/// inside one process.
pub fn set_active(kind: KernelKind) -> KernelDispatch {
    let resolved = KernelDispatch::resolve(kind);
    ACTIVE.store(code_of(resolved), Ordering::Relaxed);
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_kinds() {
        assert_eq!(KernelKind::parse("scalar"), Some(KernelKind::Scalar));
        assert_eq!(KernelKind::parse("Auto"), Some(KernelKind::Auto));
        assert_eq!(KernelKind::parse("simd"), None);
        assert_eq!(KernelKind::parse("gpu"), None);
    }

    #[test]
    fn tail_bits_are_masked() {
        // 100-bit vectors whose second word carries garbage above bit 36:
        // every variant must ignore it.
        let clean_a = [u64::MAX, (1u64 << 36) - 1];
        let clean_b = [0u64, 0u64];
        let dirty_b = [0u64, u64::MAX << 36];
        for k in KernelDispatch::available() {
            assert_eq!(k.hamming_words(100, &clean_a, &clean_b), 100);
            assert_eq!(
                k.hamming_words(100, &clean_a, &dirty_b),
                100,
                "{} let padding bits into a distance",
                k.name()
            );
        }
    }

    #[test]
    fn set_active_swaps_and_sticks() {
        let scalar = set_active(KernelKind::Scalar);
        assert_eq!(scalar, KernelDispatch::scalar());
        assert_eq!(active(), scalar);
        let auto = set_active(KernelKind::Auto);
        assert_eq!(auto, KernelDispatch::simd());
        assert_eq!(active(), auto);
    }
}
