//! Search backends: the pluggable scoring stage of the pipeline.
//!
//! A scoring backend is two functions, the two operations of the paper's
//! crossbar: a [`RunScorer`] **prepares** a query once (§4.2 encode, with
//! the backend's own error injection) and finds, for each query of a
//! block that shares a run of candidate ids, the **best hit in its own
//! range of the run** (§4.1 search). Everything around them is
//! written once: the shard fan-out of `hdoms-index`'s `ShardedBackend`
//! (the loop every engine runs, and so every search, study and figure),
//! the flat per-query loop [`best_hits`] (the oracle that fan-out is
//! tested against hit for hit, and how the crates below the engine test
//! their scorers), and the `(score desc, id asc)` order every
//! byte-identity gate depends on ([`SearchHit::fold_into`]).
//!
//! To add a backend, implement [`RunScorer`]: exact Hamming on CPU
//! ([`ExactBackend`]; HyperOMS is that backend under a binary-ID
//! configuration and the report name `"hyperoms"`), the baselines
//! crate's cosine scorers and the core crate's simulated in-RRAM search
//! are each a few lines. A backend whose library is hypervectors also
//! implements [`ReferenceEncoder`], so every build path encodes through
//! the one [`encode_chunk`]: a table in memory fills through the one
//! bounded intake [`SharedReferences::encode_in`], the streaming index
//! builder spills each chunk to its file.
//!
//! The binary-hypervector backends all scan one [`SharedReferences`]
//! table: the encoded library as one flat buffer of packed words, on the
//! heap after a cold build or inside a mapped `.hdx` image after a warm
//! load — the same layout either way, so nothing above the table knows
//! which.

use crate::candidates::CandidateIndex;
use crate::window::PrecursorWindow;
use hdoms_hdc::corrupt::{flip_bits, flip_bits_in_place};
use hdoms_hdc::encoder::{EncoderConfig, IdLevelEncoder};
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::kernels::{self, REFERENCE_TILE};
use hdoms_hdc::multibit::IdPrecision;
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::{BinaryHypervector, HvRef, WordBuffer};
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

/// Sentinel marking an absent hypervector in the offset table.
const NO_HV: u64 = u64::MAX;

/// Entries [`SharedReferences::encode_in`] encodes per step: the
/// transient per-entry hypervectors of one step are packed into the flat
/// table and dropped before the next, so an intake holds the encoded
/// library once, not twice.
pub const ENCODE_CHUNK: usize = 8192;

/// A dense reference-hypervector table, indexed by library id (absent
/// slots mark entries preprocessing rejected).
///
/// There is one representation: every stored hypervector's packed words
/// live in one shared [`WordBuffer`], located by a dense `id → byte
/// offset` table, and [`SharedReferences::hv`] hands out borrowed
/// [`HvRef`] views into it. Where the buffer's bytes live is the
/// buffer's business — a heap `Vec<u64>` for a cold build (which
/// [`SharedReferences::append`] grows), a whole `.hdx` file image read
/// or `mmap`ed for a warm load (the file bytes *are* the search bits) —
/// so an "owned" table is simply one whose buffer is on the heap.
///
/// The table is reference-counted so one encoded library can back many
/// consumers at once — a loaded `hdoms-index`, a flat [`ExactBackend`],
/// and a sharded backend all share the same words instead of each holding
/// a private copy.
#[derive(Debug, Clone)]
pub struct SharedReferences {
    buffer: WordBuffer,
    /// Dimension of every stored reference (0 while none is stored).
    dim: usize,
    /// Byte offset of each reference's word block ([`NO_HV`] = absent).
    offsets: Arc<Vec<u64>>,
}

impl SharedReferences {
    /// Wrap `buffer` as a reference table: `offsets[id]` is the byte
    /// offset of reference `id`'s `ceil(dim / 64)` packed words, or
    /// `u64::MAX` for an entry preprocessing rejected.
    ///
    /// Every offset is validated once here (8-aligned, in bounds, zero
    /// tail bits) so the per-candidate lookup on the search hot path is
    /// a plain slice index.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or any offset is misaligned, out of
    /// bounds, or points at words with dirty tail bits.
    pub fn new(buffer: WordBuffer, dim: usize, offsets: Vec<u64>) -> SharedReferences {
        assert!(dim > 0, "hypervector dimension must be positive");
        let words = dim.div_ceil(64);
        for &offset in offsets.iter().filter(|&&offset| offset != NO_HV) {
            let offset = usize::try_from(offset).expect("offset fits in usize");
            // `words()` checks alignment and bounds; `HvRef::new` checks
            // the tail invariant.
            let _ = HvRef::new(dim, buffer.words(offset, words));
        }
        SharedReferences {
            buffer,
            dim,
            offsets: Arc::new(offsets),
        }
    }

    /// The shared backing buffer.
    pub fn buffer(&self) -> &WordBuffer {
        &self.buffer
    }

    /// Number of slots (present or absent).
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The view for reference `id` (`None` for an absent slot).
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond the table — a backend handed a
    /// candidate id its reference table does not cover is mis-wired,
    /// and silently skipping it would drop matches instead of failing
    /// loudly.
    #[inline]
    pub fn hv(&self, id: usize) -> Option<HvRef<'_>> {
        let offset = self.offsets[id];
        if offset == NO_HV {
            return None;
        }
        let words = self.buffer.words(offset as usize, self.dim.div_ceil(64));
        // Validated in `new` (or packed by `append` from hypervectors
        // that hold the invariant), so skip the re-checks on the hot path.
        Some(HvRef::new_unchecked(self.dim, words))
    }

    /// Iterate every slot in id order.
    pub fn iter(&self) -> impl Iterator<Item = Option<HvRef<'_>>> + '_ {
        (0..self.len()).map(|id| self.hv(id))
    }

    /// Number of present (non-rejected) references.
    pub fn present_count(&self) -> usize {
        self.iter().flatten().count()
    }

    /// The common dimension of the stored references, or `None` when no
    /// reference is present.
    pub fn dim(&self) -> Option<usize> {
        self.offsets
            .iter()
            .any(|&offset| offset != NO_HV)
            .then_some(self.dim)
    }

    /// Check that the stored references are `dim`-dimensional; a table
    /// storing none agrees with any dimension.
    ///
    /// # Panics
    ///
    /// Panics if a reference is stored and its dimension is not `dim`.
    pub fn assert_dim(&self, dim: usize) {
        if let Some(stored) = self.dim() {
            assert_eq!(
                stored, dim,
                "reference hypervector dimensions must match the encoder"
            );
        }
    }

    /// Byte offset of reference `id`'s packed words inside the backing
    /// buffer, or `None` for an absent slot. This is the residency
    /// seam: knowing where each reference's words live lets a caller
    /// compute per-shard byte ranges and release cold shards' pages
    /// ([`WordBuffer::release_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond the table.
    pub fn offset_of(&self, id: usize) -> Option<u64> {
        let offset = self.offsets[id];
        (offset != NO_HV).then_some(offset)
    }

    /// Bytes one stored hypervector's packed words occupy
    /// (`ceil(dim / 64)` words of 8 bytes).
    pub fn hv_bytes(&self) -> usize {
        self.dim.div_ceil(64) * 8
    }

    /// Whether two handles share the same underlying storage (the
    /// zero-copy guarantee warm backends rely on).
    pub fn ptr_eq(a: &SharedReferences, b: &SharedReferences) -> bool {
        WordBuffer::ptr_eq(&a.buffer, &b.buffer) && Arc::ptr_eq(&a.offsets, &b.offsets)
    }

    /// Number of live handles on the backing buffer.
    pub fn handle_count(&self) -> usize {
        self.buffer.handle_count()
    }

    /// Whether the backing buffer is a file mapping — the one kind of
    /// table whose cold pages can be handed back to the OS and refault
    /// from the file ([`WordBuffer::release_range`]); heap tables,
    /// cold-built or read from a file alike, cannot.
    pub fn is_mapped(&self) -> bool {
        self.buffer.is_mapped()
    }

    /// Append new slots. A heap buffer this table alone holds grows in
    /// place; a file mapping cannot grow and a buffer other handles
    /// view must not move under them, so either is first repacked — the
    /// stored words copied out of it into a fresh heap buffer (the one
    /// deliberate copy in the system; the common case, append offline
    /// then serve, stays zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if a new hypervector's dimension disagrees with the
    /// stored ones.
    pub fn append(&mut self, new_slots: impl IntoIterator<Item = Option<BinaryHypervector>>) {
        let new_slots = new_slots.into_iter();
        let mut words = self.heap_words(new_slots.size_hint().0, self.dim);
        let offsets = Arc::make_mut(&mut self.offsets);
        for slot in new_slots {
            offsets.push(match slot {
                Some(hv) => {
                    if self.dim == 0 {
                        self.dim = hv.dim();
                    }
                    assert_eq!(hv.dim(), self.dim, "all references must share a dimension");
                    let at = words.len() * 8;
                    words.extend_from_slice(hv.words());
                    at as u64
                }
                None => NO_HV,
            });
        }
        self.buffer = WordBuffer::from(words);
    }

    /// The one intake of a table in memory: encode `entries` as ids
    /// `self.len()..` ([`encode_chunk`]), [`ENCODE_CHUNK`] entries a
    /// step, pass each slot through `fold` (the build statistics) and
    /// append what it hands on. The table is sized once for the whole
    /// intake, so the steps never move it, and a step's transient
    /// hypervectors are dropped before the next is encoded: the intake
    /// holds the finished table plus one step, never the encoded input
    /// beside the table.
    ///
    /// # Panics
    ///
    /// Panics if an encoded hypervector's dimension disagrees with the
    /// stored ones.
    pub fn encode_in<E: ReferenceEncoder + ?Sized>(
        &mut self,
        encoder: &E,
        pre: &Preprocessor,
        entries: &[LibraryEntry],
        threads: usize,
        mut fold: impl FnMut(Option<(BinaryHypervector, f64)>) -> Option<BinaryHypervector>,
    ) {
        self.buffer = WordBuffer::from(self.heap_words(entries.len(), encoder.dim()));
        for chunk in entries.chunks(ENCODE_CHUNK) {
            let encoded = encode_chunk(encoder, pre, chunk, self.len() as u32, threads);
            self.append(encoded.into_iter().map(&mut fold));
        }
    }

    /// Take the words out as a heap vector this table alone holds, with
    /// room for `slots` more slots of `dim`-dimensional hypervectors
    /// (the buffer is left empty until the caller puts one back). A heap
    /// buffer no other handle views is taken as it is; a file mapping,
    /// or a buffer other handles view, is repacked.
    fn heap_words(&mut self, slots: usize, dim: usize) -> Vec<u64> {
        let (hv_words, room) = (self.dim.div_ceil(64), slots * dim.div_ceil(64));
        let offsets = Arc::make_mut(&mut self.offsets);
        offsets.reserve_exact(slots);
        let buffer = std::mem::replace(&mut self.buffer, WordBuffer::from(Vec::new()));
        let mut words = buffer.into_heap_words().unwrap_or_else(|shared| {
            let mut packed = Vec::with_capacity(offsets.len() * hv_words + room);
            for offset in offsets.iter_mut().filter(|offset| **offset != NO_HV) {
                let at = packed.len() * 8;
                packed.extend_from_slice(shared.words(*offset as usize, hv_words));
                *offset = at as u64;
            }
            packed
        });
        words.reserve_exact(room);
        words
    }
}

impl PartialEq for SharedReferences {
    /// Logical equality: same slots with the same bits, wherever the
    /// words live — a mapped table equals the heap table it was written
    /// from.
    fn eq(&self, other: &SharedReferences) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl From<Vec<Option<BinaryHypervector>>> for SharedReferences {
    /// Pack `table` into one heap buffer — a single allocation, not one
    /// per reference.
    ///
    /// # Panics
    ///
    /// Panics if present hypervectors disagree in dimension.
    fn from(table: Vec<Option<BinaryHypervector>>) -> SharedReferences {
        let mut references = SharedReferences {
            buffer: WordBuffer::from(Vec::new()),
            dim: table.iter().flatten().next().map_or(0, |hv| hv.dim()),
            offsets: Arc::new(Vec::with_capacity(table.len())),
        };
        references.append(table);
        references
    }
}

/// One best-match result from a backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Library entry id of the best match.
    pub reference: u32,
    /// Backend-specific similarity score (higher is better).
    pub score: f64,
}

impl SearchHit {
    /// Fold this hit into the running best under the canonical
    /// `(score desc, id asc)` order: a higher score wins, and of two
    /// equal scores the lower reference id. Every scan and every merge
    /// reduces through here, so a flat scan, a shard fan-out and any
    /// candidate order agree on the winner.
    #[inline]
    pub fn fold_into(self, best: &mut Option<SearchHit>) {
        let better = match best {
            None => true,
            Some(b) => {
                self.score > b.score || (self.score == b.score && self.reference < b.reference)
            }
        };
        if better {
            *best = Some(self);
        }
    }

    /// The best hit over `run` for a backend that scores one candidate
    /// at a time: `score` gives each candidate's score, or `None` for a
    /// candidate with nothing stored.
    pub fn best_of(run: &[u32], mut score: impl FnMut(u32) -> Option<f64>) -> Option<SearchHit> {
        let mut best: Option<SearchHit> = None;
        for &reference in run {
            if let Some(score) = score(reference) {
                SearchHit { reference, score }.fold_into(&mut best);
            }
        }
        best
    }
}

/// Fold one scored reference tile into the running best hit. The tile's
/// own winner is found on the integer dot products — `dot / dim` orders
/// them alike, equal dots being equal scores — so only it is converted.
fn fold_tile(dim: usize, ids: &[u32], scores: &[i64], best: &mut Option<SearchHit>) {
    let mut top: Option<(i64, u32)> = None;
    for (&reference, &raw) in ids.iter().zip(scores) {
        if top.is_none_or(|(dot, id)| raw > dot || (raw == dot && reference < id)) {
            top = Some((raw, reference));
        }
    }
    if let Some((dot, reference)) = top {
        let score = dot as f64 / dim as f64;
        SearchHit { reference, score }.fold_into(best);
    }
}

/// What a scoring backend is: encode a query once, score one run of
/// candidates. Results must be deterministic per `(query, reference)` —
/// independent of which run a candidate arrives in and of the other
/// candidates — so that splitting a candidate list into runs and merging
/// the per-run winners with [`SearchHit::fold_into`] equals one scan of
/// the whole list.
pub trait RunScorer: Sync {
    /// The prepared form of one query — its encoded hypervector for the
    /// HD backends, `()` for backends that score the binned spectrum
    /// directly.
    type Query: PreparedQuery;

    /// The name reports carry ("exact-hd", "ann-solo", …).
    fn report_name(&self) -> String;

    /// Encode `binned` once, applying the backend's configured
    /// encode-path error injection.
    fn prepare(&self, binned: &BinnedSpectrum) -> Self::Query;

    /// For each member of `members`, in order, its best hit among the
    /// references at its range of positions in `run` (`None` when the
    /// range holds no stored reference), under the
    /// [`SearchHit::fold_into`] order. One run scored for many members
    /// at once is the block the shard loop hands over: a row block of
    /// the union of a batch's windows, each member ranging over its own
    /// window's rows in it. A one-member slice ranging over the whole run
    /// is a plain scan.
    ///
    /// # Panics
    ///
    /// Panics if a member's range reaches beyond `run`.
    fn best_in_ranges(
        &self,
        members: &[RunMember<'_, Self::Query>],
        run: &[u32],
    ) -> Vec<Option<SearchHit>>;
}

/// One member of a run scored for a block of queries
/// ([`RunScorer::best_in_ranges`]): the query's binned spectrum, its
/// prepared form, and the positions of the run it scans.
pub type RunMember<'a, Q> = (&'a BinnedSpectrum, &'a Q, Range<usize>);

/// A prepared query as the sketch prefilter sees it: a hypervector
/// offers its packed words to sketch, a query scored as its binned
/// spectrum (`()`) offers none. `Send`, because a batch prepares its
/// queries on one worker and scores them on another.
pub trait PreparedQuery: Send + Sync {
    /// The query hypervector's packed words, if the query is one.
    fn hv_words(&self) -> Option<&[u64]>;
}

impl PreparedQuery for BinaryHypervector {
    fn hv_words(&self) -> Option<&[u64]> {
        Some(self.words())
    }
}

impl PreparedQuery for () {
    fn hv_words(&self) -> Option<&[u64]> {
        None
    }
}

/// The flat per-query loop, written once: prepare each query and score
/// its whole candidate list as a single run, in parallel over queries on
/// `threads` workers. `queries[i]` pairs with `candidates[i]`; an empty
/// list gives `None`. This is the oracle `ShardedBackend`'s fan-out is
/// tested against.
///
/// # Panics
///
/// Panics when `queries` and `candidates` do not pair up.
pub fn best_hits<S: RunScorer>(
    scorer: &S,
    queries: &[BinnedSpectrum],
    candidates: &[Vec<u32>],
    threads: usize,
) -> Vec<Option<SearchHit>> {
    assert_eq!(
        queries.len(),
        candidates.len(),
        "queries and candidate lists must pair up"
    );
    par_map(queries, threads, |i, binned| {
        let query = scorer.prepare(binned);
        let whole = 0..candidates[i].len();
        scorer.best_in_ranges(&[(binned, &query, whole)], &candidates[i])[0]
    })
}

/// The library side of a hypervector backend: encode one preprocessed
/// reference exactly as a cold build stores it.
pub trait ReferenceEncoder: Sync {
    /// Dimension of every hypervector this encoder stores.
    fn dim(&self) -> usize;

    /// The stored hypervector of `binned` (deterministic in the
    /// encoder's configuration and `binned.id`, the dense library id)
    /// and its encoding bit-error rate against the noise-free software
    /// encoding — 0 for the software encoders.
    fn encode_reference(&self, binned: &BinnedSpectrum) -> (BinaryHypervector, f64);
}

/// The one library-encode body, behind the one in-memory intake
/// ([`SharedReferences::encode_in`]) and the streaming index builder's
/// spill loop alike: encode a dense run of
/// entries exactly as a cold build encodes ids `first_id..first_id + len`.
/// Each entry's binned spectrum takes the id `first_id + offset` (the
/// dense id it will occupy; preprocessing reads no id, so the spectrum
/// itself is not copied), so encoding and any per-reference noise stream
/// are keyed on the final id, and feeding a library through
/// one bounded chunk at a time yields bit-for-bit the hypervectors (and
/// bit-error rates) of a whole-library build. A slot is `None` when
/// preprocessing rejected the entry; `pre` must carry the preprocessing
/// configuration `encoder` was built for.
pub fn encode_chunk<E: ReferenceEncoder + ?Sized>(
    encoder: &E,
    pre: &Preprocessor,
    entries: &[LibraryEntry],
    first_id: u32,
    threads: usize,
) -> Vec<Option<(BinaryHypervector, f64)>> {
    par_map(entries, threads, |offset, entry| {
        let mut binned = pre.run(&entry.spectrum).ok()?;
        binned.id = first_id + offset as u32;
        Some(encoder.encode_reference(&binned))
    })
}

/// Configuration for [`ExactBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactBackendConfig {
    /// Preprocessing applied to the reference library (an engine over
    /// the backend preprocesses its queries with the same config).
    pub preprocess: PreprocessConfig,
    /// HD encoder settings.
    pub encoder: EncoderConfig,
    /// Worker threads for encoding and search.
    pub threads: usize,
    /// Bit-error rate injected into each *query* hypervector after
    /// encoding (models in-memory encoding errors, Fig. 11). Zero for the
    /// ideal backend.
    pub encode_ber: f64,
    /// Bit-error rate injected into each *reference* hypervector once at
    /// build time (models storage errors, Fig. 11). Zero for ideal.
    pub storage_ber: f64,
    /// Seed for the error injection (errors are deterministic per query /
    /// reference id).
    pub noise_seed: u64,
}

impl Default for ExactBackendConfig {
    fn default() -> ExactBackendConfig {
        ExactBackendConfig {
            preprocess: PreprocessConfig::default(),
            encoder: EncoderConfig::default(),
            threads: hdoms_hdc::parallel::default_threads(),
            encode_ber: 0.0,
            storage_ber: 0.0,
            noise_seed: 0xbe44,
        }
    }
}

/// The HyperOMS-style configuration of the exact backend (HyperOMS, Kang
/// et al., PACT 2022, is [`ExactBackend`] under binary IDs and
/// bit-granular level vectors). It lives next to [`ExactBackendConfig`]
/// because a persistent index stores it as a backend kind. Its GPU only
/// changes throughput, which the performance model in `hdoms-core`
/// accounts for separately: built warm it is the `HyperOms` index kind,
/// built cold `ExactBackend::build(library, config.exact_config(threads))
/// .named("hyperoms")`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperOmsConfig {
    /// Preprocessing applied to references and queries alike.
    pub preprocess: PreprocessConfig,
    /// Hypervector dimension (HyperOMS also runs D = 8192 for its quality
    /// results).
    pub dim: usize,
    /// Intensity quantisation levels.
    pub q_levels: usize,
    /// Worker threads (the CPU stand-in for GPU parallelism).
    pub threads: usize,
    /// Item-memory seed. Deliberately distinct from the default encoder
    /// seed of the paper's accelerator so the two tools behave like
    /// independently initialised implementations (visible as partial
    /// disagreement in the Fig. 10 Venn diagram).
    pub seed: u64,
}

impl HyperOmsConfig {
    /// The [`ExactBackend`] configuration HyperOMS is: binary (1-bit) ID
    /// hypervectors, conventional bit-granular level vectors, no
    /// injected errors. The one mapping both the cold build and
    /// `hdoms-index` go through, run on `threads` workers.
    pub fn exact_config(&self, threads: usize) -> ExactBackendConfig {
        ExactBackendConfig {
            preprocess: self.preprocess,
            encoder: EncoderConfig {
                dim: self.dim,
                q_levels: self.q_levels,
                id_precision: IdPrecision::Bits1,
                level_style: LevelStyle::Random,
                num_bins: self.preprocess.num_bins(),
                seed: self.seed,
            },
            threads,
            encode_ber: 0.0,
            storage_ber: 0.0,
            noise_seed: 0,
        }
    }
}

impl Default for HyperOmsConfig {
    fn default() -> HyperOmsConfig {
        HyperOmsConfig {
            preprocess: PreprocessConfig::default(),
            dim: 8192,
            q_levels: 32,
            threads: hdoms_hdc::parallel::default_threads(),
            seed: 0x417e_4045,
        }
    }
}

/// Exact HD backend: ID-Level encoding + exact Hamming scoring, optionally
/// with injected bit errors (the software equivalent of HyperOMS, and the
/// reference point the RRAM backend is compared against). It is both
/// halves of the seam: a [`RunScorer`] over its reference table and the
/// [`ReferenceEncoder`] that fills one — a backend over an empty table
/// is the software kinds' library encoder.
#[derive(Debug, Clone)]
pub struct ExactBackend {
    config: ExactBackendConfig,
    /// Shared with every backend derived from this one
    /// ([`ExactBackend::with_error_rates`]): the item memories are
    /// ~6 MB at the default configuration.
    encoder: Arc<IdLevelEncoder>,
    /// Encoded reference hypervectors, indexed by library id; `None` when
    /// the reference failed preprocessing (too few peaks). Shared, so a
    /// warm load from a persistent index does not duplicate the words.
    reference_hvs: SharedReferences,
    /// Report name standing in for the derived one (see
    /// [`ExactBackend::named`]).
    name: Option<String>,
}

impl ExactBackendConfig {
    /// Apply the configured storage errors to reference `id`'s stored
    /// bits (a stream of its own per reference; nothing at rate zero).
    fn corrupt_stored(&self, id: u64, hv: &mut BinaryHypervector) {
        if self.storage_ber > 0.0 {
            let seed = self.noise_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(id));
            flip_bits_in_place(&mut rng, hv, self.storage_ber);
        }
    }
}

impl ExactBackend {
    /// Build the backend: preprocess and encode the whole library, then
    /// apply storage errors if configured.
    pub fn build(library: &SpectralLibrary, config: ExactBackendConfig) -> ExactBackend {
        let encoder = ExactBackend::from_shared(config, SharedReferences::from(Vec::new()));
        let pre = Preprocessor::new(config.preprocess);
        let mut references = SharedReferences::from(Vec::new());
        let fold = |slot: Option<(BinaryHypervector, f64)>| slot.map(|(hv, _)| hv);
        references.encode_in(&encoder, &pre, library.entries(), config.threads, fold);
        encoder.over(references, config.threads)
    }

    /// Reassemble a backend from already-encoded reference hypervectors
    /// without touching the library — the warm-load path used by
    /// `hdoms-index`. Slot `id` must hold exactly what a cold
    /// [`ExactBackend::build`] with `config` would have produced (encoding
    /// is deterministic in the config, so persisted hypervectors qualify).
    ///
    /// The backend holds another handle to the caller's table instead of
    /// a private copy — wherever that table's buffer lives, heap or
    /// mapped index file — so a resident index and every backend
    /// reconstructed from it keep exactly one copy of the encoded
    /// library in memory.
    ///
    /// # Panics
    ///
    /// Panics if a stored hypervector's dimension disagrees with the
    /// encoder configuration.
    pub fn from_shared(
        config: ExactBackendConfig,
        reference_hvs: SharedReferences,
    ) -> ExactBackend {
        let encoder = Arc::new(IdLevelEncoder::new(config.encoder));
        reference_hvs.assert_dim(config.encoder.dim);
        ExactBackend {
            config,
            encoder,
            reference_hvs,
            name: None,
        }
    }

    /// This backend over another reference table on `threads` workers,
    /// its encoder shared, not regenerated — how an index hands the one
    /// backend that encoded its table out as a scorer over it.
    ///
    /// # Panics
    ///
    /// Panics if a stored hypervector's dimension disagrees with the
    /// encoder configuration.
    pub fn over(&self, reference_hvs: SharedReferences, threads: usize) -> ExactBackend {
        reference_hvs.assert_dim(self.config.encoder.dim);
        ExactBackend {
            config: ExactBackendConfig {
                threads,
                ..self.config
            },
            reference_hvs,
            ..self.clone()
        }
    }

    /// The same backend under the report name `name` — how a tool that
    /// *is* this scan under a particular configuration reports itself
    /// (HyperOMS: [`HyperOmsConfig::exact_config`] named `"hyperoms"`).
    pub fn named(mut self, name: &str) -> ExactBackend {
        self.name = Some(name.to_owned());
        self
    }

    /// The encoder (shared configuration with the pipeline's quality
    /// studies).
    pub fn encoder(&self) -> &IdLevelEncoder {
        &self.encoder
    }

    /// The shared handle to the reference table (use
    /// [`SharedReferences::ptr_eq`] on two handles to verify that
    /// storage really is shared, not cloned).
    pub fn shared_references(&self) -> &SharedReferences {
        &self.reference_hvs
    }

    /// Derive a backend with different injected error rates *without*
    /// re-encoding the library — the Fig. 11 sweep builds one clean
    /// backend per ID precision and derives every BER point from it.
    ///
    /// # Panics
    ///
    /// Panics if `self` already carries storage errors (its references are
    /// corrupted and cannot serve as the clean source), or if a rate is
    /// outside `[0, 1]`.
    pub fn with_error_rates(
        &self,
        encode_ber: f64,
        storage_ber: f64,
        noise_seed: u64,
    ) -> ExactBackend {
        assert_eq!(
            self.config.storage_ber, 0.0,
            "derive error variants from a clean backend"
        );
        let config = ExactBackendConfig {
            encode_ber,
            storage_ber,
            noise_seed,
            ..self.config
        };
        let reference_hvs = if storage_ber > 0.0 {
            SharedReferences::from(
                self.reference_hvs
                    .iter()
                    .enumerate()
                    .map(|(id, slot)| {
                        slot.map(|hv| {
                            let mut owned = hv.to_hypervector();
                            config.corrupt_stored(id as u64, &mut owned);
                            owned
                        })
                    })
                    .collect::<Vec<_>>(),
            )
        } else {
            // Clean references stay clean: share instead of cloning.
            self.reference_hvs.clone()
        };
        ExactBackend {
            config,
            encoder: Arc::clone(&self.encoder),
            reference_hvs,
            name: self.name.clone(),
        }
    }

    /// Encode one query, applying the configured encode-path bit errors.
    pub fn encode_query(&self, binned: &BinnedSpectrum) -> BinaryHypervector {
        let hv = self.encoder.encode(binned);
        if self.config.encode_ber > 0.0 {
            let mut rng = StdRng::seed_from_u64(
                self.config
                    .noise_seed
                    .wrapping_mul(0xd134_2543_de82_ef95)
                    .wrapping_add(u64::from(binned.id)),
            );
            flip_bits(&mut rng, &hv, self.config.encode_ber)
        } else {
            hv
        }
    }
}

impl ReferenceEncoder for ExactBackend {
    fn dim(&self) -> usize {
        self.config.encoder.dim
    }

    fn encode_reference(&self, binned: &BinnedSpectrum) -> (BinaryHypervector, f64) {
        let mut hv = self.encoder.encode(binned);
        self.config.corrupt_stored(u64::from(binned.id), &mut hv);
        (hv, 0.0)
    }
}

impl RunScorer for ExactBackend {
    type Query = BinaryHypervector;

    fn report_name(&self) -> String {
        if let Some(name) = &self.name {
            name.clone()
        } else if self.config.encode_ber > 0.0 || self.config.storage_ber > 0.0 {
            format!(
                "exact-hd(ber={:.4}/{:.4})",
                self.config.encode_ber, self.config.storage_ber
            )
        } else {
            "exact-hd".to_owned()
        }
    }

    fn prepare(&self, binned: &BinnedSpectrum) -> BinaryHypervector {
        self.encode_query(binned)
    }

    /// The exact scan: the present entries of `run` in
    /// [`REFERENCE_TILE`]-sized tiles, each scored once by
    /// [`KernelDispatch::score_block`](kernels::KernelDispatch::score_block)
    /// on the process-wide active kernel ([`hdoms_hdc::kernels::active`])
    /// against every member whose range meets the tile, each member then
    /// folding only the tile's rows inside its range. A block shared by
    /// many members is read once per tile, not once per member —
    /// identical results to the pairwise formulation, whatever the
    /// kernel, tile shape, ranges or member count.
    ///
    /// # Panics
    ///
    /// Panics if a candidate id is beyond the reference table, or a
    /// member's range beyond `run`.
    fn best_in_ranges(
        &self,
        members: &[RunMember<'_, BinaryHypervector>],
        run: &[u32],
    ) -> Vec<Option<SearchHit>> {
        let dim = self.encoder.config().dim;
        let kernel = kernels::active();
        let mut best: Vec<Option<SearchHit>> = vec![None; members.len()];
        // The present references among the rows some member scans: ids,
        // words and run positions.
        let first = members.iter().map(|m| m.2.start).min().unwrap_or(0);
        let end = members.iter().map(|m| m.2.end).max().unwrap_or(0);
        let span = end.saturating_sub(first);
        let (mut ids, mut rows, mut at) = (
            Vec::with_capacity(span),
            Vec::with_capacity(span),
            Vec::with_capacity(span),
        );
        for (p, &cand) in (first..).zip(&run[first..end]) {
            if let Some(ref_hv) = self.reference_hvs.hv(cand as usize) {
                ids.push(cand);
                rows.push(ref_hv.words());
                at.push(p);
            }
        }
        let (mut meeting, mut query_words) = (Vec::new(), Vec::new());
        let mut scores = vec![0i64; members.len() * REFERENCE_TILE.min(ids.len())];
        for start in (0..ids.len()).step_by(REFERENCE_TILE) {
            let tile = start..(start + REFERENCE_TILE).min(ids.len());
            let (ids, rows, at) = (&ids[tile.clone()], &rows[tile.clone()], &at[tile]);
            let span = at[0]..at[at.len() - 1] + 1;
            meeting.clear();
            meeting.extend((0..members.len()).filter(|&m| {
                let range = &members[m].2;
                range.start < span.end && span.start < range.end
            }));
            query_words.clear();
            query_words.extend(meeting.iter().map(|&m| members[m].1.words()));
            let out = &mut scores[..meeting.len() * ids.len()];
            kernel.score_block(dim, &query_words, rows, out);
            for (row, &m) in out.chunks_exact(ids.len()).zip(&meeting) {
                let range = &members[m].2;
                let from = at.partition_point(|&p| p < range.start);
                let to = at.partition_point(|&p| p < range.end);
                fold_tile(dim, &ids[from..to], &row[from..to], &mut best[m]);
            }
        }
        best
    }
}

/// Each query's precursor-window candidates copied out as ids, in
/// ascending mass order — for the flat oracle, tests and benches; the
/// engine keeps each window as a range ([`CandidateIndex::window`]).
pub fn candidate_lists(
    index: &CandidateIndex,
    window: &PrecursorWindow,
    queries: &[BinnedSpectrum],
) -> Vec<Vec<u32>> {
    let copy = |r: std::ops::Range<u32>| index.ids()[r.start as usize..r.end as usize].to_vec();
    (queries.iter())
        .map(|q| copy(index.window(window, q.neutral_mass)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ReferenceCatalog;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    fn small_backend_config() -> ExactBackendConfig {
        ExactBackendConfig {
            encoder: EncoderConfig {
                dim: 2048,
                ..EncoderConfig::default()
            },
            threads: 2,
            ..ExactBackendConfig::default()
        }
    }

    fn setup() -> (
        SyntheticWorkload,
        ExactBackend,
        Vec<BinnedSpectrum>,
        Vec<Vec<u32>>,
    ) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 55);
        let backend = ExactBackend::build(&workload.library, small_backend_config());
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        (workload, backend, queries, cands)
    }

    #[test]
    fn finds_mostly_true_references() {
        let (workload, backend, queries, cands) = setup();
        let hits = best_hits(&backend, &queries, &cands, 2);
        let mut correct = 0usize;
        let mut matchable = 0usize;
        for (binned, hit) in queries.iter().zip(&hits) {
            let truth = &workload.truth[binned.id as usize];
            if let Some(true_id) = truth.library_id() {
                matchable += 1;
                if let Some(h) = hit {
                    if h.reference == true_id {
                        correct += 1;
                    }
                }
            }
        }
        assert!(matchable > 20);
        let rate = correct as f64 / matchable as f64;
        assert!(rate > 0.7, "true-reference hit rate {rate} too low");
    }

    #[test]
    fn empty_candidates_give_none() {
        let (_, backend, queries, _) = setup();
        let empty: Vec<Vec<u32>> = queries.iter().map(|_| Vec::new()).collect();
        let hits = best_hits(&backend, &queries, &empty, 2);
        assert!(hits.iter().all(Option::is_none));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 56);
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let run = |threads: usize| {
            let backend = ExactBackend::build(
                &workload.library,
                ExactBackendConfig {
                    threads,
                    ..small_backend_config()
                },
            );
            best_hits(&backend, &queries, &cands, threads)
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn bit_errors_degrade_scores_but_not_catastrophically() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 57);
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);

        let clean = ExactBackend::build(&workload.library, small_backend_config());
        let noisy = ExactBackend::build(
            &workload.library,
            ExactBackendConfig {
                encode_ber: 0.05,
                storage_ber: 0.05,
                ..small_backend_config()
            },
        );
        let clean_hits = best_hits(&clean, &queries, &cands, 2);
        let noisy_hits = best_hits(&noisy, &queries, &cands, 2);
        // At 5 % BER the HD representation tolerates the noise: most best
        // references should be unchanged (the paper's robustness claim).
        let agree = clean_hits
            .iter()
            .zip(&noisy_hits)
            .filter(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x.reference == y.reference,
                (None, None) => true,
                _ => false,
            })
            .count();
        let rate = agree as f64 / clean_hits.len() as f64;
        assert!(rate > 0.75, "agreement {rate} too low at 5 % BER");
        // And the noisy scores are lower on average.
        let mean = |hits: &[Option<SearchHit>]| {
            let scores: Vec<f64> = hits.iter().flatten().map(|h| h.score).collect();
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        assert!(mean(&noisy_hits) < mean(&clean_hits));
    }

    #[test]
    fn name_reflects_noise() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 58);
        let clean = ExactBackend::build(&workload.library, small_backend_config());
        assert_eq!(clean.report_name(), "exact-hd");
        let noisy = ExactBackend::build(
            &workload.library,
            ExactBackendConfig {
                encode_ber: 0.01,
                ..small_backend_config()
            },
        );
        assert!(noisy.report_name().contains("ber"));
    }

    /// The exact sweep over one run for many members, each over its own
    /// range, ≡ a plain XOR + `count_ones` over each member's range (the
    /// references' tails are clean), not a kernel: 1, 8, 9 and 17
    /// members; ranges empty, of one row, on and off the 32-row tile
    /// bounds, overlapping, disjoint and whole; every seventh reference
    /// absent; on the active kernel (CI runs this under both
    /// `HDOMS_KERNEL` values).
    #[test]
    fn a_shared_sweep_equals_one_scan_per_member() {
        let (_, built, queries, _) = setup();
        let starved: Vec<Option<BinaryHypervector>> = (built.shared_references().iter())
            .enumerate()
            .map(|(id, hv)| hv.filter(|_| id % 7 != 3).map(|hv| hv.to_hypervector()))
            .collect();
        let backend = ExactBackend::from_shared(small_backend_config(), starved.into());
        let dim = backend.encoder().config().dim;
        let run: Vec<u32> = (0..backend.shared_references().len() as u32)
            .rev()
            .step_by(2)
            .collect();
        assert!(run.len() > 3 * REFERENCE_TILE, "too short a run");
        let hvs: Vec<BinaryHypervector> = queries.iter().map(|q| backend.prepare(q)).collect();
        let tile = REFERENCE_TILE;
        let ranges = [
            0..run.len(),
            5..5,
            tile..tile + 1,
            tile - 1..2 * tile,
            tile..2 * tile + 1,
            3..tile + 7,
            2 * tile + 1..run.len() - 2,
            0..tile,
            run.len() - 1..run.len(),
        ];
        for count in [1, 8, 9, 17] {
            let members: Vec<RunMember<'_, BinaryHypervector>> = (0..count)
                .map(|m| (&queries[m], &hvs[m], ranges[m % ranges.len()].clone()))
                .collect();
            let expected: Vec<Option<SearchHit>> = (members.iter())
                .map(|(_, hv, range)| {
                    SearchHit::best_of(&run[range.clone()], |id| {
                        let reference = backend.shared_references().hv(id as usize)?;
                        let hamming: u32 = (hv.words().iter().zip(reference.words()))
                            .map(|(a, b)| (a ^ b).count_ones())
                            .sum();
                        let dot = dim as i64 - 2 * i64::from(hamming);
                        Some(dot as f64 / dim as f64)
                    })
                })
                .collect();
            assert!(expected.iter().any(Option::is_some));
            let hits = backend.best_in_ranges(&members, &run);
            assert_eq!(hits, expected, "{count} members");
        }
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn search_batch_checks_lengths() {
        let (_, backend, queries, _) = setup();
        let _ = best_hits(&backend, &queries, &[], 2);
    }

    /// The HyperOMS backend as every caller builds it cold.
    fn build_hyperoms(library: &SpectralLibrary) -> ExactBackend {
        let config = HyperOmsConfig {
            dim: 2048,
            threads: 4,
            ..HyperOmsConfig::default()
        };
        ExactBackend::build(library, config.exact_config(config.threads)).named("hyperoms")
    }

    #[test]
    fn finds_true_references() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 123);
        let backend = build_hyperoms(&workload.library);
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let hits = best_hits(&backend, &queries, &cands, 4);
        let mut correct = 0usize;
        let mut matchable = 0usize;
        for (binned, hit) in queries.iter().zip(&hits) {
            if let Some(true_id) = workload.truth[binned.id as usize].library_id() {
                matchable += 1;
                if hit.map(|h| h.reference) == Some(true_id) {
                    correct += 1;
                }
            }
        }
        let rate = correct as f64 / matchable as f64;
        assert!(rate > 0.65, "hit rate {rate} too low for binary HD");
    }

    #[test]
    fn uses_binary_ids() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 124);
        let backend = build_hyperoms(&workload.library);
        assert_eq!(backend.encoder().config().id_precision, IdPrecision::Bits1);
        assert_eq!(backend.report_name(), "hyperoms");
    }

    #[test]
    fn differs_from_multibit_accelerator_encoding() {
        // The Venn-diagram premise: independently seeded tools agree on
        // most but not all identifications.
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 125);
        let hyperoms = build_hyperoms(&workload.library);
        let exact = ExactBackend::build(
            &workload.library,
            ExactBackendConfig {
                encoder: EncoderConfig {
                    dim: 2048,
                    ..EncoderConfig::default()
                },
                threads: 4,
                ..ExactBackendConfig::default()
            },
        );
        let pre = Preprocessor::default();
        let (queries, _) = pre.run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let a = best_hits(&hyperoms, &queries, &cands, 4);
        let b = best_hits(&exact, &queries, &cands, 4);
        let agree = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.map(|h| h.reference) == y.map(|h| h.reference))
            .count();
        let rate = agree as f64 / a.len() as f64;
        assert!(rate > 0.6, "tools should mostly agree ({rate})");
        // Scores differ (different encoders), so they are genuinely
        // independent implementations.
        let score_identical = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| match (x, y) {
                (Some(h1), Some(h2)) => (h1.score - h2.score).abs() < 1e-12,
                _ => false,
            })
            .count();
        assert!(score_identical < a.len() / 2);
    }
}
