//! The in-memory index, its builder, its reader, and incremental append.

use crate::format::{
    self, need, Frame, Get, Header, ImageLayout, IndexEntry, IndexError, IndexedBackendKind,
    MlcState, Put, Shard, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
use crate::sharded::{BoxedScorer, ShardedBackend};
use crate::streaming::{rram_encoder, ChunkEncoder};
use crate::wire::Reader;
use hdoms_core::accelerator::{BuildStats, OmsAccelerator, StatsFold};
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::WordBuffer;
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::pipeline::ReferenceCatalog;
use hdoms_oms::search::{ExactBackend, ExactBackendConfig, SharedReferences};
use hdoms_prefilter::{SketchIndex, SKETCH_WORDS};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Entries a cold build encodes per step: the transient per-entry
/// hypervectors of one step are packed into the flat table and dropped
/// before the next, so a build holds the encoded library once, not twice.
const ENCODE_CHUNK: usize = 8192;

/// How an index is built.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Which backend the stored hypervectors are encoded for.
    pub kind: IndexedBackendKind,
    /// Target entries per precursor-mass shard. Shards are cut at mass
    /// quantiles so every shard holds about this many references.
    pub entries_per_shard: usize,
    /// Worker threads for the build (encoding parallelises over library
    /// chunks).
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> IndexConfig {
        IndexConfig {
            kind: IndexedBackendKind::Exact(ExactBackendConfig::default()),
            entries_per_shard: 1024,
            threads: hdoms_hdc::parallel::default_threads(),
        }
    }
}

impl IndexConfig {
    /// The kind as an image records it. The configs' `threads` is a
    /// reserved slot there — every loader overrides it with its own
    /// worker count — so builders write the constant 1: an image must
    /// not depend on the core count of the machine that built it.
    pub(crate) fn recorded_kind(&self) -> IndexedBackendKind {
        let mut kind = self.kind.clone();
        match &mut kind {
            IndexedBackendKind::Exact(c) => c.threads = 1,
            IndexedBackendKind::HyperOms(c) => c.threads = 1,
            IndexedBackendKind::Rram(c) => c.threads = 1,
        }
        kind
    }
}

/// Builds a [`LibraryIndex`] from a spectral library.
///
/// The builder runs the configured backend's own per-id encoder, so the
/// persisted hypervectors are byte-identical to a cold build:
///
/// ```
/// use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7);
/// let mut config = IndexConfig {
///     entries_per_shard: 64,
///     threads: 2,
///     ..IndexConfig::default()
/// };
/// if let IndexedBackendKind::Exact(exact) = &mut config.kind {
///     exact.encoder.dim = 512;
/// }
/// let index = IndexBuilder::new(config).from_library(&workload.library);
/// assert_eq!(index.entry_count(), workload.library.len());
/// assert!(index.shards().len() > 1);
/// ```
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    config: IndexConfig,
}

impl IndexBuilder {
    /// A builder with `config`.
    pub fn new(config: IndexConfig) -> IndexBuilder {
        assert!(
            config.entries_per_shard > 0,
            "entries_per_shard must be positive"
        );
        IndexBuilder { config }
    }

    /// Encode the whole library once (in parallel, chunked over worker
    /// threads) and lay the result out as precursor-mass shards.
    ///
    /// The encoding path is byte-identical to a cold backend build: the
    /// builder runs the per-id chunk encoder the backend constructors
    /// are written over (the same one the streaming builder and appends
    /// run), so a warm-loaded search produces the same PSMs as a cold one.
    ///
    /// # Panics
    ///
    /// Panics on an empty library or invalid configuration (same
    /// contracts as the underlying backend constructors).
    pub fn from_library(&self, library: &SpectralLibrary) -> LibraryIndex {
        assert!(!library.is_empty(), "cannot index an empty library");
        let encoder = ChunkEncoder::new(&self.config.kind, None, self.config.threads);
        let mut references = SharedReferences::from(Vec::new());
        let mut stats = StatsFold::default();
        for chunk in library.entries().chunks(ENCODE_CHUNK) {
            let encoded = encoder.encode(chunk, references.len() as u32);
            references.append(encoded.into_iter().map(|slot| stats.push(slot)));
        }

        let mut entries: Vec<IndexEntry> = library
            .iter()
            .map(|e| IndexEntry::of(e.spectrum.id, e))
            .collect();
        entries.sort_by(IndexEntry::shard_order);

        let per_shard = self.config.entries_per_shard;
        let shards: Vec<Shard> = entries
            .chunks(per_shard)
            .map(|chunk| Shard {
                entries: chunk.to_vec(),
            })
            .collect();

        let mut index = LibraryIndex {
            kind: self.config.recorded_kind(),
            entries_per_shard: per_shard,
            entry_count: library.len(),
            build_stats: stats.onto(None),
            mlc: encoder.mlc_state(),
            shards,
            references,
            by_id: Vec::new(),
            peptides: OnceLock::new(),
            sketches: OnceLock::new(),
        };
        index.rebuild_by_id();
        index
    }
}

/// A persistent, sharded, encoded spectral library.
///
/// Holds everything a search needs — encoded reference hypervectors,
/// per-reference metadata (mass, charge, decoy flag, peptide), precursor
/// mass shard boundaries, and for the RRAM kind the MLC programming state
/// — so queries run **without re-encoding the library** and without the
/// raw library file.
///
/// The hypervectors live in one flat reference-counted table
/// ([`LibraryIndex::shared_references`]); the warm backend constructors
/// ([`LibraryIndex::to_exact_backend`] and friends) share that table
/// instead of cloning it, so a resident index plus any number of
/// backends reconstructed from it hold exactly **one** copy of the
/// encoded library. Cloning a `LibraryIndex` likewise shares the table.
///
/// Equality compares logical content: the peptide cache is derived
/// state and ignored, and reference tables with the same bits compare
/// equal wherever their words live.
///
/// The table has one representation (see [`SharedReferences`]): word
/// slices inside one buffer — a heap buffer after a cold build, a v1
/// load or an append, the file image itself (read or `mmap`ed) after a
/// v2+ load — so every backend above searches the same way either way.
#[derive(Debug, Clone)]
pub struct LibraryIndex {
    kind: IndexedBackendKind,
    entries_per_shard: usize,
    entry_count: usize,
    build_stats: BuildStats,
    mlc: Option<MlcState>,
    shards: Vec<Shard>,
    /// The flat `id → hypervector` table shared with warm backends.
    references: SharedReferences,
    /// Dense `id → (neutral mass, is_decoy)` side table, derived from the
    /// shards, so per-PSM catalog lookups are O(1) instead of scanning
    /// every shard (rebuilt on construction and append).
    by_id: Vec<(f64, bool)>,
    /// Dense `id → peptide` table, built lazily on the first
    /// [`LibraryIndex::peptides_by_id`] call and then shared with every
    /// caller (cleared on mutation) — loads stay free of per-peptide
    /// clones, and per-session serve calls cost one `Arc` bump.
    peptides: OnceLock<Arc<[String]>>,
    /// The prefilter's folded-hypervector sketch table, pre-populated on
    /// a v3 load and derived lazily otherwise (see
    /// [`LibraryIndex::sketch_index`]); cleared on mutation.
    sketches: OnceLock<Arc<SketchIndex>>,
}

impl PartialEq for LibraryIndex {
    fn eq(&self, other: &LibraryIndex) -> bool {
        self.kind == other.kind
            && self.entries_per_shard == other.entries_per_shard
            && self.entry_count == other.entry_count
            && self.build_stats == other.build_stats
            && self.mlc == other.mlc
            && self.shards == other.shards
            && self.references == other.references
        // `by_id`, `peptides` and `sketches` are derived state.
    }
}

impl LibraryIndex {
    /// The backend kind the index was built for.
    pub fn kind(&self) -> &IndexedBackendKind {
        &self.kind
    }

    /// Library-encoding statistics captured at build time.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Number of indexed references.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// The precursor-mass shards, ascending in mass.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The persisted MLC programming state (RRAM kind only).
    pub fn mlc_state(&self) -> Option<&MlcState> {
        self.mlc.as_ref()
    }

    /// Hypervector dimension of the stored references.
    pub fn dim(&self) -> usize {
        self.kind.dim()
    }

    /// Iterate all entries in shard order (ascending mass).
    pub fn entries(&self) -> impl Iterator<Item = &IndexEntry> {
        self.shards.iter().flat_map(|s| s.entries.iter())
    }

    /// Peptide sequences by dense reference id (for PSM tables without
    /// the library file). The table is built once per index mutation and
    /// shared — calling this per session (as the serve layer does) costs
    /// one `Arc` bump, not an allocation per peptide.
    pub fn peptides_by_id(&self) -> Arc<[String]> {
        let peptides = || self.dense(String::new(), |_, e| e.peptide.clone()).into();
        Arc::clone(self.peptides.get_or_init(peptides))
    }

    /// The shared handle to the flat reference table. Warm backends built
    /// from this index hold clones of this handle — compare with
    /// [`SharedReferences::ptr_eq`] to verify storage is shared rather
    /// than copied.
    pub fn shared_references(&self) -> &SharedReferences {
        &self.references
    }

    /// The prefilter's folded-hypervector sketch table over this index's
    /// references (see [`hdoms_prefilter::SketchIndex`]). Pre-populated
    /// when a v3 file carried the persisted sketch section; derived on
    /// the fly (once, then shared) for cold builds and v1/v2 loads — the
    /// derivation samples the same words [`IndexBuilder`] persists, so
    /// the two paths produce identical sketches.
    pub fn sketch_index(&self) -> Arc<SketchIndex> {
        Arc::clone(self.sketches.get_or_init(|| {
            Arc::new(SketchIndex::build(
                self.dim(),
                SKETCH_WORDS,
                self.references.iter().map(|hv| hv.map(|h| h.words())),
            ))
        }))
    }

    /// Shard assignment by dense id (`shard_of[id]` = shard position).
    pub fn shard_assignment(&self) -> Vec<u32> {
        self.dense(0, |shard, _| shard as u32)
    }

    /// A dense `id → of(shard position, entry)` table over every entry
    /// (`empty` where the shards hold no such id).
    fn dense<T: Clone>(&self, empty: T, of: impl Fn(usize, &IndexEntry) -> T) -> Vec<T> {
        let mut table = vec![empty; self.entry_count];
        for (s, shard) in self.shards.iter().enumerate() {
            for e in &shard.entries {
                table[e.id as usize] = of(s, e);
            }
        }
        table
    }

    // -- residency --------------------------------------------------------

    /// Byte footprint of each shard's stored hypervector words
    /// (`present entries × ceil(dim / 64) × 8`), indexed by shard
    /// position. This is the unit the serve layer budgets residency in:
    /// it is what [`LibraryIndex::release_shard_words`] can hand back to
    /// the OS for a cold shard, and what a touched shard re-occupies.
    pub fn shard_word_bytes(&self) -> Vec<u64> {
        let hv_bytes = self.references.hv_bytes() as u64;
        let stored = |e: &&IndexEntry| self.references.hv(e.id as usize).is_some();
        (self.shards.iter())
            .map(|s| s.entries.iter().filter(stored).count() as u64 * hv_bytes)
            .collect()
    }

    /// Release the resident pages holding `shard`'s hypervector words
    /// back to the OS (file-mapped indexes only — a heap buffer has no
    /// backing file to refault from). Returns the bytes actually
    /// released: 0 for heap tables, unknown shard positions, or word
    /// spans too small to cover one whole page. Released words refault
    /// from the backing file on the next touch, so a later search over
    /// the shard scores identically — it just pays the page faults to
    /// reload.
    pub fn release_shard_words(&self, shard: usize) -> usize {
        let references = &self.references;
        let Some(entries) = self.shards.get(shard).map(|s| &s.entries) else {
            return 0;
        };
        if !references.is_mapped() {
            return 0;
        }
        // A v2+ shard section lays its word blocks out contiguously, so
        // the shard's words occupy exactly [min offset, max offset +
        // hv_bytes) of the mapped file.
        let hv_bytes = references.hv_bytes() as u64;
        let blocks = (entries.iter()).filter_map(|e| references.offset_of(e.id as usize));
        let (lo, hi) = blocks.fold((u64::MAX, 0), |(lo, hi), at| {
            (lo.min(at), hi.max(at + hv_bytes))
        });
        if lo >= hi {
            return 0;
        }
        references
            .buffer()
            .release_range(lo as usize, (hi - lo) as usize)
    }

    // -- backend reconstruction ------------------------------------------

    fn built_for_another_kind(&self, wanted: &str) -> IndexError {
        let built = self.kind.name();
        IndexError::Invalid(format!(
            "index was built for the {built:?} backend, not {wanted}"
        ))
    }

    /// Reconstruct the software-exact backend without re-encoding.
    ///
    /// The returned backend **shares** this index's reference table — no
    /// hypervector words are copied, so index + backend together hold one
    /// copy of the encoded library.
    ///
    /// # Errors
    ///
    /// Fails with [`IndexError::Invalid`] when the index was built for a
    /// different backend kind.
    pub fn to_exact_backend(&self, threads: usize) -> Result<ExactBackend, IndexError> {
        let IndexedBackendKind::Exact(config) = &self.kind else {
            return Err(self.built_for_another_kind("exact"));
        };
        let mut config = *config;
        config.threads = threads;
        Ok(ExactBackend::from_shared(config, self.references.clone()))
    }

    /// Reconstruct the MLC-RRAM accelerator without re-encoding the
    /// library: the ID item memory is restored from the persisted
    /// differential weight pairs and the stored reference hypervectors
    /// become the search weights directly (shared with this index, not
    /// cloned).
    ///
    /// # Errors
    ///
    /// Fails with [`IndexError::Invalid`] when the index was built for a
    /// different backend kind or the MLC section is missing.
    pub fn to_accelerator(&self, threads: usize) -> Result<OmsAccelerator, IndexError> {
        let IndexedBackendKind::Rram(config) = &self.kind else {
            return Err(self.built_for_another_kind("rram"));
        };
        let mlc = self.mlc.as_ref().ok_or_else(|| {
            IndexError::Invalid("rram index is missing its MLC programming state".to_owned())
        })?;
        let mut config = *config;
        config.threads = threads;
        Ok(OmsAccelerator::from_parts(
            config,
            rram_encoder(&config, Some(mlc)),
            self.references.clone(),
            self.build_stats,
        ))
    }

    /// The sharded, shard-parallel search backend for this index's kind.
    ///
    /// Scores are identical to the corresponding flat backend — sharding
    /// only changes iteration order and parallel granularity, and every
    /// per-(query, reference) evaluation is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates the kind mismatch errors of the reconstruction methods.
    pub fn sharded_backend(&self, threads: usize) -> Result<ShardedBackend, IndexError> {
        let scorer: BoxedScorer = match &self.kind {
            IndexedBackendKind::Exact(_) => Box::new(self.to_exact_backend(threads)?),
            // HyperOMS is the exact scan under its binary-ID
            // configuration and its own report name.
            IndexedBackendKind::HyperOms(config) => Box::new(
                ExactBackend::from_shared(config.exact_config(threads), self.references.clone())
                    .named(self.kind.name()),
            ),
            IndexedBackendKind::Rram(_) => Box::new(self.to_accelerator(threads)?),
        };
        Ok(ShardedBackend::new(
            scorer,
            self.shard_assignment(),
            self.shards.len(),
            threads,
        ))
    }

    // -- incremental append ----------------------------------------------

    /// Append new library spectra to the index, encoding **only** the new
    /// entries. New entries receive the next dense ids (`entry_count..`),
    /// exactly as if the library had contained them at build time, so an
    /// appended index searches identically to a cold rebuild over the
    /// concatenated library.
    ///
    /// Entries land in the shard whose mass range covers them; a shard
    /// grown past twice the configured target splits in half.
    ///
    /// # Panics
    ///
    /// Panics on invalid spectra (same contracts as the build path).
    pub fn append_entries(&mut self, new_entries: &[LibraryEntry], threads: usize) {
        if new_entries.is_empty() {
            return;
        }
        let first_id = self.entry_count as u32;
        let encoded =
            ChunkEncoder::new(&self.kind, self.mlc.as_ref(), threads).encode(new_entries, first_id);

        // New ids are `entry_count..`, so the flat table simply extends
        // (in place when this index alone holds a heap buffer; see
        // [`SharedReferences::append`] for the repack otherwise).
        let mut stats = StatsFold::default();
        self.references
            .append(encoded.into_iter().map(|slot| stats.push(slot)));
        self.build_stats = stats.onto(Some(&self.build_stats));
        for (offset, entry) in new_entries.iter().enumerate() {
            self.insert_entry(IndexEntry::of(first_id + offset as u32, entry));
        }
        self.entry_count += new_entries.len();
        self.rebuild_by_id();
        // The sketch table covers the old slots only — rebuild on the
        // next prefiltered search (or persist).
        self.sketches = OnceLock::new();
    }

    /// Recompute the dense `id → (mass, decoy)` side table from the
    /// shards and invalidate the lazy peptide cache.
    fn rebuild_by_id(&mut self) {
        self.by_id = self.dense((f64::NAN, false), |_, e| (e.neutral_mass, e.is_decoy));
        self.peptides = OnceLock::new();
    }

    /// Place one entry into the shard covering its mass, splitting the
    /// shard if it has grown past twice the target size.
    fn insert_entry(&mut self, entry: IndexEntry) {
        // The shard whose upper bound is the first ≥ the entry's mass;
        // masses above every shard land in the last shard.
        let position = self
            .shards
            .partition_point(|s| s.mass_hi().is_some_and(|hi| hi < entry.neutral_mass))
            .min(self.shards.len().saturating_sub(1));
        let shard = &mut self.shards[position];
        let at = shard
            .entries
            .partition_point(|e| (e.neutral_mass, e.id) < (entry.neutral_mass, entry.id));
        shard.entries.insert(at, entry);
        if shard.entries.len() > 2 * self.entries_per_shard {
            let tail = shard.entries.split_off(shard.entries.len() / 2);
            self.shards.insert(position + 1, Shard { entries: tail });
        }
    }

    // -- persistence -----------------------------------------------------

    /// Serialise to the current `HDX` byte format (see [`crate::format`]):
    /// shard hypervector words laid out 8-aligned for in-place mapped
    /// loads, plus the persisted prefilter sketch section. Older
    /// versions are decode-only.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)
            .expect("writing to memory cannot fail");
        bytes
    }

    /// Write the index to `path` (atomically: a temp file is renamed into
    /// place so a crashed write never leaves a half-index behind, and a
    /// failed one removes its temp file). The image streams out shard by
    /// shard — the write holds one shard's payload, never a second copy
    /// of the encoded library.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> Result<(), IndexError> {
        format::write_atomically(path, |out| self.write_to(out)).map(drop)
    }

    /// Stream the image into `out` through the one container writer
    /// ([`ImageLayout::write`]), the words coming out of the reference
    /// table; returns the image length.
    pub(crate) fn write_to<W: Write>(&self, out: W) -> Result<u64, IndexError> {
        let references = &self.references;
        ImageLayout {
            kind: &self.kind,
            stats: &self.build_stats,
            entries_per_shard: self.entries_per_shard,
            mlc: self.mlc.as_ref(),
            shards: self.shards.iter().map(|s| &s.entries[..]).collect(),
        }
        .write(
            out,
            format::encode(&*self.sketch_index()),
            |id| references.hv(id as usize).is_some(),
            |id, w| {
                let hv = references.hv(id as usize).expect("flagged present");
                hv.words().iter().for_each(|word| word.put(w));
                Ok(())
            },
        )
    }

    /// Decode from bytes: [`LibraryIndex::from_buffer`] over a heap
    /// buffer holding a copy of `bytes` (the one copy — the references
    /// are then searched inside it, not materialised out of it).
    ///
    /// # Errors
    ///
    /// Any structural, checksum or semantic problem aborts the load with
    /// a descriptive [`IndexError`] — a corrupted index never half-loads.
    pub fn from_bytes(bytes: &[u8], threads: usize) -> Result<LibraryIndex, IndexError> {
        LibraryIndex::from_buffer(WordBuffer::from_bytes(bytes), threads)
    }

    /// The one loader: verify magic, version and every section checksum
    /// (shards in parallel over `threads`), then search the index
    /// straight out of `buffer` — a whole `.hdx` image, on the heap or
    /// `mmap`ed. For a v2+ image the reference table becomes offsets
    /// into `buffer`: no per-reference hypervector is materialised, so
    /// load time and resident memory stop scaling with the hypervector
    /// payload. Only a v1 image, whose words sit unaligned inside the
    /// entry records, is repacked once into a fresh flat heap buffer.
    ///
    /// # Errors
    ///
    /// Any structural, checksum or semantic problem aborts the load with
    /// a descriptive [`IndexError`] — a corrupted index never half-loads.
    pub fn from_buffer(buffer: WordBuffer, threads: usize) -> Result<LibraryIndex, IndexError> {
        let bytes = buffer.as_bytes();
        let (mut index, version, sections) = parse_sections(bytes)?;
        let dim = index.dim();
        let entry_count = index.entry_count;
        let jobs: Vec<(usize, Frame)> = sections.iter().copied().enumerate().collect();
        let decoded = par_map(&jobs, threads, |&(i, section)| {
            let payload = section.verify(bytes, &format!("shard {i}"))?;
            format::decode_shard(payload, dim, version)
        });
        let mut offsets = vec![u64::MAX; entry_count];
        for (shard, section) in decoded.into_iter().zip(&sections) {
            let (shard, relative) = shard?;
            for (id, at) in relative {
                need((id as usize) < entry_count, || {
                    format!("entry id {id} outside the declared count {entry_count}")
                })?;
                // Lift the payload-relative offset to an absolute one (a
                // v2+ payload starts 8-aligned and pads its word blocks
                // to 8, so these stay 8-aligned).
                offsets[id as usize] = (section.start + at) as u64;
            }
            index.shards.push(shard);
        }
        index.references = if version >= 2 {
            SharedReferences::new(buffer.clone(), dim, offsets)
        } else {
            let hv_bytes = dim.div_ceil(64) * 8;
            let tail_mask = u64::MAX >> (hv_bytes * 8 - dim);
            let mut words = Vec::with_capacity(entry_count * hv_bytes / 8);
            for offset in offsets.iter_mut().filter(|offset| **offset != u64::MAX) {
                let block = &bytes[*offset as usize..*offset as usize + hv_bytes];
                *offset = (words.len() * 8) as u64;
                words.extend(
                    block
                        .chunks_exact(8)
                        .map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunk"))),
                );
                *words.last_mut().expect("dim is positive") &= tail_mask;
            }
            SharedReferences::new(WordBuffer::from(words), dim, offsets)
        };
        index.validate()?;
        index.rebuild_by_id();
        Ok(index)
    }

    /// Load and validate an index from `path` over a **heap read**: the
    /// file is read in one streamed pass into one aligned heap buffer
    /// and handed to [`LibraryIndex::from_buffer`] — the same loader
    /// [`LibraryIndex::open_mapped`] runs over an `mmap` of the file, so
    /// the references are searched inside that buffer, not materialised
    /// out of it.
    ///
    /// # Errors
    ///
    /// Filesystem, format, checksum and semantic failures all surface as
    /// [`IndexError`].
    pub fn open(path: &Path, threads: usize) -> Result<LibraryIndex, IndexError> {
        LibraryIndex::from_buffer(read_file(path)?, threads)
    }

    /// Open `path` for **in-place search**: the file is `mmap`ed (with
    /// the `mmap` feature; read once into a single aligned heap buffer
    /// otherwise, exactly as [`LibraryIndex::open`] does) and handed to
    /// [`LibraryIndex::from_buffer`], so cold shards' pages can be
    /// released and refault from it.
    ///
    /// # Errors
    ///
    /// Filesystem, format, checksum and semantic failures all surface as
    /// [`IndexError`].
    pub fn open_mapped(path: &Path, threads: usize) -> Result<LibraryIndex, IndexError> {
        #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
        let buffer = WordBuffer::map_file(path)?;
        #[cfg(not(all(unix, target_pointer_width = "64", feature = "mmap")))]
        let buffer = read_file(path)?;
        LibraryIndex::from_buffer(buffer, threads)
    }

    /// Structural sanity: dense unique ids, mass-sorted shards, monotone
    /// shard ranges, and a reference table the size of the declared
    /// entry count.
    fn validate(&self) -> Result<(), IndexError> {
        let count = self.entry_count;
        need(count > 0 && !self.shards.is_empty(), || {
            "index holds no entries (the builder never produces one)"
        })?;
        need(self.references.len() == count, || {
            let slots = self.references.len();
            format!("reference table holds {slots} slots for {count} declared entries")
        })?;
        let mut seen = vec![false; self.entry_count];
        let mut previous_hi = f64::NEG_INFINITY;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut previous = (f64::NEG_INFINITY, 0u32);
            for e in &shard.entries {
                let id = e.id;
                need((id as usize) < count, || {
                    format!("entry id {id} outside the declared count {count}")
                })?;
                let seen_before = std::mem::replace(&mut seen[id as usize], true);
                need(!seen_before, || format!("duplicate entry id {id}"))?;
                if (e.neutral_mass, e.id) < previous {
                    return Err(IndexError::Invalid(format!(
                        "shard {s} is not sorted by (mass, id) at entry {}",
                        e.id
                    )));
                }
                previous = (e.neutral_mass, e.id);
            }
            if let (Some(lo), Some(hi)) = (shard.mass_lo(), shard.mass_hi()) {
                if lo < previous_hi {
                    return Err(IndexError::Invalid(format!(
                        "shard {s} mass range overlaps its predecessor"
                    )));
                }
                previous_hi = hi;
            }
        }
        need(seen.iter().all(|&present| present), || {
            "entry ids are not dense over the declared count"
        })
    }
}

/// Read the file at `path` into one aligned heap buffer.
fn read_file(path: &Path) -> std::io::Result<WordBuffer> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len() as usize;
    WordBuffer::from_reader(file, len)
}

/// Walk the container: magic, version, header, MLC and sketch sections
/// (each checksum-verified), and the [`Frame`] of every shard section —
/// everything established before shard payloads are touched, returned
/// as an index still without shards or references, the format version,
/// and where each shard lies.
fn parse_sections(bytes: &[u8]) -> Result<(LibraryIndex, u32, Vec<Frame>), IndexError> {
    let mut r = Reader::new(bytes);
    if r.raw(8, "magic")? != MAGIC {
        return Err(IndexError::BadMagic);
    }
    let version = u32::get(&mut r, "format_version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(IndexError::UnsupportedVersion { found: version });
    }
    let header_len = r.checked_len("header_len", 1)?;
    let header = Frame::locate(&mut r, bytes.len(), false, header_len, "header")?;
    let header: Header = format::decode(header.verify(bytes, "header")?, "header", version)?;
    // Every entry costs well over one byte on disk, so a declared
    // count beyond the file size is corruption — reject it before any
    // count-sized allocation (validate/rebuild_by_id) can run.
    let (count, size) = (header.entry_count, bytes.len());
    need(count <= size, || {
        format!("declared entry count {count} exceeds the file size ({size} bytes)")
    })?;
    need(header.entries_per_shard > 0, || "entries_per_shard is zero")?;

    // One section ahead of the shards: nothing for length 0, else its
    // verified payload.
    let padded = version >= 2;
    let mut section = |len: usize, name: &'static str| match len {
        0 => Ok(None),
        _ => Frame::locate(&mut r, bytes.len(), padded, len, name)?
            .verify(bytes, name)
            .map(Some),
    };
    let mlc = section(header.mlc_len, "mlc")?
        .map(|payload| format::decode::<MlcState>(payload, "mlc_state", version))
        .transpose()?;
    header.kind.validate(mlc.as_ref())?;
    let sketches = OnceLock::new();
    if let Some(payload) = section(header.sketch_len, "sketch")? {
        let decoded: SketchIndex = format::decode(payload, "sketch", version)?;
        let full_words = header.kind.dim().div_ceil(64);
        let (slots, words) = (decoded.len(), decoded.full_words());
        need(slots == count && words == full_words, || {
            format!(
                "sketch section covers {slots} slots of {words}-word hypervectors, the header \
                 declares {count} entries of {full_words} words"
            )
        })?;
        let _ = sketches.set(Arc::new(decoded));
    }
    let shards = (header.shard_lens.iter())
        .map(|&len| Frame::locate(&mut r, bytes.len(), padded, len, "shard"))
        .collect::<Result<Vec<Frame>, IndexError>>()?;
    r.expect_end("index file")?;

    let index = LibraryIndex {
        kind: header.kind,
        entries_per_shard: header.entries_per_shard,
        entry_count: header.entry_count,
        build_stats: header.stats,
        mlc,
        shards: Vec::with_capacity(shards.len()),
        references: SharedReferences::from(Vec::new()),
        by_id: Vec::new(),
        peptides: OnceLock::new(),
        sketches,
    };
    Ok((index, version, shards))
}

impl ReferenceCatalog for LibraryIndex {
    fn reference_count(&self) -> usize {
        self.entry_count
    }

    fn reference_mass(&self, id: u32) -> Option<f64> {
        self.by_id.get(id as usize).map(|&(mass, _)| mass)
    }

    fn reference_is_decoy(&self, id: u32) -> Option<bool> {
        self.by_id.get(id as usize).map(|&(_, decoy)| decoy)
    }

    fn candidate_index(&self) -> CandidateIndex {
        CandidateIndex::from_masses(self.entries().map(|e| (e.neutral_mass, e.id)))
    }
}
