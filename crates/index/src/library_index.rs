//! The in-memory index, its builder, its reader, and incremental append.

use crate::format::{
    self, ImageLayout, IndexEntry, IndexError, IndexedBackendKind, MlcState, Shard, CHECKSUM_SEED,
    FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
use crate::sharded::{BoxedScorer, ShardedBackend};
use crate::streaming::{rram_encoder, ChunkEncoder};
use crate::wire::Reader;
use crate::xxhash::xxh64;
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
            kind: self.config.kind.clone(),
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
        Arc::clone(self.peptides.get_or_init(|| {
            let mut peptides = vec![String::new(); self.entry_count];
            for e in self.entries() {
                peptides[e.id as usize] = e.peptide.clone();
            }
            peptides.into()
        }))
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
        let mut assignment = vec![0u32; self.entry_count];
        for (s, shard) in self.shards.iter().enumerate() {
            for e in &shard.entries {
                assignment[e.id as usize] = s as u32;
            }
        }
        assignment
    }

    // -- residency --------------------------------------------------------

    /// Byte footprint of each shard's stored hypervector words
    /// (`present entries × ceil(dim / 64) × 8`), indexed by shard
    /// position. This is the unit the serve layer budgets residency in:
    /// it is what [`LibraryIndex::release_shard_words`] can hand back to
    /// the OS for a cold shard, and what a touched shard re-occupies.
    pub fn shard_word_bytes(&self) -> Vec<u64> {
        let hv_bytes = (self.dim().div_ceil(64) * 8) as u64;
        self.shards
            .iter()
            .map(|s| {
                let present = s
                    .entries
                    .iter()
                    .filter(|e| self.references.hv(e.id as usize).is_some())
                    .count();
                present as u64 * hv_bytes
            })
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
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in entries {
            if let Some(at) = references.offset_of(e.id as usize) {
                lo = lo.min(at);
                hi = hi.max(at + hv_bytes);
            }
        }
        if lo >= hi {
            return 0;
        }
        references
            .buffer()
            .release_range(lo as usize, (hi - lo) as usize)
    }

    // -- backend reconstruction ------------------------------------------

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
            return Err(IndexError::Invalid(format!(
                "index was built for the {:?} backend, not exact",
                self.kind.name()
            )));
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
            return Err(IndexError::Invalid(format!(
                "index was built for the {:?} backend, not rram",
                self.kind.name()
            )));
        };
        let Some(mlc) = &self.mlc else {
            return Err(IndexError::Invalid(
                "rram index is missing its MLC programming state".to_owned(),
            ));
        };
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
        let mut by_id = vec![(f64::NAN, false); self.entry_count];
        for shard in &self.shards {
            for e in &shard.entries {
                by_id[e.id as usize] = (e.neutral_mass, e.is_decoy);
            }
        }
        self.by_id = by_id;
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
            format::put_sketches(&self.sketch_index()),
            |id| references.hv(id as usize).is_some(),
            |id, w| {
                let hv = references.hv(id as usize).expect("flagged present");
                for &word in hv.words() {
                    w.u64(word);
                }
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
        let in_place = version >= 2;
        let dim = index.dim();
        let entry_count = index.entry_count;
        let jobs: Vec<(usize, SectionRange)> = sections.iter().copied().enumerate().collect();
        let decoded = par_map(&jobs, threads, |&(i, section)| {
            let payload = section.verify(bytes, &format!("shard {i}"))?;
            if in_place {
                format::get_shard_v2(payload, dim)
            } else {
                format::get_shard(payload, dim)
            }
        });
        let mut offsets = vec![u64::MAX; entry_count];
        for (shard, section) in decoded.into_iter().zip(&sections) {
            let (shard, relative) = shard?;
            for (id, at) in relative {
                let slot = offsets.get_mut(id as usize).ok_or_else(|| {
                    IndexError::Invalid(format!(
                        "entry id {id} outside the declared count {entry_count}"
                    ))
                })?;
                // Lift the payload-relative offset to an absolute one (a
                // v2+ payload starts 8-aligned and pads its word blocks
                // to 8, so these stay 8-aligned).
                *slot = (section.start + at) as u64;
            }
            index.shards.push(shard);
        }
        index.references = if in_place {
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
    /// shard ranges, MLC state present exactly for the RRAM kind, and a
    /// reference table the size of the declared entry count.
    fn validate(&self) -> Result<(), IndexError> {
        if self.entry_count == 0 || self.shards.is_empty() {
            return Err(IndexError::Invalid(
                "index holds no entries (the builder never produces one)".to_owned(),
            ));
        }
        if self.references.len() != self.entry_count {
            return Err(IndexError::Invalid(format!(
                "reference table holds {} slots for {} declared entries",
                self.references.len(),
                self.entry_count
            )));
        }
        let mut seen = vec![false; self.entry_count];
        let mut previous_hi = f64::NEG_INFINITY;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut previous = (f64::NEG_INFINITY, 0u32);
            for e in &shard.entries {
                let slot = seen.get_mut(e.id as usize).ok_or_else(|| {
                    IndexError::Invalid(format!(
                        "entry id {} outside the declared count {}",
                        e.id, self.entry_count
                    ))
                })?;
                if std::mem::replace(slot, true) {
                    return Err(IndexError::Invalid(format!("duplicate entry id {}", e.id)));
                }
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
        if seen.iter().any(|&present| !present) {
            return Err(IndexError::Invalid(
                "entry ids are not dense over the declared count".to_owned(),
            ));
        }
        match (&self.kind, &self.mlc) {
            (IndexedBackendKind::Rram(_), None) => Err(IndexError::Invalid(
                "rram index is missing its MLC section".to_owned(),
            )),
            (IndexedBackendKind::Exact(_) | IndexedBackendKind::HyperOms(_), Some(_)) => Err(
                IndexError::Invalid("software index carries an MLC section".to_owned()),
            ),
            _ => Ok(()),
        }
    }
}

/// Read the file at `path` into one aligned heap buffer.
fn read_file(path: &Path) -> std::io::Result<WordBuffer> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len() as usize;
    WordBuffer::from_reader(file, len)
}

/// One checksummed section's location inside an index file (the payload
/// is *not* yet verified — verification happens in parallel per shard).
#[derive(Debug, Clone, Copy)]
struct SectionRange {
    /// Absolute byte offset of the payload (8-aligned in v2 files).
    start: usize,
    /// Payload length in bytes.
    len: usize,
    /// The stored XXH64 trailer.
    hash: u64,
}

impl SectionRange {
    /// The payload slice, after verifying its checksum.
    fn verify<'a>(&self, bytes: &'a [u8], section: &str) -> Result<&'a [u8], IndexError> {
        let payload = &bytes[self.start..self.start + self.len];
        if xxh64(payload, CHECKSUM_SEED) != self.hash {
            return Err(IndexError::ChecksumMismatch {
                section: section.to_owned(),
            });
        }
        Ok(payload)
    }
}

/// Walk the container: magic, version, header, MLC and sketch sections
/// (each checksum-verified), and the location of every shard section —
/// everything established before shard payloads are touched, returned
/// as an index still without shards or references, the format version,
/// and where each shard lives. In v2 files the zero padding preceding
/// each section payload is consumed and must actually be zero — pad
/// bytes sit outside the checksummed payloads, so this is what keeps
/// "any flipped bit fails the load" true.
fn parse_sections(bytes: &[u8]) -> Result<(LibraryIndex, u32, Vec<SectionRange>), IndexError> {
    let mut r = Reader::new(bytes);
    let magic = r.raw(8, "magic")?;
    if magic != MAGIC {
        return Err(IndexError::BadMagic);
    }
    let version = r.u32("format_version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(IndexError::UnsupportedVersion { found: version });
    }
    let header_len = r.checked_len("header_len", 1)?;
    let header_bytes = r.raw(header_len, "header")?;
    let header_hash = r.u64("header_checksum")?;
    if xxh64(header_bytes, CHECKSUM_SEED) != header_hash {
        return Err(IndexError::ChecksumMismatch {
            section: "header".to_owned(),
        });
    }

    let mut h = Reader::new(header_bytes);
    let kind = format::get_kind(&mut h)?;
    let build_stats = format::get_build_stats(&mut h)?;
    let entries_per_shard = h.u64("header.entries_per_shard")? as usize;
    let entry_count = h.u64("header.entry_count")? as usize;
    // Every entry costs well over one byte on disk, so a declared
    // count beyond the file size is corruption — reject it before any
    // count-sized allocation (validate/rebuild_by_id) can run.
    if entry_count > bytes.len() {
        return Err(IndexError::Invalid(format!(
            "declared entry count {entry_count} exceeds the file size ({} bytes)",
            bytes.len()
        )));
    }
    let mlc_len = h.u64("header.mlc_len")? as usize;
    let sketch_len = if version >= 3 {
        h.u64("header.sketch_len")? as usize
    } else {
        0
    };
    let shard_count = h.checked_len("header.shard_count", 8)?;
    let mut shard_lens = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shard_lens.push(h.u64("header.shard_len")? as usize);
    }
    h.expect_end("header")?;
    if entries_per_shard == 0 {
        return Err(IndexError::Invalid("entries_per_shard is zero".to_owned()));
    }

    let skip_pad = |r: &mut Reader<'_>| -> Result<(), IndexError> {
        if version >= 2 {
            let pad = r.raw(format::pad_to_8(bytes.len() - r.remaining()), "section_pad")?;
            if pad.iter().any(|&b| b != 0) {
                return Err(IndexError::Invalid(
                    "nonzero alignment padding between sections".to_owned(),
                ));
            }
        }
        Ok(())
    };

    // One checksummed section ahead of the shards (labels: section
    // name, payload, checksum): nothing for length 0, else its payload.
    let mut section = |len: usize, what: [&'static str; 3]| {
        if len == 0 {
            return Ok(None);
        }
        skip_pad(&mut r)?;
        let payload = r.raw(len, what[1])?;
        if xxh64(payload, CHECKSUM_SEED) != r.u64(what[2])? {
            return Err(IndexError::ChecksumMismatch {
                section: what[0].to_owned(),
            });
        }
        Ok(Some(payload))
    };
    let mlc = section(mlc_len, ["mlc", "mlc_section", "mlc_checksum"])?
        .map(format::get_mlc_state)
        .transpose()?;
    kind.validate(mlc.as_ref())?;
    let sketches = OnceLock::new();
    if let Some(payload) = section(sketch_len, ["sketch", "sketch_section", "sketch_checksum"])? {
        let decoded = format::get_sketches(payload)?;
        let full_words = kind.dim().div_ceil(64);
        if decoded.len() != entry_count || decoded.full_words() != full_words {
            return Err(IndexError::Invalid(format!(
                "sketch section covers {} slots of {}-word hypervectors, the header \
                 declares {entry_count} entries of {full_words} words",
                decoded.len(),
                decoded.full_words(),
            )));
        }
        let _ = sketches.set(Arc::new(decoded));
    }

    let mut shards = Vec::with_capacity(shard_count);
    for &len in &shard_lens {
        skip_pad(&mut r)?;
        let start = bytes.len() - r.remaining();
        let _payload = r.raw(len, "shard_section")?;
        let hash = r.u64("shard_checksum")?;
        shards.push(SectionRange { start, len, hash });
    }
    r.expect_end("index file")?;

    let index = LibraryIndex {
        kind,
        entries_per_shard,
        entry_count,
        build_stats,
        mlc,
        shards: Vec::with_capacity(shard_count),
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
