//! The in-memory index: its build, its reader, and incremental append.
//! Each verb has one door. A build is an append onto an empty index
//! ([`LibraryIndex::build`]); an append ([`LibraryIndex::append_entries`])
//! fills the reference table through the one bounded intake
//! ([`SharedReferences::encode_in`]); a file opens through
//! [`LibraryIndex::open_mapped`], and bytes already in hand through
//! [`LibraryIndex::from_bytes`] / [`LibraryIndex::from_buffer`]. The
//! prefilter's sketch is derived here from the references
//! ([`LibraryIndex::sketch_index`]); no image stores it.

use crate::format::{
    self, need, Frame, Get, Header, ImageLayout, IndexError, IndexedBackendKind, MlcState, Put,
    FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
use crate::sharded::ShardedBackend;
use crate::wire::Reader;
use hdoms_core::accelerator::{AcceleratorConfig, BuildStats, OmsAccelerator, StatsFold};
use hdoms_core::encode::InMemoryEncoder;
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::{BinaryHypervector, WordBuffer};
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::preprocess::{BinnedSpectrum, Preprocessor};
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::pipeline::{ReferenceCatalog, ReferenceMeta};
use hdoms_oms::search::{ExactBackend, ExactBackendConfig, ReferenceEncoder, SharedReferences};
use hdoms_prefilter::{SketchIndex, SKETCH_WORDS};
use std::cmp::Ordering;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};

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

/// Take `entries` in under the next dense ids: their rows into
/// `catalog`, their `(mass, id)` pairs returned for the table — every
/// build path (cold, streaming, append) runs this.
pub(crate) fn take_in(catalog: &mut ReferenceMeta, entries: &[LibraryEntry]) -> Vec<(f64, u32)> {
    let first = catalog.reference_count() as u32;
    catalog.extend(entries);
    let ids = first..;
    ids.zip(entries)
        .map(|(id, e)| (e.spectrum.neutral_mass(), id))
        .collect()
}

/// The global order of a `(mass, id)` table: by mass, ties by id.
fn by_mass_then_id(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Sort `table` into the global `(mass, id)` order and cut it into
/// shards of `per_shard` entries: the shard bounds (shard `s` is
/// `table[bounds[s]..bounds[s + 1]]`). Every build path — cold,
/// streaming, append — lays its index out here and nowhere else. Ids are
/// unique, so the unstable sort gives the one order without scratch
/// space; over a table already in it (an append's merge) it is one pass.
pub(crate) fn cut(table: &mut [(f64, u32)], per_shard: usize) -> Vec<usize> {
    table.sort_unstable_by(by_mass_then_id);
    let len = table.len();
    (0..len).step_by(per_shard).chain([len]).collect()
}

/// Merge `added`, whose ids all exceed the table's, into the sorted
/// `table` in place: `added` is sorted on its own and merged in from the
/// back, so the table grows by `added.len()` and is never copied. An old
/// entry goes ahead of a new one of equal mass, as in the `(mass, id)`
/// order.
pub(crate) fn merge_in(table: &mut Vec<(f64, u32)>, mut added: Vec<(f64, u32)>) {
    added.sort_unstable_by(by_mass_then_id);
    let mut old = table.len();
    table.resize(old + added.len(), (0.0, 0));
    let mut end = table.len();
    while let Some(&last) = added.last() {
        end -= 1;
        if old > 0 && by_mass_then_id(&table[old - 1], &last).is_gt() {
            table[end] = table[old - 1];
            old -= 1;
        } else {
            table[end] = last;
            added.pop();
        }
    }
}

/// The shards of a table cut at `bounds`: its runs, in order.
pub(crate) fn runs<'a>(
    table: &'a [(f64, u32)],
    bounds: &'a [usize],
) -> impl ExactSizeIterator<Item = &'a [(f64, u32)]> {
    bounds.windows(2).map(move |run| &table[run[0]..run[1]])
}

/// The one backend of an index's kind: every build path — cold,
/// streaming, append — encodes the library through it, and over the
/// finished table it is the scorer the index hands out. Built once per
/// index (clones share it); item memories and programmed weights sit
/// behind `Arc`s, so a handle encodes queries with the very memory
/// that encoded the references.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one instance per index, never collected
pub(crate) enum KindBackend {
    /// The exact scan, here over no references — for the HyperOMS kind
    /// under its binary-ID configuration and its own report name.
    Software(ExactBackend),
    /// The accelerator's in-memory encoder; the search half is derived
    /// from the configuration when a scorer is handed out.
    Rram(AcceleratorConfig, InMemoryEncoder),
}

impl KindBackend {
    /// The kind → backend mapping, spelled here and nowhere else. With
    /// `mlc` — an index's persisted programming state — the in-memory
    /// encoder is restored over those very weights (bit-identical to the
    /// one persisted); without, it is freshly programmed from the seed,
    /// on `threads` workers (the same weights at any count).
    pub(crate) fn new(
        kind: &IndexedBackendKind,
        mlc: Option<&MlcState>,
        threads: usize,
    ) -> KindBackend {
        let software = |config: ExactBackendConfig| {
            ExactBackend::from_shared(config, SharedReferences::from(Vec::new()))
        };
        match kind {
            IndexedBackendKind::Exact(config) => KindBackend::Software(software(*config)),
            IndexedBackendKind::HyperOms(config) => {
                KindBackend::Software(software(config.exact_config(1)).named(kind.name()))
            }
            IndexedBackendKind::Rram(config) => {
                let (encoder, crossbar, seed) = (config.encoder, config.crossbar, config.seed);
                let in_memory = match mlc {
                    Some(mlc) => InMemoryEncoder::from_programmed(
                        encoder,
                        crossbar,
                        Arc::clone(&mlc.w_eff),
                        mlc.sigma_delta,
                        seed,
                    ),
                    None => InMemoryEncoder::new(encoder, crossbar, seed, threads),
                };
                KindBackend::Rram(*config, in_memory)
            }
        }
    }

    /// The MLC programming state an RRAM-kind image persists: a handle
    /// on the encoder's own weights, not a copy.
    pub(crate) fn mlc_state(&self) -> Option<MlcState> {
        let KindBackend::Rram(_, encoder) = self else {
            return None;
        };
        Some(MlcState {
            w_eff: Arc::clone(encoder.programmed_weights()),
            sigma_delta: encoder.sigma_delta(),
        })
    }
}

/// The library side: every build path encodes through this.
impl ReferenceEncoder for KindBackend {
    fn dim(&self) -> usize {
        match self {
            KindBackend::Software(backend) => backend.dim(),
            KindBackend::Rram(_, encoder) => encoder.dim(),
        }
    }

    fn encode_reference(&self, binned: &BinnedSpectrum) -> (BinaryHypervector, f64) {
        match self {
            KindBackend::Software(backend) => backend.encode_reference(binned),
            KindBackend::Rram(_, encoder) => encoder.encode_reference(binned),
        }
    }
}

/// A persistent, sharded, encoded spectral library.
///
/// Holds everything a search needs — encoded reference hypervectors,
/// per-reference metadata (mass, charge, decoy flag, peptide), precursor
/// mass shard boundaries, and for the RRAM kind the MLC programming state
/// — so queries run **without re-encoding the library** and without the
/// raw library file. Each per-entry fact has one home — the per-id
/// catalog ([`LibraryIndex::catalog`]) — and the shards are runs of one
/// mass-ordered `(mass, id)` table: the candidate index every engine over
/// the index shares ([`ReferenceCatalog::candidate_index`]).
///
/// The hypervectors live in one flat reference-counted table
/// ([`LibraryIndex::shared_references`]); the warm backend constructors
/// ([`LibraryIndex::to_exact_backend`] and friends) share that table
/// instead of cloning it, so a resident index plus any number of
/// backends reconstructed from it hold exactly **one** copy of the
/// encoded library. Cloning a `LibraryIndex` likewise shares the table.
///
/// Equality compares logical content: the backend and the sketch cache
/// are derived state and ignored, and reference tables with the same
/// bits compare equal wherever their words live.
///
/// The table has one representation (see [`SharedReferences`]): word
/// slices inside one buffer — a heap buffer after a cold build, a v1
/// load or an append, the file image itself (read or `mmap`ed) after a
/// v2+ load — so every backend above searches the same way either way.
#[derive(Debug, Clone)]
pub struct LibraryIndex {
    kind: IndexedBackendKind,
    entries_per_shard: usize,
    build_stats: BuildStats,
    mlc: Option<MlcState>,
    /// Every entry's `(mass, id)`, mass never decreasing, `(mass, id)`
    /// ascending within a shard: the candidate index, shared with every
    /// engine over this index.
    table: CandidateIndex,
    /// Shard `s` is `table[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
    /// The flat `id → hypervector` table shared with warm backends.
    references: SharedReferences,
    /// `id → (neutral mass, is_decoy, peptide, precursor m/z and
    /// charge)`, shared with every engine over this index.
    catalog: Arc<ReferenceMeta>,
    /// The kind's one backend, built on first use and shared with this
    /// index's clones.
    backend: Arc<OnceLock<KindBackend>>,
    /// The prefilter's folded-hypervector sketch table, derived from the
    /// references on first use (see [`LibraryIndex::sketch_index`]);
    /// cleared on mutation.
    sketches: OnceLock<Arc<SketchIndex>>,
}

impl PartialEq for LibraryIndex {
    fn eq(&self, other: &LibraryIndex) -> bool {
        self.kind == other.kind
            && self.entries_per_shard == other.entries_per_shard
            && self.build_stats == other.build_stats
            && self.mlc == other.mlc
            && self.table == other.table
            && self.bounds == other.bounds
            && self.catalog == other.catalog
            && self.references == other.references
        // `backend` and `sketches` are derived state.
    }
}

impl LibraryIndex {
    /// Build an index over `library`: an empty index of `config`'s kind,
    /// its backend programmed on `config.threads` workers, filled by
    /// [`LibraryIndex::append_entries`] — a cold build is an append onto
    /// nothing. It encodes through the kind's one backend, as the
    /// streaming builder does, so its image is byte-identical to theirs
    /// and a warm-loaded search produces the same PSMs as a cold one
    /// (the crate docs show the workflow).
    ///
    /// # Panics
    ///
    /// Panics on an empty library, on `entries_per_shard == 0`, or on an
    /// invalid configuration (same contracts as the backend
    /// constructors).
    pub fn build(library: &SpectralLibrary, config: IndexConfig) -> LibraryIndex {
        assert!(
            config.entries_per_shard > 0,
            "entries_per_shard must be positive"
        );
        assert!(!library.is_empty(), "cannot index an empty library");
        let kind = config.recorded_kind();
        let backend = KindBackend::new(&kind, None, config.threads);
        let (stats, mlc) = (BuildStats::default(), backend.mlc_state());
        let mut index = LibraryIndex::empty(kind, config.entries_per_shard, stats, mlc);
        index.backend = Arc::new(OnceLock::from(backend));
        index.append_entries(library.entries(), config.threads);
        index
    }

    /// An index without entries: what a build appends onto and a load
    /// decodes into.
    fn empty(
        kind: IndexedBackendKind,
        entries_per_shard: usize,
        build_stats: BuildStats,
        mlc: Option<MlcState>,
    ) -> LibraryIndex {
        LibraryIndex {
            kind,
            entries_per_shard,
            build_stats,
            mlc,
            table: CandidateIndex::from_sorted(Vec::new()),
            bounds: vec![0],
            references: SharedReferences::from(Vec::new()),
            catalog: Arc::default(),
            backend: Arc::default(),
            sketches: OnceLock::new(),
        }
    }

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
        self.table.pairs().len()
    }

    /// The precursor-mass shards, ascending in mass: runs of the
    /// candidate index's `(mass, id)` table, each sorted by `(mass, id)`.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &[(f64, u32)]> {
        runs(self.table.pairs(), &self.bounds)
    }

    /// The persisted MLC programming state (RRAM kind only).
    pub fn mlc_state(&self) -> Option<&MlcState> {
        self.mlc.as_ref()
    }

    /// Hypervector dimension of the stored references.
    pub fn dim(&self) -> usize {
        self.kind.dim()
    }

    /// The dense per-id catalog (mass, decoy flag, peptide) — the table
    /// an engine over this index reads, shared rather than re-derived.
    pub fn catalog(&self) -> Arc<ReferenceMeta> {
        Arc::clone(&self.catalog)
    }

    /// The shared handle to the flat reference table. Warm backends built
    /// from this index hold clones of this handle — compare with
    /// [`SharedReferences::ptr_eq`] to verify storage is shared rather
    /// than copied.
    pub fn shared_references(&self) -> &SharedReferences {
        &self.references
    }

    /// The prefilter's folded-hypervector sketch table over this index's
    /// references (see [`hdoms_prefilter::SketchIndex`]), laid out in
    /// the `(mass, id)` table's order and sharing its id column, so a
    /// precursor window reads consecutive rows. This is where every
    /// index's sketch comes from — cold build, append or load of any
    /// version: sampled from the reference table on first use, then
    /// shared. No image stores it.
    pub fn sketch_index(&self) -> Arc<SketchIndex> {
        Arc::clone(self.sketches.get_or_init(|| {
            let full_words = self.dim().div_ceil(64);
            let selected = SketchIndex::word_selection(full_words, SKETCH_WORDS);
            let row = |id: u32| {
                let hv = self.references.hv(id as usize);
                hv.map(|hv| SketchIndex::sample(&selected, hv.words()))
            };
            let ids = Arc::clone(self.table.ids());
            let sketch = SketchIndex::from_rows(full_words, selected.clone(), ids, row);
            Arc::new(sketch)
        }))
    }

    // -- residency --------------------------------------------------------

    /// Byte footprint of each shard's stored hypervector words
    /// (`present entries × ceil(dim / 64) × 8`), indexed by shard
    /// position. This is the unit the serve layer budgets residency in:
    /// it is what [`LibraryIndex::release_shard_words`] can hand back to
    /// the OS for a cold shard, and what a touched shard re-occupies.
    pub fn shard_word_bytes(&self) -> Vec<u64> {
        let hv_bytes = self.references.hv_bytes() as u64;
        let stored = |&&(_, id): &&(f64, u32)| self.references.hv(id as usize).is_some();
        (self.shards())
            .map(|run| run.iter().filter(stored).count() as u64 * hv_bytes)
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
        let Some(run) = self.shards().nth(shard) else {
            return 0;
        };
        if !references.is_mapped() {
            return 0;
        }
        // A v2+ shard section lays its word blocks out contiguously, so
        // the shard's words occupy exactly [min offset, max offset +
        // hv_bytes) of the mapped file.
        let hv_bytes = references.hv_bytes() as u64;
        let blocks = (run.iter()).filter_map(|&(_, id)| references.offset_of(id as usize));
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

    /// The kind's one backend ([`KindBackend`]), built on first use —
    /// never programmed here: an rram index always holds its MLC state.
    fn backend(&self) -> &KindBackend {
        (self.backend).get_or_init(|| KindBackend::new(&self.kind, self.mlc.as_ref(), 1))
    }

    /// The software-exact backend over this index's references, without
    /// re-encoding. It **shares** the index's reference table and item
    /// memories — no hypervector words are copied and no encoder is
    /// regenerated, so index + backend together hold one copy of each.
    ///
    /// # Errors
    ///
    /// Fails with [`IndexError::Invalid`] when the index was built for a
    /// different backend kind.
    pub fn to_exact_backend(&self, threads: usize) -> Result<ExactBackend, IndexError> {
        match self.backend() {
            // HyperOMS is software too, but reports under its own kind.
            KindBackend::Software(backend) if matches!(self.kind, IndexedBackendKind::Exact(_)) => {
                Ok(backend.over(self.references.clone(), threads))
            }
            _ => Err(self.built_for_another_kind("exact")),
        }
    }

    /// The MLC-RRAM accelerator over this index's references, without
    /// re-encoding the library: its in-memory encoder is the index's own
    /// (the ID item memory restored from the persisted differential
    /// weight pairs, shared, not cloned) and the stored reference
    /// hypervectors become the search weights directly (shared too).
    ///
    /// # Errors
    ///
    /// Fails with [`IndexError::Invalid`] when the index was built for a
    /// different backend kind.
    pub fn to_accelerator(&self, threads: usize) -> Result<OmsAccelerator, IndexError> {
        let KindBackend::Rram(config, encoder) = self.backend() else {
            return Err(self.built_for_another_kind("rram"));
        };
        Ok(OmsAccelerator::from_parts(
            AcceleratorConfig { threads, ..*config },
            encoder.clone(),
            self.references.clone(),
            self.build_stats,
        ))
    }

    /// The sharded, shard-parallel search backend for this index's kind,
    /// over windows of [`ReferenceCatalog::candidate_index`]'s table.
    ///
    /// Scores are identical to the corresponding flat backend — sharding
    /// only changes iteration order and parallel granularity, and every
    /// per-(query, reference) evaluation is deterministic.
    ///
    /// # Errors
    ///
    /// None today: every kind has a scorer.
    pub fn sharded_backend(&self, threads: usize) -> Result<ShardedBackend, IndexError> {
        let bounds = self.bounds.iter().map(|&b| b as u32).collect();
        Ok(match self.backend() {
            KindBackend::Software(backend) => {
                let scorer = backend.over(self.references.clone(), threads);
                ShardedBackend::new(Box::new(scorer), &self.table, bounds, threads)
            }
            KindBackend::Rram(..) => {
                let scorer = self.to_accelerator(threads)?;
                ShardedBackend::new(Box::new(scorer), &self.table, bounds, threads)
            }
        })
    }

    // -- incremental append ----------------------------------------------

    /// Append new library spectra to the index, encoding **only** the new
    /// entries, through the one bounded intake
    /// ([`SharedReferences::encode_in`]). New entries receive the next
    /// dense ids (`entry_count..`), exactly as if the library had
    /// contained them at build time, and their `(mass, id)` pairs join
    /// the table, which is re-cut as a build cuts it: the appended index
    /// *is* the index a cold build over the concatenated library makes
    /// (byte for byte for the software kinds).
    ///
    /// # Panics
    ///
    /// Panics on invalid spectra (same contracts as the build path).
    pub fn append_entries(&mut self, new_entries: &[LibraryEntry], threads: usize) {
        if new_entries.is_empty() {
            return;
        }
        let pre = Preprocessor::new(self.kind.preprocess());
        // The table grows in place when this index alone holds a heap
        // buffer (see [`SharedReferences::append`] for the repack
        // otherwise).
        let mut references = std::mem::replace(&mut self.references, Vec::new().into());
        let mut stats = StatsFold::default();
        let fold = |slot| stats.push(slot);
        references.encode_in(self.backend(), &pre, new_entries, threads, fold);
        self.references = references;
        self.build_stats = stats.onto(Some(&self.build_stats));
        let added = take_in(Arc::make_mut(&mut self.catalog), new_entries);
        let empty = CandidateIndex::from_sorted(Vec::new());
        let mut table = std::mem::replace(&mut self.table, empty).into_pairs();
        merge_in(&mut table, added);
        // One pass over the merged table — unless an image an earlier
        // release appended to left a mass tie out of id order, which the
        // re-cut puts right as a build over the whole library would.
        self.bounds = cut(&mut table, self.entries_per_shard);
        self.table = CandidateIndex::from_sorted(table);
        // The sketch follows the old table — derive it again on the next
        // prefiltered search.
        self.sketches = OnceLock::new();
    }

    // -- persistence -----------------------------------------------------

    /// Serialise to the current `HDX` byte format (see [`crate::format`]):
    /// shard hypervector words laid out 8-aligned for in-place mapped
    /// loads. Older versions are decode-only.
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
            catalog: &self.catalog,
            shards: self.shards().collect(),
        }
        .write(
            out,
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
        let (mut index, version, count, sections) = parse_sections(bytes)?;
        let dim = index.dim();
        let payloads = par_map(&sections, threads, |i, section| {
            section.verify(bytes, &format!("shard {i}"))
        });
        // One pass over the records, each fact straight to its home: the
        // peptide moves into its catalog slot, the `(mass, id)` pair joins
        // the table in file order.
        let catalog = Arc::make_mut(&mut index.catalog);
        catalog.resize(count);
        let mut table = Vec::with_capacity(count);
        let mut offsets = vec![u64::MAX; count];
        for (payload, section) in payloads.into_iter().zip(&sections) {
            let first = table.len();
            let base = format::decode_shard(payload?, dim, version, |entry, words| {
                let (id, mass) = (entry.id, entry.neutral_mass);
                need((id as usize) < count, || {
                    format!("entry id {id} outside the declared count {count}")
                })?;
                table.push((mass, id));
                offsets[id as usize] = words.map_or(u64::MAX, |at| at as u64);
                let (decoy, precursor) =
                    (entry.is_decoy, (entry.precursor_mz, entry.precursor_charge));
                catalog.set(id, mass, decoy, entry.peptide.into_owned(), precursor);
                Ok(())
            })?;
            // Lift the shard's offsets to absolute ones (a v2+ payload
            // starts 8-aligned and pads its word blocks to 8, so these stay
            // 8-aligned); an absent one stays `u64::MAX`.
            let base = (section.start + base) as u64;
            for &(_, id) in &table[first..] {
                offsets[id as usize] = offsets[id as usize].saturating_add(base);
            }
            index.bounds.push(table.len());
        }
        need(count > 0 && table.len() == count, || {
            format!(
                "shards hold {} entries, the header declares {count}",
                table.len()
            )
        })?;
        index.table = CandidateIndex::from_sorted(table);
        index.validate()?;
        index.references = if version >= 2 {
            SharedReferences::new(buffer.clone(), dim, offsets)
        } else {
            let hv_bytes = dim.div_ceil(64) * 8;
            let tail_mask = u64::MAX >> (hv_bytes * 8 - dim);
            let mut words = Vec::with_capacity(count * hv_bytes / 8);
            for offset in offsets.iter_mut().filter(|offset| **offset != u64::MAX) {
                let block = bytes[*offset as usize..][..hv_bytes].chunks_exact(8);
                *offset = (words.len() * 8) as u64;
                words.extend(block.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))));
                *words.last_mut().expect("dim is positive") &= tail_mask;
            }
            SharedReferences::new(WordBuffer::from(words), dim, offsets)
        };
        Ok(index)
    }

    /// Open `path` — the one file door: the file is `mmap`ed for
    /// **in-place search** where the platform allows (64-bit Unix, the
    /// default `mmap` feature), so cold shards' pages can be released and
    /// refault from it; elsewhere it is read in one streamed pass into
    /// one aligned heap buffer. Either buffer goes to
    /// [`LibraryIndex::from_buffer`], so the references are searched
    /// inside it, not materialised out of it.
    ///
    /// # Errors
    ///
    /// Filesystem, format, checksum and semantic failures all surface as
    /// [`IndexError`].
    pub fn open_mapped(path: &Path, threads: usize) -> Result<LibraryIndex, IndexError> {
        #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
        let buffer = WordBuffer::map_file(path)?;
        #[cfg(not(all(unix, target_pointer_width = "64", feature = "mmap")))]
        let buffer = {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            WordBuffer::from_reader(file, len)?
        };
        LibraryIndex::from_buffer(buffer, threads)
    }

    /// Structural sanity of a loaded table, in one pass over it: every
    /// mass finite and never decreasing, `(mass, id)` ascending within a
    /// shard, and — every id in range (checked as it was decoded) and the
    /// table holding the declared count — no id held twice, so none
    /// missing: the ids are dense. A shard may open below its
    /// predecessor's last id at an equal mass: the appends of earlier
    /// releases placed entries so, and their images still load.
    fn validate(&self) -> Result<(), IndexError> {
        let mut previous = (f64::NEG_INFINITY, 0u32);
        let mut seen = vec![0u64; self.entry_count().div_ceil(64)];
        for (s, run) in self.shards().enumerate() {
            for (at, &(mass, id)) in run.iter().enumerate() {
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                need(seen[word] & bit == 0, || {
                    format!("entry id {id} is held twice")
                })?;
                seen[word] |= bit;
                let finite = || format!("entry {id} has a non-finite mass ({mass})");
                need(mass.is_finite(), finite)?;
                let ordered = (mass, id) > previous || at == 0 && mass >= previous.0;
                need(ordered, || {
                    format!("shard {s} breaks the (mass, id) order at {id}")
                })?;
                previous = (mass, id);
            }
        }
        Ok(())
    }
}

/// Walk the container: magic, version, header, MLC and legacy sketch
/// sections (each checksum-verified; the sketch then dropped — every
/// index derives its own), and the [`Frame`] of every shard section —
/// everything established before shard payloads are touched, returned
/// as an index still without entries or references, the format version,
/// the declared entry count and where each shard lies.
fn parse_sections(bytes: &[u8]) -> Result<Sections, IndexError> {
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
    // count-sized allocation (the loader's tables) can run.
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
    section(header.sketch_len, "sketch")?;
    let shards = (header.shard_lens.iter())
        .map(|&len| Frame::locate(&mut r, bytes.len(), padded, len, "shard"))
        .collect::<Result<Vec<Frame>, IndexError>>()?;
    r.expect_end("index file")?;

    let index = LibraryIndex::empty(header.kind, header.entries_per_shard, header.stats, mlc);
    Ok((index, version, count, shards))
}

/// What [`parse_sections`] establishes ahead of the shard payloads.
type Sections = (LibraryIndex, u32, usize, Vec<Frame>);

impl ReferenceCatalog for LibraryIndex {
    fn reference_count(&self) -> usize {
        self.entry_count()
    }

    fn reference_mass(&self, id: u32) -> Option<f64> {
        self.catalog.reference_mass(id)
    }

    fn reference_is_decoy(&self, id: u32) -> Option<bool> {
        self.catalog.reference_is_decoy(id)
    }

    /// The shards' own table, shared: equal masses stay in shard order
    /// (also where an image an earlier release appended to holds one mass
    /// on both sides of a shard boundary out of id order), so a query's
    /// candidates fall into ascending shard runs.
    fn candidate_index(&self) -> CandidateIndex {
        self.table.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Over tables whose masses tie often, within the old entries, within
    /// the new ones and across the two, an append's merge lays out the
    /// table a re-cut of the concatenation does.
    #[test]
    fn a_merge_equals_concat_then_cut() {
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mass = |rng: &mut StdRng| f64::from(rng.gen_range(0..6u32)) * 0.5 + 100.0;
            let old_len = rng.gen_range(0..40u32);
            let added_len = rng.gen_range(0..40u32);
            let mut table: Vec<(f64, u32)> = (0..old_len).map(|id| (mass(&mut rng), id)).collect();
            cut(&mut table, 8);
            let added: Vec<(f64, u32)> = (old_len..old_len + added_len)
                .map(|id| (mass(&mut rng), id))
                .collect();
            let mut expected = [table.as_slice(), &added].concat();
            let expected_bounds = cut(&mut expected, 8);
            merge_in(&mut table, added);
            assert_eq!(table, expected, "seed {seed}");
            assert_eq!(cut(&mut table, 8), expected_bounds, "seed {seed}");
        }
    }
}
