//! The in-memory index, its builder, its reader, and incremental append.

use crate::format::{
    self, IndexEntry, IndexError, IndexedBackendKind, MlcState, Shard, CHECKSUM_SEED,
    FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
use crate::sharded::{Scorer, ShardedBackend};
use crate::wire::{Reader, Writer};
use crate::xxhash::xxh64;
use hdoms_baselines::hyperoms::HyperOmsBackend;
use hdoms_core::accelerator::{BuildStats, OmsAccelerator};
use hdoms_core::encode::InMemoryEncoder;
use hdoms_hdc::encoder::IdLevelEncoder;
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::{BinaryHypervector, WordBuffer};
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::preprocess::Preprocessor;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::pipeline::ReferenceCatalog;
use hdoms_oms::search::{
    ExactBackend, ExactBackendConfig, MappedReferences, SharedReferences, SimilarityBackend,
};
use hdoms_prefilter::{SketchIndex, SKETCH_WORDS};
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

/// Builds a [`LibraryIndex`] from a spectral library.
///
/// The builder runs the configured backend's own constructor, so the
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
    /// builder literally runs the corresponding backend constructor and
    /// persists its reference hypervectors, so a warm-loaded search
    /// produces the same PSMs as a cold one.
    ///
    /// # Panics
    ///
    /// Panics on an empty library or invalid configuration (same
    /// contracts as the underlying backend constructors).
    pub fn from_library(&self, library: &SpectralLibrary) -> LibraryIndex {
        assert!(!library.is_empty(), "cannot index an empty library");
        let threads = self.config.threads;
        let (references, build_stats, mlc): (SharedReferences, _, _) = match &self.config.kind {
            IndexedBackendKind::Exact(config) => {
                let mut config = *config;
                config.threads = threads;
                let backend = ExactBackend::build(library, config);
                let stats = stats_from_shared(backend.shared_references());
                (backend.shared_references().clone(), stats, None)
            }
            IndexedBackendKind::HyperOms(config) => {
                let mut config = *config;
                config.threads = threads;
                let backend = HyperOmsBackend::build(library, config);
                let stats = stats_from_shared(backend.inner().shared_references());
                (backend.inner().shared_references().clone(), stats, None)
            }
            IndexedBackendKind::Rram(config) => {
                let mut config = *config;
                config.threads = threads;
                let accel = OmsAccelerator::build(library, config);
                let stats = *accel.build_stats();
                let mlc = MlcState {
                    w_eff: accel.encoder().programmed_weights().to_vec(),
                    sigma_delta: accel.encoder().sigma_delta(),
                };
                (
                    accel.search_engine().shared_references().clone(),
                    stats,
                    Some(mlc),
                )
            }
        };

        let mut entries: Vec<IndexEntry> = library
            .iter()
            .map(|e| IndexEntry {
                id: e.spectrum.id,
                neutral_mass: e.spectrum.neutral_mass(),
                precursor_mz: e.spectrum.precursor_mz,
                precursor_charge: e.spectrum.precursor_charge,
                is_decoy: e.is_decoy,
                peptide: e.peptide.to_string(),
            })
            .collect();
        entries.sort_by(|a, b| {
            a.neutral_mass
                .total_cmp(&b.neutral_mass)
                .then(a.id.cmp(&b.id))
        });

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
            build_stats,
            mlc,
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

fn stats_from_shared(refs: &SharedReferences) -> BuildStats {
    let stored = refs.present_count();
    BuildStats {
        references_stored: stored,
        references_rejected: refs.len() - stored,
        mean_encode_ber: 0.0,
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
/// state and ignored, and owned vs mapped reference tables with the
/// same bits compare equal.
///
/// The table comes in two representations (see [`SharedReferences`]):
/// owned hypervectors (cold builds, v1 loads, appends) or word slices
/// inside the single file buffer a v2 index was loaded from
/// ([`LibraryIndex::open_mapped`]) — searches go through the same
/// lookup either way, so every backend above is representation-blind.
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
    /// back to the OS (mapped indexes only — owned tables cannot drop
    /// pages piecemeal). Returns the bytes actually released: 0 for
    /// owned tables, unknown shard positions, or word spans too small to
    /// cover one whole page. Released words refault from the backing
    /// file on the next touch, so a later search over the shard scores
    /// identically — it just pays the page faults to reload.
    pub fn release_shard_words(&self, shard: usize) -> usize {
        let Some(mapped) = self.references.as_mapped() else {
            return 0;
        };
        let Some(entries) = self.shards.get(shard).map(|s| &s.entries) else {
            return 0;
        };
        // A v2+ shard section lays its word blocks out contiguously, so
        // the shard's words occupy exactly [min offset, max offset +
        // hv_bytes) of the backing buffer.
        let hv_bytes = mapped.hv_bytes() as u64;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in entries {
            if let Some(at) = mapped.offset_of(e.id as usize) {
                lo = lo.min(at);
                hi = hi.max(at + hv_bytes);
            }
        }
        if lo >= hi {
            return 0;
        }
        mapped
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

    /// Reconstruct the HyperOMS-style backend without re-encoding (the
    /// reference table is shared, not cloned).
    ///
    /// # Errors
    ///
    /// Fails with [`IndexError::Invalid`] when the index was built for a
    /// different backend kind.
    pub fn to_hyperoms_backend(&self, threads: usize) -> Result<HyperOmsBackend, IndexError> {
        let IndexedBackendKind::HyperOms(config) = &self.kind else {
            return Err(IndexError::Invalid(format!(
                "index was built for the {:?} backend, not hyperoms",
                self.kind.name()
            )));
        };
        let inner =
            ExactBackend::from_shared(config.exact_config(threads), self.references.clone());
        Ok(HyperOmsBackend::from_exact(inner))
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
        let encoder = InMemoryEncoder::from_programmed(
            config.encoder,
            config.crossbar,
            mlc.w_eff.clone(),
            mlc.sigma_delta,
            config.seed,
        );
        Ok(OmsAccelerator::from_parts(
            config,
            encoder,
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
        let scorer = match &self.kind {
            IndexedBackendKind::Exact(_) => {
                let backend = self.to_exact_backend(threads)?;
                Scorer::Exact {
                    name: backend.name(),
                    backend,
                }
            }
            IndexedBackendKind::HyperOms(_) => {
                let backend = self.to_hyperoms_backend(threads)?;
                Scorer::Exact {
                    name: backend.name(),
                    backend: backend.into_inner(),
                }
            }
            IndexedBackendKind::Rram(_) => Scorer::Rram(self.to_accelerator(threads)?),
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
        let encoded: Vec<(Option<BinaryHypervector>, f64)> = match &self.kind {
            IndexedBackendKind::Exact(config) => {
                let encoder = IdLevelEncoder::new(config.encoder);
                let pre = Preprocessor::new(config.preprocess);
                let mut config = *config;
                config.threads = threads;
                ExactBackend::encode_chunk(&encoder, &pre, &config, new_entries, first_id)
                    .into_iter()
                    .map(|hv| (hv, 0.0))
                    .collect()
            }
            IndexedBackendKind::HyperOms(config) => {
                let exact = config.exact_config(threads);
                let encoder = IdLevelEncoder::new(exact.encoder);
                let pre = Preprocessor::new(exact.preprocess);
                ExactBackend::encode_chunk(&encoder, &pre, &exact, new_entries, first_id)
                    .into_iter()
                    .map(|hv| (hv, 0.0))
                    .collect()
            }
            IndexedBackendKind::Rram(config) => {
                let mlc = self
                    .mlc
                    .as_ref()
                    .expect("rram index carries MLC state by construction");
                let encoder = InMemoryEncoder::from_programmed(
                    config.encoder,
                    config.crossbar,
                    mlc.w_eff.clone(),
                    mlc.sigma_delta,
                    config.seed,
                );
                let pre = Preprocessor::new(config.preprocess);
                OmsAccelerator::encode_chunk(&encoder, &pre, new_entries, first_id, threads)
                    .into_iter()
                    .map(|slot| match slot {
                        Some((hv, ber)) => (Some(hv), ber),
                        None => (None, 0.0),
                    })
                    .collect()
            }
        };

        // Fold the new encodings into the build statistics (exact update:
        // the stored mean is re-weighted by the stored counts).
        let new_stored = encoded.iter().filter(|(hv, _)| hv.is_some()).count();
        let new_ber_sum: f64 = encoded
            .iter()
            .filter(|(hv, _)| hv.is_some())
            .map(|&(_, ber)| ber)
            .sum();
        let old_stored = self.build_stats.references_stored;
        let total_stored = old_stored + new_stored;
        self.build_stats.mean_encode_ber = if total_stored == 0 {
            0.0
        } else {
            (self.build_stats.mean_encode_ber * old_stored as f64 + new_ber_sum)
                / total_stored as f64
        };
        self.build_stats.references_stored = total_stored;
        self.build_stats.references_rejected += new_entries.len() - new_stored;

        // New ids are `entry_count..`, so the flat table simply extends.
        // Appending is copy-on-write: an owned table shared with warm
        // backends (or a mapped table pinned to its file buffer) pays a
        // one-time materialisation; the common case (append offline,
        // then serve) stays zero-copy.
        self.references
            .append(encoded.into_iter().map(|(hv, _)| hv));
        for (offset, entry) in new_entries.iter().enumerate() {
            let id = first_id + offset as u32;
            let indexed = IndexEntry {
                id,
                neutral_mass: entry.spectrum.neutral_mass(),
                precursor_mz: entry.spectrum.precursor_mz,
                precursor_charge: entry.spectrum.precursor_charge,
                is_decoy: entry.is_decoy,
                peptide: entry.peptide.to_string(),
            };
            self.insert_entry(indexed);
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
        let dim = self.dim();
        let mlc_bytes = self.mlc.as_ref().map(format::put_mlc_state);
        let sketch_bytes = format::put_sketches(&self.sketch_index());
        let shard_bytes: Vec<Vec<u8>> = self
            .shards
            .iter()
            .map(|s| format::put_shard_v2(s, dim, &self.references))
            .collect();

        let shard_lens: Vec<usize> = shard_bytes.iter().map(Vec::len).collect();
        let header = format::encode_header(
            &self.kind,
            &self.build_stats,
            self.entries_per_shard,
            self.entry_count,
            mlc_bytes.as_ref().map_or(0, Vec::len),
            sketch_bytes.len(),
            &shard_lens,
        );

        let mut out = Writer::new();
        out.raw(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.usize(header.len());
        out.raw(&header);
        out.u64(xxh64(&header, CHECKSUM_SEED));
        // Zero padding brings every section payload to an 8-aligned
        // absolute offset, so the word blocks inside shard payloads land
        // 8-aligned in the file.
        let sections = mlc_bytes
            .iter()
            .chain(std::iter::once(&sketch_bytes))
            .chain(&shard_bytes);
        for bytes in sections {
            for _ in 0..format::pad_to_8(out.len()) {
                out.u8(0);
            }
            out.raw(bytes);
            out.u64(xxh64(bytes, CHECKSUM_SEED));
        }
        out.into_bytes()
    }

    /// Write the index to `path` (atomically: a temp file is renamed into
    /// place so a crashed write never leaves a half-index behind).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> Result<(), IndexError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("hdx.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Decode from bytes, verifying magic, version and every section
    /// checksum; shards are checksum-verified and decoded in parallel
    /// over `threads`. Hypervectors are **materialised** regardless of
    /// format version (the copying path; see
    /// [`LibraryIndex::from_buffer`] for the zero-copy one).
    ///
    /// # Errors
    ///
    /// Any structural, checksum or semantic problem aborts the load with
    /// a descriptive [`IndexError`] — a corrupted index never half-loads.
    pub fn from_bytes(bytes: &[u8], threads: usize) -> Result<LibraryIndex, IndexError> {
        let sections = parse_sections(bytes)?;
        let dim = sections.kind.dim();
        let version = sections.version;
        let jobs: Vec<(usize, SectionRange)> =
            sections.shards.iter().copied().enumerate().collect();
        let decoded = par_map(&jobs, threads, |&(i, section)| {
            let payload = section.verify(bytes, &format!("shard {i}"))?;
            if version >= 2 {
                let (shard, offsets) = format::get_shard_v2(payload, dim)?;
                let words = dim.div_ceil(64);
                let hvs = offsets
                    .into_iter()
                    .map(|(id, at)| {
                        (
                            id,
                            format::hypervector_from_bytes(dim, &payload[at..at + words * 8]),
                        )
                    })
                    .collect();
                Ok((shard, hvs))
            } else {
                format::get_shard(payload, dim)
            }
        });
        let mut shards = Vec::with_capacity(decoded.len());
        let mut references = vec![None; sections.entry_count];
        for shard in decoded {
            let (shard, hvs) = shard?;
            for (id, hv) in hvs {
                let slot = references.get_mut(id as usize).ok_or_else(|| {
                    IndexError::Invalid(format!(
                        "entry id {id} outside the declared count {}",
                        sections.entry_count
                    ))
                })?;
                *slot = Some(hv);
            }
            shards.push(shard);
        }
        sections.into_index(shards, SharedReferences::from(references))
    }

    /// **Zero-copy** load: search the index straight out of `buffer`
    /// (typically a whole `.hdx` file read or mapped into one
    /// allocation). For a v2 file the reference table becomes offsets
    /// into `buffer` — no per-reference hypervector is materialised, so
    /// load time and resident memory stop scaling with the hypervector
    /// payload. A v1 file falls back to the copying decoder.
    ///
    /// Searches score identically to [`LibraryIndex::from_bytes`]
    /// loads: both representations expose the same words.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`LibraryIndex::from_bytes`].
    pub fn from_buffer(buffer: WordBuffer, threads: usize) -> Result<LibraryIndex, IndexError> {
        let bytes = buffer.as_bytes();
        let sections = parse_sections(bytes)?;
        if sections.version < 2 {
            return LibraryIndex::from_bytes(bytes, threads);
        }
        let dim = sections.kind.dim();
        let entry_count = sections.entry_count;
        let jobs: Vec<(usize, SectionRange)> =
            sections.shards.iter().copied().enumerate().collect();
        let decoded = par_map(&jobs, threads, |&(i, section)| {
            let payload = section.verify(bytes, &format!("shard {i}"))?;
            let (shard, offsets) = format::get_shard_v2(payload, dim)?;
            // Lift payload-relative word offsets to absolute buffer
            // offsets (the payload itself starts 8-aligned, so absolute
            // offsets stay 8-aligned).
            let absolute: Vec<(u32, u64)> = offsets
                .into_iter()
                .map(|(id, at)| (id, (section.start + at) as u64))
                .collect();
            Ok::<_, IndexError>((shard, absolute))
        });
        let mut shards = Vec::with_capacity(decoded.len());
        let mut offsets = vec![u64::MAX; entry_count];
        for shard in decoded {
            let (shard, absolute) = shard?;
            for (id, at) in absolute {
                let slot = offsets.get_mut(id as usize).ok_or_else(|| {
                    IndexError::Invalid(format!(
                        "entry id {id} outside the declared count {entry_count}"
                    ))
                })?;
                *slot = at;
            }
            shards.push(shard);
        }
        let references = MappedReferences::new(buffer.clone(), dim, offsets);
        sections.into_index(shards, SharedReferences::Mapped(references))
    }

    /// Open `path` for **in-place search**: the file is read once into a
    /// single aligned buffer (or `mmap`ed with the `mmap` feature) and
    /// handed to [`LibraryIndex::from_buffer`].
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

/// Everything the container walk establishes before shard payloads are
/// touched: the verified header fields plus where each shard section
/// lives. Shared by the copying ([`LibraryIndex::from_bytes`]) and
/// mapped ([`LibraryIndex::from_buffer`]) loaders, so the two paths
/// cannot drift.
struct ParsedSections {
    version: u32,
    kind: IndexedBackendKind,
    build_stats: BuildStats,
    entries_per_shard: usize,
    entry_count: usize,
    mlc: Option<MlcState>,
    sketches: Option<SketchIndex>,
    shards: Vec<SectionRange>,
}

impl ParsedSections {
    /// Assemble, validate, and finish a [`LibraryIndex`] once a loader
    /// has produced the shards and a reference table.
    fn into_index(
        self,
        shards: Vec<Shard>,
        references: SharedReferences,
    ) -> Result<LibraryIndex, IndexError> {
        let mut index = LibraryIndex {
            kind: self.kind,
            entries_per_shard: self.entries_per_shard,
            entry_count: self.entry_count,
            build_stats: self.build_stats,
            mlc: self.mlc,
            shards,
            references,
            by_id: Vec::new(),
            peptides: OnceLock::new(),
            sketches: OnceLock::new(),
        };
        if let Some(sketches) = self.sketches {
            if sketches.len() != index.entry_count {
                return Err(IndexError::Invalid(format!(
                    "sketch section covers {} slots for {} declared entries",
                    sketches.len(),
                    index.entry_count
                )));
            }
            if sketches.full_words() != index.dim().div_ceil(64) {
                return Err(IndexError::Invalid(format!(
                    "sketch section samples a {}-word hypervector, dimension {} has {}",
                    sketches.full_words(),
                    index.dim(),
                    index.dim().div_ceil(64)
                )));
            }
            index
                .sketches
                .set(Arc::new(sketches))
                .expect("freshly constructed cache is empty");
        }
        index.validate()?;
        index.rebuild_by_id();
        Ok(index)
    }
}

/// Walk the container: magic, version, header (checksum-verified), MLC
/// section (checksum-verified), and the location of every shard section.
/// In v2 files the zero padding preceding each section payload is
/// consumed and must actually be zero — pad bytes sit outside the
/// checksummed payloads, so this is what keeps "any flipped bit fails
/// the load" true.
fn parse_sections(bytes: &[u8]) -> Result<ParsedSections, IndexError> {
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

    let mlc = if mlc_len == 0 {
        None
    } else {
        skip_pad(&mut r)?;
        let payload = r.raw(mlc_len, "mlc_section")?;
        let hash = r.u64("mlc_checksum")?;
        if xxh64(payload, CHECKSUM_SEED) != hash {
            return Err(IndexError::ChecksumMismatch {
                section: "mlc".to_owned(),
            });
        }
        Some(format::get_mlc_state(payload)?)
    };

    let sketches = if sketch_len == 0 {
        None
    } else {
        skip_pad(&mut r)?;
        let payload = r.raw(sketch_len, "sketch_section")?;
        let hash = r.u64("sketch_checksum")?;
        if xxh64(payload, CHECKSUM_SEED) != hash {
            return Err(IndexError::ChecksumMismatch {
                section: "sketch".to_owned(),
            });
        }
        Some(format::get_sketches(payload)?)
    };

    let mut shards = Vec::with_capacity(shard_count);
    for &len in &shard_lens {
        skip_pad(&mut r)?;
        let start = bytes.len() - r.remaining();
        let _payload = r.raw(len, "shard_section")?;
        let hash = r.u64("shard_checksum")?;
        shards.push(SectionRange { start, len, hash });
    }
    r.expect_end("index file")?;

    Ok(ParsedSections {
        version,
        kind,
        build_stats,
        entries_per_shard,
        entry_count,
        mlc,
        sketches,
        shards,
    })
}

/// Reads `HDX` index files.
///
/// ```
/// use hdoms_index::{IndexBuilder, IndexConfig, IndexReader, IndexedBackendKind};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 8);
/// let mut config = IndexConfig { threads: 2, ..IndexConfig::default() };
/// if let IndexedBackendKind::Exact(exact) = &mut config.kind {
///     exact.encoder.dim = 512;
/// }
/// let index = IndexBuilder::new(config).from_library(&workload.library);
///
/// let path = std::env::temp_dir().join(format!("hdoms-reader-doc-{}.hdx", std::process::id()));
/// index.write(&path).unwrap();
/// let loaded = IndexReader::with_threads(2).open_with(&path).unwrap();
/// assert_eq!(loaded, index);
/// # std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IndexReader {
    threads: usize,
}

impl Default for IndexReader {
    fn default() -> IndexReader {
        IndexReader {
            threads: hdoms_hdc::parallel::default_threads(),
        }
    }
}

impl IndexReader {
    /// A reader decoding shards over `threads` workers.
    pub fn with_threads(threads: usize) -> IndexReader {
        IndexReader {
            threads: threads.max(1),
        }
    }

    /// Load and validate an index from `path`.
    ///
    /// The file is read in one streamed pass and shard sections are
    /// checksum-verified and decoded in parallel; hypervector bit words
    /// are filled straight from the file buffer into each hypervector,
    /// with no intermediate per-entry buffers.
    ///
    /// # Errors
    ///
    /// Filesystem, format, checksum and semantic failures all surface as
    /// [`IndexError`].
    pub fn open(path: &Path) -> Result<LibraryIndex, IndexError> {
        IndexReader::default().open_with(path)
    }

    /// Like [`IndexReader::open`] with this reader's thread setting.
    ///
    /// # Errors
    ///
    /// See [`IndexReader::open`].
    pub fn open_with(&self, path: &Path) -> Result<LibraryIndex, IndexError> {
        let bytes = std::fs::read(path)?;
        LibraryIndex::from_bytes(&bytes, self.threads)
    }

    /// Load an index for **in-place search** (see
    /// [`LibraryIndex::open_mapped`]): a v2 file is searched straight
    /// out of its single backing buffer with no per-reference
    /// materialisation; a v1 file falls back to the copying path.
    ///
    /// # Errors
    ///
    /// See [`IndexReader::open`].
    pub fn open_mapped(path: &Path) -> Result<LibraryIndex, IndexError> {
        IndexReader::default().open_mapped_with(path)
    }

    /// Like [`IndexReader::open_mapped`] with this reader's thread
    /// setting.
    ///
    /// # Errors
    ///
    /// See [`IndexReader::open`].
    pub fn open_mapped_with(&self, path: &Path) -> Result<LibraryIndex, IndexError> {
        LibraryIndex::open_mapped(path, self.threads)
    }
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
