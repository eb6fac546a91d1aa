//! The versioned `HDX` on-disk format: section layout and config codecs.
//!
//! ## Layout (format versions 1–3; the writer emits version 3 only,
//! versions 1 and 2 are decode-only — golden images under
//! `tests/fixtures/` keep their readers honest)
//!
//! ```text
//! preamble   magic "HDOMSIDX" (8) · format version u32 · header length u64
//! header     backend kind + configs · build stats · dim · entry count ·
//!            shard boundaries · shard table (byte length per shard) ·
//!            MLC section length · sketch section length (v3)
//!                                                       + XXH64 trailer
//! mlc        differential ID-memory weight pairs (f32) · σ_δ
//!            (present only for the RRAM accelerator kind) + XXH64 trailer
//! sketch     folded-hypervector prefilter signatures (v3 only; see
//!            [`put_sketches`])                           + XXH64 trailer
//! shard[i]   entry records (id, masses, charge, decoy flag, peptide,
//!            optional encoded hypervector)               + XXH64 trailer
//! ```
//!
//! Every section carries its own [XXH64](crate::xxhash::xxh64) digest, so
//! corruption is pinned to a section, and shard payloads can be decoded
//! independently — which is what lets [`LibraryIndex::from_buffer`](crate::LibraryIndex::from_buffer)
//! validate and decode shards in parallel.
//!
//! **Version 2** changes only the shard sections, for the zero-copy load
//! path: every section payload is preceded by zero padding bringing its
//! absolute file offset to a multiple of 8, and a shard's hypervector
//! words move out of the entry records into one contiguous,
//! internally-8-aligned word block at the end of the payload. A v2 file
//! loaded through [`LibraryIndex::open_mapped`](crate::LibraryIndex::open_mapped)
//! is therefore searchable **in place**: the word block offsets become a
//! mapped reference table over the single file buffer, and no
//! per-reference hypervector is ever materialised. A version 1 file,
//! whose words sit unaligned inside the entry records, stays readable:
//! the loader repacks them once into a fresh flat buffer.
//!
//! **Version 3** adds one optional section — the prefilter's
//! folded-hypervector sketch signatures
//! ([`hdoms_prefilter::SketchIndex`]) — between the MLC and shard
//! sections, plus its length field at the end of the header. Nothing
//! about the v2 sections changes: a v3 file with the sketch section
//! stripped (and the header field dropped) is byte-identical to the v2
//! encoding, v1/v2 files stay readable, and loading a v1/v2 file simply
//! derives the sketches on the fly when a search wants them
//! ([`crate::LibraryIndex::sketch_index`]).

use crate::wire::{Reader, WireError, Writer};
use crate::xxhash::xxh64;
use hdoms_core::accelerator::{AcceleratorConfig, BuildStats};
use hdoms_hdc::encoder::EncoderConfig;
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::multibit::IdPrecision;
use hdoms_ms::library::LibraryEntry;
use hdoms_ms::preprocess::{IntensityScaling, PreprocessConfig};
use hdoms_oms::search::{ExactBackendConfig, HyperOmsConfig};
use hdoms_prefilter::SketchIndex;
use hdoms_rram::array::CrossbarConfig;
use hdoms_rram::config::MlcConfig;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Magic bytes opening every index file.
pub const MAGIC: [u8; 8] = *b"HDOMSIDX";

/// Current format version (written by default). Readers reject anything
/// newer.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version readers still decode (v2 and v3 are searched
/// in place; v1 words are unaligned and get repacked once at load; only
/// v3 carries the persisted prefilter sketch section).
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Zero bytes needed after `pos` to reach an 8-byte boundary.
pub fn pad_to_8(pos: usize) -> usize {
    pos.wrapping_neg() % 8
}

/// Seed mixed into every section checksum (diversifies from other XXH64
/// users of the same bytes).
pub const CHECKSUM_SEED: u64 = 0x8d0a_51dc;

/// Anything that can go wrong building, writing or loading an index.
#[derive(Debug)]
pub enum IndexError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structural decode failure.
    Wire(WireError),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// A section's checksum disagrees with its content.
    ChecksumMismatch {
        /// Which section failed.
        section: String,
    },
    /// The index is structurally valid but semantically unusable.
    Invalid(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index I/O error: {e}"),
            IndexError::Wire(e) => write!(f, "index decode error: {e}"),
            IndexError::BadMagic => write!(f, "not an hdoms index (bad magic)"),
            IndexError::UnsupportedVersion { found } => write!(
                f,
                "index format version {found} is outside the supported range \
                 {MIN_FORMAT_VERSION}..={FORMAT_VERSION}"
            ),
            IndexError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in index section {section:?}")
            }
            IndexError::Invalid(message) => write!(f, "invalid index: {message}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> IndexError {
        IndexError::Io(e)
    }
}

impl From<WireError> for IndexError {
    fn from(e: WireError) -> IndexError {
        IndexError::Wire(e)
    }
}

/// Which search backend's encoded hypervectors the index stores.
///
/// The stored bits depend on the backend: the software backends encode
/// exactly, the RRAM accelerator encodes through the simulated analog
/// path, so an index is bound to the backend kind it was built for.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexedBackendKind {
    /// Software-exact HD backend ([`hdoms_oms::search::ExactBackend`]).
    Exact(ExactBackendConfig),
    /// HyperOMS-style backend (binary IDs, bit-serial levels).
    HyperOms(HyperOmsConfig),
    /// The paper's MLC-RRAM accelerator (in-memory encode + search).
    Rram(AcceleratorConfig),
}

impl IndexedBackendKind {
    /// Short stable name used in `index info` and reports.
    pub fn name(&self) -> &'static str {
        match self {
            IndexedBackendKind::Exact(_) => "exact",
            IndexedBackendKind::HyperOms(_) => "hyperoms",
            IndexedBackendKind::Rram(_) => "rram",
        }
    }

    /// The preprocessing configuration the library was encoded under.
    pub fn preprocess(&self) -> PreprocessConfig {
        match self {
            IndexedBackendKind::Exact(c) => c.preprocess,
            IndexedBackendKind::HyperOms(c) => c.preprocess,
            IndexedBackendKind::Rram(c) => c.preprocess,
        }
    }

    /// The hypervector dimension of the stored references.
    pub fn dim(&self) -> usize {
        match self {
            IndexedBackendKind::Exact(c) => c.encoder.dim,
            IndexedBackendKind::HyperOms(c) => c.dim,
            IndexedBackendKind::Rram(c) => c.encoder.dim,
        }
    }
}

impl IndexedBackendKind {
    /// Reject a decoded configuration the encoder constructors would
    /// panic on. The header is input from outside the program: its
    /// checksum proves the bytes are the ones written, not that a sane
    /// writer wrote them — so what
    /// [`IdLevelEncoder::new`](hdoms_hdc::encoder::IdLevelEncoder::new)
    /// and [`InMemoryEncoder::from_programmed`](hdoms_core::encode::InMemoryEncoder::from_programmed)
    /// assert (given the persisted MLC state, when there is one) is
    /// checked here first, and an open fails with
    /// [`IndexError::Invalid`] instead of a later search panicking.
    pub(crate) fn validate(&self, mlc: Option<&MlcState>) -> Result<(), IndexError> {
        let need = |ok: bool, why: &str| {
            ok.then_some(()).ok_or_else(|| {
                IndexError::Invalid(format!("{} backend configuration: {why}", self.name()))
            })
        };
        // Preprocessing first: `num_bins()` (which the HyperOMS encoder
        // mapping below calls) overflows on a non-finite bin count.
        let pre = self.preprocess();
        let bins = ((pre.max_mz - pre.min_mz) / pre.bin_width).ceil();
        need(
            pre.min_mz.is_finite() && pre.min_mz < pre.max_mz && pre.bin_width > 0.0,
            "preprocess m/z range must be finite and non-empty, bin_width positive",
        )?;
        need(
            bins < f64::from(u32::MAX),
            "preprocess m/z range over bin_width must fit the u32 bin index",
        )?;
        let enc = match self {
            IndexedBackendKind::Exact(c) => c.encoder,
            IndexedBackendKind::HyperOms(c) => c.exact_config(1).encoder,
            IndexedBackendKind::Rram(c) => c.encoder,
        };
        let (dim, two_q) = (enc.dim, enc.q_levels.saturating_mul(2));
        need(dim >= 1, "encoder.dim must be positive")?;
        need(enc.q_levels >= 2, "encoder.q_levels must be at least 2")?;
        need(
            match enc.level_style {
                LevelStyle::Random => dim >= two_q,
                LevelStyle::Chunked { num_chunks } => two_q <= num_chunks && num_chunks <= dim,
            },
            "level vectors need dim ≥ 2q (random) or 2q ≤ num_chunks ≤ dim (chunked)",
        )?;
        let weights = enc.num_bins.checked_mul(dim);
        need(
            weights.is_some() && pre.num_bins() <= enc.num_bins,
            "encoder.num_bins must cover every preprocessing bin, num_bins × dim be representable",
        )?;
        match self {
            IndexedBackendKind::Exact(c) => need(
                (0.0..=1.0).contains(&c.encode_ber) && (0.0..=1.0).contains(&c.storage_ber),
                "injected bit-error rates must lie in [0, 1]",
            ),
            IndexedBackendKind::HyperOms(_) => Ok(()),
            IndexedBackendKind::Rram(c) => {
                c.crossbar.check().or_else(|why| need(false, why))?;
                need(
                    c.crossbar.mlc.bits_per_cell == enc.id_precision.bits(),
                    "mlc.bits_per_cell must equal the ID precision",
                )?;
                need(
                    mlc.is_none_or(|state| {
                        Some(state.w_eff.len()) == weights
                            && state.sigma_delta.is_finite()
                            && state.sigma_delta >= 0.0
                    }),
                    "MLC section must hold num_bins × dim weights and a finite σ_δ ≥ 0",
                )
            }
        }
    }
}

/// One indexed reference: the search metadata.
///
/// The encoded hypervector itself lives in the index's flat shared
/// reference table (keyed by [`IndexEntry::id`]), not in the entry — that
/// is what lets a loaded index and every warm backend reconstructed from
/// it share a single copy of the encoded library. On disk the hypervectors
/// sit in each shard's word block (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Dense library id (also the slot in the flat reference table).
    pub id: u32,
    /// Neutral precursor mass in daltons (the sharding and windowing key).
    pub neutral_mass: f64,
    /// Precursor m/z as measured.
    pub precursor_mz: f64,
    /// Precursor charge state.
    pub precursor_charge: u8,
    /// Whether the entry is a decoy.
    pub is_decoy: bool,
    /// The peptide sequence string (for PSM reports without the library).
    pub peptide: String,
}

impl IndexEntry {
    /// The global `(mass, id)` order every builder sorts entries into
    /// before cutting fixed-size shards.
    pub(crate) fn shard_order(a: &IndexEntry, b: &IndexEntry) -> std::cmp::Ordering {
        a.neutral_mass
            .total_cmp(&b.neutral_mass)
            .then(a.id.cmp(&b.id))
    }

    /// The search metadata of library entry `entry` under dense id `id`.
    pub(crate) fn of(id: u32, entry: &LibraryEntry) -> IndexEntry {
        IndexEntry {
            id,
            neutral_mass: entry.spectrum.neutral_mass(),
            precursor_mz: entry.spectrum.precursor_mz,
            precursor_charge: entry.spectrum.precursor_charge,
            is_decoy: entry.is_decoy,
            peptide: entry.peptide.to_string(),
        }
    }
}

/// A contiguous precursor-mass bucket of entries, sorted by mass.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Entries sorted by `(neutral_mass, id)`.
    pub entries: Vec<IndexEntry>,
}

impl Shard {
    /// Smallest entry mass, or `None` for an empty shard.
    pub fn mass_lo(&self) -> Option<f64> {
        self.entries.first().map(|e| e.neutral_mass)
    }

    /// Largest entry mass, or `None` for an empty shard.
    pub fn mass_hi(&self) -> Option<f64> {
        self.entries.last().map(|e| e.neutral_mass)
    }
}

/// MLC programming state persisted for the RRAM accelerator kind: the
/// effective differential weight pairs of the programmed position-ID item
/// memory, so a warm load skips re-sampling the device model.
#[derive(Debug, Clone, PartialEq)]
pub struct MlcState {
    /// Effective differential weights `(g⁺−g⁻)/g_max`, flattened
    /// `[bin][dim]`.
    pub w_eff: Vec<f32>,
    /// RMS per-pair normalised conductance deviation of the programmed
    /// array.
    pub sigma_delta: f64,
}

// ---------------------------------------------------------------------------
// Config codecs. Hand-rolled field-by-field: no serialisation crate resolves
// offline, and explicit codecs keep the format stable under struct
// reordering anyway.
// ---------------------------------------------------------------------------

fn put_preprocess(w: &mut Writer, c: &PreprocessConfig) {
    w.f64(c.intensity_threshold);
    w.usize(c.max_peaks);
    w.usize(c.min_peaks);
    w.f64(c.min_mz);
    w.f64(c.max_mz);
    w.f64(c.bin_width);
    w.u8(match c.scaling {
        IntensityScaling::None => 0,
        IntensityScaling::Sqrt => 1,
        IntensityScaling::Rank => 2,
    });
}

fn get_preprocess(r: &mut Reader<'_>) -> Result<PreprocessConfig, IndexError> {
    Ok(PreprocessConfig {
        intensity_threshold: r.f64("preprocess.intensity_threshold")?,
        max_peaks: r.u64("preprocess.max_peaks")? as usize,
        min_peaks: r.u64("preprocess.min_peaks")? as usize,
        min_mz: r.f64("preprocess.min_mz")?,
        max_mz: r.f64("preprocess.max_mz")?,
        bin_width: r.f64("preprocess.bin_width")?,
        scaling: match r.u8("preprocess.scaling")? {
            0 => IntensityScaling::None,
            1 => IntensityScaling::Sqrt,
            2 => IntensityScaling::Rank,
            other => {
                return Err(WireError::InvalidValue {
                    what: "preprocess.scaling",
                    value: u64::from(other),
                }
                .into())
            }
        },
    })
}

fn put_encoder(w: &mut Writer, c: &EncoderConfig) {
    w.usize(c.dim);
    w.usize(c.q_levels);
    w.u8(match c.id_precision {
        IdPrecision::Bits1 => 1,
        IdPrecision::Bits2 => 2,
        IdPrecision::Bits3 => 3,
    });
    match c.level_style {
        LevelStyle::Random => {
            w.u8(0);
            w.usize(0);
        }
        LevelStyle::Chunked { num_chunks } => {
            w.u8(1);
            w.usize(num_chunks);
        }
    }
    w.usize(c.num_bins);
    w.u64(c.seed);
}

fn get_encoder(r: &mut Reader<'_>) -> Result<EncoderConfig, IndexError> {
    let dim = r.u64("encoder.dim")? as usize;
    let q_levels = r.u64("encoder.q_levels")? as usize;
    let id_precision = match r.u8("encoder.id_precision")? {
        1 => IdPrecision::Bits1,
        2 => IdPrecision::Bits2,
        3 => IdPrecision::Bits3,
        other => {
            return Err(WireError::InvalidValue {
                what: "encoder.id_precision",
                value: u64::from(other),
            }
            .into())
        }
    };
    let style_tag = r.u8("encoder.level_style")?;
    let num_chunks = r.u64("encoder.num_chunks")? as usize;
    let level_style = match style_tag {
        0 => LevelStyle::Random,
        1 => LevelStyle::Chunked { num_chunks },
        other => {
            return Err(WireError::InvalidValue {
                what: "encoder.level_style",
                value: u64::from(other),
            }
            .into())
        }
    };
    Ok(EncoderConfig {
        dim,
        q_levels,
        id_precision,
        level_style,
        num_bins: r.u64("encoder.num_bins")? as usize,
        seed: r.u64("encoder.seed")?,
    })
}

fn put_mlc(w: &mut Writer, c: &MlcConfig) {
    w.u8(c.bits_per_cell);
    w.f64(c.g_max_us);
    w.f64(c.lambda_program_us);
    w.f64(c.lambda_relax_us);
    w.f64(c.relax_tau_s);
    w.f64(c.drift_us);
    w.f64(c.stability_floor);
    w.f64(c.stability_span);
    w.f64(c.defect_rate);
}

fn get_mlc(r: &mut Reader<'_>) -> Result<MlcConfig, IndexError> {
    Ok(MlcConfig {
        bits_per_cell: r.u8("mlc.bits_per_cell")?,
        g_max_us: r.f64("mlc.g_max_us")?,
        lambda_program_us: r.f64("mlc.lambda_program_us")?,
        lambda_relax_us: r.f64("mlc.lambda_relax_us")?,
        relax_tau_s: r.f64("mlc.relax_tau_s")?,
        drift_us: r.f64("mlc.drift_us")?,
        stability_floor: r.f64("mlc.stability_floor")?,
        stability_span: r.f64("mlc.stability_span")?,
        defect_rate: r.f64("mlc.defect_rate")?,
    })
}

fn put_crossbar(w: &mut Writer, c: &CrossbarConfig) {
    put_mlc(w, &c.mlc);
    w.usize(c.rows);
    w.usize(c.cols);
    w.usize(c.activated_rows);
    w.u8(c.adc_bits);
    w.f64(c.sense_sigma);
    w.f64(c.ir_drop_factor);
    w.f64(c.age_s);
}

fn get_crossbar(r: &mut Reader<'_>) -> Result<CrossbarConfig, IndexError> {
    Ok(CrossbarConfig {
        mlc: get_mlc(r)?,
        rows: r.u64("crossbar.rows")? as usize,
        cols: r.u64("crossbar.cols")? as usize,
        activated_rows: r.u64("crossbar.activated_rows")? as usize,
        adc_bits: r.u8("crossbar.adc_bits")?,
        sense_sigma: r.f64("crossbar.sense_sigma")?,
        ir_drop_factor: r.f64("crossbar.ir_drop_factor")?,
        age_s: r.f64("crossbar.age_s")?,
    })
}

fn put_exact(w: &mut Writer, c: &ExactBackendConfig) {
    put_preprocess(w, &c.preprocess);
    put_encoder(w, &c.encoder);
    w.usize(c.threads);
    w.f64(c.encode_ber);
    w.f64(c.storage_ber);
    w.u64(c.noise_seed);
}

fn get_exact(r: &mut Reader<'_>) -> Result<ExactBackendConfig, IndexError> {
    Ok(ExactBackendConfig {
        preprocess: get_preprocess(r)?,
        encoder: get_encoder(r)?,
        threads: r.u64("exact.threads")? as usize,
        encode_ber: r.f64("exact.encode_ber")?,
        storage_ber: r.f64("exact.storage_ber")?,
        noise_seed: r.u64("exact.noise_seed")?,
    })
}

fn put_hyperoms(w: &mut Writer, c: &HyperOmsConfig) {
    put_preprocess(w, &c.preprocess);
    w.usize(c.dim);
    w.usize(c.q_levels);
    w.usize(c.threads);
    w.u64(c.seed);
}

fn get_hyperoms(r: &mut Reader<'_>) -> Result<HyperOmsConfig, IndexError> {
    Ok(HyperOmsConfig {
        preprocess: get_preprocess(r)?,
        dim: r.u64("hyperoms.dim")? as usize,
        q_levels: r.u64("hyperoms.q_levels")? as usize,
        threads: r.u64("hyperoms.threads")? as usize,
        seed: r.u64("hyperoms.seed")?,
    })
}

fn put_accelerator(w: &mut Writer, c: &AcceleratorConfig) {
    put_preprocess(w, &c.preprocess);
    put_encoder(w, &c.encoder);
    put_crossbar(w, &c.crossbar);
    w.usize(c.threads);
    w.u64(c.seed);
}

fn get_accelerator(r: &mut Reader<'_>) -> Result<AcceleratorConfig, IndexError> {
    Ok(AcceleratorConfig {
        preprocess: get_preprocess(r)?,
        encoder: get_encoder(r)?,
        crossbar: get_crossbar(r)?,
        threads: r.u64("accelerator.threads")? as usize,
        seed: r.u64("accelerator.seed")?,
    })
}

/// Encode a backend kind (tag + its config).
pub fn put_kind(w: &mut Writer, kind: &IndexedBackendKind) {
    match kind {
        IndexedBackendKind::Exact(c) => {
            w.u8(0);
            put_exact(w, c);
        }
        IndexedBackendKind::HyperOms(c) => {
            w.u8(1);
            put_hyperoms(w, c);
        }
        IndexedBackendKind::Rram(c) => {
            w.u8(2);
            put_accelerator(w, c);
        }
    }
}

/// Decode a backend kind.
pub fn get_kind(r: &mut Reader<'_>) -> Result<IndexedBackendKind, IndexError> {
    Ok(match r.u8("backend.kind")? {
        0 => IndexedBackendKind::Exact(get_exact(r)?),
        1 => IndexedBackendKind::HyperOms(get_hyperoms(r)?),
        2 => IndexedBackendKind::Rram(get_accelerator(r)?),
        other => {
            return Err(WireError::InvalidValue {
                what: "backend.kind",
                value: u64::from(other),
            }
            .into())
        }
    })
}

/// Encode build statistics.
pub fn put_build_stats(w: &mut Writer, s: &BuildStats) {
    w.usize(s.references_stored);
    w.usize(s.references_rejected);
    w.f64(s.mean_encode_ber);
}

/// Decode build statistics.
pub fn get_build_stats(r: &mut Reader<'_>) -> Result<BuildStats, IndexError> {
    Ok(BuildStats {
        references_stored: r.u64("stats.references_stored")? as usize,
        references_rejected: r.u64("stats.references_rejected")? as usize,
        mean_encode_ber: r.f64("stats.mean_encode_ber")?,
    })
}

/// Everything of a `.hdx` image except where its hypervector words come
/// from: the one container writer ([`ImageLayout::write`]) lays these
/// fields out around words the caller supplies per entry — out of a
/// reference table for a loaded or cold-built index, out of a spill file
/// for the streaming builder — so the two cannot drift.
pub(crate) struct ImageLayout<'a> {
    pub kind: &'a IndexedBackendKind,
    pub stats: &'a BuildStats,
    pub entries_per_shard: usize,
    pub mlc: Option<&'a MlcState>,
    /// The shards' entries in file order, each sorted by `(mass, id)`.
    pub shards: Vec<&'a [IndexEntry]>,
}

impl ImageLayout<'_> {
    /// Write the image to `out` at the current format version and
    /// return its length in bytes: preamble, checksummed header, then
    /// the MLC, sketch and shard sections, each zero-padded to an
    /// 8-aligned absolute offset and followed by its XXH64 trailer.
    ///
    /// A shard section payload is the entry metadata records (with a
    /// presence flag instead of inline words), zero padding to an 8-byte
    /// boundary, then every present hypervector's `ceil(dim / 64)`
    /// packed words concatenated in entry order — so every word block is
    /// 8-aligned in the file and can be searched in place. Every section
    /// length is computable from the metadata alone, which is what lets
    /// the header go out first and the shards follow one at a time
    /// through one reused payload buffer: nothing the size of the
    /// hypervector payload is ever resident here.
    ///
    /// `present(id)` says whether entry `id` has a stored hypervector;
    /// `write_words(id, w)` must append exactly its packed little-endian
    /// words. It is called once per present entry, in entry order.
    ///
    /// # Errors
    ///
    /// A failing `out` or `write_words` aborts the write with its error.
    pub(crate) fn write<W: Write>(
        &self,
        out: W,
        sketch_bytes: Vec<u8>,
        present: impl Fn(u32) -> bool,
        mut write_words: impl FnMut(u32, &mut Writer) -> Result<(), IndexError>,
    ) -> Result<u64, IndexError> {
        let dim = self.kind.dim();
        let mlc_bytes = self.mlc.map(put_mlc_state);

        let mut header = Writer::new();
        put_kind(&mut header, self.kind);
        put_build_stats(&mut header, self.stats);
        header.usize(self.entries_per_shard);
        header.usize(self.shards.iter().map(|entries| entries.len()).sum());
        header.usize(mlc_bytes.as_ref().map_or(0, Vec::len));
        header.usize(sketch_bytes.len());
        header.usize(self.shards.len());
        for entries in &self.shards {
            // Per entry: u32 id + f64 mass + f64 m/z + u8 charge + u8
            // decoy + (u64 length + bytes) peptide + u8 presence.
            let meta: usize = 8 + entries.iter().map(|e| 31 + e.peptide.len()).sum::<usize>();
            let stored = entries.iter().filter(|e| present(e.id)).count();
            header.usize(meta + pad_to_8(meta) + stored * dim.div_ceil(64) * 8);
        }
        let header = header.into_bytes();

        let mut sink = SectionSink { out, pos: 0 };
        sink.raw(&MAGIC)?;
        sink.raw(&FORMAT_VERSION.to_le_bytes())?;
        sink.raw(&(header.len() as u64).to_le_bytes())?;
        sink.raw(&header)?;
        sink.raw(&xxh64(&header, CHECKSUM_SEED).to_le_bytes())?;
        if let Some(bytes) = &mlc_bytes {
            sink.section(bytes)?;
        }
        sink.section(&sketch_bytes)?;
        drop(sketch_bytes);

        let mut payload = Writer::new();
        for entries in &self.shards {
            payload.clear();
            payload.usize(entries.len());
            for e in *entries {
                put_entry_meta(&mut payload, e);
                payload.u8(u8::from(present(e.id)));
            }
            for _ in 0..pad_to_8(payload.len()) {
                payload.u8(0);
            }
            for e in entries.iter().filter(|e| present(e.id)) {
                write_words(e.id, &mut payload)?;
            }
            sink.section(payload.as_bytes())?;
        }
        Ok(sink.pos as u64)
    }
}

/// A positioned writer that frames sections: zero padding to the next
/// 8-aligned absolute offset, the payload, then its checksum.
struct SectionSink<W: Write> {
    out: W,
    pos: usize,
}

impl<W: Write> SectionSink<W> {
    fn raw(&mut self, bytes: &[u8]) -> Result<(), IndexError> {
        self.out.write_all(bytes)?;
        self.pos += bytes.len();
        Ok(())
    }

    fn section(&mut self, payload: &[u8]) -> Result<(), IndexError> {
        const ZEROS: [u8; 8] = [0u8; 8];
        let pad = pad_to_8(self.pos);
        self.raw(&ZEROS[..pad])?;
        self.raw(payload)?;
        self.raw(&xxh64(payload, CHECKSUM_SEED).to_le_bytes())
    }
}

/// Run `body` against a buffered temp file next to `out` (`out` with
/// extension `hdx.tmp`, so the final rename stays on one filesystem) and
/// rename it into place, so a crashed or failed write never leaves a
/// half-image behind: on any error — create, `body`, flush or rename —
/// the temp file is removed here, once, for every caller.
pub(crate) fn write_atomically<T>(
    out: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> Result<T, IndexError>,
) -> Result<T, IndexError> {
    let tmp = out.with_extension("hdx.tmp");
    let result = File::create(&tmp)
        .map_err(IndexError::from)
        .and_then(|file| {
            let mut file = BufWriter::new(file);
            let value = body(&mut file)?;
            file.flush()?;
            drop(file);
            fs::rename(&tmp, out)?;
            Ok(value)
        });
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn put_entry_meta(w: &mut Writer, e: &IndexEntry) {
    w.u32(e.id);
    w.f64(e.neutral_mass);
    w.f64(e.precursor_mz);
    w.u8(e.precursor_charge);
    w.u8(u8::from(e.is_decoy));
    w.str(&e.peptide);
}

/// Decode one **v1** shard section payload into its metadata entries
/// plus, for every present hypervector, `(id, byte offset of its words
/// *within this payload*)`. A v1 payload carries each entry's words
/// inline after its record, length-prefixed and unaligned, so the loader
/// cannot search them in place — it copies them out once.
pub fn get_shard(bytes: &[u8], dim: usize) -> Result<(Shard, Vec<(u32, usize)>), IndexError> {
    let mut r = Reader::new(bytes);
    let count = r.checked_len("shard.entry_count", 1)?;
    let mut entries = Vec::with_capacity(count);
    let mut offsets = Vec::with_capacity(count);
    for _ in 0..count {
        let (entry, hv_present) = get_entry_meta(&mut r)?;
        if hv_present {
            let words = r.checked_len("entry.hv_words", 8)?;
            let expected = dim.div_ceil(64);
            if words != expected {
                return Err(IndexError::Invalid(format!(
                    "entry {}: hypervector has {words} words, dimension {dim} needs {expected}",
                    entry.id
                )));
            }
            offsets.push((entry.id, bytes.len() - r.remaining()));
            r.raw(words * 8, "entry.hv_words")?;
        }
        entries.push(entry);
    }
    r.expect_end("shard")?;
    Ok((Shard { entries }, offsets))
}

/// Decode one **v2** shard section payload into its metadata entries
/// plus, for every present hypervector, `(id, byte offset of its word
/// block *within this payload*)`. The caller adds the payload's
/// absolute file offset to turn these into reference-table offsets.
///
/// Validates everything the mapped search path relies on: the padding
/// bytes are zero, every word block's unused tail bits are zero, and
/// the payload is consumed exactly.
pub fn get_shard_v2(bytes: &[u8], dim: usize) -> Result<(Shard, Vec<(u32, usize)>), IndexError> {
    let mut r = Reader::new(bytes);
    let count = r.checked_len("shard.entry_count", 1)?;
    let mut entries = Vec::with_capacity(count);
    let mut present: Vec<u32> = Vec::new();
    for _ in 0..count {
        let (entry, hv_present) = get_entry_meta(&mut r)?;
        if hv_present {
            present.push(entry.id);
        }
        entries.push(entry);
    }
    let meta_len = bytes.len() - r.remaining();
    let pad = r.raw(pad_to_8(meta_len), "shard.padding")?;
    if pad.iter().any(|&b| b != 0) {
        return Err(IndexError::Invalid(
            "nonzero alignment padding in shard section".to_owned(),
        ));
    }
    let word_count = dim.div_ceil(64);
    let block_len = word_count * 8;
    let mut offsets = Vec::with_capacity(present.len());
    let mut offset = meta_len + pad.len();
    for id in present {
        let block = r.raw(block_len, "shard.hv_words")?;
        let tail_bits = dim % 64;
        if tail_bits != 0 {
            let last =
                u64::from_le_bytes(block[block_len - 8..].try_into().expect("8-byte tail word"));
            if last & !((1u64 << tail_bits) - 1) != 0 {
                return Err(IndexError::Invalid(format!(
                    "entry {id}: hypervector tail bits beyond dimension {dim} are set"
                )));
            }
        }
        offsets.push((id, offset));
        offset += block_len;
    }
    r.expect_end("shard")?;
    Ok((Shard { entries }, offsets))
}

fn get_entry_meta(r: &mut Reader<'_>) -> Result<(IndexEntry, bool), IndexError> {
    let id = r.u32("entry.id")?;
    let neutral_mass = r.f64("entry.neutral_mass")?;
    let precursor_mz = r.f64("entry.precursor_mz")?;
    let precursor_charge = r.u8("entry.precursor_charge")?;
    let is_decoy = match r.u8("entry.is_decoy")? {
        0 => false,
        1 => true,
        other => {
            return Err(WireError::InvalidValue {
                what: "entry.is_decoy",
                value: u64::from(other),
            }
            .into())
        }
    };
    let peptide = r.str("entry.peptide")?;
    let hv_present = match r.u8("entry.hv_present")? {
        0 => false,
        1 => true,
        other => {
            return Err(WireError::InvalidValue {
                what: "entry.hv_present",
                value: u64::from(other),
            }
            .into())
        }
    };
    Ok((
        IndexEntry {
            id,
            neutral_mass,
            precursor_mz,
            precursor_charge,
            is_decoy,
            peptide,
        },
        hv_present,
    ))
}

/// Encode the MLC section payload.
pub fn put_mlc_state(state: &MlcState) -> Vec<u8> {
    let mut w = Writer::new();
    w.f32_slice(&state.w_eff);
    w.f64(state.sigma_delta);
    w.into_bytes()
}

/// Decode the MLC section payload.
pub fn get_mlc_state(bytes: &[u8]) -> Result<MlcState, IndexError> {
    let mut r = Reader::new(bytes);
    let w_eff = r.f32_slice("mlc_state.w_eff")?;
    let sigma_delta = r.f64("mlc_state.sigma_delta")?;
    r.expect_end("mlc_state")?;
    Ok(MlcState { w_eff, sigma_delta })
}

/// Encode the **v3** prefilter sketch section payload: the full
/// hypervector word count, the sampled word indices, the slot count, the
/// presence bitset, and the dense `slots × words` signature table.
pub fn put_sketches(sketch: &SketchIndex) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(sketch.full_words());
    w.usize(sketch.selected().len());
    for &word in sketch.selected() {
        w.u32(word);
    }
    w.usize(sketch.len());
    w.u64_slice(sketch.present_bits());
    w.u64_slice(sketch.table());
    w.into_bytes()
}

/// Decode the **v3** prefilter sketch section payload, validating the
/// structural invariants [`SketchIndex::from_parts`] enforces.
pub fn get_sketches(bytes: &[u8]) -> Result<SketchIndex, IndexError> {
    let mut r = Reader::new(bytes);
    let full_words = r.u64("sketch.full_words")? as usize;
    let count = r.checked_len("sketch.selected_count", 4)?;
    let mut selected = Vec::with_capacity(count);
    for _ in 0..count {
        selected.push(r.u32("sketch.selected")?);
    }
    let slots = r.u64("sketch.slots")? as usize;
    let present = r.u64_slice("sketch.present")?;
    let table = r.u64_slice("sketch.table")?;
    r.expect_end("sketch")?;
    SketchIndex::from_parts(full_words, selected, table, present, slots)
        .map_err(IndexError::Invalid)
}
