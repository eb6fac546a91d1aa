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
//! independently — which is what lets [`IndexReader`](crate::IndexReader)
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
//! per-reference hypervector is ever materialised. Version 1 files stay
//! readable through the original copying decoder.
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
use hdoms_baselines::hyperoms::HyperOmsConfig;
use hdoms_core::accelerator::{AcceleratorConfig, BuildStats};
use hdoms_hdc::encoder::EncoderConfig;
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::multibit::IdPrecision;
use hdoms_hdc::BinaryHypervector;
use hdoms_ms::preprocess::{IntensityScaling, PreprocessConfig};
use hdoms_oms::search::{ExactBackendConfig, SharedReferences};
use hdoms_prefilter::SketchIndex;
use hdoms_rram::array::CrossbarConfig;
use hdoms_rram::config::MlcConfig;
use std::fmt;

/// Magic bytes opening every index file.
pub const MAGIC: [u8; 8] = *b"HDOMSIDX";

/// Current format version (written by default). Readers reject anything
/// newer.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version readers still decode (v1 loads through the
/// copying path; v2 and v3 support mapped loads; only v3 carries the
/// persisted prefilter sketch section).
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

/// One indexed reference: the search metadata.
///
/// The encoded hypervector itself lives in the index's flat shared
/// reference table (keyed by [`IndexEntry::id`]), not in the entry — that
/// is what lets a loaded index and every warm backend reconstructed from
/// it share a single copy of the encoded library. On disk the hypervectors
/// sit in each shard's word block (see [`put_shard_v2`]).
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

/// Encode one shard's entries into a standalone **v2** section payload:
/// the entry metadata records first (with a presence flag instead of
/// inline words), zero padding to an 8-byte boundary, then every present
/// hypervector's `ceil(dim / 64)` packed words concatenated in entry
/// order. Provided the payload itself starts at an 8-aligned file
/// offset (the v2 container guarantees it), every word block is
/// 8-aligned in the file and can be searched in place.
///
/// # Panics
///
/// Panics if an entry id falls outside `references` or a stored
/// hypervector's dimension disagrees with `dim`.
pub fn put_shard_v2(shard: &Shard, dim: usize, references: &SharedReferences) -> Vec<u8> {
    let result = put_shard_v2_with(
        &shard.entries,
        |id| references.hv(id as usize).is_some(),
        |id, w| {
            let hv = references.hv(id as usize).expect("flagged present");
            assert_eq!(hv.dim(), dim, "stored hypervector dimension mismatch");
            for &word in hv.words() {
                w.u64(word);
            }
            Ok::<(), std::convert::Infallible>(())
        },
    );
    match result {
        Ok(bytes) => bytes,
        Err(never) => match never {},
    }
}

/// The generalised **v2** shard serialiser behind [`put_shard_v2`]: the
/// caller supplies the presence predicate and a word-block writer instead
/// of an in-memory reference table, so the hypervector words can come
/// from anywhere — including a spill file, which is how the streaming
/// index builder emits a shard without ever materialising its
/// hypervectors as [`BinaryHypervector`]s.
///
/// `write_words(id, w)` must append exactly `ceil(dim / 64)` packed
/// little-endian `u64` words for entry `id` (the same bytes
/// [`put_shard_v2`] would write); it is called once per present entry, in
/// entry order, and its error aborts serialisation.
pub fn put_shard_v2_with<E>(
    entries: &[IndexEntry],
    present: impl Fn(u32) -> bool,
    mut write_words: impl FnMut(u32, &mut Writer) -> Result<(), E>,
) -> Result<Vec<u8>, E> {
    let mut w = Writer::new();
    w.usize(entries.len());
    for e in entries {
        put_entry_meta(&mut w, e);
        w.u8(u8::from(present(e.id)));
    }
    for _ in 0..pad_to_8(w.len()) {
        w.u8(0);
    }
    for e in entries {
        if present(e.id) {
            write_words(e.id, &mut w)?;
        }
    }
    Ok(w.into_bytes())
}

/// The exact byte length [`put_shard_v2`] / [`put_shard_v2_with`] will
/// produce for a shard holding `entries`, computed from the metadata
/// alone: the v2 layout is `count` + per-entry metadata-and-presence
/// records, zero padding to an 8-byte boundary, then one
/// `ceil(dim / 64) * 8`-byte word block per present entry. Knowing every
/// section length before serialising any hypervector words is what lets
/// the streaming builder write the container header first and then emit
/// shards one at a time.
pub fn shard_v2_payload_len(
    entries: &[IndexEntry],
    dim: usize,
    present: impl Fn(u32) -> bool,
) -> usize {
    // Per entry: u32 id + f64 mass + f64 m/z + u8 charge + u8 decoy +
    // (u64 length + bytes) peptide + u8 presence = 31 + peptide bytes.
    let meta: usize = 8 + entries.iter().map(|e| 31 + e.peptide.len()).sum::<usize>();
    let stored = entries.iter().filter(|e| present(e.id)).count();
    meta + pad_to_8(meta) + stored * dim.div_ceil(64) * 8
}

/// Encode the container header (the per-index metadata block that
/// precedes every section): backend kind, build statistics, shard
/// geometry, section lengths (the v3 layout — older headers, which lack
/// the `sketch_len` field, are decode-only). Both the in-memory
/// serialiser and the streaming builder emit their headers through this
/// function, so the two paths cannot drift.
pub fn encode_header(
    kind: &IndexedBackendKind,
    stats: &BuildStats,
    entries_per_shard: usize,
    entry_count: usize,
    mlc_len: usize,
    sketch_len: usize,
    shard_lens: &[usize],
) -> Vec<u8> {
    let mut header = Writer::new();
    put_kind(&mut header, kind);
    put_build_stats(&mut header, stats);
    header.usize(entries_per_shard);
    header.usize(entry_count);
    header.usize(mlc_len);
    header.usize(sketch_len);
    header.usize(shard_lens.len());
    for &len in shard_lens {
        header.usize(len);
    }
    header.into_bytes()
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
/// plus the present `(id, hypervector)` pairs (destined for the flat
/// table).
pub fn get_shard(
    bytes: &[u8],
    dim: usize,
) -> Result<(Shard, Vec<(u32, BinaryHypervector)>), IndexError> {
    let mut r = Reader::new(bytes);
    let count = r.checked_len("shard.entry_count", 1)?;
    let mut entries = Vec::with_capacity(count);
    let mut hvs = Vec::with_capacity(count);
    for _ in 0..count {
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
        match r.u8("entry.hv_present")? {
            0 => {}
            1 => {
                let words = r.checked_len("entry.hv_words", 8)?;
                let expected = dim.div_ceil(64);
                if words != expected {
                    return Err(IndexError::Invalid(format!(
                        "entry {id}: hypervector has {words} words, dimension {dim} needs {expected}"
                    )));
                }
                let bytes = r.raw(words * 8, "entry.hv_words")?;
                hvs.push((id, hypervector_from_bytes(dim, bytes)));
            }
            other => {
                return Err(WireError::InvalidValue {
                    what: "entry.hv_present",
                    value: u64::from(other),
                }
                .into())
            }
        }
        entries.push(IndexEntry {
            id,
            neutral_mass,
            precursor_mz,
            precursor_charge,
            is_decoy,
            peptide,
        });
    }
    r.expect_end("shard")?;
    Ok((Shard { entries }, hvs))
}

/// Decode one **v2** shard section payload into its metadata entries
/// plus, for every present hypervector, `(id, byte offset of its word
/// block *within this payload*)`. The caller adds the payload's
/// absolute file offset to turn these into mapped-table offsets — or
/// materialises owned hypervectors from the same ranges (the copying
/// v2 path).
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

/// Rebuild a bit-packed hypervector by filling its words straight from
/// the file buffer (no intermediate per-entry allocation).
pub(crate) fn hypervector_from_bytes(dim: usize, bytes: &[u8]) -> BinaryHypervector {
    let mut hv = BinaryHypervector::zeros(dim);
    for (word, chunk) in hv.words_mut().iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    hv.mask_tail();
    hv
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
