//! The versioned `HDX` on-disk format: section layout, the one section
//! frame and one codec per persisted record. `docs/FORMAT.md` is the
//! byte-level specification; this is its implementation.
//!
//! ## Layout (format versions 1–3; the writer emits version 3 only,
//! versions 1 and 2 are decode-only — golden images under
//! `tests/fixtures/` keep their readers honest)
//!
//! ```text
//! preamble   magic "HDOMSIDX" (8) · format version u32 · header length u64
//! header     backend kind + configs · build stats · entries per shard ·
//!            entry count · MLC section length · sketch section length
//!            (v3; 0 from this writer) · shard table (byte length per
//!            shard)                                   + XXH64 trailer
//! mlc        differential ID-memory weight pairs (f32) · σ_δ
//!            (present only for the RRAM accelerator kind) + XXH64 trailer
//! sketch     legacy: prefilter signatures an earlier v3 writer stored
//!            (verified, then skipped)                  + XXH64 trailer
//! shard[i]   entry count · entry records, each with a presence flag ·
//!            the present hypervectors' words               + XXH64 trailer
//! ```
//!
//! Every section carries its own [XXH64](crate::xxhash::xxh64) digest, so
//! corruption is pinned to a section, and shard payloads can be decoded
//! independently — which is what lets [`LibraryIndex::from_buffer`](crate::LibraryIndex::from_buffer)
//! validate and decode shards in parallel.
//!
//! **Version 1** keeps each hypervector's words inline after its entry
//! record, length-prefixed and unaligned: the loader repacks them once
//! into a fresh flat buffer. **Version 2** zero-pads every section
//! payload to an 8-aligned absolute file offset and moves a shard's
//! words into one contiguous, internally 8-aligned block behind its
//! entry records (zero padding between), so a file is searchable **in
//! place**: the word block offsets become a reference table over the
//! single file buffer, and no per-reference hypervector is ever
//! materialised. **Version 3** adds one optional section between the
//! MLC and shard sections, plus its length field in the header: the
//! prefilter's sketch signatures, a second copy of words the shards
//! already hold. This writer emits `sketch_len = 0` and no section; a
//! section an earlier writer stored is located and checksum-verified,
//! then dropped. Every index derives its sketch from its own references
//! ([`crate::LibraryIndex::sketch_index`]), whatever its version.
//!
//! ## One spelling per persisted fact
//!
//! Every record — the seven configs, the kind tag, the build stats, the
//! header, the shard entry and the MLC state — is one `record!` field
//! list. From that list come its bytes (`Put`), its validating decoder
//! with the decode-error labels (`Get`: `"encoder.q_levels"`, …) and its
//! row in `docs/FORMAT.md` (held to the document by the unit test
//! below); its encoded length is what the encoder appends, and a field's
//! offset is where a decode of the cut record stops. Every section is
//! framed — zero pad to 8, payload, XXH64 — by one type, `Frame`,
//! whichever way the bytes flow, and one function, `decode_shard`, reads
//! a shard payload of any version.

use crate::wire::{Reader, WireError};
use crate::xxhash::xxh64;
use hdoms_core::accelerator::{AcceleratorConfig, BuildStats};
use hdoms_hdc::encoder::EncoderConfig;
use hdoms_hdc::item_memory::LevelStyle;
use hdoms_hdc::kernels::packed_row_len;
use hdoms_hdc::multibit::IdPrecision;
use hdoms_ms::preprocess::{IntensityScaling, PreprocessConfig};
use hdoms_oms::pipeline::{ReferenceCatalog, ReferenceMeta};
use hdoms_oms::search::{ExactBackendConfig, HyperOmsConfig};
use hdoms_rram::array::CrossbarConfig;
use hdoms_rram::config::MlcConfig;
use std::borrow::Cow;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every index file.
pub(crate) const MAGIC: [u8; 8] = *b"HDOMSIDX";

/// Current format version (written by default). Readers reject anything
/// newer.
pub(crate) const FORMAT_VERSION: u32 = 3;

/// Oldest format version readers still decode (v2 and v3 are searched
/// in place; v1 words are unaligned and get repacked once at load).
pub(crate) const MIN_FORMAT_VERSION: u32 = 1;

/// Zero bytes needed after `pos` to reach an 8-byte boundary.
pub fn pad_to_8(pos: usize) -> usize {
    pos.wrapping_neg() % 8
}

/// Seed mixed into every section checksum (diversifies from other XXH64
/// users of the same bytes).
pub const CHECKSUM_SEED: u64 = 0x8d0a_51dc;

/// The most item-memory bytes a header may ask an open to regenerate:
/// the ID rows ([`packed_row_len`]`(dim)` bytes per bin) plus the level
/// rows (`dim` bytes per level). No file size justifies them — they are
/// derived from the seed, not stored — so the bound is a policy: 1 GiB,
/// over 150× the default configuration's 5.7 MB.
pub(crate) const MAX_ITEM_MEMORY_BYTES: usize = 1 << 30;

/// Anything that can go wrong building, writing or loading an index.
#[derive(Debug)]
pub enum IndexError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structural decode failure.
    Wire(WireError),
    /// The file does not start with `MAGIC`.
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

/// `Ok` when `ok` holds, [`IndexError::Invalid`] saying `why()` otherwise.
pub(crate) fn need<S: Into<String>>(ok: bool, why: impl FnOnce() -> S) -> Result<(), IndexError> {
    ok.then_some(())
        .ok_or_else(|| IndexError::Invalid(why().into()))
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

    /// Reject a decoded configuration the encoder constructors would
    /// panic on. The header is input from outside the program: its
    /// checksum proves the bytes are the ones written, not that a sane
    /// writer wrote them — so each config's own `check()` (what
    /// [`IdLevelEncoder::new`](hdoms_hdc::encoder::IdLevelEncoder::new),
    /// [`Preprocessor::new`](hdoms_ms::preprocess::Preprocessor::new) and
    /// the crossbar panic on) runs here first, then the conditions that
    /// span records and the persisted MLC state (present exactly for the
    /// RRAM kind), and an open fails with [`IndexError::Invalid`] instead
    /// of a later search panicking.
    pub(crate) fn validate(&self, mlc: Option<&MlcState>) -> Result<(), IndexError> {
        let rram = matches!(self, IndexedBackendKind::Rram(_));
        need(mlc.is_some() || !rram, || {
            "rram index is missing its MLC section"
        })?;
        need(mlc.is_none() || rram, || {
            "software index carries an MLC section"
        })?;
        let invalid = |why: &str| {
            IndexError::Invalid(format!("{} backend configuration: {why}", self.name()))
        };
        let must = |ok: bool, why: &str| ok.then_some(()).ok_or_else(|| invalid(why));
        // Preprocessing first: `num_bins()` (which the HyperOMS encoder
        // mapping below calls) overflows on a non-finite bin count.
        let pre = self.preprocess();
        pre.check().map_err(invalid)?;
        let enc = match self {
            IndexedBackendKind::Exact(c) => c.encoder,
            IndexedBackendKind::HyperOms(c) => c.exact_config(1).encoder,
            IndexedBackendKind::Rram(c) => c.encoder,
        };
        enc.check().map_err(invalid)?;
        must(
            pre.num_bins() <= enc.num_bins,
            "encoder.num_bins must cover every preprocessing bin",
        )?;
        let level_bytes = enc.q_levels.checked_mul(enc.dim);
        let item_bytes = enc
            .num_bins
            .checked_mul(packed_row_len(enc.dim))
            .and_then(|id_bytes| id_bytes.checked_add(level_bytes?));
        must(
            item_bytes.is_some_and(|bytes| bytes <= MAX_ITEM_MEMORY_BYTES),
            "item memories (num_bins ID rows + q_levels level rows) exceed MAX_ITEM_MEMORY_BYTES",
        )?;
        match self {
            IndexedBackendKind::Exact(c) => must(
                (0.0..=1.0).contains(&c.encode_ber) && (0.0..=1.0).contains(&c.storage_ber),
                "injected bit-error rates must lie in [0, 1]",
            ),
            IndexedBackendKind::HyperOms(_) => Ok(()),
            IndexedBackendKind::Rram(c) => {
                c.crossbar.check().map_err(invalid)?;
                must(
                    c.crossbar.mlc.bits_per_cell == enc.id_precision.bits(),
                    "mlc.bits_per_cell must equal the ID precision",
                )?;
                must(
                    mlc.is_some_and(|state| {
                        state.w_eff.len() == enc.num_bins * enc.dim
                            && state.sigma_delta.is_finite()
                            && state.sigma_delta >= 0.0
                    }),
                    "MLC section must hold num_bins × dim weights and a finite σ_δ ≥ 0",
                )
            }
        }
    }
}

/// MLC programming state persisted for the RRAM accelerator kind: the
/// effective differential weight pairs of the programmed position-ID item
/// memory, so a warm load skips re-sampling the device model. The
/// weights are the allocation the index's in-memory encoder reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MlcState {
    /// Effective differential weights `(g⁺−g⁻)/g_max`, flattened
    /// `[bin][dim]`.
    pub w_eff: Arc<[f32]>,
    /// RMS per-pair normalised conductance deviation of the programmed
    /// array.
    pub sigma_delta: f64,
}

// ---------------------------------------------------------------------------
// Field codecs: crate-private, statically dispatched (no serialisation
// crate resolves offline). Everything is little-endian and packed.
// ---------------------------------------------------------------------------

/// The encoding half of a persisted field — implemented for the borrowed
/// forms (`[T]`, `str`), so a slice is written without a copy.
pub(crate) trait Put {
    /// Append the encoding.
    fn put(&self, w: &mut Vec<u8>);
}

/// The decoding half: the validating reader — and, for the test that
/// holds `docs/FORMAT.md` to the field lists, how the field reads there.
/// A decoded value may borrow from the bytes `'a` it is read out of.
pub(crate) trait Get<'a>: Sized {
    /// Decode, labelling failures `what`.
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, IndexError>;
    /// `"<type> <name>"` — or, for a record, its own name.
    #[cfg(test)]
    fn doc(name: &str) -> String;
}

/// A record: a named field list with a row in `docs/FORMAT.md`.
#[cfg(test)]
pub(crate) trait Record {
    /// `name: field · field · …`, as the document spells it.
    fn row() -> String;
}

/// Fixed-width scalars (`$wire` is the type on disk: every `usize` is a
/// `u64` there) and, per scalar, `T[]` read into `$array` (the weights'
/// `f32[]` straight into the slice they are shared as): a `u64` element
/// count bounded by the bytes left before anything is allocated, then
/// the elements.
macro_rules! scalars {
    ($($ty:ident as $wire:ident in $array:ty),*) => {$(
        impl Put for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&(*self as $wire).to_le_bytes());
            }
        }
        impl Get<'_> for $ty {
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$ty, IndexError> {
                let bytes = r.raw(std::mem::size_of::<$wire>(), what)?;
                Ok(<$wire>::from_le_bytes(bytes.try_into().expect("sized read")) as $ty)
            }
            #[cfg(test)]
            fn doc(name: &str) -> String {
                format!("{} {name}", stringify!($wire))
            }
        }
        impl Put for [$ty] {
            fn put(&self, w: &mut Vec<u8>) {
                self.len().put(w);
                w.reserve(std::mem::size_of_val(self));
                self.iter().for_each(|x| x.put(w));
            }
        }
        impl Get<'_> for $array {
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$array, IndexError> {
                let size = std::mem::size_of::<$wire>();
                let count = r.checked_len(what, size)?;
                let body = r.raw(count * size, what)?;
                let elem = |c: &[u8]| <$wire>::from_le_bytes(c.try_into().expect("sized chunk"));
                Ok(body.chunks_exact(size).map(|c| elem(c) as $ty).collect())
            }
            #[cfg(test)]
            fn doc(name: &str) -> String {
                format!("{}[] {name}", stringify!($wire))
            }
        }
    )*};
}
scalars!(
    u8 as u8 in Vec<u8>,
    u32 as u32 in Vec<u32>,
    u64 as u64 in Vec<u64>,
    f32 as f32 in Arc<[f32]>,
    f64 as f64 in Vec<f64>,
    usize as u64 in Vec<usize>
);

/// `str`: a `u8[]` that must be UTF-8, decoded in place.
impl Put for str {
    fn put(&self, w: &mut Vec<u8>) {
        self.as_bytes().put(w);
    }
}

impl<'a> Get<'a> for Cow<'a, str> {
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, IndexError> {
        let len = r.checked_len(what, 1)?;
        let text = std::str::from_utf8(r.raw(len, what)?);
        Ok(Cow::Borrowed(
            text.map_err(|_| WireError::InvalidUtf8 { what })?,
        ))
    }
    #[cfg(test)]
    fn doc(name: &str) -> String {
        format!("str {name}")
    }
}

/// A field persisted as a one-byte tag: one table gives the encoder, the
/// range-checking decoder and the documented legend.
macro_rules! tagged {
    ($ty:ty { $($tag:literal = $name:literal => $($value:tt)::+),* $(,)? }) => {
        impl Put for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                w.push(match self { $($($value)::+ => $tag,)* });
            }
        }
        impl Get<'_> for $ty {
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$ty, IndexError> {
                match u8::get(r, what)? {
                    $($tag => Ok($($value)::+),)*
                    other => Err(WireError::InvalidValue { what, value: u64::from(other) }.into()),
                }
            }
            #[cfg(test)]
            fn doc(name: &str) -> String {
                format!("u8 {name} ({})", [$(concat!($tag, " = ", $name)),*].join(", "))
            }
        }
    };
}
tagged!(bool { 0 = "false" => false, 1 = "true" => true });
tagged!(IntensityScaling {
    0 = "none" => IntensityScaling::None,
    1 = "sqrt" => IntensityScaling::Sqrt,
    2 = "rank" => IntensityScaling::Rank,
});
tagged!(IdPrecision {
    1 = "1-bit" => IdPrecision::Bits1,
    2 = "2-bit" => IdPrecision::Bits2,
    3 = "3-bit" => IdPrecision::Bits3,
});

/// One declaration per persisted record: from the field list — names
/// and wire types, in wire order — come its [`Put`], its [`Get`] (every
/// field labelled `"<record>.<field>"`) and its [`Record`] row. The
/// `struct` form declares the struct as well; the `impl` form describes
/// one defined elsewhere — with a binder, each field names the place it
/// is written from and the trailing expression rebuilds the value from
/// the decoded fields; `[since N]` marks a field images older than
/// format `N` lack (it decodes to its default there); the `enum` form is
/// a one-byte tag choosing the record that follows. A record with a
/// lifetime names it `'a`: the bytes it is decoded from.
macro_rules! record {
    (@get $r:ident, $ty:ty, $label:expr) => { <$ty>::get($r, $label)? };
    (@get $r:ident, $ty:ty, $label:expr, $since:literal) => {
        if $r.version >= $since { <$ty>::get($r, $label)? } else { <$ty>::default() }
    };
    (
        $(#[$meta:meta])*
        struct $name:ident $(<$lt:lifetime>)? as $prefix:literal {
            $($field:ident: $ty:ty $([since $since:literal])?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub(crate) struct $name $(<$lt>)? {
            $(pub(crate) $field: $ty),*
        }
        record!(impl $name $(<$lt>)? as $prefix { $($field: $ty $([since $since])?),* });
    };
    (impl $name:ident $(<$lt:lifetime>)? as $prefix:literal {
        $($field:ident: $ty:ty $([since $since:literal])?),* $(,)?
    }) => {
        record! {
            impl $name $(<$lt>)? as $prefix, this {
                $($field: $ty $([since $since])? = this.$field),*
            } => Ok($name { $($field),* })
        }
    };
    (
        impl $name:ident $(<$lt:lifetime>)? as $prefix:literal, $this:ident {
            $($field:ident: $ty:ty $([since $since:literal])? = $place:expr),* $(,)?
        } => $build:expr
    ) => {
        impl $(<$lt>)? Put for $name $(<$lt>)? {
            fn put(&self, w: &mut Vec<u8>) {
                let $this = self;
                $($place.put(w);)*
            }
        }
        impl<'a> Get<'a> for $name $(<$lt>)? {
            fn get(r: &mut Reader<'a>, _what: &'static str) -> Result<Self, IndexError> {
                $(let $field = record!(
                    @get r, $ty, concat!($prefix, ".", stringify!($field)) $(, $since)?
                );)*
                $build
            }
            #[cfg(test)]
            fn doc(_name: &str) -> String {
                $prefix.to_owned()
            }
        }
        #[cfg(test)]
        impl $(<$lt>)? Record for $name $(<$lt>)? {
            fn row() -> String {
                let fields = [$(
                    <$ty>::doc(stringify!($field)) $(+ concat!(" (v", $since, "+)"))?
                ),*];
                format!("{}: {}", $prefix, fields.join(" · "))
            }
        }
    };
    (enum $name:ident as $prefix:literal { $($tag:literal => $variant:ident($ty:ty)),* $(,)? }) => {
        impl Put for $name {
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($name::$variant(c) => {
                        w.push($tag);
                        c.put(w);
                    })*
                }
            }
        }
        impl Get<'_> for $name {
            fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<$name, IndexError> {
                match u8::get(r, $prefix)? {
                    $($tag => Ok($name::$variant(<$ty>::get(r, $prefix)?)),)*
                    other => Err(WireError::InvalidValue { what: $prefix, value: u64::from(other) }.into()),
                }
            }
            #[cfg(test)]
            fn doc(_name: &str) -> String {
                $prefix.to_owned()
            }
        }
        #[cfg(test)]
        impl Record for $name {
            fn row() -> String {
                let choices = [$(format!("{} = {}", $tag, <$ty>::doc(""))),*];
                format!("{}: u8 tag · {}", $prefix, choices.join(" | "))
            }
        }
    };
}

record!(impl PreprocessConfig as "preprocess" {
    intensity_threshold: f64,
    max_peaks: usize,
    min_peaks: usize,
    min_mz: f64,
    max_mz: f64,
    bin_width: f64,
    scaling: IntensityScaling,
});

// The level style takes two slots: whether it is chunked, then the chunk
// count (0, and ignored, when it is random).
record! {
    impl LevelStyle as "level_style", this {
        chunked: bool = matches!(this, LevelStyle::Chunked { .. }),
        num_chunks: usize = match *this {
            LevelStyle::Chunked { num_chunks } => num_chunks,
            LevelStyle::Random => 0,
        },
    } => Ok(if chunked { LevelStyle::Chunked { num_chunks } } else { LevelStyle::Random })
}

record!(impl EncoderConfig as "encoder" {
    dim: usize,
    q_levels: usize,
    id_precision: IdPrecision,
    level_style: LevelStyle,
    num_bins: usize,
    seed: u64,
});

record!(impl MlcConfig as "mlc" {
    bits_per_cell: u8,
    g_max_us: f64,
    lambda_program_us: f64,
    lambda_relax_us: f64,
    relax_tau_s: f64,
    drift_us: f64,
    stability_floor: f64,
    stability_span: f64,
    defect_rate: f64,
});

record!(impl CrossbarConfig as "crossbar" {
    mlc: MlcConfig,
    rows: usize,
    cols: usize,
    activated_rows: usize,
    adc_bits: u8,
    sense_sigma: f64,
    ir_drop_factor: f64,
    age_s: f64,
});

// `threads` is a reserved slot in all three kinds: builders write 1 and
// every loader overrides it with its own worker count.
record!(impl ExactBackendConfig as "exact" {
    preprocess: PreprocessConfig,
    encoder: EncoderConfig,
    threads: usize,
    encode_ber: f64,
    storage_ber: f64,
    noise_seed: u64,
});

record!(impl HyperOmsConfig as "hyperoms" {
    preprocess: PreprocessConfig,
    dim: usize,
    q_levels: usize,
    threads: usize,
    seed: u64,
});

record!(impl AcceleratorConfig as "accelerator" {
    preprocess: PreprocessConfig,
    encoder: EncoderConfig,
    crossbar: CrossbarConfig,
    threads: usize,
    seed: u64,
});

record!(enum IndexedBackendKind as "backend.kind" {
    0 => Exact(ExactBackendConfig),
    1 => HyperOms(HyperOmsConfig),
    2 => Rram(AcceleratorConfig),
});

record!(impl BuildStats as "stats" {
    references_stored: usize,
    references_rejected: usize,
    mean_encode_ber: f64,
});

record! {
    /// The header section: what [`ImageLayout::write`] lays out first
    /// and the loader reads back before it touches any other section.
    struct Header as "header" {
        kind: IndexedBackendKind,
        stats: BuildStats,
        entries_per_shard: usize,
        entry_count: usize,
        mlc_len: usize,
        sketch_len: usize [since 3],
        shard_lens: Vec<usize>,
    }
}

// In a shard payload each entry record is followed by one `bool`:
// whether the entry has a stored hypervector.
record! {
    /// One shard entry record as the codec reads and writes it. No index
    /// holds these: the loader hands each one's facts to their homes (the
    /// catalog and the `(mass, id)` table), and [`ImageLayout::write`]
    /// assembles each from them again, borrowing the peptide.
    struct IndexEntry<'a> as "entry" {
        id: u32,
        neutral_mass: f64,
        precursor_mz: f64,
        precursor_charge: u8,
        is_decoy: bool,
        peptide: Cow<'a, str>,
    }
}

record!(impl MlcState as "mlc_state" {
    w_eff: Arc<[f32]>,
    sigma_delta: f64,
});

/// The whole encoding of `value`, as a section payload.
pub(crate) fn encode<T: Put + ?Sized>(value: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    value.put(&mut bytes);
    bytes
}

/// Decode the payload of a section of a format-`version` image, which
/// must be exactly one `T`.
pub(crate) fn decode<'a, T: Get<'a>>(
    payload: &'a [u8],
    section: &'static str,
    version: u32,
) -> Result<T, IndexError> {
    let mut r = Reader::new(payload);
    r.version = version;
    let value = T::get(&mut r, section)?;
    r.expect_end(section)?;
    Ok(value)
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
    /// The per-id facts every record is assembled from.
    pub catalog: &'a ReferenceMeta,
    /// The shards' runs of the `(mass, id)` table, in file order.
    pub shards: Vec<&'a [(f64, u32)]>,
}

impl ImageLayout<'_> {
    /// Entry `id`'s record, assembled from the catalog and the table.
    fn record(&self, (neutral_mass, id): (f64, u32)) -> IndexEntry<'_> {
        let known = "a catalog row per entry";
        let (precursor_mz, precursor_charge) = self.catalog.precursor(id).expect(known);
        IndexEntry {
            id,
            neutral_mass,
            precursor_mz,
            precursor_charge,
            is_decoy: self.catalog.reference_is_decoy(id).expect(known),
            peptide: Cow::Borrowed(&self.catalog.peptides()[id as usize]),
        }
    }

    /// Write the image to `out` at the current format version (the
    /// layout of the module docs) and return its length in bytes:
    /// preamble, header, then the MLC and shard sections, each in its
    /// [`Frame`]; `header.sketch_len` is 0, as every index derives its
    /// sketch. Every section length is known from the metadata alone,
    /// which is what lets the header go out first and the shards follow
    /// one at a time through one reused payload buffer: nothing the size
    /// of the hypervector payload is ever resident here.
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
        mut out: W,
        present: impl Fn(u32) -> bool,
        mut write_words: impl FnMut(u32, &mut Vec<u8>) -> Result<(), IndexError>,
    ) -> Result<u64, IndexError> {
        let hv_bytes = self.kind.dim().div_ceil(64) * 8;
        let mlc_bytes = self.mlc.map(encode);
        // A shard's metadata — count, records, flags — padded to 8.
        let mut payload = Vec::new();
        let put_meta = |payload: &mut Vec<u8>, entries: &[(f64, u32)]| {
            payload.clear();
            entries.len().put(payload);
            for &entry in entries {
                self.record(entry).put(payload);
                present(entry.1).put(payload);
            }
            payload.extend_from_slice(&[0u8; 8][..pad_to_8(payload.len())]);
        };
        let header = encode(&Header {
            kind: self.kind.clone(),
            stats: *self.stats,
            entries_per_shard: self.entries_per_shard,
            entry_count: self.shards.iter().map(|entries| entries.len()).sum(),
            mlc_len: mlc_bytes.as_ref().map_or(0, Vec::len),
            sketch_len: 0,
            shard_lens: (self.shards.iter())
                .map(|entries| {
                    put_meta(&mut payload, entries);
                    let stored = entries.iter().filter(|&&(_, id)| present(id)).count();
                    payload.len() + stored * hv_bytes
                })
                .collect(),
        });

        let mut preamble = MAGIC.to_vec();
        FORMAT_VERSION.put(&mut preamble);
        header.len().put(&mut preamble);
        out.write_all(&preamble)?;
        let mut pos = preamble.len();
        Frame::write(&mut out, &mut pos, false, &header)?;
        if let Some(bytes) = &mlc_bytes {
            Frame::write(&mut out, &mut pos, true, bytes)?;
        }

        for entries in &self.shards {
            put_meta(&mut payload, entries);
            for &(_, id) in entries.iter().filter(|&&(_, id)| present(id)) {
                write_words(id, &mut payload)?;
            }
            Frame::write(&mut out, &mut pos, true, &payload)?;
        }
        Ok(pos as u64)
    }
}

/// How every section sits in an image, whichever way the bytes flow:
/// zero bytes up to the next 8-aligned absolute offset (`padded`: every
/// section of a v2+ image but the header), the payload, then the
/// payload's XXH64. Read back, a frame is where a payload lies and what
/// it must hash to — located first, verified when wanted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Absolute byte offset of the payload.
    pub start: usize,
    len: usize,
    hash: u64,
}

impl Frame {
    /// Frame `payload` into `out`, which stands at absolute offset `pos`.
    fn write<W: Write>(
        out: &mut W,
        pos: &mut usize,
        padded: bool,
        payload: &[u8],
    ) -> Result<(), IndexError> {
        let pad = if padded { pad_to_8(*pos) } else { 0 };
        out.write_all(&[0u8; 8][..pad])?;
        out.write_all(payload)?;
        out.write_all(&xxh64(payload, CHECKSUM_SEED).to_le_bytes())?;
        *pos += pad + payload.len() + 8;
        Ok(())
    }

    /// Walk `r` — over the rest of an `image_len`-byte image — past the
    /// frame of a `len`-byte payload. The pad bytes sit outside the
    /// checksummed payload, so they must actually be zero: that is what
    /// keeps "any flipped bit fails the load" true.
    pub(crate) fn locate(
        r: &mut Reader<'_>,
        image_len: usize,
        padded: bool,
        len: usize,
        section: &'static str,
    ) -> Result<Frame, IndexError> {
        if padded {
            let pad = r.raw(pad_to_8(image_len - r.remaining()), section)?;
            need(pad.iter().all(|&b| b == 0), || {
                "nonzero alignment padding between sections"
            })?;
        }
        let start = image_len - r.remaining();
        r.raw(len, section)?;
        let hash = u64::get(r, section)?;
        Ok(Frame { start, len, hash })
    }

    /// The payload inside `image`, after verifying its checksum.
    pub(crate) fn verify<'a>(
        &self,
        image: &'a [u8],
        section: &str,
    ) -> Result<&'a [u8], IndexError> {
        let payload = &image[self.start..self.start + self.len];
        if xxh64(payload, CHECKSUM_SEED) != self.hash {
            return Err(IndexError::ChecksumMismatch {
                section: section.to_owned(),
            });
        }
        Ok(payload)
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

/// Decode one shard section payload of a format-`version` image: each
/// entry record goes to `visit`, in file order, with where its words lie
/// (`None`: nowhere) as an offset from the base this returns — inline in
/// v1 (base 0), in the block behind the records in v2+ (base: the block,
/// within the payload). The records are the same in every version. For
/// the v2+ block everything the mapped search path relies on is checked
/// here: the padding bytes are zero, every word block's unused tail bits
/// are zero, and the payload is consumed exactly.
pub(crate) fn decode_shard(
    bytes: &[u8],
    dim: usize,
    version: u32,
    mut visit: impl FnMut(IndexEntry<'_>, Option<usize>) -> Result<(), IndexError>,
) -> Result<usize, IndexError> {
    let at = |r: &Reader<'_>| bytes.len() - r.remaining();
    let hv_bytes = dim.div_ceil(64) * 8;
    let spare_bits = hv_bytes * 8 - dim;
    let mut r = Reader::new(bytes);
    let count = r.checked_len("shard.entry_count", 1)?;
    let mut blocks = 0;
    for _ in 0..count {
        let entry = IndexEntry::get(&mut r, "entry")?;
        let words = if !bool::get(&mut r, "entry.hv_present")? {
            None
        } else if version == 1 {
            let words = r.checked_len("entry.hv_words", 8)?;
            need(words * 8 == hv_bytes, || {
                let (id, needs) = (entry.id, hv_bytes / 8);
                format!("entry {id}: hypervector has {words} words, dimension {dim} needs {needs}")
            })?;
            let offset = at(&r);
            r.raw(hv_bytes, "entry.hv_words")?;
            Some(offset)
        } else {
            blocks += 1;
            Some((blocks - 1) * hv_bytes)
        };
        visit(entry, words)?;
    }
    let mut base = 0;
    if version >= 2 {
        let pad = r.raw(pad_to_8(at(&r)), "shard.padding")?;
        need(pad.iter().all(|&b| b == 0), || {
            "nonzero alignment padding in shard section"
        })?;
        base = at(&r);
        for block in 0..blocks {
            let words = r.raw(hv_bytes, "shard.hv_words")?;
            let last = words
                .last_chunk()
                .map_or(0, |word| u64::from_le_bytes(*word));
            need(spare_bits == 0 || last >> (64 - spare_bits) == 0, || {
                format!("word block {block}: hypervector tail bits beyond dimension {dim} are set")
            })?;
        }
    }
    r.expect_end("shard")?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` written, then read back as a `T` with nothing left over.
    fn round<T, P>(value: &P)
    where
        T: for<'a> Get<'a> + PartialEq<P> + fmt::Debug,
        P: Put + fmt::Debug + ?Sized,
    {
        assert_eq!(&decode::<T>(&encode(value), "x", 3).unwrap(), value);
    }

    #[test]
    fn scalars_strings_and_slices_round_trip() {
        round::<u8, _>(&7);
        round::<u32, _>(&0xdead_beef);
        round::<u64, _>(&(u64::MAX - 1));
        round::<f64, _>(&-123.456);
        round::<f32, _>(&0.25);
        round::<usize, _>(&usize::MAX);
        round::<bool, _>(&true);
        let text = encode("peptide/КИРИЛЛИЦА");
        assert_eq!(
            decode::<Cow<str>>(&text, "x", 3).unwrap(),
            "peptide/КИРИЛЛИЦА"
        );
        round::<Vec<u64>, [u64]>(&[1, 2, 3]);
        let weights = decode::<Arc<[f32]>>(&encode(&[0.5f32, -0.5][..]), "x", 3);
        assert_eq!(*weights.unwrap(), [0.5, -0.5]);
        assert!(decode::<u8>(&[1, 2], "x", 3).is_err(), "a byte trails");
    }

    #[test]
    fn malformed_fields_are_errors_not_panics() {
        let words = encode(&[1u64, 2, 3, 4][..]);
        for cut in 0..words.len() {
            let cut_read = Vec::<u64>::get(&mut Reader::new(&words[..cut]), "words");
            assert!(cut_read.is_err(), "cut at {cut} accepted");
        }
        // A length prefix claiming 2^64 elements allocates nothing.
        let huge = Vec::<u64>::get(&mut Reader::new(&encode(&u64::MAX)), "words");
        let huge = huge.unwrap_err().to_string();
        assert!(huge.contains("implausible length for words"), "{huge}");
        let invalid = encode(&[0xffu8, 0xfe][..]);
        let text = Cow::<str>::get(&mut Reader::new(&invalid), "peptide");
        let text = text.unwrap_err().to_string();
        assert_eq!(text, "index decode error: invalid UTF-8 in peptide");
        let tag = bool::get(&mut Reader::new(&[2]), "entry.is_decoy").unwrap_err();
        assert!(tag
            .to_string()
            .contains("invalid value 2 for entry.is_decoy"));
    }

    /// `docs/FORMAT.md` is checked documentation: the row of every
    /// record — `preprocess: f64 intensity_threshold · u64 max_peaks · …`
    /// — is rendered from the field list its codec comes from and must
    /// appear in the document, whitespace aside.
    #[test]
    fn every_record_row_is_in_the_document() {
        let squeeze = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
        let doc = squeeze(include_str!("../../../docs/FORMAT.md"));
        let rows = [
            PreprocessConfig::row(),
            EncoderConfig::row(),
            LevelStyle::row(),
            MlcConfig::row(),
            CrossbarConfig::row(),
            ExactBackendConfig::row(),
            HyperOmsConfig::row(),
            AcceleratorConfig::row(),
            IndexedBackendKind::row(),
            BuildStats::row(),
            Header::row(),
            IndexEntry::row(),
            MlcState::row(),
        ];
        for row in rows {
            let spelled = doc.contains(&squeeze(&row));
            assert!(
                spelled,
                "docs/FORMAT.md does not spell this record as the code does:\n  {row}"
            );
        }
    }
}
