//! Streaming index construction: encode, spill, and serialise one
//! bounded chunk at a time — through the kind's one backend
//! (`KindBackend`), like every build path (this one, the in-memory
//! [`LibraryIndex::build`](crate::LibraryIndex::build), appends): the
//! one `hdoms_oms::search::encode_chunk` body folded by the one
//! [`StatsFold`]. The in-memory paths fill their table through the one
//! intake (`SharedReferences::encode_in`); this one keeps its own spill
//! loop, because its sink is a file and its step `spill_threshold`.
//!
//! [`LibraryIndex::build`](crate::LibraryIndex::build) holds the whole
//! encoded library in memory, which caps the library size at available
//! RAM.
//! [`StreamingIndexBuilder`] removes that cap: entries are encoded in
//! chunks of at most `spill_threshold`, each chunk's hypervector words
//! are appended to a temporary **spill file** immediately, and the final
//! `.hdx` image is assembled shard by shard, reading each shard's word
//! blocks back from the spill as it is written. Peak heap is bounded by
//! one encode chunk plus one serialised shard plus the O(entries)
//! metadata side tables (the catalog and `(mass, id)` table an index
//! holds, spill offsets) — never by the encoded payload.
//!
//! The output is **byte-for-byte identical** to
//! `LibraryIndex::build(...).to_bytes()` over the same entries in
//! the same order: encoding is deterministic per (configuration, dense
//! id) and runs through the same `KindBackend`, and both images go out
//! through the one container
//! writer (`format::ImageLayout::write`, every record through its one
//! field-list codec, every section in the one `format::Frame`),
//! differing only in where it fetches each entry's words. The
//! differential test suite (`tests/streaming_equivalence.rs`) pins that
//! guarantee.

use crate::format::{self, need, ImageLayout, IndexError};
use crate::library_index::{cut, runs, take_in, IndexConfig, KindBackend};
use hdoms_core::accelerator::{BuildStats, StatsFold};
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::preprocess::Preprocessor;
use hdoms_oms::pipeline::ReferenceMeta;
use hdoms_oms::search::encode_chunk;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Configuration for [`StreamingIndexBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The index configuration (backend kind, shard size, threads) — the
    /// same values an in-memory
    /// [`LibraryIndex::build`](crate::LibraryIndex::build) would use, and the values the finished image records.
    pub index: IndexConfig,
    /// Maximum entries encoded and resident per chunk. This is the
    /// memory knob: peak hypervector residency during the push phase is
    /// `spill_threshold × ceil(dim / 64) × 8` bytes (plus one shard's
    /// words during finish). Smaller is tighter but loses encode
    /// parallelism below the thread count.
    pub spill_threshold: usize,
}

impl Default for StreamingConfig {
    fn default() -> StreamingConfig {
        StreamingConfig {
            index: IndexConfig::default(),
            spill_threshold: 8192,
        }
    }
}

/// What a finished streaming build produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingBuildReport {
    /// Entries indexed.
    pub entry_count: usize,
    /// Precursor-mass shards written.
    pub shard_count: usize,
    /// Total bytes of the finished `.hdx` image.
    pub index_bytes: u64,
    /// Hypervector word bytes that went through the spill file.
    pub spilled_bytes: u64,
    /// Build statistics, exactly as the in-memory path would record them.
    pub build_stats: BuildStats,
}

/// Builds a `.hdx` v3 index without ever holding the encoded library in
/// memory.
///
/// Two-phase use: [`StreamingIndexBuilder::create`] opens the spill
/// file, [`StreamingIndexBuilder::push_entries`] feeds entries in id
/// order (any call granularity — chunking past the spill threshold is
/// internal), and [`StreamingIndexBuilder::finish`] sorts the metadata,
/// writes the image atomically (temp file + rename, through the same
/// writer as [`LibraryIndex::write`](crate::LibraryIndex::write)), and
/// deletes the spill. The conveniences
/// [`StreamingIndexBuilder::build_from_library`] and
/// [`StreamingIndexBuilder::build_from_iter`] wrap the three calls.
///
/// Dropping an unfinished builder removes its spill file (a failed
/// finish has already removed its temp image).
///
/// ```
/// use hdoms_index::streaming::{StreamingConfig, StreamingIndexBuilder};
/// use hdoms_index::{IndexedBackendKind, LibraryIndex};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7);
/// let mut config = StreamingConfig::default();
/// config.index.entries_per_shard = 64;
/// config.index.threads = 2;
/// config.spill_threshold = 50;
/// if let IndexedBackendKind::Exact(exact) = &mut config.index.kind {
///     exact.encoder.dim = 512;
/// }
/// let path = std::env::temp_dir().join(format!("hdoms-doc-stream-{}.hdx", std::process::id()));
/// let report =
///     StreamingIndexBuilder::build_from_library(config.clone(), &path, &workload.library)
///         .unwrap();
/// assert_eq!(report.entry_count, workload.library.len());
///
/// // Byte-identical to the in-memory build.
/// let in_memory = LibraryIndex::build(&workload.library, config.index);
/// assert_eq!(std::fs::read(&path).unwrap(), in_memory.to_bytes());
/// # let loaded = LibraryIndex::open_mapped(&path, 2).unwrap();
/// # assert_eq!(loaded, in_memory);
/// # std::fs::remove_file(&path).ok();
/// ```
pub struct StreamingIndexBuilder {
    config: IndexConfig,
    spill_threshold: usize,
    out_path: PathBuf,
    spill_path: PathBuf,
    spill: BufWriter<File>,
    /// Spill-file byte offset of each entry's word block, by dense id
    /// (`u64::MAX` marks entries preprocessing rejected).
    spill_offsets: Vec<u64>,
    spilled_bytes: u64,
    /// The per-entry facts, in the homes an index keeps them in: the
    /// catalog, and the `(mass, id)` table — in arrival (id) order until
    /// finish sorts and cuts it.
    catalog: ReferenceMeta,
    table: Vec<(f64, u32)>,
    backend: KindBackend,
    stats: StatsFold,
    finished: bool,
}

impl std::fmt::Debug for StreamingIndexBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingIndexBuilder")
            .field("out_path", &self.out_path)
            .field("entry_count", &self.entry_count())
            .field("spill_threshold", &self.spill_threshold)
            .field("spilled_bytes", &self.spilled_bytes)
            .finish_non_exhaustive()
    }
}

impl StreamingIndexBuilder {
    /// Open a streaming build that will finish into `out`. The spill
    /// file (`out` with extension `hdx.spill`) lives next to the output,
    /// as the temporary image will.
    ///
    /// # Errors
    ///
    /// [`IndexError::Invalid`] on a zero `entries_per_shard` or
    /// `spill_threshold`; [`IndexError::Io`] if the spill file cannot be
    /// created.
    pub fn create(
        config: StreamingConfig,
        out: &Path,
    ) -> Result<StreamingIndexBuilder, IndexError> {
        let positive = config.index.entries_per_shard > 0;
        need(positive, || "entries_per_shard must be positive")?;
        need(config.spill_threshold > 0, || {
            "spill_threshold must be positive"
        })?;
        let spill_path = out.with_extension("hdx.spill");
        let spill = BufWriter::new(File::create(&spill_path)?);
        let kind = config.index.recorded_kind();
        Ok(StreamingIndexBuilder {
            spill_threshold: config.spill_threshold,
            out_path: out.to_path_buf(),
            spill_path,
            spill,
            spill_offsets: Vec::new(),
            spilled_bytes: 0,
            catalog: ReferenceMeta::default(),
            table: Vec::new(),
            backend: KindBackend::new(&kind, None, config.index.threads),
            stats: StatsFold::default(),
            finished: false,
            config: IndexConfig {
                kind,
                ..config.index
            },
        })
    }

    /// Entries pushed so far.
    pub(crate) fn entry_count(&self) -> usize {
        self.table.len()
    }

    /// The spill file holding the encoded word blocks (useful for
    /// instrumentation; removed by [`StreamingIndexBuilder::finish`]).
    pub fn spill_path(&self) -> &Path {
        &self.spill_path
    }

    /// Encode and spill a run of entries. Entries receive the next dense
    /// ids in arrival order — feed the library in its id order to
    /// reproduce the in-memory build byte-for-byte. Calls may be any
    /// size; encoding proceeds in sub-chunks of at most the configured
    /// spill threshold, so peak hypervector residency never exceeds it.
    ///
    /// # Errors
    ///
    /// [`IndexError::Io`] if the spill write fails;
    /// [`IndexError::Invalid`] past `u32::MAX` entries.
    pub fn push_entries(&mut self, entries: &[LibraryEntry]) -> Result<(), IndexError> {
        let total = self.entry_count() + entries.len();
        need(total <= u32::MAX as usize, || {
            format!("library exceeds the id space: {total} entries")
        })?;
        let block_bytes = (self.config.kind.dim().div_ceil(64) * 8) as u64;
        let pre = Preprocessor::new(self.config.kind.preprocess());
        for chunk in entries.chunks(self.spill_threshold) {
            let first_id = self.entry_count() as u32;
            let encoded = encode_chunk(&self.backend, &pre, chunk, first_id, self.config.threads);
            self.table.extend(take_in(&mut self.catalog, chunk));
            for slot in encoded {
                match self.stats.push(slot) {
                    Some(hv) => {
                        self.spill_offsets.push(self.spilled_bytes);
                        for &word in hv.words() {
                            self.spill.write_all(&word.to_le_bytes())?;
                        }
                        self.spilled_bytes += block_bytes;
                    }
                    None => self.spill_offsets.push(u64::MAX),
                }
            }
        }
        // Flush at every push boundary so the spill's on-disk size always
        // matches `spilled_bytes` — external truncation between pushes is
        // then caught by the size check in `finish`.
        self.spill.flush()?;
        Ok(())
    }

    /// Assemble and atomically write the final `.hdx` v3 image, then
    /// delete the spill file. Returns what was built.
    ///
    /// # Errors
    ///
    /// [`IndexError::Invalid`] on an empty build or a spill file whose
    /// size no longer matches what was written (truncated or tampered
    /// with between pushes and finish); [`IndexError::Io`] on
    /// filesystem failures.
    pub fn finish(mut self) -> Result<StreamingBuildReport, IndexError> {
        need(self.entry_count() > 0, || "cannot index an empty library")?;
        self.spill.flush()?;
        let spill = File::open(&self.spill_path)?;
        let spill_len = spill.metadata()?.len();
        need(spill_len == self.spilled_bytes, || {
            format!(
                "spill file {} holds {spill_len} bytes but {} were spilled \
                 (truncated or corrupted between push and finish)",
                self.spill_path.display(),
                self.spilled_bytes
            )
        })?;

        let image = self.out_path.clone();
        let report = format::write_atomically(&image, |out| self.assemble(out, &spill))?;
        fs::remove_file(&self.spill_path)?;
        self.finished = true;
        Ok(report)
    }

    /// Lay the pushed entries out as shards — the same global
    /// `(mass, id)` sort and fixed-size cut the in-memory builder
    /// performs — and stream the image into `out` through the one
    /// container writer, each shard's word blocks read back from `spill`.
    fn assemble<W: Write>(
        &mut self,
        out: W,
        spill: &File,
    ) -> Result<StreamingBuildReport, IndexError> {
        let dim = self.config.kind.dim();
        let build_stats = self.stats.onto(None);
        let bounds = cut(&mut self.table, self.config.entries_per_shard);
        let offsets = std::mem::take(&mut self.spill_offsets);
        let mlc = self.backend.mlc_state();
        let layout = ImageLayout {
            kind: &self.config.kind,
            stats: &build_stats,
            entries_per_shard: self.config.entries_per_shard,
            mlc: mlc.as_ref(),
            catalog: &self.catalog,
            shards: runs(&self.table, &bounds).collect(),
        };
        let hv_bytes = dim.div_ceil(64) * 8;
        let index_bytes = layout.write(
            out,
            |id| offsets[id as usize] != u64::MAX,
            |id, w| {
                let at = w.len();
                w.resize(at + hv_bytes, 0);
                read_spill_block(spill, &mut w[at..], offsets[id as usize], &self.spill_path)
            },
        )?;
        Ok(StreamingBuildReport {
            entry_count: self.table.len(),
            shard_count: layout.shards.len(),
            index_bytes,
            spilled_bytes: self.spilled_bytes,
            build_stats,
        })
    }

    /// One-call streaming build over a materialised library (entries are
    /// still encoded and spilled chunk-wise).
    ///
    /// # Errors
    ///
    /// See [`StreamingIndexBuilder::create`] /
    /// [`StreamingIndexBuilder::push_entries`] /
    /// [`StreamingIndexBuilder::finish`].
    pub fn build_from_library(
        config: StreamingConfig,
        out: &Path,
        library: &SpectralLibrary,
    ) -> Result<StreamingBuildReport, IndexError> {
        let mut builder = StreamingIndexBuilder::create(config, out)?;
        builder.push_entries(library.entries())?;
        builder.finish()
    }

    /// One-call streaming build over an entry iterator — the fully
    /// streaming path: at most one spill-threshold's worth of raw
    /// entries is buffered, so a generator-backed source never
    /// materialises the library either.
    ///
    /// # Errors
    ///
    /// See [`StreamingIndexBuilder::create`] /
    /// [`StreamingIndexBuilder::push_entries`] /
    /// [`StreamingIndexBuilder::finish`].
    pub fn build_from_iter(
        config: StreamingConfig,
        out: &Path,
        entries: impl IntoIterator<Item = LibraryEntry>,
    ) -> Result<StreamingBuildReport, IndexError> {
        let mut builder = StreamingIndexBuilder::create(config, out)?;
        let mut buffered: Vec<LibraryEntry> = Vec::with_capacity(builder.spill_threshold);
        for entry in entries {
            buffered.push(entry);
            if buffered.len() == builder.spill_threshold {
                builder.push_entries(&buffered)?;
                buffered.clear();
            }
        }
        if !buffered.is_empty() {
            builder.push_entries(&buffered)?;
        }
        builder.finish()
    }
}

impl Drop for StreamingIndexBuilder {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.spill_path);
        }
    }
}

/// Read one word block back from the spill file, mapping a short read to
/// the structured corruption error.
fn read_spill_block(
    spill: &File,
    block: &mut [u8],
    offset: u64,
    spill_path: &Path,
) -> Result<(), IndexError> {
    let result = {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            spill.read_exact_at(block, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut spill = spill;
            spill
                .seek(SeekFrom::Start(offset))
                .and_then(|_| spill.read_exact(block))
        }
    };
    result.map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            IndexError::Invalid(format!(
                "spill file {} truncated at offset {offset}",
                spill_path.display()
            ))
        } else {
            IndexError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexedBackendKind, LibraryIndex};
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    /// Accepts `budget` bytes, then fails like a full disk.
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("injected: no space left"));
            }
            let taken = bytes.len().min(self.budget);
            self.budget -= taken;
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Both callers of the one container writer — the table-backed
    /// `LibraryIndex::write_to` and the spill-backed streaming assembly —
    /// surface a write that dies mid-header, in the first shard or in the
    /// last as `IndexError::Io`, without panicking.
    #[test]
    fn a_failing_write_is_an_io_error_from_both_callers() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 61);
        let mut config = StreamingConfig::default();
        config.index.entries_per_shard = 64;
        config.index.threads = 2;
        if let IndexedBackendKind::Exact(exact) = &mut config.index.kind {
            exact.encoder.dim = 512;
        }
        let index = LibraryIndex::build(&workload.library, config.index.clone());
        let image = index.to_bytes();
        let out = std::env::temp_dir().join(format!("hdoms-failing-{}.hdx", std::process::id()));
        let streamed = |sink: &mut dyn Write| {
            let mut builder = StreamingIndexBuilder::create(config.clone(), &out).unwrap();
            builder.push_entries(workload.library.entries()).unwrap();
            let spill = File::open(builder.spill_path()).unwrap();
            builder.assemble(sink, &spill)
        };

        // Inside the header, inside the first shard section that follows
        // it, and inside the last shard.
        let header_len = u64::from_le_bytes(image[12..20].try_into().unwrap()) as usize;
        for budget in [
            20 + header_len / 2,
            20 + header_len + 512,
            image.len() - 100,
        ] {
            let died = index.write_to(FailAfter { budget });
            assert!(matches!(died, Err(IndexError::Io(_))), "{died:?}");
            let died = streamed(&mut FailAfter { budget });
            assert!(matches!(died, Err(IndexError::Io(_))), "{died:?}");
        }
        // With room for all of it, the two bodies agree byte for byte.
        let mut whole = Vec::new();
        streamed(&mut whole).unwrap();
        assert_eq!(whole, image);
    }
}
