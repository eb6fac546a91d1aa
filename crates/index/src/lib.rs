//! # hdoms-index — persistent sharded library index
//!
//! The paper's accelerator amortises a one-time library encoding (§4.2)
//! across millions of query searches — but an encoding that only lives in
//! RAM is re-paid on every process start. This crate makes the encoded
//! library *persistent*: a versioned binary on-disk format (`HDX`) that
//! stores
//!
//! * the encoded reference hypervectors of a chosen search backend
//!   (software-exact, HyperOMS-style, or the MLC-RRAM accelerator),
//! * per-reference metadata — neutral mass, precursor m/z and charge,
//!   decoy flag, peptide sequence — so searches and PSM reports need no
//!   library file,
//! * precursor-mass **shard** boundaries, so open-modification searches
//!   fan out only to the shards a query's precursor window overlaps and
//!   run shard-parallel ([`ShardedBackend`]),
//! * for the RRAM kind, the **MLC programming state** — the differential
//!   weight pairs of the position-ID item memory — so a warm load
//!   restores the simulated chip without re-sampling the device model,
//! * and an XXH64 checksum per section, so truncation and bit rot are
//!   rejected at load time.
//!
//! A loaded index keeps its hypervectors in one flat shared table
//! ([`LibraryIndex::shared_references`]), every per-entry fact in its
//! per-id catalog, its shards as runs of one `(mass, id)` table — the
//! candidate index every engine searches — and its kind's one backend
//! (item memories, programmed weights); everything handed out of it
//! **shares** those, so a resident index plus its backends and engines
//! hold one of each — which is what makes the long-lived `hdoms-serve`
//! layer affordable.
//!
//! Each verb has one door. A build ([`LibraryIndex::build`]) is an append
//! ([`LibraryIndex::append_entries`]) onto an empty index, and both fill
//! the reference table through one bounded intake, a chunk of entries at
//! a time. Since format **v2** shard hypervector words are laid out
//! 8-aligned, so the one loader ([`LibraryIndex::from_buffer`]) searches
//! the file's bytes **in place** from one backing buffer; a file opens
//! through [`LibraryIndex::open_mapped`] — the mapped file itself under
//! the default `mmap` feature on Unix, one streamed heap read elsewhere —
//! and bytes already in hand through [`LibraryIndex::from_bytes`]. No
//! per-reference hypervector is ever materialised, and over a mapping
//! resident heap drops to the metadata. The image likewise has one
//! writer, shared by [`LibraryIndex::write`] and the bounded-memory
//! [`StreamingIndexBuilder`]. The full byte-level format is specified
//! in `docs/FORMAT.md`.
//!
//! ## Workflow
//!
//! ```
//! use hdoms_engine::Engine;
//! use hdoms_index::{IndexConfig, LibraryIndex};
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_oms::window::PrecursorWindow;
//! use std::sync::Arc;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
//!
//! // Build once (encodes the library in parallel) and persist.
//! let mut config = IndexConfig::default();
//! config.threads = 4;
//! if let hdoms_index::IndexedBackendKind::Exact(exact) = &mut config.kind {
//!     exact.encoder.dim = 2048;
//! }
//! let index = LibraryIndex::build(&workload.library, config);
//! let dir = std::env::temp_dir().join(format!("hdoms-doc-index-{}.hdx", std::process::id()));
//! index.write(&dir).unwrap();
//!
//! // Warm load: no re-encoding, and searches produce identical PSMs.
//! let loaded = LibraryIndex::open_mapped(&dir, 4).unwrap();
//! let engine = Arc::new(Engine::from_index(loaded, 4).unwrap());
//! let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
//! assert!(!outcome.accepted.is_empty());
//! # std::fs::remove_file(&dir).ok();
//! ```
//!
//! The `hdoms` CLI exposes this as `hdoms index build` / `hdoms index
//! info` / `hdoms index append` plus `--index` flags on `search` and
//! `compare`; `crates/bench` measures the cold-build vs warm-load gap and
//! the sharded vs unsharded search throughput.

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod format;
mod library_index;
mod sharded;
pub mod streaming;
pub mod wire;
pub mod xxhash;

pub use format::{IndexError, IndexedBackendKind};
pub use library_index::{IndexConfig, LibraryIndex};
pub use sharded::{QueryRecord, ShardTiming, ShardedBackend};
pub use streaming::{StreamingBuildReport, StreamingConfig, StreamingIndexBuilder};
