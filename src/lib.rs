//! # hdoms — HD open modification search on multi-level-cell RRAM
//!
//! Facade crate for the reproduction of *"Efficient Open Modification
//! Spectral Library Searching in High-Dimensional Space with
//! Multi-Level-Cell Memory"* (Fan et al., DAC 2024).
//!
//! This crate re-exports the whole workspace so applications can depend on
//! a single crate:
//!
//! * [`ms`] — mass-spectrometry substrate: spectra, peptides, PTMs,
//!   synthetic OMS workloads, preprocessing (§3.1).
//! * [`hdc`] — hyperdimensional computing: hypervectors, ID-Level encoding
//!   (§3.2), Hamming similarity search (§3.3).
//! * [`rram`] — behavioural multi-level-cell RRAM simulator: conductance
//!   relaxation, differential mapping, voltage sensing (§2.2, §4.1).
//! * [`oms`] — the open-modification-search stages: precursor windows,
//!   candidates, the scorer seam, PSMs and FDR filtering (§3.4).
//! * [`baselines`] — from-scratch ANN-SoLo-style and HyperOMS-style
//!   comparison searchers (§5.1.2).
//! * [`core`] — the paper's contribution: the MLC-RRAM OMS accelerator
//!   with in-memory encoding (§4.2), in-memory search (§4.1), MLC
//!   hypervector storage (§4.3) and the latency/energy model (§5.3.3).
//! * [`index`] — the persistent sharded library index: encode a library
//!   once, persist it (hypervectors, shard boundaries, MLC programming
//!   state, checksums), and reload search backends warm — with
//!   shard-parallel open search.
//! * [`engine`] — the unified query execution layer: one `Engine`
//!   builder over every cold/warm construction path, and stateful
//!   `Session`s with streaming cross-batch FDR.
//! * [`serve`] — the long-lived batch query server: resident `.hdx`
//!   indexes, a line-framed JSON wire protocol, and per-batch serving
//!   statistics.
//!
//! ## Quickstart
//!
//! ```
//! use hdoms::engine::Engine;
//! use hdoms::index::{IndexConfig, IndexedBackendKind};
//! use hdoms::ms::{SyntheticWorkload, WorkloadSpec};
//! use hdoms::oms::PrecursorWindow;
//! use std::sync::Arc;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
//! let mut config = IndexConfig::default();
//! if let IndexedBackendKind::Exact(exact) = &mut config.kind {
//!     exact.encoder.dim = 2048;
//! }
//! let engine = Arc::new(Engine::from_library(&workload.library, config));
//! let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
//! println!("accepted {} identifications", outcome.identifications());
//! ```
//!
//! See `examples/` for complete applications and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub use hdoms_baselines as baselines;
pub use hdoms_core as core;
pub use hdoms_engine as engine;
pub use hdoms_hdc as hdc;
pub use hdoms_index as index;
pub use hdoms_ms as ms;
pub use hdoms_oms as oms;
pub use hdoms_prefilter as prefilter;
pub use hdoms_rram as rram;
pub use hdoms_serve as serve;
