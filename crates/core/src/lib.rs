//! The paper's contribution: an OMS accelerator on multi-level-cell RRAM.
//!
//! This crate assembles the substrates — mass-spec preprocessing
//! (`hdoms-ms`), hyperdimensional encoding (`hdoms-hdc`), the behavioural
//! MLC RRAM chip (`hdoms-rram`) and the OMS pipeline (`hdoms-oms`) — into
//! the accelerator the paper proposes:
//!
//! * [`encode`] — **encoding in memory** (§4.2): the position-ID item
//!   memory lives in RRAM as differential multi-bit weights; level
//!   hypervectors stream in chunk-by-chunk (the §4.2.1 co-design that
//!   turns an element-wise MAC into an MVM), and the analog outputs are
//!   sign-quantised into the final binary hypervector (§4.2.3).
//! * [`search`] — **Hamming search in memory** (§4.1): reference
//!   hypervectors stand vertically as differential binary weights; query
//!   bits drive the bit lines and open-circuit voltage sensing digitises
//!   one activated-row group per cycle.
//! * [`accelerator`] — the full backend: encode references in memory,
//!   store, encode queries in memory, search in memory; plugs into the
//!   `hdoms-oms` scorer seam as a [`hdoms_oms::search::RunScorer`], and
//!   searches run it through `hdoms-engine` as the `rram` index kind.
//! * [`perf`] — the latency/energy model behind Fig. 12 and the §5.2.2
//!   throughput ablation.
//!
//! # Example
//!
//! Below the engine, the accelerator is a scorer like any other: the
//! flat loop ([`hdoms_oms::search::best_hits`]) finds each query's best
//! reference in its open-window candidates.
//!
//! ```no_run
//! use hdoms_core::accelerator::{AcceleratorConfig, OmsAccelerator};
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_ms::preprocess::Preprocessor;
//! use hdoms_oms::pipeline::ReferenceCatalog;
//! use hdoms_oms::search::{best_hits, candidate_lists};
//! use hdoms_oms::window::PrecursorWindow;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7);
//! let config = AcceleratorConfig::default();
//! let accel = OmsAccelerator::build(&workload.library, config);
//! let (queries, _) = Preprocessor::new(config.preprocess).run_batch(&workload.queries);
//! let index = workload.library.candidate_index();
//! let candidates = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
//! let hits = best_hits(&accel, &queries, &candidates, config.threads);
//! println!("{} queries matched on RRAM", hits.iter().flatten().count());
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod accelerator;
pub mod encode;
pub mod mapping;
pub mod perf;
pub mod search;
