//! Open modification search (OMS) pipeline.
//!
//! OMS matches measured query spectra against a reference spectral library
//! under a *wide* precursor-mass window, so that peptides carrying
//! post-translational modifications — whose precursor mass is shifted by
//! the modification — still reach their unmodified reference spectrum
//! (§1, §2.1 of the paper). The pipeline here is the software skeleton all
//! search backends plug into:
//!
//! * precursor windows, standard and open ([`window`]);
//! * the mass-sorted candidate index ([`candidates`]);
//! * peptide-spectrum matches ([`psm`]);
//! * target-decoy false-discovery-rate filtering, §3.4 ([`fdr`]);
//! * the [`search::RunScorer`] backend seam and its flat per-query loop
//!   ([`search::best_hits`]), with an exact HD implementation (optionally
//!   with injected bit errors for the Fig. 11 robustness study)
//!   ([`search`]);
//! * the reference catalog, PSM assembly and search outcome with
//!   ground-truth evaluation ([`pipeline`]).
//!
//! `hdoms-engine` runs these stages over its shard loop; every search,
//! figure and example goes through it. Composed by hand over the flat
//! loop they are the oracle the engine is tested against:
//!
//! ```
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_ms::preprocess::Preprocessor;
//! use hdoms_oms::pipeline::{assemble_psms, ReferenceCatalog};
//! use hdoms_oms::search::{best_hits, candidate_lists};
//! use hdoms_oms::{filter_fdr, ExactBackend, ExactBackendConfig, PrecursorWindow};
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
//! let mut config = ExactBackendConfig::default();
//! config.encoder.dim = 2048;
//! let backend = ExactBackend::build(&workload.library, config);
//! let (queries, _) = Preprocessor::new(config.preprocess).run_batch(&workload.queries);
//! let index = workload.library.candidate_index();
//! let candidates = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
//! let hits = best_hits(&backend, &queries, &candidates, 2);
//! let psms = assemble_psms(&queries, &hits, &workload.library);
//! assert!(!filter_fdr(&psms, 0.01).accepted.is_empty(), "should identify something");
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod candidates;
pub mod fdr;
pub mod pipeline;
pub mod profile;
pub mod psm;
pub mod search;
pub mod window;

pub use fdr::filter_fdr;
pub use search::{ExactBackend, ExactBackendConfig};
pub use window::PrecursorWindow;
