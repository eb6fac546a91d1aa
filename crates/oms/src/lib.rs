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
//! * end-to-end orchestration with ground-truth evaluation
//!   ([`pipeline`]).
//!
//! # Example
//!
//! ```
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_oms::pipeline::{OmsPipeline, PipelineConfig};
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
//! let pipeline = OmsPipeline::new(PipelineConfig::fast_test());
//! let outcome = pipeline.run_exact(&workload);
//! assert!(!outcome.accepted.is_empty(), "should identify something");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod candidates;
pub mod fdr;
pub mod pipeline;
pub mod profile;
pub mod psm;
pub mod search;
pub mod window;

pub use candidates::CandidateIndex;
pub use fdr::{filter_fdr, FdrOutcome};
pub use pipeline::{assemble_psms, OmsPipeline, PipelineConfig, PipelineOutcome, ReferenceCatalog};
pub use psm::Psm;
pub use search::{ExactBackend, ExactBackendConfig, SearchHit};
pub use window::PrecursorWindow;
