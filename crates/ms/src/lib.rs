//! Mass spectrometry substrate for the HD-OMS accelerator reproduction.
//!
//! This crate provides everything the search stack needs from the
//! mass-spectrometry domain:
//!
//! * amino-acid and peptide mass arithmetic (`aa`, [`peptide`]),
//! * post-translational modifications ([`modification`]),
//! * spectra and theoretical fragmentation ([`spectrum`], [`fragment`]),
//! * an instrument-noise model ([`noise`]),
//! * spectral libraries with decoys ([`library`]),
//! * deterministic synthetic open-modification-search workloads
//!   ([`dataset`]), standing in for the iPRG2012 and HEK293 datasets of the
//!   paper (see `DESIGN.md` for the substitution argument), and
//! * the preprocessing described in §3.1 of the paper: intensity-threshold
//!   peak filtering and m/z binning into spectrum vectors ([`preprocess`]).
//!
//! Everything stochastic takes an explicit seed; two runs with the same seed
//! produce byte-identical workloads.
//!
//! # Example
//!
//! ```
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_ms::preprocess::Preprocessor;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 7);
//! let pre = Preprocessor::default();
//! let binned = pre.run(&workload.queries[0]).expect("query should survive preprocessing");
//! assert!(binned.peaks().len() <= pre.config().max_peaks);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

mod aa;
pub mod dataset;
pub mod fragment;
pub mod library;
pub mod mgf;
pub mod modification;
pub mod noise;
pub mod peptide;
pub mod preprocess;
pub mod spectrum;

pub use dataset::{SyntheticWorkload, WorkloadSpec};

/// Mass of a proton in daltons (unified atomic mass units).
pub(crate) const PROTON_MASS: f64 = 1.007_276_466_6;

/// Monoisotopic mass of a water molecule in daltons.
pub(crate) const WATER_MASS: f64 = 18.010_564_684;
