//! Behavioural multi-level-cell (MLC) RRAM simulator.
//!
//! The paper's hardware platform is a fabricated 130 nm RRAM chip (3 M
//! cells, [Wan et al., Nature 2022]) that this crate reproduces at the
//! behavioural level — everything the algorithm stack observes from the
//! chip is modelled:
//!
//! * **per-cell conductance behaviour** ([`device`]): programming noise,
//!   log-time conductance *relaxation* with level-dependent instability
//!   (middle levels drift the most — why more bits per cell means more
//!   errors, Fig. 7/8), heavy-tailed (Laplace) deviations, and a small
//!   defect rate;
//! * **level maps** ([`levels`]): the `2^n` conductance targets of an
//!   n-bit cell and nearest-level decoding;
//! * **crossbar compute** ([`mod@array`]): differential weight mapping
//!   (Eq. 2/3), matrix-vector multiplication with open-circuit voltage
//!   sensing (Eq. 4/5), activated-row batching and ADC quantisation —
//!   the error-vs-activated-rows behaviour of Fig. 9;
//! * **dense hypervector storage** ([`storage`]): the non-differential
//!   n-bit packing of §4.3 used for Fig. 7;
//! * **chip-level accounting** ([`chip`]): capacity and area bookkeeping
//!   behind the paper's 3× density claim.
//!
//! The model is calibrated so the regenerated figures match the paper's
//! measured magnitudes and orderings; the figure binaries that check this
//! are listed in docs/BENCHMARKS.md. The closed-form storage-error
//! prediction the Monte-Carlo store is tested against is the test-only
//! `analysis` module.
//!
//! # Example
//!
//! ```
//! use hdoms_hdc::BinaryHypervector;
//! use hdoms_rram::config::MlcConfig;
//! use hdoms_rram::storage::HypervectorStore;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let hv = BinaryHypervector::random(&mut rng, 1024);
//! let store = HypervectorStore::program(MlcConfig::with_bits(3), &[hv.clone()]);
//! let (read_back, stats) = store.read_all(3600.0, &mut rng);
//! assert_eq!(read_back[0].dim(), hv.dim());
//! assert!(stats.bit_error_rate() < 0.25);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

#[cfg(test)]
mod analysis;
pub mod array;
pub mod chip;
pub mod config;
pub mod device;
pub mod levels;
pub mod storage;

/// Canonical measurement times used by the paper's Figures 7 and 8.
pub mod times {
    /// "After 1 s": right after programming.
    pub const AFTER_1S: f64 = 1.0;
    /// 30 minutes after programming.
    pub const AFTER_30MIN: f64 = 1_800.0;
    /// 60 minutes after programming.
    pub const AFTER_60MIN: f64 = 3_600.0;
    /// One day after programming.
    pub const AFTER_1DAY: f64 = 86_400.0;
    /// The "at least 2 hours" settling the paper applies before compute
    /// experiments (§5.2.1).
    pub(crate) const COMPUTE_AGE: f64 = 7_200.0;
}
