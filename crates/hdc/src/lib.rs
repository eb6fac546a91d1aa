//! Hyperdimensional computing (HD) substrate for the HD-OMS accelerator.
//!
//! HD encodes information into very long vectors ("hypervectors", D in the
//! thousands) where information is distributed across all dimensions —
//! which is what makes the paper's design robust to the 10 %-level bit
//! errors of multi-level-cell RRAM (§4.1.3).
//!
//! This crate provides:
//!
//! * bit-packed binary hypervectors with fast Hamming/dot operations
//!   ([`hv`], [`similarity`]),
//! * the 1/2/3-bit ID component alphabets of §4.2.2 ([`multibit`]),
//! * the ID and level item memories of ID-Level encoding, including the
//!   *chunked* level hypervectors of §4.2.1 ([`item_memory`]),
//! * the ID-Level encoder itself, Eq. (1) of the paper ([`encoder`]),
//! * one runtime-dispatched XOR + popcount sweep per instruction set
//!   (AVX2 / AVX-512 `vpopcntdq` with a portable fallback) under every
//!   distance — the exact scan's query blocks, the sketch pass's slabs
//!   and a single pair alike — and the blocked ID-Level encode kernel
//!   ([`kernels`]),
//! * bit-error injection for robustness studies ([`corrupt`]), and
//! * a tiny scoped-thread parallel-map helper shared by the search stacks
//!   ([`parallel`]): workers take items from one shared cursor and write
//!   each result into its item's slot of one output vector.
//!
//! # Example
//!
//! ```
//! use hdoms_hdc::encoder::{EncoderConfig, IdLevelEncoder};
//! use hdoms_hdc::similarity::normalized_similarity;
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_ms::preprocess::Preprocessor;
//!
//! let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1);
//! let pre = Preprocessor::default();
//! let enc = IdLevelEncoder::new(EncoderConfig {
//!     dim: 2048,
//!     ..EncoderConfig::default()
//! });
//! let a = enc.encode(&pre.run(&w.queries[0]).unwrap());
//! let b = enc.encode(&pre.run(&w.queries[1]).unwrap());
//! let sim = normalized_similarity(&a, &b);
//! assert!(sim.abs() < 0.5, "unrelated spectra are near-orthogonal");
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod buffer;
pub mod corrupt;
pub mod encoder;
pub mod hv;
pub mod item_memory;
pub mod kernels;
pub mod multibit;
pub mod parallel;
pub mod similarity;

pub use buffer::WordBuffer;
pub use hv::{BinaryHypervector, HvRef};
pub use kernels::KernelKind;
pub use similarity::hamming_distance;
