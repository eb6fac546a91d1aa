//! Baseline OMS search tools, reimplemented from scratch.
//!
//! The paper compares its accelerator against two state-of-the-art open
//! modification search tools (§5.1.2):
//!
//! * **ANN-SoLo** (Arab et al. 2023; Bittremieux et al.) — a cascade open
//!   search on sparse float spectrum vectors with a *shifted dot product*
//!   that credits fragments displaced by the precursor mass delta.
//!   Reimplemented in [`annsolo`].
//! * **HyperOMS** (Kang et al., PACT 2022) — GPU open search with binary
//!   hyperdimensional encoding and Hamming scoring. It needs no code of
//!   its own here: it is the exact HD backend under binary IDs and
//!   bit-serial level vectors, configured by
//!   [`hdoms_oms::search::HyperOmsConfig`].
//!
//! Each is a [`hdoms_oms::search::RunScorer`] — ANN-SoLo has nothing to
//! encode (`Query = ()`) and scores one candidate run; HyperOMS is not a
//! type of its own at all — so the Fig. 10 agreement study runs every
//! tool through the same engine: ANN-SoLo as the one shard of
//! `Engine::from_backend`, HyperOMS as an index kind. This crate tests
//! its scorers through the flat loop ([`hdoms_oms::search::best_hits`]).

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod annsolo;
