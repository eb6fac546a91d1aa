//! # hdoms-obs — zero-dependency observability for the hdoms stack
//!
//! The serving stack (engine → sharded backend → scheduler → server)
//! needs a window into a running process: per-stage latency breakdowns
//! for the paper's encode → associative-search → FDR pipeline, queue
//! behaviour under admission pressure, and structured logs an operator
//! can grep or ship. This crate is that window, built on `std` alone
//! (no serialisation crate resolves offline, so everything — including
//! the Prometheus text exposition and the JSON log lines — is
//! hand-rolled).
//!
//! Four pieces, usable independently:
//!
//! * [`metrics`] — a lock-cheap registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and fixed-bucket log₂ latency
//!   [`metrics::Histogram`]s (p50/p90/p99 readout, Prometheus-style
//!   text rendering). Handles are `Arc`s over atomics: recording never
//!   takes a lock, registration (startup-time) takes one `Mutex`.
//! * [`trace`] — the span vocabulary of the query pipeline: the
//!   [`trace::StageTimings`] record the engine reports per batch, one
//!   figure for each of the four stages every batch decomposes into
//!   (encode, candidate-window, shard-scoring, FDR-finalize).
//! * [`log`] — a level-filtered structured logger emitting JSON-lines
//!   or plain text, one event per line, replacing ad-hoc `eprintln!`.
//! * [`json`] — the stack's one JSON value, parser and canonical
//!   formatter: the logger writes its lines through it and
//!   `hdoms-serve` re-exports it as the codec under the wire protocol,
//!   so a string is escaped in exactly one function.
//!
//! [`export`] serves a registry's Prometheus rendering over a tiny
//! HTTP/1.0 responder (`hdoms serve --metrics host:port`); [`alloc`] is
//! the counting global allocator the memory tests and scale bench install.
//!
//! Instrumentation is observational only: recording a sample or
//! emitting a log line never changes what the instrumented code
//! computes — served PSM tables are byte-identical with observability
//! on or off (asserted by the engine equivalence suite).
//!
//! ```
//! use hdoms_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let batches = registry.counter("hdoms_query_batches_total", "Batches served");
//! let latency = registry.histogram("hdoms_batch_latency_ms", "Batch wall-clock");
//! batches.inc();
//! latency.record_ms(12.5);
//! let snap = latency.snapshot();
//! assert_eq!(snap.count(), 1);
//! assert!(registry.render_prometheus().contains("hdoms_query_batches_total 1"));
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod alloc;
pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod trace;
