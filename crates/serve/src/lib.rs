//! # hdoms-serve — long-lived batch query serving over warm `.hdx` indexes
//!
//! The paper's economics hinge on amortisation: the library is encoded
//! (programmed into MLC RRAM) **once**, then millions of open-modification
//! queries stream against the resident state. `hdoms-index` made the
//! programmed state persistent; this crate makes it *resident*: a
//! [`server::Server`] loads one or more `.hdx` indexes at startup, keeps
//! their shard-parallel backends warm in memory — sharing a single copy of
//! the encoded library between index and backend — and answers query
//! batches for as long as the process lives, reporting per-batch
//! statistics (latency, shards touched, candidates scored).
//!
//! Three layers, each usable on its own:
//!
//! * [`server`] — the in-process API over `hdoms-engine`:
//!   [`server::Server::add_index`] (or the runtime `index.load` /
//!   `index.unload` verbs), then [`server::Server::query_batch`] for
//!   one-shot batches or `session.open` / `session.submit` /
//!   `session.finalize` for streaming clients whose FDR is filtered
//!   **once across every submitted batch**. Each verb has one entry
//!   point, which names the scheduler client it runs for
//!   ([`server::LOCAL_CLIENT`] in process); [`server::Server::handle_as`]
//!   answers any request line's message. Answers are
//!   [`hdoms_oms::psm::PsmTableRow`]s, byte-identical to a local
//!   `hdoms search --index` run.
//! * [`protocol`] — the wire messages: line-framed canonical JSON,
//!   specified in `docs/PROTOCOL.md` (whose examples are asserted
//!   verbatim by this crate's tests).
//! * [`net`] — transports: [`net::serve_listener`] (TCP, one thread per
//!   connection), [`net::serve_stdio`], and a blocking [`net::Client`].
//!
//! Underneath the verbs sits the [`scheduler`]: every `query`,
//! `session.submit`, and `index.load` queues through a shared
//! [`scheduler::Scheduler`] that bounds total in-flight search
//! parallelism to a fixed worker budget, grants batches round-robin
//! across clients, sheds batches that wait past a soft deadline, and
//! rejects new work with a structured `busy` error when the queue is
//! full — so N concurrent connections degrade fairly instead of
//! oversubscribing the CPU N-fold (see `docs/SCHEDULER.md`).
//!
//! The whole stack is observable: the server owns an `hdoms-obs`
//! metrics registry (recorded by the engine pipeline, the sharded
//! backend, the [`scheduler`], and the serve layer itself), decomposes
//! every batch into traced pipeline stages surfaced in
//! [`protocol::BatchStats`] and session receipts, and logs structured
//! events through an `hdoms_obs::log::Logger`
//! ([`server::Server::set_logger`]). The registry is queryable over the
//! wire (`server.metrics`) and scrapeable in Prometheus text format
//! (`hdoms serve --metrics`); instrumentation never changes output
//! bytes (see `docs/OBSERVABILITY.md`).
//!
//! [`json`] is the hand-rolled canonical JSON underneath (no JSON crate
//! resolves offline).
//!
//! The `hdoms` CLI exposes this as `hdoms serve` (daemon) and
//! `hdoms query` (remote batch search); `crates/bench`'s `serve_bench`
//! measures resident-index batch throughput.
//!
//! ```
//! use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_serve::protocol::{Request, Response};
//! use hdoms_serve::server::{Server, LOCAL_CLIENT};
//!
//! // Encode once (normally: `hdoms index build`, then LibraryIndex::open_mapped).
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9);
//! let mut config = IndexConfig::default();
//! config.threads = 2;
//! if let IndexedBackendKind::Exact(exact) = &mut config.kind {
//!     exact.encoder.dim = 2048;
//! }
//! let index = LibraryIndex::build(&workload.library, config);
//!
//! // Serve forever (here: one protocol round-trip in process).
//! let server = Server::new(2);
//! server.add_index("tiny", index).unwrap();
//! let request = Request::decode(r#"{"type":"list_indexes"}"#).unwrap();
//! let Response::Indexes(list) = server.handle_as(LOCAL_CLIENT, &request) else {
//!     panic!()
//! };
//! assert_eq!(list[0].name, "tiny");
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod json;
pub mod net;
pub mod protocol;
pub mod scheduler;
pub mod server;
