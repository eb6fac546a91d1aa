//! The in-process batch query server: resident engines, streaming
//! sessions with cross-batch FDR, and runtime index lifecycle.

use crate::protocol::{
    BatchStats, ErrorCode, HistogramSummary, IndexSummary, MetricsReport, QueryRequest,
    QueryResult, Request, Response, ServerStats, SubmitReceipt, PROTOCOL_VERSION,
};
use crate::scheduler::{ScheduleError, Scheduler, SchedulerConfig, Tier, WorkPermit};
use hdoms_engine::{BatchReceipt, Engine, EngineSeries, Session, ShardTiming};
use hdoms_index::{IndexError, LibraryIndex};
use hdoms_ms::spectrum::Spectrum;
use hdoms_obs::log::{Event, Logger};
use hdoms_obs::metrics::Registry;
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::psm::table_rows;
use hdoms_prefilter::PrefilterConfig;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Maximum concurrently open sessions; `session.open` beyond this is
/// refused (a client that never finalizes would otherwise accumulate
/// PSMs on the server without bound).
pub(crate) const MAX_SESSIONS: usize = 256;

/// The client id in-process callers (startup loads through
/// [`Server::load_index`], embedders, tests) pass to the verbs. Transports
/// assign every connection its own id via [`Server::next_client_id`] so
/// the scheduler's fairness has real connections to rotate over.
pub const LOCAL_CLIENT: u64 = 0;

/// A request-level failure: what went wrong plus the machine-readable
/// [`ErrorCode`] the wire reports (`busy` / `deadline` for the
/// scheduler's structured rejections, `General` otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Wire classification.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ServeError {
    fn into_response(self) -> Response {
        Response::Error {
            code: self.code,
            message: self.message,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for ServeError {
    fn from(message: String) -> ServeError {
        ServeError {
            code: ErrorCode::General,
            message,
        }
    }
}

impl From<IndexError> for ServeError {
    fn from(error: IndexError) -> ServeError {
        ServeError::from(error.to_string())
    }
}

impl From<ScheduleError> for ServeError {
    fn from(error: ScheduleError) -> ServeError {
        ServeError {
            code: match error {
                ScheduleError::Busy { .. } => ErrorCode::Busy,
                ScheduleError::Deadline { .. } => ErrorCode::Deadline,
            },
            message: error.to_string(),
        }
    }
}

/// One resident index: the name it answers to plus the wired
/// [`Engine`] (backend + candidate index + metadata, all sharing one
/// copy of the encoded library with the loaded index).
struct ResidentIndex {
    name: String,
    engine: Arc<Engine>,
}

/// An open streaming session. The slot is taken (`Busy`) while a batch
/// is searching so one slow submit never blocks the whole server — a
/// concurrent request against the same session errors instead of
/// queueing.
enum SessionSlot {
    Ready(Box<OpenSession>),
    Busy,
}

struct OpenSession {
    index: String,
    session: Session,
    /// Priority class every submit to this session is admitted under.
    tier: Tier,
    /// Accumulated scheduler queue wait across the session's submits,
    /// reported with the finalize result.
    wait_ms: f64,
}

/// Cross-request coalescing state: the interactive groups whose leader
/// is still waiting for admission, by search parameters. An interactive
/// query joins the group for its parameters or founds one and leads it;
/// the group closes the moment the scheduler grants or refuses the
/// leader, so a query with a free worker never waits and a queued one
/// carries every identical request that arrived behind it.
#[derive(Default)]
struct Coalescer {
    groups: Mutex<HashMap<CoalesceKey, Arc<CoalesceGroup>>>,
}

/// Everything that must match for two requests to share an engine
/// batch — anything that changes scoring or filtering keeps them
/// apart: index name, window kind, FDR bits, and the resolved
/// prefilter.
type CoalesceKey = (String, &'static str, u64, PrefilterConfig);

/// One group: the leader waits for the one admission, executes the
/// merged batch, and distributes per-member results; followers block on
/// `done` until their slot fills.
struct CoalesceGroup {
    state: Mutex<GroupState>,
    done: Condvar,
}

struct GroupState {
    /// Decoded spectra per member, in join order. Drained by the leader
    /// when the group closes.
    members: Vec<Vec<Spectrum>>,
    /// Per-member results, all filled in one critical section by the
    /// leader — a shed group fails *every* member with the same
    /// structured error, never silently drops one.
    results: Vec<Option<Result<QueryResult, ServeError>>>,
}

/// What [`Server::join_or_found`] made of an interactive query: the
/// leader of a new group, or a follower already answered.
enum Membership<'a> {
    Leader(GroupCompletion<'a>),
    Answered(Result<QueryResult, ServeError>),
}

/// The leader's hold on its group, from founding it until every slot is
/// filled. Dropped, it closes the group to joiners and fills any
/// still-empty slot with an error, then wakes all waiters — so a leader
/// that panics in admission or execution can never strand a follower.
struct GroupCompletion<'a> {
    coalescer: &'a Coalescer,
    key: CoalesceKey,
    group: Arc<CoalesceGroup>,
}

impl GroupCompletion<'_> {
    /// Close the group to joiners and take its members' spectra. Both
    /// happen under the map lock, where members join, so a join is never
    /// lost and a later arrival founds the next group.
    fn close(&self) -> Vec<Vec<Spectrum>> {
        let mut groups = self.coalescer.groups.lock().expect("coalescer map lock");
        self.leave(&mut groups);
        let mut state = self.group.state.lock().expect("coalesce group lock");
        std::mem::take(&mut state.members)
    }

    /// Remove the group from the map, unless it left already (a
    /// successor may hold the key since).
    fn leave(&self, groups: &mut HashMap<CoalesceKey, Arc<CoalesceGroup>>) {
        if groups
            .get(&self.key)
            .is_some_and(|group| Arc::ptr_eq(group, &self.group))
        {
            groups.remove(&self.key);
        }
    }
}

impl Drop for GroupCompletion<'_> {
    fn drop(&mut self) {
        // This runs during unwinding too: tolerate poisoned locks
        // rather than double-panicking the process.
        if let Ok(mut groups) = self.coalescer.groups.lock() {
            self.leave(&mut groups);
        }
        let Ok(mut state) = self.group.state.lock() else {
            return;
        };
        for slot in state.results.iter_mut() {
            if slot.is_none() {
                *slot = Some(Err(ServeError::from(
                    "coalesced batch aborted before producing a result".to_owned(),
                )));
            }
        }
        drop(state);
        self.group.done.notify_all();
    }
}

/// Shard-residency accounting for mapped indexes: which shards'
/// hypervector pages are resident and their LRU order. The totals —
/// resident bytes and shards, lifetime evictions and reloads — live in
/// the `hdoms_resident_*` / `hdoms_shard_*` series and nowhere else;
/// they move only under this lock, so `server.stats` reads a consistent
/// snapshot by holding it. Owned indexes (no backing file to refault
/// from) are never tracked.
#[derive(Default)]
struct ResidencyState {
    /// Resident-byte ceiling; 0 means unlimited (no eviction).
    budget: u64,
    /// Logical LRU clock, bumped per shard touch.
    clock: u64,
    indexes: Vec<IndexResidency>,
}

/// Per-index residency entry, identified by its engine (`Arc::ptr_eq`),
/// never by the name it was registered under: a session that outlives
/// `index.unload` keeps searching its own engine, and must not be
/// accounted against a namesake loaded since. Holding the engine handle
/// also lets eviction under the residency lock reach the index
/// directly, without ever taking the resident-set lock (the lock order
/// is always resident set → residency, never the reverse).
struct IndexResidency {
    engine: Arc<Engine>,
    shards: Vec<ShardResidence>,
}

struct ShardResidence {
    /// Bytes of stored hypervector words this shard accounts for.
    bytes: u64,
    /// Residency-clock value of the most recent search that read it.
    last_touch: u64,
    resident: bool,
}

/// A long-lived batch query server over one or more warm `.hdx` indexes.
///
/// Indexes become resident through [`Server::add_index`] (startup) or the
/// `index.load` protocol verb (runtime), and can be dropped again with
/// `index.unload`. Query batches run either one-shot (`query`, FDR per
/// batch) or through a streaming session (`session.open` /
/// `session.submit` / `session.finalize`, FDR filtered **once** across
/// every submitted batch). The server is `Sync`: wrap it in an
/// [`std::sync::Arc`] and every connection thread can serve requests
/// concurrently (see [`crate::net`]).
///
/// ```
/// use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
/// use hdoms_serve::protocol::{QuerySpectrum, QueryRequest, WindowKind};
/// use hdoms_serve::server::{Server, LOCAL_CLIENT};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 42);
/// let mut config = IndexConfig::default();
/// config.threads = 2;
/// if let IndexedBackendKind::Exact(exact) = &mut config.kind {
///     exact.encoder.dim = 2048;
/// }
/// let index = LibraryIndex::build(&workload.library, config);
///
/// let server = Server::new(2);
/// server.add_index("tiny", index).unwrap();
///
/// let result = server
///     .query_batch(LOCAL_CLIENT, &QueryRequest {
///         index: "tiny".to_owned(),
///         window: WindowKind::Open,
///         fdr: 0.01,
///         tier: Default::default(),
///         prefilter: None,
///         spectra: workload.queries.iter().map(QuerySpectrum::from_spectrum).collect(),
///     })
///     .unwrap();
/// assert_eq!(result.stats.queries, workload.queries.len());
/// assert!(result.stats.identifications > 0);
/// ```
pub struct Server {
    threads: usize,
    scheduler: Scheduler,
    registry: Arc<Registry>,
    series: ServerSeries,
    /// The engines' series on this server's registry — the handles
    /// every resident engine records into, read by `server.stats`.
    pipeline: EngineSeries,
    logger: Logger,
    /// The prefilter every request that names none runs under.
    prefilter: PrefilterConfig,
    coalescer: Coalescer,
    residency: Mutex<ResidencyState>,
    indexes: RwLock<Vec<ResidentIndex>>,
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    next_session: AtomicU64,
    next_client: AtomicU64,
}

hdoms_obs::metrics::series! {
    /// The server-level series in the registry (engine, backend, and
    /// scheduler register their own alongside these). The residency
    /// four are the store, not a mirror: they move only under the
    /// residency lock.
    pub(crate) struct ServerSeries {
        batches: Counter = "hdoms_query_batches_total", "Query batches served (one-shot queries and session submits)";
        queries: Counter = "hdoms_queries_total", "Query spectra received";
        psms: Counter = "hdoms_psms_total", "Best-hit PSMs produced";
        identifications: Counter = "hdoms_identifications_total", "PSMs accepted at the requested FDR";
        batch_latency_ms: Histogram = "hdoms_batch_latency_ms", "Wall-clock batch latency as served, excluding queue wait";
        open_sessions: Gauge = "hdoms_open_sessions", "Open streaming sessions";
        resident_indexes: Gauge = "hdoms_resident_indexes", "Resident indexes";
        coalesced_batches: Counter = "hdoms_coalesced_batches_total", "Interactive groups executed, one engine batch each (a lone query is a one-member group)";
        coalesced_requests: Counter = "hdoms_coalesced_requests_total", "Interactive requests answered through executed groups";
        resident_bytes: Gauge = "hdoms_resident_bytes", "Mapped shard hypervector bytes currently resident";
        resident_shards: Gauge = "hdoms_resident_shards", "Mapped shards currently resident";
        shard_evictions: Counter = "hdoms_shard_evictions_total", "Cold shards whose pages were released under the memory budget";
        shard_reloads: Counter = "hdoms_shard_reloads_total", "Evicted shards faulted back in by a later search";
    }
}

impl Server {
    /// A server whose worker budget is `threads`: a lone batch searches
    /// over that many workers, and the scheduler never grants more than
    /// that much parallelism across all concurrent batches. Uses the
    /// default queue depth and no deadline — see
    /// [`Server::with_scheduler`] for the full knobs.
    pub fn new(threads: usize) -> Server {
        Server::with_scheduler(
            threads,
            SchedulerConfig {
                workers: threads.max(1),
                ..SchedulerConfig::default()
            },
        )
    }

    /// A server with an explicit [`SchedulerConfig`] (the
    /// `hdoms serve --workers / --queue-depth / --deadline-ms` flags).
    /// `threads` bounds construction-time parallelism (index decode,
    /// backend wiring); `config.workers` bounds search parallelism.
    pub fn with_scheduler(threads: usize, config: SchedulerConfig) -> Server {
        let registry = Arc::new(Registry::new());
        let scheduler = Scheduler::with_metrics(config, &registry);
        Server {
            threads: threads.max(1),
            scheduler,
            series: ServerSeries::register(&registry),
            pipeline: EngineSeries::register(&registry),
            registry,
            logger: Logger::disabled(),
            prefilter: PrefilterConfig::Off,
            coalescer: Coalescer::default(),
            residency: Mutex::default(),
            indexes: RwLock::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_client: AtomicU64::new(LOCAL_CLIENT + 1),
        }
    }

    /// The server's metrics registry: server counters, engine stage
    /// histograms, backend shard timings, and scheduler queue series all
    /// register here. Share it with
    /// [`hdoms_obs::export::spawn_exposition`] for Prometheus-style
    /// scraping, or read it through the `server.metrics` verb.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Replace the structured logger (call before sharing the server
    /// across connection threads). The default logger is disabled, so
    /// embedders and tests stay silent unless they opt in.
    pub fn set_logger(&mut self, logger: Logger) {
        self.logger = logger;
    }

    /// The structured logger transports log connection lifecycle
    /// through.
    pub(crate) fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Set the prefilter every `query` and `session.open` that names
    /// none runs under (the `hdoms serve --prefilter` flag). Call it
    /// before [`Server::add_index`]: a `TopK` default builds each
    /// resident index's sketch at load, so the first query pays no
    /// derivation.
    pub fn set_prefilter(&mut self, config: PrefilterConfig) {
        self.prefilter = config;
    }

    /// Bound the bytes of mapped shard hypervectors kept resident (the
    /// `hdoms serve --memory-budget` flag; 0 = unlimited). While over
    /// budget the least-recently-searched shard's pages are released
    /// back to the OS — enforced immediately and after every batch.
    /// Evicted shards refault from the backing file on their next
    /// search, so eviction never changes results, only latency.
    pub fn set_memory_budget(&mut self, bytes: u64) {
        let mut state = self.residency.lock().expect("residency lock");
        state.budget = bytes;
        self.enforce_budget(&mut state);
    }

    /// The batch scheduler (admission control, fair queue, worker
    /// budget). Exposed so transports and tests can inspect it; batch
    /// execution goes through [`Server::handle_as`] and the verbs behind
    /// it, which admit every scheduled verb themselves.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// A fresh client identity for the scheduler's fair queue. Every
    /// transport connection draws one and passes it to
    /// [`Server::handle_as`]; two requests under the same id share one
    /// round-robin slot.
    pub fn next_client_id(&self) -> u64 {
        self.next_client.fetch_add(1, Ordering::Relaxed)
    }

    /// The `server.stats` report: scheduler counters (aggregate and
    /// per-tier, from one atomic snapshot), coalescing counters, shard
    /// residency, plus the size of the resident set and the
    /// open-session count.
    pub fn stats(&self) -> ServerStats {
        let scheduler = self.scheduler.stats();
        let open_sessions = self.open_sessions();
        let resident_indexes = self.indexes.read().expect("index set lock").len();
        // The residency series move only under this lock: held, they
        // read as one snapshot (taken last — resident set → residency).
        let residency = self.residency.lock().expect("residency lock");
        ServerStats::new(
            &scheduler,
            &self.series,
            &self.pipeline,
            residency.budget,
            open_sessions,
            resident_indexes,
        )
    }

    /// The `server.metrics` report: every registered counter, gauge, and
    /// latency-histogram summary, sorted by name (the JSON twin of the
    /// Prometheus text exposition).
    pub(crate) fn metrics_report(&self) -> MetricsReport {
        let snapshot = self.registry.snapshot();
        MetricsReport {
            counters: snapshot.counters,
            gauges: snapshot.gauges,
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|(name, histogram)| (name, HistogramSummary::new(&histogram)))
                .collect(),
        }
    }

    /// Register `index` under `name` and make it resident — the one
    /// door to residency, behind startup loads and the `index.load` verb
    /// alike: the engine — shard-parallel backend, candidate index,
    /// reference metadata — is wired once, sharing the index's reference
    /// table, given the server's registry and readied for the server's
    /// default prefilter, then entered into the resident set and the
    /// shard-residency accounting.
    ///
    /// # Errors
    ///
    /// Fails on an empty or duplicate name, or an index whose backend
    /// cannot be reconstructed (see [`Engine::from_index`]).
    pub fn add_index(&self, name: &str, index: LibraryIndex) -> Result<IndexSummary, ServeError> {
        if name.is_empty() {
            return Err(IndexError::Invalid("index name must be non-empty".into()).into());
        }
        // Wire the engine before taking the write lock: reconstruction
        // is the expensive part and must not stall concurrent queries.
        let mut engine = Engine::from_index(index, self.threads)?;
        engine.attach_metrics(&self.registry);
        engine.ready_prefilter(self.prefilter)?;
        let engine = Arc::new(engine);
        // Summarize from our own handle, not a re-lookup: a concurrent
        // `index.unload` racing this load must not turn into a panic.
        let summary = summarize(name, &engine);
        let mut indexes = self.indexes.write().expect("index set lock");
        if indexes.iter().any(|r| r.name == name) {
            return Err(IndexError::Invalid(format!(
                "an index named {name:?} is already resident"
            ))
            .into());
        }
        // Residency is entered under the resident-set lock, so an
        // `index.unload` can never find the name before its entry.
        self.residency_register(&engine);
        indexes.push(ResidentIndex {
            name: name.to_owned(),
            engine,
        });
        self.publish_sizes(None, Some(indexes.len()));
        Ok(summary)
    }

    /// Load a `.hdx` file from the server's filesystem and make it
    /// resident under `name` (the `index.load` verb), on behalf of
    /// [`LOCAL_CLIENT`]. Scheduled: the load queues like any batch and
    /// decodes with the worker budget it is granted.
    ///
    /// # Errors
    ///
    /// Load failures and everything [`Server::add_index`] refuses, plus
    /// the scheduler's `busy`/`deadline` rejections.
    pub fn load_index(&self, name: &str, path: &str) -> Result<IndexSummary, ServeError> {
        self.load(LOCAL_CLIENT, name, path)
    }

    /// The `index.load` body, attributed to `client`.
    fn load(&self, client: u64, name: &str, path: &str) -> Result<IndexSummary, ServeError> {
        // A runtime load is CPU work like any batch (shard checksums
        // verify inside the parallel decode): admit it through the
        // scheduler so a storm of loads cannot oversubscribe searches.
        let permit = self.scheduler.admit(client, Tier::Batch)?;
        // Mapped load: the file is searched in place from one backing
        // buffer, so `index.load` cost stops scaling with the encoded
        // library payload.
        let index = LibraryIndex::open_mapped(Path::new(path), permit.workers().min(self.threads))
            .map_err(|e| format!("loading {path}: {e}"))?;
        let summary = self.add_index(name, index)?;
        drop(permit);
        self.logger
            .info("index.load")
            .str("name", name)
            .str("path", path)
            .u64("entries", summary.entries as u64)
            .emit();
        Ok(summary)
    }

    /// Drop the resident index `name` (the `index.unload` verb). Open
    /// sessions against it keep their engine handle and finalize
    /// normally; new requests against the name fail.
    ///
    /// # Errors
    ///
    /// Unknown name.
    pub fn unload_index(&self, name: &str) -> Result<(), ServeError> {
        let mut indexes = self.indexes.write().expect("index set lock");
        let position = indexes
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| format!("unknown index {name:?}"))?;
        let resident = indexes.remove(position);
        self.publish_sizes(None, Some(indexes.len()));
        self.residency_unregister(&resident.engine);
        drop(indexes);
        self.logger.info("index.unload").str("name", name).emit();
        Ok(())
    }

    /// The engine behind resident index `name`, if any.
    pub fn engine(&self, name: &str) -> Option<Arc<Engine>> {
        self.indexes
            .read()
            .expect("index set lock")
            .iter()
            .find(|r| r.name == name)
            .map(|r| Arc::clone(&r.engine))
    }

    /// One-line summaries of the resident indexes, in registration order.
    pub fn summaries(&self) -> Vec<IndexSummary> {
        self.indexes
            .read()
            .expect("index set lock")
            .iter()
            .map(|r| summarize(&r.name, &r.engine))
            .collect()
    }

    /// Open sessions (for monitoring and tests).
    pub(crate) fn open_sessions(&self) -> usize {
        self.sessions.lock().expect("session map lock").len()
    }

    /// The one place the session map's and the resident set's sizes
    /// reach their gauges: whoever grew or shrank one of them calls
    /// this with that collection's lock still held.
    fn publish_sizes(&self, sessions: Option<usize>, indexes: Option<usize>) {
        if let Some(open) = sessions {
            self.series.open_sessions.set(open as i64);
        }
        if let Some(resident) = indexes {
            self.series.resident_indexes.set(resident as i64);
        }
    }

    /// Answer one protocol request attributed to `client` — the id the
    /// scheduler queues the scheduled verbs (`query`, `session.submit`,
    /// `index.load`) under, so concurrent connections are served fairly.
    /// Transports draw ids from [`Server::next_client_id`]; in-process
    /// callers pass [`LOCAL_CLIENT`]. Failures become [`Response::Error`]
    /// — this never panics on wire input.
    pub fn handle_as(&self, client: u64, request: &Request) -> Response {
        /// The verb's answer, or the failure as an `error` response.
        fn respond<T>(result: Result<T, ServeError>, ok: impl FnOnce(T) -> Response) -> Response {
            result.map_or_else(ServeError::into_response, ok)
        }
        match request {
            Request::Ping => Response::Pong {
                protocol: PROTOCOL_VERSION,
            },
            Request::ListIndexes => Response::Indexes(self.summaries()),
            Request::ServerStats => Response::Stats(self.stats()),
            Request::ServerMetrics => Response::Metrics(self.metrics_report()),
            Request::Query(q) => respond(self.query_batch(client, q), Response::Result),
            Request::SessionOpen {
                index,
                window,
                tier,
                prefilter,
            } => respond(
                self.open_session(index, window.window(), *tier, *prefilter),
                |session| Response::SessionOpened {
                    session,
                    index: index.clone(),
                },
            ),
            Request::SessionSubmit { session, spectra } => respond(
                self.submit_session(client, *session, spectra),
                Response::Receipt,
            ),
            Request::SessionFinalize { session, fdr } => {
                respond(self.finalize_session(*session, *fdr), Response::Result)
            }
            Request::SessionClose { session } => respond(self.close_session(*session), |()| {
                Response::SessionClosed { session: *session }
            }),
            Request::IndexLoad { name, path } => {
                respond(self.load(client, name, path), Response::Loaded)
            }
            Request::IndexUnload { name } => respond(self.unload_index(name), |()| {
                Response::Unloaded { name: name.clone() }
            }),
        }
    }

    /// Run one query batch against a resident index on behalf of
    /// `client` and report the PSM rows plus batch statistics. FDR is
    /// filtered **per batch** — this is the path that keeps a one-batch
    /// `query` byte-identical to a local `search --index` run. The batch
    /// is validated and its prefilter resolved first (free), then queued
    /// through the scheduler under the request's [`Tier`] and executed
    /// with exactly the worker budget it is granted; queue wait, the
    /// queue depth seen at submission, and the granted budget are
    /// reported in the result's stats. Interactive requests go through
    /// the coalescer.
    ///
    /// # Errors
    ///
    /// Unknown index name, invalid FDR level, malformed spectra, or the
    /// scheduler's `busy`/`deadline` rejections.
    pub fn query_batch(
        &self,
        client: u64,
        request: &QueryRequest,
    ) -> Result<QueryResult, ServeError> {
        let engine = self
            .engine(&request.index)
            .ok_or_else(|| format!("unknown index {:?}", request.index))?;
        check_fdr(request.fdr)?;
        let spectra = decode_spectra(&request.spectra)?;
        let prefilter = request.prefilter.unwrap_or(self.prefilter);
        if request.tier == Tier::Interactive {
            return self.query_coalesced(client, request, prefilter, &engine, spectra);
        }
        let permit = self.scheduler.admit(client, request.tier)?;
        let mut results = self.execute(client, request, prefilter, &engine, &[spectra], permit)?;
        Ok(results.pop().expect("one member in, one result out"))
    }

    /// Run an interactive query through the coalescer: join the group
    /// for this request's search parameters whose leader still waits for
    /// admission, or found one and lead it — wait for the one
    /// admission, close the group, execute the merged batch, and hand
    /// every member its own result.
    fn query_coalesced(
        &self,
        client: u64,
        request: &QueryRequest,
        prefilter: PrefilterConfig,
        engine: &Arc<Engine>,
        spectra: Vec<Spectrum>,
    ) -> Result<QueryResult, ServeError> {
        let completion = match self.join_or_found(request, prefilter, spectra) {
            Membership::Leader(completion) => completion,
            Membership::Answered(result) => return result,
        };
        // Leader: identical requests join while this one queues; the
        // grant or the refusal closes the group.
        let admitted = self.scheduler.admit(client, request.tier);
        let members = completion.close();
        let outcome = match admitted {
            Ok(permit) => self.execute(client, request, prefilter, engine, &members, permit),
            Err(refused) => Err(refused.into()),
        };
        if outcome.is_ok() {
            self.series.coalesced_batches.inc();
            self.series.coalesced_requests.add(members.len() as u64);
        }
        let mine = {
            let mut state = completion.group.state.lock().expect("coalesce group lock");
            match outcome {
                Ok(results) => {
                    for (slot, result) in state.results.iter_mut().zip(results) {
                        *slot = Some(Ok(result));
                    }
                }
                Err(error) => {
                    // A refused or shed group fails ALL members with
                    // the same structured error — none silently dropped.
                    for slot in state.results.iter_mut() {
                        *slot = Some(Err(error.clone()));
                    }
                }
            }
            state.results[0].take().expect("leader result filled")
        };
        drop(completion);
        mine
    }

    /// Join the waiting group for `request`'s search parameters — and
    /// block until its leader fills this member's slot — or, when none
    /// waits, found one and hold its [`GroupCompletion`]: from here on
    /// every member gets an answer, whatever the leader does.
    fn join_or_found(
        &self,
        request: &QueryRequest,
        prefilter: PrefilterConfig,
        spectra: Vec<Spectrum>,
    ) -> Membership<'_> {
        let key: CoalesceKey = (
            request.index.clone(),
            request.window.name(),
            request.fdr.to_bits(),
            prefilter,
        );
        let mut groups = self.coalescer.groups.lock().expect("coalescer map lock");
        if let Some(group) = groups.get(&key) {
            // Follower: the leader fills our slot and wakes us.
            let group = Arc::clone(group);
            let mut state = group.state.lock().expect("coalesce group lock");
            drop(groups);
            state.members.push(spectra);
            state.results.push(None);
            let member = state.results.len() - 1;
            loop {
                if let Some(result) = state.results[member].take() {
                    return Membership::Answered(result);
                }
                state = group.done.wait(state).expect("coalesce group lock");
            }
        }
        let group = Arc::new(CoalesceGroup {
            state: Mutex::new(GroupState {
                members: vec![spectra],
                results: vec![None],
            }),
            done: Condvar::new(),
        });
        groups.insert(key.clone(), Arc::clone(&group));
        Membership::Leader(GroupCompletion {
            coalescer: &self.coalescer,
            key,
            group,
        })
    }

    /// The one execute body behind every `query`: under the one
    /// admission `permit`, run `members` (one decoded spectrum set per
    /// request; a batch-tier query is the only member) through one
    /// engine call, and build each member's [`QueryResult`] from its own
    /// per-group outcome and receipt.
    fn execute(
        &self,
        client: u64,
        request: &QueryRequest,
        prefilter: PrefilterConfig,
        engine: &Arc<Engine>,
        members: &[Vec<Spectrum>],
        permit: WorkPermit<'_>,
    ) -> Result<Vec<QueryResult>, ServeError> {
        let groups: Vec<&[Spectrum]> = members.iter().map(Vec::as_slice).collect();
        let start = Instant::now();
        let outcomes = engine.search_groups(
            &groups,
            request.window.window(),
            request.fdr,
            permit.workers(),
            prefilter,
        )?;
        // Every member waited for the whole merged batch: its
        // experienced latency is the merged wall-clock, and the one
        // admission's wait/queue/workers apply to all members alike.
        let admission = Admission {
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            wait_ms: permit.wait_ms(),
            queued: permit.queued_behind(),
            workers: permit.workers(),
        };
        drop(permit);

        let mut results = Vec::with_capacity(outcomes.len());
        for (outcome, receipt) in outcomes {
            // Each member is one logical batch, keeping counters
            // comparable with and without coalescing.
            let event = self
                .logger
                .debug("query.batch")
                .str("index", &request.index)
                .u64("client", client)
                .u64("members", members.len() as u64);
            let identifications = Some(outcome.identifications());
            self.record(event, Some(engine), &receipt, identifications, admission);
            results.push(query_result(
                request.index.clone(),
                engine,
                &outcome,
                &receipt,
                admission,
            ));
        }
        Ok(results)
    }

    /// Open a streaming session against resident index `index` (the
    /// `session.open` verb): every submit to the session is admitted
    /// under `tier` and runs under `prefilter`, or the server's default
    /// when it names none.
    ///
    /// # Errors
    ///
    /// Unknown index, an invalid prefilter override, or the server is
    /// at `MAX_SESSIONS`.
    pub fn open_session(
        &self,
        index: &str,
        window: hdoms_oms::window::PrecursorWindow,
        tier: Tier,
        prefilter: Option<PrefilterConfig>,
    ) -> Result<u64, ServeError> {
        let engine = self
            .engine(index)
            .ok_or_else(|| format!("unknown index {index:?}"))?;
        let mut session = Session::new(engine, window);
        session.set_prefilter(prefilter.unwrap_or(self.prefilter))?;
        let mut sessions = self.sessions.lock().expect("session map lock");
        if sessions.len() >= MAX_SESSIONS {
            return Err(format!(
                "server at capacity ({MAX_SESSIONS} open sessions); finalize one first"
            )
            .into());
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            SessionSlot::Ready(Box::new(OpenSession {
                index: index.to_owned(),
                session,
                tier,
                wait_ms: 0.0,
            })),
        );
        self.publish_sizes(Some(sessions.len()), None);
        self.logger
            .debug("session.open")
            .u64("session", id)
            .str("index", index)
            .str("tier", tier.name())
            .emit();
        Ok(id)
    }

    /// Submit one batch to an open session on behalf of `client`:
    /// encode, search, accumulate raw PSMs. No FDR filtering happens
    /// until finalize. The batch queues through the scheduler while its
    /// session slot is held busy, then searches with exactly the granted
    /// worker budget — accumulated PSMs are byte-identical whatever the
    /// budget, so scheduling never changes the finalized table.
    ///
    /// # Errors
    ///
    /// Unknown or busy session, malformed spectra, or the scheduler's
    /// `busy`/`deadline` rejections.
    pub fn submit_session(
        &self,
        client: u64,
        id: u64,
        spectra: &[crate::protocol::QuerySpectrum],
    ) -> Result<SubmitReceipt, ServeError> {
        let spectra = decode_spectra(spectra)?;
        let mut lease = self.take_session(id)?;
        // The slot stays busy from here through the search, so the
        // session map lock is never held across the batch (or the queue
        // wait); the lease restores the slot on drop — even if the
        // search panics or the scheduler sheds the batch.
        let permit = self.scheduler.admit(client, lease.tier())?;
        let receipt = lease.session().submit(&spectra, permit.workers());
        // A submit has no second clock: as served, its latency is the
        // receipt's own stage sum.
        let admission = Admission {
            latency_ms: receipt.latency_ms,
            wait_ms: permit.wait_ms(),
            queued: permit.queued_behind(),
            workers: permit.workers(),
        };
        drop(permit);
        lease.add_wait(admission.wait_ms);
        let event = self
            .logger
            .debug("session.submit")
            .u64("session", id)
            .u64("client", client)
            .u64("batch", receipt.batch as u64);
        let engine = lease.session().engine();
        self.record(event, Some(engine), &receipt, None, admission);
        Ok(SubmitReceipt::new(id, receipt, admission))
    }

    /// Filter FDR once over everything the session accumulated, return
    /// the full PSM table, and close the session.
    ///
    /// # Errors
    ///
    /// Unknown or busy session, or an FDR level outside (0, 1).
    pub fn finalize_session(&self, id: u64, fdr: f64) -> Result<QueryResult, ServeError> {
        check_fdr(fdr)?;
        // Consuming the lease removes the slot immediately: the session
        // is spent whatever happens next.
        let open = self.take_session(id)?.consume();
        let start = Instant::now();
        let engine = Arc::clone(open.session.engine());
        let (outcome, receipt) = open.session.finalize(fdr);
        let submitted_ms = receipt.latency_ms - receipt.stages.finalize_ms;
        let latency_ms = submitted_ms + start.elapsed().as_secs_f64() * 1e3;

        // The finalize itself runs unscheduled (the FDR filter is
        // cheap); wait_ms reports what the session's submits spent
        // queued, workers 0 marks the unscheduled batch.
        let admission = Admission {
            latency_ms,
            wait_ms: open.wait_ms,
            queued: 0,
            workers: 0,
        };
        let event = self.logger.debug("session.finalize").u64("session", id);
        let identifications = Some(outcome.identifications());
        self.record(event, None, &receipt, identifications, admission);
        Ok(query_result(
            open.index, &engine, &outcome, &receipt, admission,
        ))
    }

    /// The one place a served verb reaches the server's series and the
    /// debug log, so the two cannot disagree. `event` arrives carrying
    /// the verb's own identifying fields and leaves with the counts;
    /// `ran` is the engine when the verb ran a scheduled batch (`query`,
    /// `session.submit`) — which then counts as one, touches the shards
    /// it visited and logs its queue wait — and `None` for a finalize,
    /// whose `receipt` is the session's totals, counted batch by batch
    /// already.
    fn record(
        &self,
        event: Event<'_>,
        ran: Option<&Arc<Engine>>,
        receipt: &BatchReceipt,
        identifications: Option<usize>,
        admission: Admission,
    ) {
        let mut event = event.u64("queries", receipt.queries as u64);
        if let Some(accepted) = identifications {
            self.series.identifications.add(accepted as u64);
            event = event.u64("identifications", accepted as u64);
        }
        event = event.f64("latency_ms", admission.latency_ms);
        if let Some(engine) = ran {
            self.residency_touch(engine, &receipt.shard_timings);
            self.series.batches.inc();
            self.series.queries.add(receipt.queries as u64);
            self.series.psms.add(receipt.psms as u64);
            self.series.batch_latency_ms.record_ms(admission.latency_ms);
            event = event.f64("wait_ms", admission.wait_ms);
        }
        event.emit();
    }

    /// Discard an open session without producing a result (the
    /// `session.close` verb — the abort path for clients that fail
    /// mid-stream, so their slots are not leaked against
    /// [`MAX_SESSIONS`]).
    ///
    /// # Errors
    ///
    /// Unknown or busy session.
    pub(crate) fn close_session(&self, id: u64) -> Result<(), ServeError> {
        let _ = self.take_session(id)?.consume();
        Ok(())
    }

    /// Take session `id` out of the map, leaving a `Busy` marker owned
    /// by the returned lease.
    fn take_session(&self, id: u64) -> Result<SessionLease<'_>, ServeError> {
        let mut sessions = self.sessions.lock().expect("session map lock");
        match sessions.remove(&id) {
            None => Err(format!("unknown session {id}").into()),
            Some(SessionSlot::Busy) => {
                sessions.insert(id, SessionSlot::Busy);
                Err(format!("session {id} is busy (one request at a time per session)").into())
            }
            Some(SessionSlot::Ready(open)) => {
                sessions.insert(id, SessionSlot::Busy);
                Ok(SessionLease {
                    server: self,
                    id,
                    open: Some(open),
                })
            }
        }
    }

    /// Start residency tracking for a newly resident index. Only mapped
    /// indexes are tracked — owned tables have no backing file to
    /// refault from, so there is nothing safe to evict.
    fn residency_register(&self, engine: &Arc<Engine>) {
        let Some(index) = engine.index() else {
            return;
        };
        if !index.shared_references().is_mapped() {
            return;
        }
        let bytes = index.shard_word_bytes();
        let mut state = self.residency.lock().expect("residency lock");
        let clock = state.clock;
        state.clock += bytes.len() as u64;
        let shards = bytes
            .iter()
            .enumerate()
            .map(|(at, &bytes)| ShardResidence {
                bytes,
                // Freshly mapped shards start resident and coldest in
                // registration order: under pressure they evict first,
                // before anything a search has actually touched.
                last_touch: clock + at as u64,
                resident: true,
            })
            .collect();
        self.series
            .resident_bytes
            .add(bytes.iter().sum::<u64>() as i64);
        self.series.resident_shards.add(bytes.len() as i64);
        state.indexes.push(IndexResidency {
            engine: Arc::clone(engine),
            shards,
        });
        self.enforce_budget(&mut state);
    }

    /// Stop tracking an unloaded index (its resident bytes leave the
    /// budget; open sessions keep the engine alive but untracked).
    fn residency_unregister(&self, engine: &Arc<Engine>) {
        let mut state = self.residency.lock().expect("residency lock");
        let tracked = state
            .indexes
            .iter()
            .position(|entry| Arc::ptr_eq(&entry.engine, engine));
        if let Some(at) = tracked {
            for shard in state.indexes.remove(at).shards {
                if shard.resident {
                    self.series.resident_bytes.sub(shard.bytes as i64);
                    self.series.resident_shards.sub(1);
                }
            }
        }
    }

    /// Mark the shards a batch visited on `engine` as most-recently-used,
    /// count any that a search just faulted back in, then evict cold
    /// shards while over budget.
    fn residency_touch(&self, engine: &Arc<Engine>, timings: &[ShardTiming]) {
        if timings.is_empty() {
            return;
        }
        let mut state = self.residency.lock().expect("residency lock");
        let mut clock = state.clock;
        let Some(entry) = state
            .indexes
            .iter_mut()
            .find(|entry| Arc::ptr_eq(&entry.engine, engine))
        else {
            return; // owned index, or unloaded while the batch ran
        };
        for timing in timings {
            let Some(shard) = entry.shards.get_mut(timing.shard as usize) else {
                continue;
            };
            clock += 1;
            shard.last_touch = clock;
            if !shard.resident {
                // The search refaulted the shard's pages from the
                // backing file: it is resident again.
                shard.resident = true;
                self.series.shard_reloads.inc();
                self.series.resident_bytes.add(shard.bytes as i64);
                self.series.resident_shards.add(1);
            }
        }
        state.clock = clock;
        self.enforce_budget(&mut state);
    }

    /// While over budget, release the least-recently-searched resident
    /// shard's pages back to the OS. A shard too small to cover a whole
    /// page still leaves the resident set (the accounting must
    /// converge); its sub-page words stay cached until normal reclaim.
    fn enforce_budget(&self, state: &mut ResidencyState) {
        while state.budget > 0 && self.series.resident_bytes.get() as u64 > state.budget {
            let mut victim: Option<(usize, usize, u64)> = None;
            for (index, entry) in state.indexes.iter().enumerate() {
                for (at, shard) in entry.shards.iter().enumerate() {
                    let colder = victim.is_none_or(|(_, _, touch)| shard.last_touch < touch);
                    if shard.resident && colder {
                        victim = Some((index, at, shard.last_touch));
                    }
                }
            }
            let Some((index, at, _)) = victim else {
                break; // nothing left to evict; the floor is the floor
            };
            let entry = &mut state.indexes[index];
            entry
                .engine
                .index()
                .expect("tracked engines are index-backed")
                .release_shard_words(at);
            let shard = &mut entry.shards[at];
            shard.resident = false;
            self.series.resident_bytes.sub(shard.bytes as i64);
            self.series.resident_shards.sub(1);
            self.series.shard_evictions.inc();
        }
    }
}

/// A session taken out of the map for exclusive use. While the lease
/// lives, the map holds a `Busy` marker for its id; dropping the lease
/// puts the session back (or clears the marker entirely if the session
/// was consumed). Because the restore runs in `Drop`, a panic while
/// searching unwinds into cleanup instead of leaving the id
/// permanently "busy".
struct SessionLease<'a> {
    server: &'a Server,
    id: u64,
    open: Option<Box<OpenSession>>,
}

impl SessionLease<'_> {
    /// The leased session.
    fn session(&mut self) -> &mut Session {
        &mut self.open.as_mut().expect("lease not consumed").session
    }

    /// The priority class the session was opened under.
    fn tier(&self) -> Tier {
        self.open.as_ref().expect("lease not consumed").tier
    }

    /// Accumulate scheduler queue wait onto the session (reported with
    /// its finalize result).
    fn add_wait(&mut self, wait_ms: f64) {
        self.open.as_mut().expect("lease not consumed").wait_ms += wait_ms;
    }

    /// Take the session out for good; the drop then removes the slot
    /// instead of restoring it.
    fn consume(mut self) -> OpenSession {
        *self.open.take().expect("lease not consumed")
    }
}

impl Drop for SessionLease<'_> {
    fn drop(&mut self) {
        // This runs during unwinding too: tolerate a poisoned lock
        // rather than double-panicking the process.
        let Ok(mut sessions) = self.server.sessions.lock() else {
            return;
        };
        match self.open.take() {
            Some(open) => {
                sessions.insert(self.id, SessionSlot::Ready(open));
            }
            None => {
                sessions.remove(&self.id);
                self.server.publish_sizes(Some(sessions.len()), None);
            }
        }
    }
}

fn summarize(name: &str, engine: &Engine) -> IndexSummary {
    let index = engine
        .index()
        .expect("server engines are always index-backed");
    IndexSummary::new(name, index)
}

/// What the serving layer measured around a batch (the engine's receipt
/// carries everything measured inside it).
#[derive(Clone, Copy)]
pub(crate) struct Admission {
    pub(crate) latency_ms: f64,
    pub(crate) wait_ms: f64,
    pub(crate) queued: usize,
    pub(crate) workers: usize,
}

/// One answered batch on the wire: the rendered rows, and statistics
/// drawn from the outcome's counts, the engine receipt's accounting and
/// stage timings, and the serving layer's own measurements.
fn query_result(
    index: String,
    engine: &Engine,
    outcome: &PipelineOutcome,
    receipt: &BatchReceipt,
    admission: Admission,
) -> QueryResult {
    QueryResult {
        index,
        stats: BatchStats::new(outcome, receipt, admission),
        rows: table_rows(engine.peptides(), outcome),
    }
}

fn check_fdr(fdr: f64) -> Result<(), ServeError> {
    if fdr > 0.0 && fdr < 1.0 {
        Ok(())
    } else {
        Err(format!("fdr {fdr} outside (0, 1)").into())
    }
}

fn decode_spectra(spectra: &[crate::protocol::QuerySpectrum]) -> Result<Vec<Spectrum>, String> {
    spectra.iter().map(|s| s.to_spectrum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QuerySpectrum, WindowKind};
    use hdoms_index::{IndexConfig, IndexedBackendKind};
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    fn tiny_index(workload: &SyntheticWorkload) -> hdoms_index::LibraryIndex {
        let mut config = IndexConfig {
            entries_per_shard: 64,
            threads: 4,
            ..IndexConfig::default()
        };
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 2048;
        }
        LibraryIndex::build(&workload.library, config)
    }

    fn tiny_server() -> (SyntheticWorkload, Server) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 77);
        let index = tiny_index(&workload);
        let server = Server::new(4);
        server.add_index("tiny", index).unwrap();
        (workload, server)
    }

    fn batch_of(workload: &SyntheticWorkload) -> Vec<QuerySpectrum> {
        workload
            .queries
            .iter()
            .map(QuerySpectrum::from_spectrum)
            .collect()
    }

    /// One request at a time per session: while a submit waits in
    /// admission holding its session's slot, a second submit, a
    /// finalize and a close on that session are each refused as busy;
    /// once a worker frees, the waiting submit's receipt arrives and the
    /// finalize pools its batch. The test holds the only worker token
    /// itself, so the order is forced, not timed.
    #[test]
    fn a_session_serves_one_request_at_a_time() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 78);
        let one_worker = SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        };
        let server = Server::with_scheduler(1, one_worker);
        server.add_index("tiny", tiny_index(&workload)).unwrap();
        let window = hdoms_oms::window::PrecursorWindow::open_default();
        let id = (server.open_session("tiny", window, Tier::Batch, None)).unwrap();
        let spectra = batch_of(&workload);
        let busy = format!("session {id} is busy (one request at a time per session)");

        let token = server.scheduler().admit(999, Tier::Batch).unwrap();
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| server.submit_session(1, id, &spectra));
            while server.scheduler().stats().queued == 0 {
                std::thread::yield_now();
            }
            assert_eq!(server.scheduler().stats().queued, 1);
            let refusals = [
                server.submit_session(2, id, &spectra).err(),
                server.finalize_session(id, 0.01).err(),
                server.close_session(id).err(),
            ];
            for refusal in refusals {
                assert_eq!(refusal.expect("refused while busy").message, busy);
            }
            drop(token);
            let receipt = waiting
                .join()
                .unwrap()
                .expect("admitted once the token frees");
            assert_eq!((receipt.batch, receipt.queries), (1, spectra.len()));
        });
        let pooled = server
            .finalize_session(id, 0.01)
            .expect("the slot is free again");
        assert_eq!(pooled.stats.queries, spectra.len());
        assert!(pooled.stats.identifications > 0);
    }

    #[test]
    fn ping_and_listing() {
        let (_, server) = tiny_server();
        assert_eq!(
            server.handle_as(LOCAL_CLIENT, &Request::Ping),
            Response::Pong {
                protocol: PROTOCOL_VERSION
            }
        );
        let Response::Indexes(list) = server.handle_as(LOCAL_CLIENT, &Request::ListIndexes) else {
            panic!("expected index listing");
        };
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "tiny");
        assert_eq!(list[0].backend, "exact");
        assert_eq!(list[0].dim, 2048);
        assert!(list[0].shards >= 2);
    }

    #[test]
    fn query_batch_reports_stats_and_rows() {
        let (workload, server) = tiny_server();
        let result = server
            .query_batch(
                LOCAL_CLIENT,
                &QueryRequest {
                    index: "tiny".to_owned(),
                    window: WindowKind::Open,
                    fdr: 0.01,
                    tier: Tier::Batch,
                    prefilter: None,
                    spectra: batch_of(&workload),
                },
            )
            .unwrap();
        assert_eq!(result.stats.queries, workload.queries.len());
        assert!(result.stats.identifications > 10);
        assert!(result.stats.candidates_scored > 0);
        assert!(result.stats.shards_touched >= result.rows.len());
        assert!(result.stats.latency_ms > 0.0);
        assert_eq!(
            result.rows.iter().filter(|r| r.accepted).count(),
            result.stats.identifications
        );
        // Every accepted row carries a peptide (the catalog side works).
        assert!(result
            .rows
            .iter()
            .filter(|r| r.accepted)
            .all(|r| !r.peptide.is_empty()));
    }

    #[test]
    fn served_batches_are_deterministic() {
        let (workload, server) = tiny_server();
        let request = QueryRequest {
            index: "tiny".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Tier::Batch,
            prefilter: None,
            spectra: batch_of(&workload),
        };
        let a = server.query_batch(LOCAL_CLIENT, &request).unwrap();
        let b = server.query_batch(LOCAL_CLIENT, &request).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn session_pools_fdr_across_batches() {
        let (workload, server) = tiny_server();
        let spectra = batch_of(&workload);

        // One-shot run over everything.
        let single = server
            .query_batch(
                LOCAL_CLIENT,
                &QueryRequest {
                    index: "tiny".to_owned(),
                    window: WindowKind::Open,
                    fdr: 0.01,
                    tier: Tier::Batch,
                    prefilter: None,
                    spectra: spectra.clone(),
                },
            )
            .unwrap();

        // Three session batches, finalized once.
        let id = server
            .open_session("tiny", WindowKind::Open.window(), Tier::Batch, None)
            .unwrap();
        assert_eq!(server.open_sessions(), 1);
        let chunk = spectra.len().div_ceil(3);
        let mut last_total = 0;
        for (i, batch) in spectra.chunks(chunk).enumerate() {
            let receipt = server.submit_session(LOCAL_CLIENT, id, batch).unwrap();
            assert_eq!(receipt.session, id);
            assert_eq!(receipt.batch, i + 1);
            assert!(receipt.total_psms >= last_total);
            last_total = receipt.total_psms;
        }
        let pooled = server.finalize_session(id, 0.01).unwrap();
        assert_eq!(server.open_sessions(), 0, "finalize closes the session");

        // Cross-batch FDR: the pooled rows equal the single-run rows.
        assert_eq!(pooled.rows, single.rows);
        assert_eq!(pooled.stats.queries, single.stats.queries);
        assert_eq!(pooled.stats.identifications, single.stats.identifications);
        assert_eq!(
            pooled.stats.candidates_scored,
            single.stats.candidates_scored
        );

        // The session is gone: further requests error.
        assert!(server
            .submit_session(LOCAL_CLIENT, id, &spectra[..1])
            .is_err());
        assert!(server.finalize_session(id, 0.01).is_err());
    }

    #[test]
    fn runtime_load_and_unload() {
        let (workload, server) = tiny_server();
        let other = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 78);
        let path =
            std::env::temp_dir().join(format!("hdoms-serve-load-{}.hdx", std::process::id()));
        tiny_index(&other).write(&path).unwrap();

        let summary = server.load_index("second", path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(summary.name, "second");
        assert_eq!(server.summaries().len(), 2);

        // The loaded index answers queries.
        let result = server
            .query_batch(
                LOCAL_CLIENT,
                &QueryRequest {
                    index: "second".to_owned(),
                    window: WindowKind::Open,
                    fdr: 0.01,
                    tier: Tier::Batch,
                    prefilter: None,
                    spectra: batch_of(&other),
                },
            )
            .unwrap();
        assert!(result.stats.identifications > 0);

        // Unload: the name stops resolving, cleanly.
        server.unload_index("second").unwrap();
        assert_eq!(server.summaries().len(), 1);
        let err = server
            .query_batch(
                LOCAL_CLIENT,
                &QueryRequest {
                    index: "second".to_owned(),
                    window: WindowKind::Open,
                    fdr: 0.01,
                    tier: Tier::Batch,
                    prefilter: None,
                    spectra: batch_of(&other),
                },
            )
            .unwrap_err();
        assert!(err.message.contains("unknown index"));
        assert!(server.unload_index("second").is_err());
        let _ = workload;
    }

    #[test]
    fn close_discards_a_session_and_frees_its_slot() {
        let (workload, server) = tiny_server();
        let spectra = batch_of(&workload);
        let id = server
            .open_session("tiny", WindowKind::Open.window(), Tier::Batch, None)
            .unwrap();
        server.submit_session(LOCAL_CLIENT, id, &spectra).unwrap();
        assert_eq!(server.open_sessions(), 1);
        server.close_session(id).unwrap();
        assert_eq!(server.open_sessions(), 0);
        // The id is gone: no finalize, no re-close.
        assert!(server.finalize_session(id, 0.01).is_err());
        assert!(server.close_session(id).is_err());
    }

    #[test]
    fn sessions_survive_unload_of_their_index() {
        let (workload, server) = tiny_server();
        let spectra = batch_of(&workload);
        let id = server
            .open_session("tiny", WindowKind::Open.window(), Tier::Batch, None)
            .unwrap();
        server.submit_session(LOCAL_CLIENT, id, &spectra).unwrap();
        server.unload_index("tiny").unwrap();
        // The open session keeps its engine alive and finalizes fine.
        let result = server.finalize_session(id, 0.01).unwrap();
        assert!(result.stats.identifications > 0);
        // But no new session can target the unloaded name.
        assert!(server
            .open_session("tiny", WindowKind::Open.window(), Tier::Batch, None)
            .is_err());
    }

    #[test]
    fn unknown_index_and_bad_fdr_are_errors_not_panics() {
        let (workload, server) = tiny_server();
        let mut request = QueryRequest {
            index: "nope".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Tier::Batch,
            prefilter: None,
            spectra: batch_of(&workload),
        };
        assert!(matches!(
            server.handle_as(LOCAL_CLIENT, &Request::Query(request.clone())),
            Response::Error { .. }
        ));
        request.index = "tiny".to_owned();
        request.fdr = 0.0;
        assert!(server.query_batch(LOCAL_CLIENT, &request).is_err());
        // Session verbs fail the same way.
        assert!(server
            .open_session("nope", WindowKind::Open.window(), Tier::Batch, None)
            .is_err());
        assert!(server.submit_session(LOCAL_CLIENT, 999, &[]).is_err());
        let id = server
            .open_session("tiny", WindowKind::Open.window(), Tier::Batch, None)
            .unwrap();
        assert!(server.finalize_session(id, 0.0).is_err());
        // A bad FDR level does not consume the session.
        assert!(server.finalize_session(id, 0.01).is_ok());
    }

    /// A precursor m/z whose neutral mass overflows is refused, not
    /// scored against every reference at an infinite delta that the
    /// `result` line cannot carry.
    #[test]
    fn an_overflowing_neutral_mass_is_an_error() {
        let (workload, server) = tiny_server();
        let mut spectrum = QuerySpectrum::from_spectrum(&workload.queries[0]);
        spectrum.precursor_mz = 1e308;
        spectrum.precursor_charge = 2;
        for window in [WindowKind::Standard, WindowKind::Open] {
            let request = Request::Query(QueryRequest {
                index: "tiny".to_owned(),
                window,
                fdr: 0.01,
                tier: Tier::Batch,
                prefilter: None,
                spectra: vec![spectrum.clone()],
            });
            let response = server.handle_as(LOCAL_CLIENT, &request);
            let Response::Error { message, .. } = &response else {
                panic!("{window:?}: answered with {response:?}");
            };
            assert!(message.contains("neutral mass overflows"), "{message}");
            // Byte for byte the line PROTOCOL.md shows.
            assert_eq!(
                response.encode(),
                r#"{"type":"error","message":"spectrum 0: neutral mass overflows"}"#
            );
            assert_eq!(Response::decode(&response.encode()), Ok(response));
        }
    }

    /// A coalescing leader that unwinds after founding its group and
    /// taking its permit strands nobody: every follower gets the
    /// structured abort error, the permit's token comes back, the group
    /// leaves the map, and the next interactive query is served.
    #[test]
    fn an_unwinding_leader_fails_its_followers_and_frees_its_permit() {
        const FOLLOWERS: usize = 3;
        let (workload, server) = tiny_server();
        let request = QueryRequest {
            index: "tiny".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Tier::Interactive,
            prefilter: None,
            spectra: batch_of(&workload)[..4].to_vec(),
        };
        let spectra = decode_spectra(&request.spectra).unwrap();
        let Membership::Leader(completion) =
            server.join_or_found(&request, PrefilterConfig::Off, spectra)
        else {
            panic!("the first query into an empty coalescer leads");
        };
        let (server, request) = (&server, &request);
        let answers: Vec<_> = std::thread::scope(|scope| {
            let followers: Vec<_> = (1..=FOLLOWERS as u64)
                .map(|client| scope.spawn(move || server.query_batch(client, request)))
                .collect();
            let joined = || completion.group.state.lock().unwrap().members.len();
            while joined() < FOLLOWERS + 1 {
                std::thread::yield_now();
            }
            let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _permit = server.scheduler.admit(LOCAL_CLIENT, Tier::Interactive);
                let _members = completion.close();
                assert_eq!(server.scheduler().stats().in_flight, 1, "permit taken");
                panic!("the leader unwinds before any result");
            }));
            let payload = leader.expect_err("the leader unwound");
            let reason = payload.downcast_ref::<&str>().copied();
            assert_eq!(reason, Some("the leader unwinds before any result"));
            followers.into_iter().map(|f| f.join().unwrap()).collect()
        });
        assert_eq!(answers.len(), FOLLOWERS);
        for answer in answers {
            let error = answer.expect_err("a follower of an aborted group");
            assert_eq!(error.code, ErrorCode::General);
            assert!(error.message.contains("coalesced batch aborted"), "{error}");
        }
        let stats = server.scheduler().stats();
        assert_eq!((stats.workers_busy, stats.in_flight), (0, 0));
        assert!(server.coalescer.groups.lock().unwrap().is_empty());
        let next = server.query_batch(LOCAL_CLIENT, request).unwrap();
        assert_eq!(next.stats.queries, 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (workload, server) = tiny_server();
        let index = tiny_index(&workload);
        assert!(server.add_index("tiny", index).is_err());
    }

    /// `add_index` and the `index.load` verb are one door: an empty or
    /// already-resident name is refused through either, with the same
    /// text, and nothing is left behind in the listing.
    #[test]
    fn both_doors_refuse_empty_and_duplicate_names() {
        let (workload, server) = tiny_server();
        let path =
            std::env::temp_dir().join(format!("hdoms-serve-doors-{}.hdx", std::process::id()));
        tiny_index(&workload).write(&path).unwrap();
        for (name, needle) in [("", "must be non-empty"), ("tiny", "already resident")] {
            let direct = server.add_index(name, tiny_index(&workload)).unwrap_err();
            assert!(direct.message.contains(needle), "add_index: {direct}");
            let wire = server.handle_as(
                LOCAL_CLIENT,
                &Request::IndexLoad {
                    name: name.to_owned(),
                    path: path.to_str().unwrap().to_owned(),
                },
            );
            assert_eq!(wire, Response::error(direct.message), "index.load {name:?}");
        }
        std::fs::remove_file(&path).ok();
        let names: Vec<String> = server.summaries().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["tiny"]);
        assert_eq!(server.stats().resident_indexes, 1);
    }

    #[test]
    fn resident_backend_shares_index_storage() {
        let (_, server) = tiny_server();
        let engine = server.engine("tiny").expect("resident");
        // The resident pair holds ONE copy of the encoded library: the
        // index's shared table has exactly two handles (index + the
        // engine backend's scorer), and no hypervector words were cloned.
        assert_eq!(
            engine
                .index()
                .expect("index-backed")
                .shared_references()
                .handle_count(),
            2
        );
    }
}
