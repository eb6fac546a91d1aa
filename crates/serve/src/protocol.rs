//! The line-framed JSON wire protocol.
//!
//! One request or response per line, each a single canonical JSON object
//! with a `"type"` tag (see `docs/PROTOCOL.md` for the full specification
//! — its example payloads are asserted byte-for-byte by this crate's
//! `protocol_docs` test). Version [`PROTOCOL_VERSION`] is reported by the
//! `pong` response.
//!
//! ```
//! use hdoms_serve::protocol::{Request, Response};
//!
//! let req = Request::decode(r#"{"type":"ping"}"#).unwrap();
//! assert_eq!(req.encode(), r#"{"type":"ping"}"#);
//! let resp = Response::Pong { protocol: 5 };
//! assert_eq!(resp.encode(), r#"{"type":"pong","protocol":5}"#);
//! ```

use crate::json::Json;
use crate::scheduler::{Tier, TierStats};
use hdoms_engine::ShardTiming;
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use hdoms_oms::psm::{Psm, PsmTableRow};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::PrefilterConfig;

/// Wire protocol version, reported by `pong`. Bumped on any incompatible
/// message change (v5: tiered serving — the `tier` option on `query` and
/// `session.open`, the `prefilter` option on `session.open`, and per-tier
/// scheduler slices, coalescing counters, and shard-residency accounting
/// in `server.stats`; v4: prefilter — the per-request `prefilter` option
/// on `query`, and sketch-cascade accounting
/// (`candidates_pre`/`candidates_post`/`sketch_ms`) in `stats`,
/// `receipt`, and `server.stats`; v3: observability — per-stage pipeline
/// timings in `stats`, stage and per-shard timings in `receipt`, and the
/// `server.metrics` verb; v2: scheduler — structured `busy`/`deadline`
/// error codes, queue-wait/budget fields in `stats` and `receipt`, and
/// the `server.stats` verb).
pub const PROTOCOL_VERSION: u32 = 5;

/// Default FDR level applied when a query request omits `"fdr"`.
pub const DEFAULT_FDR: f64 = 0.01;

/// Machine-readable classification of an `error` response, so clients
/// can react without parsing prose. `General` (the catch-all for
/// request-level failures) is omitted on the wire; the scheduler's two
/// structured rejections carry `"code":"busy"` / `"code":"deadline"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorCode {
    /// Any request-level failure without a more specific code.
    #[default]
    General,
    /// Admission control: the batch queue is full; retry later (the
    /// request was rejected before any work happened).
    Busy,
    /// The batch waited in the queue past the server's soft deadline
    /// and was shed before execution.
    Deadline,
}

impl ErrorCode {
    /// The wire name, or `None` for the omitted `General` default.
    pub fn name(self) -> Option<&'static str> {
        match self {
            ErrorCode::General => None,
            ErrorCode::Busy => Some("busy"),
            ErrorCode::Deadline => Some("deadline"),
        }
    }

    /// Parse a wire name back into a code.
    ///
    /// # Errors
    ///
    /// Describes the unknown name.
    pub fn parse(name: &str) -> Result<ErrorCode, String> {
        match name {
            "busy" => Ok(ErrorCode::Busy),
            "deadline" => Ok(ErrorCode::Deadline),
            other => Err(format!("unknown error code {other:?} (busy|deadline)")),
        }
    }
}

/// Which precursor window a query batch searches under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Open-modification window (the wide window that *is* OMS).
    Open,
    /// Standard (narrow) window.
    Standard,
}

impl WindowKind {
    /// The wire name (`"open"` / `"standard"`).
    pub fn name(self) -> &'static str {
        match self {
            WindowKind::Open => "open",
            WindowKind::Standard => "standard",
        }
    }

    /// The pipeline window this kind stands for.
    pub fn window(self) -> PrecursorWindow {
        match self {
            WindowKind::Open => PrecursorWindow::open_default(),
            WindowKind::Standard => PrecursorWindow::standard_default(),
        }
    }

    /// Parse a wire name back into a kind (the single source of truth
    /// for the `"open"` / `"standard"` mapping — the CLI uses it too).
    ///
    /// # Errors
    ///
    /// Describes the unknown name.
    pub fn parse(name: &str) -> Result<WindowKind, String> {
        match name {
            "open" => Ok(WindowKind::Open),
            "standard" => Ok(WindowKind::Standard),
            other => Err(format!("unknown window {other:?} (open|standard)")),
        }
    }
}

/// One query spectrum on the wire: precursor information plus the peak
/// list as `[mz, intensity]` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpectrum {
    /// Client-chosen id, echoed back in the PSM rows.
    pub id: u32,
    /// Precursor m/z.
    pub precursor_mz: f64,
    /// Precursor charge state.
    pub precursor_charge: u8,
    /// Fragment peaks as `(mz, intensity)` pairs.
    pub peaks: Vec<(f64, f64)>,
}

impl QuerySpectrum {
    /// Capture a [`Spectrum`] for the wire.
    pub fn from_spectrum(spectrum: &Spectrum) -> QuerySpectrum {
        QuerySpectrum {
            id: spectrum.id,
            precursor_mz: spectrum.precursor_mz,
            precursor_charge: spectrum.precursor_charge,
            peaks: spectrum
                .peaks()
                .iter()
                .map(|p| (p.mz, p.intensity))
                .collect(),
        }
    }

    /// Validate and convert back into a [`Spectrum`] (origin `Query`).
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive precursor m/z, a zero charge,
    /// and malformed peaks — the server must never panic on wire input.
    pub fn to_spectrum(&self) -> Result<Spectrum, String> {
        if !(self.precursor_mz.is_finite() && self.precursor_mz > 0.0) {
            return Err(format!(
                "spectrum {}: precursor_mz must be finite and positive",
                self.id
            ));
        }
        if self.precursor_charge == 0 {
            return Err(format!(
                "spectrum {}: precursor_charge must be ≥ 1",
                self.id
            ));
        }
        let mut peaks = Vec::with_capacity(self.peaks.len());
        for &(mz, intensity) in &self.peaks {
            if !(mz.is_finite() && mz > 0.0 && intensity.is_finite() && intensity >= 0.0) {
                return Err(format!(
                    "spectrum {}: malformed peak [{mz}, {intensity}]",
                    self.id
                ));
            }
            peaks.push(Peak::new(mz, intensity));
        }
        Ok(Spectrum::new(
            self.id,
            self.precursor_mz,
            self.precursor_charge,
            peaks,
            SpectrumOrigin::Query,
        ))
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Num(f64::from(self.id))),
            ("precursor_mz".into(), Json::Num(self.precursor_mz)),
            (
                "precursor_charge".into(),
                Json::Num(f64::from(self.precursor_charge)),
            ),
            (
                "peaks".into(),
                Json::Arr(
                    self.peaks
                        .iter()
                        .map(|&(mz, i)| Json::Arr(vec![Json::Num(mz), Json::Num(i)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<QuerySpectrum, String> {
        let peaks = req_field(v, "peaks")?
            .as_arr()
            .ok_or("spectrum peaks must be an array")?
            .iter()
            .map(|p| {
                let pair = p
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| "each peak must be a [mz, intensity] pair".to_owned())?;
                Ok((num(&pair[0], "peak mz")?, num(&pair[1], "peak intensity")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(QuerySpectrum {
            id: u32_field(v, "id")?,
            precursor_mz: num(req_field(v, "precursor_mz")?, "precursor_mz")?,
            precursor_charge: uint_in(
                req_field(v, "precursor_charge")?,
                "precursor_charge",
                u64::from(u8::MAX),
            )? as u8,
            peaks,
        })
    }
}

/// A `query` request: search a batch of spectra against one resident
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Name of the resident index to search.
    pub index: String,
    /// Precursor window (defaults to open when omitted on the wire).
    pub window: WindowKind,
    /// FDR acceptance level in (0, 1) (defaults to [`DEFAULT_FDR`]).
    pub fdr: f64,
    /// Priority class. [`Tier::Batch`] (the default — omitted on the
    /// wire) queues behind the batch bound; [`Tier::Interactive`] uses
    /// the separately bounded interactive queue, is dequeued
    /// preferentially, and is eligible for cross-request coalescing.
    pub tier: Tier,
    /// Per-request prefilter override (`"off"` / `"k=N"`). `None` (the
    /// field omitted on the wire) uses the server's configured default
    /// (`hdoms serve --prefilter`).
    pub prefilter: Option<PrefilterConfig>,
    /// The query batch. FDR filtering is per batch: splitting a query set
    /// across batches changes the acceptance threshold.
    pub spectra: Vec<QuerySpectrum>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// List the resident indexes.
    ListIndexes,
    /// Search a query batch (FDR filtered per batch).
    Query(QueryRequest),
    /// Open a streaming session against one resident index.
    SessionOpen {
        /// Name of the resident index to search.
        index: String,
        /// Precursor window for the whole session (defaults to open).
        window: WindowKind,
        /// Priority class every `session.submit` of this session is
        /// admitted under (defaults to [`Tier::Batch`], omitted on the
        /// wire at the default).
        tier: Tier,
        /// Prefilter override for the whole session (`"off"` / `"k=N"`);
        /// `None` uses the server's configured default.
        prefilter: Option<PrefilterConfig>,
    },
    /// Submit one batch to an open session (accumulates raw PSMs; no
    /// FDR filtering until `session.finalize`).
    SessionSubmit {
        /// Session id returned by `session.open`.
        session: u64,
        /// The query batch.
        spectra: Vec<QuerySpectrum>,
    },
    /// Filter FDR once over everything the session accumulated, return
    /// the full PSM table, and close the session.
    SessionFinalize {
        /// Session id returned by `session.open`.
        session: u64,
        /// FDR acceptance level in (0, 1) (defaults to [`DEFAULT_FDR`]).
        fdr: f64,
    },
    /// Discard an open session without producing a result (the abort
    /// path — clients that fail mid-stream should close what they
    /// opened so the server's session slots are not leaked).
    SessionClose {
        /// Session id returned by `session.open`.
        session: u64,
    },
    /// Load a `.hdx` index from the server's filesystem and make it
    /// resident under `name`.
    IndexLoad {
        /// Name to register the index under.
        name: String,
        /// Path to the `.hdx` file on the server.
        path: String,
    },
    /// Drop a resident index. Open sessions keep their engine alive
    /// until they finalize; new requests against the name fail.
    IndexUnload {
        /// Name the index was registered under.
        name: String,
    },
    /// Report the scheduler's queue/worker counters and the server's
    /// resident-set size (for monitoring and load shedding decisions).
    ServerStats,
    /// Report the server's metrics registry: every counter, gauge, and
    /// latency-histogram summary (the same registry `hdoms serve
    /// --metrics` exposes in Prometheus text form).
    ServerMetrics,
}

impl Request {
    /// Encode as one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Ping => Json::Obj(vec![("type".into(), Json::str("ping"))]),
            Request::ListIndexes => Json::Obj(vec![("type".into(), Json::str("list_indexes"))]),
            Request::Query(q) => {
                let mut fields = vec![
                    ("type".into(), Json::str("query")),
                    ("index".into(), Json::str(q.index.clone())),
                    ("window".into(), Json::str(q.window.name())),
                    ("fdr".into(), Json::Num(q.fdr)),
                ];
                if q.tier != Tier::default() {
                    fields.push(("tier".into(), Json::str(q.tier.name())));
                }
                if let Some(prefilter) = q.prefilter {
                    fields.push(("prefilter".into(), Json::str(prefilter.render())));
                }
                fields.push((
                    "spectra".into(),
                    Json::Arr(q.spectra.iter().map(QuerySpectrum::to_json).collect()),
                ));
                Json::Obj(fields)
            }
            Request::SessionOpen {
                index,
                window,
                tier,
                prefilter,
            } => {
                let mut fields = vec![
                    ("type".into(), Json::str("session.open")),
                    ("index".into(), Json::str(index.clone())),
                    ("window".into(), Json::str(window.name())),
                ];
                if *tier != Tier::default() {
                    fields.push(("tier".into(), Json::str(tier.name())));
                }
                if let Some(prefilter) = prefilter {
                    fields.push(("prefilter".into(), Json::str(prefilter.render())));
                }
                Json::Obj(fields)
            }
            Request::SessionSubmit { session, spectra } => Json::Obj(vec![
                ("type".into(), Json::str("session.submit")),
                ("session".into(), Json::Num(*session as f64)),
                (
                    "spectra".into(),
                    Json::Arr(spectra.iter().map(QuerySpectrum::to_json).collect()),
                ),
            ]),
            Request::SessionFinalize { session, fdr } => Json::Obj(vec![
                ("type".into(), Json::str("session.finalize")),
                ("session".into(), Json::Num(*session as f64)),
                ("fdr".into(), Json::Num(*fdr)),
            ]),
            Request::SessionClose { session } => Json::Obj(vec![
                ("type".into(), Json::str("session.close")),
                ("session".into(), Json::Num(*session as f64)),
            ]),
            Request::IndexLoad { name, path } => Json::Obj(vec![
                ("type".into(), Json::str("index.load")),
                ("name".into(), Json::str(name.clone())),
                ("path".into(), Json::str(path.clone())),
            ]),
            Request::IndexUnload { name } => Json::Obj(vec![
                ("type".into(), Json::str("index.unload")),
                ("name".into(), Json::str(name.clone())),
            ]),
            Request::ServerStats => Json::Obj(vec![("type".into(), Json::str("server.stats"))]),
            Request::ServerMetrics => Json::Obj(vec![("type".into(), Json::str("server.metrics"))]),
        };
        v.encode()
    }

    /// Decode one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// problem (malformed JSON, unknown type, missing/mistyped field).
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match req_field(&v, "type")?.as_str() {
            Some("ping") => Ok(Request::Ping),
            Some("list_indexes") => Ok(Request::ListIndexes),
            Some("query") => {
                let spectra = req_field(&v, "spectra")?
                    .as_arr()
                    .ok_or("spectra must be an array")?
                    .iter()
                    .map(QuerySpectrum::from_json)
                    .collect::<Result<Vec<_>, String>>()?;
                let window = match v.get("window") {
                    None => WindowKind::Open,
                    Some(w) => WindowKind::parse(w.as_str().ok_or("window must be a string")?)?,
                };
                let fdr = match v.get("fdr") {
                    None => DEFAULT_FDR,
                    Some(f) => num(f, "fdr")?,
                };
                let prefilter = match v.get("prefilter") {
                    None => None,
                    Some(p) => Some(PrefilterConfig::parse(
                        p.as_str().ok_or("prefilter must be a string")?,
                    )?),
                };
                Ok(Request::Query(QueryRequest {
                    index: req_field(&v, "index")?
                        .as_str()
                        .ok_or("index must be a string")?
                        .to_owned(),
                    window,
                    fdr,
                    tier: tier_field(&v)?,
                    prefilter,
                    spectra,
                }))
            }
            Some("session.open") => Ok(Request::SessionOpen {
                index: string(&v, "index")?,
                window: match v.get("window") {
                    None => WindowKind::Open,
                    Some(w) => WindowKind::parse(w.as_str().ok_or("window must be a string")?)?,
                },
                tier: tier_field(&v)?,
                prefilter: match v.get("prefilter") {
                    None => None,
                    Some(p) => Some(PrefilterConfig::parse(
                        p.as_str().ok_or("prefilter must be a string")?,
                    )?),
                },
            }),
            Some("session.submit") => Ok(Request::SessionSubmit {
                session: uint(req_field(&v, "session")?, "session")?,
                spectra: req_field(&v, "spectra")?
                    .as_arr()
                    .ok_or("spectra must be an array")?
                    .iter()
                    .map(QuerySpectrum::from_json)
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            Some("session.finalize") => Ok(Request::SessionFinalize {
                session: uint(req_field(&v, "session")?, "session")?,
                fdr: match v.get("fdr") {
                    None => DEFAULT_FDR,
                    Some(f) => num(f, "fdr")?,
                },
            }),
            Some("session.close") => Ok(Request::SessionClose {
                session: uint(req_field(&v, "session")?, "session")?,
            }),
            Some("index.load") => Ok(Request::IndexLoad {
                name: string(&v, "name")?,
                path: string(&v, "path")?,
            }),
            Some("index.unload") => Ok(Request::IndexUnload {
                name: string(&v, "name")?,
            }),
            Some("server.stats") => Ok(Request::ServerStats),
            Some("server.metrics") => Ok(Request::ServerMetrics),
            Some(other) => Err(format!("unknown request type {other:?}")),
            None => Err("request type must be a string".to_owned()),
        }
    }
}

/// A one-line summary of a resident index (the `indexes` response).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSummary {
    /// Name the index was registered under.
    pub name: String,
    /// Backend kind ("exact" | "hyperoms" | "rram").
    pub backend: String,
    /// Hypervector dimension.
    pub dim: usize,
    /// Number of indexed references.
    pub entries: usize,
    /// Number of precursor-mass shards.
    pub shards: usize,
}

/// Per-batch serving statistics, reported with every `result` response.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Wall-clock time spent answering the batch, milliseconds.
    pub latency_ms: f64,
    /// Time the batch waited in the scheduler queue before its worker
    /// budget was granted, milliseconds (for a session finalize: the
    /// accumulated wait of every submitted batch).
    pub wait_ms: f64,
    /// Batches already waiting in the queue when this one was
    /// submitted (0 for a finalize, which does not queue).
    pub queued: usize,
    /// Worker budget the scheduler granted the batch (0 for a finalize,
    /// which runs unscheduled).
    pub workers: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Queries dropped by preprocessing (too few peaks).
    pub rejected_queries: usize,
    /// Best-hit PSMs produced.
    pub psms: usize,
    /// PSMs accepted at the requested FDR.
    pub identifications: usize,
    /// Score of the weakest accepted PSM (`null` on the wire when no PSM
    /// was accepted).
    pub threshold_score: f64,
    /// Total shard visits across the batch: the sum over queries of the
    /// shard runs each query's candidate list spans.
    pub shards_touched: usize,
    /// Total candidate references scored across the batch.
    pub candidates_scored: usize,
    /// Precursor-window candidates generated across the batch, before
    /// any prefilter narrowing (equals `candidates_scored` when the
    /// prefilter is off).
    pub candidates_pre: usize,
    /// Candidates forwarded to the exact scan after prefilter narrowing
    /// (always equals `candidates_scored`).
    pub candidates_post: usize,
    /// Time spent scoring sketches and narrowing candidate lists,
    /// milliseconds (0 when the prefilter is off).
    pub sketch_ms: f64,
    /// Time spent encoding query spectra into hypervectors,
    /// milliseconds (for a session finalize: accumulated across every
    /// submitted batch; likewise for the other stage timings).
    pub encode_ms: f64,
    /// Time spent building precursor-window candidate lists,
    /// milliseconds.
    pub candidates_ms: f64,
    /// Time spent scoring candidates against the index shards,
    /// milliseconds.
    pub score_ms: f64,
    /// Time spent in FDR finalization, milliseconds.
    pub finalize_ms: f64,
    /// Name of the backend that served the batch.
    pub backend: String,
}

/// The result of one `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Which index answered.
    pub index: String,
    /// One row per best-hit PSM, in pipeline order — rendering these with
    /// [`hdoms_oms::psm::render_table_rows`] reproduces the local
    /// `search --index` table byte-for-byte.
    pub rows: Vec<PsmTableRow>,
    /// Batch statistics.
    pub stats: BatchStats,
}

/// Per-submit accounting, reported by the `receipt` response: what the
/// batch itself cost plus the session's running PSM total.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReceipt {
    /// Session the batch was submitted to.
    pub session: u64,
    /// 1-based ordinal of the batch within the session.
    pub batch: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Queries dropped by preprocessing (too few peaks).
    pub rejected_queries: usize,
    /// Best-hit PSMs the batch produced (unfiltered — FDR runs at
    /// finalize).
    pub psms: usize,
    /// Raw PSMs accumulated across the session so far.
    pub total_psms: usize,
    /// Candidate references scored in the batch.
    pub candidates_scored: usize,
    /// Precursor-window candidates the batch generated, before any
    /// prefilter narrowing.
    pub candidates_pre: usize,
    /// Candidates forwarded to the exact scan after prefilter narrowing
    /// (always equals `candidates_scored`).
    pub candidates_post: usize,
    /// Time the batch spent in the sketch prefilter, milliseconds.
    pub sketch_ms: f64,
    /// Shard visits the batch cost.
    pub shards_touched: usize,
    /// Worker budget the scheduler granted the batch.
    pub workers: usize,
    /// Wall-clock time spent searching the batch, milliseconds.
    pub latency_ms: f64,
    /// Time the batch waited in the scheduler queue, milliseconds.
    pub wait_ms: f64,
    /// Time spent encoding query spectra into hypervectors,
    /// milliseconds.
    pub encode_ms: f64,
    /// Time spent building precursor-window candidate lists,
    /// milliseconds.
    pub candidates_ms: f64,
    /// Time spent scoring candidates against the index shards,
    /// milliseconds (there is no finalize stage at submit time — FDR
    /// runs once, at `session.finalize`).
    pub score_ms: f64,
    /// Per-shard scoring cost of the batch: which shards were visited,
    /// how often, and the wall-clock scoring time each absorbed.
    pub shard_timings: Vec<ShardTiming>,
}

/// The scheduler and resident-set counters reported by the
/// `server.stats` verb: configuration, the queue right now, and
/// lifetime totals since the server started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Configured worker-token budget (`hdoms serve --workers`).
    pub workers: usize,
    /// Configured queue bound (`--queue-depth`).
    pub queue_depth: usize,
    /// Configured soft queue deadline in milliseconds (`--deadline-ms`,
    /// 0 = none).
    pub deadline_ms: u64,
    /// Configured interactive grants per batch grant under contention
    /// (`--interactive-weight`).
    pub interactive_weight: usize,
    /// Configured interactive queue bound (`--interactive-queue-depth`).
    pub interactive_queue_depth: usize,
    /// Configured interactive coalescing window in milliseconds
    /// (`--coalesce-window-ms`, 0 = coalescing off).
    pub coalesce_window_ms: u64,
    /// Configured resident-shard memory budget in bytes
    /// (`--memory-budget`, 0 = unlimited).
    pub memory_budget: u64,
    /// Batches waiting in the queue right now.
    pub queued: usize,
    /// Batches executing right now.
    pub in_flight: usize,
    /// Worker tokens granted right now (≤ `workers`).
    pub workers_busy: usize,
    /// Most tokens ever granted at once (≤ `workers` always — the
    /// bounded-in-flight invariant).
    pub peak_workers_busy: usize,
    /// Batches granted a budget so far.
    pub admitted: u64,
    /// Admitted batches that finished and returned their budget.
    pub completed: u64,
    /// Submissions rejected with the `busy` error.
    pub rejected_busy: u64,
    /// Batches shed with the `deadline` error.
    pub shed_deadline: u64,
    /// Total queue wait across admitted **and** deadline-shed batches,
    /// milliseconds (shed batches waited too; excluding them would
    /// understate tail wait exactly when admission pressure builds).
    pub total_wait_ms: f64,
    /// The interactive tier's slice of the scheduler counters (same
    /// lock acquisition as the aggregates, so sums are never torn).
    pub interactive: TierStats,
    /// The batch tier's slice of the scheduler counters.
    pub batch: TierStats,
    /// Engine batches executed by the coalescer so far (one per merged
    /// admission; a lone request inside the window still counts as a
    /// single-member batch, so shed work never inflates the ratio).
    pub coalesced_batches: u64,
    /// Interactive requests answered out of coalesced batches so far
    /// (`coalesced_requests / coalesced_batches` is the merge ratio).
    pub coalesced_requests: u64,
    /// Lifetime precursor-window candidates that entered the sketch
    /// prefilter (0 until a prefiltered batch runs — the
    /// `hdoms_prefilter_candidates_pre_total` counter).
    pub prefilter_candidates_pre: u64,
    /// Lifetime candidates the prefilter forwarded to the exact scan
    /// (the `hdoms_prefilter_candidates_post_total` counter).
    pub prefilter_candidates_post: u64,
    /// Lifetime wall-clock spent in the sketch prefilter, milliseconds
    /// (the `hdoms_prefilter_sketch_ms` histogram's sum).
    pub prefilter_sketch_ms: f64,
    /// Bytes of shard hypervector words resident right now, across
    /// every mapped index (what `--memory-budget` bounds).
    pub resident_bytes: u64,
    /// Mapped shards resident right now.
    pub resident_shards: usize,
    /// Cold shards evicted (pages released to the OS) so far.
    pub evictions: u64,
    /// Evicted shards reloaded on demand by a later search so far.
    pub reloads: u64,
    /// Open streaming sessions.
    pub open_sessions: usize,
    /// Resident indexes.
    pub resident_indexes: usize,
}

/// A five-number summary of one latency histogram, reported by the
/// `server.metrics` verb. Quantiles are bucket upper bounds from the
/// registry's log₂ histogram — conservative (never understated), with
/// resolution of one bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded samples, milliseconds.
    pub sum_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// A point-in-time dump of the server's metrics registry (the
/// `server.metrics` verb). Series are sorted by name; the same names
/// appear in the Prometheus text exposition (`hdoms serve --metrics`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Monotone counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, by name.
    pub gauges: Vec<(String, i64)>,
    /// Latency histograms, by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Any request-level failure (the connection stays open).
    Error {
        /// Machine-readable classification ([`ErrorCode::General`] is
        /// omitted on the wire).
        code: ErrorCode,
        /// What went wrong.
        message: String,
    },
    /// Answer to `list_indexes`.
    Indexes(Vec<IndexSummary>),
    /// Answer to `query` and `session.finalize`.
    Result(QueryResult),
    /// Answer to `session.open`.
    SessionOpened {
        /// The new session's id (quote it in `session.submit` /
        /// `session.finalize`).
        session: u64,
        /// The resident index the session searches.
        index: String,
    },
    /// Answer to `session.submit`.
    Receipt(SubmitReceipt),
    /// Answer to `session.close`.
    SessionClosed {
        /// The discarded session's id.
        session: u64,
    },
    /// Answer to `index.load`.
    Loaded(IndexSummary),
    /// Answer to `index.unload`.
    Unloaded {
        /// Name the dropped index was registered under.
        name: String,
    },
    /// Answer to `server.stats`.
    Stats(ServerStats),
    /// Answer to `server.metrics`.
    Metrics(MetricsReport),
}

impl Response {
    /// A [`Response::Error`] with the default [`ErrorCode::General`]
    /// classification (the pre-scheduler error shape).
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::General,
            message: message.into(),
        }
    }
    /// Encode as one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Pong { protocol } => Json::Obj(vec![
                ("type".into(), Json::str("pong")),
                ("protocol".into(), Json::Num(f64::from(*protocol))),
            ]),
            Response::Error { code, message } => {
                let mut fields = vec![("type".into(), Json::str("error"))];
                if let Some(name) = code.name() {
                    fields.push(("code".into(), Json::str(name)));
                }
                fields.push(("message".into(), Json::str(message.clone())));
                Json::Obj(fields)
            }
            Response::Indexes(indexes) => Json::Obj(vec![
                ("type".into(), Json::str("indexes")),
                (
                    "indexes".into(),
                    Json::Arr(indexes.iter().map(summary_to_json).collect()),
                ),
            ]),
            Response::Result(r) => Json::Obj(vec![
                ("type".into(), Json::str("result")),
                ("index".into(), Json::str(r.index.clone())),
                (
                    "psms".into(),
                    Json::Arr(r.rows.iter().map(row_to_json).collect()),
                ),
                ("stats".into(), stats_to_json(&r.stats)),
            ]),
            Response::SessionOpened { session, index } => Json::Obj(vec![
                ("type".into(), Json::str("session")),
                ("session".into(), Json::Num(*session as f64)),
                ("index".into(), Json::str(index.clone())),
            ]),
            Response::Receipt(r) => Json::Obj(vec![
                ("type".into(), Json::str("receipt")),
                ("session".into(), Json::Num(r.session as f64)),
                ("batch".into(), Json::Num(r.batch as f64)),
                ("queries".into(), Json::Num(r.queries as f64)),
                (
                    "rejected_queries".into(),
                    Json::Num(r.rejected_queries as f64),
                ),
                ("psms".into(), Json::Num(r.psms as f64)),
                ("total_psms".into(), Json::Num(r.total_psms as f64)),
                (
                    "candidates_scored".into(),
                    Json::Num(r.candidates_scored as f64),
                ),
                ("candidates_pre".into(), Json::Num(r.candidates_pre as f64)),
                (
                    "candidates_post".into(),
                    Json::Num(r.candidates_post as f64),
                ),
                ("sketch_ms".into(), Json::Num(r.sketch_ms)),
                ("shards_touched".into(), Json::Num(r.shards_touched as f64)),
                ("workers".into(), Json::Num(r.workers as f64)),
                ("latency_ms".into(), Json::Num(r.latency_ms)),
                ("wait_ms".into(), Json::Num(r.wait_ms)),
                ("encode_ms".into(), Json::Num(r.encode_ms)),
                ("candidates_ms".into(), Json::Num(r.candidates_ms)),
                ("score_ms".into(), Json::Num(r.score_ms)),
                (
                    "shard_timings".into(),
                    Json::Arr(r.shard_timings.iter().map(shard_timing_to_json).collect()),
                ),
            ]),
            Response::SessionClosed { session } => Json::Obj(vec![
                ("type".into(), Json::str("closed")),
                ("session".into(), Json::Num(*session as f64)),
            ]),
            Response::Loaded(summary) => Json::Obj(vec![
                ("type".into(), Json::str("loaded")),
                ("index".into(), summary_to_json(summary)),
            ]),
            Response::Unloaded { name } => Json::Obj(vec![
                ("type".into(), Json::str("unloaded")),
                ("name".into(), Json::str(name.clone())),
            ]),
            Response::Stats(s) => Json::Obj(vec![
                ("type".into(), Json::str("stats")),
                ("workers".into(), Json::Num(s.workers as f64)),
                ("queue_depth".into(), Json::Num(s.queue_depth as f64)),
                ("deadline_ms".into(), Json::Num(s.deadline_ms as f64)),
                (
                    "interactive_weight".into(),
                    Json::Num(s.interactive_weight as f64),
                ),
                (
                    "interactive_queue_depth".into(),
                    Json::Num(s.interactive_queue_depth as f64),
                ),
                (
                    "coalesce_window_ms".into(),
                    Json::Num(s.coalesce_window_ms as f64),
                ),
                ("memory_budget".into(), Json::Num(s.memory_budget as f64)),
                ("queued".into(), Json::Num(s.queued as f64)),
                ("in_flight".into(), Json::Num(s.in_flight as f64)),
                ("workers_busy".into(), Json::Num(s.workers_busy as f64)),
                (
                    "peak_workers_busy".into(),
                    Json::Num(s.peak_workers_busy as f64),
                ),
                ("admitted".into(), Json::Num(s.admitted as f64)),
                ("completed".into(), Json::Num(s.completed as f64)),
                ("rejected_busy".into(), Json::Num(s.rejected_busy as f64)),
                ("shed_deadline".into(), Json::Num(s.shed_deadline as f64)),
                ("total_wait_ms".into(), Json::Num(s.total_wait_ms)),
                ("interactive".into(), tier_stats_to_json(&s.interactive)),
                ("batch".into(), tier_stats_to_json(&s.batch)),
                (
                    "coalesced_batches".into(),
                    Json::Num(s.coalesced_batches as f64),
                ),
                (
                    "coalesced_requests".into(),
                    Json::Num(s.coalesced_requests as f64),
                ),
                (
                    "prefilter_candidates_pre".into(),
                    Json::Num(s.prefilter_candidates_pre as f64),
                ),
                (
                    "prefilter_candidates_post".into(),
                    Json::Num(s.prefilter_candidates_post as f64),
                ),
                (
                    "prefilter_sketch_ms".into(),
                    Json::Num(s.prefilter_sketch_ms),
                ),
                ("resident_bytes".into(), Json::Num(s.resident_bytes as f64)),
                (
                    "resident_shards".into(),
                    Json::Num(s.resident_shards as f64),
                ),
                ("evictions".into(), Json::Num(s.evictions as f64)),
                ("reloads".into(), Json::Num(s.reloads as f64)),
                ("open_sessions".into(), Json::Num(s.open_sessions as f64)),
                (
                    "resident_indexes".into(),
                    Json::Num(s.resident_indexes as f64),
                ),
            ]),
            Response::Metrics(m) => Json::Obj(vec![
                ("type".into(), Json::str("metrics")),
                (
                    "counters".into(),
                    Json::Obj(
                        m.counters
                            .iter()
                            .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
                            .collect(),
                    ),
                ),
                (
                    "gauges".into(),
                    Json::Obj(
                        m.gauges
                            .iter()
                            .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
                            .collect(),
                    ),
                ),
                (
                    "histograms".into(),
                    Json::Obj(
                        m.histograms
                            .iter()
                            .map(|(name, h)| (name.clone(), histogram_to_json(h)))
                            .collect(),
                    ),
                ),
            ]),
        };
        v.encode()
    }

    /// Decode one response line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// problem.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match req_field(&v, "type")?.as_str() {
            Some("pong") => Ok(Response::Pong {
                protocol: uint_in(req_field(&v, "protocol")?, "protocol", u64::from(u32::MAX))?
                    as u32,
            }),
            Some("error") => Ok(Response::Error {
                code: match v.get("code") {
                    None => ErrorCode::General,
                    Some(c) => ErrorCode::parse(c.as_str().ok_or("code must be a string")?)?,
                },
                message: req_field(&v, "message")?
                    .as_str()
                    .ok_or("message must be a string")?
                    .to_owned(),
            }),
            Some("indexes") => {
                let indexes = req_field(&v, "indexes")?
                    .as_arr()
                    .ok_or("indexes must be an array")?
                    .iter()
                    .map(summary_from_json)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Indexes(indexes))
            }
            Some("result") => {
                let rows = req_field(&v, "psms")?
                    .as_arr()
                    .ok_or("psms must be an array")?
                    .iter()
                    .map(row_from_json)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Result(QueryResult {
                    index: string(&v, "index")?,
                    rows,
                    stats: stats_from_json(req_field(&v, "stats")?)?,
                }))
            }
            Some("session") => Ok(Response::SessionOpened {
                session: uint(req_field(&v, "session")?, "session")?,
                index: string(&v, "index")?,
            }),
            Some("receipt") => Ok(Response::Receipt(SubmitReceipt {
                session: uint(req_field(&v, "session")?, "session")?,
                batch: uint(req_field(&v, "batch")?, "batch")? as usize,
                queries: uint(req_field(&v, "queries")?, "queries")? as usize,
                rejected_queries: uint(req_field(&v, "rejected_queries")?, "rejected_queries")?
                    as usize,
                psms: uint(req_field(&v, "psms")?, "psms")? as usize,
                total_psms: uint(req_field(&v, "total_psms")?, "total_psms")? as usize,
                candidates_scored: uint(req_field(&v, "candidates_scored")?, "candidates_scored")?
                    as usize,
                candidates_pre: uint(req_field(&v, "candidates_pre")?, "candidates_pre")? as usize,
                candidates_post: uint(req_field(&v, "candidates_post")?, "candidates_post")?
                    as usize,
                sketch_ms: num(req_field(&v, "sketch_ms")?, "sketch_ms")?,
                shards_touched: uint(req_field(&v, "shards_touched")?, "shards_touched")? as usize,
                workers: uint(req_field(&v, "workers")?, "workers")? as usize,
                latency_ms: num(req_field(&v, "latency_ms")?, "latency_ms")?,
                wait_ms: num(req_field(&v, "wait_ms")?, "wait_ms")?,
                encode_ms: num(req_field(&v, "encode_ms")?, "encode_ms")?,
                candidates_ms: num(req_field(&v, "candidates_ms")?, "candidates_ms")?,
                score_ms: num(req_field(&v, "score_ms")?, "score_ms")?,
                shard_timings: req_field(&v, "shard_timings")?
                    .as_arr()
                    .ok_or("shard_timings must be an array")?
                    .iter()
                    .map(shard_timing_from_json)
                    .collect::<Result<Vec<_>, String>>()?,
            })),
            Some("closed") => Ok(Response::SessionClosed {
                session: uint(req_field(&v, "session")?, "session")?,
            }),
            Some("loaded") => Ok(Response::Loaded(summary_from_json(req_field(
                &v, "index",
            )?)?)),
            Some("unloaded") => Ok(Response::Unloaded {
                name: string(&v, "name")?,
            }),
            Some("stats") => Ok(Response::Stats(ServerStats {
                workers: uint(req_field(&v, "workers")?, "workers")? as usize,
                queue_depth: uint(req_field(&v, "queue_depth")?, "queue_depth")? as usize,
                deadline_ms: uint(req_field(&v, "deadline_ms")?, "deadline_ms")?,
                interactive_weight: uint(
                    req_field(&v, "interactive_weight")?,
                    "interactive_weight",
                )? as usize,
                interactive_queue_depth: uint(
                    req_field(&v, "interactive_queue_depth")?,
                    "interactive_queue_depth",
                )? as usize,
                coalesce_window_ms: uint(
                    req_field(&v, "coalesce_window_ms")?,
                    "coalesce_window_ms",
                )?,
                memory_budget: uint(req_field(&v, "memory_budget")?, "memory_budget")?,
                queued: uint(req_field(&v, "queued")?, "queued")? as usize,
                in_flight: uint(req_field(&v, "in_flight")?, "in_flight")? as usize,
                workers_busy: uint(req_field(&v, "workers_busy")?, "workers_busy")? as usize,
                peak_workers_busy: uint(req_field(&v, "peak_workers_busy")?, "peak_workers_busy")?
                    as usize,
                admitted: uint(req_field(&v, "admitted")?, "admitted")?,
                completed: uint(req_field(&v, "completed")?, "completed")?,
                rejected_busy: uint(req_field(&v, "rejected_busy")?, "rejected_busy")?,
                shed_deadline: uint(req_field(&v, "shed_deadline")?, "shed_deadline")?,
                total_wait_ms: num(req_field(&v, "total_wait_ms")?, "total_wait_ms")?,
                interactive: tier_stats_from_json(req_field(&v, "interactive")?)?,
                batch: tier_stats_from_json(req_field(&v, "batch")?)?,
                coalesced_batches: uint(req_field(&v, "coalesced_batches")?, "coalesced_batches")?,
                coalesced_requests: uint(
                    req_field(&v, "coalesced_requests")?,
                    "coalesced_requests",
                )?,
                prefilter_candidates_pre: uint(
                    req_field(&v, "prefilter_candidates_pre")?,
                    "prefilter_candidates_pre",
                )?,
                prefilter_candidates_post: uint(
                    req_field(&v, "prefilter_candidates_post")?,
                    "prefilter_candidates_post",
                )?,
                prefilter_sketch_ms: num(
                    req_field(&v, "prefilter_sketch_ms")?,
                    "prefilter_sketch_ms",
                )?,
                resident_bytes: uint(req_field(&v, "resident_bytes")?, "resident_bytes")?,
                resident_shards: uint(req_field(&v, "resident_shards")?, "resident_shards")?
                    as usize,
                evictions: uint(req_field(&v, "evictions")?, "evictions")?,
                reloads: uint(req_field(&v, "reloads")?, "reloads")?,
                open_sessions: uint(req_field(&v, "open_sessions")?, "open_sessions")? as usize,
                resident_indexes: uint(req_field(&v, "resident_indexes")?, "resident_indexes")?
                    as usize,
            })),
            Some("metrics") => Ok(Response::Metrics(MetricsReport {
                counters: obj_entries(req_field(&v, "counters")?, "counters")?
                    .iter()
                    .map(|(name, value)| Ok((name.clone(), uint(value, "counter value")?)))
                    .collect::<Result<Vec<_>, String>>()?,
                gauges: obj_entries(req_field(&v, "gauges")?, "gauges")?
                    .iter()
                    .map(|(name, value)| Ok((name.clone(), int(value, "gauge value")?)))
                    .collect::<Result<Vec<_>, String>>()?,
                histograms: obj_entries(req_field(&v, "histograms")?, "histograms")?
                    .iter()
                    .map(|(name, value)| Ok((name.clone(), histogram_from_json(value)?)))
                    .collect::<Result<Vec<_>, String>>()?,
            })),
            Some(other) => Err(format!("unknown response type {other:?}")),
            None => Err("response type must be a string".to_owned()),
        }
    }
}

fn summary_to_json(s: &IndexSummary) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(s.name.clone())),
        ("backend".into(), Json::str(s.backend.clone())),
        ("dim".into(), Json::Num(s.dim as f64)),
        ("entries".into(), Json::Num(s.entries as f64)),
        ("shards".into(), Json::Num(s.shards as f64)),
    ])
}

fn summary_from_json(v: &Json) -> Result<IndexSummary, String> {
    Ok(IndexSummary {
        name: string(v, "name")?,
        backend: string(v, "backend")?,
        dim: uint(req_field(v, "dim")?, "dim")? as usize,
        entries: uint(req_field(v, "entries")?, "entries")? as usize,
        shards: uint(req_field(v, "shards")?, "shards")? as usize,
    })
}

fn row_to_json(row: &PsmTableRow) -> Json {
    Json::Obj(vec![
        ("query_id".into(), Json::Num(f64::from(row.psm.query_id))),
        (
            "reference_id".into(),
            Json::Num(f64::from(row.psm.reference_id)),
        ),
        ("peptide".into(), Json::str(row.peptide.clone())),
        ("score".into(), Json::Num(row.psm.score)),
        ("is_decoy".into(), Json::Bool(row.psm.is_decoy)),
        ("precursor_delta".into(), Json::Num(row.psm.precursor_delta)),
        ("accepted".into(), Json::Bool(row.accepted)),
    ])
}

fn row_from_json(v: &Json) -> Result<PsmTableRow, String> {
    Ok(PsmTableRow {
        psm: Psm {
            query_id: u32_field(v, "query_id")?,
            reference_id: u32_field(v, "reference_id")?,
            score: num(req_field(v, "score")?, "score")?,
            is_decoy: req_field(v, "is_decoy")?
                .as_bool()
                .ok_or("is_decoy must be a boolean")?,
            precursor_delta: num(req_field(v, "precursor_delta")?, "precursor_delta")?,
        },
        peptide: string(v, "peptide")?,
        accepted: req_field(v, "accepted")?
            .as_bool()
            .ok_or("accepted must be a boolean")?,
    })
}

fn stats_to_json(s: &BatchStats) -> Json {
    Json::Obj(vec![
        ("latency_ms".into(), Json::Num(s.latency_ms)),
        ("wait_ms".into(), Json::Num(s.wait_ms)),
        ("queued".into(), Json::Num(s.queued as f64)),
        ("workers".into(), Json::Num(s.workers as f64)),
        ("queries".into(), Json::Num(s.queries as f64)),
        (
            "rejected_queries".into(),
            Json::Num(s.rejected_queries as f64),
        ),
        ("psms".into(), Json::Num(s.psms as f64)),
        (
            "identifications".into(),
            Json::Num(s.identifications as f64),
        ),
        ("threshold_score".into(), Json::Num(s.threshold_score)),
        ("shards_touched".into(), Json::Num(s.shards_touched as f64)),
        (
            "candidates_scored".into(),
            Json::Num(s.candidates_scored as f64),
        ),
        ("candidates_pre".into(), Json::Num(s.candidates_pre as f64)),
        (
            "candidates_post".into(),
            Json::Num(s.candidates_post as f64),
        ),
        ("sketch_ms".into(), Json::Num(s.sketch_ms)),
        ("encode_ms".into(), Json::Num(s.encode_ms)),
        ("candidates_ms".into(), Json::Num(s.candidates_ms)),
        ("score_ms".into(), Json::Num(s.score_ms)),
        ("finalize_ms".into(), Json::Num(s.finalize_ms)),
        ("backend".into(), Json::str(s.backend.clone())),
    ])
}

fn stats_from_json(v: &Json) -> Result<BatchStats, String> {
    Ok(BatchStats {
        latency_ms: num(req_field(v, "latency_ms")?, "latency_ms")?,
        wait_ms: num(req_field(v, "wait_ms")?, "wait_ms")?,
        queued: uint(req_field(v, "queued")?, "queued")? as usize,
        workers: uint(req_field(v, "workers")?, "workers")? as usize,
        queries: uint(req_field(v, "queries")?, "queries")? as usize,
        rejected_queries: uint(req_field(v, "rejected_queries")?, "rejected_queries")? as usize,
        psms: uint(req_field(v, "psms")?, "psms")? as usize,
        identifications: uint(req_field(v, "identifications")?, "identifications")? as usize,
        threshold_score: threshold_from_json(req_field(v, "threshold_score")?)?,
        shards_touched: uint(req_field(v, "shards_touched")?, "shards_touched")? as usize,
        candidates_scored: uint(req_field(v, "candidates_scored")?, "candidates_scored")? as usize,
        candidates_pre: uint(req_field(v, "candidates_pre")?, "candidates_pre")? as usize,
        candidates_post: uint(req_field(v, "candidates_post")?, "candidates_post")? as usize,
        sketch_ms: num(req_field(v, "sketch_ms")?, "sketch_ms")?,
        encode_ms: num(req_field(v, "encode_ms")?, "encode_ms")?,
        candidates_ms: num(req_field(v, "candidates_ms")?, "candidates_ms")?,
        score_ms: num(req_field(v, "score_ms")?, "score_ms")?,
        finalize_ms: num(req_field(v, "finalize_ms")?, "finalize_ms")?,
        backend: string(v, "backend")?,
    })
}

fn shard_timing_to_json(t: &ShardTiming) -> Json {
    Json::Obj(vec![
        ("shard".into(), Json::Num(f64::from(t.shard))),
        ("visits".into(), Json::Num(t.visits as f64)),
        ("ms".into(), Json::Num(t.ms)),
    ])
}

fn shard_timing_from_json(v: &Json) -> Result<ShardTiming, String> {
    Ok(ShardTiming {
        shard: u32_field(v, "shard")?,
        visits: uint(req_field(v, "visits")?, "visits")?,
        ms: num(req_field(v, "ms")?, "ms")?,
    })
}

/// The optional `tier` field of a request (defaults to [`Tier::Batch`]
/// when omitted — pre-v5 clients never send it).
fn tier_field(v: &Json) -> Result<Tier, String> {
    match v.get("tier") {
        None => Ok(Tier::default()),
        Some(t) => Tier::parse(t.as_str().ok_or("tier must be a string")?),
    }
}

fn tier_stats_to_json(t: &TierStats) -> Json {
    Json::Obj(vec![
        ("queued".into(), Json::Num(t.queued as f64)),
        ("in_flight".into(), Json::Num(t.in_flight as f64)),
        ("admitted".into(), Json::Num(t.admitted as f64)),
        ("completed".into(), Json::Num(t.completed as f64)),
        ("rejected_busy".into(), Json::Num(t.rejected_busy as f64)),
        ("shed_deadline".into(), Json::Num(t.shed_deadline as f64)),
        ("total_wait_ms".into(), Json::Num(t.total_wait_ms)),
    ])
}

fn tier_stats_from_json(v: &Json) -> Result<TierStats, String> {
    Ok(TierStats {
        queued: uint(req_field(v, "queued")?, "queued")? as usize,
        in_flight: uint(req_field(v, "in_flight")?, "in_flight")? as usize,
        admitted: uint(req_field(v, "admitted")?, "admitted")?,
        completed: uint(req_field(v, "completed")?, "completed")?,
        rejected_busy: uint(req_field(v, "rejected_busy")?, "rejected_busy")?,
        shed_deadline: uint(req_field(v, "shed_deadline")?, "shed_deadline")?,
        total_wait_ms: num(req_field(v, "total_wait_ms")?, "total_wait_ms")?,
    })
}

fn histogram_to_json(h: &HistogramSummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("sum_ms".into(), Json::Num(h.sum_ms)),
        ("p50_ms".into(), Json::Num(h.p50_ms)),
        ("p90_ms".into(), Json::Num(h.p90_ms)),
        ("p99_ms".into(), Json::Num(h.p99_ms)),
    ])
}

fn histogram_from_json(v: &Json) -> Result<HistogramSummary, String> {
    Ok(HistogramSummary {
        count: uint(req_field(v, "count")?, "count")?,
        sum_ms: num(req_field(v, "sum_ms")?, "sum_ms")?,
        p50_ms: num(req_field(v, "p50_ms")?, "p50_ms")?,
        p90_ms: num(req_field(v, "p90_ms")?, "p90_ms")?,
        p99_ms: num(req_field(v, "p99_ms")?, "p99_ms")?,
    })
}

/// The entries of a JSON object in wire order (metrics maps round-trip
/// verbatim because [`Json::Obj`] preserves insertion order).
fn obj_entries<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{what} must be an object")),
    }
}

/// A signed integer (gauges may go negative); non-integral numbers are
/// rejected.
fn int(v: &Json, what: &str) -> Result<i64, String> {
    let x = num(v, what)?;
    if x.fract() != 0.0 || x < i64::MIN as f64 || x > i64::MAX as f64 {
        return Err(format!("{what} must be an integer"));
    }
    Ok(x as i64)
}

fn req_field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{what} must be a number"))
}

/// The acceptance threshold is `+∞` when a batch accepted nothing
/// ([`hdoms_oms::fdr::filter_fdr`]); JSON cannot express that, so the
/// wire uses `null` and the decoder restores `+∞`.
fn threshold_from_json(v: &Json) -> Result<f64, String> {
    match v {
        Json::Null => Ok(f64::INFINITY),
        _ => num(v, "threshold_score"),
    }
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

/// Like [`uint`] with an inclusive upper bound — values beyond the target
/// type are **rejected**, never wrapped (a charge of 257 must error, not
/// silently search as charge 1).
fn uint_in(v: &Json, what: &str, max: u64) -> Result<u64, String> {
    let n = uint(v, what)?;
    if n > max {
        return Err(format!("{what} {n} out of range (max {max})"));
    }
    Ok(n)
}

/// A required `u32` object field, range-checked.
fn u32_field(v: &Json, key: &'static str) -> Result<u32, String> {
    Ok(uint_in(req_field(v, key)?, key, u64::from(u32::MAX))? as u32)
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    req_field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{key} must be a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Request {
        Request::Query(QueryRequest {
            index: "iprg".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Tier::Batch,
            prefilter: None,
            spectra: vec![QuerySpectrum {
                id: 0,
                precursor_mz: 421.76,
                precursor_charge: 2,
                peaks: vec![(100.1, 0.5), (200.25, 1.0)],
            }],
        })
    }

    #[test]
    fn requests_roundtrip() {
        let session_requests = [
            Request::SessionOpen {
                index: "iprg".to_owned(),
                window: WindowKind::Open,
                tier: Tier::Batch,
                prefilter: None,
            },
            Request::SessionOpen {
                index: "iprg".to_owned(),
                window: WindowKind::Standard,
                tier: Tier::Interactive,
                prefilter: Some(PrefilterConfig::TopK(64)),
            },
            Request::SessionSubmit {
                session: 7,
                spectra: vec![QuerySpectrum {
                    id: 3,
                    precursor_mz: 500.5,
                    precursor_charge: 2,
                    peaks: vec![(100.1, 0.25)],
                }],
            },
            Request::SessionFinalize {
                session: 7,
                fdr: 0.05,
            },
            Request::SessionClose { session: 7 },
            Request::IndexLoad {
                name: "hek".to_owned(),
                path: "/data/hek.hdx".to_owned(),
            },
            Request::IndexUnload {
                name: "hek".to_owned(),
            },
            Request::ServerStats,
            Request::ServerMetrics,
        ];
        for req in session_requests {
            let line = req.encode();
            assert_eq!(Request::decode(&line).unwrap(), req, "line {line}");
            assert_eq!(Request::decode(&line).unwrap().encode(), line);
        }
        for req in [Request::Ping, Request::ListIndexes, sample_query()] {
            let line = req.encode();
            assert!(!line.contains('\n'), "one line per message");
            assert_eq!(Request::decode(&line).unwrap(), req, "line {line}");
            // Canonical: decode → encode is the identity on the text too.
            assert_eq!(Request::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Pong { protocol: 2 },
            Response::error("unknown index \"x\""),
            Response::Error {
                code: ErrorCode::Busy,
                message: "server busy: 256 batches queued".to_owned(),
            },
            Response::Error {
                code: ErrorCode::Deadline,
                message: "queue deadline exceeded".to_owned(),
            },
            Response::Stats(ServerStats {
                workers: 8,
                queue_depth: 256,
                deadline_ms: 250,
                interactive_weight: 4,
                interactive_queue_depth: 256,
                coalesce_window_ms: 2,
                memory_budget: 1073741824,
                queued: 3,
                in_flight: 8,
                workers_busy: 8,
                peak_workers_busy: 8,
                admitted: 1200,
                completed: 1192,
                rejected_busy: 17,
                shed_deadline: 4,
                total_wait_ms: 5321.25,
                interactive: TierStats {
                    queued: 1,
                    in_flight: 3,
                    admitted: 400,
                    completed: 397,
                    rejected_busy: 2,
                    shed_deadline: 1,
                    total_wait_ms: 321.25,
                },
                batch: TierStats {
                    queued: 2,
                    in_flight: 5,
                    admitted: 800,
                    completed: 795,
                    rejected_busy: 15,
                    shed_deadline: 3,
                    total_wait_ms: 5000.0,
                },
                coalesced_batches: 120,
                coalesced_requests: 311,
                prefilter_candidates_pre: 40000,
                prefilter_candidates_post: 12000,
                prefilter_sketch_ms: 18.5,
                resident_bytes: 805306368,
                resident_shards: 96,
                evictions: 14,
                reloads: 9,
                open_sessions: 2,
                resident_indexes: 1,
            }),
            Response::Indexes(vec![IndexSummary {
                name: "iprg".to_owned(),
                backend: "exact".to_owned(),
                dim: 8192,
                entries: 10000,
                shards: 10,
            }]),
            Response::Result(QueryResult {
                index: "iprg".to_owned(),
                rows: vec![PsmTableRow {
                    psm: Psm {
                        query_id: 0,
                        reference_id: 412,
                        score: 0.8123,
                        is_decoy: false,
                        precursor_delta: 15.9949,
                    },
                    peptide: "PEPTIDEK".to_owned(),
                    accepted: true,
                }],
                stats: BatchStats {
                    latency_ms: 12.5,
                    wait_ms: 0.25,
                    queued: 2,
                    workers: 4,
                    queries: 1,
                    rejected_queries: 0,
                    psms: 1,
                    identifications: 1,
                    threshold_score: 0.75,
                    shards_touched: 3,
                    candidates_scored: 154,
                    candidates_pre: 154,
                    candidates_post: 154,
                    sketch_ms: 0.0,
                    encode_ms: 1.5,
                    candidates_ms: 0.25,
                    score_ms: 9.75,
                    finalize_ms: 0.5,
                    backend: "sharded(exact-hd, 10 shards)".to_owned(),
                },
            }),
            Response::Metrics(MetricsReport {
                counters: vec![
                    ("hdoms_queries_total".to_owned(), 512),
                    ("hdoms_query_batches_total".to_owned(), 8),
                ],
                gauges: vec![("hdoms_open_sessions".to_owned(), 2)],
                histograms: vec![(
                    "hdoms_batch_latency_ms".to_owned(),
                    HistogramSummary {
                        count: 8,
                        sum_ms: 96.5,
                        p50_ms: 8.0,
                        p90_ms: 16.0,
                        p99_ms: 32.0,
                    },
                )],
            }),
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "line {line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn session_responses_roundtrip() {
        let responses = [
            Response::SessionOpened {
                session: 1,
                index: "iprg".to_owned(),
            },
            Response::Receipt(SubmitReceipt {
                session: 1,
                batch: 2,
                queries: 64,
                rejected_queries: 1,
                psms: 60,
                total_psms: 121,
                candidates_scored: 9000,
                candidates_pre: 9000,
                candidates_post: 9000,
                sketch_ms: 0.0,
                shards_touched: 180,
                workers: 2,
                latency_ms: 4.25,
                wait_ms: 1.5,
                encode_ms: 0.75,
                candidates_ms: 0.125,
                score_ms: 3.25,
                shard_timings: vec![
                    ShardTiming {
                        shard: 4,
                        visits: 120,
                        ms: 2.5,
                    },
                    ShardTiming {
                        shard: 5,
                        visits: 60,
                        ms: 0.75,
                    },
                ],
            }),
            Response::SessionClosed { session: 1 },
            Response::Loaded(IndexSummary {
                name: "hek".to_owned(),
                backend: "exact".to_owned(),
                dim: 8192,
                entries: 5000,
                shards: 5,
            }),
            Response::Unloaded {
                name: "hek".to_owned(),
            },
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).unwrap(), resp, "line {line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn session_defaults_apply() {
        let Request::SessionOpen {
            window,
            tier,
            prefilter,
            ..
        } = Request::decode(r#"{"type":"session.open","index":"a"}"#).unwrap()
        else {
            panic!("expected session.open");
        };
        assert_eq!(window, WindowKind::Open);
        assert_eq!(tier, Tier::Batch);
        assert_eq!(prefilter, None);
        let Request::SessionFinalize { fdr, .. } =
            Request::decode(r#"{"type":"session.finalize","session":3}"#).unwrap()
        else {
            panic!("expected session.finalize");
        };
        assert_eq!(fdr, DEFAULT_FDR);
    }

    #[test]
    fn query_defaults_apply() {
        let line = r#"{"type":"query","index":"a","spectra":[]}"#;
        let Request::Query(q) = Request::decode(line).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.window, WindowKind::Open);
        assert_eq!(q.fdr, DEFAULT_FDR);
        assert_eq!(q.tier, Tier::Batch);
    }

    #[test]
    fn tiers_ride_the_wire_and_default_tier_is_omitted() {
        // Batch (the default) never appears on the wire, so pre-v5
        // clients and servers agree on every batch-tier line.
        let Request::Query(batch) = sample_query() else {
            panic!("expected query");
        };
        assert!(!Request::Query(batch.clone()).encode().contains("tier"));
        let interactive = Request::Query(QueryRequest {
            tier: Tier::Interactive,
            ..batch
        });
        let line = interactive.encode();
        assert!(line.contains(r#""tier":"interactive""#), "line {line}");
        assert_eq!(Request::decode(&line).unwrap(), interactive);
        assert_eq!(Request::decode(&line).unwrap().encode(), line);
        // Unknown tiers are rejected, not coerced.
        let err = Request::decode(r#"{"type":"query","index":"a","tier":"bulk","spectra":[]}"#)
            .unwrap_err();
        assert!(err.contains("unknown tier"), "error {err:?}");
    }

    #[test]
    fn infinite_threshold_survives_the_wire_as_null() {
        let resp = Response::Result(QueryResult {
            index: "a".to_owned(),
            rows: Vec::new(),
            stats: BatchStats {
                latency_ms: 0.5,
                wait_ms: 0.0,
                queued: 0,
                workers: 1,
                queries: 0,
                rejected_queries: 0,
                psms: 0,
                identifications: 0,
                threshold_score: f64::INFINITY,
                shards_touched: 0,
                candidates_scored: 0,
                candidates_pre: 0,
                candidates_post: 0,
                sketch_ms: 0.0,
                encode_ms: 0.25,
                candidates_ms: 0.0,
                score_ms: 0.0,
                finalize_ms: 0.0,
                backend: "b".to_owned(),
            },
        });
        let line = resp.encode();
        assert!(line.contains("\"threshold_score\":null"));
        let Response::Result(r) = Response::decode(&line).unwrap() else {
            panic!("expected result");
        };
        assert_eq!(r.stats.threshold_score, f64::INFINITY);
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("{", "JSON error"),
            (r#"{"type":"nope"}"#, "unknown request type"),
            (
                r#"{"type":"query","spectra":[]}"#,
                "missing field \"index\"",
            ),
            (
                r#"{"type":"query","index":"a","window":"wide","spectra":[]}"#,
                "unknown window",
            ),
            // Out-of-range integers must be rejected, never wrapped: a
            // charge of 257 silently becoming 1 would search the wrong
            // precursor window.
            (
                r#"{"type":"query","index":"a","spectra":[{"id":0,"precursor_mz":400,"precursor_charge":257,"peaks":[]}]}"#,
                "out of range",
            ),
            (
                r#"{"type":"query","index":"a","spectra":[{"id":4294967296,"precursor_mz":400,"precursor_charge":2,"peaks":[]}]}"#,
                "out of range",
            ),
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(err.contains(needle), "line {line}: error {err:?}");
        }
    }

    #[test]
    fn error_codes_default_and_reject_unknowns() {
        // A code-less error (the v1 shape) decodes as General and
        // re-encodes without a code field.
        let line = r#"{"type":"error","message":"boom"}"#;
        let Response::Error { code, .. } = Response::decode(line).unwrap() else {
            panic!("expected an error");
        };
        assert_eq!(code, ErrorCode::General);
        assert_eq!(Response::decode(line).unwrap().encode(), line);
        // Unknown codes are rejected, not silently coerced.
        assert!(Response::decode(r#"{"type":"error","code":"teapot","message":"x"}"#).is_err());
    }

    #[test]
    fn spectrum_validation_rejects_garbage() {
        let bad_mz = QuerySpectrum {
            id: 1,
            precursor_mz: -5.0,
            precursor_charge: 2,
            peaks: vec![],
        };
        assert!(bad_mz.to_spectrum().is_err());
        let bad_peak = QuerySpectrum {
            id: 2,
            precursor_mz: 500.0,
            precursor_charge: 2,
            peaks: vec![(0.0, 1.0)],
        };
        assert!(bad_peak.to_spectrum().is_err());
        let zero_charge = QuerySpectrum {
            id: 3,
            precursor_mz: 500.0,
            precursor_charge: 0,
            peaks: vec![],
        };
        assert!(zero_charge.to_spectrum().is_err());
    }
}
