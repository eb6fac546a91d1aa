//! The line-framed JSON wire protocol.
//!
//! One request or response per line, each a single canonical JSON object
//! with a `"type"` tag (see `docs/PROTOCOL.md` for the full specification
//! — its example payloads are asserted byte-for-byte by this crate's
//! `protocol_docs` test). [`PROTOCOL_VERSION`] is reported by the `pong`
//! response.
//!
//! Every wire object is declared **once**, as a field table handed to
//! `wire_object!`: the struct, its canonical encoding (the fields in
//! table order) and its decoder (every field required, each validated by
//! its type's `Wire` impl) all come from that table. To add a field,
//! add one line to the object's table and the value to its example in
//! `docs/PROTOCOL.md`; nothing else names it.
//!
//! ```
//! use hdoms_serve::protocol::{Request, Response};
//!
//! let req = Request::decode(r#"{"type":"ping"}"#).unwrap();
//! assert_eq!(req.encode(), r#"{"type":"ping"}"#);
//! let resp = Response::Pong { protocol: 6 };
//! assert_eq!(resp.encode(), r#"{"type":"pong","protocol":6}"#);
//! ```

use crate::json::Json;
use crate::scheduler::{SchedulerStats, Tier, TierStats};
use crate::server::{Admission, ServerSeries};
use hdoms_engine::{BatchReceipt, EngineSeries, ShardTiming};
use hdoms_index::LibraryIndex;
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use hdoms_obs::metrics::HistogramSnapshot;
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::psm::{Psm, PsmTableRow};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::PrefilterConfig;

/// Wire protocol version, reported by `pong`. Version 6 is the protocol:
/// every response field is required on decode, so no other version
/// interoperates with it, and the number is bumped on any incompatible
/// message change.
pub const PROTOCOL_VERSION: u32 = 6;

/// Default FDR level applied when a query request omits `"fdr"`.
pub(crate) const DEFAULT_FDR: f64 = 0.01;

/// How one kind of value crosses the wire: its canonical JSON form and
/// the validating decoder that reads it back. `what` names the field
/// being decoded, for the error text.
trait Wire: Sized {
    fn to_json(&self) -> Json;
    fn from_json(v: &Json, what: &str) -> Result<Self, String>;
}

/// Unsigned integers, range-checked against the target type: a value
/// beyond it is **rejected**, never wrapped (a charge of 257 must error,
/// not silently search as charge 1). Integers are exact up to 2^53;
/// [`Json::as_u64`] refuses anything larger.
macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
            fn from_json(v: &Json, what: &str) -> Result<$ty, String> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("{what} must be a non-negative integer"))?;
                <$ty>::try_from(n)
                    .map_err(|_| format!("{what} {n} out of range (max {})", <$ty>::MAX))
            }
        }
    )*};
}
wire_uint!(u8, u32, u64, usize);

/// Signed integers (gauges may go negative); non-integral numbers are
/// rejected.
impl Wire for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: &Json, what: &str) -> Result<i64, String> {
        let x = f64::from_json(v, what)?;
        if x.fract() != 0.0 || x < i64::MIN as f64 || x > i64::MAX as f64 {
            return Err(format!("{what} must be an integer"));
        }
        Ok(x as i64)
    }
}

impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json, what: &str) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("{what} must be a number"))
    }
}

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json, what: &str) -> Result<bool, String> {
        v.as_bool()
            .ok_or_else(|| format!("{what} must be a boolean"))
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json, what: &str) -> Result<String, String> {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{what} must be a string"))?;
        Ok(s.to_owned())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }
    fn from_json(v: &Json, what: &str) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| format!("{what} must be an array"))?
            .iter()
            .map(|item| T::from_json(item, what))
            .collect()
    }
}

/// The value of a field that may be omitted: present is `Some`, and
/// `None` is never written (see [`Optional`]).
impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_json)
    }
    fn from_json(v: &Json, what: &str) -> Result<Option<T>, String> {
        T::from_json(v, what).map(Some)
    }
}

/// A named series map (`{"name":value,...}`), entries in wire order —
/// metrics maps round-trip verbatim because [`Json::Obj`] preserves
/// insertion order.
impl<T: Wire> Wire for Vec<(String, T)> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(name, value)| (name.clone(), value.to_json()))
                .collect(),
        )
    }
    fn from_json(v: &Json, what: &str) -> Result<Vec<(String, T)>, String> {
        let Json::Obj(pairs) = v else {
            return Err(format!("{what} must be an object"));
        };
        pairs
            .iter()
            .map(|(name, value)| Ok((name.clone(), T::from_json(value, name)?)))
            .collect()
    }
}

/// A fragment peak, `[mz, intensity]`.
impl Wire for (f64, f64) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::Num(self.0), Json::Num(self.1)])
    }
    fn from_json(v: &Json, _what: &str) -> Result<(f64, f64), String> {
        match v.as_arr() {
            Some([mz, intensity]) => Ok((
                f64::from_json(mz, "peak mz")?,
                f64::from_json(intensity, "peak intensity")?,
            )),
            _ => Err("each peak must be a [mz, intensity] pair".to_owned()),
        }
    }
}

/// The enums that travel as their name: written with the type's own
/// renderer, read back through its own `parse`.
macro_rules! wire_named {
    ($($ty:ty => $name:expr),*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::str($name(*self))
            }
            fn from_json(v: &Json, what: &str) -> Result<$ty, String> {
                <$ty>::parse(v.as_str().ok_or_else(|| format!("{what} must be a string"))?)
            }
        }
    )*};
}
wire_named!(
    WindowKind => WindowKind::name,
    Tier => Tier::name,
    PrefilterConfig => PrefilterConfig::render,
    // `General` has no name: it is the omitted default, never written.
    ErrorCode => |code: ErrorCode| code.name().unwrap_or_default()
);

/// The acceptance threshold is `+∞` when a batch accepted nothing
/// ([`hdoms_oms::fdr::filter_fdr`]); JSON cannot express that, so the
/// wire uses `null` (what a non-finite number encodes as) and this
/// decoder — `threshold_score`'s alone — restores `+∞`.
fn null_is_infinity(v: &Json) -> Result<f64, String> {
    match v {
        Json::Null => Ok(f64::INFINITY),
        _ => f64::from_json(v, "threshold_score"),
    }
}

fn required<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// A required object field, validated by its type.
fn field<T: Wire>(v: &Json, key: &str) -> Result<T, String> {
    T::from_json(required(v, key)?, key)
}

/// One declaration per wire object: from the field table come the
/// struct (first form; the second and third describe a struct defined
/// elsewhere), its canonical encoding — the fields in table order — and
/// its decoder, in which every field is required and `as path` swaps in
/// a named decoder for that one field. The third form is for a wire
/// object that is flat where the struct is not: each field names the
/// place it is read from, and the trailing expression rebuilds the
/// struct from the decoded fields. The `from (sources)` form is the
/// first plus the object's one constructor: each field line ends in the
/// expression over the sources that fills it, so a number the server
/// reports is added in one line — field, wire name and where it comes
/// from.
macro_rules! wire_object {
    (
        $(#[$meta:meta])*
        pub struct $name:ident from ( $( $arg:ident: $argty:ty ),* $(,)? ) {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty $(as $decode:path)? = $source:expr ),* $(,)?
        }
    ) => {
        wire_object! {
            $(#[$meta])*
            pub struct $name { $( $(#[$fmeta])* pub $field: $ty $(as $decode)? ),* }
        }
        impl $name {
            /// The one place this object is filled in: every field from
            /// the source its table line names.
            pub(crate) fn new($( $arg: $argty ),*) -> $name {
                $name { $( $field: $source ),* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty $(as $decode:path)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),*
        }
        wire_object! {
            impl $name as this { $( $field: $ty $(as $decode)? = this.$field ),* }
            => $name { $($field),* }
        }
    };
    (impl $name:ident { $( $field:ident: $ty:ty ),* $(,)? }) => {
        wire_object! {
            impl $name as this { $( $field: $ty = this.$field ),* } => $name { $($field),* }
        }
    };
    (
        impl $name:ident as $this:ident {
            $( $field:ident: $ty:ty $(as $decode:path)? = $place:expr ),* $(,)?
        } => $build:expr
    ) => {
        impl Wire for $name {
            fn to_json(&self) -> Json {
                let $this = self;
                Json::Obj(vec![
                    $( (stringify!($field).to_owned(), Wire::to_json(&$place)) ),*
                ])
            }
            fn from_json(v: &Json, _what: &str) -> Result<$name, String> {
                $( let $field: $ty = wire_object!(@decode v, $field $(, $decode)?); )*
                Ok($build)
            }
        }
    };
    (@decode $v:ident, $field:ident) => { field($v, stringify!($field))? };
    (@decode $v:ident, $field:ident, $decode:path) => {
        $decode(required($v, stringify!($field))?)?
    };
}

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
    pub(crate) fn parse(name: &str) -> Result<ErrorCode, String> {
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

wire_object! {
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

    /// Convert back into a [`Spectrum`] (origin `Query`).
    ///
    /// # Errors
    ///
    /// `"spectrum {id}: {reason}"` where [`Spectrum::try_new`] refuses it:
    /// the server must never panic on wire input.
    pub fn to_spectrum(&self) -> Result<Spectrum, String> {
        let peaks = (self.peaks.iter())
            .map(|&(mz, intensity)| Peak { mz, intensity })
            .collect();
        let (mz, z) = (self.precursor_mz, self.precursor_charge);
        Spectrum::try_new(self.id, mz, z, peaks, SpectrumOrigin::Query)
            .map_err(|e| format!("spectrum {}: {e}", self.id))
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
    /// FDR acceptance level in (0, 1) (defaults to `DEFAULT_FDR`).
    pub fdr: f64,
    /// Priority class. [`Tier::Batch`] (the default — omitted on the
    /// wire) queues behind the batch bound; [`Tier::Interactive`] uses
    /// the separately bounded interactive queue, is dequeued
    /// preferentially, and rides the admission of an identical
    /// interactive request still queued (cross-request coalescing).
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
        /// FDR acceptance level in (0, 1) (defaults to `DEFAULT_FDR`).
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

/// An optional request field: its wire key, the value an omitted one
/// takes, and whether the canonical encoding spells that default out or
/// omits it. The first four below are every optional field a request
/// has — the one place their defaults live, shared by `query`,
/// `session.open` and `session.finalize`.
struct Optional<T> {
    key: &'static str,
    default: T,
    written_at_default: bool,
}

const WINDOW: Optional<WindowKind> = Optional {
    key: "window",
    default: WindowKind::Open,
    written_at_default: true,
};
const FDR: Optional<f64> = Optional {
    key: "fdr",
    default: DEFAULT_FDR,
    written_at_default: true,
};
const TIER: Optional<Tier> = Optional {
    key: "tier",
    default: Tier::Batch,
    written_at_default: false,
};
/// `None` stands for the server's configured default
/// (`hdoms serve --prefilter`).
const PREFILTER: Optional<Option<PrefilterConfig>> = Optional {
    key: "prefilter",
    default: None,
    written_at_default: false,
};
/// The one optional response field: an `error`'s classification.
const CODE: Optional<ErrorCode> = Optional {
    key: "code",
    default: ErrorCode::General,
    written_at_default: false,
};

impl<T: Wire + Copy> Optional<T> {
    /// The field's value in `v`: validated when present, else the default.
    fn decode(&self, v: &Json) -> Result<T, String> {
        v.get(self.key)
            .map_or(Ok(self.default), |value| T::from_json(value, self.key))
    }
}

/// A message under construction: the `type` tag, then its fields in
/// wire order.
struct Message(Vec<(String, Json)>);

impl Message {
    fn new(kind: &str) -> Message {
        Message(vec![("type".to_owned(), Json::str(kind))])
    }

    fn with<T: Wire>(mut self, key: &str, value: &T) -> Message {
        self.0.push((key.to_owned(), value.to_json()));
        self
    }

    /// Append a wire object's own fields (`receipt`, `stats` and
    /// `metrics` carry theirs at the top level, beside the tag).
    fn flatten(mut self, body: &impl Wire) -> Message {
        if let Json::Obj(fields) = body.to_json() {
            self.0.extend(fields);
        }
        self
    }

    /// Write an optional field: always when the canonical encoding
    /// spells its default out, else only when `value` differs from it.
    fn with_optional<T: Wire + PartialEq>(self, field: &Optional<T>, value: &T) -> Message {
        if field.written_at_default || *value != field.default {
            self.with(field.key, value)
        } else {
            self
        }
    }

    fn encode(self) -> String {
        Json::Obj(self.0).encode()
    }
}

impl Request {
    /// Encode as one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let message = match self {
            Request::Ping => Message::new("ping"),
            Request::ListIndexes => Message::new("list_indexes"),
            Request::Query(q) => Message::new("query")
                .with("index", &q.index)
                .with_optional(&WINDOW, &q.window)
                .with_optional(&FDR, &q.fdr)
                .with_optional(&TIER, &q.tier)
                .with_optional(&PREFILTER, &q.prefilter)
                .with("spectra", &q.spectra),
            Request::SessionOpen {
                index,
                window,
                tier,
                prefilter,
            } => Message::new("session.open")
                .with("index", index)
                .with_optional(&WINDOW, window)
                .with_optional(&TIER, tier)
                .with_optional(&PREFILTER, prefilter),
            Request::SessionSubmit { session, spectra } => Message::new("session.submit")
                .with("session", session)
                .with("spectra", spectra),
            Request::SessionFinalize { session, fdr } => Message::new("session.finalize")
                .with("session", session)
                .with_optional(&FDR, fdr),
            Request::SessionClose { session } => {
                Message::new("session.close").with("session", session)
            }
            Request::IndexLoad { name, path } => Message::new("index.load")
                .with("name", name)
                .with("path", path),
            Request::IndexUnload { name } => Message::new("index.unload").with("name", name),
            Request::ServerStats => Message::new("server.stats"),
            Request::ServerMetrics => Message::new("server.metrics"),
        };
        message.encode()
    }

    /// Decode one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// problem (malformed JSON, unknown type, missing/mistyped field).
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        Ok(match required(&v, "type")?.as_str() {
            Some("ping") => Request::Ping,
            Some("list_indexes") => Request::ListIndexes,
            Some("query") => Request::Query(QueryRequest {
                index: field(&v, "index")?,
                window: WINDOW.decode(&v)?,
                fdr: FDR.decode(&v)?,
                tier: TIER.decode(&v)?,
                prefilter: PREFILTER.decode(&v)?,
                spectra: field(&v, "spectra")?,
            }),
            Some("session.open") => Request::SessionOpen {
                index: field(&v, "index")?,
                window: WINDOW.decode(&v)?,
                tier: TIER.decode(&v)?,
                prefilter: PREFILTER.decode(&v)?,
            },
            Some("session.submit") => Request::SessionSubmit {
                session: field(&v, "session")?,
                spectra: field(&v, "spectra")?,
            },
            Some("session.finalize") => Request::SessionFinalize {
                session: field(&v, "session")?,
                fdr: FDR.decode(&v)?,
            },
            Some("session.close") => Request::SessionClose {
                session: field(&v, "session")?,
            },
            Some("index.load") => Request::IndexLoad {
                name: field(&v, "name")?,
                path: field(&v, "path")?,
            },
            Some("index.unload") => Request::IndexUnload {
                name: field(&v, "name")?,
            },
            Some("server.stats") => Request::ServerStats,
            Some("server.metrics") => Request::ServerMetrics,
            Some(other) => return Err(format!("unknown request type {other:?}")),
            None => return Err("request type must be a string".to_owned()),
        })
    }
}

wire_object! {
    /// A one-line summary of a resident index (the `indexes` response).
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndexSummary from (name: &str, index: &LibraryIndex) {
        /// Name the index was registered under.
        pub name: String = name.to_owned(),
        /// Backend kind ("exact" | "hyperoms" | "rram").
        pub backend: String = index.kind().name().to_owned(),
        /// Hypervector dimension.
        pub dim: usize = index.dim(),
        /// Number of indexed references.
        pub entries: usize = index.entry_count(),
        /// Number of precursor-mass shards.
        pub shards: usize = index.shards().len(),
    }
}

wire_object! {
    /// Per-batch serving statistics, reported with every `result` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchStats from (
        outcome: &PipelineOutcome,
        receipt: &BatchReceipt,
        admission: Admission,
    ) {
        /// Wall-clock time spent answering the batch, milliseconds.
        pub latency_ms: f64 = admission.latency_ms,
        /// Time the batch waited in the scheduler queue before its worker
        /// budget was granted, milliseconds (for a session finalize: the
        /// accumulated wait of every submitted batch).
        pub wait_ms: f64 = admission.wait_ms,
        /// Batches already waiting in the queue when this one was
        /// submitted (0 for a finalize, which does not queue).
        pub queued: usize = admission.queued,
        /// Worker budget the scheduler granted the batch (0 for a finalize,
        /// which runs unscheduled).
        pub workers: usize = admission.workers,
        /// Queries in the batch.
        pub queries: usize = outcome.total_queries,
        /// Queries dropped by preprocessing (too few peaks).
        pub rejected_queries: usize = outcome.rejected_queries,
        /// Best-hit PSMs produced.
        pub psms: usize = outcome.psms.len(),
        /// PSMs accepted at the requested FDR.
        pub identifications: usize = outcome.identifications(),
        /// Score of the weakest accepted PSM (`null` on the wire when no PSM
        /// was accepted).
        pub threshold_score: f64 as null_is_infinity = outcome.threshold_score,
        /// Total shard visits across the batch: the sum over queries of the
        /// shard runs each query's candidate list spans.
        pub shards_touched: usize = receipt.shards_touched,
        /// Total candidate references scored across the batch.
        pub candidates_scored: usize = receipt.candidates_scored,
        /// Precursor-window candidates generated across the batch, before
        /// any prefilter narrowing (equals `candidates_scored` when the
        /// prefilter is off).
        pub candidates_pre: usize = receipt.candidates_pre,
        /// Time spent scoring sketches and narrowing candidate lists,
        /// milliseconds (0 when the prefilter is off).
        pub sketch_ms: f64 = receipt.sketch_ms,
        /// Time spent encoding query spectra into hypervectors,
        /// milliseconds (for a session finalize: accumulated across every
        /// submitted batch; likewise for the other stage timings).
        pub encode_ms: f64 = receipt.stages.encode_ms,
        /// Time spent building precursor-window candidate lists,
        /// milliseconds.
        pub candidates_ms: f64 = receipt.stages.candidates_ms,
        /// Time spent scoring candidates against the index shards,
        /// milliseconds.
        pub score_ms: f64 = receipt.stages.score_ms,
        /// Time spent in FDR finalization, milliseconds.
        pub finalize_ms: f64 = receipt.stages.finalize_ms,
        /// Name of the backend that served the batch.
        pub backend: String = outcome.backend_name.clone(),
    }
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

wire_object! {
    /// Per-submit accounting, reported by the `receipt` response: what the
    /// batch itself cost plus the session's running PSM total.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SubmitReceipt from (session: u64, receipt: BatchReceipt, admission: Admission) {
        /// Session the batch was submitted to.
        pub session: u64 = session,
        /// 1-based ordinal of the batch within the session.
        pub batch: usize = receipt.batch,
        /// Queries in the batch.
        pub queries: usize = receipt.queries,
        /// Queries dropped by preprocessing (too few peaks).
        pub rejected_queries: usize = receipt.rejected_queries,
        /// Best-hit PSMs the batch produced (unfiltered — FDR runs at
        /// finalize).
        pub psms: usize = receipt.psms,
        /// Raw PSMs accumulated across the session so far.
        pub total_psms: usize = receipt.total_psms,
        /// Candidate references scored in the batch.
        pub candidates_scored: usize = receipt.candidates_scored,
        /// Precursor-window candidates the batch generated, before any
        /// prefilter narrowing.
        pub candidates_pre: usize = receipt.candidates_pre,
        /// Time the batch spent in the sketch prefilter, milliseconds.
        pub sketch_ms: f64 = receipt.sketch_ms,
        /// Shard visits the batch cost.
        pub shards_touched: usize = receipt.shards_touched,
        /// Worker budget the scheduler granted the batch.
        pub workers: usize = admission.workers,
        /// Wall-clock time spent searching the batch, milliseconds.
        pub latency_ms: f64 = admission.latency_ms,
        /// Time the batch waited in the scheduler queue, milliseconds.
        pub wait_ms: f64 = admission.wait_ms,
        /// Time spent encoding query spectra into hypervectors,
        /// milliseconds.
        pub encode_ms: f64 = receipt.stages.encode_ms,
        /// Time spent building precursor-window candidate lists,
        /// milliseconds.
        pub candidates_ms: f64 = receipt.stages.candidates_ms,
        /// Time spent scoring candidates against the index shards,
        /// milliseconds (there is no finalize stage at submit time — FDR
        /// runs once, at `session.finalize`).
        pub score_ms: f64 = receipt.stages.score_ms,
        /// Per-shard scoring cost of the batch: which shards were visited,
        /// how often, and the wall-clock scoring time each absorbed.
        pub shard_timings: Vec<ShardTiming> = receipt.shard_timings,
    }
}

wire_object! {
    /// The scheduler and resident-set counters reported by the
    /// `server.stats` verb: configuration, the queue right now, and
    /// lifetime totals since the server started.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ServerStats from (
        scheduler: &SchedulerStats,
        series: &ServerSeries,
        pipeline: &EngineSeries,
        memory_budget: u64,
        open_sessions: usize,
        resident_indexes: usize,
    ) {
        /// Configured worker-token budget (`hdoms serve --workers`).
        pub workers: usize = scheduler.workers,
        /// Configured queue bound (`--queue-depth`).
        pub queue_depth: usize = scheduler.queue_depth,
        /// Configured soft queue deadline in milliseconds (`--deadline-ms`,
        /// 0 = none).
        pub deadline_ms: u64 = scheduler.deadline_ms,
        /// Configured interactive grants per batch grant under contention
        /// (`--interactive-weight`).
        pub interactive_weight: usize = scheduler.interactive_weight,
        /// Configured interactive queue bound (`--interactive-queue-depth`).
        pub interactive_queue_depth: usize = scheduler.interactive_queue_depth,
        /// Configured resident-shard memory budget in bytes
        /// (`--memory-budget`, 0 = unlimited).
        pub memory_budget: u64 = memory_budget,
        /// Batches waiting in the queue right now.
        pub queued: usize = scheduler.queued,
        /// Batches executing right now.
        pub in_flight: usize = scheduler.in_flight,
        /// Worker tokens granted right now (≤ `workers`).
        pub workers_busy: usize = scheduler.workers_busy,
        /// Most tokens ever granted at once (≤ `workers` always — the
        /// bounded-in-flight invariant).
        pub peak_workers_busy: usize = scheduler.peak_workers_busy,
        /// Batches granted a budget so far.
        pub admitted: u64 = scheduler.admitted,
        /// Admitted batches that finished and returned their budget.
        pub completed: u64 = scheduler.completed,
        /// Submissions rejected with the `busy` error.
        pub rejected_busy: u64 = scheduler.rejected_busy,
        /// Batches shed with the `deadline` error.
        pub shed_deadline: u64 = scheduler.shed_deadline,
        /// Total queue wait across admitted **and** deadline-shed batches,
        /// milliseconds (shed batches waited too; excluding them would
        /// understate tail wait exactly when admission pressure builds).
        pub total_wait_ms: f64 = scheduler.total_wait_ms,
        /// The interactive tier's slice of the scheduler counters (same
        /// lock acquisition as the aggregates, so sums are never torn).
        pub interactive: TierStats = *scheduler.tier(Tier::Interactive),
        /// The batch tier's slice of the scheduler counters.
        pub batch: TierStats = *scheduler.tier(Tier::Batch),
        /// Interactive groups executed so far (one engine batch per
        /// admission; a lone interactive query is a one-member group, and
        /// a shed group never counts, so shed work never inflates the
        /// ratio).
        pub coalesced_batches: u64 = series.coalesced_batches.get(),
        /// Interactive requests answered out of those groups so far
        /// (`coalesced_requests / coalesced_batches` is the merge ratio).
        pub coalesced_requests: u64 = series.coalesced_requests.get(),
        /// Lifetime precursor-window candidates that entered the sketch
        /// prefilter (0 until a prefiltered batch runs — the
        /// `hdoms_prefilter_candidates_pre_total` counter).
        pub prefilter_candidates_pre: u64 = pipeline.prefilter_candidates_pre.get(),
        /// Lifetime candidates the prefilter forwarded to the exact scan
        /// (the `hdoms_prefilter_candidates_post_total` counter).
        pub prefilter_candidates_post: u64 = pipeline.prefilter_candidates_post.get(),
        /// Lifetime wall-clock spent in the sketch prefilter, milliseconds
        /// (the `hdoms_prefilter_sketch_ms` histogram's sum).
        pub prefilter_sketch_ms: f64 = pipeline.prefilter_sketch_ms.snapshot().sum_ms(),
        /// Bytes of shard hypervector words resident right now, across
        /// every mapped index (what `--memory-budget` bounds).
        pub resident_bytes: u64 = series.resident_bytes.get() as u64,
        /// Mapped shards resident right now.
        pub resident_shards: usize = series.resident_shards.get() as usize,
        /// Cold shards evicted (pages released to the OS) so far.
        pub evictions: u64 = series.shard_evictions.get(),
        /// Evicted shards reloaded on demand by a later search so far.
        pub reloads: u64 = series.shard_reloads.get(),
        /// Open streaming sessions.
        pub open_sessions: usize = open_sessions,
        /// Resident indexes.
        pub resident_indexes: usize = resident_indexes,
    }
}

wire_object! {
    /// A five-number summary of one latency histogram, reported by the
    /// `server.metrics` verb. Quantiles are bucket upper bounds from the
    /// registry's log₂ histogram — conservative (never understated), with
    /// resolution of one bucket.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct HistogramSummary from (histogram: &HistogramSnapshot) {
        /// Samples recorded.
        pub count: u64 = histogram.count(),
        /// Sum of all recorded samples, milliseconds.
        pub sum_ms: f64 = histogram.sum_ms(),
        /// Median latency, milliseconds.
        pub p50_ms: f64 = histogram.p50_ms(),
        /// 90th-percentile latency, milliseconds.
        pub p90_ms: f64 = histogram.p90_ms(),
        /// 99th-percentile latency, milliseconds.
        pub p99_ms: f64 = histogram.p99_ms(),
    }
}

wire_object! {
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
}

// The wire objects whose structs other modules own.
wire_object! {
    impl TierStats {
        queued: usize,
        in_flight: usize,
        admitted: u64,
        completed: u64,
        rejected_busy: u64,
        shed_deadline: u64,
        total_wait_ms: f64,
    }
}
wire_object! {
    impl ShardTiming {
        shard: u32,
        visits: u64,
        ms: f64,
    }
}
// One PSM row is flat on the wire; the struct nests the match.
wire_object! {
    impl PsmTableRow as row {
        query_id: u32 = row.psm.query_id,
        reference_id: u32 = row.psm.reference_id,
        peptide: String = row.peptide,
        score: f64 = row.psm.score,
        is_decoy: bool = row.psm.is_decoy,
        precursor_delta: f64 = row.psm.precursor_delta,
        accepted: bool = row.accepted,
    } => PsmTableRow {
        psm: Psm {
            query_id,
            reference_id,
            score,
            is_decoy,
            precursor_delta,
        },
        peptide,
        accepted,
    }
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
    /// classification.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::General,
            message: message.into(),
        }
    }

    /// Encode as one canonical JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let message = match self {
            Response::Pong { protocol } => Message::new("pong").with("protocol", protocol),
            Response::Error { code, message } => Message::new("error")
                .with_optional(&CODE, code)
                .with("message", message),
            Response::Indexes(indexes) => Message::new("indexes").with("indexes", indexes),
            Response::Result(r) => Message::new("result")
                .with("index", &r.index)
                .with("psms", &r.rows)
                .with("stats", &r.stats),
            Response::SessionOpened { session, index } => Message::new("session")
                .with("session", session)
                .with("index", index),
            Response::Receipt(receipt) => Message::new("receipt").flatten(receipt),
            Response::SessionClosed { session } => Message::new("closed").with("session", session),
            Response::Loaded(summary) => Message::new("loaded").with("index", summary),
            Response::Unloaded { name } => Message::new("unloaded").with("name", name),
            Response::Stats(stats) => Message::new("stats").flatten(stats),
            Response::Metrics(report) => Message::new("metrics").flatten(report),
        };
        message.encode()
    }

    /// Decode one response line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural
    /// problem.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        Ok(match required(&v, "type")?.as_str() {
            Some("pong") => Response::Pong {
                protocol: field(&v, "protocol")?,
            },
            Some("error") => Response::Error {
                code: CODE.decode(&v)?,
                message: field(&v, "message")?,
            },
            Some("indexes") => Response::Indexes(field(&v, "indexes")?),
            Some("result") => Response::Result(QueryResult {
                index: field(&v, "index")?,
                rows: field(&v, "psms")?,
                stats: field(&v, "stats")?,
            }),
            Some("session") => Response::SessionOpened {
                session: field(&v, "session")?,
                index: field(&v, "index")?,
            },
            Some("receipt") => Response::Receipt(Wire::from_json(&v, "receipt")?),
            Some("closed") => Response::SessionClosed {
                session: field(&v, "session")?,
            },
            Some("loaded") => Response::Loaded(field(&v, "index")?),
            Some("unloaded") => Response::Unloaded {
                name: field(&v, "name")?,
            },
            Some("stats") => Response::Stats(Wire::from_json(&v, "stats")?),
            Some("metrics") => Response::Metrics(Wire::from_json(&v, "metrics")?),
            Some(other) => return Err(format!("unknown response type {other:?}")),
            None => return Err("response type must be a string".to_owned()),
        })
    }
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
        let refusal = |precursor_mz, precursor_charge, peaks| {
            let spectrum = QuerySpectrum {
                id: 3,
                precursor_mz,
                precursor_charge,
                peaks,
            };
            spectrum.to_spectrum().unwrap_err()
        };
        let expect = [
            (-5.0, 2, vec![], "precursor_mz must be finite and positive"),
            (500.0, 2, vec![(0.0, 1.0)], "malformed peak [0, 1]"),
            (500.0, 0, vec![], "precursor_charge must be ≥ 1"),
            (1e308, 2, vec![], "neutral mass overflows"),
        ];
        for (mz, z, peaks, reason) in expect {
            assert_eq!(refusal(mz, z, peaks), format!("spectrum 3: {reason}"));
        }
    }
}
