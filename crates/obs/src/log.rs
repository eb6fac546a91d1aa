//! Structured, level-filtered logging: one event per line, as JSON
//! (machine-shippable) or plain text (human-greppable), replacing the
//! serving stack's ad-hoc `eprintln!`.
//!
//! An event is a name plus typed key–value fields, built fluently and
//! emitted atomically (one `write` under the sink lock, so concurrent
//! connection threads never interleave partial lines):
//!
//! ```
//! use hdoms_obs::log::{Level, Logger};
//!
//! let logger = Logger::to_writer(Level::Info, true, Vec::new());
//! logger
//!     .info("serve.start")
//!     .str("addr", "127.0.0.1:7878")
//!     .u64("indexes", 2)
//!     .emit();
//! ```
//!
//! JSON lines are written through [`crate::json`]'s formatters:
//! `{"ts":<unix-ms>,"level":"info","event":"serve.start",...fields}`.

use crate::json::{write_number, write_string};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first. [`Level::Off`] disables output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No output at all.
    Off,
    /// Unrecoverable or dropped work.
    Error,
    /// Degraded behaviour the operator should know about.
    Warn,
    /// Lifecycle events (startup, connections, index loads).
    Info,
    /// Per-request detail.
    Debug,
}

impl Level {
    /// Parse a CLI spelling (`off` | `error` | `warn` | `info` |
    /// `debug`, case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The lowercase name (`"info"` …) used on the wire and in text
    /// lines.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

enum FieldValue {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
}

struct Inner {
    level: Level,
    json: bool,
    sink: Mutex<Box<dyn Write + Send>>,
}

/// A cheaply cloneable handle to one log sink. Events below the
/// configured level are dropped before any formatting work.
#[derive(Clone)]
pub struct Logger {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("level", &self.inner.level)
            .field("json", &self.inner.json)
            .finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to stderr (the serving default). `json`
    /// selects JSON-lines over plain text.
    pub fn stderr(level: Level, json: bool) -> Logger {
        Logger::to_writer(level, json, std::io::stderr())
    }

    /// A logger that drops everything (the library default: code under
    /// test, or embedders that did not opt in).
    pub fn disabled() -> Logger {
        Logger::to_writer(Level::Off, false, std::io::sink())
    }

    /// A logger writing to an arbitrary sink (tests).
    pub fn to_writer(level: Level, json: bool, sink: impl Write + Send + 'static) -> Logger {
        Logger {
            inner: Arc::new(Inner {
                level,
                json,
                sink: Mutex::new(Box::new(sink)),
            }),
        }
    }

    /// Would an event at `level` be emitted?
    pub(crate) fn enabled(&self, level: Level) -> bool {
        level != Level::Off && level <= self.inner.level
    }

    /// Start a [`Level::Warn`] event.
    pub fn warn(&self, event: &str) -> Event<'_> {
        self.event(Level::Warn, event)
    }

    /// Start an [`Level::Info`] event.
    pub fn info(&self, event: &str) -> Event<'_> {
        self.event(Level::Info, event)
    }

    /// Start a [`Level::Debug`] event.
    pub fn debug(&self, event: &str) -> Event<'_> {
        self.event(Level::Debug, event)
    }

    fn event(&self, level: Level, event: &str) -> Event<'_> {
        Event {
            logger: self,
            level,
            event: event.to_owned(),
            fields: Vec::new(),
        }
    }

    fn emit(&self, level: Level, event: &str, fields: &[(String, FieldValue)]) {
        if !self.enabled(level) {
            return;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(80);
        if self.inner.json {
            line.push_str(&format!(
                "{{\"ts\":{ts},\"level\":\"{}\",\"event\":",
                level.name()
            ));
            write_string(event, &mut line);
            for (key, value) in fields {
                line.push(',');
                write_string(key, &mut line);
                line.push(':');
                match value {
                    FieldValue::Str(s) => write_string(s, &mut line),
                    FieldValue::U64(n) => line.push_str(&n.to_string()),
                    FieldValue::F64(x) => write_number(*x, &mut line),
                    FieldValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                }
            }
            line.push('}');
        } else {
            line.push_str(&format!("[{ts}] {} {event}", level.name().to_uppercase()));
            for (key, value) in fields {
                match value {
                    FieldValue::Str(s) => line.push_str(&format!(" {key}={s}")),
                    FieldValue::U64(n) => line.push_str(&format!(" {key}={n}")),
                    FieldValue::F64(x) => line.push_str(&format!(" {key}={x}")),
                    FieldValue::Bool(b) => line.push_str(&format!(" {key}={b}")),
                }
            }
        }
        line.push('\n');
        let mut sink = self.inner.sink.lock().expect("log sink poisoned");
        // A full disk or closed pipe must never take the server down.
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }
}

/// A structured event under construction; emits on
/// [`Event::emit`] (dropping without emitting logs nothing).
#[must_use = "call .emit() to write the event"]
pub struct Event<'a> {
    logger: &'a Logger,
    level: Level,
    event: String,
    fields: Vec<(String, FieldValue)>,
}

impl Event<'_> {
    /// Attach a string field.
    pub fn str(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields
            .push((key.to_owned(), FieldValue::Str(value.into())));
        self
    }

    /// Attach an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_owned(), FieldValue::U64(value)));
        self
    }

    /// Attach a float field (non-finite values emit as `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_owned(), FieldValue::F64(value)));
        self
    }

    /// Attach a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_owned(), FieldValue::Bool(value)));
        self
    }

    /// Write the event (one atomic line) if its level is enabled.
    pub fn emit(self) {
        self.logger.emit(self.level, &self.event, &self.fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc as StdArc, Mutex as StdMutex};

    /// A sink tests can read back.
    #[derive(Clone, Default)]
    struct Shared(StdArc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn json_lines_carry_typed_fields() {
        let sink = Shared::default();
        let logger = Logger::to_writer(Level::Debug, true, sink.clone());
        logger
            .info("conn.open")
            .u64("client", 7)
            .str("peer", "a\"b")
            .f64("ms", 1.5)
            .bool("tls", false)
            .emit();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("{\"ts\":"), "line: {text}");
        assert!(text.contains("\"level\":\"info\""));
        assert!(text.contains("\"event\":\"conn.open\""));
        assert!(text.contains("\"client\":7"));
        assert!(text.contains("\"peer\":\"a\\\"b\""));
        assert!(text.contains("\"ms\":1.5"));
        assert!(text.contains("\"tls\":false"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn text_lines_are_key_value() {
        let sink = Shared::default();
        let logger = Logger::to_writer(Level::Info, false, sink.clone());
        logger.warn("queue.shed").u64("waited_ms", 272).emit();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.contains("WARN queue.shed waited_ms=272"),
            "line: {text}"
        );
    }

    #[test]
    fn level_filtering_drops_below_threshold() {
        let sink = Shared::default();
        let logger = Logger::to_writer(Level::Warn, false, sink.clone());
        logger.info("ignored").emit();
        logger.debug("ignored").emit();
        assert!(sink.0.lock().unwrap().is_empty());
        assert!(!logger.enabled(Level::Info));
        assert!(logger.enabled(Level::Warn));
        assert!(!Logger::disabled().enabled(Level::Error));
    }
}
