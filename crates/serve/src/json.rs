//! The canonical JSON value, parser and encoder under the protocol — a
//! re-export of [`hdoms_obs::json`], the stack's one JSON formatter
//! (the structured logger writes its lines through the same string and
//! number formatters).
//!
//! ```
//! use hdoms_serve::json::Json;
//!
//! let v = Json::parse(r#"{"type":"ping","n":3,"ratio":0.5}"#).unwrap();
//! assert_eq!(v.get("type").and_then(Json::as_str), Some("ping"));
//! assert_eq!(v.encode(), r#"{"type":"ping","n":3,"ratio":0.5}"#);
//! ```

pub use hdoms_obs::json::{Json, JsonError};
