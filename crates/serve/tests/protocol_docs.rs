//! `docs/PROTOCOL.md` is executable documentation: every line inside a
//! ```json fence must decode as a protocol message and re-encode to the
//! **exact same bytes**. A protocol change that forgets the spec fails
//! here.
//!
//! The same examples, cut short and bit-flipped, seed the connection
//! fuzz below: whatever bytes a peer sends, `net::serve_connection`
//! answers every non-blank line with exactly one response line and
//! never panics.

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_serve::net::serve_connection;
use hdoms_serve::protocol::{Request, Response};
use hdoms_serve::server::Server;
use proptest::prelude::*;
use std::sync::OnceLock;

const DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Every non-empty line inside ```json fenced blocks, in order.
fn json_lines(doc: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut in_json = false;
    for line in doc.lines() {
        if line.trim() == "```json" {
            in_json = true;
        } else if line.trim().starts_with("```") {
            in_json = false;
        } else if in_json && !line.trim().is_empty() {
            lines.push(line.to_owned());
        }
    }
    lines
}

#[test]
fn every_documented_payload_roundtrips_verbatim() {
    let lines = json_lines(DOC);
    assert!(
        lines.len() >= 15,
        "expected the spec to document at least 15 payloads, found {}",
        lines.len()
    );
    for line in &lines {
        // A payload is either a request or a response; whichever decodes
        // must re-encode to the documented bytes exactly.
        match Request::decode(line) {
            Ok(request) => assert_eq!(
                request.encode(),
                *line,
                "documented request is not canonical"
            ),
            Err(_) => {
                let response = Response::decode(line).unwrap_or_else(|e| {
                    panic!("documented payload decodes as neither request nor response\n  line: {line}\n  response error: {e}")
                });
                assert_eq!(
                    response.encode(),
                    *line,
                    "documented response is not canonical"
                );
            }
        }
    }
}

#[test]
fn doc_covers_every_message_type() {
    let lines = json_lines(DOC).join("\n");
    for needle in [
        "\"type\":\"ping\"",
        "\"type\":\"list_indexes\"",
        "\"type\":\"query\"",
        "\"type\":\"session.open\"",
        "\"type\":\"session.submit\"",
        "\"type\":\"session.finalize\"",
        "\"type\":\"session.close\"",
        "\"type\":\"index.load\"",
        "\"type\":\"index.unload\"",
        "\"type\":\"server.stats\"",
        "\"type\":\"stats\"",
        "\"type\":\"server.metrics\"",
        "\"type\":\"metrics\"",
        "\"code\":\"busy\"",
        "\"code\":\"deadline\"",
        "\"prefilter\":\"k=",
        "\"candidates_pre\":",
        "\"sketch_ms\":",
        "\"prefilter_candidates_pre\":",
        "\"prefilter_candidates_post\":",
        "\"prefilter_sketch_ms\":",
        "\"type\":\"pong\"",
        "\"type\":\"indexes\"",
        "\"type\":\"result\"",
        "\"type\":\"error\"",
        "\"type\":\"session\"",
        "\"type\":\"receipt\"",
        "\"type\":\"closed\"",
        "\"type\":\"loaded\"",
        "\"type\":\"unloaded\"",
    ] {
        assert!(lines.contains(needle), "spec lost its {needle} example");
    }
}

/// The index the doc examples query (`"index":"iprg"`): the tiny preset
/// at dim 512, built once for every case.
fn tiny_index() -> &'static LibraryIndex {
    static INDEX: OnceLock<LibraryIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 3);
        let mut config = IndexConfig {
            entries_per_shard: 64,
            threads: 1,
            ..IndexConfig::default()
        };
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 512;
        }
        LibraryIndex::build(&workload.library, config)
    })
}

/// Feed `lines`, each ended by `\n`, through one connection of a fresh
/// one-worker server holding the tiny index as `iprg`, and check the
/// transport's contract: one response line per line that is not blank
/// (a line that is not UTF-8 is never blank), each a response the codec
/// reads back — and, when `errors` holds, an error.
fn serve_lines(lines: &[Vec<u8>], errors: bool) -> Result<(), String> {
    let server = Server::new(1);
    server
        .add_index("iprg", tiny_index().clone())
        .expect("a fresh server takes the index");
    let input: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.iter().chain(b"\n"))
        .copied()
        .collect();
    let mut output = Vec::new();
    serve_connection(&server, &input[..], &mut output).map_err(|e| e.to_string())?;
    let answered = input
        .split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .filter(|line| std::str::from_utf8(line).map_or(true, |l| !l.trim().is_empty()))
        .count();
    let output = String::from_utf8(output).map_err(|_| "a response is not UTF-8")?;
    let responses: Vec<&str> = output.lines().collect();
    prop_assert_eq!(
        responses.len(),
        answered,
        "one response line per request line"
    );
    for line in responses {
        let response = Response::decode(line).map_err(|e| format!("{e}: {line}"))?;
        prop_assert!(
            !errors || matches!(response, Response::Error { .. }),
            "{line}"
        );
    }
    Ok(())
}

/// Bytes that reach deep into the JSON grammar, as well as any byte.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn\r\tu";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte lines: invalid UTF-8, bare carriage returns, JSON
    /// fragments, and line feeds inside a drawn line (one more line).
    #[test]
    fn arbitrary_byte_lines_get_one_response_each(
        lines in collection::vec(
            collection::vec((any::<u8>(), 0..JSON_BYTES.len(), any::<bool>()), 0..48),
            1..6,
        ),
    ) {
        let lines: Vec<Vec<u8>> = (lines.iter())
            .map(|line| {
                let byte = |&(any, json, raw): &(u8, usize, bool)| if raw { any } else { JSON_BYTES[json] };
                line.iter().map(byte).collect()
            })
            .collect();
        serve_lines(&lines, false)?;
    }

    /// Every documented line, cut short at a drawn length and with one
    /// drawn byte flipped by a drawn mask.
    #[test]
    fn damaged_examples_get_one_response_each(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let mut lines = Vec::new();
        for line in json_lines(DOC) {
            let bytes = line.into_bytes();
            lines.push(bytes[..(cut * bytes.len() as f64) as usize].to_vec());
            let mut flipped = bytes;
            let at = (at * flipped.len() as f64) as usize;
            flipped[at] ^= mask;
            lines.push(flipped);
        }
        serve_lines(&lines, false)?;
    }

    /// Arrays and objects nested past the parser's 64 levels, alone,
    /// unclosed, or as a request's field, are refused — with a response,
    /// not a stack overflow.
    #[test]
    fn nesting_past_the_limit_is_an_error_response(depth in 65usize..4096) {
        let array = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let object = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let lines = [
            array.clone(),
            object.clone(),
            "[{\"a\":".repeat(depth),
            format!(r#"{{"type":"query","index":"iprg","spectra":{array}}}"#),
            format!(r#"{{"type":"ping","x":{object}}}"#),
        ];
        let lines: Vec<Vec<u8>> = lines.into_iter().map(String::into_bytes).collect();
        serve_lines(&lines, true)?;
    }
}
