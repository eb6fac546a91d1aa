//! `docs/PROTOCOL.md` is executable documentation: every line inside a
//! ```json fence must decode as a protocol message and re-encode to the
//! **exact same bytes**. A protocol change that forgets the spec fails
//! here.

use hdoms_serve::protocol::{Request, Response};

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
