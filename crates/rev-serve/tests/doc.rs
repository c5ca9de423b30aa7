//! `docs/SERVE.md` is normative — this suite keeps it honest.
//!
//! * Every request/response type, error code and `serve.*` metric the
//!   implementation knows must be documented under its own section.
//! * Every ` ```json ` example in the document must parse through the
//!   real message types and round-trip (typed → JSON → typed) — the
//!   examples cannot drift from the protocol.

use rev_serve::proto::{ErrorCode, Request, Response, REQUEST_TYPES, RESPONSE_TYPES};
use rev_serve::server::{serve, ServeOptions};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVE.md");
    std::fs::read_to_string(path).expect("docs/SERVE.md exists")
}

/// The requests half and the responses half of the document (`hello`
/// exists in both, so coverage is checked per half).
fn halves(doc: &str) -> (String, String) {
    let split = doc.find("## Responses").expect("docs/SERVE.md has a responses section");
    (doc[..split].to_string(), doc[split..].to_string())
}

#[test]
fn every_message_type_is_documented() {
    let doc = doc();
    let (requests, responses) = halves(&doc);
    let missing: Vec<String> = REQUEST_TYPES
        .iter()
        .filter(|t| !requests.contains(&format!("### `{t}`")))
        .map(|t| format!("request {t}"))
        .chain(
            RESPONSE_TYPES
                .iter()
                .filter(|t| !responses.contains(&format!("### `{t}`")))
                .map(|t| format!("response {t}")),
        )
        .collect();
    assert!(
        missing.is_empty(),
        "message types without a `### `-level section in docs/SERVE.md:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn every_error_code_is_documented() {
    let doc = doc();
    let section = &doc[doc.find("## Error codes").expect("error-codes section")..];
    let missing: Vec<&str> = ErrorCode::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|c| !section.contains(&format!("| `{c}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "error codes missing from the docs/SERVE.md table:\n  {}",
        missing.join("\n  ")
    );
}

/// The names come off the wire: the `metrics` line a gateway sends
/// when it shuts down lists every counter it keeps.
#[test]
fn every_serve_metric_is_documented() {
    let doc = doc();
    let shutdown = Request::Shutdown { suspend: false }.to_json().render() + "\n";
    let mut output = Vec::new();
    serve(shutdown.as_bytes(), &mut output, &ServeOptions::default());
    let output = String::from_utf8(output).expect("utf-8 output");
    let metrics = output
        .lines()
        .find_map(|line| match Response::from_json(&rev_trace::json::parse(line).ok()?).ok()? {
            Response::Metrics { metrics } => Some(metrics),
            _ => None,
        })
        .expect("a shutdown sends the gateway's metrics");
    let reg = rev_trace::MetricRegistry::from_json(&metrics).expect("a metric registry");
    assert!(!reg.is_empty(), "the gateway exports its counters");
    let missing: Vec<&str> = reg.names().filter(|m| !doc.contains(&format!("`{m}`"))).collect();
    assert!(missing.is_empty(), "serve.* metrics missing from docs/SERVE.md:\n  {missing:?}");
}

/// Pulls every line out of the document's ` ```json ` fences.
fn json_examples(doc: &str) -> Vec<String> {
    let mut examples = Vec::new();
    let mut in_json = false;
    for line in doc.lines() {
        if line.trim() == "```json" {
            in_json = true;
        } else if line.trim().starts_with("```") {
            in_json = false;
        } else if in_json && !line.trim().is_empty() {
            examples.push(line.trim().to_string());
        }
    }
    examples
}

/// Every documented example is a real wire message: it parses strictly
/// as a request or a response, and its typed form re-serializes to JSON
/// that parses back to the same typed value. (Semantic equality, not
/// byte equality: examples may rely on documented field defaults.)
#[test]
fn every_json_example_round_trips() {
    let doc = doc();
    let examples = json_examples(&doc);
    assert!(examples.len() >= 15, "expected one example per message type, got {}", examples.len());
    for line in &examples {
        let v = rev_trace::json::parse(line)
            .unwrap_or_else(|e| panic!("example is not valid JSON ({e}):\n  {line}"));
        let req = Request::from_json(&v);
        let resp = Response::from_json(&v);
        match (req, resp) {
            (Ok(r), _) => {
                let back = Request::from_json(&r.to_json()).expect("canonical form parses");
                assert_eq!(back, r, "request example must round-trip:\n  {line}");
            }
            (_, Ok(r)) => {
                let back = Response::from_json(&r.to_json()).expect("canonical form parses");
                assert_eq!(back, r, "response example must round-trip:\n  {line}");
            }
            (Err(e1), Err(e2)) => {
                panic!("example parses as neither request ({e1}) nor response ({e2}):\n  {line}");
            }
        }
    }
}
