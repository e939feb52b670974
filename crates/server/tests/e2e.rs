//! End-to-end tests: a real daemon on an ephemeral port, exercised with
//! raw `TcpStream` requests — no HTTP client library, by policy.
//!
//! The server runs on Linux only (its transport is the epoll event
//! loop), so these tests do too.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tn_server::{Server, ServerConfig, ServerHandle};

fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServerConfig::default()
    }
}

fn start(threads: usize) -> ServerHandle {
    Server::bind(&config(threads))
        .expect("bind ephemeral port")
        .spawn()
}

fn start_config(config: &ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind ephemeral port").spawn()
}

/// Sends one raw request and returns (status, headers, body).
fn raw(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn delete(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw(
        addr,
        &format!("DELETE {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

/// Extracts a counter value from Prometheus text output.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

/// Polls `/metrics` until `name >= want` (connection-close accounting is
/// asynchronous with respect to the client observing the response).
fn await_metric(addr: SocketAddr, name: &str, want: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, text) = get(addr, "/metrics");
        if metric(&text, name) >= want {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "{name} never reached {want}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn find(buf: &[u8], needle: &[u8]) -> Option<usize> {
    buf.windows(needle.len()).position(|w| w == needle)
}

/// Byte offset one past a complete chunked body (`…0\r\n\r\n`), if the
/// buffer holds one.
fn chunked_end(buf: &[u8]) -> Option<usize> {
    let mut pos = 0;
    loop {
        let line_end = find(&buf[pos..], b"\r\n")? + pos;
        let size = usize::from_str_radix(std::str::from_utf8(&buf[pos..line_end]).ok()?.trim(), 16)
            .ok()?;
        let data_end = line_end + 2 + size + 2;
        if buf.len() < data_end {
            return None;
        }
        if size == 0 {
            return Some(data_end);
        }
        pos = data_end;
    }
}

/// A persistent client connection that reads framed responses (by
/// `Content-Length` or chunked terminator) so the socket can be reused.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, request: &str) {
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
    }

    fn get(&mut self, path: &str, last: bool) {
        let conn = if last { "Connection: close\r\n" } else { "" };
        self.send(&format!("GET {path} HTTP/1.1\r\nHost: t\r\n{conn}\r\n"));
    }

    fn post(&mut self, path: &str, body: &str, last: bool) {
        let conn = if last { "Connection: close\r\n" } else { "" };
        self.send(&format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{conn}\r\n{body}",
            body.len()
        ));
    }

    /// Reads exactly one response; trailing bytes stay buffered for the
    /// next call (pipelining-safe).
    fn read_response(&mut self) -> (u16, String, String) {
        let head_end = self.read_until(|buf| find(buf, b"\r\n\r\n").map(|i| i + 4));
        let head =
            String::from_utf8(self.buf[..head_end - 4].to_vec()).expect("UTF-8 header block");
        self.buf.drain(..head_end);
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let chunked = head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"));
        let body = if chunked {
            let end = self.read_until(chunked_end);
            let raw: Vec<u8> = self.buf.drain(..end).collect();
            String::from_utf8(raw).expect("UTF-8 chunked body")
        } else {
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .expect("Content-Length header");
            let _ = self.read_until(move |buf| (buf.len() >= len).then_some(len));
            let raw: Vec<u8> = self.buf.drain(..len).collect();
            String::from_utf8(raw).expect("UTF-8 body")
        };
        (status, head, body)
    }

    fn read_until(&mut self, done: impl Fn(&[u8]) -> Option<usize>) -> usize {
        loop {
            if let Some(n) = done(&self.buf) {
                return n;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(
                n > 0,
                "connection closed mid-response; buffered: {:?}",
                String::from_utf8_lossy(&self.buf)
            );
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Asserts the server closed the connection without further bytes.
    fn assert_eof(&mut self) {
        assert!(
            self.buf.is_empty(),
            "unexpected trailing bytes: {:?}",
            String::from_utf8_lossy(&self.buf)
        );
        let mut chunk = [0u8; 64];
        let n = self.stream.read(&mut chunk).expect("read at EOF");
        assert_eq!(
            n,
            0,
            "expected EOF, got: {:?}",
            String::from_utf8_lossy(&chunk[..n])
        );
    }
}

#[test]
fn healthz_devices_and_metrics_respond() {
    let server = start(2);
    let addr = server.addr();

    let (status, head, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    assert_eq!(body, "{\"service\":\"tn-server\",\"status\":\"ok\"}");

    let (status, _, body) = get(addr, "/v1/devices");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":8"));
    for device in ["Intel Xeon Phi", "NVIDIA K20", "Xilinx Zynq-7000"] {
        assert!(body.contains(device), "{device} missing from {body}");
    }

    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/plain"));
    assert!(body.contains("tn_workers_total 2"));
    // The two requests above are already counted.
    assert!(body.contains("tn_requests_total{endpoint=\"/healthz\",status=\"200\"} 1"));
    assert!(body.contains("tn_requests_total{endpoint=\"/v1/devices\",status=\"200\"} 1"));
    assert!(metric(&body, "tn_connections_total") >= 3);
    // The connection serving /metrics itself is open right now.
    assert!(metric(&body, "tn_connections_active") >= 1, "{body}");

    server.stop();
}

#[test]
fn error_paths_return_json_errors() {
    let server = start(2);
    let addr = server.addr();

    // Malformed JSON → 400.
    let (status, _, body) = post(addr, "/v1/fit", "{this is not json");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""));
    assert!(body.contains("malformed JSON"));

    // Unknown route → 404.
    let (status, _, body) = get(addr, "/v1/nope");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));

    // Wrong method on a known route → 405.
    let (status, _, _) = post(addr, "/healthz", "{}");
    assert_eq!(status, 405);

    // Unknown device → 404.
    let (status, _, body) = post(addr, "/v1/fit", r#"{"device":"ENIAC"}"#);
    assert_eq!(status, 404);
    assert!(body.contains("unknown device"));

    // Not HTTP at all → 400.
    let (status, _, _) = raw(addr, "NOT_AN_HTTP_REQUEST\r\n\r\n");
    assert_eq!(status, 400);

    server.stop();
}

#[test]
fn fit_endpoint_is_deterministic_and_counts_cache_hits() {
    let server = start(2);
    let addr = server.addr();
    let request =
        r#"{"device":"NVIDIA K20","location":"leadville","weather":"thunderstorm","seed":7}"#;

    let (status, _, first) = post(addr, "/v1/fit", request);
    assert_eq!(status, 200, "{first}");
    let (_, _, second) = post(addr, "/v1/fit", request);
    assert_eq!(first, second, "same request + seed → byte-identical body");

    // Sanity on the payload: thermal share present and in (0, 1].
    assert!(first.contains("\"thermal_share\":"));
    assert!(first.contains("\"environment\""));
    assert!(first.contains("Leadville"));

    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "tn_cache_misses_total"), 1);
    assert!(metric(&metrics, "tn_cache_hits_total") >= 1, "{metrics}");

    server.stop();
}

/// `derived_*` surroundings run the seeded Monte-Carlo room derivation
/// in-process: the response must be deterministic and the transport
/// counters in `/metrics` must actually move.
#[test]
fn derived_surroundings_run_transport_and_count_histories() {
    let server = start(2);
    let addr = server.addr();
    let request =
        r#"{"device":"NVIDIA K20","surroundings":"derived_air_cooled","quick":true,"seed":11}"#;

    let (status, _, first) = post(addr, "/v1/fit", request);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"surroundings\":\"derived_air_cooled\""));
    let (_, _, second) = post(addr, "/v1/fit", request);
    assert_eq!(first, second, "derived boost must be seed-deterministic");

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metric(&metrics, "tn_transport_histories_total") > 0,
        "derived surroundings ran no transport:\n{metrics}"
    );

    server.stop();
}

#[test]
fn two_concurrent_identical_fit_posts_cause_exactly_one_miss() {
    let server = start(4);
    let addr = server.addr();
    let request = r#"{"device":"Intel Xeon Phi","location":"new_york","seed":11}"#;

    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                post(addr, "/v1/fit", request)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results[0].0, 200);
    assert_eq!(
        results[0].2, results[1].2,
        "coalesced responses are identical"
    );

    let (_, _, metrics) = get(addr, "/metrics");
    // However the two raced, the pipeline ran once: the second request
    // either coalesced onto the in-flight computation or hit the cache.
    assert_eq!(metric(&metrics, "tn_cache_misses_total"), 1);
    assert_eq!(
        metric(&metrics, "tn_cache_hits_total") + metric(&metrics, "tn_cache_coalesced_total"),
        1
    );

    server.stop();
}

#[test]
fn checkpoint_and_cross_sections_endpoints() {
    let server = start(2);
    let addr = server.addr();

    let (status, _, body) = post(
        addr,
        "/v1/checkpoint",
        r#"{"due_fit_per_node":500,"nodes":100,"checkpoint_cost_s":120}"#,
    );
    assert_eq!(status, 200, "{body}");
    for key in [
        "\"mtbf_s\":",
        "\"young_interval_s\":",
        "\"daly_interval_s\":",
        "\"overhead_at_daly\":",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }

    let (status, _, body) = post(
        addr,
        "/v1/cross-sections",
        r#"{"device":"Xilinx Zynq-7000","seed":3}"#,
    );
    assert_eq!(status, 200, "{body}");
    for key in [
        "\"chipir\":",
        "\"rotax\":",
        "\"sigma\":",
        "\"ci\":[",
        "\"MNIST\"",
    ] {
        assert!(body.contains(key), "missing {key} in {body}");
    }
    // Validation glitches → 400.
    let (status, _, _) = post(addr, "/v1/checkpoint", r#"{"due_fit_per_node":-1}"#);
    assert_eq!(status, 400);

    server.stop();
}

#[test]
fn every_response_carries_a_request_id() {
    let server = start(2);
    let addr = server.addr();

    let (_, head_a, _) = get(addr, "/healthz");
    let (_, head_b, _) = get(addr, "/v1/nope");
    let id_of = |head: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix("x-request-id: "))
            .unwrap_or_else(|| panic!("x-request-id missing in:\n{head}"))
            .to_string()
    };
    let (a, b) = (id_of(&head_a), id_of(&head_b));
    assert_eq!(a.len(), 16, "{a}");
    assert!(a.chars().all(|c| c.is_ascii_hexdigit()), "{a}");
    assert_ne!(a, b, "request ids are per-request");

    server.stop();
}

/// Unknown paths must all fold into the single `other` endpoint series:
/// probing many bogus paths may not grow the label space.
#[test]
fn path_scans_cannot_inflate_metric_cardinality() {
    let server = start(2);
    let addr = server.addr();

    for path in [
        "/admin",
        "/wp-login.php",
        "/v1/fit/../../etc/passwd",
        "/v1/nope?x=1",
        "/.env",
        // Near-misses around the fleet routes fold into `other` too —
        // only the exact paths get their own label.
        "/v1/fleet/",
        "/v1/fleet/stream/extra",
        "/v1/fleetx",
        "/v1/fleet/entriesx",
        "/v1/timelinex",
        "/v1/timeline/streamx",
    ] {
        let (status, _, _) = get(addr, path);
        assert_eq!(status, 404, "{path}");
    }
    // The real fleet routes land in their own bounded labels.
    let (status, _, _) = get(addr, "/v1/fleet/stream?quick=true");
    assert_eq!(status, 200);
    let (status, _, _) = post(addr, "/v1/fleet", "not json");
    assert_eq!(status, 400);
    let (status, _, _) = post(addr, "/v1/fleet/entries", "not json");
    assert_eq!(status, 400);
    let (status, _, _) = get(addr, "/v1/timeline");
    assert_eq!(status, 200);
    let (status, _, _) = post(addr, "/v1/timeline/ingest", "not json");
    assert_eq!(status, 400);

    let (_, _, metrics) = get(addr, "/metrics");
    let other_series: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("tn_requests_total{") && l.contains("endpoint=\"other\""))
        .collect();
    assert_eq!(
        other_series,
        vec!["tn_requests_total{endpoint=\"other\",status=\"404\"} 11"],
        "all bogus paths share one series:\n{metrics}"
    );
    assert!(metrics.contains("tn_request_seconds_count{endpoint=\"other\"} 11"));
    assert!(metrics.contains("tn_requests_total{endpoint=\"/v1/fleet\",status=\"400\"} 1"));
    assert!(metrics.contains("tn_requests_total{endpoint=\"/v1/fleet/entries\",status=\"400\"} 1"));
    assert!(metrics.contains("tn_requests_total{endpoint=\"/v1/fleet/stream\",status=\"200\"} 1"));
    assert!(metrics.contains("tn_requests_total{endpoint=\"/v1/timeline\",status=\"200\"} 1"));
    assert!(
        metrics.contains("tn_requests_total{endpoint=\"/v1/timeline/ingest\",status=\"400\"} 1")
    );
    // The fleet result counter has its two path labels and no others:
    // the one stream rendered the 24 demo entries and reused none.
    let mut result_series: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("tn_fleet_results_total"))
        .collect();
    result_series.sort_unstable();
    assert_eq!(
        result_series,
        [
            "tn_fleet_results_total{path=\"rendered\"} 24",
            "tn_fleet_results_total{path=\"reused\"} 0",
        ],
        "{metrics}"
    );
    // The endpoint label space is a fixed enumeration: nothing a path
    // scan sends can mint a label outside it.
    let labels: std::collections::BTreeSet<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("tn_requests_total{"))
        .filter_map(|l| l.split("endpoint=\"").nth(1)?.split('"').next())
        .collect();
    for label in &labels {
        assert!(
            [
                "/healthz",
                "/v1/devices",
                "/v1/fit",
                "/v1/checkpoint",
                "/v1/cross-sections",
                "/v1/transport",
                "/v1/fleet",
                "/v1/fleet/entries",
                "/v1/fleet/stream",
                "/v1/timeline",
                "/v1/timeline/stream",
                "/v1/timeline/ingest",
                "/metrics",
                "other",
            ]
            .contains(label),
            "unexpected endpoint label {label:?}"
        );
    }

    server.stop();
}

/// `/metrics` must expose the tn-obs histograms: per-endpoint latency
/// and size, plus the process-wide transport shard histogram.
#[test]
fn metrics_expose_obs_histograms() {
    let server = start(2);
    let addr = server.addr();

    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (_, _, metrics) = get(addr, "/metrics");
    for needle in [
        "# TYPE tn_request_seconds histogram",
        "tn_request_seconds_bucket{endpoint=\"/healthz\",le=\"",
        "tn_request_seconds_count{endpoint=\"/healthz\"} 1",
        "# TYPE tn_response_bytes histogram",
        "# TYPE tn_transport_shard_seconds histogram",
        "# TYPE tn_requests_per_conn histogram",
        "tn_server_overload_total 0",
        "tn_conn_reuse_total",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    server.stop();
}

#[test]
fn responses_are_deterministic_across_server_instances() {
    let request = r#"{"device":"NVIDIA K20","location":"leadville","seed":5}"#;
    let body_of = |server: &ServerHandle| post(server.addr(), "/v1/fit", request).2;

    let a = start(2);
    let first = body_of(&a);
    a.stop();
    let b = start(3);
    let second = body_of(&b);
    b.stop();
    assert_eq!(first, second, "fresh daemons agree byte-for-byte");
}

const POST_ENDPOINTS: [&str; 7] = [
    "/v1/fit",
    "/v1/checkpoint",
    "/v1/cross-sections",
    "/v1/transport",
    "/v1/fleet",
    "/v1/fleet/entries",
    "/v1/scenario/run",
];

/// Decodes a `Transfer-Encoding: chunked` body into its payload.
fn decode_chunked(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    out
}

#[test]
fn fleet_bulk_endpoint_serves_from_the_surface() {
    let server = start(2);
    let addr = server.addr();
    let request = r#"{"devices":[{"device":"NVIDIA K20","altitude_m":1609,"b10_areal_cm2":1e19,"avf":0.5},{"device":"Intel Xeon Phi","altitude_m":10}],"seed":4}"#;

    let (status, _, first) = post(addr, "/v1/fleet", request);
    assert_eq!(status, 200, "{first}");
    for needle in [
        "\"count\":2",
        "\"surface_hits\":2",
        "\"mc_fallbacks\":0",
        "\"surface_digest\":\"",
        "\"source\":\"surface\"",
        "\"sdc\":{",
        "\"total_fit\":",
    ] {
        assert!(first.contains(needle), "missing {needle} in {first}");
    }
    let (_, _, second) = post(addr, "/v1/fleet", request);
    assert_eq!(first, second, "bulk responses are cached/deterministic");

    // Registry mode answers for the built-in demo fleet.
    let (status, _, registry) = post(addr, "/v1/fleet", "{}");
    assert_eq!(status, 200, "{registry}");
    assert!(registry.contains("\"count\":24"), "{registry}");
    assert!(registry.contains("\"generation\":0"), "{registry}");
    assert!(registry.contains("node-0000"), "{registry}");

    server.stop();
}

#[test]
fn fleet_stream_is_chunked_ndjson_on_the_wire() {
    let server = start(2);
    let addr = server.addr();

    let (status, head, body) = get(addr, "/v1/fleet/stream?seed=9&quick=true");
    assert_eq!(status, 200, "{head}\n{body}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(
        head.contains("Content-Type: application/x-ndjson"),
        "{head}"
    );
    assert!(!head.contains("Content-Length"), "{head}");

    let payload = decode_chunked(&body);
    let lines: Vec<&str> = payload.lines().collect();
    assert_eq!(lines.len(), 1 + 24, "meta line + one line per demo entry");
    assert!(lines[0].contains("\"count\":24"), "{}", lines[0]);
    assert!(lines[0].contains("\"seed\":9"), "{}", lines[0]);
    for line in &lines[1..] {
        assert!(line.starts_with("{\"id\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    // Same query again: byte-identical payload via the response cache.
    let (_, _, again) = get(addr, "/v1/fleet/stream?seed=9&quick=true");
    assert_eq!(decode_chunked(&again), payload);

    server.stop();
}

/// Regression test for the empty / zero-thickness stack panic: a bad
/// geometry must come back as a 400 with the validation message, not
/// kill a worker thread — and the daemon must keep serving afterwards.
#[test]
fn transport_rejects_bad_geometry_with_400_and_survives() {
    let server = start(2);
    let addr = server.addr();
    for (body, needle) in [
        (r#"{"layers":[]}"#, "at least one layer"),
        (
            r#"{"layers":[{"material":"water","thickness_cm":0.0}]}"#,
            "must be positive",
        ),
        (
            r#"{"layers":[{"material":"water","thickness_cm":-2.5}]}"#,
            "must be positive",
        ),
        (
            r#"{"layers":[{"material":"unobtainium","thickness_cm":1.0}]}"#,
            "unknown material",
        ),
        (
            r#"{"layers":[{"material":"water","thickness_cm":1.0}],"energy_ev":0}"#,
            "energy_ev",
        ),
        (
            r#"{"layers":[{"material":"water","thickness_cm":1.0}],"source":"laser"}"#,
            "source",
        ),
        (
            r#"{"layers":[{"material":"water","thickness_cm":1.0}],"histories":999999999}"#,
            "histories",
        ),
    ] {
        let (status, _, response) = post(addr, "/v1/transport", body);
        assert_eq!(status, 400, "{body} -> {response}");
        assert!(response.contains(needle), "{body} -> {response}");
    }
    // The workers survived every rejected request: a good request
    // still computes, and the result is deterministic and cacheable.
    let good = r#"{"layers":[{"material":"water","thickness_cm":5.08}],"histories":4096,"seed":7}"#;
    let (status, _, first) = post(addr, "/v1/transport", good);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"absorbed_fraction\""), "{first}");
    let (status, _, second) = post(addr, "/v1/transport", good);
    assert_eq!(status, 200);
    assert_eq!(
        first, second,
        "transport responses are cached/deterministic"
    );
    let vr = r#"{"layers":[{"material":"water","thickness_cm":5.08}],"histories":4096,"seed":7,"source":"diffuse","variance_reduction":true}"#;
    let (status, _, weighted) = post(addr, "/v1/transport", vr);
    assert_eq!(status, 200, "{weighted}");
    assert!(
        weighted.contains("\"transmitted_thermal_rel_error\""),
        "{weighted}"
    );
    server.stop();
}

#[test]
fn malformed_json_gets_400_on_every_post_endpoint() {
    let server = start(2);
    let addr = server.addr();
    for path in POST_ENDPOINTS {
        for bad in ["{not json", "", "[1,2", "{\"device\":}", "\u{1}"] {
            let (status, _, body) = post(addr, path, bad);
            assert_eq!(status, 400, "{path} with body {bad:?} returned {body}");
            assert!(body.contains("\"error\""), "{path}: {body}");
        }
    }
    server.stop();
}

/// The documented ingest batch cap is a hard edge: exactly 10 000
/// samples are accepted, 10 001 are rejected as a 400 — with the monitor
/// left untouched by the rejected batch.
#[test]
fn timeline_ingest_batch_boundary_is_exact() {
    let server = start(2);
    let addr = server.addr();

    let batch = |n: usize| format!("{{\"samples\":[{}]}}", vec!["{\"count\":500}"; n].join(","));
    let (status, _, body) = post(addr, "/v1/timeline/ingest", &batch(10_001));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("10000"), "{body}");
    let (status, _, body) = get(addr, "/v1/timeline");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"samples\":0"),
        "rejected batch must not touch the monitor: {body}"
    );

    let (status, _, body) = post(addr, "/v1/timeline/ingest", &batch(10_000));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ingested\":10000"), "{body}");
    server.stop();
}

/// Huge counts, up to 2^53 (the largest integer `count` the JSON layer
/// accepts), are ingested and answered, and the server keeps answering
/// ingests and health checks on fresh connections afterwards. Their
/// Garwood bounds once panicked the shard thread and poisoned the
/// timeline monitor for every later request.
#[test]
fn timeline_ingest_survives_huge_counts() {
    let server = start(2);
    let addr = server.addr();
    for count in [100_000_000_000_000u64, 1 << 53] {
        let (status, _, body) = post(
            addr,
            "/v1/timeline/ingest",
            &format!("{{\"count\":{count}}}"),
        );
        assert_eq!(status, 200, "count {count}: {body}");
        assert!(body.contains("\"ingested\":1"), "{body}");
    }
    for _ in 0..4 {
        let (status, _, body) = post(addr, "/v1/timeline/ingest", "{\"count\":500}");
        assert_eq!(status, 200, "{body}");
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
    }
    server.stop();
}

/// `GET /v1/scenarios` lists the built-ins; `POST /v1/scenario/run`
/// serves byte-identical reports (second hit from the LRU cache) and
/// 404s an unknown name without dying.
#[test]
fn scenario_endpoints_list_run_and_cache() {
    let server = start(2);
    let addr = server.addr();

    let (status, _, body) = get(addr, "/v1/scenarios");
    assert_eq!(status, 200, "{body}");
    for name in [
        "normal",
        "rainstorm-at-leadville",
        "water-pan",
        "loss-of-moderation",
        "detector-channel-drift",
    ] {
        assert!(body.contains(name), "{body}");
    }
    let (status, _, body) = post(addr, "/v1/scenarios", "{}");
    assert_eq!(status, 405, "{body}");

    let (status, _, body) = post(addr, "/v1/scenario/run", "{\"name\":\"nope\"}");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("built-ins"), "{body}");

    let req = "{\"name\":\"normal\",\"seed\":7}";
    let (status, _, first) = post(addr, "/v1/scenario/run", req);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"conformant\":true"), "{first}");
    assert!(first.contains("\"seed\":7"), "{first}");
    let (status, _, second) = post(addr, "/v1/scenario/run", req);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "cached report must be byte-identical");
    let metrics = await_metric(addr, "tn_cache_hits_total", 1);
    assert!(
        metrics.contains("tn_requests_total{endpoint=\"/v1/scenario/run\",status=\"200\"} 2"),
        "{metrics}"
    );
    server.stop();
}

#[test]
fn underdeclared_content_length_gets_400_not_a_hang() {
    // The client promises 50 bytes, sends 5 and half-closes. The server
    // must answer 400 immediately instead of dropping the connection.
    let server = start(2);
    let addr = server.addr();
    for path in POST_ENDPOINTS {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\
                     Connection: close\r\n\r\nshort"
                )
                .as_bytes(),
            )
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 400"), "{path}: {response:?}");
        assert!(response.contains("mid-body"), "{path}: {response}");
    }
    server.stop();
}

#[test]
fn overlong_body_gets_400_on_every_post_endpoint() {
    // More body bytes than Content-Length declares on a `close`
    // request: a protocol violation, not something to silently ignore.
    let server = start(2);
    let addr = server.addr();
    for path in POST_ENDPOINTS {
        let (status, _, body) = raw(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\
                 Connection: close\r\n\r\n{{\"device\":\"NVIDIA K20\"}}"
            ),
        );
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("longer than declared"), "{path}: {body}");
    }
    server.stop();
}

#[test]
fn keep_alive_reuses_a_connection_and_counts_it() {
    let server = start(2);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    for i in 0..4 {
        conn.get("/healthz", i == 3);
        let (status, head, body) = conn.read_response();
        assert_eq!(status, 200, "request {i}: {body}");
        let expected = if i == 3 {
            "Connection: close"
        } else {
            "Connection: keep-alive"
        };
        assert!(head.contains(expected), "request {i}: {head}");
    }
    conn.assert_eof();

    // 4 requests on one connection → 3 reuses, one histogram sample.
    let metrics = await_metric(addr, "tn_conn_reuse_total", 3);
    assert!(
        metric(&metrics, "tn_requests_per_conn_count") >= 1,
        "{metrics}"
    );

    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start(2);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    // All three requests in one write; the last one asks for close.
    conn.send(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         GET /v1/devices HTTP/1.1\r\nHost: t\r\n\r\n\
         GET /v1/nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let (s1, _, b1) = conn.read_response();
    let (s2, _, b2) = conn.read_response();
    let (s3, _, _) = conn.read_response();
    assert_eq!(s1, 200);
    assert!(b1.contains("\"status\":\"ok\""), "{b1}");
    assert_eq!(s2, 200);
    assert!(b2.contains("\"count\":8"), "{b2}");
    assert_eq!(s3, 404);
    conn.assert_eof();

    server.stop();
}

#[test]
fn chunked_stream_works_on_a_reused_connection() {
    let server = start(2);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    conn.get("/v1/fleet/stream?quick=true", false);
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let payload = decode_chunked(&body);
    assert_eq!(payload.lines().count(), 1 + 24, "{payload}");

    // The connection is still usable after the chunked body.
    conn.get("/healthz", false);
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");

    // And a second stream over the same connection frames identically.
    conn.get("/v1/fleet/stream?quick=true", true);
    let (status, _, again) = conn.read_response();
    assert_eq!(status, 200);
    assert_eq!(decode_chunked(&again), payload, "reused-connection stream");
    conn.assert_eof();

    server.stop();
}

#[test]
fn fleet_entries_mutate_then_assess() {
    let server = start(2);
    let addr = server.addr();

    // Baseline: demo fleet, generation 0.
    let (status, _, before) = post(addr, "/v1/fleet", "{}");
    assert_eq!(status, 200, "{before}");
    assert!(before.contains("\"count\":24"), "{before}");
    assert!(before.contains("\"generation\":0"), "{before}");
    assert!(!before.contains("zz-new"), "{before}");

    // Upsert a new entry; the registry generation bumps.
    let entry = r#"{"id":"zz-new","device":"NVIDIA K20","altitude_m":1609,"avf":0.5}"#;
    let (status, _, body) = post(addr, "/v1/fleet/entries", entry);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"op\":\"upsert\""), "{body}");
    assert!(body.contains("\"id\":\"zz-new\""), "{body}");
    assert!(body.contains("\"generation\":1"), "{body}");
    assert!(body.contains("\"count\":25"), "{body}");

    // The bulk assessment sees the mutation immediately: the old cached
    // response was keyed by generation 0 and cannot be served.
    let (status, _, after) = post(addr, "/v1/fleet", "{}");
    assert_eq!(status, 200, "{after}");
    assert!(after.contains("\"count\":25"), "{after}");
    assert!(after.contains("\"generation\":1"), "{after}");
    assert!(after.contains("zz-new"), "{after}");

    // Validation: id is mandatory, devices must exist.
    let (status, _, body) = post(addr, "/v1/fleet/entries", r#"{"device":"NVIDIA K20"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("`id`"), "{body}");
    let (status, _, body) = post(
        addr,
        "/v1/fleet/entries",
        r#"{"id":"zz-bad","device":"ENIAC"}"#,
    );
    assert_eq!(status, 404, "{body}");

    // Delete restores the original count; a second delete is a 404.
    let (status, _, body) = delete(addr, "/v1/fleet/entries/zz-new");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"op\":\"delete\""), "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    assert!(body.contains("\"count\":24"), "{body}");
    let (status, _, _) = delete(addr, "/v1/fleet/entries/zz-new");
    assert_eq!(status, 404);
    let (status, _, _) = delete(addr, "/v1/fleet/entries/");
    assert_eq!(status, 400);
    let (status, _, _) = get(addr, "/v1/fleet/entries");
    assert_eq!(status, 405);

    let (_, _, after_delete) = post(addr, "/v1/fleet", "{}");
    assert!(after_delete.contains("\"count\":24"), "{after_delete}");
    assert!(after_delete.contains("\"generation\":2"), "{after_delete}");
    assert!(!after_delete.contains("zz-new"), "{after_delete}");

    server.stop();
}

/// A 1,000-entry registry makes each fleet body about 0.5 MB. A miss,
/// nine hits and a small response go pipelined on one connection and
/// must come back whole and in order. Loopback buffers a few MB for a
/// peer that is not reading (about 3.8 MB on a 2-vCPU Linux VM), so ten
/// such bodies outgrow it and the server's writes resume across
/// `WouldBlock` on a real socket.
#[test]
fn large_fleet_bodies_survive_pipelining_and_writes() {
    const HITS: usize = 9;
    let path = std::env::temp_dir().join(format!("tn-fleet-1000-{}.jsonl", std::process::id()));
    std::fs::write(&path, tn_fleet::FleetRegistry::demo(3, 1000).to_jsonl())
        .expect("write the fleet snapshot");
    let mut cfg = config(2);
    cfg.fleet_path = Some(path.to_string_lossy().into_owned());
    let server = start_config(&cfg);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    let fleet = "POST /v1/fleet HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}";
    conn.send(&format!(
        "{}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        fleet.repeat(1 + HITS)
    ));
    // Not reading for a moment lets the server fill the socket and block
    // mid-body. The checks below hold however the writes interleave.
    std::thread::sleep(Duration::from_millis(200));
    let (status, head, miss) = conn.read_response();
    assert_eq!(status, 200, "{head}");
    assert!(miss.len() > 400_000, "{} bytes", miss.len());
    assert!(miss.contains("\"count\":1000,"), "{}", &miss[..200]);
    let length = format!("Content-Length: {}", miss.len());
    assert!(head.lines().any(|l| l == length), "{head}");
    for i in 0..HITS {
        let (status, head, hit) = conn.read_response();
        assert_eq!(status, 200, "{head}");
        assert!(head.lines().any(|l| l == length), "{head}");
        assert!(hit == miss, "hit {i} differs from the miss");
    }
    let (status, _, health) = conn.read_response();
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(conn.buf.is_empty(), "stale tail bytes after /healthz");
    let metrics = get(addr, "/metrics").2;
    assert_eq!(metric(&metrics, "tn_cache_misses_total"), 1);
    assert_eq!(metric(&metrics, "tn_cache_hits_total"), HITS as u64);

    // A registry write drops the generation-0 body from the cache.
    // Its key: `registry|`, the generation, `fleet|`, then the seed and
    // `quick`, eight bytes each.
    let generation_0: Vec<u8> = [
        &b"registry|"[..],
        &0u64.to_le_bytes(),
        b"fleet|",
        &2020u64.to_le_bytes(),
        &1u64.to_le_bytes(),
    ]
    .concat();
    assert!(server.state().cache.contains(&generation_0));
    conn.post(
        "/v1/fleet/entries",
        r#"{"id":"zz-new","device":"NVIDIA K20"}"#,
        false,
    );
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(!server.state().cache.contains(&generation_0));
    conn.post("/v1/fleet", "{}", true);
    let (status, _, after) = conn.read_response();
    assert_eq!(status, 200);
    assert!(after.contains("\"count\":1001,"), "{}", &after[..200]);
    assert!(after.contains("\"generation\":1,"), "{}", &after[..200]);
    conn.assert_eof();
    server.stop();

    // A fresh daemon on the same snapshot answers with the same bytes.
    let fresh = start_config(&cfg);
    let (status, _, again) = post(fresh.addr(), "/v1/fleet", "{}");
    fresh.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(status, 200);
    assert!(again == miss, "a fresh daemon renders different bytes");
}

#[test]
fn max_requests_per_conn_caps_reuse() {
    let mut cfg = config(2);
    cfg.max_requests_per_conn = 2;
    let server = start_config(&cfg);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    conn.get("/healthz", false);
    conn.get("/healthz", false);
    let (s1, h1, _) = conn.read_response();
    let (s2, h2, _) = conn.read_response();
    assert_eq!((s1, s2), (200, 200));
    assert!(h1.contains("Connection: keep-alive"), "{h1}");
    // The server announces the close on the capped request and hangs up.
    assert!(h2.contains("Connection: close"), "{h2}");
    conn.assert_eof();

    server.stop();
}

#[test]
fn idle_connections_close_cleanly() {
    let mut cfg = config(2);
    cfg.idle_timeout = Duration::from_millis(150);
    let server = start_config(&cfg);
    let addr = server.addr();

    // A connection that never sends a request is closed quietly — EOF,
    // not a 400 response.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read to EOF");
    assert!(
        out.is_empty(),
        "idle close must not write anything, got: {:?}",
        String::from_utf8_lossy(&out)
    );

    // A connection that stalls mid-request, with its socket held open,
    // gets an explicit 400 that says where it stalled.
    for (partial, why) in [
        (
            &b"GET /healthz HTTP/1.1\r\nHost: t\r\n"[..],
            "timed out waiting for headers",
        ),
        (
            b"POST /v1/fit HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nshort",
            "timed out mid-body",
        ),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        stream.write_all(partial).expect("write partial");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
        assert!(response.contains(why), "{response}");
    }

    server.stop();
}

#[test]
fn surface_cache_round_trips_across_restarts() {
    let path = std::env::temp_dir().join(format!("tn-surface-cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cfg = config(2);
    cfg.surface_cache = Some(path.to_string_lossy().into_owned());

    // First daemon builds the surface and persists it.
    let server = start_config(&cfg);
    let (status, _, first) = post(server.addr(), "/v1/fleet", r#"{"seed":77}"#);
    assert_eq!(status, 200, "{first}");
    server.stop();
    let text = std::fs::read_to_string(&path).expect("surface cache file written");
    assert!(text.contains("\"digest\""), "{text}");
    assert!(text.contains("\"quick\":true"), "{text}");

    // Second daemon loads it from disk; the response is byte-identical,
    // which (together with the digest check in the loader) proves the
    // persisted tables match a fresh build.
    let server = start_config(&cfg);
    let (status, _, second) = post(server.addr(), "/v1/fleet", r#"{"seed":77}"#);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "persisted surface answers identically");
    server.stop();

    let _ = std::fs::remove_file(&path);
}

/// The tn-watch acceptance path: ingest a step series, then read the
/// bulk and streaming views over ONE reused keep-alive connection and
/// check they serve the same series, with the alert in `/metrics`.
#[test]
fn timeline_bulk_and_stream_agree_over_keep_alive() {
    let server = start(2);
    let addr = server.addr();

    let mut conn = Conn::open(addr);
    conn.get("/v1/timeline", false);
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"samples\":0"), "{body}");

    // 60 baseline hours at 500 counts, then 40 at 700: the monitor must
    // flag exactly one upward step near the boundary.
    let samples: Vec<String> = (0..100)
        .map(|i| format!("{{\"count\":{}}}", if i < 60 { 500 } else { 700 }))
        .collect();
    let batch = format!("{{\"samples\":[{}]}}", samples.join(","));
    conn.post("/v1/timeline/ingest", &batch, false);
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ingested\":100"), "{body}");
    assert!(body.contains("\"kind\":\"step_up\""), "{body}");

    conn.get("/v1/timeline?limit=100", false);
    let (status, _, bulk) = conn.read_response();
    assert_eq!(status, 200, "{bulk}");
    assert!(bulk.contains("\"samples\":100"), "{bulk}");
    assert!(bulk.contains("\"kind\":\"step_up\""), "{bulk}");

    conn.get("/v1/timeline/stream?limit=100", true);
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(
        head.contains("Content-Type: application/x-ndjson"),
        "{head}"
    );
    conn.assert_eof();

    let payload = decode_chunked(&body);
    let lines: Vec<&str> = payload.lines().collect();
    assert_eq!(lines.len(), 1 + 100 + 1, "summary + points + one alert");
    // Every streamed point renders byte-identically inside the bulk
    // body: the two views come from the same snapshot renderer.
    let points: Vec<&&str> = lines.iter().filter(|l| l.contains("\"index\":")).collect();
    assert_eq!(points.len(), 100, "{payload}");
    for line in points {
        assert!(
            bulk.contains(*line),
            "stream line missing from bulk: {line}"
        );
    }

    let (_, _, metrics) = get(addr, "/metrics");
    assert_eq!(
        metric(&metrics, "tn_watch_alerts_total{kind=\"step_up\"}"),
        1,
        "{metrics}"
    );
    let gauge = |name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("gauge {name} not found in:\n{metrics}"))
    };
    assert!(gauge("tn_watch_rate") > 0.0, "{metrics}");
    assert!(gauge("tn_watch_baseline") > 0.0, "{metrics}");

    server.stop();
}

/// The surface-cache counters must tell a build-and-persist daemon from
/// a restored-from-disk one, with the entries gauge set on both paths.
#[test]
fn surface_cache_metrics_track_loads_and_saves() {
    let path =
        std::env::temp_dir().join(format!("tn-surface-metrics-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cfg = config(2);
    cfg.surface_cache = Some(path.to_string_lossy().into_owned());

    // First daemon builds the surface and persists it: one save, the
    // cache file now holds one entry, nothing was loaded.
    let server = start_config(&cfg);
    let (status, _, body) = post(server.addr(), "/v1/fleet", r#"{"seed":78}"#);
    assert_eq!(status, 200, "{body}");
    let metrics = await_metric(server.addr(), "tn_surface_cache_saves_total", 1);
    assert_eq!(metric(&metrics, "tn_surface_cache_loads_total"), 0);
    assert_eq!(metric(&metrics, "tn_surface_cache_entries"), 1);
    server.stop();

    // Second daemon restores from disk: one load, no new save.
    let server = start_config(&cfg);
    let (status, _, _) = post(server.addr(), "/v1/fleet", r#"{"seed":78}"#);
    assert_eq!(status, 200);
    let metrics = await_metric(server.addr(), "tn_surface_cache_loads_total", 1);
    assert_eq!(metric(&metrics, "tn_surface_cache_saves_total"), 0);
    assert_eq!(metric(&metrics, "tn_surface_cache_entries"), 1);
    server.stop();

    let _ = std::fs::remove_file(&path);
}

/// Teardown causes land in distinct counters: a connection reaped for
/// idling and one closed at the request cap must not share a series.
#[test]
fn idle_and_cap_closes_are_counted() {
    let mut cfg = config(2);
    cfg.idle_timeout = Duration::from_millis(150);
    cfg.max_requests_per_conn = 2;
    let server = start_config(&cfg);
    let addr = server.addr();

    // Cap close: two keep-alive requests exhaust the per-connection cap.
    let mut conn = Conn::open(addr);
    conn.get("/healthz", false);
    conn.get("/healthz", false);
    let (s1, _, _) = conn.read_response();
    let (s2, h2, _) = conn.read_response();
    assert_eq!((s1, s2), (200, 200));
    assert!(h2.contains("Connection: close"), "{h2}");
    conn.assert_eof();
    await_metric(addr, "tn_conn_request_cap_closed_total", 1);

    // Idle close: one request, then the connection sits past the idle
    // timeout and the server reaps it without writing anything.
    let mut conn = Conn::open(addr);
    conn.get("/healthz", false);
    let (status, _, _) = conn.read_response();
    assert_eq!(status, 200);
    conn.assert_eof();
    let metrics = await_metric(addr, "tn_conn_idle_closed_total", 1);
    // The capped connection was a deliberate close, not an idle reap,
    // and the `Connection: close` probes above are client hang-ups —
    // neither may leak into the idle counter.
    assert_eq!(metric(&metrics, "tn_conn_idle_closed_total"), 1);
    assert_eq!(metric(&metrics, "tn_conn_request_cap_closed_total"), 1);

    server.stop();
}

/// With one worker and a zero-length queue, a Monte-Carlo request that
/// arrives while the worker is busy is shed with 503 + Retry-After, and
/// the connection is closed. Requests the shard answers inline keep
/// working meanwhile, and the long run still gets its answer.
#[test]
fn saturated_pool_sheds_monte_carlo_requests_with_503() {
    let mut cfg = config(1);
    cfg.max_queue = 0;
    let server = start_config(&cfg);
    let addr = server.addr();

    // Occupy the only worker: 1 MeV neutrons slowing down in 30 cm of
    // water take about 2 s at the per-request history cap in a debug
    // build.
    let long =
        r#"{"layers":[{"material":"water","thickness_cm":30}],"energy_ev":1e6,"histories":200000}"#;
    let hog = std::thread::spawn(move || post(addr, "/v1/transport", long));
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.state().metrics.workers_busy() < 1 {
        assert!(Instant::now() < deadline, "worker never became busy");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (status, head, body) = post(addr, "/v1/fit", r#"{"device":"NVIDIA K20"}"#);
    assert_eq!(status, 503, "{head}\n{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("\"error\""), "{body}");

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(
        server.state().metrics.workers_busy() >= 1,
        "/healthz was answered while the long run was still going"
    );

    let (status, _, body) = hog.join().expect("long request thread");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metric(&metrics, "tn_server_overload_total") >= 1,
        "{metrics}"
    );

    server.stop();
}

/// An IPv6 listener takes the same path as an IPv4 one: shard 0 accepts
/// and deals the connections round-robin, so two of these four live on
/// shard 1. Every keep-alive connection must be served to its last
/// request, and `stop()` must return.
#[test]
fn ipv6_listener_deals_keep_alive_connections_across_shards() {
    let mut cfg = config(2);
    cfg.addr = "[::1]:0".to_string();
    let server = start_config(&cfg);
    let addr = server.addr();
    assert!(addr.is_ipv6(), "{addr}");

    let mut conns: Vec<Conn> = (0..4).map(|_| Conn::open(addr)).collect();
    for round in 0..3 {
        let last = round == 2;
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.get("/healthz", last);
            let (status, head, body) = conn.read_response();
            assert_eq!(status, 200, "connection {i}, request {round}: {body}");
            let expected = if last {
                "Connection: close"
            } else {
                "Connection: keep-alive"
            };
            assert!(
                head.contains(expected),
                "connection {i}, request {round}: {head}"
            );
        }
    }
    for conn in &mut conns {
        conn.assert_eof();
    }

    // Three requests on each of four connections: eight reuses.
    await_metric(addr, "tn_conn_reuse_total", 8);
    server.stop();
}

/// A port is served by one listener: a second server on an address a
/// running server holds fails to bind, where sharing the port would split
/// its connections between two registries.
#[test]
fn a_served_port_cannot_be_bound_again() {
    let server = start(2);
    let mut cfg = config(1);
    cfg.addr = server.addr().to_string();
    let Err(err) = Server::bind(&cfg) else {
        panic!("a served port must not bind again");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    let (status, _, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    server.stop();
}

/// One long JSON string just under the 1 MiB body cap must earn its 400
/// in milliseconds (a string scan quadratic in its length takes about
/// 20 s here), and the event-loop shard that decodes it must keep
/// answering other connections meanwhile. With a single shard, an inline
/// parse is what every other connection would wait behind.
#[test]
fn mebibyte_json_string_gets_a_prompt_400_without_stalling_the_shard() {
    let server = start(1);
    let addr = server.addr();
    let body = format!(
        "{{\"devices\":\"{}\"}}",
        "x".repeat(tn_server::http::MAX_BODY_BYTES - 64)
    );
    let request = format!(
        "POST /v1/fleet HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut big = TcpStream::connect(addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    let started = Instant::now();
    big.write_all(request.as_bytes())
        .expect("write the large request");

    // A probe on a second connection while the large body is decoded.
    let probe_started = Instant::now();
    let (status, _, health) = get(addr, "/healthz");
    let probe = probe_started.elapsed();
    assert_eq!(status, 200, "{health}");

    let mut response = String::new();
    big.read_to_string(&mut response).expect("read response");
    let elapsed = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("field `devices` must be an array"),
        "{response}"
    );
    assert!(elapsed < Duration::from_secs(2), "the 400 took {elapsed:?}");
    assert!(
        probe < Duration::from_secs(2),
        "/healthz waited {probe:?} behind the large body"
    );
    server.stop();
}

/// One registry write of the concurrent-render test.
enum RegistryWrite {
    Upsert(tn_fleet::FleetEntry),
    Delete(String),
}

impl RegistryWrite {
    fn apply(&self, registry: &mut tn_fleet::FleetRegistry) {
        match self {
            RegistryWrite::Upsert(entry) => registry.upsert(entry.clone()).expect("valid entry"),
            RegistryWrite::Delete(id) => assert!(registry.remove(id), "{id} present"),
        }
    }
}

/// The `"generation"` a registry body names.
fn generation_of(body: &str) -> usize {
    let at = body.find("\"generation\":").expect("registry body") + "\"generation\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("generation is an integer")
}

/// The bulk body (or the stream's JSONL) a fresh state renders for
/// `registry`, with no earlier render to reuse. `surface_cache` lets
/// every fresh state after the first load the surface the first built.
fn render_from_scratch(
    registry: tn_fleet::FleetRegistry,
    stream: bool,
    surface_cache: &std::path::Path,
) -> String {
    let mut state = tn_server::AppState::with_registry(2020, 64, 1, registry);
    state.set_surface_cache(&surface_cache.to_string_lossy());
    let wire = if stream {
        "GET /v1/fleet/stream HTTP/1.1\r\nHost: t\r\n\r\n"
    } else {
        "POST /v1/fleet HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}"
    };
    let mut parser = tn_server::http::RequestParser::new();
    parser.push(wire.as_bytes());
    let request = parser.try_next().expect("parses").expect("complete");
    let response = tn_server::router::handle(&state, &request);
    assert_eq!(response.status, 200, "{}", response.body_text());
    response.body_text()
}

/// Registry renders copy each unchanged result from the previous render
/// on their surface. On a two-shard server, one connection writes a
/// seeded sequence of every kind of registry write while two others poll
/// the bulk body and the stream; every body read must equal the
/// from-scratch render of the generation it names.
#[test]
fn concurrent_registry_reads_equal_from_scratch_renders() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const WRITES: usize = 60;
    let pid = std::process::id();
    let fleet_path = std::env::temp_dir().join(format!("tn-fleet-race-{pid}.jsonl"));
    let surface_cache = std::env::temp_dir().join(format!("tn-fleet-race-surface-{pid}.jsonl"));
    let snapshot = tn_fleet::FleetRegistry::demo(5, 300).to_jsonl();
    std::fs::write(&fleet_path, &snapshot).expect("write the fleet snapshot");
    let mut cfg = config(2);
    cfg.fleet_path = Some(fleet_path.to_string_lossy().into_owned());
    let server = start_config(&cfg);
    let addr = server.addr();
    // The surface is built before the race starts.
    assert_eq!(post(addr, "/v1/fleet", "{}").0, 200);

    let done = Arc::new(AtomicBool::new(false));
    // Reads each poller has completed.
    let completed = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let pollers: Vec<_> = [false, true]
        .into_iter()
        .map(|stream| {
            let done = Arc::clone(&done);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                let mut bodies = Vec::new();
                while !done.load(Ordering::Acquire) {
                    if stream {
                        conn.get("/v1/fleet/stream", false);
                    } else {
                        conn.post("/v1/fleet", "{}", false);
                    }
                    let (status, _, body) = conn.read_response();
                    assert_eq!(status, 200, "{body}");
                    bodies.push((stream, if stream { decode_chunked(&body) } else { body }));
                    completed[usize::from(stream)].fetch_add(1, Ordering::Release);
                }
                bodies
            })
        })
        .collect();

    // A new id, a replaced entry, a byte-identical re-upsert, a delete,
    // and a delete then re-insert of the same id.
    let mut rng = tn_rng::Rng::seed_from_u64(18);
    let mut mirror = tn_fleet::FleetRegistry::from_jsonl(&snapshot).expect("snapshot loads");
    let mut writes = Vec::new();
    let mut conn = Conn::open(addr);
    while writes.len() < WRITES {
        let pick = mirror.entries()[rng.gen_range(0..mirror.len())].clone();
        let batch = match rng.gen_range(0..5usize) {
            0 => {
                let mut entry = pick;
                entry.id = format!("new-{:03}", writes.len());
                entry.avf = 0.25 + f64::from(rng.gen_range(0..75u32)) / 100.0;
                vec![RegistryWrite::Upsert(entry)]
            }
            1 => {
                let mut entry = pick;
                entry.altitude_m = f64::from(rng.gen_range(0..3_500u32));
                entry.b10_areal_cm2 = [0.0, 1.0e18, 1.0e20][rng.gen_range(0..3usize)];
                vec![RegistryWrite::Upsert(entry)]
            }
            2 => vec![RegistryWrite::Upsert(pick)],
            3 => vec![RegistryWrite::Delete(pick.id)],
            _ => vec![
                RegistryWrite::Delete(pick.id.clone()),
                RegistryWrite::Upsert(pick),
            ],
        };
        for write in batch {
            match &write {
                RegistryWrite::Upsert(entry) => conn.post(
                    "/v1/fleet/entries",
                    &entry.to_json().to_canonical_string(),
                    false,
                ),
                RegistryWrite::Delete(id) => conn.send(&format!(
                    "DELETE /v1/fleet/entries/{id} HTTP/1.1\r\nHost: t\r\n\r\n"
                )),
            }
            let (status, _, body) = conn.read_response();
            assert_eq!(status, 200, "{body}");
            write.apply(&mut mirror);
            writes.push(write);
            // Each poller completes two more reads, so at least one of
            // them started after this write, before the next write goes
            // out while their following reads are in flight.
            let target = [0, 1].map(|i| completed[i].load(Ordering::Acquire) + 2);
            while completed
                .iter()
                .zip(target)
                .any(|(n, target)| n.load(Ordering::Acquire) < target)
            {
                std::thread::yield_now();
            }
        }
    }
    done.store(true, Ordering::Release);
    let reads: Vec<(bool, String)> = pollers
        .into_iter()
        .flat_map(|poller| poller.join().expect("poller"))
        .collect();
    let metrics = get(addr, "/metrics").2;
    server.stop();

    let mut oracle = std::collections::HashMap::new();
    for (stream, body) in &reads {
        let generation = generation_of(body);
        let want = oracle.entry((generation, *stream)).or_insert_with(|| {
            let mut registry =
                tn_fleet::FleetRegistry::from_jsonl(&snapshot).expect("snapshot loads");
            for write in &writes[..generation] {
                write.apply(&mut registry);
            }
            render_from_scratch(registry, *stream, &surface_cache)
        });
        assert!(
            body == want,
            "generation {generation} (stream: {stream}) differs from a render from scratch"
        );
    }
    let _ = std::fs::remove_file(&fleet_path);
    let _ = std::fs::remove_file(&surface_cache);
    // Both endpoints were read at every generation the writes made, and
    // results were reused.
    for generation in 1..=writes.len() {
        for stream in [false, true] {
            assert!(
                oracle.contains_key(&(generation, stream)),
                "{generation} {stream}"
            );
        }
    }
    assert!(metric(&metrics, "tn_fleet_results_total{path=\"reused\"}") > 0);
}
