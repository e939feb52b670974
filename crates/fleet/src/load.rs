//! Open-loop load harness for the fleet risk service.
//!
//! The generator schedules request *arrivals* from a deterministic
//! Poisson process and measures each request's latency against its
//! **scheduled** arrival time, not against the moment the client got
//! around to sending it. That distinction is what makes the numbers
//! honest under saturation: a closed-loop client that waits for each
//! response before issuing the next silently stretches its own
//! inter-arrival gaps and hides queueing delay (coordinated omission).
//! Here, if the server falls behind, the backlog shows up where it
//! belongs — in the tail of the latency histogram.
//!
//! Determinism: worker `w` draws its inter-arrival gaps from substream
//! `Rng::seed_from_u64(seed).fork(w)` with mean `workers / rate_hz`
//! seconds, so the *schedule* is reproducible for a fixed config even
//! though measured latencies naturally vary run to run. Latencies land
//! in the shared [`tn_obs::global`] histogram
//! (`tn_fleet_load_latency_seconds`), and the report is computed from a
//! before/after snapshot delta so concurrent instrumentation elsewhere
//! in the process does not pollute it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tn_core::json::Json;
use tn_obs::{Histogram, Unit};
use tn_rng::Rng;

/// Connect/read/write timeout for one request. Generous: a cold
/// full-resolution surface build on first touch can take seconds.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// Most requests a keep-alive worker pipelines in one write when it
/// wakes up behind schedule. Bounds client memory and keeps the
/// latency attribution honest (every request in the batch is already
/// due when the batch is sent).
const MAX_PIPELINE_BATCH: usize = 64;

/// Configuration for one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Target aggregate arrival rate, requests/second.
    pub rate_hz: f64,
    /// Measured run duration, seconds (after warmup).
    pub duration_s: f64,
    /// Concurrent open-loop workers.
    pub workers: usize,
    /// Fleet entries per request body.
    pub devices_per_request: usize,
    /// Master seed for the arrival process and body selection.
    pub seed: u64,
    /// Ask the server for quick (low-statistics) risk surfaces.
    pub quick_surfaces: bool,
    /// Reuse one connection per worker (HTTP/1.1 keep-alive) instead of
    /// connecting per request; due requests are pipelined.
    pub keep_alive: bool,
    /// Label of the server's io model, recorded in the report.
    pub io_model: String,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            rate_hz: 200.0,
            duration_s: 2.0,
            workers: 4,
            devices_per_request: 8,
            seed: 7,
            quick_surfaces: true,
            keep_alive: false,
            io_model: "epoll".to_string(),
        }
    }
}

/// Aggregate result of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests that completed with HTTP 200.
    pub requests: u64,
    /// Requests that failed (I/O error or non-200 status).
    pub errors: u64,
    /// Completed requests divided by measured wall time.
    pub achieved_rps: f64,
    /// Target arrival rate the schedule was drawn for.
    pub offered_rps: f64,
    /// Measured wall time, seconds.
    pub wall_s: f64,
    /// Median latency, nanoseconds (scheduled-arrival to response).
    pub p50_ns: f64,
    /// 90th-percentile latency, nanoseconds.
    pub p90_ns: f64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: f64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Whether the workers reused connections (HTTP/1.1 keep-alive).
    pub keep_alive: bool,
    /// Label of the server's io model (`threads` | `epoll`).
    pub io_model: String,
}

impl LoadReport {
    /// Renders the report as the canonical `BENCH_fleet.json` document.
    pub fn to_json(&self, smoke: bool) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str("fleet_load".to_string())),
            ("smoke".to_string(), Json::Bool(smoke)),
            ("io_model".to_string(), Json::Str(self.io_model.clone())),
            ("keep_alive".to_string(), Json::Bool(self.keep_alive)),
            ("requests".to_string(), Json::Num(self.requests as f64)),
            ("errors".to_string(), Json::Num(self.errors as f64)),
            (
                "offered_rps".to_string(),
                Json::Num(self.offered_rps),
            ),
            (
                "achieved_rps".to_string(),
                Json::Num(self.achieved_rps),
            ),
            ("wall_s".to_string(), Json::Num(self.wall_s)),
            ("latency_p50_ns".to_string(), Json::Num(self.p50_ns)),
            ("latency_p90_ns".to_string(), Json::Num(self.p90_ns)),
            ("latency_p99_ns".to_string(), Json::Num(self.p99_ns)),
            ("latency_mean_ns".to_string(), Json::Num(self.mean_ns)),
        ])
    }
}

/// The process-wide load-latency histogram
/// (`tn_fleet_load_latency_seconds` in the global registry).
pub fn latency_histogram() -> Arc<Histogram> {
    tn_obs::global().histogram(
        "tn_fleet_load_latency_seconds",
        &[],
        "Open-loop fleet-load latency, scheduled arrival to response.",
        Unit::Nanos,
    )
}

/// Builds the request body worker `w` sends on iteration `n`: a small
/// deterministic rotation of device/site mixes, so repeated bodies
/// exercise the server's response cache the way a real fleet poller
/// would.
fn request_body(config: &LoadConfig, w: usize, n: u64) -> String {
    const DEVICES: &[&str] = &["NVIDIA K20", "NVIDIA TitanX", "Intel Xeon Phi"];
    const ALTITUDES: &[f64] = &[10.0, 1_609.0, 3_094.0];
    const SHIELDS: &[f64] = &[0.0, 1e18, 1e19, 1e20];
    // Four body variants per worker; repetition within a variant makes
    // the server's cache useful, rotation keeps it honest.
    let variant = (w as u64 * 4 + n % 4) as usize;
    let mut devices = Vec::with_capacity(config.devices_per_request);
    for k in 0..config.devices_per_request {
        let pick = variant + k;
        devices.push(Json::Object(vec![
            (
                "device".to_string(),
                Json::Str(DEVICES[pick % DEVICES.len()].to_string()),
            ),
            (
                "altitude_m".to_string(),
                Json::Num(ALTITUDES[pick % ALTITUDES.len()]),
            ),
            (
                "b10_areal_cm2".to_string(),
                Json::Num(SHIELDS[pick % SHIELDS.len()]),
            ),
            (
                "avf".to_string(),
                Json::Num(0.25 + 0.25 * ((pick % 3) as f64)),
            ),
        ]));
    }
    Json::Object(vec![
        ("devices".to_string(), Json::Array(devices)),
        ("quick".to_string(), Json::Bool(config.quick_surfaces)),
    ])
    .to_canonical_string()
}

/// Sends one `POST /v1/fleet` request over a fresh connection, asking
/// the server to close after the response (`Connection: close` — the
/// close-per-request baseline mode) and returns the HTTP status code.
fn send_request(addr: &str, body: &str) -> Result<u16, String> {
    let target = addr
        .to_string()
        .parse::<std::net::SocketAddr>()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&target, REQUEST_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    stream.set_nodelay(true).ok();
    let request = format!(
        "POST /v1/fleet HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response: {:?}", text.get(..60)))?;
    Ok(status)
}

/// A persistent keep-alive connection to the fleet service. Requests
/// omit the `Connection` header (HTTP/1.1 defaults to keep-alive), so
/// one TCP connection serves many requests; batches of already-due
/// requests are pipelined in a single write. Responses are framed by
/// `Content-Length`, with leftover bytes kept for the next response.
struct Client {
    target: std::net::SocketAddr,
    host: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: &str) -> Result<Self, String> {
        let target = addr
            .parse::<std::net::SocketAddr>()
            .map_err(|e| format!("bad address {addr:?}: {e}"))?;
        Ok(Client {
            target,
            host: addr.to_string(),
            stream: None,
            buf: Vec::new(),
        })
    }

    fn stream(&mut self) -> Result<&mut TcpStream, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.target, REQUEST_TIMEOUT)
                .map_err(|e| format!("connect {}: {e}", self.host))?;
            stream
                .set_read_timeout(Some(REQUEST_TIMEOUT))
                .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
                .map_err(|e| format!("socket timeout: {e}"))?;
            stream.set_nodelay(true).ok();
            self.buf.clear();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends `bodies` pipelined on one connection and reads one framed
    /// response per request. Per-request results keep the batch honest:
    /// if the connection dies mid-batch, the unanswered tail counts as
    /// errors, not as silently-retried successes.
    fn exchange(&mut self, bodies: &[String]) -> Vec<Result<u16, String>> {
        let mut frames = String::new();
        for body in bodies {
            frames.push_str(&format!(
                "POST /v1/fleet HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                self.host,
                body.len()
            ));
        }
        let mut results = Vec::with_capacity(bodies.len());
        let write = self
            .stream()
            .and_then(|s| s.write_all(frames.as_bytes()).map_err(|e| format!("write: {e}")));
        if let Err(e) = write {
            self.stream = None;
            results.resize(bodies.len(), Err(e));
            return results;
        }
        while results.len() < bodies.len() {
            match self.read_response() {
                Ok(status) => {
                    results.push(Ok(status));
                    // The server announced a close (request cap, error):
                    // anything still pipelined behind it is lost.
                    if self.stream.is_none() && results.len() < bodies.len() {
                        results.resize(
                            bodies.len(),
                            Err("server closed the connection mid-batch".to_string()),
                        );
                    }
                }
                Err(e) => {
                    self.stream = None;
                    results.resize(bodies.len(), Err(e));
                }
            }
        }
        results
    }

    /// Reads one `Content-Length`-framed response; trailing bytes stay
    /// buffered for the next pipelined response.
    fn read_response(&mut self) -> Result<u16, String> {
        let head_end = self.read_until(|buf| {
            buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
        })?;
        let head = String::from_utf8_lossy(&self.buf[..head_end - 4]).into_owned();
        self.buf.drain(..head_end);
        let status = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("malformed response head: {:?}", head.get(..60)))?;
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("response without Content-Length: {:?}", head.get(..120)))?;
        self.read_until(move |buf| (buf.len() >= length).then_some(length))?;
        self.buf.drain(..length);
        if head
            .lines()
            .any(|l| l.eq_ignore_ascii_case("connection: close"))
        {
            self.stream = None;
        }
        Ok(status)
    }

    fn read_until(&mut self, done: impl Fn(&[u8]) -> Option<usize>) -> Result<usize, String> {
        loop {
            if let Some(n) = done(&self.buf) {
                return Ok(n);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self
                .stream()?
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Runs the open-loop load: `workers` threads, each drawing exponential
/// inter-arrival gaps with mean `workers / rate_hz` from its forked
/// substream, measuring completion against the scheduled arrival.
/// Returns an error only if the warmup request fails — a server that
/// cannot answer once would make every measured number meaningless.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.rate_hz > 0.0, "rate must be positive");
    assert!(config.devices_per_request >= 1, "need at least one device");
    let _span = tn_obs::span("fleet.load_run");

    // Warmup: one request outside the measurement window, so the first
    // surface build and cache fill do not land in the histogram.
    send_request(&config.addr, &request_body(config, 0, 0))
        .map_err(|e| format!("warmup request failed: {e}"))
        .and_then(|status| {
            if status == 200 {
                Ok(())
            } else {
                Err(format!("warmup request returned HTTP {status}"))
            }
        })?;

    let histogram = latency_histogram();
    let before = histogram.snapshot();
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(config.duration_s);
    let mean_gap_s = config.workers as f64 / config.rate_hz;

    std::thread::scope(|scope| {
        for w in 0..config.workers {
            let histogram = Arc::clone(&histogram);
            let (ok, failed) = (&ok, &failed);
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(config.seed).fork(w as u64);
                let mut client = config
                    .keep_alive
                    .then(|| Client::new(&config.addr).expect("validated address"));
                let mut gap =
                    || Duration::from_secs_f64(rng.gen_exp() * mean_gap_s);
                let mut arrival = gap();
                let mut n = 0u64;
                while arrival < deadline {
                    // Open loop: sleep to the *scheduled* arrival; if we
                    // are already late, fire immediately and let the
                    // lateness count against the latency.
                    if let Some(wait) = arrival.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    // In keep-alive mode, every further arrival that is
                    // already due joins this batch and is pipelined in
                    // one write. Each request still measures from its
                    // own scheduled arrival, so batching cannot hide
                    // lateness (no coordinated omission).
                    let mut arrivals = vec![arrival];
                    let mut bodies = vec![request_body(config, w, n)];
                    n += 1;
                    arrival += gap();
                    while client.is_some()
                        && arrivals.len() < MAX_PIPELINE_BATCH
                        && arrival < deadline
                        && arrival <= start.elapsed()
                    {
                        arrivals.push(arrival);
                        bodies.push(request_body(config, w, n));
                        n += 1;
                        arrival += gap();
                    }
                    let results: Vec<Result<u16, String>> = match &mut client {
                        Some(client) => client.exchange(&bodies),
                        None => bodies
                            .iter()
                            .map(|body| send_request(&config.addr, body))
                            .collect(),
                    };
                    for (scheduled, result) in arrivals.iter().zip(results) {
                        match result {
                            Ok(200) => {
                                let latency = start.elapsed().saturating_sub(*scheduled);
                                histogram.observe(
                                    latency.as_nanos().min(u128::from(u64::MAX)) as u64,
                                );
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) | Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    let wall_s = start.elapsed().as_secs_f64();
    let delta = histogram.snapshot().delta(&before);
    let requests = ok.load(Ordering::Relaxed);
    Ok(LoadReport {
        requests,
        errors: failed.load(Ordering::Relaxed),
        keep_alive: config.keep_alive,
        io_model: config.io_model.clone(),
        achieved_rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        offered_rps: config.rate_hz,
        wall_s,
        p50_ns: delta.quantile(0.50),
        p90_ns: delta.quantile(0.90),
        p99_ns: delta.quantile(0.99),
        mean_ns: delta.mean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_deterministic_and_rotate() {
        let config = LoadConfig::default();
        assert_eq!(request_body(&config, 0, 0), request_body(&config, 0, 4));
        assert_ne!(request_body(&config, 0, 0), request_body(&config, 0, 1));
        assert_ne!(request_body(&config, 0, 0), request_body(&config, 1, 0));
        // Bodies are canonical JSON: parse → canonical is the identity.
        let body = request_body(&config, 2, 3);
        let doc = tn_core::json::parse(&body).expect("canonical body parses");
        assert_eq!(doc.to_canonical_string(), body);
    }

    #[test]
    fn report_json_carries_the_gated_keys() {
        let report = LoadReport {
            requests: 100,
            errors: 0,
            achieved_rps: 50.0,
            offered_rps: 50.0,
            wall_s: 2.0,
            p50_ns: 1e6,
            p90_ns: 2e6,
            p99_ns: 3e6,
            mean_ns: 1.2e6,
            keep_alive: true,
            io_model: "epoll".to_string(),
        };
        let doc = report.to_json(true);
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("fleet_load"));
        assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("io_model").and_then(Json::as_str), Some("epoll"));
        assert_eq!(doc.get("keep_alive").and_then(Json::as_bool), Some(true));
        for key in [
            "requests",
            "errors",
            "offered_rps",
            "achieved_rps",
            "wall_s",
            "latency_p50_ns",
            "latency_p90_ns",
            "latency_p99_ns",
            "latency_mean_ns",
        ] {
            assert!(
                doc.get(key).and_then(Json::as_f64).is_some(),
                "missing numeric key {key}"
            );
        }
    }

    #[test]
    fn send_request_rejects_unreachable_address() {
        // Port 1 on loopback is essentially never listening; the error
        // path must surface as Err, not a panic.
        let err = send_request("127.0.0.1:1", "{}").unwrap_err();
        assert!(err.contains("connect"), "unexpected error: {err}");
    }
}
