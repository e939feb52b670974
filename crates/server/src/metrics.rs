//! Lock-free service instrumentation and its Prometheus text rendering.
//!
//! Counters are plain `AtomicU64`s, so the hot path never takes a lock
//! to count. Latencies are accumulated both as microsecond sums plus
//! counts (the Prometheus `_sum`/`_count` summary pair) and as
//! log-bucketed [`tn_obs`] histograms per endpoint, alongside response
//! sizes. `/metrics` merges three sources: these counters, the
//! per-instance [`tn_obs::Registry`] (endpoint histograms, overload
//! counter) and the process-wide `tn_obs::global()` registry (transport
//! counters and shard histograms, span durations). Keeping the endpoint
//! series in a per-instance registry means parallel test servers never
//! pollute each other's scrapes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tn_obs::{Counter, CounterUnit, Gauge, Histogram, Registry, Unit};

/// The route labels metrics are partitioned by. `Other` buckets
/// unrecognised paths (404s) so scans don't blow up the label space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/devices`
    Devices,
    /// `POST /v1/fit`
    Fit,
    /// `POST /v1/checkpoint`
    Checkpoint,
    /// `POST /v1/cross-sections`
    CrossSections,
    /// `POST /v1/transport`
    Transport,
    /// `POST /v1/fleet`
    Fleet,
    /// `POST`/`DELETE /v1/fleet/entries[/{id}]`
    FleetEntries,
    /// `GET /v1/fleet/stream`
    FleetStream,
    /// `GET /v1/timeline`
    Timeline,
    /// `GET /v1/timeline/stream`
    TimelineStream,
    /// `POST /v1/timeline/ingest`
    TimelineIngest,
    /// `GET /v1/scenarios`
    Scenarios,
    /// `POST /v1/scenario/run`
    ScenarioRun,
    /// `GET /metrics`
    Metrics,
    /// Anything else.
    Other,
}

impl Endpoint {
    /// All endpoints, in rendering order.
    pub const ALL: [Endpoint; 16] = [
        Endpoint::Healthz,
        Endpoint::Devices,
        Endpoint::Fit,
        Endpoint::Checkpoint,
        Endpoint::CrossSections,
        Endpoint::Transport,
        Endpoint::Fleet,
        Endpoint::FleetEntries,
        Endpoint::FleetStream,
        Endpoint::Timeline,
        Endpoint::TimelineStream,
        Endpoint::TimelineIngest,
        Endpoint::Scenarios,
        Endpoint::ScenarioRun,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "/healthz",
            Endpoint::Devices => "/v1/devices",
            Endpoint::Fit => "/v1/fit",
            Endpoint::Checkpoint => "/v1/checkpoint",
            Endpoint::CrossSections => "/v1/cross-sections",
            Endpoint::Transport => "/v1/transport",
            Endpoint::Fleet => "/v1/fleet",
            Endpoint::FleetEntries => "/v1/fleet/entries",
            Endpoint::FleetStream => "/v1/fleet/stream",
            Endpoint::Timeline => "/v1/timeline",
            Endpoint::TimelineStream => "/v1/timeline/stream",
            Endpoint::TimelineIngest => "/v1/timeline/ingest",
            Endpoint::Scenarios => "/v1/scenarios",
            Endpoint::ScenarioRun => "/v1/scenario/run",
            Endpoint::Metrics => "/metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|e| *e == self).expect("listed")
    }
}

/// Status codes tracked per endpoint (anything else folds into 500).
const STATUSES: [u16; 6] = [200, 400, 404, 405, 413, 500];

fn status_index(status: u16) -> usize {
    STATUSES.iter().position(|s| *s == status).unwrap_or(5)
}

#[derive(Debug, Default)]
struct EndpointCounters {
    by_status: [AtomicU64; 6],
    latency_us_sum: AtomicU64,
    latency_count: AtomicU64,
}

/// The service-wide metrics registry.
#[derive(Debug)]
pub struct Metrics {
    endpoints: [EndpointCounters; 16],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_coalesced: AtomicU64,
    study_cache_hits: AtomicU64,
    study_cache_misses: AtomicU64,
    in_flight: AtomicU64,
    workers_busy: AtomicU64,
    workers_total: AtomicU64,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    /// Per-instance tn-obs registry holding the endpoint histograms and
    /// the overload counter; rendered as part of [`Metrics::render`].
    registry: Registry,
    overload: Arc<Counter>,
    conn_reuse: Arc<Counter>,
    conn_idle_closed: Arc<Counter>,
    conn_cap_closed: Arc<Counter>,
    surface_cache_loads: Arc<Counter>,
    surface_cache_saves: Arc<Counter>,
    surface_cache_entries: Arc<Gauge>,
    watch_rate: Arc<Gauge>,
    watch_baseline: Arc<Gauge>,
    watch_alerts: [Arc<Counter>; 3],
    requests_per_conn: Arc<Histogram>,
    latency_hist: Vec<Arc<Histogram>>,
    size_hist: Vec<Arc<Histogram>>,
}

impl Metrics {
    /// Creates an empty registry; `workers_total` is fixed at pool size.
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        let overload = registry.counter(
            "tn_server_overload_total",
            &[],
            "Requests shed with 503 because pool and queue were full.",
            CounterUnit::Count,
        );
        let conn_reuse = registry.counter(
            "tn_conn_reuse_total",
            &[],
            "Requests served on an already-used connection (keep-alive reuse).",
            CounterUnit::Count,
        );
        let conn_idle_closed = registry.counter(
            "tn_conn_idle_closed_total",
            &[],
            "Keep-alive connections closed by the idle-timeout sweep.",
            CounterUnit::Count,
        );
        let conn_cap_closed = registry.counter(
            "tn_conn_request_cap_closed_total",
            &[],
            "Keep-alive connections closed for reaching --max-requests-per-conn.",
            CounterUnit::Count,
        );
        let surface_cache_loads = registry.counter(
            "tn_surface_cache_loads_total",
            &[],
            "Risk surfaces restored from the --surface-cache file.",
            CounterUnit::Count,
        );
        let surface_cache_saves = registry.counter(
            "tn_surface_cache_saves_total",
            &[],
            "Risk surfaces persisted to the --surface-cache file.",
            CounterUnit::Count,
        );
        let surface_cache_entries = registry.gauge(
            "tn_surface_cache_entries",
            &[],
            "Surface entries currently persisted in the --surface-cache file.",
        );
        let watch_rate = registry.gauge(
            "tn_watch_rate",
            &[],
            "Sliding-window count rate of the timeline monitor (counts per second).",
        );
        let watch_baseline = registry.gauge(
            "tn_watch_baseline",
            &[],
            "EWMA baseline rate of the timeline monitor (counts per second).",
        );
        // Pre-create every alert-kind series so the label space is fixed.
        let watch_alerts = ["step_up", "step_down", "drift"].map(|kind| {
            registry.counter(
                "tn_watch_alerts_total",
                &[("kind", kind)],
                "Change-point alerts raised by the timeline monitor, by kind.",
                CounterUnit::Count,
            )
        });
        let requests_per_conn = registry.histogram(
            "tn_requests_per_conn",
            &[],
            "Requests served per connection over its lifetime.",
            Unit::Count,
        );
        // Pre-create every endpoint series so the label space is fixed at
        // |Endpoint::ALL| forever, whatever paths clients probe.
        let latency_hist = Endpoint::ALL
            .iter()
            .map(|e| {
                registry.histogram(
                    "tn_request_seconds",
                    &[("endpoint", e.label())],
                    "Request latency, by endpoint.",
                    Unit::Nanos,
                )
            })
            .collect();
        let size_hist = Endpoint::ALL
            .iter()
            .map(|e| {
                registry.histogram(
                    "tn_response_bytes",
                    &[("endpoint", e.label())],
                    "Response body size, by endpoint.",
                    Unit::Bytes,
                )
            })
            .collect();
        let m = Self {
            endpoints: Default::default(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_coalesced: AtomicU64::new(0),
            study_cache_hits: AtomicU64::new(0),
            study_cache_misses: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            workers_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            registry,
            overload,
            conn_reuse,
            conn_idle_closed,
            conn_cap_closed,
            surface_cache_loads,
            surface_cache_saves,
            surface_cache_entries,
            watch_rate,
            watch_baseline,
            watch_alerts,
            requests_per_conn,
            latency_hist,
            size_hist,
        };
        m.workers_total.store(workers as u64, Ordering::Relaxed);
        m
    }

    /// Records one completed request.
    pub fn record_request(
        &self,
        endpoint: Endpoint,
        status: u16,
        latency_us: u64,
        response_bytes: u64,
    ) {
        let c = &self.endpoints[endpoint.index()];
        c.by_status[status_index(status)].fetch_add(1, Ordering::Relaxed);
        c.latency_us_sum.fetch_add(latency_us, Ordering::Relaxed);
        c.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_hist[endpoint.index()].observe(latency_us.saturating_mul(1_000));
        self.size_hist[endpoint.index()].observe(response_bytes);
    }

    /// Counts a request shed with 503 (pool and queue saturated).
    pub fn overload(&self) {
        self.overload.inc();
    }

    /// Worker threads currently running a Monte-Carlo handler.
    pub fn workers_busy(&self) -> u64 {
        self.workers_busy.load(Ordering::Relaxed)
    }

    /// Worker threads in the pool.
    pub fn workers_total(&self) -> u64 {
        self.workers_total.load(Ordering::Relaxed)
    }

    /// Counts a response-cache hit.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a response-cache miss (the request that actually computes).
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that coalesced onto an identical in-flight one.
    pub fn cache_coalesced(&self) {
        self.cache_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a pipeline-study memo hit.
    pub fn study_hit(&self) {
        self.study_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a pipeline-study memo miss (a full pipeline run).
    pub fn study_miss(&self) {
        self.study_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an accepted connection.
    pub fn connection(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a connection as being served (active gauge up). Shed
    /// connections are counted by [`Metrics::connection`] but never
    /// become active.
    pub fn conn_open(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a connection closed after serving `served` responses:
    /// active gauge down, lifetime request count observed, and every
    /// request beyond the first counted as keep-alive reuse.
    pub fn conn_close(&self, served: u64) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
        self.requests_per_conn.observe(served);
        let reused = served.saturating_sub(1);
        if reused > 0 {
            self.conn_reuse.add(reused);
        }
    }

    /// Counts a keep-alive connection torn down by the idle sweep.
    pub fn conn_idle_closed(&self) {
        self.conn_idle_closed.inc();
    }

    /// Counts a connection closed for reaching the per-connection
    /// request cap.
    pub fn conn_cap_closed(&self) {
        self.conn_cap_closed.inc();
    }

    /// Counts a risk surface restored from the persistent cache file,
    /// which holds `entries` surfaces.
    pub fn surface_cache_load(&self, entries: u64) {
        self.surface_cache_loads.inc();
        self.surface_cache_entries.set(entries as f64);
    }

    /// Counts a risk surface persisted to the cache file, which now
    /// holds `entries` surfaces.
    pub fn surface_cache_save(&self, entries: u64) {
        self.surface_cache_saves.inc();
        self.surface_cache_entries.set(entries as f64);
    }

    /// Publishes the timeline monitor's current window rate and EWMA
    /// baseline (counts per second).
    pub fn watch_observe(&self, rate: f64, baseline: f64) {
        self.watch_rate.set(rate);
        self.watch_baseline.set(baseline);
    }

    /// Counts a timeline alert by kind label (`step_up`/`step_down`/
    /// `drift`; anything else is ignored — the label space is fixed).
    pub fn watch_alert(&self, kind: &str) {
        let idx = match kind {
            "step_up" => 0,
            "step_down" => 1,
            "drift" => 2,
            _ => return,
        };
        self.watch_alerts[idx].inc();
    }

    /// Marks a request as entered (in-flight gauge up).
    pub fn enter(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as left (in-flight gauge down).
    pub fn leave(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks a worker as busy.
    pub fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a worker as idle again.
    pub fn worker_idle(&self) {
        self.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# HELP tn_requests_total Requests served, by endpoint and status.\n");
        out.push_str("# TYPE tn_requests_total counter\n");
        for e in Endpoint::ALL {
            let c = &self.endpoints[e.index()];
            for (i, status) in STATUSES.iter().enumerate() {
                let n = c.by_status[i].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "tn_requests_total{{endpoint=\"{}\",status=\"{status}\"}} {n}\n",
                        e.label()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP tn_request_latency_seconds Cumulative request latency, by endpoint.\n",
        );
        out.push_str("# TYPE tn_request_latency_seconds summary\n");
        for e in Endpoint::ALL {
            let c = &self.endpoints[e.index()];
            let count = c.latency_count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let sum_us = c.latency_us_sum.load(Ordering::Relaxed);
            out.push_str(&format!(
                "tn_request_latency_seconds_sum{{endpoint=\"{}\"}} {:e}\n",
                e.label(),
                sum_us as f64 / 1e6
            ));
            out.push_str(&format!(
                "tn_request_latency_seconds_count{{endpoint=\"{}\"}} {count}\n",
                e.label()
            ));
        }
        let gauge = |out: &mut String, name: &str, help: &str, kind: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {v}\n"));
        };
        gauge(
            &mut out,
            "tn_cache_hits_total",
            "Responses served from the result cache.",
            "counter",
            self.cache_hits.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_cache_misses_total",
            "Requests that computed a fresh result.",
            "counter",
            self.cache_misses.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_cache_coalesced_total",
            "Requests that joined an identical in-flight computation.",
            "counter",
            self.cache_coalesced.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_study_cache_hits_total",
            "Pipeline studies served from the study memo.",
            "counter",
            self.study_cache_hits.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_study_cache_misses_total",
            "Full pipeline runs executed.",
            "counter",
            self.study_cache_misses.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_connections_total",
            "TCP connections accepted.",
            "counter",
            self.connections_total.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_connections_active",
            "TCP connections currently open and being served.",
            "gauge",
            self.connections_active.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_inflight_requests",
            "Requests currently being handled.",
            "gauge",
            self.in_flight.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_workers_busy",
            "Worker threads currently serving a connection.",
            "gauge",
            self.workers_busy.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "tn_workers_total",
            "Worker threads in the pool.",
            "gauge",
            self.workers_total.load(Ordering::Relaxed),
        );
        // Force the process-wide transport series into existence so a
        // scrape sees them even before the first transport run.
        let _ = tn_core::transport::stats::histories_total();
        let _ = tn_core::transport::stats::nanos_total();
        let _ = tn_core::transport::stats::shard_histogram();
        // Per-instance series (endpoint histograms, overload counter),
        // then the process-wide registry (transport counters and shard
        // histogram, span durations).
        out.push_str(&self.registry.render_prometheus());
        out.push_str(&tn_obs::global().render_prometheus());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_recorded_series() {
        let m = Metrics::new(4);
        m.record_request(Endpoint::Fit, 200, 1500, 512);
        m.record_request(Endpoint::Fit, 400, 20, 64);
        m.cache_hit();
        m.cache_miss();
        m.worker_busy();
        let text = m.render();
        assert!(text.contains("tn_requests_total{endpoint=\"/v1/fit\",status=\"200\"} 1"));
        assert!(text.contains("tn_requests_total{endpoint=\"/v1/fit\",status=\"400\"} 1"));
        assert!(text.contains("tn_request_latency_seconds_count{endpoint=\"/v1/fit\"} 2"));
        assert!(text.contains("tn_cache_hits_total 1"));
        assert!(text.contains("tn_cache_misses_total 1"));
        assert!(text.contains("tn_workers_busy 1"));
        assert!(text.contains("tn_workers_total 4"));
        assert!(text.contains("tn_request_seconds_count{endpoint=\"/v1/fit\"} 2"));
        assert!(text.contains("tn_response_bytes_count{endpoint=\"/v1/fit\"} 2"));
        assert!(text.contains("tn_server_overload_total 0"));
    }

    #[test]
    fn overload_counter_counts() {
        let m = Metrics::new(1);
        m.overload();
        m.overload();
        assert!(m.render().contains("tn_server_overload_total 2"));
    }

    #[test]
    fn endpoint_label_space_is_fixed() {
        // However many distinct unknown paths are probed, they all land
        // in the one pre-created `other` series per metric.
        let m = Metrics::new(1);
        for latency in [10, 20, 30, 40] {
            m.record_request(Endpoint::Other, 404, latency, 32);
        }
        let text = m.render();
        assert_eq!(
            text.matches("tn_request_seconds_count{endpoint=").count(),
            Endpoint::ALL.len()
        );
        assert!(text.contains("tn_request_seconds_count{endpoint=\"other\"} 4"));
    }

    #[test]
    fn render_exposes_transport_counters() {
        // The transport counters are process-wide; drive them directly so
        // the test does not depend on other tests having run transport.
        tn_core::transport::stats::record(123, 1_000_000);
        let text = Metrics::new(1).render();
        assert!(text.contains("# TYPE tn_transport_histories_total counter"));
        assert!(text.contains("tn_transport_histories_total "));
        assert!(text.contains("# TYPE tn_transport_seconds_total counter"));
        assert!(text.contains("tn_transport_seconds_total "));
    }

    #[test]
    fn unknown_status_folds_into_500() {
        let m = Metrics::new(1);
        m.record_request(Endpoint::Other, 999, 5, 0);
        assert!(m
            .render()
            .contains("tn_requests_total{endpoint=\"other\",status=\"500\"} 1"));
    }

    #[test]
    fn connection_lifecycle_series() {
        let m = Metrics::new(1);
        m.connection();
        m.conn_open();
        m.connection();
        m.conn_open();
        m.conn_close(5); // 4 reused requests
        let text = m.render();
        assert!(text.contains("tn_connections_total 2"), "{text}");
        assert!(text.contains("tn_connections_active 1"), "{text}");
        assert!(text.contains("tn_conn_reuse_total 4"), "{text}");
        assert!(text.contains("tn_requests_per_conn_count 1"), "{text}");
        assert!(text.contains("tn_requests_per_conn_sum 5"), "{text}");
        m.conn_close(1); // a one-shot connection adds no reuse
        assert!(m.render().contains("tn_conn_reuse_total 4"));
    }

    #[test]
    fn teardown_cause_counters_render() {
        let m = Metrics::new(1);
        m.conn_idle_closed();
        m.conn_cap_closed();
        m.conn_cap_closed();
        let text = m.render();
        assert!(text.contains("tn_conn_idle_closed_total 1"), "{text}");
        assert!(text.contains("tn_conn_request_cap_closed_total 2"), "{text}");
    }

    #[test]
    fn surface_cache_series_render() {
        let m = Metrics::new(1);
        m.surface_cache_load(3);
        m.surface_cache_save(3);
        let text = m.render();
        assert!(text.contains("tn_surface_cache_loads_total 1"), "{text}");
        assert!(text.contains("tn_surface_cache_saves_total 1"), "{text}");
        assert!(text.contains("# TYPE tn_surface_cache_entries gauge"), "{text}");
        assert!(text.contains("tn_surface_cache_entries 3"), "{text}");
    }

    #[test]
    fn watch_series_have_a_fixed_label_space() {
        let m = Metrics::new(1);
        m.watch_observe(1.25, 1.0);
        m.watch_alert("step_up");
        m.watch_alert("bogus"); // ignored, never grows the label space
        let text = m.render();
        assert!(text.contains("tn_watch_rate 1.25e0"), "{text}");
        assert!(text.contains("tn_watch_baseline 1"), "{text}");
        assert!(text.contains("tn_watch_alerts_total{kind=\"step_up\"} 1"), "{text}");
        assert!(text.contains("tn_watch_alerts_total{kind=\"step_down\"} 0"), "{text}");
        assert!(text.contains("tn_watch_alerts_total{kind=\"drift\"} 0"), "{text}");
        assert_eq!(text.matches("tn_watch_alerts_total{kind=").count(), 3, "{text}");
    }

    #[test]
    fn gauges_go_down() {
        let m = Metrics::new(2);
        m.enter();
        m.enter();
        m.leave();
        assert!(m.render().contains("tn_inflight_requests 1"));
    }
}
