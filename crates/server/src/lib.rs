//! # tn-server — risk-as-a-service for the thermal-neutron FIT engine
//!
//! A hermetic (zero-dependency, `std`-only) HTTP/1.1 JSON daemon that
//! puts the paper's pipeline behind an API a fleet operator can query:
//! per-site, per-device FIT rates with thermal share, checkpoint-interval
//! planning, and raw beam-campaign cross sections.
//!
//! | route | method | what it returns |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe |
//! | `/v1/devices` | GET | device registry with per-device workloads |
//! | `/v1/fit` | POST | SDC/DUE FIT + thermal share for device × environment |
//! | `/v1/checkpoint` | POST | Young/Daly checkpoint intervals for a fleet |
//! | `/v1/cross-sections` | POST | quick beam-campaign pipeline for one device |
//! | `/v1/transport` | POST | slab-stack Monte-Carlo transport tallies |
//! | `/v1/fleet` | POST | bulk FIT assessment from the precomputed risk surface |
//! | `/v1/fleet/entries` | POST/DELETE | mutate the fleet registry in place |
//! | `/v1/fleet/stream` | GET | whole fleet registry as chunked JSONL |
//! | `/v1/timeline` | GET | timeline monitor: windowed rate points and alerts |
//! | `/v1/timeline/stream` | GET | the same timeline as chunked JSONL |
//! | `/v1/timeline/ingest` | POST | feed count samples to the timeline monitor |
//! | `/v1/scenarios` | GET | the built-in scenario campaigns |
//! | `/v1/scenario/run` | POST | one built-in campaign's full report |
//! | `/metrics` | GET | Prometheus text: requests, latencies, cache, workers |
//!
//! ## Connections
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive per RFC 7230,
//! with an idle timeout and a per-connection request cap) and run on one
//! transport, the [`epoll`] event loop: N shards drive nonblocking
//! sockets through `epoll_wait` readiness. One listener serves them all:
//! shard 0 accepts and deals the connections round-robin, so a port the
//! server holds cannot be bound by a second server. A worker pool runs
//! only the handlers that may run Monte-Carlo transport, so a shard
//! never blocks. The server runs on Linux only; elsewhere
//! [`Server::bind`] returns [`std::io::ErrorKind::Unsupported`].
//!
//! ## Determinism and caching
//!
//! Every pipeline run is deterministic in (config, seed), so the same
//! request with the same seed always yields a **byte-identical** JSON
//! body. That turns caching from a heuristic into an identity: each POST
//! body is scanned once into its typed request, and responses live in a
//! sharded LRU memo keyed by the resolved request's exact bits: a byte
//! key with the defaults filled in, each string length-prefixed, a fleet
//! entry's device as its catalog index and each number as the eight
//! bytes of its `f64` bits (see `tn_core::cache_key`). The same memo
//! ([`cache::Memo`]) keeps pipeline studies and risk surfaces. Each key
//! is computed once: concurrent requests for it wait on that one
//! computation instead of stampeding the worker pool, and a computation
//! that panics frees its key for the next caller.
//!
//! ## Example
//!
//! ```no_run
//! use tn_server::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr().unwrap());
//! server.run(); // blocks; use `spawn()` for a background handle
//! ```

// The epoll shard loop needs raw `extern "C"` bindings (std offers no
// readiness API); everything outside `epoll::sys` stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
mod decode;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod router;

pub use handlers::AppState;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Event-loop shards, and also the worker threads that run the
    /// Monte-Carlo handlers.
    pub threads: usize,
    /// Default RNG seed for requests that do not carry one.
    pub seed: u64,
    /// Total response-cache capacity (entries).
    pub cache_capacity: usize,
    /// Worker threads for each Monte-Carlo transport run (applied as the
    /// process-wide transport default at bind time). Tallies are
    /// identical for any value; this only trades CPU for latency.
    pub transport_threads: usize,
    /// Maximum Monte-Carlo requests waiting for a worker. When every
    /// worker is busy *and* this many are already queued, the next such
    /// request is shed with `503` + `Retry-After` instead of piling up
    /// behind a saturated pool. Shedding is per request; requests the
    /// shards answer inline are never shed.
    pub max_queue: usize,
    /// Path to a fleet-registry JSONL snapshot. `None` seeds the
    /// deterministic demo fleet instead.
    pub fleet_path: Option<String>,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it (cleanly — no 400).
    pub idle_timeout: Duration,
    /// Maximum requests served per connection before the server answers
    /// with `Connection: close` (0 = unlimited). A rotation cap like
    /// this bounds per-connection state drift in long-lived fleets.
    pub max_requests_per_conn: usize,
    /// Path to a risk-surface cache file (JSONL). Surfaces built during
    /// serving are persisted here and reloaded on the next start,
    /// digest-verified against a fresh build's `grid_digest`.
    pub surface_cache: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 4,
            seed: 2020,
            cache_capacity: 256,
            transport_threads: 1,
            max_queue: 128,
            fleet_path: None,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 10_000,
            surface_cache: None,
        }
    }
}

/// Per-connection lifecycle limits the event loop enforces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnLimits {
    pub idle_timeout: Duration,
    pub max_requests_per_conn: usize,
}

impl ConnLimits {
    fn from_config(config: &ServerConfig) -> Self {
        Self {
            idle_timeout: config.idle_timeout.max(Duration::from_millis(1)),
            max_requests_per_conn: config.max_requests_per_conn,
        }
    }

    /// Whether the connection may serve another request after `served`
    /// responses have been written.
    pub fn allows_another(&self, served: u64) -> bool {
        self.max_requests_per_conn == 0 || served < self.max_requests_per_conn as u64
    }
}

/// A bound (but not yet serving) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    threads: usize,
    max_queue: usize,
    limits: ConnLimits,
}

impl Server {
    /// Binds the listener and builds the shared state. No thread is
    /// started yet: call [`Server::run`] or [`Server::spawn`].
    ///
    /// An address another socket already listens on fails with
    /// [`std::io::ErrorKind::AddrInUse`]. Off Linux this fails with
    /// [`std::io::ErrorKind::Unsupported`]: the server's only transport
    /// is the epoll event loop.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Self> {
        if cfg!(not(target_os = "linux")) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "tn-server runs on Linux only (epoll transport)",
            ));
        }
        let threads = config.threads.max(1);
        tn_core::transport::set_default_threads(config.transport_threads);
        let fleet = match &config.fleet_path {
            None => tn_fleet::FleetRegistry::demo(config.seed, 24),
            Some(path) => {
                let text = std::fs::read_to_string(path)?;
                tn_fleet::FleetRegistry::from_jsonl(&text).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("fleet snapshot {path}: {e}"),
                    )
                })?
            }
        };
        let listener = TcpListener::bind(&config.addr)?;
        #[cfg(target_os = "linux")]
        epoll::raise_backlog(&listener)?;
        let mut state = AppState::with_registry(config.seed, config.cache_capacity, threads, fleet);
        if let Some(path) = &config.surface_cache {
            state.set_surface_cache(path);
        }
        tn_obs::info(
            "server_bound",
            &[
                ("addr", format!("{}", listener.local_addr()?).into()),
                ("threads", threads.into()),
                ("max_queue", config.max_queue.into()),
                ("fleet_entries", state.fleet_len().into()),
            ],
        );
        Ok(Self {
            listener,
            state: Arc::new(state),
            threads,
            max_queue: config.max_queue,
            limits: ConnLimits::from_config(config),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the process exits.
    pub fn run(self) {
        self.spawn().join();
    }

    /// Starts the shard and worker threads and returns a handle that can
    /// wait for or shut down the server.
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("listener has a local address");
        ServerHandle {
            addr,
            state: Arc::clone(&self.state),
            #[cfg(target_os = "linux")]
            transport: epoll::spawn(epoll::EpollConfig {
                listener: self.listener,
                state: self.state,
                shards: self.threads,
                workers: self.threads,
                max_queue: self.max_queue,
                limits: self.limits,
            }),
        }
    }
}

/// A running server: join it or shut it down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    #[cfg(target_os = "linux")]
    transport: epoll::EpollHandle,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (metrics, caches) — useful for
    /// white-box assertions in tests.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Blocks until the server stops (it only stops via
    /// [`ServerHandle::stop`] from another thread, so this normally
    /// blocks forever).
    pub fn join(self) {
        #[cfg(target_os = "linux")]
        self.transport.join();
    }

    /// Stops accepting, drains the workers and joins every thread.
    pub fn stop(self) {
        #[cfg(target_os = "linux")]
        self.transport.stop();
    }
}
