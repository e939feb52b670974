//! # tn-obs — observability for the thermal-neutron stack
//!
//! A hermetic (zero-dependency, `std`-only) telemetry layer shared by the
//! CLI, the transport kernel, the pipeline and `tn-server`:
//!
//! * **Leveled structured events** ([`emit`], [`Level`]): ERROR..TRACE,
//!   filtered by `TN_LOG` / `--log-level`, rendered as `key=value` text on
//!   stderr and/or as JSON Lines to a trace file (`--trace-out`). Every
//!   JSONL record carries `ts`, `level`, `span` and `msg`.
//! * **Hierarchical spans** ([`span()`]): RAII guards forming a thread-local
//!   `parent/child` path. Closing a span records its duration into the
//!   global [`Registry`] (`tn_span_seconds{span=...}`) and, at DEBUG and
//!   below, emits a `span_end` event.
//! * **A monotonic [`Clock`] trait**: [`RealClock`] in production, a
//!   deterministic [`VirtualClock`] for tests. Telemetry only *reads* the
//!   clock — spans and events never feed back into simulation state, so
//!   instrumented runs stay byte-identical (`tests/determinism.rs` pins
//!   this at TRACE vs OFF).
//! * **Log-bucketed [`Histogram`]s** with power-of-two buckets, snapshot
//!   deltas, quantile estimation, and Prometheus text rendering through
//!   the shared [`Registry`] (`Registry::render_prometheus`), plus
//!   free-moving [`Gauge`]s.
//! * **Timeline telemetry** ([`timeline`]): fixed-capacity ring-buffer
//!   count-rate timelines, sliding-window estimators with injectable
//!   confidence intervals, EWMA baselines, and online change-point
//!   detection (two-sided Poisson CUSUM + interval-overlap drift test)
//!   raising structured [`Alert`]s through the event sinks.
//!
//! ## Example
//!
//! ```
//! use tn_obs as obs;
//!
//! obs::set_level(Some(obs::Level::Info));
//! let _root = obs::span("example");
//! {
//!     let _child = obs::span("example.step");
//!     obs::info("step done", &[("items", 42u64.into())]);
//! } // closing the span records tn_span_seconds{span="example/example.step"}
//! let text = obs::global().render_prometheus();
//! assert!(text.contains("tn_span_seconds_bucket"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod clock;
pub mod hist;
pub mod level;
pub mod log;
pub mod registry;
pub mod span;
pub mod timeline;

pub use clock::{now_nanos, set_clock, Clock, RealClock, VirtualClock};
pub use hist::{Histogram, Snapshot, Unit};
pub use level::Level;
pub use log::{
    debug, emit, enabled, error, info, level, set_level, set_level_str, set_stderr,
    set_trace_file, trace, warn, FieldValue,
};
pub use registry::{global, Counter, CounterUnit, Gauge, HistogramSnapshot, Registry};
pub use span::{current_span_path, span, SpanGuard};
pub use timeline::{
    normal_interval, Alert, AlertKind, IntervalFn, Monitor, MonitorConfig, RatePoint,
};
