//! Process-wide transport throughput instrumentation, backed by the
//! shared [`tn_obs`] global registry.
//!
//! Every run through the shard scheduler — [`crate::Transport::run_beam`],
//! [`crate::Transport::run_diffuse`], their `_weighted` variants and
//! [`crate::beam_spectrum`] — records how many histories it ran and how
//! long the run took; every *shard* additionally records its duration
//! into a log-bucketed histogram. All of it lives in
//! `tn_obs::global()`, the single source of truth the server's
//! `/metrics` endpoint, the CLI `profile` report and the throughput
//! bench read (`tn_transport_histories_total`,
//! `tn_transport_seconds_total`, `tn_transport_shard_seconds`).

use std::sync::{Arc, OnceLock};
use tn_obs::{Counter, CounterUnit, Histogram, Unit};

fn histories_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        tn_obs::global().counter(
            "tn_transport_histories_total",
            &[],
            "Monte-Carlo neutron histories transported, process-wide.",
            CounterUnit::Count,
        )
    })
}

fn nanos_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        tn_obs::global().counter(
            "tn_transport_seconds_total",
            &[],
            "Wall-clock seconds spent in transport runs, process-wide.",
            CounterUnit::NanosAsSeconds,
        )
    })
}

/// The process-wide shard-duration histogram
/// (`tn_transport_shard_seconds`): one observation per completed
/// [`crate::SHARD_SIZE`]-history shard, whatever thread ran it.
pub fn shard_histogram() -> Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    Arc::clone(H.get_or_init(|| {
        tn_obs::global().histogram(
            "tn_transport_shard_seconds",
            &[],
            "Wall-clock duration of individual transport shards.",
            Unit::Nanos,
        )
    }))
}

/// Records one completed transport run.
pub fn record(histories: u64, elapsed_nanos: u64) {
    histories_counter().add(histories);
    nanos_counter().add(elapsed_nanos);
}

/// Total histories transported since process start.
pub fn histories_total() -> u64 {
    histories_counter().get()
}

/// Total nanoseconds spent inside transport runs since process start.
pub fn nanos_total() -> u64 {
    nanos_counter().get()
}

/// Total seconds spent inside transport runs since process start.
pub fn seconds_total() -> f64 {
    nanos_total() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let h0 = histories_total();
        let n0 = nanos_total();
        record(100, 2_000_000_000);
        assert!(histories_total() >= h0 + 100);
        assert!(nanos_total() >= n0 + 2_000_000_000);
        assert!(seconds_total() >= 2.0);
    }

    #[test]
    fn counters_render_through_the_global_registry() {
        record(1, 1);
        let text = tn_obs::global().render_prometheus();
        assert!(text.contains("# TYPE tn_transport_histories_total counter"), "{text}");
        assert!(text.contains("# TYPE tn_transport_seconds_total counter"), "{text}");
    }

    #[test]
    fn shard_histogram_is_shared() {
        // Other tests may observe shards concurrently, so the count grows
        // by at least this one observation.
        let before = shard_histogram().snapshot().count();
        shard_histogram().observe(1_000);
        assert!(shard_histogram().snapshot().count() > before);
        assert!(tn_obs::global()
            .render_prometheus()
            .contains("tn_transport_shard_seconds_count"));
    }
}
