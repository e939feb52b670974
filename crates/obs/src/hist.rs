//! Log-bucketed histograms: lock-free to record, cheap to render.
//!
//! Values are `u64`s (latencies in nanoseconds, sizes in bytes) dropped
//! into power-of-two buckets — bucket `i` covers `[2^i, 2^(i+1))`, with
//! 0 and 1 sharing bucket 0 — so recording is a `leading_zeros` plus one
//! relaxed `fetch_add`. Sixty-four buckets span the full `u64` range:
//! sub-microsecond spans and multi-hour campaigns land in one type.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (the full `u64` range).
pub const BUCKETS: usize = 64;

/// What the recorded `u64`s mean — controls Prometheus rendering only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds, rendered as seconds (`le` boundaries divided by 1e9).
    Nanos,
    /// Bytes, rendered as-is.
    Bytes,
    /// Dimensionless counts, rendered as-is.
    Count,
}

fn bucket_index(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

/// A named, labelled, lock-free log₂ histogram.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    unit: Unit,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: &str, help: &str, labels: &[(&str, &str)], unit: Unit) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            unit,
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The help line.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// The label set.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The rendering unit.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Renders this histogram's series (no `# HELP`/`# TYPE` lines —
    /// the [`crate::Registry`] emits those once per metric name).
    ///
    /// Cumulative `_bucket` lines are emitted at every non-empty bucket
    /// boundary plus `+Inf` (a sparse but valid `le` set), then `_sum`
    /// and `_count`.
    pub fn render_into(&self, out: &mut String) {
        let snap = self.snapshot();
        let scale = match self.unit {
            Unit::Nanos => 1e-9,
            Unit::Bytes | Unit::Count => 1.0,
        };
        let mut cumulative = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate() {
            // The last bucket's boundary is +Inf, emitted once below.
            if n == 0 || i == BUCKETS - 1 {
                continue;
            }
            cumulative += n;
            let le = (1u128 << (i + 1)) as f64 * scale;
            out.push_str(&self.series_line("_bucket", Some(le), cumulative as f64));
        }
        out.push_str(&self.series_line("_bucket", Some(f64::INFINITY), snap.count as f64));
        out.push_str(&self.series_line("_sum", None, snap.sum as f64 * scale));
        out.push_str(&self.series_line("_count", None, snap.count as f64));
    }

    fn series_line(&self, suffix: &str, le: Option<f64>, value: f64) -> String {
        let mut labels = String::new();
        for (k, v) in &self.labels {
            if !labels.is_empty() {
                labels.push(',');
            }
            labels.push_str(&format!("{k}=\"{v}\""));
        }
        if let Some(le) = le {
            if !labels.is_empty() {
                labels.push(',');
            }
            if le.is_infinite() {
                labels.push_str("le=\"+Inf\"");
            } else {
                labels.push_str(&format!("le=\"{le:e}\""));
            }
        }
        if labels.is_empty() {
            format!("{}{suffix} {value}\n", self.name)
        } else {
            format!("{}{suffix}{{{labels}}} {value}\n", self.name)
        }
    }
}

/// An immutable copy of a histogram's counters, supporting quantile
/// estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Snapshot {
    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the containing power-of-two bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += n;
            if cumulative as f64 >= rank {
                let lower = if i == 0 { 0.0 } else { (1u128 << i) as f64 };
                let upper = (1u128 << (i + 1)) as f64;
                let fraction = (rank - before) / n as f64;
                return lower + fraction * (upper - lower);
            }
        }
        (1u128 << BUCKETS) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn observe_accumulates_count_and_sum() {
        let h = Histogram::new("t", "test", &[], Unit::Nanos);
        h.observe(10);
        h.observe(1000);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 1010);
        assert_eq!(s.mean(), 505.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new("t", "test", &[], Unit::Count);
        for v in [4u64, 5, 6, 7] {
            h.observe(v); // all in bucket [4, 8)
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        assert!((4.0..8.0).contains(&p50), "p50 = {p50}");
        // p100 reaches the bucket's upper edge.
        assert_eq!(s.quantile(1.0), 8.0);
        // An empty histogram quantile is 0.
        assert_eq!(Histogram::new("e", "", &[], Unit::Count).snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn render_is_cumulative_and_scaled() {
        let h = Histogram::new("tn_test_seconds", "help", &[("k", "v")], Unit::Nanos);
        h.observe(1_000); // ~1 us
        h.observe(2_000_000); // ~2 ms
        let mut out = String::new();
        h.render_into(&mut out);
        assert!(out.contains("tn_test_seconds_bucket{k=\"v\",le=\"+Inf\"} 2"), "{out}");
        assert!(out.contains("tn_test_seconds_count{k=\"v\"} 2"), "{out}");
        // Sum is rendered in seconds.
        assert!(out.contains("tn_test_seconds_sum{k=\"v\"} 0.002001"), "{out}");
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0.0;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{out}");
            last = v;
        }
    }
}
