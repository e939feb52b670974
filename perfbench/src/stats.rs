//! Exact sample statistics. Every quantile comes from the sorted raw
//! samples (nearest rank), never from a bucketed histogram, and is
//! reported with its sample count.

use std::time::{Duration, Instant};

/// A pre-sized buffer of nanosecond samples. `push` never reallocates:
/// the timed loops stop when the buffer is full, so the benchmark's side
/// of a timed loop allocates nothing.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ns: Vec::with_capacity(capacity),
        }
    }

    /// Records one sample; `false` when the buffer is full.
    pub fn push(&mut self, elapsed: Duration) -> bool {
        if self.ns.len() == self.ns.capacity() {
            return false;
        }
        self.ns
            .push(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        true
    }

    pub fn is_full(&self) -> bool {
        self.ns.len() == self.ns.capacity()
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn summary(&self) -> Summary {
        let mut sorted: Vec<f64> = self.ns.iter().map(|&n| n as f64).collect();
        Summary::of(&mut sorted)
    }
}

/// The fastest time seen at each position of a workload's repeating
/// cycle of operations. Interference from other tenants of the host only
/// ever adds time, and uncontended stretches of a few milliseconds occur
/// in almost every run, so these minima stay put where medians and rates
/// move with the host's load.
#[derive(Debug)]
pub struct Floors {
    ns: Vec<u64>,
}

impl Floors {
    pub fn new(positions: usize) -> Self {
        Self {
            ns: vec![u64::MAX; positions],
        }
    }

    pub fn observe(&mut self, position: usize, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let positions = self.ns.len();
        let slot = &mut self.ns[position % positions];
        *slot = (*slot).min(ns);
    }

    /// Sum over the cycle's positions of their fastest times, in ns
    /// (0 until every position has been seen).
    pub fn sum_ns(&self) -> f64 {
        if self.ns.contains(&u64::MAX) {
            return 0.0;
        }
        self.ns.iter().map(|&n| n as f64).sum()
    }
}

/// Operations completed per fixed wall-clock window of a timed loop.
/// Throughput is the median of the per-window rates, so a minority of
/// windows slowed (or sped up) by the host moves it little. The marks are
/// pre-sized, so ticking allocates nothing.
#[derive(Debug)]
pub struct Windows {
    width_s: f64,
    /// `(elapsed seconds, operations done)` at each closed window.
    marks: Vec<(f64, u64)>,
}

impl Windows {
    pub fn new(width_s: f64, seconds: f64) -> Self {
        let mut marks = Vec::with_capacity((seconds / width_s).ceil() as usize + 2);
        marks.push((0.0, 0));
        Self { width_s, marks }
    }

    /// Records progress; closes a window once `elapsed_s` passes its end.
    pub fn tick(&mut self, elapsed_s: f64, done: u64) {
        let closed = (self.marks.len() - 1) as f64 * self.width_s;
        if elapsed_s >= closed + self.width_s && self.marks.len() < self.marks.capacity() {
            self.marks.push((elapsed_s, done));
        }
    }

    /// Median rate over the closed windows, and how many there were.
    pub fn median_rate(&self) -> (f64, usize) {
        let mut rates: Vec<f64> = self
            .marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
            .collect();
        let n = rates.len();
        (Summary::of(&mut rates).p50, n)
    }
}

/// Median and p99 of a sample set, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Sorts `values` in place and summarises them; all zeros when empty.
    pub fn of(values: &mut [f64]) -> Self {
        if values.is_empty() {
            return Self {
                n: 0,
                p50: 0.0,
                p99: 0.0,
            };
        }
        values.sort_by(f64::total_cmp);
        Self {
            n: values.len(),
            p50: quantile(values, 0.50),
            p99: quantile(values, 0.99),
        }
    }
}

/// Nearest-rank quantile of ascending `sorted` (non-empty): the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of values (set-up repetitions), exact.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    Summary::of(&mut sorted).p50
}

/// Seconds since `start`, as `f64`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit digest of a byte string, word at a time so that hashing a
/// half-megabyte response body stays a small share of a timed request.
/// Collisions only weaken the byte-identity check; they cannot fail it.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.p99), (100, 50.0, 99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_never_grow() {
        let mut s = Samples::with_capacity(2);
        assert!(s.push(Duration::from_nanos(3)));
        assert!(s.push(Duration::from_nanos(1)));
        assert!(!s.push(Duration::from_nanos(2)));
        assert_eq!(s.summary().p50, 1.0);
    }

    #[test]
    fn window_rates_use_the_median_window() {
        let mut w = Windows::new(1.0, 4.0);
        for (t, done) in [
            (0.5, 5),
            (1.0, 10),
            (1.5, 12),
            (2.0, 20),
            (3.0, 60),
            (3.5, 61),
        ] {
            w.tick(t, done);
        }
        // Windows: 10 ops in 1 s, 10 in 1 s, 40 in 1 s.
        assert_eq!(w.median_rate(), (10.0, 3));
    }

    #[test]
    fn floors_keep_each_positions_fastest_time() {
        let mut f = Floors::new(2);
        assert_eq!(f.sum_ns(), 0.0);
        for (pos, ns) in [(0, 30), (1, 50), (2, 10), (3, 70)] {
            f.observe(pos, Duration::from_nanos(ns));
        }
        assert_eq!(f.sum_ns(), 60.0);
    }

    #[test]
    fn digest_separates_bodies() {
        assert_ne!(digest(b"{\"count\":1}"), digest(b"{\"count\":2}"));
        assert_ne!(digest(b"abcdefgh"), digest(b"abcdefgh\0"));
        assert_eq!(digest(b"same bytes"), digest(b"same bytes"));
    }
}
