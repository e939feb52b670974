//! Property tests for `tn_obs::hist` under `tn-rng` value streams.
//!
//! The repo has no property-testing framework (hermetic workspace), so
//! these follow the house idiom: a fixed-seed generator loop over many
//! random cases, with the failing case's seed/index in the assertion
//! message. Two invariants are exercised:
//!
//! 1. quantile monotonicity — `p50 <= p90 <= p99` (and any `q1 <= q2`);
//! 2. bucket-bound containment — every quantile lies inside the
//!    power-of-two envelope of the observed values.

use tn_obs::{Histogram, Snapshot, Unit};
use tn_rng::Rng;

/// Number of random streams each property is checked against.
const STREAMS: usize = 50;

fn hist() -> Histogram {
    Histogram::new("props_test", "property-test histogram", &[], Unit::Count)
}

/// Draws a value with a random magnitude so streams mix tiny and huge
/// observations (a plain `next_u64` would almost always land in the top
/// few buckets).
fn random_value(rng: &mut Rng) -> u64 {
    let shift = rng.gen_range(0..64u64) as u32;
    rng.next_u64() >> shift
}

/// The lower edge of the power-of-two bucket containing `v` (0 for the
/// shared 0/1 bucket), mirroring the documented bucket layout.
fn bucket_lower(v: u64) -> f64 {
    let i = 63 - v.max(1).leading_zeros();
    if i == 0 {
        0.0
    } else {
        (1u128 << i) as f64
    }
}

/// The (exclusive) upper edge of the bucket containing `v`.
fn bucket_upper(v: u64) -> f64 {
    let i = 63 - v.max(1).leading_zeros();
    (1u128 << (i + 1)) as f64
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut rng = Rng::seed_from_u64(0x0b5_0001);
    for stream in 0..STREAMS {
        let h = hist();
        let n = rng.gen_range(1..400u64);
        for _ in 0..n {
            h.observe(random_value(&mut rng));
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.50);
        let p90 = snap.quantile(0.90);
        let p99 = snap.quantile(0.99);
        assert!(
            p50 <= p90 && p90 <= p99,
            "stream {stream}: p50={p50} p90={p90} p99={p99} not monotone"
        );
        // The headline triple is a special case; check a dense grid too.
        let mut prev = snap.quantile(0.0);
        for step in 1..=20 {
            let q = step as f64 / 20.0;
            let cur = snap.quantile(q);
            assert!(
                cur >= prev,
                "stream {stream}: quantile({q}) = {cur} < quantile({}) = {prev}",
                (step - 1) as f64 / 20.0
            );
            prev = cur;
        }
    }
}

#[test]
fn quantiles_stay_inside_the_observed_bucket_envelope() {
    let mut rng = Rng::seed_from_u64(0x0b5_0003);
    for stream in 0..STREAMS {
        let h = hist();
        let n = rng.gen_range(1..300u64);
        let mut min_v = u64::MAX;
        let mut max_v = 0u64;
        for _ in 0..n {
            let v = random_value(&mut rng);
            min_v = min_v.min(v);
            max_v = max_v.max(v);
            h.observe(v);
        }
        let snap = h.snapshot();
        let lo = bucket_lower(min_v);
        let hi = bucket_upper(max_v);
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = snap.quantile(q);
            assert!(
                v >= lo && v <= hi,
                "stream {stream}: quantile({q}) = {v} outside envelope [{lo}, {hi}] \
                 (min={min_v}, max={max_v})"
            );
        }
    }
}

#[test]
fn single_value_quantiles_land_in_that_values_bucket() {
    let mut rng = Rng::seed_from_u64(0x0b5_0004);
    for stream in 0..STREAMS {
        let v = random_value(&mut rng);
        let h = hist();
        h.observe(v);
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = snap.quantile(q);
            assert!(
                est >= bucket_lower(v) && est <= bucket_upper(v),
                "stream {stream}: quantile({q}) of single value {v} = {est} outside \
                 its bucket [{}, {}]",
                bucket_lower(v),
                bucket_upper(v)
            );
        }
    }
}

#[test]
fn empty_snapshot_quantile_is_zero() {
    let snap: Snapshot = hist().snapshot();
    assert_eq!(snap.count(), 0);
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(snap.quantile(q), 0.0);
    }
}
