//! The `transport_field` workload: the Monte-Carlo kernel on a 5.08 cm
//! (2 in) water slab, one thread.
//!
//! One batch runs the three entry points the risk service and the paper
//! pipeline use: analog diffuse thermal histories, an analog 2 MeV
//! beam, and weighted diffuse histories with the default variance
//! reduction (the kernel `RiskSurface::build` runs). Batch `b` draws its
//! seeds from the run seed's substream `b`. Each call takes about a
//! millisecond: short enough to fit inside the uncontended stretches of
//! a shared host, so the per-call floors are steady (see README).

use crate::stats::{median, secs_since, Floors, Samples, Summary, Windows};
use crate::trace::Tracer;
use crate::{Metric, Outcome, RunConfig};
use std::time::{Duration, Instant};
use tn_physics::constants::THERMAL_ENERGY;
use tn_physics::units::{Energy, Length};
use tn_physics::Material;
use tn_rng::Rng;
use tn_transport::{
    Neutron, SlabStack, Tally, Transport, TransportConfig, VarianceReduction, WeightedTally,
};

/// Water slab thickness: the paper's 2-inch water pan.
const SLAB_CM: f64 = 5.08;
const THERMAL_HISTORIES: u64 = 8_192;
const FAST_HISTORIES: u64 = 2_048;
const WEIGHTED_HISTORIES: u64 = 1_024;
/// Histories per kernel in the seed-kernel reference, in batches.
const REFERENCE_SCALE: u64 = 25;
const BATCH_HISTORIES: u64 = THERMAL_HISTORIES + FAST_HISTORIES + WEIGHTED_HISTORIES;
const FAST_ENERGY: Energy = Energy(2.0e6);
/// Width of the windows whose median rate is `throughput_per_s`.
const WINDOW_S: f64 = 1.0;
/// `peak_rss_mb` is read after this many batches (or at the end of a
/// shorter run), a fixed amount of work.
const RSS_BATCHES: usize = 2_000;
/// Engine builds per run, back to back; `setup_s` is their median. A
/// build takes tens of microseconds: spread out in time, each one ran
/// cache-cold at a different moment of the host's drift, and set medians
/// moved by a third.
const SETUP_REPS: usize = 31;
/// Checks on all batches merged fail beyond this many standard
/// deviations from the seed kernel.
const RUN_SIGMAS: f64 = 5.0;
/// Per-batch checks use a wider band: a run makes about 20,000 of them,
/// and 6.5σ keeps the chance of any false alarm among them near 2e-6,
/// while a wrong source sampling still shows at about 8σ.
const BATCH_SIGMAS: f64 = 6.5;

/// Process-wide transport counters (`tn_transport::stats`): count and
/// sum only, never the histogram's bucketed quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub histories: u64,
    pub nanos: u64,
    pub shards: u64,
    pub shard_nanos: u64,
}

impl Counters {
    pub fn now() -> Self {
        let shards = tn_transport::stats::shard_histogram().snapshot();
        Self {
            histories: tn_transport::stats::histories_total(),
            nanos: tn_transport::stats::nanos_total(),
            shards: shards.count(),
            shard_nanos: shards.sum(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Self {
        Self {
            histories: self.histories - earlier.histories,
            nanos: self.nanos - earlier.nanos,
            shards: self.shards - earlier.shards,
            shard_nanos: self.shard_nanos - earlier.shard_nanos,
        }
    }

    /// Histories per second of time spent inside transport runs.
    pub fn histories_per_s(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.histories as f64 * 1e9 / self.nanos as f64
    }

    pub fn shard_mean_us(&self) -> f64 {
        if self.shards == 0 {
            return 0.0;
        }
        self.shard_nanos as f64 / self.shards as f64 / 1e3
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Batch {
    thermal: Tally,
    fast: Tally,
    weighted: WeightedTally,
}

fn build_engine() -> Transport {
    Transport::with_config(
        SlabStack::single(Material::water(), Length(SLAB_CM)),
        TransportConfig::with_threads(1),
    )
}

fn batch_seeds(seed: u64, batch: usize) -> [u64; 3] {
    let mut rng = Rng::seed_from_u64(seed).fork(batch as u64);
    [rng.next_u64(), rng.next_u64(), rng.next_u64()]
}

/// Runs batch `batch`; also returns how long each of its three calls
/// took.
fn run_batch(
    t: &Transport,
    seed: u64,
    batch: usize,
    tracer: &mut Tracer,
) -> (Batch, [Duration; 3]) {
    let [s0, s1, s2] = batch_seeds(seed, batch);
    let op = batch as u64;
    let started = Instant::now();
    let thermal = tracer.time("transport.run_diffuse", op, || {
        t.run_diffuse(THERMAL_ENERGY, THERMAL_HISTORIES, s0)
    });
    let thermal_done = Instant::now();
    let fast = tracer.time("transport.run_beam", op, || {
        t.run_beam(FAST_ENERGY, FAST_HISTORIES, s1)
    });
    let fast_done = Instant::now();
    let weighted = tracer.time("transport.run_diffuse_weighted", op, || {
        t.run_diffuse_weighted(
            THERMAL_ENERGY,
            WEIGHTED_HISTORIES,
            s2,
            VarianceReduction::default(),
        )
    });
    let batch = Batch {
        thermal,
        fast,
        weighted,
    };
    let calls = [
        thermal_done - started,
        fast_done - thermal_done,
        fast_done.elapsed(),
    ];
    (batch, calls)
}

/// The seed kernel (`run_history_direct`) on the analog problems, with
/// a stream of its own.
fn direct_reference(t: &Transport, seed: u64) -> (Tally, Tally) {
    let mut rng = Rng::seed_from_u64(seed).fork(u64::MAX);
    let mut thermal = Tally::default();
    for _ in 0..THERMAL_HISTORIES * REFERENCE_SCALE {
        let n = Neutron::diffuse_incident(THERMAL_ENERGY, &mut rng);
        thermal.record(t.run_history_direct(n, &mut rng));
    }
    let mut fast = Tally::default();
    for _ in 0..FAST_HISTORIES * REFERENCE_SCALE {
        fast.record(t.run_history_direct(Neutron::incident(FAST_ENERGY), &mut rng));
    }
    (thermal, fast)
}

/// `|a − b| ≤ sigmas·σ` for two independent binomial estimates, with a
/// pooled σ.
fn binomial_agrees(a: u64, n: u64, b: u64, m: u64, sigmas: f64) -> Result<(), String> {
    let (pa, pb) = (a as f64 / n as f64, b as f64 / m as f64);
    let pooled = (a + b) as f64 / (n + m) as f64;
    let sigma = (pooled * (1.0 - pooled) * (1.0 / n as f64 + 1.0 / m as f64)).sqrt();
    if (pa - pb).abs() <= sigmas * sigma {
        Ok(())
    } else {
        Err(format!("{pa:.5} vs seed kernel {pb:.5} (σ {sigma:.2e})"))
    }
}

/// The transmitted and absorbed fractions of an analog tally against
/// the seed kernel's.
fn analog_agrees(name: &str, got: &Tally, want: &Tally, sigmas: f64) -> Result<(), String> {
    let transmitted = |t: &Tally| t.transmitted_thermal + t.transmitted_fast;
    for (channel, a, b) in [
        ("transmitted", transmitted(got), transmitted(want)),
        ("absorbed", got.absorbed, want.absorbed),
    ] {
        binomial_agrees(a, got.histories, b, want.histories, sigmas)
            .map_err(|e| format!("{name} {channel}: {e}"))?;
    }
    Ok(())
}

/// Checks one batch's analog tallies against the seed kernel.
fn check_batch(batch: &Batch, direct: &(Tally, Tally)) -> Result<(), String> {
    analog_agrees("thermal", &batch.thermal, &direct.0, BATCH_SIGMAS)?;
    analog_agrees("fast", &batch.fast, &direct.1, BATCH_SIGMAS)
}

/// Checks all batches merged against the seed kernel: both analog
/// tallies, and the weighted thermal transmission against the seed
/// kernel's analog estimate of the same quantity, with σ combining the
/// merged tally's own relative error and the binomial one. One batch's
/// weighted error estimate is too noisy to test against: its weights are
/// heavy-tailed.
fn check_run(batches: &[Batch], direct: &(Tally, Tally)) -> Result<(), String> {
    let (mut thermal, mut fast) = (Tally::default(), Tally::default());
    let mut weighted = WeightedTally::default();
    for batch in batches {
        thermal.merge(&batch.thermal);
        fast.merge(&batch.fast);
        weighted.merge(&batch.weighted);
    }
    analog_agrees("all thermal", &thermal, &direct.0, RUN_SIGMAS)?;
    analog_agrees("all fast", &fast, &direct.1, RUN_SIGMAS)?;
    let w = weighted.transmitted_thermal_fraction();
    let sigma_w = w * weighted.transmitted_thermal_rel_error();
    let p = direct.0.transmitted_thermal_fraction();
    let sigma_p = (p * (1.0 - p) / direct.0.histories as f64).sqrt();
    let sigma = (sigma_w * sigma_w + sigma_p * sigma_p).sqrt();
    if !sigma.is_finite() || (w - p).abs() > RUN_SIGMAS * sigma {
        return Err(format!(
            "weighted thermal transmission {w:.5} vs seed kernel {p:.5} (σ {sigma:.2e})"
        ));
    }
    Ok(())
}

/// Replays batches `0..batches`; each must equal the timed batch
/// exactly (tallies are a pure function of the seed).
fn replay(
    seed: u64,
    timed: &[Batch],
    failed: &mut [bool],
    on: bool,
) -> (f64, Tracer, Counters, f64) {
    let mut tracer = Tracer::new(on, timed.len() * 4 + 4);
    let t = Instant::now();
    let engine = tracer.time("transport.xs_build", u64::MAX, build_engine);
    let xs_build_us = secs_since(t) * 1e6;
    let before = Counters::now();
    let started = Instant::now();
    for (b, want) in timed.iter().enumerate() {
        let (got, _) = run_batch(&engine, seed, b, &mut tracer);
        failed[b] |= got != *want;
    }
    let wall_s = secs_since(started);
    (wall_s, tracer, Counters::now().since(&before), xs_build_us)
}

/// Median histories per second of the spans named `name`.
fn rate(tracer: &Tracer, name: &str, histories: u64) -> Summary {
    let mut per_s: Vec<f64> = tracer
        .durations(name)
        .iter()
        .map(|ns| histories as f64 * 1e9 / ns.max(1.0))
        .collect();
    Summary::of(&mut per_s)
}

pub fn run(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, 0);

    // The timed engine is the first set-up; the others follow at once.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut timed_engine = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let engine = build_engine();
        setups.push(secs_since(t));
        timed_engine.get_or_insert(engine);
    }
    let engine = timed_engine.expect("at least one set-up");

    // A batch takes milliseconds; this bound is never reached.
    let max = (run.seconds * 10_000.0).ceil() as usize + 1;
    let mut samples = Samples::with_capacity(max);
    let mut batches: Vec<Batch> = Vec::with_capacity(max);
    let before = Counters::now();
    let started = Instant::now();
    let mut windows = Windows::new(WINDOW_S, run.seconds);
    let mut floors = Floors::new(3);
    let mut peak_rss_mb = None;
    loop {
        let elapsed = secs_since(started);
        windows.tick(elapsed, batches.len() as u64 * BATCH_HISTORIES);
        if elapsed >= run.seconds || samples.is_full() {
            break;
        }
        let t = Instant::now();
        let (batch, calls) = run_batch(&engine, run.seed, batches.len(), &mut tracer);
        samples.push(t.elapsed());
        batches.push(batch);
        for (call, elapsed) in calls.into_iter().enumerate() {
            floors.observe(call, elapsed);
        }
        if batches.len() == RSS_BATCHES {
            peak_rss_mb = Some(crate::stats::peak_rss_mb());
        }
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(crate::stats::peak_rss_mb);
    let counted = Counters::now().since(&before);
    let n = batches.len();
    out.attempted = n as u64;
    if counted.histories != n as u64 * BATCH_HISTORIES {
        out.fail(format!(
            "histories_total grew by {}, {} requested",
            counted.histories,
            n as u64 * BATCH_HISTORIES
        ));
    }

    let mut failed = vec![false; n];
    let direct = direct_reference(&engine, run.seed);

    let latency = samples.summary();
    let (throughput, windows) = windows.median_rate();
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s", Some(setups.len())),
        // A batch's floor: the sum of its three calls' floors.
        Metric::new("latency_floor_ms", floors.sum_ns() / 1e6, "ms", Some(n)),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", None),
    ];
    out.reported = vec![
        Metric::new("latency_p50_ms", latency.p50 / 1e6, "ms", Some(n)),
        Metric::new("throughput_per_s", throughput, "1/s", Some(windows)),
    ];

    for (b, batch) in batches.iter().enumerate() {
        if let Err(e) = check_batch(batch, &direct) {
            failed[b] = true;
            out.note(format!("batch {b}: {e}"));
        }
    }
    if let Err(e) = check_run(&batches, &direct) {
        out.fail(e);
    }
    // The replays must reproduce every batch exactly. The traced one is
    // compared with an untraced one after it, as in the fleet mixes.
    let traced = run.trace.then(|| {
        let traced = replay(run.seed, &batches, &mut failed, true);
        (traced, replay(run.seed, &batches, &mut failed, false).0)
    });
    let bad = failed.iter().filter(|f| **f).count();
    if bad > 0 {
        out.note(format!(
            "{bad} batches differ from their replay or the seed kernel"
        ));
    }
    out.failed += bad as u64;
    let Some(((traced_s, tracer, counters, xs_build_us), untraced_s)) = traced else {
        return out;
    };
    if counters.histories != n as u64 * BATCH_HISTORIES {
        out.fail(format!("the replay ran {} histories", counters.histories));
    }
    let per_batch = |v: u64| if n == 0 { 0.0 } else { v as f64 / n as f64 };
    let thermal = rate(&tracer, "transport.run_diffuse", THERMAL_HISTORIES);
    let fast = rate(&tracer, "transport.run_beam", FAST_HISTORIES);
    let weighted = rate(
        &tracer,
        "transport.run_diffuse_weighted",
        WEIGHTED_HISTORIES,
    );
    let rel_error = batches
        .first()
        .map_or(0.0, |b| b.weighted.transmitted_thermal_rel_error());
    let mut layers = crate::zero_layers();
    for (name, value, samples) in [
        ("transport.xs_build_us", xs_build_us, None),
        ("transport.thermal_hps", thermal.p50, Some(thermal.n)),
        ("transport.fast_hps", fast.p50, Some(fast.n)),
        ("transport.weighted_hps", weighted.p50, Some(weighted.n)),
        (
            "transport.histories",
            per_batch(counters.histories),
            Some(n),
        ),
        ("transport.shards", per_batch(counters.shards), Some(n)),
        (
            "transport.shard_mean_us",
            counters.shard_mean_us(),
            Some(counters.shards as usize),
        ),
        ("transport.weighted_rel_error", rel_error, None),
        ("e2e.latency_p50_ms", latency.p50 / 1e6, Some(n)),
        ("e2e.throughput_per_s", throughput, Some(windows)),
        (
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
            None,
        ),
    ] {
        crate::set_layer(&mut layers, name, value, samples);
    }
    out.layers = layers;
    out.spans = Some(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_check_flags_only_real_differences() {
        assert!(binomial_agrees(500, 10_000, 520, 10_000, 5.0).is_ok());
        assert!(binomial_agrees(500, 10_000, 900, 10_000, 5.0).is_err());
        assert!(binomial_agrees(0, 100, 0, 100, 5.0).is_ok());
    }

    #[test]
    fn batch_seeds_depend_only_on_the_run_seed_and_batch() {
        assert_eq!(batch_seeds(4, 2), batch_seeds(4, 2));
        assert_ne!(batch_seeds(4, 2), batch_seeds(4, 3));
        assert_ne!(batch_seeds(4, 2), batch_seeds(5, 2));
    }
}
