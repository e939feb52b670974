//! Verification suite for the tn-watch streaming change-point monitor,
//! at the tuning every scenario campaign runs
//! ([`tn_scenario::scenario_monitor_config`]), against synthetic Poisson
//! series whose step is known in closed form.
//!
//! Two checks, both deterministic in `(seed, profile)`:
//!
//! 1. **False-positive rate** — stationary Poisson count series across a
//!    seed sweep must raise *zero* alerts. The CUSUM thresholds are set
//!    for multi-sigma excursions, so any misfire on a clean series is a
//!    tuning regression, not noise.
//! 2. **Detection power** — the same series with a +25 % step injected
//!    mid-stream must be flagged on *every* seed, as a `step_up`, with
//!    the onset in the post-step segment and bounded delay.
//!
//! The paper's water-pan replay itself is the `water-pan` built-in
//! scenario, checked by the scenario suite.

use crate::report::CheckResult;
use tn_obs::timeline::{Alert, AlertKind, Monitor, MonitorConfig};
use tn_physics::stats::poisson;
use tn_rng::Rng;
use tn_scenario::runner::HOUR_NANOS;
use tn_scenario::{scenario_monitor_config, ONSET_SLACK};

/// Statistics profile for the watch suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchConfig {
    /// Seeds swept by the false-positive and detection-power checks.
    pub seeds: u64,
    /// Samples per synthetic series.
    pub samples: usize,
}

impl WatchConfig {
    /// Full-statistics profile.
    pub fn full() -> Self {
        Self {
            seeds: 20,
            samples: 240,
        }
    }

    /// Reduced profile for `verify --quick`.
    pub fn quick() -> Self {
        Self {
            seeds: 6,
            samples: 160,
        }
    }
}

/// Mean of the synthetic hourly count series.
const SERIES_MEAN: f64 = 500.0;

/// Relative step injected by the detection-power check.
const STEP_FRACTION: f64 = 0.25;

/// Latest acceptable detection delay, in samples, for the +25 % step.
const MAX_DELAY: u64 = 12;

/// Whether an alert credits a step injected at sample `step_at`: a
/// `step_up` detected inside the post-step segment within `max_delay`
/// samples, with the onset estimate no earlier than [`ONSET_SLACK`]
/// samples before the true change point.
pub(crate) fn step_alert_matches(a: &Alert, step_at: u64, max_delay: u64) -> bool {
    a.kind == AlertKind::StepUp
        && a.onset_index + ONSET_SLACK >= step_at
        && a.detected_index >= step_at
        && a.detected_index <= step_at + max_delay
}

/// Runs the two watch checks.
pub fn run_suite(seed: u64, cfg: WatchConfig) -> Vec<CheckResult> {
    vec![
        false_positive_check(seed, cfg),
        detection_power_check(seed, cfg),
    ]
}

/// Replays an hourly count series through a monitor built from `cfg`
/// and returns the alerts it raised. Timestamps are derived from the
/// sample index, so the replay is deterministic.
fn replay_counts(counts: &[u64], cfg: MonitorConfig) -> Vec<Alert> {
    let mut monitor = Monitor::new(cfg);
    let mut alerts = Vec::new();
    for (i, &count) in counts.iter().enumerate() {
        alerts.extend(monitor.observe(i as u64 * HOUR_NANOS, count, 3600.0));
    }
    alerts
}

fn synthetic_series(seed: u64, cfg: WatchConfig, step_at: Option<usize>) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..cfg.samples)
        .map(|i| {
            let boosted = matches!(step_at, Some(at) if i >= at);
            let mean = if boosted {
                SERIES_MEAN * (1.0 + STEP_FRACTION)
            } else {
                SERIES_MEAN
            };
            poisson(&mut rng, mean)
        })
        .collect()
}

/// Stationary Poisson series across the seed sweep: the statistic is the
/// number of seeds with *any* alert, and the threshold is zero.
fn false_positive_check(seed: u64, cfg: WatchConfig) -> CheckResult {
    let mut misfires = 0u64;
    for s in 0..cfg.seeds {
        let counts = synthetic_series(seed ^ (0x57A7 + s), cfg, None);
        let alerts = replay_counts(&counts, scenario_monitor_config());
        if !alerts.is_empty() {
            misfires += 1;
        }
    }
    CheckResult::from_statistic(
        "watch",
        "watch.false_positive_rate",
        misfires as f64,
        0.0,
        cfg.seeds,
        format!(
            "stationary Poisson series ({} samples at {SERIES_MEAN}/h) must stay quiet",
            cfg.samples
        ),
    )
}

/// A +25 % step injected halfway through the series must be detected on
/// every seed: a `step_up` detected after the change point with delay
/// within [`MAX_DELAY`] and onset no earlier than [`ONSET_SLACK`] samples
/// before it, and nothing detected before the step. The statistic counts
/// seeds where any of that fails.
fn detection_power_check(seed: u64, cfg: WatchConfig) -> CheckResult {
    let step_at = cfg.samples / 2;
    let mut misses = 0u64;
    for s in 0..cfg.seeds {
        let counts = synthetic_series(seed ^ (0xD7EC + s), cfg, Some(step_at));
        let alerts = replay_counts(&counts, scenario_monitor_config());
        let detected = alerts
            .iter()
            .any(|a| step_alert_matches(a, step_at as u64, MAX_DELAY));
        let clean_before = alerts
            .iter()
            .all(|a| a.detected_index >= step_at as u64);
        if !(detected && clean_before) {
            misses += 1;
        }
    }
    CheckResult::from_statistic(
        "watch",
        "watch.step_detection_power",
        misses as f64,
        0.0,
        cfg.seeds,
        format!(
            "a +{:.0}% step at sample {step_at} must be flagged step_up within \
             {MAX_DELAY} samples on every seed",
            100.0 * STEP_FRACTION
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_passes_and_is_deterministic() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let a = run_suite(2020, WatchConfig::quick());
        let b = run_suite(2020, WatchConfig::quick());
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        for c in &a {
            assert!(c.passed, "{c:?}");
            assert_eq!(c.suite, "watch");
        }
    }

    #[test]
    fn onset_jitter_slack_stops_at_exactly_four_samples() {
        // The CUSUM onset estimate may be pulled up to ONSET_SLACK
        // samples before the true change point by pre-step noise; one
        // sample further means the alert belongs to something else.
        let alert = |onset: u64| Alert {
            kind: AlertKind::StepUp,
            onset_index: onset,
            detected_index: 102,
            ts_nanos: 0,
            baseline_rate: 0.14,
            observed_rate: 0.17,
            magnitude: 0.25,
        };
        let step_at = 100;
        assert!(step_alert_matches(&alert(step_at), step_at, MAX_DELAY));
        assert!(step_alert_matches(&alert(step_at - ONSET_SLACK), step_at, MAX_DELAY));
        assert!(!step_alert_matches(&alert(step_at - ONSET_SLACK - 1), step_at, MAX_DELAY));
        // Delay bound is inclusive too: detected at step_at + MAX_DELAY
        // passes, one later fails.
        let late = |detected: u64| Alert { detected_index: detected, ..alert(step_at) };
        assert!(step_alert_matches(&late(step_at + MAX_DELAY), step_at, MAX_DELAY));
        assert!(!step_alert_matches(&late(step_at + MAX_DELAY + 1), step_at, MAX_DELAY));
        // Wrong direction never matches, whatever the indices say.
        let down = Alert { kind: AlertKind::StepDown, ..alert(step_at) };
        assert!(!step_alert_matches(&down, step_at, MAX_DELAY));
    }

    #[test]
    fn detection_power_fails_without_a_detector() {
        // Sanity: a threshold too high to ever fire must be caught by
        // the power check (the suite has teeth, not just green lights).
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let cfg = WatchConfig::quick();
        let counts = synthetic_series(2020, cfg, Some(cfg.samples / 2));
        let mut blunt = scenario_monitor_config();
        blunt.cusum_threshold = 1e18;
        blunt.drift_run = usize::MAX;
        let alerts = replay_counts(&counts, blunt);
        assert!(alerts.is_empty(), "blunted monitor must miss the step");
    }
}
