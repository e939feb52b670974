//! Verification suite for the tn-scenario campaign engine.
//!
//! Five checks, all deterministic in `(seed, profile)`:
//!
//! 1. **False-positive rate** — the stationary "normal" campaign across
//!    a seed sweep must raise *zero* alerts and stay conformant.
//! 2. **Step detection** — the "rainstorm-at-leadville" campaign must
//!    credit both scripted weather steps, with no uncredited alerts, on
//!    every seed.
//! 3. **Water pan** — the paper's Figure-6 experiment: the refined
//!    magnitude of the scripted `moderation_on` step must agree with
//!    the Monte-Carlo-derived boost.
//! 4. **Loss of moderation** — the same step in reverse: the refined
//!    magnitude of the scripted `moderation_off` step must agree with
//!    the MC-derived expectation.
//! 5. **Voting tolerance** — with one channel injected with bias drift,
//!    2oo3 median voting must keep the fused mean rate within 5 % of
//!    the clean campaign's, and flag the faulted channel.

use crate::report::CheckResult;
use tn_scenario::{builtin, run_scenario, ChannelVerdict, ScenarioReport};

/// Statistics profile for the scenario suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Seeds swept by the false-positive, detection and voting checks.
    pub seeds: u64,
}

impl ScenarioConfig {
    /// Full-statistics profile.
    pub fn full() -> Self {
        Self { seeds: 8 }
    }

    /// Reduced profile for `verify --quick`.
    pub fn quick() -> Self {
        Self { seeds: 3 }
    }
}

/// Refined-vs-expected magnitude tolerance for both moderation steps (the
/// water pan going on, and off in `loss-of-moderation`). The true error
/// stays at or below 0.0062 (water pan) and 0.0022 (loss of moderation)
/// over seeds 1–40 and 2020, so a 0.05 shift of the MC expectation fails.
const MODERATION_TOLERANCE: f64 = 0.05;

/// Allowed fused-rate divergence under a single faulted channel.
const VOTING_TOLERANCE: f64 = 0.05;

/// Runs the five scenario checks.
pub fn run_suite(seed: u64, cfg: ScenarioConfig) -> Vec<CheckResult> {
    let run = |name| run_scenario(&builtin(name).expect("built-in scenario"), seed);
    vec![
        false_positive_check(seed, cfg),
        step_detection_check(seed, cfg),
        moderation_step_check("scenario.water_pan", &run("water-pan")),
        moderation_step_check("scenario.loss_of_moderation", &run("loss-of-moderation")),
        voting_tolerance_check(seed, cfg),
    ]
}

/// The "normal" campaign across the seed sweep: the statistic counts
/// seeds where the monitor raised anything at all (or the report went
/// non-conformant), and the threshold is zero.
fn false_positive_check(seed: u64, cfg: ScenarioConfig) -> CheckResult {
    let scenario = builtin("normal").expect("built-in scenario");
    let mut misfires = 0u64;
    for s in 0..cfg.seeds {
        let report = run_scenario(&scenario, seed ^ (0x5CE0 + s));
        if !report.alerts.is_empty() || !report.conformant {
            misfires += 1;
        }
    }
    CheckResult::from_statistic(
        "scenario",
        "scenario.false_positive_rate",
        misfires as f64,
        0.0,
        cfg.seeds,
        format!(
            "stationary `normal` campaign ({}h) must stay quiet on every seed",
            scenario.duration_hours
        ),
    )
}

/// The "rainstorm-at-leadville" campaign: both scripted weather steps
/// must be credited to an alert and nothing left uncredited, on every
/// seed. The statistic counts seeds where either fails.
fn step_detection_check(seed: u64, cfg: ScenarioConfig) -> CheckResult {
    let scenario = builtin("rainstorm-at-leadville").expect("built-in scenario");
    let mut misses = 0u64;
    for s in 0..cfg.seeds {
        let report = run_scenario(&scenario, seed ^ (0xA1B0 + s));
        let missed = report
            .events
            .iter()
            .filter(|e| e.expected && !e.detected)
            .count();
        if missed > 0 || report.unmatched_alerts > 0 {
            misses += 1;
        }
    }
    CheckResult::from_statistic(
        "scenario",
        "scenario.step_detection",
        misses as f64,
        0.0,
        cfg.seeds,
        format!(
            "both scripted steps of `{}` must be credited on every seed",
            scenario.name
        ),
    )
}

/// A one-event moderation campaign at the base seed: the statistic is
/// the absolute error between the refined and MC-expected magnitude of
/// its scripted step, thresholded at [`MODERATION_TOLERANCE`]. It is
/// forced to 1.0
/// unless the report is conformant and credits the step to a step alert
/// in its direction (`step_up` for the water going on, `step_down` for
/// it coming off).
fn moderation_step_check(id: &str, report: &ScenarioReport) -> CheckResult {
    let event = report.events.first();
    let statistic = match event {
        Some(e) if report.conformant => {
            let kind = if e.expected_magnitude > 0.0 {
                "step_up"
            } else {
                "step_down"
            };
            if e.alert_kind == Some(kind) {
                (e.refined_magnitude - e.expected_magnitude).abs()
            } else {
                1.0
            }
        }
        _ => 1.0,
    };
    CheckResult::from_statistic(
        "scenario",
        id,
        statistic,
        MODERATION_TOLERANCE,
        u64::from(report.samples),
        format!(
            "`{}` step refined magnitude within ±{:.0}% of the MC expectation ({:+.3})",
            report.scenario.name,
            100.0 * MODERATION_TOLERANCE,
            event.map_or(f64::NAN, |e| e.expected_magnitude),
        ),
    )
}

/// The "detector-channel-drift" campaign against the clean "normal"
/// campaign on the same seeds: the statistic is the worst fused-rate
/// ratio error across the sweep (forced to 1.0 on any seed where the
/// drifting channel is not flagged as drift), thresholded at
/// [`VOTING_TOLERANCE`].
fn voting_tolerance_check(seed: u64, cfg: ScenarioConfig) -> CheckResult {
    let faulted = builtin("detector-channel-drift").expect("built-in scenario");
    let clean = builtin("normal").expect("built-in scenario");
    let fault_channel = faulted.faults[0].channel;
    let mut worst = 0.0f64;
    for s in 0..cfg.seeds {
        let run_seed = seed ^ (0xF0A7 + s);
        let dirty = run_scenario(&faulted, run_seed);
        let baseline = run_scenario(&clean, run_seed);
        let flagged = dirty.channels.iter().any(|c| {
            c.channel == fault_channel
                && c.verdict == ChannelVerdict::Drift
                && c.flagged_hour.is_some()
        });
        let error = if flagged && baseline.fused_mean_rate > 0.0 {
            (dirty.fused_mean_rate / baseline.fused_mean_rate - 1.0).abs()
        } else {
            1.0
        };
        worst = worst.max(error);
    }
    CheckResult::from_statistic(
        "scenario",
        "scenario.voting_tolerance",
        worst,
        VOTING_TOLERANCE,
        cfg.seeds,
        format!(
            "2oo3 voting must hold the fused rate within ±{:.0}% of the clean \
             campaign with channel {fault_channel} drifting",
            100.0 * VOTING_TOLERANCE
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_passes_and_is_deterministic() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let a = run_suite(2020, ScenarioConfig::quick());
        let b = run_suite(2020, ScenarioConfig::quick());
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for c in &a {
            assert!(c.passed, "{c:?}");
            assert_eq!(c.suite, "scenario");
        }
    }

    #[test]
    fn water_pan_check_fails_an_inflated_expectation() {
        // Sanity: the magnitude gate is live in both directions for both
        // moderation campaigns — moving the MC expectation 0.06 off the
        // refined estimate fails it.
        tn_obs::set_level(Some(tn_obs::Level::Error));
        for (id, name) in [
            ("scenario.water_pan", "water-pan"),
            ("scenario.loss_of_moderation", "loss-of-moderation"),
        ] {
            let report = run_scenario(&builtin(name).expect("built-in"), 2020);
            assert!(moderation_step_check(id, &report).passed, "{name}");
            for shift in [0.06, -0.06] {
                let mut off = report.clone();
                off.events[0].expected_magnitude += shift;
                assert!(
                    !moderation_step_check(id, &off).passed,
                    "{name}: expectation shifted by {shift} still passes"
                );
            }
        }
    }

    #[test]
    fn voting_check_has_teeth() {
        // Sanity: the voting statistic is a real measurement, not a
        // constant — the dirty and clean campaigns genuinely differ.
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let faulted = builtin("detector-channel-drift").expect("built-in");
        let clean = builtin("normal").expect("built-in");
        let dirty = run_scenario(&faulted, 2020);
        let baseline = run_scenario(&clean, 2020);
        assert_ne!(dirty.fused, baseline.fused, "fault changes the series");
    }
}
