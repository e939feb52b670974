//! The scenario runner: advances a virtual clock over a scripted
//! campaign, mutates the environment at each event, streams fused array
//! counts through the tn-obs change-point monitor, and reports per-event
//! detection outcomes plus per-channel health verdicts.
//!
//! Everything is deterministic: the runner holds its *own*
//! [`VirtualClock`] (it never reads the process clock), all randomness
//! flows from the seed through forked streams, and the Monte-Carlo
//! moderation boost uses the same transport kernel whose tallies are
//! independent of the worker-thread count. Reports therefore serialise
//! byte-identically across runs and `--transport-threads` settings.

use crate::array::{ChannelHealth, ChannelVerdict, DetectorArray};
use crate::format::{EventKind, FaultKind, Scenario};
use tn_core::json::Json;
use tn_detector::WaterBoxExperiment;
use tn_obs::timeline::{Alert, AlertKind, Monitor, MonitorConfig};
use tn_obs::{Clock, VirtualClock};
use tn_physics::stats::garwood_interval;

/// Nanoseconds per hourly counting bin.
pub const HOUR_NANOS: u64 = 3_600_000_000_000;

/// Thermal-flux multiplier of the scripted calibration beam.
pub const BEAM_THERMAL_FACTOR: f64 = 4.0;

/// How far an alert's estimated onset may precede the scripted change
/// point and still be credited to it (CUSUM onsets jitter backwards by a
/// few samples on noisy series).
pub const ONSET_SLACK: u64 = 4;

/// Largest accepted gap between a scripted change and its detection.
pub const MAX_ONSET_DELAY: u64 = 24;

/// Relative environment changes smaller than this are not required to
/// be detected (they sit inside the monitor's designed dead band).
pub const MAGNITUDE_FLOOR: f64 = 0.02;

/// Monitor tuning for fused hourly Tin-II counts, with exact Garwood
/// intervals.
///
/// The monitored series is a *difference* of two Poisson channels
/// (`bare − shielded`), so its variance exceeds the Poisson variance of
/// its mean; the CUSUM threshold is raised accordingly (the subtraction
/// roughly doubles the variance, so the nominal nats budget is scaled
/// to keep the same false-alarm headroom). Warmup covers half the
/// `water-pan` campaign's pre-step segment.
pub fn scenario_monitor_config() -> MonitorConfig {
    MonitorConfig {
        capacity: 4096,
        window: 12,
        warmup: 48,
        ewma_alpha: 0.05,
        cusum_delta: 0.1,
        cusum_threshold: 18.0,
        drift_confidence: 0.999,
        drift_run: 6,
        interval: garwood_interval,
    }
}

/// Outcome of one scripted event after the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// Hour the event was scripted at.
    pub at_hour: u32,
    /// Event kind label.
    pub kind: &'static str,
    /// Event value label, when parameterised.
    pub value: Option<&'static str>,
    /// Whether the event was large enough that detection is required.
    pub expected: bool,
    /// Analytic relative change in the fused rate this event causes.
    pub expected_magnitude: f64,
    /// Whether an alert was credited to this event.
    pub detected: bool,
    /// Samples between the event and its detection.
    pub detection_delay: Option<u64>,
    /// Post-hoc refined magnitude: mean fused rate after the event
    /// (up to the next event) against the mean before it, minus one.
    pub refined_magnitude: f64,
    /// Kind label of the credited alert.
    pub alert_kind: Option<&'static str>,
}

/// The byte-deterministic outcome of a scenario campaign.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// RNG seed of the campaign.
    pub seed: u64,
    /// Hourly samples taken.
    pub samples: u32,
    /// MC-derived water-pan thermal boost (`None` when the scenario
    /// never uses moderation).
    pub moderation_boost: Option<f64>,
    /// The monitor's first frozen reference rate (counts/s).
    pub baseline_rate: f64,
    /// Mean fused count rate over the whole campaign (counts/s).
    pub fused_mean_rate: f64,
    /// The fused hourly count series.
    pub fused: Vec<u64>,
    /// Every alert the monitor raised, in detection order.
    pub alerts: Vec<Alert>,
    /// Per-event outcomes, in timeline order.
    pub events: Vec<EventOutcome>,
    /// Alerts not credited to any scripted event (false positives).
    pub unmatched_alerts: u32,
    /// Final per-channel health verdicts.
    pub channels: Vec<ChannelHealth>,
    /// Whether the campaign met its conformance contract.
    pub conformant: bool,
}

impl ScenarioReport {
    /// Renders the report as canonical JSON (sorted keys, canonical
    /// numbers) — byte-identical across runs and thread counts. The
    /// fused series itself is omitted to keep reports compact; its mean
    /// rate and every derived statistic are included.
    pub fn to_json(&self) -> String {
        let alerts = self
            .alerts
            .iter()
            .map(|a| {
                Json::Object(vec![
                    ("kind".to_string(), Json::Str(a.kind.label().to_string())),
                    ("onset_index".to_string(), Json::Num(a.onset_index as f64)),
                    (
                        "detected_index".to_string(),
                        Json::Num(a.detected_index as f64),
                    ),
                    ("ts_nanos".to_string(), Json::Num(a.ts_nanos as f64)),
                    ("baseline_rate".to_string(), Json::Num(a.baseline_rate)),
                    ("observed_rate".to_string(), Json::Num(a.observed_rate)),
                    ("magnitude".to_string(), Json::Num(a.magnitude)),
                ])
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Object(vec![
                    ("at_hour".to_string(), Json::Num(e.at_hour as f64)),
                    ("kind".to_string(), Json::Str(e.kind.to_string())),
                    (
                        "value".to_string(),
                        e.value.map_or(Json::Null, |v| Json::Str(v.to_string())),
                    ),
                    ("expected".to_string(), Json::Bool(e.expected)),
                    (
                        "expected_magnitude".to_string(),
                        Json::Num(e.expected_magnitude),
                    ),
                    ("detected".to_string(), Json::Bool(e.detected)),
                    (
                        "detection_delay".to_string(),
                        e.detection_delay
                            .map_or(Json::Null, |d| Json::Num(d as f64)),
                    ),
                    (
                        "refined_magnitude".to_string(),
                        Json::Num(e.refined_magnitude),
                    ),
                    (
                        "alert_kind".to_string(),
                        e.alert_kind.map_or(Json::Null, |k| Json::Str(k.to_string())),
                    ),
                ])
            })
            .collect();
        let channels = self
            .channels
            .iter()
            .map(|c| {
                Json::Object(vec![
                    ("channel".to_string(), Json::Num(c.channel as f64)),
                    (
                        "verdict".to_string(),
                        Json::Str(c.verdict.label().to_string()),
                    ),
                    (
                        "flagged_hour".to_string(),
                        c.flagged_hour.map_or(Json::Null, |h| Json::Num(h as f64)),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("samples".to_string(), Json::Num(self.samples as f64)),
            (
                "moderation_boost".to_string(),
                self.moderation_boost.map_or(Json::Null, Json::Num),
            ),
            ("baseline_rate".to_string(), Json::Num(self.baseline_rate)),
            (
                "fused_mean_rate".to_string(),
                Json::Num(self.fused_mean_rate),
            ),
            ("alerts".to_string(), Json::Array(alerts)),
            ("events".to_string(), Json::Array(events)),
            (
                "unmatched_alerts".to_string(),
                Json::Num(self.unmatched_alerts as f64),
            ),
            ("channels".to_string(), Json::Array(channels)),
            ("conformant".to_string(), Json::Bool(self.conformant)),
        ])
        .to_canonical_string()
    }
}

/// Drives one scenario campaign to completion.
#[derive(Debug)]
pub struct ScenarioRunner {
    scenario: Scenario,
    seed: u64,
    clock: VirtualClock,
}

impl ScenarioRunner {
    /// Prepares a runner for `scenario` at `seed`. The runner owns a
    /// private [`VirtualClock`] starting at zero — it never reads (or
    /// installs) the process-wide clock.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        Self {
            scenario,
            seed,
            clock: VirtualClock::starting_at(0),
        }
    }

    /// Runs the campaign and produces the report.
    pub fn run(self) -> ScenarioReport {
        let scenario = self.scenario;
        let seed = self.seed;

        // The water pan's thermal boost is derived by Monte-Carlo
        // moderation once per campaign (same seed derivation as the
        // Figure-6 experiment), only when the scenario needs it.
        let moderation_boost = scenario
            .uses_moderation()
            .then(|| WaterBoxExperiment::paper_configuration().derive_boost(seed ^ 0x5ca1e));

        let mut array = DetectorArray::new(seed, scenario.channels, &scenario.faults);
        let mut monitor = Monitor::new(scenario_monitor_config());

        // Mutable campaign state, advanced by the scripted events.
        let mut location = scenario.location;
        let mut weather = scenario.weather;
        let mut surroundings = scenario.surroundings;
        let mut moderation = scenario.moderation;
        let mut beam = false;
        let mut env = scenario.initial_environment();

        let mut fused = Vec::with_capacity(scenario.duration_hours as usize);
        let mut levels = Vec::with_capacity(scenario.duration_hours as usize);
        let mut alerts = Vec::new();
        let mut baseline_rate = 0.0;
        let mut baseline_captured = false;
        let mut next_event = 0usize;

        for hour in 0..scenario.duration_hours {
            while let Some(event) = scenario.events.get(next_event) {
                if event.at_hour != hour {
                    break;
                }
                match event.kind {
                    EventKind::Weather(w) => weather = w,
                    EventKind::Surroundings(s) => surroundings = s,
                    EventKind::Move(l) => location = l,
                    EventKind::ModerationOn => moderation = true,
                    EventKind::ModerationOff => moderation = false,
                    EventKind::BeamOn => beam = true,
                    EventKind::BeamOff => beam = false,
                }
                env = tn_environment::Environment::new(
                    location.location(),
                    weather,
                    surroundings.surroundings(),
                );
                next_event += 1;
            }
            let scale = thermal_scale(moderation, beam, moderation_boost);
            let sample = array.sample_hour(hour, &env, scale);
            levels.push(env.thermal_flux().value() * scale);
            alerts.extend(monitor.observe(self.clock.now_nanos(), sample.fused, 3600.0));
            fused.push(sample.fused);
            self.clock.advance(HOUR_NANOS);
            if !baseline_captured && monitor.armed() {
                baseline_rate = monitor.reference_rate();
                baseline_captured = true;
            }
        }

        let events = credit_alerts(&scenario, &levels, &fused, &alerts);
        let matched = events.iter().filter(|e| e.detected).count();
        let unmatched_alerts = (alerts.len() - matched) as u32;
        let channels = array.health();
        let conformant = is_conformant(&scenario, &events, unmatched_alerts, &channels);
        let samples = scenario.duration_hours;
        let fused_mean_rate =
            fused.iter().sum::<u64>() as f64 / (samples as f64 * 3600.0);

        ScenarioReport {
            scenario,
            seed,
            samples,
            moderation_boost,
            baseline_rate,
            fused_mean_rate,
            fused,
            alerts,
            events,
            unmatched_alerts,
            channels,
            conformant,
        }
    }
}

/// Runs `scenario` at `seed` — the one-call form of [`ScenarioRunner`].
pub fn run_scenario(scenario: &Scenario, seed: u64) -> ScenarioReport {
    ScenarioRunner::new(scenario.clone(), seed).run()
}

/// The thermal-flux multiplier of the toggled modifiers.
fn thermal_scale(moderation: bool, beam: bool, boost: Option<f64>) -> f64 {
    let mut scale = 1.0;
    if moderation {
        scale *= 1.0 + boost.unwrap_or(0.0);
    }
    if beam {
        scale *= BEAM_THERMAL_FACTOR;
    }
    scale
}

/// Credits alerts to scripted events: an alert belongs to the first
/// still-uncredited event whose hour it detects within
/// [`MAX_ONSET_DELAY`], whose onset estimate it does not precede by more
/// than [`ONSET_SLACK`], and whose direction it matches.
fn credit_alerts(
    scenario: &Scenario,
    levels: &[f64],
    fused: &[u64],
    alerts: &[Alert],
) -> Vec<EventOutcome> {
    let mut claimed = vec![false; alerts.len()];
    let mut outcomes = Vec::with_capacity(scenario.events.len());
    for (i, event) in scenario.events.iter().enumerate() {
        let t = event.at_hour as usize;
        let expected_magnitude = if levels[t - 1] > 0.0 {
            levels[t] / levels[t - 1] - 1.0
        } else {
            0.0
        };
        let expected = expected_magnitude.abs() >= MAGNITUDE_FLOOR;

        let prev = if i == 0 {
            0
        } else {
            scenario.events[i - 1].at_hour as usize
        };
        let next = scenario
            .events
            .get(i + 1)
            .map_or(fused.len(), |e| e.at_hour as usize);
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        let pre = mean(&fused[prev..t]);
        let post = mean(&fused[t..next]);
        let refined_magnitude = if pre > 0.0 { post / pre - 1.0 } else { 0.0 };

        let mut detected = false;
        let mut detection_delay = None;
        let mut alert_kind = None;
        for (j, alert) in alerts.iter().enumerate() {
            if claimed[j] {
                continue;
            }
            let at = event.at_hour as u64;
            let in_window = alert.detected_index >= at
                && alert.detected_index <= at + MAX_ONSET_DELAY
                && alert.onset_index + ONSET_SLACK >= at;
            let direction = match alert.kind {
                AlertKind::StepUp => expected_magnitude > 0.0,
                AlertKind::StepDown => expected_magnitude < 0.0,
                AlertKind::Drift => alert.magnitude * expected_magnitude > 0.0,
            };
            if in_window && direction {
                claimed[j] = true;
                detected = true;
                detection_delay = Some(alert.detected_index - at);
                alert_kind = Some(alert.kind.label());
                break;
            }
        }

        outcomes.push(EventOutcome {
            at_hour: event.at_hour,
            kind: event.kind.label(),
            value: event.kind.value_label(),
            expected,
            expected_magnitude,
            detected,
            detection_delay,
            refined_magnitude,
            alert_kind,
        });
    }
    outcomes
}

/// The verdict a fault model is expected to earn.
fn expected_verdict(kind: FaultKind) -> ChannelVerdict {
    match kind {
        FaultKind::StuckAt => ChannelVerdict::Stuck,
        FaultKind::BiasDrift { .. } => ChannelVerdict::Drift,
        FaultKind::Dropout => ChannelVerdict::Dropout,
        FaultKind::Garbage => ChannelVerdict::Garbage,
    }
}

/// The conformance contract: every expected event detected in time, no
/// uncredited alerts, every faulted channel flagged with the matching
/// verdict after its fault hour, every clean channel healthy.
fn is_conformant(
    scenario: &Scenario,
    events: &[EventOutcome],
    unmatched_alerts: u32,
    channels: &[ChannelHealth],
) -> bool {
    if unmatched_alerts > 0 {
        return false;
    }
    if events.iter().any(|e| e.expected && !e.detected) {
        return false;
    }
    channels.iter().all(|health| {
        match scenario.faults.iter().find(|f| f.channel == health.channel) {
            Some(fault) => {
                health.verdict == expected_verdict(fault.kind)
                    && health.flagged_hour.is_some_and(|h| h >= fault.at_hour)
            }
            None => health.verdict == ChannelVerdict::Healthy,
        }
    })
}

/// The names of the built-in scenarios, in their canonical order.
pub fn builtin_names() -> [&'static str; 5] {
    [
        "normal",
        "rainstorm-at-leadville",
        "water-pan",
        "loss-of-moderation",
        "detector-channel-drift",
    ]
}

/// Looks a built-in scenario up by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    let text = match name {
        // A stationary campaign in the NYC reference machine room: ten
        // days, no events, no faults. Conformance = zero alerts.
        "normal" => {
            r#"{
                "name": "normal",
                "duration_hours": 240,
                "channels": 3,
                "location": "new-york",
                "weather": "sunny",
                "surroundings": "machine-room"
            }"#
        }
        // A thunderstorm front crosses the high-altitude site: thermal
        // flux doubles for three days, then clears (paper §VI: storm
        // thermals run 2x the sunny-day field).
        "rainstorm-at-leadville" => {
            r#"{
                "name": "rainstorm-at-leadville",
                "duration_hours": 264,
                "channels": 3,
                "location": "leadville",
                "weather": "sunny",
                "surroundings": "concrete-floor",
                "events": [
                    {"at_hour": 120, "kind": "weather", "value": "thunderstorm"},
                    {"at_hour": 192, "kind": "weather", "value": "sunny"}
                ]
            }"#
        }
        // The paper's Figure-6 experiment: one Tin-II counts for four
        // days, then two inches of water go over it for three more, and
        // the thermal rate steps up by the MC-derived boost.
        "water-pan" => {
            r#"{
                "name": "water-pan",
                "duration_hours": 168,
                "channels": 1,
                "location": "los-alamos",
                "weather": "sunny",
                "surroundings": "concrete-floor",
                "events": [
                    {"at_hour": 96, "kind": "moderation_on"}
                ]
            }"#
        }
        // The paper's Figure-6 water-pan step in reverse: the campaign
        // starts with the moderator in place and loses it at hour 120 —
        // a step *down* by the MC-derived boost.
        "loss-of-moderation" => {
            r#"{
                "name": "loss-of-moderation",
                "duration_hours": 216,
                "channels": 3,
                "location": "los-alamos",
                "weather": "sunny",
                "surroundings": "concrete-floor",
                "moderation": true,
                "events": [
                    {"at_hour": 120, "kind": "moderation_off"}
                ]
            }"#
        }
        // A quiet campaign whose channel 1 develops a slow gain drift:
        // the environment never changes, so conformance = zero alerts
        // AND the drifting channel flagged while voting holds the fused
        // rate.
        "detector-channel-drift" => {
            r#"{
                "name": "detector-channel-drift",
                "duration_hours": 240,
                "channels": 3,
                "location": "new-york",
                "weather": "sunny",
                "surroundings": "machine-room",
                "faults": [
                    {"at_hour": 96, "channel": 1, "kind": "bias_drift", "per_hour": 0.01}
                ]
            }"#
        }
        _ => return None,
    };
    Some(Scenario::from_json(text).expect("built-in scenarios validate"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
    }

    #[test]
    fn garbage_readings_reaching_the_monitor_do_not_panic() {
        // A garbage fault on a one-channel array (which `from_json` now
        // rejects, but the type still allows) feeds its 1e12 readings to
        // the monitor unvoted; their Garwood bounds used to panic.
        quiet();
        let mut scenario = Scenario::from_json(
            r#"{"name":"garbage","duration_hours":72,"location":"new-york","channels":1}"#,
        )
        .unwrap();
        scenario.faults.push(crate::format::ChannelFault {
            channel: 0,
            at_hour: 24,
            kind: FaultKind::Garbage,
        });
        let report = run_scenario(&scenario, 2020);
        assert_eq!(report.samples, 72);
        assert!(
            report.fused.iter().any(|&c| c >= 1_000_000_000_000),
            "{:?}",
            report.fused
        );
    }

    #[test]
    fn builtin_lookup_is_total_over_the_name_list() {
        for name in builtin_names() {
            let s = builtin(name).expect(name);
            assert_eq!(s.name, name);
        }
        assert!(builtin("no-such-scenario").is_none());
    }

    #[test]
    fn normal_scenario_raises_no_alerts_and_conforms() {
        quiet();
        let report = run_scenario(&builtin("normal").unwrap(), 2020);
        assert!(report.alerts.is_empty(), "{:?}", report.alerts);
        assert_eq!(report.unmatched_alerts, 0);
        assert!(report.conformant);
        assert!(report.moderation_boost.is_none());
        assert!(report.baseline_rate > 0.0);
    }

    #[test]
    fn rainstorm_events_are_both_detected_in_time() {
        quiet();
        let report = run_scenario(&builtin("rainstorm-at-leadville").unwrap(), 2020);
        assert_eq!(report.events.len(), 2);
        for event in &report.events {
            assert!(event.expected, "storm steps are large: {event:?}");
            assert!(event.detected, "{event:?}");
            assert!(event.detection_delay.unwrap() <= MAX_ONSET_DELAY);
        }
        assert!(report.events[0].expected_magnitude > 0.5);
        assert!(report.events[1].expected_magnitude < -0.3);
        assert!(report.conformant, "alerts: {:?}", report.alerts);
    }

    #[test]
    fn loss_of_moderation_steps_down_by_the_derived_boost() {
        quiet();
        let report = run_scenario(&builtin("loss-of-moderation").unwrap(), 2020);
        let boost = report.moderation_boost.expect("uses moderation");
        assert!(boost > 0.1, "boost {boost}");
        let event = &report.events[0];
        let expected = 1.0 / (1.0 + boost) - 1.0;
        assert!((event.expected_magnitude - expected).abs() < 1e-9);
        assert!(event.detected, "{event:?}");
        assert_eq!(event.alert_kind, Some("step_down"));
        assert!(
            (event.refined_magnitude - expected).abs() < 0.05,
            "refined {} vs expected {expected}",
            event.refined_magnitude
        );
        assert!(report.conformant);
    }

    #[test]
    fn water_pan_steps_up_by_the_derived_boost() {
        quiet();
        let scenario = builtin("water-pan").unwrap();
        let report = run_scenario(&scenario, 2020);
        assert_eq!(report.samples, 7 * 24);
        let boost = report.moderation_boost.expect("uses moderation");
        assert!(boost > 0.1, "boost {boost}");
        assert_eq!(
            report.alerts.len(),
            1,
            "exactly one alert: {:?}",
            report.alerts
        );
        let step_at = scenario.events[0].at_hour;
        assert!(
            report.alerts[0].onset_index >= u64::from(step_at),
            "no alert may touch the pre-step segment: {:?}",
            report.alerts[0]
        );
        let event = &report.events[0];
        assert!((event.expected_magnitude - boost).abs() < 1e-9);
        assert_eq!(event.alert_kind, Some("step_up"));
        assert!(
            event.detection_delay.expect("detected") <= 12,
            "detection within a dozen post-step samples: {event:?}"
        );
        assert!(
            (event.refined_magnitude - event.expected_magnitude).abs() <= 0.05,
            "refined {} vs expected {}",
            event.refined_magnitude,
            event.expected_magnitude
        );
        assert!(report.conformant);

        // The stated baseline is the reference the monitor froze before
        // the step, not one it re-learned after the alert.
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let baseline = 3600.0 * report.baseline_rate;
        let pre = mean(&report.fused[..step_at as usize]);
        let post = mean(&report.fused[step_at as usize..]);
        assert!(
            (baseline / pre - 1.0).abs() <= 0.03,
            "baseline {baseline} counts/h vs pre-step mean {pre}"
        );
        assert!(
            post - baseline >= 0.5 * boost * baseline,
            "baseline {baseline} must sit below the post-step mean {post} by half the boost {boost}"
        );
    }

    #[test]
    fn stationary_tinii_counts_raise_no_alerts_across_seeds() {
        quiet();
        let env = builtin("water-pan").unwrap().initial_environment();
        let det = tn_detector::TinII::new();
        for seed in 0..20u64 {
            let mut rng = tn_rng::Rng::seed_from_u64(0xB0A7 + seed);
            let series = det.count_series(
                &env,
                tn_physics::units::Seconds::from_days(10.0),
                1.0,
                0.0,
                &mut rng,
            );
            let mut monitor = Monitor::new(scenario_monitor_config());
            let alerts: Vec<Alert> = series
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    let count = s.bare.saturating_sub(s.shielded);
                    monitor.observe(i as u64 * HOUR_NANOS, count, 3600.0)
                })
                .collect();
            assert!(
                alerts.is_empty(),
                "seed {seed}: spurious {:?}",
                alerts[0].kind
            );
        }
    }

    #[test]
    fn channel_drift_is_flagged_while_the_fused_rate_holds() {
        quiet();
        let seed = 2020;
        let drift = run_scenario(&builtin("detector-channel-drift").unwrap(), seed);
        let normal = run_scenario(&builtin("normal").unwrap(), seed);
        assert!(drift.alerts.is_empty(), "{:?}", drift.alerts);
        let flagged = &drift.channels[1];
        assert_eq!(flagged.verdict, ChannelVerdict::Drift);
        assert!(flagged.flagged_hour.unwrap() >= 96);
        assert!(drift.conformant);
        let ratio = drift.fused_mean_rate / normal.fused_mean_rate;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "2oo3 voting must hold the fused rate: ratio {ratio}"
        );
    }

    #[test]
    fn reports_are_byte_deterministic() {
        quiet();
        for name in builtin_names() {
            let scenario = builtin(name).unwrap();
            let a = run_scenario(&scenario, 7).to_json();
            let b = run_scenario(&scenario, 7).to_json();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn report_json_parses_and_embeds_the_scenario() {
        quiet();
        let report = run_scenario(&builtin("normal").unwrap(), 3);
        let doc = tn_core::json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("scenario").and_then(|s| s.get("name")).and_then(Json::as_str),
            Some("normal")
        );
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("conformant").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("samples").and_then(Json::as_u64), Some(240));
    }

    #[test]
    fn beam_toggle_is_a_detectable_square_pulse() {
        quiet();
        let text = r#"{
            "name": "beam-pulse",
            "duration_hours": 240,
            "location": "new-york",
            "events": [
                {"at_hour": 100, "kind": "beam_on"},
                {"at_hour": 180, "kind": "beam_off"}
            ]
        }"#;
        let scenario = Scenario::from_json(text).unwrap();
        let report = run_scenario(&scenario, 2020);
        assert!(report.events.iter().all(|e| e.detected), "{:?}", report.events);
        assert!((report.events[0].expected_magnitude - 3.0).abs() < 1e-9);
        assert!(report.conformant);
    }
}
