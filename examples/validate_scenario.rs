//! Validates a scenario report artifact written by
//! `thermal-neutrons scenario --name ... --out`: parses it with the
//! in-tree JSON parser and checks the shape plus the per-campaign
//! outcome the CI gate relies on.
//!
//! ```text
//! cargo run --example validate_scenario -- SCENARIO_normal.json
//! ```
//!
//! Exits non-zero (with a message on stderr) on malformed JSON, any
//! missing field, a malformed alert/event/channel entry, a report that
//! is not conformant, or a built-in campaign that does not show its
//! expected outcome (e.g. "normal" must be alert-free, the
//! "water-pan" step must land as one `step_up` within ±0.05 of the
//! Monte-Carlo-derived boost, the "loss-of-moderation" step as a
//! `step_down`).

use std::process::ExitCode;
use thermal_neutrons::core_api::json;

/// Absolute tolerance of the water pan's refined step magnitude against
/// the MC expectation.
const WATER_PAN_TOL: f64 = 0.05;

fn finite(doc: &json::Json, key: &str) -> Result<f64, String> {
    let value = doc
        .get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if !value.is_finite() {
        return Err(format!("field {key:?} is not finite: {value}"));
    }
    Ok(value)
}

fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
    let name = doc
        .get("scenario")
        .and_then(|s| s.get("name"))
        .and_then(|v| v.as_str())
        .ok_or("missing embedded scenario document with a \"name\"")?
        .to_string();
    doc.get("seed")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field \"seed\"")?;
    let samples = doc
        .get("samples")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field \"samples\"")?;
    if samples == 0 {
        return Err("report covers zero samples".into());
    }
    if finite(&doc, "baseline_rate")? <= 0.0 {
        return Err("non-positive baseline_rate".into());
    }
    if finite(&doc, "fused_mean_rate")? <= 0.0 {
        return Err("non-positive fused_mean_rate".into());
    }
    let unmatched = doc
        .get("unmatched_alerts")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field \"unmatched_alerts\"")?;
    if unmatched != 0 {
        return Err(format!("{unmatched} alert(s) credited to no scripted event"));
    }
    if doc.get("conformant").and_then(|v| v.as_bool()) != Some(true) {
        return Err("report is not conformant".into());
    }

    let alerts = doc
        .get("alerts")
        .and_then(|v| v.as_array())
        .ok_or("missing array field \"alerts\"")?;
    for (i, alert) in alerts.iter().enumerate() {
        let kind = alert
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("alert[{i}]: missing string field \"kind\""))?;
        if !["step_up", "step_down", "drift"].contains(&kind) {
            return Err(format!("alert[{i}]: unknown kind {kind:?}"));
        }
        let onset = alert
            .get("onset_index")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("alert[{i}]: missing integer field \"onset_index\""))?;
        let detected = alert
            .get("detected_index")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("alert[{i}]: missing integer field \"detected_index\""))?;
        if detected < onset {
            return Err(format!(
                "alert[{i}]: detected_index {detected} precedes onset_index {onset}"
            ));
        }
    }

    let events = doc
        .get("events")
        .and_then(|v| v.as_array())
        .ok_or("missing array field \"events\"")?;
    let mut detected_kinds = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let at = event
            .get("at_hour")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("event[{i}]: missing integer field \"at_hour\""))?;
        if at >= samples {
            return Err(format!("event[{i}]: at_hour {at} outside the campaign"));
        }
        let expected = event
            .get("expected")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| format!("event[{i}]: missing bool field \"expected\""))?;
        let detected = event
            .get("detected")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| format!("event[{i}]: missing bool field \"detected\""))?;
        if expected && !detected {
            return Err(format!("event[{i}] at hour {at} was missed"));
        }
        if detected {
            detected_kinds.push(
                event
                    .get("alert_kind")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event[{i}]: detected but no \"alert_kind\""))?
                    .to_string(),
            );
        }
    }

    let channels = doc
        .get("channels")
        .and_then(|v| v.as_array())
        .ok_or("missing array field \"channels\"")?;
    if channels.is_empty() {
        return Err("report carries no channel verdicts".into());
    }
    let mut drifting = Vec::new();
    for (i, channel) in channels.iter().enumerate() {
        let id = channel
            .get("channel")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("channel[{i}]: missing integer field \"channel\""))?;
        let verdict = channel
            .get("verdict")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("channel[{i}]: missing string field \"verdict\""))?;
        if !["healthy", "stuck", "drift", "dropout", "garbage"].contains(&verdict) {
            return Err(format!("channel[{i}]: unknown verdict {verdict:?}"));
        }
        if verdict != "healthy" {
            drifting.push((id, verdict.to_string()));
        }
    }

    // Per-campaign gates for the five built-ins; a custom scenario only
    // gets the generic shape checks above.
    match name.as_str() {
        "normal" if !alerts.is_empty() || !events.is_empty() || !drifting.is_empty() => {
            return Err("\"normal\" must be alert-, event- and fault-free".into());
        }
        "rainstorm-at-leadville" if detected_kinds.len() != 2 => {
            return Err(format!(
                "\"{name}\" must credit both weather steps, credited {}",
                detected_kinds.len()
            ));
        }
        "water-pan" => {
            if finite(&doc, "moderation_boost")? <= 0.0 {
                return Err("moderated campaign without a positive MC boost".into());
            }
            if alerts.len() != 1 || detected_kinds != ["step_up"] {
                return Err(format!(
                    "\"{name}\" must credit exactly one step_up, got {} alert(s) and {detected_kinds:?}",
                    alerts.len()
                ));
            }
            if alerts[0].get("kind").and_then(|v| v.as_str()) != Some("step_up") {
                return Err("the single alert is not a step_up".into());
            }
            let event = &events[0];
            let step_at = event.get("at_hour").and_then(|v| v.as_u64()).unwrap();
            let onset = alerts[0]
                .get("onset_index")
                .and_then(|v| v.as_u64())
                .unwrap();
            if onset < step_at {
                return Err(format!(
                    "step_up onset {onset} precedes the water going on at hour {step_at}"
                ));
            }
            let refined = finite(event, "refined_magnitude")?;
            let expected = finite(event, "expected_magnitude")?;
            let error = (refined - expected).abs();
            if error > WATER_PAN_TOL {
                return Err(format!(
                    "refined magnitude {refined:.4} misses the MC expectation \
                     {expected:.4} by {error:.4} (tol {WATER_PAN_TOL})"
                ));
            }
        }
        "loss-of-moderation" => {
            if finite(&doc, "moderation_boost")? <= 0.0 {
                return Err("moderated campaign without a positive MC boost".into());
            }
            if detected_kinds != ["step_down"] {
                return Err(format!(
                    "\"{name}\" must credit exactly one step_down, got {detected_kinds:?}"
                ));
            }
        }
        "detector-channel-drift" => {
            if !alerts.is_empty() {
                return Err("voting failed: the faulted channel leaked an alert".into());
            }
            if drifting != [(1, "drift".to_string())] {
                return Err(format!(
                    "\"{name}\" must flag exactly channel 1 as drift, got {drifting:?}"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SCENARIO_report.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("validate_scenario: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(()) => {
            println!("validate_scenario: {path} OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_scenario: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}
