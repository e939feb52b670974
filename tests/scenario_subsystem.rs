//! End-to-end coverage of the tn-scenario subsystem from the workspace
//! root: the five named built-in campaigns as conformance fixtures,
//! byte-determinism of their reports across repeated runs and transport
//! thread counts, 2oo3 voting tolerance under a faulted channel, and
//! parser round-trip guarantees the CI gate depends on.

use thermal_neutrons::core_api as tn;
use tn_scenario::{
    builtin, builtin_names, run_scenario, ChannelVerdict, Scenario, MAX_ONSET_DELAY,
};

fn quiet() {
    tn::obs::set_level(Some(tn::obs::Level::Error));
}

#[test]
fn all_builtin_campaigns_are_conformant_at_the_paper_seed() {
    quiet();
    for name in builtin_names() {
        let scenario = builtin(name).expect("built-in scenario");
        let report = run_scenario(&scenario, 2020);
        assert!(report.conformant, "{name} must be conformant at seed 2020");
        assert_eq!(report.unmatched_alerts, 0, "{name} raised uncredited alerts");
        for e in &report.events {
            if e.expected {
                assert!(e.detected, "{name}: event at hour {} missed", e.at_hour);
                let delay = e.detection_delay.expect("detected events carry a delay");
                assert!(
                    delay <= MAX_ONSET_DELAY,
                    "{name}: event at hour {} detected after {delay}h",
                    e.at_hour
                );
            }
        }
    }
}

#[test]
fn normal_campaign_stays_quiet_and_healthy() {
    quiet();
    let report = run_scenario(&builtin("normal").expect("built-in"), 2020);
    assert!(report.alerts.is_empty(), "stationary campaign raised alerts");
    assert!(report.moderation_boost.is_none(), "no water pan scripted");
    assert!(report
        .channels
        .iter()
        .all(|c| c.verdict == ChannelVerdict::Healthy && c.flagged_hour.is_none()));
}

#[test]
fn drift_campaign_flags_the_faulted_channel_and_voting_holds_the_rate() {
    quiet();
    let faulted = builtin("detector-channel-drift").expect("built-in");
    let fault = &faulted.faults[0];
    let dirty = run_scenario(&faulted, 2020);
    assert!(dirty.alerts.is_empty(), "voting must keep the monitor quiet");
    let bad = dirty
        .channels
        .iter()
        .find(|c| c.channel == fault.channel)
        .expect("faulted channel present");
    assert_eq!(bad.verdict, ChannelVerdict::Drift);
    assert!(bad.flagged_hour.expect("flagged") >= fault.at_hour);

    let clean = run_scenario(&builtin("normal").expect("built-in"), 2020);
    let ratio = dirty.fused_mean_rate / clean.fused_mean_rate;
    assert!(
        (ratio - 1.0).abs() <= 0.05,
        "2oo3 voting let the fused rate drift: ratio {ratio:.4}"
    );
}

/// One test owns every mutation of the process-wide transport thread
/// default, so concurrently-running tests in this binary never observe
/// a transient value they didn't set. The loss-of-moderation campaign
/// is the sharpest probe: its report embeds a Monte-Carlo-derived
/// moderation boost, so any thread-count dependence in the transport
/// tallies would surface here as a byte diff.
#[test]
fn reports_are_byte_identical_across_runs_and_thread_counts() {
    use tn::transport::{default_threads, set_default_threads};
    quiet();

    let baselines: Vec<(String, String)> = builtin_names()
        .iter()
        .map(|name| {
            let scenario = builtin(name).expect("built-in");
            (name.to_string(), run_scenario(&scenario, 2020).to_json())
        })
        .collect();
    for (name, baseline) in &baselines {
        let again = run_scenario(&builtin(name).expect("built-in"), 2020).to_json();
        assert_eq!(&again, baseline, "{name} report differs across runs");
    }
    let moderated = builtin("loss-of-moderation").expect("built-in");
    let moderated_baseline = &baselines
        .iter()
        .find(|(n, _)| n == "loss-of-moderation")
        .expect("present")
        .1;
    for threads in [4, 8] {
        set_default_threads(threads);
        assert_eq!(default_threads(), threads);
        let report = run_scenario(&moderated, 2020).to_json();
        assert_eq!(
            &report, moderated_baseline,
            "loss-of-moderation report differs at {threads} transport threads"
        );
    }
    set_default_threads(1);
}

#[test]
fn builtin_documents_round_trip_byte_exact_through_the_parser() {
    for name in builtin_names() {
        let scenario = builtin(name).expect("built-in");
        let text = scenario.to_json();
        let reparsed = Scenario::from_json(&text)
            .unwrap_or_else(|e| panic!("{name} does not re-parse: {e}"));
        assert_eq!(reparsed, scenario, "{name} round-trip changed the value");
        assert_eq!(reparsed.to_json(), text, "{name} round-trip changed the bytes");
    }
}

#[test]
fn malformed_documents_are_structured_errors_not_panics() {
    for (doc, fragment) in [
        ("", "invalid JSON"),
        ("[]", "$"),
        (r#"{"name":"x?","duration_hours":48}"#, "$.name"),
        (r#"{"name":"x","duration_hours":3}"#, "$.duration_hours"),
        (
            r#"{"name":"x","duration_hours":48,"location":"leadville","events":[{"at_hour":0,"kind":"beam_on"}]}"#,
            "$.events[0]",
        ),
        (
            r#"{"name":"x","duration_hours":48,"location":"leadville","faults":[{"at_hour":4,"channel":9,"kind":"dropout"}]}"#,
            "$.faults[0]",
        ),
    ] {
        let err = Scenario::from_json(doc).expect_err(doc).to_string();
        assert!(err.contains(fragment), "`{doc}` → `{err}`");
    }
}
