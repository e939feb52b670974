//! Validates a `VERIFY_report.json` artifact written by
//! `thermal-neutrons verify`: parses it with the in-tree JSON parser and
//! checks the shape the CI gate relies on.
//!
//! ```text
//! cargo run --example validate_verify -- VERIFY_report.json
//! ```
//!
//! Exits non-zero (with a message on stderr) on malformed JSON, any
//! missing field, an empty check list, a missing self-test suite, or a
//! report whose top-level `passed` disagrees with its per-check flags —
//! so `scripts/ci.sh` can gate on it directly after `verify --quick`.

use std::process::ExitCode;
use thermal_neutrons::core_api::json;

/// Suites every report must contain at least one check from.
const REQUIRED_SUITES: &[&str] = &[
    "stat", "oracle", "golden", "watch", "scenario", "paper", "selftest",
];

fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
    doc.get("seed")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field \"seed\"")?;
    doc.get("quick")
        .and_then(|v| v.as_bool())
        .ok_or("missing bool field \"quick\"")?;
    let passed = doc
        .get("passed")
        .and_then(|v| v.as_bool())
        .ok_or("missing bool field \"passed\"")?;
    let checks = doc
        .get("checks")
        .and_then(|v| v.as_array())
        .ok_or("missing array field \"checks\"")?;
    if checks.is_empty() {
        return Err("empty \"checks\" array".into());
    }

    let mut all_passed = true;
    let mut suites_seen: Vec<&str> = Vec::new();
    for (i, check) in checks.iter().enumerate() {
        let suite = check
            .get("suite")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("check[{i}]: missing string field \"suite\""))?;
        if !suites_seen.contains(&suite) {
            suites_seen.push(suite);
        }
        check
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("check[{i}]: missing string field \"name\""))?;
        let check_passed = check
            .get("passed")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| format!("check[{i}]: missing bool field \"passed\""))?;
        all_passed &= check_passed;
        for key in ["statistic", "threshold"] {
            let value = check
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("check[{i}]: missing numeric field {key:?}"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "check[{i}]: field {key:?} is not a finite non-negative number: {value}"
                ));
            }
        }
        check
            .get("cases")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("check[{i}]: missing integer field \"cases\""))?;
        check
            .get("detail")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("check[{i}]: missing string field \"detail\""))?;
    }

    if passed != all_passed {
        return Err(format!(
            "top-level passed={passed} disagrees with per-check flags (all passed: {all_passed})"
        ));
    }
    for suite in REQUIRED_SUITES {
        if !suites_seen.contains(suite) {
            return Err(format!("no checks from required suite {suite:?}"));
        }
    }
    if !passed {
        return Err("report records failing checks".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "VERIFY_report.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("validate_verify: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(()) => {
            println!("validate_verify: {path} OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_verify: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}
