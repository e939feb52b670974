//! Layer 3 — the golden-snapshot harness.
//!
//! Blessed JSON artefacts live under `tests/golden/` at the workspace
//! root: the full quick-profile [`StudyReport`], the `/v1/fit` and
//! `/v1/cross-sections` response bodies, the "loss-of-moderation"
//! scenario campaign report and the reproduction ledger
//! ([`crate::paper`]), all pinned to [`GOLDEN_SEED`] regardless of the
//! CLI seed so the blessed files stay valid for every `verify`
//! invocation.
//!
//! Comparison is field-by-field with per-field tolerance classes:
//! strings, booleans, nulls and count-like numbers (`seed`, `count`,
//! `nodes`, `histories`, …) must match **exactly**; every other number
//! (rates, fluxes, FIT values) within a relative tolerance of 10⁻⁹ —
//! tight enough to catch any algorithmic change, loose enough to forgive
//! a re-ordered but mathematically identical float reduction.
//!
//! Workflow: `TN_BLESS=1 thermal-neutrons verify` regenerates the files;
//! `TN_GOLDEN_DIR` redirects reads/writes (used by CI's bless-drift
//! check, which regenerates into a temp dir and diffs against the
//! committed files).
//!
//! [`StudyReport`]: tn_core::StudyReport

use crate::report::CheckResult;
use std::path::PathBuf;
use tn_core::{Json, Pipeline, PipelineConfig};
use tn_server::http::{RequestParser, Response};
use tn_server::{router, AppState};

/// All golden artefacts are generated at this seed, independent of the
/// seed the rest of the verify run uses.
pub const GOLDEN_SEED: u64 = 2020;

/// Relative tolerance for rate-like numeric fields.
pub const RELATIVE_TOL: f64 = 1e-9;

/// Per-field comparison class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-for-bit equality (counts, ids, names, flags).
    Exact,
    /// `|a − b| ≤ tol · max(|a|, |b|)` (rates, fluxes, fitted values).
    Relative(f64),
}

/// Key fragments whose numeric values are counts or identifiers and must
/// therefore match exactly.
const EXACT_KEY_FRAGMENTS: [&str; 15] = [
    "seed",
    "count",
    "nodes",
    "histories",
    "altitude",
    "runs",
    "errors",
    "workers",
    // Scenario-report counters and indices ("at_hour" rather than the
    // broad "hour": rate keys like "per_hour" must stay Relative).
    "at_hour",
    "flagged_hour",
    "duration_hours",
    "index",
    "channel",
    "delay",
    "unmatched",
];

/// Classifies the tolerance for a leaf reached through `key`.
pub fn tolerance_for(key: &str, value: &Json) -> Tolerance {
    match value {
        Json::Num(_) => {
            let lower = key.to_ascii_lowercase();
            if EXACT_KEY_FRAGMENTS.iter().any(|f| lower.contains(f)) {
                Tolerance::Exact
            } else {
                Tolerance::Relative(RELATIVE_TOL)
            }
        }
        _ => Tolerance::Exact,
    }
}

/// One field-level divergence between golden and actual documents.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// Dotted path of the diverging field.
    pub path: String,
    /// What differed.
    pub detail: String,
}

/// Compares two parsed documents field-by-field.
///
/// Returns the number of leaf fields compared and every divergence.
pub fn compare(golden: &Json, actual: &Json) -> (u64, Vec<FieldDiff>) {
    let mut diffs = Vec::new();
    let mut fields = 0;
    compare_at("$", "", golden, actual, &mut fields, &mut diffs);
    (fields, diffs)
}

fn compare_at(
    path: &str,
    key: &str,
    golden: &Json,
    actual: &Json,
    fields: &mut u64,
    diffs: &mut Vec<FieldDiff>,
) {
    match (golden, actual) {
        (Json::Object(g), Json::Object(a)) => {
            for (k, gv) in g {
                match a.iter().find(|(ak, _)| ak == k) {
                    Some((_, av)) => {
                        compare_at(&format!("{path}.{k}"), k, gv, av, fields, diffs)
                    }
                    None => diffs.push(FieldDiff {
                        path: format!("{path}.{k}"),
                        detail: "missing from actual".into(),
                    }),
                }
            }
            for (k, _) in a {
                if !g.iter().any(|(gk, _)| gk == k) {
                    diffs.push(FieldDiff {
                        path: format!("{path}.{k}"),
                        detail: "not present in golden".into(),
                    });
                }
            }
        }
        (Json::Array(g), Json::Array(a)) => {
            if g.len() != a.len() {
                diffs.push(FieldDiff {
                    path: path.into(),
                    detail: format!("array length {} vs {}", g.len(), a.len()),
                });
                return;
            }
            for (i, (gv, av)) in g.iter().zip(a.iter()).enumerate() {
                compare_at(&format!("{path}[{i}]"), key, gv, av, fields, diffs);
            }
        }
        (g, a) => {
            *fields += 1;
            if !leaf_matches(key, g, a) {
                diffs.push(FieldDiff {
                    path: path.into(),
                    detail: format!(
                        "{} != {} ({:?})",
                        g.to_canonical_string(),
                        a.to_canonical_string(),
                        tolerance_for(key, g)
                    ),
                });
            }
        }
    }
}

fn leaf_matches(key: &str, golden: &Json, actual: &Json) -> bool {
    match (tolerance_for(key, golden), golden, actual) {
        (Tolerance::Relative(tol), Json::Num(g), Json::Num(a)) => {
            let scale = g.abs().max(a.abs());
            scale == 0.0 || (g - a).abs() <= tol * scale
        }
        _ => golden == actual,
    }
}

/// The committed golden directory (workspace `tests/golden/`), overridable
/// at runtime via `TN_GOLDEN_DIR`.
pub fn golden_dir() -> PathBuf {
    match std::env::var("TN_GOLDEN_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")),
    }
}

/// True when `TN_BLESS=1` asks this run to regenerate the artefacts.
pub fn bless_requested() -> bool {
    std::env::var("TN_BLESS").map(|v| v == "1").unwrap_or(false)
}

/// Generates the five golden artefacts at [`GOLDEN_SEED`].
///
/// Endpoint bodies come from [`router::handle`] on requests built by the
/// server's own [`RequestParser`] (no sockets). Only bodies are pinned,
/// never the per-request `x-request-id` header, so the artefacts are
/// pure functions of the seed.
pub fn render_artefacts() -> Vec<(&'static str, String)> {
    let study = Pipeline::new(PipelineConfig::quick())
        .seed(GOLDEN_SEED)
        .run();
    let state = AppState::new(GOLDEN_SEED, 16, 1);
    let post = |path: &str, body: &str| -> Response {
        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        let request = parser
            .try_next()
            .expect("golden request is well-formed HTTP")
            .expect("golden request is complete");
        router::handle(&state, &request)
    };
    let fit = post(
        "/v1/fit",
        r#"{"device":"Intel Xeon Phi","location":"new_york","quick":true}"#,
    );
    assert_eq!(fit.status, 200, "fit golden request failed: {}", fit.body_text());
    let xs = post("/v1/cross-sections", r#"{"device":"NVIDIA K20"}"#);
    assert_eq!(
        xs.status,
        200,
        "cross-sections golden request failed: {}",
        xs.body_text()
    );
    let scenario = tn_scenario::builtin("loss-of-moderation").expect("built-in scenario");
    let scenario_report = tn_scenario::run_scenario(&scenario, GOLDEN_SEED);
    vec![
        ("study_report.json", study.to_json()),
        ("fit_response.json", fit.body_text()),
        ("cross_sections_response.json", xs.body_text()),
        (
            "scenario_loss_of_moderation.json",
            scenario_report.to_json(),
        ),
        ("reproduction.json", crate::paper::ledger().to_json()),
    ]
}

/// Runs the golden suite: blesses when `TN_BLESS=1`, otherwise compares
/// every artefact against its committed snapshot.
pub fn run_suite() -> Vec<CheckResult> {
    let dir = golden_dir();
    let bless = bless_requested();
    render_artefacts()
        .into_iter()
        .map(|(name, rendered)| {
            let path = dir.join(name);
            let check_name = format!("golden.{}", name.trim_end_matches(".json"));
            if bless {
                if let Err(e) = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, &rendered))
                {
                    return CheckResult::from_statistic(
                        "golden",
                        check_name,
                        1.0,
                        0.0,
                        0,
                        format!("bless failed: {e}"),
                    );
                }
                return CheckResult::from_statistic(
                    "golden",
                    check_name,
                    0.0,
                    0.0,
                    0,
                    format!("blessed {}", path.display()),
                );
            }
            let blessed = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    return CheckResult::from_statistic(
                        "golden",
                        check_name,
                        1.0,
                        0.0,
                        0,
                        format!(
                            "cannot read {} ({e}); regenerate with TN_BLESS=1",
                            path.display()
                        ),
                    );
                }
            };
            compare_texts(check_name, &blessed, &rendered)
        })
        .collect()
}

/// Compares a blessed artefact against a freshly rendered one.
pub fn compare_texts(
    check_name: impl Into<String>,
    blessed: &str,
    rendered: &str,
) -> CheckResult {
    let golden = match tn_core::json::parse(blessed) {
        Ok(v) => v,
        Err(e) => {
            return CheckResult::from_statistic(
                "golden",
                check_name,
                1.0,
                0.0,
                0,
                format!("blessed file does not parse: {e:?}"),
            );
        }
    };
    let actual = tn_core::json::parse(rendered).expect("rendered artefact is valid JSON");
    let (fields, diffs) = compare(&golden, &actual);
    let detail = if diffs.is_empty() {
        format!("{fields} fields within tolerance")
    } else {
        let first = &diffs[0];
        format!(
            "{} field(s) diverged, first at {}: {}",
            diffs.len(),
            first.path,
            first.detail
        )
    };
    CheckResult::from_statistic("golden", check_name, diffs.len() as f64, 0.0, fields, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        tn_core::json::parse(s).unwrap()
    }

    #[test]
    fn tolerance_classes_by_key_and_type() {
        assert_eq!(tolerance_for("seed", &Json::Num(7.0)), Tolerance::Exact);
        assert_eq!(tolerance_for("error_count", &Json::Num(3.0)), Tolerance::Exact);
        assert_eq!(
            tolerance_for("thermal_fit", &Json::Num(1.5)),
            Tolerance::Relative(RELATIVE_TOL)
        );
        assert_eq!(
            tolerance_for("anything", &Json::Str("x".into())),
            Tolerance::Exact
        );
    }

    #[test]
    fn identical_documents_compare_clean() {
        let doc = parse(r#"{"seed":2,"rate":1.25,"tags":["a","b"],"sub":{"x":true}}"#);
        let (fields, diffs) = compare(&doc, &doc);
        assert_eq!(diffs, vec![]);
        assert_eq!(fields, 5);
    }

    #[test]
    fn relative_tolerance_forgives_tiny_float_drift() {
        let golden = parse(r#"{"rate":1.0}"#);
        let ok = parse(&format!(r#"{{"rate":{}}}"#, 1.0 + 1e-12));
        let bad = parse(r#"{"rate":1.0001}"#);
        assert!(compare(&golden, &ok).1.is_empty());
        assert!(!compare(&golden, &bad).1.is_empty());
    }

    #[test]
    fn exact_fields_reject_off_by_one() {
        let golden = parse(r#"{"seed":2020}"#);
        let bad = parse(r#"{"seed":2021}"#);
        let (_, diffs) = compare(&golden, &bad);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "$.seed");
    }

    #[test]
    fn missing_and_extra_keys_are_reported() {
        let golden = parse(r#"{"a":1,"b":2}"#);
        let actual = parse(r#"{"a":1,"c":3}"#);
        let (_, diffs) = compare(&golden, &actual);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"$.b"), "{diffs:?}");
        assert!(paths.contains(&"$.c"), "{diffs:?}");
    }

    #[test]
    fn array_length_mismatch_is_one_diff() {
        let golden = parse(r#"[1,2,3]"#);
        let actual = parse(r#"[1,2]"#);
        let (_, diffs) = compare(&golden, &actual);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("array length"));
    }

    #[test]
    fn artefact_rendering_is_deterministic() {
        let a = render_artefacts();
        let b = render_artefacts();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for (name, text) in &a {
            assert!(
                tn_core::json::parse(text).is_ok(),
                "{name} must be valid JSON"
            );
        }
    }

    #[test]
    fn compare_texts_flags_a_seeded_divergence() {
        let r = compare_texts("golden.toy", r#"{"rate":2.0}"#, r#"{"rate":2.5}"#);
        assert!(!r.passed);
        assert!(r.detail.contains("$.rate"), "{r:?}");
    }
}
