//! End-to-end coverage of the tn-verify subsystem from the workspace
//! root: report determinism, golden-file freshness against the blessed
//! copies in `tests/golden/`, and report-shape guarantees the CI gate
//! (`examples/validate_verify.rs`) depends on.

use thermal_neutrons::core_api::json;
use tn_verify::{golden, run_all, VerifyOptions};

#[test]
fn quick_report_is_byte_identical_across_runs() {
    let opts = VerifyOptions {
        seed: 2020,
        quick: true,
    };
    let a = run_all(opts).to_json();
    let b = run_all(opts).to_json();
    assert_eq!(a, b, "same seed must produce a byte-identical report");
}

#[test]
fn blessed_goldens_match_freshly_rendered_artefacts() {
    // Renders every golden artefact from scratch and compares it against
    // the blessed copy with the same tolerance classes `verify` uses.
    // Failing here means someone changed an output format without
    // re-blessing (`TN_BLESS=1 cargo run -- verify`).
    for (file, rendered) in golden::render_artefacts() {
        let path = golden::golden_dir().join(file);
        let blessed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read blessed golden {}: {e}", path.display()));
        let check = golden::compare_texts(file, &blessed, &rendered);
        assert!(
            check.passed,
            "golden {file} is stale: {} (re-bless with TN_BLESS=1)",
            check.detail
        );
    }
}

#[test]
fn report_parses_and_selftest_suite_is_present_and_green() {
    let report = run_all(VerifyOptions {
        seed: 7,
        quick: true,
    });
    let doc = json::parse(&report.to_json()).expect("report must be valid JSON");
    assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(7));
    assert_eq!(doc.get("quick").and_then(|v| v.as_bool()), Some(true));
    let checks = doc
        .get("checks")
        .and_then(|v| v.as_array())
        .expect("checks array");
    let selftests: Vec<_> = checks
        .iter()
        .filter(|c| c.get("suite").and_then(|v| v.as_str()) == Some("selftest"))
        .collect();
    assert!(
        selftests.len() >= 2,
        "expected both injected-bug self-tests, found {}",
        selftests.len()
    );
    for check in selftests {
        assert_eq!(
            check.get("passed").and_then(|v| v.as_bool()),
            Some(true),
            "self-test failed: the layer did not detect its injected bug ({:?})",
            check.get("name").and_then(|v| v.as_str())
        );
    }
}

#[test]
fn full_and_quick_reports_cover_the_same_check_set() {
    // `--quick` shrinks sample counts, never the check inventory: CI's
    // quick gate must exercise every check the full run does.
    let names = |quick: bool| -> Vec<String> {
        run_all(VerifyOptions { seed: 2020, quick })
            .checks
            .iter()
            .map(|c| format!("{}/{}", c.suite, c.name))
            .collect()
    };
    assert_eq!(names(true), names(false));
}

#[test]
fn every_paper_check_passes_and_the_known_deviations_state_their_cause() {
    use tn_verify::paper::{ledger, run_suite, Verdict};
    let failed: Vec<_> = run_suite().into_iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "failing paper checks: {failed:#?}");
    let row = |id: &str| {
        ledger()
            .rows
            .iter()
            .find(|r| r.id() == id)
            .unwrap_or_else(|| panic!("no ledger row {id}"))
    };
    for id in [
        "fig5.due.apu_cpu",
        "fig5.due.apu_gpu",
        "fig5.due.apu_hybrid",
    ] {
        assert_eq!(row(id).verdict, Verdict::Deviation, "{id}");
        assert!(
            row(id)
                .cause
                .is_some_and(|c| c.contains("Campaign::expected_rates")),
            "{id} must state the datapath-DUE cause"
        );
    }
    for id in [
        "fig5.sdc.xeon_phi",
        "fig5.sdc.zynq",
        "extb.ddr3_secded",
        "extb.ddr4_secded",
    ] {
        assert_eq!(row(id).verdict, Verdict::Consistent, "{id}");
    }
    for id in [
        "fig4.sigma_ratio",
        "exte.mc_concrete",
        "exte.mc_water",
        "exte.mc_room",
    ] {
        assert_eq!(row(id).verdict, Verdict::Calibrated, "{id}");
    }
}

#[test]
fn experiments_tables_render_from_the_committed_ledger() {
    // EXPERIMENTS.md's tables are the rendering of the blessed ledger:
    // editing a number by hand, or re-blessing the ledger without
    // re-rendering, fails here. `TN_BLESS=1` rewrites the tables.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let committed = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let rendered = tn_verify::paper::splice_tables(&committed, tn_verify::paper::blessed())
        .unwrap_or_else(|e| panic!("EXPERIMENTS.md blocks: {e}"));
    if golden::bless_requested() {
        std::fs::write(&path, &rendered).expect("rewrite EXPERIMENTS.md");
        return;
    }
    assert!(
        rendered == committed,
        "EXPERIMENTS.md tables differ from the committed ledger; re-render with \
         TN_BLESS=1 cargo test --test verify_subsystem experiments_tables"
    );
}
