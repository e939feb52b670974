//! # tn-verify — correctness tooling for the thermal-neutron stack
//!
//! A std-only subsystem with three layers, surfaced by the
//! `thermal-neutrons verify [--quick]` CLI subcommand:
//!
//! 1. **Statistical test kit** ([`stat`]) — chi-square and
//!    Kolmogorov–Smirnov goodness-of-fit over tn-rng-sampled histograms
//!    versus analytic PDFs (Maxwellian, Watt tail, 1/E epithermal,
//!    exponential free-flight), plus Poisson counting-coverage checks for
//!    the Tin-II detector and the beamline CI estimator. Fixed seeds and
//!    documented critical values make every verdict deterministic.
//! 2. **Differential oracles** ([`oracle`]) — reusable runners pitting
//!    the transport event kernel against the independent direct
//!    per-history walk and against the closed-form pure-absorber
//!    transmission `exp(-Σ_a·t)`, N-thread sharded tallies against
//!    1-thread, `core::json` write→parse→write against canonical form,
//!    and the precomputed cross-section grid against direct evaluation,
//!    over rng-driven input sweeps rather than single pinned cases.
//! 3. **Golden snapshots** ([`golden`]) — blessed JSON artefacts under
//!    `tests/golden/` (full `StudyReport`, `/v1/fit` and
//!    `/v1/cross-sections` bodies) compared field-by-field with
//!    per-field tolerance classes and regenerated via `TN_BLESS=1`.
//! 4. **Watch monitor checks** ([`watch`]) — false-positive and
//!    detection-power sweeps for the tn-watch streaming change-point
//!    monitor, plus the end-to-end water-pan scenario magnitude check.
//! 5. **Scenario campaign checks** ([`scenario`]) — the built-in
//!    tn-scenario campaigns as conformance fixtures: stationary runs
//!    stay quiet across a seed sweep, every scripted step is credited
//!    with bounded delay, the loss-of-moderation magnitude matches the
//!    MC expectation, and 2oo3 voting holds the fused rate under a
//!    faulted channel.
//!
//! A built-in **self-test** layer injects two known bugs — a Gamma(1)
//! Maxwellian sampler and a ×1.01 cached-cross-section divergence — and
//! passes only when the corresponding layers *detect* them, so every
//! `verify` run also proves the harness has teeth.
//!
//! The whole run is instrumented with tn-obs spans (`verify`,
//! `verify.stat`, …) and reduces to a [`VerifyReport`]: a pass/fail
//! table for humans and a byte-deterministic `VERIFY_report.json` for
//! machines.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod golden;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod stat;
pub mod watch;

pub use report::{CheckResult, VerifyReport};

use tn_obs as obs;

/// What to run and at which statistics profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOptions {
    /// Base seed for the statistical and oracle sweeps (golden artefacts
    /// stay pinned to [`golden::GOLDEN_SEED`]).
    pub seed: u64,
    /// Reduced sample counts (`verify --quick`).
    pub quick: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            seed: 2020,
            quick: false,
        }
    }
}

/// Runs all four suites and collects the report.
pub fn run_all(options: VerifyOptions) -> VerifyReport {
    let _root = obs::span("verify");
    let (stat_cfg, oracle_cfg, watch_cfg, scenario_cfg) = if options.quick {
        (
            stat::StatConfig::quick(),
            oracle::OracleConfig::quick(),
            watch::WatchConfig::quick(),
            scenario::ScenarioConfig::quick(),
        )
    } else {
        (
            stat::StatConfig::full(),
            oracle::OracleConfig::full(),
            watch::WatchConfig::full(),
            scenario::ScenarioConfig::full(),
        )
    };
    let mut checks = Vec::new();
    {
        let _s = obs::span("verify.stat");
        checks.extend(stat::run_suite(options.seed, stat_cfg));
    }
    {
        let _s = obs::span("verify.oracle");
        checks.extend(oracle::run_suite(options.seed, oracle_cfg));
    }
    {
        let _s = obs::span("verify.golden");
        checks.extend(golden::run_suite());
    }
    {
        let _s = obs::span("verify.watch");
        checks.extend(watch::run_suite(options.seed, watch_cfg));
    }
    {
        let _s = obs::span("verify.scenario");
        checks.extend(scenario::run_suite(options.seed, scenario_cfg));
    }
    {
        let _s = obs::span("verify.selftest");
        checks.extend(selftest_suite(options.seed));
    }
    VerifyReport {
        seed: options.seed,
        quick: options.quick,
        checks,
    }
}

/// The injected-bug self-test: each check passes only when the harness
/// *rejects* a deliberately broken implementation.
pub fn selftest_suite(seed: u64) -> Vec<CheckResult> {
    let mut checks = Vec::new();

    // A Gamma(1) sampler posing as the Gamma(2) Maxwellian flux spectrum
    // must fail the chi-square GOF.
    let gof = stat::chi_square_gof(
        "selftest",
        "maxwellian.injected_bug",
        &mut tn_rng::Rng::seed_from_u64(seed ^ 0x5e1f),
        4_000,
        stat::buggy_maxwellian_sampler(),
        stat::maxwellian_cdf(stat::room_kt_ev()),
        32,
    );
    checks.push(invert(
        gof,
        "spectral-sampling bug detected by the GOF layer",
        "GOF layer FAILED to reject a Gamma(1) Maxwellian sampler",
    ));

    // A ×1.01 divergence in the cached cross-section grid above 1 keV
    // must breach the agreement oracle's 1e-3 bound.
    let xs = oracle::xs_agreement_check(
        "xs.injected_bug",
        seed ^ 0xd1f,
        2,
        oracle::buggy_xs_evaluator,
    );
    checks.push(invert(
        xs,
        "cached-XS divergence detected by the oracle layer",
        "oracle layer FAILED to flag a 1% cached-XS divergence",
    ));
    checks
}

/// Inverts a deliberately-sabotaged check: the self-test passes exactly
/// when the underlying check failed.
fn invert(inner: CheckResult, ok: &str, bad: &str) -> CheckResult {
    CheckResult {
        suite: "selftest",
        name: inner.name,
        passed: !inner.passed,
        statistic: inner.statistic,
        threshold: inner.threshold,
        cases: inner.cases,
        detail: if inner.passed { bad.into() } else { ok.into() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_detects_both_injected_bugs() {
        let checks = selftest_suite(2020);
        assert_eq!(checks.len(), 2);
        for c in &checks {
            assert!(c.passed, "{c:?}");
            assert_eq!(c.suite, "selftest");
            // The underlying sabotage blew past its threshold.
            assert!(c.statistic > c.threshold, "{c:?}");
        }
    }

    #[test]
    fn quick_run_is_byte_deterministic() {
        // Skip golden-file reads (they may not be blessed in every
        // checkout context) by comparing the other three layers.
        let strip = |mut r: VerifyReport| {
            r.checks.retain(|c| c.suite != "golden");
            r
        };
        let a = strip(run_all(VerifyOptions {
            seed: 2020,
            quick: true,
        }));
        let b = strip(run_all(VerifyOptions {
            seed: 2020,
            quick: true,
        }));
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.passed(), "{}", a.render_table());
    }
}
