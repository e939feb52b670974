//! Layer 2 — differential oracles.
//!
//! Reusable runners that pit two implementations of the same contract
//! against each other over tn-rng-driven input sweeps, instead of single
//! pinned cases:
//!
//! * [`kernel_vs_direct_check`] — the production event kernel
//!   ([`Transport::run_beam`]) against the independent per-history
//!   oracle ([`Transport::run_history_direct`]). The two are
//!   statistically equivalent, not draw-for-draw identical, so agreement
//!   is judged by binomial z-scores on escape/absorption fractions.
//! * [`absorber_closed_form_check`] — the event kernel against a closed
//!   form rather than another implementation: a pure absorber transmits
//!   a normally-incident neutron with probability exactly
//!   `exp(-Σ_a(E)·t)`, scored by a one-sample binomial z.
//! * [`sharding_check`] — N-thread sharded tallies against 1-thread.
//!   These must be *byte-identical* for any thread count (the PR 3
//!   determinism contract), including partial final shards.
//! * [`weighted_vs_analog_check`] — the variance-reduced weighted kernel
//!   ([`Transport::run_beam_weighted`]) against the analog batch kernel.
//!   Implicit capture, splitting and roulette must leave every expected
//!   tally fraction unbiased, so agreement is again judged by binomial
//!   z-scores (conservative for the weighted side, whose per-channel
//!   variance the analog binomial bound overestimates).
//! * [`json_roundtrip_check`] — `core::json` write→parse→write over
//!   randomly generated documents: parsing a canonical string and
//!   re-canonicalising must be a fixed point.
//! * [`xs_agreement_check`] — the precomputed [`MaterialXs`] grid against
//!   direct [`Material::sigma_total`] evaluation. The cached evaluator is
//!   injected as a closure so the self-test can prove a divergence (a
//!   ×1.01 perturbation above 1 keV) is caught.

use crate::report::CheckResult;
use tn_core::Json;
use tn_physics::units::{Barns, Energy, Length, NumberDensity};
use tn_physics::{Constituent, Material, MaterialXs, Nuclide};
use tn_rng::Rng;
use tn_transport::{
    Neutron, SlabStack, Tally, Transport, TransportConfig, VarianceReduction,
};

/// Sweep sizes for the oracle suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// Input cases per oracle.
    pub cases: usize,
    /// Histories per transport case and kernel.
    pub histories: u64,
}

impl OracleConfig {
    /// Full-statistics profile.
    pub fn full() -> Self {
        Self {
            cases: 8,
            histories: 8_000,
        }
    }

    /// Reduced profile for `verify --quick`.
    pub fn quick() -> Self {
        Self {
            cases: 4,
            histories: 3_000,
        }
    }
}

/// Runs one oracle over `cases` rng-generated inputs.
///
/// `divergence` maps each input to a non-negative disagreement measure;
/// the check's statistic is the worst divergence seen and it passes when
/// that stays within `threshold`.
#[allow(clippy::too_many_arguments)] // mirrors CheckResult::from_statistic plus the sweep closures
pub fn run_oracle<I>(
    suite: &'static str,
    name: impl Into<String>,
    seed: u64,
    cases: usize,
    mut generate: impl FnMut(&mut Rng) -> I,
    mut divergence: impl FnMut(&I) -> f64,
    threshold: f64,
    detail: impl Into<String>,
) -> CheckResult {
    let mut rng = Rng::seed_from_u64(seed);
    let mut worst = 0.0f64;
    for _ in 0..cases {
        let input = generate(&mut rng);
        worst = worst.max(divergence(&input));
    }
    CheckResult::from_statistic(suite, name, worst, threshold, cases as u64, detail)
}

/// The materials the transport sweeps draw from.
fn sweep_materials() -> Vec<Material> {
    vec![
        Material::water(),
        Material::concrete(),
        Material::borated_polyethylene(),
        Material::air(),
    ]
}

/// One random transport configuration: material, thickness, energy.
#[derive(Debug, Clone)]
pub struct TransportCase {
    /// The slab material.
    pub material: Material,
    /// Slab thickness in cm.
    pub thickness_cm: f64,
    /// Incident energy in eV (log-uniform).
    pub energy_ev: f64,
}

/// Draws a transport case: material from the reference set, thickness
/// 1–15 cm, energy log-uniform over 10 meV – 10 MeV.
pub fn gen_transport_case(rng: &mut Rng) -> TransportCase {
    let materials = sweep_materials();
    let material = materials[rng.gen_range(0..materials.len())].clone();
    let thickness_cm = 1.0 + 14.0 * rng.gen_f64();
    let (llo, lhi) = (1e-2f64.ln(), 1e7f64.ln());
    let energy_ev = (llo + (lhi - llo) * rng.gen_f64()).exp();
    TransportCase {
        material,
        thickness_cm,
        energy_ev,
    }
}

fn binomial_z(p1: f64, p2: f64, n: f64) -> f64 {
    let pool = 0.5 * (p1 + p2);
    let var = pool * (1.0 - pool) * 2.0 / n;
    if var <= 0.0 {
        if p1 == p2 {
            0.0
        } else {
            f64::MAX
        }
    } else {
        (p1 - p2).abs() / var.sqrt()
    }
}

/// Event kernel vs direct oracle: worst binomial z-score across
/// transmitted / absorbed / thermal-escape fractions over the sweep.
pub fn kernel_vs_direct_check(seed: u64, cases: usize, histories: u64) -> CheckResult {
    run_oracle(
        "oracle",
        "transport.kernel_vs_direct",
        seed,
        cases,
        gen_transport_case,
        |case| {
            let stack = SlabStack::single(case.material.clone(), Length(case.thickness_cm));
            let t = Transport::new(stack);
            let e = Energy(case.energy_ev);
            // Independent streams: the kernel's shard substreams fork
            // from one seed and the direct walk draws from another, so
            // the two never share draws and cannot correlate spuriously.
            let kernel = t.run_beam(e, histories, seed ^ 0xbe11);
            let mut direct = Tally::default();
            let mut rng = Rng::seed_from_u64(seed ^ 0xd1ec7);
            for _ in 0..histories {
                direct.record(t.run_history_direct(Neutron::incident(e), &mut rng));
            }
            let n = histories as f64;
            [
                (kernel.transmitted_fraction(), direct.transmitted_fraction()),
                (kernel.absorbed_fraction(), direct.absorbed_fraction()),
                (
                    kernel.thermal_escape_fraction(),
                    direct.thermal_escape_fraction(),
                ),
            ]
            .iter()
            .map(|&(a, b)| binomial_z(a, b, n))
            .fold(0.0, f64::max)
        },
        // 5σ per comparison; with ≲ 24 frozen comparisons a real
        // divergence (see the self-test) sits far beyond this.
        5.0,
        "binomial z on escape/absorption fractions, independent streams",
    )
}

/// A slab material with one nuclide and no elastic channel: every
/// collision absorbs, so a neutron crosses only on its first flight.
fn pure_absorber() -> Material {
    Material::new(
        "pure absorber",
        vec![Constituent {
            nuclide: Nuclide {
                elastic: Barns(0.0),
                ..Nuclide::B10
            },
            density: NumberDensity(1e21),
        }],
    )
}

/// The closed-form Σ_a the production check expects: direct 1/v
/// evaluation from the material data, never the [`MaterialXs`] grid the
/// kernel reads.
pub fn closed_form_sigma_a(material: &Material, e: Energy) -> f64 {
    material.sigma_absorb(e)
}

/// Pure-absorber transmission vs `exp(-Σ_a(E)·t)`: worst one-sample
/// binomial z of the analog transmitted fraction over the sweep.
///
/// Cases alternate between energies below the 25.3 meV thermal floor
/// (2–25.3 meV, the kernel's thermal-walk path) and above it (25.3 meV –
/// 2 MeV, the flight event), each through a slab 0.2–3 mean free paths
/// thick. `sigma_a` supplies the expected Σ_a and is injected so the
/// self-test can sabotage it; production passes [`closed_form_sigma_a`].
pub fn absorber_closed_form_check(
    name: impl Into<String>,
    seed: u64,
    cases: usize,
    histories: u64,
    sigma_a: impl Fn(&Material, Energy) -> f64,
) -> CheckResult {
    let absorber = pure_absorber();
    let mut below_floor = false;
    run_oracle(
        "oracle",
        name,
        seed,
        cases,
        |rng| {
            below_floor = !below_floor;
            let (lo, hi) = if below_floor {
                (2e-3f64, 0.0253f64)
            } else {
                (0.0253, 2e6)
            };
            let e = (lo.ln() + (hi.ln() - lo.ln()) * rng.gen_f64()).exp();
            let mean_free_paths = 0.2 + 2.8 * rng.gen_f64();
            (Energy(e), mean_free_paths)
        },
        |&(e, mean_free_paths)| {
            let thickness = mean_free_paths / absorber.sigma_absorb(e);
            let t = Transport::new(SlabStack::single(absorber.clone(), Length(thickness)));
            let expected = (-sigma_a(&absorber, e) * thickness).exp();
            let got = t
                .run_beam(e, histories, seed ^ 0xab50)
                .transmitted_fraction();
            (got - expected).abs() / (expected * (1.0 - expected) / histories as f64).sqrt()
        },
        5.0,
        "one-sample binomial z of pure-absorber transmission vs exp(-Sigma_a t)",
    )
}

/// Weighted VR kernel vs analog batch kernel: worst binomial z-score
/// across transmitted / absorbed / thermal-escape expectations over the
/// sweep. The kernels draw from independent substreams (they consume
/// different draw counts per history), so this is a statistical
/// equivalence check — it proves the importance-splitting, roulette and
/// implicit-capture machinery is unbiased, not draw-for-draw identical.
pub fn weighted_vs_analog_check(seed: u64, cases: usize, histories: u64) -> CheckResult {
    run_oracle(
        "oracle",
        "transport.weighted_vs_analog",
        seed,
        cases,
        gen_transport_case,
        |case| {
            let stack = SlabStack::single(case.material.clone(), Length(case.thickness_cm));
            let t = Transport::new(stack);
            let e = Energy(case.energy_ev);
            let analog = t.run_beam(e, histories, seed ^ 0xa1a1);
            let weighted =
                t.run_beam_weighted(e, histories, seed ^ 0x3b3b, VarianceReduction::default());
            let n = histories as f64;
            [
                (
                    weighted.transmitted_fraction(),
                    analog.transmitted_fraction(),
                ),
                (weighted.absorbed_fraction(), analog.absorbed_fraction()),
                (
                    weighted.transmitted_thermal_fraction()
                        + weighted.reflected_thermal_fraction(),
                    analog.thermal_escape_fraction(),
                ),
            ]
            .iter()
            .map(|&(a, b)| binomial_z(a, b, n))
            .fold(0.0, f64::max)
        },
        5.0,
        "binomial z on weighted vs analog expectations, independent streams",
    )
}

/// Sharded-tally determinism: 2/4/8-thread runs must equal the 1-thread
/// tally exactly. Statistic = number of diverging thread counts.
pub fn sharding_check(seed: u64, cases: usize) -> CheckResult {
    run_oracle(
        "oracle",
        "transport.sharding",
        seed,
        cases,
        |rng| {
            let case = gen_transport_case(rng);
            // Deliberately not a multiple of the 4096 shard size, so the
            // partial-final-shard path is always exercised.
            let histories = rng.gen_range(5_000u64..20_000);
            (case, histories)
        },
        |(case, histories)| {
            let e = Energy(case.energy_ev);
            let reference = Transport::with_config(
                SlabStack::single(case.material.clone(), Length(case.thickness_cm)),
                TransportConfig::with_threads(1),
            )
            .run_beam(e, *histories, seed);
            [2usize, 4, 8]
                .iter()
                .filter(|&&threads| {
                    let t = Transport::with_config(
                        SlabStack::single(case.material.clone(), Length(case.thickness_cm)),
                        TransportConfig::with_threads(threads),
                    );
                    t.run_beam(e, *histories, seed) != reference
                })
                .count() as f64
        },
        0.0,
        "tallies must be byte-identical for 1/2/4/8 threads",
    )
}

/// Emits a random JSON document as text (depth-limited, covering strings
/// with escapes and control characters, signed numbers, bools, nulls,
/// arrays and objects).
pub fn gen_json_text(rng: &mut Rng) -> String {
    let mut out = String::new();
    push_random_value(rng, 0, &mut out);
    out
}

fn push_random_value(rng: &mut Rng, depth: usize, out: &mut String) {
    use tn_core::json::{push_json_f64, push_json_str};
    let kind = if depth >= 3 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    };
    match kind {
        0 => out.push_str("null"),
        1 => out.push_str(if rng.gen_bool(0.5) { "true" } else { "false" }),
        2 => {
            if rng.gen_bool(0.5) {
                // Integers, including negatives.
                let v = rng.next_u64() as i64 % 1_000_000;
                out.push_str(&v.to_string());
            } else {
                let v = (rng.gen_f64() - 0.5) * 1e6;
                push_json_f64(out, v);
            }
        }
        3 => push_json_str(out, &random_string(rng)),
        4 => {
            out.push('[');
            let n = rng.gen_range(0..4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                push_random_value(rng, depth + 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            let n = rng.gen_range(0..4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                // Distinct keys: canonicalisation sorts and dedups are
                // not part of the contract under test.
                push_json_str(out, &format!("k{i}_{}", random_string(rng)));
                out.push(':');
                push_random_value(rng, depth + 1, out);
            }
            out.push('}');
        }
    }
}

fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '9', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '✓',
    ];
    let len = rng.gen_range(0..8);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// `core::json` write→parse→write fixed point over random documents.
/// Statistic = number of documents whose round-trip diverges.
pub fn json_roundtrip_check(seed: u64, cases: usize) -> CheckResult {
    run_oracle(
        "oracle",
        "json.roundtrip",
        seed,
        cases * 16, // documents are cheap; sweep wider than the MC oracles
        gen_json_text,
        |text| {
            let parsed: Json = match tn_core::json::parse(text) {
                Ok(v) => v,
                Err(_) => return 1.0,
            };
            let canonical = parsed.to_canonical_string();
            match tn_core::json::parse(&canonical) {
                Ok(reparsed) => {
                    if reparsed == parsed && reparsed.to_canonical_string() == canonical {
                        0.0
                    } else {
                        1.0
                    }
                }
                Err(_) => 1.0,
            }
        },
        0.0,
        "canonical form is a write->parse->write fixed point",
    )
}

/// Cached-grid vs direct cross-section evaluation over random energies.
///
/// `cached` is injected so the self-test can perturb it; production use
/// passes [`production_xs_evaluator`].
pub fn xs_agreement_check(
    name: impl Into<String>,
    seed: u64,
    cases: usize,
    cached: impl Fn(&MaterialXs, Energy) -> f64,
) -> CheckResult {
    let materials = sweep_materials();
    let grids: Vec<(Material, MaterialXs)> = materials
        .into_iter()
        .map(|m| {
            let xs = MaterialXs::build(&m);
            (m, xs)
        })
        .collect();
    run_oracle(
        "oracle",
        name,
        seed,
        cases * 64, // pure table lookups: sweep densely
        |rng| {
            let i = rng.gen_range(0..grids.len());
            let (llo, lhi) = (1e-3f64.ln(), 2e7f64.ln());
            let e = (llo + (lhi - llo) * rng.gen_f64()).exp();
            (i, e)
        },
        |&(i, e)| {
            let (material, xs) = &grids[i];
            let energy = Energy(e);
            let direct = material.sigma_total(energy);
            let grid = cached(xs, energy);
            if direct == 0.0 {
                grid.abs()
            } else {
                (grid - direct).abs() / direct
            }
        },
        // The log-energy grid's interpolation error is ≤ 1e-6 at grid
        // points and ≤ 1e-3 at bracket midpoints (test-enforced in
        // tn-physics); over arbitrary energies the envelope is slightly
        // wider. 2.5e-3 covers it while staying 4x below the injected
        // 1 % bug the self-test must catch.
        2.5e-3,
        "relative |cached - direct| Sigma_t over log-uniform energies",
    )
}

/// The real cached evaluator (what production transport uses).
pub fn production_xs_evaluator(xs: &MaterialXs, e: Energy) -> f64 {
    xs.sigma_total(e)
}

/// A deliberately diverged evaluator for the self-test: multiplies the
/// cached value by 1.01 above 1 keV — the class of bug a stale or
/// mis-indexed grid would introduce.
pub fn buggy_xs_evaluator(xs: &MaterialXs, e: Energy) -> f64 {
    let v = xs.sigma_total(e);
    if e.value() > 1e3 {
        v * 1.01
    } else {
        v
    }
}

/// Runs the whole oracle suite.
pub fn run_suite(seed: u64, config: OracleConfig) -> Vec<CheckResult> {
    vec![
        kernel_vs_direct_check(seed ^ 0x01, config.cases, config.histories),
        sharding_check(seed ^ 0x02, config.cases),
        json_roundtrip_check(seed ^ 0x03, config.cases),
        xs_agreement_check(
            "xs.cached_vs_direct",
            seed ^ 0x04,
            config.cases,
            production_xs_evaluator,
        ),
        weighted_vs_analog_check(seed ^ 0x05, config.cases, config.histories),
        // One flight per history is cheap: run 8x the statistics so the
        // check resolves a few-percent Σ_a error.
        absorber_closed_form_check(
            "transport.absorber_closed_form",
            seed ^ 0x06,
            config.cases,
            config.histories * 8,
            closed_form_sigma_a,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_oracle_reports_worst_divergence() {
        let r = run_oracle(
            "oracle",
            "toy",
            1,
            10,
            |rng| rng.gen_range(0..100u64),
            |&v| v as f64 / 100.0,
            2.0,
            "toy",
        );
        assert!(r.passed);
        assert!(r.statistic > 0.0 && r.statistic < 1.0);
        assert_eq!(r.cases, 10);
    }

    #[test]
    fn json_roundtrip_holds_on_random_documents() {
        let r = json_roundtrip_check(2020, 8);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn xs_agreement_holds_for_production_evaluator() {
        let r = xs_agreement_check("xs.cached_vs_direct", 2020, 2, production_xs_evaluator);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn injected_xs_divergence_is_detected() {
        let r = xs_agreement_check("xs.injected_bug", 2020, 2, buggy_xs_evaluator);
        assert!(!r.passed, "1% perturbation must breach the tolerance: {r:?}");
        assert!(r.statistic > 3.0 * r.threshold, "{r:?}");
    }

    #[test]
    fn sharding_is_exact_on_a_small_sweep() {
        let r = sharding_check(7, 1);
        assert!(r.passed, "{r:?}");
        assert_eq!(r.statistic, 0.0);
    }

    #[test]
    fn kernel_vs_direct_agrees_on_a_small_sweep() {
        let r = kernel_vs_direct_check(7, 2, 2_000);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn sabotaged_absorber_expectation_is_detected() {
        let r = absorber_closed_form_check("closed_form.injected_bug", 2020, 4, 24_000, |m, e| {
            1.1 * m.sigma_absorb(e)
        });
        assert!(
            !r.passed,
            "a 10% Sigma_a error must breach the bound: {r:?}"
        );
        assert!(r.statistic > 1.5 * r.threshold, "{r:?}");
    }

    #[test]
    fn weighted_vs_analog_agrees_on_a_small_sweep() {
        let r = weighted_vs_analog_check(7, 2, 4_000);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn generated_json_parses() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..200 {
            let text = gen_json_text(&mut rng);
            assert!(
                tn_core::json::parse(&text).is_ok(),
                "generator must emit valid JSON: {text}"
            );
        }
    }
}
