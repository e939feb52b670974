//! End-to-end integration tests: each paper artefact re-derived through
//! the public API at the reproduction ledger's seed and study profile.
//! The paper's numbers, their precision and intervals live in one place,
//! the blessed ledger (`tests/golden/reproduction.json`): every value
//! here must equal its ledger row's, and every such row must pass its
//! `paper` check (a deviation states its cause).

use std::sync::OnceLock;
use thermal_neutrons::core_api as tn;
use tn::environment::{Environment, Location, Surroundings, Weather};
use tn::physics::spectrum::{chipir_reference, rotax_reference};
use tn::physics::EnergyBand;
use tn::{Pipeline, PipelineConfig};
use tn_verify::paper::{blessed_row, SEED};

/// Catalog devices and the row-id key the ledger files them under.
const DEVICES: [(&str, &str); 8] = [
    ("Intel Xeon Phi", "xeon_phi"),
    ("NVIDIA K20", "k20"),
    ("NVIDIA TitanX", "titanx"),
    ("NVIDIA TitanV", "titanv"),
    ("AMD APU (CPU)", "apu_cpu"),
    ("AMD APU (GPU)", "apu_gpu"),
    ("AMD APU (CPU+GPU)", "apu_hybrid"),
    ("Xilinx Zynq-7000", "zynq"),
];

/// The ledger's study: the thorough profile at its seed, once per process.
fn study() -> &'static tn::StudyReport {
    static STUDY: OnceLock<tn::StudyReport> = OnceLock::new();
    STUDY.get_or_init(|| Pipeline::new(PipelineConfig::thorough()).seed(SEED).run())
}

/// `value` is the blessed row `id`'s, and that row passes its check.
fn matches_ledger(id: &str, value: f64) {
    let (blessed, _, passes) = blessed_row(id);
    assert_eq!(value, blessed, "{id}: derived {value} vs ledger {blessed}");
    assert!(passes, "{id}: ledger row fails its paper check");
}

#[test]
fn fig2_beamline_fluxes_match_publication() {
    let (chipir, rotax) = (chipir_reference(), rotax_reference());
    matches_ledger(
        "fig2.chipir_he_flux",
        chipir.flux_in(EnergyBand::HighEnergy).value(),
    );
    matches_ledger(
        "fig2.chipir_thermal_flux",
        chipir.flux_in(EnergyBand::Thermal).value(),
    );
    matches_ledger(
        "fig2.rotax_thermal_flux",
        rotax.flux_in(EnergyBand::Thermal).value(),
    );
}

#[test]
fn fig5_sdc_ratios_reproduce_within_forty_percent() {
    for (name, key) in DEVICES {
        let ratio = study().device(name).unwrap().sdc_ratio();
        matches_ledger(&format!("fig5.sdc.{key}"), ratio);
    }
}

#[test]
fn fig5_due_ordering_matches_paper() {
    // Every device that DUEs, ranked by the paper's DUE ratio: the
    // derived ratios must rank them the same way.
    let mut ranked: Vec<(f64, f64)> = DEVICES[..7]
        .iter()
        .map(|(name, key)| {
            let ratio = study().device(name).unwrap().due_ratio();
            let id = format!("fig5.due.{key}");
            matches_ledger(&id, ratio);
            (blessed_row(&id).1 .0, ratio)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in ranked.windows(2) {
        assert!(pair[0].1 < pair[1].1, "paper order broken: {ranked:?}");
    }
    let zynq = study().device("Xilinx Zynq-7000").unwrap();
    let dues = zynq
        .chipir
        .iter()
        .chain(&zynq.rotax)
        .map(|c| c.due.count as f64);
    matches_ledger("fig5.due.zynq", dues.sum());
}

#[test]
fn fig1_apu_thermal_sensitivity_is_not_negligible() {
    for (name, key) in &DEVICES[4..] {
        let device = study().device(name).unwrap();
        for (code, ratio) in device.per_workload_sdc_ratios() {
            matches_ledger(&format!("fig1.{key}.{}", code.to_lowercase()), ratio);
        }
    }
}

#[test]
fn fit_anchor_points_land_in_paper_bands() {
    let share = |name: &str, sdc: bool, location: Location| {
        let room = Surroundings::hpc_machine_room();
        let env = Environment::new(location, Weather::Sunny, room);
        let device = study().device(name).unwrap();
        let fit = if sdc {
            device.sdc_fit(&env)
        } else {
            device.due_fit(&env)
        };
        fit.thermal_share()
    };
    matches_ledger(
        "exta.phi_sdc_nyc",
        share("Intel Xeon Phi", true, Location::new_york()),
    );
    matches_ledger(
        "exta.phi_due_leadville",
        share("Intel Xeon Phi", false, Location::leadville()),
    );
    matches_ledger(
        "exta.k20_sdc_leadville",
        share("NVIDIA K20", true, Location::leadville()),
    );
    matches_ledger(
        "exta.apu_hybrid_due_leadville",
        share("AMD APU (CPU+GPU)", false, Location::leadville()),
    );
    let max = DEVICES
        .iter()
        .flat_map(|(name, _)| [true, false].map(|sdc| share(name, sdc, Location::leadville())))
        .fold(0.0, f64::max);
    matches_ledger("exta.max_share", max);
}

#[test]
fn fig6_water_box_step_matches_paper_band() {
    // The paper's Tin-II campaign is the built-in `water-pan` scenario.
    let pan = tn_scenario::builtin("water-pan").expect("built-in scenario");
    let report = tn_scenario::run_scenario(&pan, SEED);
    let boost = report.moderation_boost.unwrap_or(f64::NAN);
    matches_ledger("fig6.derived_boost", boost);
    let step = report
        .events
        .first()
        .map_or(f64::NAN, |e| e.refined_magnitude);
    matches_ledger("fig6.observed_step", step);
}

#[test]
fn fig4_ddr_structure_holds_end_to_end() {
    use tn::devices::ddr::{classify, CorrectLoop, DdrModule};
    use tn::devices::FlipDirection::{OneToZero, ZeroToOne};
    use tn::physics::constants::ROTAX_THERMAL_FLUX;
    use tn::physics::units::Seconds;
    let run = |module: DdrModule, hours: f64| {
        let mut tester = CorrectLoop::new(module, SEED);
        classify(&tester.run(
            ROTAX_THERMAL_FLUX,
            Seconds::from_hours(hours),
            Seconds(10.0),
        ))
    };
    let (c3, c4) = (run(DdrModule::ddr3(), 2.0), run(DdrModule::ddr4(), 20.0));
    matches_ledger("fig4.ddr3_one_to_zero", c3.direction_fraction(OneToZero));
    matches_ledger("fig4.ddr4_zero_to_one", c4.direction_fraction(ZeroToOne));
    matches_ledger("fig4.ddr3_permanent", c3.permanent_fraction());
    matches_ledger("fig4.ddr4_permanent", c4.permanent_fraction());
    matches_ledger("fig4.ddr3_sefi", c3.sefi as f64);
    matches_ledger("fig4.ddr4_sefi", c4.sefi as f64);
}
