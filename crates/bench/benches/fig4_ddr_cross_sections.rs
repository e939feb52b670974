//! FIG4 — "DDR3 and DDR4 thermal neutrons cross sections" (paper
//! Figure 4): per-Gbit cross sections by flip direction and error
//! category, plus the two structural findings (DDR4 ≈ 10× less sensitive;
//! opposite dominant flip directions) and the ChipIR abort.

use tn_bench::{header, ratio_row, row};
use tn_devices::ddr::{classify, CorrectLoop, DdrErrorKind, DdrModule, FlipDirection};
use tn_physics::units::{Flux, Seconds};

fn regenerate() {
    header("FIG4", "Figure 4: DDR3/DDR4 thermal cross sections per Gbit");
    let beam = Flux(2.72e6);
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>11} {:>10} {:>10}",
        "module", "transient", "intermit.", "permanent", "SEFI", "1->0", "0->1"
    );
    for module in [DdrModule::ddr3(), DdrModule::ddr4()] {
        println!(
            "{:<8} {:>11.2e} {:>11.2e} {:>11.2e} {:>11.2e} {:>10.1e} {:>10.1e}",
            module.generation().to_string(),
            module.thermal_sigma_for(DdrErrorKind::Transient).value(),
            module.thermal_sigma_for(DdrErrorKind::Intermittent).value(),
            module.thermal_sigma_for(DdrErrorKind::Permanent).value(),
            module.thermal_sigma_for(DdrErrorKind::Sefi).value(),
            module
                .thermal_sigma_in_direction(FlipDirection::OneToZero)
                .value(),
            module
                .thermal_sigma_in_direction(FlipDirection::ZeroToOne)
                .value(),
        );
    }

    // Measured (simulated campaign) generation gap and category mix.
    let mut t3 = CorrectLoop::new(DdrModule::ddr3(), 41);
    let log3 = t3.run(beam, Seconds::from_hours(2.0), Seconds(10.0));
    let c3 = classify(&log3);
    let mut t4 = CorrectLoop::new(DdrModule::ddr4(), 42);
    let log4 = t4.run(beam, Seconds::from_hours(20.0), Seconds(10.0));
    let c4 = classify(&log4);
    let sigma3 = c3.total() as f64 / log3.fluence / 32.0;
    let sigma4 = c4.total() as f64 / log4.fluence / 64.0;
    ratio_row("DDR3/DDR4 sigma per Gbit", 10.0, sigma3 / sigma4, 2.0);
    ratio_row(
        "DDR3 dominant-direction fraction",
        0.96,
        c3.direction_fraction(DdrModule::ddr3().dominant_direction()),
        1.15,
    );
    ratio_row(
        "DDR4 dominant-direction fraction",
        0.97,
        c4.direction_fraction(DdrModule::ddr4().dominant_direction()),
        1.15,
    );
    ratio_row("DDR3 permanent fraction (<0.30)", 0.26, c3.permanent_fraction(), 1.6);
    ratio_row("DDR4 permanent fraction (>0.50)", 0.55, c4.permanent_fraction(), 1.4);
    row(
        "ChipIR fast-beam run",
        "aborted in minutes",
        &format!(
            "{:.0} s to 50 permanent faults",
            DdrModule::ddr3()
                .time_to_permanent_faults(Flux(5.4e6), 50)
                .value()
        ),
    );
}

fn main() {
    regenerate();
}
