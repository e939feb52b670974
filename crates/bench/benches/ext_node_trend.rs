//! EXT-K — "¹⁰B presence does not depend on the technology node but on
//! the quality of the manufacturing process": node-vs-sensitivity
//! correlation and same-node foundry spread over the catalog, plus the
//! climate-integrated error forecast that weather variability implies.

use tn_bench::{header, row};
use tn_devices::catalog::all_compute_devices;
use tn_environment::{Climate, Environment, Location, Surroundings, Weather};
use tn_fit::trend::{analyse, thermal_relative_sensitivity};
use tn_fit::DeviceFit;
use tn_physics::units::CrossSection;

fn regenerate() {
    header("EXT-K", "node vs boron + climate-integrated forecast");
    let devices = all_compute_devices();
    println!("{:<22} {:>6} {:>16} {:>22}", "device", "node", "foundry", "thermal/HE (SDC)");
    for d in &devices {
        println!(
            "{:<22} {:>4}nm {:>16} {:>22.3}",
            d.name(),
            d.technology().node_nm,
            d.technology().foundry,
            thermal_relative_sensitivity(d)
        );
    }
    let report = analyse(&devices);
    row(
        "node-size correlation",
        "weak (claim: node doesn't decide)",
        &format!("Pearson r = {:+.2}", report.node_correlation),
    );
    row(
        "28 nm same-node spread",
        "large (process decides)",
        &format!("{:.2}x across foundries", report.same_node_spread.unwrap()),
    );
    println!("per-foundry mean thermal-relative sensitivity:");
    for (foundry, mean) in &report.foundry_means {
        println!("  {foundry:<18} {mean:.3}");
    }

    // Climate-integrated forecast: weather-mix multiplier on the thermal
    // FIT of a K20-like device at Los Alamos.
    println!("\nclimate-integrated thermal forecast (Los Alamos machine room):");
    let env = Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::hpc_machine_room(),
    );
    let (sigma_he, sigma_th) = (CrossSection(2.6e-8), CrossSection(1.3e-8));
    let fair = DeviceFit::from_cross_sections(sigma_he, sigma_th, &env);
    for (label, climate) in [
        ("high desert", Climate::high_desert()),
        ("temperate coastal", Climate::temperate_coastal()),
    ] {
        let factor = climate.mean_thermal_factor();
        let adjusted = fair.thermal * factor;
        println!(
            "  {label:<18} mean weather factor {factor:.3} -> thermal FIT {:.2} \
             (fair-weather {:.2})",
            adjusted.value(),
            fair.thermal.value()
        );
    }
}

fn main() {
    regenerate();
}
