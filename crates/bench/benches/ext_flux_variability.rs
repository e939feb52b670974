//! EXT-E — thermal-flux variability: rain ×2, concrete +20 %, water +24 %
//! (the Ziegler 2003 / Tin-II numbers the paper's discussion rests on),
//! derived from the Monte-Carlo room model and swept across environments.

use tn_bench::{header, ratio_row};
use tn_environment::{DataCenterRoom, Environment, Location, Surroundings, Weather};

fn regenerate() {
    header("EXT-E", "thermal-flux variability: weather + surrounding materials");

    // Calibrated modifiers (the paper's arithmetic).
    let base = Environment::new(Location::new_york(), Weather::Sunny, Surroundings::outdoors());
    let thermal = |env: &Environment| env.thermal_flux() / base.thermal_flux();
    ratio_row(
        "thunderstorm multiplier",
        2.0,
        thermal(&base.with_weather(Weather::Thunderstorm)),
        1.2,
    );
    ratio_row(
        "concrete slab multiplier",
        1.20,
        thermal(&base.with_surroundings(Surroundings::concrete_floor())),
        1.1,
    );
    ratio_row(
        "water cooling multiplier",
        1.24,
        thermal(&base.with_surroundings(Surroundings::water_cooled())),
        1.1,
    );
    ratio_row(
        "machine room (both)",
        1.44,
        thermal(&base.with_surroundings(Surroundings::hpc_machine_room())),
        1.1,
    );

    // MC-derived room factors (physics, not calibration).
    let air = DataCenterRoom::air_cooled();
    let wet = DataCenterRoom::liquid_cooled();
    ratio_row(
        "MC-derived concrete boost",
        0.20,
        air.derive_floor_boost(20_000, 5),
        1.8,
    );
    ratio_row(
        "MC-derived water boost",
        0.24,
        wet.derive_water_boost(20_000, 6),
        1.8,
    );
    ratio_row(
        "MC-derived room factor",
        1.44,
        wet.derive_thermal_factor(20_000, 7),
        1.25,
    );

    // The full worst-case stack.
    let worst = Environment::new(
        Location::leadville(),
        Weather::Thunderstorm,
        Surroundings::hpc_machine_room(),
    );
    println!(
        "\nworst-case stack (Leadville + storm + machine room): thermal flux {:.1} n/cm2/h \
         vs NYC sunny outdoors {:.1} ({}x)",
        worst.thermal_flux().per_hour(),
        base.thermal_flux().per_hour(),
        (worst.thermal_flux() / base.thermal_flux()).round()
    );
}

fn main() {
    regenerate();
}
