//! Data-center thermal-flux study: reproduce the Tin-II water-box step
//! (Figure 6), derive the machine-room boosts from Monte-Carlo
//! moderation, and sweep surroundings/weather.
//!
//! ```text
//! cargo run --release --example datacenter_flux
//! ```

use tn_core::detector::{TinII, WaterBoxExperiment};
use tn_core::environment::{DataCenterRoom, Environment, Location, Surroundings, Weather};
use tn_core::physics::units::Seconds;
use tn_rng::Rng;

fn main() {
    let building = Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    );

    // --- Figure 6: the water-box experiment -----------------------------
    // The thermal boost of two inches of water over the tube comes from
    // Monte-Carlo moderation; the counting campaign around it is the
    // `water-pan` scenario (`thermal-neutrons scenario --name water-pan`).
    let experiment = WaterBoxExperiment::paper_configuration();
    let boost = experiment.derive_boost(20190420);
    println!("Tin-II water-box experiment (paper: +24% step)");
    println!("  derived thermal boost (MC):   {:+.1}%", 100.0 * boost);
    let detector = TinII::new();
    let mut rng = Rng::seed_from_u64(20190420);
    let mut series = detector.count_series(&building, Seconds::from_days(4.0), 1.0, 0.0, &mut rng);
    series.extend(detector.count_series(
        &building,
        Seconds::from_days(3.0),
        1.0 + boost,
        96.0,
        &mut rng,
    ));
    println!("\n  hourly bare-tube counts (one char per 6 h):");
    let max = series.iter().map(|s| s.bare).max().unwrap_or(1) as f64;
    let mut line = String::from("  ");
    for chunk in series.chunks(6) {
        let mean = chunk.iter().map(|s| s.bare as f64).sum::<f64>() / chunk.len() as f64;
        let level = (mean / max * 8.0).round() as usize;
        line.push(['.', ':', '-', '=', '+', '*', '#', '%', '@'][level.min(8)]);
    }
    println!("{line}  (water placed after day 4)");

    // --- Machine-room boost derivation ----------------------------------
    println!("\nMonte-Carlo-derived machine-room boosts (paper: +20% concrete, +24% water)");
    let air = DataCenterRoom::air_cooled();
    let wet = DataCenterRoom::liquid_cooled();
    println!("  concrete floor albedo:  {:+.1}%", 100.0 * air.derive_floor_boost(20_000, 7));
    println!("  cooling-water loops:    {:+.1}%", 100.0 * wet.derive_water_boost(20_000, 8));
    println!(
        "  combined room factor:   x{:.2}  (paper: x1.44)",
        wet.derive_thermal_factor(20_000, 9)
    );

    // --- Environment sweep ----------------------------------------------
    println!("\nThermal flux by environment (n/cm^2/h)");
    let base = Environment::new(Location::new_york(), Weather::Sunny, Surroundings::outdoors());
    let rows = [
        ("NYC outdoors, sunny", base.clone()),
        ("NYC outdoors, thunderstorm", base.with_weather(Weather::Thunderstorm)),
        ("NYC machine room", base.with_surroundings(Surroundings::hpc_machine_room())),
        ("Leadville machine room", Environment::leadville_machine_room()),
        (
            "Leadville machine room, storm",
            Environment::leadville_machine_room().with_weather(Weather::Thunderstorm),
        ),
    ];
    for (label, env) in rows {
        println!("  {:<32} {:>8.2}", label, env.thermal_flux().per_hour());
    }
}
