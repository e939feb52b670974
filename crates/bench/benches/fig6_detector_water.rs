//! FIG6 — "Tin-II thermal neutron detector measurements with two inches
//! of water placed over detector on 20th April 2019" (paper Figure 6):
//! the counting time series and its ≈ +24 % step, with the step height
//! derived from Monte-Carlo moderation rather than hard-coded. Also
//! prints the fixed-+24 % ablation for comparison (DESIGN.md §5.3).

use tn_bench::{header, ratio_row, row};
use tn_detector::WaterBoxExperiment;
use tn_environment::{Environment, Location, Surroundings, Weather};

fn building() -> Environment {
    Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    )
}

fn regenerate() {
    header("FIG6", "Figure 6: Tin-II water-box time series (+24% step)");
    let experiment = WaterBoxExperiment::paper_configuration(building());
    let outcome = experiment.run(20190420);

    ratio_row("derived thermal boost", 0.24, outcome.derived_boost, 1.8);
    ratio_row("observed counting step", 0.24, outcome.step(), 1.8);
    row(
        "thermal rate before -> after",
        "step up on 20 Apr",
        &format!("{:.2e} -> {:.2e} n/cm^2/s", outcome.mean_before, outcome.mean_after),
    );

    // Daily means, the way the figure's eye reads it.
    println!("\ndaily mean bare-tube counts/hour:");
    for (day, chunk) in outcome.series.chunks(24).enumerate() {
        let mean = chunk.iter().map(|s| s.bare as f64).sum::<f64>() / chunk.len() as f64;
        let marker = if day >= 4 { " <- water in place" } else { "" };
        println!("  day {}: {:>6.0}{}", day + 1, mean, marker);
    }

    // Ablation: MC-derived boost vs the fixed published number.
    let fixed = 0.24;
    println!(
        "\nablation — fixed +24% boost vs MC-derived: fixed {fixed:.3}, derived {:.3} \
         (difference {:+.1}%)",
        outcome.derived_boost,
        100.0 * (outcome.derived_boost - fixed)
    );
}

fn main() {
    regenerate();
}
