//! EXT-H — operational consequence: checkpoint-interval planning versus
//! weather. The paper: "when supercomputer time is allocated, the
//! checkpoint frequency may need to consider weather conditions" —
//! because a thunderstorm doubles the thermal field and, for a
//! thermal-heavy device, meaningfully moves the DUE MTBF.

use tn_bench::{header, row};
use tn_core::{Pipeline, PipelineConfig};
use tn_environment::{Environment, Location, Surroundings, Weather};
use tn_fit::CheckpointPlan;
use tn_physics::units::Seconds;

fn regenerate() {
    header("EXT-H", "checkpoint planning vs weather (APU fleet at Los Alamos)");
    let report = Pipeline::new(PipelineConfig::default()).seed(2020).run();
    let apu = report.device("AMD APU (CPU+GPU)").unwrap();
    let nodes = 4_000.0; // a Trinity-scale fleet of such devices

    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>10}",
        "weather", "DUE FIT/node", "fleet MTBF (h)", "Young t_c (min)", "overhead"
    );
    let mut intervals = Vec::new();
    for weather in [Weather::Sunny, Weather::Rainy, Weather::Thunderstorm] {
        let env = Environment::new(
            Location::los_alamos(),
            weather,
            Surroundings::hpc_machine_room(),
        );
        let fit = apu.due_fit(&env);
        let plan = CheckpointPlan::new(fit.total() * nodes, Seconds(180.0));
        let t_c = plan.young_interval();
        intervals.push((weather, t_c));
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>14.1} {:>9.1}%",
            weather.to_string(),
            fit.total().value(),
            plan.mtbf().as_hours(),
            t_c.value() / 60.0,
            100.0 * plan.overhead_at(t_c)
        );
    }
    let sunny = intervals[0].1.value();
    let storm = intervals[2].1.value();
    row(
        "storm vs sunny interval",
        "shorter under storm",
        &format!("{:.0}% of the sunny interval", 100.0 * storm / sunny),
    );
}

fn main() {
    regenerate();
}
