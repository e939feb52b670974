//! EXT-A — the FIT-share analysis the paper quotes numerically
//! ("FIT-rates-all-devices"): percentage of the total FIT rate due to
//! thermal neutrons, per device and error class, at NYC sea level and
//! Leadville CO, with the +44 % machine-room thermal adjustment.
//!
//! Paper anchors: Xeon Phi thermal share from 4.2 % (NYC SDC) to 10.6 %
//! (Leadville DUE); K20 29 % of SDC FIT at Leadville; APU CPU+GPU 39 %
//! of DUEs thermal; overall "up to ~40 %".

use tn_bench::{header, ratio_row};
use tn_core::{Pipeline, PipelineConfig, StudyReport};
use tn_environment::{Environment, Location, Surroundings, Weather};

fn environments() -> [(&'static str, Environment); 2] {
    let room = Surroundings::hpc_machine_room(); // the paper's +44%
    [
        (
            "NYC",
            Environment::new(Location::new_york(), Weather::Sunny, room),
        ),
        (
            "Leadville",
            Environment::new(Location::leadville(), Weather::Sunny, room),
        ),
    ]
}

fn regenerate(report: &StudyReport) {
    header("EXT-A", "FIT shares: % of total FIT due to thermal neutrons");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "device", "NYC SDC", "NYC DUE", "Lead. SDC", "Lead. DUE"
    );
    let [(_, nyc), (_, leadville)] = environments();
    for device in report.devices() {
        let pct = |x: f64| format!("{:.1}%", 100.0 * x);
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            device.name,
            pct(device.sdc_fit(&nyc).thermal_share()),
            pct(device.due_fit(&nyc).thermal_share()),
            pct(device.sdc_fit(&leadville).thermal_share()),
            pct(device.due_fit(&leadville).thermal_share()),
        );
    }

    println!("\npaper anchor points:");
    let phi = report.device("Intel Xeon Phi").unwrap();
    ratio_row(
        "Xeon Phi SDC share @ NYC",
        0.042,
        phi.sdc_fit(&nyc).thermal_share(),
        1.8,
    );
    ratio_row(
        "Xeon Phi DUE share @ Leadville",
        0.106,
        phi.due_fit(&leadville).thermal_share(),
        1.8,
    );
    let k20 = report.device("NVIDIA K20").unwrap();
    ratio_row(
        "K20 SDC share @ Leadville",
        0.29,
        k20.sdc_fit(&leadville).thermal_share(),
        1.6,
    );
    let apu = report.device("AMD APU (CPU+GPU)").unwrap();
    ratio_row(
        "APU CPU+GPU DUE share @ Leadville",
        0.39,
        apu.due_fit(&leadville).thermal_share(),
        1.6,
    );
    let max_share = report
        .devices()
        .iter()
        .flat_map(|d| {
            [
                d.sdc_fit(&leadville).thermal_share(),
                d.due_fit(&leadville).thermal_share(),
            ]
        })
        .fold(0.0, f64::max);
    ratio_row("max thermal share (paper: up to ~40%)", 0.40, max_share, 1.5);
}

fn main() {
    let report = Pipeline::new(PipelineConfig::thorough()).seed(2020).run();
    regenerate(&report);
}
