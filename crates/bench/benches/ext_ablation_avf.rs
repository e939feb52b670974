//! Ablation 2 (DESIGN.md §5.2) — per-code fault-injection AVF vs a flat
//! derating constant.
//!
//! The paper observes that measured cross sections vary with the executed
//! code (Section V: "different codes executed on the same device can have
//! very different … sensitivities"). That spread comes from program-level
//! masking, which the fault-injection profiles supply; a flat AVF
//! flattens it to zero.

use tn_bench::{header, row};
use tn_beamline::{Campaign, Facility};
use tn_devices::catalog;
use tn_fault_injection::{InjectionCampaign, InjectionStats};
use tn_physics::units::Seconds;
use tn_workloads::{
    hotspot::HotSpot, lavamd::LavaMd, lud::Lud, mxm::MxM, Workload,
};

fn spread(sigmas: &[f64]) -> f64 {
    let max = sigmas.iter().copied().fold(f64::MIN, f64::max);
    let min = sigmas.iter().copied().fold(f64::MAX, f64::min);
    max / min
}

fn regenerate() {
    header("ABL-2", "ablation: per-code fault-injection AVF vs flat AVF");
    let k20 = catalog::nvidia_k20();
    let codes: Vec<Box<dyn Workload>> = vec![
        Box::new(MxM::new(24, 1)),
        Box::new(Lud::new(24, 2)),
        Box::new(LavaMd::new(2, 8, 3)),
        Box::new(HotSpot::new(16, 24, 4)),
    ];
    let beam = Seconds::from_hours(30.0);

    let mut injected = Vec::new();
    let mut flat = Vec::new();
    println!("{:<10} {:>10} {:>10} {:>14} {:>14}", "code", "SDC AVF", "DUE AVF", "sigma (AVF)", "sigma (flat)");
    for (i, code) in codes.iter().enumerate() {
        let profile = InjectionCampaign::new(&**code).runs(500).seed(7).execute();
        let with_avf = Campaign::new(Facility::chipir(), &k20, code.name(), profile)
            .beam_time(beam)
            .seed(100 + i as u64)
            .run();
        let flat_profile = InjectionStats {
            masked: 50,
            sdc: 50,
            due: 0,
        };
        let with_flat = Campaign::new(Facility::chipir(), &k20, code.name(), flat_profile)
            .beam_time(beam)
            .seed(200 + i as u64)
            .run();
        println!(
            "{:<10} {:>9.0}% {:>9.0}% {:>14.3e} {:>14.3e}",
            code.name(),
            100.0 * profile.sdc_fraction(),
            100.0 * profile.due_fraction(),
            with_avf.sdc.sigma,
            with_flat.sdc.sigma
        );
        injected.push(with_avf.sdc.sigma);
        flat.push(with_flat.sdc.sigma);
    }
    row(
        "max/min sigma across codes",
        ">= ~1.5x (paper: >2x)",
        &format!(
            "AVF model {:.2}x, flat model {:.2}x",
            spread(&injected),
            spread(&flat)
        ),
    );
    println!(
        "\nthe flat model erases the per-code structure the paper reports; \
         only counting noise separates its codes."
    );
}

fn main() {
    regenerate();
}
