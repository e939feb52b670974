//! EXT-D — the Weulersse et al. memory-only baseline: thermal/HE
//! sensitivity ratios 0.03×–1.4×. Shows where the whole-device models sit
//! relative to the published memory band, and what the baseline cannot
//! express (per-code masking, SDC/DUE structure).

use tn_bench::{header, row};
use tn_devices::response::ErrorClass;
use tn_devices::catalog;
use tn_fit::WeulersseBaseline;

fn regenerate() {
    header("EXT-D", "Weulersse et al. baseline comparison (0.03x - 1.4x)");
    let baseline = WeulersseBaseline::published();
    println!("published memory points:");
    for p in baseline.points() {
        println!("  {:<24} thermal/HE = {:.2}", p.memory, p.thermal_over_he);
    }
    let (lo, hi) = baseline.band();
    println!("\nour whole-device models (thermal/HE sensitivity):");
    for device in catalog::all_compute_devices() {
        let sdc = 1.0 / device.analytic_ratio(ErrorClass::Sdc);
        let due_ratio = device.analytic_ratio(ErrorClass::Due);
        let due = if due_ratio.is_infinite() {
            "none".to_string()
        } else {
            format!("{:.2}", 1.0 / due_ratio)
        };
        let inside = if (lo..=hi).contains(&sdc) { "inside" } else { "OUTSIDE" };
        println!(
            "  {:<22} SDC {:.2} ({inside} band)   DUE {}",
            device.name(),
            sdc,
            due
        );
    }
    row(
        "what the baseline misses",
        "SDC/DUE split, per-code masking",
        "APU DUE ~0.85 vs SDC ~0.4; FPGA DUE nonexistent",
    );
}

fn main() {
    regenerate();
}
