//! FIG1 — "High energy and thermal neutrons normalized cross sections for
//! AMD APU and FPGA" (paper Figure 1).
//!
//! Regenerates the per-code normalized cross sections for the three APU
//! configurations running the heterogeneous codes and the FPGA running
//! MNIST, on both beams. Values are normalized to the smallest cross
//! section per vendor, as the paper does to avoid leaking absolute
//! (business-sensitive) numbers.

use tn_beamline::{Campaign, Facility};
use tn_bench::{header, row};
use tn_devices::catalog;
use tn_fault_injection::InjectionCampaign;
use tn_physics::units::Seconds;
use tn_workloads::{bfs::Bfs, ced::CannyEdge, mnist::Mnist, sc::StreamCompaction, Workload};

fn regenerate() {
    header("FIG1", "Figure 1: normalized HE vs thermal cross sections, APU + FPGA");
    let apus = [
        catalog::amd_apu_cpu(),
        catalog::amd_apu_gpu(),
        catalog::amd_apu_hybrid(),
    ];
    let codes: Vec<Box<dyn Workload>> = vec![
        Box::new(StreamCompaction::new(256, 1)),
        Box::new(CannyEdge::new(48, 48, 2)),
        Box::new(Bfs::new(12, 3)),
    ];
    let beam = Seconds::from_hours(20.0);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for device in &apus {
        for code in &codes {
            let profile = InjectionCampaign::new(&**code).runs(300).seed(11).execute();
            let he = Campaign::new(Facility::chipir(), device, code.name(), profile)
                .beam_time(beam)
                .seed(21)
                .run();
            let th = Campaign::new(Facility::rotax(), device, code.name(), profile)
                .beam_time(beam)
                .seed(22)
                .run();
            rows.push((
                format!("{} / {}", device.name(), code.name()),
                he.sdc.sigma,
                th.sdc.sigma,
            ));
        }
    }
    // FPGA running MNIST.
    let fpga = catalog::xilinx_zynq();
    let mnist = Mnist::new(1, 5);
    let profile = InjectionCampaign::new(&mnist).runs(300).seed(12).execute();
    let he = Campaign::new(Facility::chipir(), &fpga, "MNIST", profile)
        .beam_time(beam)
        .seed(23)
        .run();
    let th = Campaign::new(Facility::rotax(), &fpga, "MNIST", profile)
        .beam_time(beam)
        .seed(24)
        .run();
    rows.push((format!("{} / MNIST", fpga.name()), he.sdc.sigma, th.sdc.sigma));

    let floor = rows
        .iter()
        .flat_map(|r| [r.1, r.2])
        .fold(f64::INFINITY, f64::min);
    println!("{:<36} {:>12} {:>12} {:>8}", "device / code", "HE (norm)", "thermal", "ratio");
    for (label, he, th) in &rows {
        println!(
            "{label:<36} {:>12.2} {:>12.2} {:>8.2}",
            he / floor,
            th / floor,
            he / th
        );
    }
    row(
        "paper shape check",
        "thermal within ~2-3x of HE",
        "see ratio column (all devices thermally vulnerable)",
    );
}

fn main() {
    regenerate();
}
