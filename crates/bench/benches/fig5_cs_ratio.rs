//! FIG5 — "Average cross section ratio for all devices" (paper Figure 5),
//! the headline result: per-device high-energy/thermal cross-section
//! ratios for SDC and DUE, measured by the full simulated-campaign
//! pipeline and compared against the published values.

use tn_bench::{header, ratio_row};
use tn_core::{Pipeline, PipelineConfig};

/// The Figure-5 values as the paper states them (`None` = not observed).
const PAPER: [(&str, f64, Option<f64>); 8] = [
    ("Intel Xeon Phi", 10.14, Some(6.37)),
    ("NVIDIA K20", 2.0, Some(3.0)),
    ("NVIDIA TitanX", 3.0, Some(7.0)),
    ("NVIDIA TitanV", 2.5, Some(6.0)),
    ("AMD APU (CPU)", 2.5, Some(1.5)),
    ("AMD APU (GPU)", 3.0, Some(1.3)),
    ("AMD APU (CPU+GPU)", 2.5, Some(1.18)),
    ("Xilinx Zynq-7000", 2.33, None),
];

fn regenerate() {
    header("FIG5", "Figure 5: average HE/thermal cross-section ratios");
    let report = Pipeline::new(PipelineConfig::thorough()).seed(2020).run();
    println!("-- SDC --");
    for (name, paper_sdc, _) in PAPER {
        let device = report.device(name).expect("device in study");
        ratio_row(name, paper_sdc, device.sdc_ratio(), 1.6);
    }
    println!("-- DUE --");
    for (name, _, paper_due) in PAPER {
        let device = report.device(name).expect("device in study");
        match paper_due {
            Some(p) => ratio_row(name, p, device.due_ratio(), 1.6),
            None => println!(
                "{name:<44} paper: none observed   measured: {} DUE counts",
                device
                    .chipir
                    .iter()
                    .chain(&device.rotax)
                    .map(|r| r.due.count)
                    .sum::<u64>()
            ),
        }
    }
    println!(
        "\nShape checks: Xeon Phi dwarfs everything (little boron); \
         TitanX DUE >> K20 DUE (FinFET vs planar); APU CPU+GPU DUE ~ 1 \
         (thermal-parity sync logic)."
    );
}

fn main() {
    regenerate();
}
