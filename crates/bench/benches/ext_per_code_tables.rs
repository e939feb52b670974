//! EXT-I — the detailed per-code cross-section tables the overview defers
//! to its companion ([jsc2020]'s cs_xeon_gpus / cs_apu_fpga figures):
//! normalized SDC and DUE cross sections per device × code on both beams,
//! with 95 % Poisson error bars, "normalized to the lowest cross section
//! for each vendor".

use tn_bench::{header, row};
use tn_core::{Pipeline, PipelineConfig, StudyReport};

fn regenerate(report: &StudyReport) {
    header("EXT-I", "per-code normalized cross sections with 95% CIs");
    // Group devices by vendor for the normalization the paper applies.
    let vendors: [(&str, &[&str]); 4] = [
        ("Intel", &["Intel Xeon Phi"]),
        ("NVIDIA", &["NVIDIA K20", "NVIDIA TitanX", "NVIDIA TitanV"]),
        ("AMD", &["AMD APU (CPU)", "AMD APU (GPU)", "AMD APU (CPU+GPU)"]),
        ("Xilinx", &["Xilinx Zynq-7000"]),
    ];
    for (vendor, names) in vendors {
        // Vendor floor: the smallest nonzero cross section anywhere.
        let mut floor = f64::INFINITY;
        for name in names {
            let d = report.device(name).expect("device");
            for r in d.chipir.iter().chain(&d.rotax) {
                for sigma in [r.sdc.sigma, r.due.sigma] {
                    if sigma > 0.0 {
                        floor = floor.min(sigma);
                    }
                }
            }
        }
        println!("\n[{vendor}] (normalized to vendor floor)");
        println!(
            "{:<22} {:<8} {:>16} {:>16} {:>8}",
            "device", "code", "HE SDC [CI]", "TH SDC [CI]", "ratio"
        );
        for name in names {
            let d = report.device(name).expect("device");
            for (he, th) in d.chipir.iter().zip(&d.rotax) {
                assert_eq!(he.workload, th.workload);
                let n = |x: f64| x / floor;
                println!(
                    "{:<22} {:<8} {:>6.1} [{:>4.1},{:>5.1}] {:>6.1} [{:>4.1},{:>5.1}] {:>8.2}",
                    name,
                    he.workload,
                    n(he.sdc.sigma),
                    n(he.sdc.ci.0),
                    n(he.sdc.ci.1),
                    n(th.sdc.sigma),
                    n(th.sdc.ci.0),
                    n(th.sdc.ci.1),
                    he.sdc.sigma / th.sdc.sigma.max(f64::MIN_POSITIVE)
                );
            }
        }
    }
    row(
        "\npaper shape checks",
        "codes vary >2x on a device",
        "HE SDC spread across codes visible per device",
    );
}

fn main() {
    let report = Pipeline::new(PipelineConfig::thorough()).seed(2020).run();
    regenerate(&report);
}
