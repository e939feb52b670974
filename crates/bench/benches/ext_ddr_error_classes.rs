//! EXT-B — "DDR3 and DDR4 Single and Multiple Bit Distribution": all
//! transient/intermittent errors are single-bit (SECDED-correctable);
//! only SEFIs corrupt many bits. Regenerates the distribution and the
//! SECDED replay results.

use tn_bench::{header, row};
use tn_devices::ddr::{classify, CorrectLoop, DdrModule};
use tn_devices::ecc::{replay_with_ecc, secded_sufficient_outside_sefis};
use tn_physics::units::{Flux, Seconds};

fn regenerate() {
    header("EXT-B", "single vs multiple bit distribution + SECDED coverage");
    let beam = Flux(2.72e6);
    for (module, hours) in [(DdrModule::ddr3(), 2.0), (DdrModule::ddr4(), 20.0)] {
        let generation = module.generation();
        let mut tester = CorrectLoop::new(module, 0xecc);
        let log = tester.run(beam, Seconds::from_hours(hours), Seconds(10.0));
        let classified = classify(&log);
        let ecc = replay_with_ecc(&log);
        println!("\n{generation}:");
        println!(
            "  single-bit error events: {} (transient {}, intermittent {}, permanent {})",
            classified.transient + classified.intermittent + classified.permanent,
            classified.transient,
            classified.intermittent,
            classified.permanent
        );
        println!(
            "  multi-bit episodes (SEFI): {} (widest burst {} bits)",
            classified.sefi, classified.max_bits_in_sweep
        );
        println!(
            "  SECDED replay: {} corrected / {} detected / {} uncorrected (coverage {:.1}%)",
            ecc.corrected,
            ecc.detected,
            ecc.uncorrected,
            100.0 * ecc.coverage()
        );
        row(
            "  paper claim",
            "SECDED sufficient outside SEFIs",
            if secded_sufficient_outside_sefis(&classified) {
                "holds"
            } else {
                "VIOLATED"
            },
        );
    }
}

fn main() {
    regenerate();
}
