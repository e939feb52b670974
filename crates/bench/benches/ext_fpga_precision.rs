//! EXT-G — the FPGA precision study: MNIST in single vs double precision
//! on the Zynq. Paper ([jsc2020] discussion): the double version takes
//! about twice the resources; its fast cross section doubles with the
//! area, but its *thermal* cross section grows almost fourfold.

use tn_bench::{header, ratio_row};
use tn_devices::fpga::{run_scrubbed, ConfigMemory, DesignPrecision};
use tn_physics::units::{Flux, Seconds};

fn regenerate() {
    header("EXT-G", "FPGA MNIST: single vs double precision");
    let thermal_beam = Flux(2.72e6);
    let fast_beam = Flux(5.4e6);
    let slot = Seconds(40_000.0);

    let run = |mem: ConfigMemory, flux: Flux, seed: u64| {
        run_scrubbed(mem, flux, slot, Seconds(2.0), seed).cross_section()
    };

    let th_single = run(
        ConfigMemory::zynq7000_mnist_thermal(DesignPrecision::Single),
        thermal_beam,
        1,
    );
    let th_double = run(
        ConfigMemory::zynq7000_mnist_thermal(DesignPrecision::Double),
        thermal_beam,
        2,
    );
    let fast_single = run(
        ConfigMemory::zynq7000_mnist_fast(DesignPrecision::Single),
        fast_beam,
        3,
    );
    let fast_double = run(
        ConfigMemory::zynq7000_mnist_fast(DesignPrecision::Double),
        fast_beam,
        4,
    );

    println!("measured output-error cross sections (cm^2):");
    println!("  thermal beam: single {th_single:.3e}, double {th_double:.3e}");
    println!("  fast beam:    single {fast_single:.3e}, double {fast_double:.3e}");
    ratio_row(
        "thermal double/single (paper: ~4x)",
        4.0,
        th_double / th_single,
        1.5,
    );
    ratio_row(
        "fast double/single (paper: ~2x, area-driven)",
        2.0,
        fast_double / fast_single,
        1.5,
    );
    println!(
        "\nreading: area doubling explains the fast growth; the extra 2x on the \
         thermal side is the boron exposure of the wider datapath — precision \
         choices carry a radiation price."
    );
}

fn main() {
    regenerate();
}
