//! EXT-C — the "HPC_FIT" projection: thermal-neutron DDR FIT of the
//! June-2019 Top-10 supercomputers, from each site's altitude, cooling
//! design and installed memory.

use tn_bench::{header, row};
use tn_fit::hpc::{ranked_by_thermal_fit, TOP10_2019};

fn regenerate() {
    header("EXT-C", "Top-10 supercomputers: DDR thermal FIT projection");
    println!(
        "{:<26} {:<22} {:>8} {:>6} {:>12} {:>12}",
        "machine", "site", "mem TB", "DDR", "thermal FIT", "errors/day"
    );
    for machine in &TOP10_2019 {
        println!(
            "{:<26} {:<22} {:>8.0} {:>6} {:>12.3e} {:>12.2}",
            machine.name,
            machine.site,
            machine.memory_tb,
            format!("{}", machine.ddr_module().generation()),
            machine.memory_thermal_fit().value(),
            machine.memory_errors_per_day()
        );
    }
    println!("\nranked by thermal FIT:");
    for (rank, (name, fit)) in ranked_by_thermal_fit().iter().enumerate() {
        println!("  {}. {:<26} {:.3e} FIT", rank + 1, name, fit.value());
    }
    row(
        "shape check",
        "DDR3 giants + Trinity lead",
        "Tianhe-2A first; altitude lifts Trinity over Summit",
    );
    let trinity = &TOP10_2019[6];
    row(
        "rainy-day Trinity projection",
        "2x the sunny rate",
        &format!(
            "{:.3e} FIT",
            trinity.memory_thermal_fit_in_rain().value()
        ),
    );
}

fn main() {
    regenerate();
}
