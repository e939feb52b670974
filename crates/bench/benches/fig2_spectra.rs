//! FIG2 — "The neutron spectra of the beamlines used for irradiation in
//! lethargy scale" (paper Figure 2).
//!
//! Regenerates the ChipIR and ROTAX lethargy-scale spectra on the
//! standard 12-decade grid and checks the published integral fluxes:
//! 5.4e6 n/cm²/s above 10 MeV + 4e5 thermal (ChipIR), 2.72e6 (ROTAX).

use tn_bench::{header, row};
use tn_physics::spectrum::{chipir_reference, rotax_reference};
use tn_physics::{EnergyBand, EnergyGrid};

fn regenerate() {
    header("FIG2", "Figure 2: beamline spectra in lethargy scale");
    let chipir = chipir_reference();
    let rotax = rotax_reference();
    let grid = EnergyGrid::standard();

    row(
        "ChipIR flux > 10 MeV",
        "5.4e6 n/cm2/s",
        &format!("{:.2e}", chipir.flux_in(EnergyBand::HighEnergy).value()),
    );
    row(
        "ChipIR thermal component",
        "4e5 n/cm2/s",
        &format!("{:.2e}", chipir.flux_in(EnergyBand::Thermal).value()),
    );
    row(
        "ROTAX thermal flux",
        "2.72e6 n/cm2/s",
        &format!("{:.2e}", rotax.flux_in(EnergyBand::Thermal).value()),
    );

    // ASCII rendering of the two lethargy spectra (log-E x-axis).
    println!("\nlethargy spectra E*phi(E), 60 columns spanning 1e-4 eV .. 1e10 eV:");
    for (name, spectrum) in [("ChipIR", &chipir), ("ROTAX", &rotax)] {
        let table = spectrum.tabulate_lethargy(&grid);
        let max = table.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        let mut line = String::new();
        for chunk in table.chunks(table.len() / 60) {
            let v = chunk.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
            let idx = if v <= 0.0 {
                0
            } else {
                // 9 intensity levels across 4 decades.
                (9.0 + 2.25 * (v / max).log10()).clamp(0.0, 8.0) as usize
            };
            line.push([' ', '.', ':', '-', '=', '+', '*', '#', '@'][idx]);
        }
        println!("{name:>7} |{line}|");
    }
    println!("         thermal peak on the left (ROTAX), cascade on the right (ChipIR)");
}

fn main() {
    regenerate();
}
