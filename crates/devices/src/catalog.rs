//! The catalog of devices the paper irradiated, with their fitted
//! response models.
//!
//! ## How the free parameters are chosen
//!
//! The paper never publishes absolute cross sections (business-sensitive);
//! what it publishes — and what we must reproduce — are the
//! **high-energy / thermal cross-section ratios** of Figure 5:
//!
//! | device            | SDC ratio | DUE ratio | note |
//! |-------------------|-----------|-----------|------|
//! | Intel Xeon Phi    | 10.14     | 6.37      | little/depleted boron |
//! | NVIDIA K20        | ≈ 2       | ≈ 3       | 28 nm planar CMOS |
//! | NVIDIA TitanX     | ≈ 3       | ≈ 7       | 16 nm FinFET |
//! | NVIDIA TitanV     | ≈ 2.5     | ≈ 6       | 12 nm FinFET (companion paper) |
//! | AMD APU (CPU)     | ≈ 2.5     | ≈ 1.5     | |
//! | AMD APU (GPU)     | ≈ 3       | ≈ 1.3     | |
//! | AMD APU (CPU+GPU) | ≈ 2.5     | 1.18      | sync logic thermal-weak |
//! | Xilinx FPGA       | 2.33      | —         | no DUE ever observed |
//!
//! Per device and error class we pick a *fast* saturated cross section at
//! a plausible absolute scale, then solve the effective ¹⁰B population in
//! closed form so that the ratio of spectrum-folded beam responses —
//! ChipIR events over >10 MeV fluence vs ROTAX events over thermal
//! fluence, exactly the estimator a campaign applies — equals the target.
//! The thermal sensitivity is therefore still *mechanistic* (1/v capture
//! folded over the real beam spectra); only its magnitude is fitted, which
//! is the honest inverse of what the paper did: they measured the ratio to
//! infer the boron content.

use crate::response::{DeviceResponse, ErrorClass, SensitiveRegion};
use tn_physics::constants::THERMAL_CUTOFF;
use tn_physics::spectrum::{chipir_reference, rotax_reference};
use tn_physics::units::{CrossSection, Energy};
use tn_physics::{EnergyBand, Spectrum};

/// Transistor structure, which the paper correlates with thermal
/// sensitivity (planar CMOS devices looked more susceptible than FinFET).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransistorKind {
    /// Planar bulk CMOS.
    PlanarCmos,
    /// FinFET (TSMC 16/12 nm).
    FinFet,
    /// Intel 3-D Tri-gate.
    TriGate,
}

/// Manufacturing technology of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Feature size in nanometres.
    pub node_nm: u32,
    /// Transistor structure.
    pub transistor: TransistorKind,
    /// Foundry name.
    pub foundry: &'static str,
}

/// Broad device category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Many-core HPC accelerator (Xeon Phi).
    ManyCore,
    /// Discrete GPU.
    Gpu,
    /// CPU+GPU on one die, CPU side active.
    ApuCpu,
    /// CPU+GPU on one die, GPU side active.
    ApuGpu,
    /// CPU+GPU on one die, both active (50/50 split).
    ApuHybrid,
    /// SRAM-based FPGA.
    Fpga,
}

/// A catalog device: identity, technology and fitted radiation response.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    vendor: &'static str,
    kind: DeviceKind,
    technology: Technology,
    response: DeviceResponse,
    /// The Figure-5 target ratios this device was fitted to (SDC, DUE).
    target_ratios: (f64, Option<f64>),
}

impl Device {
    /// Device display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vendor name.
    pub fn vendor(&self) -> &'static str {
        self.vendor
    }

    /// Device category.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Manufacturing technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// The fitted radiation response.
    pub fn response(&self) -> &DeviceResponse {
        &self.response
    }

    /// The same device with `response` in place of its fitted one, e.g. a
    /// deliberately mis-calibrated copy that a check must reject.
    pub fn with_response(mut self, response: DeviceResponse) -> Self {
        self.response = response;
        self
    }

    /// The paper ratio targets used in the fit: `(SDC, DUE)`; `None` DUE
    /// means the paper observed none (FPGA).
    pub fn target_ratios(&self) -> (f64, Option<f64>) {
        self.target_ratios
    }

    /// Analytic high-energy/thermal cross-section ratio for an error
    /// class, using the same estimator as a beam campaign (ChipIR events
    /// over >10 MeV fluence vs ROTAX events over thermal fluence).
    pub fn analytic_ratio(&self, class: ErrorClass) -> f64 {
        let chipir = chipir_reference();
        let rotax = rotax_reference();
        let sigma_he = self.response.event_rate(class, &chipir)
            / chipir.flux_in(EnergyBand::HighEnergy).value();
        let sigma_th =
            self.response.event_rate(class, &rotax) / rotax.flux_in(EnergyBand::Thermal).value();
        if sigma_th == 0.0 {
            f64::INFINITY
        } else {
            sigma_he / sigma_th
        }
    }
}

/// Solves the effective ¹⁰B population so the beam-estimator ratio equals
/// `target`, given the region's fast saturated cross section.
///
/// Writing the ChipIR event rate as `F + B·c_chipir` and the ROTAX rate as
/// `B·c_rotax` (`B` = ¹⁰B population, `c` = per-atom capture folds, `F` =
/// fast-mechanism fold), the measured ratio is
/// `(F + B·c_chipir)/Φ_he ÷ (B·c_rotax)/Φ_th`, linear in `1/B` — so `B`
/// has the closed form implemented here.
///
/// # Panics
///
/// Panics if `target` is too small to be reachable (the ChipIR thermal
/// tail already produces a ratio floor) or not finite.
pub fn fit_b10_population(fast_saturated: CrossSection, target: f64) -> f64 {
    assert!(target.is_finite() && target > 0.0, "target ratio must be positive");
    let chipir = chipir_reference();
    let rotax = rotax_reference();
    let phi_he = chipir.flux_in(EnergyBand::HighEnergy).value();
    let phi_th = rotax.flux_in(EnergyBand::Thermal).value();

    // Per-unit-B10 capture folds on each beam.
    let unit = SensitiveRegion::new(CrossSection::ZERO, 1.0);
    let c_chipir = unit.event_rate(&chipir);
    let c_rotax = unit.event_rate(&rotax);
    // Fast-mechanism fold on ChipIR (independent of B10).
    let fast_only = SensitiveRegion::boron_free(fast_saturated);
    let f_chipir = fast_only.event_rate(&chipir);

    // target = (f + B*c_chipir)/phi_he * phi_th/(B*c_rotax)
    // => B = f * phi_th / (target * phi_he * c_rotax - phi_th * c_chipir)
    let denom = target * phi_he * c_rotax - phi_th * c_chipir;
    assert!(
        denom > 0.0,
        "target ratio {target} below the floor set by ChipIR's own thermal tail"
    );
    f_chipir * phi_th / denom
}

// Internal constructor mirroring the catalog's table layout: one argument
// per column is clearer here than a builder.
#[allow(clippy::too_many_arguments)]
fn device(
    name: &str,
    vendor: &'static str,
    kind: DeviceKind,
    technology: Technology,
    fast_sdc: CrossSection,
    sdc_ratio: f64,
    fast_due: CrossSection,
    due_ratio: Option<f64>,
) -> Device {
    let sdc = SensitiveRegion::new(fast_sdc, fit_b10_population(fast_sdc, sdc_ratio));
    let due = match due_ratio {
        Some(r) => SensitiveRegion::new(fast_due, fit_b10_population(fast_due, r)),
        None => SensitiveRegion::boron_free(fast_due),
    };
    Device {
        name: name.to_string(),
        vendor,
        kind,
        technology,
        response: DeviceResponse::new(sdc, due),
        target_ratios: (sdc_ratio, due_ratio),
    }
}

/// Intel Xeon Phi 3120A (Knights Corner), 22 nm Tri-gate.
///
/// Weak thermal response (ratio > 10): consistent with depleted or little
/// boron in Intel's process.
pub fn xeon_phi() -> Device {
    device(
        "Intel Xeon Phi",
        "Intel",
        DeviceKind::ManyCore,
        Technology {
            node_nm: 22,
            transistor: TransistorKind::TriGate,
            foundry: "Intel",
        },
        CrossSection(8.0e-9),
        10.14,
        CrossSection(5.0e-9),
        Some(6.37),
    )
}

/// NVIDIA K20 (Kepler), 28 nm TSMC planar CMOS.
pub fn nvidia_k20() -> Device {
    device(
        "NVIDIA K20",
        "NVIDIA",
        DeviceKind::Gpu,
        Technology {
            node_nm: 28,
            transistor: TransistorKind::PlanarCmos,
            foundry: "TSMC",
        },
        CrossSection(2.6e-8),
        2.0,
        CrossSection(1.3e-8),
        Some(3.0),
    )
}

/// NVIDIA TitanX (Pascal), 16 nm TSMC FinFET.
pub fn nvidia_titanx() -> Device {
    device(
        "NVIDIA TitanX",
        "NVIDIA",
        DeviceKind::Gpu,
        Technology {
            node_nm: 16,
            transistor: TransistorKind::FinFet,
            foundry: "TSMC",
        },
        CrossSection(1.6e-8),
        3.0,
        CrossSection(9.0e-9),
        Some(7.0),
    )
}

/// NVIDIA TitanV (Volta), 12 nm TSMC FinFET.
///
/// Figure 5 centres on the other devices; TitanV targets follow the
/// companion-paper discussion (MxM-only thermal data).
pub fn nvidia_titanv() -> Device {
    device(
        "NVIDIA TitanV",
        "NVIDIA",
        DeviceKind::Gpu,
        Technology {
            node_nm: 12,
            transistor: TransistorKind::FinFet,
            foundry: "TSMC",
        },
        CrossSection(1.4e-8),
        2.5,
        CrossSection(8.0e-9),
        Some(6.0),
    )
}

/// AMD A10-7890K APU, CPU side only (28 nm GlobalFoundries SHP bulk).
pub fn amd_apu_cpu() -> Device {
    device(
        "AMD APU (CPU)",
        "AMD",
        DeviceKind::ApuCpu,
        Technology {
            node_nm: 28,
            transistor: TransistorKind::PlanarCmos,
            foundry: "GlobalFoundries",
        },
        CrossSection(9.0e-9),
        2.5,
        CrossSection(3.0e-9),
        Some(1.5),
    )
}

/// AMD A10-7890K APU, GPU side only.
pub fn amd_apu_gpu() -> Device {
    device(
        "AMD APU (GPU)",
        "AMD",
        DeviceKind::ApuGpu,
        Technology {
            node_nm: 28,
            transistor: TransistorKind::PlanarCmos,
            foundry: "GlobalFoundries",
        },
        CrossSection(1.1e-8),
        3.0,
        CrossSection(4.0e-9),
        Some(1.3),
    )
}

/// AMD A10-7890K APU, CPU+GPU 50/50 concurrent workload.
///
/// The DUE ratio of 1.18 is the paper's headline: the CPU↔GPU
/// synchronisation logic is nearly as sensitive to a thermal neutron as
/// to a high-energy one.
pub fn amd_apu_hybrid() -> Device {
    device(
        "AMD APU (CPU+GPU)",
        "AMD",
        DeviceKind::ApuHybrid,
        Technology {
            node_nm: 28,
            transistor: TransistorKind::PlanarCmos,
            foundry: "GlobalFoundries",
        },
        CrossSection(1.0e-8),
        2.5,
        CrossSection(5.0e-9),
        Some(1.18),
    )
}

/// Xilinx Zynq-7000 FPGA, 28 nm TSMC. Configuration-memory upsets are
/// persistent; the paper never observed a DUE.
pub fn xilinx_zynq() -> Device {
    device(
        "Xilinx Zynq-7000",
        "Xilinx",
        DeviceKind::Fpga,
        Technology {
            node_nm: 28,
            transistor: TransistorKind::PlanarCmos,
            foundry: "TSMC",
        },
        CrossSection(7.0e-9),
        2.33,
        CrossSection(0.0),
        None,
    )
}

/// All compute devices of the study, in the order the paper tabulates
/// them (the DDR modules live in [`crate::ddr`]).
pub fn all_compute_devices() -> Vec<Device> {
    vec![
        xeon_phi(),
        nvidia_k20(),
        nvidia_titanx(),
        nvidia_titanv(),
        amd_apu_cpu(),
        amd_apu_gpu(),
        amd_apu_hybrid(),
        xilinx_zynq(),
    ]
}

/// Is most of this spectrum's flux in the thermal band? Convenience used
/// by campaign code to pick the right quoting convention.
pub fn is_thermal_beam(spectrum: &Spectrum) -> bool {
    let thermal = spectrum.flux_between(Energy(1e-4), THERMAL_CUTOFF).value();
    thermal > 0.5 * spectrum.total_flux().value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eight_devices() {
        assert_eq!(all_compute_devices().len(), 8);
    }

    #[test]
    fn fitted_ratios_match_targets_analytically() {
        for d in all_compute_devices() {
            let (sdc_target, due_target) = d.target_ratios();
            let sdc = d.analytic_ratio(ErrorClass::Sdc);
            assert!(
                (sdc - sdc_target).abs() / sdc_target < 0.02,
                "{}: SDC ratio {sdc} vs target {sdc_target}",
                d.name()
            );
            if let Some(t) = due_target {
                let due = d.analytic_ratio(ErrorClass::Due);
                assert!(
                    (due - t).abs() / t < 0.02,
                    "{}: DUE ratio {due} vs target {t}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn xeon_phi_has_least_boron_per_fast_area() {
        // Thermal weakness = low B10 per unit fast cross section.
        let devices = all_compute_devices();
        let relative_boron = |d: &Device| {
            d.response().region(ErrorClass::Sdc).b10_effective_atoms()
                / d.response().region(ErrorClass::Sdc).fast_saturated().value()
        };
        let phi = relative_boron(&xeon_phi());
        for d in &devices {
            if d.name() != "Intel Xeon Phi" {
                assert!(
                    relative_boron(d) > phi,
                    "{} should carry more B10 per fast area than Xeon Phi",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn fpga_never_dues() {
        let fpga = xilinx_zynq();
        assert!(fpga.analytic_ratio(ErrorClass::Due).is_infinite());
        assert_eq!(
            fpga.response().region(ErrorClass::Due).b10_effective_atoms(),
            0.0
        );
    }

    #[test]
    fn apu_hybrid_due_is_nearly_thermal_parity() {
        let due = amd_apu_hybrid().analytic_ratio(ErrorClass::Due);
        assert!((due - 1.18).abs() < 0.05, "DUE ratio = {due}");
    }

    #[test]
    fn fit_b10_population_is_monotone_in_target() {
        let sigma = CrossSection(1e-8);
        let weak = fit_b10_population(sigma, 10.0);
        let strong = fit_b10_population(sigma, 1.5);
        // A lower HE/thermal ratio means MORE boron.
        assert!(strong > weak, "strong {strong} weak {weak}");
    }

    #[test]
    #[should_panic(expected = "below the floor")]
    fn unreachable_ratio_is_rejected() {
        // ChipIR's own thermal tail sets a floor around ~0.05; a target of
        // 0.01 is unreachable no matter how much boron is added.
        let _ = fit_b10_population(CrossSection(1e-8), 0.01);
    }

    #[test]
    fn beam_classification() {
        assert!(is_thermal_beam(&rotax_reference()));
        assert!(!is_thermal_beam(&chipir_reference()));
    }

    #[test]
    fn technology_metadata_is_faithful() {
        assert_eq!(xeon_phi().technology().node_nm, 22);
        assert_eq!(nvidia_k20().technology().transistor, TransistorKind::PlanarCmos);
        assert_eq!(nvidia_titanx().technology().transistor, TransistorKind::FinFet);
        assert_eq!(nvidia_titanv().technology().node_nm, 12);
        assert_eq!(amd_apu_cpu().technology().foundry, "GlobalFoundries");
        assert_eq!(xilinx_zynq().vendor(), "Xilinx");
    }

    #[test]
    fn device_kinds_are_distinct_for_apu_configs() {
        assert_ne!(amd_apu_cpu().kind(), amd_apu_gpu().kind());
        assert_ne!(amd_apu_gpu().kind(), amd_apu_hybrid().kind());
    }
}
