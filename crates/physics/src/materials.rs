//! Nuclides and bulk materials: scattering/absorption data and the
//! moderation parameters that determine how efficiently a material
//! thermalises fast neutrons.
//!
//! The data model is deliberately coarse — a single free-gas elastic
//! cross section and a 1/v absorption cross section per nuclide — because
//! the paper's claims live at the level of "water and concrete moderate,
//! cadmium and ¹⁰B absorb", not at ENDF fidelity.

use crate::capture::one_over_v;
use crate::constants::{AVOGADRO, B10_NATURAL_ABUNDANCE, B10_THERMAL_CAPTURE};
use crate::units::{Barns, Energy, Length, NumberDensity};

/// A nuclide participating in transport: mass number, elastic scattering
/// cross section, and thermal-point (2200 m/s) absorption cross section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nuclide {
    /// Symbol, e.g. `"H"`, `"B10"`.
    pub symbol: &'static str,
    /// Mass number `A` (ratio of nuclide to neutron mass).
    pub mass_number: f64,
    /// Energy-independent elastic scattering cross section (free-gas).
    pub elastic: Barns,
    /// Absorption cross section at the 25.3 meV thermal point; scaled by
    /// the 1/v law at other energies.
    pub absorption_thermal: Barns,
}

impl Nuclide {
    /// Hydrogen-1: the best moderator (ξ = 1).
    pub const H1: Nuclide = Nuclide {
        symbol: "H",
        mass_number: 1.0,
        elastic: Barns(20.4),
        absorption_thermal: Barns(0.332),
    };
    /// Carbon-12 (graphite, methane, plastics).
    pub const C12: Nuclide = Nuclide {
        symbol: "C",
        mass_number: 12.0,
        elastic: Barns(4.7),
        absorption_thermal: Barns(0.0035),
    };
    /// Oxygen-16 (water, concrete).
    pub const O16: Nuclide = Nuclide {
        symbol: "O",
        mass_number: 16.0,
        elastic: Barns(3.8),
        absorption_thermal: Barns(0.00019),
    };
    /// Silicon-28 (concrete aggregate, device bulk).
    pub const SI28: Nuclide = Nuclide {
        symbol: "Si",
        mass_number: 28.0,
        elastic: Barns(2.0),
        absorption_thermal: Barns(0.171),
    };
    /// Calcium-40 (concrete).
    pub const CA40: Nuclide = Nuclide {
        symbol: "Ca",
        mass_number: 40.0,
        elastic: Barns(2.8),
        absorption_thermal: Barns(0.43),
    };
    /// Boron-10: the thermal-neutron absorber at the heart of the paper.
    pub const B10: Nuclide = Nuclide {
        symbol: "B10",
        mass_number: 10.0,
        elastic: Barns(2.1),
        absorption_thermal: B10_THERMAL_CAPTURE,
    };
    /// Boron-11: essentially transparent.
    pub const B11: Nuclide = Nuclide {
        symbol: "B11",
        mass_number: 11.0,
        elastic: Barns(4.8),
        absorption_thermal: Barns(0.0055),
    };
    /// Natural cadmium (effective; dominated by ¹¹³Cd).
    pub const CD_NAT: Nuclide = Nuclide {
        symbol: "Cd",
        mass_number: 112.4,
        elastic: Barns(6.5),
        absorption_thermal: Barns(2520.0),
    };
    /// Natural nitrogen (air).
    pub const N14: Nuclide = Nuclide {
        symbol: "N",
        mass_number: 14.0,
        elastic: Barns(10.0),
        absorption_thermal: Barns(1.9),
    };

    /// Mean lethargy gain per elastic collision,
    /// ξ = 1 + α·ln(α)/(1−α) with α = ((A−1)/(A+1))².
    pub fn xi(&self) -> f64 {
        if (self.mass_number - 1.0).abs() < 1e-9 {
            return 1.0;
        }
        let a = self.mass_number;
        let alpha = ((a - 1.0) / (a + 1.0)).powi(2);
        1.0 + alpha * alpha.ln() / (1.0 - alpha)
    }

    /// Minimum post-collision energy fraction α = ((A−1)/(A+1))².
    pub fn alpha(&self) -> f64 {
        let a = self.mass_number;
        ((a - 1.0) / (a + 1.0)).powi(2)
    }

    /// Absorption cross section at energy `e` (1/v law).
    pub fn absorption_at(&self, e: Energy) -> Barns {
        one_over_v(self.absorption_thermal, e)
    }

    /// Elastic scattering cross section at energy `e`.
    ///
    /// Hydrogen's free-proton cross section falls steeply above ~10 keV
    /// (20.4 b thermal → ≈4 b at 1 MeV → ≈1 b at 10 MeV); heavier nuclides
    /// are approximated as flat. Getting this fall-off right matters: it
    /// sets how deeply MeV neutrons penetrate water before thermalising.
    pub fn elastic_at(&self, e: Energy) -> Barns {
        if (self.mass_number - 1.0).abs() < 1e-9 {
            let knee = 1.0e4; // eV
            if e.value() <= knee {
                self.elastic
            } else {
                Barns(self.elastic.value() * (knee / e.value()).powf(0.35))
            }
        } else {
            self.elastic
        }
    }
}

/// A nuclide with its number density inside a material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constituent {
    /// The nuclide.
    pub nuclide: Nuclide,
    /// Number density in the bulk material.
    pub density: NumberDensity,
}

/// A homogeneous bulk material.
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    name: String,
    constituents: Vec<Constituent>,
}

impl Material {
    /// Creates a material from nuclide number densities.
    ///
    /// # Panics
    ///
    /// Panics if `constituents` is empty or any density is negative.
    pub fn new(name: impl Into<String>, constituents: Vec<Constituent>) -> Self {
        assert!(!constituents.is_empty(), "material needs constituents");
        assert!(
            constituents.iter().all(|c| c.density.value() >= 0.0),
            "number densities must be non-negative"
        );
        Self {
            name: name.into(),
            constituents,
        }
    }

    /// Light water, 1.0 g/cm³ (H₂O).
    pub fn water() -> Self {
        let n_h2o = 1.0 / 18.015 * AVOGADRO; // molecules per cm^3
        Self::new(
            "water",
            vec![
                Constituent {
                    nuclide: Nuclide::H1,
                    density: NumberDensity(2.0 * n_h2o),
                },
                Constituent {
                    nuclide: Nuclide::O16,
                    density: NumberDensity(n_h2o),
                },
            ],
        )
    }

    /// Ordinary (Portland) concrete, 2.3 g/cm³, ~0.5 wt% hydrogen.
    ///
    /// Concrete's moderation comes almost entirely from its bound water;
    /// this model uses representative H/O/Si/Ca densities.
    pub fn concrete() -> Self {
        Self::new(
            "concrete",
            vec![
                Constituent {
                    nuclide: Nuclide::H1,
                    density: NumberDensity(0.8e22),
                },
                Constituent {
                    nuclide: Nuclide::O16,
                    density: NumberDensity(4.4e22),
                },
                Constituent {
                    nuclide: Nuclide::SI28,
                    density: NumberDensity(1.6e22),
                },
                Constituent {
                    nuclide: Nuclide::CA40,
                    density: NumberDensity(0.15e22),
                },
            ],
        )
    }

    /// Borated polyethylene, 5 wt% natural boron — the thermal shield the
    /// paper discusses (and dismisses for thermal-isolation reasons).
    pub fn borated_polyethylene() -> Self {
        // CH2 monomer, 0.95 g/cm^3; 5 wt% natural boron added.
        let rho = 0.95;
        let n_ch2 = rho * 0.95 / 14.03 * AVOGADRO;
        let n_b = rho * 0.05 / 10.81 * AVOGADRO;
        Self::new(
            "borated polyethylene (5 wt% B)",
            vec![
                Constituent {
                    nuclide: Nuclide::C12,
                    density: NumberDensity(n_ch2),
                },
                Constituent {
                    nuclide: Nuclide::H1,
                    density: NumberDensity(2.0 * n_ch2),
                },
                Constituent {
                    nuclide: Nuclide::B10,
                    density: NumberDensity(n_b * B10_NATURAL_ABUNDANCE),
                },
                Constituent {
                    nuclide: Nuclide::B11,
                    density: NumberDensity(n_b * (1.0 - B10_NATURAL_ABUNDANCE)),
                },
            ],
        )
    }

    /// Metallic cadmium sheet, 8.65 g/cm³.
    pub fn cadmium() -> Self {
        let n = 8.65 / 112.41 * AVOGADRO;
        Self::new(
            "cadmium",
            vec![Constituent {
                nuclide: Nuclide::CD_NAT,
                density: NumberDensity(n),
            }],
        )
    }

    /// Liquid methane (ROTAX moderator), 0.42 g/cm³.
    pub fn liquid_methane() -> Self {
        let n_ch4 = 0.42 / 16.04 * AVOGADRO;
        Self::new(
            "liquid methane",
            vec![
                Constituent {
                    nuclide: Nuclide::C12,
                    density: NumberDensity(n_ch4),
                },
                Constituent {
                    nuclide: Nuclide::H1,
                    density: NumberDensity(4.0 * n_ch4),
                },
            ],
        )
    }

    /// Air at STP (N₂ + O₂ only; trace constituents ignored).
    pub fn air() -> Self {
        let n_air = 2.5e19; // molecules per cm^3
        Self::new(
            "air",
            vec![
                Constituent {
                    nuclide: Nuclide::N14,
                    density: NumberDensity(2.0 * 0.78 * n_air),
                },
                Constituent {
                    nuclide: Nuclide::O16,
                    density: NumberDensity(2.0 * 0.21 * n_air),
                },
            ],
        )
    }

    /// The preset material `name` names: `water`, `concrete`, `cadmium`,
    /// `borated_polyethylene` (alias `borated_pe`), `liquid_methane` or
    /// `air`. Any other name is an error message that lists them.
    pub fn preset(name: &str) -> Result<Self, String> {
        match name {
            "water" => Ok(Self::water()),
            "concrete" => Ok(Self::concrete()),
            "cadmium" => Ok(Self::cadmium()),
            "borated_polyethylene" | "borated_pe" => Ok(Self::borated_polyethylene()),
            "liquid_methane" => Ok(Self::liquid_methane()),
            "air" => Ok(Self::air()),
            other => Err(format!(
                "unknown material `{other}` (expected water, concrete, cadmium, \
                 borated_polyethylene, liquid_methane or air)"
            )),
        }
    }

    /// Material display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The material's constituents.
    pub fn constituents(&self) -> &[Constituent] {
        &self.constituents
    }

    /// Macroscopic elastic scattering cross section Σ_s(E) in 1/cm.
    pub fn sigma_scatter(&self, e: Energy) -> f64 {
        self.constituents
            .iter()
            .map(|c| c.density.value() * c.nuclide.elastic_at(e).to_cross_section().value())
            .sum()
    }

    /// Macroscopic absorption cross section Σ_a(E) in 1/cm at energy `e`.
    pub fn sigma_absorb(&self, e: Energy) -> f64 {
        self.constituents
            .iter()
            .map(|c| c.density.value() * c.nuclide.absorption_at(e).to_cross_section().value())
            .sum()
    }

    /// Macroscopic total cross section Σ_t(E) in 1/cm.
    pub fn sigma_total(&self, e: Energy) -> f64 {
        self.sigma_scatter(e) + self.sigma_absorb(e)
    }

    /// Scattering mean free path at energy `e` (cm).
    pub fn scatter_mfp(&self, e: Energy) -> Length {
        Length(1.0 / self.sigma_scatter(e))
    }

    /// Flux-weighted mean lethargy gain per collision at the thermal
    /// point, ξ̄ = Σᵢ ξᵢ·Σ_sᵢ / Σ_s.
    pub fn mean_xi(&self) -> f64 {
        let e = crate::constants::THERMAL_ENERGY;
        let total = self.sigma_scatter(e);
        self.constituents
            .iter()
            .map(|c| {
                let s = c.density.value() * c.nuclide.elastic_at(e).to_cross_section().value();
                c.nuclide.xi() * s / total
            })
            .sum()
    }

    /// Moderating power ξ̄·Σ_s (1/cm) at the thermal point — bigger is a
    /// better moderator.
    pub fn moderating_power(&self) -> f64 {
        self.mean_xi() * self.sigma_scatter(crate::constants::THERMAL_ENERGY)
    }

    /// Picks the colliding nuclide at energy `e`, weighted by macroscopic
    /// total cross section, using a uniform random number in `[0,1)`.
    ///
    /// A material whose total cross section vanishes at `e` (all-zero
    /// densities or cross sections) has no meaningful collision weights;
    /// the last constituent is returned rather than dividing by zero and
    /// propagating NaN probabilities into the transport kernel.
    pub fn pick_collision_nuclide(&self, e: Energy, u: f64) -> &Nuclide {
        let total = self.sigma_total(e);
        if total > 0.0 {
            let mut acc = 0.0;
            for c in &self.constituents {
                let s = c.density.value()
                    * (c.nuclide.elastic_at(e).to_cross_section().value()
                        + c.nuclide.absorption_at(e).to_cross_section().value());
                acc += s / total;
                if u < acc {
                    return &c.nuclide;
                }
            }
        }
        &self.constituents[self.constituents.len() - 1].nuclide
    }

    /// Builds the precomputed cross-section table for this material —
    /// the fast path the transport kernel evaluates collisions against.
    pub fn precomputed_xs(&self) -> crate::xs::MaterialXs {
        crate::xs::MaterialXs::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::THERMAL_ENERGY;

    #[test]
    fn hydrogen_xi_is_one() {
        assert!((Nuclide::H1.xi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xi_decreases_with_mass() {
        assert!(Nuclide::H1.xi() > Nuclide::C12.xi());
        assert!(Nuclide::C12.xi() > Nuclide::O16.xi());
        assert!(Nuclide::O16.xi() > Nuclide::SI28.xi());
        // Carbon's textbook value: 0.158.
        assert!((Nuclide::C12.xi() - 0.158).abs() < 0.002);
    }

    #[test]
    fn alpha_is_zero_for_hydrogen() {
        assert!(Nuclide::H1.alpha().abs() < 1e-12);
        assert!(Nuclide::C12.alpha() > 0.7);
    }

    #[test]
    fn water_is_a_better_moderator_than_concrete() {
        assert!(Material::water().moderating_power() > Material::concrete().moderating_power());
    }

    #[test]
    fn water_scatter_mfp_is_about_a_centimetre_at_thermal() {
        let mfp = Material::water().scatter_mfp(THERMAL_ENERGY);
        assert!(mfp.value() > 0.3 && mfp.value() < 1.5, "mfp = {mfp}");
    }

    #[test]
    fn water_is_more_transparent_to_fast_neutrons() {
        let w = Material::water();
        let thermal = w.scatter_mfp(THERMAL_ENERGY).value();
        let fast = w.scatter_mfp(Energy::from_mev(2.0)).value();
        // Real water: ~0.7 cm thermal, ~3-5 cm at 2 MeV.
        assert!(fast > 3.0 * thermal, "thermal {thermal}, fast {fast}");
        assert!(fast > 2.0 && fast < 8.0, "fast mfp = {fast}");
    }

    #[test]
    fn hydrogen_elastic_falls_above_knee() {
        let h = Nuclide::H1;
        assert_eq!(h.elastic_at(THERMAL_ENERGY), h.elastic);
        assert!(h.elastic_at(Energy::from_mev(1.0)).value() < 6.0);
        assert!(h.elastic_at(Energy::from_mev(1.0)).value() > 2.0);
    }

    #[test]
    fn cadmium_absorbs_thermals_strongly() {
        let cd = Material::cadmium();
        // 1 mm of Cd: Sigma_a * 0.1 cm >> 1.
        let tau = cd.sigma_absorb(THERMAL_ENERGY) * 0.1;
        assert!(tau > 10.0, "optical depth = {tau}");
    }

    #[test]
    fn cadmium_transparent_to_fast_neutrons() {
        let cd = Material::cadmium();
        let tau = cd.sigma_absorb(Energy::from_mev(10.0)) * 0.1;
        assert!(tau < 0.01, "optical depth = {tau}");
    }

    #[test]
    fn borated_pe_absorbs_more_than_water() {
        let bpe = Material::borated_polyethylene();
        let w = Material::water();
        assert!(bpe.sigma_absorb(THERMAL_ENERGY) > 10.0 * w.sigma_absorb(THERMAL_ENERGY));
    }

    #[test]
    fn presets_resolve_by_name_and_alias() {
        for (name, material) in [
            ("water", Material::water()),
            ("concrete", Material::concrete()),
            ("cadmium", Material::cadmium()),
            ("borated_polyethylene", Material::borated_polyethylene()),
            ("borated_pe", Material::borated_polyethylene()),
            ("liquid_methane", Material::liquid_methane()),
            ("air", Material::air()),
        ] {
            assert_eq!(Material::preset(name), Ok(material), "{name}");
        }
        assert_eq!(
            Material::preset("lead").unwrap_err(),
            "unknown material `lead` (expected water, concrete, cadmium, \
             borated_polyethylene, liquid_methane or air)"
        );
    }

    #[test]
    fn air_is_nearly_transparent() {
        let air = Material::air();
        let mfp = air.scatter_mfp(THERMAL_ENERGY);
        assert!(mfp.value() > 1e3, "mfp = {mfp}");
    }

    #[test]
    fn collision_nuclide_selection_covers_all_constituents() {
        let w = Material::water();
        let h = w.pick_collision_nuclide(THERMAL_ENERGY, 0.0);
        assert_eq!(h.symbol, "H");
        let o = w.pick_collision_nuclide(THERMAL_ENERGY, 0.999);
        assert_eq!(o.symbol, "O");
    }

    #[test]
    fn mean_xi_of_water_is_hydrogen_dominated() {
        let xi = Material::water().mean_xi();
        assert!(xi > 0.9, "xi = {xi}");
    }

    #[test]
    #[should_panic(expected = "needs constituents")]
    fn empty_material_rejected() {
        let _ = Material::new("void", vec![]);
    }

    /// Regression: a zero-cross-section material used to produce NaN
    /// pick probabilities (`s / 0.0`) and a silently wrong collision
    /// fate; the pick must stay finite and total-ordering-free instead.
    #[test]
    fn zero_cross_section_material_pick_is_guarded() {
        let void = Material::new(
            "evacuated",
            vec![
                Constituent {
                    nuclide: Nuclide::H1,
                    density: NumberDensity(0.0),
                },
                Constituent {
                    nuclide: Nuclide::O16,
                    density: NumberDensity(0.0),
                },
            ],
        );
        assert_eq!(void.sigma_total(THERMAL_ENERGY), 0.0);
        for u in [0.0, 0.5, 0.999_999] {
            let n = void.pick_collision_nuclide(THERMAL_ENERGY, u);
            assert_eq!(n.symbol, "O", "fallback must be deterministic");
        }
    }

    #[test]
    fn liquid_methane_moderates_like_water_or_better() {
        let ch4 = Material::liquid_methane();
        assert!(ch4.moderating_power() > 0.5 * Material::water().moderating_power());
    }
}
