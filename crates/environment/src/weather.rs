//! Weather modulation of the thermal-neutron flux.
//!
//! Rain droplets moderate the fast cascade: "the thermal neutron flux, as
//! measured in Ziegler 2003, can be 2× higher during a thunderstorm than
//! on a sunny day" (paper, Section VI). Snow cover conversely shields the
//! ground-albedo thermal component.


/// Phase of the 11-year solar cycle.
///
/// Galactic cosmic rays — the source of the whole neutron cascade — are
/// partially swept away by the heliospheric field at solar maximum, so
/// *both* neutron populations drop by ~25 % relative to solar minimum
/// (JESD89A models this explicitly; the paper notes fluxes hold "under
/// normal solar conditions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolarActivity {
    /// Quiet sun: maximum cosmic-ray flux (the conservative default).
    #[default]
    Minimum,
    /// Mid-cycle.
    Average,
    /// Active sun: strongest modulation, lowest neutron flux.
    Maximum,
}

impl SolarActivity {
    /// Multiplier on every neutron population relative to solar minimum.
    pub fn flux_factor(self) -> f64 {
        match self {
            SolarActivity::Minimum => 1.0,
            SolarActivity::Average => 0.88,
            SolarActivity::Maximum => 0.75,
        }
    }
}

/// Weather conditions affecting the thermal field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Weather {
    /// Fair weather — the reference condition.
    #[default]
    Sunny,
    /// Steady rain; intermediate moderation boost.
    Rainy,
    /// Heavy thunderstorm; the paper's 2× case.
    Thunderstorm,
    /// Thick snowpack; moderated *and* absorbed near the ground.
    Snowpack,
}

impl Weather {
    /// All conditions, for sweeps.
    pub const ALL: [Weather; 4] = [
        Weather::Sunny,
        Weather::Rainy,
        Weather::Thunderstorm,
        Weather::Snowpack,
    ];

    /// Multiplier applied to the fair-weather thermal flux.
    pub fn thermal_factor(self) -> f64 {
        match self {
            Weather::Sunny => 1.0,
            Weather::Rainy => 1.5,
            Weather::Thunderstorm => 2.0,
            Weather::Snowpack => 0.8,
        }
    }

    /// Multiplier applied to the high-energy flux (≈ 1: weather barely
    /// touches the fast cascade).
    pub fn high_energy_factor(self) -> f64 {
        1.0
    }

    /// The stable name requests, scenario documents and reports use.
    pub fn label(self) -> &'static str {
        match self {
            Weather::Sunny => "sunny",
            Weather::Rainy => "rainy",
            Weather::Thunderstorm => "thunderstorm",
            Weather::Snowpack => "snowpack",
        }
    }

    /// Parses a [`Weather::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.label() == label)
    }
}

impl std::fmt::Display for Weather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_maximum_suppresses_the_cascade() {
        assert!(SolarActivity::Maximum.flux_factor() < SolarActivity::Average.flux_factor());
        assert!(SolarActivity::Average.flux_factor() < SolarActivity::Minimum.flux_factor());
        assert_eq!(SolarActivity::default(), SolarActivity::Minimum);
        assert_eq!(SolarActivity::Minimum.flux_factor(), 1.0);
    }

    #[test]
    fn thunderstorm_doubles_thermals() {
        assert_eq!(Weather::Thunderstorm.thermal_factor(), 2.0);
        assert_eq!(Weather::Sunny.thermal_factor(), 1.0);
    }

    #[test]
    fn weather_never_touches_fast_flux() {
        for w in Weather::ALL {
            assert_eq!(w.high_energy_factor(), 1.0);
        }
    }

    #[test]
    fn labels_round_trip_and_name_the_display() {
        for w in Weather::ALL {
            assert_eq!(Weather::from_label(w.label()), Some(w));
            assert_eq!(w.to_string(), w.label());
        }
        assert_eq!(Weather::from_label("hail"), None);
    }

    #[test]
    fn ordering_of_factors_is_physical() {
        assert!(Weather::Snowpack.thermal_factor() < Weather::Sunny.thermal_factor());
        assert!(Weather::Sunny.thermal_factor() < Weather::Rainy.thermal_factor());
        assert!(Weather::Rainy.thermal_factor() < Weather::Thunderstorm.thermal_factor());
    }

    #[test]
    fn default_is_sunny() {
        assert_eq!(Weather::default(), Weather::Sunny);
    }

    #[test]
    fn display_names() {
        assert_eq!(Weather::Thunderstorm.to_string(), "thunderstorm");
    }
}
