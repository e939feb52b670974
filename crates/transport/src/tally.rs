//! Energy-resolved tallies: histogram the energies of neutrons leaving a
//! slab, so moderated spectra can be *observed* rather than assumed.
//!
//! This closes the loop on the beamline models: ROTAX's thermal spectrum
//! is produced physically by a liquid-methane moderator, and pushing a
//! fast beam through centimetres of CH₄ (or water) here makes a thermal
//! population emerge from the same collision physics the rest of the
//! workspace uses.

use crate::mc::{Fate, Merge, Neutron, Record, Transport};
use tn_physics::units::Energy;
use tn_physics::{EnergyBand, EnergyGrid};

/// A log-binned energy histogram of escaping neutrons.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumTally {
    edges: Vec<Energy>,
    transmitted: Vec<u64>,
    reflected: Vec<u64>,
    /// Histories that were absorbed or lost (not in any bin).
    pub terminated: u64,
    /// Total histories run.
    pub histories: u64,
}

impl SpectrumTally {
    /// Creates a tally over the grid's bins (`grid.len() - 1` bins).
    ///
    /// # Panics
    ///
    /// Panics if the grid has fewer than two points.
    pub fn new(grid: &EnergyGrid) -> Self {
        assert!(grid.len() >= 2, "need at least one bin");
        Self {
            edges: grid.points().to_vec(),
            transmitted: vec![0; grid.len() - 1],
            reflected: vec![0; grid.len() - 1],
            terminated: 0,
            histories: 0,
        }
    }

    fn bin_of(&self, e: Energy) -> Option<usize> {
        if e.value() < self.edges[0].value() {
            return None;
        }
        let pos = self
            .edges
            .iter()
            .position(|edge| e.value() < edge.value())?;
        Some(pos.saturating_sub(1))
    }

    /// Records one fate.
    pub fn record(&mut self, fate: Fate) {
        self.histories += 1;
        match fate {
            Fate::Transmitted { energy } => {
                if let Some(b) = self.bin_of(energy) {
                    self.transmitted[b] += 1;
                } else {
                    self.terminated += 1;
                }
            }
            Fate::Reflected { energy } => {
                if let Some(b) = self.bin_of(energy) {
                    self.reflected[b] += 1;
                } else {
                    self.terminated += 1;
                }
            }
            Fate::Absorbed { .. } | Fate::Lost => self.terminated += 1,
        }
    }

    /// `(bin centre, transmitted count)` pairs.
    pub fn transmitted_histogram(&self) -> Vec<(Energy, u64)> {
        self.histogram(&self.transmitted)
    }

    /// `(bin centre, reflected count)` pairs.
    pub fn reflected_histogram(&self) -> Vec<(Energy, u64)> {
        self.histogram(&self.reflected)
    }

    fn histogram(&self, counts: &[u64]) -> Vec<(Energy, u64)> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let centre = (self.edges[i].value() * self.edges[i + 1].value()).sqrt();
                (Energy(centre), c)
            })
            .collect()
    }

    /// Counts transmitted inside an energy band.
    pub fn transmitted_in(&self, band: EnergyBand) -> u64 {
        let (lo, hi) = band.edges();
        self.transmitted_histogram()
            .iter()
            .filter(|(e, _)| e.value() >= lo.value() && e.value() < hi.value())
            .map(|&(_, c)| c)
            .sum()
    }

    /// The most-populated transmitted bin centre, if anything escaped.
    pub fn transmitted_peak(&self) -> Option<Energy> {
        self.transmitted_histogram()
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .filter(|&(_, c)| c > 0)
            .map(|(e, _)| e)
    }
}

impl Record for SpectrumTally {
    fn record(&mut self, fate: Fate) {
        SpectrumTally::record(self, fate);
    }
}

impl Merge for SpectrumTally {
    fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.edges, other.edges, "spectra on different grids");
        self.histories += other.histories;
        self.terminated += other.terminated;
        for (mine, theirs) in [
            (&mut self.transmitted, &other.transmitted),
            (&mut self.reflected, &other.reflected),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }
}

/// Pushes a monoenergetic, normally-incident beam through the transport
/// problem and returns the energy-resolved exit tally.
///
/// Runs the same sharded analog kernel as [`Transport::run_beam`] — the
/// same seed yields the same fates — so the spectrum is identical at any
/// [`TransportConfig::threads`](crate::TransportConfig::threads).
pub fn beam_spectrum(
    transport: &Transport,
    e: Energy,
    histories: u64,
    grid: &EnergyGrid,
    seed: u64,
) -> SpectrumTally {
    transport.run_analog(
        SpectrumTally::new(grid),
        |_| Neutron::incident(e),
        histories,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SlabStack;
    use tn_physics::units::Length;
    use tn_physics::Material;

    fn grid() -> EnergyGrid {
        EnergyGrid::log_spaced(Energy(1e-3), Energy(1e7), 101)
    }

    #[test]
    fn methane_moderator_produces_a_thermal_exit_population() {
        // The ROTAX principle: fast beam in, thermal neutrons out.
        let moderator = Transport::new(SlabStack::single(
            Material::liquid_methane(),
            Length(12.0),
        ));
        let tally = beam_spectrum(&moderator, Energy::from_mev(2.0), 8_000, &grid(), 1);
        let thermal = tally.transmitted_in(EnergyBand::Thermal);
        assert!(thermal > 100, "thermal exits = {thermal}");
        // The transmitted spectrum peaks at the clamped thermal point.
        let peak = tally.transmitted_peak().expect("something transmitted");
        assert!(peak.value() < 0.5, "peak at {peak}");
    }

    #[test]
    fn thin_slab_leaves_the_beam_energy_intact() {
        let thin = Transport::new(SlabStack::single(Material::water(), Length(0.2)));
        let tally = beam_spectrum(&thin, Energy::from_mev(2.0), 4_000, &grid(), 2);
        let peak = tally.transmitted_peak().unwrap();
        assert!(
            (peak.value() - 2e6).abs() / 2e6 < 0.5,
            "peak at {peak}, expected ~2 MeV"
        );
    }

    #[test]
    fn every_history_is_accounted_for() {
        let slab = Transport::new(SlabStack::single(Material::water(), Length(5.0)));
        let tally = beam_spectrum(&slab, Energy::from_mev(1.0), 2_000, &grid(), 3);
        let binned: u64 = tally
            .transmitted_histogram()
            .iter()
            .chain(tally.reflected_histogram().iter())
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(binned + tally.terminated, tally.histories);
    }

    #[test]
    fn bin_lookup_handles_out_of_range() {
        let t = SpectrumTally::new(&grid());
        assert!(t.bin_of(Energy(1e-9)).is_none());
        assert!(t.bin_of(Energy(1e9)).is_none());
        assert!(t.bin_of(Energy(1.0)).is_some());
    }

    #[test]
    fn minimal_two_point_grid_gives_one_bin() {
        let g = EnergyGrid::log_spaced(Energy(1.0), Energy(2.0), 2);
        let t = SpectrumTally::new(&g);
        assert_eq!(t.transmitted_histogram().len(), 1);
        assert_eq!(t.reflected_histogram().len(), 1);
    }
}
