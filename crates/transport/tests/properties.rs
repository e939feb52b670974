//! Property-style transport invariants: conservation, energy ordering and
//! attenuation monotonicity, driven by fixed-seed `tn_rng` generator loops
//! (case counts stay modest because each case runs real Monte-Carlo work).

use tn_rng::Rng;
use tn_physics::units::{Energy, Length};
use tn_physics::{EnergyGrid, Material};
use tn_transport::{
    beam_spectrum, Layer, Neutron, SlabStack, Transport, TransportConfig, VarianceReduction,
    SHARD_SIZE,
};

fn materials() -> Vec<Material> {
    vec![
        Material::water(),
        Material::concrete(),
        Material::liquid_methane(),
        Material::borated_polyethylene(),
    ]
}

#[test]
fn every_history_has_exactly_one_fate() {
    let mut rng = Rng::seed_from_u64(0x7a01);
    for _ in 0..12 {
        let material = materials()[rng.gen_range(0usize..4)].clone();
        let thickness = rng.gen_range(0.5..20.0);
        let e_mev = rng.gen_range(0.1..10.0);
        let seed = rng.gen_range(0u64..1000);
        let t = Transport::new(SlabStack::single(material, Length(thickness)));
        let tally = t.run_beam(Energy::from_mev(e_mev), 300, seed);
        let sum = tally.transmitted_thermal
            + tally.transmitted_fast
            + tally.reflected_thermal
            + tally.reflected_fast
            + tally.absorbed
            + tally.lost;
        assert_eq!(sum, tally.histories);
        assert_eq!(tally.histories, 300);
    }
}

/// Elastic scattering only ever loses energy. The exit spectrum of the
/// event kernel is binned on a grid whose middle edge sits at the
/// incident energy (one part in 10¹² above it): every history leaves
/// below that edge or is absorbed, and every bin above it stays empty.
#[test]
fn neutrons_never_gain_energy() {
    let mut rng = Rng::seed_from_u64(0x7a02);
    for _ in 0..12 {
        let material = materials()[rng.gen_range(0usize..4)].clone();
        let thickness = rng.gen_range(0.5..10.0);
        let e_mev = rng.gen_range(0.1..5.0);
        let seed = rng.gen_range(0u64..500);
        let transport = Transport::new(SlabStack::single(material, Length(thickness)));
        let incident = Energy::from_mev(e_mev);
        // The log-midpoint of [1 meV, edge²/1 meV] is the edge itself.
        let edge = incident.value() * (1.0 + 1e-12);
        let grid = EnergyGrid::log_spaced(Energy(1e-3), Energy(edge * edge / 1e-3), 21);
        let mid = grid.points()[10].value();
        assert!(mid > incident.value() && mid < incident.value() * (1.0 + 1e-11));

        let spectrum = beam_spectrum(&transport, incident, 400, &grid, seed);
        let counts: Vec<u64> = spectrum
            .transmitted_histogram()
            .iter()
            .zip(spectrum.reflected_histogram())
            .map(|(&(_, t), (_, r))| t + r)
            .collect();
        let (below, above) = counts.split_at(10);
        assert!(
            above.iter().all(|&c| c == 0),
            "exits above the incident {incident}: {above:?}"
        );
        assert_eq!(below.iter().sum::<u64>() + spectrum.terminated, 400);
    }
}

/// `beam_spectrum` runs on the sharded event kernel, so — like the
/// scalar tallies — the spectrum is identical at any thread count,
/// including a ragged final shard.
#[test]
fn spectra_are_identical_at_any_thread_count() {
    let stack = SlabStack::single(Material::liquid_methane(), Length(6.0));
    let grid = EnergyGrid::log_spaced(Energy(1e-3), Energy(1e7), 41);
    let histories = 2 * SHARD_SIZE + 777;
    let spectrum_at = |threads: usize| {
        let t = Transport::with_config(stack.clone(), TransportConfig::with_threads(threads));
        beam_spectrum(&t, Energy::from_mev(2.0), histories, &grid, 31)
    };
    let serial = spectrum_at(1);
    assert_eq!(serial.histories, histories);
    for threads in [3usize, 8] {
        assert_eq!(spectrum_at(threads), serial, "{threads} threads diverged");
    }
}

#[test]
fn thicker_slabs_transmit_less() {
    let mut rng = Rng::seed_from_u64(0x7a03);
    for _ in 0..12 {
        // Skip borated PE: its transmission is ~0 already.
        let material = materials()[rng.gen_range(0usize..3)].clone();
        let e_mev = rng.gen_range(0.5..5.0);
        let seed = rng.gen_range(0u64..200);
        let thin = Transport::new(SlabStack::single(material.clone(), Length(1.0)))
            .run_beam(Energy::from_mev(e_mev), 2_000, seed);
        let thick = Transport::new(SlabStack::single(material, Length(12.0)))
            .run_beam(Energy::from_mev(e_mev), 2_000, seed ^ 1);
        assert!(
            thick.transmitted_fraction() <= thin.transmitted_fraction() + 0.03,
            "thin {} vs thick {}",
            thin.transmitted_fraction(),
            thick.transmitted_fraction()
        );
    }
}

/// The merged tally is a pure function of `(seed, histories)`: shard
/// `i` runs up to [`SHARD_SIZE`] histories on the substream
/// `Rng::seed_from_u64(seed).fork(i)` through the batch kernel, and
/// tallies merge in ascending shard order — so every thread count must
/// reproduce the serial result exactly, including history counts that
/// leave a ragged final shard. The weighted kernel shares the shard
/// scheme, so its f64 channels must also be byte-identical.
#[test]
fn parallel_merge_equals_serial_reference() {
    let e = Energy::from_mev(1.5);
    for (histories, seed) in [
        (1u64, 0u64),
        (SHARD_SIZE - 1, 17),
        (SHARD_SIZE, 18),
        (SHARD_SIZE + 1, 20),
        (2 * SHARD_SIZE + 777, 19),
    ] {
        let serial = Transport::with_config(
            SlabStack::single(Material::water(), Length(4.0)),
            TransportConfig::serial(),
        );
        let reference = serial.run_beam(e, histories, seed);
        assert_eq!(reference.histories, histories);
        let weighted_reference =
            serial.run_beam_weighted(e, histories, seed, VarianceReduction::default());
        for threads in [2usize, 7, 32] {
            let t = Transport::with_config(
                SlabStack::single(Material::water(), Length(4.0)),
                TransportConfig::with_threads(threads),
            );
            assert_eq!(
                t.run_beam(e, histories, seed),
                reference,
                "histories {histories} at {threads} threads diverged from the serial reference"
            );
            assert_eq!(
                t.run_beam_weighted(e, histories, seed, VarianceReduction::default()),
                weighted_reference,
                "weighted histories {histories} at {threads} threads diverged"
            );
        }
    }
}

/// Pooled two-sample binomial z statistic — the same divergence measure
/// tn-verify's differential oracles gate on.
fn binomial_z(p1: f64, p2: f64, n: f64) -> f64 {
    let pool = 0.5 * (p1 + p2);
    let var = pool * (1.0 - pool) * (2.0 / n);
    if var <= 0.0 {
        if (p1 - p2).abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (p1 - p2).abs() / var.sqrt()
    }
}

fn random_stack(rng: &mut Rng) -> SlabStack {
    let layers = rng.gen_range(1usize..4);
    SlabStack::new(
        (0..layers)
            .map(|_| {
                let material = materials()[rng.gen_range(0usize..4)].clone();
                Layer::new(material, Length(rng.gen_range(0.3..6.0)))
            })
            .collect(),
    )
}

/// Log-uniform energy over 10 meV – 10 MeV, the same span the verify
/// oracle sweeps; deliberately includes sub-thermal-floor sources.
fn random_energy(rng: &mut Rng) -> Energy {
    let log = rng.gen_range(-2.0..7.0);
    Energy(10f64.powf(log))
}

/// Fixed-seed generator loop: across randomized stack/energy configs,
/// the event-based SoA kernel (via `run_beam`) and the direct
/// per-history oracle `run_history_direct` must agree within the
/// tn-verify binomial-z bound on every major channel.
#[test]
fn soa_kernel_matches_direct_oracle() {
    let mut rng = Rng::seed_from_u64(0x7a05);
    let histories = 4_000u64;
    for case in 0..8 {
        let stack = random_stack(&mut rng);
        let e = random_energy(&mut rng);
        let seed = rng.gen_range(0u64..10_000);
        let t = Transport::new(stack);
        let soa = t.run_beam(e, histories, seed);
        let mut direct = tn_transport::Tally::default();
        let mut oracle_rng = Rng::seed_from_u64(seed ^ 0xd1ec7).fork(1);
        for _ in 0..histories {
            direct.record(t.run_history_direct(Neutron::incident(e), &mut oracle_rng));
        }
        let n = histories as f64;
        for (label, a, b) in [
            ("absorbed", soa.absorbed_fraction(), direct.absorbed_fraction()),
            (
                "transmitted",
                soa.transmitted_fraction(),
                direct.transmitted_fraction(),
            ),
            (
                "thermal_escape",
                soa.thermal_escape_fraction(),
                direct.thermal_escape_fraction(),
            ),
        ] {
            let z = binomial_z(a, b, n);
            assert!(
                z < 5.0,
                "case {case} ({e}): {label} diverged, soa {a} vs direct {b} (z = {z:.2})"
            );
        }
    }
}

/// The variance-reduced kernel is unbiased: weight-carrying histories
/// (implicit capture, roulette, splitting, biased diffuse source) must
/// sum to the analog fractions within the binomial-z bound, and total
/// weight must be conserved in expectation (1 per source history).
#[test]
fn weighted_tallies_are_unbiased() {
    let mut rng = Rng::seed_from_u64(0x7a06);
    let histories = 8_192u64;
    for case in 0..6 {
        let stack = random_stack(&mut rng);
        let e = random_energy(&mut rng);
        let seed = rng.gen_range(0u64..10_000);
        let diffuse = case % 2 == 1;
        let vr = if case % 3 == 0 {
            VarianceReduction::flat()
        } else {
            VarianceReduction::default()
        };
        let t = Transport::new(stack);
        let (analog, weighted) = if diffuse {
            (
                t.run_diffuse(e, histories, seed),
                t.run_diffuse_weighted(e, histories, seed ^ 0x5eed, vr),
            )
        } else {
            (
                t.run_beam(e, histories, seed),
                t.run_beam_weighted(e, histories, seed ^ 0x5eed, vr),
            )
        };
        let per_history = weighted.weight_sum() / histories as f64;
        assert!(
            (per_history - 1.0).abs() < 0.08,
            "case {case}: weight not conserved, {per_history} per history"
        );
        let n = histories as f64;
        for (label, a, b) in [
            (
                "absorbed",
                analog.absorbed_fraction(),
                weighted.absorbed_fraction(),
            ),
            (
                "transmitted",
                analog.transmitted_fraction(),
                weighted.transmitted_fraction(),
            ),
            (
                "reflected_thermal",
                analog.reflected_thermal_fraction(),
                weighted.reflected_thermal_fraction(),
            ),
        ] {
            // The analog side is binomial; the weighted side usually has
            // *lower* variance, so the pooled analog bound is conservative.
            let z = binomial_z(a, b, n);
            assert!(
                z < 5.0,
                "case {case} ({e}, diffuse={diffuse}): {label} biased, analog {a} vs weighted {b} (z = {z:.2})"
            );
        }
    }
}

#[test]
fn deterministic_per_seed() {
    let mut rng = Rng::seed_from_u64(0x7a04);
    for _ in 0..12 {
        let thickness = rng.gen_range(1.0..8.0);
        let e_mev = rng.gen_range(0.2..4.0);
        let seed = rng.gen_range(0u64..1000);
        let t = Transport::new(SlabStack::single(Material::water(), Length(thickness)));
        let a = t.run_beam(Energy::from_mev(e_mev), 200, seed);
        let b = t.run_beam(Energy::from_mev(e_mev), 200, seed);
        assert_eq!(a, b);
    }
}
