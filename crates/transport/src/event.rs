//! Event-based structure-of-arrays transport kernels: the crate's one
//! analog kernel and its one weighted (variance-reduced) twin.
//!
//! Both advance a whole RNG shard (up to [`SHARD_SIZE`] histories) as
//! parallel arrays of energy / position / direction / weight /
//! collision budget, and each pass splits the active histories by
//! event:
//!
//! * **classify** — histories that left the stack or ran out of
//!   collision budget tally at once; the rest go to one of the two
//!   events below;
//! * **flight + collision** — epithermal and fast neutrons take one
//!   free flight against the precomputed [`MaterialXs`] grid, then
//!   scatter, get captured, or cross a layer boundary, and requeue for
//!   the next pass;
//! * **thermal-floor diffusion** — once the energy is pinned at the
//!   25.3 meV floor the cross sections are loop-invariant, so the walk
//!   runs to termination against the per-layer blended floor cross
//!   sections precomputed at construction. The analog kernel runs these
//!   walks inline during classify and decides capture with one uniform
//!   per layer entry against the running survival product `(1−q)^c`.
//!
//! The analog kernel records fates into any tally that can record a
//! [`Fate`] — [`Tally`], or [`SpectrumTally`](crate::SpectrumTally) for
//! energy-resolved exits — through monomorphised generics, so the hot
//! loop has no dynamic dispatch. Both kernels are checked against the
//! independent per-history oracle [`Transport::run_history_direct`].
//!
//! ## Determinism
//!
//! Each shard owns one forked RNG substream and every event list is
//! built and drained in ascending slot order, so the draw sequence — and
//! therefore the shard tally — is a pure function of `(seed, shard,
//! histories)`. Thread count never enters a kernel; the crate's single
//! shard scheduler only decides which worker runs which shard.
//!
//! ## Variance reduction
//!
//! The weighted kernel layers implicit capture, a depth-graded
//! importance map, and a Russian-roulette + splitting weight window on
//! top of the same event loop. Every operation preserves the expected
//! weight reaching each tally channel, so the weighted estimator is
//! unbiased; [`WeightedTally`] carries per-history contribution
//! square-sums so callers can compute relative errors and figures of
//! merit.

use crate::mc::{Fate, Merge, Neutron, Record, Transport, ENERGY_FLOOR, MAX_COLLISIONS};
use tn_physics::units::{Energy, Length};
use tn_physics::xs::{Collision, MaterialXs};
use tn_rng::Rng;

#[cfg(doc)]
use crate::mc::{Tally, SHARD_SIZE};

/// Blended cross sections of one layer at a single (thermal) energy,
/// precomputed so the diffusion loop touches no interpolation tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FloorXs {
    /// Macroscopic total cross section Σ_t (1/cm).
    pub(crate) sigma_t: f64,
    /// 1/Σ_t, or 0 for a vacuum-like layer.
    pub(crate) inv_sigma_t: f64,
    /// Pick-marginal absorption fraction q = Σ_a/Σ_t per collision.
    pub(crate) absorb: f64,
}

impl FloorXs {
    /// Evaluates the blended thermal-walk parameters of `table` at `e`.
    pub(crate) fn for_energy(table: &MaterialXs, e: Energy) -> Self {
        let view = table.at(e);
        let sigma_t = view.sigma_total();
        let absorb = view.absorption_fraction();
        Self {
            sigma_t,
            inv_sigma_t: if sigma_t > 0.0 { 1.0 / sigma_t } else { 0.0 },
            absorb,
        }
    }
}

/// Isotropic-in-CM elastic scatter: returns the outgoing (energy, μ).
/// Shared by both batch kernels; the direct oracle does the same maths
/// inline.
#[inline]
fn elastic_scatter(energy: f64, mu: f64, a: f64, rng: &mut Rng) -> (f64, f64) {
    let cos_cm = 2.0 * rng.gen_f64() - 1.0;
    let denom_sq = a * a + 2.0 * a * cos_cm + 1.0;
    let e_ratio = denom_sq / ((a + 1.0) * (a + 1.0));
    let e_new = (energy * e_ratio).max(ENERGY_FLOOR.value());
    let mu_scatter = (1.0 + a * cos_cm) / denom_sq.sqrt();
    let phi = 2.0 * std::f64::consts::PI * rng.gen_f64();
    let sin_terms =
        ((1.0 - mu * mu).max(0.0) * (1.0 - mu_scatter * mu_scatter).max(0.0)).sqrt();
    let mut mu_new = (mu * mu_scatter + sin_terms * phi.cos()).clamp(-1.0, 1.0);
    if mu_new == 0.0 {
        mu_new = 1e-9;
    }
    (e_new, mu_new)
}

/// The flight event shared by both batch kernels: one free flight from
/// depth `z` at energy `e` along `mu`, costing one unit of `budget`.
/// Returns the collision (with `z` moved to its site), or `None` after
/// moving `z` just past the boundary the flight reached — or streaming
/// straight through a vacuum-like layer.
#[allow(clippy::too_many_arguments)] // hot path: scalars beat a state struct here
#[inline]
fn fly(
    t: &Transport,
    zig: &tn_rng::ExpSampler,
    e: f64,
    z: &mut f64,
    mu: f64,
    budget: &mut u32,
    eps: f64,
    rng: &mut Rng,
) -> Option<Collision> {
    let layer = t.edges[1..].partition_point(|&edge| edge <= *z);
    let lo = t.edges[layer];
    let hi = t.edges[layer + 1];
    let view = t.xs[layer].at(Energy(e));
    let sigma_t = view.sigma_total();
    *budget -= 1;
    if sigma_t <= 0.0 {
        let edge = if mu > 0.0 { hi } else { lo };
        *z = edge + mu * eps;
        return None;
    }
    let znew = *z + mu * (zig.sample(rng) / sigma_t);
    if znew >= hi {
        *z = hi + mu * eps;
        return None;
    }
    if znew <= lo {
        *z = lo + mu * eps;
        return None;
    }
    *z = znew;
    Some(view.pick(rng.gen_f64()))
}

/// Runs one analog thermal-floor history to termination.
///
/// Energy is pinned at or below the floor, so the whole walk is a
/// sequence of in-layer diffusion stretches: per layer entry one
/// uniform draw decides the capture collision through an incremental
/// survival product (`u > (1−q)^c` captures at collision `c` — the
/// same geometric law as an upfront countdown, minus the logarithm),
/// then each collision costs one ziggurat flight draw and one
/// re-emission draw. Stream consumption is identical to the countdown
/// formulation: one uniform per absorbing layer entry, none for pure
/// scatterers or pure absorbers.
#[allow(clippy::too_many_arguments)] // hot path: scalars beat a state struct here
#[inline]
fn thermal_walk(
    t: &Transport,
    zig: &tn_rng::ExpSampler,
    e: f64,
    mut zi: f64,
    mut mui: f64,
    mut b: u32,
    eps: f64,
    rng: &mut Rng,
) -> Fate {
    let total = t.total;
    let floor = ENERGY_FLOOR.value();
    loop {
        if zi <= 0.0 {
            return Fate::Reflected { energy: Energy(e) };
        }
        if zi >= total {
            return Fate::Transmitted { energy: Energy(e) };
        }
        if b == 0 {
            return Fate::Lost;
        }
        let layer = t.edges[1..].partition_point(|&edge| edge <= zi);
        let lo = t.edges[layer];
        let hi = t.edges[layer + 1];
        // Scattered-down histories sit exactly at the floor and take the
        // precomputed table; sub-floor sources pay one interpolated
        // lookup per layer entry, amortised over the in-layer walk.
        let fx = if e == floor {
            t.floor_xs[layer]
        } else {
            FloorXs::for_energy(&t.xs[layer], Energy(e))
        };
        if fx.sigma_t <= 0.0 {
            b -= 1;
            let edge = if mui > 0.0 { hi } else { lo };
            zi = edge + mui * eps;
            continue;
        }
        // Geometric capture law via the running survival product: a
        // pure absorber (q ≥ 1) captures at the first collision and a
        // pure scatterer (q ≤ 0) never does, neither consuming a draw;
        // otherwise one uniform drawn on layer entry is compared
        // against (1−q)^c, exactly P(K ≤ c) for geometric K.
        let (u, omq) = if fx.absorb >= 1.0 {
            (f64::INFINITY, 0.0)
        } else if fx.absorb <= 0.0 {
            (0.0, 1.0)
        } else {
            (rng.gen_f64(), 1.0 - fx.absorb)
        };
        let mut surv = 1.0f64;
        let mut captured_at = None;
        while b > 0 {
            b -= 1;
            let znew = zi + mui * (zig.sample(rng) * fx.inv_sigma_t);
            if znew >= hi {
                zi = hi + mui * eps;
                break;
            }
            if znew <= lo {
                zi = lo + mui * eps;
                break;
            }
            zi = znew;
            surv *= omq;
            if u > surv {
                captured_at = Some(zi);
                break;
            }
            mui = 2.0 * rng.gen_f64() - 1.0;
            if mui == 0.0 {
                mui = 1e-9;
            }
        }
        if let Some(za) = captured_at {
            return Fate::Absorbed { z: Length(za) };
        }
    }
}

/// Runs one full shard of analog histories through the event-based
/// batch kernel, recording every fate into `tally`.
///
/// `source` draws each history's entry state in slot order before any
/// transport begins.
pub(crate) fn run_shard_analog<T, F>(
    t: &Transport,
    source: &F,
    count: u64,
    rng: &mut Rng,
    tally: &mut T,
) where
    T: Record,
    F: Fn(&mut Rng) -> Neutron,
{
    let n = count as usize;
    let total = t.total;
    let eps = 1e-12 * total.max(1.0);
    let floor = ENERGY_FLOOR.value();

    // SoA batch state. Budgets are u32: MAX_COLLISIONS fits easily.
    let mut energy = Vec::with_capacity(n);
    let mut z = Vec::with_capacity(n);
    let mut mu = Vec::with_capacity(n);
    let mut budget = vec![MAX_COLLISIONS as u32; n];
    for _ in 0..count {
        let p = source(rng);
        energy.push(p.energy.value());
        z.push(if p.z.value() <= 0.0 { eps } else { p.z.value() });
        mu.push(p.mu);
    }

    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut flight: Vec<u32> = Vec::with_capacity(n);
    let mut next: Vec<u32> = Vec::with_capacity(n);
    let zig = tn_rng::ExpSampler::new();

    while !active.is_empty() {
        // ---- classify + thermal-floor diffusion -------------------------
        // Terminal states tally immediately; thermal-floor histories run
        // to termination inline right here, in ascending slot order;
        // only above-floor histories are queued for the flight event.
        flight.clear();
        for &i in &active {
            let ii = i as usize;
            if z[ii] <= 0.0 {
                tally.record(Fate::Reflected {
                    energy: Energy(energy[ii]),
                });
            } else if z[ii] >= total {
                tally.record(Fate::Transmitted {
                    energy: Energy(energy[ii]),
                });
            } else if budget[ii] == 0 {
                tally.record(Fate::Lost);
            } else if energy[ii] <= floor {
                tally.record(thermal_walk(
                    t, &zig, energy[ii], z[ii], mu[ii], budget[ii], eps, rng,
                ));
            } else {
                flight.push(i);
            }
        }
        next.clear();

        // ---- flight + collision event -----------------------------------
        // One free flight (and at most one collision) per pass; survivors
        // requeue for the next classify round.
        for &i in &flight {
            let ii = i as usize;
            let Some(collision) = fly(
                t,
                &zig,
                energy[ii],
                &mut z[ii],
                mu[ii],
                &mut budget[ii],
                eps,
                rng,
            ) else {
                next.push(i);
                continue;
            };
            if rng.gen_f64() < collision.absorption_probability {
                tally.record(Fate::Absorbed { z: Length(z[ii]) });
                continue;
            }
            (energy[ii], mu[ii]) =
                elastic_scatter(energy[ii], mu[ii], collision.nuclide.mass_number, rng);
            next.push(i);
        }

        std::mem::swap(&mut active, &mut next);
    }
}

/// Variance-reduction tuning for the weighted batch kernel.
///
/// The stack depth is graded into `importance_planes` equal-width
/// regions whose target weight halves per region: deep (transmission-
/// side) regions are more important, so particles drifting deeper are
/// split and particles drifting back are rouletted. Implicit capture
/// replaces analog absorption everywhere, so no history dies to a
/// capture draw — weight flows continuously into the absorbed channel.
/// Every knob preserves the estimator's expectation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceReduction {
    /// Depth regions in the importance map; 1 gives a flat window
    /// (implicit capture + roulette only). Clamped to ≥ 1.
    pub importance_planes: u32,
    /// Roulette when weight < `roulette_floor` × target weight.
    pub roulette_floor: f64,
    /// Roulette survivors continue at `survivor` × target weight.
    pub survivor: f64,
    /// Split when weight > `split_ceiling` × target weight.
    pub split_ceiling: f64,
    /// Hard cap on copies produced by one split event.
    pub max_split: u32,
}

impl Default for VarianceReduction {
    fn default() -> Self {
        Self {
            importance_planes: 8,
            roulette_floor: 0.5,
            survivor: 1.0,
            split_ceiling: 2.0,
            max_split: 8,
        }
    }
}

impl VarianceReduction {
    /// A flat weight window: implicit capture and roulette without the
    /// depth-graded importance map (no splitting pressure).
    pub fn flat() -> Self {
        Self {
            importance_planes: 1,
            ..Self::default()
        }
    }
}

/// Weighted tallies from the variance-reduced kernel.
///
/// Channels hold *expected-weight* sums rather than history counts, so
/// fractions are `channel / histories`. The transmitted-thermal and
/// absorbed channels additionally carry per-source-history contribution
/// square-sums for relative-error and figure-of-merit estimates.
/// Per-shard values merge in ascending shard order, so — like the
/// analog [`Tally`] — a merged `WeightedTally` is a pure function of
/// `(seed, histories)` and byte-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedTally {
    /// Source histories started (before any splitting).
    pub histories: u64,
    /// Weight transmitted with E < 0.5 eV.
    pub transmitted_thermal: f64,
    /// Weight transmitted with E ≥ 0.5 eV.
    pub transmitted_fast: f64,
    /// Weight reflected with E < 0.5 eV.
    pub reflected_thermal: f64,
    /// Weight reflected with E ≥ 0.5 eV.
    pub reflected_fast: f64,
    /// Weight absorbed in the stack (implicit capture).
    pub absorbed: f64,
    /// Weight that hit the collision cap.
    pub lost: f64,
    /// Σ over source histories of (transmitted-thermal contribution)².
    pub transmitted_thermal_sq: f64,
    /// Σ over source histories of (absorbed contribution)².
    pub absorbed_sq: f64,
}

impl WeightedTally {
    /// Merges another weighted tally into this one (call in ascending
    /// shard order to keep results thread-count invariant).
    pub fn merge(&mut self, other: &WeightedTally) {
        self.histories += other.histories;
        self.transmitted_thermal += other.transmitted_thermal;
        self.transmitted_fast += other.transmitted_fast;
        self.reflected_thermal += other.reflected_thermal;
        self.reflected_fast += other.reflected_fast;
        self.absorbed += other.absorbed;
        self.lost += other.lost;
        self.transmitted_thermal_sq += other.transmitted_thermal_sq;
        self.absorbed_sq += other.absorbed_sq;
    }

    fn frac(&self, w: f64) -> f64 {
        if self.histories == 0 {
            0.0
        } else {
            w / self.histories as f64
        }
    }

    /// Expected fraction transmitted in the thermal band.
    pub fn transmitted_thermal_fraction(&self) -> f64 {
        self.frac(self.transmitted_thermal)
    }

    /// Expected fraction transmitted at any energy.
    pub fn transmitted_fraction(&self) -> f64 {
        self.frac(self.transmitted_thermal + self.transmitted_fast)
    }

    /// Expected fraction reflected in the thermal band.
    pub fn reflected_thermal_fraction(&self) -> f64 {
        self.frac(self.reflected_thermal)
    }

    /// Expected fraction absorbed.
    pub fn absorbed_fraction(&self) -> f64 {
        self.frac(self.absorbed)
    }

    /// Total weight across every channel; for an unbiased source this
    /// averages to 1 per history (the conservation check the property
    /// tests and the verify oracle pin).
    pub fn weight_sum(&self) -> f64 {
        self.transmitted_thermal
            + self.transmitted_fast
            + self.reflected_thermal
            + self.reflected_fast
            + self.absorbed
            + self.lost
    }

    fn rel_error(sum: f64, sq: f64, n: u64) -> f64 {
        if n < 2 || sum <= 0.0 {
            return f64::INFINITY;
        }
        let nf = n as f64;
        let mean = sum / nf;
        let var = ((sq / nf) - mean * mean).max(0.0) / (nf - 1.0);
        var.sqrt() / mean
    }

    /// Relative standard error of the transmitted-thermal fraction.
    pub fn transmitted_thermal_rel_error(&self) -> f64 {
        Self::rel_error(
            self.transmitted_thermal,
            self.transmitted_thermal_sq,
            self.histories,
        )
    }

    /// Relative standard error of the absorbed fraction.
    pub fn absorbed_rel_error(&self) -> f64 {
        Self::rel_error(self.absorbed, self.absorbed_sq, self.histories)
    }
}

impl Merge for WeightedTally {
    fn merge(&mut self, other: &Self) {
        WeightedTally::merge(self, other);
    }
}

/// Outcome of one weight-window check.
enum WindowAction {
    /// Keep transporting at the (possibly reset) weight.
    Keep,
    /// Rouletted away — terminate without tallying.
    Kill,
    /// Split: continue the particle and create this many extra copies.
    Split(u32),
}

/// Applies the Russian-roulette + splitting window at target weight
/// `tw`. Roulette survivors restart at `survivor × tw` with survival
/// probability `w / (survivor × tw)`, so expectation is preserved; a
/// split divides the weight evenly over the copies.
fn apply_window(
    w: &mut f64,
    tw: f64,
    vr: &VarianceReduction,
    can_split: bool,
    rng: &mut Rng,
) -> WindowAction {
    if *w > vr.split_ceiling * tw {
        if !can_split {
            return WindowAction::Keep;
        }
        let n = ((*w / tw).ceil() as u32).clamp(2, vr.max_split.max(2));
        *w /= n as f64;
        return WindowAction::Split(n - 1);
    }
    if *w < vr.roulette_floor * tw {
        let target = vr.survivor * tw;
        if rng.gen_f64() * target < *w {
            *w = target;
            return WindowAction::Keep;
        }
        return WindowAction::Kill;
    }
    WindowAction::Keep
}

/// Runs one shard of weighted histories through the variance-reduced
/// event kernel. `source` returns each history's entry state *and* its
/// source weight (1 for analog sources; the biased diffuse source
/// returns the cosine-law likelihood ratio).
pub(crate) fn run_shard_weighted<F>(
    t: &Transport,
    source: &F,
    count: u64,
    rng: &mut Rng,
    vr: &VarianceReduction,
) -> WeightedTally
where
    F: Fn(&mut Rng) -> (Neutron, f64),
{
    let n = count as usize;
    let total = t.total;
    let eps = 1e-12 * total.max(1.0);
    let floor = ENERGY_FLOOR.value();

    let planes = vr.importance_planes.max(1) as usize;
    // Target weight halves per depth region: deeper is more important.
    let tw_by_region: Vec<f64> = (0..planes).map(|r| 0.5f64.powi(r as i32)).collect();
    let planes_per_cm = planes as f64 / total.max(f64::MIN_POSITIVE);
    let region_of = |zi: f64| ((zi * planes_per_cm) as usize).min(planes - 1);
    // Splitting stops (harmlessly — it is optional for unbiasedness)
    // once the shard population reaches this cap.
    let cap = n.saturating_mul(8).max(1024);

    let mut energy = Vec::with_capacity(n);
    let mut z = Vec::with_capacity(n);
    let mut mu = Vec::with_capacity(n);
    let mut weight = Vec::with_capacity(n);
    let mut budget = vec![MAX_COLLISIONS as u32; n];
    let mut origin: Vec<u32> = (0..n as u32).collect();
    for _ in 0..count {
        let (p, w0) = source(rng);
        energy.push(p.energy.value());
        z.push(if p.z.value() <= 0.0 { eps } else { p.z.value() });
        mu.push(p.mu);
        weight.push(w0);
    }

    // Per-source-history contribution accumulators for the two channels
    // that need relative errors; summed (and squared) in origin order at
    // shard end so the result is independent of termination order.
    let mut tt_contrib = vec![0.0f64; n];
    let mut abs_contrib = vec![0.0f64; n];
    let mut out = WeightedTally {
        histories: count,
        ..WeightedTally::default()
    };

    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut thermal: Vec<u32> = Vec::with_capacity(n);
    let mut flight: Vec<u32> = Vec::with_capacity(n);
    let mut next: Vec<u32> = Vec::with_capacity(n);
    let zig = tn_rng::ExpSampler::new();

    while !active.is_empty() {
        thermal.clear();
        flight.clear();
        for &i in &active {
            let ii = i as usize;
            if z[ii] <= 0.0 {
                if energy[ii] < tn_physics::constants::THERMAL_CUTOFF.value() {
                    out.reflected_thermal += weight[ii];
                } else {
                    out.reflected_fast += weight[ii];
                }
            } else if z[ii] >= total {
                if energy[ii] < tn_physics::constants::THERMAL_CUTOFF.value() {
                    tt_contrib[origin[ii] as usize] += weight[ii];
                } else {
                    out.transmitted_fast += weight[ii];
                }
            } else if budget[ii] == 0 {
                out.lost += weight[ii];
            } else if energy[ii] <= floor {
                thermal.push(i);
            } else {
                flight.push(i);
            }
        }
        next.clear();

        // ---- thermal-floor diffusion (weighted) -------------------------
        // Implicit capture per collision, weight window per collision;
        // splits clone the in-flight state onto the batch and the clones
        // are picked up next pass.
        for &i in &thermal {
            let ii = i as usize;
            let e = energy[ii];
            let o = origin[ii] as usize;
            let mut zi = z[ii];
            let mut mui = mu[ii];
            let mut wi = weight[ii];
            let mut b = budget[ii];
            enum End {
                Reflected,
                Transmitted,
                Lost,
                Rouletted,
            }
            let end = 'walk: loop {
                if zi <= 0.0 {
                    break End::Reflected;
                }
                if zi >= total {
                    break End::Transmitted;
                }
                if b == 0 {
                    break End::Lost;
                }
                let layer = t.edges[1..].partition_point(|&edge| edge <= zi);
                let lo = t.edges[layer];
                let hi = t.edges[layer + 1];
                let fx = if e == floor {
                    t.floor_xs[layer]
                } else {
                    FloorXs::for_energy(&t.xs[layer], Energy(e))
                };
                if fx.sigma_t <= 0.0 {
                    b -= 1;
                    let edge = if mui > 0.0 { hi } else { lo };
                    zi = edge + mui * eps;
                    continue;
                }
                while b > 0 {
                    b -= 1;
                    let znew = zi + mui * (zig.sample(rng) * fx.inv_sigma_t);
                    if znew >= hi {
                        zi = hi + mui * eps;
                        break;
                    }
                    if znew <= lo {
                        zi = lo + mui * eps;
                        break;
                    }
                    zi = znew;
                    abs_contrib[o] += wi * fx.absorb;
                    wi *= 1.0 - fx.absorb;
                    // Re-emit first so the weight window sees the full
                    // post-collision state: split copies must inherit
                    // the *outgoing* direction, or they would replay a
                    // free flight along the (depth-biased) incoming one
                    // and skew the batch toward transmission.
                    mui = 2.0 * rng.gen_f64() - 1.0;
                    if mui == 0.0 {
                        mui = 1e-9;
                    }
                    let tw = tw_by_region[region_of(zi)];
                    match apply_window(&mut wi, tw, vr, energy.len() < cap, rng) {
                        WindowAction::Keep => {}
                        WindowAction::Kill => break 'walk End::Rouletted,
                        WindowAction::Split(copies) => {
                            for _ in 0..copies {
                                let idx = energy.len() as u32;
                                energy.push(e);
                                z.push(zi);
                                mu.push(mui);
                                weight.push(wi);
                                budget.push(b);
                                origin.push(o as u32);
                                next.push(idx);
                            }
                        }
                    }
                }
            };
            match end {
                End::Reflected => out.reflected_thermal += wi,
                End::Transmitted => tt_contrib[o] += wi,
                End::Lost => out.lost += wi,
                End::Rouletted => {}
            }
        }

        // ---- flight + collision (weighted) ------------------------------
        for &i in &flight {
            let ii = i as usize;
            let Some(collision) = fly(
                t,
                &zig,
                energy[ii],
                &mut z[ii],
                mu[ii],
                &mut budget[ii],
                eps,
                rng,
            ) else {
                next.push(i);
                continue;
            };
            // Implicit capture: the absorbed share of the weight flows
            // into the tally and the survivor always scatters.
            let p_abs = collision.absorption_probability;
            abs_contrib[origin[ii] as usize] += weight[ii] * p_abs;
            weight[ii] *= 1.0 - p_abs;
            // Scatter before the window check so split copies inherit
            // the outgoing (post-collision) energy and direction.
            (energy[ii], mu[ii]) =
                elastic_scatter(energy[ii], mu[ii], collision.nuclide.mass_number, rng);
            let tw = tw_by_region[region_of(z[ii])];
            let mut wi = weight[ii];
            let action = apply_window(&mut wi, tw, vr, energy.len() < cap, rng);
            weight[ii] = wi;
            match action {
                WindowAction::Keep => {}
                WindowAction::Kill => continue,
                WindowAction::Split(copies) => {
                    for _ in 0..copies {
                        let idx = energy.len() as u32;
                        energy.push(energy[ii]);
                        z.push(z[ii]);
                        mu.push(mu[ii]);
                        weight.push(weight[ii]);
                        budget.push(budget[ii]);
                        origin.push(origin[ii]);
                        next.push(idx);
                    }
                }
            }
            next.push(i);
        }

        std::mem::swap(&mut active, &mut next);
    }

    for (&tt, &ab) in tt_contrib.iter().zip(abs_contrib.iter()) {
        out.transmitted_thermal += tt;
        out.transmitted_thermal_sq += tt * tt;
        out.absorbed += ab;
        out.absorbed_sq += ab * ab;
    }
    out
}
