//! Precomputed risk surfaces: steady-state fleet FIT queries as
//! bilinear table lookups, with the Monte-Carlo kernel reserved for
//! out-of-grid configurations.
//!
//! ## Why a 2-D table serves a 4-D query space
//!
//! A fleet query varies over (altitude × ¹⁰B areal density ×
//! thermal-field scaling × AVF). Two of those axes are *exactly* linear
//! in the FIT arithmetic — the thermal scaling multiplies the thermal
//! flux and the AVF multiplies both FIT contributions — so they are
//! folded in analytically at query time with zero interpolation error.
//! The same holds for geomagnetic rigidity (`he × r`, `th × r^1.24`).
//! What is left to tabulate is the (altitude × ¹⁰B) plane:
//!
//! * the high-energy flux `Φ_he(alt) = Φ_NYC · exp(k·(alt−10))`,
//! * the thermal flux `Φ_th(alt, N) = Φ_NYC,th · exp(k·(alt−10))^1.24
//!   · T(N)`, where `T(N)` is the diffuse thermal transmission of a
//!   borated-polyethylene slab holding `N` ¹⁰B atoms/cm² — the one
//!   factor that needs the Monte-Carlo kernel.
//!
//! ## Grid layout and error bound
//!
//! The tables store *logarithms* of the fluxes on an
//! `alt_nodes × b10_nodes` grid (altitude linear-spaced, ¹⁰B areal
//! density log-spaced), and queries interpolate bilinearly in
//! `(altitude, N)` before exponentiating. In log space the altitude
//! dependence `ln Φ ∝ alt` is an exact straight line, so the altitude
//! axis contributes no interpolation error at all; on the ¹⁰B axis,
//! absorption-dominated attenuation makes `ln T` close to linear *in N*
//! within each log-spaced cell, leaving only the mild scattering-buildup
//! curvature plus Monte-Carlo noise — ≤ 1 % on the grid interior at the
//! default node counts and history budgets (pinned by the
//! `fleet_subsystem` integration test).
//!
//! ## Determinism
//!
//! Construction is parallelised over ¹⁰B grid columns with the same
//! fork(shard) substream discipline the transport kernel uses for its
//! history shards: column `j` derives its seed as
//! `Rng::seed_from_u64(seed).fork(j)`, each column runs a *serial*
//! transport internally, and results are written into their slot by
//! index. Tables are therefore byte-identical for any thread count.

use crate::stats;
use tn_core::transport::{SlabStack, Transport, TransportConfig, VarianceReduction};
use tn_devices::{Device, ErrorClass};
use tn_environment::location::THERMAL_ALTITUDE_EXPONENT;
use tn_environment::Location;
use tn_fit::DeviceFit;
use tn_physics::constants::THERMAL_ENERGY;
use tn_physics::units::{Fit, Flux, Length};
use tn_physics::Material;
use tn_rng::Rng;

/// Transmission floor: a shield this black contributes FIT ≈ 0 anyway,
/// and the clamp keeps `ln T` finite for the log-space tables.
const MIN_TRANSMISSION: f64 = 1e-12;

/// Grid geometry and statistics budget for one risk surface.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceConfig {
    /// Lowest altitude node, metres.
    pub alt_min_m: f64,
    /// Highest altitude node, metres.
    pub alt_max_m: f64,
    /// Altitude nodes (≥ 2).
    pub alt_nodes: usize,
    /// log₁₀ of the smallest nonzero ¹⁰B areal-density node (atoms/cm²).
    pub log10_b10_min: f64,
    /// log₁₀ of the largest ¹⁰B areal-density node.
    pub log10_b10_max: f64,
    /// ¹⁰B nodes (≥ 2), log-spaced between the two bounds.
    pub b10_nodes: usize,
    /// Monte-Carlo histories per ¹⁰B column.
    pub histories_per_node: u64,
    /// Master seed; column `j` forks substream `j`.
    pub seed: u64,
    /// Worker threads for construction (0 ⇒ serial). Tables are
    /// byte-identical for any value.
    pub threads: usize,
}

impl SurfaceConfig {
    /// The production grid: 33 altitude nodes over 0–4000 m × 17 ¹⁰B
    /// nodes over 10¹⁷–10²¹ atoms/cm², 32 Ki histories per column.
    pub fn full(seed: u64) -> Self {
        Self {
            alt_min_m: 0.0,
            alt_max_m: 4_000.0,
            alt_nodes: 33,
            log10_b10_min: 17.0,
            log10_b10_max: 21.0,
            b10_nodes: 17,
            histories_per_node: 32_768,
            seed,
            threads: tn_core::transport::default_threads(),
        }
    }

    /// A low-statistics grid for CI smoke runs and debug builds.
    pub fn quick(seed: u64) -> Self {
        Self {
            alt_nodes: 9,
            b10_nodes: 9,
            histories_per_node: 4_096,
            ..Self::full(seed)
        }
    }
}

/// Site-side query parameters (everything but the device).
///
/// Callers must pass values that already satisfy
/// [`crate::FleetEntry::validate`]-level constraints; in particular the
/// altitude must lie in the terrestrial `-430..=9000` m range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteParams {
    /// Site altitude, metres.
    pub altitude_m: f64,
    /// Geomagnetic rigidity factor (1.0 = NYC).
    pub rigidity_factor: f64,
    /// Shield ¹⁰B areal density, atoms/cm² (0 = unshielded).
    pub b10_areal_cm2: f64,
    /// Thermal-field scaling factor.
    pub thermal_scaling: f64,
    /// Workload AVF in `(0..=1]`.
    pub avf: f64,
}

impl SiteParams {
    /// The site parameters of a registry entry.
    pub fn from_entry(entry: &crate::FleetEntry) -> Self {
        Self {
            altitude_m: entry.altitude_m,
            rigidity_factor: entry.rigidity_factor,
            b10_areal_cm2: entry.b10_areal_cm2,
            thermal_scaling: entry.thermal_scaling,
            avf: entry.avf,
        }
    }
}

/// Which path produced an assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiskSource {
    /// Served from the precomputed surface (no transport run).
    Surface,
    /// Out-of-grid configuration; a Monte-Carlo run was needed.
    MonteCarlo,
}

impl RiskSource {
    /// The label used in API responses.
    pub fn label(self) -> &'static str {
        match self {
            RiskSource::Surface => "surface",
            RiskSource::MonteCarlo => "mc",
        }
    }
}

/// One device × site risk result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskAssessment {
    /// Silent-data-corruption FIT (AVF applied).
    pub sdc: DeviceFit,
    /// Detected-unrecoverable-error FIT (AVF applied).
    pub due: DeviceFit,
    /// Which path produced the numbers.
    pub source: RiskSource,
}

/// A built risk surface: log-space flux tables over the
/// (altitude × ¹⁰B areal density) plane.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskSurface {
    config: SurfaceConfig,
    /// Altitude node coordinates, metres (len = alt_nodes).
    alt_m: Vec<f64>,
    /// ¹⁰B node coordinates, atoms/cm² (len = b10_nodes, log-spaced).
    b10_n: Vec<f64>,
    /// ln high-energy flux per altitude node (rigidity 1).
    ln_he: Vec<f64>,
    /// ln unshielded thermal flux per altitude node (rigidity 1).
    ln_th_base: Vec<f64>,
    /// ln shield transmission per ¹⁰B node (the Monte-Carlo factor).
    ln_t: Vec<f64>,
    /// The 2-D table: ln shielded thermal flux, alt-major
    /// (`[i * b10_nodes + j]`).
    ln_th: Vec<f64>,
}

/// ¹⁰B number density of the borated-polyethylene shield material,
/// atoms/cm³ — converts areal density to slab thickness.
fn b10_number_density() -> f64 {
    Material::borated_polyethylene()
        .constituents()
        .iter()
        .find(|c| c.nuclide.symbol == "B10")
        .expect("borated polyethylene contains B10")
        .density
        .value()
}

/// Diffuse thermal transmission of a borated-PE slab with ¹⁰B areal
/// density `n_b10` (atoms/cm²), via the variance-reduced weighted
/// kernel. Runs serially: parallelism lives one level up, across grid
/// columns.
fn shield_transmission(n_b10: f64, histories: u64, seed: u64) -> f64 {
    if n_b10 <= 0.0 {
        return 1.0;
    }
    let thickness_cm = n_b10 / b10_number_density();
    let stack = SlabStack::single(Material::borated_polyethylene(), Length(thickness_cm));
    let transport = Transport::with_config(stack, TransportConfig::serial());
    let tally = transport.run_diffuse_weighted(
        THERMAL_ENERGY,
        histories,
        seed,
        VarianceReduction::default(),
    );
    tally.transmitted_thermal_fraction().max(MIN_TRANSMISSION)
}

/// Linear interpolation weight of `x` inside `[lo, hi]`.
fn lerp(a: f64, b: f64, u: f64) -> f64 {
    a + (b - a) * u
}

/// Finds the cell `[nodes[i], nodes[i+1]]` containing `x` and the
/// fractional position inside it. `None` outside the node range.
fn bracket(nodes: &[f64], x: f64) -> Option<(usize, f64)> {
    let (first, last) = (*nodes.first()?, *nodes.last()?);
    if !(first..=last).contains(&x) {
        return None;
    }
    let i = match nodes.iter().position(|n| x <= *n) {
        Some(0) => 0,
        Some(i) => i - 1,
        None => return None,
    };
    let i = i.min(nodes.len() - 2);
    let (lo, hi) = (nodes[i], nodes[i + 1]);
    Some((i, (x - lo) / (hi - lo)))
}

impl RiskSurface {
    /// Builds the surface: one serial Monte-Carlo transmission run per
    /// ¹⁰B column (fork(j) substream), columns distributed over
    /// `config.threads` workers, results merged by index — byte-identical
    /// for any thread count. The analytic altitude factors fill the rest
    /// of the table.
    pub fn build(config: SurfaceConfig) -> Self {
        assert!(config.alt_nodes >= 2, "need at least 2 altitude nodes");
        assert!(config.b10_nodes >= 2, "need at least 2 b10 nodes");
        assert!(
            config.alt_max_m > config.alt_min_m,
            "altitude range must be non-degenerate"
        );
        assert!(
            config.log10_b10_max > config.log10_b10_min,
            "b10 range must be non-degenerate"
        );
        let _span = tn_obs::span("fleet.surface_build");
        let started = std::time::Instant::now();

        let alt_m: Vec<f64> = (0..config.alt_nodes)
            .map(|i| {
                lerp(
                    config.alt_min_m,
                    config.alt_max_m,
                    i as f64 / (config.alt_nodes - 1) as f64,
                )
            })
            .collect();
        let b10_n: Vec<f64> = (0..config.b10_nodes)
            .map(|j| {
                10f64.powf(lerp(
                    config.log10_b10_min,
                    config.log10_b10_max,
                    j as f64 / (config.b10_nodes - 1) as f64,
                ))
            })
            .collect();

        // The Monte-Carlo factor: one transmission per ¹⁰B column,
        // sharded over workers, written by index.
        let mut ln_t = vec![0.0f64; config.b10_nodes];
        let threads = config.threads.max(1).min(config.b10_nodes);
        let per_worker = ln_t.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (w, chunk) in ln_t.chunks_mut(per_worker).enumerate() {
                let b10_n = &b10_n;
                let config = &config;
                scope.spawn(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        let j = w * per_worker + k;
                        let column_seed = Rng::seed_from_u64(config.seed).fork(j as u64).next_u64();
                        *slot =
                            shield_transmission(b10_n[j], config.histories_per_node, column_seed)
                                .ln();
                    }
                });
            }
        });

        // The analytic factors: exact per altitude node (rigidity 1).
        let mut ln_he = Vec::with_capacity(config.alt_nodes);
        let mut ln_th_base = Vec::with_capacity(config.alt_nodes);
        for &alt in &alt_m {
            let loc = Location::new("surface node", alt, 1.0);
            ln_he.push(loc.high_energy_flux().value().ln());
            ln_th_base.push(loc.base_thermal_flux().value().ln());
        }

        // The 2-D table is the outer sum of the two factors. Stored (not
        // recomputed per query) so lookups are genuine bilinear reads.
        let mut ln_th = Vec::with_capacity(config.alt_nodes * config.b10_nodes);
        for &base in &ln_th_base {
            for &t in &ln_t {
                ln_th.push(base + t);
            }
        }

        stats::record_build(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        Self {
            config,
            alt_m,
            b10_n,
            ln_he,
            ln_th_base,
            ln_t,
            ln_th,
        }
    }

    /// The configuration this surface was built from.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// Whether `(altitude, b10)` lies on the grid (zero shielding counts:
    /// the `[0, N₀)` segment interpolates against the exact `T(0) = 1`).
    pub fn covers(&self, altitude_m: f64, b10_areal_cm2: f64) -> bool {
        let alt_ok = (self.alt_m[0]..=*self.alt_m.last().expect("nodes")).contains(&altitude_m);
        let b10_ok = (0.0..=*self.b10_n.last().expect("nodes")).contains(&b10_areal_cm2);
        alt_ok && b10_ok
    }

    /// Table lookup: `(high-energy flux, thermal flux)` at rigidity 1 and
    /// thermal scaling 1. `None` when off-grid.
    fn fluxes_from_surface(&self, altitude_m: f64, b10: f64) -> Option<(f64, f64)> {
        let (i, u) = bracket(&self.alt_m, altitude_m)?;
        let he = lerp(self.ln_he[i], self.ln_he[i + 1], u).exp();
        let cols = self.config.b10_nodes;
        let th = if b10 < self.b10_n[0] {
            if b10 < 0.0 {
                return None;
            }
            // Sub-grid shielding: interpolate ln T linearly in N between
            // the exact T(0) = 1 and the first node — near-exact because
            // attenuation this thin is purely exponential.
            let ln_t = (b10 / self.b10_n[0]) * self.ln_t[0];
            lerp(self.ln_th_base[i], self.ln_th_base[i + 1], u) + ln_t
        } else {
            let (j, v) = bracket(&self.b10_n, b10)?;
            let row_lo = lerp(self.ln_th[i * cols + j], self.ln_th[i * cols + j + 1], v);
            let row_hi = lerp(
                self.ln_th[(i + 1) * cols + j],
                self.ln_th[(i + 1) * cols + j + 1],
                v,
            );
            lerp(row_lo, row_hi, u)
        }
        .exp();
        Some((he, th))
    }

    /// Direct evaluation: analytic altitude factors plus a dedicated
    /// Monte-Carlo transmission run at the exact ¹⁰B value — the
    /// fallback for off-grid configurations and the differential oracle
    /// the conformance tests compare the table against.
    pub fn fluxes_direct(&self, altitude_m: f64, b10: f64) -> (f64, f64) {
        let loc = Location::new("direct query", altitude_m, 1.0);
        let t = if b10 <= 0.0 {
            1.0
        } else {
            let seed = Rng::seed_from_u64(self.config.seed)
                .fork(b10.to_bits())
                .next_u64();
            shield_transmission(b10, self.config.histories_per_node, seed)
        };
        (
            loc.high_energy_flux().value(),
            loc.base_thermal_flux().value() * t,
        )
    }

    /// Assesses one device at a site: surface lookup when the grid
    /// covers the configuration, Monte-Carlo fallback otherwise. The
    /// linear axes (rigidity, thermal scaling, AVF) are folded in
    /// analytically either way.
    pub fn assess(&self, device: &Device, p: &SiteParams) -> RiskAssessment {
        let (he, th, source) = match self.fluxes_from_surface(p.altitude_m, p.b10_areal_cm2) {
            Some((he, th)) => {
                stats::surface_hit();
                (he, th, RiskSource::Surface)
            }
            None => {
                stats::mc_fallback();
                let (he, th) = self.fluxes_direct(p.altitude_m, p.b10_areal_cm2);
                (he, th, RiskSource::MonteCarlo)
            }
        };
        let he_flux = Flux(he * p.rigidity_factor);
        let th_flux =
            Flux(th * p.rigidity_factor.powf(THERMAL_ALTITUDE_EXPONENT) * p.thermal_scaling);
        let fit_for = |class: ErrorClass| {
            let region = device.response().region(class);
            DeviceFit {
                high_energy: Fit(region.fast_saturated().fit_in(he_flux).value() * p.avf),
                thermal: Fit(region
                    .b10_cross_section_at(THERMAL_ENERGY)
                    .fit_in(th_flux)
                    .value()
                    * p.avf),
            }
        };
        RiskAssessment {
            sdc: fit_for(ErrorClass::Sdc),
            due: fit_for(ErrorClass::Due),
            source,
        }
    }

    /// FNV-1a digest over the node coordinates and both log tables —
    /// byte-level identity check for the determinism tests.
    pub fn grid_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for table in [
            &self.alt_m,
            &self.b10_n,
            &self.ln_he,
            &self.ln_th_base,
            &self.ln_t,
            &self.ln_th,
        ] {
            eat(table.len() as u64);
            for &v in table.iter() {
                eat(v.to_bits());
            }
        }
        hash
    }

    /// Serialises the surface for on-disk caching (`serve
    /// --surface-cache`). Every `f64` — node coordinates, log tables,
    /// and the float config fields — is stored as the 16-hex-digit bit
    /// pattern of its `to_bits()`, because a decimal rendering would
    /// round-trip approximately and break the byte-identity contract
    /// that [`RiskSurface::grid_digest`] verifies (and JSON numbers
    /// cannot carry a `u64` bit pattern exactly past 2⁵³). The digest
    /// itself rides along so [`RiskSurface::from_json`] can reject a
    /// corrupted or hand-edited file.
    pub fn to_json(&self) -> tn_core::json::Json {
        use tn_core::json::Json;
        let hex = |v: f64| Json::Str(format!("{:016x}", v.to_bits()));
        let hex_vec = |vs: &[f64]| Json::Array(vs.iter().map(|&v| hex(v)).collect());
        let config = Json::Object(vec![
            ("alt_min_m".into(), hex(self.config.alt_min_m)),
            ("alt_max_m".into(), hex(self.config.alt_max_m)),
            ("alt_nodes".into(), Json::Num(self.config.alt_nodes as f64)),
            ("log10_b10_min".into(), hex(self.config.log10_b10_min)),
            ("log10_b10_max".into(), hex(self.config.log10_b10_max)),
            ("b10_nodes".into(), Json::Num(self.config.b10_nodes as f64)),
            (
                "histories_per_node".into(),
                Json::Str(format!("{:016x}", self.config.histories_per_node)),
            ),
            (
                "seed".into(),
                Json::Str(format!("{:016x}", self.config.seed)),
            ),
            ("threads".into(), Json::Num(self.config.threads as f64)),
        ]);
        Json::Object(vec![
            ("config".into(), config),
            ("alt_m".into(), hex_vec(&self.alt_m)),
            ("b10_n".into(), hex_vec(&self.b10_n)),
            ("ln_he".into(), hex_vec(&self.ln_he)),
            ("ln_th_base".into(), hex_vec(&self.ln_th_base)),
            ("ln_t".into(), hex_vec(&self.ln_t)),
            ("ln_th".into(), hex_vec(&self.ln_th)),
            (
                "digest".into(),
                Json::Str(format!("{:016x}", self.grid_digest())),
            ),
        ])
    }

    /// Restores a surface serialised by [`RiskSurface::to_json`],
    /// verifying table dimensions against the config and the
    /// recomputed [`RiskSurface::grid_digest`] against the stored one.
    pub fn from_json(doc: &tn_core::json::Json) -> Result<Self, String> {
        use tn_core::json::Json;
        let hex_u64 = |v: &Json, what: &str| -> Result<u64, String> {
            let s = v
                .as_str()
                .ok_or_else(|| format!("{what}: not a hex string"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("{what}: bad hex `{s}`"))
        };
        let field = |doc: &Json, key: &str| -> Result<Json, String> {
            doc.get(key)
                .cloned()
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let hex_f64 =
            |v: &Json, what: &str| -> Result<f64, String> { Ok(f64::from_bits(hex_u64(v, what)?)) };
        let usize_of = |v: &Json, what: &str| -> Result<usize, String> {
            v.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("{what}: not an integer"))
        };
        let vec_of = |v: &Json, what: &str| -> Result<Vec<f64>, String> {
            v.as_array()
                .ok_or_else(|| format!("{what}: not an array"))?
                .iter()
                .map(|item| hex_f64(item, what))
                .collect()
        };

        let c = field(doc, "config")?;
        let config = SurfaceConfig {
            alt_min_m: hex_f64(&field(&c, "alt_min_m")?, "alt_min_m")?,
            alt_max_m: hex_f64(&field(&c, "alt_max_m")?, "alt_max_m")?,
            alt_nodes: usize_of(&field(&c, "alt_nodes")?, "alt_nodes")?,
            log10_b10_min: hex_f64(&field(&c, "log10_b10_min")?, "log10_b10_min")?,
            log10_b10_max: hex_f64(&field(&c, "log10_b10_max")?, "log10_b10_max")?,
            b10_nodes: usize_of(&field(&c, "b10_nodes")?, "b10_nodes")?,
            histories_per_node: hex_u64(&field(&c, "histories_per_node")?, "histories_per_node")?,
            seed: hex_u64(&field(&c, "seed")?, "seed")?,
            threads: usize_of(&field(&c, "threads")?, "threads")?,
        };
        let surface = Self {
            alt_m: vec_of(&field(doc, "alt_m")?, "alt_m")?,
            b10_n: vec_of(&field(doc, "b10_n")?, "b10_n")?,
            ln_he: vec_of(&field(doc, "ln_he")?, "ln_he")?,
            ln_th_base: vec_of(&field(doc, "ln_th_base")?, "ln_th_base")?,
            ln_t: vec_of(&field(doc, "ln_t")?, "ln_t")?,
            ln_th: vec_of(&field(doc, "ln_th")?, "ln_th")?,
            config,
        };
        let (alt, b10) = (surface.config.alt_nodes, surface.config.b10_nodes);
        if alt < 2 || b10 < 2 {
            return Err("config declares fewer than 2 nodes per axis".into());
        }
        for (name, len, want) in [
            ("alt_m", surface.alt_m.len(), alt),
            ("b10_n", surface.b10_n.len(), b10),
            ("ln_he", surface.ln_he.len(), alt),
            ("ln_th_base", surface.ln_th_base.len(), alt),
            ("ln_t", surface.ln_t.len(), b10),
            ("ln_th", surface.ln_th.len(), alt * b10),
        ] {
            if len != want {
                return Err(format!(
                    "table `{name}` has {len} entries, config wants {want}"
                ));
            }
        }
        let stored = hex_u64(&field(doc, "digest")?, "digest")?;
        let actual = surface.grid_digest();
        if stored != actual {
            return Err(format!(
                "grid digest mismatch: stored {stored:016x}, tables hash to {actual:016x}"
            ));
        }
        Ok(surface)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> SurfaceConfig {
        SurfaceConfig {
            alt_nodes: 3,
            b10_nodes: 3,
            histories_per_node: 1_024,
            ..SurfaceConfig::full(seed)
        }
    }

    #[test]
    fn bracket_finds_cells_and_rejects_outside() {
        let nodes = [0.0, 1.0, 4.0];
        assert_eq!(bracket(&nodes, 0.0), Some((0, 0.0)));
        let (i, u) = bracket(&nodes, 2.5).unwrap();
        assert_eq!(i, 1);
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(bracket(&nodes, 4.0), Some((1, 1.0)));
        assert_eq!(bracket(&nodes, -0.1), None);
        assert_eq!(bracket(&nodes, 4.1), None);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let surface = RiskSurface::build(tiny_config(17));
        let line = surface.to_json().to_canonical_string();
        let doc = tn_core::json::parse(&line).expect("serialised surface parses");
        let restored = RiskSurface::from_json(&doc).expect("restores");
        // Byte identity of the tables, verified the same way the
        // determinism tests do — and full struct equality on top.
        assert_eq!(restored.grid_digest(), surface.grid_digest());
        assert_eq!(restored, surface);
        // A restored surface answers queries identically.
        assert_eq!(
            restored.fluxes_from_surface(1_234.5, 3e18),
            surface.fluxes_from_surface(1_234.5, 3e18)
        );
    }

    #[test]
    fn from_json_rejects_corruption() {
        let surface = RiskSurface::build(tiny_config(23));
        let good = surface.to_json().to_canonical_string();
        // Flip one hex digit inside a table entry: the digest check
        // must catch it even though the document still parses.
        let target = format!("{:016x}", surface.ln_th[0].to_bits());
        let flipped: String = {
            let mut s = target.clone().into_bytes();
            s[0] = if s[0] == b'f' { b'e' } else { b'f' };
            String::from_utf8(s).unwrap()
        };
        let corrupted = good.replacen(&target, &flipped, 1);
        assert_ne!(corrupted, good, "corruption actually changed the text");
        let doc = tn_core::json::parse(&corrupted).unwrap();
        let err = RiskSurface::from_json(&doc).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        // Truncated tables are rejected by the dimension check.
        let doc = tn_core::json::parse(&good).unwrap();
        if let tn_core::json::Json::Object(fields) = &doc {
            let mut fields = fields.clone();
            for (k, v) in fields.iter_mut() {
                if k == "ln_he" {
                    if let tn_core::json::Json::Array(items) = v {
                        items.pop();
                    }
                }
            }
            let err = RiskSurface::from_json(&tn_core::json::Json::Object(fields)).unwrap_err();
            assert!(err.contains("ln_he"), "{err}");
        } else {
            panic!("surface serialises to an object");
        }
    }

    #[test]
    fn transmission_decreases_with_areal_density() {
        let surface = RiskSurface::build(tiny_config(11));
        assert!(surface.ln_t[0] > surface.ln_t[1]);
        assert!(surface.ln_t[1] > surface.ln_t[2]);
        // A thin 1e17 shield transmits nearly everything; a 1e21 one
        // attenuates heavily.
        assert!(surface.ln_t[0] > (0.9f64).ln());
        assert!(surface.ln_t[2] < (0.5f64).ln());
    }

    #[test]
    fn altitude_axis_is_exact_under_interpolation() {
        let surface = RiskSurface::build(tiny_config(5));
        // Mid-cell altitude, zero shielding: the table value must match
        // the analytic flux to floating-point noise, because ln(flux) is
        // linear in altitude.
        let alt = 1_234.5;
        let (he, th) = surface.fluxes_from_surface(alt, 0.0).unwrap();
        let loc = Location::new("check", alt, 1.0);
        assert!((he / loc.high_energy_flux().value() - 1.0).abs() < 1e-12);
        assert!((th / loc.base_thermal_flux().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_boundaries() {
        let surface = RiskSurface::build(tiny_config(3));
        assert!(surface.covers(0.0, 0.0));
        assert!(surface.covers(4_000.0, 1e21));
        assert!(!surface.covers(4_000.1, 0.0));
        assert!(!surface.covers(-1.0, 0.0));
        assert!(!surface.covers(100.0, 1.1e21));
        assert!(surface.fluxes_from_surface(100.0, 2e21).is_none());
    }

    #[test]
    fn assess_applies_the_linear_axes_exactly() {
        let surface = RiskSurface::build(tiny_config(9));
        let devices = tn_devices::all_compute_devices();
        let device = &devices[0];
        let base = SiteParams {
            altitude_m: 500.0,
            rigidity_factor: 1.0,
            b10_areal_cm2: 0.0,
            thermal_scaling: 1.0,
            avf: 1.0,
        };
        let reference = surface.assess(device, &base);
        assert_eq!(reference.source, RiskSource::Surface);

        // AVF scales both contributions of both classes linearly.
        let half = surface.assess(device, &SiteParams { avf: 0.5, ..base });
        assert!((half.sdc.total().value() / reference.sdc.total().value() - 0.5).abs() < 1e-12);
        // Thermal scaling touches only the thermal contribution.
        let hot = surface.assess(
            device,
            &SiteParams {
                thermal_scaling: 2.0,
                ..base
            },
        );
        assert!((hot.sdc.thermal.value() / reference.sdc.thermal.value() - 2.0).abs() < 1e-12);
        assert!((hot.sdc.high_energy.value() - reference.sdc.high_energy.value()).abs() < 1e-15);
        // Rigidity: he × r, th × r^1.24.
        let rigid = surface.assess(
            device,
            &SiteParams {
                rigidity_factor: 2.0,
                ..base
            },
        );
        assert!(
            (rigid.sdc.high_energy.value() / reference.sdc.high_energy.value() - 2.0).abs() < 1e-12
        );
        assert!(
            (rigid.sdc.thermal.value() / reference.sdc.thermal.value()
                - 2f64.powf(THERMAL_ALTITUDE_EXPONENT))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn off_grid_queries_fall_back_to_monte_carlo() {
        let surface = RiskSurface::build(tiny_config(13));
        let devices = tn_devices::all_compute_devices();
        let p = SiteParams {
            altitude_m: 8_000.0, // above the grid, inside the flux model
            rigidity_factor: 1.0,
            b10_areal_cm2: 0.0,
            thermal_scaling: 1.0,
            avf: 1.0,
        };
        let fallbacks_before = stats::mc_fallbacks_total();
        let r = surface.assess(&devices[0], &p);
        assert_eq!(r.source, RiskSource::MonteCarlo);
        assert_eq!(stats::mc_fallbacks_total(), fallbacks_before + 1);
        assert!(r.sdc.total().value() > 0.0);
    }
}
