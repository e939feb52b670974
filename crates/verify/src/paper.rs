//! The reproduction ledger: one row per number EXPERIMENTS.md reports,
//! each regenerated with an interval and held to the paper's value.
//!
//! Every row is measured at seed [`SEED`] with one study configuration,
//! [`PipelineConfig::thorough`], whatever seed or profile the `verify`
//! run itself uses. A row carries:
//!
//! - the paper's value as stated and its precision, half a unit in the
//!   last stated digit ("≈2" is ±0.5, "10.14" is ±0.005; 0 for a
//!   qualitative claim, whose threshold the claim states);
//! - the claim's form: a point, a band, at least or at most;
//! - its kind: derived by the simulated experiment, calibrated to the
//!   paper by construction, or configuration;
//! - the seed-2020 value and, when the value depends on the seed, a 95 %
//!   interval: for study and transport numbers the prediction interval of
//!   one more run from the spread over [`SWEEP_SEEDS`], mean ± t · sd ·
//!   √(1 + 1/n) with Student's t at 0.975 and n − 1 degrees of freedom;
//!   Garwood or Wilson binomial bounds from the row's own counts for
//!   counts and fractions;
//! - a verdict. *Consistent* (*calibrated* for a fitted row) when the
//!   claim, widened by the paper's precision, holds somewhere in the
//!   interval; *deviation* otherwise. A deviation must state its cause
//!   ([`CAUSES`]): one without a cause fails its `paper` check, and so
//!   does a cause on a row that does not deviate.
//!
//! The ledger is computed once per process ([`ledger`]), blessed as
//! `tests/golden/reproduction.json`, and EXPERIMENTS.md's tables are
//! rendered from that JSON by [`splice_tables`].

use crate::report::CheckResult;
use std::sync::OnceLock;
use tn_core::beamline::{Campaign, Facility};
use tn_core::devices::catalog::{self, all_compute_devices, Device};
use tn_core::devices::ddr::{classify, CorrectLoop, CorrectLoopLog, DdrModule};
use tn_core::devices::ecc::replay_with_ecc;
use tn_core::devices::fpga::{run_scrubbed, ConfigMemory, DesignPrecision};
use tn_core::devices::{DeviceResponse, ErrorClass, SensitiveRegion};
use tn_core::environment::{Climate, DataCenterRoom, Environment, Location, Surroundings, Weather};
use tn_core::fault_injection::{profile_by_bit, BitRegion, InjectionStats};
use tn_core::fit::hpc::ranked_by_thermal_fit;
use tn_core::fit::{analyse_trend, CheckpointPlan, WeulersseBaseline};
use tn_core::physics::constants::{
    LIQUID_METHANE_TEMPERATURE, ROOM_TEMPERATURE, ROTAX_THERMAL_FLUX,
};
use tn_core::physics::spectrum::{chipir_reference, rotax_reference};
use tn_core::physics::stats::{garwood_interval, RunningStats};
use tn_core::physics::units::{Energy, Flux, Length, Seconds, Temperature};
use tn_core::physics::{EnergyBand, Material, Shape, Spectrum};
use tn_core::transport::AttenuationCurve;
use tn_core::workloads::{bfs::Bfs, hotspot::HotSpot, mxm::MxM};
use tn_core::{find_device, DeviceReport, Json, Pipeline, PipelineConfig, StudyReport};
use Claim::{AtLeast, AtMost, Band, Point};
use Kind::{Calibrated, Configuration, Derived};

/// The seed every row is measured at.
pub const SEED: u64 = 2020;

/// The seeds whose spread gives a seed-dependent row its interval.
pub const SWEEP_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// Student's t at 0.975 with 9 degrees of freedom: the two-sided 95 %
/// quantile for the ten runs of [`SWEEP_SEEDS`].
const T_975_9: f64 = 2.262_157_162_798_205;
const _: () = assert!(*SWEEP_SEEDS.end() - *SWEEP_SEEDS.start() == 9);

/// Stated causes of the rows that deviate, by row id.
pub const CAUSES: &[(&str, &str)] = &[
    ("fig5.due.apu_cpu", APU_DUE_CAUSE),
    ("fig5.due.apu_gpu", APU_DUE_CAUSE),
    ("fig5.due.apu_hybrid", APU_DUE_CAUSE),
    (
        "exta.phi_due_leadville",
        "the model's Leadville machine-room thermal/HE flux ratio is about 0.82, set by the \
         thermal altitude exponent fitted to the K20 anchor (29 % at a ratio of 2.0); the \
         paper's own Xeon Phi DUE ratio (6.37) and share (10.6 %) imply 0.755, as its APU \
         anchor (1.18, 39 %) does, so the three paper anchors agree only if the K20 ratio \
         behind its 29 % is nearer 1.85 than 2",
    ),
    (
        "exti.xeon_phi",
        "the model runs the Xeon Phi on the four HPC codes alone (MxM, LUD, LavaMD and HotSpot; \
         `tn_core::workloads_for`), whose injected SDC shares lie within about 1.5× of each \
         other, as they do on the K20 (1.45× over the same four codes at seed 2020); every spread \
         above 2× in this table comes from a code with a far lower SDC share, YOLO on the GPUs \
         and CED against SC on the APU",
    ),
    (
        "exta.max_share",
        "the paper's \"up to 40 %\" rounds up its largest anchor, the APU (CPU+GPU) DUE share \
         of 39 %, which `exta.apu_hybrid_due_leadville` reproduces",
    ),
];

/// Why the three APU DUE ratios sit above the paper's.
const APU_DUE_CAUSE: &str = "`Campaign::expected_rates` counts datapath flips that crash the \
     code as DUEs (`datapath * due_fraction`); those flips carry the datapath's SDC ratio of \
     2.5–3, while `catalog::device` fits ¹⁰B for the control region alone, so the measured DUE \
     ratio rises above its target (with that term removed the three ratios come out near 1.5, \
     1.3 and 1.18)";

/// The form of a paper claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// The value itself.
    Point(f64),
    /// A closed range.
    Band(f64, f64),
    /// A lower bound.
    AtLeast(f64),
    /// An upper bound.
    AtMost(f64),
}

impl Claim {
    /// The claim's bounds (one infinite for an inequality).
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Point(v) => (v, v),
            Band(lo, hi) => (lo, hi),
            AtLeast(v) => (v, f64::INFINITY),
            AtMost(v) => (f64::NEG_INFINITY, v),
        }
    }

    /// Whether the claim, widened by `precision`, meets `[lo, hi]`.
    pub fn holds(&self, precision: f64, lo: f64, hi: f64) -> bool {
        let (a, b) = self.bounds();
        lo <= b + precision && hi >= a - precision
    }

    fn label(&self) -> &'static str {
        match self {
            Point(_) => "point",
            Band(..) => "band",
            AtLeast(_) => "at_least",
            AtMost(_) => "at_most",
        }
    }
}

/// Where a row's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Produced by the simulated experiment.
    Derived,
    /// Fitted to the paper by construction.
    Calibrated,
    /// Set by the modelled apparatus.
    Configuration,
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claim holds in the interval.
    Consistent,
    /// A calibrated row whose claim holds: it was fitted to hold.
    Calibrated,
    /// The claim fails everywhere in the interval.
    Deviation,
}

/// The interval of a seed-dependent row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// How the bounds were computed: `sweep`, `garwood` or `binomial`.
    pub method: &'static str,
}

/// What a row claims: id (`<artefact>.<quantity>`), quantity with its
/// unit, the paper's statement, claim, precision and kind.
pub type Spec = (&'static str, &'static str, &'static str, Claim, f64, Kind);

/// One ledger row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row claims.
    pub spec: Spec,
    /// The value at [`SEED`].
    pub value: f64,
    /// The interval, for seed-dependent rows.
    pub interval: Option<Interval>,
    /// The verdict.
    pub verdict: Verdict,
    /// The stated cause of a deviation.
    pub cause: Option<&'static str>,
}

impl Row {
    /// Judges `value` (or `interval`, when the value depends on the seed)
    /// against the claim, and looks up the row's stated cause.
    pub fn new(spec: Spec, value: f64, interval: Option<Interval>) -> Self {
        let (id, _, _, claim, precision, kind) = spec;
        let (lo, hi) = interval.map_or((value, value), |i| (i.lo, i.hi));
        let verdict = match (claim.holds(precision, lo, hi), kind) {
            (false, _) => Verdict::Deviation,
            (true, Calibrated) => Verdict::Calibrated,
            (true, _) => Verdict::Consistent,
        };
        let cause = CAUSES.iter().find(|(c, _)| *c == id).map(|&(_, c)| c);
        Self {
            spec,
            value,
            interval,
            verdict,
            cause,
        }
    }

    /// The row id.
    pub fn id(&self) -> &'static str {
        self.spec.0
    }

    /// Whether the row passes its `paper` check: a deviation states its
    /// cause, and only a deviation does.
    pub fn passes(&self) -> bool {
        (self.verdict == Verdict::Deviation) == self.cause.is_some()
    }

    fn to_json(&self) -> Json {
        let (id, quantity, paper, claim, precision, kind) = self.spec;
        let (a, b) = claim.bounds();
        let text = |s: &str| Json::Str(s.to_string());
        let interval = self.interval.map_or(Json::Null, |i| {
            let bounds = [
                ("method", text(i.method)),
                ("lo", Json::Num(i.lo)),
                ("hi", Json::Num(i.hi)),
            ];
            Json::Object(bounds.map(|(k, v)| (k.to_string(), v)).into())
        });
        let members = [
            ("id", text(id)),
            ("artefact", text(artefact(id))),
            ("quantity", text(quantity)),
            ("paper", text(paper)),
            ("claim", text(claim.label())),
            ("bounds", Json::Array(vec![Json::Num(a), Json::Num(b)])),
            ("precision", Json::Num(precision)),
            ("kind", text(&format!("{kind:?}").to_lowercase())),
            ("value", Json::Num(self.value)),
            ("interval", interval),
            (
                "verdict",
                text(&format!("{:?}", self.verdict).to_lowercase()),
            ),
            ("cause", self.cause.map_or(Json::Null, text)),
        ];
        Json::Object(members.map(|(k, v)| (k.to_string(), v)).into())
    }
}

/// Artefacts in EXPERIMENTS.md order; a row id starts with its
/// artefact, lower-cased without the dash (`EXT-A` → `exta.`).
const ARTEFACTS: [&str; 18] = [
    "FIG2", "FIG5", "FIG1", "FIG4", "FIG6", "EXT-A", "EXT-B", "EXT-C", "EXT-D", "EXT-E", "EXT-F",
    "EXT-G", "EXT-H", "EXT-I", "EXT-J", "EXT-K", "ABL-1", "ABL-2",
];

fn artefact(id: &str) -> &'static str {
    let prefix = id.split('.').next().unwrap_or(id);
    ARTEFACTS
        .into_iter()
        .find(|a| a.replace('-', "").to_lowercase() == prefix)
        .unwrap_or_else(|| panic!("row id {id} names no artefact"))
}

/// The 95 % prediction interval of one more run, from the runs at
/// [`SWEEP_SEEDS`].
fn sweep_interval(values: impl Iterator<Item = f64>) -> Interval {
    let stats: RunningStats = values.collect();
    let n = SWEEP_SEEDS.count() as f64;
    assert_eq!(stats.count() as f64, n, "one value per sweep seed");
    let half = T_975_9 * stats.std_dev() * (1.0 + 1.0 / n).sqrt();
    Interval {
        lo: stats.mean() - half,
        hi: stats.mean() + half,
        method: "sweep",
    }
}

/// Bounds on `scale · num / den` from the counts' 95 % Garwood intervals
/// (`den = None`: the count `num` alone).
fn garwood(num: u64, den: Option<u64>, scale: f64) -> Interval {
    let (n_lo, n_hi) = garwood_interval(num, 0.95);
    let (d_lo, d_hi) = den.map_or((1.0, 1.0), |d| garwood_interval(d, 0.95));
    let hi = if d_lo > 0.0 {
        scale * n_hi / d_lo
    } else {
        f64::INFINITY
    };
    Interval {
        lo: scale * n_lo / d_hi,
        hi,
        method: "garwood",
    }
}

/// The 95 % Wilson score interval of `hits` out of `trials`.
fn binomial(hits: u64, trials: u64) -> Interval {
    const Z: f64 = 1.959_963_984_540_054;
    let n = trials.max(1) as f64;
    let p = hits as f64 / n;
    let shrink = 1.0 + Z * Z / n;
    let centre = (p + Z * Z / (2.0 * n)) / shrink;
    let half = Z * (p * (1.0 - p) / n + Z * Z / (4.0 * n * n)).sqrt() / shrink;
    let lo = if hits == 0 { 0.0 } else { centre - half };
    let hi = if hits >= trials { 1.0 } else { centre + half };
    Interval {
        lo,
        hi,
        method: "binomial",
    }
}

/// The share `hits / trials` with its binomial interval.
fn share(hits: u64, trials: u64) -> (f64, Option<Interval>) {
    (
        hits as f64 / trials.max(1) as f64,
        Some(binomial(hits, trials)),
    )
}

/// One measurement at [`SEED`] and at each of [`SWEEP_SEEDS`].
struct Swept<T> {
    at: T,
    runs: Vec<T>,
}

impl<T> Swept<T> {
    fn new(run: impl Fn(u64) -> T) -> Self {
        Self {
            at: run(SEED),
            runs: SWEEP_SEEDS.map(&run).collect(),
        }
    }

    /// A row whose value is `value` of each run.
    fn row(&self, spec: Spec, value: impl Fn(&T) -> f64) -> Row {
        Row::new(
            spec,
            value(&self.at),
            Some(sweep_interval(self.runs.iter().map(&value))),
        )
    }
}

/// The thorough study of `devices` at every ledger seed.
fn studies(devices: impl Fn() -> Vec<Device>) -> Swept<StudyReport> {
    Swept::new(|seed| {
        Pipeline::new(PipelineConfig::thorough())
            .seed(seed)
            .run_devices(devices())
    })
}

/// The whole ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Rows in EXPERIMENTS.md order.
    pub rows: Vec<Row>,
}

impl Ledger {
    /// Measures every row.
    pub fn compute() -> Self {
        // The other sections are mostly single-threaded Monte Carlo: run
        // them beside the studies, which leave part of the machine idle.
        // Every section seeds its own streams, so the rows do not depend
        // on the interleaving.
        let (studies, others) = std::thread::scope(|scope| {
            let others = scope.spawn(|| {
                let sections = [fig2, ddr, fig6, catalog_rows, ext_e, ext_f, ext_g, ext_j];
                sections
                    .into_iter()
                    .flat_map(|section| section())
                    .collect::<Vec<Row>>()
            });
            let studies = studies(all_compute_devices);
            (studies, others.join().expect("ledger section panicked"))
        });
        let mut rows: Vec<Row> = STUDY_ROWS
            .iter()
            .map(|&(spec, read)| studies.row(spec, read))
            .collect();
        rows.extend(others);
        rows.sort_by_key(|r| ARTEFACTS.iter().position(|a| *a == artefact(r.id())));
        Self { rows }
    }

    /// The blessed artefact, `tests/golden/reproduction.json` (canonical
    /// JSON: sorted keys, integers without exponents).
    pub fn to_json(&self) -> String {
        let config = PipelineConfig::thorough();
        let members = [
            ("seed", Json::Num(SEED as f64)),
            (
                "sweep_seeds",
                Json::Array(SWEEP_SEEDS.map(|s| Json::Num(s as f64)).collect()),
            ),
            ("injection_runs", Json::Num(config.injection_runs as f64)),
            ("beam_hours", Json::Num(config.beam_hours)),
            (
                "rows",
                Json::Array(self.rows.iter().map(Row::to_json).collect()),
            ),
        ];
        Json::Object(members.map(|(k, v)| (k.to_string(), v)).into()).to_canonical_string()
    }
}

/// The ledger, computed once per process.
pub fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(Ledger::compute)
}

/// The blessed ledger, `reproduction.json` in [`crate::golden::golden_dir`],
/// parsed once per process.
///
/// # Panics
///
/// Panics if the file cannot be read or parsed.
pub fn blessed() -> &'static Json {
    static BLESSED: OnceLock<Json> = OnceLock::new();
    BLESSED.get_or_init(|| {
        let path = crate::golden::golden_dir().join("reproduction.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        tn_core::json::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
    })
}

/// The blessed row `id`: its seed-2020 value, its claim's bounds, and
/// whether it passes its check (a deviation states its cause, and only a
/// deviation does).
///
/// # Panics
///
/// Panics if the blessed ledger has no row `id`.
pub fn blessed_row(id: &str) -> (f64, (f64, f64), bool) {
    let rows = blessed()
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let row = rows
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("the blessed ledger has no row {id}"));
    let number = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let bounds = row.get("bounds").and_then(Json::as_array).unwrap_or(&[]);
    let deviates = row.get("verdict").and_then(Json::as_str) == Some("deviation");
    let caused = row.get("cause").and_then(Json::as_str).is_some();
    (
        number(row.get("value")),
        (number(bounds.first()), number(bounds.get(1))),
        deviates == caused,
    )
}

/// The `paper` suite: one check per row.
pub fn run_suite() -> Vec<CheckResult> {
    ledger().rows.iter().map(check).collect()
}

/// A row's `paper` check.
pub fn check(row: &Row) -> CheckResult {
    let verdict = format!("{:?}", row.verdict).to_lowercase();
    let detail = match (row.verdict, row.cause) {
        (Verdict::Deviation, None) => "deviation with no stated cause".to_string(),
        (Verdict::Deviation, Some(_)) => "deviation, cause stated".to_string(),
        (_, Some(_)) => format!("{verdict} row carries a stated cause"),
        (_, None) => verdict,
    };
    let shown = match row.interval {
        Some(i) => format!(
            "{} in [{}, {}] ({})",
            fmt(row.value),
            fmt(i.lo),
            fmt(i.hi),
            i.method
        ),
        None => fmt(row.value),
    };
    let swept = row.interval.is_some_and(|i| i.method == "sweep");
    CheckResult::from_statistic(
        "paper",
        format!("paper.{}", row.id()),
        if row.passes() { 0.0 } else { 1.0 },
        0.0,
        if swept { SWEEP_SEEDS.count() as u64 } else { 1 },
        format!("{detail}: {shown} vs paper {}", row.spec.2),
    )
}

/// The Xeon Phi's Fig. 5 rows with its ¹⁰B population scaled ×1.3 in
/// both regions, measured like the real ones (once per process). The
/// self-test requires at least one of them to fail its check.
pub fn sabotaged_xeon_phi_rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let phi = catalog::xeon_phi();
        let boost = |class| {
            let region = phi.response().region(class);
            SensitiveRegion::new(region.fast_saturated(), 1.3 * region.b10_effective_atoms())
        };
        let response = DeviceResponse::new(boost(ErrorClass::Sdc), boost(ErrorClass::Due));
        let sabotaged = phi.clone().with_response(response);
        let studies = studies(|| vec![sabotaged.clone()]);
        STUDY_ROWS
            .iter()
            .filter(|(spec, _)| spec.0.starts_with("fig5.") && spec.0.ends_with(".xeon_phi"))
            .map(|&(spec, read)| studies.row(spec, read))
            .collect()
    })
}

/// A row read from the thorough study: its spec, and the value of each
/// study in the sweep.
type StudyRow = (Spec, fn(&StudyReport) -> f64);

fn device<'a>(r: &'a StudyReport, name: &str) -> &'a DeviceReport {
    r.device(name).expect("catalog device in every study")
}

/// Per-code SDC ratio of `code` on `name` (Fig. 1).
fn code_ratio(r: &StudyReport, name: &str, code: &str) -> f64 {
    let ratios = device(r, name).per_workload_sdc_ratios();
    ratios
        .into_iter()
        .find(|(w, _)| w == code)
        .map_or(f64::NAN, |(_, ratio)| ratio)
}

/// Max/min of `sigmas`.
fn spread(sigmas: impl Iterator<Item = f64>) -> f64 {
    let (lo, hi) = sigmas.fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
        (lo.min(s), hi.max(s))
    });
    hi / lo
}

/// Max/min of `name`'s high-energy SDC cross sections across its codes
/// (EXT-I).
fn code_spread(r: &StudyReport, name: &str) -> f64 {
    spread(device(r, name).chipir.iter().map(|c| c.sdc.sigma))
}

/// [`code_spread`] of the K20 with every code's injected profile replaced
/// by one flat AVF, half its datapath upsets SDCs (ABL-2): each ChipIR
/// campaign of the study rerun with the flat profile.
fn flat_avf_spread(r: &StudyReport) -> f64 {
    const FLAT: InjectionStats = InjectionStats {
        masked: 50,
        sdc: 50,
        due: 0,
    };
    let k20 = find_device("NVIDIA K20").expect("K20 in the catalog");
    let campaigns = device(r, "NVIDIA K20").chipir.iter().enumerate();
    spread(campaigns.map(|(i, c)| {
        Campaign::new(Facility::chipir(), k20, c.workload.as_str(), FLAT)
            .beam_time(Seconds(c.beam_seconds))
            .seed(r.seed ^ 0xab12 ^ ((i as u64) << 16))
            .run()
            .sdc
            .sigma
    }))
}

/// Thermal share of `name`'s SDC or DUE FIT in a machine room at
/// `location` (EXT-A).
fn thermal_share(r: &StudyReport, name: &str, sdc: bool, location: Location) -> f64 {
    let env = Environment::new(location, Weather::Sunny, Surroundings::hpc_machine_room());
    let d = device(r, name);
    if sdc {
        d.sdc_fit(&env)
    } else {
        d.due_fit(&env)
    }
    .thermal_share()
}

/// Young checkpoint interval of a 4,000-node APU (CPU+GPU) fleet with
/// three-minute checkpoints at Los Alamos (EXT-H).
fn young_interval(r: &StudyReport, weather: Weather) -> f64 {
    let env = Environment::new(
        Location::los_alamos(),
        weather,
        Surroundings::hpc_machine_room(),
    );
    let fit = device(r, "AMD APU (CPU+GPU)").due_fit(&env);
    CheckpointPlan::new(fit.total() * 4_000.0, Seconds(180.0))
        .young_interval()
        .value()
}

#[rustfmt::skip]
const STUDY_ROWS: [StudyRow; 40] = [
    (("fig5.sdc.xeon_phi", "Intel Xeon Phi SDC ratio (HE/thermal)", "10.14", Point(10.14), 0.005, Derived), |r| device(r, "Intel Xeon Phi").sdc_ratio()),
    (("fig5.due.xeon_phi", "Intel Xeon Phi DUE ratio (HE/thermal)", "6.37", Point(6.37), 0.005, Derived), |r| device(r, "Intel Xeon Phi").due_ratio()),
    (("fig5.sdc.k20", "NVIDIA K20 SDC ratio (HE/thermal)", "≈2", Point(2.0), 0.5, Derived), |r| device(r, "NVIDIA K20").sdc_ratio()),
    (("fig5.due.k20", "NVIDIA K20 DUE ratio (HE/thermal)", "≈3", Point(3.0), 0.5, Derived), |r| device(r, "NVIDIA K20").due_ratio()),
    (("fig5.sdc.titanx", "NVIDIA TitanX SDC ratio (HE/thermal)", "≈3", Point(3.0), 0.5, Derived), |r| device(r, "NVIDIA TitanX").sdc_ratio()),
    (("fig5.due.titanx", "NVIDIA TitanX DUE ratio (HE/thermal)", "≈7", Point(7.0), 0.5, Derived), |r| device(r, "NVIDIA TitanX").due_ratio()),
    (("fig5.sdc.titanv", "NVIDIA TitanV SDC ratio (HE/thermal)", "≈2.5", Point(2.5), 0.05, Derived), |r| device(r, "NVIDIA TitanV").sdc_ratio()),
    (("fig5.due.titanv", "NVIDIA TitanV DUE ratio (HE/thermal)", "≈6", Point(6.0), 0.5, Derived), |r| device(r, "NVIDIA TitanV").due_ratio()),
    (("fig5.sdc.apu_cpu", "AMD APU (CPU) SDC ratio (HE/thermal)", "≈2.5", Point(2.5), 0.05, Derived), |r| device(r, "AMD APU (CPU)").sdc_ratio()),
    (("fig5.due.apu_cpu", "AMD APU (CPU) DUE ratio (HE/thermal)", "≈1.5", Point(1.5), 0.05, Derived), |r| device(r, "AMD APU (CPU)").due_ratio()),
    (("fig5.sdc.apu_gpu", "AMD APU (GPU) SDC ratio (HE/thermal)", "≈3", Point(3.0), 0.5, Derived), |r| device(r, "AMD APU (GPU)").sdc_ratio()),
    (("fig5.due.apu_gpu", "AMD APU (GPU) DUE ratio (HE/thermal)", "≈1.3", Point(1.3), 0.05, Derived), |r| device(r, "AMD APU (GPU)").due_ratio()),
    (("fig5.sdc.apu_hybrid", "AMD APU (CPU+GPU) SDC ratio (HE/thermal)", "≈2.5", Point(2.5), 0.05, Derived), |r| device(r, "AMD APU (CPU+GPU)").sdc_ratio()),
    (("fig5.due.apu_hybrid", "AMD APU (CPU+GPU) DUE ratio (HE/thermal)", "1.18", Point(1.18), 0.005, Derived), |r| device(r, "AMD APU (CPU+GPU)").due_ratio()),
    (("fig5.sdc.zynq", "Xilinx Zynq-7000 SDC ratio (HE/thermal)", "2.33", Point(2.33), 0.005, Derived), |r| device(r, "Xilinx Zynq-7000").sdc_ratio()),
    (("fig5.due.zynq", "Xilinx Zynq-7000 DUE counts, both beams", "none observed", AtMost(0.0), 0.0, Derived), |r| {
        let d = device(r, "Xilinx Zynq-7000");
        d.chipir.iter().chain(&d.rotax).map(|c| c.due.count as f64).sum()
    }),
    (("fig1.apu_cpu.sc", "AMD APU (CPU) running SC: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU)", "SC")),
    (("fig1.apu_cpu.ced", "AMD APU (CPU) running CED: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU)", "CED")),
    (("fig1.apu_cpu.bfs", "AMD APU (CPU) running BFS: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU)", "BFS")),
    (("fig1.apu_gpu.sc", "AMD APU (GPU) running SC: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (GPU)", "SC")),
    (("fig1.apu_gpu.ced", "AMD APU (GPU) running CED: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (GPU)", "CED")),
    (("fig1.apu_gpu.bfs", "AMD APU (GPU) running BFS: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (GPU)", "BFS")),
    (("fig1.apu_hybrid.sc", "AMD APU (CPU+GPU) running SC: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU+GPU)", "SC")),
    (("fig1.apu_hybrid.ced", "AMD APU (CPU+GPU) running CED: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU+GPU)", "CED")),
    (("fig1.apu_hybrid.bfs", "AMD APU (CPU+GPU) running BFS: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "AMD APU (CPU+GPU)", "BFS")),
    (("fig1.zynq.mnist", "Xilinx Zynq-7000 running MNIST: SDC ratio", "thermal σ non-negligible", AtMost(8.0), 0.0, Derived), |r| code_ratio(r, "Xilinx Zynq-7000", "MNIST")),
    (("exta.phi_sdc_nyc", "Xeon Phi SDC thermal FIT share, NYC machine room", "4.2 %", Point(0.042), 0.0005, Derived), |r| thermal_share(r, "Intel Xeon Phi", true, Location::new_york())),
    (("exta.phi_due_leadville", "Xeon Phi DUE thermal FIT share, Leadville machine room", "10.6 %", Point(0.106), 0.0005, Calibrated), |r| thermal_share(r, "Intel Xeon Phi", false, Location::leadville())),
    (("exta.k20_sdc_leadville", "K20 SDC thermal FIT share, Leadville machine room", "29 %", Point(0.29), 0.005, Calibrated), |r| thermal_share(r, "NVIDIA K20", true, Location::leadville())),
    (("exta.apu_hybrid_due_leadville", "APU (CPU+GPU) DUE thermal FIT share, Leadville machine room", "39 %", Point(0.39), 0.005, Calibrated), |r| thermal_share(r, "AMD APU (CPU+GPU)", false, Location::leadville())),
    (("exta.max_share", "largest thermal FIT share, any device and class, Leadville", "up to 40 %", Point(0.40), 0.005, Derived), |r| {
        let names = r.devices().iter().map(|d| d.name.as_str());
        names.flat_map(|n| [true, false].map(|sdc| thermal_share(r, n, sdc, Location::leadville()))).fold(0.0, f64::max)
    }),
    (("exth.storm_interval", "4,000-node APU fleet checkpoint interval, storm over sunny (Los Alamos)", "weather moves the checkpoint interval", AtMost(1.0), 0.0, Derived), |r| young_interval(r, Weather::Thunderstorm) / young_interval(r, Weather::Sunny)),
    (("exti.xeon_phi", "Intel Xeon Phi: HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "Intel Xeon Phi")),
    (("exti.k20", "NVIDIA K20: HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "NVIDIA K20")),
    (("exti.titanx", "NVIDIA TitanX: HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "NVIDIA TitanX")),
    (("exti.titanv", "NVIDIA TitanV: HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "NVIDIA TitanV")),
    (("exti.apu_cpu", "AMD APU (CPU): HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "AMD APU (CPU)")),
    (("exti.apu_gpu", "AMD APU (GPU): HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "AMD APU (GPU)")),
    (("exti.apu_hybrid", "AMD APU (CPU+GPU): HE SDC σ spread across codes (max/min)", ">2× across codes", AtLeast(2.0), 0.0, Derived), |r| code_spread(r, "AMD APU (CPU+GPU)")),
    (("abl2.k20_flat_avf", "NVIDIA K20 with one flat AVF: HE SDC σ spread across codes (max/min)", "the spread is program masking", AtMost(1.5), 0.0, Derived), flat_avf_spread),
];

/// Fig. 2: the modelled beamline spectra.
fn fig2() -> Vec<Row> {
    let (chipir, rotax) = (chipir_reference(), rotax_reference());
    #[rustfmt::skip]
    let rows = vec![
        Row::new(("fig2.chipir_he_flux", "ChipIR flux above 10 MeV (n/cm²/s)", "5.4×10⁶", Point(5.4e6), 0.05e6, Configuration), chipir.flux_in(EnergyBand::HighEnergy).value(), None),
        Row::new(("fig2.chipir_thermal_flux", "ChipIR thermal flux (n/cm²/s)", "4×10⁵", Point(4e5), 0.5e5, Configuration), chipir.flux_in(EnergyBand::Thermal).value(), None),
        Row::new(("fig2.rotax_thermal_flux", "ROTAX thermal flux (n/cm²/s)", "2.72×10⁶", Point(2.72e6), 0.005e6, Configuration), rotax.flux_in(EnergyBand::Thermal).value(), None),
    ];
    rows
}

/// Fig. 4 and EXT-B: one DDR3 and one DDR4 correct-loop run at [`SEED`]
/// under the ROTAX beam.
fn ddr() -> Vec<Row> {
    let (ddr3, ddr4) = (DdrModule::ddr3(), DdrModule::ddr4());
    let run = |module: &DdrModule, hours| {
        let mut tester = CorrectLoop::new(module.clone(), SEED);
        tester.run(
            ROTAX_THERMAL_FLUX,
            Seconds::from_hours(hours),
            Seconds(10.0),
        )
    };
    let (l3, l4) = (run(&ddr3, 2.0), run(&ddr4, 20.0));
    let (c3, c4) = (classify(&l3), classify(&l4));
    // σ per Gbit is count / (fluence · Gbit).
    let scale = (l4.fluence * ddr4.capacity_gbit()) / (l3.fluence * ddr3.capacity_gbit());
    let sigma_ratio = scale * c3.total() as f64 / c4.total() as f64;
    let abort = ddr3.time_to_permanent_faults(Flux(5.4e6), 50).value();
    // Words SECDED cannot correct in sweeps that hold no SEFI burst.
    let uncorrectable = |log: &CorrectLoopLog| {
        let mut words = 0;
        for sweep in &log.sweeps {
            let (generation, pattern, fluence) = (log.generation, log.pattern, log.fluence);
            let one = CorrectLoopLog {
                generation,
                pattern,
                fluence,
                sweeps: vec![sweep.clone()],
            };
            let ecc = replay_with_ecc(&one);
            let bad = ecc.detected + ecc.uncorrected;
            if bad > 0 && classify(&one).sefi == 0 {
                words += bad;
            }
        }
        (words as f64, Some(garwood(words, None, 1.0)))
    };
    let flips = |c: &tn_core::devices::ddr::ClassifiedErrors| c.one_to_zero + c.zero_to_one;
    #[rustfmt::skip]
    let rows = [
        (("fig4.sigma_ratio", "DDR3/DDR4 thermal σ per Gbit", "≈10×", Point(10.0), 0.5, Calibrated), (sigma_ratio, Some(garwood(c3.total(), Some(c4.total()), scale)))),
        (("fig4.ddr3_one_to_zero", "DDR3 share of single-bit flips going 1→0", ">95 %", AtLeast(0.95), 0.005, Derived), share(c3.one_to_zero, flips(&c3))),
        (("fig4.ddr4_zero_to_one", "DDR4 share of single-bit flips going 0→1", ">95 %", AtLeast(0.95), 0.005, Derived), share(c4.zero_to_one, flips(&c4))),
        (("fig4.ddr3_permanent", "DDR3 permanent share of errors", "<30 %", AtMost(0.30), 0.005, Derived), share(c3.permanent, c3.total())),
        (("fig4.ddr4_permanent", "DDR4 permanent share of errors", ">50 %", AtLeast(0.50), 0.005, Derived), share(c4.permanent, c4.total())),
        (("fig4.ddr3_sefi", "DDR3 SEFI episodes", "SEFIs in both generations", AtLeast(1.0), 0.0, Derived), (c3.sefi as f64, Some(garwood(c3.sefi, None, 1.0)))),
        (("fig4.ddr4_sefi", "DDR4 SEFI episodes", "SEFIs in both generations", AtLeast(1.0), 0.0, Derived), (c4.sefi as f64, Some(garwood(c4.sefi, None, 1.0)))),
        (("fig4.chipir_abort_s", "DDR3 at ChipIR: seconds to 50 permanent faults", "aborted after minutes", AtMost(3600.0), 0.0, Derived), (abort, None)),
        (("extb.ddr3_secded", "DDR3 words SECDED cannot correct, outside SEFI sweeps", "SECDED suffices outside SEFIs", AtMost(0.0), 0.0, Derived), uncorrectable(&l3)),
        (("extb.ddr4_secded", "DDR4 words SECDED cannot correct, outside SEFI sweeps", "SECDED suffices outside SEFIs", AtMost(0.0), 0.0, Derived), uncorrectable(&l4)),
    ];
    rows.into_iter()
        .map(|(spec, (value, interval))| Row::new(spec, value, interval))
        .collect()
}

/// Fig. 6: the `water-pan` scenario, the paper's Tin-II campaign.
fn fig6() -> Vec<Row> {
    let pan = tn_scenario::builtin("water-pan").expect("built-in scenario");
    let runs = Swept::new(|seed| tn_scenario::run_scenario(&pan, seed));
    #[rustfmt::skip]
    let rows = vec![
        runs.row(("fig6.derived_boost", "thermal boost of 2 in of water, Monte-Carlo moderation", "+24 %", Point(0.24), 0.005, Derived), |r| r.moderation_boost.unwrap_or(f64::NAN)),
        runs.row(("fig6.observed_step", "step in the monitored Tin-II count rate", "+24 %", Point(0.24), 0.005, Derived), |r| r.events.first().map_or(f64::NAN, |e| e.refined_magnitude)),
    ];
    rows
}

/// EXT-C, EXT-D, EXT-K and ABL-1: seed-free readings of the catalog and
/// its projections.
fn catalog_rows() -> Vec<Row> {
    let ranked = ranked_by_thermal_fit();
    let rank = |name: &str| {
        let at = ranked.iter().position(|(n, _)| *n == name);
        at.map_or(f64::NAN, |i| (i + 1) as f64)
    };
    let fit = |name: &str| {
        let found = ranked.iter().find(|(n, _)| *n == name);
        found.map_or(f64::NAN, |(_, f)| f.value())
    };
    let devices = all_compute_devices();
    let sensitivity = devices
        .iter()
        .map(|d| 1.0 / d.analytic_ratio(ErrorClass::Sdc));
    let (lowest, highest) = sensitivity.fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
        (lo.min(s), hi.max(s))
    });
    let (band_lo, band_hi) = WeulersseBaseline::published().band();
    let weulersse = Band(band_lo, band_hi);
    let zynq = devices.iter().find(|d| d.name() == "Xilinx Zynq-7000");
    let zynq_due = zynq.map_or(f64::NAN, |d| 1.0 / d.analytic_ratio(ErrorClass::Due));
    let trend = analyse_trend(&devices);
    // The 1/v law read through a cold (110 K) and a room-temperature beam.
    let k20 = catalog::nvidia_k20();
    let sigma = |temperature: Temperature| {
        let beam =
            Spectrum::named("beam").with(Shape::Maxwellian { temperature }, ROTAX_THERMAL_FLUX);
        k20.response().event_rate(ErrorClass::Sdc, &beam)
            / beam.flux_in(EnergyBand::Thermal).value()
    };
    let one_over_v = (ROOM_TEMPERATURE.value() / LIQUID_METHANE_TEMPERATURE.value()).sqrt();
    #[rustfmt::skip]
    let rows = vec![
        Row::new(("extc.tianhe_rank", "Tianhe-2A's place in the Top-10 by DDR thermal FIT", "DDR3 fleets lead", AtMost(1.0), 0.0, Derived), rank("Tianhe-2A"), None),
        Row::new(("extc.trinity_over_summit", "DDR thermal FIT, Trinity (2,231 m) over Summit (266 m)", "altitude raises the memory FIT", AtLeast(1.0), 0.0, Derived), fit("Trinity") / fit("Summit"), None),
        Row::new(("extd.sdc_sensitivity_min", "lowest device thermal/HE SDC sensitivity", "0.03×–1.4× (Weulersse)", weulersse, 0.005, Calibrated), lowest, None),
        Row::new(("extd.sdc_sensitivity_max", "highest device thermal/HE SDC sensitivity", "0.03×–1.4× (Weulersse)", weulersse, 0.005, Calibrated), highest, None),
        Row::new(("extd.zynq_due_sensitivity", "Zynq-7000 thermal/HE DUE sensitivity", "memory bands miss DUE-free devices", AtMost(band_lo), 0.0, Calibrated), zynq_due, None),
        Row::new(("extk.node_correlation", "Pearson r, technology node vs thermal sensitivity", "¹⁰B does not follow the node", Band(-0.5, 0.5), 0.0, Calibrated), trend.node_correlation, None),
        Row::new(("extk.same_node_spread", "thermal-sensitivity spread of the 28 nm devices", "¹⁰B follows the process", AtLeast(1.25), 0.0, Calibrated), trend.same_node_spread.unwrap_or(f64::NAN), None),
        Row::new(("abl1.cold_over_warm", "K20 SDC σ, 110 K beam over 293.6 K beam", "1/v law: √(293.6/110)", Point(one_over_v), 0.005, Derived), sigma(LIQUID_METHANE_TEMPERATURE) / sigma(ROOM_TEMPERATURE), None),
    ];
    rows
}

/// EXT-E: the paper's calibrated flux modifiers, and the Monte-Carlo
/// room model's derivation of the same factors.
fn ext_e() -> Vec<Row> {
    let base = Environment::new(
        Location::new_york(),
        Weather::Sunny,
        Surroundings::outdoors(),
    );
    let with = |s: Surroundings| base.with_surroundings(s).thermal_flux() / base.thermal_flux();
    let storm = base.with_weather(Weather::Thunderstorm).thermal_flux() / base.thermal_flux();
    let (air, wet) = (
        DataCenterRoom::air_cooled(),
        DataCenterRoom::liquid_cooled(),
    );
    let runs = Swept::new(|seed| {
        let factor = wet.derive_thermal_factor(20_000, seed);
        let year = Climate::temperate_coastal().synthesize(3_650, seed);
        let mix = year.iter().map(|w| w.thermal_factor()).sum::<f64>() / year.len() as f64;
        (
            air.derive_floor_boost(20_000, seed),
            wet.derive_water_boost(20_000, seed),
            factor,
            mix,
        )
    });
    #[rustfmt::skip]
    let rows = vec![
        Row::new(("exte.thunderstorm", "thermal flux, thunderstorm over sunny", "×2", Point(2.0), 0.5, Calibrated), storm, None),
        Row::new(("exte.concrete", "thermal flux, concrete slab over outdoors", "+20 %", Point(1.20), 0.005, Calibrated), with(Surroundings::concrete_floor()), None),
        Row::new(("exte.water_cooling", "thermal flux, cooling water over outdoors", "+24 %", Point(1.24), 0.005, Calibrated), with(Surroundings::water_cooled()), None),
        Row::new(("exte.machine_room", "thermal flux, machine room over outdoors", "+44 %", Point(1.44), 0.005, Calibrated), with(Surroundings::hpc_machine_room()), None),
        runs.row(("exte.mc_concrete", "concrete floor albedo boost, Monte Carlo", "+20 %", Point(0.20), 0.005, Calibrated), |r| r.0),
        runs.row(("exte.mc_water", "cooling-water moderation boost, Monte Carlo", "+24 %", Point(0.24), 0.005, Calibrated), |r| r.1),
        runs.row(("exte.mc_room", "machine-room thermal factor, Monte Carlo", "+44 %", Point(1.44), 0.005, Calibrated), |r| r.2),
        runs.row(("exte.coastal_year", "thermal flux over ten temperate-coastal years, over permanent sun", "rain raises the error rate", AtLeast(1.0), 0.0, Derived), |r| r.3),
    ];
    rows
}

/// EXT-F: shield thickness sweeps through the transport Monte Carlo.
fn ext_f() -> Vec<Row> {
    let thermal = Energy(0.0253);
    let cd = [Length(0.01), Length(0.025), Length(0.05), Length(0.1)];
    let bpe = [
        Length(0.5),
        Length(1.0),
        Length::from_inches(1.0),
        Length::from_inches(2.0),
    ];
    let runs = Swept::new(|seed| {
        let sweep = |material: Material, energy, thicknesses: &[Length]| {
            AttenuationCurve::sweep(&material, energy, thicknesses, 8_000, seed)
        };
        (
            sweep(Material::cadmium(), thermal, &cd),
            sweep(Material::borated_polyethylene(), thermal, &bpe),
            sweep(Material::cadmium(), Energy::from_mev(10.0), &[Length(0.1)]),
        )
    });
    let needed = |curve: &AttenuationCurve, unit: f64| {
        curve
            .thickness_for_reduction(0.99)
            .map_or(f64::NAN, |t| unit * t.value())
    };
    #[rustfmt::skip]
    let rows = vec![
        runs.row(("extf.cd_0_25mm", "thermal transmission of 0.25 mm Cd", "thin Cd layers shield thermals", AtMost(0.1), 0.0, Derived), |r| r.0.points[1].1),
        runs.row(("extf.cd_0_50mm", "thermal transmission of 0.50 mm Cd", "thin Cd layers shield thermals", AtMost(0.01), 0.0, Derived), |r| r.0.points[2].1),
        runs.row(("extf.cd_99_mm", "Cd thickness for a 99 % thermal reduction (mm)", "thin layers of cadmium", AtMost(1.0), 0.0, Derived), |r| needed(&r.0, 10.0)),
        runs.row(("extf.bpe_99_cm", "borated PE thickness for a 99 % thermal reduction (cm)", "some inches of boron plastic", AtMost(3.0 * 2.54), 0.0, Derived), |r| needed(&r.1, 1.0)),
        runs.row(("extf.cd_fast", "10 MeV transmission of 1 mm Cd", "thermal shields leave the fast field", AtLeast(0.9), 0.0, Derived), |r| r.2.points[0].1),
    ];
    rows
}

/// EXT-G: scrubbed beam runs of the Zynq MNIST design in both precisions.
fn ext_g() -> Vec<Row> {
    let errors = |memory: ConfigMemory, flux| {
        run_scrubbed(memory, flux, Seconds(40_000.0), Seconds(2.0), SEED).output_errors
    };
    let ratio = |memory: fn(DesignPrecision) -> ConfigMemory, flux| {
        let single = errors(memory(DesignPrecision::Single), flux);
        let double = errors(memory(DesignPrecision::Double), flux);
        (
            double as f64 / single.max(1) as f64,
            Some(garwood(double, Some(single), 1.0)),
        )
    };
    let thermal = ratio(ConfigMemory::zynq7000_mnist_thermal, ROTAX_THERMAL_FLUX);
    let fast = ratio(ConfigMemory::zynq7000_mnist_fast, Flux(5.4e6));
    #[rustfmt::skip]
    let rows = vec![
        Row::new(("extg.thermal_double_single", "MNIST double/single precision thermal σ", "almost 4×", Point(4.0), 0.5, Derived), thermal.0, thermal.1),
        Row::new(("extg.fast_double_single", "MNIST double/single precision fast σ", "≈2× (area)", Point(2.0), 0.5, Derived), fast.0, fast.1),
    ];
    rows
}

/// EXT-J: bit-stratified injection into three codes.
fn ext_j() -> Vec<Row> {
    let region = |stats: &InjectionStats, hits: fn(&InjectionStats) -> u64| {
        share(hits(stats), stats.total())
    };
    let hotspot = profile_by_bit(&HotSpot::new(16, 24, SEED), 250, SEED);
    let mxm = profile_by_bit(&MxM::new(24, SEED), 250, SEED);
    let bfs = profile_by_bit(&Bfs::new(12, SEED), 250, SEED);
    #[rustfmt::skip]
    let rows = [
        (("extj.hotspot_exponent_sdc", "HotSpot SDC share of exponent-bit flips", "exponent flips corrupt numeric output", AtLeast(0.25), 0.0, Derived), region(hotspot.region(BitRegion::Exponent), |s| s.sdc)),
        (("extj.mxm_low_mantissa_masked", "MxM masked share of low-mantissa flips", "low-order flips are masked", AtLeast(0.25), 0.0, Derived), region(mxm.region(BitRegion::MantissaLow), |s| s.masked)),
        (("extj.bfs_exponent_due", "BFS DUE share of exponent-bit flips", "index corruption crashes graph codes", AtLeast(0.25), 0.0, Derived), region(bfs.region(BitRegion::Exponent), |s| s.due)),
    ];
    rows.into_iter()
        .map(|(spec, (value, interval))| Row::new(spec, value, interval))
        .collect()
}

/// Formats a number for the tables: four significant digits, or
/// scientific notation outside `[1e-3, 1e5)`.
pub fn fmt(x: f64) -> String {
    if x.is_nan() {
        "n/a".into()
    } else if x.is_infinite() {
        if x > 0.0 { "∞" } else { "−∞" }.into()
    } else if x == 0.0 {
        "0".into()
    } else if !(1e-3..1e5).contains(&x.abs()) {
        format!("{x:.3e}")
    } else {
        let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
        format!("{x:.decimals$}")
    }
}

/// Formats a paper bound or precision as stated, falling back to [`fmt`]
/// for long expansions.
fn fmt_stated(x: f64) -> String {
    let stated = format!("{x}");
    if stated.len() <= 8 {
        stated
    } else {
        fmt(x)
    }
}

/// Renders one artefact's rows of a parsed ledger as a Markdown table,
/// with each stated cause listed under it.
pub fn render_table(ledger: &Json, artefact: &str) -> String {
    let text = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let number = |r: &Json, k: &str| fmt(r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN));
    let mut out = String::from(
        "| row | quantity | paper | claim | kind | seed 2020 | interval | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let (mut causes, mut stated) = (String::new(), Vec::<(String, String)>::new());
    let rows = ledger.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    for r in rows.iter().filter(|r| text(r, "artefact") == artefact) {
        let bounds = r.get("bounds").and_then(Json::as_array);
        let bound =
            |i: usize| fmt_stated(bounds.and_then(|b| b.get(i)?.as_f64()).unwrap_or(f64::NAN));
        let precision = r.get("precision").and_then(Json::as_f64).unwrap_or(0.0);
        let widened = if precision > 0.0 {
            format!(" ± {}", fmt_stated(precision))
        } else {
            String::new()
        };
        let claim = match text(r, "claim").as_str() {
            "point" => format!("= {}{widened}", bound(0)),
            "band" => format!("{} to {}{widened}", bound(0), bound(1)),
            "at_least" => format!("≥ {}{widened}", bound(0)),
            _ => format!("≤ {}{widened}", bound(1)),
        };
        let interval = match r.get("interval") {
            Some(i @ Json::Object(_)) => {
                format!(
                    "{} to {} ({})",
                    number(i, "lo"),
                    number(i, "hi"),
                    text(i, "method")
                )
            }
            _ => "—".into(),
        };
        let verdict = match text(r, "verdict").as_str() {
            "deviation" => "**deviation**".to_string(),
            other => other.to_string(),
        };
        let (id, quantity, paper) = (text(r, "id"), text(r, "quantity"), text(r, "paper"));
        let (kind, value) = (text(r, "kind"), number(r, "value"));
        out.push_str(&format!(
            "| `{id}` | {quantity} | {paper} | {claim} | {kind} | {value} | {interval} | {verdict} |\n"
        ));
        if let Some(cause) = r.get("cause").and_then(Json::as_str) {
            match stated.iter().find(|(c, _)| c == cause) {
                Some((_, first)) => {
                    causes.push_str(&format!("\n- `{id}` deviates: as `{first}`.\n"))
                }
                None => {
                    causes.push_str(&format!("\n- `{id}` deviates: {cause}.\n"));
                    stated.push((cause.to_string(), id));
                }
            }
        }
    }
    out + &causes
}

const BLOCK_OPEN: &str = "<!-- ledger ";
const BLOCK_CLOSE: &str = "<!-- /ledger -->";

/// Re-renders every `<!-- ledger ARTEFACT -->` … `<!-- /ledger -->`
/// block of `markdown` from the parsed ledger `ledger`.
///
/// # Errors
///
/// An unterminated block, a block for an artefact the ledger lacks, a
/// repeated block, or a ledger artefact with no block.
pub fn splice_tables(markdown: &str, ledger: &Json) -> Result<String, String> {
    let rows = ledger
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("ledger has no rows")?;
    let mut artefacts: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("artefact")?.as_str())
        .collect();
    artefacts.dedup();
    let (mut out, mut rest, mut spliced) = (String::new(), markdown, Vec::new());
    while let Some(start) = rest.find(BLOCK_OPEN) {
        let header_end = start
            + rest[start..]
                .find("-->")
                .ok_or("unterminated block header")?
            + 3;
        let artefact = rest[start + BLOCK_OPEN.len()..header_end - 3]
            .trim()
            .to_string();
        if !artefacts.contains(&artefact.as_str()) || spliced.contains(&artefact) {
            return Err(format!(
                "block for `{artefact}` is unknown to the ledger or repeated"
            ));
        }
        let close = rest[header_end..]
            .find(BLOCK_CLOSE)
            .ok_or(format!("block `{artefact}` is not closed"))?;
        out.push_str(&rest[..header_end]);
        out.push('\n');
        out.push_str(&render_table(ledger, &artefact));
        rest = &rest[header_end + close..];
        spliced.push(artefact);
    }
    out.push_str(rest);
    match artefacts.iter().find(|a| !spliced.iter().any(|s| s == *a)) {
        Some(missing) => Err(format!("no block for ledger artefact `{missing}`")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold_within_their_precision() {
        assert!(Point(10.14).holds(0.005, 10.0, 10.2));
        assert!(!Point(1.18).holds(0.005, 1.29, 1.37));
        assert!(Point(1.5).holds(0.05, 1.55, 1.7));
        assert!(AtLeast(0.95).holds(0.005, 0.90, 0.946));
        assert!(!AtLeast(0.95).holds(0.005, 0.90, 0.944));
        assert!(AtMost(0.30).holds(0.0, 0.29, 0.35));
        assert!(!Band(0.03, 1.4).holds(0.005, 1.5, 1.6));
    }

    #[test]
    fn a_deviation_needs_its_cause_and_only_a_deviation_has_one() {
        let row = |id, value, kind| Row::new((id, "q", "p", Point(1.5), 0.05, kind), value, None);
        let caused = row("fig5.due.apu_cpu", 1.7, Derived);
        assert_eq!(caused.verdict, Verdict::Deviation);
        assert!(caused.passes(), "its cause is stated");
        assert!(
            !row("fig5.due.k20", 1.7, Derived).passes(),
            "a deviation with no cause fails"
        );
        assert!(
            !row("fig5.due.apu_cpu", 1.5, Derived).passes(),
            "a cause on a consistent row fails"
        );
        assert_eq!(
            row("exte.concrete", 1.5, Calibrated).verdict,
            Verdict::Calibrated
        );
        for (id, cause) in CAUSES {
            assert!(ARTEFACTS.contains(&artefact(id)) && !cause.is_empty());
        }
    }

    #[test]
    fn intervals_bracket_their_estimates() {
        let g = garwood(100, None, 0.5);
        assert!(g.lo < 50.0 && 50.0 < g.hi);
        let b = binomial(95, 100);
        assert!(b.lo < 0.95 && 0.95 < b.hi && b.hi <= 1.0);
        assert_eq!((binomial(10, 10).hi, binomial(0, 10).lo), (1.0, 0.0));
        let r = garwood(400, Some(100), 1.0);
        assert!(r.lo < 4.0 && 4.0 < r.hi);
        assert_eq!(
            [fmt(10.0123), fmt(0.26712), fmt(5.4e6), fmt(0.0)],
            ["10.01", "0.2671", "5.400e6", "0"]
        );
    }

    #[test]
    fn a_sweep_interval_covers_one_more_run_95_percent_of_the_time() {
        // Mean ± 2 sd of the ten runs would cover about 91 %.
        let mut rng = tn_rng::Rng::seed_from_u64(11);
        let mut normal = || {
            let (u, v) = (1.0 - rng.gen_f64(), rng.gen_f64());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        };
        let trials = 20_000;
        let covered = (0..trials)
            .filter(|_| {
                let runs: Vec<f64> = SWEEP_SEEDS.map(|_| normal()).collect();
                let i = sweep_interval(runs.into_iter());
                (i.lo..=i.hi).contains(&normal())
            })
            .count();
        let coverage = covered as f64 / trials as f64;
        assert!((coverage - 0.95).abs() < 0.006, "coverage {coverage}");
    }

    #[test]
    fn splicing_rewrites_blocks_and_rejects_missing_ones() {
        let row = Row::new(("fig2.x", "q", "1", Point(1.0), 0.5, Derived), 1.2, None);
        let ledger = Ledger { rows: vec![row] };
        let ledger = tn_core::json::parse(&ledger.to_json()).unwrap();
        let md = "intro\n<!-- ledger FIG2 -->\nstale\n<!-- /ledger -->\noutro\n";
        let spliced = splice_tables(md, &ledger).unwrap();
        let row = "| `fig2.x` | q | 1 | = 1 ± 0.5 | derived | 1.200 | — | consistent |";
        assert!(spliced.contains(row), "{spliced}");
        assert!(!spliced.contains("stale") && spliced.ends_with("<!-- /ledger -->\noutro\n"));
        assert_eq!(
            splice_tables(&spliced, &ledger).unwrap(),
            spliced,
            "a fixed point"
        );
        assert!(splice_tables("no blocks", &ledger).is_err());
        assert!(splice_tables("<!-- ledger FIG9 -->\n<!-- /ledger -->", &ledger).is_err());
    }
}
