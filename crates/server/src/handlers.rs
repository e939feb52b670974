//! Endpoint implementations and the shared application state.
//!
//! Every POST endpoint follows the same shape: scan the body once into
//! the members it reads (`crate::decode`), check them and resolve
//! defaults, write the resolved request's exact bits into a cache key
//! (`tn_core::cache_key`), then get the body from the memo, which
//! renders it once however many requests ask at once. Because the
//! pipeline is deterministic in (config, seed), a cached body is
//! byte-identical to a recomputed one.
//! A handler that can reject its request returns
//! `Result<Response, BadRequest>`; the router renders the error.

use crate::cache::{Got, Memo};
use crate::decode::{self, scan, Field, FLEET_MAX_ENTRIES};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use tn_core::cache_key;
use tn_core::json::{
    self, push_json_f64, push_json_member as member, push_json_num, push_json_str,
};
use tn_core::json::{Json, Value};
use tn_core::report::StudyReport;
use tn_core::{registry, Pipeline, PipelineConfig};
use tn_environment::{DataCenterRoom, Environment, Location, SolarActivity, Surroundings, Weather};
use tn_fit::{CheckpointPlan, DeviceFit};
use tn_fleet::{
    EntryFields, EntryMembers, FleetEntry, FleetError, FleetRegistry, RegistrySnapshot,
    RiskAssessment, RiskSurface, SurfaceConfig,
};
use tn_obs::timeline::{Alert, Monitor, MonitorConfig};
use tn_physics::units::{Fit, Seconds};

/// Entries the demo fleet is seeded with when no snapshot is loaded.
const DEMO_FLEET_SIZE: usize = 24;

/// Bytes of an inline entry's cache key besides the strings its body
/// holds: a default id (11 bytes), the length prefixes of the id and the
/// site and the device's catalog index (at most three bytes each for a
/// body within the HTTP size cap), and five 8-byte numbers.
const INLINE_KEY_BYTES: usize = 11 + 3 * 3 + 5 * 8;

/// Largest sample batch one `/v1/timeline/ingest` request may carry.
const TIMELINE_MAX_SAMPLES: usize = 10_000;

/// Exposure assumed when an ingested sample omits `exposure_seconds`:
/// one hourly Tin-II counting bin.
const TIMELINE_DEFAULT_EXPOSURE_S: f64 = 3600.0;

/// Trailing points `/v1/timeline` returns when no `limit` is given.
const TIMELINE_DEFAULT_LIMIT: usize = 256;

/// Monitor tuning for the ingest endpoint: obs defaults with the exact
/// Garwood interval from `tn-physics` swapped in for the std-only normal
/// approximation the obs defaults carry.
fn timeline_monitor_config() -> MonitorConfig {
    MonitorConfig {
        interval: tn_physics::stats::garwood_interval,
        ..MonitorConfig::default()
    }
}

/// A memoised risk surface: the tables and the last whole-registry
/// render made on them.
#[derive(Debug)]
struct Surface {
    tables: Arc<RiskSurface>,
    /// Taken out for the length of a registry render and put back after
    /// it, so no lock is held across the render.
    render: Mutex<Option<RegistryRender>>,
}

/// The study and surface memos' key: the seed's eight bytes and `quick`.
fn memo_key(seed: u64, quick: bool) -> [u8; 9] {
    let mut key = [u8::from(quick); 9];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key
}

/// State shared by every worker thread.
#[derive(Debug)]
pub struct AppState {
    /// Default seed for requests that do not carry one (`--seed`).
    pub seed: u64,
    /// Service metrics registry.
    pub metrics: Metrics,
    /// Rendered response bodies, keyed by each request's resolved bits.
    pub cache: Memo<Arc<str>>,
    /// Pipeline studies, keyed by [`memo_key`].
    studies: Memo<Arc<StudyReport>>,
    /// The device-fleet registry served by `/v1/fleet*`.
    fleet: Mutex<FleetRegistry>,
    /// Risk surfaces and their last registry renders, by [`memo_key`].
    surfaces: Memo<Arc<Surface>>,
    /// JSONL file risk surfaces are persisted to and reloaded from
    /// (`serve --surface-cache`); `None` disables persistence.
    surface_cache: Option<String>,
    /// Streaming count-rate monitor behind `/v1/timeline*`: samples
    /// arrive via `POST /v1/timeline/ingest` and are change-point
    /// checked online.
    timeline: Mutex<Monitor>,
    /// Request-id stream. Mixed with wall-clock startup entropy so two
    /// server runs never replay the same ids; ids are pure telemetry and
    /// never feed into any computation.
    request_ids: Mutex<tn_rng::Rng>,
}

impl AppState {
    /// Creates the shared state for a server instance, seeding the
    /// fleet registry with the deterministic demo fleet.
    pub fn new(seed: u64, cache_capacity: usize, workers: usize) -> Self {
        Self::with_registry(
            seed,
            cache_capacity,
            workers,
            FleetRegistry::demo(seed, DEMO_FLEET_SIZE),
        )
    }

    /// Creates the shared state with an explicit fleet registry (e.g.
    /// one loaded from a JSONL snapshot via `--fleet`).
    pub fn with_registry(
        seed: u64,
        cache_capacity: usize,
        workers: usize,
        fleet: FleetRegistry,
    ) -> Self {
        let startup_nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Self {
            seed,
            metrics: Metrics::new(workers),
            cache: Memo::new(8, cache_capacity),
            // A study is a full beam-campaign pipeline, so a few slots
            // absorb most query mixes. Steady state is one surface
            // resolution per seed, so two cover a quick/full pair.
            studies: Memo::new(1, 4),
            fleet: Mutex::new(fleet),
            surfaces: Memo::new(1, 2),
            surface_cache: None,
            timeline: Mutex::new(Monitor::new(timeline_monitor_config())),
            request_ids: Mutex::new(tn_rng::Rng::seed_from_u64(seed ^ startup_nanos)),
        }
    }

    /// Enables risk-surface persistence: surfaces built during serving
    /// are appended to `path` (JSONL, one surface per line) and later
    /// misses check the file before paying for a fresh build. Call
    /// before the state is shared.
    pub fn set_surface_cache(&mut self, path: &str) {
        self.surface_cache = Some(path.to_string());
    }

    /// Runs `f` against the fleet registry (shared lock discipline:
    /// callers never hold the guard across a surface build or a
    /// Monte-Carlo run).
    pub fn with_fleet<T>(&self, f: impl FnOnce(&mut FleetRegistry) -> T) -> T {
        let mut fleet = self.fleet.lock().expect("fleet registry poisoned");
        f(&mut fleet)
    }

    /// Entries currently in the fleet registry.
    pub fn fleet_len(&self) -> usize {
        self.with_fleet(|fleet| fleet.len())
    }

    /// Whether the `(seed, quick)` risk surface is built and stored —
    /// i.e. a bulk fleet request for it is a pure table lookup that an
    /// event-loop shard can run inline instead of parking it on the
    /// worker pool. A surface still being built is not.
    pub fn surface_ready(&self, seed: u64, quick: bool) -> bool {
        self.surfaces.contains(&memo_key(seed, quick))
    }

    /// Returns the (memoised) risk surface for a seed/resolution pair.
    pub fn surface(&self, seed: u64, quick: bool) -> Arc<RiskSurface> {
        Arc::clone(&self.memoised_surface(seed, quick).tables)
    }

    /// The memoised `(seed, quick)` surface, loaded from the surface-cache
    /// file or built (and saved) by the one caller that leads its memo
    /// call; concurrent callers, whatever their requests, share it.
    fn memoised_surface(&self, seed: u64, quick: bool) -> Arc<Surface> {
        let load_or_build = || {
            let tables = self.load_persisted_surface(seed, quick).unwrap_or_else(|| {
                let config = if quick {
                    SurfaceConfig::quick(seed)
                } else {
                    SurfaceConfig::full(seed)
                };
                let surface = RiskSurface::build(config);
                self.persist_surface(seed, quick, &surface);
                surface
            });
            let (tables, render) = (Arc::new(tables), Mutex::default());
            Arc::new(Surface { tables, render })
        };
        let key = memo_key(seed, quick);
        self.surfaces.get_or_compute(&key, load_or_build).0
    }

    /// Scans the surface-cache file for a `(seed, quick)` line. Bad
    /// lines (corrupt JSON, digest mismatch) are skipped with a warning
    /// — a damaged cache degrades to a rebuild, never to bad tables.
    fn load_persisted_surface(&self, seed: u64, quick: bool) -> Option<RiskSurface> {
        let path = self.surface_cache.as_deref()?;
        let text = std::fs::read_to_string(path).ok()?;
        let entries = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match parse_surface_line(line) {
                Ok((line_quick, surface))
                    if line_quick == quick && surface.config().seed == seed =>
                {
                    self.metrics.surface_cache_load(entries);
                    tn_obs::info(
                        "surface_cache_hit",
                        &[
                            ("path", path.into()),
                            ("seed", seed.into()),
                            ("quick", u64::from(quick).into()),
                        ],
                    );
                    return Some(surface);
                }
                Ok(_) => {}
                Err(e) => {
                    tn_obs::warn(
                        "surface_cache_skip",
                        &[("path", path.into()), ("error", e.into())],
                    );
                }
            }
        }
        None
    }

    /// Rewrites the surface-cache file with the new surface appended
    /// (replacing any stale line for the same `(seed, quick)`).
    fn persist_surface(&self, seed: u64, quick: bool, surface: &RiskSurface) {
        let Some(path) = self.surface_cache.as_deref() else {
            return;
        };
        let mut lines: Vec<String> = Vec::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                match parse_surface_line(line) {
                    Ok((line_quick, existing))
                        if line_quick == quick && existing.config().seed == seed => {}
                    Ok(_) => lines.push(line.to_string()),
                    // Drop unreadable lines: rewriting compacts the file.
                    Err(_) => {}
                }
            }
        }
        let mut line = String::from("{\"quick\":");
        line.push_str(if quick { "true" } else { "false" });
        line.push_str(",\"surface\":");
        line.push_str(&surface.to_json().to_canonical_string());
        line.push('}');
        lines.push(line);
        let mut text = lines.join("\n");
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            tn_obs::warn(
                "surface_cache_write_failed",
                &[("path", path.into()), ("error", format!("{e}").into())],
            );
        } else {
            self.metrics.surface_cache_save(lines.len() as u64);
            tn_obs::info(
                "surface_cache_saved",
                &[
                    ("path", path.into()),
                    ("seed", seed.into()),
                    ("quick", u64::from(quick).into()),
                ],
            );
        }
    }

    /// Feeds one sample into the timeline monitor, mirroring the window
    /// rate and EWMA baseline into the `/metrics` gauges and bumping
    /// the per-kind alert counters for anything the detectors raise.
    pub fn timeline_observe(&self, count: u64, exposure_seconds: f64) -> Vec<Alert> {
        let mut monitor = self.timeline.lock().expect("timeline monitor poisoned");
        let alerts = monitor.observe(tn_obs::now_nanos(), count, exposure_seconds);
        self.metrics
            .watch_observe(monitor.window_rate(), monitor.ewma_baseline());
        for alert in &alerts {
            self.metrics.watch_alert(alert.kind.label());
        }
        alerts
    }

    /// Runs `f` against the timeline monitor (held only long enough to
    /// snapshot points and alerts — never across I/O).
    pub fn with_timeline<T>(&self, f: impl FnOnce(&Monitor) -> T) -> T {
        let monitor = self.timeline.lock().expect("timeline monitor poisoned");
        f(&monitor)
    }

    /// Draws a fresh request id: 16 lowercase hex digits, unique within
    /// the process, echoed in `x-request-id` and in the trace events.
    pub fn next_request_id(&self) -> String {
        let id = self
            .request_ids
            .lock()
            .expect("request-id rng poisoned")
            .next_u64();
        format!("{id:016x}")
    }

    /// Returns the (memoised) pipeline study for a seed/config pair,
    /// running the pipeline once however many callers ask at once.
    fn study(&self, seed: u64, quick: bool) -> Arc<StudyReport> {
        let (report, got) = self.studies.get_or_compute(&memo_key(seed, quick), || {
            let config = if quick {
                PipelineConfig::quick()
            } else {
                PipelineConfig::default()
            };
            Arc::new(Pipeline::new(config).seed(seed).run())
        });
        match got {
            Got::Led => self.metrics.study_miss(),
            Got::Hit | Got::Followed => self.metrics.study_hit(),
        }
        report
    }
}

/// `GET /healthz`.
pub(crate) fn healthz() -> Response {
    Response::json(
        200,
        "{\"service\":\"tn-server\",\"status\":\"ok\"}".to_string(),
    )
}

/// `GET /v1/devices` — the device registry with per-device workloads.
pub(crate) fn devices(state: &AppState) -> Response {
    let roster = registry::full_roster(state.seed);
    let mut body = String::with_capacity(1024);
    member(&mut body, "{\"count\":", roster.len());
    body.push_str(",\"devices\":[");
    for (i, entry) in roster.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        member(&mut body, "{\"name\":", entry.device.name());
        member(&mut body, ",\"vendor\":", entry.device.vendor());
        member(
            &mut body,
            ",\"kind\":",
            format!("{:?}", entry.device.kind()).as_str(),
        );
        body.push_str(",\"workloads\":[");
        for (j, w) in entry.workloads.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            push_json_str(&mut body, w.name());
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /metrics` — Prometheus text exposition.
pub(crate) fn metrics(state: &AppState) -> Response {
    Response::metrics_text(state.metrics.render())
}

/// A request that failed validation, carrying the status it maps to.
#[derive(Debug, Clone)]
pub(crate) struct BadRequest {
    status: u16,
    message: String,
}

impl BadRequest {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    /// The JSON error response this rejection earns.
    pub(crate) fn response(&self) -> Response {
        Response::error(self.status, &self.message)
    }
}

/// One line of the surface-cache file: `{"quick":bool,"surface":{...}}`.
/// `RiskSurface::from_json` recomputes the grid digest, so a corrupted
/// table cannot load silently.
fn parse_surface_line(line: &str) -> Result<(bool, RiskSurface), String> {
    let doc = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let quick = doc
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean field `quick`")?;
    let surface_doc = doc.get("surface").ok_or("missing field `surface`")?;
    let surface = RiskSurface::from_json(surface_doc)?;
    Ok((quick, surface))
}

/// Resolves `location`, writing it into the cache key: a preset as the
/// name given, or, for a custom site, an empty text (no preset has that
/// name) and then its name, altitude and rigidity. An absent location is
/// keyed as the default preset it stands for.
fn resolve_location(
    location: Field<'_>,
    custom: [Field<'_>; 3],
    key: &mut Vec<u8>,
) -> Result<Location, BadRequest> {
    match location.value {
        None => {
            cache_key::push_text(key, "new_york");
            Ok(Location::new_york())
        }
        Some(Value::Str(name)) => {
            let loc = match &*name {
                "new_york" | "nyc" => Location::new_york(),
                "leadville" => Location::leadville(),
                "los_alamos" => Location::los_alamos(),
                other => {
                    return Err(BadRequest::new(
                        400,
                        format!(
                            "unknown location preset `{other}` \
                             (expected new_york, leadville or los_alamos, \
                             or an object with altitude_m)"
                        ),
                    ))
                }
            };
            cache_key::push_text(key, &name);
            Ok(loc)
        }
        Some(Value::Object) => {
            let [altitude_m, rigidity, name] = custom;
            let altitude_m = altitude_m
                .value
                .as_ref()
                .and_then(Value::as_f64)
                .ok_or_else(|| {
                    BadRequest::new(400, "location object needs numeric `altitude_m`")
                })?;
            let rigidity = match &rigidity.value {
                None => 1.0,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| BadRequest::new(400, "`rigidity_factor` must be a number"))?,
            };
            let name = match &name.value {
                None => "custom site",
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| BadRequest::new(400, "location `name` must be a string"))?,
            };
            if !(-430.0..=9_000.0).contains(&altitude_m) {
                return Err(BadRequest::new(
                    400,
                    "`altitude_m` out of terrestrial range (-430..=9000)",
                ));
            }
            if !(rigidity > 0.0 && rigidity.is_finite()) {
                return Err(BadRequest::new(
                    400,
                    "`rigidity_factor` must be finite and > 0",
                ));
            }
            for text in ["", name] {
                cache_key::push_text(key, text);
            }
            cache_key::push_bits(key, &[altitude_m.to_bits(), rigidity.to_bits()]);
            Ok(Location::new(name, altitude_m, rigidity))
        }
        Some(_) => Err(BadRequest::new(
            400,
            "`location` must be a preset string or an object",
        )),
    }
}

/// The solar-activity presets `/v1/fit` takes, the default first.
const SOLAR: [(&str, SolarActivity); 3] = [
    ("minimum", SolarActivity::Minimum),
    ("average", SolarActivity::Average),
    ("maximum", SolarActivity::Maximum),
];

/// Histories per Monte-Carlo room derivation (`derived_*` surroundings).
/// Matches the count the environment crate uses to validate the
/// calibrated boosts; responses are cached per `(surroundings, seed)`.
const ROOM_DERIVATION_HISTORIES: u64 = 4_000;

/// The surroundings presets `/v1/fit` takes, the default first; each
/// names the surroundings [`surroundings`] builds.
const SURROUNDINGS: [(&str, ()); 6] = [
    ("hpc_machine_room", ()),
    ("outdoors", ()),
    ("concrete_floor", ()),
    ("water_cooled", ()),
    ("derived_air_cooled", ()),
    ("derived_liquid_cooled", ()),
];

/// The surroundings a preset name stands for. The `derived_*` presets
/// run the seeded tn-transport moderation model (respecting the
/// configured `transport_threads`) instead of the paper's calibrated
/// additive boosts, so a response runs them only when it is computed,
/// never on a cache hit.
fn surroundings(name: &str, seed: u64) -> Surroundings {
    let derived = |room: DataCenterRoom| {
        let boost = room.derive_thermal_factor(ROOM_DERIVATION_HISTORIES, seed) - 1.0;
        Surroundings::outdoors().with_extra_boost(boost)
    };
    match name {
        "outdoors" => Surroundings::outdoors(),
        "concrete_floor" => Surroundings::concrete_floor(),
        "water_cooled" => Surroundings::water_cooled(),
        "derived_air_cooled" => derived(DataCenterRoom::air_cooled()),
        "derived_liquid_cooled" => derived(DataCenterRoom::liquid_cooled()),
        _ => Surroundings::hpc_machine_room(),
    }
}

/// Runs a cacheable POST handler: typed key → memo.
fn cached(state: &AppState, key: Vec<u8>, compute: impl FnOnce() -> String) -> Response {
    Response::json(200, cached_body(state, key, || compute().into()))
}

/// The body cached under `key`, rendered by `compute` on a miss. The
/// rendered body is one `Arc<str>`, and that one allocation is what the
/// cache, coalesced callers and the socket writer share. `compute` makes
/// the `Arc<str>` itself, so a registry render can keep the buffer it
/// copied the body from.
fn cached_body(state: &AppState, key: Vec<u8>, compute: impl FnOnce() -> Arc<str>) -> Arc<str> {
    let (body, got) = state.cache.get_or_compute(&key, compute);
    match got {
        Got::Hit => state.metrics.cache_hit(),
        Got::Led => state.metrics.cache_miss(),
        Got::Followed => state.metrics.cache_coalesced(),
    }
    body
}

fn push_fit_fields(out: &mut String, fit: &DeviceFit) {
    member(out, "{\"high_energy_fit\":", fit.high_energy.value());
    member(out, ",\"thermal_fit\":", fit.thermal.value());
    member(out, ",\"total_fit\":", fit.total().value());
    member(out, ",\"thermal_share\":", fit.thermal_share());
    member(
        out,
        ",\"underestimation_factor\":",
        fit.underestimation_factor(),
    );
    out.push('}');
}

/// The members `POST /v1/fit` reads, in the order it checks them.
const FIT_KEYS: [&str; 7] = [
    "device",
    "location",
    "weather",
    "seed",
    "surroundings",
    "solar_activity",
    "quick",
];

/// `POST /v1/fit` — fold a device's beam-measured cross sections with a
/// terrestrial environment.
///
/// Request: `{"device": <name>, "location": <preset|object>,
/// "weather": <preset>, "surroundings": <preset>,
/// "solar_activity": <preset>, "seed": <u64>, "quick": <bool>}`
/// (everything but `device` optional).
pub(crate) fn fit(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    const CUSTOM_KEYS: [&str; 3] = ["altitude_m", "rigidity_factor", "name"];
    let mut fields = FIT_KEYS.map(Field::absent);
    let mut custom = CUSTOM_KEYS.map(Field::absent);
    scan(request.body(), |s| {
        s.members(FIT_KEYS, |s, i| {
            // A custom location's own members are read too.
            let value = if i == 1 {
                s.members(CUSTOM_KEYS, |s, j| {
                    custom[j].value = Some(s.scalar()?);
                    Ok(())
                })?
            } else {
                s.scalar()?
            };
            fields[i].value = Some(value);
            Ok(())
        })
    })?;
    let [device, location, weather, seed, surroundings_name, solar, quick] = fields;
    let device_name = device.str()?;
    let device = registry::find_device(device_name)
        .ok_or_else(|| BadRequest::new(404, format!("unknown device `{device_name}`")))?;
    let mut key = b"fit|".to_vec();
    cache_key::push_text(&mut key, device.name());
    let location = resolve_location(location, custom, &mut key)?;
    let (weather_name, weather) = weather.preset(
        &Weather::ALL.map(|w| (w.label(), w)),
        "`weather` must be sunny, rainy, thunderstorm or snowpack",
    )?;
    let seed = seed.u64_or(state.seed)?;
    let (surroundings_name, ()) = surroundings_name.preset(
        &SURROUNDINGS,
        "`surroundings` must be outdoors, concrete_floor, water_cooled, \
         hpc_machine_room, derived_air_cooled or derived_liquid_cooled",
    )?;
    let (solar_name, solar) = solar.preset(
        &SOLAR,
        "`solar_activity` must be minimum, average or maximum",
    )?;
    let quick = quick.bool_or(true)?;
    for text in [weather_name, surroundings_name, solar_name] {
        cache_key::push_text(&mut key, text);
    }
    cache_key::push_bits(&mut key, &[seed, u64::from(quick)]);

    Ok(cached(state, key, || {
        let env = Environment::new(location, weather, surroundings(surroundings_name, seed))
            .with_solar_activity(solar);
        let study = state.study(seed, quick);
        let report = study
            .device(device.name())
            .expect("catalog device present in every study");
        let sdc = report.sdc_fit(&env);
        let due = report.due_fit(&env);
        let mut out = String::with_capacity(512);
        member(&mut out, "{\"device\":", device.name());
        member(&mut out, ",\"seed\":", seed);
        member(&mut out, ",\"quick\":", quick);
        out.push_str(",\"environment\":{\"location\":");
        push_json_str(&mut out, env.location().name());
        out.push_str(",\"altitude_m\":");
        push_json_num(&mut out, env.location().altitude_m());
        member(&mut out, ",\"weather\":", env.weather().label());
        member(&mut out, ",\"surroundings\":", surroundings_name);
        member(&mut out, ",\"solar_activity\":", solar_name);
        member(
            &mut out,
            ",\"high_energy_flux_cm2_s\":",
            env.high_energy_flux().value(),
        );
        member(
            &mut out,
            ",\"thermal_flux_cm2_s\":",
            env.thermal_flux().value(),
        );
        out.push_str("},\"sdc\":");
        push_fit_fields(&mut out, &sdc);
        out.push_str(",\"due\":");
        push_fit_fields(&mut out, &due);
        out.push('}');
        out
    }))
}

/// `POST /v1/checkpoint` — Young/Daly checkpoint intervals for a fleet.
///
/// Request: `{"due_fit_per_node": <f64>, "nodes": <u64>,
/// "checkpoint_cost_s": <f64>}` (`nodes` optional, default 1).
pub(crate) fn checkpoint(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let [per_node, cost_s, nodes] = scan(request.body(), |s| {
        decode::fields(s, ["due_fit_per_node", "checkpoint_cost_s", "nodes"])
    })?;
    let per_node = per_node.positive()?;
    let cost_s = cost_s.positive()?;
    let nodes = nodes.u64_or(1)?;
    if nodes == 0 {
        return Err(BadRequest::new(400, "field `nodes` must be >= 1"));
    }
    let mut key = b"checkpoint|".to_vec();
    cache_key::push_bits(&mut key, &[per_node.to_bits(), nodes, cost_s.to_bits()]);

    Ok(cached(state, key, || {
        let fleet_fit = per_node * nodes as f64;
        let plan = CheckpointPlan::new(Fit(fleet_fit), Seconds(cost_s));
        let young = plan.young_interval();
        let daly = plan.daly_interval();
        let mut out = String::with_capacity(256);
        member(&mut out, "{\"nodes\":", nodes);
        member(&mut out, ",\"fleet_due_fit\":", fleet_fit);
        member(&mut out, ",\"mtbf_s\":", plan.mtbf().value());
        member(&mut out, ",\"young_interval_s\":", young.value());
        member(&mut out, ",\"daly_interval_s\":", daly.value());
        member(&mut out, ",\"overhead_at_young\":", plan.overhead_at(young));
        member(&mut out, ",\"overhead_at_daly\":", plan.overhead_at(daly));
        out.push('}');
        out
    }))
}

/// `POST /v1/cross-sections` — the quick-sized beam-campaign pipeline
/// for one device: per-workload ChipIR/ROTAX cross sections with 95 %
/// confidence intervals, plus the Figure-5 ratios.
///
/// Request: `{"device": <name>, "seed": <u64>}` (`seed` optional).
pub(crate) fn cross_sections(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let [device, seed] = scan(request.body(), |s| decode::fields(s, ["device", "seed"]))?;
    let device_name = device.str()?;
    let device = registry::find_device(device_name)
        .ok_or_else(|| BadRequest::new(404, format!("unknown device `{device_name}`")))?;
    let seed = seed.u64_or(state.seed)?;
    let mut key = b"cross-sections|".to_vec();
    cache_key::push_text(&mut key, device.name());
    cache_key::push_bits(&mut key, &[seed]);

    Ok(cached(state, key, || {
        let study = state.study(seed, true);
        let report = study
            .device(device.name())
            .expect("catalog device present in every study");
        let mut out = String::with_capacity(2048);
        member(&mut out, "{\"seed\":", seed);
        member(&mut out, ",\"sdc_ratio\":", report.sdc_ratio());
        member(&mut out, ",\"due_ratio\":", report.due_ratio());
        out.push_str(",\"report\":");
        out.push_str(&report.to_json());
        out.push('}');
        out
    }))
}

/// Largest history count a single request may ask for; keeps one
/// request from monopolising the workers.
const TRANSPORT_MAX_HISTORIES: u64 = 200_000;

/// The members `POST /v1/transport` reads, in the order it checks them.
const TRANSPORT_KEYS: [&str; 6] = [
    "layers",
    "energy_ev",
    "histories",
    "seed",
    "source",
    "variance_reduction",
];

/// `POST /v1/transport` — slab-stack Monte-Carlo transport on demand.
pub(crate) fn transport(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    use tn_core::transport::{Layer, SlabStack, Transport, VarianceReduction};
    use tn_physics::units::{Energy, Length};

    let mut fields = TRANSPORT_KEYS.map(Field::absent);
    // A layer the checks below reject before resolving anything: the
    // layers after it are only scanned, so a body of a few hundred
    // thousand empty items keeps one.
    let incomplete = |[material, thickness]: &[Field<'_>; 2]| {
        material.value.as_ref().and_then(Value::as_str).is_none()
            || thickness.value.as_ref().and_then(Value::as_f64).is_none()
    };
    let (mut layers, mut is_array) = (Vec::new(), false);
    scan(request.body(), |s| {
        s.members(TRANSPORT_KEYS, |s, i| {
            if i > 0 {
                fields[i].value = Some(s.scalar()?);
                return Ok(());
            }
            is_array = (s.items(usize::MAX, |s| {
                if layers.last().is_some_and(incomplete) {
                    return s.skip();
                }
                layers.push(decode::fields(s, ["material", "thickness_cm"])?);
                Ok(())
            })?)
            .is_some();
            Ok(())
        })
    })?;
    let [_, energy_ev, histories, seed, source, vr] = fields;
    if !is_array {
        return Err(BadRequest::new(400, "missing or non-array field `layers`"));
    }
    // The layer count first: each layer's key is self-delimiting, so the
    // key stays one sequence of fields whatever the count.
    let mut key = b"transport|".to_vec();
    cache_key::push_bits(&mut key, &[layers.len() as u64]);
    let mut stack = Vec::with_capacity(layers.len());
    for (i, [material, thickness_cm]) in layers.iter().enumerate() {
        let material_name = material
            .value
            .as_ref()
            .and_then(Value::as_str)
            .ok_or_else(|| {
                BadRequest::new(400, format!("layer {i}: missing or non-string `material`"))
            })?;
        let material =
            tn_physics::Material::preset(material_name).map_err(|e| BadRequest::new(400, e))?;
        let thickness_cm = thickness_cm
            .value
            .as_ref()
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                BadRequest::new(
                    400,
                    format!("layer {i}: missing or non-numeric `thickness_cm`"),
                )
            })?;
        // Construction-time geometry validation: a zero or negative
        // thickness surfaces as a 400 here instead of panicking a
        // worker thread inside the transport kernel.
        let layer = Layer::try_new(material, Length(thickness_cm))
            .map_err(|e| BadRequest::new(400, format!("layer {i}: {e}")))?;
        stack.push(layer);
        cache_key::push_text(&mut key, material_name);
        cache_key::push_bits(&mut key, &[thickness_cm.to_bits()]);
    }
    let stack = SlabStack::try_new(stack).map_err(|e| BadRequest::new(400, e.to_string()))?;

    let energy_ev = match &energy_ev.value {
        None => 0.0253,
        Some(v) => v
            .as_f64()
            .filter(|e| *e > 0.0 && e.is_finite())
            .ok_or_else(|| BadRequest::new(400, "field `energy_ev` must be finite and > 0"))?,
    };
    let histories = histories.u64_or(10_000)?;
    if histories > TRANSPORT_MAX_HISTORIES {
        return Err(BadRequest::new(
            400,
            format!("field `histories` must be ≤ {TRANSPORT_MAX_HISTORIES}"),
        ));
    }
    let seed = seed.u64_or(state.seed)?;
    let (source, ()) = source.preset(
        &[("beam", ()), ("diffuse", ())],
        "field `source` must be \"beam\" or \"diffuse\"",
    )?;
    let vr = vr.bool_or(false)?;
    cache_key::push_bits(&mut key, &[energy_ev.to_bits(), histories, seed]);
    cache_key::push_text(&mut key, source);
    cache_key::push_bits(&mut key, &[u64::from(vr)]);

    Ok(cached(state, key, || {
        let engine = Transport::new(stack);
        let e = Energy(energy_ev);
        let mut out = String::with_capacity(512);
        member(&mut out, "{\"seed\":", seed);
        member(&mut out, ",\"histories\":", histories);
        member(&mut out, ",\"source\":", source);
        member(&mut out, ",\"variance_reduction\":", vr);
        if vr {
            let t = if source == "beam" {
                engine.run_beam_weighted(e, histories, seed, VarianceReduction::default())
            } else {
                engine.run_diffuse_weighted(e, histories, seed, VarianceReduction::default())
            };
            member(
                &mut out,
                ",\"transmitted_thermal_fraction\":",
                t.transmitted_thermal_fraction(),
            );
            member(
                &mut out,
                ",\"transmitted_fraction\":",
                t.transmitted_fraction(),
            );
            member(
                &mut out,
                ",\"reflected_thermal_fraction\":",
                t.reflected_thermal_fraction(),
            );
            member(&mut out, ",\"absorbed_fraction\":", t.absorbed_fraction());
            member(
                &mut out,
                ",\"transmitted_thermal_rel_error\":",
                t.transmitted_thermal_rel_error(),
            );
        } else {
            let t = if source == "beam" {
                engine.run_beam(e, histories, seed)
            } else {
                engine.run_diffuse(e, histories, seed)
            };
            member(&mut out, ",\"transmitted_thermal\":", t.transmitted_thermal);
            member(&mut out, ",\"transmitted_fast\":", t.transmitted_fast);
            member(&mut out, ",\"reflected_thermal\":", t.reflected_thermal);
            member(&mut out, ",\"reflected_fast\":", t.reflected_fast);
            member(&mut out, ",\"absorbed\":", t.absorbed);
            member(&mut out, ",\"lost\":", t.lost);
            member(
                &mut out,
                ",\"transmitted_thermal_fraction\":",
                t.transmitted_thermal_fraction(),
            );
            member(&mut out, ",\"absorbed_fraction\":", t.absorbed_fraction());
            member(
                &mut out,
                ",\"thermal_escape_fraction\":",
                t.thermal_escape_fraction(),
            );
        }
        out.push('}');
        out
    }))
}

impl From<FleetError> for BadRequest {
    fn from(e: FleetError) -> Self {
        let status = match e {
            FleetError::UnknownDevice(_) => 404,
            _ => 400,
        };
        BadRequest::new(status, e.to_string())
    }
}

/// Renders one assessed fleet entry as a JSON object (used both as a
/// bulk-response array element and as one JSONL stream line).
fn push_fleet_result(out: &mut String, entry: &FleetEntry, assessment: &RiskAssessment) {
    member(out, "{\"id\":", entry.id.as_str());
    member(out, ",\"device\":", entry.device.as_str());
    member(out, ",\"site\":", entry.site.as_str());
    out.push_str(",\"altitude_m\":");
    push_json_num(out, entry.altitude_m);
    member(out, ",\"b10_areal_cm2\":", entry.b10_areal_cm2);
    member(out, ",\"thermal_scaling\":", entry.thermal_scaling);
    member(out, ",\"avf\":", entry.avf);
    member(out, ",\"source\":", assessment.source.label());
    out.push_str(",\"sdc\":");
    push_fit_fields(out, &assessment.sdc);
    out.push_str(",\"due\":");
    push_fit_fields(out, &assessment.due);
    out.push('}');
}

/// How a fleet body frames its summary and its per-entry results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `POST /v1/fleet`: one object, the results in its `"results"` array.
    Bulk,
    /// `GET /v1/fleet/stream`: JSONL, the summary line and then one line
    /// per result.
    Stream,
}

/// What a fleet body states besides its results.
#[derive(Debug, Clone, Copy)]
struct FleetQuery {
    seed: u64,
    quick: bool,
    /// The registry generation, in registry mode.
    generation: Option<u64>,
    framing: Framing,
}

/// The last whole-registry render on one risk surface. The bulk body and
/// the stream frame the same result objects, so a render by either
/// endpoint serves the other. A later render on the surface copies the
/// result of every entry not written since from `buffer`, instead of
/// assessing and rendering it again.
///
/// It holds the snapshot's write stamps but never its entries: a render
/// keeping those alive would make the next registry write's
/// `Arc::make_mut` copy every entry. Nor does it hold the body the
/// response cache stores; its own buffer holds the same bytes, so a
/// registry write frees that body at once, as before.
#[derive(Debug)]
struct RegistryRender {
    /// Write stamps of the rendered entries, in id order.
    stamps: Arc<Vec<u64>>,
    /// The registry's `next_stamp` at the snapshot: every entry stamped
    /// below it had been written before this render.
    next_stamp: u64,
    /// Each entry's assessment, in id order.
    assessments: Vec<RiskAssessment>,
    /// Byte range of each entry's result object within `buffer`.
    ranges: Vec<Range<usize>>,
    /// The rendered body, as the buffer it was rendered in.
    buffer: String,
}

impl RegistryRender {
    /// Where this render holds the entry stamped `stamp`, searching
    /// forward from `*cursor` and leaving the cursor on the match.
    ///
    /// A stamp is issued once per write, so a match is the same entry
    /// with the same content. Entries keep their relative (id) order
    /// from one snapshot to the next, so a walk in id order only moves
    /// the cursor forward: O(entries) per render, with no id compares.
    /// An entry stamped at or after this render's snapshot is new to it.
    /// One stamped earlier but absent (possible only when this render
    /// came from a later snapshot than the caller's) is not found and
    /// leaves the cursor where it was.
    fn position(&self, stamp: u64, cursor: &mut usize) -> Option<usize> {
        if stamp >= self.next_stamp {
            return None;
        }
        let offset = self.stamps[*cursor..].iter().position(|&s| s == stamp)?;
        *cursor += offset;
        Some(*cursor)
    }
}

/// A previous registry render and the write stamps of the entries being
/// rendered now.
#[derive(Debug, Clone, Copy)]
struct Reuse<'a> {
    previous: &'a RegistryRender,
    stamps: &'a [u64],
}

/// The one fleet renderer: the summary, then one result object per
/// entry, framed as `query.framing` says. Given a previous registry
/// render, an entry written before it takes its assessment and its
/// result bytes from that render; every other entry is assessed on
/// `surface` and rendered. The totals are summed in entry order over all
/// the assessments, so the bytes equal a render from scratch. Returns
/// the body, the assessments and each result's byte range in the body.
fn render_fleet(
    state: &AppState,
    surface: &RiskSurface,
    query: FleetQuery,
    entries: &[FleetEntry],
    reuse: Option<Reuse<'_>>,
) -> (String, Vec<RiskAssessment>, Vec<Range<usize>>) {
    // The assessments come first: the summary totals need them. Until
    // the results are written, `ranges` holds where each reused result
    // sits in the previous render, and an empty range for a result still
    // to be rendered (a result object is never empty).
    let mut cursor = 0;
    let mut assessments = Vec::with_capacity(entries.len());
    let mut ranges = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let found = reuse.and_then(|r| {
            let j = r.previous.position(r.stamps[i], &mut cursor)?;
            Some((r.previous, j))
        });
        match found {
            Some((previous, j)) => {
                assessments.push(previous.assessments[j]);
                ranges.push(previous.ranges[j].clone());
            }
            None => {
                let device = registry::find_device(&entry.device)
                    .expect("fleet entries hold validated catalog device names");
                assessments.push(surface.assess(device, &tn_fleet::SiteParams::from_entry(entry)));
                ranges.push(0..0);
            }
        }
    }
    let rendered = ranges.iter().filter(|r| r.start == r.end).count();
    state
        .metrics
        .fleet_results((entries.len() - rendered) as u64, rendered as u64);

    // Sized like the previous buffer when there is one, so a churning
    // registry keeps asking the allocator for one block size.
    let previous_capacity = reuse.map_or(0, |r| r.previous.buffer.capacity());
    let mut out = String::with_capacity(previous_capacity.max(1024 + 512 * entries.len()));
    push_fleet_summary(&mut out, surface, &assessments, query);
    out.push_str(match query.framing {
        Framing::Bulk => ",\"results\":[",
        Framing::Stream => "}\n",
    });
    for (i, (entry, range)) in entries.iter().zip(&mut ranges).enumerate() {
        if query.framing == Framing::Bulk && i > 0 {
            out.push(',');
        }
        let start = out.len();
        match reuse {
            Some(r) if range.start < range.end => out.push_str(&r.previous.buffer[range.clone()]),
            _ => push_fleet_result(&mut out, entry, &assessments[i]),
        }
        *range = start..out.len();
        if query.framing == Framing::Stream {
            out.push('\n');
        }
    }
    if query.framing == Framing::Bulk {
        out.push_str("]}");
    }
    (out, assessments, ranges)
}

/// Renders `entries` from scratch: an inline request or an `ids` subset.
fn render_listed(state: &AppState, query: FleetQuery, entries: &[FleetEntry]) -> Arc<str> {
    let surface = state.surface(query.seed, query.quick);
    render_fleet(state, &surface, query, entries, None).0.into()
}

/// Renders the whole registry `snapshot`, reusing the surface's previous
/// registry render and then keeping this one in its place.
fn render_registry(state: &AppState, query: FleetQuery, snapshot: RegistrySnapshot) -> Arc<str> {
    let surface = state.memoised_surface(query.seed, query.quick);
    // A concurrent render on the surface finds no render to reuse and
    // starts from scratch: slower, never wrong.
    let previous = surface.render.lock().expect("render poisoned").take();
    let RegistrySnapshot {
        entries,
        stamps,
        next_stamp,
    } = snapshot;
    let reuse = previous.as_ref().map(|previous| Reuse {
        previous,
        stamps: &stamps,
    });
    let (buffer, assessments, ranges) =
        render_fleet(state, &surface.tables, query, &entries, reuse);
    // Free the previous render before copying the body out of this one,
    // so no more than two bodies' worth of buffers is live at once.
    drop(previous);
    let body: Arc<str> = Arc::from(buffer.as_str());
    *surface.render.lock().expect("render poisoned") = Some(RegistryRender {
        stamps,
        next_stamp,
        assessments,
        ranges,
        buffer,
    });
    body
}

/// Opens a fleet body: `{` and the fields shared by the bulk response and
/// the stream's meta line (count, per-path counts, surface digest,
/// totals, seed, quick and, in registry mode, the generation).
fn push_fleet_summary(
    out: &mut String,
    surface: &RiskSurface,
    assessments: &[RiskAssessment],
    query: FleetQuery,
) {
    let mut surface_hits = 0u64;
    let mut mc_fallbacks = 0u64;
    let (mut sdc_total, mut due_total) = (0.0f64, 0.0f64);
    for assessment in assessments {
        match assessment.source {
            tn_fleet::RiskSource::Surface => surface_hits += 1,
            tn_fleet::RiskSource::MonteCarlo => mc_fallbacks += 1,
        }
        sdc_total += assessment.sdc.total().value();
        due_total += assessment.due.total().value();
    }
    member(out, "{\"count\":", assessments.len());
    member(out, ",\"surface_hits\":", surface_hits);
    member(out, ",\"mc_fallbacks\":", mc_fallbacks);
    member(
        out,
        ",\"surface_digest\":",
        format!("{:016x}", surface.grid_digest()).as_str(),
    );
    out.push_str(",\"totals\":{\"sdc_fit\":");
    push_json_f64(out, sdc_total);
    member(out, ",\"due_fit\":", due_total);
    member(out, "},\"seed\":", query.seed);
    member(out, ",\"quick\":", query.quick);
    if let Some(generation) = query.generation {
        member(out, ",\"generation\":", generation);
    }
}

/// The start of a registry-mode fleet body's cache key: `registry|`,
/// the registry generation it renders, then the endpoint's tag (`fleet|`
/// or `fleet-stream|`) and the `(seed, quick)` surface it is served at.
fn registry_key(generation: u64, endpoint: &str, seed: u64, quick: bool) -> Vec<u8> {
    let mut key = b"registry|".to_vec();
    cache_key::push_bits(&mut key, &[generation]);
    key.extend_from_slice(endpoint.as_bytes());
    cache_key::push_bits(&mut key, &[seed, u64::from(quick)]);
    key
}

/// Whether `key` caches a registry-mode fleet body (bulk or stream) of a
/// generation older than `generation`. Such a body can never be served
/// again once the registry has reached `generation`: every registry-mode
/// key starts with `registry|` and the eight bytes of the generation it
/// was rendered from ([`registry_key`]; every other key starts with its
/// own endpoint's tag), and generations only grow. Each successful
/// registry write therefore drops these bodies at once instead of leaving
/// them to LRU eviction.
fn is_dead_registry_key(key: &[u8], generation: u64) -> bool {
    let rendered_at = key
        .strip_prefix(b"registry|")
        .and_then(|rest| rest.get(..8)?.try_into().ok());
    rendered_at.is_some_and(|g| u64::from_le_bytes(g) < generation)
}

/// `POST /v1/fleet` — bulk risk assessment.
///
/// Request: `{"devices": [<entry>...], "seed": <u64>, "quick": <bool>}`
/// for inline entries (`device` required per entry; `id`, `site`,
/// `altitude_m`, `rigidity_factor`, `b10_areal_cm2`, `thermal_scaling`,
/// `avf` optional), or `{"ids": [<id>...]}` / `{}` to assess (a subset
/// of) the server's fleet registry. Steady-state queries are served from
/// the precomputed risk surface; out-of-grid configurations fall back to
/// a direct Monte-Carlo run (`"source": "mc"` in the result).
///
/// The body is decoded once per request: a request the router already
/// inspected (see `router::wants_worker`) is not scanned again.
pub(crate) fn fleet(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let fleet = request.fleet().map_err(BadRequest::clone)?;
    let text = std::str::from_utf8(request.body()).expect("a decoded fleet body is UTF-8");
    let (seed, quick) = fleet.surface(state.seed)?;

    // Inline mode carries the entries in the request, and its cache key
    // is their typed keys (see `EntryFields::push_cache_key`), written
    // from the fields as the body holds them, in the pass that validates
    // them: a hit builds no entry and allocates nothing per entry, and
    // every spelling of the same validated entries shares one body.
    // Registry mode snapshots (a subset of) the server fleet, with the
    // registry generation folded into the cache key so cached responses
    // can never outlive the registry state they were computed from. The
    // whole-registry snapshot is O(1): it shares the registry's entries
    // and write stamps.
    let escaped = fleet.escaped.as_str();
    let mut key = Vec::new();
    let (entries, generation) = match &fleet.devices {
        Some(devices) => {
            let raw = devices
                .as_ref()
                .ok_or_else(|| BadRequest::new(400, "field `devices` must be an array"))?
                .within("devices", FLEET_MAX_ENTRIES)?;
            key.reserve(32 + text.len() + escaped.len() + INLINE_KEY_BYTES * raw.len());
            key.extend_from_slice(b"fleet|inline|");
            cache_key::push_bits(&mut key, &[seed, u64::from(quick)]);
            for (i, entry) in raw.iter().enumerate() {
                let push_key = |fields: EntryFields<'_>| fields.push_cache_key(&mut key).map(drop);
                inline_entry(entry, text, escaped, i, push_key)?;
            }
            (FleetEntries::Inline(raw), None)
        }
        None => state.with_fleet(|registry| {
            if registry.is_empty() {
                return Err(BadRequest::new(400, "fleet registry is empty"));
            }
            let generation = registry.generation();
            // The whole registry's key is this prefix alone; an `ids`
            // key adds at least one id.
            key = registry_key(generation, "fleet|", seed, quick);
            let Some(ids) = &fleet.ids else {
                return Ok((
                    FleetEntries::Registry(registry.snapshot()),
                    Some(generation),
                ));
            };
            let ids = ids
                .as_ref()
                .ok_or_else(|| BadRequest::new(400, "field `ids` must be an array"))?;
            if ids.len > FLEET_MAX_ENTRIES {
                return Err(BadRequest::new(
                    400,
                    format!("field `ids` must hold ≤ {FLEET_MAX_ENTRIES} entries"),
                ));
            }
            let mut entries = Vec::with_capacity(ids.items.len());
            for id in &ids.items {
                let id = id
                    .as_ref()
                    .ok_or_else(|| BadRequest::new(400, "field `ids` must hold strings"))?
                    .get(text, escaped);
                let entry = registry
                    .get(id)
                    .ok_or_else(|| BadRequest::new(404, format!("unknown fleet entry `{id}`")))?;
                entries.push(entry.clone());
                cache_key::push_text(&mut key, id);
            }
            if entries.is_empty() {
                return Err(BadRequest::new(400, "field `ids` must not be empty"));
            }
            Ok((FleetEntries::Listed(entries), Some(generation)))
        })?,
    };

    let query = FleetQuery {
        seed,
        quick,
        generation,
        framing: Framing::Bulk,
    };
    let body = cached_body(state, key, || match entries {
        FleetEntries::Inline(raw) => {
            let entries: Vec<FleetEntry> = (raw.iter().enumerate())
                .map(|(i, entry)| {
                    let validate =
                        |fields: EntryFields<'_>| fields.validate().map(|f| f.to_entry());
                    inline_entry(entry, text, escaped, i, validate)
                })
                .collect::<Result<_, _>>()
                .expect("the entries were validated for the key");
            render_listed(state, query, &entries)
        }
        FleetEntries::Listed(entries) => render_listed(state, query, &entries),
        FleetEntries::Registry(snapshot) => render_registry(state, query, snapshot),
    });
    Ok(Response::json(200, body))
}

/// Reads inline entry `i` of a fleet request and hands its fields to
/// `check`, which validates them. An entry without an `id` is
/// `inline-{i:04}`, written on the stack.
fn inline_entry<T>(
    entry: &EntryMembers,
    text: &str,
    escaped: &str,
    i: usize,
    check: impl FnOnce(EntryFields<'_>) -> Result<T, FleetError>,
) -> Result<T, BadRequest> {
    // Four digits: `i` is below FLEET_MAX_ENTRIES. Written by hand, not
    // with `write!`: this runs for every entry of every cache hit.
    let mut id = *b"inline-0000";
    let mut rest = i;
    for digit in id[7..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let default_id = std::str::from_utf8(&id).expect("ASCII digits");
    entry
        .fields(text, escaped, Some(default_id))
        .and_then(check)
        .map_err(|e| {
            let bad = BadRequest::from(e);
            BadRequest::new(bad.status, format!("devices[{i}]: {}", bad.message))
        })
}

/// The entries a bulk fleet request assesses.
enum FleetEntries<'a> {
    /// Inline devices, as decoded and validated.
    Inline(&'a [EntryMembers]),
    /// An `ids` subset of the registry.
    Listed(Vec<FleetEntry>),
    /// The whole registry.
    Registry(RegistrySnapshot),
}

/// `GET /v1/fleet/stream` — the whole fleet registry as chunked JSONL:
/// one metadata line, then one result line per entry, streamed with
/// `Transfer-Encoding: chunked` so a poller can process entries as they
/// arrive. Query parameters: `seed=<u64>`, `quick=<bool>`.
pub(crate) fn fleet_stream(state: &AppState, path: &str) -> Result<Response, BadRequest> {
    let (seed, quick) = stream_params(state.seed, path)?;
    let (snapshot, generation) = state.with_fleet(|fleet| (fleet.snapshot(), fleet.generation()));
    if snapshot.entries.is_empty() {
        return Err(BadRequest::new(400, "fleet registry is empty"));
    }

    let key = registry_key(generation, "fleet-stream|", seed, quick);
    let query = FleetQuery {
        seed,
        quick,
        generation: Some(generation),
        framing: Framing::Stream,
    };
    let text = cached_body(state, key, || render_registry(state, query, snapshot));
    // One HTTP chunk per JSONL line, framed from the cached text.
    Ok(Response::chunked(200, "application/x-ndjson", text))
}

/// The `name=value` pairs of `path`'s query string.
fn query_pairs(path: &str) -> impl Iterator<Item = (&str, &str)> {
    let query = path.split_once('?').map_or("", |(_, query)| query);
    let pairs = query.split('&').filter(|p| !p.is_empty());
    pairs.map(|pair| pair.split_once('=').unwrap_or((pair, "")))
}

fn unknown_query_parameter(name: &str) -> BadRequest {
    BadRequest::new(400, format!("unknown query parameter `{name}`"))
}

/// Parses the `seed`/`quick` query parameters shared by the stream
/// endpoint and the event loop's offload decision.
pub(crate) fn stream_params(default_seed: u64, path: &str) -> Result<(u64, bool), BadRequest> {
    let (mut seed, mut quick) = (default_seed, true);
    for (name, value) in query_pairs(path) {
        match name {
            "seed" => {
                seed = value.parse().map_err(|_| {
                    BadRequest::new(400, "query parameter `seed` must be a non-negative integer")
                })?;
            }
            "quick" => {
                quick = match value {
                    "true" | "1" | "" => true,
                    "false" | "0" => false,
                    _ => {
                        return Err(BadRequest::new(
                            400,
                            "query parameter `quick` must be true or false",
                        ))
                    }
                };
            }
            other => return Err(unknown_query_parameter(other)),
        }
    }
    Ok((seed, quick))
}

/// `POST /v1/fleet/entries` — inserts or replaces one registry entry.
/// The body is a single fleet-entry object (same schema as inline
/// `devices` items, but `id` is required). Bumps the registry
/// generation, which invalidates every cached registry-mode response.
pub(crate) fn fleet_entry_upsert(
    state: &AppState,
    request: &Request,
) -> Result<Response, BadRequest> {
    let mut escaped = String::new();
    let raw = scan(request.body(), |s| EntryMembers::read(s, &mut escaped))?;
    if !raw.has_id() {
        return Err(BadRequest::new(400, "field `id` (string) is required"));
    }
    let text = std::str::from_utf8(request.body()).expect("a scanned body is UTF-8");
    // `upsert` validates the entry.
    let entry = raw.fields(text, &escaped, None)?.to_entry();
    let id = entry.id.clone();
    let (generation, count) = state.with_fleet(|fleet| {
        fleet
            .upsert(entry)
            .map(|()| (fleet.generation(), fleet.len()))
            .map_err(BadRequest::from)
    })?;
    fleet_write_response(state, "upsert", &id, generation, count)
}

/// `DELETE /v1/fleet/entries/{id}` — removes one registry entry; 404
/// when the id is unknown. Bumps the registry generation on success.
pub(crate) fn fleet_entry_delete(state: &AppState, id: &str) -> Result<Response, BadRequest> {
    let (generation, count) = state
        .with_fleet(|fleet| fleet.remove(id).then(|| (fleet.generation(), fleet.len())))
        .ok_or_else(|| BadRequest::new(404, format!("unknown fleet entry `{id}`")))?;
    fleet_write_response(state, "delete", id, generation, count)
}

/// Drops the cached bodies a registry write left dead, logs the write and
/// answers it.
fn fleet_write_response(
    state: &AppState,
    op: &str,
    id: &str,
    generation: u64,
    count: usize,
) -> Result<Response, BadRequest> {
    state
        .cache
        .remove_if(|key| is_dead_registry_key(key, generation));
    tn_obs::info(
        if op == "upsert" {
            "fleet_entry_upsert"
        } else {
            "fleet_entry_delete"
        },
        &[("id", id.into()), ("generation", generation.into())],
    );
    let mut out = format!("{{\"op\":\"{op}\",\"id\":");
    push_json_str(&mut out, id);
    out.push_str(&format!(",\"generation\":{generation},\"count\":{count}}}"));
    Ok(Response::json(200, out))
}

/// Renders one timeline point as a JSON object (array element in the
/// bulk response, one JSONL line in the stream).
fn push_timeline_point(out: &mut String, p: &tn_obs::timeline::RatePoint) {
    member(out, "{\"index\":", p.index);
    member(out, ",\"ts_nanos\":", p.ts_nanos);
    member(out, ",\"count\":", p.count);
    member(out, ",\"exposure_seconds\":", p.exposure_seconds);
    member(out, ",\"rate\":", p.rate);
    member(out, ",\"window_rate\":", p.window_rate);
    member(out, ",\"window_lower\":", p.window_lower);
    member(out, ",\"window_upper\":", p.window_upper);
    member(out, ",\"baseline\":", p.baseline);
    out.push('}');
}

/// Renders one alert as a JSON object. The `kind` field distinguishes
/// alert lines from point lines in the JSONL stream.
fn push_timeline_alert(out: &mut String, a: &Alert) {
    member(out, "{\"kind\":", a.kind.label());
    member(out, ",\"onset_index\":", a.onset_index);
    member(out, ",\"detected_index\":", a.detected_index);
    member(out, ",\"ts_nanos\":", a.ts_nanos);
    member(out, ",\"baseline_rate\":", a.baseline_rate);
    member(out, ",\"observed_rate\":", a.observed_rate);
    member(out, ",\"magnitude\":", a.magnitude);
    out.push('}');
}

/// Parses the `limit` query parameter shared by the two timeline GET
/// endpoints; unknown parameters are rejected like everywhere else.
fn timeline_limit(path: &str) -> Result<usize, BadRequest> {
    let mut limit = TIMELINE_DEFAULT_LIMIT;
    for (name, value) in query_pairs(path) {
        if name != "limit" {
            return Err(unknown_query_parameter(name));
        }
        limit = value.parse().ok().filter(|l| *l > 0).ok_or_else(|| {
            BadRequest::new(400, "query parameter `limit` must be a positive integer")
        })?;
    }
    Ok(limit)
}

/// A consistent copy of the monitor state taken under one lock hold, so
/// the rendered response can never mix points from different ingests.
struct TimelineSnapshot {
    seen: u64,
    armed: bool,
    reference_rate: f64,
    window_rate: f64,
    ewma_baseline: f64,
    points: Vec<tn_obs::timeline::RatePoint>,
    alerts: Vec<Alert>,
}

fn timeline_snapshot(state: &AppState, limit: usize) -> TimelineSnapshot {
    state.with_timeline(|monitor| {
        let skip = monitor.len().saturating_sub(limit);
        TimelineSnapshot {
            seen: monitor.seen(),
            armed: monitor.armed(),
            reference_rate: monitor.reference_rate(),
            window_rate: monitor.window_rate(),
            ewma_baseline: monitor.ewma_baseline(),
            points: monitor.iter_points().skip(skip).cloned().collect(),
            alerts: monitor.alerts().to_vec(),
        }
    })
}

/// Renders the shared summary fields (everything except the points and
/// alert payloads) of a timeline snapshot.
fn push_timeline_summary(out: &mut String, snap: &TimelineSnapshot) {
    out.push_str("\"samples\":");
    out.push_str(&snap.seen.to_string());
    member(out, ",\"armed\":", snap.armed);
    member(out, ",\"reference_rate\":", snap.reference_rate);
    member(out, ",\"window_rate\":", snap.window_rate);
    member(out, ",\"ewma_baseline\":", snap.ewma_baseline);
}

/// `GET /v1/timeline` — the monitor state as one JSON object: the
/// trailing `limit` (default 256) windowed rate points plus every alert
/// raised so far. Never cached: the series is live state, not a
/// deterministic function of the request.
pub(crate) fn timeline(state: &AppState, path: &str) -> Result<Response, BadRequest> {
    let limit = timeline_limit(path)?;
    let snap = timeline_snapshot(state, limit);
    let mut out = String::with_capacity(256 + 192 * snap.points.len());
    out.push('{');
    push_timeline_summary(&mut out, &snap);
    out.push_str(",\"alerts\":[");
    for (i, a) in snap.alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_timeline_alert(&mut out, a);
    }
    out.push_str("],\"points\":[");
    for (i, p) in snap.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_timeline_point(&mut out, p);
    }
    out.push_str("]}");
    Ok(Response::json(200, out))
}

/// `GET /v1/timeline/stream` — the same series as chunked JSONL: one
/// summary line, then one line per point, then one line per alert
/// (alert lines carry a `kind` field, point lines an `index` field).
pub(crate) fn timeline_stream(state: &AppState, path: &str) -> Result<Response, BadRequest> {
    let limit = timeline_limit(path)?;
    let snap = timeline_snapshot(state, limit);
    let mut text = String::with_capacity(256 + 192 * snap.points.len());
    text.push('{');
    push_timeline_summary(&mut text, &snap);
    member(&mut text, ",\"alerts\":", snap.alerts.len());
    member(&mut text, ",\"points\":", snap.points.len());
    text.push_str("}\n");
    for p in &snap.points {
        push_timeline_point(&mut text, p);
        text.push('\n');
    }
    for a in &snap.alerts {
        push_timeline_alert(&mut text, a);
        text.push('\n');
    }
    // One HTTP chunk per JSONL line.
    Ok(Response::chunked(200, "application/x-ndjson", text))
}

/// Reads one ingest sample: `count` required, `exposure_seconds`
/// optional (defaults to one hourly bin).
fn timeline_sample(
    [count, exposure]: &[Field<'_>; 2],
    ctx: &str,
) -> Result<(u64, f64), BadRequest> {
    let count = count
        .value
        .as_ref()
        .and_then(Value::as_u64)
        .ok_or_else(|| {
            BadRequest::new(400, format!("{ctx}: missing or non-integer field `count`"))
        })?;
    let exposure = match &exposure.value {
        None => TIMELINE_DEFAULT_EXPOSURE_S,
        Some(v) => v
            .as_f64()
            .filter(|e| *e > 0.0 && e.is_finite())
            .ok_or_else(|| {
                BadRequest::new(
                    400,
                    format!("{ctx}: field `exposure_seconds` must be finite and > 0"),
                )
            })?,
    };
    Ok((count, exposure))
}

/// `POST /v1/timeline/ingest` — feeds external count samples into the
/// monitor. Request: `{"count": <u64>, "exposure_seconds": <f64>}` for
/// one sample, or `{"samples": [{...}, ...]}` for an ordered batch.
/// Responds with the alerts this ingest raised.
pub(crate) fn timeline_ingest(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    const SAMPLE_KEYS: [&str; 2] = ["count", "exposure_seconds"];
    let mut single = SAMPLE_KEYS.map(Field::absent);
    let mut batch = None;
    scan(request.body(), |s| {
        s.members(["samples", "count", "exposure_seconds"], |s, i| {
            if i == 0 {
                batch = Some(decode::list(s, TIMELINE_MAX_SAMPLES, |s| {
                    decode::fields(s, SAMPLE_KEYS)
                })?);
            } else {
                single[i - 1].value = Some(s.scalar()?);
            }
            Ok(())
        })
    })?;
    let samples = match batch {
        Some(list) => list
            .ok_or_else(|| BadRequest::new(400, "field `samples` must be an array"))?
            .within("samples", TIMELINE_MAX_SAMPLES)?
            .iter()
            .enumerate()
            .map(|(i, s)| timeline_sample(s, &format!("samples[{i}]")))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![timeline_sample(&single, "request")?],
    };
    let mut alerts = Vec::new();
    for &(count, exposure) in &samples {
        alerts.extend(state.timeline_observe(count, exposure));
    }
    let (seen, armed) = state.with_timeline(|m| (m.seen(), m.armed()));
    let mut out = String::with_capacity(128 + 128 * alerts.len());
    member(&mut out, "{\"ingested\":", samples.len());
    member(&mut out, ",\"samples\":", seen);
    member(&mut out, ",\"armed\":", armed);
    out.push_str(",\"alerts\":[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_timeline_alert(&mut out, a);
    }
    out.push_str("]}");
    Ok(Response::json(200, out))
}

/// `GET /v1/scenarios` — lists the built-in scenario campaigns with
/// their headline parameters, plus the seed a run defaults to.
pub(crate) fn scenarios(state: &AppState) -> Response {
    let names = tn_scenario::builtin_names();
    let mut out = format!("{{\"count\":{},\"default_seed\":", names.len());
    push_json_num(&mut out, state.seed as f64);
    out.push_str(",\"scenarios\":[");
    for (i, name) in names.iter().enumerate() {
        let s = tn_scenario::builtin(name).expect("built-in scenario");
        if i > 0 {
            out.push(',');
        }
        // Members in sorted order, as the canonical form writes them.
        out.push_str(&format!(
            concat!(
                "{{\"channels\":{},\"duration_hours\":{},\"events\":{},",
                "\"faults\":{},\"moderation\":{},\"name\":"
            ),
            s.channels,
            s.duration_hours,
            s.events.len(),
            s.faults.len(),
            s.moderation,
        ));
        push_json_str(&mut out, &s.name);
        out.push('}');
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `POST /v1/scenario/run` — runs a built-in scenario campaign and
/// returns its full report. Request: `{"name": <built-in>,
/// "seed": <u64>}` (`seed` optional, defaults to the server seed).
/// Reports are byte-deterministic, so repeats are LRU cache hits.
pub(crate) fn scenario_run(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let [name, seed] = scan(request.body(), |s| decode::fields(s, ["name", "seed"]))?;
    let name = name.str()?;
    let seed = seed.u64_or(state.seed)?;
    let scenario = tn_scenario::builtin(name).ok_or_else(|| {
        BadRequest::new(
            404,
            format!(
                "unknown scenario `{name}` (built-ins: {})",
                tn_scenario::builtin_names().join(", ")
            ),
        )
    })?;
    let mut key = b"scenario/run|".to_vec();
    cache_key::push_text(&mut key, name);
    cache_key::push_bits(&mut key, &[seed]);
    Ok(cached(state, key, || {
        tn_scenario::run_scenario(&scenario, seed).to_json()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AppState {
        AppState::new(2020, 64, 2)
    }

    /// Sends a request through the router, as the server does.
    fn call(s: &AppState, method: &str, path: &str, body: &[u8]) -> Response {
        crate::router::handle(s, &Request::new(method, path, body.to_vec(), true))
    }

    fn get(s: &AppState, path: &str) -> Response {
        call(s, "GET", path, b"")
    }

    fn post(s: &AppState, path: &str, body: &[u8]) -> Response {
        call(s, "POST", path, body)
    }

    #[test]
    fn healthz_is_static_json() {
        let r = get(&state(), "/healthz");
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("\"status\":\"ok\""));
    }

    #[test]
    fn devices_lists_the_whole_catalog() {
        let r = get(&state(), "/v1/devices");
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("\"count\":8"));
        assert!(r.body_text().contains("Intel Xeon Phi"));
        assert!(r.body_text().contains("\"MNIST\""));
        assert!(json::parse(&r.body_text()).is_ok());
    }

    #[test]
    fn scenarios_lists_the_builtin_campaigns() {
        let r = get(&state(), "/v1/scenarios");
        assert_eq!(r.status, 200);
        let doc = json::parse(&r.body_text()).expect("valid JSON");
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(doc.get("default_seed").and_then(|v| v.as_u64()), Some(2020));
        let names: Vec<&str> = doc
            .get("scenarios")
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                "normal",
                "rainstorm-at-leadville",
                "water-pan",
                "loss-of-moderation",
                "detector-channel-drift"
            ]
        );
    }

    #[test]
    fn scenario_run_validates_name_and_caches_reports() {
        let s = state();
        assert_eq!(post(&s, "/v1/scenario/run", b"{oops").status, 400);
        assert_eq!(post(&s, "/v1/scenario/run", b"{}").status, 400);
        let unknown = post(&s, "/v1/scenario/run", br#"{"name":"nope"}"#);
        assert_eq!(unknown.status, 404);
        assert!(
            unknown.body_text().contains("built-ins:"),
            "{}",
            unknown.body_text()
        );
        assert_eq!(
            post(&s, "/v1/scenario/run", br#"{"name":"normal","seed":"x"}"#).status,
            400
        );

        let a = post(&s, "/v1/scenario/run", br#"{"name":"normal","seed":7}"#);
        assert_eq!(a.status, 200, "{}", a.body_text());
        let doc = json::parse(&a.body_text()).expect("valid JSON");
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("conformant").and_then(|v| v.as_bool()), Some(true));
        // Identical request: byte-identical body served from the cache.
        let b = post(&s, "/v1/scenario/run", br#"{"name":"normal","seed":7}"#);
        assert_eq!(a.body_text(), b.body_text());
        assert!(s.metrics.render().contains("tn_cache_hits_total 1"));
    }

    #[test]
    fn transport_validates_geometry_and_parameters() {
        let s = state();
        assert_eq!(post(&s, "/v1/transport", b"{oops").status, 400);
        assert_eq!(post(&s, "/v1/transport", b"{}").status, 400);
        let empty = post(&s, "/v1/transport", br#"{"layers":[]}"#);
        assert_eq!(empty.status, 400);
        assert!(
            empty.body_text().contains("at least one layer"),
            "{}",
            empty.body_text()
        );
        let zero = post(
            &s,
            "/v1/transport",
            br#"{"layers":[{"material":"water","thickness_cm":0}]}"#,
        );
        assert_eq!(zero.status, 400);
        assert!(
            zero.body_text().contains("must be positive"),
            "{}",
            zero.body_text()
        );
        // The first layer the checks reject wins, however many follow it,
        // syntax errors after it included.
        let many = format!(
            r#"{{"layers":[{{"material":"air","thickness_cm":1}},{}],"source":7}}"#,
            vec!["{}"; 300_000].join(",")
        );
        let rejected = post(&s, "/v1/transport", many.as_bytes());
        assert_eq!(rejected.status, 400);
        assert!(rejected
            .body_text()
            .contains("layer 1: missing or non-string `material`"));
        let broken = many.replace(r#""source":7"#, r#""source":7,"#);
        assert!(post(&s, "/v1/transport", broken.as_bytes())
            .body_text()
            .contains("malformed JSON"));
        let ok = post(
            &s,
            "/v1/transport",
            br#"{"layers":[{"material":"cadmium","thickness_cm":0.1}],"histories":2000}"#,
        );
        assert_eq!(ok.status, 200, "{}", ok.body_text());
        assert!(json::parse(&ok.body_text()).is_ok(), "{}", ok.body_text());
        assert!(
            ok.body_text().contains("\"transmitted_thermal\""),
            "{}",
            ok.body_text()
        );
    }

    #[test]
    fn fit_rejects_malformed_and_unknown() {
        let s = state();
        assert_eq!(post(&s, "/v1/fit", b"{oops").status, 400);
        assert_eq!(post(&s, "/v1/fit", b"{}").status, 400);
        assert_eq!(post(&s, "/v1/fit", br#"{"device":"PDP-11"}"#).status, 404);
        assert_eq!(
            post(
                &s,
                "/v1/fit",
                br#"{"device":"NVIDIA K20","weather":"hail"}"#
            )
            .status,
            400
        );
        assert_eq!(
            post(
                &s,
                "/v1/fit",
                br#"{"device":"NVIDIA K20","location":"atlantis"}"#
            )
            .status,
            400
        );
        assert_eq!(
            post(
                &s,
                "/v1/fit",
                br#"{"device":"NVIDIA K20","location":{"altitude_m":99999}}"#
            )
            .status,
            400
        );
        assert_eq!(
            post(&s, "/v1/fit", br#"{"device":"NVIDIA K20","seed":-1}"#).status,
            400
        );
    }

    #[test]
    fn checkpoint_computes_young_and_daly() {
        let s = state();
        let r = post(
            &s,
            "/v1/checkpoint",
            br#"{"due_fit_per_node": 500.0, "nodes": 100, "checkpoint_cost_s": 120}"#,
        );
        assert_eq!(r.status, 200);
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("fleet_due_fit").and_then(Json::as_f64), Some(5e4));
        let young = doc.get("young_interval_s").and_then(Json::as_f64).unwrap();
        let daly = doc.get("daly_interval_s").and_then(Json::as_f64).unwrap();
        assert!(young > 0.0 && daly > 0.0);
        // Daly's refinement undercuts Young's first-order optimum.
        assert!(daly < young);
    }

    #[test]
    fn checkpoint_validates_inputs() {
        let s = state();
        for bad in [
            &br#"{"due_fit_per_node":0,"checkpoint_cost_s":1}"#[..],
            br#"{"due_fit_per_node":1,"checkpoint_cost_s":-3}"#,
            br#"{"due_fit_per_node":1,"checkpoint_cost_s":60,"nodes":0}"#,
            br#"{"checkpoint_cost_s":60}"#,
        ] {
            assert_eq!(
                post(&s, "/v1/checkpoint", bad).status,
                400,
                "{:?}",
                std::str::from_utf8(bad)
            );
        }
    }

    #[test]
    fn canonicalisation_makes_equivalent_fit_requests_share_a_key() {
        let s = state();
        // Same request, different member order / number spelling /
        // explicit defaults: second one must be a cache hit.
        let a = post(
            &s,
            "/v1/fit",
            br#"{"device":"NVIDIA K20","seed":7,"weather":"sunny","quick":true}"#,
        );
        let b = post(
            &s,
            "/v1/fit",
            br#"{"weather":"sunny","device":"NVIDIA K20","seed":7e0}"#,
        );
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body);
        assert!(s.metrics.render().contains("tn_cache_hits_total 1"));
        assert!(s.metrics.render().contains("tn_cache_misses_total 1"));
    }

    #[test]
    fn fleet_inline_assesses_from_the_surface() {
        let s = state();
        let before = tn_core::transport::stats::histories_total();
        let r = post(&s, "/v1/fleet", br#"{"devices":[{"device":"NVIDIA K20","altitude_m":1609,"b10_areal_cm2":1e19,"avf":0.5}],"seed":3}"#);
        assert_eq!(r.status, 200, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("surface_hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("mc_fallbacks").and_then(Json::as_f64), Some(0.0));
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(
            results[0].get("source").and_then(Json::as_str),
            Some("surface")
        );
        assert_eq!(
            results[0].get("id").and_then(Json::as_str),
            Some("inline-0000")
        );
        let total = results[0]
            .get("sdc")
            .and_then(|f| f.get("total_fit"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(total > 0.0);
        // Histories were spent building the surface; a repeat of the
        // same query must not touch the transport kernel at all.
        let after_build = tn_core::transport::stats::histories_total();
        assert!(after_build > before, "surface build runs the kernel once");
        let again = post(&s, "/v1/fleet", br#"{"seed":3,"devices":[{"avf":0.5,"device":"NVIDIA K20","altitude_m":1609,"b10_areal_cm2":1e19}]}"#);
        assert_eq!(again.body_text(), r.body_text());
        assert_eq!(tn_core::transport::stats::histories_total(), after_build);
    }

    #[test]
    fn inline_ids_default_by_position_and_share_cache_keys() {
        let s = state();
        let r = post(
            &s,
            "/v1/fleet",
            br#"{"devices":[{"device":"NVIDIA K20","id":"mine"},{"device":"NVIDIA K20"}]}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        let ids: Vec<&str> = doc
            .get("results")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, ["mine", "inline-0001"]);
        // Spelling the default id out gives the same entry, so the same
        // cache key and a hit.
        let spelled = post(&s, "/v1/fleet", br#"{"devices":[{"id":"mine","device":"NVIDIA K20"},{"id":"inline-0001","device":"NVIDIA K20"}]}"#);
        assert_eq!(spelled.body_text(), r.body_text());
        assert!(s.metrics.render().contains("tn_cache_hits_total 1"));
        // A present id must be a string; it is never replaced.
        let numeric = post(
            &s,
            "/v1/fleet",
            br#"{"devices":[{"device":"NVIDIA K20","id":7}]}"#,
        );
        assert_eq!(numeric.status, 400, "{}", numeric.body_text());
        assert!(
            numeric.body_text().contains("devices[0]"),
            "{}",
            numeric.body_text()
        );
        let scalar = post(&s, "/v1/fleet", br#"{"devices":[3]}"#);
        assert_eq!(scalar.status, 400, "{}", scalar.body_text());
    }

    #[test]
    fn fleet_validates_entries() {
        let s = state();
        assert_eq!(post(&s, "/v1/fleet", b"{oops").status, 400);
        assert_eq!(post(&s, "/v1/fleet", br#"{"devices":[]}"#).status, 400);
        assert_eq!(
            post(&s, "/v1/fleet", br#"{"devices":"NVIDIA K20"}"#).status,
            400
        );
        let unknown = post(&s, "/v1/fleet", br#"{"devices":[{"device":"PDP-11"}]}"#);
        assert_eq!(unknown.status, 404);
        assert!(
            unknown.body_text().contains("devices[0]"),
            "{}",
            unknown.body_text()
        );
        let bad_avf = post(
            &s,
            "/v1/fleet",
            br#"{"devices":[{"device":"NVIDIA K20","avf":2}]}"#,
        );
        assert_eq!(bad_avf.status, 400);
        assert_eq!(
            post(&s, "/v1/fleet", br#"{"ids":["no-such-node"]}"#).status,
            404
        );
        assert_eq!(post(&s, "/v1/fleet", br#"{"ids":[]}"#).status, 400);
    }

    #[test]
    fn fleet_registry_mode_keys_cache_by_generation() {
        let s = state();
        let a = post(&s, "/v1/fleet", br#"{"quick":true}"#);
        assert_eq!(a.status, 200, "{}", a.body_text());
        let doc = json::parse(&a.body_text()).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(24.0));
        assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(0.0));
        // Identical repeat: served from cache.
        let b = post(&s, "/v1/fleet", br#"{"quick":true}"#);
        assert_eq!(a.body_text(), b.body_text());
        assert!(s.metrics.render().contains("tn_cache_hits_total 1"));
        // A mutation bumps the generation, so the same request misses.
        s.with_fleet(|fleet| {
            let mut entry = FleetEntry::new("node-0000", "NVIDIA TitanX");
            entry.avf = 0.9;
            fleet.upsert(entry).unwrap();
        });
        let c = post(&s, "/v1/fleet", br#"{"quick":true}"#);
        assert_eq!(c.status, 200);
        let doc = json::parse(&c.body_text()).unwrap();
        assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_ne!(a.body_text(), c.body_text());
    }

    #[test]
    fn dead_registry_keys_are_exactly_older_registry_generations() {
        // The layout: the tag, the generation's eight bytes, the
        // endpoint's tag, then the seed and `quick` as eight bytes each.
        let whole = |generation| registry_key(generation, "fleet|", 7, true);
        let want: Vec<u8> = [
            &b"registry|"[..],
            &3u64.to_le_bytes(),
            b"fleet|",
            &7u64.to_le_bytes(),
            &1u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(whole(3), want);
        // Bulk registry mode: the whole registry and an id subset whose
        // keyed ids hold a registry key's bytes of their own.
        assert!(is_dead_registry_key(&whole(3), 4));
        assert!(!is_dead_registry_key(&whole(4), 4));
        let mut subset = registry_key(2, "fleet|", 7, false);
        cache_key::push_text(&mut subset, "n");
        cache_key::push_text(&mut subset, std::str::from_utf8(&whole(9)).unwrap());
        assert!(is_dead_registry_key(&subset, 3));
        assert!(!is_dead_registry_key(&subset, 2));
        // The stream.
        assert!(is_dead_registry_key(
            &registry_key(0, "fleet-stream|", 7, true),
            1
        ));
        assert!(!is_dead_registry_key(
            &registry_key(1, "fleet-stream|", 7, true),
            1
        ));
        // Generations past 2^56 are read whole; a key too short to hold
        // one is not a registry key.
        let high = registry_key(1 << 60, "fleet|", 7, true);
        assert!(is_dead_registry_key(&high, (1 << 60) + 1));
        assert!(!is_dead_registry_key(&high, 1 << 60));
        assert!(!is_dead_registry_key(b"registry|\x01", u64::MAX));
        // Inline keys never match, whatever their strings hold.
        for id in ["registry|\x00\x00\x00\x00\x00\x00\x00\x00", "a"] {
            let mut inline = b"fleet|inline|".to_vec();
            cache_key::push_bits(&mut inline, &[7, 1]);
            let mut entry = FleetEntry::new(id, "NVIDIA K20");
            entry.site = "registry|".into();
            entry.fields().push_cache_key(&mut inline).unwrap();
            assert!(!is_dead_registry_key(&inline, u64::MAX), "{inline:?}");
        }
        // Other endpoints' keys never match.
        for other in [
            &b"fit|\x0aNVIDIA K20"[..],
            b"scenario/run|\x06normal\x00\x00\x00\x00\x00\x00\x00\x00",
            b"transport|\x01\x00\x00\x00\x00\x00\x00\x00",
        ] {
            assert!(!is_dead_registry_key(other, u64::MAX), "{other:?}");
        }
    }

    #[test]
    fn registry_writes_drop_older_generation_bodies() {
        let s = state();
        let inline = br#"{"devices":[{"device":"NVIDIA K20"}],"quick":true}"#;
        for body in [
            &inline[..],
            br#"{"quick":true}"#,
            br#"{"ids":["node-0003"]}"#,
        ] {
            assert_eq!(post(&s, "/v1/fleet", body).status, 200);
        }
        assert_eq!(get(&s, "/v1/fleet/stream?quick=true").status, 200);
        let whole = |generation| registry_key(generation, "fleet|", 2020, true);
        let mut subset = whole(0);
        cache_key::push_text(&mut subset, "node-0003");
        let generation_0 = [
            whole(0),
            subset,
            registry_key(0, "fleet-stream|", 2020, true),
        ];
        for key in &generation_0 {
            assert!(s.cache.contains(key), "{key:?} was cached");
        }
        assert_eq!(s.cache.len(), 4);

        let up = post(
            &s,
            "/v1/fleet/entries",
            br#"{"id":"zz","device":"NVIDIA K20"}"#,
        );
        assert_eq!(up.status, 200, "{}", up.body_text());
        for key in &generation_0 {
            assert!(!s.cache.contains(key), "{key:?} outlived its generation");
        }
        assert_eq!(s.cache.len(), 1, "only the inline body is left");

        // A body of the current generation survives until the next write.
        assert_eq!(post(&s, "/v1/fleet", br#"{"quick":true}"#).status, 200);
        assert!(s.cache.contains(&whole(1)));
        assert_eq!(call(&s, "DELETE", "/v1/fleet/entries/zz", b"").status, 200);
        assert!(!s.cache.contains(&whole(1)));
        // A failed write changes nothing, so it drops nothing.
        assert_eq!(post(&s, "/v1/fleet", br#"{"quick":true}"#).status, 200);
        assert_eq!(call(&s, "DELETE", "/v1/fleet/entries/zz", b"").status, 404);
        assert!(s.cache.contains(&whole(2)));
        assert_eq!(s.cache.len(), 2);
    }

    /// A fresh state serving `registry`: none of `s`'s cached bodies or
    /// registry renders, only its built (deterministic) risk surfaces at
    /// the seeds the oracles read, so that each oracle render does not
    /// pay for a surface build.
    fn fresh_state(s: &AppState, registry: FleetRegistry) -> AppState {
        let fresh = AppState::with_registry(s.seed, 64, 1, registry);
        for (seed, quick) in [(2020, true), (2020, false), (7, true), (7, false)] {
            if s.surface_ready(seed, quick) {
                let tables = s.surface(seed, quick);
                let render = Mutex::new(None);
                let copy = || Arc::new(Surface { tables, render });
                fresh.surfaces.get_or_compute(&memo_key(seed, quick), copy);
            }
        }
        fresh
    }

    /// Where two bodies first differ, for a readable failure.
    fn first_difference(a: &str, b: &str) -> usize {
        a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
    }

    /// An entry inside the quick surface's grid (no Monte-Carlo
    /// fallback), with every field drawn from `rng`.
    fn random_entry(rng: &mut tn_rng::Rng, id: String, device: String) -> FleetEntry {
        const SITES: [&str; 3] = ["nyc-dc1", "leadville-lab", "los-alamos-hpc"];
        const SHIELDS: [f64; 4] = [0.0, 1.0e18, 1.0e19, 1.0e20];
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        FleetEntry {
            id,
            device,
            site: SITES[rng.gen_range(0..SITES.len())].to_string(),
            altitude_m: rng.gen_range(0..3_500usize) as f64,
            rigidity_factor: round3(0.8 + 0.4 * rng.gen_f64()),
            b10_areal_cm2: SHIELDS[rng.gen_range(0..SHIELDS.len())],
            thermal_scaling: round3(0.5 + 1.5 * rng.gen_f64()),
            avf: round3(0.3 + 0.7 * rng.gen_f64()),
        }
    }

    fn upsert(s: &AppState, entry: &FleetEntry) {
        let body = entry.to_json().to_canonical_string();
        let r = post(s, "/v1/fleet/entries", body.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body_text());
    }

    fn delete(s: &AppState, id: &str) {
        let r = call(s, "DELETE", &format!("/v1/fleet/entries/{id}"), b"");
        assert_eq!(r.status, 200, "{}", r.body_text());
    }

    /// One seeded registry write through the router: a new id, a
    /// replaced entry, a byte-identical re-upsert, a delete, or a delete
    /// and re-insert of the same id.
    fn random_write(s: &AppState, rng: &mut tn_rng::Rng, serial: usize) {
        let existing = |rng: &mut tn_rng::Rng| {
            s.with_fleet(|fleet| fleet.entries()[rng.gen_range(0..fleet.len())].clone())
        };
        match rng.gen_range(0..5usize) {
            0 => {
                let device = existing(rng).device;
                upsert(s, &random_entry(rng, format!("new-{serial:05}"), device));
            }
            1 => {
                let old = existing(rng);
                upsert(s, &random_entry(rng, old.id, old.device));
            }
            2 => upsert(s, &existing(rng)),
            3 if s.fleet_len() > 1 => delete(s, &existing(rng).id),
            _ => {
                let entry = existing(rng);
                delete(s, &entry.id);
                upsert(s, &entry);
            }
        }
    }

    /// The registry bodies the oracle compares: bulk and stream on the
    /// default surface, and on a second one.
    const REGISTRY_READS: [(&str, &str, &[u8]); 4] = [
        ("POST", "/v1/fleet", b"{}"),
        ("GET", "/v1/fleet/stream", b""),
        ("POST", "/v1/fleet", br#"{"seed":7}"#),
        ("GET", "/v1/fleet/stream?seed=7", b""),
    ];

    fn registry_read(s: &AppState, read: usize) -> Response {
        let (method, path, body) = REGISTRY_READS[read];
        let r = call(s, method, path, body);
        assert_eq!(r.status, 200, "{path}: {}", r.body_text());
        r
    }

    /// The value of one `/metrics` counter series.
    fn counter(s: &AppState, series: &str) -> u64 {
        let prefix = format!("{series} ");
        s.metrics
            .render()
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.parse().ok())
            .expect("series present")
    }

    /// `tn_fleet_results_total` by path: `[reused, rendered]`.
    fn fleet_results(s: &AppState) -> [u64; 2] {
        ["reused", "rendered"]
            .map(|path| counter(s, &format!("tn_fleet_results_total{{path=\"{path}\"}}")))
    }

    /// Applies `steps` steps of 1-3 seeded writes to a 320-entry registry,
    /// reading the registry bodies after each one in a seeded order, and
    /// checks every body against a fresh state's render from scratch.
    fn registry_renders_match_fresh_renders(steps: usize) {
        let s = AppState::with_registry(2020, 64, 1, FleetRegistry::demo(2020, 320));
        let mut rng = tn_rng::Rng::seed_from_u64(18).fork(steps as u64);
        let mut serial = 0;
        for step in 0..steps {
            for _ in 0..rng.gen_range(1..4usize) {
                random_write(&s, &mut rng, serial);
                serial += 1;
            }
            // Bulk and stream in either order; the second surface every
            // third step.
            let mut reads = vec![0, 1];
            if rng.gen_bool(0.5) {
                reads.reverse();
            }
            if step % 3 == 0 {
                reads.extend(if rng.gen_bool(0.5) { [2, 3] } else { [3, 2] });
            }
            let bodies: Vec<String> = reads
                .iter()
                .map(|&read| registry_read(&s, read).body_text())
                .collect();
            let fresh = fresh_state(&s, s.with_fleet(|fleet| fleet.clone()));
            for (&read, body) in reads.iter().zip(&bodies) {
                let want = registry_read(&fresh, read).body_text();
                assert!(
                    *body == want,
                    "step {step}, read {read}: bodies differ from byte {}",
                    first_difference(body, &want)
                );
            }
        }
        // The oracle compared reused results, not only fresh renders.
        let [reused, rendered] = fleet_results(&s);
        assert!(
            reused > 10 * rendered,
            "{reused} reused, {rendered} rendered"
        );
    }

    #[test]
    fn registry_renders_match_fresh_renders_over_200_steps() {
        registry_renders_match_fresh_renders(200);
    }

    #[test]
    #[ignore = "long oracle: about 20 s in release; CI runs it with --ignored"]
    fn registry_renders_match_fresh_renders_over_10k_steps() {
        registry_renders_match_fresh_renders(10_000);
    }

    #[test]
    fn registry_renders_leave_registry_writes_in_place() {
        let s = state();
        assert_eq!(post(&s, "/v1/fleet", b"{}").status, 200);
        assert_eq!(get(&s, "/v1/fleet/stream").status, 200);
        let entries = || s.with_fleet(|fleet| Arc::as_ptr(&fleet.snapshot().entries));
        let before = entries();
        upsert(&s, &FleetEntry::new("node-0003", "NVIDIA K20"));
        upsert(&s, &FleetEntry::new("node-0004", "NVIDIA K20"));
        assert_eq!(entries(), before, "a write copied the registry");
    }

    #[test]
    fn registry_renders_count_reused_and_rendered_results() {
        let s = state();
        assert_eq!(fleet_results(&s), [0, 0]);
        // The first render on a surface renders every result.
        let bulk = post(&s, "/v1/fleet", b"{}");
        assert_eq!(fleet_results(&s), [0, 24]);
        // The stream at the same generation copies all of them.
        let stream = get(&s, "/v1/fleet/stream");
        assert_eq!(fleet_results(&s), [24, 24]);
        // Same result objects, framed as array elements or as lines.
        let text = stream.body_text();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), 24);
        let results = format!(",\"results\":[{}]}}", lines.join(","));
        assert!(bulk.body_text().ends_with(&results));
        // A one-entry write leaves one result to render.
        upsert(&s, &FleetEntry::new("node-0005", "NVIDIA K20"));
        assert_eq!(post(&s, "/v1/fleet", b"{}").status, 200);
        assert_eq!(fleet_results(&s), [24 + 23, 24 + 1]);
        // An `ids` body is rendered from scratch.
        assert_eq!(
            post(&s, "/v1/fleet", br#"{"ids":["node-0001","node-0002"]}"#).status,
            200
        );
        assert_eq!(fleet_results(&s), [47, 27]);
    }

    #[test]
    fn negative_zero_shields_are_not_served_their_zero_twin() {
        let s = state();
        let zero = br#"{"devices":[{"device":"NVIDIA K20","b10_areal_cm2":0}]}"#;
        let negative = br#"{"devices":[{"device":"NVIDIA K20","b10_areal_cm2":-0}]}"#;
        assert_eq!(post(&s, "/v1/fleet", zero).status, 200);
        let served = post(&s, "/v1/fleet", negative);
        let fresh = post(
            &fresh_state(&s, FleetRegistry::new()),
            "/v1/fleet",
            negative,
        );
        assert_eq!(fresh.status, 200, "{}", fresh.body_text());
        assert!(fresh.body_text().contains("\"b10_areal_cm2\":-0e0"));
        assert_eq!(served.body_text(), fresh.body_text());
        assert_eq!(counter(&s, "tn_cache_hits_total"), 0);
    }

    /// Shuffles `items` in place (Fisher-Yates).
    fn shuffle<T>(rng: &mut tn_rng::Rng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// One of four JSON spellings of `v`, each parsing back to its bits:
    /// Rust's `{}`, `{:?}` and `{:e}`, and `{:e}` with a padded mantissa
    /// and a signed capital exponent (`1e3` as `1.0E+3`).
    fn spell_number(rng: &mut tn_rng::Rng, v: f64) -> String {
        match rng.gen_range(0..4usize) {
            0 => format!("{v}"),
            1 => format!("{v:?}"),
            2 => format!("{v:e}"),
            _ => {
                let text = format!("{v:e}");
                let (mantissa, exponent) = text.split_once('e').expect("`{:e}` has an exponent");
                let pad = if mantissa.contains('.') { "0" } else { ".0" };
                let sign = if exponent.starts_with('-') { "" } else { "+" };
                format!("{mantissa}{pad}E{sign}{exponent}")
            }
        }
    }

    /// Some JSON whitespace, possibly none.
    fn blank(rng: &mut tn_rng::Rng) -> &'static str {
        ["", "", " ", "\n", "\t ", "  "][rng.gen_range(0..6usize)]
    }

    /// A random spelling of the inline request for `entries` (seed
    /// 2020, quick): members in any order, numbers spelled any way,
    /// whitespace anywhere, the device name in any case, and a member
    /// holding its default (a positional id included) present or not.
    fn spell_inline(rng: &mut tn_rng::Rng, entries: &[FleetEntry]) -> String {
        let json_str = |text: &str| {
            let mut out = String::new();
            push_json_str(&mut out, text);
            out
        };
        let mut objects = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let device: String = e
                .device
                .chars()
                .map(|c| {
                    if rng.gen_bool(0.5) {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            let mut members = vec![("device", json_str(&device))];
            if e.id != format!("inline-{i:04}") || rng.gen_bool(0.5) {
                members.push(("id", json_str(&e.id)));
            }
            if !e.site.is_empty() || rng.gen_bool(0.5) {
                members.push(("site", json_str(&e.site)));
            }
            let defaults = FleetEntry::new("", "");
            for (name, value, default) in [
                ("altitude_m", e.altitude_m, defaults.altitude_m),
                (
                    "rigidity_factor",
                    e.rigidity_factor,
                    defaults.rigidity_factor,
                ),
                ("b10_areal_cm2", e.b10_areal_cm2, defaults.b10_areal_cm2),
                (
                    "thermal_scaling",
                    e.thermal_scaling,
                    defaults.thermal_scaling,
                ),
                ("avf", e.avf, defaults.avf),
            ] {
                if value.to_bits() != default.to_bits() || rng.gen_bool(0.5) {
                    members.push((name, spell_number(rng, value)));
                }
            }
            shuffle(rng, &mut members);
            let members: Vec<String> = members
                .iter()
                .map(|(name, value)| {
                    let (a, b, c, d) = (blank(rng), blank(rng), blank(rng), blank(rng));
                    format!("{a}\"{name}\"{b}:{c}{value}{d}")
                })
                .collect();
            objects.push(format!("{}{{{}}}", blank(rng), members.join(",")));
        }
        let mut top = vec![("devices", format!("[{}{}]", objects.join(","), blank(rng)))];
        if rng.gen_bool(0.5) {
            top.push(("seed", spell_number(rng, 2020.0)));
        }
        if rng.gen_bool(0.5) {
            top.push(("quick", "true".to_string()));
        }
        shuffle(rng, &mut top);
        let top: Vec<String> = top
            .iter()
            .map(|(name, value)| format!("{}\"{name}\":{}{value}", blank(rng), blank(rng)))
            .collect();
        format!("{}{{{}}}{}", blank(rng), top.join(","), blank(rng))
    }

    /// Free-form ids and sites: `|`, `:` and digits, a positional id
    /// at the wrong position, a registry key's shape.
    const INLINE_TEXTS: [&str; 8] = [
        "a|1",
        "a|1:",
        "2:b",
        "x",
        "n|9:",
        "inline-0001",
        "registry|all|0",
        "7",
    ];

    /// A valid inline entry inside the quick surface's grid. Each field
    /// holds its default a third of the time (a zero shield then), so
    /// omitted members and the sign of zero both come up.
    fn random_inline_entry(
        rng: &mut tn_rng::Rng,
        devices: &[String],
        position: usize,
    ) -> FleetEntry {
        let device = devices[rng.gen_range(0..devices.len())].clone();
        let id = if rng.gen_bool(0.5) {
            format!("inline-{position:04}")
        } else {
            INLINE_TEXTS[rng.gen_range(0..INLINE_TEXTS.len())].to_string()
        };
        let mut entry = random_entry(rng, id, device);
        let defaults = FleetEntry::new("", "");
        let mut one_in_three = || rng.gen_range(0..3usize) == 0;
        if one_in_three() {
            entry.site = defaults.site.clone();
        } else if one_in_three() {
            entry.site = INLINE_TEXTS[position % INLINE_TEXTS.len()].to_string();
        }
        if one_in_three() {
            entry.altitude_m = defaults.altitude_m;
        } else if one_in_three() {
            entry.altitude_m = 0.0;
        }
        if one_in_three() {
            entry.rigidity_factor = defaults.rigidity_factor;
        }
        if one_in_three() {
            entry.b10_areal_cm2 = defaults.b10_areal_cm2;
        }
        if one_in_three() {
            entry.thermal_scaling = defaults.thermal_scaling;
        }
        if one_in_three() {
            entry.avf = defaults.avf;
        }
        entry
    }

    /// How a near miss differs from the entries it is made from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Miss {
        /// One field redrawn to a value of other bits.
        Field,
        /// One number moved by one ulp.
        Ulp,
        /// The sign of a zero altitude or shield flipped (or a shield
        /// set to `-0`).
        ZeroSign,
        /// A byte moved between an entry's `id` and its `site`.
        Shift,
    }

    /// `entries` with one near-miss change in entry `i`.
    fn near_miss(
        rng: &mut tn_rng::Rng,
        devices: &[String],
        entries: &[FleetEntry],
        miss: Miss,
    ) -> Vec<FleetEntry> {
        let mut out = entries.to_vec();
        let i = rng.gen_range(0..out.len());
        let e = &mut out[i];
        match miss {
            Miss::Field => {
                let fresh = random_inline_entry(rng, devices, i);
                match rng.gen_range(0..6usize) {
                    0 if fresh.device != e.device => e.device = fresh.device,
                    1 if fresh.site != e.site => e.site = fresh.site,
                    2 if fresh.altitude_m != e.altitude_m => e.altitude_m = fresh.altitude_m,
                    3 if fresh.thermal_scaling != e.thermal_scaling => {
                        e.thermal_scaling = fresh.thermal_scaling
                    }
                    4 if fresh.avf != e.avf => e.avf = fresh.avf,
                    _ => e.site.push('|'),
                }
            }
            Miss::Ulp => {
                // One ulp up or down; a zero altitude or shield moves up
                // to the least subnormal, and an AVF only down (from 1).
                let up = rng.gen_bool(0.5);
                let step = |v: f64, up: bool| {
                    let bits = v.to_bits();
                    f64::from_bits(if up || v == 0.0 { bits + 1 } else { bits - 1 })
                };
                match rng.gen_range(0..4usize) {
                    0 => e.altitude_m = step(e.altitude_m, up),
                    1 => e.b10_areal_cm2 = step(e.b10_areal_cm2, up),
                    2 => e.thermal_scaling = step(e.thermal_scaling, up),
                    _ => e.avf = step(e.avf, false),
                }
            }
            Miss::ZeroSign => {
                if e.altitude_m == 0.0 && rng.gen_bool(0.5) {
                    e.altitude_m = -e.altitude_m;
                } else if e.b10_areal_cm2 == 0.0 {
                    e.b10_areal_cm2 = -e.b10_areal_cm2;
                } else {
                    e.b10_areal_cm2 = -0.0;
                }
            }
            Miss::Shift => {
                if e.id.len() > 1 && rng.gen_bool(0.5) {
                    let last = e.id.pop().expect("id is not empty");
                    e.site.insert(0, last);
                } else if !e.site.is_empty() {
                    let first = e.site.remove(0);
                    e.id.push(first);
                } else {
                    e.site.push_str(":1");
                }
            }
        }
        out
    }

    /// The oracle's own identity for an inline request: each entry's
    /// strings and the bits of its numbers, as generated. Two spellings
    /// decode to the same entries exactly when these are equal.
    type ModelKey = Vec<(String, String, String, [u64; 5])>;

    fn model_key(entries: &[FleetEntry]) -> ModelKey {
        entries
            .iter()
            .map(|e| {
                let numbers = [
                    e.altitude_m,
                    e.rigidity_factor,
                    e.b10_areal_cm2,
                    e.thermal_scaling,
                    e.avf,
                ];
                (
                    e.id.clone(),
                    e.device.clone(),
                    e.site.clone(),
                    numbers.map(f64::to_bits),
                )
            })
            .collect()
    }

    /// Serves `steps` families of inline bodies on one state. A family is
    /// 1-4 random entries, spelled three to five ways, plus one to three
    /// near misses, each spelled once or twice, all in a seeded order.
    /// Every body must equal a fresh state's render, and a body must be
    /// a cache hit exactly when its entries (by the oracle's own key)
    /// were served earlier in the step. A body first served in an
    /// earlier step may have been evicted since, so only its bytes are
    /// checked; within a step at most four distinct bodies reach an
    /// 8-entry shard, so none is evicted.
    fn inline_keys_match_fresh_renders(steps: usize) {
        let s = state();
        let devices: Vec<String> = tn_core::devices::all_compute_devices()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let mut rng = tn_rng::Rng::seed_from_u64(19).fork(steps as u64);
        let mut first_seen: std::collections::HashMap<ModelKey, usize> = Default::default();
        let (mut spelled_hits, mut zero_twins, mut hits) = (0, 0, 0);
        for step in 0..steps {
            let base: Vec<FleetEntry> = (0..rng.gen_range(1..5usize))
                .map(|i| random_inline_entry(&mut rng, &devices, i))
                .collect();
            let mut family: Vec<(Option<Miss>, Vec<FleetEntry>)> = (0..rng.gen_range(3..6usize))
                .map(|_| (None, base.clone()))
                .collect();
            for _ in 0..rng.gen_range(1..4usize) {
                const MISSES: [Miss; 4] = [Miss::Field, Miss::Ulp, Miss::ZeroSign, Miss::Shift];
                let miss = MISSES[rng.gen_range(0..MISSES.len())];
                let entries = near_miss(&mut rng, &devices, &base, miss);
                for _ in 0..rng.gen_range(1..3usize) {
                    family.push((Some(miss), entries.clone()));
                }
            }
            shuffle(&mut rng, &mut family);
            let mut served_this_step: Vec<ModelKey> = Vec::new();
            for (miss, entries) in &family {
                let body = spell_inline(&mut rng, entries);
                let key = model_key(entries);
                let served = post(&s, "/v1/fleet", body.as_bytes());
                let hits_before = hits;
                hits = counter(&s, "tn_cache_hits_total");
                let hit = hits > hits_before;
                assert_eq!(
                    served.status,
                    200,
                    "step {step}: {body}: {}",
                    served.body_text()
                );
                let fresh = fresh_state(&s, FleetRegistry::new());
                let want = post(&fresh, "/v1/fleet", body.as_bytes());
                let (served, want) = (served.body_text(), want.body_text());
                assert!(
                    served == want,
                    "step {step}, {miss:?}: {body}: bodies differ from byte {}",
                    first_difference(&served, &want)
                );
                let seen_before = served_this_step.contains(&key);
                match first_seen.get(&key) {
                    Some(&first) if first < step => {}
                    _ => assert_eq!(hit, seen_before, "step {step}, {miss:?}: {body}"),
                }
                first_seen.entry(key.clone()).or_insert(step);
                if miss.is_none() && seen_before {
                    spelled_hits += 1;
                }
                if *miss == Some(Miss::ZeroSign) && served_this_step.contains(&model_key(&base)) {
                    zero_twins += 1;
                }
                served_this_step.push(key);
            }
        }
        // The oracle saw equivalent spellings hit, and sign-of-zero near
        // misses served after their twin.
        assert!(spelled_hits > 2 * steps, "{spelled_hits} spelled hits");
        assert!(zero_twins > steps / 20, "{zero_twins} zero twins");
    }

    #[test]
    fn inline_keys_match_fresh_renders_over_200_steps() {
        inline_keys_match_fresh_renders(200);
    }

    #[test]
    #[ignore = "long oracle: CI runs it in release with --ignored"]
    fn inline_keys_match_fresh_renders_over_10k_steps() {
        inline_keys_match_fresh_renders(10_000);
    }

    /// The fleet and upsert decoding the scanning decoders replaced: each
    /// body parsed into a `Json` tree, read with `Json::get` and
    /// `FleetEntry::from_json_or_id`. The oracle they must match, status
    /// and body, on every input.
    mod reference {
        use super::super::*;

        fn tree(request: &Request) -> Result<Json, BadRequest> {
            let text = std::str::from_utf8(request.body())
                .map_err(|_| BadRequest::new(400, "request body is not UTF-8"))?;
            json::parse(text).map_err(|e| BadRequest::new(400, format!("malformed JSON: {e}")))
        }

        fn u64_or(doc: &Json, key: &str, default: u64) -> Result<u64, BadRequest> {
            doc.get(key).map_or(Ok(default), |v| {
                v.as_u64().ok_or_else(|| {
                    BadRequest::new(400, format!("field `{key}` must be a non-negative integer"))
                })
            })
        }

        fn fleet(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
            let doc = tree(request)?;
            let seed = u64_or(&doc, "seed", state.seed)?;
            let quick = match doc.get("quick") {
                None => true,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| BadRequest::new(400, "field `quick` must be a boolean"))?,
            };
            let (entries, generation) = match doc.get("devices") {
                Some(devices) => {
                    let array = devices
                        .as_array()
                        .ok_or_else(|| BadRequest::new(400, "field `devices` must be an array"))?;
                    if array.is_empty() {
                        return Err(BadRequest::new(400, "field `devices` must not be empty"));
                    }
                    if array.len() > FLEET_MAX_ENTRIES {
                        return Err(BadRequest::new(
                            400,
                            format!("field `devices` must hold ≤ {FLEET_MAX_ENTRIES} entries"),
                        ));
                    }
                    let mut entries = Vec::with_capacity(array.len());
                    for (i, item) in array.iter().enumerate() {
                        let default_id = item.get("id").is_none().then(|| format!("inline-{i:04}"));
                        let entry = FleetEntry::from_json_or_id(item, default_id).map_err(|e| {
                            let bad = BadRequest::from(e);
                            BadRequest::new(bad.status, format!("devices[{i}]: {}", bad.message))
                        })?;
                        entries.push(entry);
                    }
                    (FleetEntries::Listed(entries), None)
                }
                None => state.with_fleet(|fleet| {
                    if fleet.is_empty() {
                        return Err(BadRequest::new(400, "fleet registry is empty"));
                    }
                    let generation = fleet.generation();
                    let Some(ids) = doc.get("ids") else {
                        return Ok((FleetEntries::Registry(fleet.snapshot()), Some(generation)));
                    };
                    let ids = ids
                        .as_array()
                        .ok_or_else(|| BadRequest::new(400, "field `ids` must be an array"))?;
                    // The one intended change: the cap on `ids`.
                    if ids.len() > FLEET_MAX_ENTRIES {
                        return Err(BadRequest::new(
                            400,
                            format!("field `ids` must hold ≤ {FLEET_MAX_ENTRIES} entries"),
                        ));
                    }
                    let mut entries = Vec::with_capacity(ids.len());
                    for id in ids {
                        let id = id
                            .as_str()
                            .ok_or_else(|| BadRequest::new(400, "field `ids` must hold strings"))?;
                        let entry = fleet.get(id).ok_or_else(|| {
                            BadRequest::new(404, format!("unknown fleet entry `{id}`"))
                        })?;
                        entries.push(entry.clone());
                    }
                    if entries.is_empty() {
                        return Err(BadRequest::new(400, "field `ids` must not be empty"));
                    }
                    Ok((FleetEntries::Listed(entries), Some(generation)))
                })?,
            };
            // Rendered afresh every time: the oracle keeps no cache.
            let query = FleetQuery {
                seed,
                quick,
                generation,
                framing: Framing::Bulk,
            };
            let surface = state.surface(seed, quick);
            let body = match entries {
                FleetEntries::Listed(entries) => {
                    render_fleet(state, &surface, query, &entries, None)
                }
                FleetEntries::Registry(snapshot) => {
                    render_fleet(state, &surface, query, &snapshot.entries, None)
                }
                FleetEntries::Inline(_) => unreachable!("the oracle lists inline entries"),
            };
            Ok(Response::json(200, body.0))
        }

        fn upsert(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
            let doc = tree(request)?;
            if doc.get("id").and_then(Json::as_str).is_none() {
                return Err(BadRequest::new(400, "field `id` (string) is required"));
            }
            let entry = FleetEntry::from_json(&doc).map_err(BadRequest::from)?;
            let id = entry.id.clone();
            let (generation, count) = state.with_fleet(|fleet| {
                fleet
                    .upsert(entry)
                    .map(|()| (fleet.generation(), fleet.len()))
                    .map_err(BadRequest::from)
            })?;
            fleet_write_response(state, "upsert", &id, generation, count)
        }

        /// A `POST` to `path` through the reference decoding.
        pub(crate) fn post(state: &AppState, path: &str, body: &[u8]) -> Response {
            let request = Request::new("POST", path, body.to_vec(), true);
            let served = match path {
                "/v1/fleet" => fleet(state, &request),
                _ => upsert(state, &request),
            };
            served.unwrap_or_else(|bad| bad.response())
        }
    }

    /// Replaces, inserts or deletes a few characters, or truncates: the
    /// operators of `tn_core::json`'s own mutation test.
    fn mutate(rng: &mut tn_rng::Rng, text: &str) -> String {
        const MUTANTS: [char; 27] = [
            '"', '\\', 'u', 'd', '8', 'D', 'c', '0', '{', '}', '[', ']', ',', ':', '\n', '\u{0}',
            '\u{1}', '\u{1f}', '\u{7f}', '\u{e9}', '😀', '-', 'e', '.', ' ', 'n', 't',
        ];
        let mut chars: Vec<char> = text.chars().collect();
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..chars.len() + 1);
            let c = MUTANTS[rng.gen_range(0..MUTANTS.len())];
            match rng.gen_range(0..4u32) {
                0 if at < chars.len() => chars[at] = c,
                1 => chars.insert(at, c),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.truncate(at),
            }
        }
        chars.into_iter().collect()
    }

    /// Bodies the decoders must treat exactly as the tree did: syntax
    /// errors after field errors, duplicate keys, documents that are not
    /// objects, escapes, the nesting limit, and the arrays at their caps.
    fn adversarial_fleet_bodies() -> Vec<(&'static str, Vec<u8>)> {
        let k20 = r#"{"device":"NVIDIA K20"}"#;
        let mut bodies: Vec<(&str, Vec<u8>)> = [
            "",
            " ",
            "{",
            "{}",
            "[]",
            "null",
            "7",
            "\"x\"",
            "{} {}",
            "{}x",
            r#"{"seed":-1,"devices":[}"#,
            r#"{"quick":1,"seed":"x"}"#,
            r#"{"seed":1,"seed":"x"}"#,
            r#"{"seed":"x","seed":1}"#,
            r#"{"seed":9007199254740993}"#,
            r#"{"seed":1e3,"quick":false,"quick":3}"#,
            r#"{"devices":{},"ids":["node-0001"]}"#,
            r#"{"devices":[],"devices":[{"device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20"}],"devices":[]}"#,
            r#"{"devices":[3,{"device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","avf":2},{"device":7}]}"#,
            r#"{"devices":[{"device":7,"avf":2}]}"#,
            r#"{"devices":[{"id":"","device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"id":" ","device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"id":null,"device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"id":"a","id":7,"device":"NVIDIA K20"}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","site":3,"altitude_m":"x"}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","altitude_m":-0,"b10_areal_cm2":-0}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","altitude_m":1e999}]}"#,
            r#"{"devices":[{"device":"nvidia k20","avf":1,"avf":0}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","id":"😀","site":"a\"b"}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20","x":[1,{"y":[]}],"rigidity_factor":0}]}"#,
            r#"{"devices":[{"device":"NVIDIA K20"}],"extra":[1,2,"#,
            r#"{"devices":[{"device":"NVIDIA K20"}],"extra":"\x"}"#,
            r#"{"ids":"node-0001"}"#,
            r#"{"ids":[]}"#,
            r#"{"ids":[1]}"#,
            r#"{"ids":["node-0001",2]}"#,
            r#"{"ids":["no-such","node-0001"]}"#,
            r#"{"ids":["node-0001","node-0001"],"seed":7}"#,
            r#"{"ids":["node-0001"],"ids":7}"#,
            r#"{"id":"zz","device":"NVIDIA K20","avf":0.5}"#,
            r#"{"id":7,"device":"NVIDIA K20"}"#,
            r#"{"device":"NVIDIA K20","id":"zz","id":"yy","device":"PDP-11"}"#,
            r#"{"id":"zz","device":"NVIDIA K20","thermal_scaling":-1}"#,
        ]
        .iter()
        .map(|b| ("", b.as_bytes().to_vec()))
        .collect();
        bodies.push(("", b"\xff{}".to_vec()));
        bodies.push(("", b"{\"devices\":[{\"device\":\"\xc3\"}]}".to_vec()));
        // The nesting limit, inside an entry and beside it.
        for depth in [63, 64, 65] {
            let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            bodies.push((
                "",
                format!(r#"{{"devices":[{{"device":"NVIDIA K20","x":{nested}}}]}}"#).into_bytes(),
            ));
            bodies.push((
                "",
                format!(r#"{{"x":{nested},"devices":"no"}}"#).into_bytes(),
            ));
        }
        // The caps, and arrays past them that hold syntax errors.
        for n in [FLEET_MAX_ENTRIES, FLEET_MAX_ENTRIES + 1] {
            let devices = vec![k20; n].join(",");
            bodies.push(("", format!(r#"{{"devices":[{devices}]}}"#).into_bytes()));
            let ids = vec![r#""node-0001""#; n].join(",");
            bodies.push(("", format!(r#"{{"ids":[{ids}]}}"#).into_bytes()));
        }
        let past_cap = vec!["{}"; FLEET_MAX_ENTRIES + 5].join(",");
        bodies.push(("", format!(r#"{{"devices":[{past_cap},{{]}}"#).into_bytes()));
        bodies.push(("", format!(r#"{{"devices":[{past_cap}]}}"#).into_bytes()));
        for (path, _) in bodies.iter_mut() {
            *path = "/v1/fleet";
        }
        let upserts: Vec<_> = (bodies.iter())
            .map(|(_, body)| ("/v1/fleet/entries", body.clone()))
            .collect();
        bodies.extend(upserts);
        bodies
    }

    /// Serves `body` through the scanning decoders on `s` and through the
    /// reference on `r`, two states that started equal: same status, same
    /// body. Returns the status.
    fn assert_decoders_agree(s: &AppState, r: &AppState, path: &str, body: &[u8]) -> u16 {
        let served = post(s, path, body);
        let want = reference::post(r, path, body);
        let text = String::from_utf8_lossy(&body[..body.len().min(300)]);
        assert_eq!(
            served.status,
            want.status,
            "{path} {text}: {}",
            served.body_text()
        );
        let (got, want) = (served.body_text(), want.body_text());
        assert!(
            got == want,
            "{path} {text}: bodies differ from byte {}:\n{got}\n{want}",
            first_difference(&got, &want)
        );
        served.status
    }

    /// Serves the corpus through both decoders on two states that start
    /// with the same registry: the adversarial bodies; families of
    /// spelled inline requests with their near misses (as in
    /// `inline_keys_match_fresh_renders`); registry reads; upserts; and
    /// `mutations` mutated variants of them all, in a seeded order.
    fn decoders_match_the_reference(mutations: usize) {
        let s = state();
        assert_eq!(post(&s, "/v1/fleet", b"{}").status, 200);
        let r = fresh_state(&s, s.with_fleet(|fleet| fleet.clone()));
        let mut statuses = std::collections::BTreeMap::new();
        for (path, body) in adversarial_fleet_bodies() {
            *statuses
                .entry(assert_decoders_agree(&s, &r, path, &body))
                .or_insert(0) += 1;
        }
        let devices: Vec<String> = tn_core::devices::all_compute_devices()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let mut rng = tn_rng::Rng::seed_from_u64(23).fork(mutations as u64);
        let mut corpus: Vec<(&str, String)> = Vec::new();
        while corpus.len() < 400 {
            let base: Vec<FleetEntry> = (0..rng.gen_range(1..5usize))
                .map(|i| random_inline_entry(&mut rng, &devices, i))
                .collect();
            corpus.push(("/v1/fleet", spell_inline(&mut rng, &base)));
            const MISSES: [Miss; 4] = [Miss::Field, Miss::Ulp, Miss::ZeroSign, Miss::Shift];
            let miss = MISSES[rng.gen_range(0..MISSES.len())];
            let near = near_miss(&mut rng, &devices, &base, miss);
            corpus.push(("/v1/fleet", spell_inline(&mut rng, &near)));
            let ids: Vec<String> = (0..rng.gen_range(1..4usize))
                .map(|_| format!("\"node-{:04}\"", rng.gen_range(0..30usize)))
                .collect();
            corpus.push((
                "/v1/fleet",
                format!("{{\"ids\":[{}],\"seed\":2020}}", ids.join(",")),
            ));
            corpus.push(("/v1/fleet", "{ }".to_string()));
            let mut entry = near[0].clone();
            entry.id = format!("node-{:04}", rng.gen_range(0..30usize));
            corpus.push(("/v1/fleet/entries", entry.to_json().to_canonical_string()));
        }
        for (path, body) in &corpus {
            *statuses
                .entry(assert_decoders_agree(&s, &r, path, body.as_bytes()))
                .or_insert(0) += 1;
        }
        for _ in 0..mutations {
            let (path, body) = &corpus[rng.gen_range(0..corpus.len())];
            let mutated = mutate(&mut rng, body);
            *statuses
                .entry(assert_decoders_agree(&s, &r, path, mutated.as_bytes()))
                .or_insert(0) += 1;
        }
        // The corpus reaches every outcome often.
        let count = |status| statuses.get(&status).copied().unwrap_or(0);
        assert!(
            count(200) > mutations / 10 && count(400) > mutations / 2 && count(404) > 20,
            "{statuses:?}"
        );
    }

    #[test]
    fn decoders_match_the_reference_over_2k_mutations() {
        decoders_match_the_reference(2_000);
    }

    #[test]
    #[ignore = "long oracle: CI runs it in release with --ignored"]
    fn decoders_match_the_reference_over_100k_mutations() {
        decoders_match_the_reference(100_000);
    }

    #[test]
    fn fleet_arrays_keep_at_most_ten_thousand_items() {
        let s = state();
        let ids = |n| format!("{{\"ids\":[{}]}}", vec!["\"node-0001\""; n].join(","));
        let at_cap = post(&s, "/v1/fleet", ids(FLEET_MAX_ENTRIES).as_bytes());
        assert_eq!(at_cap.status, 200, "{}", at_cap.body_text());
        assert!(at_cap.body_text().starts_with("{\"count\":10000,"));
        let past = post(&s, "/v1/fleet", ids(FLEET_MAX_ENTRIES + 1).as_bytes());
        assert_eq!(past.status, 400);
        assert_eq!(
            past.body_text(),
            "{\"error\":\"field `ids` must hold ≤ 10000 entries\"}"
        );
        // A body at the HTTP size cap of empty devices: the items past the
        // cap are counted, not kept, and the answer is the tree's.
        let n = (crate::http::MAX_BODY_BYTES - 16) / 3;
        let body = format!("{{\"devices\":[{}]}}", vec!["{}"; n].join(","));
        assert!(body.len() <= crate::http::MAX_BODY_BYTES);
        let served = post(&s, "/v1/fleet", body.as_bytes());
        let want = reference::post(&s, "/v1/fleet", body.as_bytes());
        assert_eq!(served.status, 400);
        assert_eq!(served.body_text(), want.body_text());
    }

    #[test]
    fn derived_room_hits_run_no_monte_carlo() {
        let s = state();
        let body = br#"{"device":"NVIDIA K20","surroundings":"derived_liquid_cooled","seed":11}"#;
        let first = post(&s, "/v1/fit", body);
        assert_eq!(first.status, 200, "{}", first.body_text());
        let before = tn_core::transport::stats::histories_total();
        let again = post(&s, "/v1/fit", body);
        let spent = tn_core::transport::stats::histories_total() - before;
        assert_eq!(spent, 0, "a cache hit ran {spent} histories");
        assert_eq!(again.body, first.body);
        assert_eq!(counter(&s, "tn_cache_hits_total"), 1);
    }

    #[test]
    fn fleet_stream_is_chunked_jsonl() {
        let s = state();
        let r = get(&s, "/v1/fleet/stream?seed=5&quick=true");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.content_type, "application/x-ndjson");
        let crate::http::Body::Chunked(records) = &r.body else {
            panic!("stream response must be chunked");
        };
        let chunks: Vec<&str> = records.split_inclusive('\n').collect();
        // One metadata line + one line per demo-fleet entry.
        assert_eq!(chunks.len(), 1 + 24);
        let meta = json::parse(chunks[0]).unwrap();
        assert_eq!(meta.get("count").and_then(Json::as_f64), Some(24.0));
        assert_eq!(meta.get("seed").and_then(Json::as_f64), Some(5.0));
        for line in &chunks[1..] {
            let doc = json::parse(line).unwrap();
            assert!(doc.get("id").and_then(Json::as_str).is_some());
            assert!(doc.get("sdc").is_some() && doc.get("due").is_some());
        }
        // Entries stream in registry (id) order.
        let ids: Vec<String> = chunks[1..]
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn fleet_stream_rejects_bad_queries() {
        let s = state();
        assert_eq!(get(&s, "/v1/fleet/stream?seed=x").status, 400);
        assert_eq!(get(&s, "/v1/fleet/stream?quick=maybe").status, 400);
        assert_eq!(get(&s, "/v1/fleet/stream?nope=1").status, 400);
    }

    #[test]
    fn timeline_starts_empty_and_tracks_ingest() {
        let s = state();
        let r = get(&s, "/v1/timeline");
        assert_eq!(r.status, 200, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("samples").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("armed").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("points").and_then(Json::as_array).unwrap().len(), 0);

        let r = post(
            &s,
            "/v1/timeline/ingest",
            br#"{"count":480,"exposure_seconds":3600}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("ingested").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("samples").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("alerts").and_then(Json::as_array).unwrap().len(), 0);

        let r = get(&s, "/v1/timeline?limit=8");
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("samples").and_then(Json::as_f64), Some(1.0));
        let points = doc.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("count").and_then(Json::as_f64), Some(480.0));
        // rate = 480 counts / 3600 s
        let rate = points[0].get("rate").and_then(Json::as_f64).unwrap();
        assert!((rate - 480.0 / 3600.0).abs() < 1e-12);
        // The /metrics gauges track the last observation.
        assert!(s.metrics.render().contains("tn_watch_rate"));
    }

    #[test]
    fn timeline_ingest_batch_detects_a_step() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let s = state();
        // 60 stationary samples at 500/h, then 40 at 700/h: the CUSUM
        // must flag exactly one step_up.
        let mut body = String::from("{\"samples\":[");
        for i in 0..100 {
            if i > 0 {
                body.push(',');
            }
            let count = if i < 60 { 500 } else { 700 };
            body.push_str(&format!("{{\"count\":{count}}}"));
        }
        body.push_str("]}");
        let r = post(&s, "/v1/timeline/ingest", body.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        let alerts = doc.get("alerts").and_then(Json::as_array).unwrap();
        assert_eq!(alerts.len(), 1, "{}", r.body_text());
        assert_eq!(
            alerts[0].get("kind").and_then(Json::as_str),
            Some("step_up")
        );
        let onset = alerts[0].get("onset_index").and_then(Json::as_f64).unwrap();
        assert!((59.0..=62.0).contains(&onset), "onset {onset}");
        // The alert shows up in both GET views and in /metrics.
        let bulk = get(&s, "/v1/timeline");
        let bulk_doc = json::parse(&bulk.body_text()).unwrap();
        assert_eq!(
            bulk_doc
                .get("alerts")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            1
        );
        let stream = get(&s, "/v1/timeline/stream?limit=100");
        let crate::http::Body::Chunked(records) = &stream.body else {
            panic!("stream response must be chunked");
        };
        let chunks: Vec<&str> = records.split_inclusive('\n').collect();
        assert_eq!(chunks.len(), 1 + 100 + 1);
        let meta = json::parse(chunks[0]).unwrap();
        assert_eq!(meta.get("samples").and_then(Json::as_f64), Some(100.0));
        let last = json::parse(chunks.last().unwrap()).unwrap();
        assert_eq!(last.get("kind").and_then(Json::as_str), Some("step_up"));
        assert!(s
            .metrics
            .render()
            .contains("tn_watch_alerts_total{kind=\"step_up\"} 1"));
    }

    #[test]
    fn timeline_bulk_and_stream_serve_the_same_series() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let s = state();
        for count in [400u64, 410, 395, 420, 405] {
            let body = format!("{{\"count\":{count},\"exposure_seconds\":60}}");
            assert_eq!(post(&s, "/v1/timeline/ingest", body.as_bytes()).status, 200);
        }
        let bulk = get(&s, "/v1/timeline");
        let doc = json::parse(&bulk.body_text()).unwrap();
        let points = doc.get("points").and_then(Json::as_array).unwrap();
        let stream = get(&s, "/v1/timeline/stream");
        let crate::http::Body::Chunked(records) = &stream.body else {
            panic!("stream response must be chunked");
        };
        let chunks: Vec<&str> = records.split_inclusive('\n').collect();
        assert_eq!(chunks.len(), 1 + points.len());
        for (point, line) in points.iter().zip(&chunks[1..]) {
            assert_eq!(
                point.to_canonical_string(),
                json::parse(line).unwrap().to_canonical_string()
            );
        }
    }

    #[test]
    fn timeline_validates_inputs() {
        let s = state();
        assert_eq!(get(&s, "/v1/timeline?limit=0").status, 400);
        assert_eq!(get(&s, "/v1/timeline?limit=x").status, 400);
        assert_eq!(get(&s, "/v1/timeline?nope=1").status, 400);
        assert_eq!(get(&s, "/v1/timeline/stream?nope=1").status, 400);
        assert_eq!(post(&s, "/v1/timeline/ingest", b"{oops").status, 400);
        assert_eq!(post(&s, "/v1/timeline/ingest", b"{}").status, 400);
        assert_eq!(
            post(&s, "/v1/timeline/ingest", br#"{"count":-3}"#).status,
            400
        );
        assert_eq!(
            post(
                &s,
                "/v1/timeline/ingest",
                br#"{"count":5,"exposure_seconds":0}"#
            )
            .status,
            400
        );
        assert_eq!(
            post(&s, "/v1/timeline/ingest", br#"{"samples":[]}"#).status,
            400
        );
        assert_eq!(
            post(
                &s,
                "/v1/timeline/ingest",
                br#"{"samples":[{"count":1},{"count":-1}]}"#
            )
            .status,
            400
        );
        let too_many = format!(
            "{{\"samples\":[{}]}}",
            vec!["{\"count\":1}"; TIMELINE_MAX_SAMPLES + 1].join(",")
        );
        assert_eq!(
            post(&s, "/v1/timeline/ingest", too_many.as_bytes()).status,
            400
        );
    }

    #[test]
    fn study_memo_is_shared_between_endpoints() {
        let s = state();
        let f = post(&s, "/v1/fit", br#"{"device":"NVIDIA K20","seed":9}"#);
        assert_eq!(f.status, 200);
        let x = post(
            &s,
            "/v1/cross-sections",
            br#"{"device":"Intel Xeon Phi","seed":9}"#,
        );
        assert_eq!(x.status, 200);
        // One pipeline run serves both endpoints.
        assert!(s.metrics.render().contains("tn_study_cache_misses_total 1"));
        assert!(s.metrics.render().contains("tn_study_cache_hits_total 1"));
    }

    /// Posts each body to `path` from a thread of its own, all released
    /// at once by a barrier, and returns the statuses.
    fn post_at_once(s: &AppState, path: &str, bodies: &[&[u8]]) -> Vec<u16> {
        let barrier = std::sync::Barrier::new(bodies.len());
        std::thread::scope(|scope| {
            let posts: Vec<_> = (bodies.iter())
                .map(|body| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        post(s, path, body).status
                    })
                })
                .collect();
            posts.into_iter().map(|p| p.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_fits_for_two_devices_run_one_study() {
        let s = state();
        let bodies: [&[u8]; 2] = [
            br#"{"device":"NVIDIA K20","seed":31}"#,
            br#"{"device":"Intel Xeon Phi","seed":31}"#,
        ];
        assert_eq!(post_at_once(&s, "/v1/fit", &bodies), [200, 200]);
        // Two bodies, so two response-cache misses, but the second
        // request's study is the first one's, stored or in flight.
        assert_eq!(counter(&s, "tn_cache_misses_total"), 2);
        assert_eq!(counter(&s, "tn_study_cache_misses_total"), 1);
        assert_eq!(counter(&s, "tn_study_cache_hits_total"), 1);
    }

    #[test]
    fn concurrent_fleet_bodies_build_and_save_one_surface() {
        let path =
            std::env::temp_dir().join(format!("tn-surface-once-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut s = state();
        s.set_surface_cache(&path.to_string_lossy());
        let bodies: [&[u8]; 2] = [
            br#"{"devices":[{"device":"NVIDIA K20"}],"seed":41}"#,
            br#"{"devices":[{"device":"Intel Xeon Phi"}],"seed":41}"#,
        ];
        assert_eq!(post_at_once(&s, "/v1/fleet", &bodies), [200, 200]);
        assert_eq!(counter(&s, "tn_surface_cache_saves_total"), 1);
        assert!(s.surface_ready(41, true));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_registry_write_during_a_render_leaves_no_dead_body() {
        // The render runs the purge of a write that lands while it is in
        // flight: its body can never be served, so nothing keeps it.
        let s = state();
        let key = registry_key(0, "fleet|", 2020, true);
        let body = cached_body(&s, key.clone(), || {
            s.cache.remove_if(|k| is_dead_registry_key(k, 1));
            "generation 0".into()
        });
        assert_eq!(&*body, "generation 0");
        assert!(!s.cache.contains(&key));
        assert!(s.cache.is_empty());
    }
}
