//! Endpoint implementations and the shared application state.
//!
//! Every POST endpoint follows the same shape: read the request's
//! decoded JSON body, resolve defaults, canonicalise the resolved
//! request into a cache key, then go through the result cache and the
//! single-flight layer. Because the pipeline is deterministic in
//! (config, seed), a cached body is byte-identical to a recomputed one.
//! A handler that can reject its request returns
//! `Result<Response, BadRequest>`; the router renders the error.

use crate::cache::ShardedCache;
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::singleflight::{Outcome, SingleFlight};
use std::sync::{Arc, Mutex};
use tn_core::json::{self, push_json_f64, push_json_num, push_json_str, Json};
use tn_core::{registry, Pipeline, PipelineConfig};
use tn_core::report::StudyReport;
use tn_environment::{DataCenterRoom, Environment, Location, SolarActivity, Surroundings, Weather};
use tn_fit::{CheckpointPlan, DeviceFit};
use tn_fleet::{FleetEntry, FleetError, FleetRegistry, RiskAssessment, RiskSurface, SurfaceConfig};
use tn_obs::timeline::{Alert, Monitor, MonitorConfig};
use tn_physics::units::{Fit, Seconds};

/// How many (seed, quick) studies the in-memory memo keeps. Studies are
/// the expensive artifact (a full beam-campaign pipeline each), so even
/// a few slots absorb most realistic query mixes.
const STUDY_MEMO_SLOTS: usize = 4;

/// How many risk surfaces the memo keeps. A surface is one (seed, quick)
/// grid; steady state is one resolution per seed, so two slots cover a
/// quick/full pair without thrashing.
const SURFACE_MEMO_SLOTS: usize = 2;

/// Entries the demo fleet is seeded with when no snapshot is loaded.
const DEMO_FLEET_SIZE: usize = 24;

/// Largest number of inline devices one bulk request may carry.
const FLEET_MAX_ENTRIES: usize = 10_000;

/// Largest sample batch one `/v1/timeline/ingest` request may carry.
const TIMELINE_MAX_SAMPLES: usize = 10_000;

/// Exposure assumed when an ingested sample omits `exposure_seconds`:
/// one hourly Tin-II counting bin.
const TIMELINE_DEFAULT_EXPOSURE_S: f64 = 3600.0;

/// Trailing points `/v1/timeline` returns when no `limit` is given.
const TIMELINE_DEFAULT_LIMIT: usize = 256;

/// Exact Garwood bounds from `tn-physics` in the shape the obs timeline
/// core injects; the server prefers them over the std-only normal
/// approximation the obs defaults carry.
fn garwood_interval(count: u64, confidence: f64) -> (f64, f64) {
    let interval = tn_physics::stats::PoissonInterval::exact(count, confidence);
    (interval.lower, interval.upper)
}

/// Monitor tuning for the ingest endpoint: obs defaults with the exact
/// interval estimator swapped in.
fn timeline_monitor_config() -> MonitorConfig {
    MonitorConfig {
        interval: garwood_interval,
        ..MonitorConfig::default()
    }
}

/// One memoised pipeline run: its (seed, quick) key and the report.
type StudySlot = ((u64, bool), Arc<StudyReport>);

/// One memoised risk surface: its (seed, quick) key and the tables.
type SurfaceSlot = ((u64, bool), Arc<RiskSurface>);

/// State shared by every worker thread.
#[derive(Debug)]
pub struct AppState {
    /// Default seed for requests that do not carry one (`--seed`).
    pub seed: u64,
    /// Service metrics registry.
    pub metrics: Metrics,
    /// Rendered-response LRU cache.
    pub cache: ShardedCache,
    /// Coalescing layer for identical concurrent requests.
    pub flights: SingleFlight,
    /// Memo of completed pipeline studies, keyed by (seed, quick),
    /// most recently used last.
    studies: Mutex<Vec<StudySlot>>,
    /// The device-fleet registry served by `/v1/fleet*`.
    fleet: Mutex<FleetRegistry>,
    /// Memo of built risk surfaces, keyed by (seed, quick), most
    /// recently used last.
    surfaces: Mutex<Vec<SurfaceSlot>>,
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
            cache: ShardedCache::new(cache_capacity),
            flights: SingleFlight::new(),
            studies: Mutex::new(Vec::new()),
            fleet: Mutex::new(fleet),
            surfaces: Mutex::new(Vec::new()),
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

    /// Whether the `(seed, quick)` risk surface is already memoised —
    /// i.e. a bulk fleet request for it is a pure table lookup that an
    /// event-loop shard can run inline instead of parking it on the
    /// worker pool.
    pub fn surface_ready(&self, seed: u64, quick: bool) -> bool {
        self.surfaces
            .lock()
            .expect("surface memo poisoned")
            .iter()
            .any(|(k, _)| *k == (seed, quick))
    }

    /// Returns the (memoised) risk surface for a seed/resolution pair,
    /// building it on a miss. Identical concurrent requests are already
    /// coalesced by the single-flight layer above, so a duplicate build
    /// can only happen across *different* request bodies sharing a
    /// surface — rare, and merely wasteful, never wrong (builds are
    /// deterministic in (seed, quick)).
    pub fn surface(&self, seed: u64, quick: bool) -> Arc<RiskSurface> {
        {
            let mut memo = self.surfaces.lock().expect("surface memo poisoned");
            if let Some(pos) = memo.iter().position(|(k, _)| *k == (seed, quick)) {
                let hit = memo.remove(pos);
                let surface = Arc::clone(&hit.1);
                memo.push(hit);
                return surface;
            }
        }
        let (surface, fresh) = match self.load_persisted_surface(seed, quick) {
            Some(surface) => (Arc::new(surface), false),
            None => {
                let config = if quick {
                    SurfaceConfig::quick(seed)
                } else {
                    SurfaceConfig::full(seed)
                };
                (Arc::new(RiskSurface::build(config)), true)
            }
        };
        if fresh {
            self.persist_surface(seed, quick, &surface);
        }
        let mut memo = self.surfaces.lock().expect("surface memo poisoned");
        if memo.len() >= SURFACE_MEMO_SLOTS {
            memo.remove(0);
        }
        memo.push(((seed, quick), Arc::clone(&surface)));
        surface
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
    /// running the pipeline on a miss.
    fn study(&self, seed: u64, quick: bool) -> Arc<StudyReport> {
        {
            let mut memo = self.studies.lock().expect("study memo poisoned");
            if let Some(pos) = memo.iter().position(|(k, _)| *k == (seed, quick)) {
                let hit = memo.remove(pos);
                let report = Arc::clone(&hit.1);
                memo.push(hit);
                self.metrics.study_hit();
                return report;
            }
        }
        self.metrics.study_miss();
        let config = if quick {
            PipelineConfig::quick()
        } else {
            PipelineConfig::default()
        };
        let report = Arc::new(Pipeline::new(config).seed(seed).run());
        let mut memo = self.studies.lock().expect("study memo poisoned");
        if memo.len() >= STUDY_MEMO_SLOTS {
            memo.remove(0);
        }
        memo.push(((seed, quick), Arc::clone(&report)));
        report
    }
}

/// `GET /healthz`.
pub(crate) fn healthz() -> Response {
    Response::json(200, "{\"service\":\"tn-server\",\"status\":\"ok\"}".to_string())
}

/// `GET /v1/devices` — the device registry with per-device workloads.
pub(crate) fn devices(state: &AppState) -> Response {
    let roster = registry::full_roster(state.seed);
    let mut body = String::with_capacity(1024);
    body.push_str("{\"count\":");
    body.push_str(&roster.len().to_string());
    body.push_str(",\"devices\":[");
    for (i, entry) in roster.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"name\":");
        push_json_str(&mut body, entry.device.name());
        body.push_str(",\"vendor\":");
        push_json_str(&mut body, entry.device.vendor());
        body.push_str(",\"kind\":");
        push_json_str(&mut body, &format!("{:?}", entry.device.kind()));
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

fn required_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, BadRequest> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| BadRequest::new(400, format!("missing or non-string field `{key}`")))
}

fn optional_u64(doc: &Json, key: &str, default: u64) -> Result<u64, BadRequest> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| BadRequest::new(400, format!("field `{key}` must be a non-negative integer"))),
    }
}

fn optional_bool(doc: &Json, key: &str, default: bool) -> Result<bool, BadRequest> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| BadRequest::new(400, format!("field `{key}` must be a boolean"))),
    }
}

fn positive_f64(doc: &Json, key: &str) -> Result<f64, BadRequest> {
    let v = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| BadRequest::new(400, format!("missing or non-numeric field `{key}`")))?;
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(BadRequest::new(400, format!("field `{key}` must be finite and > 0")))
    }
}

fn resolve_location(doc: &Json) -> Result<(Location, Json), BadRequest> {
    match doc.get("location") {
        None => Ok((Location::new_york(), Json::Str("new_york".into()))),
        Some(Json::Str(name)) => {
            let loc = match name.as_str() {
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
            Ok((loc, Json::Str(name.clone())))
        }
        Some(obj @ Json::Object(_)) => {
            let altitude_m = obj
                .get("altitude_m")
                .and_then(Json::as_f64)
                .ok_or_else(|| BadRequest::new(400, "location object needs numeric `altitude_m`"))?;
            let rigidity = match obj.get("rigidity_factor") {
                None => 1.0,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| BadRequest::new(400, "`rigidity_factor` must be a number"))?,
            };
            let name = match obj.get("name") {
                None => "custom site".to_string(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| BadRequest::new(400, "location `name` must be a string"))?
                    .to_string(),
            };
            if !(-430.0..=9_000.0).contains(&altitude_m) {
                return Err(BadRequest::new(
                    400,
                    "`altitude_m` out of terrestrial range (-430..=9000)",
                ));
            }
            if !(rigidity > 0.0 && rigidity.is_finite()) {
                return Err(BadRequest::new(400, "`rigidity_factor` must be finite and > 0"));
            }
            let canonical = Json::Object(vec![
                ("altitude_m".into(), Json::Num(altitude_m)),
                ("name".into(), Json::Str(name.clone())),
                ("rigidity_factor".into(), Json::Num(rigidity)),
            ]);
            Ok((Location::new(name, altitude_m, rigidity), canonical))
        }
        Some(_) => Err(BadRequest::new(400, "`location` must be a preset string or an object")),
    }
}

fn resolve_weather(doc: &Json) -> Result<Weather, BadRequest> {
    match doc.get("weather") {
        None => Ok(Weather::Sunny),
        Some(v) => match v.as_str() {
            Some("sunny") => Ok(Weather::Sunny),
            Some("rainy") => Ok(Weather::Rainy),
            Some("thunderstorm") => Ok(Weather::Thunderstorm),
            Some("snowpack") => Ok(Weather::Snowpack),
            _ => Err(BadRequest::new(
                400,
                "`weather` must be sunny, rainy, thunderstorm or snowpack",
            )),
        },
    }
}

/// Histories per Monte-Carlo room derivation (`derived_*` surroundings).
/// Matches the count the environment crate uses to validate the
/// calibrated boosts; responses are cached per `(surroundings, seed)`.
const ROOM_DERIVATION_HISTORIES: u64 = 4_000;

fn resolve_surroundings(doc: &Json, seed: u64) -> Result<(Surroundings, &'static str), BadRequest> {
    // The `derived_*` presets run the seeded tn-transport moderation
    // model (respecting the configured `transport_threads`) instead of
    // the paper's calibrated additive boosts.
    let derived = |room: DataCenterRoom, name: &'static str| {
        let boost = room.derive_thermal_factor(ROOM_DERIVATION_HISTORIES, seed) - 1.0;
        Ok((Surroundings::outdoors().with_extra_boost(boost), name))
    };
    match doc.get("surroundings").map(|v| v.as_str()) {
        None => Ok((Surroundings::hpc_machine_room(), "hpc_machine_room")),
        Some(Some("outdoors")) => Ok((Surroundings::outdoors(), "outdoors")),
        Some(Some("concrete_floor")) => Ok((Surroundings::concrete_floor(), "concrete_floor")),
        Some(Some("water_cooled")) => Ok((Surroundings::water_cooled(), "water_cooled")),
        Some(Some("hpc_machine_room")) => {
            Ok((Surroundings::hpc_machine_room(), "hpc_machine_room"))
        }
        Some(Some("derived_air_cooled")) => {
            derived(DataCenterRoom::air_cooled(), "derived_air_cooled")
        }
        Some(Some("derived_liquid_cooled")) => {
            derived(DataCenterRoom::liquid_cooled(), "derived_liquid_cooled")
        }
        _ => Err(BadRequest::new(
            400,
            "`surroundings` must be outdoors, concrete_floor, water_cooled, \
             hpc_machine_room, derived_air_cooled or derived_liquid_cooled",
        )),
    }
}

fn resolve_solar(doc: &Json) -> Result<(SolarActivity, &'static str), BadRequest> {
    match doc.get("solar_activity").map(|v| v.as_str()) {
        None => Ok((SolarActivity::Minimum, "minimum")),
        Some(Some("minimum")) => Ok((SolarActivity::Minimum, "minimum")),
        Some(Some("average")) => Ok((SolarActivity::Average, "average")),
        Some(Some("maximum")) => Ok((SolarActivity::Maximum, "maximum")),
        _ => Err(BadRequest::new(
            400,
            "`solar_activity` must be minimum, average or maximum",
        )),
    }
}

/// Runs a cacheable POST handler: canonical key → cache → single-flight.
fn cached(state: &AppState, key: &str, compute: impl FnOnce() -> String) -> Response {
    Response::json(200, cached_body(state, key, compute))
}

/// The body cached under `key`, rendered by `compute` on a miss. The
/// rendered `String` becomes an `Arc<str>` once, and that one allocation
/// is what the cache, coalesced callers and the socket writer share.
fn cached_body(state: &AppState, key: &str, compute: impl FnOnce() -> String) -> Arc<str> {
    if let Some(body) = state.cache.get(key) {
        state.metrics.cache_hit();
        return body;
    }
    match state.flights.run(key, || compute().into()) {
        Outcome::Led(body) => {
            state.metrics.cache_miss();
            state.cache.insert(key.to_string(), Arc::clone(&body));
            body
        }
        Outcome::Coalesced(body) => {
            state.metrics.cache_coalesced();
            body
        }
    }
}

fn push_fit_fields(out: &mut String, fit: &DeviceFit) {
    out.push_str("{\"high_energy_fit\":");
    push_json_f64(out, fit.high_energy.value());
    out.push_str(",\"thermal_fit\":");
    push_json_f64(out, fit.thermal.value());
    out.push_str(",\"total_fit\":");
    push_json_f64(out, fit.total().value());
    out.push_str(",\"thermal_share\":");
    push_json_f64(out, fit.thermal_share());
    out.push_str(",\"underestimation_factor\":");
    push_json_f64(out, fit.underestimation_factor());
    out.push('}');
}

/// `POST /v1/fit` — fold a device's beam-measured cross sections with a
/// terrestrial environment.
///
/// Request: `{"device": <name>, "location": <preset|object>,
/// "weather": <preset>, "surroundings": <preset>,
/// "solar_activity": <preset>, "seed": <u64>, "quick": <bool>}`
/// (everything but `device` optional).
pub(crate) fn fit(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let device_name = required_str(doc, "device")?;
    let device = registry::find_device(device_name)
        .ok_or_else(|| BadRequest::new(404, format!("unknown device `{device_name}`")))?;
    let (location, canonical_location) = resolve_location(doc)?;
    let weather = resolve_weather(doc)?;
    let seed = optional_u64(doc, "seed", state.seed)?;
    let (surroundings, surroundings_name) = resolve_surroundings(doc, seed)?;
    let (solar, solar_name) = resolve_solar(doc)?;
    let quick = optional_bool(doc, "quick", true)?;

    let resolved = Json::Object(vec![
        ("device".into(), Json::Str(device.name().to_string())),
        ("location".into(), canonical_location),
        ("weather".into(), Json::Str(weather.to_string())),
        ("surroundings".into(), Json::Str(surroundings_name.into())),
        ("solar_activity".into(), Json::Str(solar_name.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("quick".into(), Json::Bool(quick)),
    ]);
    let key = format!("fit|{}", resolved.to_canonical_string());

    let env = Environment::new(location, weather, surroundings).with_solar_activity(solar);
    Ok(cached(state, &key, || {
        let study = state.study(seed, quick);
        let report = study
            .device(device.name())
            .expect("catalog device present in every study");
        let sdc = report.sdc_fit(&env);
        let due = report.due_fit(&env);
        let mut out = String::with_capacity(512);
        out.push_str("{\"device\":");
        push_json_str(&mut out, device.name());
        out.push_str(",\"seed\":");
        out.push_str(&seed.to_string());
        out.push_str(",\"quick\":");
        out.push_str(if quick { "true" } else { "false" });
        out.push_str(",\"environment\":{\"location\":");
        push_json_str(&mut out, env.location().name());
        out.push_str(",\"altitude_m\":");
        push_json_num(&mut out, env.location().altitude_m());
        out.push_str(",\"weather\":");
        push_json_str(&mut out, &env.weather().to_string());
        out.push_str(",\"surroundings\":");
        push_json_str(&mut out, surroundings_name);
        out.push_str(",\"solar_activity\":");
        push_json_str(&mut out, solar_name);
        out.push_str(",\"high_energy_flux_cm2_s\":");
        push_json_f64(&mut out, env.high_energy_flux().value());
        out.push_str(",\"thermal_flux_cm2_s\":");
        push_json_f64(&mut out, env.thermal_flux().value());
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
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let per_node = positive_f64(doc, "due_fit_per_node")?;
    let cost_s = positive_f64(doc, "checkpoint_cost_s")?;
    let nodes = optional_u64(doc, "nodes", 1)?;
    if nodes == 0 {
        return Err(BadRequest::new(400, "field `nodes` must be >= 1"));
    }

    let resolved = Json::Object(vec![
        ("due_fit_per_node".into(), Json::Num(per_node)),
        ("nodes".into(), Json::Num(nodes as f64)),
        ("checkpoint_cost_s".into(), Json::Num(cost_s)),
    ]);
    let key = format!("checkpoint|{}", resolved.to_canonical_string());

    Ok(cached(state, &key, || {
        let fleet_fit = per_node * nodes as f64;
        let plan = CheckpointPlan::new(Fit(fleet_fit), Seconds(cost_s));
        let young = plan.young_interval();
        let daly = plan.daly_interval();
        let mut out = String::with_capacity(256);
        out.push_str("{\"nodes\":");
        out.push_str(&nodes.to_string());
        out.push_str(",\"fleet_due_fit\":");
        push_json_f64(&mut out, fleet_fit);
        out.push_str(",\"mtbf_s\":");
        push_json_f64(&mut out, plan.mtbf().value());
        out.push_str(",\"young_interval_s\":");
        push_json_f64(&mut out, young.value());
        out.push_str(",\"daly_interval_s\":");
        push_json_f64(&mut out, daly.value());
        out.push_str(",\"overhead_at_young\":");
        push_json_f64(&mut out, plan.overhead_at(young));
        out.push_str(",\"overhead_at_daly\":");
        push_json_f64(&mut out, plan.overhead_at(daly));
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
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let device_name = required_str(doc, "device")?;
    let device = registry::find_device(device_name)
        .ok_or_else(|| BadRequest::new(404, format!("unknown device `{device_name}`")))?;
    let seed = optional_u64(doc, "seed", state.seed)?;

    let resolved = Json::Object(vec![
        ("device".into(), Json::Str(device.name().to_string())),
        ("seed".into(), Json::Num(seed as f64)),
    ]);
    let key = format!("cross-sections|{}", resolved.to_canonical_string());

    Ok(cached(state, &key, || {
        let study = state.study(seed, true);
        let report = study
            .device(device.name())
            .expect("catalog device present in every study");
        let mut out = String::with_capacity(2048);
        out.push_str("{\"seed\":");
        out.push_str(&seed.to_string());
        out.push_str(",\"sdc_ratio\":");
        push_json_f64(&mut out, report.sdc_ratio());
        out.push_str(",\"due_ratio\":");
        push_json_f64(&mut out, report.due_ratio());
        out.push_str(",\"report\":");
        out.push_str(&report.to_json());
        out.push('}');
        out
    }))
}

/// Largest history count a single request may ask for; keeps one
/// request from monopolising the workers.
const TRANSPORT_MAX_HISTORIES: u64 = 200_000;

/// Resolves a material preset name to its constructor.
fn resolve_material(name: &str) -> Result<tn_physics::Material, BadRequest> {
    use tn_physics::Material;
    match name {
        "water" => Ok(Material::water()),
        "concrete" => Ok(Material::concrete()),
        "cadmium" => Ok(Material::cadmium()),
        "borated_polyethylene" | "borated_pe" => Ok(Material::borated_polyethylene()),
        "liquid_methane" => Ok(Material::liquid_methane()),
        "air" => Ok(Material::air()),
        other => Err(BadRequest::new(
            400,
            format!(
                "unknown material `{other}` (expected water, concrete, cadmium, \
                 borated_polyethylene, liquid_methane or air)"
            ),
        )),
    }
}

/// `POST /v1/transport` — slab-stack Monte-Carlo transport on demand.
pub(crate) fn transport(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    use tn_core::transport::{
        Layer, SlabStack, Transport, VarianceReduction,
    };
    use tn_physics::units::{Energy, Length};

    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let layers_doc = doc
        .get("layers")
        .and_then(Json::as_array)
        .ok_or_else(|| BadRequest::new(400, "missing or non-array field `layers`"))?;
    let mut layers = Vec::with_capacity(layers_doc.len());
    let mut canonical_layers = Vec::with_capacity(layers_doc.len());
    for (i, entry) in layers_doc.iter().enumerate() {
        let material_name = entry
            .get("material")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                BadRequest::new(400, format!("layer {i}: missing or non-string `material`"))
            })?;
        let material = resolve_material(material_name)?;
        let thickness_cm = entry
            .get("thickness_cm")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                BadRequest::new(400, format!("layer {i}: missing or non-numeric `thickness_cm`"))
            })?;
        // Construction-time geometry validation: a zero or negative
        // thickness surfaces as a 400 here instead of panicking a
        // worker thread inside the transport kernel.
        let layer = Layer::try_new(material, Length(thickness_cm))
            .map_err(|e| BadRequest::new(400, format!("layer {i}: {e}")))?;
        layers.push(layer);
        canonical_layers.push(Json::Object(vec![
            ("material".into(), Json::Str(material_name.into())),
            ("thickness_cm".into(), Json::Num(thickness_cm)),
        ]));
    }
    let stack = SlabStack::try_new(layers).map_err(|e| BadRequest::new(400, e.to_string()))?;

    let energy_ev = match doc.get("energy_ev") {
        None => 0.0253,
        Some(v) => v
            .as_f64()
            .filter(|e| *e > 0.0 && e.is_finite())
            .ok_or_else(|| {
                BadRequest::new(400, "field `energy_ev` must be finite and > 0")
            })?,
    };
    let histories = optional_u64(doc, "histories", 10_000)?;
    if histories > TRANSPORT_MAX_HISTORIES {
        return Err(BadRequest::new(
            400,
            format!("field `histories` must be ≤ {TRANSPORT_MAX_HISTORIES}"),
        ));
    }
    let seed = optional_u64(doc, "seed", state.seed)?;
    let source = match doc.get("source") {
        None => "beam",
        Some(Json::Str(s)) if s == "beam" || s == "diffuse" => s.as_str(),
        Some(_) => {
            return Err(BadRequest::new(
                400,
                "field `source` must be \"beam\" or \"diffuse\"",
            ))
        }
    };
    let vr = optional_bool(doc, "variance_reduction", false)?;

    let resolved = Json::Object(vec![
        ("layers".into(), Json::Array(canonical_layers)),
        ("energy_ev".into(), Json::Num(energy_ev)),
        ("histories".into(), Json::Num(histories as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("source".into(), Json::Str(source.into())),
        ("variance_reduction".into(), Json::Bool(vr)),
    ]);
    let key = format!("transport|{}", resolved.to_canonical_string());

    Ok(cached(state, &key, || {
        let engine = Transport::new(stack);
        let e = Energy(energy_ev);
        let mut out = String::with_capacity(512);
        out.push_str("{\"seed\":");
        out.push_str(&seed.to_string());
        out.push_str(",\"histories\":");
        out.push_str(&histories.to_string());
        out.push_str(",\"source\":");
        push_json_str(&mut out, source);
        out.push_str(",\"variance_reduction\":");
        out.push_str(if vr { "true" } else { "false" });
        if vr {
            let tally = if source == "beam" {
                engine.run_beam_weighted(e, histories, seed, VarianceReduction::default())
            } else {
                engine.run_diffuse_weighted(e, histories, seed, VarianceReduction::default())
            };
            out.push_str(",\"transmitted_thermal_fraction\":");
            push_json_f64(&mut out, tally.transmitted_thermal_fraction());
            out.push_str(",\"transmitted_fraction\":");
            push_json_f64(&mut out, tally.transmitted_fraction());
            out.push_str(",\"reflected_thermal_fraction\":");
            push_json_f64(&mut out, tally.reflected_thermal_fraction());
            out.push_str(",\"absorbed_fraction\":");
            push_json_f64(&mut out, tally.absorbed_fraction());
            out.push_str(",\"transmitted_thermal_rel_error\":");
            push_json_f64(&mut out, tally.transmitted_thermal_rel_error());
        } else {
            let tally = if source == "beam" {
                engine.run_beam(e, histories, seed)
            } else {
                engine.run_diffuse(e, histories, seed)
            };
            out.push_str(",\"transmitted_thermal\":");
            out.push_str(&tally.transmitted_thermal.to_string());
            out.push_str(",\"transmitted_fast\":");
            out.push_str(&tally.transmitted_fast.to_string());
            out.push_str(",\"reflected_thermal\":");
            out.push_str(&tally.reflected_thermal.to_string());
            out.push_str(",\"reflected_fast\":");
            out.push_str(&tally.reflected_fast.to_string());
            out.push_str(",\"absorbed\":");
            out.push_str(&tally.absorbed.to_string());
            out.push_str(",\"lost\":");
            out.push_str(&tally.lost.to_string());
            out.push_str(",\"transmitted_thermal_fraction\":");
            push_json_f64(&mut out, tally.transmitted_thermal_fraction());
            out.push_str(",\"absorbed_fraction\":");
            push_json_f64(&mut out, tally.absorbed_fraction());
            out.push_str(",\"thermal_escape_fraction\":");
            push_json_f64(&mut out, tally.thermal_escape_fraction());
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
    out.push_str("{\"id\":");
    push_json_str(out, &entry.id);
    out.push_str(",\"device\":");
    push_json_str(out, &entry.device);
    out.push_str(",\"site\":");
    push_json_str(out, &entry.site);
    out.push_str(",\"altitude_m\":");
    push_json_num(out, entry.altitude_m);
    out.push_str(",\"b10_areal_cm2\":");
    push_json_f64(out, entry.b10_areal_cm2);
    out.push_str(",\"thermal_scaling\":");
    push_json_f64(out, entry.thermal_scaling);
    out.push_str(",\"avf\":");
    push_json_f64(out, entry.avf);
    out.push_str(",\"source\":");
    push_json_str(out, assessment.source.label());
    out.push_str(",\"sdc\":");
    push_fit_fields(out, &assessment.sdc);
    out.push_str(",\"due\":");
    push_fit_fields(out, &assessment.due);
    out.push('}');
}

/// Assesses every entry against the surface, in entry order.
fn assess_fleet(surface: &RiskSurface, entries: &[FleetEntry]) -> Vec<RiskAssessment> {
    entries
        .iter()
        .map(|entry| {
            let device = registry::find_device(&entry.device)
                .expect("fleet entries hold validated catalog device names");
            surface.assess(&device, &tn_fleet::SiteParams::from_entry(entry))
        })
        .collect()
}

/// Opens a fleet body: `{` and the fields shared by the bulk response and
/// the stream's meta line (count, per-path counts, surface digest,
/// totals, seed, quick and, in registry mode, the generation).
fn push_fleet_summary(
    out: &mut String,
    surface: &RiskSurface,
    assessments: &[RiskAssessment],
    seed: u64,
    quick: bool,
    generation: Option<u64>,
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
    out.push_str("{\"count\":");
    out.push_str(&assessments.len().to_string());
    out.push_str(",\"surface_hits\":");
    out.push_str(&surface_hits.to_string());
    out.push_str(",\"mc_fallbacks\":");
    out.push_str(&mc_fallbacks.to_string());
    out.push_str(",\"surface_digest\":");
    push_json_str(out, &format!("{:016x}", surface.grid_digest()));
    out.push_str(",\"totals\":{\"sdc_fit\":");
    push_json_f64(out, sdc_total);
    out.push_str(",\"due_fit\":");
    push_json_f64(out, due_total);
    out.push_str("},\"seed\":");
    out.push_str(&seed.to_string());
    out.push_str(",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    if let Some(generation) = generation {
        out.push_str(",\"generation\":");
        out.push_str(&generation.to_string());
    }
}

/// Whether `key` caches a registry-mode fleet body (bulk or stream) of a
/// generation older than `generation`. Such a body can never be served
/// again once the registry has reached `generation`, because every
/// registry-mode key ends in the generation it was rendered from and
/// generations only grow; each successful registry write therefore drops
/// these bodies at once instead of leaving them to LRU eviction. Inline
/// keys never match: their third field is `inline`, and nothing after it
/// is read.
fn is_dead_registry_key(key: &str, generation: u64) -> bool {
    let rendered_at = if let Some(rest) = key.strip_prefix("fleet|") {
        // fleet|{seed}|{quick}|registry|{all or canonical ids}|{generation}
        let mut fields = rest.splitn(3, '|');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(_seed), Some(_quick), Some(mode)) if mode.starts_with("registry|") => {
                mode.rsplit('|').next()
            }
            _ => None,
        }
    } else if let Some(rest) = key.strip_prefix("fleet-stream|") {
        // fleet-stream|{seed}|{quick}|{generation}
        rest.splitn(3, '|').nth(2)
    } else {
        None
    };
    rendered_at
        .and_then(|g| g.parse::<u64>().ok())
        .is_some_and(|g| g < generation)
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
/// inspected (see [`fleet_surface_key`]) is not parsed again.
pub(crate) fn fleet(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let _span = tn_obs::span("fleet.bulk");
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let seed = optional_u64(doc, "seed", state.seed)?;
    let quick = optional_bool(doc, "quick", true)?;

    // Inline mode carries the entries in the request; registry mode
    // snapshots (a subset of) the server fleet, with the registry
    // generation folded into the cache key so cached responses can
    // never outlive the registry state they were computed from. The
    // whole-registry snapshot is O(1): it shares the registry's entries.
    let (entries, mode_key, generation) = match doc.get("devices") {
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
                // Inline entries get a positional id when none is given.
                let default_id = format!("inline-{i:04}");
                let entry = FleetEntry::from_json_or_id(item, Some(default_id)).map_err(|e| {
                    let bad = BadRequest::from(e);
                    BadRequest::new(bad.status, format!("devices[{i}]: {}", bad.message))
                })?;
                entries.push(entry);
            }
            let canonical =
                Json::Array(entries.iter().map(FleetEntry::to_json).collect()).to_canonical_string();
            (Arc::new(entries), format!("inline|{canonical}"), None)
        }
        None => state.with_fleet(|fleet| {
            if fleet.is_empty() {
                return Err(BadRequest::new(400, "fleet registry is empty"));
            }
            let generation = fleet.generation();
            match doc.get("ids") {
                None => Ok((
                    fleet.snapshot(),
                    format!("registry|all|{generation}"),
                    Some(generation),
                )),
                Some(ids) => {
                    let ids = ids
                        .as_array()
                        .ok_or_else(|| BadRequest::new(400, "field `ids` must be an array"))?;
                    let mut entries = Vec::with_capacity(ids.len());
                    let mut key_ids = Vec::with_capacity(ids.len());
                    for id in ids {
                        let id = id.as_str().ok_or_else(|| {
                            BadRequest::new(400, "field `ids` must hold strings")
                        })?;
                        let entry = fleet.get(id).ok_or_else(|| {
                            BadRequest::new(404, format!("unknown fleet entry `{id}`"))
                        })?;
                        entries.push(entry.clone());
                        key_ids.push(Json::Str(id.to_string()));
                    }
                    if entries.is_empty() {
                        return Err(BadRequest::new(400, "field `ids` must not be empty"));
                    }
                    let canonical = Json::Array(key_ids).to_canonical_string();
                    Ok((
                        Arc::new(entries),
                        format!("registry|{canonical}|{generation}"),
                        Some(generation),
                    ))
                }
            }
        })?,
    };

    let key = format!("fleet|{seed}|{quick}|{mode_key}");
    Ok(cached(state, &key, || {
        let surface = state.surface(seed, quick);
        let assessments = assess_fleet(&surface, &entries);
        let mut out = String::with_capacity(1024 + 512 * entries.len());
        push_fleet_summary(&mut out, &surface, &assessments, seed, quick, generation);
        out.push_str(",\"results\":[");
        for (i, (entry, assessment)) in entries.iter().zip(&assessments).enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_fleet_result(&mut out, entry, assessment);
        }
        out.push_str("]}");
        out
    }))
}

/// `GET /v1/fleet/stream` — the whole fleet registry as chunked JSONL:
/// one metadata line, then one result line per entry, streamed with
/// `Transfer-Encoding: chunked` so a poller can process entries as they
/// arrive. Query parameters: `seed=<u64>`, `quick=<bool>`.
pub(crate) fn fleet_stream(state: &AppState, path: &str) -> Result<Response, BadRequest> {
    let _span = tn_obs::span("fleet.stream");
    let (seed, quick) = stream_params(state.seed, path)?;
    let (entries, generation) = state.with_fleet(|fleet| (fleet.snapshot(), fleet.generation()));
    if entries.is_empty() {
        return Err(BadRequest::new(400, "fleet registry is empty"));
    }

    let key = format!("fleet-stream|{seed}|{quick}|{generation}");
    let text = cached_body(state, &key, || {
        let surface = state.surface(seed, quick);
        let assessments = assess_fleet(&surface, &entries);
        let mut out = String::with_capacity(256 + 512 * entries.len());
        push_fleet_summary(
            &mut out,
            &surface,
            &assessments,
            seed,
            quick,
            Some(generation),
        );
        out.push_str("}\n");
        for (entry, assessment) in entries.iter().zip(&assessments) {
            push_fleet_result(&mut out, entry, assessment);
            out.push('\n');
        }
        out
    });
    // One HTTP chunk per JSONL line.
    let chunks = text.split_inclusive('\n').map(String::from).collect();
    Ok(Response::chunked(200, "application/x-ndjson", chunks))
}

/// Parses the `seed`/`quick` query parameters shared by the stream
/// endpoint and the event loop's offload decision.
fn stream_params(default_seed: u64, path: &str) -> Result<(u64, bool), BadRequest> {
    let (mut seed, mut quick) = (default_seed, true);
    if let Some((_, query)) = path.split_once('?') {
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
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
                other => {
                    return Err(BadRequest::new(
                        400,
                        format!("unknown query parameter `{other}`"),
                    ))
                }
            }
        }
    }
    Ok((seed, quick))
}

/// Which `(seed, quick)` risk surface a bulk fleet request would use,
/// or `None` when the request is malformed (those fail fast without a
/// surface build, so they never need the worker pool). Used by the
/// event loop to decide inline-vs-offload before dispatching.
pub fn fleet_surface_key(state: &AppState, request: &Request) -> Option<(u64, bool)> {
    let path = request.path.split(['?', '#']).next().unwrap_or("");
    if path == "/v1/fleet/stream" {
        return stream_params(state.seed, &request.path).ok();
    }
    let doc = request.json().ok()?;
    let seed = optional_u64(doc, "seed", state.seed).ok()?;
    let quick = optional_bool(doc, "quick", true).ok()?;
    Some((seed, quick))
}

/// `POST /v1/fleet/entries` — inserts or replaces one registry entry.
/// The body is a single fleet-entry object (same schema as inline
/// `devices` items, but `id` is required). Bumps the registry
/// generation, which invalidates every cached registry-mode response.
pub(crate) fn fleet_entry_upsert(
    state: &AppState,
    request: &Request,
) -> Result<Response, BadRequest> {
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    if doc.get("id").and_then(Json::as_str).is_none() {
        return Err(BadRequest::new(400, "field `id` (string) is required"));
    }
    let entry = FleetEntry::from_json(doc).map_err(BadRequest::from)?;
    let id = entry.id.clone();
    let (generation, count) = state.with_fleet(|fleet| {
        fleet
            .upsert(entry)
            .map(|()| (fleet.generation(), fleet.len()))
            .map_err(BadRequest::from)
    })?;
    state
        .cache
        .remove_if(|key| is_dead_registry_key(key, generation));
    tn_obs::info(
        "fleet_entry_upsert",
        &[("id", id.as_str().into()), ("generation", generation.into())],
    );
    Ok(Response::json(
        200,
        format!(
            "{{\"op\":\"upsert\",\"id\":{},\"generation\":{generation},\"count\":{count}}}",
            Json::Str(id).to_canonical_string()
        ),
    ))
}

/// `DELETE /v1/fleet/entries/{id}` — removes one registry entry; 404
/// when the id is unknown. Bumps the registry generation on success.
pub(crate) fn fleet_entry_delete(state: &AppState, id: &str) -> Result<Response, BadRequest> {
    let (generation, count) = state
        .with_fleet(|fleet| fleet.remove(id).then(|| (fleet.generation(), fleet.len())))
        .ok_or_else(|| BadRequest::new(404, format!("unknown fleet entry `{id}`")))?;
    state
        .cache
        .remove_if(|key| is_dead_registry_key(key, generation));
    tn_obs::info(
        "fleet_entry_delete",
        &[("id", id.into()), ("generation", generation.into())],
    );
    Ok(Response::json(
        200,
        format!(
            "{{\"op\":\"delete\",\"id\":{},\"generation\":{generation},\"count\":{count}}}",
            Json::Str(id.to_string()).to_canonical_string()
        ),
    ))
}

/// Renders one timeline point as a JSON object (array element in the
/// bulk response, one JSONL line in the stream).
fn push_timeline_point(out: &mut String, p: &tn_obs::timeline::RatePoint) {
    out.push_str("{\"index\":");
    out.push_str(&p.index.to_string());
    out.push_str(",\"ts_nanos\":");
    out.push_str(&p.ts_nanos.to_string());
    out.push_str(",\"count\":");
    out.push_str(&p.count.to_string());
    out.push_str(",\"exposure_seconds\":");
    push_json_f64(out, p.exposure_seconds);
    out.push_str(",\"rate\":");
    push_json_f64(out, p.rate);
    out.push_str(",\"window_rate\":");
    push_json_f64(out, p.window_rate);
    out.push_str(",\"window_lower\":");
    push_json_f64(out, p.window_lower);
    out.push_str(",\"window_upper\":");
    push_json_f64(out, p.window_upper);
    out.push_str(",\"baseline\":");
    push_json_f64(out, p.baseline);
    out.push('}');
}

/// Renders one alert as a JSON object. The `kind` field distinguishes
/// alert lines from point lines in the JSONL stream.
fn push_timeline_alert(out: &mut String, a: &Alert) {
    out.push_str("{\"kind\":");
    push_json_str(out, a.kind.label());
    out.push_str(",\"onset_index\":");
    out.push_str(&a.onset_index.to_string());
    out.push_str(",\"detected_index\":");
    out.push_str(&a.detected_index.to_string());
    out.push_str(",\"ts_nanos\":");
    out.push_str(&a.ts_nanos.to_string());
    out.push_str(",\"baseline_rate\":");
    push_json_f64(out, a.baseline_rate);
    out.push_str(",\"observed_rate\":");
    push_json_f64(out, a.observed_rate);
    out.push_str(",\"magnitude\":");
    push_json_f64(out, a.magnitude);
    out.push('}');
}

/// Parses the `limit` query parameter shared by the two timeline GET
/// endpoints; unknown parameters are rejected like everywhere else.
fn timeline_limit(path: &str) -> Result<usize, BadRequest> {
    let mut limit = TIMELINE_DEFAULT_LIMIT;
    if let Some((_, query)) = path.split_once('?') {
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            match name {
                "limit" => {
                    limit = value.parse().ok().filter(|l| *l > 0).ok_or_else(|| {
                        BadRequest::new(
                            400,
                            "query parameter `limit` must be a positive integer",
                        )
                    })?;
                }
                other => {
                    return Err(BadRequest::new(
                        400,
                        format!("unknown query parameter `{other}`"),
                    ))
                }
            }
        }
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
    out.push_str(",\"armed\":");
    out.push_str(if snap.armed { "true" } else { "false" });
    out.push_str(",\"reference_rate\":");
    push_json_f64(out, snap.reference_rate);
    out.push_str(",\"window_rate\":");
    push_json_f64(out, snap.window_rate);
    out.push_str(",\"ewma_baseline\":");
    push_json_f64(out, snap.ewma_baseline);
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
    text.push_str(",\"alerts\":");
    text.push_str(&snap.alerts.len().to_string());
    text.push_str(",\"points\":");
    text.push_str(&snap.points.len().to_string());
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
    let chunks = text.split_inclusive('\n').map(String::from).collect();
    Ok(Response::chunked(200, "application/x-ndjson", chunks))
}

/// Parses one ingest sample: `count` required, `exposure_seconds`
/// optional (defaults to one hourly bin).
fn timeline_sample(doc: &Json, ctx: &str) -> Result<(u64, f64), BadRequest> {
    let count = doc.get("count").and_then(Json::as_u64).ok_or_else(|| {
        BadRequest::new(
            400,
            format!("{ctx}: missing or non-integer field `count`"),
        )
    })?;
    let exposure = match doc.get("exposure_seconds") {
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
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let samples = match doc.get("samples") {
        Some(v) => {
            let array = v
                .as_array()
                .ok_or_else(|| BadRequest::new(400, "field `samples` must be an array"))?;
            if array.is_empty() {
                return Err(BadRequest::new(400, "field `samples` must not be empty"));
            }
            if array.len() > TIMELINE_MAX_SAMPLES {
                return Err(BadRequest::new(
                    400,
                    format!("field `samples` must hold ≤ {TIMELINE_MAX_SAMPLES} entries"),
                ));
            }
            array
                .iter()
                .enumerate()
                .map(|(i, s)| timeline_sample(s, &format!("samples[{i}]")))
                .collect::<Result<Vec<_>, _>>()?
        }
        None => vec![timeline_sample(doc, "request")?],
    };
    let mut alerts = Vec::new();
    for &(count, exposure) in &samples {
        alerts.extend(state.timeline_observe(count, exposure));
    }
    let (seen, armed) = state.with_timeline(|m| (m.seen(), m.armed()));
    let mut out = String::with_capacity(128 + 128 * alerts.len());
    out.push_str("{\"ingested\":");
    out.push_str(&samples.len().to_string());
    out.push_str(",\"samples\":");
    out.push_str(&seen.to_string());
    out.push_str(",\"armed\":");
    out.push_str(if armed { "true" } else { "false" });
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
    let list: Vec<Json> = tn_scenario::builtin_names()
        .iter()
        .map(|name| {
            let s = tn_scenario::builtin(name).expect("built-in scenario");
            Json::Object(vec![
                ("name".into(), Json::Str(s.name.clone())),
                (
                    "duration_hours".into(),
                    Json::Num(f64::from(s.duration_hours)),
                ),
                ("channels".into(), Json::Num(f64::from(s.channels))),
                ("events".into(), Json::Num(s.events.len() as f64)),
                ("faults".into(), Json::Num(s.faults.len() as f64)),
                ("moderation".into(), Json::Bool(s.moderation)),
            ])
        })
        .collect();
    let doc = Json::Object(vec![
        ("count".into(), Json::Num(list.len() as f64)),
        ("default_seed".into(), Json::Num(state.seed as f64)),
        ("scenarios".into(), Json::Array(list)),
    ]);
    Response::json(200, doc.to_canonical_string())
}

/// `POST /v1/scenario/run` — runs a built-in scenario campaign and
/// returns its full report. Request: `{"name": <built-in>,
/// "seed": <u64>}` (`seed` optional, defaults to the server seed).
/// Reports are byte-deterministic, so repeats are LRU cache hits.
pub(crate) fn scenario_run(state: &AppState, request: &Request) -> Result<Response, BadRequest> {
    let doc = request.json().map_err(|e| BadRequest::new(400, e))?;
    let name = required_str(doc, "name")?;
    let seed = optional_u64(doc, "seed", state.seed)?;
    let scenario = tn_scenario::builtin(name).ok_or_else(|| {
        BadRequest::new(
            404,
            format!(
                "unknown scenario `{name}` (built-ins: {})",
                tn_scenario::builtin_names().join(", ")
            ),
        )
    })?;
    let key = format!("scenario/run|{name}|{seed}");
    Ok(cached(state, &key, || {
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
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(4));
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
            ["normal", "rainstorm-at-leadville", "loss-of-moderation", "detector-channel-drift"]
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
        let ok = post(
            &s,
            "/v1/transport",
            br#"{"layers":[{"material":"cadmium","thickness_cm":0.1}],"histories":2000}"#,
        );
        assert_eq!(ok.status, 200, "{}", ok.body_text());
        assert!(json::parse(&ok.body_text()).is_ok(), "{}", ok.body_text());
        assert!(ok.body_text().contains("\"transmitted_thermal\""), "{}", ok.body_text());
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
        assert_eq!(results[0].get("source").and_then(Json::as_str), Some("surface"));
        assert_eq!(results[0].get("id").and_then(Json::as_str), Some("inline-0000"));
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
        // Bulk registry mode: the whole registry and an id subset whose
        // canonical ids hold `|` and digits of their own.
        assert!(is_dead_registry_key("fleet|7|true|registry|all|3", 4));
        assert!(!is_dead_registry_key("fleet|7|true|registry|all|4", 4));
        let subset = r#"fleet|7|false|registry|["n|9","registry|all|0"]|2"#;
        assert!(is_dead_registry_key(subset, 3));
        assert!(!is_dead_registry_key(subset, 2));
        // The stream.
        assert!(is_dead_registry_key("fleet-stream|7|true|0", 1));
        assert!(!is_dead_registry_key("fleet-stream|7|true|1", 1));
        // Inline keys never match, whatever their canonical JSON holds.
        for inline in [
            r#"fleet|7|true|inline|[{"device":"NVIDIA K20","id":"x|registry|all|0"}]"#,
            r#"fleet|7|true|inline|[{"site":"|registry|"}]|0"#,
            "fleet|7|true|inline|registry|all|0",
        ] {
            assert!(!is_dead_registry_key(inline, u64::MAX), "{inline}");
        }
        // Other endpoints' keys never match.
        for other in ["fit|{}", "scenario/run|normal|0", "transport|{}"] {
            assert!(!is_dead_registry_key(other, u64::MAX), "{other}");
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
        let generation_0 = [
            "fleet|2020|true|registry|all|0",
            r#"fleet|2020|true|registry|["node-0003"]|0"#,
            "fleet-stream|2020|true|0",
        ];
        for key in generation_0 {
            assert!(s.cache.get(key).is_some(), "{key} was cached");
        }
        assert_eq!(s.cache.len(), 4);

        let up = post(
            &s,
            "/v1/fleet/entries",
            br#"{"id":"zz","device":"NVIDIA K20"}"#,
        );
        assert_eq!(up.status, 200, "{}", up.body_text());
        for key in generation_0 {
            assert!(s.cache.get(key).is_none(), "{key} outlived its generation");
        }
        assert_eq!(s.cache.len(), 1, "only the inline body is left");

        // A body of the current generation survives until the next write.
        assert_eq!(post(&s, "/v1/fleet", br#"{"quick":true}"#).status, 200);
        assert!(s.cache.get("fleet|2020|true|registry|all|1").is_some());
        assert_eq!(call(&s, "DELETE", "/v1/fleet/entries/zz", b"").status, 200);
        assert!(s.cache.get("fleet|2020|true|registry|all|1").is_none());
        // A failed write changes nothing, so it drops nothing.
        assert_eq!(post(&s, "/v1/fleet", br#"{"quick":true}"#).status, 200);
        assert_eq!(call(&s, "DELETE", "/v1/fleet/entries/zz", b"").status, 404);
        assert!(s.cache.get("fleet|2020|true|registry|all|2").is_some());
        assert_eq!(s.cache.len(), 2);
    }

    #[test]
    fn fleet_stream_is_chunked_jsonl() {
        let s = state();
        let r = get(&s, "/v1/fleet/stream?seed=5&quick=true");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.content_type, "application/x-ndjson");
        let crate::http::Body::Chunked(chunks) = &r.body else {
            panic!("stream response must be chunked");
        };
        // One metadata line + one line per demo-fleet entry.
        assert_eq!(chunks.len(), 1 + 24);
        let meta = json::parse(&chunks[0]).unwrap();
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
        assert_eq!(alerts[0].get("kind").and_then(Json::as_str), Some("step_up"));
        let onset = alerts[0].get("onset_index").and_then(Json::as_f64).unwrap();
        assert!((59.0..=62.0).contains(&onset), "onset {onset}");
        // The alert shows up in both GET views and in /metrics.
        let bulk = get(&s, "/v1/timeline");
        let bulk_doc = json::parse(&bulk.body_text()).unwrap();
        assert_eq!(
            bulk_doc.get("alerts").and_then(Json::as_array).unwrap().len(),
            1
        );
        let stream = get(&s, "/v1/timeline/stream?limit=100");
        let crate::http::Body::Chunked(chunks) = &stream.body else {
            panic!("stream response must be chunked");
        };
        assert_eq!(chunks.len(), 1 + 100 + 1);
        let meta = json::parse(&chunks[0]).unwrap();
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
        let crate::http::Body::Chunked(chunks) = &stream.body else {
            panic!("stream response must be chunked");
        };
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
}
