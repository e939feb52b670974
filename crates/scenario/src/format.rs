//! The declarative scenario file format.
//!
//! A scenario is a single JSON document describing a campaign: where the
//! detector array sits, how many channels it has, a timeline of
//! environment events (weather fronts, altitude moves, moderation
//! on/off, a calibration beam), and per-channel fault injections. The
//! document is parsed with the in-tree `tn_core::json` layer — no
//! external dependencies — and re-serialises canonically, so
//! parse → serialise is a byte-exact fixed point.
//!
//! Validation is strict: unknown keys, out-of-range values, unordered
//! event timelines and no-op events are all structured
//! [`ScenarioError`]s with a JSON-pointer-style path, never panics.

use tn_core::json::{self, Json};
use tn_environment::{Environment, Location, Surroundings, Weather};

/// Scenario durations shorter than this cannot cover the monitor's
/// warmup segment plus a detectable event.
pub const MIN_DURATION_HOURS: u32 = 24;

/// Upper bound on campaign length; keeps reports and monitor ring
/// buffers bounded.
pub const MAX_DURATION_HOURS: u32 = 2_400;

/// Largest detector array the format accepts.
pub const MAX_CHANNELS: u8 = 8;

/// Largest per-hour relative drift a `bias_drift` fault may apply.
pub const MAX_DRIFT_PER_HOUR: f64 = 0.2;

/// A structured validation or parse failure: the JSON-pointer-ish path
/// of the offending element plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted path into the document (`$.events[3].at_hour`).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// A named geographic site the format can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationPreset {
    /// New York City — the sea-level reference.
    NewYork,
    /// Leadville, CO — the paper's high-altitude site.
    Leadville,
    /// Los Alamos, NM — the Tin-II deployment site.
    LosAlamos,
}

impl LocationPreset {
    /// Every preset, for sweeps and generators.
    pub const ALL: [LocationPreset; 3] = [
        LocationPreset::NewYork,
        LocationPreset::Leadville,
        LocationPreset::LosAlamos,
    ];

    /// The stable document label.
    pub fn label(self) -> &'static str {
        match self {
            LocationPreset::NewYork => "new-york",
            LocationPreset::Leadville => "leadville",
            LocationPreset::LosAlamos => "los-alamos",
        }
    }

    /// Parses a document label.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == label)
    }

    /// The concrete location.
    pub fn location(self) -> Location {
        match self {
            LocationPreset::NewYork => Location::new_york(),
            LocationPreset::Leadville => Location::leadville(),
            LocationPreset::LosAlamos => Location::los_alamos(),
        }
    }
}

/// A named surroundings configuration the format can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurroundingsPreset {
    /// Open air, no moderators.
    Outdoors,
    /// Over a concrete slab (+20 % thermal).
    ConcreteFloor,
    /// Next to cooling water (+24 % thermal).
    WaterCooled,
    /// Liquid-cooled machine room (+44 % thermal).
    MachineRoom,
}

impl SurroundingsPreset {
    /// Every preset, for sweeps and generators.
    pub const ALL: [SurroundingsPreset; 4] = [
        SurroundingsPreset::Outdoors,
        SurroundingsPreset::ConcreteFloor,
        SurroundingsPreset::WaterCooled,
        SurroundingsPreset::MachineRoom,
    ];

    /// The stable document label.
    pub fn label(self) -> &'static str {
        match self {
            SurroundingsPreset::Outdoors => "outdoors",
            SurroundingsPreset::ConcreteFloor => "concrete-floor",
            SurroundingsPreset::WaterCooled => "water-cooled",
            SurroundingsPreset::MachineRoom => "machine-room",
        }
    }

    /// Parses a document label.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == label)
    }

    /// The concrete surroundings.
    pub fn surroundings(self) -> Surroundings {
        match self {
            SurroundingsPreset::Outdoors => Surroundings::outdoors(),
            SurroundingsPreset::ConcreteFloor => Surroundings::concrete_floor(),
            SurroundingsPreset::WaterCooled => Surroundings::water_cooled(),
            SurroundingsPreset::MachineRoom => Surroundings::hpc_machine_room(),
        }
    }
}

/// What a scripted timeline event does to the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The weather changes (rain ×1.5, thunderstorm ×2, …).
    Weather(Weather),
    /// The surrounding materials change (concrete +20 %, …).
    Surroundings(SurroundingsPreset),
    /// The whole rig moves to a different site (altitude change).
    Move(LocationPreset),
    /// A water pan is placed over the array (MC-derived thermal boost).
    ModerationOn,
    /// The water pan is removed — the paper's Figure-6 step in reverse.
    ModerationOff,
    /// A calibration thermal beam switches on.
    BeamOn,
    /// The calibration beam switches off.
    BeamOff,
}

impl EventKind {
    /// The stable `kind` label of this event.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Weather(_) => "weather",
            EventKind::Surroundings(_) => "surroundings",
            EventKind::Move(_) => "move",
            EventKind::ModerationOn => "moderation_on",
            EventKind::ModerationOff => "moderation_off",
            EventKind::BeamOn => "beam_on",
            EventKind::BeamOff => "beam_off",
        }
    }

    /// The `value` label for parameterised kinds (`None` for toggles).
    pub fn value_label(&self) -> Option<&'static str> {
        match self {
            EventKind::Weather(w) => Some(w.label()),
            EventKind::Surroundings(s) => Some(s.label()),
            EventKind::Move(l) => Some(l.label()),
            _ => None,
        }
    }
}

/// One scripted environment change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent {
    /// Hour (1-based sample index) at which the change takes effect.
    pub at_hour: u32,
    /// What changes.
    pub kind: EventKind,
}

/// A detector-channel fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The channel freezes at its last good reading.
    StuckAt,
    /// The channel's gain drifts by a relative factor every hour.
    BiasDrift {
        /// Relative gain change per hour (non-zero, |x| ≤ 0.2).
        per_hour: f64,
    },
    /// The channel stops reporting entirely.
    Dropout,
    /// The channel reports NaNs and absurd values.
    Garbage,
}

impl FaultKind {
    /// The stable `kind` label of this fault.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::StuckAt => "stuck_at",
            FaultKind::BiasDrift { .. } => "bias_drift",
            FaultKind::Dropout => "dropout",
            FaultKind::Garbage => "garbage",
        }
    }
}

/// A fault injected into one channel at a scripted hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFault {
    /// Which channel misbehaves (0-based).
    pub channel: u8,
    /// Hour from which the fault is active.
    pub at_hour: u32,
    /// The fault model.
    pub kind: FaultKind,
}

/// A complete parsed and validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short machine-friendly name (`[a-z0-9_-]{1,64}`).
    pub name: String,
    /// Campaign length in hourly samples.
    pub duration_hours: u32,
    /// Detector channels in the array (1–8; 3 gives 2oo3 voting).
    pub channels: u8,
    /// Starting site.
    pub location: LocationPreset,
    /// Starting weather.
    pub weather: Weather,
    /// Starting surroundings.
    pub surroundings: SurroundingsPreset,
    /// Whether the water-pan moderator starts in place.
    pub moderation: bool,
    /// Scripted environment changes, strictly ordered by hour.
    pub events: Vec<ScenarioEvent>,
    /// Injected channel faults (at most one per channel).
    pub faults: Vec<ChannelFault>,
}

impl Scenario {
    /// The starting environment this scenario describes.
    pub fn initial_environment(&self) -> Environment {
        Environment::new(
            self.location.location(),
            self.weather,
            self.surroundings.surroundings(),
        )
    }

    /// True when the campaign ever has the water-pan moderator in place
    /// (initially or via a scripted event), i.e. when running it needs
    /// the Monte-Carlo boost derivation.
    pub fn uses_moderation(&self) -> bool {
        self.moderation
            || self
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::ModerationOn | EventKind::ModerationOff))
    }

    /// Parses and validates a scenario document.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = json::parse(text)
            .map_err(|e| ScenarioError::new("$", format!("{e}")))?;
        Self::from_value(&doc)
    }

    /// Validates an already-parsed document.
    pub fn from_value(doc: &Json) -> Result<Self, ScenarioError> {
        let members = match doc {
            Json::Object(members) => members,
            _ => return Err(ScenarioError::new("$", "scenario must be a JSON object")),
        };
        const KNOWN: [&str; 9] = [
            "name",
            "duration_hours",
            "channels",
            "location",
            "weather",
            "surroundings",
            "moderation",
            "events",
            "faults",
        ];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(ScenarioError::new(
                    format!("$.{key}"),
                    "unknown scenario key",
                ));
            }
        }

        let name = req_str(doc, "name")?;
        validate_name(&name)?;
        let duration_hours = req_u32(doc, "duration_hours")?;
        if !(MIN_DURATION_HOURS..=MAX_DURATION_HOURS).contains(&duration_hours) {
            return Err(ScenarioError::new(
                "$.duration_hours",
                format!("must be in {MIN_DURATION_HOURS}..={MAX_DURATION_HOURS}"),
            ));
        }
        let channels = match doc.get("channels") {
            None => 3,
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| ScenarioError::new("$.channels", "must be an integer"))?;
                if !(1..=MAX_CHANNELS as u64).contains(&n) {
                    return Err(ScenarioError::new(
                        "$.channels",
                        format!("must be in 1..={MAX_CHANNELS}"),
                    ));
                }
                n as u8
            }
        };
        let location = LocationPreset::from_label(&req_str(doc, "location")?)
            .ok_or_else(|| ScenarioError::new("$.location", "unknown location preset"))?;
        let weather = match doc.get("weather") {
            None => Weather::Sunny,
            Some(v) => {
                let label = v
                    .as_str()
                    .ok_or_else(|| ScenarioError::new("$.weather", "must be a string"))?;
                Weather::from_label(label)
                    .ok_or_else(|| ScenarioError::new("$.weather", "unknown weather"))?
            }
        };
        let surroundings = match doc.get("surroundings") {
            None => SurroundingsPreset::MachineRoom,
            Some(v) => {
                let label = v
                    .as_str()
                    .ok_or_else(|| ScenarioError::new("$.surroundings", "must be a string"))?;
                SurroundingsPreset::from_label(label)
                    .ok_or_else(|| ScenarioError::new("$.surroundings", "unknown surroundings"))?
            }
        };
        let moderation = match doc.get("moderation") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ScenarioError::new("$.moderation", "must be a boolean"))?,
        };

        let events = match doc.get("events") {
            None => Vec::new(),
            Some(v) => parse_events(v)?,
        };
        let faults = match doc.get("faults") {
            None => Vec::new(),
            Some(v) => parse_faults(v, channels)?,
        };

        let scenario = Scenario {
            name,
            duration_hours,
            channels,
            location,
            weather,
            surroundings,
            moderation,
            events,
            faults,
        };
        scenario.validate_timeline()?;
        Ok(scenario)
    }

    /// Checks event ordering, bounds, and that every event actually
    /// changes the environment state (no-ops are authoring mistakes).
    fn validate_timeline(&self) -> Result<(), ScenarioError> {
        let mut state = (
            self.location,
            self.weather,
            self.surroundings,
            self.moderation,
            false, // beam
        );
        let mut last_hour = 0u32;
        for (i, event) in self.events.iter().enumerate() {
            let path = format!("$.events[{i}]");
            if event.at_hour <= last_hour && i > 0 {
                return Err(ScenarioError::new(
                    format!("{path}.at_hour"),
                    "event hours must be strictly increasing",
                ));
            }
            if event.at_hour < 1 || event.at_hour >= self.duration_hours {
                return Err(ScenarioError::new(
                    format!("{path}.at_hour"),
                    format!("must be in 1..{}", self.duration_hours),
                ));
            }
            let next = apply_event(state, event.kind);
            if next == state {
                return Err(ScenarioError::new(
                    path,
                    "event does not change the environment (no-op)",
                ));
            }
            state = next;
            last_hour = event.at_hour;
        }
        for (i, fault) in self.faults.iter().enumerate() {
            let path = format!("$.faults[{i}]");
            if fault.at_hour < 1 || fault.at_hour >= self.duration_hours {
                return Err(ScenarioError::new(
                    format!("{path}.at_hour"),
                    format!("must be in 1..{}", self.duration_hours),
                ));
            }
        }
        Ok(())
    }

    /// Serialises to the canonical document form (sorted keys, canonical
    /// numbers): parse → `to_json` is a byte-exact fixed point.
    pub fn to_json(&self) -> String {
        self.to_value().to_canonical_string()
    }

    /// Builds the document tree for this scenario.
    pub fn to_value(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut members = vec![
                    ("at_hour".to_string(), Json::Num(e.at_hour as f64)),
                    ("kind".to_string(), Json::Str(e.kind.label().to_string())),
                ];
                if let Some(value) = e.kind.value_label() {
                    members.push(("value".to_string(), Json::Str(value.to_string())));
                }
                Json::Object(members)
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| {
                let mut members = vec![
                    ("at_hour".to_string(), Json::Num(f.at_hour as f64)),
                    ("channel".to_string(), Json::Num(f.channel as f64)),
                    ("kind".to_string(), Json::Str(f.kind.label().to_string())),
                ];
                if let FaultKind::BiasDrift { per_hour } = f.kind {
                    members.push(("per_hour".to_string(), Json::Num(per_hour)));
                }
                Json::Object(members)
            })
            .collect();
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "duration_hours".to_string(),
                Json::Num(self.duration_hours as f64),
            ),
            ("channels".to_string(), Json::Num(self.channels as f64)),
            (
                "location".to_string(),
                Json::Str(self.location.label().to_string()),
            ),
            (
                "weather".to_string(),
                Json::Str(self.weather.label().to_string()),
            ),
            (
                "surroundings".to_string(),
                Json::Str(self.surroundings.label().to_string()),
            ),
            ("moderation".to_string(), Json::Bool(self.moderation)),
            ("events".to_string(), Json::Array(events)),
            ("faults".to_string(), Json::Array(faults)),
        ])
    }
}

/// Environment state tuple used for no-op detection.
type EnvState = (LocationPreset, Weather, SurroundingsPreset, bool, bool);

/// Applies an event to the `(location, weather, surroundings,
/// moderation, beam)` state tuple.
fn apply_event(state: EnvState, kind: EventKind) -> EnvState {
    let (mut loc, mut weather, mut surr, mut moderation, mut beam) = state;
    match kind {
        EventKind::Weather(w) => weather = w,
        EventKind::Surroundings(s) => surr = s,
        EventKind::Move(l) => loc = l,
        EventKind::ModerationOn => moderation = true,
        EventKind::ModerationOff => moderation = false,
        EventKind::BeamOn => beam = true,
        EventKind::BeamOff => beam = false,
    }
    (loc, weather, surr, moderation, beam)
}

fn validate_name(name: &str) -> Result<(), ScenarioError> {
    if name.is_empty() || name.len() > 64 {
        return Err(ScenarioError::new("$.name", "must be 1..=64 characters"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
    {
        return Err(ScenarioError::new(
            "$.name",
            "only lowercase letters, digits, `-` and `_` are allowed",
        ));
    }
    Ok(())
}

fn req_str(doc: &Json, key: &str) -> Result<String, ScenarioError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ScenarioError::new(format!("$.{key}"), "required string missing"))
}

fn req_u32(doc: &Json, key: &str) -> Result<u32, ScenarioError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .map(|n| n as u32)
        .ok_or_else(|| ScenarioError::new(format!("$.{key}"), "required integer missing"))
}

fn parse_events(value: &Json) -> Result<Vec<ScenarioEvent>, ScenarioError> {
    let items = value
        .as_array()
        .ok_or_else(|| ScenarioError::new("$.events", "must be an array"))?;
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("$.events[{i}]");
        let members = match item {
            Json::Object(members) => members,
            _ => return Err(ScenarioError::new(path, "event must be an object")),
        };
        for (key, _) in members {
            if !["at_hour", "kind", "value"].contains(&key.as_str()) {
                return Err(ScenarioError::new(
                    format!("{path}.{key}"),
                    "unknown event key",
                ));
            }
        }
        let at_hour = item
            .get("at_hour")
            .and_then(Json::as_u64)
            .filter(|&n| n <= u32::MAX as u64)
            .ok_or_else(|| {
                ScenarioError::new(format!("{path}.at_hour"), "required integer missing")
            })? as u32;
        let kind_label = item
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::new(format!("{path}.kind"), "required string missing"))?;
        let value = item.get("value").and_then(Json::as_str);
        let value_of = |what: &str| {
            value.ok_or_else(|| {
                ScenarioError::new(format!("{path}.value"), format!("required {what} missing"))
            })
        };
        let kind = match kind_label {
            "weather" => {
                EventKind::Weather(Weather::from_label(value_of("weather label")?).ok_or_else(
                    || ScenarioError::new(format!("{path}.value"), "unknown weather"),
                )?)
            }
            "surroundings" => EventKind::Surroundings(
                SurroundingsPreset::from_label(value_of("surroundings label")?).ok_or_else(|| {
                    ScenarioError::new(format!("{path}.value"), "unknown surroundings")
                })?,
            ),
            "move" => EventKind::Move(
                LocationPreset::from_label(value_of("location label")?).ok_or_else(|| {
                    ScenarioError::new(format!("{path}.value"), "unknown location preset")
                })?,
            ),
            "moderation_on" => EventKind::ModerationOn,
            "moderation_off" => EventKind::ModerationOff,
            "beam_on" => EventKind::BeamOn,
            "beam_off" => EventKind::BeamOff,
            _ => {
                return Err(ScenarioError::new(
                    format!("{path}.kind"),
                    "unknown event kind",
                ))
            }
        };
        if kind.value_label().is_none() && value.is_some() {
            return Err(ScenarioError::new(
                format!("{path}.value"),
                "toggle events take no value",
            ));
        }
        events.push(ScenarioEvent { at_hour, kind });
    }
    Ok(events)
}

fn parse_faults(value: &Json, channels: u8) -> Result<Vec<ChannelFault>, ScenarioError> {
    let items = value
        .as_array()
        .ok_or_else(|| ScenarioError::new("$.faults", "must be an array"))?;
    let mut faults: Vec<ChannelFault> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("$.faults[{i}]");
        let members = match item {
            Json::Object(members) => members,
            _ => return Err(ScenarioError::new(path, "fault must be an object")),
        };
        for (key, _) in members {
            if !["at_hour", "channel", "kind", "per_hour"].contains(&key.as_str()) {
                return Err(ScenarioError::new(
                    format!("{path}.{key}"),
                    "unknown fault key",
                ));
            }
        }
        let channel = item
            .get("channel")
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                ScenarioError::new(format!("{path}.channel"), "required integer missing")
            })?;
        if channel >= channels as u64 {
            return Err(ScenarioError::new(
                format!("{path}.channel"),
                format!("must be below the channel count ({channels})"),
            ));
        }
        let channel = channel as u8;
        if faults.iter().any(|f| f.channel == channel) {
            return Err(ScenarioError::new(
                format!("{path}.channel"),
                "at most one fault per channel",
            ));
        }
        let at_hour = item
            .get("at_hour")
            .and_then(Json::as_u64)
            .filter(|&n| n <= u32::MAX as u64)
            .ok_or_else(|| {
                ScenarioError::new(format!("{path}.at_hour"), "required integer missing")
            })? as u32;
        let kind_label = item
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::new(format!("{path}.kind"), "required string missing"))?;
        let per_hour = item.get("per_hour").and_then(Json::as_f64);
        let kind = match kind_label {
            "stuck_at" => FaultKind::StuckAt,
            "bias_drift" => {
                let per_hour = per_hour.ok_or_else(|| {
                    ScenarioError::new(format!("{path}.per_hour"), "required number missing")
                })?;
                if !per_hour.is_finite()
                    || per_hour == 0.0
                    || per_hour.abs() > MAX_DRIFT_PER_HOUR
                {
                    return Err(ScenarioError::new(
                        format!("{path}.per_hour"),
                        format!("must be non-zero with |x| <= {MAX_DRIFT_PER_HOUR}"),
                    ));
                }
                FaultKind::BiasDrift { per_hour }
            }
            "dropout" => FaultKind::Dropout,
            "garbage" => FaultKind::Garbage,
            _ => {
                return Err(ScenarioError::new(
                    format!("{path}.kind"),
                    "unknown fault kind",
                ))
            }
        };
        if matches!(kind, FaultKind::BiasDrift { .. } | FaultKind::Garbage) && channels < 3 {
            // Both alter the reading itself: below three channels the
            // median vote follows the faulty channel, so health checks can
            // never single it out.
            return Err(ScenarioError::new(
                format!("{path}.kind"),
                format!("{kind_label} needs at least 3 channels to be voted out, got {channels}"),
            ));
        }
        if !matches!(kind, FaultKind::BiasDrift { .. }) && per_hour.is_some() {
            return Err(ScenarioError::new(
                format!("{path}.per_hour"),
                "only bias_drift faults take per_hour",
            ));
        }
        faults.push(ChannelFault {
            channel,
            at_hour,
            kind,
        });
    }
    Ok(faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_rng::Rng;

    fn minimal() -> String {
        r#"{"name":"t","duration_hours":48,"location":"new-york"}"#.to_string()
    }

    #[test]
    fn minimal_document_gets_defaults() {
        let s = Scenario::from_json(&minimal()).unwrap();
        assert_eq!(s.channels, 3);
        assert_eq!(s.weather, Weather::Sunny);
        assert_eq!(s.surroundings, SurroundingsPreset::MachineRoom);
        assert!(!s.moderation);
        assert!(s.events.is_empty() && s.faults.is_empty());
    }

    #[test]
    fn full_document_round_trips_byte_exact() {
        let text = r#"{
            "name": "full", "duration_hours": 240, "channels": 4,
            "location": "leadville", "weather": "rainy",
            "surroundings": "concrete-floor", "moderation": true,
            "events": [
                {"at_hour": 60, "kind": "weather", "value": "thunderstorm"},
                {"at_hour": 130, "kind": "moderation_off"},
                {"at_hour": 200, "kind": "beam_on"}
            ],
            "faults": [
                {"at_hour": 100, "channel": 2, "kind": "bias_drift", "per_hour": 0.01},
                {"at_hour": 30, "channel": 0, "kind": "dropout"}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let canonical = s.to_json();
        let reparsed = Scenario::from_json(&canonical).unwrap();
        assert_eq!(s, reparsed);
        assert_eq!(canonical, reparsed.to_json(), "canonical form is a fixed point");
    }

    /// Builds a random valid scenario from a seeded generator.
    fn random_scenario(rng: &mut Rng) -> Scenario {
        let duration = rng.gen_range(MIN_DURATION_HOURS..=600u32);
        let channels = rng.gen_range(1..=MAX_CHANNELS as u32) as u8;
        let mut events = Vec::new();
        let mut state = (
            LocationPreset::NewYork,
            Weather::Sunny,
            SurroundingsPreset::MachineRoom,
            false,
            false,
        );
        let mut hour = 1u32;
        for _ in 0..rng.gen_range(0..=5u32) {
            hour += rng.gen_range(1..=40u32);
            if hour >= duration {
                break;
            }
            // Pick a kind that is guaranteed not to be a no-op.
            let kind = match rng.gen_range(0..=4u32) {
                0 => {
                    let options: Vec<Weather> =
                        Weather::ALL.into_iter().filter(|w| *w != state.1).collect();
                    EventKind::Weather(options[rng.gen_range(0..options.len() as u32) as usize])
                }
                1 => {
                    let options: Vec<SurroundingsPreset> = SurroundingsPreset::ALL
                        .into_iter()
                        .filter(|s| *s != state.2)
                        .collect();
                    EventKind::Surroundings(
                        options[rng.gen_range(0..options.len() as u32) as usize],
                    )
                }
                2 => {
                    let options: Vec<LocationPreset> = LocationPreset::ALL
                        .into_iter()
                        .filter(|l| *l != state.0)
                        .collect();
                    EventKind::Move(options[rng.gen_range(0..options.len() as u32) as usize])
                }
                3 => {
                    if state.3 {
                        EventKind::ModerationOff
                    } else {
                        EventKind::ModerationOn
                    }
                }
                _ => {
                    if state.4 {
                        EventKind::BeamOff
                    } else {
                        EventKind::BeamOn
                    }
                }
            };
            state = apply_event(state, kind);
            events.push(ScenarioEvent { at_hour: hour, kind });
        }
        let mut faults = Vec::new();
        for channel in 0..channels {
            if rng.gen_bool(0.3) {
                // Faults that alter a reading need three channels to be
                // voted out; smaller arrays draw a dropout instead.
                let votable = channels >= 3;
                let kind = match rng.gen_range(0..=3u32) {
                    0 => FaultKind::StuckAt,
                    1 if votable => FaultKind::BiasDrift {
                        per_hour: rng.gen_range(1..=20u32) as f64 / 100.0
                            * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                    },
                    3 if votable => FaultKind::Garbage,
                    _ => FaultKind::Dropout,
                };
                faults.push(ChannelFault {
                    channel,
                    at_hour: rng.gen_range(1..duration),
                    kind,
                });
            }
        }
        Scenario {
            name: format!("gen-{}", rng.gen_range(0..1000u32)),
            duration_hours: duration,
            channels,
            location: LocationPreset::NewYork,
            weather: Weather::Sunny,
            surroundings: SurroundingsPreset::MachineRoom,
            moderation: false,
            events,
            faults,
        }
    }

    #[test]
    fn generated_scenarios_round_trip_byte_exact() {
        // Satellite: fixed-seed generator loop. Random valid scenarios
        // must validate, serialise canonically, and re-parse to both the
        // same value and the same bytes.
        let mut rng = Rng::seed_from_u64(0x5CE11A);
        for case in 0..200 {
            let s = random_scenario(&mut rng);
            let text = s.to_json();
            let parsed = Scenario::from_json(&text)
                .unwrap_or_else(|e| panic!("case {case}: generated scenario rejected: {e}\n{text}"));
            assert_eq!(parsed, s, "case {case}");
            assert_eq!(parsed.to_json(), text, "case {case}: byte-exact round trip");
        }
    }

    #[test]
    fn mutated_documents_error_and_never_panic() {
        // Satellite: adversarial mutations of a valid document must all
        // produce structured errors (or a still-valid document), never a
        // panic. Deterministic byte-level mutations at a fixed seed.
        let base = Scenario::from_json(&minimal()).unwrap().to_json();
        let mut rng = Rng::seed_from_u64(0xBADCA5E);
        for _ in 0..500 {
            let mut bytes = base.clone().into_bytes();
            for _ in 0..rng.gen_range(1..=4u32) {
                let pos = rng.gen_range(0..bytes.len() as u32) as usize;
                match rng.gen_range(0..3u32) {
                    0 => bytes[pos] = rng.gen_range(0x20..0x7f_u32) as u8,
                    1 => {
                        bytes.remove(pos);
                    }
                    _ => bytes.insert(pos, rng.gen_range(0x20..0x7f_u32) as u8),
                }
            }
            if let Ok(text) = String::from_utf8(bytes) {
                // Either outcome is fine; panicking is not.
                let _ = Scenario::from_json(&text);
            }
        }
    }

    #[test]
    fn adversarial_documents_produce_structured_errors() {
        let cases: &[(&str, &str)] = &[
            ("[]", "$"),
            ("{", "$"),
            (r#"{"name":"x","duration_hours":48,"location":"mars"}"#, "$.location"),
            (r#"{"name":"x","duration_hours":48,"location":"new-york","bogus":1}"#, "$.bogus"),
            (r#"{"name":"BAD","duration_hours":48,"location":"new-york"}"#, "$.name"),
            (r#"{"name":"x","duration_hours":5,"location":"new-york"}"#, "$.duration_hours"),
            (r#"{"name":"x","duration_hours":48,"location":"new-york","channels":0}"#, "$.channels"),
            (r#"{"name":"x","duration_hours":48,"location":"new-york","channels":9}"#, "$.channels"),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","events":[{"at_hour":0,"kind":"beam_on"}]}"#,
                "$.events[0].at_hour",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","events":[{"at_hour":10,"kind":"beam_on"},{"at_hour":10,"kind":"beam_off"}]}"#,
                "$.events[1].at_hour",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","events":[{"at_hour":10,"kind":"weather","value":"sunny"}]}"#,
                "$.events[0]",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","events":[{"at_hour":10,"kind":"beam_on","value":"x"}]}"#,
                "$.events[0].value",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","faults":[{"at_hour":10,"channel":3,"kind":"dropout"}]}"#,
                "$.faults[0].channel",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","faults":[{"at_hour":10,"channel":0,"kind":"bias_drift","per_hour":0.5}]}"#,
                "$.faults[0].per_hour",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","faults":[{"at_hour":10,"channel":0,"kind":"dropout"},{"at_hour":12,"channel":0,"kind":"garbage"}]}"#,
                "$.faults[1].channel",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","faults":[{"at_hour":10,"channel":0,"kind":"dropout","per_hour":0.1}]}"#,
                "$.faults[0].per_hour",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","channels":1,"faults":[{"at_hour":10,"channel":0,"kind":"bias_drift","per_hour":0.01}]}"#,
                "$.faults[0].kind",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","channels":2,"faults":[{"at_hour":10,"channel":1,"kind":"bias_drift","per_hour":0.01}]}"#,
                "$.faults[0].kind",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","channels":1,"faults":[{"at_hour":10,"channel":0,"kind":"garbage"}]}"#,
                "$.faults[0].kind",
            ),
            (
                r#"{"name":"x","duration_hours":48,"location":"new-york","channels":2,"faults":[{"at_hour":10,"channel":0,"kind":"garbage"}]}"#,
                "$.faults[0].kind",
            ),
        ];
        for (text, want_path) in cases {
            let err = Scenario::from_json(text).expect_err(text);
            assert!(
                err.path.starts_with(want_path),
                "`{text}` flagged at {} (wanted {want_path})",
                err.path
            );
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn faults_an_array_cannot_vote_out_need_three_channels() {
        let doc = |channels: u8, kind: &str| {
            let per_hour = if kind == "bias_drift" {
                r#","per_hour":0.01"#
            } else {
                ""
            };
            format!(
                r#"{{"name":"x","duration_hours":48,"location":"new-york","channels":{channels},"faults":[{{"at_hour":10,"channel":0,"kind":"{kind}"{per_hour}}}]}}"#
            )
        };
        for channels in 1..=2 {
            for kind in ["bias_drift", "garbage"] {
                let err = Scenario::from_json(&doc(channels, kind)).expect_err(kind);
                assert_eq!(err.path, "$.faults[0].kind", "{kind} at {channels}");
            }
            for kind in ["stuck_at", "dropout"] {
                assert!(
                    Scenario::from_json(&doc(channels, kind)).is_ok(),
                    "{kind} at {channels}"
                );
            }
        }
        for kind in ["bias_drift", "garbage", "stuck_at", "dropout"] {
            assert!(Scenario::from_json(&doc(3, kind)).is_ok(), "{kind} at 3");
        }
    }

    #[test]
    fn uses_moderation_covers_initial_state_and_events() {
        let mut s = Scenario::from_json(&minimal()).unwrap();
        assert!(!s.uses_moderation());
        s.moderation = true;
        assert!(s.uses_moderation());
        s.moderation = false;
        s.events.push(ScenarioEvent {
            at_hour: 10,
            kind: EventKind::ModerationOn,
        });
        assert!(s.uses_moderation());
    }

    #[test]
    fn error_display_includes_path() {
        let err = Scenario::from_json("{}").unwrap_err();
        assert!(format!("{err}").contains("$."));
    }
}
