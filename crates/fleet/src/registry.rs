//! The device-fleet registry: a deterministic in-memory store of fleet
//! entries with JSONL snapshot load/save.
//!
//! Each entry pairs a catalog device with the site parameters that fix
//! its FIT rate — altitude, geomagnetic rigidity, the ¹⁰B areal density
//! of any borated shield, a thermal-field scaling (surroundings,
//! weather, solar activity folded into one factor) and the workload's
//! architectural vulnerability factor. Entries are kept sorted by id, so
//! iteration order, JSONL snapshots and the streaming endpoint are all
//! deterministic. A generation counter bumps on every mutation; it is
//! part of the server's cache key, so cached fleet responses can never
//! outlive the registry state they were computed from.
//!
//! The entries live behind an `Arc` and are mutated copy-on-write, so a
//! reader takes an O(1) [`FleetRegistry::snapshot`] and renders from it
//! without holding the registry lock; a write while such a snapshot is
//! alive copies the entries once and leaves the snapshot untouched.
//!
//! Every entry also carries a *write stamp*: each successful upsert
//! (a byte-identical one included) gives its entry the next value of a
//! counter that never resets and never repeats within the registry's
//! lifetime, and a remove drops the entry's stamp with it. An entry
//! whose stamp is below a snapshot's `next_stamp` was present, with
//! exactly its current content, when that snapshot was taken, which is
//! what lets the server copy an unchanged entry's rendered result from
//! an earlier render instead of assessing and rendering it again. The
//! stamps sit in an `Arc` of their own, so such a render can keep them
//! without keeping the entries alive: a kept snapshot of the entries
//! would make every later write copy the whole registry.

use std::sync::Arc;
use tn_core::cache_key;
use tn_core::json::{self, Json, JsonError, Scanner, Text, Value};
use tn_core::registry::find_device_indexed;

/// Why a fleet entry or snapshot was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// An entry had an empty or missing id.
    EmptyId,
    /// The device name did not resolve against the catalog.
    UnknownDevice(String),
    /// Altitude outside the terrestrial range the flux model covers.
    AltitudeOutOfRange(f64),
    /// A numeric field was non-finite or out of its allowed range.
    BadField {
        /// The JSON field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A JSONL snapshot line did not parse or was not an object.
    BadSnapshot(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyId => write!(f, "fleet entry needs a non-empty `id`"),
            FleetError::UnknownDevice(name) => write!(f, "unknown device `{name}`"),
            FleetError::AltitudeOutOfRange(alt) => write!(
                f,
                "`altitude_m` {alt} out of terrestrial range (-430..=9000)"
            ),
            FleetError::BadField { field, value } => {
                write!(f, "field `{field}` out of range: {value}")
            }
            FleetError::BadSnapshot(why) => write!(f, "bad fleet snapshot: {why}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One device deployment: a catalog device at a site, behind optional
/// boron shielding, running a workload with a given AVF.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEntry {
    /// Unique entry id (registry key).
    pub id: String,
    /// Canonical catalog device name.
    pub device: String,
    /// Free-form site label (not interpreted).
    pub site: String,
    /// Site altitude in metres (`-430..=9000`).
    pub altitude_m: f64,
    /// Geomagnetic rigidity factor (1.0 = NYC reference).
    pub rigidity_factor: f64,
    /// ¹⁰B areal density of the shield between field and device, in
    /// atoms/cm² (0 = unshielded).
    pub b10_areal_cm2: f64,
    /// Local thermal-field scaling: surroundings, weather and solar
    /// modulation folded into one multiplier on the thermal flux.
    pub thermal_scaling: f64,
    /// Workload architectural vulnerability factor in `(0..=1]`.
    pub avf: f64,
}

/// The members an entry is read from, in a JSON object: the three
/// strings, then the numbers in the order of [`EntryFields`]' number
/// fields.
const ENTRY_KEYS: [&str; 8] = [
    "id",
    "device",
    "site",
    "altitude_m",
    "rigidity_factor",
    "b10_areal_cm2",
    "thermal_scaling",
    "avf",
];

/// Defaults of the five numbers an entry's object may leave out: an
/// unshielded NYC-reference deployment at AVF 1.
const NUMBER_DEFAULTS: [f64; 5] = [10.0, 1.0, 0.0, 1.0, 1.0];

impl FleetEntry {
    /// An unshielded NYC-reference entry for a device; adjust fields
    /// from there.
    pub fn new(id: impl Into<String>, device: impl Into<String>) -> Self {
        let [altitude_m, rigidity_factor, b10_areal_cm2, thermal_scaling, avf] = NUMBER_DEFAULTS;
        Self {
            id: id.into(),
            device: device.into(),
            site: String::new(),
            altitude_m,
            rigidity_factor,
            b10_areal_cm2,
            thermal_scaling,
            avf,
        }
    }

    /// The entry's fields, borrowed.
    pub fn fields(&self) -> EntryFields<'_> {
        // Destructured, so a field added later fails to compile here
        // until the borrowed fields cover it.
        let FleetEntry {
            id,
            device,
            site,
            altitude_m,
            rigidity_factor,
            b10_areal_cm2,
            thermal_scaling,
            avf,
        } = self;
        EntryFields {
            id,
            device,
            site,
            altitude_m: *altitude_m,
            rigidity_factor: *rigidity_factor,
            b10_areal_cm2: *b10_areal_cm2,
            thermal_scaling: *thermal_scaling,
            avf: *avf,
        }
    }

    /// Validates the entry and canonicalises the device name against
    /// the catalog (case-insensitive match, catalog spelling wins); see
    /// [`EntryFields::validate`].
    pub fn validate(self) -> Result<Self, FleetError> {
        let device = self.fields().validate()?.device.to_string();
        Ok(Self { device, ..self })
    }

    /// The entry as a JSON object (alphabetical keys match the
    /// canonical serialisation, so snapshots are fixed points).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("altitude_m".into(), Json::Num(self.altitude_m)),
            ("avf".into(), Json::Num(self.avf)),
            ("b10_areal_cm2".into(), Json::Num(self.b10_areal_cm2)),
            ("device".into(), Json::Str(self.device.clone())),
            ("id".into(), Json::Str(self.id.clone())),
            ("rigidity_factor".into(), Json::Num(self.rigidity_factor)),
            ("site".into(), Json::Str(self.site.clone())),
            ("thermal_scaling".into(), Json::Num(self.thermal_scaling)),
        ])
    }

    /// Builds and validates an entry from a JSON object. Only `id` and
    /// `device` are required; the other fields default to an
    /// unshielded NYC-reference deployment at AVF 1.
    pub fn from_json(doc: &Json) -> Result<Self, FleetError> {
        Self::from_json_or_id(doc, None)
    }

    /// [`FleetEntry::from_json`] for an object that may leave out its
    /// `id` member: it then takes `default_id` (inline fleet requests
    /// number their entries this way). An `id` that is present but not
    /// a string is still an error.
    pub fn from_json_or_id(doc: &Json, default_id: Option<String>) -> Result<Self, FleetError> {
        if !matches!(doc, Json::Object(_)) {
            return Err(FleetError::BadSnapshot("entry is not an object".into()));
        }
        let id = match doc.get("id") {
            None => default_id.as_deref(),
            Some(id) => id.as_str(),
        };
        let text = |key: &str| doc.get(key).and_then(Json::as_str);
        let number = |key: &str| doc.get(key).map(Json::as_f64);
        let [_, _, _, numbers @ ..] = ENTRY_KEYS;
        let fields =
            EntryFields::from_members(id, text("device"), text("site"), numbers.map(number))?;
        Ok(fields.validate()?.to_entry())
    }
}

/// A fleet entry's fields, borrowed: from a [`FleetEntry`], or straight
/// from a request body, so a request can be validated and keyed without
/// building an owned entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryFields<'a> {
    /// Unique entry id (registry key).
    pub id: &'a str,
    /// Device name; the catalog spelling once validated.
    pub device: &'a str,
    /// Free-form site label (not interpreted).
    pub site: &'a str,
    /// Site altitude in metres.
    pub altitude_m: f64,
    /// Geomagnetic rigidity factor.
    pub rigidity_factor: f64,
    /// ¹⁰B areal density of the shield, in atoms/cm².
    pub b10_areal_cm2: f64,
    /// Local thermal-field scaling.
    pub thermal_scaling: f64,
    /// Workload architectural vulnerability factor.
    pub avf: f64,
}

impl<'a> EntryFields<'a> {
    /// An entry's fields as a JSON object's members give them, read the
    /// way every decoder of entries reads them, not yet validated:
    /// - `id` is the id member when it is a string, or the caller's
    ///   default when there is none; `None` is the empty-id error;
    /// - a `device` that is missing or not a string is the unknown
    ///   device `<missing>`; a `site` that is not a string is empty;
    /// - each of the five numbers, in the order of the struct's fields,
    ///   is absent (`None`: its default), not a number (`Some(None)`: a
    ///   bad field with value NaN) or its value, checked in that order.
    fn from_members(
        id: Option<&'a str>,
        device: Option<&'a str>,
        site: Option<&'a str>,
        numbers: [Option<Option<f64>>; 5],
    ) -> Result<Self, FleetError> {
        let id = id.ok_or(FleetError::EmptyId)?;
        let device = device.ok_or_else(|| FleetError::UnknownDevice("<missing>".into()))?;
        let mut values = NUMBER_DEFAULTS;
        for ((value, member), field) in values.iter_mut().zip(numbers).zip(&ENTRY_KEYS[3..]) {
            if let Some(member) = member {
                *value = member.ok_or(FleetError::BadField {
                    field,
                    value: f64::NAN,
                })?;
            }
        }
        let [altitude_m, rigidity_factor, b10_areal_cm2, thermal_scaling, avf] = values;
        Ok(Self {
            id,
            device,
            site: site.unwrap_or_default(),
            altitude_m,
            rigidity_factor,
            b10_areal_cm2,
            thermal_scaling,
            avf,
        })
    }

    /// Validates the fields and canonicalises the device name against
    /// the catalog (case-insensitive match, catalog spelling wins). The
    /// checks run in a fixed order, so an entry with several faults
    /// always reports the same one.
    pub fn validate(self) -> Result<Self, FleetError> {
        self.validate_indexed().map(|(fields, _)| fields)
    }

    /// [`EntryFields::validate`], with the device's catalog index.
    fn validate_indexed(self) -> Result<(Self, usize), FleetError> {
        if self.id.trim().is_empty() {
            return Err(FleetError::EmptyId);
        }
        let (index, device) = find_device_indexed(self.device)
            .ok_or_else(|| FleetError::UnknownDevice(self.device.to_string()))?;
        if !(-430.0..=9_000.0).contains(&self.altitude_m) || !self.altitude_m.is_finite() {
            return Err(FleetError::AltitudeOutOfRange(self.altitude_m));
        }
        let positive = [
            ("rigidity_factor", self.rigidity_factor),
            ("thermal_scaling", self.thermal_scaling),
        ];
        for (field, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                return Err(FleetError::BadField { field, value });
            }
        }
        if !(self.b10_areal_cm2 >= 0.0 && self.b10_areal_cm2.is_finite()) {
            return Err(FleetError::BadField {
                field: "b10_areal_cm2",
                value: self.b10_areal_cm2,
            });
        }
        if !(self.avf > 0.0 && self.avf <= 1.0) {
            return Err(FleetError::BadField {
                field: "avf",
                value: self.avf,
            });
        }
        let fields = Self {
            device: device.name(),
            ..self
        };
        Ok((fields, index))
    }

    /// Validates the fields, as [`EntryFields::validate`] does, and
    /// appends the validated entry's cache key to `out`, through the
    /// shared key writer ([`tn_core::cache_key`]): the id, the device's
    /// catalog index, the site, then the bits of the five numbers. Two
    /// entries write the same key exactly when they validate to equal
    /// strings, the same catalog device and numbers of the same bits
    /// (`-0` and `0` differ, as they do in a rendered body), and a run of
    /// entry keys is self-delimiting too. Returns the validated fields.
    pub fn push_cache_key(self, out: &mut Vec<u8>) -> Result<Self, FleetError> {
        let (fields, device) = self.validate_indexed()?;
        // Destructured, so a field added later fails to compile here
        // until the key covers it.
        let EntryFields {
            id,
            device: _,
            site,
            altitude_m,
            rigidity_factor,
            b10_areal_cm2,
            thermal_scaling,
            avf,
        } = fields;
        cache_key::push_text(out, id);
        cache_key::push_count(out, device);
        cache_key::push_text(out, site);
        let numbers = [
            altitude_m,
            rigidity_factor,
            b10_areal_cm2,
            thermal_scaling,
            avf,
        ];
        cache_key::push_bits(out, &numbers.map(f64::to_bits));
        Ok(fields)
    }

    /// The fields as an owned entry.
    pub fn to_entry(&self) -> FleetEntry {
        FleetEntry {
            id: self.id.to_string(),
            device: self.device.to_string(),
            site: self.site.to_string(),
            altitude_m: self.altitude_m,
            rigidity_factor: self.rigidity_factor,
            b10_areal_cm2: self.b10_areal_cm2,
            thermal_scaling: self.thermal_scaling,
            avf: self.avf,
        }
    }
}

/// A fleet entry's object as a [`Scanner`] read it, before any check:
/// each member by its key's first occurrence, strings kept as [`Text`]
/// offsets. The server reads inline `devices` items and upsert bodies
/// this way, so neither builds a `Json` tree; a record is a few dozen
/// bytes with nothing to drop.
#[derive(Debug, Clone, Copy)]
pub struct EntryMembers {
    /// Whether the value was an object at all.
    object: bool,
    /// `id`, `device` and `site`.
    strings: [Member; 3],
    /// The five numbers: the default when absent, NaN when the member
    /// is not a number (no JSON number reads as NaN).
    numbers: [f64; 5],
}

/// One string member of an entry's object, as read.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Member {
    Absent,
    /// Present, but not a string.
    Other,
    Str(Text),
}

impl Member {
    /// The member's string, if it is one.
    fn get<'b>(self, input: &'b str, escaped: &'b str) -> Option<&'b str> {
        match self {
            Member::Str(text) => Some(text.get(input, escaped)),
            _ => None,
        }
    }
}

impl EntryMembers {
    /// Reads the next value as an entry's object, appending its escaped
    /// strings to `escaped` (see [`Scanner::text`]); any other value has
    /// no members.
    pub fn read(s: &mut Scanner<'_>, escaped: &mut String) -> Result<Self, JsonError> {
        let mut members = Self {
            object: false,
            strings: [Member::Absent; 3],
            numbers: NUMBER_DEFAULTS,
        };
        let value = s.members(ENTRY_KEYS, |s, i| {
            match i.checked_sub(3) {
                None => members.strings[i] = s.text(escaped)?.map_or(Member::Other, Member::Str),
                Some(n) => members.numbers[n] = s.f64()?.unwrap_or(f64::NAN),
            }
            Ok(())
        })?;
        members.object = value == Value::Object;
        Ok(members)
    }

    /// Whether the object has a string `id`.
    pub fn has_id(&self) -> bool {
        matches!(self.strings[0], Member::Str(_))
    }

    /// The entry's fields, not yet validated: the members read as
    /// [`FleetEntry::from_json_or_id`] reads an object's (`default_id`
    /// stands in for an absent `id`), from the `input` and the side
    /// buffer `escaped` they were read from.
    pub fn fields<'b>(
        &self,
        input: &'b str,
        escaped: &'b str,
        default_id: Option<&'b str>,
    ) -> Result<EntryFields<'b>, FleetError> {
        if !self.object {
            return Err(FleetError::BadSnapshot("entry is not an object".into()));
        }
        let [id, device, site] = self.strings;
        let id = match id {
            Member::Absent => default_id,
            id => id.get(input, escaped),
        };
        let numbers = self.numbers.map(|v| Some((!v.is_nan()).then_some(v)));
        EntryFields::from_members(
            id,
            device.get(input, escaped),
            site.get(input, escaped),
            numbers,
        )
    }
}

/// An O(1) view of the registry at one moment: the entries and their
/// write stamps, shared rather than copied. Later writes do not change
/// a snapshot.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// The entries, sorted by id.
    pub entries: Arc<Vec<FleetEntry>>,
    /// Write stamp of each entry, parallel to `entries`.
    pub stamps: Arc<Vec<u64>>,
    /// The stamp the next write will get: every stamp in this snapshot
    /// is below it.
    pub next_stamp: u64,
}

/// The deterministic in-memory fleet store.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRegistry {
    entries: Arc<Vec<FleetEntry>>,
    /// Write stamp of each entry, parallel to `entries`.
    stamps: Arc<Vec<u64>>,
    /// The stamp the next successful upsert gets. Never reset.
    next_stamp: u64,
    generation: u64,
}

impl FleetRegistry {
    /// An empty registry at generation 0.
    pub fn new() -> Self {
        Self {
            entries: Arc::new(Vec::new()),
            stamps: Arc::new(Vec::new()),
            next_stamp: 0,
            generation: 0,
        }
    }

    /// Entries sorted by id.
    pub fn entries(&self) -> &[FleetEntry] {
        &self.entries
    }

    /// The entries sorted by id with their write stamps, shared rather
    /// than copied: O(1) however large the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            entries: Arc::clone(&self.entries),
            stamps: Arc::clone(&self.stamps),
            next_stamp: self.next_stamp,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mutation counter: bumps on every successful upsert/remove, and
    /// participates in server cache keys.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: &str) -> Option<&FleetEntry> {
        self.entries
            .binary_search_by(|e| e.id.as_str().cmp(id))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Validates and inserts an entry, replacing any entry with the
    /// same id, and gives it a fresh write stamp. Keeps the store sorted
    /// by id.
    pub fn upsert(&mut self, entry: FleetEntry) -> Result<(), FleetError> {
        let entry = entry.validate()?;
        let entries = Arc::make_mut(&mut self.entries);
        let stamps = Arc::make_mut(&mut self.stamps);
        match entries.binary_search_by(|e| e.id.as_str().cmp(&entry.id)) {
            Ok(i) => {
                entries[i] = entry;
                stamps[i] = self.next_stamp;
            }
            Err(i) => {
                entries.insert(i, entry);
                stamps.insert(i, self.next_stamp);
            }
        }
        self.next_stamp += 1;
        self.generation += 1;
        Ok(())
    }

    /// Removes an entry (and its stamp) by id; returns whether it
    /// existed.
    pub fn remove(&mut self, id: &str) -> bool {
        match self.entries.binary_search_by(|e| e.id.as_str().cmp(id)) {
            Ok(i) => {
                Arc::make_mut(&mut self.entries).remove(i);
                Arc::make_mut(&mut self.stamps).remove(i);
                self.generation += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Serialises the registry as a JSONL snapshot (one canonical line
    /// per entry, sorted by id).
    pub fn to_jsonl(&self) -> String {
        let docs: Vec<Json> = self.entries.iter().map(FleetEntry::to_json).collect();
        json::to_jsonl(&docs)
    }

    /// Loads a registry from a JSONL snapshot. Blank lines are skipped;
    /// entries are re-validated, and the loaded registry starts at
    /// generation 0 regardless of the writing registry's history. The
    /// write stamps the load's upserts issued are kept.
    pub fn from_jsonl(text: &str) -> Result<Self, FleetError> {
        let docs = json::parse_jsonl(text).map_err(|e| FleetError::BadSnapshot(e.to_string()))?;
        let mut registry = Self::new();
        for doc in &docs {
            registry.upsert(FleetEntry::from_json(doc)?)?;
        }
        registry.generation = 0;
        Ok(registry)
    }

    /// A deterministic demo fleet: `count` entries cycling through the
    /// device catalog over a spread of altitudes, shields, thermal
    /// fields and AVFs. Same `(seed, count)` → identical registry.
    pub fn demo(seed: u64, count: usize) -> Self {
        const ALTITUDES: [f64; 5] = [10.0, 350.0, 1_609.0, 2_231.0, 3_094.0];
        const SHIELDS: [f64; 4] = [0.0, 1.0e18, 1.0e19, 1.0e20];
        const SITES: [&str; 5] = [
            "nyc-dc1",
            "denver-edge",
            "leadville-lab",
            "los-alamos-hpc",
            "sea-level-colo",
        ];
        let devices = tn_devices::all_compute_devices();
        let mut rng = tn_rng::Rng::seed_from_u64(seed).fork(0xf1ee7);
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        let mut registry = Self::new();
        for i in 0..count {
            let device = &devices[i % devices.len()];
            let entry = FleetEntry {
                id: format!("node-{i:04}"),
                device: device.name().to_string(),
                site: SITES[rng.gen_range(0..SITES.len())].to_string(),
                altitude_m: ALTITUDES[rng.gen_range(0..ALTITUDES.len())],
                rigidity_factor: 1.0,
                b10_areal_cm2: SHIELDS[rng.gen_range(0..SHIELDS.len())],
                thermal_scaling: round3(0.5 + 1.5 * rng.gen_f64()),
                avf: round3(0.3 + 0.7 * rng.gen_f64()),
            };
            registry
                .upsert(entry)
                .expect("demo entries are valid by construction");
        }
        registry.generation = 0;
        registry
    }
}

impl Default for FleetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_keeps_entries_sorted_and_bumps_generation() {
        let mut r = FleetRegistry::new();
        r.upsert(FleetEntry::new("b", "NVIDIA K20")).unwrap();
        r.upsert(FleetEntry::new("a", "Intel Xeon Phi")).unwrap();
        assert_eq!(r.generation(), 2);
        let ids: Vec<&str> = r.entries().iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["a", "b"]);
        // Replacing by id does not grow the store.
        let mut replacement = FleetEntry::new("a", "NVIDIA K20");
        replacement.avf = 0.5;
        r.upsert(replacement).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a").unwrap().avf, 0.5);
        assert_eq!(r.generation(), 3);
        assert!(r.remove("a"));
        assert!(!r.remove("a"));
        assert_eq!(r.generation(), 4);

        // Snapshots share the entries until a write, and a write leaves
        // every earlier snapshot as it was.
        let before_upsert = r.snapshot().entries;
        assert!(
            Arc::ptr_eq(&before_upsert, &r.snapshot().entries),
            "no write, no copy"
        );
        r.upsert(FleetEntry::new("c", "NVIDIA K20")).unwrap();
        assert_eq!((before_upsert.len(), r.len()), (1, 2));
        assert_eq!(before_upsert.as_slice(), &r.entries()[..1]);
        let before_remove = r.snapshot().entries;
        assert!(r.remove("b"));
        assert_eq!(before_remove.len(), 2);
        let ids: Vec<&str> = before_remove.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["b", "c"]);
    }

    /// Every stamp in the registry is distinct and below `next_stamp`.
    fn assert_stamps_unique(r: &FleetRegistry) {
        let snap = r.snapshot();
        assert_eq!(snap.stamps.len(), snap.entries.len());
        let distinct: std::collections::BTreeSet<u64> = snap.stamps.iter().copied().collect();
        assert_eq!(distinct.len(), snap.stamps.len(), "{:?}", snap.stamps);
        assert!(snap.stamps.iter().all(|&s| s < snap.next_stamp));
    }

    fn stamp_of(r: &FleetRegistry, id: &str) -> u64 {
        let i = r
            .entries()
            .iter()
            .position(|e| e.id == id)
            .expect("present");
        r.snapshot().stamps[i]
    }

    #[test]
    fn writes_stamp_only_the_entry_they_touch() {
        let mut r = FleetRegistry::demo(2020, 12);
        assert_stamps_unique(&r);
        let before = r.snapshot();
        // A new id, between existing ones: everything else keeps its
        // stamp, and the new entry gets a stamp no entry had.
        r.upsert(FleetEntry::new("node-0003a", "NVIDIA K20"))
            .unwrap();
        assert_stamps_unique(&r);
        let fresh = stamp_of(&r, "node-0003a");
        assert!(fresh >= before.next_stamp);
        for (entry, stamp) in before.entries.iter().zip(before.stamps.iter()) {
            assert_eq!(stamp_of(&r, &entry.id), *stamp, "{}", entry.id);
        }
        // A byte-identical re-upsert still counts as a write.
        let same = r.get("node-0005").unwrap().clone();
        let old = stamp_of(&r, "node-0005");
        r.upsert(same).unwrap();
        assert!(stamp_of(&r, "node-0005") > old.max(fresh));
        // A delete then re-insert of the same id gets a fresh stamp too.
        let gone = r.get("node-0007").unwrap().clone();
        let old = stamp_of(&r, "node-0007");
        assert!(r.remove("node-0007"));
        assert_stamps_unique(&r);
        r.upsert(gone).unwrap();
        assert!(stamp_of(&r, "node-0007") > old);
        assert_stamps_unique(&r);
        // Neither failed write moves anything.
        let next = r.snapshot().next_stamp;
        assert!(!r.remove("no-such-node"));
        assert!(r.upsert(FleetEntry::new("x", "PDP-11")).is_err());
        assert_eq!(r.snapshot().next_stamp, next);
        // The generation counts the four writes since the load; stamps
        // went to the twelve loaded entries and the three upserts.
        assert_eq!(r.generation(), 4);
        assert_eq!(next, 12 + 3);
    }

    #[test]
    fn loaded_registries_stamp_every_entry_distinctly() {
        let demo = FleetRegistry::demo(7, 40);
        assert_stamps_unique(&demo);
        assert_eq!(demo.generation(), 0);
        let loaded = FleetRegistry::from_jsonl(&demo.to_jsonl()).unwrap();
        assert_stamps_unique(&loaded);
        assert_eq!(loaded.generation(), 0);
        assert_eq!(loaded.snapshot().next_stamp, 40);
    }

    #[test]
    fn stamped_snapshots_are_shared_not_copied() {
        let mut r = FleetRegistry::demo(3, 16);
        let (a, b) = (r.snapshot(), r.snapshot());
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        assert!(Arc::ptr_eq(&a.stamps, &b.stamps));
        assert_eq!(a.next_stamp, b.next_stamp);
        // With no snapshot alive, a write mutates in place.
        drop((a, b));
        let (entries, stamps) = (r.entries().as_ptr(), r.snapshot().stamps.as_ptr());
        r.upsert(FleetEntry::new("node-0001", "NVIDIA K20"))
            .unwrap();
        assert_eq!(r.entries().as_ptr(), entries);
        assert_eq!(r.snapshot().stamps.as_ptr(), stamps);
    }

    #[test]
    fn validation_rejects_bad_entries() {
        assert_eq!(
            FleetEntry::new("", "NVIDIA K20").validate().unwrap_err(),
            FleetError::EmptyId
        );
        assert!(matches!(
            FleetEntry::new("x", "PDP-11").validate().unwrap_err(),
            FleetError::UnknownDevice(_)
        ));
        let mut e = FleetEntry::new("x", "NVIDIA K20");
        e.altitude_m = 99_999.0;
        assert!(matches!(
            e.validate().unwrap_err(),
            FleetError::AltitudeOutOfRange(_)
        ));
        let mut e = FleetEntry::new("x", "NVIDIA K20");
        e.avf = 0.0;
        assert!(matches!(
            e.validate().unwrap_err(),
            FleetError::BadField { field: "avf", .. }
        ));
        let mut e = FleetEntry::new("x", "NVIDIA K20");
        e.b10_areal_cm2 = -1.0;
        assert!(matches!(
            e.validate().unwrap_err(),
            FleetError::BadField {
                field: "b10_areal_cm2",
                ..
            }
        ));
    }

    #[test]
    fn default_ids_fill_only_an_absent_id() {
        let default = || Some("inline-0007".to_string());
        let doc = |text: &str| json::parse(text).unwrap();
        let absent = FleetEntry::from_json_or_id(&doc(r#"{"device":"NVIDIA K20"}"#), default());
        assert_eq!(absent.unwrap().id, "inline-0007");
        let given = doc(r#"{"device":"NVIDIA K20","id":"mine"}"#);
        assert_eq!(
            FleetEntry::from_json_or_id(&given, default()).unwrap().id,
            "mine"
        );
        assert_eq!(
            FleetEntry::from_json_or_id(&doc(r#"{"device":"NVIDIA K20","id":7}"#), default()),
            Err(FleetError::EmptyId)
        );
        assert!(matches!(
            FleetEntry::from_json_or_id(&Json::Num(1.0), default()),
            Err(FleetError::BadSnapshot(_))
        ));
        assert_eq!(
            FleetEntry::from_json(&doc(r#"{"device":"NVIDIA K20"}"#)),
            Err(FleetError::EmptyId)
        );
    }

    /// Whether two entries hold equal strings and numbers of equal bits.
    fn same_bits(a: &FleetEntry, b: &FleetEntry) -> bool {
        let numbers = |e: &FleetEntry| {
            [
                e.altitude_m,
                e.rigidity_factor,
                e.b10_areal_cm2,
                e.thermal_scaling,
                e.avf,
            ]
            .map(f64::to_bits)
        };
        (&a.id, &a.device, &a.site) == (&b.id, &b.device, &b.site) && numbers(a) == numbers(b)
    }

    /// The key of a run of entries, if each is valid.
    fn cache_key(entries: &[&FleetEntry]) -> Option<Vec<u8>> {
        let mut key = Vec::new();
        for entry in entries {
            entry.fields().push_cache_key(&mut key).ok()?;
        }
        Some(key)
    }

    #[test]
    fn cache_keys_are_equal_exactly_when_the_bits_are() {
        // Small pools, so equal fields are common: strings that move
        // bytes between fields or hold `:`, `|` and digits, device names
        // that differ in case, and numbers one ulp apart or differing
        // only in the sign of zero. Some draws are invalid (an empty id,
        // an AVF above 1) and have no key.
        const TEXTS: [&str; 10] = ["", "a", "ab", "b", "bc", "1", "1:", ":1", "1:a", "a|2"];
        const DEVICES: [&str; 4] = ["NVIDIA K20", "nvidia k20", "NVIDIA K20 ", "Intel Xeon Phi"];
        let one_up = f64::from_bits(1.0f64.to_bits() + 1);
        let numbers = [0.0, -0.0, 1.0, one_up, 1e3, 0.5];
        let mut rng = tn_rng::Rng::seed_from_u64(19);
        let mut pick = |n: usize| rng.gen_range(0..n);
        // Twenty random bases; each entry copies one and redraws at most
        // one field, so equal entries and near misses are both common.
        let mut entries: Vec<FleetEntry> = Vec::new();
        for i in 0..400 {
            let mut e = if i < 20 {
                FleetEntry::new(TEXTS[1 + pick(TEXTS.len() - 1)], DEVICES[pick(2)])
            } else {
                entries[pick(20)].clone()
            };
            let text = TEXTS[pick(TEXTS.len())].to_string();
            let number = numbers[pick(numbers.len())];
            match if i < 20 { 2 } else { pick(10) } {
                0 => e.id = text,
                1 => e.device = DEVICES[pick(DEVICES.len())].to_string(),
                2 => e.site = text,
                3 => e.altitude_m = number,
                4 => e.rigidity_factor = number,
                5 => e.b10_areal_cm2 = number,
                6 => e.thermal_scaling = number,
                7 => e.avf = number,
                _ => {}
            }
            entries.push(e);
        }
        // An entry has a key exactly when it is valid, and keys compare
        // as the validated entries do: the device by its catalog entry.
        let mut valid = Vec::new();
        let mut keys = Vec::new();
        for e in &entries {
            let (validated, key) = (e.clone().validate(), cache_key(&[e]));
            assert_eq!(validated.is_ok(), key.is_some(), "{e:?}");
            valid.extend(validated.ok());
            keys.extend(key);
        }
        assert!(valid.len() > 200, "{} valid entries", valid.len());
        let mut equal_pairs = 0;
        for (a, key_a) in valid.iter().zip(&keys) {
            for (b, key_b) in valid.iter().zip(&keys) {
                assert_eq!(key_a == key_b, same_bits(a, b), "{a:?} vs {b:?}");
                equal_pairs += usize::from(key_a == key_b);
            }
        }
        // Beyond each entry with itself, equal pairs are common too.
        assert!(equal_pairs > 2 * valid.len(), "{equal_pairs} equal pairs");
        // Runs of entries are keyed as exactly too: two-entry runs over
        // the first 24 valid entries.
        let runs: Vec<([&FleetEntry; 2], Vec<u8>)> = valid[..24]
            .iter()
            .flat_map(|a| valid[..24].iter().map(move |b| [a, b]))
            .map(|run| (run, cache_key(&run).expect("valid entries")))
            .collect();
        for (run_a, key_a) in &runs {
            for (run_b, key_b) in &runs {
                let same = same_bits(run_a[0], run_b[0]) && same_bits(run_a[1], run_b[1]);
                assert_eq!(key_a == key_b, same, "{run_a:?} vs {run_b:?}");
            }
        }

        // Bytes moved between `id` and `site`, and between an entry and
        // the next, give different keys.
        let entry = |id: &str, site: &str| {
            let mut e = FleetEntry::new(id, "NVIDIA K20");
            e.site = site.to_string();
            e
        };
        assert_ne!(
            cache_key(&[&entry("ab", "c")]),
            cache_key(&[&entry("a", "bc")])
        );
        assert_ne!(
            cache_key(&[&entry("a1", "")]),
            cache_key(&[&entry("a", "1")])
        );
        let (x, y) = (entry("a", "b:"), entry("c", ""));
        let (x2, y2) = (entry("a", "b"), entry(":c", ""));
        assert_ne!(cache_key(&[&x, &y]), cache_key(&[&x2, &y2]));
        // The sign of zero is kept; number spelling is not seen at all.
        let mut negative = entry("a", "");
        negative.b10_areal_cm2 = -0.0;
        assert_ne!(cache_key(&[&negative]), cache_key(&[&entry("a", "")]));
        let spelled = |text: &str| {
            let text = format!(r#"{{"id":"a","device":"nvidia k20","altitude_m":{text}}}"#);
            let doc = json::parse(&text).unwrap();
            cache_key(&[&FleetEntry::from_json(&doc).unwrap()])
        };
        assert_eq!(spelled("1000"), spelled("1e3"));
        assert_eq!(spelled("1000"), spelled("1000.0"));
        // The layout: the id, the device's catalog index and the site,
        // each length-prefixed strings but the index, then the numbers'
        // eight bytes each.
        let (k20, _) = tn_core::find_device_indexed("NVIDIA K20").expect("K20 in the catalog");
        let mut want = vec![1, b'a', k20 as u8, 0];
        for v in [10.0f64, 1.0, 0.0, 1.0, 1.0] {
            want.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(cache_key(&[&entry("a", "")]), Some(want));
    }

    #[test]
    fn device_names_are_canonicalised() {
        let e = FleetEntry::new("x", "nvidia k20").validate().unwrap();
        assert_eq!(e.device, "NVIDIA K20");
    }

    #[test]
    fn jsonl_snapshot_round_trips() {
        let r = FleetRegistry::demo(2020, 12);
        let text = r.to_jsonl();
        let back = FleetRegistry::from_jsonl(&text).unwrap();
        assert_eq!(back.entries(), r.entries());
        // Snapshot text is a fixed point of save -> load -> save.
        assert_eq!(back.to_jsonl(), text);
        // Blank lines are tolerated.
        let padded = format!("\n{text}\n\n");
        assert_eq!(
            FleetRegistry::from_jsonl(&padded).unwrap().entries(),
            r.entries()
        );
    }

    #[test]
    fn snapshot_errors_are_reported() {
        assert!(matches!(
            FleetRegistry::from_jsonl("{nope").unwrap_err(),
            FleetError::BadSnapshot(_)
        ));
        assert!(matches!(
            FleetRegistry::from_jsonl("[1,2]").unwrap_err(),
            FleetError::BadSnapshot(_)
        ));
        let err = FleetRegistry::from_jsonl("{\"id\":\"a\",\"device\":\"PDP-11\"}").unwrap_err();
        assert!(matches!(err, FleetError::UnknownDevice(_)));
    }

    #[test]
    fn demo_fleet_is_deterministic() {
        let a = FleetRegistry::demo(7, 32);
        let b = FleetRegistry::demo(7, 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert_ne!(a, FleetRegistry::demo(8, 32));
        // Every demo entry validates and every catalog device appears.
        let devices: std::collections::BTreeSet<&str> =
            a.entries().iter().map(|e| e.device.as_str()).collect();
        assert_eq!(devices.len(), tn_devices::all_compute_devices().len());
    }
}
