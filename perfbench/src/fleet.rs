//! The two fleet workloads: `fleet_hot` and `fleet_churn`.
//!
//! Both run an in-process epoll `Server` with one shard and one worker,
//! and one poller on one keep-alive connection in a closed loop. The
//! poller writes a request, reads the whole response, records the
//! latency and a digest of the body, and sends the next request.
//!
//! After the timed run, the identical operation sequence is replayed on
//! a fresh `AppState` through the layers' public functions. The
//! replay's response bodies are the byte-level oracle for the timed run.
//! With `--trace 1`, a traced replay then gives the per-layer numbers,
//! and an untraced one after it gives the tracing overhead.

use crate::client::{request_bytes, Client};
use crate::stats::{self, digest, median, secs_since, Floors, Samples, Summary, Windows};
use crate::trace::Tracer;
use crate::{Metric, Outcome, RunConfig};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;
use tn_core::json::{self, Json};
use tn_fleet::{FleetEntry, FleetRegistry, RiskSurface, SiteParams, SurfaceConfig};
use tn_rng::Rng;
use tn_server::http::{Body, RequestParser, Response};
use tn_server::{router, AppState, Server, ServerConfig, ServerHandle};

/// Which traffic mix the poller sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Cached 16-device inline bodies: the serving path without risk work.
    Hot,
    /// Registry writes invalidating whole-registry reads.
    Churn,
}

/// Distinct inline bodies the hot poller cycles through.
const HOT_BODIES: usize = 32;
/// Devices per hot body (about 1.2 KB of JSON).
const HOT_DEVICES: usize = 16;
/// Entries in the churn registry snapshot.
const CHURN_ENTRIES: usize = 1_000;
/// Whole-registry reads after each churn write.
const CHURN_READS: usize = 7;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Width of the windows whose median rate is `throughput_per_s`.
const WINDOW_S: f64 = 1.0;
/// `peak_rss_mb` is read once this many cycles have run (or at the end
/// of a run too short to get there), so it covers a fixed amount of
/// work however fast the host runs.
const RSS_CYCLES: [usize; 2] = [20_000 / HOT_BODIES, 200];
/// Surface builds and snapshot loads timed in the traced replay.
const COMPONENT_REPS: usize = 3;
/// Operation id of spans outside the operation sequence.
const SETUP_OP: u64 = u64::MAX;
/// Server response-cache capacity (the server default).
const CACHE_CAPACITY: usize = 256;
/// The registry the server seeds when no snapshot is given.
const DEMO_FLEET: usize = 24;

#[derive(Debug)]
enum Kind {
    /// `POST /v1/fleet`, with inline devices or for the whole registry.
    Read { inline: bool },
    /// `POST /v1/fleet/entries` or `DELETE /v1/fleet/entries/{id}`.
    Write { upsert: bool, id: String },
}

#[derive(Debug)]
struct Op {
    kind: Kind,
    /// Request body (empty for a delete).
    body: String,
    /// Exact request bytes on the wire.
    wire: Vec<u8>,
}

/// The generated inputs of one fleet workload.
#[derive(Debug)]
struct Plan {
    mix: Mix,
    /// Default seed of the server (and so of its risk surface).
    server_seed: u64,
    /// Churn: the registry snapshot as JSONL.
    snapshot: Option<String>,
    /// Hot: the 32 bodies. Churn: the read, then one op per write.
    ops: Vec<Op>,
    /// Operations before the first timed one (cold request included).
    warm: usize,
}

/// Where op `k` of the sequence comes from and what a read must report.
struct Step<'a> {
    op: &'a Op,
    /// Entries a read response must hold.
    entries: usize,
    /// Whether this read is the first after a registry change (a miss).
    miss: bool,
    /// The churn cycle of a write.
    cycle: Option<usize>,
}

fn round_to(x: f64, step: f64) -> f64 {
    (x / step).round() * step
}

/// A shield density on the surface's grid: 0 or 10¹⁷..10²¹ atoms/cm²,
/// written with three significant digits.
fn b10_text(rng: &mut Rng) -> String {
    if rng.gen_range(0..4usize) == 0 {
        return "0".to_string();
    }
    let mantissa = 1.0 + round_to(8.99 * rng.gen_f64(), 0.01);
    let exponent = rng.gen_range(17..21usize);
    format!("{mantissa:.2}e{exponent}")
}

/// One device object with every value inside the risk surface's grid
/// (altitude 0..4000 m), so no query falls back to Monte Carlo.
fn device_json(rng: &mut Rng, devices: &[String], id: Option<&str>, full: bool) -> String {
    let device = &devices[rng.gen_range(0..devices.len())];
    let altitude = rng.gen_range(0..4_001usize);
    let b10 = b10_text(rng);
    let avf = round_to(0.3 + 0.7 * rng.gen_f64(), 0.001);
    let mut out = format!(
        "{{\"altitude_m\":{altitude},\"avf\":{avf},\"b10_areal_cm2\":{b10},\"device\":\"{device}\""
    );
    if let Some(id) = id {
        out.push_str(&format!(",\"id\":\"{id}\""));
    }
    if full {
        let rigidity = round_to(0.8 + 0.4 * rng.gen_f64(), 0.01);
        let site = [
            "nyc-dc1",
            "denver-edge",
            "leadville-lab",
            "los-alamos-hpc",
            "sea-level-colo",
        ][rng.gen_range(0..5usize)];
        let thermal = round_to(0.5 + 1.5 * rng.gen_f64(), 0.001);
        out.push_str(&format!(
            ",\"rigidity_factor\":{rigidity},\"site\":\"{site}\",\"thermal_scaling\":{thermal}"
        ));
    }
    out.push('}');
    out
}

impl Plan {
    fn new(mix: Mix, seed: u64, seconds: f64) -> Self {
        let devices: Vec<String> = tn_devices::all_compute_devices()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let root = Rng::seed_from_u64(seed);
        let server_seed = root.fork(1).next_u64() >> 16;
        match mix {
            Mix::Hot => {
                let mut rng = root.fork(2);
                let ops = (0..HOT_BODIES)
                    .map(|_| {
                        let items: Vec<String> = (0..HOT_DEVICES)
                            .map(|_| device_json(&mut rng, &devices, None, false))
                            .collect();
                        let body = format!("{{\"devices\":[{}]}}", items.join(","));
                        Op {
                            kind: Kind::Read { inline: true },
                            wire: request_bytes("POST", "/v1/fleet", &body),
                            body,
                        }
                    })
                    .collect();
                Plan {
                    mix,
                    server_seed,
                    snapshot: None,
                    ops,
                    warm: HOT_BODIES,
                }
            }
            Mix::Churn => {
                let mut rng = root.fork(3);
                let mut snapshot = String::with_capacity(CHURN_ENTRIES * 200);
                for i in 0..CHURN_ENTRIES {
                    snapshot.push_str(&device_json(
                        &mut rng,
                        &devices,
                        Some(&format!("dev-{i:04}")),
                        true,
                    ));
                    snapshot.push('\n');
                }
                let read_body = "{}".to_string();
                let mut ops = vec![Op {
                    kind: Kind::Read { inline: false },
                    wire: request_bytes("POST", "/v1/fleet", &read_body),
                    body: read_body,
                }];
                // About ten times the cycles a run completes; the timed
                // loop stops early if it ever runs out.
                let cycles = (seconds * 1_000.0).ceil() as usize + 1;
                let mut rng = root.fork(4);
                for c in 0..cycles {
                    let id = format!("new-{:06}", c / 2);
                    ops.push(if c % 2 == 0 {
                        let json = device_json(&mut rng, &devices, Some(&id), true);
                        Op {
                            kind: Kind::Write { upsert: true, id },
                            wire: request_bytes("POST", "/v1/fleet/entries", &json),
                            body: json,
                        }
                    } else {
                        Op {
                            wire: request_bytes("DELETE", &format!("/v1/fleet/entries/{id}"), ""),
                            kind: Kind::Write { upsert: false, id },
                            body: String::new(),
                        }
                    });
                }
                Plan {
                    mix,
                    server_seed,
                    snapshot: Some(snapshot),
                    ops,
                    warm: CHURN_READS,
                }
            }
        }
    }

    /// Operations in one churn cycle (one write, then the reads).
    const CYCLE: usize = 1 + CHURN_READS;

    /// Operations in one repeating cycle of the timed sequence.
    fn cycle_len(&self) -> usize {
        match self.mix {
            Mix::Hot => HOT_BODIES,
            Mix::Churn => Self::CYCLE,
        }
    }

    /// Most timed operations this plan has inputs for.
    fn max_timed(&self, seconds: f64) -> usize {
        match self.mix {
            Mix::Hot => (seconds * 100_000.0).ceil() as usize,
            Mix::Churn => (self.ops.len() - 1) * Self::CYCLE,
        }
    }

    /// Operation `k` of the sequence (warm-up first, then timed).
    fn step(&self, k: usize) -> Step<'_> {
        match self.mix {
            Mix::Hot => Step {
                op: &self.ops[k % HOT_BODIES],
                entries: HOT_DEVICES,
                miss: k < HOT_BODIES,
                cycle: None,
            },
            Mix::Churn if k < self.warm => Step {
                op: &self.ops[0],
                entries: CHURN_ENTRIES,
                miss: k == 0,
                cycle: None,
            },
            Mix::Churn => {
                let (cycle, j) = ((k - self.warm) / Self::CYCLE, (k - self.warm) % Self::CYCLE);
                // Even cycles insert a new entry, odd cycles delete it.
                let entries = CHURN_ENTRIES + usize::from(cycle % 2 == 0);
                if j == 0 {
                    Step {
                        op: &self.ops[1 + cycle],
                        entries,
                        miss: false,
                        cycle: Some(cycle),
                    }
                } else {
                    Step {
                        op: &self.ops[0],
                        entries,
                        miss: j == 1,
                        cycle: None,
                    }
                }
            }
        }
    }

    /// The body a churn write must answer with.
    fn write_reply(&self, step: &Step<'_>, out: &mut String) {
        use std::fmt::Write;
        out.clear();
        if let (Kind::Write { upsert, id }, Some(cycle)) = (&step.op.kind, step.cycle) {
            let op = if *upsert { "upsert" } else { "delete" };
            let _ = write!(
                out,
                "{{\"op\":\"{op}\",\"id\":\"{id}\",\"generation\":{},\"count\":{}}}",
                cycle + 1,
                step.entries
            );
        }
    }

    fn server_config(&self, snapshot_path: Option<&std::path::Path>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            seed: self.server_seed,
            fleet_path: snapshot_path.map(|p| p.display().to_string()),
            ..ServerConfig::default()
        }
    }

    fn fresh_registry(&self) -> FleetRegistry {
        match &self.snapshot {
            None => FleetRegistry::demo(self.server_seed, DEMO_FLEET),
            Some(text) => FleetRegistry::from_jsonl(text).expect("generated snapshot is valid"),
        }
    }
}

/// Per-operation record of the timed run.
struct Record {
    digests: Vec<u64>,
    ok: Vec<bool>,
}

impl Record {
    fn with_capacity(n: usize) -> Self {
        Self {
            digests: Vec::with_capacity(n),
            ok: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, digest: u64, ok: bool) {
        self.digests.push(digest);
        self.ok.push(ok);
    }
}

/// Sends op `k` and records its digest; returns the body length.
fn send(
    client: &mut Client,
    plan: &Plan,
    k: usize,
    expect: &mut String,
    record: &mut Record,
    out: &mut Outcome,
) -> usize {
    let step = plan.step(k);
    match client.exchange(&step.op.wire) {
        Ok(reply) => {
            let body = client.body(&reply);
            let mut ok = reply.status == 200;
            if !ok {
                out.note(format!("op {k}: HTTP {}", reply.status));
            }
            if step.cycle.is_some() {
                plan.write_reply(&step, expect);
                if body != expect.as_bytes() {
                    ok = false;
                    out.note(format!(
                        "op {k}: write answered {:?}, expected {expect:?}",
                        String::from_utf8_lossy(body)
                    ));
                }
            }
            record.push(digest(body), ok);
            reply.body_len()
        }
        Err(e) => {
            out.note(format!("op {k}: {e}"));
            record.push(0, false);
            0
        }
    }
}

/// One server set-up: bind (loading the snapshot), spawn, connect, the
/// cold first request and the cache warm-up.
fn set_up(
    plan: &Plan,
    config: &ServerConfig,
    expect: &mut String,
    out: &mut Outcome,
) -> Result<(ServerHandle, Client, Record, f64), String> {
    let started = Instant::now();
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let buffer = if plan.mix == Mix::Hot {
        64 << 10
    } else {
        2 << 20
    };
    let mut client = Client::connect(handle.addr(), buffer)?;
    let mut record = Record::with_capacity(plan.warm);
    for k in 0..plan.warm {
        if client.needs_reconnect() {
            client.reconnect()?;
        }
        send(&mut client, plan, k, expect, &mut record, out);
    }
    Ok((handle, client, record, secs_since(started)))
}

/// One more set-up after the timed run, stopped at once: its time and
/// its warm-up record.
fn extra_set_up(
    plan: &Plan,
    config: &ServerConfig,
    expect: &mut String,
    out: &mut Outcome,
) -> Result<(f64, Record), String> {
    let (handle, client, record, secs) = set_up(plan, config, expect, out)?;
    drop(client);
    handle.stop();
    Ok((secs, record))
}

/// Cache counters read from the server's `/metrics` text.
fn cache_counters(state: &AppState) -> [u64; 3] {
    let text = state.metrics.render();
    let read = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or(0)
    };
    [
        read("tn_cache_hits_total"),
        read("tn_cache_misses_total"),
        read("tn_cache_coalesced_total"),
    ]
}

/// What the timed run measured.
struct Timed {
    config: ServerConfig,
    samples: Samples,
    floors: Floors,
    windows: Windows,
    record: Record,
    warm_record: Record,
    first_setup_s: f64,
    peak_rss_mb: f64,
    cache: [u64; 3],
    cache_entries: usize,
    reconnects: u64,
    body_bytes: u64,
}

fn timed_run(plan: &Plan, run: &RunConfig, out: &mut Outcome) -> Result<Timed, String> {
    let snapshot_path = match &plan.snapshot {
        Some(text) => {
            let path = crate::out_dir().join(format!("fleet-{}.jsonl", run.seed));
            std::fs::create_dir_all(crate::out_dir()).map_err(|e| format!("out dir: {e}"))?;
            std::fs::write(&path, text).map_err(|e| format!("snapshot: {e}"))?;
            Some(path)
        }
        None => None,
    };
    let config = plan.server_config(snapshot_path.as_deref());
    let mut expect = String::with_capacity(256);
    // The timed server is the first set-up. The others run after the
    // timed run: servers started and stopped before it would leave
    // allocator arenas behind that change its peak RSS from run to run.
    let (handle, mut client, warm_record, first_setup_s) = set_up(plan, &config, &mut expect, out)?;

    let max = plan.max_timed(run.seconds);
    let mut samples = Samples::with_capacity(max);
    let mut record = Record::with_capacity(max);
    let mut body_bytes = 0u64;
    let cache_before = cache_counters(handle.state());
    let started = Instant::now();
    let mut k = plan.warm;
    // Churn stops only at cycle boundaries so every run reads 6 hits
    // per miss; the hot mix may stop after any request.
    let stride = if plan.mix == Mix::Churn {
        Plan::CYCLE
    } else {
        1
    };
    let mut windows = Windows::new(WINDOW_S, run.seconds);
    let mut floors = Floors::new(plan.cycle_len());
    let rss_at = RSS_CYCLES[usize::from(plan.mix == Mix::Churn)] * plan.cycle_len();
    let mut peak_rss_mb = None;
    loop {
        let elapsed = secs_since(started);
        windows.tick(elapsed, record.ok.len() as u64);
        if elapsed >= run.seconds || record.ok.len() + stride > max {
            break;
        }
        for _ in 0..stride {
            if client.needs_reconnect() {
                client.reconnect()?;
            }
            let t = Instant::now();
            body_bytes += send(&mut client, plan, k, &mut expect, &mut record, out) as u64;
            let elapsed = t.elapsed();
            samples.push(elapsed);
            floors.observe(k - plan.warm, elapsed);
            k += 1;
        }
        if record.ok.len() == rss_at {
            peak_rss_mb = Some(stats::peak_rss_mb());
        }
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(stats::peak_rss_mb);
    let after = cache_counters(handle.state());
    let cache = [0, 1, 2].map(|i| after[i] - cache_before[i]);
    let cache_entries = handle.state().cache.len();
    let reconnects = client.reconnects;
    drop(client);
    handle.stop();
    Ok(Timed {
        config,
        samples,
        floors,
        windows,
        record,
        warm_record,
        first_setup_s,
        peak_rss_mb,
        cache,
        cache_entries,
        reconnects,
        body_bytes,
    })
}

/// Checks the invariants of a `/v1/fleet` response body with a scanner
/// of its own (independent of the server's JSON code): `count` and the
/// number of results equal the entries asked for, `mc_fallbacks` is 0,
/// and each of `totals` equals the sum of its per-entry `total_fit`
/// within 1e-9 relative.
pub fn check_fleet_body(body: &[u8], entries: usize) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let number_after = |from: usize, key: &str| -> Result<(f64, usize), String> {
        let at = text[from..]
            .find(key)
            .map(|i| from + i + key.len())
            .ok_or_else(|| format!("no {key} in body"))?;
        let end = text[at..]
            .find([',', '}', ']'])
            .map_or(text.len(), |i| at + i);
        let value = text[at..end]
            .parse::<f64>()
            .map_err(|_| format!("{key} is not a number: {:?}", &text[at..end]))?;
        Ok((value, end))
    };
    let (count, _) = number_after(0, "\"count\":")?;
    let (fallbacks, _) = number_after(0, "\"mc_fallbacks\":")?;
    let (sdc_total, at) = number_after(0, "\"totals\":{\"sdc_fit\":")?;
    let (due_total, _) = number_after(at, "\"due_fit\":")?;
    let results = text.find("\"results\":[").ok_or("no results array")?;
    let (mut sums, mut found) = ([0.0f64; 2], [0usize; 2]);
    for (i, class) in ["\"sdc\":{", "\"due\":{"].iter().enumerate() {
        let mut from = results;
        while let Some(pos) = text[from..].find(class) {
            let (value, end) = number_after(from + pos, "\"total_fit\":")?;
            sums[i] += value;
            found[i] += 1;
            from = end;
        }
    }
    if count != entries as f64 || found != [entries, entries] {
        return Err(format!(
            "count {count} with {found:?} results, expected {entries}"
        ));
    }
    if fallbacks != 0.0 {
        return Err(format!("{fallbacks} Monte-Carlo fallbacks"));
    }
    for (sum, total) in sums.iter().zip([sdc_total, due_total]) {
        if (sum - total).abs() > 1e-9 * total.abs().max(f64::MIN_POSITIVE) {
            return Err(format!("totals {total:e} != sum of entries {sum:e}"));
        }
    }
    Ok(())
}

/// What one replay measured.
struct Replay {
    /// Wall time of the operation loop, checks excluded.
    wall_s: f64,
    tracer: Tracer,
    /// Transport counters of one quick surface build.
    build_transport: crate::transport::Counters,
    /// Request body bytes per op, for ns-per-byte.
    body_len: Vec<usize>,
    /// Entries assessed per op (misses only).
    assessed: Vec<usize>,
}

/// Builds the quick risk surface and loads the snapshot a few times,
/// each in a span outside the operation sequence. Returns the transport
/// counters of the first build.
fn time_components(
    plan: &Plan,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> crate::transport::Counters {
    let mut first_build = None;
    for _ in 0..COMPONENT_REPS {
        let before = crate::transport::Counters::now();
        drop(tracer.time("fleet.surface.build", SETUP_OP, || {
            RiskSurface::build(SurfaceConfig::quick(plan.server_seed))
        }));
        first_build.get_or_insert_with(|| crate::transport::Counters::now().since(&before));
        if let Some(text) = &plan.snapshot {
            let loaded = tracer.time("fleet.registry.load", SETUP_OP, || {
                FleetRegistry::from_jsonl(text)
            });
            if loaded.is_err() {
                out.fail("the generated snapshot does not load".to_string());
            }
        }
    }
    first_build.unwrap_or_default()
}

/// Replays operations `0..timed.len()` in process and checks every
/// response against the timed run's digest. The oracle alone needs only
/// `RequestParser` and `router::handle`; a `full` replay runs the whole
/// request chain (`wants_worker` and `to_bytes` too) and then passes each
/// operation's inputs through the component calls the per-layer table
/// names.
fn replay(
    plan: &Plan,
    timed: &[u64],
    failed: &mut [bool],
    on: bool,
    full: bool,
    out: &mut Outcome,
    between: &mut dyn FnMut(usize),
) -> Replay {
    let ops = timed.len();
    let mut tracer = Tracer::new(on, ops * 10 + 64);
    let build_transport = if on {
        time_components(plan, &mut tracer, out)
    } else {
        crate::transport::Counters::default()
    };
    let mut body_len = Vec::with_capacity(ops);
    let mut assessed = Vec::with_capacity(ops);

    let registry = plan.fresh_registry();
    let mut copy = registry.clone();
    let state = AppState::with_registry(plan.server_seed, CACHE_CAPACITY, 1, registry);
    let mut surface: Option<Arc<RiskSurface>> = None;
    let mut checked = std::collections::HashMap::new();
    // Time spent checking, or in `between`, is not replay time.
    let mut excluded = std::time::Duration::ZERO;
    let started = Instant::now();
    for (k, &timed_digest) in timed.iter().enumerate() {
        let pause = Instant::now();
        between(k);
        excluded += pause.elapsed();
        let step = plan.step(k);
        let op = k as u64;
        let root = tracer.open("fleet.op", op);
        let parsed = tracer.time("server.http.parse", op, || {
            let mut parser = RequestParser::new();
            parser.push(&step.op.wire);
            parser.try_next()
        });
        let Ok(Some(request)) = parsed else {
            tracer.close(root);
            failed[k] = true;
            out.note(format!("op {k}: the request does not parse"));
            body_len.push(0);
            assessed.push(0);
            continue;
        };
        if full {
            std::hint::black_box(tracer.time("server.router.wants_worker", op, || {
                router::wants_worker(&state, &request)
            }));
        }
        let response: Response = tracer.time("server.router.handle", op, || {
            router::handle(&state, &request)
        });
        if full {
            std::hint::black_box(
                tracer.time("server.http.to_bytes", op, || response.to_bytes(true)),
            );
        }

        // The same inputs through the component calls. A delete has no
        // body, and its handler parses none.
        let doc = (full && !step.op.body.is_empty())
            .then(|| tracer.time("core.json.parse", op, || json::parse(&step.op.body)));
        let mut entries_assessed = 0;
        match (&step.op.kind, doc) {
            _ if !full => {}
            (Kind::Read { inline: true }, Some(Ok(doc))) => {
                let entries: Vec<FleetEntry> = tracer.time("fleet.entry.from_json", op, || {
                    let items = doc.get("devices").and_then(Json::as_array).unwrap_or(&[]);
                    items
                        .iter()
                        .enumerate()
                        .filter_map(|(i, item)| {
                            let Json::Object(fields) = item else {
                                return None;
                            };
                            let mut fields = fields.clone();
                            fields.push(("id".into(), Json::Str(format!("inline-{i:04}"))));
                            FleetEntry::from_json(&Json::Object(fields)).ok()
                        })
                        .collect()
                });
                std::hint::black_box(tracer.time("core.json.canonical", op, || {
                    Json::Array(entries.iter().map(FleetEntry::to_json).collect())
                        .to_canonical_string()
                }));
                if step.miss {
                    entries_assessed =
                        assess(&state, plan, &mut surface, &entries, &mut tracer, op);
                }
            }
            (Kind::Read { inline: false }, Some(Ok(_))) => {
                let entries =
                    tracer.time("fleet.registry.snapshot", op, || copy.entries().to_vec());
                if step.miss {
                    entries_assessed =
                        assess(&state, plan, &mut surface, &entries, &mut tracer, op);
                }
            }
            (Kind::Write { upsert: true, .. }, Some(Ok(doc))) => {
                let entry = FleetEntry::from_json(&doc).expect("generated entries are valid");
                tracer.time("fleet.registry.write", op, || copy.upsert(entry).is_ok());
            }
            (Kind::Write { upsert: false, id }, None) => {
                tracer.time("fleet.registry.write", op, || copy.remove(id));
            }
            _ => {
                failed[k] = true;
                out.note(format!("op {k}: request body does not parse"));
            }
        }
        tracer.close(root);
        body_len.push(step.op.body.len());
        assessed.push(entries_assessed);

        let check = Instant::now();
        let body = match &response.body {
            Body::Full(text) => text.as_bytes(),
            Body::Chunked(_) => &[],
        };
        let d = digest(body);
        let mut ok = response.status == 200 && d == timed_digest;
        if !ok {
            out.note(format!(
                "op {k}: replay HTTP {} digest {d:016x}, timed digest {timed_digest:016x}",
                response.status
            ));
        }
        // Equal digests make the timed body this body, so each distinct
        // read body is scanned once and its verdict holds for every
        // operation that returned it.
        if ok && matches!(step.op.kind, Kind::Read { .. }) {
            ok = *checked.entry(d).or_insert_with(|| {
                let verdict = check_fleet_body(body, step.entries);
                if let Err(e) = &verdict {
                    out.note(format!("op {k}: {e}"));
                }
                verdict.is_ok()
            });
        }
        failed[k] |= !ok;
        excluded += check.elapsed();
    }
    Replay {
        wall_s: (started.elapsed() - excluded).as_secs_f64(),
        tracer,
        build_transport,
        body_len,
        assessed,
    }
}

/// Assesses `entries` on the surface the state serves from, in one span.
fn assess(
    state: &AppState,
    plan: &Plan,
    surface: &mut Option<Arc<RiskSurface>>,
    entries: &[FleetEntry],
    tracer: &mut Tracer,
    op: u64,
) -> usize {
    let surface = surface.get_or_insert_with(|| state.surface(plan.server_seed, true));
    let inputs: Vec<_> = entries
        .iter()
        .filter_map(|e| Some((tn_core::find_device(&e.device)?, SiteParams::from_entry(e))))
        .collect();
    tracer.time("fleet.surface.assess", op, || {
        for (device, site) in &inputs {
            std::hint::black_box(surface.assess(device, site));
        }
    });
    inputs.len()
}

/// Durations (µs) of the spans named `name` whose op id lies in `ops`.
fn stage_us(tracer: &Tracer, name: &str, ops: &RangeInclusive<u64>) -> Summary {
    let mut us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && ops.contains(&s.op))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    Summary::of(&mut us)
}

pub fn run(mix: Mix, run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(mix, run.seed, run.seconds);
    let fallbacks_before = tn_fleet::stats::mc_fallbacks_total();
    let timed = match timed_run(&plan, run, &mut out) {
        Ok(timed) => timed,
        Err(e) => {
            out.fail(format!("set-up failed: {e}"));
            return out;
        }
    };
    let n = timed.samples.len();
    out.attempted = (plan.warm * SETUP_REPS + n) as u64;
    // The operation sequence: the timed server's warm-up, then the timed
    // operations.
    let mut sequence: Vec<u64> = timed.warm_record.digests.clone();
    sequence.extend_from_slice(&timed.record.digests);
    let mut failed: Vec<bool> = timed.warm_record.ok.iter().map(|ok| !ok).collect();
    failed.extend(timed.record.ok.iter().map(|ok| !ok));

    // The first replay is the oracle alone. The other set-ups run spread
    // through it, so that the set-up median samples the host over
    // seconds rather than at one instant.
    let mut setups = vec![timed.first_setup_s];
    let mut warm_records = Vec::with_capacity(SETUP_REPS);
    let mut setup_out = Outcome::default();
    let mut setup_error = None;
    let mut expect = String::with_capacity(256);
    let every = (sequence.len() / SETUP_REPS).max(1);
    let mut extra = |k: usize| {
        if k % every == 0 && setups.len() < SETUP_REPS && setup_error.is_none() {
            match extra_set_up(&plan, &timed.config, &mut expect, &mut setup_out) {
                Ok((secs, record)) => {
                    setups.push(secs);
                    warm_records.push(record);
                }
                Err(e) => setup_error = Some(e),
            }
        }
    };
    replay(
        &plan,
        &sequence,
        &mut failed,
        false,
        false,
        &mut out,
        &mut extra,
    );
    // A sequence too short to space them all out gets the rest now.
    for _ in 0..SETUP_REPS {
        extra(every);
    }
    if let Some(e) = setup_error {
        out.fail(format!("set-up failed: {e}"));
    }
    out.notes.extend(setup_out.notes);
    // Every set-up's warm-up must match the timed server's.
    for record in &warm_records {
        for (k, (&d, &ok)) in record.digests.iter().zip(&record.ok).enumerate() {
            if !ok || d != sequence[k] {
                failed[k] = true;
                out.note(format!("set-up op {k} failed or differs between set-ups"));
            }
        }
    }

    let latency = timed.samples.summary();
    let p50_ms = latency.p50 / 1e6;
    let (throughput, windows) = timed.windows.median_rate();
    let floor_ms = timed.floors.sum_ns() / plan.cycle_len() as f64 / 1e6;
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s", Some(setups.len())),
        Metric::new("latency_floor_ms", floor_ms, "ms", Some(n)),
        Metric::new("peak_rss_mb", timed.peak_rss_mb, "MB", None),
    ];
    out.reported = vec![
        Metric::new("latency_p50_ms", p50_ms, "ms", Some(n)),
        Metric::new("throughput_per_s", throughput, "1/s", Some(windows)),
    ];

    // The first replay paid first-touch costs (page faults, cache
    // growth), so the traced replay is compared with an untraced one
    // that runs after it.
    let traced = run.trace.then(|| {
        let traced = replay(
            &plan,
            &sequence,
            &mut failed,
            true,
            true,
            &mut out,
            &mut |_| {},
        );
        let untraced = replay(
            &plan,
            &sequence,
            &mut failed,
            false,
            true,
            &mut out,
            &mut |_| {},
        );
        (traced, untraced.wall_s)
    });
    out.failed += failed.iter().filter(|f| **f).count() as u64;
    let fallbacks = tn_fleet::stats::mc_fallbacks_total() - fallbacks_before;
    if fallbacks > 0 {
        out.fail(format!("{fallbacks} queries fell back to Monte Carlo"));
    }
    let Some((traced, untraced_s)) = traced else {
        return out;
    };
    let t = &traced.tracer;
    // Stage medians cover the timed part of the sequence.
    let timed_ops = plan.warm as u64..=SETUP_OP - 1;
    let setup_ops = SETUP_OP..=SETUP_OP;
    let parse = stage_us(t, "server.http.parse", &timed_ops);
    let wants = stage_us(t, "server.router.wants_worker", &timed_ops);
    let handle = stage_us(t, "server.router.handle", &timed_ops);
    let to_bytes = stage_us(t, "server.http.to_bytes", &timed_ops);
    let json_parse = stage_us(t, "core.json.parse", &timed_ops);
    let per_byte = {
        let mut v: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.name == "core.json.parse" && timed_ops.contains(&s.op))
            .filter_map(|s| {
                let bytes = traced.body_len[s.op as usize];
                (bytes > 0).then(|| s.duration_ns() as f64 / bytes as f64)
            })
            .collect();
        Summary::of(&mut v)
    };
    let canonical = stage_us(t, "core.json.canonical", &timed_ops);
    let from_json = stage_us(t, "fleet.entry.from_json", &timed_ops);
    let write = stage_us(t, "fleet.registry.write", &timed_ops);
    let snapshot = stage_us(t, "fleet.registry.snapshot", &timed_ops);
    // Per entry over every assessed miss, warm-up included: the hot mix
    // only misses while warming.
    let assessed: usize = traced.assessed.iter().sum();
    let assess_ns = {
        let ns: u64 = t
            .spans()
            .iter()
            .filter(|s| s.name == "fleet.surface.assess")
            .map(|s| s.duration_ns())
            .sum();
        if assessed == 0 {
            0.0
        } else {
            ns as f64 / assessed as f64
        }
    };
    let build = stage_us(t, "fleet.surface.build", &setup_ops);
    let load = stage_us(t, "fleet.registry.load", &setup_ops);
    let [hits, misses, coalesced] = timed.cache;
    let lookups = (hits + misses + coalesced).max(1);
    let stage_sum = parse.p50 + wants.p50 + handle.p50 + to_bytes.p50;
    let overhead = 100.0 * (traced.wall_s - untraced_s) / untraced_s;
    let kernel = &traced.build_transport;
    let mut layers = crate::zero_layers();
    for (name, value, samples) in [
        ("server.http.parse_us", parse.p50, Some(parse.n)),
        ("server.router.wants_worker_us", wants.p50, Some(wants.n)),
        ("server.router.handle_us", handle.p50, Some(handle.n)),
        ("server.http.to_bytes_us", to_bytes.p50, Some(to_bytes.n)),
        ("server.io_us", p50_ms * 1e3 - stage_sum, Some(n)),
        (
            "server.cache.hit_ratio",
            hits as f64 / lookups as f64,
            Some(lookups as usize),
        ),
        ("server.cache.misses", misses as f64, None),
        ("server.cache.entries", timed.cache_entries as f64, None),
        (
            "server.response_kb",
            timed.body_bytes as f64 / 1024.0 / n.max(1) as f64,
            Some(n),
        ),
        ("server.conn.reconnects", timed.reconnects as f64, None),
        ("core.json.parse_us", json_parse.p50, Some(json_parse.n)),
        (
            "core.json.parse_ns_per_byte",
            per_byte.p50,
            Some(per_byte.n),
        ),
        ("core.json.canonical_us", canonical.p50, Some(canonical.n)),
        ("fleet.entry.from_json_us", from_json.p50, Some(from_json.n)),
        ("fleet.surface.assess_ns", assess_ns, Some(assessed)),
        ("fleet.surface.build_ms", build.p50 / 1e3, Some(build.n)),
        ("fleet.surface.mc_fallbacks", fallbacks as f64, None),
        ("fleet.registry.load_ms", load.p50 / 1e3, Some(load.n)),
        ("fleet.registry.write_us", write.p50, Some(write.n)),
        ("fleet.registry.snapshot_us", snapshot.p50, Some(snapshot.n)),
        ("transport.weighted_hps", kernel.histories_per_s(), None),
        ("transport.histories", kernel.histories as f64, None),
        ("transport.shards", kernel.shards as f64, None),
        (
            "transport.shard_mean_us",
            kernel.shard_mean_us(),
            Some(kernel.shards as usize),
        ),
        ("e2e.latency_p50_ms", p50_ms, Some(n)),
        ("e2e.latency_p99_ms", latency.p99 / 1e6, Some(n)),
        ("e2e.throughput_per_s", throughput, Some(windows)),
        ("trace.overhead_pct", overhead, None),
    ] {
        crate::set_layer(&mut layers, name, value, samples);
    }
    out.layers = layers;
    out.spans = Some(traced.tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_checker_accepts_consistent_totals_and_rejects_others() {
        let good = br#"{"count":2,"surface_hits":2,"mc_fallbacks":0,"surface_digest":"ab","totals":{"sdc_fit":3e0,"due_fit":1.5e0},"seed":1,"quick":true,"results":[{"id":"a","sdc":{"high_energy_fit":1e0,"thermal_fit":1e0,"total_fit":2e0},"due":{"total_fit":1e0}},{"id":"b","sdc":{"total_fit":1e0},"due":{"total_fit":5e-1}}]}"#;
        assert_eq!(check_fleet_body(good, 2), Ok(()));
        assert!(check_fleet_body(good, 3).is_err());
        let text = std::str::from_utf8(good).expect("ascii");
        let bad_total = text.replace("\"sdc_fit\":3e0", "\"sdc_fit\":3.1e0");
        assert!(check_fleet_body(bad_total.as_bytes(), 2).is_err());
        let fallback = text.replace("\"mc_fallbacks\":0", "\"mc_fallbacks\":1");
        assert!(check_fleet_body(fallback.as_bytes(), 2).is_err());
    }

    #[test]
    fn churn_sequence_reads_six_hits_per_write() {
        let plan = Plan::new(Mix::Churn, 3, 0.001);
        let first = plan.warm;
        assert!(plan.step(first).cycle == Some(0));
        let misses = (first..first + Plan::CYCLE)
            .filter(|&k| plan.step(k).miss)
            .count();
        assert_eq!(misses, 1);
        assert_eq!(plan.step(first + 1).entries, CHURN_ENTRIES + 1);
        assert_eq!(plan.step(first + Plan::CYCLE + 1).entries, CHURN_ENTRIES);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Plan::new(Mix::Hot, 11, 0.001);
        let b = Plan::new(Mix::Hot, 11, 0.001);
        let c = Plan::new(Mix::Hot, 12, 0.001);
        assert_eq!(a.ops[5].wire, b.ops[5].wire);
        assert_ne!(a.ops[5].wire, c.ops[5].wire);
        assert!(
            (1_000..1_600).contains(&a.ops[0].body.len()),
            "{}",
            a.ops[0].body.len()
        );
    }
}
