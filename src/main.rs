//! `thermal-neutrons` — command-line front end for the study.
//!
//! ```text
//! thermal-neutrons figure5 [--seed N] [--quick]
//! thermal-neutrons fit [--seed N]
//! thermal-neutrons waterbox [--seed N]
//! thermal-neutrons ddr [--seed N]
//! thermal-neutrons spectra
//! thermal-neutrons serve [--addr A] [--threads N] [--seed N] [--fleet FILE]
//!                        [--idle-timeout-ms N] [--max-requests-per-conn N]
//!                        [--surface-cache FILE]
//! thermal-neutrons transport [--material M] [--thickness-cm T] [--energy-ev E]
//!                            [--histories N] [--diffuse] [--vr] [--seed N]
//! thermal-neutrons load [--addr A] [--rate-hz R] [--duration-s D] [--workers N]
//!                       [--devices N] [--smoke] [--full-surfaces] [--keep-alive]
//!                       [--out FILE]
//! thermal-neutrons profile <command> [args...]
//! thermal-neutrons verify [--quick] [--seed N] [--out FILE]
//! thermal-neutrons watch [--seed N] [--json] [--out FILE]
//! thermal-neutrons scenario [--name NAME | --file FILE | --list]
//!                           [--seed N] [--json] [--out FILE]
//! ```
//!
//! Global observability flags (any command): `--log-level LEVEL`
//! (error/warn/info/debug/trace/off; `TN_LOG` is the env fallback) and
//! `--trace-out FILE` (append structured JSONL trace events).
//!
//! Every usage error — unknown command, flag without a value, value that
//! does not parse — funnels through one `Result` path in [`run`] and
//! exits with status 2.

use thermal_neutrons::core_api as tn;
use tn::environment::{Environment, Location, Surroundings, Weather};
use tn::{Pipeline, PipelineConfig};
use tn_server::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("{message}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let seed = flag_value::<u64>(args, "--seed")?.unwrap_or(2020);
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(level) = flag_value::<String>(args, "--log-level")? {
        tn::obs::set_level_str(&level).map_err(|e| format!("--log-level: {e}"))?;
    }
    if let Some(path) = flag_value::<String>(args, "--trace-out")? {
        tn::obs::set_trace_file(&path)
            .map_err(|e| format!("--trace-out: cannot open `{path}`: {e}"))?;
    }
    if let Some(threads) = flag_value::<usize>(args, "--transport-threads")? {
        // Thread count only affects wall-clock time: the sharded transport
        // produces identical tallies for any value (see tn-transport docs).
        tn::transport::set_default_threads(threads);
    }

    match command {
        "figure5" => figure5(seed, quick),
        "fit" => fit(seed, quick),
        "waterbox" => waterbox(seed),
        "ddr" => ddr(seed),
        "spectra" => spectra(),
        "serve" => return serve(args, seed),
        "load" => return load(args, seed),
        "transport" => return transport(args, seed),
        "profile" => return profile(args),
        "verify" => return verify(args, seed, quick),
        "watch" => return watch(args, seed),
        "scenario" => return scenario(args, seed),
        "help" | "--help" | "-h" => help(),
        other => return Err(format!("unknown command `{other}`\n\n{}", help_text())),
    }
    Ok(())
}

/// `profile <command> [args...]` — run a subcommand, then print a timing
/// report from the global tn-obs registry: every span and histogram with
/// count, mean and p50/p90/p99.
fn profile(args: &[String]) -> Result<(), String> {
    let inner: Vec<String> = args[1..].to_vec();
    let inner_command = inner.first().map(String::as_str).unwrap_or("");
    if inner_command.is_empty() || inner_command == "profile" {
        return Err(format!(
            "profile requires a command to run\n\n{}",
            help_text()
        ));
    }
    run(&inner)?;
    print!("{}", render_profile_report());
    Ok(())
}

/// Renders the per-span / per-histogram timing table from the global
/// registry. Durations are stored as nanoseconds; shown as seconds.
fn render_profile_report() -> String {
    let mut out = String::from("\nprofile (tn-obs global registry):\n");
    let snapshots = tn::obs::global().histogram_snapshots();
    if snapshots.iter().all(|(_, _, s)| s.count() == 0) {
        out.push_str("  (no observations recorded)\n");
        return out;
    }
    out.push_str(&format!(
        "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "series", "count", "mean", "p50", "p90", "p99"
    ));
    for (name, labels, snap) in snapshots {
        if snap.count() == 0 {
            continue;
        }
        let mut series = name.clone();
        for (k, v) in &labels {
            series.push_str(&format!("{{{k}={v}}}"));
        }
        // Nanos-unit histograms (all `*_seconds` series) print seconds;
        // anything else (e.g. byte sizes) prints raw units.
        let scale = if name.ends_with("_seconds") { 1e-9 } else { 1.0 };
        out.push_str(&format!(
            "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            series,
            snap.count(),
            format_scaled(snap.mean(), scale),
            format_scaled(snap.quantile(0.50), scale),
            format_scaled(snap.quantile(0.90), scale),
            format_scaled(snap.quantile(0.99), scale),
        ));
    }
    out
}

fn format_scaled(v: f64, scale: f64) -> String {
    let v = v * scale;
    if scale == 1.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.1}us", v * 1e6)
    }
}

/// Parses the value following `flag`, if the flag is present.
///
/// Works for any `FromStr` payload (`u64` seeds, `usize` thread counts,
/// `String` addresses alike); a missing or unparseable value is an
/// `Err`, so every caller shares the exit-2 path in [`main`] instead of
/// exiting from inside a helper.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(idx) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(idx + 1)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|e| format!("{flag}: invalid value `{raw}`: {e}"))
}

fn serve(args: &[String], seed: u64) -> Result<(), String> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: flag_value::<String>(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".into()),
        threads: flag_value::<usize>(args, "--threads")?.unwrap_or(4).max(1),
        seed,
        transport_threads: tn::transport::default_threads(),
        fleet_path: flag_value::<String>(args, "--fleet")?,
        idle_timeout: flag_value::<u64>(args, "--idle-timeout-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.idle_timeout),
        max_requests_per_conn: flag_value::<usize>(args, "--max-requests-per-conn")?
            .unwrap_or(defaults.max_requests_per_conn),
        surface_cache: flag_value::<String>(args, "--surface-cache")?,
        ..defaults
    };
    let server =
        Server::bind(&config).map_err(|e| format!("serve: cannot bind {}: {e}", config.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("serve: no local address: {e}"))?;
    println!(
        "tn-server listening on http://{addr} (threads={}, seed={seed})",
        config.threads
    );
    server.run();
    Ok(())
}

/// `load [--addr A] [--rate-hz R] [--duration-s D] [--workers N]
/// [--devices N] [--smoke] [--full-surfaces] [--out FILE]` — drive the
/// fleet risk service open-loop and write the latency report as
/// `BENCH_fleet.json`.
///
/// Without `--addr`, an in-process server is spawned on an ephemeral
/// loopback port (with `--fleet FILE` honoured for its registry) and
/// torn down when the run completes, so the harness is self-contained
/// for CI. `--smoke` (or `TN_BENCH_SMOKE=1`) marks the artifact as a
/// smoke run; `--full-surfaces` asks for full-resolution risk surfaces
/// instead of the quick grid.
fn load(args: &[String], seed: u64) -> Result<(), String> {
    let rate_hz = flag_value::<f64>(args, "--rate-hz")?.unwrap_or(200.0);
    let duration_s = flag_value::<f64>(args, "--duration-s")?.unwrap_or(2.0);
    let workers = flag_value::<usize>(args, "--workers")?.unwrap_or(4).max(1);
    let devices = flag_value::<usize>(args, "--devices")?.unwrap_or(8).max(1);
    if !(rate_hz > 0.0 && rate_hz.is_finite()) {
        return Err(format!(
            "--rate-hz: must be positive and finite, got {rate_hz}"
        ));
    }
    if !(duration_s > 0.0 && duration_s.is_finite()) {
        return Err(format!(
            "--duration-s: must be positive and finite, got {duration_s}"
        ));
    }
    let smoke =
        std::env::var_os("TN_BENCH_SMOKE").is_some() || args.iter().any(|a| a == "--smoke");
    let quick_surfaces = !args.iter().any(|a| a == "--full-surfaces");
    let keep_alive = args.iter().any(|a| a == "--keep-alive");
    let out_path = flag_value::<String>(args, "--out")?
        .unwrap_or_else(|| "target/tn-bench/BENCH_fleet.json".into());

    // Target an external server, or spawn one in-process for a
    // self-contained run.
    let external = flag_value::<String>(args, "--addr")?;
    let (addr, handle) = match external {
        Some(addr) => (addr, None),
        None => {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: flag_value::<usize>(args, "--threads")?.unwrap_or(4).max(1),
                seed,
                transport_threads: tn::transport::default_threads(),
                fleet_path: flag_value::<String>(args, "--fleet")?,
                ..ServerConfig::default()
            };
            let server = Server::bind(&config)
                .map_err(|e| format!("load: cannot bind in-process server: {e}"))?;
            let handle = server.spawn();
            (handle.addr().to_string(), Some(handle))
        }
    };

    let config = tn_fleet::LoadConfig {
        addr,
        rate_hz,
        duration_s,
        workers,
        devices_per_request: devices,
        seed,
        quick_surfaces,
        keep_alive,
        io_model: "epoll".to_string(),
    };
    println!(
        "load: {} at {rate_hz} req/s for {duration_s}s ({workers} workers, \
         {devices} devices/request, seed {seed}, {} surfaces, {})",
        config.addr,
        if quick_surfaces { "quick" } else { "full" },
        if keep_alive {
            "keep-alive"
        } else {
            "close-per-request"
        }
    );
    let result = tn_fleet::load::run(&config);
    if let Some(handle) = handle {
        handle.stop();
    }
    let report = result.map_err(|e| format!("load: {e}"))?;

    println!(
        "  {} ok, {} errors in {:.2}s (offered {:.1} req/s, achieved {:.1} req/s)",
        report.requests, report.errors, report.wall_s, report.offered_rps, report.achieved_rps
    );
    println!(
        "  latency p50 {:.3}ms  p90 {:.3}ms  p99 {:.3}ms  mean {:.3}ms",
        report.p50_ns / 1e6,
        report.p90_ns / 1e6,
        report.p99_ns / 1e6,
        report.mean_ns / 1e6
    );
    let json = report.to_json(smoke).to_canonical_string();
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("load: cannot create `{}`: {e}", parent.display()))?;
        }
    }
    std::fs::write(&out_path, &json)
        .map_err(|e| format!("load: cannot write `{out_path}`: {e}"))?;
    println!("  -> {out_path}");
    Ok(())
}

/// `transport [--material M] [--thickness-cm T] [--energy-ev E]
/// [--histories N] [--diffuse] [--vr]` — run a single-slab Monte-Carlo
/// transport problem and print the tally. `--vr` switches from the
/// analog kernel to the variance-reduced weighted kernel and reports
/// the relative error on the thermal-transmission estimate.
fn transport(args: &[String], seed: u64) -> Result<(), String> {
    use tn::physics::units::{Energy, Length};
    use tn::physics::Material;
    use tn::transport::{Layer, SlabStack, Transport, TransportConfig, VarianceReduction};

    let material_name =
        flag_value::<String>(args, "--material")?.unwrap_or_else(|| "water".into());
    let material = match material_name.as_str() {
        "water" => Material::water(),
        "concrete" => Material::concrete(),
        "cadmium" => Material::cadmium(),
        "borated_polyethylene" | "borated_pe" => Material::borated_polyethylene(),
        "liquid_methane" => Material::liquid_methane(),
        "air" => Material::air(),
        other => {
            return Err(format!(
                "--material: unknown material `{other}` (expected water, concrete, \
                 cadmium, borated_polyethylene, liquid_methane or air)"
            ))
        }
    };
    let thickness = flag_value::<f64>(args, "--thickness-cm")?.unwrap_or(5.0);
    let energy = flag_value::<f64>(args, "--energy-ev")?.unwrap_or(0.0253);
    if !(thickness > 0.0 && thickness.is_finite()) {
        return Err(format!(
            "--thickness-cm: must be positive and finite, got {thickness}"
        ));
    }
    if !(energy > 0.0 && energy.is_finite()) {
        return Err(format!(
            "--energy-ev: must be positive and finite, got {energy}"
        ));
    }
    let histories = flag_value::<u64>(args, "--histories")?.unwrap_or(100_000);
    let diffuse = args.iter().any(|a| a == "--diffuse");
    let vr = args.iter().any(|a| a == "--vr");

    let stack = SlabStack::try_new(vec![Layer::try_new(material, Length(thickness))
        .map_err(|e| format!("transport: {e}"))?])
    .map_err(|e| format!("transport: {e}"))?;
    let t = Transport::with_config(
        stack,
        TransportConfig::with_threads(tn::transport::default_threads()),
    );
    let source = if diffuse { "diffuse" } else { "beam" };
    println!(
        "transport: {material_name} {thickness} cm, {energy} eV {source}, \
         {histories} histories, seed {seed}, kernel {}",
        if vr { "weighted+VR" } else { "analog" }
    );
    if vr {
        let tally = if diffuse {
            t.run_diffuse_weighted(Energy(energy), histories, seed, VarianceReduction::default())
        } else {
            t.run_beam_weighted(Energy(energy), histories, seed, VarianceReduction::default())
        };
        println!(
            "  transmitted (thermal) {:.5}  (rel. error {:.4})",
            tally.transmitted_thermal_fraction(),
            tally.transmitted_thermal_rel_error()
        );
        println!("  transmitted (total)   {:.5}", tally.transmitted_fraction());
        println!(
            "  reflected (thermal)   {:.5}",
            tally.reflected_thermal_fraction()
        );
        println!(
            "  absorbed              {:.5}  (rel. error {:.4})",
            tally.absorbed_fraction(),
            tally.absorbed_rel_error()
        );
    } else {
        let tally = if diffuse {
            t.run_diffuse(Energy(energy), histories, seed)
        } else {
            t.run_beam(Energy(energy), histories, seed)
        };
        println!(
            "  transmitted (thermal) {:.5}",
            tally.thermal_escape_fraction()
        );
        println!("  transmitted (total)   {:.5}", tally.transmitted_fraction());
        println!("  absorbed              {:.5}", tally.absorbed_fraction());
    }
    Ok(())
}

/// `verify [--quick] [--out FILE]` — run the tn-verify statistical,
/// oracle, golden-snapshot and self-test suites, print the pass/fail
/// table and write the machine-readable `VERIFY_report.json`.
///
/// `TN_BLESS=1` regenerates the golden artefacts instead of comparing;
/// `TN_GOLDEN_DIR` redirects where they are read from / written to.
fn verify(args: &[String], seed: u64, quick: bool) -> Result<(), String> {
    let out_path =
        flag_value::<String>(args, "--out")?.unwrap_or_else(|| "VERIFY_report.json".into());
    let report = tn_verify::run_all(tn_verify::VerifyOptions { seed, quick });
    print!("{}", report.render_table());
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| format!("verify: cannot write `{out_path}`: {e}"))?;
    println!("\nmachine-readable report: {out_path}");
    if report.passed() {
        Ok(())
    } else {
        Err(format!("verify: {} check(s) failed", report.failures()))
    }
}

/// `watch [--json] [--out FILE]` — replay the built-in water-pan
/// scenario (paper Fig. 6) through the tn-watch streaming monitor and
/// report the change-point alerts it raised.
///
/// A [`tn::obs::VirtualClock`] is installed first so telemetry
/// timestamps are deterministic: the same seed always produces
/// byte-identical output. Exits non-zero when the scenario's step is
/// not detected as the paper describes (exactly one `step_up`, onset in
/// the post-water segment, magnitude within ±5 % of the derived boost).
fn watch(args: &[String], seed: u64) -> Result<(), String> {
    tn::obs::set_clock(std::sync::Arc::new(tn::obs::VirtualClock::starting_at(0)));
    let json = args.iter().any(|a| a == "--json");
    let out_path = flag_value::<String>(args, "--out")?;

    let report = tn::detector::run_water_pan(seed);
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "tn-watch: {} scenario, seed {seed} ({} hourly samples, water at hour {})",
            report.scenario, report.samples, report.pre_samples
        );
        println!(
            "  baseline {:.1} counts/h, MC-derived boost {:+.1}%",
            3600.0 * report.baseline_rate,
            100.0 * report.derived_boost
        );
        if report.alerts.is_empty() {
            println!("  no alerts raised");
        }
        for a in &report.alerts {
            println!(
                "  alert: {} onset hour {} (detected hour {}), \
                 rate {:.1} -> {:.1} counts/h",
                a.kind.label(),
                a.onset_index,
                a.detected_index,
                3600.0 * a.baseline_rate,
                3600.0 * a.observed_rate
            );
        }
        if let Some(delay) = report.detection_delay {
            println!(
                "  step magnitude {:+.1}% (refined over the post-onset segment), \
                 detection delay {delay}h",
                100.0 * report.magnitude
            );
        }
        println!(
            "  detection: {}",
            if report.detects_paper_step(0.05) {
                "PASS (one step_up, magnitude within ±5% of the derived boost)"
            } else {
                "FAIL"
            }
        );
    }
    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("watch: cannot write `{path}`: {e}"))?;
        if !json {
            println!("  -> {path}");
        }
    }
    if report.detects_paper_step(0.05) {
        Ok(())
    } else {
        Err(format!(
            "watch: scenario step not detected as expected \
             ({} alert(s), magnitude {:+.3} vs derived boost {:+.3})",
            report.alerts.len(),
            report.magnitude,
            report.derived_boost
        ))
    }
}

/// `scenario [--name NAME | --file FILE | --list] [--json] [--out FILE]`
/// — run a scripted environment campaign through the tn-scenario engine
/// and report per-event detection outcomes and channel health.
///
/// Like `watch`, a [`tn::obs::VirtualClock`] is installed so telemetry
/// timestamps are deterministic (the runner itself keeps a private
/// virtual clock either way). Exits non-zero when the campaign misses
/// its conformance contract.
fn scenario(args: &[String], seed: u64) -> Result<(), String> {
    tn::obs::set_clock(std::sync::Arc::new(tn::obs::VirtualClock::starting_at(0)));
    if args.iter().any(|a| a == "--list") {
        for name in tn_scenario::builtin_names() {
            let s = tn_scenario::builtin(name).expect("built-in");
            println!(
                "{name}: {}h, {} channel(s), {} event(s), {} fault(s)",
                s.duration_hours,
                s.channels,
                s.events.len(),
                s.faults.len()
            );
        }
        return Ok(());
    }
    let name = flag_value::<String>(args, "--name")?;
    let file = flag_value::<String>(args, "--file")?;
    let scenario = match (name, file) {
        (Some(name), None) => tn_scenario::builtin(&name)
            .ok_or_else(|| format!("scenario: unknown built-in `{name}` (try --list)"))?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("scenario: cannot read `{path}`: {e}"))?;
            tn_scenario::Scenario::from_json(&text)
                .map_err(|e| format!("scenario: `{path}`: {e}"))?
        }
        (Some(_), Some(_)) => {
            return Err("scenario: --name and --file are mutually exclusive".into())
        }
        (None, None) => {
            return Err("scenario: need --name NAME, --file FILE or --list".into())
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let out_path = flag_value::<String>(args, "--out")?;

    let report = tn_scenario::run_scenario(&scenario, seed);
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "tn-scenario: {} seed {seed} ({} hourly samples, {} channel(s))",
            report.scenario.name, report.samples, report.scenario.channels
        );
        if let Some(boost) = report.moderation_boost {
            println!("  MC-derived moderation boost {:+.1}%", 100.0 * boost);
        }
        println!("  baseline {:.1} counts/h", 3600.0 * report.baseline_rate);
        for e in &report.events {
            let outcome = match (e.expected, e.detected, e.detection_delay) {
                (_, true, Some(d)) => format!("detected (+{d}h, {})", e.alert_kind.unwrap_or("?")),
                (false, _, _) => "below detection floor".to_string(),
                _ => "MISSED".to_string(),
            };
            println!(
                "  event @{}h {}{}: expected {:+.1}%, refined {:+.1}% — {outcome}",
                e.at_hour,
                e.kind,
                e.value.map(|v| format!(" {v}")).unwrap_or_default(),
                100.0 * e.expected_magnitude,
                100.0 * e.refined_magnitude,
            );
        }
        for c in &report.channels {
            match c.flagged_hour {
                Some(h) => println!("  channel {}: {} (flagged @{h}h)", c.channel, c.verdict.label()),
                None => println!("  channel {}: {}", c.channel, c.verdict.label()),
            }
        }
        println!(
            "  alerts: {} raised, {} uncredited",
            report.alerts.len(),
            report.unmatched_alerts
        );
        println!(
            "  conformance: {}",
            if report.conformant { "PASS" } else { "FAIL" }
        );
    }
    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("scenario: cannot write `{path}`: {e}"))?;
        if !json {
            println!("  -> {path}");
        }
    }
    if report.conformant {
        Ok(())
    } else {
        Err(format!(
            "scenario: `{}` missed its conformance contract \
             ({} uncredited alert(s), {} missed event(s))",
            report.scenario.name,
            report.unmatched_alerts,
            report
                .events
                .iter()
                .filter(|e| e.expected && !e.detected)
                .count()
        ))
    }
}

fn config(quick: bool) -> PipelineConfig {
    if quick {
        PipelineConfig::quick()
    } else {
        PipelineConfig::default()
    }
}

fn figure5(seed: u64, quick: bool) {
    let report = Pipeline::new(config(quick)).seed(seed).run();
    println!("Average cross-section ratio (high energy / thermal), seed {seed}:\n");
    print!("{}", report.render_ratio_table());
}

fn fit(seed: u64, quick: bool) {
    let report = Pipeline::new(config(quick)).seed(seed).run();
    let room = Surroundings::hpc_machine_room();
    let environments = [
        (
            "NYC",
            Environment::new(Location::new_york(), Weather::Sunny, room),
        ),
        (
            "Leadville",
            Environment::new(Location::leadville(), Weather::Sunny, room),
        ),
    ];
    println!("Thermal share of the total FIT rate (machine-room field), seed {seed}:\n");
    print!("{}", report.render_fit_table(&environments));
}

fn waterbox(seed: u64) {
    let env = Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    );
    let outcome = tn::detector::WaterBoxExperiment::paper_configuration(env).run(seed);
    println!(
        "Tin-II water box: derived boost {:+.1}%, observed step {:+.1}% (paper: +24%)",
        100.0 * outcome.derived_boost,
        100.0 * outcome.step()
    );
    for (day, chunk) in outcome.series.chunks(24).enumerate() {
        let mean = chunk.iter().map(|s| s.bare as f64).sum::<f64>() / chunk.len() as f64;
        let bar = "#".repeat((mean / 200.0) as usize);
        let marker = if day >= 4 { " <- water" } else { "" };
        println!("  day {:>2}: {:>6.0} {}{}", day + 1, mean, bar, marker);
    }
}

fn ddr(seed: u64) {
    use tn::devices::ddr::{classify, CorrectLoop, DdrModule};
    use tn::physics::units::{Flux, Seconds};
    for (module, hours) in [(DdrModule::ddr3(), 2.0), (DdrModule::ddr4(), 20.0)] {
        let generation = module.generation();
        let mut tester = CorrectLoop::new(module, seed);
        let log = tester.run(Flux(2.72e6), Seconds::from_hours(hours), Seconds(10.0));
        let c = classify(&log);
        println!(
            "{generation}: {} transient, {} intermittent, {} permanent, {} SEFI \
             (permanent {:.0}%)",
            c.transient,
            c.intermittent,
            c.permanent,
            c.sefi,
            100.0 * c.permanent_fraction()
        );
    }
}

fn spectra() {
    use tn::physics::spectrum::{chipir_reference, rotax_reference};
    use tn::physics::EnergyBand;
    for s in [chipir_reference(), rotax_reference()] {
        println!("{}:", s.name());
        for band in EnergyBand::ALL {
            println!("  {band:?}: {:.3e} n/cm2/s", s.flux_in(band).value());
        }
    }
}

fn help() {
    println!("{}", help_text());
}

fn help_text() -> String {
    "thermal-neutrons — simulation study of thermal-neutron reliability risk\n\
     \n\
     commands:\n\
     \x20 figure5    per-device HE/thermal cross-section ratios (paper Fig. 5)\n\
     \x20 fit        thermal share of device FIT rates at NYC and Leadville\n\
     \x20 waterbox   the Tin-II water-box experiment (paper Fig. 6)\n\
     \x20 ddr        DDR3/DDR4 correct-loop classification (paper Fig. 4)\n\
     \x20 spectra    beamline band fluxes (paper Fig. 2)\n\
     \x20 serve      HTTP JSON API daemon (tn-server)\n\
     \x20 transport  one-slab Monte-Carlo tally (--material M, --thickness-cm T,\n\
     \x20            --energy-ev E, --histories N, --diffuse, --vr)\n\
     \x20 load       open-loop load harness for the fleet risk service; spawns an\n\
     \x20            in-process server unless --addr points at one; writes\n\
     \x20            BENCH_fleet.json (--rate-hz R, --duration-s D, --workers N,\n\
     \x20            --devices N, --smoke, --full-surfaces, --keep-alive,\n\
     \x20            --out FILE)\n\
     \x20 profile    run a command, then print span/latency percentiles\n\
     \x20 verify     statistical GOF + differential-oracle + golden-snapshot\n\
     \x20            suites; writes VERIFY_report.json (--out FILE overrides;\n\
     \x20            TN_BLESS=1 re-blesses the golden files)\n\
     \x20 watch      replay the water-pan scenario through the tn-watch\n\
     \x20            streaming change-point monitor (--json, --out FILE);\n\
     \x20            exits non-zero when the paper's step is not detected\n\
     \x20 scenario   run a scripted environment campaign with fault injection\n\
     \x20            (--name NAME for a built-in, --file FILE for a scenario\n\
     \x20            document, --list, --json, --out FILE); exits non-zero\n\
     \x20            when the campaign misses its conformance contract\n\
     \n\
     options: --seed N (default 2020), --quick (fast low-statistics run),\n\
     \x20        --transport-threads N (Monte-Carlo workers; results are\n\
     \x20        identical for any value, default 1),\n\
     \x20        --log-level error|warn|info|debug|trace|off (default\n\
     \x20        $TN_LOG or warn), --trace-out FILE (structured JSONL)\n\
     serve:   --addr HOST:PORT (default 127.0.0.1:7878), --threads N (event-loop\n\
     \x20        shards and Monte-Carlo workers, default 4; Linux only),\n\
     \x20        --fleet FILE (JSONL registry snapshot; default: demo fleet),\n\
     \x20        --idle-timeout-ms N (keep-alive idle close, default 5000),\n\
     \x20        --max-requests-per-conn N (0 = unlimited, default 10000),\n\
     \x20        --surface-cache FILE (persist built risk surfaces as JSONL)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert_eq!(flag_value::<u64>(&args(&["fit"]), "--seed"), Ok(None));
    }

    #[test]
    fn u64_flag_parses() {
        let a = args(&["fit", "--seed", "42"]);
        assert_eq!(flag_value::<u64>(&a, "--seed"), Ok(Some(42)));
    }

    #[test]
    fn string_flag_parses() {
        let a = args(&["serve", "--addr", "0.0.0.0:80"]);
        assert_eq!(
            flag_value::<String>(&a, "--addr"),
            Ok(Some("0.0.0.0:80".to_string()))
        );
    }

    #[test]
    fn missing_value_is_an_error_not_an_exit() {
        let a = args(&["fit", "--seed"]);
        let err = flag_value::<u64>(&a, "--seed").unwrap_err();
        assert!(err.contains("--seed requires a value"));
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let a = args(&["fit", "--seed", "banana"]);
        let err = flag_value::<u64>(&a, "--seed").unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("banana"), "{err}");
        // Negative numbers don't fit a u64 either.
        let a = args(&["fit", "--seed", "-1"]);
        assert!(flag_value::<u64>(&a, "--seed").is_err());
    }

    #[test]
    fn bad_seed_and_unknown_command_share_the_error_path() {
        assert!(run(&args(&["figure5", "--seed", "NaN"])).is_err());
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command `frobnicate`"));
        assert!(err.contains("commands:"), "usage text rides along");
    }

    #[test]
    fn serve_rejects_a_bad_thread_count() {
        let err = run(&args(&["serve", "--threads", "many"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn bad_log_level_is_a_usage_error() {
        let err = run(&args(&["spectra", "--log-level", "blaring"])).unwrap_err();
        assert!(err.contains("--log-level"), "{err}");
    }

    #[test]
    fn verify_out_flag_requires_a_value() {
        let err = run(&args(&["verify", "--out"])).unwrap_err();
        assert!(err.contains("--out requires a value"), "{err}");
    }

    #[test]
    fn scenario_rejects_bad_parameters() {
        let err = run(&args(&["scenario"])).unwrap_err();
        assert!(err.contains("--name"), "{err}");
        let err = run(&args(&["scenario", "--name", "nope"])).unwrap_err();
        assert!(err.contains("unknown built-in `nope`"), "{err}");
        let err = run(&args(&["scenario", "--name", "normal", "--file", "x.json"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&args(&["scenario", "--file", "/no/such/scenario.json"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn scenario_list_and_normal_run_succeed() {
        assert_eq!(run(&args(&["scenario", "--list"])), Ok(()));
        assert_eq!(
            run(&args(&["scenario", "--name", "normal", "--quick", "--json"])),
            Ok(())
        );
    }

    #[test]
    fn transport_rejects_bad_parameters() {
        let err = run(&args(&["transport", "--material", "unobtainium"])).unwrap_err();
        assert!(err.contains("unknown material `unobtainium`"), "{err}");
        let err = run(&args(&["transport", "--thickness-cm", "0"])).unwrap_err();
        assert!(err.contains("--thickness-cm"), "{err}");
        let err = run(&args(&["transport", "--thickness-cm", "-3"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = run(&args(&["transport", "--energy-ev", "0"])).unwrap_err();
        assert!(err.contains("--energy-ev"), "{err}");
        let err = run(&args(&["transport", "--histories", "lots"])).unwrap_err();
        assert!(err.contains("--histories"), "{err}");
    }

    #[test]
    fn transport_runs_all_kernel_and_source_combinations() {
        for extra in [
            &[][..],
            &["--diffuse"][..],
            &["--vr"][..],
            &["--diffuse", "--vr"][..],
        ] {
            let mut a = args(&[
                "transport",
                "--material",
                "cadmium",
                "--thickness-cm",
                "0.1",
                "--histories",
                "2000",
                "--seed",
                "7",
            ]);
            a.extend(extra.iter().map(|s| s.to_string()));
            assert_eq!(run(&a), Ok(()), "{extra:?}");
        }
    }

    #[test]
    fn load_rejects_bad_parameters() {
        let err = run(&args(&["load", "--rate-hz", "0"])).unwrap_err();
        assert!(err.contains("--rate-hz"), "{err}");
        let err = run(&args(&["load", "--duration-s", "-1"])).unwrap_err();
        assert!(err.contains("--duration-s"), "{err}");
        let err = run(&args(&["load", "--workers", "banana"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn load_runs_against_an_in_process_server_and_writes_the_report() {
        let out = std::env::temp_dir().join("tn_main_load_test.json");
        let out_str = out.to_string_lossy().to_string();
        let a = args(&[
            "load",
            "--rate-hz",
            "40",
            "--duration-s",
            "0.3",
            "--workers",
            "2",
            "--devices",
            "2",
            "--seed",
            "3",
            "--smoke",
            "--out",
            &out_str,
        ]);
        assert_eq!(run(&a), Ok(()));
        let text = std::fs::read_to_string(&out).expect("report written");
        let doc = tn::json::parse(&text).expect("report parses");
        assert_eq!(
            doc.get("name").and_then(|v| v.as_str()),
            Some("fleet_load")
        );
        assert_eq!(doc.get("smoke").and_then(|v| v.as_bool()), Some(true));
        let requests = doc
            .get("requests")
            .and_then(|v| v.as_f64())
            .expect("requests field");
        assert!(requests >= 1.0, "at least one request completed");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn watch_detects_the_paper_step_and_writes_the_report() {
        let out = std::env::temp_dir().join("tn_main_watch_test.json");
        let out_str = out.to_string_lossy().to_string();
        let a = args(&["watch", "--seed", "2020", "--json", "--out", &out_str]);
        assert_eq!(run(&a), Ok(()));
        let text = std::fs::read_to_string(&out).expect("report written");
        let doc = tn::json::parse(&text).expect("report parses");
        assert_eq!(
            doc.get("scenario").and_then(|v| v.as_str()),
            Some("water_pan")
        );
        let alerts = doc.get("alerts").and_then(|v| v.as_array()).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("kind").and_then(|v| v.as_str()),
            Some("step_up")
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn profile_without_a_command_is_a_usage_error() {
        let err = run(&args(&["profile"])).unwrap_err();
        assert!(err.contains("profile requires a command"), "{err}");
        let err = run(&args(&["profile", "profile"])).unwrap_err();
        assert!(err.contains("profile requires a command"), "{err}");
    }

    #[test]
    fn profile_report_renders_recorded_series() {
        // Put at least one observation into the global registry, then
        // check the report shape without running a whole pipeline.
        tn::obs::global()
            .histogram("tn_test_profile_seconds", &[], "test", tn::obs::Unit::Nanos)
            .observe(1_500_000);
        let report = render_profile_report();
        assert!(report.contains("tn_test_profile_seconds"), "{report}");
        assert!(report.contains("p99"), "{report}");
    }
}
