//! End-to-end and per-layer benchmark of the fleet risk service and the
//! Monte-Carlo transport kernel. See `README.md` beside this crate.
//!
//! ```text
//! tn-perfbench --workload <fleet_hot|fleet_churn|transport_field|all>
//!              --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process with at most one busy thread.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. Any failed operation or check makes the exit code 1.

mod client;
mod fleet;
mod stats;
mod trace;
mod transport;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tn-perfbench --workload <fleet_hot|fleet_churn|transport_field|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["fleet_hot", "fleet_churn", "transport_field"];

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
/// Each workload prints all of them; a layer the workload does not
/// touch reads 0.
const LAYERS: [(&str, &str); 32] = [
    ("server.http.parse_us", "us"),
    ("server.router.wants_worker_us", "us"),
    ("server.router.handle_us", "us"),
    ("server.http.to_bytes_us", "us"),
    ("server.io_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.misses", "count"),
    ("server.cache.entries", "count"),
    ("server.response_kb", "KB"),
    ("server.conn.reconnects", "count"),
    ("core.json.parse_us", "us"),
    ("core.json.parse_ns_per_byte", "ns/B"),
    ("core.json.canonical_us", "us"),
    ("fleet.entry.from_json_us", "us"),
    ("fleet.surface.assess_ns", "ns"),
    ("fleet.surface.build_ms", "ms"),
    ("fleet.surface.mc_fallbacks", "count"),
    ("fleet.registry.load_ms", "ms"),
    ("fleet.registry.write_us", "us"),
    ("fleet.registry.snapshot_us", "us"),
    ("transport.xs_build_us", "us"),
    ("transport.thermal_hps", "1/s"),
    ("transport.fast_hps", "1/s"),
    ("transport.weighted_hps", "1/s"),
    ("transport.histories", "count"),
    ("transport.shards", "count"),
    ("transport.shard_mean_us", "us"),
    ("transport.weighted_rel_error", "ratio"),
    ("e2e.latency_p50_ms", "ms"),
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.throughput_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it summarises several.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: Option<usize>) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Every per-layer metric at 0.
pub fn zero_layers() -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit, None))
        .collect()
}

/// Sets one per-layer metric by name.
pub fn set_layer(layers: &mut [Metric], name: &str, value: f64, samples: Option<usize>) {
    let metric = layers
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    metric.value = value;
    metric.samples = samples;
}

/// What one workload run measured and how many operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (the first few).
    pub notes: Vec<String>,
    pub e2e: Vec<Metric>,
    /// End-to-end figures printed beside `e2e` but not gated: on a shared
    /// host they move with other tenants' load (see README).
    pub reported: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Counts a failed check that belongs to no single operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where the benchmark writes its snapshot and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

/// Runs every workload, each in a process of its own, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = workload.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Restricts the calling thread, and so every thread it spawns later,
/// to the CPU it is running on. A closed loop whose client and server
/// threads sit on different vCPUs measures cross-CPU wake-ups and thread
/// placement, not the code; on one CPU each hand-off is a local switch.
fn pin_to_current_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A 1024-bit `cpu_set_t`, as glibc defines it.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU index beyond cpu_set_t")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    // The server's own log default, pinned so a caller's TN_LOG cannot
    // change what is measured.
    tn_obs::set_level(Some(tn_obs::Level::Warn));
    if let Err(e) = pin_to_current_cpu() {
        eprintln!("warning: running unpinned, {e}");
    }

    let outcome = match workload.as_str() {
        "fleet_hot" => fleet::run(fleet::Mix::Hot, &run),
        "fleet_churn" => fleet::run(fleet::Mix::Churn, &run),
        _ => transport::run(&run),
    };

    println!(
        "# {workload} seed={} seconds={} trace={}",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let metrics = if run.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut correct = outcome.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    if run.trace {
        correct &= metrics.len() == LAYERS.len();
    }
    let reported = if run.trace {
        &[][..]
    } else {
        &outcome.reported[..]
    };
    let gated = metrics.iter().map(|m| (m, ""));
    for (m, note) in gated.chain(reported.iter().map(|m| (m, " [reported, not gated]"))) {
        match m.samples {
            Some(n) => println!(
                "{workload} {} = {} {} (n={n}){note}",
                m.name, m.value, m.unit
            ),
            None => println!("{workload} {} = {} {}{note}", m.name, m.value, m.unit),
        }
    }
    if let Some(tracer) = &outcome.spans {
        println!("# spans: name count total_ms self_ms");
        for t in tracer.totals() {
            println!(
                "#   {} {} {:.3} {:.3}",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = out_dir().join(format!("spans-{workload}-{}.jsonl", run.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                correct = false;
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("{workload}: {note}");
    }
    println!(
        "{workload}: attempted {} failed {} correct {correct}",
        outcome.attempted, outcome.failed
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_flag() {
        let (w, r) = parse_args(&args(
            "--workload fleet_hot --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(w, "fleet_hot");
        assert_eq!(
            r,
            RunConfig {
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet_hot --seed x --seconds 1 --trace 0",
            "--workload fleet_hot --seed 1 --seconds 0 --trace 0",
            "--workload fleet_hot --seed 1 --seconds 1 --trace 2",
            "--workload fleet_hot --seed 1 --seconds 1",
            "--workload fleet_hot --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
    }
}
