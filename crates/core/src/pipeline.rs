//! The end-to-end study pipeline: fault-injection profiling → paired
//! ChipIR/ROTAX campaigns → per-device reports.

use crate::registry::{workloads_for, DeviceEntry};
use crate::report::{DeviceReport, StudyReport};
use std::collections::HashMap;
use tn_beamline::{Campaign, Facility};
use tn_devices::{catalog, Device};
use tn_fault_injection::{InjectionCampaign, InjectionStats};
use tn_physics::units::Seconds;
use tn_workloads::Workload;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Fault injections per workload when profiling masking behaviour.
    pub injection_runs: u64,
    /// Beam-on hours per campaign (longer → tighter Poisson intervals).
    pub beam_hours: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            injection_runs: 300,
            beam_hours: 8.0,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for smoke tests and doc examples.
    pub fn quick() -> Self {
        Self {
            injection_runs: 60,
            beam_hours: 2.0,
        }
    }

    /// The high-statistics configuration every row of the reproduction
    /// ledger (`tn_verify::paper`) is measured with.
    pub fn thorough() -> Self {
        Self {
            injection_runs: 800,
            beam_hours: 40.0,
        }
    }
}

/// The study driver.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    seed: u64,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config, seed: 0 }
    }

    /// Sets the seed controlling workload inputs, fault draws and
    /// campaign noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Profiles one workload's fault-masking behaviour.
    fn profile(&self, workload: &dyn Workload) -> InjectionStats {
        InjectionCampaign::new(workload)
            .runs(self.config.injection_runs)
            .seed(self.seed ^ 0xf417)
            .execute()
    }

    /// Runs the full study: every catalog device, its codes, both beams.
    pub fn run(&self) -> StudyReport {
        self.run_devices(catalog::all_compute_devices())
    }

    /// Runs the study over `devices` instead of the catalog, in the
    /// given order: each device runs its kind's codes on both beams.
    ///
    /// Workload profiling is done once per distinct code (the profile
    /// depends only on the program, not the device); the per-device
    /// campaign pairs then run on scoped worker threads. Results are
    /// deterministic for a given seed regardless of thread count: every
    /// campaign derives its own RNG stream from `(device, workload)`.
    pub fn run_devices(&self, devices: Vec<Device>) -> StudyReport {
        // Stage spans feed the `tn_span_seconds` histograms behind the
        // CLI `profile` report and `/metrics`; they are telemetry-only
        // and never touch the RNG streams (tests/determinism.rs pins
        // byte-identical output at TRACE vs OFF).
        let _span = tn_obs::span("pipeline");
        tn_obs::info(
            "pipeline_start",
            &[
                ("seed", self.seed.into()),
                ("injection_runs", self.config.injection_runs.into()),
                ("beam_hours", self.config.beam_hours.into()),
            ],
        );
        let roster: Vec<DeviceEntry> = devices
            .into_iter()
            .map(|device| DeviceEntry {
                workloads: workloads_for(device.kind(), self.seed),
                device,
            })
            .collect();
        // Workload profiles depend only on the workload, not the device:
        // cache them by name so MxM is profiled once, not five times.
        let profile_span = tn_obs::span("pipeline.profile");
        let mut profiles: HashMap<&'static str, InjectionStats> = HashMap::new();
        for entry in &roster {
            for workload in &entry.workloads {
                profiles
                    .entry(workload.name())
                    .or_insert_with(|| self.profile(workload.as_ref()));
            }
        }
        drop(profile_span);
        let profiles = &profiles;
        let campaigns_span = tn_obs::span("pipeline.campaigns");
        let mut reports: Vec<Option<DeviceReport>> = (0..roster.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (d_idx, (entry, slot)) in roster.iter().zip(reports.iter_mut()).enumerate() {
                scope.spawn(move || {
                    let mut chipir = Vec::new();
                    let mut rotax = Vec::new();
                    for (w_idx, workload) in entry.workloads.iter().enumerate() {
                        let profile = profiles[workload.name()];
                        let campaign_seed =
                            self.seed ^ ((d_idx as u64) << 32) ^ ((w_idx as u64) << 16);
                        chipir.push(
                            Campaign::new(
                                Facility::chipir(),
                                &entry.device,
                                workload.name(),
                                profile,
                            )
                            .beam_time(Seconds::from_hours(self.config.beam_hours))
                            .seed(campaign_seed)
                            .run(),
                        );
                        rotax.push(
                            Campaign::new(
                                Facility::rotax(),
                                &entry.device,
                                workload.name(),
                                profile,
                            )
                            .beam_time(Seconds::from_hours(self.config.beam_hours))
                            .seed(campaign_seed ^ 0xbeef)
                            .run(),
                        );
                    }
                    *slot = Some(DeviceReport {
                        name: entry.device.name().to_string(),
                        chipir,
                        rotax,
                    });
                });
            }
        });
        drop(campaigns_span);
        let report_span = tn_obs::span("pipeline.report");
        let reports = reports
            .into_iter()
            .map(|r| r.expect("every device slot filled"))
            .collect();
        let report = StudyReport::new(reports, self.seed);
        drop(report_span);
        tn_obs::info(
            "pipeline_done",
            &[("devices", report.devices().len().into())],
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_produces_all_devices() {
        let report = Pipeline::new(PipelineConfig::quick()).seed(1).run();
        assert_eq!(report.devices().len(), 8);
        for d in report.devices() {
            assert!(!d.chipir.is_empty());
            assert_eq!(d.chipir.len(), d.rotax.len());
        }
    }

    #[test]
    fn pipeline_is_reproducible() {
        let a = Pipeline::new(PipelineConfig::quick()).seed(2).run();
        let b = Pipeline::new(PipelineConfig::quick()).seed(2).run();
        assert_eq!(a, b);
    }

    #[test]
    fn xeon_phi_ratio_far_exceeds_k20_ratio() {
        // The core Figure-5 shape must survive the whole pipeline,
        // including fault-injection modulation and Poisson noise.
        let report = Pipeline::new(PipelineConfig::default()).seed(3).run();
        let phi = report.device("Intel Xeon Phi").unwrap().sdc_ratio();
        let k20 = report.device("NVIDIA K20").unwrap().sdc_ratio();
        assert!(
            phi > 2.5 * k20,
            "Xeon Phi ratio {phi:.2} should dwarf K20 ratio {k20:.2}"
        );
    }

    #[test]
    fn fpga_never_shows_a_due() {
        let report = Pipeline::new(PipelineConfig::default()).seed(4).run();
        let fpga = report.device("Xilinx Zynq-7000").unwrap();
        let due_counts: u64 = fpga
            .chipir
            .iter()
            .chain(&fpga.rotax)
            .map(|r| r.due.count)
            .sum();
        assert_eq!(due_counts, 0, "the paper never observed an FPGA DUE");
    }
}
