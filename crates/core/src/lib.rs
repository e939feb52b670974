//! # tn-core — the thermal-neutron risk assessment pipeline
//!
//! The paper's contribution as a library: an end-to-end pipeline that
//!
//! 1. characterises every device's per-code SDC/DUE response with
//!    fault-injection campaigns ([`tn_fault_injection`]);
//! 2. "irradiates" each device+code pair on the simulated ChipIR and
//!    ROTAX beamlines ([`tn_beamline`]) and extracts high-energy and
//!    thermal cross sections with Poisson confidence intervals;
//! 3. forms the high-energy/thermal cross-section ratios (Figure 5);
//! 4. folds the cross sections with any terrestrial environment
//!    ([`tn_environment`]) to produce FIT rates and the thermal-neutron
//!    share of the total error rate ([`tn_fit`]).
//!
//! ## Quickstart
//!
//! ```no_run
//! use tn_core::{Pipeline, PipelineConfig};
//!
//! let report = Pipeline::new(PipelineConfig::default()).seed(42).run();
//! for device in report.devices() {
//!     println!("{}: HE/thermal SDC ratio = {:.2}", device.name, device.sdc_ratio());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache_key;
pub mod json;
pub mod pipeline;
pub mod registry;
pub mod report;
mod shortest;

pub use json::Json;
pub use pipeline::{Pipeline, PipelineConfig};
pub use registry::{find_device, find_device_indexed, workloads_for, DeviceEntry};
pub use report::{DeviceReport, StudyReport};

pub use tn_beamline as beamline;
pub use tn_detector as detector;
pub use tn_devices as devices;
pub use tn_environment as environment;
pub use tn_fault_injection as fault_injection;
pub use tn_fit as fit;
pub use tn_obs as obs;
pub use tn_physics as physics;
pub use tn_transport as transport;
pub use tn_workloads as workloads;
