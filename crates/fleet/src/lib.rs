//! # tn-fleet — fleet-scale risk service
//!
//! Turns the per-device Monte-Carlo risk pipeline into something a
//! datacenter operator can poll at fleet rate. Two pieces:
//!
//! * [`FleetRegistry`] — a deterministic in-memory store of fleet
//!   entries (device model, site, altitude, ¹⁰B shield areal density,
//!   thermal-field scaling, workload AVF) with JSONL snapshot
//!   load/save via `tn_core::json`.
//! * [`RiskSurface`] — precomputed interpolation tables over the
//!   (altitude × ¹⁰B areal density) plane, built once from the
//!   transport kernel, so steady-state FIT queries are bilinear table
//!   lookups. Rigidity, thermal scaling and AVF enter the FIT
//!   arithmetic linearly and are applied analytically at query time;
//!   out-of-grid configurations fall back to a direct Monte-Carlo run
//!   (counted in [`stats`]). Construction is parallelised over grid
//!   columns with fork(column) substreams, so the tables are
//!   byte-identical for any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod registry;
pub mod stats;
pub mod surface;

pub use registry::{
    EntryFields, EntryMembers, FleetEntry, FleetError, FleetRegistry, RegistrySnapshot,
};
pub use surface::{RiskAssessment, RiskSource, RiskSurface, SiteParams, SurfaceConfig};
