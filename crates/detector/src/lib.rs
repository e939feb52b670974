//! # tn-detector — the Tin-II thermal-neutron detector
//!
//! Simulation of the paper's homemade He-3 detector pair: a **bare** tube
//! counting all neutron reactions and a **cadmium-shielded** tube blind to
//! thermals. The difference of their rates, times an efficiency, is the
//! thermal-neutron flux — exactly the subtraction the paper performs.
//!
//! The headline experiment (Figure 6) counts for several days in a
//! data-center-like ambient field, then places two inches of water over
//! the detector and watches the thermal count rate step up. The size of
//! the step is *derived* here from Monte-Carlo moderation in the water
//! slab (`tn-transport`), not hard-coded; the campaign itself is the
//! `water-pan` scenario of tn-scenario.
//!
//! ## Example
//!
//! ```
//! use tn_detector::{He3Tube, Shielding};
//! use tn_physics::units::Flux;
//!
//! let bare = He3Tube::new(Shielding::Bare, 0.9);
//! let shielded = He3Tube::new(Shielding::Cadmium, 0.9);
//! let thermal = Flux(2.0e-3);
//! let fast = Flux(4.0e-3);
//! assert!(bare.expected_rate(thermal, fast) > shielded.expected_rate(thermal, fast));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod calibration;
pub mod he3;
pub mod tinii;

pub use calibration::{calibrate_pair, CalibrationResult};
pub use he3::{He3Tube, Shielding};
pub use tinii::{CountSample, TinII, WaterBoxExperiment};
