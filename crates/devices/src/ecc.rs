//! SECDED ECC modelling.
//!
//! The paper's DDR conclusion: "all the observed transient and
//! intermittent errors were single bit flip … SECDED ECC is shown to be
//! sufficient to correct most thermal neutrons induced errors. On the
//! contrary, in a SEFI error multiple corrupted bits were observed."
//! This module provides the word-level SECDED outcome model used to turn
//! a classified error log into corrected/detected/uncorrected counts.

use crate::ddr::CorrectLoopLog;
use std::collections::BTreeMap;

/// ECC word width in data bits (the standard x72/x64 DIMM organisation).
pub const DATA_BITS_PER_WORD: u64 = 64;

/// Outcome of pushing one memory word through SECDED.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// No erroneous bits.
    Clean,
    /// Exactly one bad bit: corrected transparently.
    Corrected,
    /// Exactly two bad bits: detected, reported, not corrected (DUE).
    Detected,
    /// Three or more bad bits: potentially silent corruption.
    Uncorrected,
}

/// Classifies a word by its number of erroneous bits.
pub fn secded_outcome(bad_bits_in_word: u32) -> EccOutcome {
    match bad_bits_in_word {
        0 => EccOutcome::Clean,
        1 => EccOutcome::Corrected,
        2 => EccOutcome::Detected,
        _ => EccOutcome::Uncorrected,
    }
}

/// Aggregate ECC results over a correct-loop log.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EccReport {
    /// Words with a single corrected bit.
    pub corrected: u64,
    /// Words with a detected-but-uncorrectable double error.
    pub detected: u64,
    /// Words with ≥3 bad bits (SEFI bursts).
    pub uncorrected: u64,
}

impl EccReport {
    /// Fraction of erroneous words fully handled (corrected).
    pub fn coverage(&self) -> f64 {
        let total = self.corrected + self.detected + self.uncorrected;
        if total == 0 {
            1.0
        } else {
            self.corrected as f64 / total as f64
        }
    }
}

/// Replays a correct-loop log through SECDED: bits are grouped into
/// 64-bit words by address, per sweep.
pub fn replay_with_ecc(log: &CorrectLoopLog) -> EccReport {
    let mut report = EccReport::default();
    for sweep in &log.sweeps {
        let mut words: BTreeMap<u64, u32> = BTreeMap::new();
        for err in &sweep.errors {
            *words.entry(err.address / DATA_BITS_PER_WORD).or_default() += 1;
        }
        for (_, bad) in words {
            match secded_outcome(bad) {
                EccOutcome::Clean => {}
                EccOutcome::Corrected => report.corrected += 1,
                EccOutcome::Detected => report.detected += 1,
                EccOutcome::Uncorrected => report.uncorrected += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr::{classify, CorrectLoop, DdrModule};
    use tn_physics::units::{Flux, Seconds};

    #[test]
    fn outcome_table() {
        assert_eq!(secded_outcome(0), EccOutcome::Clean);
        assert_eq!(secded_outcome(1), EccOutcome::Corrected);
        assert_eq!(secded_outcome(2), EccOutcome::Detected);
        assert_eq!(secded_outcome(3), EccOutcome::Uncorrected);
        assert_eq!(secded_outcome(100), EccOutcome::Uncorrected);
    }

    #[test]
    fn ecc_corrects_most_thermal_errors() {
        let mut tester = CorrectLoop::new(DdrModule::ddr3(), 21);
        let log = tester.run(Flux(2.72e6), Seconds(4000.0), Seconds(10.0));
        let report = replay_with_ecc(&log);
        // Single-bit transients/intermittents/permanents dominate; only
        // SEFI bursts defeat SECDED.
        assert!(report.coverage() > 0.8, "coverage = {}", report.coverage());
    }

    #[test]
    fn sefi_words_are_uncorrectable() {
        let mut tester = CorrectLoop::new(DdrModule::ddr4(), 23);
        let log = tester.run(Flux(2.72e7), Seconds(8000.0), Seconds(10.0));
        let classified = classify(&log);
        let report = replay_with_ecc(&log);
        if classified.sefi > 0 {
            assert!(report.uncorrected > 0, "SEFI should defeat SECDED");
        }
    }

    #[test]
    fn empty_report_has_full_coverage() {
        assert_eq!(EccReport::default().coverage(), 1.0);
    }
}
