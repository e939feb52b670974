//! # tn-bench — table/figure regeneration
//!
//! Each bench in `benches/` (all `harness = false`) regenerates one table
//! or figure of the paper (see DESIGN.md's per-experiment index) and
//! prints the paper-reported value next to the measured one. Nothing is
//! timed here: the repository's performance benchmark is `perfbench/`
//! (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

/// Prints a standard experiment header.
pub fn header(experiment: &str, paper_artifact: &str) {
    println!("\n================================================================");
    println!("{experiment} — regenerates {paper_artifact}");
    println!("================================================================");
}

/// Formats a paper-vs-measured row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("{label:<44} paper: {paper:<16} measured: {measured}");
}

/// Formats a ratio with a check against an expected band.
pub fn ratio_row(label: &str, paper: f64, measured: f64, tolerance_factor: f64) {
    let ok = measured > paper / tolerance_factor && measured < paper * tolerance_factor;
    let mark = if ok { "ok" } else { "DEVIATES" };
    println!("{label:<44} paper: {paper:<10.2} measured: {measured:<10.2} [{mark}]");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        header("FIG5", "cross-section ratios");
        row("Xeon Phi SDC", "10.14", "9.8");
        ratio_row("Xeon Phi SDC", 10.14, 9.8, 2.0);
        ratio_row("Xeon Phi SDC", 10.14, 1.0, 2.0);
    }
}
