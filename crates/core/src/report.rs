//! Study results: per-device campaign collections, ratio extraction and
//! FIT folding — the data behind Figures 1, 5 and the FIT analysis.
//!
//! Machine-readable export is a hand-rolled JSON writer ([`StudyReport::to_json`])
//! rather than a serde derive: the hermetic-build policy keeps external
//! crates out of the build graph, and the report shape is small and stable
//! enough that a page of formatting code covers it. The escaping and
//! number-formatting primitives live in [`crate::json`], the JSON layer
//! shared with the `tn-server` HTTP API.

use crate::json::{push_json_f64, push_json_str};
use tn_beamline::CampaignResult;
use tn_environment::Environment;
use tn_fit::DeviceFit;
use tn_physics::units::CrossSection;

/// All campaign results for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// ChipIR (high-energy) campaigns, one per workload.
    pub chipir: Vec<CampaignResult>,
    /// ROTAX (thermal) campaigns, one per workload.
    pub rotax: Vec<CampaignResult>,
}

impl DeviceReport {
    fn mean_sigma(results: &[CampaignResult], sdc: bool) -> f64 {
        if results.is_empty() {
            return 0.0;
        }
        results
            .iter()
            .map(|r| if sdc { r.sdc.sigma } else { r.due.sigma })
            .sum::<f64>()
            / results.len() as f64
    }

    /// Device-average high-energy SDC cross section.
    pub fn sdc_sigma_he(&self) -> CrossSection {
        CrossSection(Self::mean_sigma(&self.chipir, true))
    }

    /// Device-average thermal SDC cross section.
    pub fn sdc_sigma_th(&self) -> CrossSection {
        CrossSection(Self::mean_sigma(&self.rotax, true))
    }

    /// Device-average high-energy DUE cross section.
    pub fn due_sigma_he(&self) -> CrossSection {
        CrossSection(Self::mean_sigma(&self.chipir, false))
    }

    /// Device-average thermal DUE cross section.
    pub fn due_sigma_th(&self) -> CrossSection {
        CrossSection(Self::mean_sigma(&self.rotax, false))
    }

    /// Figure-5 style average SDC cross-section ratio (HE / thermal);
    /// infinite when no thermal SDC was observed.
    pub fn sdc_ratio(&self) -> f64 {
        ratio(self.sdc_sigma_he().value(), self.sdc_sigma_th().value())
    }

    /// Figure-5 style average DUE ratio.
    pub fn due_ratio(&self) -> f64 {
        ratio(self.due_sigma_he().value(), self.due_sigma_th().value())
    }

    /// Folds the device's measured SDC cross sections with an environment.
    pub fn sdc_fit(&self, env: &Environment) -> DeviceFit {
        DeviceFit::from_cross_sections(self.sdc_sigma_he(), self.sdc_sigma_th(), env)
    }

    /// Folds the device's measured DUE cross sections with an environment.
    pub fn due_fit(&self, env: &Environment) -> DeviceFit {
        DeviceFit::from_cross_sections(self.due_sigma_he(), self.due_sigma_th(), env)
    }

    /// Serialises this device's campaigns as a single-line JSON object:
    /// `{"name":...,"chipir":[...],"rotax":[...]}` — the per-device slice
    /// of [`StudyReport::to_json`], also served by `tn-server`'s
    /// `/v1/cross-sections` endpoint.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }

    fn push_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_json_str(out, &self.name);
        out.push_str(",\"chipir\":");
        push_json_campaigns(out, &self.chipir);
        out.push_str(",\"rotax\":");
        push_json_campaigns(out, &self.rotax);
        out.push('}');
    }

    /// Per-workload SDC ratios `(workload, ratio)` — the Figure-1 series.
    pub fn per_workload_sdc_ratios(&self) -> Vec<(String, f64)> {
        self.chipir
            .iter()
            .filter_map(|he| {
                let th = self.rotax.iter().find(|r| r.workload == he.workload)?;
                Some((he.workload.clone(), ratio(he.sdc.sigma, th.sdc.sigma)))
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

fn push_json_cross_section(out: &mut String, m: &tn_beamline::MeasuredCrossSection) {
    out.push_str("{\"count\":");
    out.push_str(&m.count.to_string());
    out.push_str(",\"fluence\":");
    push_json_f64(out, m.fluence);
    out.push_str(",\"sigma\":");
    push_json_f64(out, m.sigma);
    out.push_str(",\"ci\":[");
    push_json_f64(out, m.ci.0);
    out.push(',');
    push_json_f64(out, m.ci.1);
    out.push_str("]}");
}

fn push_json_campaign(out: &mut String, r: &CampaignResult) {
    out.push_str("{\"device\":");
    push_json_str(out, &r.device);
    out.push_str(",\"workload\":");
    push_json_str(out, &r.workload);
    out.push_str(",\"facility\":");
    push_json_str(out, &r.facility);
    out.push_str(",\"beam_seconds\":");
    push_json_f64(out, r.beam_seconds);
    out.push_str(",\"sdc\":");
    push_json_cross_section(out, &r.sdc);
    out.push_str(",\"due\":");
    push_json_cross_section(out, &r.due);
    out.push('}');
}

fn push_json_campaigns(out: &mut String, rs: &[CampaignResult]) {
    out.push('[');
    for (i, r) in rs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_campaign(out, r);
    }
    out.push(']');
}

/// The whole study: one report per device.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    devices: Vec<DeviceReport>,
    /// RNG seed the study ran with.
    pub seed: u64,
}

impl StudyReport {
    /// Assembles a report.
    pub fn new(devices: Vec<DeviceReport>, seed: u64) -> Self {
        Self { devices, seed }
    }

    /// Per-device reports in catalog order.
    pub fn devices(&self) -> &[DeviceReport] {
        &self.devices
    }

    /// Looks a device up by name.
    pub fn device(&self, name: &str) -> Option<&DeviceReport> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// Serializes the whole study as a single-line JSON document.
    ///
    /// The layout mirrors the struct tree:
    /// `{"seed":N,"devices":[{"name":...,"chipir":[...],"rotax":[...]}]}`,
    /// with every campaign carrying its counts, fluence, sigma and 95 %
    /// confidence bounds. Non-finite bounds encode as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.push_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_beamline::MeasuredCrossSection;

    fn result(workload: &str, facility: &str, sdc: f64, due: f64) -> CampaignResult {
        CampaignResult {
            device: "dev".into(),
            workload: workload.into(),
            facility: facility.into(),
            beam_seconds: 1.0,
            sdc: MeasuredCrossSection::from_counts((sdc * 1e10) as u64, 1e10),
            due: MeasuredCrossSection::from_counts((due * 1e10) as u64, 1e10),
        }
    }

    fn report() -> DeviceReport {
        DeviceReport {
            name: "dev".into(),
            chipir: vec![
                result("MxM", "ChipIR", 4.0, 2.0),
                result("LUD", "ChipIR", 6.0, 4.0),
            ],
            rotax: vec![
                result("MxM", "ROTAX", 2.0, 1.0),
                result("LUD", "ROTAX", 3.0, 2.0),
            ],
        }
    }

    #[test]
    fn mean_cross_sections_average_workloads() {
        let r = report();
        assert!((r.sdc_sigma_he().value() - 5.0).abs() < 1e-9);
        assert!((r.sdc_sigma_th().value() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ratios_are_he_over_thermal() {
        let r = report();
        assert!((r.sdc_ratio() - 2.0).abs() < 1e-9);
        assert!((r.due_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_workload_ratios_pair_by_name() {
        let r = report();
        let rows = r.per_workload_sdc_ratios();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "MxM");
        assert!((rows[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_thermal_gives_infinite_ratio() {
        let mut r = report();
        r.rotax = vec![result("MxM", "ROTAX", 0.0, 0.0)];
        assert!(r.sdc_ratio().is_infinite());
    }

    #[test]
    fn json_export_has_the_full_tree() {
        let study = StudyReport::new(vec![report()], 42);
        let json = study.to_json();
        assert!(json.starts_with("{\"seed\":42,\"devices\":["));
        assert!(json.ends_with("]}"));
        for key in [
            "\"name\":",
            "\"chipir\":",
            "\"rotax\":",
            "\"workload\":\"MxM\"",
            "\"facility\":\"ChipIR\"",
            "\"count\":",
            "\"sigma\":",
            "\"ci\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced structure: every opened brace/bracket closes.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_and_non_finite_values() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut out = String::new();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_f64(&mut out, 2.5e-10);
        assert_eq!(out, "2.5e-10");
    }

    #[test]
    fn json_export_round_trips_through_the_parser() {
        let mut dev = report();
        dev.name = "weird \"name\"\twith\ncontrols \u{1}\u{8}\u{c}".into();
        // A campaign with no observed events has an unbounded (infinite)
        // upper confidence limit → must encode as null, not `inf`.
        dev.rotax = vec![result("MxM", "ROTAX", 0.0, 0.0)];
        let study = StudyReport::new(vec![dev.clone()], 42);
        let doc = crate::json::parse(&study.to_json()).expect("report JSON must parse");
        assert_eq!(
            doc.get("seed").and_then(crate::json::Json::as_u64),
            Some(42)
        );
        let devices = doc
            .get("devices")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        assert_eq!(
            devices[0].get("name").and_then(crate::json::Json::as_str),
            Some(dev.name.as_str())
        );
        // The per-device export is the same slice the study embeds.
        assert!(study.to_json().contains(&dev.to_json()));
    }

    #[test]
    fn json_export_is_deterministic() {
        let study = StudyReport::new(vec![report()], 7);
        assert_eq!(study.to_json(), study.to_json());
    }

    #[test]
    fn study_lookup_by_name() {
        let study = StudyReport::new(vec![report()], 42);
        assert!(study.device("dev").is_some());
        assert!(study.device("nope").is_none());
        assert_eq!(study.devices().len(), 1);
        assert_eq!(study.seed, 42);
    }
}
