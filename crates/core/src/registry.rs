//! The device/workload pairing the paper uses: each device class runs the
//! codes that fit its computational character (Section III-B).

use tn_devices::{catalog, Device, DeviceKind};
use tn_workloads::{
    bfs::Bfs, ced::CannyEdge, hotspot::HotSpot, lavamd::LavaMd, lud::Lud, mnist::Mnist, mxm::MxM,
    sc::StreamCompaction, yolo::Yolo, Workload,
};

/// A study entry: one device plus the workloads it runs under beam.
pub struct DeviceEntry {
    /// The device model.
    pub device: Device,
    /// The workloads assigned to it.
    pub workloads: Vec<Box<dyn Workload>>,
}

impl std::fmt::Debug for DeviceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceEntry")
            .field("device", &self.device.name())
            .field(
                "workloads",
                &self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Instantiates the paper's workload set for a device kind, sized for
/// fast campaigns (`seed` controls every input).
///
/// * Xeon Phi and GPUs run the HPC set (MxM, LUD, LavaMD, HotSpot);
///   GPUs additionally run YOLO (the paper's CNN-on-GPU case).
/// * The APU configurations run the heterogeneous set (SC, CED, BFS).
/// * The FPGA runs MNIST only ("a minimal network that would not
///   exercise sufficient resources on GPUs or Xeon Phis").
pub fn workloads_for(kind: DeviceKind, seed: u64) -> Vec<Box<dyn Workload>> {
    let hpc: Vec<Box<dyn Workload>> = vec![
        Box::new(MxM::new(24, seed)),
        Box::new(Lud::new(24, seed ^ 1)),
        Box::new(LavaMd::new(2, 8, seed ^ 2)),
        Box::new(HotSpot::new(16, 24, seed ^ 3)),
    ];
    match kind {
        DeviceKind::ManyCore => hpc,
        DeviceKind::Gpu => {
            let mut w = hpc;
            w.push(Box::new(Yolo::new(seed ^ 4)));
            w
        }
        DeviceKind::ApuCpu | DeviceKind::ApuGpu | DeviceKind::ApuHybrid => vec![
            Box::new(StreamCompaction::new(256, seed ^ 5)),
            Box::new(CannyEdge::new(48, 48, seed ^ 6)),
            Box::new(Bfs::new(12, seed ^ 7)),
        ],
        DeviceKind::Fpga => vec![Box::new(Mnist::new(1, seed ^ 8))],
    }
}

/// Looks a catalog device up by display name (case-insensitive), e.g.
/// for resolving the `device` field of an API request.
///
/// The catalog is deterministic and immutable, but *building* it is not
/// cheap — each device fits its ¹⁰B population against the reference
/// beam spectra — so it is constructed once per process and served from
/// a `OnceLock` thereafter. Hot callers (the fleet bulk endpoint
/// resolves a device per entry per request) rely on this being a scan
/// that borrows the catalog entry: no refit, no clone.
pub fn find_device(name: &str) -> Option<&'static Device> {
    find_device_indexed(name).map(|(_, device)| device)
}

/// [`find_device`], with the device's catalog index: its position in
/// [`tn_devices::all_compute_devices`], which is fixed. Two names find
/// the same device exactly when they find the same index.
pub fn find_device_indexed(name: &str) -> Option<(usize, &'static Device)> {
    static CATALOG: std::sync::OnceLock<Vec<Device>> = std::sync::OnceLock::new();
    let catalog = CATALOG.get_or_init(catalog::all_compute_devices);
    catalog
        .iter()
        .enumerate()
        .find(|(_, d)| d.name().eq_ignore_ascii_case(name))
}

/// Builds the full study roster: every catalog device with its codes.
pub fn full_roster(seed: u64) -> Vec<DeviceEntry> {
    catalog::all_compute_devices()
        .into_iter()
        .map(|device| {
            let workloads = workloads_for(device.kind(), seed);
            DeviceEntry { device, workloads }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_all_devices() {
        let roster = full_roster(1);
        assert_eq!(roster.len(), 8);
    }

    #[test]
    fn pairing_follows_the_paper() {
        let names = |kind| {
            workloads_for(kind, 1)
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(DeviceKind::ManyCore),
            ["MxM", "LUD", "LavaMD", "HotSpot"]
        );
        assert_eq!(
            names(DeviceKind::Gpu),
            ["MxM", "LUD", "LavaMD", "HotSpot", "YOLO"]
        );
        assert_eq!(names(DeviceKind::ApuHybrid), ["SC", "CED", "BFS"]);
        assert_eq!(names(DeviceKind::Fpga), ["MNIST"]);
    }

    #[test]
    fn device_lookup_is_case_insensitive() {
        assert!(find_device("NVIDIA K20").is_some());
        assert!(find_device("nvidia k20").is_some());
        assert!(find_device("PDP-11").is_none());
        let catalog = catalog::all_compute_devices();
        for (i, device) in catalog.iter().enumerate() {
            let upper = device.name().to_ascii_uppercase();
            let (index, found) = find_device_indexed(&upper).expect("a catalog name");
            assert_eq!((index, found.name()), (i, device.name()));
        }
    }

    #[test]
    fn workloads_are_runnable() {
        for entry in full_roster(2) {
            for w in &entry.workloads {
                assert!(!w.golden().is_empty(), "{} golden empty", w.name());
            }
        }
    }
}
