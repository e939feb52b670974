//! Reproducibility guarantees across the whole stack: identical seeds
//! must give identical results regardless of parallelism, and distinct
//! seeds must actually vary.

use thermal_neutrons::core_api as tn;
use tn::fault_injection::InjectionCampaign;
use tn::workloads::mxm::MxM;
use tn::{Pipeline, PipelineConfig};

#[test]
fn pipeline_is_deterministic_across_runs() {
    let a = Pipeline::new(PipelineConfig::quick()).seed(11).run();
    let b = Pipeline::new(PipelineConfig::quick()).seed(11).run();
    assert_eq!(a, b);
}

/// `Pipeline::run` spawns one scoped worker per device, so every run
/// sees a different OS scheduling interleaving. The report must not:
/// each campaign derives its RNG stream from `(seed, device, workload)`
/// and the result slots are positional, so the interleaving is
/// unobservable. Repeated runs — including runs racing each other from
/// parallel threads — must produce byte-identical reports and JSON.
#[test]
fn pipeline_output_is_independent_of_thread_interleaving() {
    let baseline = Pipeline::new(PipelineConfig::quick()).seed(2).run();
    for _ in 0..3 {
        assert_eq!(Pipeline::new(PipelineConfig::quick()).seed(2).run(), baseline);
    }
    // Contend for the scheduler: four pipelines at once, same seed.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| Pipeline::new(PipelineConfig::quick()).seed(2).run()))
            .collect();
        for handle in handles {
            let report = handle.join().expect("pipeline thread panicked");
            assert_eq!(report, baseline);
            assert_eq!(report.to_json(), baseline.to_json());
        }
    });
}

#[test]
fn pipeline_varies_with_seed() {
    let a = Pipeline::new(PipelineConfig::quick()).seed(11).run();
    let b = Pipeline::new(PipelineConfig::quick()).seed(12).run();
    assert_ne!(a, b);
}

#[test]
fn injection_campaign_thread_count_is_irrelevant() {
    let one = InjectionCampaign::new(MxM::new(12, 5))
        .runs(96)
        .seed(9)
        .threads(1)
        .execute();
    let many = InjectionCampaign::new(MxM::new(12, 5))
        .runs(96)
        .seed(9)
        .threads(8)
        .execute();
    assert_eq!(one, many);
}

#[test]
fn detector_and_transport_streams_are_seed_stable() {
    use tn::environment::{Environment, Location, Surroundings, Weather};
    let env = Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    );
    let a = tn::detector::WaterBoxExperiment::paper_configuration(env.clone()).run(77);
    let b = tn::detector::WaterBoxExperiment::paper_configuration(env).run(77);
    assert_eq!(a, b);
}

#[test]
fn transport_tally_is_invariant_across_thread_counts() {
    use tn::physics::units::{Energy, Length};
    use tn::physics::Material;
    use tn::transport::{SlabStack, Transport, TransportConfig};

    use tn::transport::Layer;
    let stack = SlabStack::new(vec![
        Layer::new(Material::water(), Length::from_inches(1.0)),
        Layer::new(Material::cadmium(), Length(0.05)),
        Layer::new(Material::water(), Length::from_inches(1.0)),
    ]);
    // 10_000 is not a multiple of SHARD_SIZE, so the last shard is
    // partial — the decomposition must still be identical everywhere.
    let histories = 10_000;
    let reference = Transport::with_config(stack.clone(), TransportConfig::serial());
    let beam = reference.run_beam(Energy::from_mev(2.0), histories, 4242);
    let diffuse = reference.run_diffuse(Energy(0.0253), histories, 4242);
    for threads in [2, 3, 8, 64] {
        let t = Transport::with_config(stack.clone(), TransportConfig::with_threads(threads));
        assert_eq!(t.run_beam(Energy::from_mev(2.0), histories, 4242), beam);
        assert_eq!(t.run_diffuse(Energy(0.0253), histories, 4242), diffuse);
    }
}

/// Pins the transport tallies themselves, not only their thread
/// invariance: fixed-seed runs of all four sharded entry points through
/// the paper's 2-inch water slab, at a history count that leaves a
/// ragged final shard, must reproduce these exact counts and f64 bit
/// patterns, and the quick risk surface (built from transport runs) its
/// grid digest. A kernel or scheduler refactor that moves a single draw
/// or reorders a single floating-point sum fails here.
#[test]
fn transport_tallies_and_surface_digest_are_pinned() {
    use tn::physics::units::{Energy, Length};
    use tn::physics::Material;
    use tn::transport::{
        SlabStack, Tally, Transport, TransportConfig, VarianceReduction, WeightedTally, SHARD_SIZE,
    };

    let t = Transport::with_config(
        SlabStack::single(Material::water(), Length::from_inches(2.0)),
        TransportConfig::with_threads(3),
    );
    let histories = 2 * SHARD_SIZE + 777;
    let (fast, thermal) = (Energy::from_mev(2.0), Energy(0.0253));
    let vr = VarianceReduction::default();
    let bits = |w: WeightedTally| {
        assert_eq!(w.histories, histories);
        [
            w.transmitted_thermal,
            w.transmitted_fast,
            w.reflected_thermal,
            w.reflected_fast,
            w.absorbed,
            w.lost,
            w.transmitted_thermal_sq,
            w.absorbed_sq,
        ]
        .map(f64::to_bits)
    };

    assert_eq!(
        t.run_beam(fast, histories, 2020),
        Tally {
            histories,
            transmitted_thermal: 494,
            transmitted_fast: 5424,
            reflected_thermal: 461,
            reflected_fast: 2316,
            absorbed: 274,
            lost: 0,
        }
    );
    assert_eq!(
        t.run_diffuse(thermal, histories, 2020),
        Tally {
            histories,
            transmitted_thermal: 787,
            transmitted_fast: 0,
            reflected_thermal: 6713,
            reflected_fast: 0,
            absorbed: 1469,
            lost: 0,
        }
    );
    assert_eq!(
        bits(t.run_beam_weighted(fast, histories, 2020, vr)),
        [
            0x407c_6bdb_1f20_ccae,
            0x40b5_4bdb_753b_1efa,
            0x407d_96f8_2331_f0e0,
            0x40a1_ed90_5638_1597,
            0x4071_db53_1e19_48c1,
            0,
            0x406d_120d_3651_a047,
            0x4057_5f83_55be_2400,
        ]
    );
    assert_eq!(
        bits(t.run_diffuse_weighted(thermal, histories, 2020, vr)),
        [
            0x4088_82a2_f608_9e49,
            0,
            0x40ba_0e5a_3202_7cc2,
            0,
            0x4097_b099_be72_0539,
            0,
            0x4076_16c1_c06c_d905,
            0x4084_c708_eb13_130b,
        ]
    );
    assert_eq!(
        tn_fleet::RiskSurface::build(tn_fleet::SurfaceConfig::quick(42)).grid_digest(),
        0x8bb9_e97d_0e4e_0a16
    );
}

/// Shard-math edge cases: zero histories produce a well-defined empty
/// tally (fractions are 0.0, never NaN), and history counts that leave
/// a ragged final shard — or less than one full shard — merge
/// identically at any thread count, for both the analog and the
/// variance-reduced kernels.
#[test]
fn shard_edge_cases_are_well_defined_and_thread_invariant() {
    use tn::physics::units::{Energy, Length};
    use tn::physics::Material;
    use tn::transport::{
        SlabStack, Transport, TransportConfig, VarianceReduction, SHARD_SIZE,
    };

    let stack = SlabStack::single(Material::water(), Length::from_inches(2.0));
    let serial = Transport::with_config(stack.clone(), TransportConfig::serial());

    // histories == 0: zero shards, empty tally, finite rates.
    let empty = serial.run_beam(Energy::from_mev(1.0), 0, 99);
    assert_eq!(empty.histories, 0);
    assert_eq!(empty.transmitted_fraction(), 0.0);
    assert_eq!(empty.absorbed_fraction(), 0.0);
    assert_eq!(empty.thermal_escape_fraction(), 0.0);
    let empty_w = serial.run_beam_weighted(
        Energy::from_mev(1.0),
        0,
        99,
        VarianceReduction::default(),
    );
    assert_eq!(empty_w.histories, 0);
    assert_eq!(empty_w.transmitted_fraction(), 0.0);
    assert_eq!(empty_w.absorbed_fraction(), 0.0);
    assert_eq!(empty_w.weight_sum(), 0.0);

    // Ragged and sub-shard history counts: identical at any thread count.
    for histories in [1, SHARD_SIZE - 1, SHARD_SIZE + 1, 3 * SHARD_SIZE + 1234] {
        let reference = serial.run_beam(Energy::from_mev(2.0), histories, 4242);
        let reference_w = serial.run_diffuse_weighted(
            Energy(0.0253),
            histories,
            4242,
            VarianceReduction::default(),
        );
        assert_eq!(reference.histories, histories);
        for threads in [2, 5, 16] {
            let t = Transport::with_config(stack.clone(), TransportConfig::with_threads(threads));
            assert_eq!(
                t.run_beam(Energy::from_mev(2.0), histories, 4242),
                reference,
                "{histories} histories diverged at {threads} threads"
            );
            assert_eq!(
                t.run_diffuse_weighted(
                    Energy(0.0253),
                    histories,
                    4242,
                    VarianceReduction::default()
                ),
                reference_w,
                "weighted {histories} histories diverged at {threads} threads"
            );
        }
    }
}

/// The process-wide default (`--transport-threads`) must never change
/// results — the full pipeline JSON and the room boost factor are
/// byte-identical at any setting. One test owns every mutation of the
/// global so concurrently-running tests never observe a transient
/// value they didn't set (any value they *do* observe is harmless:
/// tallies are thread-count-invariant, which is what this proves).
#[test]
fn global_thread_default_does_not_change_results() {
    use tn::environment::DataCenterRoom;
    use tn::transport::{default_threads, set_default_threads};

    let baseline_report = Pipeline::new(PipelineConfig::quick()).seed(7).run();
    let baseline_json = baseline_report.to_json();
    let baseline_factor = DataCenterRoom::air_cooled().derive_thermal_factor(4_000, 9);
    for threads in [2, 8] {
        set_default_threads(threads);
        assert_eq!(default_threads(), threads);
        let report = Pipeline::new(PipelineConfig::quick()).seed(7).run();
        assert_eq!(report, baseline_report);
        assert_eq!(report.to_json(), baseline_json);
        assert_eq!(
            DataCenterRoom::air_cooled().derive_thermal_factor(4_000, 9),
            baseline_factor
        );
    }
    set_default_threads(1);
}

/// Telemetry is write-only: running the pipeline with TRACE-level
/// structured logging, a JSONL trace sink and a virtual clock must give
/// the byte-identical report JSON that a silent run gives. One test owns
/// every mutation of the tn-obs globals (level, stderr sink, trace file,
/// clock) so parallel tests never race on them.
#[test]
fn trace_level_telemetry_never_changes_results() {
    use std::sync::Arc;

    let baseline = Pipeline::new(PipelineConfig::quick()).seed(31).run();
    let baseline_json = baseline.to_json();

    let trace_path = std::env::temp_dir().join(format!(
        "tn-determinism-trace-{}.jsonl",
        std::process::id()
    ));
    tn::obs::set_stderr(false);
    tn::obs::set_trace_file(trace_path.to_str().expect("utf-8 temp path"))
        .expect("open trace file");
    tn::obs::set_clock(Arc::new(tn::obs::VirtualClock::starting_at(1_000)));
    tn::obs::set_level_str("trace").expect("trace is a valid level");

    let traced = Pipeline::new(PipelineConfig::quick()).seed(31).run();

    tn::obs::set_level_str("off").expect("off is a valid level");
    tn::obs::set_clock(Arc::new(tn::obs::RealClock));
    tn::obs::set_stderr(true);

    assert_eq!(traced, baseline, "TRACE telemetry must be write-only");
    assert_eq!(
        traced.to_json(),
        baseline_json,
        "report JSON must be byte-identical at TRACE vs OFF"
    );
    // The traced run must actually have produced trace events.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let _ = std::fs::remove_file(&trace_path);
    assert!(
        trace.lines().count() > 0,
        "TRACE run emitted no events into {}",
        trace_path.display()
    );
    assert!(trace.contains("\"msg\":\"pipeline_start\""), "{trace}");
    assert!(trace.contains("\"span\":\"pipeline\""), "{trace}");
}

#[test]
fn validation_passes_on_the_canonical_seed() {
    let report = Pipeline::new(PipelineConfig::default()).seed(2020).run();
    let v = tn::validation::validate(&report, 0.5);
    assert!(v.is_clean(), "{:?}", v.findings);
}
